import dataclasses
import inspect
import math

import numpy as np
import pytest

from roofentropy import (
    DensityOperator,
    Ensemble,
    PureState,
    Tolerances,
    ValidationError,
    convex_sum,
    diagonal_pinching,
    mutual_entropy,
    pure_ensemble,
    shorten,
)

LN2 = 0.6931471805599453


def two_point(a, b, p=0.5):
    return Ensemble(np.array([p, 1 - p]), (DensityOperator(a), DensityOperator(b)))


class TestEnsemble:
    def test_singleton(self):
        e = Ensemble(np.array([1.0]), (DensityOperator(np.eye(2) / 2),))
        assert len(e) == 1
        assert np.allclose(convex_sum(e).matrix, np.eye(2) / 2)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            Ensemble(np.array([0.6, 0.6]), (DensityOperator(np.eye(2) / 2),) * 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            Ensemble(np.array([1.2, -0.2]), (DensityOperator(np.eye(2) / 2),) * 2)

    def test_non_finite_weight_rejected(self):
        # NaN fails both the negativity and the weight-sum comparison.
        with pytest.raises(ValidationError, match="weights must be finite"):
            Ensemble(np.array([np.nan, 1.0]), (DensityOperator(np.eye(2) / 2),) * 2)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Ensemble(np.array([0.5, 0.5]), (DensityOperator(np.eye(2) / 2),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            Ensemble(
                np.array([0.5, 0.5]),
                (DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(3) / 3)),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Ensemble(np.array([]), ())

    def test_members_iteration(self):
        e = two_point(np.diag([1.0, 0]), np.diag([0, 1.0]))
        pairs = list(e.members())
        assert pairs[0][0] == 0.5 and pairs[1][0] == 0.5

    def test_pure_ensemble_builder(self):
        e = pure_ensemble([0.5, 0.5], [np.array([1.0, 0]), np.array([0, 1.0])])
        assert np.allclose(convex_sum(e).matrix, np.eye(2) / 2)

    def test_pure_ensemble_drops_negligible_members(self):
        # the dropped member's vector is not a unit vector, and is never checked
        e = pure_ensemble([1.0 - 1e-14, 1e-14], [np.array([1.0, 0]), np.zeros(2)])
        assert len(e) == 1 and e.weights.tolist() == [1.0 - 1e-14]
        with pytest.raises(ValidationError, match="every member fell below the weight cutoff"):
            pure_ensemble([1e-14, 0.0], [np.array([1.0, 0]), np.array([0, 1.0])])
        with pytest.raises(ValidationError, match="negative weight"):
            pure_ensemble([1.5, -0.5], [np.array([1.0, 0]), np.array([0, 1.0])])


class TestConvexSum:
    def test_orthogonal_halves(self):
        e = two_point(np.diag([1.0, 0]), np.diag([0, 1.0]))
        assert np.allclose(convex_sum(e).matrix, np.eye(2) / 2)

    def test_weighted_diagonal(self):
        e = two_point(np.diag([1.0, 0]), np.diag([0, 1.0]), p=0.3)
        assert np.allclose(convex_sum(e).matrix, np.diag([0.3, 0.7]))


class TestShorten:
    def test_drops_zero_weight(self):
        e = Ensemble(
            np.array([1.0, 0.0]),
            (DensityOperator(np.diag([1.0, 0])), DensityOperator(np.diag([0, 1.0]))),
        )
        short = shorten(e)
        assert len(short) == 1
        assert short.weights[0] == pytest.approx(1.0)

    def test_merges_duplicates(self):
        rho = DensityOperator(np.eye(2) / 2)
        e = Ensemble(np.array([0.25, 0.25, 0.5]), (rho, rho, DensityOperator(np.diag([1.0, 0]))))
        short = shorten(e)
        assert len(short) == 2
        assert sorted(short.weights) == pytest.approx([0.5, 0.5])

    def test_preserves_mixture(self, rng):
        mats = []
        for _ in range(3):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = g @ g.conj().T
            mats.append(h / np.trace(h).real)
        e = Ensemble(np.array([0.2, 0.3, 0.5]), tuple(DensityOperator(m) for m in mats))
        doubled = Ensemble(
            np.concatenate([e.weights / 2, e.weights / 2]), e.states + e.states
        )
        short = shorten(doubled)
        assert len(short) == 3
        assert np.max(np.abs(convex_sum(short).matrix - convex_sum(e).matrix)) <= 1e-12

    def test_idempotent(self):
        e = two_point(np.diag([1.0, 0]), np.diag([0, 1.0]))
        again = shorten(shorten(e))
        assert len(again) == 2


class TestMutualEntropy:
    def test_orthogonal_classical_bits(self):
        e = two_point(np.diag([1.0, 0]), np.diag([0, 1.0]))
        assert mutual_entropy(e, diagonal_pinching(2)) == pytest.approx(LN2, abs=1e-12)

    def test_skewed_pair_frozen(self):
        # one sharp member, one flat member, equal weights
        plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2)).density()
        e = Ensemble(np.array([0.5, 0.5]), (DensityOperator(np.diag([1.0, 0])), plus))
        got = mutual_entropy(e, diagonal_pinching(2))
        assert got == pytest.approx(0.21576155433883565, abs=1e-12)

    def test_forms_agree_full_rank(self, rng):
        for _ in range(10):
            mats = []
            for _ in range(3):
                g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                h = g @ g.conj().T + 0.05 * np.eye(3)
                mats.append(h / np.trace(h).real)
            e = Ensemble(np.array([0.2, 0.3, 0.5]), tuple(DensityOperator(m) for m in mats))
            ch = diagonal_pinching(3)
            holevo = mutual_entropy(e, ch, "holevo")
            relative = mutual_entropy(e, ch, "relative")
            assert holevo == pytest.approx(relative, abs=1e-10)
            assert holevo >= -1e-12

    @pytest.mark.parametrize("weights, tail, holevo", [
        ((0.99999, 0.00001), 1e-6, 1.15129260477e-10),
        ((0.999, 0.001), 1e-8, 6.90775536169e-11),
    ])
    def test_relative_form_finite_where_the_mixture_meets_the_cutoff(self, weights, tail, holevo):
        # The mixture's second eigenvalue is 1e-11, below the 1e-10 support
        # cutoff, while the second member carries more than the cutoff there.
        e = Ensemble(np.array(weights), (DensityOperator(np.diag([1.0, 0.0])),
                                         DensityOperator(np.diag([1.0 - tail, tail]))))
        ch = diagonal_pinching(2)
        assert mutual_entropy(e, ch, "holevo") == pytest.approx(holevo, rel=1e-11)
        assert abs(mutual_entropy(e, ch, "relative") - holevo) <= 1e-12

    def test_identical_members_carry_nothing(self):
        rho = DensityOperator(np.eye(2) / 2)
        e = Ensemble(np.array([0.5, 0.5]), (rho, rho))
        assert mutual_entropy(e, diagonal_pinching(2)) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_form_rejected(self):
        e = two_point(np.diag([1.0, 0]), np.diag([0, 1.0]))
        with pytest.raises(ValidationError):
            mutual_entropy(e, diagonal_pinching(2), "typo")

    def test_dimension_mismatch(self):
        e = two_point(np.diag([1.0, 0]), np.diag([0, 1.0]))
        with pytest.raises(ValidationError):
            mutual_entropy(e, diagonal_pinching(3))


class TestEnsembleTolerances:
    LOOSE = Tolerances(1e-3)
    # trace 1.00005: inside LOOSE, outside the defaults
    DRIFTED = np.diag([0.40005, 0.35, 0.25])

    def test_derived_objects_use_the_ensemble_tolerances(self):
        e = Ensemble([0.5, 0.5], [self.DRIFTED, self.DRIFTED], self.LOOSE)
        assert np.trace(convex_sum(e).matrix).real == pytest.approx(1.00005, abs=1e-12)
        ch = diagonal_pinching(3)
        holevo = mutual_entropy(e, ch, "holevo")
        assert holevo == pytest.approx(0.0, abs=1e-12)
        assert mutual_entropy(e, ch, "relative") == pytest.approx(holevo, abs=1e-10)
        short = shorten(e)
        assert len(short) == 1
        assert len(shorten(short)) == 1
        with pytest.raises(ValidationError, match="trace"):
            Ensemble([0.5, 0.5], [self.DRIFTED, self.DRIFTED])

    def test_tolerances_kept_outside_init_compare_and_repr(self):
        e = Ensemble([1.0], [np.eye(2) / 2], self.LOOSE)
        assert e._tol == self.LOOSE
        assert Ensemble([1.0], [np.eye(2) / 2])._tol == Tolerances()
        field = {f.name: f for f in dataclasses.fields(Ensemble)}["_tol"]
        assert (field.init, field.compare, field.repr) == (False, False, False)

    def test_shorten_takes_no_tolerances(self):
        assert list(inspect.signature(shorten).parameters) == ["ensemble"]
