import numpy as np
import pytest

import roofentropy.accinfo as accinfo
from roofentropy import (
    DensityOperator,
    Ensemble,
    Measurement,
    SolverConfig,
    ValidationError,
    benatti_bracket,
    channel_from_measurement,
    commutative_channel,
    convex_sum,
    diagonal_pinching,
    ensemble_from_subalgebra,
    holevo_check,
    measurement_mutual_info,
    mutual_entropy,
    reduce_state,
    solve_R,
    von_neumann_entropy,
)
from roofentropy.sampling import (
    _haar_unitaries,
    ginibre_density,
    haar_unitary,
    random_ensemble,
    random_projections,
)

from conftest import FAST

LN2 = 0.6931471805599453

RHO = np.array([[0.6, 0.2], [0.2, 0.4]])
DIAG_PROJS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def trine_outcomes():
    outcomes = []
    for k in range(3):
        t = 2 * np.pi * k / 3
        v = np.array([np.cos(t / 2), np.sin(t / 2)])
        outcomes.append((2.0 / 3.0) * np.outer(v, v))
    return tuple(outcomes)


def reference_info(ensemble, measurement):
    """Mutual entropy through the measurement's channel: the per-call route."""
    return mutual_entropy(ensemble, channel_from_measurement(measurement))


def bit_ensemble():
    return Ensemble(
        np.array([0.5, 0.5]),
        (
            DensityOperator(np.diag([1.0, 0.0])),
            DensityOperator(np.diag([0.0, 1.0])),
        ),
    )


class TestMeasurement:
    def test_from_basis_standard(self):
        m = Measurement.from_basis(np.eye(2))
        assert m.dim == 2
        assert np.allclose(m.outcomes[0], np.diag([1.0, 0.0]))
        assert np.allclose(m.outcomes[1], np.diag([0.0, 1.0]))

    def test_trine_povm_accepted(self):
        m = Measurement(trine_outcomes())
        assert m.dim == 2

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError, match="sum to identity"):
            Measurement((np.diag([1.0, 0.0]),))

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="Hermitian"):
            Measurement((bad, np.eye(2) - 0.5 * (bad + bad.T)))

    def test_rejects_negative_outcome(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            Measurement((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            Measurement((np.ones((1, 2)),))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="outcome 1 has non-finite"):
            Measurement((np.diag([1.0, 0.0]), np.diag([0.0, np.nan])))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="at least one"):
            Measurement(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError, match="mixed dimensions"):
            Measurement((np.eye(2), np.eye(3)))


class TestCanonicalEnsemble:
    def test_weights_are_projection_traces(self):
        ens = ensemble_from_subalgebra(DensityOperator(RHO), DIAG_PROJS)
        assert np.allclose(ens.weights, [0.6, 0.4], atol=1e-12)

    def test_mixes_back_to_state(self, rng):
        for dim in (2, 3, 4):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = g @ g.conj().T
            rho = DensityOperator(h / np.trace(h).real)
            projs = [np.zeros((dim, dim)) for _ in range(2)]
            cut = dim // 2
            for i in range(dim):
                projs[0 if i < cut else 1][i, i] = 1.0
            ens = ensemble_from_subalgebra(rho, projs)
            assert np.max(np.abs(convex_sum(ens).matrix - rho.matrix)) <= 1e-10

    def test_diagonal_state_gives_basis_members(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        ens = ensemble_from_subalgebra(rho, DIAG_PROJS)
        assert np.allclose(ens.states[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(ens.states[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_zero_weight_outcomes_dropped(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        ens = ensemble_from_subalgebra(rho, DIAG_PROJS)
        assert len(ens) == 1
        assert ens.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            ensemble_from_subalgebra(DensityOperator(np.eye(3) / 3), DIAG_PROJS)


class TestMeasurementChannel:
    def test_projective_channel_gives_outcome_probabilities(self):
        channel = channel_from_measurement(Measurement.from_basis(np.eye(2)))
        assert channel.block_dims == (1, 1)
        blocks = reduce_state(channel, DensityOperator(RHO))
        assert np.allclose(blocks.probabilities(), [0.6, 0.4], atol=1e-12)

    def test_full_rank_outcomes(self):
        m = Measurement((0.5 * np.eye(2), 0.5 * np.eye(2)))
        blocks = reduce_state(channel_from_measurement(m), DensityOperator(RHO))
        assert np.allclose(blocks.probabilities(), [0.5, 0.5], atol=1e-12)

    def test_trine_probabilities(self):
        m = Measurement(trine_outcomes())
        rho = DensityOperator(np.diag([1.0, 0.0]))
        blocks = reduce_state(channel_from_measurement(m), rho)
        expect = [(2.0 / 3.0) * np.cos(np.pi * k / 3) ** 2 for k in range(3)]
        assert np.allclose(blocks.probabilities(), expect, atol=1e-12)


class TestMutualInfo:
    def test_orthogonal_bits_full_bit(self):
        info = measurement_mutual_info(bit_ensemble(), Measurement.from_basis(np.eye(2)))
        assert info == pytest.approx(LN2, abs=1e-12)

    def test_conjugate_basis_reads_nothing(self):
        info = measurement_mutual_info(bit_ensemble(), Measurement.from_basis(HADAMARD))
        assert info == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            measurement_mutual_info(bit_ensemble(), Measurement.from_basis(np.eye(3)))

    def test_matches_channel_route_for_random_bases(self, rng):
        for dim in (2, 3, 4):
            for size in (1, 2, 5):
                ens = random_ensemble(dim, size, rng)
                m = Measurement.from_basis(haar_unitary(dim, rng))
                info = measurement_mutual_info(ens, m)
                assert abs(info - reference_info(ens, m)) <= 1e-12

    def test_matches_channel_route_for_povms(self, rng):
        # The trine, and a basis whose outcomes are split into weighted
        # copies: neither is projective, and the split outcomes have rank one
        # with weights below one.
        u = haar_unitary(3, rng)
        split = []
        for k, t in enumerate((0.2, 0.5, 0.9)):
            proj = np.outer(u[:, k], u[:, k].conj())
            split += [t * proj, (1.0 - t) * proj]
        for outcomes in (trine_outcomes(), tuple(split)):
            m = Measurement(outcomes)
            ens = random_ensemble(m.dim, 3, rng)
            info = measurement_mutual_info(ens, m)
            assert abs(info - reference_info(ens, m)) <= 1e-12

    def test_zero_weight_member_is_skipped(self, rng):
        a, b, c = (ginibre_density(3, rng) for _ in range(3))
        m = Measurement.from_basis(haar_unitary(3, rng))
        with_zero = Ensemble(np.array([0.3, 0.0, 0.7]), (a, b, c))
        without = Ensemble(np.array([0.3, 0.7]), (a, c))
        info = measurement_mutual_info(with_zero, m)
        assert abs(info - reference_info(with_zero, m)) <= 1e-12
        assert abs(info - measurement_mutual_info(without, m)) <= 1e-12


class TestBenattiBracket:
    def test_qubit_bracket(self):
        bracket = benatti_bracket(
            DensityOperator(RHO), DIAG_PROJS, FAST, measurement_samples=256
        )
        assert bracket.upper == pytest.approx(0.49956897502018127, abs=1e-6)
        assert bracket.lower == pytest.approx(0.4994616693693066, abs=1e-9)
        assert bracket.passed
        assert bracket.gap == pytest.approx(bracket.upper - bracket.lower, abs=1e-15)
        assert bracket.samples == 4 + 256
        assert 0 <= bracket.best_sample < bracket.samples

    def test_commuting_case_closes(self):
        bracket = benatti_bracket(
            DensityOperator(np.diag([0.7, 0.3])), DIAG_PROJS, FAST, measurement_samples=0
        )
        assert bracket.upper == pytest.approx(0.6108643020548935, abs=1e-7)
        assert bracket.closed
        assert abs(bracket.gap) <= 1e-7
        assert bracket.best_sample == 0

    def test_negative_samples_rejected(self):
        with pytest.raises(ValidationError, match="measurement_samples must be >= 0, got -5"):
            benatti_bracket(
                DensityOperator(RHO), DIAG_PROJS, FAST, measurement_samples=-5
            )

    @pytest.mark.parametrize("samples", [2.5, True])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValidationError, match="measurement_samples must be an integer"):
            benatti_bracket(
                DensityOperator(RHO), DIAG_PROJS, FAST, measurement_samples=samples
            )

    def test_batched_haar_draw_matches_sequential(self):
        for dim in (1, 2, 3, 5):
            batch = _haar_unitaries(7, dim, np.random.default_rng([3, 104729]))
            rng = np.random.default_rng([3, 104729])
            sequential = [haar_unitary(dim, rng) for _ in range(7)]
            assert batch.shape == (7, dim, dim)
            assert all(np.array_equal(batch[s], sequential[s]) for s in range(7))

    def test_samples_match_per_measurement_loop(self, rng, monkeypatch):
        seen = []
        batched = accinfo._mutual_info_many

        def spy(ensemble, outcomes):
            seen.append(batched(ensemble, outcomes))
            return seen[-1]

        monkeypatch.setattr(accinfo, "_mutual_info_many", spy)
        for dim in (2, 3, 4):
            rho = ginibre_density(dim, rng)
            projs = random_projections(dim, rng)
            cfg = SolverConfig(restarts=1, max_iters=5, seed=dim)
            bracket = benatti_bracket(rho, projs, cfg, measurement_samples=40)
            # Reference: one Measurement and channel per basis, with the Haar
            # bases drawn one at a time from the same stream.
            ens = ensemble_from_subalgebra(rho, projs)
            draws = np.random.default_rng([cfg.seed, 104729])
            bases = accinfo._structured_bases(rho, ens)
            bases += [haar_unitary(dim, draws) for _ in range(40)]
            expect = [reference_info(ens, Measurement.from_basis(b)) for b in bases]
            values = seen.pop()
            assert values.shape == (len(bases),) == (bracket.samples,)
            assert np.max(np.abs(values - expect)) <= 1e-12
            assert bracket.best_sample == expect.index(max(expect))
            assert bracket.lower == values[bracket.best_sample]

    def test_chunked_samples_match_per_measurement_loop(self, rng, monkeypatch):
        # More Haar samples than one batch holds: the draws continue across
        # batches in stream order, and the values line up with the loop.
        seen = []
        batched = accinfo._mutual_info_many

        def spy(ensemble, outcomes):
            seen.append(batched(ensemble, outcomes))
            return seen[-1]

        monkeypatch.setattr(accinfo, "_mutual_info_many", spy)
        samples = accinfo.MEASUREMENT_BATCH + 3
        rho = ginibre_density(3, rng)
        projs = random_projections(3, rng)
        cfg = SolverConfig(restarts=1, max_iters=5, seed=11)
        bracket = benatti_bracket(rho, projs, cfg, measurement_samples=samples)
        ens = ensemble_from_subalgebra(rho, projs)
        draws = np.random.default_rng([cfg.seed, 104729])
        bases = accinfo._structured_bases(rho, ens)
        bases += [haar_unitary(3, draws) for _ in range(samples)]
        expect = [reference_info(ens, Measurement.from_basis(b)) for b in bases]
        assert [v.size for v in seen] == [accinfo.MEASUREMENT_BATCH, len(bases) - accinfo.MEASUREMENT_BATCH]
        values = np.concatenate(seen)
        assert bracket.samples == len(bases)
        assert np.max(np.abs(values - expect)) <= 1e-12
        assert bracket.best_sample == expect.index(max(expect))
        assert bracket.lower == values[bracket.best_sample]

    def test_holevo_slack_field(self):
        rho = DensityOperator(RHO)
        bracket = benatti_bracket(rho, DIAG_PROJS, FAST, measurement_samples=4)
        slack = holevo_check(rho, bracket.roof).slack
        assert slack == pytest.approx(0.5895144857350482 - bracket.upper, abs=1e-12)
        assert slack >= -1e-6


def _solved_check(rho, projs):
    """``holevo_check`` of a fresh solve through the subalgebra's channel."""
    return holevo_check(rho, solve_R(rho, commutative_channel(projs), FAST))


class TestHolevoCheck:
    def test_qubit_strict_gap(self):
        check = _solved_check(DensityOperator(RHO), DIAG_PROJS)
        assert check.channel_entropy == pytest.approx(0.49956897502018127, abs=1e-6)
        assert check.state_entropy == pytest.approx(0.5895144857350482, abs=1e-12)
        assert check.slack == pytest.approx(
            check.state_entropy - check.channel_entropy, abs=1e-15
        )
        assert check.passed

    def test_maximally_mixed_saturates(self):
        check = _solved_check(DensityOperator(np.eye(2) / 2), DIAG_PROJS)
        assert check.channel_entropy == pytest.approx(LN2, abs=1e-7)
        assert check.state_entropy == pytest.approx(LN2, abs=1e-12)
        assert abs(check.slack) <= 1e-6
        assert check.passed

    def test_random_states_never_exceed(self, rng):
        for _ in range(5):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = g @ g.conj().T
            rho = DensityOperator(h / np.trace(h).real)
            projs = (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]))
            check = _solved_check(rho, projs)
            assert check.passed

    def test_checks_the_given_roof(self, rng):
        # H <= S(rho) holds through any channel; the check reads the roof as given.
        rho = ginibre_density(3, rng)
        roof = solve_R(rho, diagonal_pinching(3), FAST)
        check = holevo_check(rho, roof)
        assert check.channel_entropy == roof.value_H
        assert check.state_entropy == von_neumann_entropy(rho)
        assert check.slack == check.state_entropy - roof.value_H
        assert check.passed
