import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roofentropy import (
    BlockDensity,
    DensityOperator,
    Measurement,
    PureState,
    SolverConfig,
    Tolerances,
    ValidationError,
    binary_entropy,
    block_entropy,
    diagonal_pinching,
    reduce_state,
    relative_entropy,
    shannon_entropy,
    solve_R,
    von_neumann_entropy,
)
from roofentropy.sampling import ginibre_density, random_pinching
from roofentropy.states import DEFAULT_TOL, canonical_eigh, eigh, entropy_of_spectrum

LN2 = 0.6931471805599453
LOOSE = Tolerances(1e-3)

# Every check the one tolerance value governs, each fed an input 5e-4 off:
# inside LOOSE, outside the default. The support check drops sigma's 5e-5
# eigenvalue at a tenth of LOOSE (an infinite entropy) but not at the
# default; the others raise the named error.
CHECKS = {
    "herm": (lambda tol: DensityOperator([[0.5, 5e-4], [0.0, 0.5]], tol), "not Hermitian"),
    "trace": (lambda tol: DensityOperator(np.diag([0.5005, 0.5]), tol), "trace"),
    "norm": (lambda tol: PureState([1.0005, 0.0], tol), "norm"),
    "psd": (lambda tol: DensityOperator(np.diag([1.0005, -5e-4]), tol), "negative eigenvalue"),
    "support": (lambda tol: relative_entropy(np.eye(2) / 2, np.diag([1.0 - 5e-5, 5e-5]), tol), None),
}


class TestTolerances:
    def test_default_and_loose_build(self):
        assert Tolerances() == DEFAULT_TOL == Tolerances(1e-9)
        assert (DEFAULT_TOL.support, LOOSE.support) == (1e-10, 1e-4)
        Tolerances(0.0)
        Tolerances(np.float64(1e-6))

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_rejects_non_finite_negative_and_bool(self, check):
        build, _ = CHECKS[check]
        for bad in (math.nan, math.inf, -1e-9, True, "1e-9"):
            with pytest.raises(ValidationError, match="tolerance must be finite"):
                build(Tolerances(bad))

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_value_governs_every_check(self, check):
        build, named = CHECKS[check]
        if named is None:
            assert build(LOOSE) == math.inf
            assert math.isfinite(build(DEFAULT_TOL))
        else:
            build(LOOSE)
            with pytest.raises(ValidationError, match=named):
                build(DEFAULT_TOL)


# One malformed input per check, fed to every operator that validates.
MALFORMED = {
    "non-square": (np.ones((1, 2)), "square"),
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    "non-hermitian": (np.array([[0.5, 0.3], [0.1, 0.5]]), "not Hermitian"),
    "negative": (np.diag([1.5, -0.5]), "negative eigenvalue"),
    "empty": (np.zeros((0, 0)), "nonempty"),
}
OPERATORS = {
    "density matrix": DensityOperator,
    "block 0": lambda m: BlockDensity((m,)),
    "outcome 0": lambda m: Measurement((m,)),
    "matrix": eigh,
}


@pytest.mark.parametrize(
    "subject, case",
    [
        (subject, case)
        for subject in sorted(OPERATORS)
        for case in sorted(MALFORMED)
        if not (subject == "matrix" and case == "negative")  # eigh needs no positivity
    ],
)
def test_malformed_operator_rejected_naming_subject(subject, case):
    m, check = MALFORMED[case]
    with pytest.raises(ValidationError, match=f"^{subject}\\b.*{check}"):
        OPERATORS[subject](m)


class TestDensityOperator:
    def test_accepts_valid_and_freezes(self):
        rho = DensityOperator([[0.5, 0.2], [0.2, 0.5]])
        assert rho.dim == 2
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_trace_must_be_one(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator([[0.5, 0], [0, 0.6]])

    def test_hermiticity_enforced_with_magnitude(self):
        with pytest.raises(ValidationError, match="asymmetry 2.000e-01"):
            DensityOperator([[0.5, 0.3], [0.1, 0.5]])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            DensityOperator([[1.2, 0], [0, -0.2]])

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            DensityOperator([[1.0, 0.0]])

    def test_spectrum_and_purity(self):
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        assert np.allclose(rho.spectrum(), [0.2, 0.3, 0.5])
        assert rho.purity() == pytest.approx(0.38, abs=1e-12)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValidationError, match="non-finite"):
                DensityOperator([[bad, 0.0], [0.0, 1.0]])

    def test_custom_tolerance_loosens_trace(self):
        DensityOperator([[0.5, 0], [0, 0.5004]], LOOSE)

    def test_caller_tolerance_governs_raw_matrices(self):
        m = np.diag([0.5 + 5e-5, 0.5])
        with pytest.raises(ValidationError, match="trace"):
            von_neumann_entropy(m)
        assert von_neumann_entropy(m, LOOSE) == pytest.approx(
            entropy_of_spectrum([0.5, 0.5 + 5e-5]), abs=1e-15
        )
        assert relative_entropy(m, m, LOOSE) == pytest.approx(0.0, abs=1e-12)
        ch = diagonal_pinching(2)
        assert reduce_state(ch, m, LOOSE).probabilities() == pytest.approx([0.5 + 5e-5, 0.5])
        res = solve_R(m, ch, SolverConfig(restarts=1, max_iters=5), LOOSE)
        assert res.value_R == pytest.approx(0.0, abs=1e-12)

    def test_entropies_reuse_validated_spectrum(self, rng):
        rho = ginibre_density(4, rng)
        assert von_neumann_entropy(rho) == entropy_of_spectrum(np.linalg.eigvalsh(rho.matrix))
        assert np.array_equal(rho.spectrum(), np.maximum(np.linalg.eigvalsh(rho.matrix), 0.0))
        bd = reduce_state(random_pinching(4, rng), rho)
        fresh = 0.0
        for blk in bd.blocks:
            fresh += entropy_of_spectrum(np.linalg.eigvalsh(blk))
        assert block_entropy(bd) == fresh


class TestPureState:
    def test_unit_norm_required(self):
        with pytest.raises(ValidationError, match="norm"):
            PureState([1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            PureState([np.nan, 1.0])

    def test_projector_and_density(self):
        plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
        proj = plus.projector()
        assert np.allclose(proj, [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(plus.density().matrix, proj)

    def test_density_keeps_its_tolerance(self):
        # The projector's trace is the squared norm, 1.0002**2: inside LOOSE.
        loose = PureState([1.0002, 0.0], LOOSE)
        assert loose.density().matrix[0, 0] == 1.0002**2
        with pytest.raises(ValidationError, match="norm"):
            PureState([1.0002, 0.0])
        plus = PureState(np.array([1.0, 1.0j]) / math.sqrt(2))
        assert np.array_equal(plus.density().matrix, DensityOperator(plus.projector()).matrix)

    def test_density_of_every_admitted_norm(self):
        # Each norm is inside the tolerance, but its square, the projector's
        # trace, is not: the projector is divided by that trace.
        for vector, tol in (([1 + 8e-10, 0.0], DEFAULT_TOL), ([1.0005, 0.0], LOOSE)):
            state = PureState(vector, tol)
            trace = float(np.trace(state.projector()).real)
            assert abs(trace - 1.0) > tol.value
            rho = state.density()
            assert np.array_equal(rho.matrix, state.projector() / trace)
            assert abs(np.trace(rho.matrix).real - 1.0) <= tol.value


class TestEntropies:
    def test_diagonal_frozen_value(self):
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        assert von_neumann_entropy(rho) == pytest.approx(1.0296530140645737, abs=1e-14)

    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(DensityOperator([[1.0, 0], [0, 0]])) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityOperator(np.eye(3) / 3)) == pytest.approx(
            1.0986122886681098, abs=1e-14
        )

    def test_basis_invariance(self, rng):
        # rotate a fixed spectrum: entropy only sees the eigenvalues
        diag = np.diag([0.6, 0.3, 0.1])
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        rotated = DensityOperator(u @ diag @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            shannon_entropy([0.6, 0.3, 0.1]), abs=1e-12
        )

    def test_entropy_of_spectrum_clips_noise(self):
        assert entropy_of_spectrum(np.array([1.0, -1e-12])) == 0.0
        with pytest.raises(ValidationError, match="negative"):
            entropy_of_spectrum(np.array([1.1, -0.1]))

    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
        assert binary_entropy(0.9) == pytest.approx(0.3250829733914482, abs=1e-15)
        assert binary_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_entropy_domain(self):
        with pytest.raises(ValidationError):
            binary_entropy(1.2)
        with pytest.raises(ValidationError):
            binary_entropy(-0.2)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_binary_entropy_properties(self, q):
        h = binary_entropy(q)
        assert 0.0 <= h <= LN2 + 1e-15
        assert h == pytest.approx(binary_entropy(1.0 - q), abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=0.5))
    def test_binary_entropy_increasing_below_half(self, q):
        assert binary_entropy(q) >= binary_entropy(q * 0.5) - 1e-15


class TestRelativeEntropy:
    def test_pure_vs_mixed_frozen(self):
        pure = DensityOperator([[1.0, 0], [0, 0.0]])
        mixed = DensityOperator(np.eye(2) / 2)
        assert relative_entropy(pure, mixed) == pytest.approx(LN2, abs=1e-12)

    def test_classical_frozen(self):
        a = DensityOperator(np.diag([0.5, 0.5]))
        b = DensityOperator(np.diag([0.9, 0.1]))
        assert relative_entropy(a, b) == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_zero_on_equal_states(self, rng):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = DensityOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_support_violation_is_infinite(self):
        wide = DensityOperator(np.eye(2) / 2)
        narrow = DensityOperator(np.diag([1.0, 0.0]))
        assert relative_entropy(wide, narrow) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            relative_entropy(DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(3) / 3))


class TestEigh:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="asymmetry"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_pauli_x(self):
        w, v = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / math.sqrt(2)))

    def test_canonical_phase_positive_pivot(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        _, v = canonical_eigh(h)
        for col in v.T:
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12

    def test_degenerate_ordering_deterministic(self):
        # identity is maximally degenerate: canonical order = standard basis
        _, v = canonical_eigh(np.eye(3))
        assert np.allclose(v, np.eye(3))

    def test_reassembles_input(self, rng):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = g + g.conj().T
        w, v = canonical_eigh(h)
        assert np.allclose((v * w) @ v.conj().T, h, atol=1e-10)
