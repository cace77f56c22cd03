import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roofentropy import (
    BlockExampleData,
    DensityOperator,
    PureState,
    ReductionChannel,
    SolverConfig,
    Tolerances,
    ValidationError,
    binary_entropy,
    block_compression,
    block_example_analyze,
    block_example_decomposition,
    convex_sum,
    diagonal_pinching,
    qubit_R,
    qubit_R_series,
    solve_R,
)
from roofentropy.oracles import DOMAIN_TOL, SERIES_CHUNK, _mixing_weights
from roofentropy.sampling import ginibre_density
from roofentropy.states import DEFAULT_TOL

LN2 = 0.6931471805599453

# 3x3 instance with distinguished direction e3: weight 0.3 on the
# direction, compressed eigenvalues (0.3, 0.4), couplings (0.1, 0.15)
SAMPLE3 = np.array(
    [
        [0.40, 0.00, 0.15],
        [0.00, 0.30, 0.10],
        [0.15, 0.10, 0.30],
    ]
)
E3 = PureState(np.array([0.0, 0.0, 1.0]))


class TestQubitClosedForm:
    def test_frozen_values(self):
        assert qubit_R(0.0) == 0.0
        assert qubit_R(0.5) == pytest.approx(LN2, abs=1e-15)
        assert qubit_R(0.3) == pytest.approx(0.3250829733914482, abs=1e-15)
        assert qubit_R(0.25) == pytest.approx(0.24577536666847116, abs=1e-15)
        assert qubit_R(0.4) == pytest.approx(0.500402423538188, abs=1e-15)
        assert qubit_R(0.1) == pytest.approx(0.05646994874547751, abs=1e-15)

    def test_equals_binary_entropy_of_mixing_weight(self):
        # at |z| = 0.3 the weights are (0.9, 0.1)
        assert qubit_R(0.3) == pytest.approx(binary_entropy(0.9), abs=1e-15)

    def test_phase_invariance(self):
        for phase in (1j, -1, np.exp(0.7j)):
            assert qubit_R(0.3 * phase) == pytest.approx(qubit_R(0.3), abs=1e-15)

    def test_domain_error_beyond_half(self):
        with pytest.raises(ValidationError, match="1/2"):
            qubit_R(0.51)

    def test_non_finite_rejected(self):
        for z in (math.nan, complex(0.1, math.nan), math.inf):
            with pytest.raises(ValidationError, match="not finite"):
                qubit_R(z)

    def test_boundary_tolerance(self):
        # values a hair over 1/2 from rounding are clamped, not rejected
        assert qubit_R(0.5 + 1e-14) == pytest.approx(LN2, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_monotone_in_magnitude(self, z):
        assert qubit_R(z) <= qubit_R(min(0.5, z + 0.01)) + 1e-15

    @given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
    def test_midpoint_convexity(self, a, b):
        mid = 0.5 * (a + b)
        assert qubit_R(mid) <= 0.5 * qubit_R(a) + 0.5 * qubit_R(b) + 1e-12


def _qubit_weight_reference(z):
    """Reference: qubit_R's mixing weight, squaring the magnitude as ``mag * mag``."""
    mag = min(abs(z), 0.5)
    return 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - 4.0 * mag * mag))


def _block_weights_reference(z):
    """Reference: block_example_analyze's weights, squaring the coupling as ``z ** 2``."""
    root = math.sqrt(max(0.0, 1.0 - 4.0 * min(z, 0.5) ** 2))
    return 0.5 + 0.5 * root, 0.5 - 0.5 * root


WEIGHT_GRID = np.concatenate([
    np.linspace(0.0, 0.5, 20001),
    np.random.default_rng(2026).uniform(0.0, 0.5, 20000),
    0.5 + DOMAIN_TOL * np.array([0.5, 1.0]),
]).tolist()


class TestMixingWeights:
    def test_qubit_R_keeps_its_bits(self):
        for z in WEIGHT_GRID:
            assert _mixing_weights(z)[0] == _qubit_weight_reference(z)
        for z in WEIGHT_GRID[::100]:
            w = z * np.exp(0.3j)
            assert qubit_R(w) == binary_entropy(_qubit_weight_reference(w))

    def test_block_weights_move_only_where_pow_misrounds_the_square(self):
        # ``z * z`` is correctly rounded; the platform's ``pow`` need not be.
        for z in WEIGHT_GRID:
            got, want = _mixing_weights(z), _block_weights_reference(z)
            if got != want:
                mag = min(z, 0.5)
                assert mag * mag != mag**2
                assert all(abs(g - w) <= np.spacing(0.5) for g, w in zip(got, want))

    def test_series_takes_the_closed_form_radicand(self):
        # u = 1 - 4 m^2 squared as ``m * m``, the radicand of _qubit_weight_reference
        for z in WEIGHT_GRID:
            mag = min(z, 0.5)
            u = max(0.0, 1.0 - 4.0 * mag * mag)
            k = np.arange(1.0, 3.0)
            assert qubit_R_series(z, 2) == float(LN2 - np.sum(u**k / (2.0 * k * (2.0 * k - 1.0))))

    def test_defining_identities_hold_to_rounding(self):
        for z in WEIGHT_GRID:
            plus, minus = _mixing_weights(z)
            mag = min(z, 0.5)
            assert abs(plus + minus - 1.0) <= 2.3e-16
            assert abs(plus * minus - mag * mag) <= 2e-16

    def test_block_oracle_takes_the_same_weights(self):
        data = block_example_analyze(DensityOperator(SAMPLE3), E3)
        assert (data.mu_plus, data.mu_minus) == _mixing_weights(data.z)


class TestQubitSeries:
    def test_matches_closed_form_away_from_zero(self):
        for z in (0.2, 0.3, 0.4, 0.49):
            assert qubit_R_series(z, 200) == pytest.approx(qubit_R(z), abs=1e-12)

    def test_decreasing_partial_sums(self):
        for z in (0.0, 0.1, 0.3):
            values = [qubit_R_series(z, k) for k in range(1, 60)]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_converges_from_above(self):
        for z in (0.0, 0.05, 0.1):
            exact = qubit_R(z)
            assert qubit_R_series(z, 50) >= exact
            assert abs(qubit_R_series(z, 800) - exact) < abs(qubit_R_series(z, 50) - exact)

    def test_slow_tail_at_zero(self):
        # the tail is ~1/(4k) at z = 0: still visible after 200 terms
        assert qubit_R_series(0.0, 200) == pytest.approx(1.2484375048829044e-3, abs=1e-12)

    def test_terms_validation(self):
        with pytest.raises(ValidationError):
            qubit_R_series(0.3, 0)

    @pytest.mark.parametrize("terms", [50, 800, SERIES_CHUNK])
    def test_one_chunk_keeps_the_one_array_bits(self, terms):
        k = np.arange(1, terms + 1, dtype=float)
        for z in (0.0, 0.05, 0.1, 0.3, 0.49, 0.5):
            u = max(0.0, 1.0 - 4.0 * min(z, 0.5) ** 2)
            want = float(LN2 - np.sum(u**k / (2.0 * k * (2.0 * k - 1.0))))
            assert qubit_R_series(z, terms) == want

    def test_chunks_sum_to_the_one_array_formula(self):
        terms = 3 * SERIES_CHUNK + 17
        k = np.arange(1, terms + 1, dtype=float)
        for z in (0.0, 1e-3, 0.3):
            u = max(0.0, 1.0 - 4.0 * min(z, 0.5) ** 2)
            want = float(LN2 - np.sum(u**k / (2.0 * k * (2.0 * k - 1.0))))
            assert qubit_R_series(z, terms) == pytest.approx(want, abs=1e-15)

    def test_memory_does_not_grow_with_terms(self):
        # One array of 10**6 terms took 32 MB; a chunk of 2**16 takes 0.5 MB.
        tracemalloc.start()
        try:
            value = qubit_R_series(0.0, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        # The tail at z = 0 lies between 1/(4N + 2) and 1/(4N + 1), up to rounding.
        assert 1.0 / (4e6 + 2) - 1e-15 < value - qubit_R(0.0) < 1.0 / (4e6 + 1) + 1e-15

    @pytest.mark.parametrize("terms", [2.5, True])
    def test_terms_must_be_an_integer(self, terms):
        with pytest.raises(ValidationError, match="terms must be an integer"):
            qubit_R_series(0.3, terms)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            qubit_R_series(0.6, 10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            qubit_R_series(math.nan, 10)


class TestBlockExampleAnalyze:
    def test_frozen_sample(self):
        data = block_example_analyze(DensityOperator(SAMPLE3), E3)
        assert data.lam == pytest.approx(0.3, abs=1e-12)
        assert np.allclose(data.eigvals, [0.3, 0.4], atol=1e-12)
        assert np.allclose(data.overlaps, [0.1, 0.15], atol=1e-12)
        assert data.z == pytest.approx(0.25, abs=1e-12)
        assert data.mu_plus == pytest.approx(0.9330127018922193, abs=1e-12)
        assert data.mu_minus == pytest.approx(0.0669872981077807, abs=1e-12)

    def test_mu_identities(self):
        data = block_example_analyze(DensityOperator(SAMPLE3), E3)
        assert data.mu_plus + data.mu_minus == pytest.approx(1.0, abs=1e-12)
        assert data.mu_plus * data.mu_minus == pytest.approx(data.z**2, abs=1e-12)

    def test_lifted_vectors_orthonormal(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g @ g.conj().T
        rho = DensityOperator(h / np.trace(h).real)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = PureState(v / np.linalg.norm(v))
        data = block_example_analyze(rho, psi)
        gram = data.eigvecs.conj().T @ data.eigvecs
        assert np.allclose(gram, np.eye(3), atol=1e-10)
        assert np.all(data.overlaps >= 0)
        # each lifted vector is orthogonal to the distinguished direction
        assert np.max(np.abs(data.eigvecs.conj().T @ psi.vector)) <= 1e-10

    def test_coupling_bounded_by_eigenvalue_geometry(self, rng):
        # |z_k|^2 <= lam_k * lam componentwise, hence z <= 1/2 overall
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = g @ g.conj().T
            rho = DensityOperator(h / np.trace(h).real)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = PureState(v / np.linalg.norm(v))
            data = block_example_analyze(rho, psi)
            assert np.all(data.overlaps**2 <= data.eigvals * data.lam + 1e-9)
            assert data.z <= 0.5 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            block_example_analyze(DensityOperator(np.eye(2) / 2), E3)

    def test_off_unit_psi_uses_the_channel_vector(self, rng):
        # |psi| = 1 + 2e-10 passes PureState's 1e-9 check, but a channel
        # built from psi itself misses Kraus completeness by 4e-10.
        rho = ginibre_density(3, rng)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        unit = v / np.linalg.norm(v)
        psi = PureState(unit * (1 + 2e-10))
        row = block_compression(psi).by_block[1][0][0].conj()
        assert np.max(np.abs(row - unit)) <= 1e-15
        data = block_example_analyze(rho, psi)
        want = block_example_analyze(rho, PureState(row))
        assert np.array_equal(data.psi.vector, row)
        for field in ("eigvecs", "eigvals", "overlaps", "lam", "z", "mu_plus"):
            assert np.array_equal(getattr(data, field), getattr(want, field)), field
        # Within COMPLETENESS_TOL / 4 of unit norm, psi keeps its bits.
        near = PureState(unit * (1 + 1e-11))
        assert np.array_equal(block_compression(near).by_block[1][0][0], near.vector.conj())


class TestBlockExampleDecomposition:
    def test_frozen_sample_candidate(self):
        data = block_example_analyze(DensityOperator(SAMPLE3), E3)
        dec = block_example_decomposition(data, DensityOperator(SAMPLE3))
        assert dec.candidate == pytest.approx(qubit_R(0.25), abs=1e-12)
        assert not dec.degenerate
        assert len(dec.ensemble) == 4

    def test_ensemble_keeps_the_tolerance(self):
        rho = DensityOperator(SAMPLE3)
        data = block_example_analyze(rho, E3)
        for tol in (DEFAULT_TOL, Tolerances(1e-3)):
            dec = block_example_decomposition(data, rho, tol)
            assert dec.ensemble._tol == tol
        default = block_example_decomposition(data, rho).ensemble
        loose = block_example_decomposition(data, rho, Tolerances(1e-3)).ensemble
        assert np.array_equal(default.weights, loose.weights)
        for a, b in zip(default.states, loose.states):
            assert np.array_equal(a.matrix, b.matrix)

    def test_reconstructs_state(self):
        rho = DensityOperator(SAMPLE3)
        dec = block_example_decomposition(block_example_analyze(rho, E3), rho)
        assert np.max(np.abs(convex_sum(dec.ensemble).matrix - rho.matrix)) <= 1e-9
        for _, member in dec.ensemble.members():
            assert 1.0 - member.purity() <= 1e-9

    def test_qubit_reduction_matches_closed_form(self, rng):
        # with a 1-dim complement the candidate must equal the closed form
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = g @ g.conj().T
            rho = DensityOperator(h / np.trace(h).real)
            psi = PureState(np.array([0.0, 1.0]))
            data = block_example_analyze(rho, psi)
            dec = block_example_decomposition(data, rho)
            assert dec.candidate == pytest.approx(qubit_R(rho.matrix[0, 1]), abs=1e-10)

    def test_diagonal_state_gives_eigen_members(self):
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        data = block_example_analyze(rho, E3)
        assert data.z == 0.0
        dec = block_example_decomposition(data, rho)
        assert dec.candidate == 0.0
        assert len(dec.ensemble) == 3

    def test_pure_state_is_degenerate_boundary(self):
        # (e1 + e3)/sqrt(2) has coupling exactly 1/2: symmetric split
        vec = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        rho = DensityOperator(np.outer(vec, vec))
        data = block_example_analyze(rho, E3)
        assert data.z == pytest.approx(0.5, abs=1e-12)
        dec = block_example_decomposition(data, rho)
        assert dec.degenerate
        assert dec.candidate == pytest.approx(LN2, abs=1e-10)
        assert np.max(np.abs(convex_sum(dec.ensemble).matrix - rho.matrix)) <= 1e-9

    def test_construction_failure_names_direction(self):
        # generic state whose linear weight system leaves the simplex
        rng = np.random.default_rng([11, 1])
        from roofentropy.sampling import ginibre_density, random_pure_state

        rho = ginibre_density(4, rng)
        psi = random_pure_state(4, rng)
        data = block_example_analyze(rho, psi)
        assert data.z <= 0.5
        with pytest.raises(ValidationError, match="construction failure: direction"):
            block_example_decomposition(data, rho)

    def test_fabricated_large_coupling_rejected(self):
        nan = float("nan")
        data = BlockExampleData(
            psi=E3,
            eigvecs=np.eye(3)[:, :2].astype(complex),
            eigvals=np.array([0.2, 0.2]),
            overlaps=np.array([0.3, 0.3]),
            lam=0.6,
            z=0.6,
            mu_plus=nan,
            mu_minus=nan,
        )
        with pytest.raises(ValidationError, match="exceeds 1/2"):
            block_example_decomposition(data, DensityOperator(np.eye(3) / 3))


# The partial trace over the second qubit of C^2 (x) C^2: one 2-dim block fed
# by two Kraus terms, so the solver takes its closed-form pair path.  Its roof
# is the entanglement of formation (Bennett, DiVincenzo, Smolin & Wootters,
# PRA 54, 3824 (1996)), which Wootters' concurrence gives in closed form
# (PRL 80, 2245 (1998)): with lambda_1 >= ... >= lambda_4 the square roots of
# the eigenvalues of sqrt(rho) rho~ sqrt(rho), where rho~ = (Y (x) Y) rho* (Y (x) Y),
# C = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4) and
# E_F = s(q) + s(1 - q) with q = (1 + sqrt(1 - C^2)) / 2.
TRACE_B = ReductionChannel(
    4, (2,), ((0, np.kron(np.eye(2), [[1.0, 0.0]])), (0, np.kron(np.eye(2), [[0.0, 1.0]])))
)
YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)


def wootters_eof(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit state, in nats."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    flipped = YY @ rho.conj() @ YY
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root), 0.0, None))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return binary_entropy(0.5 + 0.5 * math.sqrt(1.0 - c * c))


class TestTwoQubitPartialTrace:
    def test_bell_state_carries_one_ebit(self):
        assert wootters_eof(np.outer(BELL, BELL)) == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_solver_matches_entanglement_of_formation(self, seed):
        ginibre = ginibre_density(4, np.random.default_rng([seed, 4])).matrix
        rho = 0.6 * np.outer(BELL, BELL) + 0.4 * ginibre
        eof = wootters_eof(rho)
        result = solve_R(DensityOperator(rho), TRACE_B, SolverConfig(restarts=8, max_iters=400))
        assert eof - 1e-9 <= result.value_R <= eof + 1e-7


# Under diagonal_pinching(d), the permutation-symmetric state
# omega_F = alpha I + beta J (J all ones, alpha = (1 - F) / (d - 1),
# beta = 1/d - alpha, so that <Psi|omega_F|Psi> = F for Psi = (1, ..., 1)/sqrt(d))
# has the roof of Terhal & Vollbrecht's isotropic states (PRL 85, 2625 (2000)):
# eps(F) = h(gamma) + (1 - gamma) ln(d - 1) with
# gamma = (sqrt(F) + sqrt((d - 1)(1 - F)))^2 / d and h in nats, on the curved
# part 1/d < F < 4(d - 1)/d^2.  A permutation with diagonal phases commutes
# with the pinching, so R is the same along that orbit of omega_F.


def isotropic(d, F):
    alpha = (1.0 - F) / (d - 1)
    return alpha * np.eye(d) + (1.0 / d - alpha) * np.ones((d, d))


def isotropic_roof(d, F):
    """eps(F), with 1 - gamma = ((dF - 1) / (sqrt((d-1)F) + sqrt(1-F)))^2 / d free of cancellation."""
    rest = ((d * F - 1.0) / (math.sqrt((d - 1) * F) + math.sqrt(1.0 - F))) ** 2 / d
    return -(1.0 - rest) * math.log1p(-rest) - rest * math.log(rest) + rest * math.log(d - 1)


def isotropic_hull(d, F):
    """R(omega_F): eps(F) on the curved part, then Terhal & Vollbrecht's straight segment.

    From F = 4(d - 1)/d^2 to 1 the hull is the tangent line to eps that ends
    at (1, ln d), ln d - d ln(d - 1) / (d - 2) * (1 - F), for d >= 3.
    """
    if F <= 4.0 * (d - 1) / d**2:
        return isotropic_roof(d, F)
    return math.log(d) - d * math.log(d - 1) / (d - 2) * (1.0 - F)


class TestIsotropicRoof:
    def test_qubit_case_is_qubit_R(self):
        for F in np.linspace(0.5, 1.0, 101)[1:-1].tolist():
            assert isotropic(2, F)[0, 1] == pytest.approx(F - 0.5, abs=1e-16)
            assert abs(isotropic_roof(2, F) - qubit_R(F - 0.5)) <= 1e-15

    @staticmethod
    def excess_at(d, F, seed, config=SolverConfig(restarts=4, max_iters=250)):
        """Solver value minus the hull at F, on a seeded point of omega_F's orbit."""
        rng = np.random.default_rng([d, seed])
        u = np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.uniform(size=d))
        rho = DensityOperator(u @ isotropic(d, F) @ u.conj().T)
        return solve_R(rho, diagonal_pinching(d), config).value_R - isotropic_hull(d, F)

    @classmethod
    def excess(cls, d, fraction, seed):
        """Solver value minus eps(F) at F that far along the curved part, on a seeded orbit point."""
        lo, hi = 1.0 / d, 4.0 * (d - 1) / d**2
        return cls.excess_at(d, lo + fraction * (hi - lo), seed)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_solver_on_the_curved_part(self, d):
        for fraction in (0.2, 0.8):
            for seed in range(2):
                assert -1e-9 <= self.excess(d, fraction, seed) <= 1e-7, (fraction, seed)

    def test_solver_at_a_stalling_point(self):
        # The descent alone stalls here, 3.3e-7 to 3.2e-6 above eps.
        assert -1e-9 <= self.excess(5, 1 / 3, 0) <= 1e-7

    @pytest.mark.parametrize("d,F", [(3, 0.95), (4, 0.9), (5, 0.9), (6, 0.9)])
    def test_solver_on_the_straight_segment(self, d, F):
        # A face state: an optimal decomposition needs d + 1 members.  d = 3
        # runs the default settings, the others the 4 x 250 test budget.
        config = SolverConfig() if d == 3 else SolverConfig(restarts=4, max_iters=250)
        assert F > 4.0 * (d - 1) / d**2
        for seed in range(2):
            assert -1e-9 <= self.excess_at(d, F, seed, config) <= 1e-7, seed


# Winter & Yang (PRL 116, 120404 (2016)): the diagonal-pinching roof of omega
# equals the roof of the maximally correlated state sum_ij omega_ij |ii><jj|
# under the partial trace Tr_B.  Both solves minimise the same function of
# the isometry, one through 1-dim blocks and one through the eigensolve of a
# 3-dim block fed by three Kraus terms.
TRACE_B3 = ReductionChannel(
    9, (3,), tuple((0, np.kron(np.eye(3), np.eye(3)[k : k + 1])) for k in range(3))
)


class TestMaximallyCorrelatedState:
    @pytest.mark.parametrize("seed", range(3))
    def test_pinching_roof_is_the_partial_trace_roof(self, seed):
        omega = ginibre_density(3, np.random.default_rng([seed, 9])).matrix
        correlated = np.zeros((9, 9), dtype=complex)
        correlated[::4, ::4] = omega
        cfg = SolverConfig(restarts=4, max_iters=250, max_length=9)
        pinched = solve_R(DensityOperator(omega), diagonal_pinching(3), cfg).value_R
        traced = solve_R(DensityOperator(correlated), TRACE_B3, cfg).value_R
        assert abs(pinched - traced) <= 1e-8
