import json
import math
import tracemalloc

import numpy as np
import pytest

from roofentropy import (
    DensityOperator,
    PureState,
    ReductionChannel,
    SolverConfig,
    ValidationError,
    affinity_certificate,
    block_compression,
    block_entropy,
    commutative_channel,
    convex_sum,
    decomposition_from_isometry,
    diagonal_pinching,
    pinching,
    qubit_R,
    reduce_state,
    roof_objective,
    solve_R,
    zero_entropy_structure,
)
from roofentropy import roof
from roofentropy.jsonio import roof_result_to_json, round_floats
from roofentropy.roof import (
    FD_STEP,
    FINISH_TOL,
    GEMM_WORK,
    LADDER,
    OBJECTIVE_ROWS,
    _Evaluator,
    _fd_gradient,
    _finish,
    _pair_entropy,
    _pair_log,
    _retract,
    _start_isometries,
)
from roofentropy.sampling import ginibre_density, haar_unitary
from roofentropy.states import DEFAULT_TOL, _xlnx
from roofentropy.verify import run_verify

from conftest import FAST

LN2 = 0.6931471805599453


def alone(count):
    """Owner indices of a stack of ``count`` isometries of the evaluator's only state."""
    return np.zeros(count, dtype=np.intp)


def qubit(a, z):
    return DensityOperator([[a, z], [np.conj(z), 1 - a]])


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.restarts == 64 and cfg.max_iters == 400

    def test_restart_count_positive(self):
        with pytest.raises(ValidationError):
            SolverConfig(restarts=0)

    def test_max_length_positive(self):
        with pytest.raises(ValidationError):
            SolverConfig(max_length=0)

    def test_max_iters_positive(self):
        with pytest.raises(ValidationError):
            SolverConfig(max_iters=0)

    def test_negative_seed_rejected(self):
        # np.random.default_rng raises a bare ValueError on a negative seed.
        with pytest.raises(ValidationError, match="seed"):
            SolverConfig(seed=-3)
        with pytest.raises(ValidationError, match="seed"):
            run_verify(seed=-1)

    @pytest.mark.parametrize("name", ["restarts", "max_iters", "max_length", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValidationError, match=name):
            SolverConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(restarts=np.int64(3), max_length=np.int32(4))
        assert (cfg.restarts, cfg.max_length) == (3, 4)
        assert type(cfg.restarts) is type(cfg.max_length) is int

    @pytest.mark.parametrize("samples", [1.5, True])
    def test_verify_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValidationError, match="samples must be an integer"):
            run_verify(samples=samples)


class TestDecompositionFromIsometry:
    def test_identity_gives_eigen_ensemble(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        e = decomposition_from_isometry(rho, np.eye(2))
        assert sorted(e.weights) == pytest.approx([0.3, 0.7])
        assert np.allclose(convex_sum(e).matrix, rho.matrix, atol=1e-12)

    def test_fourier_mixing_reconstructs(self, rng):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = g @ g.conj().T
        rho = DensityOperator(h / np.trace(h).real)
        m = 5
        dft = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / math.sqrt(m)
        e = decomposition_from_isometry(rho, dft[:, :3])
        assert np.max(np.abs(convex_sum(e).matrix - rho.matrix)) <= 1e-10
        for _, member in e.members():
            assert 1.0 - member.purity() <= 1e-10

    def test_rejects_non_isometry(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        with pytest.raises(ValidationError, match="orthonormal"):
            decomposition_from_isometry(rho, 2.0 * np.eye(2))

    def test_rejects_wrong_column_count(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        with pytest.raises(ValidationError):
            decomposition_from_isometry(rho, np.eye(3))

    def test_rejects_non_finite_entries(self):
        # A NaN entry makes the orthonormality defect NaN, which no bound rejects.
        rho = DensityOperator(np.diag([0.7, 0.3]))
        with pytest.raises(ValidationError, match="non-finite"):
            decomposition_from_isometry(rho, np.vstack([np.eye(2), [[np.nan, 0.0]]]))

    def test_rejects_wide_isometry(self, rng):
        # Fewer rows than the rank leave vᴴv a zero eigenvalue, so its
        # largest entry off the identity is at least 1/r.
        for rho, v in ((DensityOperator(np.diag([0.7, 0.3])), np.array([[1.0, 0.0]])),
                       (ginibre_density(3, rng), haar_unitary(3, rng)[:2])):
            with pytest.raises(ValidationError, match="orthonormal"):
                decomposition_from_isometry(rho, v)


class TestVectorizedObjective:
    def test_matches_slow_path(self, rng):
        # the batched evaluator must agree with the ensemble-level formula
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g @ g.conj().T
        rho = DensityOperator(h / np.trace(h).real)
        for channel in (
            diagonal_pinching(4),
            pinching([np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])]),
            block_compression(PureState(np.array([0.0, 0, 0, 1.0]))),
        ):
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            for start in _start_isometries(6, ev.ranks[0], SolverConfig(restarts=4, seed=7)):
                v = _retract(start[None])[0]
                fast = ev.objective_many(v[None], alone(1))[0]
                slow = roof_objective(decomposition_from_isometry(rho, v), channel)
                assert fast == pytest.approx(slow, abs=1e-9)


def gram_channels(rng):
    """Channels whose blocks are fed by several multi-row Kraus terms.

    The first has two terms on a 2-dim block, next to a scalar block.  The
    second mixes unitaries: three terms on a 3-dim block, two on another
    3-dim block and one on a third, so all three evaluator paths run side by
    side.
    """
    rows = haar_unitary(5, rng).conj().T
    pair = ReductionChannel(
        5, (2, 1), ((0, rows[0:2]), (0, rows[2:4]), (1, rows[4:5]))
    )
    weights = (0.2, 0.2, 0.2, 0.15, 0.15, 0.1)
    blocks = (0, 0, 0, 1, 1, 2)
    mixed = ReductionChannel(
        3,
        (3, 3, 3),
        tuple((b, math.sqrt(w) * haar_unitary(3, rng)) for b, w in zip(blocks, weights)),
    )
    return pair, mixed


class TestGramBlocks:
    def test_matches_slow_path(self, rng):
        pair, mixed = gram_channels(rng)
        for channel, pairs, grams in ((pair, 1, 0), (mixed, 1, 1)):
            n = channel.input_dim
            rho = ginibre_density(n, rng)
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            assert (len(ev.pair_specs), len(ev.gram_specs)) == (pairs, grams)
            for start in _start_isometries(n * n, ev.ranks[0], SolverConfig(restarts=4, seed=3)):
                v = _retract(start[None])[0]
                fast = ev.objective_many(v[None], alone(1))[0]
                slow = roof_objective(decomposition_from_isometry(rho, v), channel)
                assert fast == pytest.approx(slow, abs=1e-9)

    def test_closed_form_matches_eigvalsh(self, rng):
        x = rng.normal(size=(400, 2, 3)) + 1j * rng.normal(size=(400, 2, 3))
        # Near rank one: the second row within 1e-4 .. 1e-9 of the first.
        eps = np.logspace(-4, -9, 200)[:, None]
        x[200:, 1] = x[200:, 0] + eps * x[200:, 1]
        x /= np.sqrt((np.abs(x) ** 2).sum(axis=(1, 2)))[:, None, None]
        gram = x @ x.conj().transpose(0, 2, 1)
        closed = _pair_entropy(gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1])
        reference = _xlnx(np.linalg.eigvalsh(gram)).sum(axis=-1)
        assert np.max(np.abs(closed - reference)) <= 1e-12

    @pytest.mark.parametrize("regime", ["distinct", "coincident", "rank-one", "zero"])
    def test_pair_kernels_match_eigh(self, rng, regime):
        # 2x2 Grams of trace at most 1: distinct eigenvalues, coincident ones
        # (radius 0), rank one and the zero matrix.  A trace below 1 keeps
        # ln G off zero at rank one.
        x = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
        if regime == "rank-one":
            x = x[..., :1]
        trace = (np.abs(x) ** 2).sum(axis=(1, 2)) / rng.uniform(0.05, 0.5, 50)
        gram = x @ x.conj().transpose(0, 2, 1) / trace[:, None, None]
        if regime == "coincident":
            gram = rng.uniform(0.05, 0.5, 50)[:, None, None] * np.eye(2)
        elif regime == "zero":
            gram = np.zeros((50, 2, 2), complex)
        g00, g11, g01 = gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1]
        lam, vecs = np.linalg.eigh(gram)
        assert np.max(np.abs(_pair_entropy(g00, g11, g01) - _xlnx(lam).sum(axis=-1))) <= 1e-14
        # ln G on G's support, applied to G, against αI + βG applied to G.
        log = np.log(np.where(lam > 1e-12, lam, 1.0))
        reference = (vecs * log[:, None, :]) @ vecs.conj().transpose(0, 2, 1) @ gram
        alpha, beta = _pair_log(g00, g11, g01)
        closed = (alpha[:, None, None] * np.eye(2) + beta[:, None, None] * gram) @ gram
        assert np.max(np.abs(closed - reference)) <= 1e-14

    def test_stack_equals_single_slices(self, rng):
        # Lockstep restarts are bit-identical to one-at-a-time solves only if
        # a slice's value does not depend on the rest of the stack.  For both
        # Gram channels, 150 isometries span two of objective_many's blocks.
        pair, mixed = gram_channels(rng)
        for channel in (pair, mixed, diagonal_pinching(2)):
            n = channel.input_dim
            rho = ginibre_density(n, rng)
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            shape = (150, n * n, ev.ranks[0])
            v = _retract(rng.normal(size=shape) + 1j * rng.normal(size=shape))
            stacked = ev.objective_many(v, alone(len(v)))
            single = np.array([ev.objective_many(v[i : i + 1], alone(1))[0] for i in range(len(v))])
            assert np.array_equal(stacked, single)


# Completeness defect planted in the defect channel: within COMPLETENESS_TOL.
DEFECT = 5e-11


def edge_channels(rng):
    """Channels without a norm block, and one with a completeness defect.

    The first feeds one 2-dim block by two terms, rows of a Haar unitary, so
    the evaluator's indicator has only pair and weight columns; the second
    feeds one 2-dim block by three such terms, so it has the weight column
    alone.  The third is the mixed Gram channel with every Kraus matrix
    scaled by sqrt(1 + DEFECT): its Kraus outputs weigh (1 + DEFECT)·‖φ‖².
    """
    rows = haar_unitary(4, rng).conj().T
    pair_only = ReductionChannel(4, (2,), ((0, rows[0:2]), (0, rows[2:4])))
    rows = haar_unitary(6, rng).conj().T
    three_only = ReductionChannel(6, (2,), tuple((0, rows[i : i + 2]) for i in (0, 2, 4)))
    _, mixed = gram_channels(rng)
    scale = math.sqrt(1.0 + DEFECT)
    defect = ReductionChannel(3, mixed.block_dims, tuple((b, scale * k) for b, k in mixed.kraus))
    return (("pair-only", pair_only), ("three-only", three_only), ("defect", defect))


def kernel_cases(rng):
    """(name, state, channel): norm-only, two-term, three-term Gram, block_compression
    and the edge channels, each with a full-rank and a rank-deficient state."""
    pair, mixed = gram_channels(rng)
    channels = (
        ("norm", pinching([np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])])),
        ("pair", pair),
        ("gram", mixed),
        ("compression", block_compression(PureState(np.array([0.0, 0.6, 0.0, 0.8])))),
    ) + edge_channels(rng)
    for name, channel in channels:
        n = channel.input_dim
        for rank in (n, n - 1):
            w = haar_unitary(n, rng)[:, :rank]
            rho = DensityOperator(w @ np.diag(rng.dirichlet(np.ones(rank))) @ w.conj().T)
            yield f"{name}-rank{rank}", rho, channel


# Owners of a two-state stack: runs of 2 and 4 points.
OWNERS = np.array([0, 0, 1, 1, 1, 1])


def two_state_cases(rng):
    """(name, [state, other], channel): each kernel case with a second state of its rank."""
    for name, rho, channel in kernel_cases(rng):
        n, r = channel.input_dim, np.linalg.matrix_rank(rho.matrix)
        w = haar_unitary(n, rng)[:, :r]
        other = DensityOperator(w @ np.diag(rng.dirichlet(np.ones(r))) @ w.conj().T)
        yield name, [rho, other], channel


class TestKrausOutputs:
    """The objective reads only the Kraus outputs a = V·M of each member."""

    def test_indicator_columns(self, rng):
        # Columns: each norm block's weight (none here), the member weight,
        # then g00 and g11 of each pair block.
        pair_only, three_only, _ = (channel for _, channel in edge_channels(rng))
        pair_columns = [[1, 1, 0], [1, 1, 0], [1, 0, 1], [1, 0, 1]]
        for channel, expected in ((pair_only, pair_columns), (three_only, np.ones((6, 1)))):
            ev = _Evaluator([ginibre_density(channel.input_dim, rng)], channel, DEFAULT_TOL)
            assert ev.norm_segments == []
            assert np.array_equal(ev.indicator, expected)

    def test_objective_matches_slow_path(self, rng):
        for name, rho, channel in kernel_cases(rng):
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            r = ev.ranks[0]
            shape = (4, r + 2, r)
            for v in _retract(rng.normal(size=shape) + 1j * rng.normal(size=shape)):
                fast = ev.objective_many(v[None], alone(1))[0]
                slow = roof_objective(decomposition_from_isometry(rho, v), channel)
                assert fast == pytest.approx(slow, abs=1e-9), name

    def test_weights_carry_the_completeness_defect(self, rng):
        # The member weights come from the Kraus outputs, not from ‖φ‖².
        _, _, defect = (channel for _, channel in edge_channels(rng))
        ev = _Evaluator([ginibre_density(3, rng)], defect, DEFAULT_TOL)
        v = _retract(rng.normal(size=(5, 9, 3)) + 1j * rng.normal(size=(5, 9, 3)))
        _, _, sums, _ = ev._score(v, alone(5))
        weights = sums[..., len(ev.norm_segments)]
        norms = np.sum(np.abs(v @ ev.roots[0]) ** 2, axis=-1)
        assert np.max(np.abs(weights / norms - 1.0 - DEFECT)) <= 1e-13


class TestValueAndGradient:
    """The analytic kernel against objective_many and the forward differences."""

    def test_value_matches_objective(self, rng):
        for name, rho, channel in kernel_cases(rng):
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            r = ev.ranks[0]
            a = rng.normal(size=(5, r + 2, r)) + 1j * rng.normal(size=(5, r + 2, r))
            keep = a.copy()
            values, _, q = ev.value_and_gradient(a, alone(len(a)))
            assert np.array_equal(a, keep), name
            assert np.array_equal(q, _retract(a.copy())), name
            want = ev.objective_many(_retract(a.copy()), alone(len(a)))
            assert np.array_equal(values, want), name

    def test_chart_gradient_matches_forward_differences(self, rng):
        # At A = V0 + Z, off the manifold, the chart gradient is that of
        # A -> f(_retract(A)), which _fd_gradient takes at A itself; at
        # A = V0 it is the descent's.  One stack holds two states' points.
        for name, states, channel in two_state_cases(rng):
            ev = _Evaluator(states, channel, DEFAULT_TOL)
            r = ev.ranks[0]
            shape = (len(OWNERS), r + 2, r)
            v0 = _retract(rng.normal(size=shape) + 1j * rng.normal(size=shape))
            for a in (v0 + 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)), v0):
                _, grads, _ = ev.value_and_gradient(a, OWNERS)
                f0 = ev.objective_many(_retract(a.copy()), OWNERS)
                fd = _fd_gradient(ev, a, OWNERS, f0)
                assert np.max(np.abs(grads - fd)) <= 1e-6, name

    def test_mixed_owner_stack_matches_per_owner_calls(self, rng):
        # The stacked call equals each owner's run on an evaluator of its
        # state alone, bit for bit: values, gradients and retractions.
        for name, states, channel in two_state_cases(rng):
            ev = _Evaluator(states, channel, DEFAULT_TOL)
            r = ev.ranks[0]
            shape = (len(OWNERS), r + 2, r)
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got = ev.value_and_gradient(a, OWNERS)
            for state, (lo, hi) in zip(states, ((0, 2), (2, 6))):
                solo = _Evaluator([state], channel, DEFAULT_TOL)
                want = solo.value_and_gradient(a[lo:hi], alone(hi - lo))
                for x, y in zip(got, want):
                    assert np.array_equal(bits(x[lo:hi]), bits(y)), name


class TestFinish:
    def test_finish_never_raises_a_value(self, rng):
        for name, rho, channel in kernel_cases(rng):
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            r = ev.ranks[0]
            starts = np.stack(_start_isometries(r + 2, r, SolverConfig(restarts=4, seed=1)))
            for cap in (1, 2, 400):
                for v0 in _retract(starts.copy()):
                    f0 = float(ev.objective_many(v0[None], alone(1))[0])
                    value, v = _finish(ev, 0, v0, f0, SolverConfig(max_iters=cap), DEFAULT_TOL)
                    assert value <= f0, name
                    assert value == ev.objective_many(v[None], alone(1))[0]
                    assert np.allclose(v.conj().T @ v, np.eye(r), atol=1e-12)

    def test_finished_value_is_objective_many_bit_for_bit(self, rng):
        # From the eigen-ensemble the BFGS moves every case, so the value is
        # the finish's own, never a re-score.
        for name, rho, channel in kernel_cases(rng):
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            r = ev.ranks[0]
            v0 = np.eye(r + 2, r, dtype=complex)
            f0 = float(ev.objective_many(v0[None], alone(1))[0])
            value, v = _finish(ev, 0, v0, f0, SolverConfig(), DEFAULT_TOL)
            assert value < f0, name
            assert np.array_equal(bits([value]), bits(ev.objective_many(v[None], alone(1)))), name

    def test_finish_reaches_the_qubit_roof(self):
        # From the eigen-ensemble, which the descent leaves above qubit_R.
        rho = qubit(0.55, 0.2 + 0.1j)
        ev = _Evaluator([rho], diagonal_pinching(2), DEFAULT_TOL)
        v0 = np.eye(4, 2, dtype=complex)
        f0 = float(ev.objective_many(v0[None], alone(1))[0])
        value, _ = _finish(ev, 0, v0, f0, SolverConfig(), DEFAULT_TOL)
        assert f0 - qubit_R(0.2 + 0.1j) > 1e-2
        assert value == pytest.approx(qubit_R(0.2 + 0.1j), abs=1e-10)

    def test_light_rows_are_pruned(self, rng):
        # A third member of weight about 1e-14 beside the two of an optimal
        # qubit decomposition: the finish zeroes its row, and the value moves
        # by at most FINISH_TOL.
        rho = qubit(0.5, 0.3)
        ev = _Evaluator([rho], diagonal_pinching(2), DEFAULT_TOL)
        v2 = np.eye(2, dtype=complex) + 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        f2 = float(ev.objective_many(_retract(v2)[None], alone(1))[0])
        f2, v2 = _finish(ev, 0, v2, f2, SolverConfig(), DEFAULT_TOL)
        light = 1e-7 * (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)))
        v0 = _retract(np.vstack([v2, light]))
        weights = np.sum(np.abs(v0 @ ev.roots[0]) ** 2, axis=1)
        assert 0.0 < weights[2] < DEFAULT_TOL.value
        f0 = float(ev.objective_many(v0[None], alone(1))[0])
        value, v = _finish(ev, 0, v0, f0, SolverConfig(max_iters=1), DEFAULT_TOL)
        assert np.all(v[2] == 0.0)
        assert value <= f0
        assert abs(value - f2) <= FINISH_TOL
        assert value == pytest.approx(qubit_R(0.3), abs=1e-11)


class TestSolveR:
    def test_diagonal_state_has_zero_R(self):
        res = solve_R(DensityOperator(np.eye(2) / 2), diagonal_pinching(2), FAST)
        assert res.value_R == pytest.approx(0.0, abs=1e-9)
        assert res.value_H == pytest.approx(LN2, abs=1e-9)
        assert res.reduced_entropy == pytest.approx(LN2, abs=1e-12)

    def test_skewed_diagonal(self):
        res = solve_R(DensityOperator(np.diag([0.9, 0.1])), diagonal_pinching(2), FAST)
        assert res.value_R == pytest.approx(0.0, abs=1e-9)
        assert res.value_H == pytest.approx(0.3250829733914482, abs=1e-9)

    def test_qubit_closed_form(self):
        res = solve_R(qubit(0.5, 0.3), diagonal_pinching(2), FAST)
        assert res.value_R == pytest.approx(qubit_R(0.3), abs=1e-6)

    def test_qubit_complex_coupling(self):
        res = solve_R(qubit(0.6, 0.2j), diagonal_pinching(2), FAST)
        assert res.value_R == pytest.approx(qubit_R(0.2), abs=1e-6)

    def test_pure_state_zero_gap(self):
        plus = PureState(np.ones(2) / math.sqrt(2)).density()
        res = solve_R(plus, diagonal_pinching(2), FAST)
        assert res.value_H <= 1e-8
        assert res.value_R == pytest.approx(LN2, abs=1e-8)

    def test_optimal_ensemble_feasible(self, rng):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = g @ g.conj().T
        rho = DensityOperator(h / np.trace(h).real)
        res = solve_R(rho, diagonal_pinching(3), FAST)
        assert np.max(np.abs(convex_sum(res.optimal_ensemble).matrix - rho.matrix)) <= 1e-7
        for _, member in res.optimal_ensemble.members():
            assert 1.0 - member.purity() <= 1e-8
        assert res.value_R <= res.reduced_entropy + 1e-9
        assert res.value_H >= -1e-8

    def test_restart_bookkeeping(self):
        res = solve_R(qubit(0.5, 0.25), diagonal_pinching(2), FAST)
        assert len(res.restart_values) == FAST.restarts
        assert res.best_restart == int(np.argmin(res.restart_values))
        # restart_values are the descent's; value_R is the finished value.
        assert res.value_R <= min(res.restart_values)
        assert res.value_R == pytest.approx(
            roof_objective(res.optimal_ensemble, diagonal_pinching(2)), abs=1e-12)

    def test_deterministic_to_the_byte(self):
        rho = qubit(0.55, 0.2 + 0.1j)
        a = solve_R(rho, diagonal_pinching(2), FAST)
        b = solve_R(rho, diagonal_pinching(2), FAST)
        enc = lambda r: json.dumps(round_floats(roof_result_to_json(r)), sort_keys=True)
        assert enc(a) == enc(b)

    def test_seed_changes_random_restarts(self):
        rho = qubit(0.5, 0.25)
        cfg_a = SolverConfig(restarts=4, max_iters=150, seed=0)
        cfg_b = SolverConfig(restarts=4, max_iters=150, seed=1)
        ra = solve_R(rho, diagonal_pinching(2), cfg_a)
        rb = solve_R(rho, diagonal_pinching(2), cfg_b)
        # deterministic starts agree; the random tail may differ, values converge
        assert ra.value_R == pytest.approx(rb.value_R, abs=1e-6)

    def test_max_length_below_rank_rejected(self):
        with pytest.raises(ValidationError, match="rank"):
            solve_R(
                DensityOperator(np.eye(2) / 2),
                diagonal_pinching(2),
                SolverConfig(max_length=1, restarts=1),
            )

    def test_default_length_is_rank_plus_two(self, rng, monkeypatch):
        # (rows, rank) of every descent: min(r + 2, n^2) rows unless
        # max_length caps them, for each rank group of a stack.
        shapes = []
        descend = roof._descend
        monkeypatch.setattr(roof, "_descend", lambda ev, starts, owners, c: (
            shapes.append(starts.shape[1:]) or descend(ev, starts, owners, c)))
        cfg = SolverConfig(restarts=2, max_iters=5)
        w = haar_unitary(3, rng)[:, :2]
        rank_two = DensityOperator(w @ np.diag([0.65, 0.35]) @ w.conj().T)
        pure = PureState(np.ones(3) / math.sqrt(3)).density()
        solve_R(qubit(0.5, 0.3), diagonal_pinching(2), cfg)
        solve_R(ginibre_density(5, rng), diagonal_pinching(5), cfg)
        roof._solve_states([ginibre_density(3, rng), pure, rank_two], diagonal_pinching(3), cfg)
        solve_R(rank_two, diagonal_pinching(3), SolverConfig(restarts=2, max_iters=5, max_length=9))
        assert shapes == [(4, 2), (7, 5), (3, 1), (4, 2), (5, 3), (9, 2)]
        with pytest.raises(ValidationError, match="rank 3"):
            solve_R(ginibre_density(3, rng), diagonal_pinching(3),
                    SolverConfig(restarts=2, max_length=2))

    def test_max_length_cap_respected(self):
        res = solve_R(
            qubit(0.5, 0.2),
            diagonal_pinching(2),
            SolverConfig(max_length=2, restarts=3, max_iters=150),
        )
        assert len(res.optimal_ensemble) <= 2

    def test_trace_file_written(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            res = solve_R(qubit(0.5, 0.2), diagonal_pinching(2), FAST, trace=fh)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["restart"] for line in lines] == list(range(FAST.restarts))
        for line in lines:
            assert set(line) == {"restart", "value", "iterations", "converged"}
        assert tuple(line["value"] for line in lines) == res.restart_values
        best = lines[res.best_restart]
        assert (best["iterations"], best["converged"]) == (res.iterations, res.converged)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            solve_R(DensityOperator(np.eye(3) / 3), diagonal_pinching(2), FAST)


class TestRankDeficientState:
    """A rank-2 state in d = 3: isometries of two columns, members in its support."""

    @pytest.mark.parametrize("channel", [
        diagonal_pinching(3),
        commutative_channel([np.diag([1.0, 1, 0]), np.diag([0.0, 0, 1])]),
    ], ids=["pinching", "commutative"])
    @pytest.mark.parametrize("length", [None, 2])
    def test_rank_two_qutrit(self, rng, channel, length):
        w = haar_unitary(3, rng)[:, :2]
        rho = DensityOperator(w @ np.diag([0.65, 0.35]) @ w.conj().T)
        support = w @ w.conj().T
        cfg = SolverConfig(restarts=3, max_iters=60, max_length=length)
        res = solve_R(rho, channel, cfg)
        assert len(res.optimal_ensemble) <= (length or 9)
        for _, member in res.optimal_ensemble.members():
            assert np.max(np.abs(member.matrix - support @ member.matrix @ support)) <= 1e-9
        assert np.max(np.abs(convex_sum(res.optimal_ensemble).matrix - rho.matrix)) <= 1e-9
        assert res.value_H >= -1e-8
        enc = lambda r: json.dumps(roof_result_to_json(r), sort_keys=True)
        assert enc(solve_R(rho, channel, cfg)) == enc(res)


class TestLockstepRestarts:
    """Restarts share one stack, but each follows its own path exactly."""

    def test_default_qubit_restarts_independent(self):
        rho = qubit(0.55, 0.2 + 0.1j)
        full = solve_R(rho, diagonal_pinching(2))
        few = solve_R(rho, diagonal_pinching(2), SolverConfig(restarts=5))
        assert full.restart_values[:5] == few.restart_values

    def test_chunked_gradient_stack_independent(self, rng):
        # At d = 5 the line search of 16 restarts scores 16 * LADDER = 128
        # isometries of 25 rows (max_length pinned to 25), more than one
        # evaluator block holds, so it is cut inside a restart's rungs, while
        # the stacks of 1 or 3 restarts are one block each.
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = g @ g.conj().T
        rho = DensityOperator(h / np.trace(h).real)
        channel = pinching([np.diag([1.0, 1, 0, 0, 0]), np.diag([0.0, 0, 1, 1, 0]),
                            np.diag([0.0, 0, 0, 0, 1])])
        assert 16 * LADDER > _Evaluator([rho], channel, DEFAULT_TOL).block_size(25, 5)
        full = solve_R(rho, channel, SolverConfig(restarts=16, max_iters=6, max_length=25))
        for j in (1, 3):
            part = solve_R(rho, channel, SolverConfig(restarts=j, max_iters=6, max_length=25))
            assert full.restart_values[:j] == part.restart_values

    @pytest.mark.parametrize("length", [25, 60])
    def test_stacked_gradient_matches_single(self, rng, length):
        # A d = 5 block holds 104 copies of 25 rows or 43 of 60, fewer than
        # one restart's 250 or 600, so each restart's copies are split
        # across blocks as well.
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = g @ g.conj().T
        rho = DensityOperator(h / np.trace(h).real)
        ev = _Evaluator([rho], diagonal_pinching(5), DEFAULT_TOL)
        v = _retract(np.stack(_start_isometries(length, 5, SolverConfig(restarts=4))))
        f0 = ev.objective_many(v, alone(len(v)))
        stacked = _fd_gradient(ev, v, alone(len(v)), f0)
        for i in range(len(v)):
            single = _fd_gradient(ev, v[i : i + 1], alone(1), f0[i : i + 1])
            assert np.array_equal(stacked[i], single[0])

    def test_zero_gradient_stops_every_restart(self):
        # A single-block channel makes the objective identically zero, so
        # every restart leaves the stack at its first iteration.
        res = solve_R(DensityOperator(np.diag([0.7, 0.3])), commutative_channel([np.eye(2)]),
                      SolverConfig(restarts=3, max_iters=50))
        assert res.restart_values == (0.0, 0.0, 0.0)
        assert (res.best_restart, res.converged, res.iterations) == (0, True, 1)


def assert_same_result(got, want):
    """Every field of two results to the bit, the ensemble's bytes included."""
    for field in ("value_R", "value_H", "reduced_entropy", "restart_values"):
        assert bits(np.array(getattr(got, field))).tobytes() == bits(
            np.array(getattr(want, field))).tobytes(), field
    assert (got.best_restart, got.converged, got.iterations) == (
        want.best_restart, want.converged, want.iterations)
    assert got.optimal_ensemble.weights.tobytes() == want.optimal_ensemble.weights.tobytes()
    assert [s.matrix.tobytes() for s in got.optimal_ensemble.states] == [
        s.matrix.tobytes() for s in want.optimal_ensemble.states]


def _affinity_reference(result, channel, samples, cfg):
    """The certificate's samples as (prediction, resolved, discrepancy), solved in turn.

    One Dirichlet draw and one ``solve_R`` per sample, as before the
    re-solves shared a stack.
    """
    members = list(result.optimal_ensemble.members())
    reduced = [block_entropy(reduce_state(channel, rho)) for _, rho in members]
    rng = np.random.default_rng([cfg.seed, 7919])
    out = []
    for _ in range(samples):
        q = rng.dirichlet(np.ones(len(members)))
        mixture = DensityOperator(sum(qj * rho.matrix for qj, (_, rho) in zip(q, members)))
        prediction = float(np.dot(q, reduced))
        value = solve_R(mixture, channel, cfg).value_R
        out.append((prediction, value, value - prediction))
    return out


class TestSameChannelStack:
    """States under one channel share a stack, and each gets its solve_R result."""

    def test_qubit_states_match_solve_R(self, rng):
        states = [ginibre_density(2, rng) for _ in range(3)]
        channel = diagonal_pinching(2)
        got = roof._solve_states(states, channel, FAST)
        assert len(got) == 3
        for rho, res in zip(states, got):
            assert_same_result(res, solve_R(rho, channel, FAST))

    def test_mixed_ranks_match_solve_R_in_input_order(self, rng):
        # Pure and full-rank states alternate, so the rank groups interleave
        # in the input and the results must come back in input order.
        pure = [PureState(v / np.linalg.norm(v)).density()
                for v in rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))]
        full = [ginibre_density(3, rng) for _ in range(2)]
        states = [full[0], pure[0], full[1], pure[1]]
        channel = pinching([np.diag([1.0, 1, 0]), np.diag([0.0, 0, 1])])
        cfg = SolverConfig(restarts=3, max_iters=40, seed=2)
        assert _Evaluator(states, channel, DEFAULT_TOL).ranks == [3, 1, 3, 1]
        got = roof._solve_states(states, channel, cfg)
        for rho, res in zip(states, got):
            assert_same_result(res, solve_R(rho, channel, cfg))

    def test_stacks_split_by_row_budget_match(self, rng, monkeypatch):
        states = [ginibre_density(3, rng) for _ in range(5)]
        channel = diagonal_pinching(3)
        cfg = SolverConfig(restarts=2, max_iters=30, max_length=9)
        sizes = []
        descend = roof._descend
        monkeypatch.setattr(roof, "_descend", lambda ev, starts, owners, c: (
            sizes.append(len(set(owners.tolist()))) or descend(ev, starts, owners, c)))
        whole = roof._solve_states(states, channel, cfg)
        assert sizes == [5]
        # Two states' restarts fill the budget: stacks of 2, 2 and 1 states.
        monkeypatch.setattr(roof, "OBJECTIVE_ROWS", 2 * cfg.restarts * 9)
        split = roof._solve_states(states, channel, cfg)
        assert sizes == [5, 2, 2, 1]
        for a, b in zip(split, whole):
            assert_same_result(a, b)

    def test_affinity_matches_sequential_solves(self, rng):
        channel = diagonal_pinching(3)
        cfg = SolverConfig(restarts=3, max_iters=60, seed=4)
        res = solve_R(ginibre_density(3, rng), channel, cfg)
        assert len(res.optimal_ensemble) > 2
        cert = affinity_certificate(res, channel, samples=5, config=cfg)
        want = _affinity_reference(res, channel, 5, cfg)
        got = list(zip(cert.predictions, cert.resolved, cert.discrepancies))
        assert bits(np.array(got)).tobytes() == bits(np.array(want)).tobytes()


def _xlnx_reference(x):
    """The allocating -x ln x that the in-place ``_xlnx`` replaced."""
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    return -x * np.log(np.where(x > 0.0, x, 1.0))


def _retract_reference(a):
    """The ``np.linalg.qr`` retraction that the in-place ``_retract`` replaced."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phase = np.where(mag > 0.0, d / np.where(mag > 0.0, mag, 1.0), 1.0)
    q *= phase[..., None, :]
    return q


def _fd_gradient_reference(ev, v, owners, f0):
    """Gather-and-bump forward differences, building fresh copies per chunk.

    Its chunks hold whole restarts within ``OBJECTIVE_ROWS`` rows where they
    fit, while ``_fd_gradient`` cuts its copies at the evaluator's block
    size wherever that count falls, so a match also shows that where the
    copies are cut does not matter.
    """
    k, m, r = v.shape
    count = m * r
    flat = v.reshape(k, count)
    span = 2 * count
    total = span * k
    per_call = max(1, OBJECTIVE_ROWS // m)
    chunk = per_call // span * span or per_call
    values = np.empty(total)
    for at in range(0, total, chunk):
        own, col = np.divmod(np.arange(at, min(at + chunk, total)), span)
        batch = flat[own]
        batch[np.arange(own.size), col % count] += np.where(col < count, FD_STEP, 1j * FD_STEP)
        values[at : at + own.size] = ev.objective_many(
            _retract_reference(batch.reshape(-1, m, r)), owners[own])
    g = (values.reshape(k, span) - f0[:, None]) / FD_STEP
    return (g[:, :count] + 1j * g[:, count:]).reshape(k, m, r)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _signed_zero_case(rng, length):
    """A d = 5 state, a three-block pinching and three restarts with -0.0 entries."""
    rho = ginibre_density(5, rng)
    channel = pinching([np.diag([1.0, 1, 0, 0, 0]), np.diag([0.0, 0, 1, 1, 0]),
                        np.diag([0.0, 0, 0, 0, 1])])
    v = _retract(np.stack(_start_isometries(length, 5, SolverConfig(restarts=3))))
    g = rng.normal(size=(length, 5)) + 1j * rng.normal(size=(length, 5))
    g[0, 0] = 0.0
    v[0] = _retract(g)
    v[0, 0, 0] = complex(-0.0, -0.0)
    v[1].imag[v[1].imag == 0.0] = -0.0
    assert np.signbit(v[0, 0, 0].real) and np.signbit(v[0, 0, 0].imag)
    return rho, channel, v


class TestWorkBuffers:
    """Values do not depend on blocks, repeats or reuse; the evaluator keeps no work arrays."""

    def test_reused_evaluator_matches_fresh(self, rng):
        # Norm blocks only; a two-term block (closed form); a three-term
        # block (eigvalsh) beside a two-term one.
        pair, mixed = gram_channels(rng)
        norm_only = pinching([np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])])
        for channel, pairs, grams in ((norm_only, 0, 0), (pair, 1, 0), (mixed, 1, 1)):
            n = channel.input_dim
            rho = ginibre_density(n, rng)
            ev = _Evaluator([rho], channel, DEFAULT_TOL)
            assert (len(ev.pair_specs), len(ev.gram_specs)) == (pairs, grams)
            stacks, results = [], []
            for batch in (500, 3, 500):
                shape = (batch, n * n, ev.ranks[0])
                stacks.append(_retract(rng.normal(size=shape) + 1j * rng.normal(size=shape)))
                results.append(ev.objective_many(stacks[-1], alone(batch)))
            for v, got in zip(stacks, results):
                fresh = _Evaluator([rho], channel, DEFAULT_TOL).objective_many(v, alone(len(v)))
                assert np.array_equal(got, fresh)

    def test_blocks_of_104_match_one_at_a_time(self, rng):
        # 500 isometries of a d = 5 pinching run in blocks of 104.
        n, m = 5, 25
        ev = _Evaluator([ginibre_density(n, rng)], diagonal_pinching(n), DEFAULT_TOL)
        shape = (500, m, n)
        v = _retract(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        got = ev.objective_many(v, alone(len(v)))
        per_block = GEMM_WORK // (n * n * m)
        assert per_block == 104
        width = ev.indicator.shape[0]
        assert width == n
        single = np.array([ev.objective_many(v[i : i + 1], alone(1))[0] for i in range(len(v))])
        assert np.array_equal(got, single)

    def test_owner_runs_across_blocks_match_one_state_stacks(self, rng):
        # Three states' runs of 70, 100 and 80 isometries against blocks of
        # 104: block and run boundaries fall inside each other.
        channel = pinching([np.diag([1.0, 1, 0, 0, 0]), np.diag([0.0, 0, 1, 1, 0]),
                            np.diag([0.0, 0, 0, 0, 1])])
        states = [ginibre_density(5, rng) for _ in range(3)]
        ev = _Evaluator(states, channel, DEFAULT_TOL)
        sizes = (70, 100, 80)
        v = _retract(rng.normal(size=(250, 25, 5)) + 1j * rng.normal(size=(250, 25, 5)))
        got = ev.objective_many(v, np.repeat(np.arange(3), sizes))
        edges = np.cumsum((0,) + sizes)
        for rho, lo, hi in zip(states, edges, edges[1:]):
            alone_ev = _Evaluator([rho], channel, DEFAULT_TOL)
            assert np.array_equal(got[lo:hi], alone_ev.objective_many(v[lo:hi], alone(hi - lo)))

    def test_xlnx_bit_exact(self, rng):
        tiny = np.finfo(float).tiny
        special = [0.0, -0.0, -1.0, -tiny / 4, tiny / 4, 5e-324, tiny, 1.0, 0.5, 1e300, -1e300]
        # Odd lengths reach the vector loops' remainders.
        for x in (np.array(special), rng.uniform(-0.2, 1.0, 37),
                  rng.uniform(0.0, 1.0, (5, 7, 3)) ** 40):
            keep = x.copy()
            expected = bits(_xlnx_reference(x))
            assert np.array_equal(bits(_xlnx(x)), expected)
            assert np.array_equal(bits(x), bits(keep))

    @pytest.mark.parametrize("length", [25, 60])
    def test_fd_gradient_matches_reference(self, rng, length):
        # 60 rows at rank 5 give 600 copies per restart, so one restart is
        # split across blocks.  -0.0 entries must keep their sign in every
        # copy where they are not bumped: in restart 0 the first entry of
        # the first column is -0.0, whose sign picks QR's first reflector.
        rho, channel, v = _signed_zero_case(rng, length)
        ev = _Evaluator([rho], channel, DEFAULT_TOL)
        f0 = ev.objective_many(v, alone(len(v)))
        expected = _fd_gradient_reference(_Evaluator([rho], channel, DEFAULT_TOL), v, alone(3), f0)
        assert np.array_equal(_fd_gradient(ev, v, alone(3), f0), expected)
        assert np.array_equal(_fd_gradient(ev, v[1:], alone(2), f0[1:]), expected[1:])

    @pytest.mark.parametrize("copies", [1, 7])
    def test_fd_gradient_does_not_depend_on_its_cuts(self, rng, monkeypatch, copies):
        # The 750 copies of three d = 5 restarts are scored in blocks of 104
        # by default; a smaller GEMM_WORK cuts them into blocks of 1 copy, or
        # of 7 with a last runt of 1.
        rho, channel, v = _signed_zero_case(rng, 25)
        ev = _Evaluator([rho], channel, DEFAULT_TOL)
        f0 = ev.objective_many(v, alone(3))
        expected = _fd_gradient(ev, v, alone(3), f0)
        assert ev.block_size(25, 5) == 104
        monkeypatch.setattr(roof, "GEMM_WORK", copies * 5 * 5 * 25)
        ev = _Evaluator([rho], channel, DEFAULT_TOL)
        assert ev.block_size(25, 5) == copies
        assert np.array_equal(bits(_fd_gradient(ev, v, alone(3), f0)), bits(expected))

    def test_retract_overwrites_input_and_fixes_isometries(self, rng):
        # A C-contiguous complex stack is the retraction's to overwrite.
        a = rng.normal(size=(6, 9, 3)) + 1j * rng.normal(size=(6, 9, 3))
        a[0, 0] = -0.0
        keep = a.copy()
        q = _retract(a)
        assert q is a
        assert not np.array_equal(bits(q), bits(keep))
        assert np.allclose(_retract(q.copy()), q, atol=1e-14)
        eye = np.eye(3)
        assert np.allclose(q.conj().transpose(0, 2, 1) @ q, eye, atol=1e-13)

    @pytest.mark.parametrize("shape", [(40, 4, 2), (30, 25, 5), (20, 36, 6)],
                             ids=["qubit", "d5", "d6"])
    def test_retract_matches_reference(self, rng, shape):
        # Signed zeros pick the sign of a Householder reflector, and an
        # all-zero column gives a zero R-diagonal entry, whose phase is 1.
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a[0, 0] = -0.0
        a[1].imag[a[1].imag < 0.5] = -0.0
        a[2, :, 1] = 0.0
        for x in (a, a.real.copy()):
            expected = bits(_retract_reference(x))
            # Q written over a C-contiguous stack, which is returned itself.
            y = x.copy()
            assert _retract(y) is y
            assert np.array_equal(bits(y), expected)
            # A view in another memory order is copied, with the same result.
            view = np.moveaxis(np.moveaxis(x, 0, -1).copy(), -1, 0)
            assert np.array_equal(bits(_retract(view)), expected)
            assert np.array_equal(bits(view), bits(x))

    def test_retract_allocates_little_beyond_q(self, rng):
        # A d = 6 stack.  Q is written over the input, so only the phases
        # and the Householder scalars are new (a separate Q took 1.24x).
        a = rng.normal(size=(227, 36, 6)) + 1j * rng.normal(size=(227, 36, 6))
        tracemalloc.start()
        try:
            q = _retract(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q is a
        assert peak <= 0.5 * a.nbytes

    def test_calls_leave_earlier_results_and_the_evaluator_unchanged(self, rng):
        # The mixed Gram channel runs the norm, pair and eigvalsh paths.
        _, mixed = gram_channels(rng)
        ev = _Evaluator([ginibre_density(3, rng)], mixed, DEFAULT_TOL)
        before = dict(vars(ev))
        held = {key: list(value) for key, value in before.items() if isinstance(value, list)}
        v = _retract(rng.normal(size=(2, 5, 9, 3)) + 1j * rng.normal(size=(2, 5, 9, 3)))
        calls = (lambda x: ev._score(x, alone(5)),
                 lambda x: (ev.objective_many(x, alone(5)),),
                 lambda x: ev.value_and_gradient(x, alone(5)))
        for call in calls:
            first = call(v[0])
            kept = [x.copy() for x in first]
            call(v[1])
            for x, y in zip(first, kept):
                assert np.array_equal(bits(x), bits(y))
        assert vars(ev).keys() == before.keys()
        for key, value in vars(ev).items():
            assert value is before[key], key
            if key in held:
                assert len(value) == len(held[key])
                assert all(x is y for x, y in zip(value, held[key])), key

    def test_solves_in_one_process_repeat_bytes(self, rng):
        rho3, rho4 = ginibre_density(3, rng), ginibre_density(4, rng)
        cfg = SolverConfig(restarts=3, max_iters=20)
        enc = lambda r: json.dumps(roof_result_to_json(r), sort_keys=True)
        first = enc(solve_R(rho3, diagonal_pinching(3), cfg))
        solve_R(rho4, diagonal_pinching(4), cfg)
        assert enc(solve_R(rho3, diagonal_pinching(3), cfg)) == first


class TestExactGradientDescent:
    """The descent takes one analytic gradient call per iteration, for the whole stack."""

    @pytest.mark.parametrize("case", ["two-qubits", "d5-budget"])
    def test_mixed_owner_stack_matches_per_state_descents(self, rng, case):
        if case == "two-qubits":
            states, channel, cfg = ([qubit(0.6, 0.2j), qubit(0.3, 0.1 + 0.2j)],
                                    diagonal_pinching(2), SolverConfig())
        else:
            states = [ginibre_density(5, rng) for _ in range(3)]
            channel = pinching([np.diag([1.0, 1, 0, 0, 0]), np.diag([0.0, 0, 1, 1, 0]),
                                np.diag([0.0, 0, 0, 0, 1])])
            cfg = SolverConfig(restarts=4, max_iters=30)
        ev = _Evaluator(states, channel, DEFAULT_TOL)
        r = ev.ranks[0]
        starts = np.stack(_start_isometries(r + 2, r, cfg))
        owners = np.repeat(np.arange(len(states)), cfg.restarts)
        got = roof._descend(ev, np.concatenate([starts] * len(states)), owners, cfg)
        for i, rho in enumerate(states):
            own = slice(i * cfg.restarts, (i + 1) * cfg.restarts)
            want = roof._descend(_Evaluator([rho], channel, DEFAULT_TOL), starts.copy(),
                                 alone(cfg.restarts), cfg)
            # Values and isometries to the bit; converged flags and iteration counts.
            for a, b in zip(got[:2], want[:2]):
                assert np.array_equal(bits(a[own]), bits(b))
            for a, b in zip(got[2:], want[2:]):
                assert np.array_equal(a[own], b)

    def test_one_gradient_call_per_iteration_and_no_finite_differences(self, rng, monkeypatch):
        def fail(*args):
            raise AssertionError("the descent called _fd_gradient")

        monkeypatch.setattr(roof, "_fd_gradient", fail)
        states = [qubit(0.6, 0.2j), qubit(0.3, 0.1 + 0.2j)]
        ev = _Evaluator(states, diagonal_pinching(2), DEFAULT_TOL)
        cfg = SolverConfig(restarts=6, max_iters=40)
        calls = []
        gradient = ev.value_and_gradient

        def spy(a, owners):
            calls.append(owners.tolist())
            return gradient(a, owners)

        monkeypatch.setattr(ev, "value_and_gradient", spy)
        starts = np.stack(_start_isometries(4, 2, cfg) * 2)
        owners = np.repeat([0, 1], cfg.restarts)
        _, _, _, iterations = roof._descend(ev, starts, owners, cfg)
        # One call per iteration, on the restarts still live, both states'.
        assert len(calls) == iterations.max()
        assert calls[0] == owners.tolist()
        assert [len(c) for c in calls] == [int(np.sum(iterations >= it))
                                           for it in range(1, len(calls) + 1)]
        res = solve_R(states[0], diagonal_pinching(2), SolverConfig(restarts=3, max_iters=30))
        assert res.value_R == pytest.approx(qubit_R(0.2j), abs=1e-9)


class TestAffinityCertificate:
    def test_qubit_passes(self):
        res = solve_R(qubit(0.5, 0.3), diagonal_pinching(2), FAST)
        cert = affinity_certificate(res, diagonal_pinching(2), samples=6, config=FAST)
        assert cert.passed
        assert cert.max_discrepancy <= 1e-4
        assert len(cert.discrepancies) == 6

    def test_singleton_trivial(self):
        plus = PureState(np.ones(2) / math.sqrt(2)).density()
        res = solve_R(plus, diagonal_pinching(2), FAST)
        cert = affinity_certificate(res, diagonal_pinching(2), samples=3, config=FAST)
        assert cert.passed
        assert cert.max_discrepancy <= 1e-6

    @pytest.mark.parametrize("samples", [2.5, True])
    def test_samples_must_be_an_integer(self, samples):
        res = solve_R(qubit(0.5, 0.3), diagonal_pinching(2), FAST)
        with pytest.raises(ValidationError, match="samples must be an integer"):
            affinity_certificate(res, diagonal_pinching(2), samples=samples, config=FAST)


class TestZeroEntropyStructure:
    def test_precondition_rejects_positive_gap(self):
        rho = DensityOperator(np.eye(2) / 2)
        res = solve_R(rho, diagonal_pinching(2), FAST)
        assert res.value_H == pytest.approx(LN2, abs=1e-8)
        with pytest.raises(ValidationError, match="value_H"):
            zero_entropy_structure(rho, diagonal_pinching(2), res)

    def test_block_aligned_vector_passes(self):
        rho = DensityOperator(np.diag([0.0, 1.0]))
        res = solve_R(rho, diagonal_pinching(2), FAST)
        report = zero_entropy_structure(rho, diagonal_pinching(2), res)
        assert report.passed
        assert max(report.residuals) <= 1e-10

    def test_vector_inside_multidim_block_passes(self):
        ch = pinching([np.diag([1.0, 1, 0]), np.diag([0.0, 0, 1])])
        vec = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        rho = DensityOperator(np.outer(vec, vec))
        res = solve_R(rho, ch, FAST)
        assert res.value_H <= 1e-8
        report = zero_entropy_structure(rho, ch, res)
        assert report.passed

    def test_spread_pure_state_flagged_not_raised(self):
        plus = PureState(np.ones(2) / math.sqrt(2)).density()
        res = solve_R(plus, diagonal_pinching(2), FAST)
        report = zero_entropy_structure(plus, diagonal_pinching(2), res)
        assert not report.passed
        assert report.vector_passed == (False,)


class TestObjectiveHelpers:
    def test_roof_objective_is_weighted_entropy(self, rng):
        from roofentropy import Ensemble, block_entropy, reduce_state

        states = []
        for _ in range(2):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = g @ g.conj().T
            states.append(DensityOperator(h / np.trace(h).real))
        e = Ensemble(np.array([0.4, 0.6]), tuple(states))
        ch = diagonal_pinching(2)
        direct = sum(
            p * block_entropy(reduce_state(ch, s)) for p, s in e.members()
        )
        assert roof_objective(e, ch) == pytest.approx(direct, abs=1e-12)
