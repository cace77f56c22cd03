"""Seeded invariant suite behind the `verify` CLI command.

Every check draws from its own deterministic generator, so a fixed seed
produces byte-identical reports run after run.  Sample counts scale with a
single multiplier; the defaults keep the whole suite interactive.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .accinfo import benatti_bracket, ensemble_from_subalgebra, holevo_check
from .channels import (
    block_compression,
    block_entropy,
    commutative_channel,
    diagonal_pinching,
    reduce_state,
)
from .ensembles import Ensemble, _decomposition_defects, convex_sum, mutual_entropy, shorten
from .jsonio import roof_result_to_json, round_floats
from .oracles import (
    block_example_analyze,
    block_example_decomposition,
    qubit_R,
    qubit_R_series,
)
from .roof import (
    SolverConfig,
    _solve_states,
    affinity_certificate,
    solve_R,
    zero_entropy_structure,
)
from .sampling import (
    _column_projections,
    ginibre_density,
    haar_unitary,
    random_commutative,
    random_ensemble,
    random_partition,
    random_pinching,
    random_projections,
    random_pure_state,
)
from .states import (
    DensityOperator,
    ValidationError,
    _require_int,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)

__all__ = ["run_verify"]

VERIFY_SOLVER = SolverConfig(restarts=5, max_iters=250)


def _check_entropy_bounds(rng, n, cfg):
    worst_low, worst_high = 0.0, 0.0
    for _ in range(30 * n):
        dim = int(rng.integers(2, 6))
        s = von_neumann_entropy(ginibre_density(dim, rng))
        worst_low = min(worst_low, s)
        worst_high = max(worst_high, s - math.log(dim))
    passed = worst_low >= -1e-12 and worst_high <= 1e-12
    return passed, {"min_entropy": worst_low, "max_excess_over_log_dim": worst_high}


def _check_unitary_invariance(rng, n, cfg):
    worst = 0.0
    for _ in range(20 * n):
        dim = int(rng.integers(2, 5))
        rho = ginibre_density(dim, rng)
        u = haar_unitary(dim, rng)
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
        worst = max(worst, abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)))
    return worst <= 1e-10, {"max_deviation": worst}


def _check_klein(rng, n, cfg):
    worst = math.inf
    for _ in range(20 * n):
        dim = int(rng.integers(2, 5))
        rho, sigma = ginibre_density(dim, rng), ginibre_density(dim, rng)
        worst = min(worst, relative_entropy(rho, sigma))
    return worst >= -1e-12, {"min_relative_entropy": worst}


def _check_joint_identity(rng, n, cfg):
    worst = 0.0
    for _ in range(20 * n):
        dim = int(rng.integers(2, 5))
        rho, sigma = ginibre_density(dim, rng), ginibre_density(dim, rng)
        w, v = np.linalg.eigh(sigma.matrix)
        log_sigma = (v * np.log(w)) @ v.conj().T
        direct = -von_neumann_entropy(rho) - float(np.trace(rho.matrix @ log_sigma).real)
        worst = max(worst, abs(relative_entropy(rho, sigma) - direct))
    return worst <= 1e-10, {"max_deviation": worst}


def _random_channel(dim, rng):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return diagonal_pinching(dim)
    if kind == 1:
        return random_pinching(dim, rng)
    return random_commutative(dim, rng)


def _check_mutual_nonneg(rng, n, cfg):
    worst = math.inf
    for _ in range(10 * n):
        dim = int(rng.integers(2, 5))
        e = random_ensemble(dim, int(rng.integers(2, 5)), rng)
        worst = min(worst, mutual_entropy(e, _random_channel(dim, rng)))
    return worst >= -1e-12, {"min_mutual_entropy": worst}


def _check_mutual_forms(rng, n, cfg):
    worst = 0.0
    for _ in range(10 * n):
        dim = int(rng.integers(2, 5))
        e = random_ensemble(dim, int(rng.integers(2, 5)), rng)
        ch = _random_channel(dim, rng)
        worst = max(
            worst,
            abs(mutual_entropy(e, ch, "holevo") - mutual_entropy(e, ch, "relative")),
        )
    return worst <= 1e-10, {"max_form_difference": worst}


def _check_shorten(rng, n, cfg):
    worst = 0.0
    for _ in range(10 * n):
        dim = int(rng.integers(2, 4))
        base = random_ensemble(dim, 3, rng)
        weights = np.concatenate([base.weights * 0.5, base.weights * 0.5])
        states = base.states + base.states
        doubled = Ensemble(weights, states)
        short = shorten(doubled)
        worst = max(
            worst,
            float(np.max(np.abs(convex_sum(short).matrix - convex_sum(base).matrix))),
        )
        if len(short) > len(base):
            return False, {"unmerged_length": len(short)}
    return worst <= 1e-12, {"max_mixture_drift": worst}


def _check_reduction_blocks(rng, n, cfg):
    worst_trace, worst_eig = 0.0, 0.0
    for _ in range(10 * n):
        dim = int(rng.integers(2, 5))
        bd = reduce_state(_random_channel(dim, rng), ginibre_density(dim, rng))
        worst_trace = max(worst_trace, abs(float(sum(bd.probabilities())) - 1.0))
        for w in bd._spectra:
            worst_eig = min(worst_eig, float(w[0]))
    return worst_trace <= 1e-10 and worst_eig >= -1e-12, {
        "max_trace_defect": worst_trace,
        "min_block_eigenvalue": worst_eig,
    }


def _check_reduction_linear(rng, n, cfg):
    worst = 0.0
    for _ in range(5 * n):
        dim = int(rng.integers(2, 5))
        ch = _random_channel(dim, rng)
        a, b = ginibre_density(dim, rng), ginibre_density(dim, rng)
        t = float(rng.uniform(0.2, 0.8))
        mix = DensityOperator(t * a.matrix + (1 - t) * b.matrix)
        lhs = reduce_state(ch, mix).to_dense()
        rhs = t * reduce_state(ch, a).to_dense() + (1 - t) * reduce_state(ch, b).to_dense()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= 1e-12, {"max_linearity_defect": worst}


def _check_compression_identity(rng, n, cfg):
    worst = 0.0
    for _ in range(5 * n):
        dim = int(rng.integers(3, 6))
        psi = random_pure_state(dim, rng)
        rho = ginibre_density(dim, rng)
        bd = reduce_state(block_compression(psi), rho)
        q = np.eye(dim) - psi.projector()
        compressed = q @ rho.matrix @ q
        lam = float(np.vdot(psi.vector, rho.matrix @ psi.vector).real)
        spectral = shannon_entropy(np.maximum(np.linalg.eigvalsh(compressed), 0.0))
        direct = spectral + shannon_entropy([lam])
        worst = max(worst, abs(block_entropy(bd) - direct))
    return worst <= 1e-10, {"max_identity_defect": worst}


def _check_solver_qubit(rng, n, cfg):
    worst = 0.0
    states = [ginibre_density(2, rng) for _ in range(3 * n)]
    for rho, res in zip(states, _solve_states(states, diagonal_pinching(2), cfg)):
        worst = max(worst, abs(res.value_R - qubit_R(rho.matrix[0, 1])))
    return worst <= 1e-5, {"max_oracle_error": worst}


def _check_pure_zero(rng, n, cfg):
    worst = 0.0
    for _ in range(3 * n):
        dim = int(rng.integers(2, 5))
        rho = random_pure_state(dim, rng).density()
        res = solve_R(rho, _random_channel(dim, rng), cfg)
        worst = max(worst, res.value_H)
    return worst <= 1e-6, {"max_pure_H": worst}


def _check_solver_feasibility(rng, n, cfg):
    worst_recon, worst_r, worst_h, worst_purity = 0.0, -math.inf, 0.0, 0.0
    for _ in range(3 * n):
        dim = int(rng.integers(2, 5))
        rho = ginibre_density(dim, rng)
        ch = _random_channel(dim, rng)
        res = solve_R(rho, ch, cfg)
        worst_r = max(worst_r, res.value_R - res.reduced_entropy)
        worst_h = min(worst_h, res.value_H)
        recon, purity = _decomposition_defects(res.optimal_ensemble, rho)
        worst_recon = max(worst_recon, recon)
        worst_purity = max(worst_purity, purity)
    passed = (
        worst_r <= 1e-9 and worst_h >= -1e-8 and worst_recon <= 1e-7 and worst_purity <= 1e-8
    )
    return passed, {
        "max_R_minus_reduced_entropy": worst_r,
        "min_H": worst_h,
        "max_reconstruction_error": worst_recon,
        "max_purity_defect": worst_purity,
    }


def _check_concavity(rng, n, cfg):
    worst = math.inf
    for _ in range(2 * n):
        dim = int(rng.integers(2, 4))
        ch = random_commutative(dim, rng)
        a, b = ginibre_density(dim, rng), ginibre_density(dim, rng)
        t = float(rng.uniform(0.1, 0.9))
        mix = DensityOperator(t * a.matrix + (1 - t) * b.matrix)
        h_mix, h_a, h_b = (res.value_H for res in _solve_states([mix, a, b], ch, cfg))
        h_split = t * h_a + (1 - t) * h_b
        worst = min(worst, h_mix - h_split)
    return worst >= -2e-4, {"min_concavity_slack": worst}


def _coarsen(projections, rng):
    """Merge the first projection with a random other one."""
    k = int(rng.integers(1, len(projections)))
    out = [p for i, p in enumerate(projections) if i not in (0, k)]
    out.append(projections[0] + projections[k])
    return out


def _check_monotonicity(rng, n, cfg):
    worst = math.inf
    for _ in range(2 * n):
        dim = int(rng.integers(3, 5))
        fine = random_projections(dim, rng, parts=3)
        coarse = _coarsen(fine, rng)
        rho = ginibre_density(dim, rng)
        h_fine = solve_R(rho, commutative_channel(fine), cfg).value_H
        h_coarse = solve_R(rho, commutative_channel(coarse), cfg).value_H
        worst = min(worst, h_fine - h_coarse)
    return worst >= -2e-4, {"min_refinement_gain": worst}


def _check_solver_deterministic(rng, n, cfg):
    dim = int(rng.integers(2, 4))
    rho = ginibre_density(dim, rng)
    ch = _random_channel(dim, rng)
    a = json.dumps(round_floats(roof_result_to_json(solve_R(rho, ch, cfg))), sort_keys=True)
    b = json.dumps(round_floats(roof_result_to_json(solve_R(rho, ch, cfg))), sort_keys=True)
    return a == b, {"bytes": len(a)}


def _check_series(rng, n, cfg):
    worst_tail = 0.0
    for z in (0.2, 0.3, 0.4, 0.49):
        worst_tail = max(worst_tail, abs(qubit_R_series(z, 200) - qubit_R(z)))
    monotone = True
    for z in (0.0, 0.1, 0.3):
        partials = [qubit_R_series(z, k) for k in range(1, 40)]
        monotone &= all(b <= a + 1e-15 for a, b in zip(partials, partials[1:]))
    shrinking = all(
        abs(qubit_R_series(z, 800) - qubit_R(z)) < abs(qubit_R_series(z, 50) - qubit_R(z))
        for z in (0.0, 0.05, 0.1)
    )
    passed = worst_tail <= 1e-8 and monotone and shrinking
    return passed, {
        "max_converged_error": worst_tail,
        "monotone": monotone,
        "error_shrinks_with_terms": shrinking,
    }


def _check_qubit_fibers(rng, n, cfg):
    fiber = 0.0
    for _ in range(10 * n):
        mag = float(rng.uniform(0.0, 0.5))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        fiber = max(fiber, abs(qubit_R(mag * np.exp(1j * phase)) - qubit_R(mag)))
    grid = np.linspace(0.0, 0.5, 101)
    values = np.array([qubit_R(z) for z in grid])
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    min_second = float(second.min())
    return fiber <= 1e-12 and min_second >= -1e-9, {
        "max_fiber_spread": fiber,
        "min_second_difference": min_second,
    }


def _feasible_block_instance(rng, dim):
    while True:
        rho = ginibre_density(dim, rng)
        psi = random_pure_state(dim, rng)
        data = block_example_analyze(rho, psi)
        if data.z > 0.5:
            continue
        try:
            dec = block_example_decomposition(data, rho)
        except ValidationError:
            continue
        return rho, psi, data, dec


def _check_block_example(rng, n, cfg):
    worst_recon, worst_purity, worst_gap = 0.0, 0.0, -math.inf
    for _ in range(2 * n):
        dim = int(rng.integers(3, 5))
        rho, psi, data, dec = _feasible_block_instance(rng, dim)
        recon, purity = _decomposition_defects(dec.ensemble, rho)
        worst_recon = max(worst_recon, recon)
        worst_purity = max(worst_purity, purity)
        res = solve_R(rho, block_compression(psi), cfg)
        worst_gap = max(worst_gap, res.value_R - dec.candidate)
    passed = worst_recon <= 1e-9 and worst_purity <= 1e-9 and worst_gap <= 1e-4
    return passed, {
        "max_reconstruction_error": worst_recon,
        "max_purity_defect": worst_purity,
        "max_solver_excess_over_candidate": worst_gap,
    }


def _check_subalgebra_ensemble(rng, n, cfg):
    worst = 0.0
    for _ in range(5 * n):
        dim = int(rng.integers(2, 5))
        rho = ginibre_density(dim, rng)
        e = ensemble_from_subalgebra(rho, random_projections(dim, rng))
        worst = max(worst, float(np.max(np.abs(convex_sum(e).matrix - rho.matrix))))
    return worst <= 1e-10, {"max_mixture_error": worst}


def _check_benatti(rng, n, cfg):
    worst = -math.inf
    for _ in range(n):
        dim = int(rng.integers(2, 5))
        br = benatti_bracket(
            ginibre_density(dim, rng),
            random_projections(dim, rng),
            cfg,
            measurement_samples=32,
        )
        worst = max(worst, br.lower - br.upper)
    return worst <= 1e-6, {"max_lower_minus_upper": worst}


def _check_commuting_bracket(rng, n, cfg):
    worst = 0.0
    for _ in range(n):
        dim = int(rng.integers(2, 5))
        u = haar_unitary(dim, rng)
        spectrum = rng.dirichlet(np.ones(dim))
        rho = DensityOperator((u * spectrum) @ u.conj().T)
        projs = _column_projections(u, random_partition(dim, rng))
        br = benatti_bracket(rho, projs, cfg, measurement_samples=8)
        worst = max(worst, abs(br.upper - br.lower))
    return worst <= 1e-5, {"max_bracket_width": worst}


def _check_holevo(rng, n, cfg):
    worst = -math.inf
    for _ in range(2 * n):
        dim = int(rng.integers(2, 5))
        rho = ginibre_density(dim, rng)
        hc = holevo_check(rho, solve_R(rho, random_commutative(dim, rng), cfg))
        worst = max(worst, hc.channel_entropy - hc.state_entropy)
    return worst <= 1e-6, {"max_H_minus_S": worst}


def _check_affinity(rng, n, cfg):
    rho = ginibre_density(2, rng)
    res = solve_R(rho, diagonal_pinching(2), cfg)
    cert = affinity_certificate(res, diagonal_pinching(2), samples=10 * n, config=cfg)
    return cert.passed, {"max_discrepancy": cert.max_discrepancy}


def _check_zero_structure(rng, n, cfg):
    worst = 0.0
    for _ in range(2 * n):
        dim = int(rng.integers(3, 5))
        ch = random_pinching(dim, rng)
        # a pure state inside one block range is a center eigenvector
        blk = int(rng.integers(0, ch.block_count))
        basis = ch.by_block[blk][0]
        coeff = rng.normal(size=basis.shape[0]) + 1j * rng.normal(size=basis.shape[0])
        vec = basis.conj().T @ coeff
        vec = vec / np.linalg.norm(vec)
        rho = DensityOperator(np.outer(vec, vec.conj()))
        res = solve_R(rho, ch, cfg)
        report = zero_entropy_structure(rho, ch, res)
        if not report.passed:
            return False, {"max_residual": max(report.residuals)}
        worst = max(worst, max(report.residuals))
    # a superposition across blocks is pure (H = 0) yet unaligned: the
    # report must flag it rather than raise
    plus = np.ones(2) / np.sqrt(2.0)
    rho = DensityOperator(np.outer(plus, plus))
    res = solve_R(rho, diagonal_pinching(2), cfg)
    spread = zero_entropy_structure(rho, diagonal_pinching(2), res)
    if spread.passed:
        return False, {"unaligned_vector_not_flagged": True}
    return True, {"max_aligned_residual": worst, "unaligned_flagged": True}


CHECKS = (
    ("entropy_bounds", _check_entropy_bounds),
    ("entropy_unitary_invariance", _check_unitary_invariance),
    ("klein_inequality", _check_klein),
    ("joint_entropy_identity", _check_joint_identity),
    ("mutual_entropy_nonnegative", _check_mutual_nonneg),
    ("mutual_entropy_forms_agree", _check_mutual_forms),
    ("shorten_preserves_mixture", _check_shorten),
    ("reduction_blocks_valid", _check_reduction_blocks),
    ("reduction_linear", _check_reduction_linear),
    ("compression_entropy_identity", _check_compression_identity),
    ("solver_matches_qubit_oracle", _check_solver_qubit),
    ("pure_states_have_zero_H", _check_pure_zero),
    ("solver_result_feasible", _check_solver_feasibility),
    ("roof_concave_in_state", _check_concavity),
    ("roof_monotone_under_refinement", _check_monotonicity),
    ("solver_deterministic", _check_solver_deterministic),
    ("qubit_series_consistency", _check_series),
    ("qubit_roof_fiber_convexity", _check_qubit_fibers),
    ("block_example_roundtrip", _check_block_example),
    ("subalgebra_ensemble_mixes_back", _check_subalgebra_ensemble),
    ("sampled_info_below_H", _check_benatti),
    ("commuting_bracket_closes", _check_commuting_bracket),
    ("holevo_bound", _check_holevo),
    ("roof_affine_on_optimal_face", _check_affinity),
    ("zero_H_eigenvector_structure", _check_zero_structure),
)


def run_verify(seed: int = 0, samples: int = 1, solver: SolverConfig | None = None) -> dict:
    """Run the invariant suite; returns a JSON-ready deterministic report."""
    samples = _require_int("samples", samples, 1)
    seed = _require_int("seed", seed, 0)
    cfg = solver if solver is not None else dataclasses.replace(VERIFY_SOLVER, seed=seed)
    results = []
    failed = 0
    for index, (name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        passed, details = fn(rng, samples, cfg)
        passed = bool(passed)
        failed += 0 if passed else 1
        results.append({"name": name, "passed": passed, "details": details})
    return {
        "seed": seed,
        "samples": samples,
        "solver": dataclasses.asdict(cfg),
        "checks": results,
        "counts": {
            "total": len(results),
            "passed": len(results) - failed,
            "failed": failed,
        },
    }
