"""End-to-end acceptance gate.

Ten checks at pinned tolerances, one printed pass/fail line each; lines go
to the real stdout so they survive pytest capture.  Numbers in the lines
are the measured extremes, so a red line documents how far off it landed.
"""

import json
import time

import numpy as np
import pytest

from roofentropy import (
    SolverConfig,
    ValidationError,
    affinity_certificate,
    benatti_bracket,
    block_example_analyze,
    block_example_decomposition,
    commutative_channel,
    convex_sum,
    diagonal_pinching,
    holevo_check,
    mutual_entropy,
    qubit_R,
    qubit_R_series,
    round_floats,
    run_verify,
    solve_R,
    von_neumann_entropy,
)
from roofentropy.channels import block_compression
from roofentropy.sampling import (
    ginibre_density,
    random_commutative,
    random_ensemble,
    random_pinching,
    random_projections,
    random_pure_state,
)

SOLVER = SolverConfig(restarts=6, max_iters=300)
QUICK = SolverConfig(restarts=4, max_iters=250)


def _report(capsys, num: int, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    # bypass capture so every line reaches the terminal / tee'd log
    with capsys.disabled():
        print(f"criterion {num:2d}: {verdict} — {detail}", flush=True)
    return ok


def test_criterion_01_qubit_oracle_equivalence(capsys):
    rng = np.random.default_rng(1001)
    channel = diagonal_pinching(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        rho = ginibre_density(2, rng)
        result = solve_R(rho, channel, SOLVER)
        exact = qubit_R(rho.matrix[0, 1])
        worst = max(worst, abs(result.value_R - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed <= 60.0
    assert _report(
        capsys, 1, ok, f"qubit closed form: max |solver − exact| = {worst:.3e} "
        f"over 100 states in {elapsed:.1f}s (need ≤ 1e-5, ≤ 60s)"
    )


def _series_remainder(z: float, terms: int) -> tuple[float, float]:
    """Bracket [lo, hi] on the tail of the qubit series after ``terms`` = N terms.

    The tail is sum_{k > N} a_k with a_k = u^k / (2k(2k-1)) and u = 1 - 4z^2.
    For u < 1 the term ratio is below u, so a_{N+1} <= tail <= a_{N+1} / (1 - u).
    At u = 1 (z = 0) the terms lie strictly between 1/(4k^2 - 1) and
    1/((2k - 1.5)(2k + 0.5)), which telescope to 1/(4N + 2) < tail < 1/(4N + 1).
    """
    u = 1.0 - 4.0 * z * z
    if u >= 1.0:
        return 1.0 / (4 * terms + 2), 1.0 / (4 * terms + 1)
    first = u ** (terms + 1) / (2 * (terms + 1) * (2 * terms + 1))
    return first, first / (1.0 - u)


def test_criterion_02_series_consistency(capsys):
    # The series converges like 1/(4N) at z = 0, so the closed form is checked
    # against the series' limit: the truncation error must sit inside the proven
    # remainder bracket, to 1e-8, at N terms where the bracket is ≤ 1e-10 wide.
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.49]

    def outside(z, terms):
        """Truncation error after ``terms`` and its distance outside the remainder bracket."""
        lo, hi = _series_remainder(z, terms)
        error = qubit_R_series(z, terms) - qubit_R(z)
        return error, max(lo - error, error - hi, 0.0)

    errors, outside_200, terms_used, outside_limit = {}, {}, {}, {}
    for z in grid:
        errors[z], outside_200[z] = outside(z, 200)
        terms = 200
        lo, hi = _series_remainder(z, terms)
        while hi - lo > 1e-10:
            terms += 1
            lo, hi = _series_remainder(z, terms)
        terms_used[z] = terms
        outside_limit[z] = outside(z, terms)[1]
    monotone = True
    for z in grid:
        partials = [qubit_R_series(z, k) for k in range(1, 201)]
        if any(b > a + 1e-15 for a, b in zip(partials, partials[1:])):
            monotone = False
    worst_z = max(errors, key=errors.get)
    bad = [f"{z:g}" for z in grid if max(outside_200[z], outside_limit[z]) > 1e-8]
    ok = not bad and monotone
    detail = (
        f"200-term series vs closed form: max error {errors[worst_z]:.3e} at z={worst_z:g}, "
        f"{max(outside_200.values()):.3e} outside its remainder bracket; terms used "
        + ", ".join(f"{terms_used[z]} at z={z:g}" for z in grid)
        + f"; max discrepancy after remainder {max(outside_limit.values()):.3e}, "
        f"monotone={monotone}"
    )
    if bad:
        detail += f"; discrepancy > 1e-8 at z ∈ {{{', '.join(bad)}}}"
    assert _report(capsys, 2, ok, detail + " (need ≤ 1e-8 everywhere)")


def test_criterion_03_pure_state_zero_law(capsys):
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        psi = random_pure_state(dim, rng)
        channel = random_pinching(dim, rng)
        result = solve_R(psi.density(), channel, QUICK)
        worst = max(worst, result.value_H)
    ok = worst <= 1e-6
    assert _report(
        capsys, 3, ok, f"pure states: max value_H = {worst:.3e} over 50 states (need ≤ 1e-6)"
    )


def test_criterion_04_mutual_entropy_forms(capsys):
    rng = np.random.default_rng(4004)
    worst = 0.0
    for i in range(200):
        dim = int(rng.integers(2, 5))
        ensemble = random_ensemble(dim, int(rng.integers(2, 5)), rng)
        maker = random_pinching if i % 2 == 0 else random_commutative
        channel = maker(dim, rng)
        holevo = mutual_entropy(ensemble, channel, "holevo")
        relative = mutual_entropy(ensemble, channel, "relative")
        worst = max(worst, abs(holevo - relative))
    ok = worst <= 1e-10
    assert _report(
        capsys, 4, ok, f"mutual-entropy forms: max |difference| = {worst:.3e} "
        f"over 200 pairs (need ≤ 1e-10)"
    )


def test_criterion_05_block_example(capsys):
    rng = np.random.default_rng(5005)
    worst_rebuild = 0.0
    worst_purity = 0.0
    worst_slack = -np.inf
    gaps = []
    for n in (2, 3):
        dim = n + 1
        found = 0
        while found < 25:
            rho = ginibre_density(dim, rng)
            psi = random_pure_state(dim, rng)
            data = block_example_analyze(rho, psi)
            try:
                dec = block_example_decomposition(data, rho)
            except ValidationError:
                continue
            found += 1
            rebuild = float(np.max(np.abs(convex_sum(dec.ensemble).matrix - rho.matrix)))
            purity = max(1.0 - s.purity() for _, s in dec.ensemble.members())
            result = solve_R(rho, block_compression(psi), SOLVER)
            worst_rebuild = max(worst_rebuild, rebuild)
            worst_purity = max(worst_purity, purity)
            worst_slack = max(worst_slack, result.value_R - dec.candidate)
            gaps.append(abs(dec.candidate - result.value_R))
    gaps = np.array(gaps)
    ok = worst_rebuild <= 1e-9 and worst_purity <= 1e-9 and worst_slack <= 1e-4
    assert _report(
        capsys, 5, ok, f"explicit decompositions: rebuild ≤ {worst_rebuild:.1e}, "
        f"purity defect ≤ {worst_purity:.1e}, solver − candidate ≤ {worst_slack:.1e} "
        f"(need ≤ 1e-9, 1e-9, 1e-4); candidate/solver gap over 50 instances: "
        f"mean {gaps.mean():.3e}, median {np.median(gaps):.3e}, max {gaps.max():.3e}"
    )


def test_criterion_06_concavity(capsys):
    rng = np.random.default_rng(6006)
    worst = np.inf
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        channel = random_pinching(dim, rng)
        a = ginibre_density(dim, rng)
        b = ginibre_density(dim, rng)
        t = float(rng.uniform())
        mix = t * a.matrix + (1.0 - t) * b.matrix
        h_mix = solve_R(mix, channel, QUICK).value_H
        h_a = solve_R(a, channel, QUICK).value_H
        h_b = solve_R(b, channel, QUICK).value_H
        worst = min(worst, h_mix - (t * h_a + (1.0 - t) * h_b))
    ok = worst >= -2e-4
    assert _report(
        capsys, 6, ok, f"concavity: min slack H(mix) − mix of H = {worst:.3e} "
        f"over 100 triples (need ≥ −2e-4)"
    )


def test_criterion_07_holevo_bound(capsys):
    rng = np.random.default_rng(7007)
    worst = -np.inf
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rho = ginibre_density(dim, rng)
        projs = random_projections(dim, rng)
        check = holevo_check(rho, solve_R(rho, commutative_channel(projs), QUICK))
        worst = max(worst, check.channel_entropy - check.state_entropy)
    ok = worst <= 1e-6
    assert _report(
        capsys, 7, ok, f"entropy bound: max H − S = {worst:.3e} over 100 pairs (need ≤ 1e-6)"
    )


def test_criterion_08_benatti_bracket(capsys):
    rng = np.random.default_rng(8008)
    worst_excess = -np.inf
    for _ in range(6):
        dim = int(rng.integers(2, 4))
        rho = ginibre_density(dim, rng)
        projs = random_projections(dim, rng)
        bracket = benatti_bracket(rho, projs, QUICK, measurement_samples=64)
        worst_excess = max(worst_excess, bracket.lower - bracket.upper)
    worst_gap = -np.inf
    for dim in (2, 3, 4):
        spectrum = rng.dirichlet(np.ones(dim))
        rho = np.diag(spectrum)
        projs = [np.diag(np.eye(dim)[i]) for i in range(dim)]
        bracket = benatti_bracket(rho, projs, QUICK, measurement_samples=16)
        worst_gap = max(worst_gap, abs(bracket.gap))
    ok = worst_excess <= 1e-6 and worst_gap <= 1e-5
    assert _report(
        capsys, 8, ok, f"measurement bracket: max sampled excess {worst_excess:.3e} "
        f"(need ≤ 1e-6); commuting-case gap ≤ {worst_gap:.3e} (need ≤ 1e-5)"
    )


def test_criterion_09_affinity_certificate(capsys):
    rng = np.random.default_rng(9009)
    channel = diagonal_pinching(2)
    worst = 0.0
    for _ in range(10):
        rho = ginibre_density(2, rng)
        result = solve_R(rho, channel, SOLVER)
        cert = affinity_certificate(result, channel, samples=20, config=SOLVER)
        worst = max(worst, cert.max_discrepancy)
    ok = worst <= 1e-4
    assert _report(
        capsys, 9, ok, f"affinity on optimal sets: max discrepancy {worst:.3e} "
        f"over 10 qubit instances × 20 recombinations (need ≤ 1e-4)"
    )


def test_criterion_10_verify_determinism(capsys):
    first = json.dumps(round_floats(run_verify(seed=0, samples=1)), sort_keys=True)
    second = json.dumps(round_floats(run_verify(seed=0, samples=1)), sort_keys=True)
    ok = first == second
    assert _report(
        capsys, 10, ok, f"verification suite: two runs at seed 0 produced "
        f"{'byte-identical' if ok else 'DIFFERING'} reports ({len(first)} bytes)"
    )
