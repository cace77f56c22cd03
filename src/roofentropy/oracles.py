"""Closed-form references the solver is validated against.

Two oracles live here: the exact roof value of a qubit under the diagonal
pinching (closed form and its series expansion), and an explicit pure-state
decomposition for the channel that splits a matrix algebra into the
compression onto a hyperplane plus the scalar overlap with a chosen vector.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .channels import block_compression
from .ensembles import Ensemble, _decomposition_defects, pure_ensemble
from .states import (
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    Tolerances,
    ValidationError,
    _coerce,
    _require_int,
    binary_entropy,
    canonical_eigh,
)

__all__ = [
    "qubit_R",
    "qubit_R_series",
    "BlockExampleData",
    "block_example_analyze",
    "BlockDecomposition",
    "block_example_decomposition",
]

DOMAIN_TOL = 1e-12     # how far past 1/2 an off-diagonal magnitude may lie
ZERO_OVERLAP = 1e-12   # below this an overlap counts as exactly zero
SERIES_CHUNK = 1 << 16  # most terms of qubit_R_series held in one array


def _magnitude(z) -> float:
    """``|z|`` of a finite off-diagonal entry inside the qubit domain."""
    mag = abs(complex(z))
    if not math.isfinite(mag):
        raise ValidationError(f"off-diagonal entry {z!r} is not finite")
    if mag > 0.5 + DOMAIN_TOL:
        raise ValidationError(f"off-diagonal magnitude {mag!r} outside the domain [0, 1/2]")
    return mag


def _radicand(mag: float) -> float:
    """``u = 1 - 4 m^2`` with ``m = min(mag, 1/2)``, squared as ``m * m`` (correctly rounded)."""
    m = min(mag, 0.5)
    return max(0.0, 1.0 - 4.0 * m * m)


def _mixing_weights(mag: float) -> tuple:
    """``mu_pm = 1/2 +- sqrt(u) / 2`` with ``u = _radicand(mag)``: sum one, product ``m^2``."""
    root = math.sqrt(_radicand(mag))
    return 0.5 + 0.5 * root, 0.5 - 0.5 * root


def qubit_R(z) -> float:
    """Exact roof value of a qubit under the diagonal pinching.

    Depends only on the off-diagonal magnitude ``|z|``: with
    ``q = 1/2 + sqrt(1 - 4 |z|^2) / 2`` the value is ``s(q) + s(1 - q)``.
    Any valid qubit density operator has ``|z| <= 1/2``; magnitudes beyond
    ``1/2 + DOMAIN_TOL`` are a domain error.
    """
    return binary_entropy(_mixing_weights(_magnitude(z))[0])


def qubit_R_series(z, terms: int) -> float:
    """Series form of :func:`qubit_R`: ``ln 2 - sum_k u^k / (2k(2k-1))``.

    Here ``u = 1 - 4 |z|^2``.  Partial sums decrease monotonically in
    ``terms`` and converge to the closed form from above; convergence is
    geometric in ``u`` and therefore slow near ``|z| = 0``.  The terms are
    summed in chunks of at most ``SERIES_CHUNK``, so memory stays flat in
    ``terms``; up to that many it is one chunk.

    The remainder after ``N`` terms, ``T_N = sum_{k > N} a_k`` with
    ``a_k = u^k / (2k(2k-1))``, is bracketed as follows.  For ``u < 1`` the
    term ratio ``a_{k+1} / a_k`` is below ``u``, so
    ``a_{N+1} <= T_N <= a_{N+1} / (1 - u)``.  At ``u = 1`` (``z = 0``)
    each term lies strictly between ``1/(4k^2 - 1)`` and
    ``1/((2k - 1.5)(2k + 0.5))``; both telescope, giving
    ``1/(4N + 2) < T_N < 1/(4N + 1)``, about ``1.25e-3`` after 200 terms.
    """
    terms = _require_int("terms", terms, 1)
    u = _radicand(_magnitude(z))
    total = 0.0
    for lo in range(1, terms + 1, SERIES_CHUNK):
        k = np.arange(lo, min(lo + SERIES_CHUNK, terms + 1), dtype=float)
        powers = u**k
        k *= 2.0
        k *= k - 1.0  # 2k(2k - 1), in place
        total += np.sum(np.divide(powers, k, out=powers))
    return float(math.log(2.0) - total)


@dataclasses.dataclass(frozen=True, eq=False)
class BlockExampleData:
    """Spectral data of a state relative to a distinguished unit vector.

    ``eigvecs`` holds orthonormal eigenvectors of the compression of the
    state onto the orthogonal complement of ``psi`` (as columns, lifted back
    to the input space, eigenvalues ``eigvals`` ascending), phase-rotated so
    every overlap ``z_k = <psi_k, rho psi>`` is real nonnegative.  ``lam``
    is ``<psi, rho psi>`` and ``z = sum_k z_k``.  When ``z <= 1/2`` the
    mixing weights ``mu_plus >= mu_minus`` with sum one and product ``z^2``
    are defined; otherwise they are NaN.  Instances compare and hash by
    identity; compare values through the array fields.
    """

    psi: PureState
    eigvecs: np.ndarray
    eigvals: np.ndarray
    overlaps: np.ndarray
    lam: float
    z: float
    mu_plus: float
    mu_minus: float


def block_example_analyze(
    rho: DensityOperator,
    psi: PureState,
    tol: Tolerances = DEFAULT_TOL,
) -> BlockExampleData:
    """Extract the spectral data driving the explicit block decomposition.

    Checks the Cauchy-Schwarz relation ``z_k^2 <= lambda_k * lam`` for every
    eigendirection; ``mu_plus``/``mu_minus`` are the weights of
    :func:`qubit_R` at ``z``.  The complement of ``psi`` is spanned by block 0 of
    ``block_compression(psi)``, the channel this is the oracle for, so
    ``psi`` must pass that channel's checks; every result, ``psi`` in the
    returned data included, uses the vector that channel was built from.
    """
    rho = _coerce(rho, DensityOperator, tol)
    psi = _coerce(psi, PureState, tol)
    if rho.dim != psi.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim} vs vector {psi.dim}")
    channel = block_compression(psi)
    w = channel.by_block[0][0]  # (n, n + 1) rows span the complement of psi
    # The vector the channel was built from: psi itself, or psi / |psi|.
    psi = PureState(channel.by_block[1][0][0].conj(), tol)
    compressed = w @ rho.matrix @ w.conj().T
    eigvals, u = canonical_eigh(compressed, tol)
    eigvals = np.where(eigvals < 0.0, 0.0, eigvals)
    vecs = w.conj().T @ u  # columns back in the input space
    target = rho.matrix @ psi.vector
    overlaps = vecs.conj().T @ target
    vecs = vecs.copy()
    mags = np.abs(overlaps)
    for k in range(vecs.shape[1]):
        if mags[k] > ZERO_OVERLAP:
            vecs[:, k] *= overlaps[k] / mags[k]
    overlaps = np.where(mags > ZERO_OVERLAP, mags, 0.0)
    lam = float(np.vdot(psi.vector, target).real)
    z = float(overlaps.sum())
    for k in range(overlaps.size):
        slack = overlaps[k] ** 2 - eigvals[k] * lam
        if slack > 1e-9:
            raise ValidationError(
                f"overlap bound violated at direction {k}: z_k^2 - lambda_k*lam = {slack:.3e}"
            )
    if z <= 0.5 + DOMAIN_TOL:
        mu_plus, mu_minus = _mixing_weights(z)
    else:
        mu_plus = mu_minus = math.nan
    eigvals.setflags(write=False)
    overlaps.setflags(write=False)
    vecs.setflags(write=False)
    return BlockExampleData(
        psi=psi,
        eigvecs=vecs,
        eigvals=eigvals,
        overlaps=overlaps,
        lam=lam,
        z=z,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
    )


@dataclasses.dataclass(frozen=True)
class BlockDecomposition:
    """Explicit decomposition plus its predicted roof value.

    ``candidate`` is ``s(mu_plus) + s(mu_minus)``, an upper bound for the
    roof; ``degenerate`` flags the boundary ``z = 1/2`` where the paired
    weights are no longer determined and are split symmetrically.
    """

    ensemble: Ensemble
    candidate: float
    degenerate: bool


def block_example_decomposition(
    data: BlockExampleData,
    rho: DensityOperator,
    tol: Tolerances = DEFAULT_TOL,
) -> BlockDecomposition:
    """Build the two-per-direction pure decomposition from analyzed data.

    Directions with positive overlap contribute a pair of pure states on the
    span of the eigendirection and ``psi`` whose 2x2 blocks are
    ``[[mu_pm, z], [z, mu_mp]]``; zero-overlap directions contribute their
    eigendirection outright; when ``z`` is zero, so is every overlap, and
    ``psi`` enters alone with weight ``lam``.  Raises on ``z > 1/2`` (domain)
    and whenever the linear system for the weights leaves the simplex or the
    rebuilt mixture misses the state (construction failure).
    """
    rho = _coerce(rho, DensityOperator, tol)
    if math.isnan(data.mu_plus):
        raise ValidationError(f"z = {data.z!r} exceeds 1/2: no real mixing weights exist")
    psi = data.psi.vector
    mu_p, mu_m = data.mu_plus, data.mu_minus
    gap = mu_p - mu_m
    # sqrt amplification: z within eps of 1/2 leaves a gap of ~2*sqrt(eps)
    degenerate = gap < 1e-6
    sp, sm = math.sqrt(mu_p), math.sqrt(mu_m)
    weights: list[float] = []
    vectors: list[np.ndarray] = []
    cross_minus = 0.0
    for k in range(data.eigvals.size):
        zk = float(data.overlaps[k])
        lk = float(data.eigvals[k])
        vec_k = data.eigvecs[:, k]
        if zk <= ZERO_OVERLAP:
            weights.append(lk)
            vectors.append(vec_k)
            continue
        pair_total = zk / data.z
        if degenerate:
            p_plus = p_minus = lk
        else:
            p_plus = (lk - mu_m * pair_total) / gap
            p_minus = (mu_p * pair_total - lk) / gap
        if p_plus < -1e-9 or p_minus < -1e-9:
            raise ValidationError(
                "construction failure: direction "
                f"{k} solved to weights ({p_plus:.3e}, {p_minus:.3e}) with "
                f"lambda_k={lk:.6e}, z_k={zk:.6e}, z={data.z:.6e}"
            )
        p_plus, p_minus = max(p_plus, 0.0), max(p_minus, 0.0)
        cross_minus += p_plus * mu_m + p_minus * mu_p
        weights += [p_plus, p_minus]
        vectors += [sp * vec_k + sm * psi, sm * vec_k + sp * psi]
    coupled = data.z > ZERO_OVERLAP
    if not coupled:
        weights.append(data.lam)
        vectors.append(psi)
    elif not degenerate and abs(cross_minus - data.lam) > 1e-8:
        raise ValidationError(
            f"construction failure: psi-coefficient {cross_minus:.6e} "
            f"differs from lam {data.lam:.6e}; the state has zero-overlap "
            "directions carrying weight"
        )
    ensemble = pure_ensemble(weights, vectors, tol)
    defect, _ = _decomposition_defects(ensemble, rho)
    if defect > 1e-9:
        raise ValidationError(
            f"construction failure: rebuilt mixture misses the state by {defect:.3e}"
        )
    # An uncoupled state's candidate is 0.0, not binary_entropy(1.0), which is -0.0.
    candidate = binary_entropy(mu_p) if coupled else 0.0
    return BlockDecomposition(ensemble=ensemble, candidate=candidate, degenerate=degenerate)
