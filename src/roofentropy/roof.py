"""Convex-roof minimization of reduced entropy over pure-state decompositions.

Every length-``m`` decomposition of a rank-``r`` density operator into
unnormalized pure pieces arises from an ``m x r`` column isometry ``V``
applied to the square-root-scaled eigenvectors of the state; by default
``m = min(r + 2, n²)``.  The solver searches that isometry manifold with
multi-start descent along the exact gradient of the objective composed with
the QR retraction, so iterates stay on the manifold, then finishes each
state's best restart with a dense BFGS in the chart ``Z ↦ _retract(V0 +
Z)``, which accepts only decreases, and prunes the members too light to
resolve.  Both use the evaluator's ``_member_gradient``, pulled back
through the QR chart by ``_pullback``; the retraction and the pullback call
LAPACK's QR and LU gufuncs on the solver's own stacks.  The restarts run in
lockstep as one stack of isometries; each keeps its own step and stopping
rule and leaves the stack when it stops.  Solves of several states under
one channel (the affinity certificate's re-solves, say) share such a stack:
every isometry carries the index of its state, and each state's restarts
follow the path they follow when that state is solved alone.

Each descent step takes one gradient call for the whole live stack, then
scores every rung of each live restart's halving ladder.  The objective
reads only each member's Kraus outputs, one GEMM per run of one state's
isometries, and runs a stack of any length in blocks of whole isometries
within ``GEMM_WORK`` multiply-adds; ``OBJECTIVE_ROWS`` bounds the lockstep
stacks.  The evaluator builds once what its states and channel fix, and
the results' decompositions come from its roots.  The solver never calls
``_fd_gradient``, the finite differences the analytic gradient is tested by.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
# The gufuncs and error handlers behind np.linalg.qr and np.linalg.solve (numpy >= 2.0).
from numpy.linalg import _linalg, _umath_linalg

from .channels import ReductionChannel, block_entropy, reduce_state
from .ensembles import Ensemble, convex_sum, pure_ensemble, shorten
from .states import (
    DEFAULT_TOL,
    DensityOperator,
    Tolerances,
    ValidationError,
    canonical_eigh,
    _coerce,
    _require_int,
    _xlnx,
)

__all__ = [
    "SolverConfig",
    "RoofResult",
    "decomposition_from_isometry",
    "roof_objective",
    "solve_R",
    "affinity_certificate",
    "AffinityCertificate",
    "zero_entropy_structure",
    "ZeroEntropyReport",
]

ISOMETRY_TOL = 1e-10
FD_STEP = 1e-7          # _fd_gradient's forward-difference step on the ambient parameters
INITIAL_STEP = 0.25
LADDER = 8              # step-halving candidates per line search
# Most isometry rows (restarts x m) of one lockstep stack of _solve_states.
OBJECTIVE_ROWS = 8192
# Most multiply-adds in one block of objective_many, at n·max(r, width) per
# isometry row, at least the r·width of its GEMM (_Evaluator.block_size);
# _member_gradient scores a descent's live stack as one block.  OpenBLAS
# hands larger products to its thread pool, and with default threads that
# hand-off stalled these thin products by milliseconds; qubit stacks stay one
# block.
GEMM_WORK = 65536
STEP_CAP = 1.0
# A restart stops when its step falls below STEP_TOL, or when two accepted
# steps in a row each gain less than VALUE_TOL.
STEP_TOL = 1e-10
VALUE_TOL = 1e-9
# A gradient of smaller norm counts as zero: the restart, or the finish, stops.
ZERO_GRADIENT = 1e-13
# The finish stops when an accepted step gains less than FINISH_TOL; pruning
# its negligible members may raise the value by at most as much.
FINISH_TOL = 1e-12
ARMIJO = 1e-4       # sufficient-decrease fraction of the finish's line search
BACKTRACKS = 30     # most step halvings per line search of the finish
AFFINITY_TOL = 1e-4        # most discrepancy an affinity sample may show
ZERO_ENTROPY_H = 1e-6      # value_H at or below which H counts as zero
ZERO_STRUCTURE_TOL = 1e-6  # most residual a block-aligned support vector may show
_STRICT_LOWER = {}  # _pullback's strictly-lower r x r masks, by r, made on first use


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Search-budget knobs for :func:`solve_R`.

    ``max_length`` caps the members of a decomposition; it must be at least
    the state's rank r.  When it is None, a state of rank r is decomposed
    into ``min(r + 2, n²)`` members, n the input dimension: n² members
    suffice for any optimal decomposition by a Caratheodory count, and the
    largest optimal decomposition the checks know, on Terhal and
    Vollbrecht's face states, has r + 1.  ``max_iters`` caps both the
    iterations of each restart's descent and the steps of the BFGS finish.
    Restarts are deterministic given ``seed``: restart 0
    mixes nothing (the eigen-ensemble), restart 1 applies a discrete Fourier
    mixing, and later restarts draw Haar-like random isometries.
    """

    max_length: int | None = None
    restarts: int = 64
    seed: int = 0
    max_iters: int = 400

    def __post_init__(self):
        for name, minimum in (("max_length", 1), ("restarts", 1), ("seed", 0), ("max_iters", 1)):
            value = getattr(self, name)
            if not (name == "max_length" and value is None):
                object.__setattr__(self, name, _require_int(name, value, minimum))


@dataclasses.dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization.

    ``value_H = reduced_entropy - value_R`` by construction, so it is the
    mutual entropy of the optimal ensemble up to solver tolerance.
    ``restart_values`` are the descent's values per restart and ``value_R``
    the finished value, at most their minimum.  ``converged`` and
    ``iterations`` belong to the descent of ``best_restart``, the winning
    restart, not to the whole solve or the finish.
    """

    value_R: float
    value_H: float
    reduced_entropy: float
    optimal_ensemble: Ensemble
    restart_values: tuple
    best_restart: int
    converged: bool
    iterations: int


def _clean_rank(rho: DensityOperator, tol: Tolerances):
    """Eigenpairs of the state above the positivity cutoff, ascending."""
    w, v = canonical_eigh(rho.matrix, tol)
    keep = w > tol.value
    return w[keep], v[:, keep]


def decomposition_from_isometry(
    rho: DensityOperator,
    isometry: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> Ensemble:
    """Pure-state decomposition of ``rho`` indexed by a column isometry.

    Row ``j`` of the isometry mixes the scaled eigenvectors of ``rho`` into
    the unnormalized vector whose norm squared is the member weight.  The
    isometry must have exactly ``rank(rho)`` orthonormal columns;
    :func:`~roofentropy.ensembles.pure_ensemble` drops the members of
    negligible weight.
    """
    rho = _coerce(rho, DensityOperator, tol)
    v = np.asarray(isometry, dtype=complex)
    if v.ndim != 2:
        raise ValidationError(f"isometry must be a matrix, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError("isometry has non-finite entries")
    lam, vecs = _clean_rank(rho, tol)
    return _decomposition(v, (vecs * np.sqrt(lam)).T, tol)


def _decomposition(v: np.ndarray, root: np.ndarray, tol: Tolerances) -> Ensemble:
    """``decomposition_from_isometry`` from a state's root, as in ``_Evaluator.roots``."""
    r = v.shape[1]
    gram = v.conj().T @ v
    defect = float(np.max(np.abs(gram - np.eye(r))))
    if defect > ISOMETRY_TOL:
        raise ValidationError(f"columns are not orthonormal: defect {defect:.3e}")
    if r != root.shape[0]:
        raise ValidationError(f"isometry has {r} columns but the state has rank {root.shape[0]}")
    phis = v @ root  # row j is the j-th unnormalized vector
    weights = np.einsum("jk,jk->j", phis, phis.conj()).real
    # Each row over its norm; a zero row stays as it is.
    units = np.divide(phis, np.sqrt(weights)[:, None], out=phis, where=weights[:, None] > 0.0)
    return pure_ensemble(weights, units, tol)


def roof_objective(ensemble: Ensemble, channel: ReductionChannel) -> float:
    """Average reduced entropy sum_j p_j S(reduce(rho_j)) of a decomposition."""
    total = 0.0
    for p, rho in ensemble.members():
        if p <= 0.0:
            continue
        total += p * block_entropy(reduce_state(channel, rho))
    return total


def _pair_spectrum(g00: np.ndarray, g11: np.ndarray, g01: np.ndarray) -> tuple:
    """``(mean, radius)`` of each 2x2 Hermitian ``[[g00, g01], [conj(g01), g11]]``.

    Its eigenvalues are ``mean ∓ radius``, with ``radius = hypot((g00 −
    g11) / 2, |g01|)``.
    """
    return 0.5 * (g00 + g11), np.hypot(0.5 * (g00 - g11), np.abs(g01))


def _pair_entropy(g00: np.ndarray, g11: np.ndarray, g01: np.ndarray) -> np.ndarray:
    """Sum of -x ln x over the spectra of a stack of 2x2 Hermitian matrices.

    The spectra come from ``_pair_spectrum``; negative roundoff clips to
    zero in ``_xlnx``.
    """
    mean, radius = _pair_spectrum(g00, g11, g01)
    return _xlnx(mean - radius) + _xlnx(mean + radius)


def _log_support(x: np.ndarray) -> np.ndarray:
    """ln x where x > 0 and 0 elsewhere: a log taken on the support."""
    return np.log(x, out=np.zeros_like(x), where=x > 0.0)


def _pair_log(g00: np.ndarray, g11: np.ndarray, g01: np.ndarray) -> tuple:
    """``(α, β)`` with ``ln G = αI + βG`` on the support of each 2x2 Gram ``G``.

    From the eigenvalues ``low, high = mean ∓ radius``: at full rank
    ``β = ln(high / low) / (high − low)``, or ``1 / low`` where they
    coincide, and ``α = ln low − β·low``; at rank one ``ln G = (ln high /
    high)·G``, and at rank zero both are 0.
    """
    mean, radius = _pair_spectrum(g00, g11, g01)
    low, high = mean - radius, mean + radius
    full = low > 0.0
    low = np.where(full, low, 1.0)
    spread = np.where(radius > 0.0, 2.0 * radius, 1.0)
    beta = np.where(radius > 0.0, np.log1p(2.0 * radius / low) / spread, 1.0 / low)
    alpha = np.log(low) - beta * low
    high = np.where(high > 0.0, high, 1.0)
    return np.where(full, alpha, 0.0), np.where(full, beta, np.log(high) / high)


def _owner_runs(owners: np.ndarray) -> zip:
    """``(lo, hi)`` of each run of one state in a never-decreasing owner array."""
    cuts = [0, len(owners)]
    if owners[0] != owners[-1]:  # a stack of one state, the common case, skips the scan
        cuts[1:1] = (np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist()
    return zip(cuts, cuts[1:])


class _Evaluator:
    """Vectorized objective over batches of mixing isometries.

    Takes states that share one channel.  A state's ``root`` holds its
    eigenvectors scaled by the square roots of their eigenvalues, so member
    ``φ_j`` of isometry ``V`` is row j of ``V·root``; the columns of
    ``kraus_t`` are the rows of the Kraus matrices.  Each state keeps one
    mixer ``M = root·kraus_t``, and row j of ``a = V·M`` holds member j's
    Kraus outputs ``K_k φ_j``, all the objective reads.  Completeness ``Σ_k
    K_k†K_k = I`` gives ``Σ|a_j|² = ‖φ_j‖²`` to within the completeness
    defect, at most ``COMPLETENESS_TOL``·‖φ_j‖².  The member weight is
    ``Σ|a_j|²``, the trace of its output, so each member's entropy is that
    of its exactly normalized output.

    Blocks fed by a single Kraus term, and 1-dimensional blocks, contribute
    a plain squared norm; a block with several multi-row terms needs the
    spectrum of its Gram matrix, one row per term: in closed form at 2x2, by
    a batched eigensolve beyond.  One real GEMM of ``ν = |a|²`` with the 0/1
    matrix ``indicator`` gives every norm block's weight, the member weight
    and the diagonal of every 2x2 Gram.

    The evaluator holds only what its states and channel determine, each
    ``Mᴴ`` included; every call builds its stages as new arrays and leaves it as it was.
    """

    def __init__(self, states, channel: ReductionChannel, tol: Tolerances):
        spectra = [_clean_rank(rho, tol) for rho in states]
        self.roots = [(vecs * np.sqrt(lam)).T for lam, vecs in spectra]  # per state, (r, n)
        self.ranks = [root.shape[0] for root in self.roots]
        blocks = [(ops, d) for ops, d in zip(channel.by_block, channel.block_dims) if ops]
        norm = [(ops, d) for ops, d in blocks if d == 1 or len(ops) == 1]
        gram = [(ops, d) for ops, d in blocks if d > 1 and len(ops) > 1]
        # Columns of kraus_t: the norm blocks' rows, then each Gram block's.
        # A spec is (start, width) of a norm block, or (start, terms, d) of
        # a block with two terms (pair_specs) or more (gram_specs).
        self.norm_segments, self.pair_specs, self.gram_specs = [], [], []
        at = 0
        for ops, d in norm:
            self.norm_segments.append((at, len(ops) * d))
            at += len(ops) * d
        for ops, d in gram:
            (self.pair_specs if len(ops) == 2 else self.gram_specs).append((at, len(ops), d))
            at += len(ops) * d
        kraus_t = np.vstack([k for ops, _ in norm + gram for k in ops]).T
        self.mixers = [root @ kraus_t for root in self.roots]  # per state, (r, width)
        # Columns of ν @ indicator: each norm block's weight, the member
        # weight, then g00 and g11 of each pair block.
        spans = self.norm_segments + [(0, at)] + [(s + i * d, d) for s, _, d in self.pair_specs
                                                  for i in (0, 1)]
        self.indicator = np.zeros((at, len(spans)))
        for j, (s, w) in enumerate(spans):
            self.indicator[s : s + w, j] = 1.0
        self.adjoints = [mixer.conj().T for mixer in self.mixers]
        self.spread = self.indicator[:, : len(self.norm_segments)].T  # norm blocks' columns

    def block_size(self, m: int, r: int) -> int:
        """Most (m, r) isometries whose products stay within ``GEMM_WORK``: one block.

        All of any qubit stack, 104 at d = 5 pinching, 50 at d = 6.
        """
        n, width = self.roots[0].shape[1], self.indicator.shape[0]
        return max(1, GEMM_WORK // (n * max(r, width) * m))

    def objective_many(self, isometries: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Objective for a stack of isometries of any length, shape (batch, m, r) -> (batch,).

        ``owners[i]`` is the index of the state that isometry ``i`` mixes;
        it never decreases along the stack.  ``_score`` takes the stack in
        blocks of ``block_size`` whole isometries, so no stage holds more
        than one block.
        """
        batch, m, r = isometries.shape
        per_block = self.block_size(m, r)
        values = np.empty(batch)
        for at in range(0, batch, per_block):
            cut = slice(at, at + per_block)
            values[cut] = self._score(isometries[cut], owners[cut])[0]
        return values

    def _score(self, isometries: np.ndarray, owners: np.ndarray) -> tuple:
        """Objective of one block of isometries, shape (size, m, r) -> (size,).

        ``a = rows @ mixer`` is one GEMM per run of one state's isometries.
        Rows do not mix, so every isometry gets the same arithmetic whatever
        its block and its neighbours.  Returns ``(values, a, sums, g01,
        logs)``, all new arrays: the values, the Kraus outputs, shape (size,
        m, width), ``ν @ indicator``, the 2x2 Grams' off-diagonal entries,
        shape (size, m, pairs), and ln on the support of the first ``blocks
        + 1`` columns ``x`` of the sums; ``−max(x, 0)·logs`` is ``_xlnx(x)``.
        """
        size, m, r = isometries.shape
        width = self.indicator.shape[0]
        rows = isometries.reshape(size * m, r)
        a = np.empty((size * m, width), complex)
        for lo, hi in _owner_runs(owners):
            np.matmul(rows[lo * m : hi * m], self.mixers[owners[lo]], out=a[lo * m : hi * m])
        sums = ((a.real ** 2 + a.imag ** 2) @ self.indicator).reshape(size, m, -1)
        a = a.reshape(size, m, width)
        blocks, pairs = len(self.norm_segments), len(self.pair_specs)
        # ln, then -x ln x, of the norm blocks' weights and, last, of the member weight.
        weights = np.maximum(sums[..., : blocks + 1], 0.0)
        logs = _log_support(weights)
        ent = -weights * logs
        total = ent[..., :blocks].sum(axis=(-1, -2))
        g01 = np.empty((size, m, pairs), complex)
        if pairs:
            for i, (s, _, d) in enumerate(self.pair_specs):
                g01[..., i] = (a[..., s : s + d].conj() * a[..., s + d : s + 2 * d]).sum(axis=-1)
            pair = _pair_entropy(sums[..., blocks + 1 :: 2], sums[..., blocks + 2 :: 2], g01)
            total += pair.sum(axis=(-1, -2))
        for s, t, d in self.gram_specs:
            b = a[..., s : s + t * d].reshape(size, m, t, d)
            gram = np.einsum("...ip,...tp->...it", b.conj(), b)
            total += _xlnx(np.linalg.eigvalsh(gram)).sum(axis=(-1, -2))
        return total - ent[..., blocks].sum(axis=-1), a, sums, g01, logs

    def value_and_gradient(self, a: np.ndarray, owners: np.ndarray) -> tuple:
        """Objective and chart gradient at points ``a`` = V0 + Z, shape (batch, m, r).

        ``owners`` as in ``objective_many``.  Returns new arrays: the values at
        ``q = _retract(a)``, the gradient ``∂f/∂Re a + i ∂f/∂Im a``, and ``q``.
        """
        q = _retract(np.array(a, dtype=complex))
        values, g = self._member_gradient(q, owners)
        return values, _pullback(q, a, g), q

    def _member_gradient(self, rows: np.ndarray, owners: np.ndarray) -> tuple:
        """Objective and its gradient in the rows, shape (batch, m, r), any m ≥ 1.

        ``owners`` as in ``objective_many``; nothing is retracted.  The stack
        is one ``_score`` block, whose logs it reuses, and the product with
        ``Mᴴ`` runs per run of one state, so a stack equals its per-state
        calls bit for bit.  Returns new arrays ``(values, g)``: the values
        of ``objective_many`` bit for bit and ``g = ∂f/∂Re V + i ∂f/∂Im
        V``.  With ``X_b(φ) = Σ_{k∈b} K_k φφ† K_k†`` and weight ``p = Σ_k
        ‖K_k φ‖²``, member ``φ`` has the gradient ``2·Σ_b Σ_{k∈b} K_k†(ln p
        − ln X_b)K_k φ``, logs taken on the support.  With ``B`` the block's
        columns ``K_k φ``, ``ln X_b B = B ln(BᴴB)``: norm blocks take the log
        of their scalar norm, two-term blocks their 2x2 Gram's log in closed
        form and larger Gram blocks batched ``eigh``.  With ``w`` the rows
        ``ln X_b K_k φ``, ``g = 2·(ln p·V·M − w)·Mᴴ``.
        """
        values, k, sums, g01, logs = self._score(rows, owners)
        blocks = len(self.norm_segments)
        # ln X_b K_k φ per Kraus row; a norm block's log spreads over its rows.
        w = (logs[..., :blocks] @ self.spread) * k
        if self.pair_specs:
            g00, g11 = sums[..., blocks + 1 :: 2], sums[..., blocks + 2 :: 2]
            alpha, beta = _pair_log(g00, g11, g01)
        for i, (s, _, d) in enumerate(self.pair_specs):
            b0, b1 = k[..., s : s + d], k[..., s + d : s + 2 * d]
            c00, c11, c01, ca, cb = (x[..., i, None] for x in (g00, g11, g01, alpha, beta))
            w[..., s : s + d] = ca * b0 + cb * (c00 * b0 + c01.conj() * b1)
            w[..., s + d : s + 2 * d] = ca * b1 + cb * (c01 * b0 + c11 * b1)
        for s, t, d in self.gram_specs:
            b = k[..., s : s + t * d].reshape(k.shape[:-1] + (t, d))
            lam, vecs = np.linalg.eigh(b.conj() @ np.swapaxes(b, -1, -2))
            log = (vecs * _log_support(lam)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
            w[..., s : s + t * d] = (np.swapaxes(log, -1, -2) @ b).reshape(k.shape[:-1] + (t * d,))
        u = 2.0 * (logs[..., blocks, None] * k - w)
        runs = [u[lo:hi] @ self.adjoints[owners[lo]] for lo, hi in _owner_runs(owners)]
        return values, runs[0] if len(runs) == 1 else np.concatenate(runs)


def _retract(a: np.ndarray) -> np.ndarray:
    """QR re-orthonormalization with positive-real R-diagonal, written over ``a``.

    Acts along the last two axes; fixed phases make the map the identity on
    matrices that are already isometric.  The reduced Q is bit for bit
    ``np.linalg.qr(a)``'s: the same two LAPACK gufuncs run, but on ``a``
    itself.  The first overwrites it with its Householder output, whose
    diagonal (R's; R itself is never built) sets the phases; the second then
    writes Q over it, and ``a`` is returned.  Any input that is not a
    C-contiguous writeable float64 or complex128 array is copied first, and
    the copy is returned.  A failed factorization raises ``LinAlgError``, as
    in ``np.linalg.qr``, whose handler it uses.
    """
    kind = "D" if np.iscomplexobj(a) else "d"
    if not (a.dtype == kind and a.flags.c_contiguous and a.flags.writeable):
        a = a.astype(kind)
    with np.errstate(call=_linalg._raise_linalgerror_qr, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature=f"{kind}->{kind}")
        d = np.diagonal(a, axis1=-2, axis2=-1)
        mag = np.abs(d)
        phase = np.divide(d, mag, out=np.ones_like(d), where=mag > 0.0)
        _umath_linalg.qr_reduced(a, tau, signature=f"{kind}{kind}->{kind}", out=a)
    a *= phase[..., None, :]
    return a


def _pullback(q: np.ndarray, a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient ``g`` in ``q = _retract(a)``, taken back to ``a`` by the QR adjoint.

    ``[q·ρ†(qᴴg) + (I − qqᴴ)g]·R⁻ᴴ`` with ``R = qᴴa`` and ``ρ†(B) = tril(B,
    −1) − tril(Bᴴ, −1) + i·Im diag B``, along the last two axes; a new array.
    The ``tril`` mask is made once per r.  R is solved against as in
    ``np.linalg.solve``, whose gufunc and handler raise ``LinAlgError`` at a singular R.
    """
    if (r := q.shape[-1]) not in _STRICT_LOWER:
        _STRICT_LOWER[r] = np.tri(r, k=-1, dtype=bool)
    qh = np.swapaxes(q.conj(), -1, -2)
    inner = qh @ g
    rho = np.where(_STRICT_LOWER[r], inner - np.swapaxes(inner.conj(), -1, -2), 0.0)
    np.einsum("...ii->...i", rho).imag += np.einsum("...ii->...i", inner).imag
    m = q @ (rho - inner) + g
    with np.errstate(call=_linalg._raise_linalgerror_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _umath_linalg.solve(qh @ a, np.swapaxes(m.conj(), -1, -2), signature="DD->D")
    return np.swapaxes(x.conj(), -1, -2)


def _fd_gradient(
    ev: _Evaluator, v: np.ndarray, owners: np.ndarray, f0: np.ndarray
) -> np.ndarray:
    """Forward-difference gradients of the retracted objective, as complex matrices.

    The finite-difference reference for ``value_and_gradient``: tests check
    the analytic gradient against it, and the benchmark traces it by name.
    The solver does not call it.  ``v`` is a stack of isometries, shape (k,
    m, r), ``owners`` their states (never decreasing) and ``f0`` their
    values.  All 2·m·r bumped copies of each are gathered, retracted and
    scored in one ``objective_many`` call.  Only the bumped entry of each
    copy is added to: a broadcast add would turn its -0.0 entries into
    +0.0, which flips the sign QR gives a reflector.
    """
    k, m, r = v.shape
    count = m * r
    own, col = np.divmod(np.arange(2 * count * k), 2 * count)
    copies = v.reshape(k, count)[own]
    copies[np.arange(own.size), col % count] += np.where(col < count, FD_STEP, 1j * FD_STEP)
    values = ev.objective_many(_retract(copies.reshape(-1, m, r)), owners[own])
    g = (values.reshape(k, 2 * count) - f0[:, None]) / FD_STEP
    return (g[:, :count] + 1j * g[:, count:]).reshape(k, m, r)


def _descend(ev: _Evaluator, starts: np.ndarray, owners: np.ndarray, cfg: SolverConfig):
    """Descend from every start in lockstep, as one stack of isometries.

    ``owners[i]`` is the evaluator's index of the state start ``i`` mixes,
    never decreasing along the stack, so the restarts of several states
    under one channel descend together.  Each restart keeps its own step,
    stall count and stopping rule, and leaves the stack when it stops.
    Each iteration takes the exact gradients of the live restarts from one
    ``value_and_gradient`` call with their owners, and the line search
    scores every rung of each one's halving ladder and moves it to the first
    that improves.  Every array operation acts slice by slice, so a
    restart's path does not depend on the others, whether they belong to its
    state or another.  ``starts`` is consumed: the first retraction
    overwrites it.  Returns the per-restart values, isometries, converged
    flags and iteration counts.
    """
    v = _retract(starts)
    f = ev.objective_many(v, owners)
    k, m, r = v.shape
    step = np.full(k, INITIAL_STEP)
    stalls = np.zeros(k, dtype=np.intp)
    converged = np.zeros(k, dtype=bool)
    iterations = np.full(k, cfg.max_iters)
    ladder = 0.5 ** np.arange(LADDER)
    live = np.arange(k)
    for it in range(1, cfg.max_iters + 1):
        if live.size == 0:
            break
        grad = ev.value_and_gradient(v[live], owners[live])[1]
        zero = np.linalg.norm(grad.reshape(len(grad), -1), axis=1) < ZERO_GRADIENT
        idx = live[~zero]
        scales = step[idx, None] * ladder
        trial = _retract(v[idx, None] - scales[..., None, None] * grad[~zero, None])
        values = ev.objective_many(
            trial.reshape(-1, m, r), np.repeat(owners[idx], LADDER)
        ).reshape(scales.shape)
        better = values < f[idx, None]
        moved = better.any(axis=1)
        rows = np.flatnonzero(moved)
        pick = better[rows].argmax(axis=1)
        j = idx[rows]
        gain = f[j] - values[rows, pick]
        v[j] = trial[rows, pick]
        f[j] = values[rows, pick]
        step[j] = np.minimum(scales[rows, pick] * 2.0, STEP_CAP)
        stalls[j] = np.where(gain < VALUE_TOL, stalls[j] + 1, 0)
        # No better candidate: shrink the step; the iteration still counts.
        step[idx[~moved]] *= ladder[-1] * 0.5
        done = (step[idx] < STEP_TOL) | (stalls[idx] >= 2)
        ended = np.concatenate([live[zero], idx[done]])
        converged[ended] = True
        iterations[ended] = it
        live = idx[~done]
    return f, v, converged, iterations


def _finish(ev: _Evaluator, state: int, v0: np.ndarray, f0: float, cfg: SolverConfig,
            tol: Tolerances) -> tuple:
    """Dense BFGS from the descent's best isometry ``v0``, then pruning; ``(value, isometry)``.

    Works in the chart ``Z ↦ _retract(v0 + Z)`` on the 2·m·r real
    parameters of ``Z``, with ``value_and_gradient``'s analytic gradient.
    The inverse Hessian starts as the identity, scaled after the first step,
    and restarts from it when its direction does not descend.  The line
    search halves from the unit step until a value is below the current one
    by ``ARMIJO`` of the predicted decrease, and only such decreases are
    accepted.  The finish stops after ``cfg.max_iters`` steps, when a step
    gains less than ``FINISH_TOL``, when no step decreases, or at a zero
    gradient.  Rows whose member weight is below the state's ``tol.value``
    (the cutoff ``_clean_rank`` puts on eigenvalues) are then zeroed and the
    isometry retracted again, if that raises the value by at most
    ``FINISH_TOL``: a member that light is below what the finish resolves.
    Each outcome, valued bit for bit as by ``objective_many``, replaces
    ``(f0, v0)`` only if its value is not higher: the finish never raises a
    value.
    """
    m, r = v0.shape
    owner = np.full(1, state)

    def chart(x):
        return v0 + (x[: m * r] + 1j * x[m * r :]).reshape(m, r)

    def evaluate(x):
        values, grads, q = ev.value_and_gradient(chart(x)[None], owner)
        return values[0], np.concatenate([grads[0].real.ravel(), grads[0].imag.ravel()]), q[0]

    x = np.zeros(2 * m * r)
    f, g, q = evaluate(x)
    inverse = np.eye(x.size)
    for it in range(cfg.max_iters):
        if np.linalg.norm(g) < ZERO_GRADIENT:
            break
        direction = -inverse @ g
        slope = g @ direction
        if slope >= 0.0:
            inverse = np.eye(x.size)
            direction, slope = -g, -(g @ g)
        t = 1.0
        for _ in range(BACKTRACKS):
            f_new, g_new, q_new = evaluate(x + t * direction)
            if f_new < f and f_new <= f + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        s, y, gain = t * direction, g_new - g, f - f_new
        x += s
        f, g, q = f_new, g_new, q_new
        if gain < FINISH_TOL:
            break
        sy = s @ y
        if sy > 0.0:
            if it == 0:
                inverse *= sy / (y @ y)
            hy = inverse @ y
            inverse += ((sy + y @ hy) / sy**2) * np.outer(s, s) - (
                np.outer(hy, s) + np.outer(s, hy)) / sy
    f, v = (float(f), q) if f <= f0 else (f0, v0)
    weights = np.sum(np.abs(v @ ev.roots[state]) ** 2, axis=1)
    small = (weights > 0.0) & (weights < tol.value)
    if small.any() and np.count_nonzero(weights >= tol.value) >= r:
        pruned = v.copy()
        pruned[small] = 0.0
        pruned = _retract(pruned)
        f_pruned = ev.objective_many(pruned[None], owner)[0]
        if f_pruned <= min(f + FINISH_TOL, f0):
            f, v = float(f_pruned), pruned
    return f, v


def _start_isometries(m: int, r: int, cfg: SolverConfig):
    """Deterministic eigen and Fourier mixings, then seeded random isometries."""
    starts = [np.eye(m, r, dtype=complex)]
    if cfg.restarts > 1:
        j, k = np.meshgrid(np.arange(m), np.arange(r), indexing="ij")
        starts.append(np.exp(-2j * np.pi * j * k / m) / math.sqrt(m))
    for idx in range(2, cfg.restarts):
        rng = np.random.default_rng([cfg.seed, idx])
        g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        starts.append(g)
    return starts[: cfg.restarts]


def solve_R(
    rho: DensityOperator,
    channel: ReductionChannel,
    config: SolverConfig | None = None,
    tol: Tolerances = DEFAULT_TOL,
    trace=None,
) -> RoofResult:
    """Minimize the average reduced entropy over pure-state decompositions.

    Parameters
    ----------
    trace : writable text stream, optional
        When given, one JSON line per restart is written to it with the
        restart index, final value, iteration count, and convergence flag.
        The restarts run in lockstep, so the lines are written in restart
        order once the solve ends.

    Returns
    -------
    RoofResult
        Restarts merge by minimum value with lowest-index tie-break, so the
        outcome does not depend on evaluation order; the winner is then
        finished by ``_finish``.  ``converged`` and ``iterations`` report
        the winning restart's descent.
    """
    return _solve_states([rho], channel, config, tol, trace)[0]


def _solve_states(states, channel: ReductionChannel, config: SolverConfig | None = None,
                  tol: Tolerances = DEFAULT_TOL, trace=None) -> list:
    """``solve_R`` of every state under one channel, in input order, bit for bit.

    States of one rank descend together, over the same length: a stack
    takes whole states, each with all its restarts, while restarts x m
    stays within ``OBJECTIVE_ROWS`` rows, and always takes at least one
    state.  Every state gets the same starts as alone, and its restarts
    follow the same paths; each state's finish runs alone.  So each result
    is the one ``solve_R`` gives.  ``trace`` gets the restart lines of each
    state in turn.
    """
    states = [_coerce(rho, DensityOperator, tol) for rho in states]
    cfg = config if config is not None else SolverConfig()
    n = channel.input_dim
    for rho in states:
        if rho.dim != n:
            raise ValidationError(f"state dimension {rho.dim} != channel input {n}")
    ev = _Evaluator(states, channel, tol)
    top = max(ev.ranks)
    if cfg.max_length is not None and cfg.max_length < top:
        raise ValidationError(f"max_length {cfg.max_length} is below the state rank {top}")
    outcomes = [None] * len(states)
    for rank in sorted(set(ev.ranks)):
        length = cfg.max_length if cfg.max_length is not None else min(rank + 2, n * n)
        per_stack = max(1, OBJECTIVE_ROWS // (cfg.restarts * length))
        members = [i for i, rk in enumerate(ev.ranks) if rk == rank]
        starts = np.stack(_start_isometries(length, rank, cfg))
        for at in range(0, len(members), per_stack):
            group = members[at : at + per_stack]
            owners = np.repeat(group, cfg.restarts)
            values, isometries, flags, counts = _descend(
                ev, np.concatenate([starts] * len(group)), owners, cfg
            )
            for j, i in enumerate(group):
                own = slice(j * cfg.restarts, (j + 1) * cfg.restarts)
                outcomes[i] = (values[own].tolist(), isometries[own], flags[own].tolist(),
                               counts[own].tolist())
    results = []
    for i, (rho, (values, isometries, flags, counts)) in enumerate(zip(states, outcomes)):
        if trace is not None:
            for idx in range(cfg.restarts):
                trace.write(
                    json.dumps(
                        {"restart": idx, "value": values[idx], "iterations": counts[idx],
                         "converged": flags[idx]},
                        sort_keys=True,
                    )
                    + "\n"
                )
        best = min(range(cfg.restarts), key=values.__getitem__)
        value, isometry = _finish(ev, i, isometries[best], values[best], cfg, tol)
        ensemble = shorten(_decomposition(isometry, ev.roots[i], tol))
        reduced = block_entropy(reduce_state(channel, rho, tol), tol)
        results.append(RoofResult(
            value_R=value,
            value_H=reduced - value,
            reduced_entropy=reduced,
            optimal_ensemble=ensemble,
            restart_values=tuple(values),
            best_restart=best,
            converged=flags[best],
            iterations=counts[best],
        ))
    return results


@dataclasses.dataclass(frozen=True)
class AffinityCertificate:
    """Re-solve check that the roof is affine across the optimal ensemble.

    For random reweightings of the optimal pure states, the roof value of
    the recombined mixture should match the affine prediction
    ``sum_j q_j S(reduce(rho_j))``; ``passed`` requires agreement within
    ``tolerance`` (``AFFINITY_TOL``) on every sample.
    """

    discrepancies: tuple
    predictions: tuple
    resolved: tuple
    max_discrepancy: float
    tolerance: float
    passed: bool


def affinity_certificate(
    result: RoofResult,
    channel: ReductionChannel,
    samples: int = 10,
    config: SolverConfig | None = None,
) -> AffinityCertificate:
    """Probe affinity of the roof on the face spanned by the optimal ensemble.

    Every Dirichlet reweighting is drawn first; the recombined mixtures
    share one channel, so their re-solves then run as one lockstep solve,
    each with the result ``solve_R`` gives it alone.
    """
    samples = _require_int("samples", samples, 1)
    cfg = config if config is not None else SolverConfig()
    states = result.optimal_ensemble.states
    reduced = [block_entropy(reduce_state(channel, rho)) for rho in states]
    rng = np.random.default_rng([cfg.seed, 7919])
    weights = [rng.dirichlet(np.ones(len(states))) for _ in range(samples)]
    mixtures = [convex_sum(Ensemble(q, states)) for q in weights]
    predictions = [float(np.dot(q, reduced)) for q in weights]
    resolved = [res.value_R for res in _solve_states(mixtures, channel, cfg)]
    discrepancies = [value - prediction for value, prediction in zip(resolved, predictions)]
    max_disc = max(abs(d) for d in discrepancies)
    return AffinityCertificate(
        discrepancies=tuple(discrepancies),
        predictions=tuple(predictions),
        resolved=tuple(resolved),
        max_discrepancy=max_disc,
        tolerance=AFFINITY_TOL,
        passed=max_disc <= AFFINITY_TOL,
    )


@dataclasses.dataclass(frozen=True)
class ZeroEntropyReport:
    """Eigenvector structure associated with a vanishing roof gap.

    ``residuals[k]`` is the worst eigenvector-relation defect of support
    vector ``k`` against the pulled-back block identities (the center of
    the output algebra).  For block-projection channels a zero residual
    says the vector lies inside a single block range.  The report may fail
    honestly: a vanishing gap does not force block alignment for every
    state, so callers get per-vector flags rather than an exception.
    A vector passes when its residual is at most ``ZERO_STRUCTURE_TOL``.
    """

    residuals: tuple
    vector_passed: tuple
    passed: bool


def zero_entropy_structure(
    rho: DensityOperator,
    channel: ReductionChannel,
    result: RoofResult,
    tol: Tolerances = DEFAULT_TOL,
) -> ZeroEntropyReport:
    """Check the support of ``rho`` against the output algebra when H is zero."""
    if result.value_H > ZERO_ENTROPY_H:
        raise ValidationError(
            f"zero-entropy structure needs value_H <= {ZERO_ENTROPY_H:.0e}".replace("e-0", "e-")
            + f", got {result.value_H:.3e}"
        )
    rho = _coerce(rho, DensityOperator, tol)
    lam, vecs = _clean_rank(rho, tol)
    # Center generators: pulled-back block identities Σ_i K_i†K_i.  Matrix
    # units within a block shift vectors around the block range, so only the
    # center admits common eigenvectors at all.
    generators = [sum(k.conj().T @ k for k in ops) for ops in channel.by_block if ops]
    residuals = []
    for j in range(lam.size):
        vec = vecs[:, j]
        worst = 0.0
        for g in generators:
            image = g @ vec
            overlap = complex(np.vdot(vec, image))
            worst = max(worst, float(np.linalg.norm(image - overlap * vec)))
        residuals.append(worst)
    flags = tuple(res <= ZERO_STRUCTURE_TOL for res in residuals)
    return ZeroEntropyReport(
        residuals=tuple(residuals),
        vector_passed=flags,
        passed=all(flags),
    )
