"""Accessible information of a state relative to a commutative subalgebra.

The channel entropy of the subalgebra equals the mutual entropy of a
canonical ensemble attached to the state, and upper-bounds the classical
mutual information any measurement can extract from that ensemble.  This
module builds the canonical ensemble, evaluates measurements, brackets
the accessible information between the best sampled measurement and the
solver value, and checks a solved roof against the entropy bound
``H <= S(rho)``.

The solver value is not a certified upper bound.  The solver's R is an
upper bound on the true R (it is the average entropy of a decomposition it
found), so its H = S(omega o alpha) - R is a *lower* bound on the true H.
The bracket's ``upper`` side, and with it ``passed`` and ``closed``, is
therefore only as good as the optimizer.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .channels import (
    ReductionChannel,
    commutative_channel,
    _require_identity_sum,
    _validate_projections,
)
from .ensembles import Ensemble
from .roof import RoofResult, SolverConfig, solve_R
from .sampling import _haar_unitaries
from .states import (
    DEFAULT_TOL,
    DensityOperator,
    Tolerances,
    ValidationError,
    _checked_psd,
    _coerce,
    _require_int,
    _xlnx,
    canonical_eigh,
    von_neumann_entropy,
)

__all__ = [
    "Measurement",
    "ensemble_from_subalgebra",
    "channel_from_measurement",
    "measurement_mutual_info",
    "BenattiBracket",
    "benatti_bracket",
    "HolevoCheck",
    "holevo_check",
]

EIG_CUTOFF = 1e-14
MEASUREMENT_BATCH = 256  # most measurements evaluated in one _mutual_info_many call


@dataclasses.dataclass(frozen=True, eq=False)
class Measurement:
    """A POVM: positive outcome operators summing to the identity.

    Instances compare and hash by identity; compare values through ``outcomes``.
    """

    outcomes: tuple
    tol: dataclasses.InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerances):
        mats = [_checked_psd(e, tol, f"outcome {i}")[0] for i, e in enumerate(self.outcomes)]
        if not mats:
            raise ValidationError("measurement needs at least one outcome")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise ValidationError("measurement outcomes have mixed dimensions")
        _require_identity_sum(mats, n, "measurement outcomes")
        object.__setattr__(self, "outcomes", tuple(mats))

    @property
    def dim(self) -> int:
        return self.outcomes[0].shape[0]

    @classmethod
    def from_basis(cls, basis: np.ndarray) -> "Measurement":
        """Rank-one projective measurement onto the columns of a unitary."""
        cols = np.asarray(basis, dtype=complex)
        return cls(tuple(np.outer(cols[:, k], cols[:, k].conj()) for k in range(cols.shape[1])))


def ensemble_from_subalgebra(
    rho: DensityOperator,
    projections: Sequence[np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> Ensemble:
    """Canonical ensemble of ``rho`` relative to orthogonal projections.

    Weight ``p_j = Tr(Q_j rho)`` with member
    ``sqrt(rho) Q_j sqrt(rho) / p_j``; zero-weight outcomes are dropped.
    The mixture of the ensemble is ``rho`` itself.
    """
    rho = _coerce(rho, DensityOperator, tol)
    mats, n = _validate_projections(projections)
    if n != rho.dim:
        raise ValidationError(f"projection dimension {n} != state dimension {rho.dim}")
    w, v = canonical_eigh(rho.matrix, tol)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    weights = []
    states = []
    for q in mats:
        p = float(np.trace(q @ rho.matrix).real)
        if p <= tol.support:
            continue
        member = root @ q @ root / p
        weights.append(p)
        states.append(DensityOperator(member, tol))
    if not states:
        raise ValidationError("every outcome carries zero weight")
    return Ensemble(np.array(weights), tuple(states), tol)


def channel_from_measurement(measurement: Measurement) -> ReductionChannel:
    """Communication channel of a POVM: one scalar block per outcome.

    Block ``i`` of the reduction is ``Tr(E_i rho)``, realized by the rows of
    the square root of each outcome operator.  ``mutual_entropy`` through
    this channel is the slow reference for ``measurement_mutual_info``.
    """
    terms = []
    for i, e in enumerate(measurement.outcomes):
        w, v = canonical_eigh(e)
        for k in range(w.size):
            if w[k] > EIG_CUTOFF:
                terms.append((i, np.sqrt(w[k]) * v[:, k].conj()[None, :]))
    return ReductionChannel(
        measurement.dim, (1,) * len(measurement.outcomes), tuple(terms)
    )


def _mutual_info_many(ensemble: Ensemble, outcomes: np.ndarray) -> np.ndarray:
    """Classical mutual information of the ensemble for a stack of POVMs.

    ``outcomes[s, i]`` is outcome operator ``i`` of measurement ``s``.  Entry
    ``s`` of the result is ``H(sum_j P) - sum_j p_j H(P(.|j))`` for the joint
    distribution ``P[s, i, j] = p_j Tr(E_{s,i} rho_j)``.  Members with
    ``p_j <= 0`` are skipped, as ``mutual_entropy`` skips them.
    """
    keep = ensemble.weights > 0.0
    p = ensemble.weights[keep]
    members = np.array([s.matrix for s in ensemble.states])[keep]
    cond = np.einsum("sikl,jlk->sij", outcomes, members).real
    joint = cond * p
    return _xlnx(joint.sum(axis=2)).sum(axis=1) - _xlnx(cond).sum(axis=1) @ p


def measurement_mutual_info(ensemble: Ensemble, measurement: Measurement) -> float:
    """Classical mutual information the measurement extracts from the ensemble.

    Equals the mutual entropy of the ensemble through the measurement's
    communication channel, i.e. the mutual information of the joint
    distribution ``p_j Tr(E_i rho_j)``.
    """
    if measurement.dim != ensemble.dim:
        raise ValidationError(
            f"measurement dimension {measurement.dim} != ensemble dimension {ensemble.dim}"
        )
    return float(_mutual_info_many(ensemble, np.array(measurement.outcomes)[None])[0])


def _structured_bases(rho: DensityOperator, ensemble: Ensemble):
    """Eigenbases of the state, of each member, and of pairwise midpoints."""
    bases = [canonical_eigh(rho.matrix)[1]]
    members = [s.matrix for _, s in ensemble.members()]
    for m in members:
        bases.append(canonical_eigh(m)[1])
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            bases.append(canonical_eigh(0.5 * (members[i] + members[j]))[1])
    return bases


@dataclasses.dataclass(frozen=True)
class BenattiBracket:
    """Sampled lower bound and solver upper value for accessible information.

    ``lower`` is the best classical mutual information over the sampled
    measurements, ``upper`` the channel entropy of the subalgebra from the
    roof solver (``roof.value_H``).  ``passed`` requires
    ``lower <= upper + 1e-6``; ``closed`` additionally flags brackets tighter
    than ``1e-5``.

    ``upper`` is not a certified upper bound: the solver's R is an upper
    bound on the true R, so ``upper`` is a lower bound on the true H.
    ``passed`` and ``closed`` therefore depend on how good the optimizer is.
    """

    lower: float
    upper: float
    gap: float
    samples: int
    best_sample: int
    passed: bool
    closed: bool
    roof: RoofResult


def benatti_bracket(
    rho: DensityOperator,
    projections: Sequence[np.ndarray],
    config: SolverConfig | None = None,
    measurement_samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> BenattiBracket:
    """Bracket the accessible information of the canonical ensemble.

    Structured measurement candidates (eigenbases of the state, the members,
    and pairwise midpoints) are evaluated first, then
    ``measurement_samples`` Haar-random orthonormal bases seeded from the
    solver config; the count must be non-negative.  They are evaluated in
    batches of at most ``MEASUREMENT_BATCH``, with the Haar bases drawn
    batch by batch, so memory does not grow with the sample count.
    """
    measurement_samples = _require_int("measurement_samples", measurement_samples, 0)
    rho = _coerce(rho, DensityOperator, tol)
    cfg = config if config is not None else SolverConfig()
    ensemble = ensemble_from_subalgebra(rho, projections, tol)
    channel = commutative_channel(projections)
    roof = solve_R(rho, channel, cfg, tol)
    upper = roof.value_H
    rng = np.random.default_rng([cfg.seed, 104729])
    structured = np.array(_structured_bases(rho, ensemble))
    infos = np.empty(len(structured) + measurement_samples)
    for at in range(0, infos.size, MEASUREMENT_BATCH):
        stop = min(at + MEASUREMENT_BATCH, infos.size)
        draws = stop - max(at, len(structured))
        bases = structured[at:stop]
        if draws > 0:
            bases = np.concatenate([bases, _haar_unitaries(draws, rho.dim, rng)])
        # Rank-one projectors onto the columns of each basis: E[s, i] = u_i u_i^dag.
        outcomes = np.einsum("ski,sli->sikl", bases, bases.conj())
        infos[at:stop] = _mutual_info_many(ensemble, outcomes)
    best = int(np.argmax(infos))
    lower = float(infos[best])
    return BenattiBracket(
        lower=lower,
        upper=upper,
        gap=upper - lower,
        samples=infos.size,
        best_sample=best,
        passed=lower <= upper + 1e-6,
        closed=abs(upper - lower) <= 1e-5,
        roof=roof,
    )


@dataclasses.dataclass(frozen=True)
class HolevoCheck:
    """Channel entropy against the entropy of the state itself."""

    channel_entropy: float
    state_entropy: float
    slack: float
    passed: bool


def holevo_check(rho: DensityOperator, roof: RoofResult, tol: Tolerances = DEFAULT_TOL) -> HolevoCheck:
    """Check a solved roof's ``value_H`` against ``S(rho)``.

    ``roof`` is a solve of ``rho`` through any channel, such as
    ``BenattiBracket.roof``; ``H <= S(rho)`` holds for every channel.
    """
    s = von_neumann_entropy(rho, tol)
    return HolevoCheck(
        channel_entropy=roof.value_H,
        state_entropy=s,
        slack=s - roof.value_H,
        passed=roof.value_H <= s + 1e-6,
    )
