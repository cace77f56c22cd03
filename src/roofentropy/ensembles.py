"""Weighted ensembles of density operators and their mutual entropy."""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .channels import ReductionChannel, block_entropy, reduce_state
from .states import (
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    Tolerances,
    ValidationError,
    _coerce,
    relative_entropy,
)

__all__ = ["Ensemble", "pure_ensemble", "convex_sum", "shorten", "mutual_entropy"]

WEIGHT_CUTOFF = 1e-13  # members at or below this weight are dropped from a decomposition
MERGE_TOL = 1e-9       # max-entry distance at which members merge


@dataclasses.dataclass(frozen=True, eq=False)
class Ensemble:
    """Weights summing to one paired with density operators of equal dimension.

    Its validation tolerance also governs `convex_sum`, `shorten` and `mutual_entropy`.
    Instances compare and hash by identity; compare values through
    ``weights`` and each member's ``matrix``.
    """

    weights: np.ndarray
    states: tuple
    tol: dataclasses.InitVar[Tolerances] = DEFAULT_TOL
    # the validation tolerance, kept for what is derived from the ensemble
    _tol: Tolerances = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self, tol: Tolerances):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("ensemble needs at least one member")
        if w.size != len(self.states):
            raise ValidationError(f"{w.size} weights vs {len(self.states)} states")
        if not np.isfinite(w).all():
            raise ValidationError(f"ensemble weights must be finite, got {w.tolist()!r}")
        if float(w.min()) < -tol.value:
            raise ValidationError(f"negative weight {float(w.min()):.3e}")
        total = float(w.sum())
        if abs(total - 1.0) > tol.value:
            raise ValidationError(f"weights sum to {total!r}, expected 1")
        states = tuple(_coerce(s, DensityOperator, tol) for s in self.states)
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValidationError(f"mixed member dimensions {sorted(dims)}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_tol", tol)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)

    def members(self):
        return zip(self.weights.tolist(), self.states)


def pure_ensemble(weights, vectors: Sequence[np.ndarray], tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Ensemble of rank-one projections built from unit vectors.

    Members of weight in ``[-tol.value, WEIGHT_CUTOFF]`` are dropped, their
    vectors unchecked; raises when none is left.
    """
    kept = [(p, v) for p, v in zip(weights, vectors) if not -tol.value <= p <= WEIGHT_CUTOFF]
    if not kept:
        raise ValidationError("every member fell below the weight cutoff")
    return Ensemble([p for p, _ in kept], tuple(PureState(v, tol).density() for _, v in kept), tol)


def convex_sum(ensemble: Ensemble) -> DensityOperator:
    """The mixture sum_j p_j rho_j, validated under the ensemble's tolerance."""
    total = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for p, rho in ensemble.members():
        total += p * rho.matrix
    return DensityOperator(total, ensemble._tol)


def _decomposition_defects(ensemble: Ensemble, rho: DensityOperator) -> tuple:
    """Max entry of ``|sum_j p_j rho_j - rho|`` and max ``1 - purity`` over the members."""
    return (float(np.max(np.abs(convex_sum(ensemble).matrix - rho.matrix))),
            max(1.0 - member.purity() for member in ensemble.states))


def shorten(ensemble: Ensemble) -> Ensemble:
    """Drop negligible members and merge duplicates by adding weights.

    Keeps the convex sum unchanged to well below the validation tolerance; the
    first occurrence of a duplicate state is kept as the representative.
    The result is validated under the ensemble's tolerance.
    """
    kept_w: list[float] = []
    kept_s: list[DensityOperator] = []
    for p, rho in ensemble.members():
        if p <= WEIGHT_CUTOFF:
            continue
        for i, other in enumerate(kept_s):
            if float(np.max(np.abs(rho.matrix - other.matrix))) <= MERGE_TOL:
                kept_w[i] += p
                break
        else:
            kept_w.append(p)
            kept_s.append(rho)
    if not kept_s:
        raise ValidationError("all members fell below the weight cutoff")
    return Ensemble(np.array(kept_w), tuple(kept_s), ensemble._tol)


def mutual_entropy(ensemble: Ensemble, channel: ReductionChannel, form: str = "holevo") -> float:
    """Mutual entropy of an ensemble with respect to a reduction channel.

    Parameters
    ----------
    form : str
        ``"holevo"`` computes ``S(reduce(mix)) - sum_j p_j S(reduce(rho_j))``;
        ``"relative"`` computes ``sum_j p_j S(reduce(rho_j), reduce(mix))``
        as a cross-check.  The two agree whenever supports behave, and the
        Holevo form is the numerically stable default.  Both validate under
        the ensemble's tolerance.  The relative form skips members of weight
        ``p`` at most the support cutoff, whose term is at most ``-p ln p``.
        Every member has ``sigma >= p rho`` (``sigma`` the reduced mixture), so
        an infinite term comes from the cutoff; it is evaluated again under
        ``p`` times the tolerance, whose cutoff lies below ``sigma`` on each
        direction where the member has more than the first cutoff's weight.
    """
    if form not in ("holevo", "relative"):
        raise ValidationError(f"unknown mutual entropy form {form!r}")
    tol = ensemble._tol
    reduced_mix = reduce_state(channel, convex_sum(ensemble), tol)
    if form == "holevo":
        total = block_entropy(reduced_mix, tol)
        for p, rho in ensemble.members():
            if p <= 0.0:
                continue
            total -= p * block_entropy(reduce_state(channel, rho, tol), tol)
        return total
    sigma = DensityOperator(reduced_mix.to_dense(), tol)
    total = 0.0
    for p, rho in ensemble.members():
        if p <= tol.support:
            continue
        member = DensityOperator(reduce_state(channel, rho, tol).to_dense(), tol)
        term = relative_entropy(member, sigma, tol)
        if term == math.inf:
            term = relative_entropy(member, sigma, Tolerances(tol.value * p))
        total += p * term
    return total
