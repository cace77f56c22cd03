"""Block-structured reduction channels and their action on density operators.

A channel maps an input density operator to a tuple of unnormalized positive
blocks, one per summand of a block-diagonal output algebra.  It is stored in
Kraus form: each Kraus term is a ``d_block x input_dim`` matrix tagged with
the output block it feeds, and block ``b`` of the output is
``sum_i K_i rho K_i^dag`` over the terms tagged ``b``.  Completeness
``sum_i K_i^dag K_i = 1`` makes the total output trace one.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Sequence

import numpy as np

from .states import (
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    Tolerances,
    ValidationError,
    _as_square_matrix,
    _checked_psd,
    _coerce,
    _max_asymmetry,
    _require_int,
    canonical_eigh,
    entropy_of_spectrum,
)

__all__ = [
    "KrausTerm",
    "ReductionChannel",
    "BlockDensity",
    "reduce_state",
    "block_entropy",
    "identity_channel",
    "diagonal_pinching",
    "pinching",
    "block_compression",
    "commutative_channel",
]

COMPLETENESS_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10


def _require_identity_sum(terms, n: int, family: str) -> None:
    """Raise unless ``sum(terms)`` is the ``n x n`` identity within ``COMPLETENESS_TOL``."""
    defect = float(np.max(np.abs(sum(terms) - np.eye(n))))
    if defect > COMPLETENESS_TOL:
        raise ValidationError(f"{family} do not sum to identity: completeness defect {defect:.3e}")


class KrausTerm(NamedTuple):
    block: int
    matrix: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class ReductionChannel:
    """A completely positive trace-preserving map onto block-diagonal output.

    Instances compare and hash by identity; compare values through
    ``block_dims`` and ``kraus``.

    Attributes
    ----------
    input_dim : int
        Dimension of the input matrix algebra.
    block_dims : tuple of int
        Dimensions of the output blocks.
    kraus : tuple of KrausTerm
        Kraus operators; term ``(b, K)`` has ``K`` of shape
        ``(block_dims[b], input_dim)``.  Completeness is enforced to
        ``1e-10`` on construction.
    by_block : tuple of tuple of ndarray
        Derived on construction: entry ``b`` holds the Kraus matrices of
        the terms tagged ``b``, in term order (empty for a block no term
        feeds).
    """

    input_dim: int
    block_dims: tuple
    kraus: tuple
    by_block: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        n = _require_int("input_dim", self.input_dim, 1)
        dims = tuple(_require_int(f"block_dims[{i}]", d, 1) for i, d in enumerate(self.block_dims))
        if not dims:
            raise ValidationError("block_dims must name at least one block")
        terms = []
        for entry in self.kraus:
            b, k = entry
            b = _require_int("Kraus term block", b, 0)
            if b >= len(dims):
                raise ValidationError(f"Kraus term references block {b}, have {len(dims)} blocks")
            k = np.asarray(k, dtype=complex)
            if k.shape != (dims[b], n):
                raise ValidationError(
                    f"Kraus term for block {b} has shape {k.shape}, expected {(dims[b], n)}"
                )
            if not np.isfinite(k).all():
                raise ValidationError(f"Kraus term for block {b} has non-finite entries")
            k = k.copy()
            k.setflags(write=False)
            terms.append(KrausTerm(b, k))
        if not terms:
            raise ValidationError("channel needs at least one Kraus term")
        products = (t.matrix.conj().T @ t.matrix for t in terms)
        _require_identity_sum(products, n, "Kraus products K^dag K")
        object.__setattr__(self, "input_dim", n)
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "kraus", tuple(terms))
        object.__setattr__(self, "by_block", tuple(
            tuple(t.matrix for t in terms if t.block == b) for b in range(len(dims))
        ))

    @property
    def block_count(self) -> int:
        return len(self.block_dims)

    @property
    def output_dim(self) -> int:
        return sum(self.block_dims)


@dataclasses.dataclass(frozen=True, eq=False)
class BlockDensity:
    """Unnormalized positive blocks whose traces sum to one.

    Instances compare and hash by identity; compare values through ``blocks``.
    """

    blocks: tuple
    tol: dataclasses.InitVar[Tolerances] = DEFAULT_TOL
    # ascending eigenvalues of each block, computed once by the validation
    _spectra: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self, tol: Tolerances):
        checked = [_checked_psd(blk, tol, f"block {b}") for b, blk in enumerate(self.blocks)]
        if not checked:
            raise ValidationError("block density needs at least one block")
        total = 0.0
        for m, _ in checked:
            total += float(np.trace(m).real)
        if abs(total - 1.0) > tol.value:
            raise ValidationError(f"block traces sum to {total!r}, expected 1")
        object.__setattr__(self, "blocks", tuple(m for m, _ in checked))
        object.__setattr__(self, "_spectra", tuple(w for _, w in checked))

    @property
    def block_dims(self) -> tuple:
        return tuple(b.shape[0] for b in self.blocks)

    def to_dense(self) -> np.ndarray:
        """Embed as a block-diagonal matrix on the direct sum space."""
        n = sum(self.block_dims)
        out = np.zeros((n, n), dtype=complex)
        at = 0
        for b in self.blocks:
            d = b.shape[0]
            out[at : at + d, at : at + d] = b
            at += d
        return out

    def probabilities(self) -> np.ndarray:
        """Block traces as a probability vector (any block dimensions)."""
        return np.array([float(np.trace(b).real) for b in self.blocks])


def reduce_state(channel: ReductionChannel, rho, tol: Tolerances = DEFAULT_TOL) -> BlockDensity:
    """Apply the channel: block ``b`` is ``sum_{i tagged b} K_i rho K_i^dag``."""
    rho = _coerce(rho, DensityOperator, tol)
    if rho.dim != channel.input_dim:
        raise ValidationError(f"state dimension {rho.dim} != channel input {channel.input_dim}")
    blocks = tuple(
        sum((k @ rho.matrix @ k.conj().T for k in ops), np.zeros((d, d), dtype=complex))
        for ops, d in zip(channel.by_block, channel.block_dims)
    )
    return BlockDensity(blocks, tol)


def block_entropy(bd: BlockDensity, tol: Tolerances = DEFAULT_TOL) -> float:
    """Entropy of the block density: sum over blocks of Tr s(block)."""
    total = 0.0
    for w in bd._spectra:
        total += entropy_of_spectrum(w, tol)
    return total


# --- constructors -----------------------------------------------------------


def identity_channel(dim: int) -> ReductionChannel:
    """Single full block; the reduction is the state itself."""
    dim = _require_int("dimension", dim, 1)
    return ReductionChannel(dim, (dim,), ((0, np.eye(dim)),))


def diagonal_pinching(dim: int) -> ReductionChannel:
    """One 1-dimensional block per basis vector; reduces to the diagonal."""
    dim = _require_int("diagonal pinching dimension", dim, 2)
    eye = np.eye(dim)
    terms = tuple((k, eye[k : k + 1, :]) for k in range(dim))
    return ReductionChannel(dim, (1,) * dim, terms)


def _validate_projections(projections: Sequence[np.ndarray]):
    mats = [_as_square_matrix(p, f"projection {j}") for j, p in enumerate(projections)]
    if not mats:
        raise ValidationError("need at least one projection")
    n = mats[0].shape[0]
    for j, p in enumerate(mats):
        if p.shape != (n, n):
            raise ValidationError(f"projection {j} has shape {p.shape}, expected {(n, n)}")
        defect = float(np.max(np.abs(p @ p - p)))
        if defect > ORTHOGONALITY_TOL:
            raise ValidationError(f"projection {j} is not idempotent: defect {defect:.3e}")
        herm = _max_asymmetry(p)
        if herm > ORTHOGONALITY_TOL:
            raise ValidationError(f"projection {j} is not Hermitian: defect {herm:.3e}")
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            defect = float(np.max(np.abs(mats[j] @ mats[k])))
            if defect > ORTHOGONALITY_TOL:
                raise ValidationError(
                    f"projections {j} and {k} are not orthogonal: defect {defect:.3e}"
                )
    _require_identity_sum(mats, n, "projections")
    return mats, n


def _range_basis(projection: np.ndarray) -> np.ndarray:
    """Rows form a deterministic orthonormal basis of the projection's range."""
    w, v = canonical_eigh(projection)
    keep = w > 0.5
    return v[:, keep].conj().T


def _range_bases(projections: Sequence[np.ndarray]):
    """`_range_basis` of each validated projection, and their dimension.

    A projection with an empty range is an error.
    """
    mats, n = _validate_projections(projections)
    bases = [_range_basis(p) for p in mats]
    for j, w in enumerate(bases):
        if w.shape[0] == 0:
            raise ValidationError(f"projection {j} has empty range")
    return bases, n


def pinching(projections: Sequence[np.ndarray]) -> ReductionChannel:
    """Channel compressing onto the block-diagonal algebra of a complete
    family of orthogonal projections; block ``j`` of the output is the
    compression onto the range of projection ``j``."""
    bases, n = _range_bases(projections)
    return ReductionChannel(n, tuple(w.shape[0] for w in bases), tuple(enumerate(bases)))


def block_compression(psi: PureState) -> ReductionChannel:
    """Two-block channel splitting off the line spanned by ``psi``.

    Block 0 is the compression onto the orthogonal complement of ``psi``
    (dimension ``n`` for input dimension ``n + 1``), block 1 is the scalar
    overlap with ``psi``.  The complement basis follows the deterministic
    eigenbasis convention of :func:`roofentropy.states.canonical_eigh`.
    A ``psi`` whose norm misses 1 by more than ``COMPLETENESS_TOL / 4`` is
    normalized first, so that the channel passes its completeness check;
    block 1's Kraus row is the conjugate of the vector the channel is built
    from.
    """
    psi = _coerce(psi, PureState, DEFAULT_TOL)
    n1 = psi.dim
    if n1 < 2:
        raise ValidationError("block compression needs input dimension >= 2")
    vec = psi.vector
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > COMPLETENESS_TOL / 4:
        vec = vec / norm
    q = np.eye(n1) - np.outer(vec, vec.conj())
    w = _range_basis(q)
    if w.shape[0] != n1 - 1:
        raise ValidationError(f"complement rank {w.shape[0]}, expected {n1 - 1}")
    terms = ((0, w), (1, vec.conj()[None, :]))
    return ReductionChannel(n1, (n1 - 1, 1), terms)


def commutative_channel(projections: Sequence[np.ndarray]) -> ReductionChannel:
    """Channel of a commutative subalgebra spanned by orthogonal projections.

    Output has one 1-dimensional block per projection and block ``j`` of the
    reduction is ``Tr(Q_j rho)``; each orthonormal basis vector of the range
    of ``Q_j`` contributes one Kraus row tagged ``j``.
    """
    bases, n = _range_bases(projections)
    terms = tuple((j, row[None, :]) for j, w in enumerate(bases) for row in w)
    return ReductionChannel(n, (1,) * len(bases), terms)
