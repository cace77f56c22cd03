"""Density operators, pure states, and the entropy functionals built on them.

All operators are dense complex numpy arrays and all entropies use natural
logarithms (nats).  Conversion to bits is a display concern and lives in the
command line layer only.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "ValidationError",
    "DensityOperator",
    "PureState",
    "shannon_entropy",
    "von_neumann_entropy",
    "relative_entropy",
    "binary_entropy",
]

BINARY_DOMAIN_TOL = 1e-9  # how far outside [0, 1] a binary_entropy argument may lie


class ValidationError(ValueError):
    """An input failed one of its structural invariants."""


def _require_int(label: str, value, minimum: int) -> int:
    """``value`` as an ``int``: an integer (numpy ones too, not bools) ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{label} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{label} must be >= {minimum}, got {value}")
    return int(value)


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """The validation cutoff shared across the package.

    Attributes
    ----------
    value : float
        The largest allowed Hermiticity defect (max entry of
        ``|M - M^dag|``), deviation of a trace, weight sum or vector norm
        from one, and negative eigenvalue: eigenvalues in ``[-value, 0]``
        are clipped to zero, anything below is an error.  Below about 1e-14
        it is under the package's own rounding: ``solve_R`` under
        ``Tolerances(0.0)`` rejects a state vector norm of 0.9999999999999999.
    support : float
        ``value / 10``, the spectral cutoff defining the support of the
        second argument in ``relative_entropy`` and the weight at or below
        which a subalgebra outcome is dropped.
    """

    value: float = 1e-9

    def __post_init__(self):
        v = self.value
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or not (math.isfinite(v) and v >= 0)):
            raise ValidationError(f"tolerance must be finite and >= 0, got {v!r}")

    @property
    def support(self) -> float:
        return self.value / 10


DEFAULT_TOL = Tolerances()


def _as_square_matrix(m, subject: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValidationError(f"{subject} has shape {a.shape}, expected a nonempty square matrix")
    if not np.isfinite(a).all():
        raise ValidationError(f"{subject} has non-finite entries")
    return a


def _max_asymmetry(a: np.ndarray) -> float:
    """``max |a - a^dag|`` of an already checked square array."""
    return float(np.max(np.abs(a - a.conj().T)))


def _checked_hermitian(m, tol: Tolerances, subject: str) -> np.ndarray:
    """Hermitized copy of a finite nonempty square matrix within ``tol.value``.

    ``subject`` names the matrix in error messages, e.g. ``"block 2"``.
    """
    a = _as_square_matrix(m, subject)
    defect = _max_asymmetry(a)
    if defect > tol.value:
        raise ValidationError(
            f"{subject} not Hermitian: max asymmetry {defect:.3e} exceeds {tol.value:.3e}"
        )
    return 0.5 * (a + a.conj().T)


def _checked_psd(m, tol: Tolerances, subject: str, unit_trace: bool = False):
    """The one validation path of every operator the package accepts.

    Runs `_checked_hermitian`, then (with ``unit_trace``) the trace check,
    then the positivity check on the ascending spectrum.  Returns the
    read-only hermitized matrix and that spectrum.
    """
    a = _checked_hermitian(m, tol, subject)
    if unit_trace:
        tr = float(np.trace(a).real)
        if abs(tr - 1.0) > tol.value:
            raise ValidationError(f"{subject} trace {tr!r} deviates from 1 beyond {tol.value:.3e}")
    w = np.linalg.eigvalsh(a)
    lo = float(w[0])
    if lo < -tol.value:
        raise ValidationError(f"{subject} has negative eigenvalue {lo:.3e} below -{tol.value:.3e}")
    a.setflags(write=False)
    w.setflags(write=False)
    return a, w


def eigh(m, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Parameters
    ----------
    m : array_like
        Nonempty square matrix; rejected if its hermiticity defect exceeds
        ``tol.value``.

    Returns
    -------
    (w, v) : ndarray pair
        Real eigenvalues in ascending order and the matrix whose columns are
        the corresponding orthonormal eigenvectors.
    """
    return np.linalg.eigh(_checked_hermitian(m, tol, "matrix"))


def _fix_eigenvector_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Magnitude ties resolve to the lowest row index (np.argmax convention).
    """
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        mag = abs(pivot)
        if mag > 0.0:
            col *= pivot.conjugate() / mag
    return v


def _order_degenerate_columns(w: np.ndarray, v: np.ndarray):
    """Sort columns within (near-)degenerate eigenvalue groups lexicographically."""
    order = np.arange(len(w))
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and abs(w[stop] - w[start]) <= 1e-12 * max(1.0, abs(w[start])):
            stop += 1
        if stop - start > 1:
            # negated so that standard-basis-like columns sort in index order
            keys = [
                tuple(np.round(-np.concatenate([v[:, i].real, v[:, i].imag]), 10))
                for i in order[start:stop]
            ]
            order[start:stop] = order[start:stop][np.array(sorted(range(len(keys)), key=keys.__getitem__))]
        start = stop
    return w[order], v[:, order]


def canonical_eigh(m, tol: Tolerances = DEFAULT_TOL):
    """`eigh` plus a deterministic phase and ordering convention.

    Each eigenvector is rotated so its largest-magnitude component is real
    positive; within degenerate eigenvalue groups, columns are ordered
    lexicographically.  Used wherever a reproducible eigenbasis matters
    (channel constructors, the solver, serialized reports).
    """
    w, v = eigh(m, tol)
    v = _fix_eigenvector_phases(v)
    return _order_degenerate_columns(w, v)


@dataclasses.dataclass(frozen=True, eq=False)
class DensityOperator:
    """A positive semidefinite matrix with unit trace.

    The stored matrix is hermitized, copied, and marked read-only on
    construction; validation failures raise :class:`ValidationError`.
    Instances compare and hash by identity; compare values through ``matrix``.
    """

    matrix: np.ndarray
    tol: dataclasses.InitVar[Tolerances] = DEFAULT_TOL
    # ascending eigenvalues of ``matrix``, computed once by the validation
    _spectrum: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self, tol: Tolerances):
        m, w = _checked_psd(self.matrix, tol, "density matrix", unit_trace=True)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", w)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, small negatives clipped to zero."""
        return np.where(self._spectrum < 0.0, 0.0, self._spectrum)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector; ``density()`` gives the rank-one projection onto it.

    Its validation tolerance also governs ``density()``.  Instances compare
    and hash by identity; compare values through ``vector``.
    """

    vector: np.ndarray
    tol: dataclasses.InitVar[Tolerances] = DEFAULT_TOL
    # the validation tolerance, kept for the density built from the vector
    _tol: Tolerances = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self, tol: Tolerances):
        v = np.asarray(self.vector, dtype=complex)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError(f"expected a nonempty vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("state vector has non-finite entries")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > tol.value:
            raise ValidationError(f"state vector norm {nrm!r} deviates from 1 beyond {tol.value:.3e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "_tol", tol)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    def density(self) -> DensityOperator:
        """The projector, divided by its trace (the squared norm) only when
        that trace misses one by more than the tolerance the norm passed."""
        p = self.projector()
        tr = float(np.trace(p).real)
        if abs(tr - 1.0) > self._tol.value:
            p /= tr
        return DensityOperator(p, self._tol)


def _xlnx(x) -> np.ndarray:
    """Elementwise -x ln x with the convention 0 ln 0 = 0; negatives clip to 0.

    The result is a new array; ``x`` is left unchanged.
    """
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    # ln of x where x > 0 and of 1 where x == 0: adding 0.0 or 1.0 is exact.
    return -x * np.log(np.equal(x, 0.0) + x)


def entropy_of_spectrum(values, tol: Tolerances = DEFAULT_TOL) -> float:
    """Sum of -x ln x over a spectrum; values below ``-tol.value`` are rejected."""
    w = np.asarray(values, dtype=float)
    if w.size and float(w.min()) < -tol.value:
        raise ValidationError(
            f"spectrum has negative value {float(w.min()):.3e} below -{tol.value:.3e}"
        )
    return float(np.sum(_xlnx(w)))


def shannon_entropy(probabilities) -> float:
    """Shannon entropy (nats) of a nonnegative weight vector."""
    return float(np.sum(_xlnx(np.asarray(probabilities, dtype=float))))


def _coerce(value, cls, tol: Tolerances):
    """``value`` if it is already a ``cls``, else ``cls(value, tol)``.

    ``cls`` is :class:`DensityOperator` or :class:`PureState`; a raw array is
    validated under the caller's tolerance.
    """
    return value if isinstance(value, cls) else cls(value, tol)


def von_neumann_entropy(rho, tol: Tolerances = DEFAULT_TOL) -> float:
    """Von Neumann entropy S(rho) = -Tr rho ln rho in nats.

    Lies in ``[0, ln dim]`` up to roundoff for any valid density operator.
    """
    return entropy_of_spectrum(_coerce(rho, DensityOperator, tol)._spectrum, tol)


def relative_entropy(rho, sigma, tol: Tolerances = DEFAULT_TOL) -> float:
    """Relative entropy S(rho, sigma) = Tr rho (ln rho - ln sigma).

    Returns ``math.inf`` when the support of ``rho`` is not contained in the
    support of ``sigma``: eigenvectors of ``sigma`` with eigenvalue at most
    ``tol.support`` that carry more than ``tol.support`` of ``rho``-weight
    trigger the infinite branch.
    """
    rho = _coerce(rho, DensityOperator, tol)
    sigma = _coerce(sigma, DensityOperator, tol)
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w, v = canonical_eigh(sigma.matrix, tol)
    weights = np.einsum("ij,jk,ki->i", v.conj().T, rho.matrix, v).real
    outside = w <= tol.support
    if float(np.sum(np.maximum(weights[outside], 0.0))) > tol.support:
        return math.inf
    inside = ~outside
    cross = float(np.dot(weights[inside], np.log(w[inside])))
    return -von_neumann_entropy(rho, tol) - cross


def binary_entropy(q: float) -> float:
    """s(q) + s(1-q) with s(x) = -x ln x, for q in [0, 1] within ``BINARY_DOMAIN_TOL``."""
    q = float(q)
    if q < -BINARY_DOMAIN_TOL or q > 1.0 + BINARY_DOMAIN_TOL:
        raise ValidationError(
            f"binary entropy argument {q!r} outside [0, 1] beyond {BINARY_DOMAIN_TOL:.3e}"
        )
    q = min(max(q, 0.0), 1.0)
    return float(_xlnx(np.array([q, 1.0 - q])).sum())
