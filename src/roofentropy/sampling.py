"""Seeded random states, channels, and measurements for tests, `verify` and
the Haar-random measurements of `accinfo`."""

from __future__ import annotations

import numpy as np

from . import roof
from .channels import ReductionChannel, commutative_channel, pinching
from .ensembles import Ensemble
from .states import DensityOperator, PureState

__all__ = [
    "ginibre_density",
    "random_pure_state",
    "haar_unitary",
    "random_partition",
    "random_projections",
    "random_pinching",
    "random_commutative",
    "random_ensemble",
]


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ginibre_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Full-rank random density operator G G^dag / Tr."""
    g = _complex_gaussian(rng, (dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    v = _complex_gaussian(rng, dim)
    return PureState(v / np.linalg.norm(v))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_unitaries(1, dim, rng)[0]


def _haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` Haar unitaries from one Gaussian draw and one stacked QR.

    The stream is read unitary by unitary (real part, then imaginary part)
    and the QR acts slice by slice, so slice ``s`` is the ``s``-th of
    ``count`` sequential ``haar_unitary`` calls on the same generator.  The
    QR is the solver's positive-diagonal retraction, called through its
    module so that a tracer wrapping ``roof._retract`` sees it.
    """
    g = rng.standard_normal((count, 2, dim, dim))
    return roof._retract(g[:, 0] + 1j * g[:, 1])


def random_partition(total: int, rng: np.random.Generator, parts: int | None = None) -> list:
    """Split ``total`` into at least two positive part sizes."""
    if parts is None:
        parts = int(rng.integers(2, total + 1))
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [total]])
    return np.diff(bounds).astype(int).tolist()


def random_projections(dim: int, rng: np.random.Generator, parts: int | None = None) -> list:
    """Complete family of orthogonal projections in a Haar-random basis."""
    return _column_projections(haar_unitary(dim, rng), random_partition(dim, rng, parts))


def _column_projections(u: np.ndarray, sizes) -> list:
    """Projections onto consecutive blocks of ``sizes`` columns of the unitary ``u``."""
    edges = np.cumsum([0, *sizes])
    return [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(edges[:-1], edges[1:])]


def random_pinching(dim: int, rng: np.random.Generator) -> ReductionChannel:
    return pinching(random_projections(dim, rng))


def random_commutative(dim: int, rng: np.random.Generator) -> ReductionChannel:
    return commutative_channel(random_projections(dim, rng))


def random_ensemble(dim: int, size: int, rng: np.random.Generator) -> Ensemble:
    weights = rng.dirichlet(np.ones(size))
    states = tuple(ginibre_density(dim, rng) for _ in range(size))
    return Ensemble(weights, states)
