"""JSON conventions shared by the library and the command line.

Complex numbers serialize as two-element arrays ``[re, im]``; matrices and
vectors as row-major nested arrays of those pairs.  Decoders are strict:
unknown object keys are rejected so that typos in job files fail loudly,
integer fields take only JSON integers, and booleans are not numbers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channels import ReductionChannel, block_compression, commutative_channel, diagonal_pinching
from .ensembles import Ensemble
from .roof import RoofResult
from .states import DEFAULT_TOL, DensityOperator, PureState, Tolerances, ValidationError

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "encode_vector",
    "decode_vector",
    "ensemble_to_json",
    "ensemble_from_json",
    "channel_to_json",
    "channel_from_json",
    "density_from_json",
    "pure_from_json",
    "block_density_to_json",
    "roof_result_to_json",
    "round_floats",
]


def _require_keys(obj: dict, required, what="object"):
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object for {what}, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"{what} is missing keys {missing}")
    unknown = [k for k in obj if k not in required]
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")


def _is_number(value) -> bool:
    """A JSON number; ``true`` and ``false`` are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode_scalar(value, what="number"):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(x) for x in value):
        return complex(value[0], value[1])
    raise ValidationError(f"cannot decode {what}: expected a number or [re, im] pair, got {value!r}")


def _decode_projections(data, what="projections") -> list:
    """A nonempty array of projection matrices, decoded but not yet checked."""
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{what} must be a nonempty array of matrices")
    return [decode_matrix(p, f"{what}[{i}]") for i, p in enumerate(data)]


def encode_matrix(a) -> list:
    """An array of any shape as nested lists with an ``[re, im]`` pair per entry."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


encode_vector = encode_matrix


def decode_vector(data, what="vector") -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{what} must be a nonempty array")
    return np.array([_decode_scalar(x, what) for x in data], dtype=complex)


def decode_matrix(data, what="matrix") -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{what} must be a nonempty array of rows")
    rows = [decode_vector(row, what) for row in data]
    width = {r.size for r in rows}
    if len(width) != 1:
        raise ValidationError(f"{what} has ragged rows")
    return np.vstack(rows)


def density_from_json(data, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    return DensityOperator(decode_matrix(data, "density matrix"), tol)


def pure_from_json(data, tol: Tolerances = DEFAULT_TOL) -> PureState:
    return PureState(decode_vector(data, "state vector"), tol)


def ensemble_to_json(e: Ensemble) -> dict:
    return {
        "weights": [float(w) for w in e.weights],
        "states": [encode_matrix(s.matrix) for s in e.states],
    }


def ensemble_from_json(data, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    _require_keys(data, ("weights", "states"), what="ensemble")
    weights = data["weights"]
    states = data["states"]
    if not isinstance(weights, list) or not isinstance(states, list):
        raise ValidationError("ensemble weights and states must be arrays")
    if not all(_is_number(w) for w in weights):
        raise ValidationError(f"ensemble weights must be JSON numbers, got {weights!r}")
    return Ensemble(
        np.asarray(weights, dtype=float),
        tuple(DensityOperator(decode_matrix(s, "ensemble state"), tol) for s in states),
        tol,
    )


def channel_to_json(c: ReductionChannel) -> dict:
    return {
        "input_dim": c.input_dim,
        "block_dims": list(c.block_dims),
        "kraus": [{"block": b, "matrix": encode_matrix(k)} for b, k in c.kraus],
    }


def channel_from_json(data, tol: Tolerances = DEFAULT_TOL) -> ReductionChannel:
    """Decode a channel, accepting the explicit Kraus form or a shorthand.

    Shorthands: ``{"type": "diagonal", "dim": n}``,
    ``{"type": "block_compression", "psi": vector}``, and
    ``{"type": "commutative", "projections": [matrix, ...]}``.  The
    shorthand's ``psi`` is checked under ``tol``.
    """
    if isinstance(data, dict) and "type" in data:
        kind = data["type"]
        if kind == "diagonal":
            _require_keys(data, ("type", "dim"), what="diagonal channel")
            return diagonal_pinching(data["dim"])
        if kind == "block_compression":
            _require_keys(data, ("type", "psi"), what="block compression channel")
            return block_compression(PureState(decode_vector(data["psi"], "psi"), tol))
        if kind == "commutative":
            _require_keys(data, ("type", "projections"), what="commutative channel")
            return commutative_channel(_decode_projections(data["projections"]))
        raise ValidationError(f"unknown channel type {kind!r}")
    _require_keys(data, ("input_dim", "block_dims", "kraus"), what="channel")
    for key in ("block_dims", "kraus"):
        if not isinstance(data[key], list):
            raise ValidationError(f"channel {key} must be an array, got {type(data[key]).__name__}")
    terms = []
    for t in data["kraus"]:
        _require_keys(t, ("block", "matrix"), what="Kraus term")
        terms.append((t["block"], decode_matrix(t["matrix"], "Kraus matrix")))
    # ReductionChannel checks the integer fields.
    return ReductionChannel(data["input_dim"], tuple(data["block_dims"]), tuple(terms))


def block_density_to_json(bd) -> dict:
    return {
        "block_dims": list(bd.block_dims),
        "blocks": [encode_matrix(b) for b in bd.blocks],
    }


def roof_result_to_json(result: RoofResult) -> dict:
    """Every field of ``result``, with its ensemble and restart values in JSON form."""
    return {
        **{f.name: getattr(result, f.name) for f in dataclasses.fields(result)},
        "optimal_ensemble": ensemble_to_json(result.optimal_ensemble),
        "restart_values": list(result.restart_values),
    }


def round_floats(obj, digits: int = 12):
    """Round every float in a JSON-ready structure to significant digits.

    Keeps reports byte-stable across runs; applied by the CLI before
    serialization.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, digits) for v in obj]
    return obj
