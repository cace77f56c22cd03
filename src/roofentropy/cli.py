"""Command-line surface.

Every subcommand reads JSON (inline or from files), computes, and prints a
canonical JSON report: keys sorted, floats carrying 12 significant digits,
so identical jobs produce byte-identical output.  ``--format table``
flattens the same report for quick reading and is lossy on matrices.

Each subcommand registers only the flags it reads, and each flag must be
spelled in full.  The handlers read the parsed flags directly; every JSON
input is decoded by ``jsonio``.

Exit codes: 0 success, 1 validation, input or usage error, 2 failed checks
from ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from .accinfo import benatti_bracket, holevo_check
from .channels import block_compression, block_entropy, reduce_state
from .ensembles import mutual_entropy
from .jsonio import (
    _decode_projections,
    _decode_scalar,
    block_density_to_json,
    channel_from_json,
    density_from_json,
    ensemble_from_json,
    ensemble_to_json,
    pure_from_json,
    roof_result_to_json,
    round_floats,
)
from .oracles import (
    block_example_analyze,
    block_example_decomposition,
    qubit_R,
    qubit_R_series,
)
from .roof import (
    ZERO_ENTROPY_H,
    SolverConfig,
    affinity_certificate,
    solve_R,
    zero_entropy_structure,
)
from .states import (
    DEFAULT_TOL,
    Tolerances,
    ValidationError,
    von_neumann_entropy,
)
from .verify import VERIFY_SOLVER, run_verify

__all__ = ["main"]

TOL_FLOOR = 1e-12  # least --tol: below about 1e-14 the package's own rounding fails its checks


def _tolerances(tol: float | None) -> Tolerances:
    """The default tolerance, or ``--tol``."""
    if tol is None:
        return DEFAULT_TOL
    if not (math.isfinite(tol) and tol >= TOL_FLOOR):
        raise ValidationError(f"--tol must be finite, positive and at least {TOL_FLOOR:g}, got {tol!r}")
    return Tolerances(tol)


def _solver_config(ns: argparse.Namespace, base: SolverConfig = SolverConfig()) -> SolverConfig:
    """``base`` with the seed and each solver flag that was given."""
    given = {name: getattr(ns, name) for name in ("restarts", "max_iters", "max_length")
             if getattr(ns, name) is not None}
    return dataclasses.replace(base, seed=ns.seed, **given)


def _samples(ns: argparse.Namespace, name: str = "samples") -> dict:
    """``{name: --samples}`` if the flag was given; else the library default applies."""
    return {} if ns.samples is None else {name: ns.samples}


def _load_json(raw: str, what: str):
    """Parse inline JSON or the contents of a file path."""
    text, origin = raw, "inline value"
    if not raw.lstrip().startswith(("{", "[")):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{what}: cannot read file {raw!r}: {exc}")
        origin = f"file {raw!r}"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{what}: malformed JSON in {origin} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise ValidationError(f"{what}: JSON in {origin} is nested too deeply to decode")


def _require_input(ns: argparse.Namespace, key: str) -> str:
    raw = getattr(ns, key)
    if raw is None:
        raise ValidationError(f"command {ns.command!r} requires --{key}")
    return raw


def _parse_z(raw: str) -> complex:
    try:
        return complex(raw)
    except ValueError:
        return _decode_scalar(_load_json(raw, "--z"), "--z")


def _cmd_entropy(ns: argparse.Namespace) -> dict:
    tol = _tolerances(ns.tol)
    rho = density_from_json(_load_json(_require_input(ns, "state"), "--state"), tol)
    return {
        "command": "entropy",
        "dim": rho.dim,
        "entropy": von_neumann_entropy(rho, tol),
        "spectrum": [float(x) for x in rho.spectrum()],
        "purity": rho.purity(),
    }


def _cmd_reduce(ns: argparse.Namespace) -> dict:
    tol = _tolerances(ns.tol)
    rho = density_from_json(_load_json(_require_input(ns, "state"), "--state"), tol)
    channel = channel_from_json(_load_json(_require_input(ns, "channel"), "--channel"), tol)
    bd = reduce_state(channel, rho, tol)
    report = block_density_to_json(bd)
    report["command"] = "reduce"
    report["probabilities"] = [float(p) for p in bd.probabilities()]
    report["entropy"] = block_entropy(bd, tol)
    return report


def _cmd_mutual(ns: argparse.Namespace) -> dict:
    tol = _tolerances(ns.tol)
    ensemble = ensemble_from_json(_load_json(_require_input(ns, "ensemble"), "--ensemble"), tol)
    channel = channel_from_json(_load_json(_require_input(ns, "channel"), "--channel"), tol)
    holevo = mutual_entropy(ensemble, channel, "holevo")
    relative = mutual_entropy(ensemble, channel, "relative")
    return {
        "command": "mutual",
        "length": len(ensemble),
        "mutual_entropy": holevo,
        "relative_form": relative,
        "form_difference": holevo - relative,
    }


def _cmd_roof(ns: argparse.Namespace) -> dict:
    tol = _tolerances(ns.tol)
    rho = density_from_json(_load_json(_require_input(ns, "state"), "--state"), tol)
    channel = channel_from_json(_load_json(_require_input(ns, "channel"), "--channel"), tol)
    cfg = _solver_config(ns)
    trace = contextlib.nullcontext()
    if ns.trace is not None:
        try:
            trace = open(ns.trace, "w", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"--trace: cannot write file {ns.trace!r}: {exc}")
    with trace as fh:
        result = solve_R(rho, channel, cfg, tol, trace=fh)
    report = {"command": "roof", "result": roof_result_to_json(result)}
    cert = affinity_certificate(result, channel, config=cfg, **_samples(ns))
    report["affinity"] = {
        "max_discrepancy": cert.max_discrepancy,
        "samples": len(cert.discrepancies),
        "tolerance": cert.tolerance,
        "passed": cert.passed,
    }
    report["zero_entropy"] = (
        dataclasses.asdict(zero_entropy_structure(rho, channel, result, tol=tol))
        if result.value_H <= ZERO_ENTROPY_H else None
    )
    return report


def _cmd_qubit_oracle(ns: argparse.Namespace) -> dict:
    z = _parse_z(_require_input(ns, "z"))
    report = {
        "command": "qubit-oracle",
        "z": [z.real, z.imag],
        "magnitude": abs(z),
        "value": qubit_R(z),
    }
    if ns.terms is not None:
        partial = qubit_R_series(z, ns.terms)
        report["series"] = {
            "terms": ns.terms,
            "value": partial,
            "difference": partial - report["value"],
        }
    return report


def _cmd_block_oracle(ns: argparse.Namespace) -> dict:
    tol = _tolerances(ns.tol)
    rho = density_from_json(_load_json(_require_input(ns, "state"), "--state"), tol)
    psi = pure_from_json(_load_json(_require_input(ns, "psi"), "--psi"), tol)
    data = block_example_analyze(rho, psi, tol)
    analysis = {
        "distinguished_weight": data.lam,
        "coupling": data.z,
        "eigenvalues": [float(x) for x in data.eigvals],
        "overlaps": [float(x) for x in data.overlaps],
        "mu_plus": data.mu_plus,
        "mu_minus": data.mu_minus,
    }
    report = {"command": "block-oracle", "analysis": analysis}
    decomposition = block_example_decomposition(data, rho, tol)
    report["decomposition"] = {
        "candidate": decomposition.candidate,
        "degenerate": decomposition.degenerate,
        "length": len(decomposition.ensemble),
        "ensemble": ensemble_to_json(decomposition.ensemble),
    }
    if ns.solve:
        result = solve_R(rho, block_compression(psi), _solver_config(ns), tol)
        report["solver"] = {
            "value_R": result.value_R,
            "value_H": result.value_H,
            "candidate_minus_solver": decomposition.candidate - result.value_R,
        }
    return report


def _cmd_accinfo(ns: argparse.Namespace) -> dict:
    tol = _tolerances(ns.tol)
    rho = density_from_json(_load_json(_require_input(ns, "state"), "--state"), tol)
    raw = _load_json(_require_input(ns, "projections"), "--projections")
    projections = _decode_projections(raw, "--projections")
    cfg = _solver_config(ns)
    bracket = benatti_bracket(rho, projections, cfg, tol=tol, **_samples(ns, "measurement_samples"))
    hc = holevo_check(rho, bracket.roof, tol)
    fields = dataclasses.fields(bracket)
    return {
        "command": "accinfo",
        "bracket": {**{f.name: getattr(bracket, f.name) for f in fields if f.name != "roof"},
                    "holevo_slack": hc.slack},
        "holevo": dataclasses.asdict(hc),
    }


def _cmd_verify(ns: argparse.Namespace) -> dict:
    report = run_verify(seed=ns.seed, solver=_solver_config(ns, VERIFY_SOLVER), **_samples(ns))
    report["command"] = "verify"
    return report


def _flatten(prefix: str, value, rows: list):
    # A list of objects (verify's checks) expands by index; other lists, and
    # the tuples a result type's fields hold, elide.
    if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, (list, tuple)):
        if all(isinstance(x, (int, float, bool)) or x is None for x in value) and len(value) <= 12:
            rows.append((prefix, "[" + ", ".join(_scalar(x) for x in value) + "]"))
        else:
            rows.append((prefix, f"[{len(value)} items]"))
    else:
        rows.append((prefix, _scalar(value)))


def _scalar(value) -> str:
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(round_floats(report), sort_keys=True, indent=2)
    rows: list = []
    _flatten("", report, rows)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for failed
    # verification, so route usage problems through the validation path.
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="roofentropy", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command registers only the flags its _cmd_* reads, so a flag it
    # would ignore is a usage error rather than a silent no-op.  Prefixes are
    # off: what one would mean depends on the command's other flags.
    state = ("--state", {"help": "density matrix: JSON file or inline"})
    channel = ("--channel", {"help": "reduction channel: JSON file or inline"})
    tol = ("--tol", {"type": float})
    samples = ("--samples", {"type": int})
    solver = (("--seed", {"type": int, "default": 0}),
              *((flag, {"type": int}) for flag in ("--restarts", "--max-iters", "--max-length")))
    commands = (
        ("entropy", _cmd_entropy, "von Neumann entropy of a state", (state, tol)),
        ("reduce", _cmd_reduce, "push a state through a reduction channel", (state, channel, tol)),
        ("mutual", _cmd_mutual, "mutual entropy of an ensemble and a channel",
         (("--ensemble", {"help": "ensemble: JSON file or inline"}), channel, tol)),
        ("roof", _cmd_roof, "solve the decomposition optimization for R and H",
         (state, channel, ("--trace", {"help": "write per-restart JSON lines here"}),
          tol, *solver, samples)),
        ("qubit-oracle", _cmd_qubit_oracle, "closed-form qubit value from the off-diagonal entry",
         (("--z", {"help": "off-diagonal entry: real, complex literal, or [re, im]"}),
          ("--terms", {"type": int, "help": "also evaluate the series with this many terms"}))),
        ("block-oracle", _cmd_block_oracle,
         "distinguished-direction analysis and explicit decomposition",
         (state, ("--psi", {"help": "distinguished unit vector: JSON file or inline"}),
          ("--solve", {"action": "store_true", "help": "also run the solver and report the gap"}),
          tol, *solver)),
        ("accinfo", _cmd_accinfo, "accessible-information bracket and entropy comparison",
         (state, ("--projections", {"help": "JSON list of projection matrices"}),
          tol, *solver, samples)),
        ("verify", _cmd_verify, "run the seeded invariant suite", (*solver, samples)),
    )
    for name, handler, help_text, specs in commands:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", default="json", choices=("json", "table"))
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        report = ns.handler(ns)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_render(report, ns.format))
    return 2 if ns.command == "verify" and report["counts"]["failed"] > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
