"""The benchmark's value gate and report bytes, checked in the test suite.

``perfbench/run.py`` refuses a run whose ``value_R`` on an op rises above the
value stored for that op and seed in ``perfbench/baseline.json`` by more than
1e-9.  The stored values are where an unconverged descent stopped, so a
kernel change that moves the objective's last bit can trip that gate.  These
tests run the seed-0 and seed-1 ops of all three workloads through the same
entry points as the benchmark, so such a change fails here first; seed 1 is
the seed the benchmark's runs quote.  They also check
that the CLI reports do not change when same-channel solves share one
lockstep stack.  The benchmark's files are only read.
"""

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import roofentropy as rf
from roofentropy import cli, roof, verify

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (0, 1)
SLACK = 1e-9  # perfbench/run.py BASELINE_SLACK


def _workloads():
    """``perfbench/workloads.py`` as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    with contextlib.ExitStack() as stack:
        stack.callback(setattr, sys, "dont_write_bytecode", sys.dont_write_bytecode)
        sys.dont_write_bytecode = True
        spec.loader.exec_module(module)
    return module.WORKLOADS


STORED = json.loads((BENCH / "baseline.json").read_text())
GATED = [
    (name, seed, op)
    for seed in SEEDS
    for name in ("qubit-sweep", "highdim", "cli-commands")
    for op in _workloads()[name].build(seed, False)
    if op.name in STORED[name][str(seed)]
]


def _value_R(op, capsys) -> float:
    """The op's reported ``value_R``, read from its report as the benchmark reads it."""
    if op.kind == "solve":
        rho = rf.DensityOperator(op.state)
        if op.psi is not None:
            channel = rf.block_compression(rf.PureState(op.psi))
        else:
            channel = rf.ReductionChannel(op.state.shape[0], op.block_dims, op.kraus)
        result = rf.solve_R(rho, channel, rf.SolverConfig(**dict(op.solver)))
        return rf.round_floats(rf.roof_result_to_json(result))["value_R"]
    assert cli.main(list(op.argv)) == 0
    report = json.loads(capsys.readouterr().out)
    return (report["result"] if op.command == "roof" else report["solver"])["value_R"]


@pytest.mark.parametrize("workload,seed,op", GATED,
                         ids=[f"{w}/{op.name}" + (f"/seed{s}" if s else "") for w, s, op in GATED])
def test_value_R_within_stored_seed_value(workload, seed, op, capsys):
    stored = STORED[workload][str(seed)][op.name]
    assert _value_R(op, capsys) <= stored + SLACK


STACKED = [op for op in _workloads()["cli-commands"].build(0, False)
           if op.command in ("roof", "verify")]


@pytest.mark.parametrize("op", STACKED, ids=[op.name for op in STACKED])
def test_report_bytes_match_one_solve_per_state(op, capsys, monkeypatch):
    assert cli.main(list(op.argv)) == 0
    stacked = capsys.readouterr().out
    alone = roof._solve_states

    def one_at_a_time(states, channel, config=None, tol=rf.DEFAULT_TOL, trace=None):
        return [alone([rho], channel, config, tol, trace)[0] for rho in states]

    monkeypatch.setattr(roof, "_solve_states", one_at_a_time)
    monkeypatch.setattr(verify, "_solve_states", one_at_a_time)
    assert cli.main(list(op.argv)) == 0
    assert capsys.readouterr().out == stacked
