"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from workloads import WORKLOADS

RUN = Path(run.__file__).resolve()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
    "oracle_excess_max": "nats",
    "restarts_converged_frac": "1",
}
CMD_UNITS = {f"cmd.{c}_s": "s" for c in ("roof", "accinfo", "block_oracle", "verify")}


@pytest.fixture(scope="module")
def rf():
    return run.import_package()


def _all(trace: int) -> list:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_tiny_mode_emits_every_end_to_end_metric():
    combined = json.loads(_all(0)[-1])
    assert combined["correct"] and combined["failed"] == 0 and combined["attempted"] > 0
    for workload in WORKLOADS:
        expected = dict(END_TO_END_UNITS, **(CMD_UNITS if workload == "cli-commands" else {}))
        for name, unit in expected.items():
            m = combined["metrics"][f"{workload}/{name}"]
            assert m["unit"] == unit and m["n"] >= 0, (workload, name)
        for spec in SPEC["end_to_end"]:
            m = combined["metrics"][f"{workload}/{spec['name']}"]
            assert m["unit"] == spec["unit"] and m["value"] > 0


def test_tiny_mode_emits_every_per_layer_metric():
    combined = json.loads(_all(1)[-1])
    assert combined["correct"]
    for workload in WORKLOADS:
        for spec in SPEC["per_layer"]:
            m = combined["metrics"][f"{workload}/{spec['name']}"]
            assert m["unit"] == spec["unit"], (workload, spec["name"])
        assert f"{workload}/trace_overhead_frac" in combined["metrics"]


def test_last_line_matches_the_contract(rf):
    args = run.parse_args(["--workload", "qubit-sweep", "--seed", "0", "--seconds", "0", "--tiny"])
    _, result = run.run_workload(args, rf)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_planted_wrong_value_r_counts_as_failed_op(rf, monkeypatch):
    solve = rf.solve_R

    def planted(*args, **kwargs):
        result = solve(*args, **kwargs)
        return dataclasses.replace(result, value_R=result.value_R + 1e-3)

    monkeypatch.setattr(rf, "solve_R", planted)
    args = run.parse_args(["--workload", "qubit-sweep", "--seed", "0", "--seconds", "0", "--tiny"])
    report, result = run.run_workload(args, rf)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert all("qubit_R" in " ".join(f["reasons"]) for f in report["failures"])


def test_value_r_above_stored_seed_value_fails(rf):
    ops = WORKLOADS["highdim"].build(0, True)
    runner = run.Runner(rf, ops)
    outcome = runner.execute(0)
    value = json.loads(outcome.text)["value_R"]
    at_seed = {"highdim": {"0": {ops[0].name: value}}}
    below = {"highdim": {"0": {ops[0].name: value - 1e-6}}}
    assert run.Checker(rf, "highdim", 0, ops, at_seed).check(0, outcome) == []
    reasons = run.Checker(rf, "highdim", 0, ops, below).check(0, outcome)
    assert any("above stored seed value" in r for r in reasons)


def test_rerun_that_differs_fails(rf):
    ops = WORKLOADS["highdim"].build(0, True)
    runner = run.Runner(rf, ops)
    checker = run.Checker(rf, "highdim", 0, ops, {})
    outcome = runner.execute(0)
    assert checker.check(0, outcome) == []
    assert checker.check(0, dataclasses.replace(outcome, text=outcome.text + " ")) == [
        "re-run is not byte-identical"
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    def flat(ops):
        out = []
        for op in ops:
            out.append((op.name, op.argv, op.block_dims, op.solver))
            for a in (op.state, op.psi, *[k for _, k in op.kraus]):
                out.append(None if a is None else np.asarray(a).tobytes())
        return out

    build = WORKLOADS[name].build
    assert flat(build(5, False)) == flat(build(5, False))
    assert flat(build(5, False)) != flat(build(6, False))


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) == (None, None)
    value, q = run.tail([float(x) for x in range(1, 101)])
    assert (value, q) == (90.0, 90)


def test_calibration_kernel_time_is_left_out_of_the_clock():
    calibration = run.Calibration("wide")
    before = calibration.now()
    calibration.tick()
    assert calibration.now() - before < 0.1 * calibration.samples[0]
    assert calibration.scale() == calibration.reference / calibration.samples[0]
