"""Seeded benchmark of the roofentropy solver, library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload qubit-sweep --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a fresh process.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is the full report
with sample counts and the environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Small matrices only: extra BLAS threads add contention, not speed.  Set
# before numpy loads; the setting is recorded with every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import CLI_COMMANDS, RestartLog, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS = 5
BASELINE = HERE / "baseline.json"
OUT_DIR = ROOT / ".perfbench"

H_FLOOR = -1e-8          # value_H below this is an invalid answer
ENSEMBLE_TOL = 1e-7      # reconstruction error and purity defect
BASELINE_SLACK = 1e-9    # ROADMAP aim 1: value_R may not exceed the stored seed value by more
QUBIT_TOL = 1e-5         # |value_R - qubit_R|, as acceptance criterion 1
BLOCK_TOL = 1e-4         # value_R - block-oracle candidate, as acceptance criterion 5

# End-to-end metrics the last line carries with --trace 0; the full report
# line carries every metric.
GATED = ("wall_s", "setup_s", "peak_rss_mb")


@dataclasses.dataclass
class Outcome:
    """What one execution of an op produced."""

    seconds: float
    text: str = ""
    code: int = 0
    error: str = ""
    log: RestartLog | None = None


def _hermitian(rng, shape) -> np.ndarray:
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return h + h.conj().swapaxes(-1, -2)


def small_kernel():
    """Many calls on tiny batches: interpreter and per-call overhead, like a qubit solve."""
    rng = np.random.default_rng(0)  # fixed inputs, unrelated to the workload seed
    a = rng.standard_normal((16, 4, 2)) + 1j * rng.standard_normal((16, 4, 2))
    h = _hermitian(rng, (16, 3, 3))

    def kernel():
        for _ in range(20):
            q, _r = np.linalg.qr(a)
            w = np.linalg.eigvalsh(h)
            x = np.einsum("bij,bij->b", q, q.conj()).real + w[:, 0] ** 2
            float((x * np.log(x)).sum()) + len({k: k * k for k in range(30)})

    return kernel


def wide_kernel():
    """Half a step of a d = 5 solve: batched QR of 125 25x5 isometries, Kraus product, entropies."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((125, 25, 5)) + 1j * rng.standard_normal((125, 25, 5))
    k = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    g = _hermitian(rng, (125 * 25, 2, 2))

    def kernel():
        q, _r = np.linalg.qr(a)
        y = q @ k
        nu = y.real**2 + y.imag**2 + 1e-3
        w = np.linalg.eigvalsh(g)
        float((nu * np.log(nu)).sum()) + float(np.abs(w).sum())

    return kernel


CALIBRATION_INTERVAL_S = 0.1

# kernel name -> (factory, reference seconds of one run).
# Each workload is calibrated with the kernel that tracked its own pass times
# best on the 2-core machine the baseline was made on; with the other kernel
# the spread of its pass times was 1.1 to 2.4 times as large.
KERNELS = {
    "small": (small_kernel, 0.002),
    "wide": (wide_kernel, 0.004),
}


class Calibration:
    """Machine-speed probe that never touches the package under test.

    On a shared machine the speed of the whole box drifts by tens of percent
    within a minute, and a 30 s run can hold a single pass.  So while a pass
    runs, an interval timer interrupts it every ``CALIBRATION_INTERVAL_S`` and
    runs a fixed numpy kernel (see ``KERNELS``); the kernel's own time is
    left out of the op it interrupted, through :meth:`now`.  The mean kernel
    time over a pass samples the machine's speed evenly over exactly that
    pass, so the pass's times are rescaled to reference seconds:
    ``seconds * reference / mean kernel time in the pass``.
    """

    def __init__(self, kernel: str):
        factory, self.reference = KERNELS[kernel]
        self.kernel = factory()
        self.samples: list = []
        self.spent = 0.0

    def tick(self, *_signal):
        start = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def now(self) -> float:
        """A clock that stands still while the kernel runs."""
        return time.perf_counter() - self.spent

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first: int = 0) -> float:
        """Reference seconds per second, from the samples after ``first``."""
        return self.reference / statistics.fmean(self.samples[first:])


# --- importing the package under test -------------------------------------------


def import_package():
    """Import ``roofentropy`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "roofentropy" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'roofentropy'}")
    sys.path.insert(0, str(SRC))
    import roofentropy
    import roofentropy.cli  # noqa: F401

    if Path(roofentropy.__file__).resolve().parent != SRC / "roofentropy":
        raise SystemExit(f"error: imported roofentropy from {roofentropy.__file__}")
    return roofentropy


def import_seconds() -> float:
    """Wall time of ``import roofentropy`` in a fresh interpreter."""
    code = "import time;t=time.perf_counter();import roofentropy;print(time.perf_counter()-t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# --- ops ----------------------------------------------------------------------------


class Runner:
    """Turns generated ops into library objects and executes them."""

    def __init__(self, rf, ops, clock=time.perf_counter):
        self.rf = rf
        self.ops = ops
        self.clock = clock
        self.prepared = [self._prepare(op) for op in ops]

    def _prepare(self, op):
        rf = self.rf
        if op.kind == "cli":
            return None
        rho = rf.DensityOperator(op.state)
        if op.psi is not None:
            channel = rf.block_compression(rf.PureState(op.psi))
        else:
            channel = rf.ReductionChannel(op.state.shape[0], op.block_dims, op.kraus)
        return rho, channel, rf.SolverConfig(**dict(op.solver))

    def execute(self, index: int) -> Outcome:
        op = self.ops[index]
        rf = self.rf
        out, err = io.StringIO(), io.StringIO()
        log = RestartLog(self.clock) if op.kind == "solve" else None
        start = self.clock()
        try:
            if op.kind == "cli":
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = rf.cli.main(list(op.argv))
                text = out.getvalue()
            else:
                rho, channel, cfg = self.prepared[index]
                result = rf.solve_R(rho, channel, cfg, trace=log)
                text = json.dumps(rf.round_floats(rf.roof_result_to_json(result)), sort_keys=True)
                code = 0
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return Outcome(self.clock() - start, error=f"{type(exc).__name__}: {exc}", log=log)
        return Outcome(self.clock() - start, text=text, code=code,
                       error=err.getvalue().strip() if code else "", log=log)

    def warm_up(self):
        """Touch the code paths once, cheaply: a two-iteration solve or CLI call."""
        rf = self.rf
        op = self.ops[0]
        if op.kind == "cli":
            with contextlib.redirect_stdout(io.StringIO()):
                rf.cli.main(["entropy", "--state", op.argv[op.argv.index("--state") + 1]])
        else:
            rho, channel, _ = self.prepared[0]
            rf.solve_R(rho, channel, rf.SolverConfig(restarts=1, max_iters=2))


def run_passes(runner: Runner, seconds: float, calibration: Calibration,
               tracer: Tracer | None = None, after_pass=None):
    """Run whole passes over the op list while the next one fits in ``seconds``.

    The first pass always runs, so a pass longer than ``seconds`` still
    measures once.  The calibration kernel samples the machine's speed on a
    timer during the pass and once after it, outside the op timings; each
    op's seconds are then rescaled to reference seconds with that pass's
    samples.  Returns ``(summed op seconds, outcomes)`` per pass;
    ``after_pass`` is called with the number and the scale of each pass.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        first = len(calibration.samples)
        start = time.perf_counter()
        outcomes = []
        with calibration.sampling():
            for i in range(len(runner.ops)):
                if tracer is not None:
                    tracer.op = i
                outcomes.append(runner.execute(i))
        end = time.perf_counter()
        calibration.tick()
        scale = calibration.scale(first)
        for outcome in outcomes:
            outcome.seconds *= scale
        passes.append((sum(o.seconds for o in outcomes), outcomes))
        if after_pass is not None:
            after_pass(len(passes) - 1, scale)
        if end - begin + (end - start) > seconds:
            return passes


# --- checks -------------------------------------------------------------------------


def _matrix(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _ensemble_defect(ensemble: dict, state: np.ndarray) -> tuple:
    """(reconstruction error, worst purity defect) of a reported ensemble."""
    weights = np.asarray(ensemble["weights"], dtype=float)
    members = [_matrix(s) for s in ensemble["states"]]
    mix = sum(w * m for w, m in zip(weights, members))
    purity = max(abs(float(np.trace(m @ m).real) - 1.0) for m in members)
    return float(np.max(np.abs(mix - state))), purity


class Checker:
    """Per-op correctness checks; references are computed once per op."""

    def __init__(self, rf, workload: str, seed: int, ops, baseline: dict):
        self.rf = rf
        self.ops = ops
        self.stored = baseline.get(workload, {}).get(str(seed), {})
        self.first_text: dict = {}
        self.references: dict = {}
        self.excess: dict = {}

    def reference(self, index: int) -> float:
        if index not in self.references:
            op, rf = self.ops[index], self.rf
            if op.reference == "qubit":
                value = rf.qubit_R(complex(op.state[0, 1]))
            else:
                rho = rf.DensityOperator(op.state)
                data = rf.block_example_analyze(rho, rf.PureState(op.psi))
                value = rf.block_example_decomposition(data, rho).candidate
            self.references[index] = value
        return self.references[index]

    def check(self, index: int, outcome: Outcome) -> list:
        """Reasons the op failed; empty when it passed."""
        op = self.ops[index]
        if outcome.code != 0:
            return [f"exit code {outcome.code}: {outcome.error}"]
        if outcome.error:
            return [f"raised {outcome.error}"]
        try:
            report = json.loads(outcome.text)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        reasons = []
        first = self.first_text.setdefault(index, outcome.text)
        if outcome.text != first:
            reasons.append("re-run is not byte-identical")
        try:
            values_h, ensembles, value_r = answers(op, report)
            failed_checks = report["counts"]["failed"] if op.command == "verify" else 0
        except (KeyError, TypeError) as exc:
            return reasons + [f"report lacks {exc}"]
        if failed_checks:
            reasons.append(f"verify reports {failed_checks} failed checks")
        for h in values_h:
            if h < H_FLOOR:
                reasons.append(f"value_H {h!r} < {H_FLOOR}")
        for ensemble in ensembles:
            error, purity = _ensemble_defect(ensemble, op.state)
            if error > ENSEMBLE_TOL:
                reasons.append(f"ensemble misses the state by {error:.3e}")
            if purity > ENSEMBLE_TOL:
                reasons.append(f"ensemble member not pure: defect {purity:.3e}")
        if value_r is not None and op.reference is not None:
            excess = value_r - self.reference(index)
            self.excess[index] = excess
            if op.reference == "qubit" and abs(excess) > QUBIT_TOL:
                reasons.append(f"value_R - qubit_R = {excess:.3e}")
            if op.reference == "block" and excess > BLOCK_TOL:
                reasons.append(f"value_R - block candidate = {excess:.3e}")
        stored = self.stored.get(op.name)
        if value_r is not None and stored is not None and value_r - stored > BASELINE_SLACK:
            reasons.append(f"value_R {value_r!r} above stored seed value {stored!r}")
        return reasons


def answers(op, report: dict) -> tuple:
    """The value_H numbers, ensembles and value_R (or None) a report carries."""
    if op.kind == "solve":
        return [report["value_H"]], [report["optimal_ensemble"]], report["value_R"]
    if op.command == "roof":
        result = report["result"]
        return [result["value_H"]], [result["optimal_ensemble"]], result["value_R"]
    if op.command == "block-oracle":
        solver = report["solver"]
        return [solver["value_H"]], [report["decomposition"]["ensemble"]], solver["value_R"]
    if op.command == "accinfo":
        return [report["bracket"]["upper"], report["holevo"]["channel_entropy"]], [], None
    return [], [], None


# --- metrics --------------------------------------------------------------------------


def tail(values: list):
    """Highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= 10:
            return ordered[rank - 1], q
    return None, None


def metric(value, unit: str, n: int, **extra) -> dict:
    return {"value": value, "unit": unit, "n": n, **extra}


def end_to_end(workload, runner, passes, setup, checker) -> dict:
    """Every end-to-end metric.

    Times are in reference seconds (see :class:`Calibration`), except
    ``setup_s``: set-up is mostly process start and imports from disk, which
    the kernel does not track, so it stays in plain seconds.
    """
    op_seconds = [o.seconds for _, outcomes in passes for o in outcomes]
    tail_value, tail_q = tail(op_seconds)
    logs = [o.log for _, outcomes in passes[:1] for o in outcomes if o.log is not None]
    restarts = [entry for log in logs for _, entry in log.lines]
    excess = list(checker.excess.values())
    out = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "wall_s": metric(statistics.median(w for w, _ in passes), "s", len(passes),
                         passes=[w for w, _ in passes]),
        "op_s.p50": metric(statistics.median(op_seconds), "s", len(op_seconds)),
        "op_s.tail": metric(tail_value, "s", len(op_seconds), percentile=tail_q),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "oracle_excess_max": metric(max(excess) if excess else None, "nats", len(excess)),
        "restarts_converged_frac": metric(
            sum(bool(e["converged"]) for e in restarts) / len(restarts) if restarts else None,
            "1", len(restarts)),
    }
    if workload == "cli-commands":
        for command in CLI_COMMANDS:
            times = [o.seconds for _, outcomes in passes
                     for o, op in zip(outcomes, runner.ops) if op.command == command]
            out[f"cmd.{command.replace('-', '_')}_s"] = metric(statistics.median(times), "s", len(times))
    return out


# --- environment ------------------------------------------------------------------------


def environment(rf) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "roofentropy": getattr(rf, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": commit,
    }


# --- one workload -------------------------------------------------------------------------


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}


def set_up(workload, args, rf, calibration: Calibration):
    """Import, generate and warm up ``SETUP_ROUNDS`` times; returns (times, runner)."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        runner = Runner(rf, workload.build(args.seed, args.tiny), calibration.now)
        runner.warm_up()
        times.append(import_seconds() + time.perf_counter() - start)
    return times, runner


def traced_passes(args, runner: Runner, checker: Checker, calibration: Calibration) -> tuple:
    """Traced passes; per-layer metrics and counters come from the first one."""
    tracer = Tracer(calibration.now)
    first = {}

    def after_pass(number, scale):
        if number == 0:
            tracer.op = -1
            for i, op in enumerate(runner.ops):
                if op.reference is not None:
                    checker.reference(i)  # traced, so the oracle layer shows
            commands = {i: op.command for i, op in enumerate(runner.ops)}
            for name, (value, unit) in {**tracer.layer_metrics(), **tracer.counters(commands)}.items():
                first[name] = (value * scale if unit == "s" else value, unit)
            tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.reset()

    tracer.install()
    try:
        passes = run_passes(runner, args.seconds / 2.0, calibration, tracer, after_pass)
    finally:
        tracer.uninstall()
    return passes, first, tracer.missing


def run_workload(args, rf) -> tuple:
    """Set up, measure and check one workload; returns (report, last line)."""
    workload = WORKLOADS[args.workload]
    calibration = Calibration(workload.kernel)
    setup, runner = set_up(workload, args, rf, calibration)
    ops = runner.ops
    checker = Checker(rf, workload.name, args.seed, ops, {} if args.tiny else load_baseline())
    if args.trace:
        untraced = run_passes(runner, args.seconds / 2.0, calibration)
        passes, per_layer, missing = traced_passes(args, runner, checker, calibration)
        overhead = statistics.median(w for w, _ in passes) / statistics.median(w for w, _ in untraced) - 1.0
        per_layer["trace_overhead_frac"] = (overhead, "1")
        executed = [(n, i, o) for n, (_, outs) in enumerate(untraced + passes)
                    for i, o in enumerate(outs)]
    else:
        passes = run_passes(runner, args.seconds, calibration)
        executed = [(n, i, o) for n, (_, outs) in enumerate(passes) for i, o in enumerate(outs)]
        if len(passes) == 1:
            # one pass repeats nothing: re-run the fastest op for the determinism check
            fastest = min(range(len(ops)), key=lambda i: passes[0][1][i].seconds)
            executed.append(("re-run", fastest, runner.execute(fastest)))
    failures = []
    for number, i, outcome in executed:
        reasons = checker.check(i, outcome)
        if reasons:
            failures.append({"op": ops[i].name, "pass": number, "reasons": reasons})

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "op_seconds": {op.name: statistics.median(o.seconds for n, i, o in executed
                                                  if i == k and n != "re-run")
                       for k, op in enumerate(ops)},
        "calibration": {"kernel": workload.kernel, "reference_s": calibration.reference,
                        "mean_s": metric(statistics.fmean(calibration.samples), "s",
                                         len(calibration.samples))},
        "environment": environment(rf),
        "attempted": len(executed),
        "failed": len(failures),
        "failures": failures,
    }
    if args.trace:
        report["metrics"] = {k: metric(v, u, 1) for k, (v, u) in per_layer.items()}
        report["passes"] = {"untraced": len(untraced), "traced": len(passes)}
        report["not_traced"] = missing
        last = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        report["metrics"] = end_to_end(workload.name, runner, passes, setup, checker)
        last = {k: {"value": report["metrics"][k]["value"], "unit": report["metrics"][k]["unit"]}
                for k in GATED}
        if args.record_baseline and not failures and not args.tiny:
            record_baseline(workload.name, args.seed, checker, passes[0][1])
    result = {"correct": not failures, "attempted": len(executed), "failed": len(failures),
              "metrics": last}
    return report, result


def record_baseline(workload: str, seed: int, checker: Checker, outcomes):
    data = load_baseline()
    values = {}
    for i, outcome in enumerate(outcomes):
        value = answers(checker.ops[i], json.loads(outcome.text))[2]
        if value is not None:
            values[checker.ops[i].name] = value
    data.setdefault(workload, {})[str(seed)] = values
    BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# --- output --------------------------------------------------------------------------------


def format_table(report: dict) -> str:
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"attempted {report['attempted']}  failed {report['failed']}  "
             f"{report['calibration']['kernel']} kernel {report['calibration']['mean_s']['value']:.4g} s "
             f"vs {report['calibration']['reference_s']:g} s (times in reference s)"]
    for name, m in report["metrics"].items():
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = f"  p{m['percentile']}" if m.get("percentile") else ""
        lines.append(f"  {name:<42} {shown:>14} {m['unit']:<6} n={m['n']}{extra}")
    for f in report["failures"][:20]:
        lines.append(f"  FAILED {f['op']} pass {f['pass']}: {'; '.join(f['reasons'])}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        report = json.loads(lines[-2])
        print(format_table(report), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in report["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest instances and budgets, for the benchmark's own tests")
    parser.add_argument("--record-baseline", action="store_true",
                        help=f"store this seed's value_R per op in {BASELINE.name}")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rf = import_package()
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args, rf)
    print(format_table(report))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
