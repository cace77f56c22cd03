"""In-memory span tracing around the package's layer boundaries.

:class:`Tracer` wraps the traced functions of ``roofentropy`` from outside:
every module attribute bound to a traced function is swapped for a
recording wrapper, and classes get their ``__init__`` wrapped in place so
``isinstance`` keeps working.  Spans (name, start, end, parent, op) stay in
flat arrays until :meth:`Tracer.save` writes them out; nothing inside the
package is edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

# metric name -> (module, attribute path).  A path with a dot is a class
# attribute; a bare class name traces construction.
TRACED = {
    "cli.main": ("cli", "main"),
    "jsonio.density_from_json": ("jsonio", "density_from_json"),
    "jsonio.channel_from_json": ("jsonio", "channel_from_json"),
    "jsonio.roof_result_to_json": ("jsonio", "roof_result_to_json"),
    "verify.run_verify": ("verify", "run_verify"),
    "accinfo.benatti_bracket": ("accinfo", "benatti_bracket"),
    "accinfo.holevo_check": ("accinfo", "holevo_check"),
    "accinfo.measurement_mutual_info": ("accinfo", "measurement_mutual_info"),
    "oracles.qubit_R": ("oracles", "qubit_R"),
    "oracles.block_example_decomposition": ("oracles", "block_example_decomposition"),
    "roof.solve_R": ("roof", "solve_R"),
    "roof.affinity_certificate": ("roof", "affinity_certificate"),
    "roof.objective": ("roof", "_Evaluator.objective_many"),
    "roof.gradient": ("roof", "_fd_gradient"),
    "roof.retract": ("roof", "_retract"),
    "ensembles.mutual_entropy": ("ensembles", "mutual_entropy"),
    "ensembles.shorten": ("ensembles", "shorten"),
    "channels.reduce_state": ("channels", "reduce_state"),
    "channels.block_entropy": ("channels", "block_entropy"),
    "channels.BlockDensity": ("channels", "BlockDensity"),
    "states.DensityOperator": ("states", "DensityOperator"),
}

CLI_COMMANDS = ("roof", "accinfo", "block-oracle", "verify")
PACKAGE = "roofentropy"


class RestartLog:
    """File-like sink for ``solve_R(trace=...)`` that timestamps each line."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.start = clock()
        self.lines = []

    def write(self, text: str) -> int:
        now = self.clock()
        for line in text.splitlines():
            if line.strip():
                self.lines.append((now, json.loads(line)))
        return len(text)

    def flush(self):
        pass

    def restart_seconds(self) -> list:
        stamps = [self.start] + [t for t, _ in self.lines]
        return [b - a for a, b in zip(stamps, stamps[1:])]


def _resolve(module: str, path: str):
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    owner = mod
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, last):
        return None, None, None
    return owner, last, getattr(owner, last)


class Tracer:
    """Records spans while installed; aggregates them per traced name.

    ``clock`` stamps the spans; the benchmark passes one that stands still
    while its calibration kernel runs.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.name_at: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.op_at: array = array("i")
        self.isometries = 0
        self.restart_logs: list = []
        self.op = -1
        self._stack: list = []
        self._undo: list = []
        self.missing: list = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for metric, (module, path) in TRACED.items():
            owner, attr, original = _resolve(module, path)
            if original is None:
                self.missing.append(metric)
                continue
            self.names.append(metric)
            index = len(self.names) - 1
            if inspect.isclass(original):
                init = original.__init__
                self._patch(original, "__init__", init, self._wrap(index, init))
                continue
            wrapper = self._wrap(index, original, metric)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, fn, metric: str = ""):
        counts_isometries = metric == "roof.objective"
        sink_trace = metric == "roof.solve_R" and "trace" in inspect.signature(fn).parameters
        if sink_trace:
            signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sink_trace:
                bound = signature.bind_partial(*args, **kwargs)
                log = bound.arguments.get("trace")
                if log is None:
                    log = bound.arguments["trace"] = RestartLog(self.clock)
                    args, kwargs = bound.args, bound.kwargs
                if isinstance(log, RestartLog):
                    self.restart_logs.append((self.op, log))
            if counts_isometries:
                shape = getattr(args[1] if len(args) > 1 else kwargs["isometries"], "shape", ())
                self.isometries += shape[0] if len(shape) == 3 else 1
            at = len(self.start)
            self.name_at.append(index)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_at.append(self.op)
            self.start.append(self.clock())
            self.end.append(0.0)
            self._stack.append(at)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[at] = self.clock()
                self._stack.pop()

        return wrapper

    # -- results --------------------------------------------------------------

    def reset(self):
        for arr in (self.name_at, self.start, self.end, self.parent, self.op_at):
            del arr[:]
        self.isometries = 0
        self.restart_logs = []

    def layer_metrics(self) -> dict:
        """``L.F.calls``, ``L.F.s`` (outermost spans) and ``L.F.self_s``."""
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(len(self.start)):
            n = self.name_at[i]
            dur = self.end[i] - self.start[i]
            calls[n] += 1
            self_s[n] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_at[p] != n:
                p = self.parent[p]
            if p < 0:
                total[n] += dur
        out = {}
        for n, metric in enumerate(self.names):
            out[f"{metric}.calls"] = (calls[n], "count")
            out[f"{metric}.s"] = (total[n], "s")
            out[f"{metric}.self_s"] = (self_s[n], "s")
        return out

    def counters(self, op_commands: dict) -> dict:
        restarts = [entry for _, log in self.restart_logs for _, entry in log.lines]
        seconds = [s for _, log in self.restart_logs for s in log.restart_seconds()]
        out = {
            "roof.objective.isometries": (self.isometries, "count"),
            "roof.restarts": (len(restarts), "count"),
            "roof.restarts_converged": (sum(bool(e["converged"]) for e in restarts), "count"),
            "roof.iterations": (sum(int(e["iterations"]) for e in restarts), "count"),
            "roof.restart_s.p50": (statistics.median(seconds) if seconds else 0.0, "s"),
        }
        solves = dict.fromkeys(CLI_COMMANDS, 0)
        for op, _ in self.restart_logs:
            command = op_commands.get(op)
            if command in solves:
                solves[command] += 1
        for command, count in solves.items():
            out[f"cli.{command}.solves"] = (count, "count")
        return out

    def save(self, path: Path):
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_at[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_at[i]}\n")
