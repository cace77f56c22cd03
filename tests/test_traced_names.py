"""Every layer the benchmark traces names a function or class of the package.

``perfbench/tracing.py`` maps each per-layer metric to a module attribute,
some of them private (``roof._fd_gradient``, ``roof._retract``,
``roof._Evaluator.objective_many``).  A rename that leaves the table behind
drops that metric from the benchmark, so this checks the table against the
package.  The benchmark's files are only read.
"""

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    """``perfbench/tracing.py``'s ``TRACED`` table, loaded without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    with contextlib.ExitStack() as stack:
        stack.callback(setattr, sys, "dont_write_bytecode", sys.dont_write_bytecode)
        sys.dont_write_bytecode = True
        spec.loader.exec_module(module)
    return module.PACKAGE, module.TRACED


PACKAGE, TRACED = _traced()


def test_table_covers_the_solver_kernels():
    assert {"roof.gradient", "roof.retract", "roof.objective"} <= set(TRACED)


@pytest.mark.parametrize("metric", sorted(TRACED))
def test_traced_name_resolves(metric):
    module, path = TRACED[metric]
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{metric}: {PACKAGE}.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)
