"""The package's public surface: one declaration per name, every name resolves."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import roofentropy
from roofentropy import (
    BlockDensity,
    DensityOperator,
    Ensemble,
    Measurement,
    PureState,
    SolverConfig,
    block_example_analyze,
    diagonal_pinching,
    solve_R,
)

MODULES = ("states", "ensembles", "channels", "roof", "oracles", "accinfo", "jsonio", "verify")

PUBLIC = {
    "__version__",
    "AffinityCertificate", "BenattiBracket", "BlockDecomposition", "BlockDensity",
    "BlockExampleData", "DEFAULT_TOL", "DensityOperator", "Ensemble", "HolevoCheck",
    "KrausTerm", "Measurement", "PureState", "ReductionChannel", "RoofResult",
    "SolverConfig", "Tolerances", "ValidationError", "ZeroEntropyReport",
    "affinity_certificate", "benatti_bracket", "binary_entropy", "block_compression",
    "block_density_to_json", "block_entropy", "block_example_analyze",
    "block_example_decomposition", "channel_from_json", "channel_from_measurement",
    "channel_to_json", "commutative_channel", "convex_sum", "decode_matrix",
    "decode_vector", "decomposition_from_isometry", "density_from_json",
    "diagonal_pinching", "encode_matrix", "encode_vector", "ensemble_from_json",
    "ensemble_from_subalgebra", "ensemble_to_json", "holevo_check", "identity_channel",
    "measurement_mutual_info", "mutual_entropy", "pinching", "pure_ensemble",
    "pure_from_json", "qubit_R", "qubit_R_series", "reduce_state", "relative_entropy",
    "roof_objective", "roof_result_to_json", "round_floats", "run_verify",
    "shannon_entropy", "shorten", "solve_R", "von_neumann_entropy",
    "zero_entropy_structure",
}


def test_top_level_names_are_pinned():
    assert len(PUBLIC) == 62
    assert set(roofentropy.__all__) == PUBLIC


def test_no_name_is_declared_twice():
    assert len(roofentropy.__all__) == len(set(roofentropy.__all__))


def test_top_level_is_the_modules_all():
    declared = ["__version__"]
    for name in MODULES:
        declared += importlib.import_module(f"roofentropy.{name}").__all__
    assert sorted(declared) == sorted(roofentropy.__all__)


def test_import_pulls_in_no_scipy():
    # The package depends on numpy alone, and importing scipy would cost
    # several times what importing the package does; tests may use it.
    src = os.path.dirname(os.path.dirname(roofentropy.__file__))
    probe = ("import sys, roofentropy, roofentropy.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_every_name_resolves():
    for name in roofentropy.__all__:
        assert hasattr(roofentropy, name), name
    for module_name in MODULES:
        module = importlib.import_module(f"roofentropy.{module_name}")
        for name in module.__all__:
            assert getattr(roofentropy, name) is getattr(module, name), (module_name, name)


# Two builds of each from the same content.  The array-holding classes, and
# the results that hold them, compare and hash by identity.
EQUAL_CONTENT = {
    "DensityOperator": lambda: DensityOperator(np.eye(2) / 2),
    "PureState": lambda: PureState([1.0, 0.0]),
    "BlockDensity": lambda: BlockDensity((np.array([[0.5]]), np.array([[0.5]]))),
    "ReductionChannel": lambda: diagonal_pinching(2),
    "Ensemble": lambda: Ensemble([0.5, 0.5], (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
    "Measurement": lambda: Measurement((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
    "BlockExampleData": lambda: block_example_analyze(np.eye(3) / 3, [1.0, 0.0, 0.0]),
    "RoofResult": lambda: solve_R(
        np.eye(2) / 2, diagonal_pinching(2), SolverConfig(restarts=1, max_iters=2)
    ),
}


@pytest.mark.parametrize("name", sorted(EQUAL_CONTENT))
def test_array_holders_compare_and_hash_by_identity(name):
    x, y = EQUAL_CONTENT[name](), EQUAL_CONTENT[name]()
    assert type(x).__name__ == name
    assert x == x
    assert (x == y) is False
    assert (x != y) is True
    assert {x} == {x}
    assert len({x, y}) == 2
