import dataclasses
import inspect
import json

import numpy as np
import pytest

import roofentropy.cli as cli
import roofentropy.verify as verify
from roofentropy import (
    SolverConfig,
    Tolerances,
    ValidationError,
    affinity_certificate,
    benatti_bracket,
    channel_to_json,
    diagonal_pinching,
    encode_matrix,
    run_verify,
)
from roofentropy.cli import main
from roofentropy.sampling import ginibre_density
from roofentropy.verify import VERIFY_SOLVER

LN2 = 0.6931471805599453

MIXED = '[[0.5,0],[0,0.5]]'
RHO = '[[0.6,0.2],[0.2,0.4]]'
DIAG2 = '{"type":"diagonal","dim":2}'
DIAG3 = '[[0.5,0,0],[0,0.3,0],[0,0,0.2]]'
FAST_FLAGS = ["--restarts", "3", "--max-iters", "150"]

SOLVER_FLAGS = ("--seed", "--restarts", "--max-iters", "--max-length")
# Every flag each command reads, besides --format.
READ_FLAGS = {
    "entropy": ("--state", "--tol"),
    "reduce": ("--state", "--channel", "--tol"),
    "mutual": ("--ensemble", "--channel", "--tol"),
    "roof": ("--state", "--channel", "--trace", "--tol", *SOLVER_FLAGS, "--samples"),
    "qubit-oracle": ("--z", "--terms"),
    "block-oracle": ("--state", "--psi", "--solve", "--tol", *SOLVER_FLAGS),
    "accinfo": ("--state", "--projections", "--tol", *SOLVER_FLAGS, "--samples"),
    "verify": (*SOLVER_FLAGS, "--samples"),
}
# The (command, flag) pairs that were registered but read by nothing.
UNREAD_FLAGS = [
    (command, flag)
    for command in ("entropy", "reduce", "mutual", "qubit-oracle", "block-oracle", "verify")
    for flag in ("--tol", *SOLVER_FLAGS, "--samples")
    if flag not in READ_FLAGS[command]
]


def explicit_channel(block=0, **fields):
    """The explicit form of the dim-2 pinching, with fields replaced."""
    data = channel_to_json(diagonal_pinching(2))
    data["kraus"][0]["block"] = block
    return json.dumps(dict(data, **fields))


# (argv, a word the error must name); each exits 1 with empty stdout.
MALFORMED = {
    "dim-string": (("reduce", "--state", RHO, "--channel", '{"type":"diagonal","dim":"two"}'),
                   "dim"),
    "dim-null": (("reduce", "--state", RHO, "--channel", '{"type":"diagonal","dim":null}'), "dim"),
    "dim-fraction": (("reduce", "--state", RHO, "--channel", '{"type":"diagonal","dim":2.7}'),
                     "dim"),
    "input-dim-string": (("reduce", "--state", RHO, "--channel", explicit_channel(input_dim="x")),
                         "input_dim"),
    "block-dims-scalar": (("reduce", "--state", RHO, "--channel", explicit_channel(block_dims=5)),
                          "block_dims"),
    "kraus-scalar": (("reduce", "--state", RHO, "--channel", explicit_channel(kraus=5)), "kraus"),
    "block-string": (("reduce", "--state", RHO, "--channel", explicit_channel(block="a")),
                     "block"),
    "block-fraction": (("reduce", "--state", RHO, "--channel", explicit_channel(block=1.9)),
                       "block"),
    "weights-string": (("mutual", "--ensemble", '{"weights":["a"],"states":[[[1,0],[0,0]]]}',
                        "--channel", DIAG2), "weights"),
    "weights-nan": (("mutual", "--ensemble",
                     '{"weights":[NaN,1.0],"states":[[[1,0],[0,0]],[[0,0],[0,1]]]}',
                     "--channel", DIAG2), "weights"),
    "z-pair-string": (("qubit-oracle", "--z", '[1,"a"]'), "--z"),
    "state-booleans": (("entropy", "--state", "[[true,0],[0,false]]"), "density matrix"),
    "prefix-terms": (("qubit-oracle", "--z", "0.3", "--te", "5"), "--te"),
    "prefix-state-tol-format": (("entropy", "--st", MIXED, "--t", "1e-3", "--f", "table"),
                                "--st"),
}


def run_main(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _strict_json(text):
    """``json.loads`` that rejects ``NaN`` and ``Infinity``, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def run_json(capsys, *argv):
    status, out, err = run_main(capsys, *argv)
    assert status == 0, err
    return json.loads(out)


class TestFlagHelpers:
    def test_tol_must_be_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            cli._tolerances(-1.0)

    def test_tol_spreads_to_all_checks(self):
        t = cli._tolerances(1e-6)
        assert t == Tolerances(1e-6)
        assert t.support == 1e-6 / 10

    def test_solver_overrides(self):
        argv = ["roof", "--seed", "5", "--restarts", "2", "--max-iters", "50"]
        cfg = cli._solver_config(cli._build_parser().parse_args(argv))
        assert (cfg.seed, cfg.restarts, cfg.max_iters) == (5, 2, 50)
        assert cfg.max_length == SolverConfig().max_length


def _registered_flags():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


class TestFlags:
    def test_each_command_registers_what_it_reads(self):
        registered = _registered_flags()
        assert registered == {c: {*flags, "--format"} for c, flags in READ_FLAGS.items()}
        assert sum(len(flags) for flags in registered.values()) == 48
        assert len(UNREAD_FLAGS) == 23

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag):
        status, out, err = run_main(capsys, command, flag, "1")
        assert status == 1
        assert out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize(
        "command,flag", [(c, f) for c, flags in READ_FLAGS.items() for f in flags]
    )
    def test_read_flag_is_accepted(self, command, flag):
        value = "1" if flag != "--tol" else "1e-6"
        argv = [command, flag] if flag == "--solve" else [command, flag, value]
        ns = cli._build_parser().parse_args(argv)
        assert getattr(ns, flag[2:].replace("-", "_")) not in (None, False)


class TestEntropyCommand:
    def test_maximally_mixed(self, capsys):
        report = run_json(capsys, "entropy", "--state", MIXED)
        assert report["command"] == "entropy"
        assert report["dim"] == 2
        assert report["entropy"] == pytest.approx(LN2, abs=1e-11)
        assert report["spectrum"] == [0.5, 0.5]
        assert report["purity"] == pytest.approx(0.5, abs=1e-12)

    def test_file_input_matches_inline(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(MIXED)
        _, inline_out, _ = run_main(capsys, "entropy", "--state", MIXED)
        _, file_out, _ = run_main(capsys, "entropy", "--state", str(path))
        assert inline_out == file_out

    def test_loose_tolerance_admits_drift(self, capsys):
        drifted = '[[0.5000005,0],[0,0.5]]'
        status, _, err = run_main(capsys, "entropy", "--state", drifted)
        assert status == 1
        assert "trace" in err
        status, out, _ = run_main(capsys, "entropy", "--state", drifted, "--tol", "1e-5")
        assert status == 0
        assert json.loads(out)["entropy"] == pytest.approx(LN2, abs=1e-5)

    def test_table_format(self, capsys):
        status, out, _ = run_main(capsys, "entropy", "--state", MIXED, "--format", "table")
        assert status == 0
        assert "entropy" in out
        assert "0.69314718056" in out
        assert "{" not in out


class TestReduceCommand:
    def test_diagonal_blocks(self, capsys):
        report = run_json(capsys, "reduce", "--state", RHO, "--channel", DIAG2)
        assert report["block_dims"] == [1, 1]
        assert report["probabilities"] == pytest.approx([0.6, 0.4], abs=1e-11)
        assert report["entropy"] == pytest.approx(0.6730116670092565, abs=1e-11)

    def test_tol_reaches_block_compression_psi(self, capsys):
        # |psi| - 1 = 1e-7: outside the default 1e-9, inside --tol 1e-5.
        channel = '{"type":"block_compression","psi":[1.0000001,0,0]}'
        argv = ["reduce", "--state", DIAG3, "--channel", channel]
        status, out, err = run_main(capsys, *argv)
        assert status == 1 and out == "" and "state vector norm" in err
        report = run_json(capsys, *argv, "--tol", "1e-5")
        assert report["block_dims"] == [2, 1]
        assert report["probabilities"] == pytest.approx([0.5, 0.5], abs=1e-12)


class TestMutualCommand:
    def test_orthogonal_bits(self, capsys):
        ensemble = json.dumps(
            {
                "weights": [0.5, 0.5],
                "states": [
                    [[1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 1.0]],
                ],
            }
        )
        report = run_json(capsys, "mutual", "--ensemble", ensemble, "--channel", DIAG2)
        assert report["length"] == 2
        assert report["mutual_entropy"] == pytest.approx(LN2, abs=1e-11)
        assert report["form_difference"] == pytest.approx(0.0, abs=1e-10)

    def test_tol_governs_the_mixture(self, capsys):
        # trace 1.00005: inside --tol 1e-3, so the mixture of two copies is too
        drifted = [[0.40005, 0, 0], [0, 0.35, 0], [0, 0, 0.25]]
        ensemble = json.dumps({"weights": [0.5, 0.5], "states": [drifted, drifted]})
        argv = ["mutual", "--ensemble", ensemble, "--channel", '{"type":"diagonal","dim":3}']
        status, out, err = run_main(capsys, *argv)
        assert status == 1 and out == "" and "trace" in err
        report = run_json(capsys, *argv, "--tol", "1e-3")
        assert report["length"] == 2
        assert report["mutual_entropy"] == pytest.approx(0.0, abs=1e-12)
        assert report["form_difference"] == pytest.approx(0.0, abs=1e-10)


    def test_member_below_the_support_cutoff(self, capsys):
        # The 1e-12 member lies where the reduced mixture's eigenvalue is 1e-12,
        # below the 1e-10 support cutoff, so its relative entropy is infinite;
        # its term is at most -p ln p, and the relative form skips it.
        ensemble = json.dumps(
            {"weights": [0.999999999999, 1e-12], "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
        )
        status, out, err = run_main(capsys, "mutual", "--ensemble", ensemble, "--channel", DIAG2)
        assert status == 0, err
        report = _strict_json(out)
        assert abs(report["form_difference"]) <= 1e-10


@pytest.mark.parametrize("argv, function, name", [
    (["roof", "--state", RHO, "--channel", DIAG2, *FAST_FLAGS], affinity_certificate, "samples"),
    (["accinfo", "--state", RHO, "--projections", "[[[1,0],[0,0]],[[0,0],[0,1]]]",
      "--restarts", "2", "--max-iters", "20"], benatti_bracket, "measurement_samples"),
    (["verify"], run_verify, "samples"),
], ids=["roof", "accinfo", "verify"])
def test_omitted_samples_is_the_library_default(capsys, monkeypatch, argv, function, name):
    monkeypatch.setattr(verify, "CHECKS", ())
    default = inspect.signature(function).parameters[name].default
    assert run_json(capsys, *argv) == run_json(capsys, *argv, "--samples", str(default))


class TestRoofCommand:
    def test_pure_state_reports_zero_structure(self, capsys):
        report = run_json(
            capsys, "roof", "--state", "[[1,0],[0,0]]", "--channel", DIAG2, *FAST_FLAGS
        )
        result = report["result"]
        assert abs(result["value_R"]) <= 1e-8
        assert abs(result["value_H"]) <= 1e-8
        assert result["converged"] is True
        assert report["affinity"]["passed"] is True
        assert report["zero_entropy"]["passed"] is True
        assert report["zero_entropy"]["vector_passed"] == [True]

    def test_mixed_state_skips_zero_structure(self, capsys):
        report = run_json(capsys, "roof", "--state", MIXED, "--channel", DIAG2, *FAST_FLAGS)
        assert report["result"]["value_R"] <= 1e-8
        assert report["result"]["value_H"] == pytest.approx(LN2, abs=1e-7)
        assert report["zero_entropy"] is None

    def test_byte_determinism(self, capsys):
        argv = ["roof", "--state", RHO, "--channel", DIAG2, *FAST_FLAGS]
        _, first, _ = run_main(capsys, *argv)
        _, second, _ = run_main(capsys, *argv)
        assert first == second

    def test_tol_floor(self, capsys):
        # Below 1e-12 a tolerance is near the package's own rounding, and the
        # checks would fail on numbers the command computed itself.
        state = json.dumps(encode_matrix(ginibre_density(4, np.random.default_rng(3)).matrix))
        argv = ["roof", "--state", state, "--channel", '{"type":"diagonal","dim":4}',
                "--restarts", "2", "--max-iters", "20", "--samples", "2", "--tol"]
        status, out, err = run_main(capsys, *argv, "1e-13")
        assert (status, out) == (1, "")
        assert "--tol must be finite, positive and at least 1e-12" in err
        report = run_json(capsys, *argv, "1e-12")
        assert 0.0 <= report["result"]["value_R"] <= report["result"]["reduced_entropy"]

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_json(
            capsys, "roof", "--state", RHO, "--channel", DIAG2,
            "--restarts", "2", "--max-iters", "100", "--trace", str(path),
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            entry = json.loads(line)
            assert entry["restart"] == i
            assert {"value", "iterations", "converged"} <= entry.keys()


class TestQubitOracleCommand:
    def test_frozen_value(self, capsys):
        report = run_json(capsys, "qubit-oracle", "--z", "0.3")
        assert report["value"] == pytest.approx(0.3250829733914482, abs=1e-11)
        assert report["magnitude"] == pytest.approx(0.3, abs=1e-12)
        assert "series" not in report

    def test_series_sits_above(self, capsys):
        report = run_json(capsys, "qubit-oracle", "--z", "0.3", "--terms", "50")
        series = report["series"]
        assert series["terms"] == 50
        assert series["difference"] >= 0
        assert series["value"] == pytest.approx(report["value"], abs=1e-10)

    def test_complex_literal(self, capsys):
        report = run_json(capsys, "qubit-oracle", "--z", "0.3j")
        assert report["z"] == pytest.approx([0.0, 0.3], abs=1e-12)
        assert report["value"] == pytest.approx(0.3250829733914482, abs=1e-11)

    def test_pair_form(self, capsys):
        report = run_json(capsys, "qubit-oracle", "--z", "[0.0, 0.3]")
        assert report["value"] == pytest.approx(0.3250829733914482, abs=1e-11)

    def test_out_of_domain_exits_one(self, capsys):
        status, _, err = run_main(capsys, "qubit-oracle", "--z", "0.7")
        assert status == 1
        assert "1/2" in err


class TestBlockOracleCommand:
    STATE = '[[0.4,0,0.15],[0,0.3,0.1],[0.15,0.1,0.3]]'

    def test_analysis_and_decomposition(self, capsys):
        report = run_json(capsys, "block-oracle", "--state", self.STATE, "--psi", "[0,0,1]")
        analysis = report["analysis"]
        assert analysis["distinguished_weight"] == pytest.approx(0.3, abs=1e-11)
        assert analysis["coupling"] == pytest.approx(0.25, abs=1e-11)
        assert analysis["eigenvalues"] == pytest.approx([0.3, 0.4], abs=1e-11)
        assert analysis["overlaps"] == pytest.approx([0.1, 0.15], abs=1e-11)
        assert analysis["mu_plus"] == pytest.approx(0.9330127018922193, abs=1e-11)
        dec = report["decomposition"]
        assert dec["candidate"] == pytest.approx(0.24577536666847116, abs=1e-11)
        assert dec["degenerate"] is False
        assert dec["length"] == 4

    def test_psi_off_unit_norm_within_tol(self, capsys):
        # |psi| - 1 = 2e-10 passes --psi's check; a channel built from psi
        # itself missed Kraus completeness by 4e-10.
        report = run_json(capsys, "block-oracle", "--state", DIAG3, "--psi", "[1.0000000002,0,0]")
        assert report["analysis"]["distinguished_weight"] == 0.5
        assert report["analysis"]["coupling"] == 0.0
        assert report["decomposition"]["ensemble"]["weights"] == [0.2, 0.3, 0.5]

    def test_construction_failure_exits_one(self, capsys):
        # z = 0.25 is inside 1/2, but direction 1's weights leave the simplex.
        state = '[[0.5,0.05,0.2],[0.05,0.4,0],[0.2,0,0.1]]'
        status, out, err = run_main(capsys, "block-oracle", "--state", state, "--psi", "[1,0,0]")
        assert status == 1 and out == ""
        assert err.startswith("error: construction failure")

    def test_solve_flag_reports_gap(self, capsys):
        report = run_json(
            capsys, "block-oracle", "--state", self.STATE, "--psi", "[0,0,1]",
            "--solve", *FAST_FLAGS,
        )
        solver = report["solver"]
        assert solver["value_R"] <= report["decomposition"]["candidate"] + 1e-6
        assert solver["candidate_minus_solver"] >= -1e-6


class TestAccinfoCommand:
    def test_qubit_bracket(self, capsys):
        report = run_json(
            capsys, "accinfo", "--state", RHO,
            "--projections", "[[[1,0],[0,0]],[[0,0],[0,1]]]",
            "--samples", "8", "--restarts", "4", "--max-iters", "200",
        )
        bracket = report["bracket"]
        assert bracket["samples"] == 12
        assert bracket["passed"] is True
        assert bracket["lower"] == pytest.approx(0.482506987684, abs=1e-9)
        assert bracket["upper"] == pytest.approx(0.49956897502018127, abs=1e-6)
        holevo = report["holevo"]
        assert holevo["passed"] is True
        assert holevo["state_entropy"] == pytest.approx(0.5895144857350482, abs=1e-11)

    def test_tol_reaches_the_canonical_ensemble(self, capsys):
        # Trace 1.0005 is inside --tol 1e-3, and so are the canonical members
        # and weights built from the state.
        status, _, err = run_main(
            capsys, "accinfo", "--tol", "1e-3", "--state", "[[0.5005,0.1],[0.1,0.5]]",
            "--projections", "[[[1,0],[0,0]],[[0,0],[0,1]]]",
            "--restarts", "2", "--max-iters", "20", "--samples", "2",
        )
        assert status == 0, err

    def test_bad_projections_payload(self, capsys):
        status, _, err = run_main(
            capsys, "accinfo", "--state", RHO, "--projections", "{}"
        )
        assert status == 1
        assert "projections" in err

    def test_negative_samples_rejected(self, capsys):
        status, out, err = run_main(
            capsys, "accinfo", "--state", RHO,
            "--projections", "[[[1,0],[0,0]],[[0,0],[0,1]]]", "--samples", "-5",
        )
        assert status == 1
        assert out == ""
        assert "measurement_samples must be >= 0, got -5" in err


class TestVerifyCommand:
    def _stub_report(self, failed):
        return {
            "seed": 0,
            "samples": 1,
            "checks": [],
            "counts": {"total": 25, "passed": 25 - failed, "failed": failed},
        }

    def test_clean_run_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verify", lambda **kw: self._stub_report(0))
        status, out, _ = run_main(capsys, "verify")
        assert status == 0
        assert json.loads(out)["counts"]["failed"] == 0

    def test_failures_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verify", lambda **kw: self._stub_report(2))
        status, out, _ = run_main(capsys, "verify")
        assert status == 2
        assert json.loads(out)["counts"]["failed"] == 2

    def test_flags_reach_the_suite(self, capsys, monkeypatch):
        seen = {}

        def spy(seed, samples, solver):
            seen.update(seed=seed, samples=samples, solver=solver)
            return self._stub_report(0)

        monkeypatch.setattr(cli, "run_verify", spy)
        run_main(capsys, "verify", "--seed", "7", "--samples", "2", "--restarts", "3")
        assert seen["seed"] == 7
        assert seen["samples"] == 2
        assert seen["solver"].restarts == 3
        assert seen["solver"].max_iters == 250

    def test_solver_flag_overrides_only_its_field(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", ())
        report = run_json(capsys, "verify", "--seed", "7", "--max-iters", "20")
        expected = dataclasses.replace(VERIFY_SOLVER, seed=7, max_iters=20)
        assert report["solver"] == dataclasses.asdict(expected)
        assert set(report["solver"]) == {"max_length", "restarts", "seed", "max_iters"}
        assert report["solver"]["restarts"] == VERIFY_SOLVER.restarts
        report = run_json(capsys, "verify", "--seed", "3")
        assert report["solver"] == dataclasses.asdict(dataclasses.replace(VERIFY_SOLVER, seed=3))


class TestErrorPaths:
    def test_invalid_state_exits_one(self, capsys):
        status, out, err = run_main(capsys, "entropy", "--state", "[[1,0],[0,0.5]]")
        assert status == 1
        assert out == ""
        assert err.startswith("error:")

    def test_non_finite_input_exits_one(self, capsys):
        for argv in (
            ("entropy", "--state", "[[NaN,0],[0,1]]"),
            ("qubit-oracle", "--z", "nan"),
            ("qubit-oracle", "--z", "[0.1, NaN]"),
            ("accinfo", "--state", RHO, "--projections", "[[[NaN,0],[0,0]],[[0,0],[0,1]]]"),
        ):
            status, out, err = run_main(capsys, *argv)
            assert status == 1
            assert out == ""
            assert "non-finite" in err or "not finite" in err

    def test_non_finite_tol_exits_one(self, capsys):
        # A NaN tolerance used to pass every check: this unnormalized,
        # non-PSD "state" reported entropy -0.608 and purity 2.5.
        bad = "[[[1.5,0],[0,0]],[[0,0],[-0.5,0]]]"
        for tol in ("nan", "inf", "-1"):
            status, out, err = run_main(capsys, "entropy", "--state", bad, "--tol", tol)
            assert status == 1
            assert out == ""
            assert "--tol" in err

    def test_negative_seed_exits_one(self, capsys):
        for argv in (
            ("roof", "--state", RHO, "--channel", DIAG2, "--seed", "-3"),
            ("verify", "--seed", "-1"),
            ("verify", "--seed", "-1", "--restarts", "1"),
        ):
            status, out, err = run_main(capsys, *argv)
            assert status == 1
            assert out == ""
            assert err.startswith("error:") and "seed" in err

    def test_missing_file(self, capsys):
        status, _, err = run_main(capsys, "entropy", "--state", "/no/such/file.json")
        assert status == 1
        assert "cannot read file" in err

    def test_unwritable_trace_exits_one(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        status, out, err = run_main(
            capsys, "roof", "--state", RHO, "--channel", DIAG2, "--trace", str(path)
        )
        assert status == 1
        assert out == ""
        assert err.startswith("error: --trace: cannot write file")

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ bad json !")
        status, _, err = run_main(capsys, "entropy", "--state", str(path))
        assert status == 1
        assert "malformed JSON" in err
        assert "line 1" in err

    def test_malformed_inline(self, capsys):
        status, _, err = run_main(capsys, "entropy", "--state", "[[0.5,")
        assert status == 1
        assert "inline value" in err

    def test_undecodable_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(b"\xff\xfe\x00\x80")
        status, out, err = run_main(capsys, "entropy", "--state", str(path))
        assert status == 1
        assert out == ""
        assert err.startswith("error: --state: cannot read file")

    def test_deeply_nested_inline_exits_one(self, capsys):
        status, out, err = run_main(capsys, "entropy", "--state", "[" * 5000 + "]" * 5000)
        assert status == 1
        assert out == ""
        assert err.startswith("error: --state:") and "nested too deeply" in err

    def test_missing_required_input(self, capsys):
        status, _, err = run_main(capsys, "qubit-oracle")
        assert status == 1
        assert "--z" in err

    @pytest.mark.parametrize("argv,named", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_input_exits_one(self, capsys, argv, named):
        status, out, err = run_main(capsys, *argv)
        assert status == 1
        assert out == ""
        assert err.startswith("error:") and named in err

    def test_unknown_command_exits_one(self, capsys):
        status, _, err = run_main(capsys, "frobnicate")
        assert status == 1
        assert err.startswith("error:")

    def test_bad_flag_value_exits_one(self, capsys):
        status, _, err = run_main(capsys, "entropy", "--state", MIXED, "--format", "xml")
        assert status == 1
        assert err.startswith("error:")


class TestRendering:
    def test_json_is_canonical(self, capsys):
        _, out, _ = run_main(capsys, "entropy", "--state", MIXED)
        report = json.loads(out)
        assert out.strip() == json.dumps(
            report, sort_keys=True, indent=2
        )

    def test_table_renders_long_lists_nulls_and_booleans(self, capsys):
        status, out, _ = run_main(
            capsys, "roof", "--state", RHO, "--channel", DIAG2, "--restarts", "13",
            "--max-iters", "5", "--samples", "2", "--format", "table",
        )
        assert status == 0
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert rows["result.restart_values"] == "[13 items]"
        assert rows["zero_entropy"] == "null"
        assert rows["affinity.passed"] == "true"
        assert rows["result.converged"] == "false"

    def test_table_expands_lists_of_objects(self, capsys, monkeypatch):
        # verify's checks are a list of objects: each shows by index, with
        # its name, flag and details, so a failed check can be read off.  The
        # last check is made to fail, so the table has a failed row to show.
        name, _ = verify.CHECKS[-1]
        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:-1] + (
            (name, lambda rng, samples, cfg: (False, {"forced": True})),))
        status, out, _ = run_main(
            capsys, "verify", "--restarts", "1", "--max-iters", "5", "--format", "table"
        )
        rows = dict(line.split(None, 1) for line in out.splitlines())
        report = json.loads(run_main(capsys, "verify", "--restarts", "1", "--max-iters", "5")[1])
        assert status == 2 and "checks" not in rows
        assert rows["counts.total"] == str(len(report["checks"])) == "25"
        for i, check in enumerate(report["checks"]):
            assert rows[f"checks.{i}.name"] == check["name"]
            assert rows[f"checks.{i}.passed"] == json.dumps(check["passed"])
            for key in check["details"]:
                assert f"checks.{i}.details.{key}" in rows
        failed = [v for k, v in rows.items() if k.endswith(".passed") and v == "false"]
        assert len(failed) == int(rows["counts.failed"]) > 0

    def test_table_renders_tuple_fields_as_lists(self, capsys):
        # the zero_entropy section is the fields of ZeroEntropyReport, which are tuples
        status, out, _ = run_main(
            capsys, "roof", "--state", "[[1,0],[0,0]]", "--channel", DIAG2, "--restarts", "2",
            "--max-iters", "30", "--samples", "1", "--format", "table",
        )
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert status == 0
        assert rows["zero_entropy.residuals"] == "[0]"
        assert rows["zero_entropy.vector_passed"] == "[true]"

    def test_table_flattens_nested_keys(self, capsys):
        _, out, _ = run_main(
            capsys, "qubit-oracle", "--z", "0.3", "--terms", "20", "--format", "table"
        )
        assert "series.terms" in out
        assert "series.value" in out


def _key_paths(obj, prefix=""):
    """Dotted path of every key in a report; a list of objects goes by index."""
    if isinstance(obj, list) and obj and all(isinstance(x, dict) for x in obj):
        obj = dict(enumerate(obj))
    if not isinstance(obj, dict):
        return set()
    paths = set()
    for key, value in obj.items():
        paths |= {f"{prefix}{key}"} | _key_paths(value, f"{prefix}{key}.")
    return paths


def _paths(*groups):
    """``"a: b c"`` is ``a``, ``a.b`` and ``a.c``; ``"a"`` is ``a`` alone."""
    out = set()
    for group in groups:
        head, _, tail = group.partition(":")
        out |= {head} | {f"{head}.{key}" for key in tail.split()}
    return out


VERIFY_DETAILS = {
    "entropy_bounds": "max_excess_over_log_dim min_entropy",
    "entropy_unitary_invariance": "max_deviation",
    "klein_inequality": "min_relative_entropy",
    "joint_entropy_identity": "max_deviation",
    "mutual_entropy_nonnegative": "min_mutual_entropy",
    "mutual_entropy_forms_agree": "max_form_difference",
    "shorten_preserves_mixture": "max_mixture_drift",
    "reduction_blocks_valid": "max_trace_defect min_block_eigenvalue",
    "reduction_linear": "max_linearity_defect",
    "compression_entropy_identity": "max_identity_defect",
    "solver_matches_qubit_oracle": "max_oracle_error",
    "pure_states_have_zero_H": "max_pure_H",
    "solver_result_feasible":
        "max_R_minus_reduced_entropy max_purity_defect max_reconstruction_error min_H",
    "roof_concave_in_state": "min_concavity_slack",
    "roof_monotone_under_refinement": "min_refinement_gain",
    "solver_deterministic": "bytes",
    "qubit_series_consistency": "error_shrinks_with_terms max_converged_error monotone",
    "qubit_roof_fiber_convexity": "max_fiber_spread min_second_difference",
    "block_example_roundtrip":
        "max_purity_defect max_reconstruction_error max_solver_excess_over_candidate",
    "subalgebra_ensemble_mixes_back": "max_mixture_error",
    "sampled_info_below_H": "max_lower_minus_upper",
    "commuting_bracket_closes": "max_bracket_width",
    "holevo_bound": "max_H_minus_S",
    "roof_affine_on_optimal_face": "max_discrepancy",
    "zero_H_eigenvector_structure": "max_aligned_residual unaligned_flagged",
}
ROOF_KEYS = _paths(
    "command", "zero_entropy",
    "result: value_R value_H reduced_entropy optimal_ensemble restart_values best_restart"
    " converged iterations",
    "result.optimal_ensemble: weights states",
    "affinity: max_discrepancy samples tolerance passed",
)
MUTUAL_KEYS = _paths("command", "length", "mutual_entropy", "relative_form", "form_difference")
BLOCK_KEYS = _paths(
    "command",
    "analysis: distinguished_weight coupling eigenvalues overlaps mu_plus mu_minus",
    "decomposition: candidate degenerate length ensemble",
    "decomposition.ensemble: weights states",
)
SMALL_BUDGET = ("--restarts", "2", "--max-iters", "30")
PURE13 = "[[0.5,0,0.5],[0,0,0],[0.5,0,0.5]]"


def _mutual_case(weights, second):
    ensemble = json.dumps({"weights": weights, "states": [[[1, 0], [0, 0]], second]})
    return ("mutual", "--ensemble", ensemble, "--channel", DIAG2)


# name: (argv, every key path of its report)
REPORT_CASES = {
    "entropy": (("entropy", "--state", RHO), _paths("command", "dim", "entropy", "spectrum",
                                                    "purity")),
    "reduce": (("reduce", "--state", RHO, "--channel", DIAG2),
               _paths("command", "block_dims", "blocks", "probabilities", "entropy")),
    "mutual": (_mutual_case([0.5, 0.5], [[0, 0], [0, 1]]), MUTUAL_KEYS),
    "mutual-zero-weight": (_mutual_case([1.0, 0.0], [[0, 0], [0, 1]]), MUTUAL_KEYS),
    "mutual-mixture-at-cutoff-1": (
        _mutual_case([0.99999, 0.00001], [[0.999999, 0], [0, 0.000001]]), MUTUAL_KEYS),
    "mutual-mixture-at-cutoff-2": (
        _mutual_case([0.999, 0.001], [[0.99999999, 0], [0, 1e-8]]), MUTUAL_KEYS),
    "roof": (("roof", "--state", RHO, "--channel", DIAG2, *SMALL_BUDGET, "--samples", "2"),
             ROOF_KEYS),
    "roof-pure": (("roof", "--state", "[[1,0],[0,0]]", "--channel", DIAG2, *SMALL_BUDGET,
                   "--samples", "2"),
                  ROOF_KEYS | _paths("zero_entropy: residuals vector_passed passed")),
    "qubit-oracle": (("qubit-oracle", "--z", "0.3", "--terms", "5"),
                     _paths("command", "z", "magnitude", "value", "series: terms value difference")),
    "qubit-oracle-half": (("qubit-oracle", "--z", "0.5"),
                          _paths("command", "z", "magnitude", "value")),
    "block-oracle": (("block-oracle", "--state", "[[0.4,0,0.15],[0,0.3,0.1],[0.15,0.1,0.3]]",
                      "--psi", "[0,0,1]", "--solve", *SMALL_BUDGET),
                     BLOCK_KEYS | _paths("solver: value_R value_H candidate_minus_solver")),
    "block-oracle-degenerate": (("block-oracle", "--state", PURE13, "--psi", "[0,0,1]"),
                                BLOCK_KEYS),
    "accinfo": (("accinfo", "--state", RHO, "--projections", "[[[1,0],[0,0]],[[0,0],[0,1]]]",
                 *SMALL_BUDGET, "--samples", "4"),
                _paths("command",
                       "bracket: lower upper gap holevo_slack samples best_sample closed passed",
                       "holevo: channel_entropy state_entropy slack passed")),
    "verify": (("verify", "--restarts", "1", "--max-iters", "20"),
               _paths("command", "seed", "samples", "solver: seed restarts max_iters max_length",
                      "counts: total passed failed", "checks")
               | set().union(*(_paths(f"checks.{i}: name passed details",
                                      f"checks.{i}.details: {details}")
                               for i, details in enumerate(VERIFY_DETAILS.values())))),
}


class TestReportContract:
    """Each report's keys are pinned, since reports are built from result types."""

    def test_every_command_is_covered(self):
        assert {argv[0] for argv, _ in REPORT_CASES.values()} == set(READ_FLAGS)

    @pytest.mark.parametrize("name", REPORT_CASES)
    def test_report_is_strict_json_with_pinned_keys(self, capsys, name):
        argv, keys = REPORT_CASES[name]
        status, out, err = run_main(capsys, *argv)
        assert status in (0, 2), err
        report = _strict_json(out)
        assert _key_paths(report) == keys
        if argv[0] == "verify":
            assert [c["name"] for c in report["checks"]] == list(VERIFY_DETAILS)

    def test_trace_line_keys(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_json(capsys, "roof", "--state", RHO, "--channel", DIAG2, *SMALL_BUDGET,
                 "--samples", "1", "--trace", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert set(_strict_json(line)) == {"restart", "value", "iterations", "converged"}
