"""CLI contract: verify/eval commands, exit statuses, report determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qrelent import SUITES, HermitianMatrix, write_matrix
from qrelent.cli import klein_suite, main, variational_suite
from conftest import sample_hermitian, trial_rng


@pytest.fixture
def matrix_files(tmp_path):
    paths = {}

    def save(name, entries):
        path = str(tmp_path / f"{name}.json")
        write_matrix(HermitianMatrix(entries), path)
        paths[name] = path

    save("zero3", np.zeros((3, 3)))
    save("id3", np.eye(3))
    save("id4", np.eye(4))
    save("two", [[2.0]])
    save("one", [[1.0]])
    save("indefinite", np.diag([1.0, -1.0]))
    return paths


class TestVerify:
    def test_klein_example_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(
            ["verify", "--suite", "klein", "--dim", "4", "--trials", "100",
             "--seed", "7", "--tol", "1e-9", "--out", out]
        )
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["summary"]["all_pass"] is True
        assert doc["summary"]["suites_run"] == ["klein"]
        (report,) = doc["reports"]
        assert report["pass"] is True
        assert sum(1 for t in report["trials"] if t["kind"] == "nonneg") == 100
        assert "PASS" in capsys.readouterr().out

    def test_all_suites_scalar_case(self):
        # every certified statement degenerates to a scalar convexity fact
        code = main(["verify", "--suite", "all", "--dim", "1", "--trials", "10",
                     "--seed", "1"])
        assert code == 0

    def test_dim_zero_exits_two(self, capsys):
        assert main(["verify", "--dim", "0"]) == 2
        assert "dim" in capsys.readouterr().err

    def test_dim_too_large_exits_two(self):
        assert main(["verify", "--dim", "65"]) == 2

    def test_bad_trials_and_tol_exit_two(self, capsys):
        # every suite's arguments are checked before the first suite runs
        assert main(["verify", "--suite", "all", "--trials", "0"]) == 2
        assert main(["verify", "--suite", "all", "--tol", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_infinite_tol_exits_two(self, capsys):
        # An infinite tol would let the flipped self-test pass; 1e400 parses to inf.
        for tol in ("inf", "1e400"):
            args = ["verify", "--suite", "lieb-concavity", "--flip-orientation",
                    "--dim", "4", "--trials", "5", "--tol", tol]
            assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol" in captured.err

    def test_more_than_a_million_trials_exits_two(self, capsys):
        # klein's kinds start a million indices apart: trial 10**6 of
        # nonneg would draw the generator of identity's trial 0
        assert main(["verify", "--suite", "klein", "--trials", "1000001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials" in captured.err

    def test_seed_outside_64_bits_exits_two(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert main(["verify", "--suite", "klein", "--seed", str(2**64)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in captured.err

    def test_malformed_flag_exits_two(self):
        assert main(["verify", "--bogus"]) == 2
        assert main(["verify", "--suite", "unknown"]) == 2
        assert main(["verify", "--dim", "not-a-number"]) == 2

    def test_flip_orientation_exits_one(self, tmp_path):
        out = str(tmp_path / "flip.json")
        code = main(
            ["verify", "--suite", "lieb-concavity", "--dim", "4", "--trials", "20",
             "--flip-orientation", "--out", out]
        )
        assert code == 1
        doc = json.loads(open(out).read())
        assert doc["summary"]["all_pass"] is False
        assert doc["reports"][0]["max_violation"] > 1e-10

    def test_flipped_report_equals_the_reference_serializer(self, tmp_path, monkeypatch):
        # The same run, serialized by reference code: records minus the
        # fields equal to their dataclass defaults, witness matrices as
        # float(v) lists and json.dumps with its circular-reference check.
        import dataclasses

        from qrelent import cli, convexity

        def record_dict(record):
            defaults = {f.name: f.default for f in dataclasses.fields(record)
                        if f.default is not dataclasses.MISSING}
            return {k: v for k, v in vars(record).items()
                    if k not in defaults or v != defaults[k]}

        def matrix_dict(e):
            out = {"dim": int(e.shape[0]), "re": [float(v) for v in e.real.ravel()]}
            if np.any(e.imag != 0.0):
                out["im"] = [float(v) for v in e.imag.ravel()]
            return out

        def write(document, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(document, sort_keys=True) + "\n")

        args = ["verify", "--suite", "lieb-concavity", "--dim", "4", "--trials", "20",
                "--flip-orientation", "--out"]
        out, reference = str(tmp_path / "flip.json"), str(tmp_path / "reference.json")
        assert main(args + [out]) == 1
        monkeypatch.setattr(convexity, "record_to_json_dict", record_dict)
        monkeypatch.setattr(convexity, "matrix_to_dict", matrix_dict)
        monkeypatch.setattr(cli, "write_report", write)
        assert main(args + [reference]) == 1
        assert open(out, "rb").read() == open(reference, "rb").read()
        assert b'"witness"' in open(out, "rb").read()

    @pytest.mark.parametrize("name", [n for n in SUITES if n != "lieb-concavity"])
    def test_flip_orientation_rejected_for_other_suites(self, name, capsys):
        # the flag would otherwise be ignored: the suite runs unflipped and passes
        assert main(["verify", "--suite", name, "--flip-orientation",
                     "--dim", "1", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--flip-orientation" in captured.err

    def test_report_byte_identical_across_runs(self, tmp_path):
        args = ["verify", "--suite", "joint-convexity", "--dim", "3",
                "--trials", "10", "--seed", "9"]
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_every_suite_runs_at_the_requested_dim(self, tmp_path):
        out = str(tmp_path / "d32.json")
        assert main(["verify", "--suite", "all", "--dim", "32", "--trials", "1",
                     "--seed", "3", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["summary"]["config"]["dim"] == 32
        echo = {r["suite_name"]: r["config_echo"]["dim"] for r in doc["reports"]}
        assert echo == {name: 32 for name in SUITES}

    @pytest.mark.parametrize("name", list(SUITES))
    def test_default_trials_and_tol_per_suite(self, name, tmp_path):
        out = str(tmp_path / "d.json")
        assert main(["verify", "--suite", name, "--dim", "1", "--out", out]) == 0
        echo = json.loads(open(out).read())["reports"][0]["config_echo"]
        documented = (50, 1e-8) if name == "partial-max" else (200, 1e-9)
        row = (SUITES[name].trials, SUITES[name].tol)
        assert (echo["trials"], echo["tol"]) == row == documented


class TestEval:
    def test_trexplog_zero_identity(self, matrix_files, capsys):
        code = main(["eval", "trexplog", "--h", matrix_files["zero3"],
                     "--a", matrix_files["id3"]])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(3.0, rel=1e-15)

    def test_trexplog_h_defaults_to_zero(self, matrix_files, capsys):
        code = main(["eval", "trexplog", "--a", matrix_files["id3"]])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(3.0, rel=1e-15)

    def test_relent_scalar(self, matrix_files, capsys):
        code = main(["eval", "relent", "--x", matrix_files["two"],
                     "--a", matrix_files["one"]])
        assert code == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(2 * math.log(2) - 1, rel=1e-12)

    def test_entropy_identity(self, matrix_files, capsys):
        code = main(["eval", "entropy", "--a", matrix_files["id4"]])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-14)

    def test_objective_identity_pair(self, matrix_files, tmp_path, capsys):
        h = sample_hermitian(trial_rng(303, 0), 3, 2.0)
        h_path = str(tmp_path / "h.json")
        write_matrix(h, h_path)
        code = main(["eval", "objective", "--x", matrix_files["id3"],
                     "--a", matrix_files["id3"], "--h", h_path])
        assert code == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(h.trace() + 3.0, rel=1e-12)

    def test_seventeen_significant_digits(self, matrix_files, capsys):
        main(["eval", "relent", "--x", matrix_files["two"], "--a", matrix_files["one"]])
        text = capsys.readouterr().out.strip()
        digits = text.lstrip("-0.").replace(".", "")
        assert len(digits) >= 16

    def test_missing_operand_exits_two(self, matrix_files, capsys):
        assert main(["eval", "relent", "--x", matrix_files["two"]]) == 2
        assert "--a" in capsys.readouterr().err
        assert main(["eval", "entropy"]) == 2

    @pytest.mark.parametrize("op", ["relent", "objective"])
    def test_missing_x_exits_two(self, matrix_files, capsys, op):
        assert main(["eval", op, "--a", matrix_files["id3"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: operation {op!r} requires --x\n"

    def test_missing_file_exits_two_and_names_path(self, capsys):
        assert main(["eval", "entropy", "--a", "/nonexistent/a.json"]) == 2
        assert "/nonexistent/a.json" in capsys.readouterr().err

    def test_non_pd_operand_exits_two(self, matrix_files, capsys):
        assert main(["eval", "entropy", "--a", matrix_files["indefinite"]]) == 2
        err = capsys.readouterr().err
        assert f"A ({matrix_files['indefinite']}): " in err

    def test_asymmetric_matrix_exits_two(self, matrix_files, tmp_path, capsys):
        path = tmp_path / "asym.json"
        path.write_text('{"dim": 2, "re": [1.0, 2.0, 3.0, 4.0]}')
        assert main(["eval", "entropy", "--a", str(path)]) == 2
        assert f"A ({path}): " in capsys.readouterr().err
        # a self-adjoint operand's parse error names it too
        assert main(["eval", "trexplog", "--a", matrix_files["id3"], "--h", str(path)]) == 2
        assert f"H ({path}): " in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b'{"dim": 1, "re": [1' + b"0" * 400 + b"]}", "field 're' has a value beyond the float64 range"),
        (b'\xff{"dim": 1, "re": [1.0]}', "not UTF-8 text: byte 0 invalid start byte"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
    ])
    def test_unreadable_matrix_file_exits_two_and_names_operand_and_path(
        self, tmp_path, capsys, content, message
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["eval", "entropy", "--a", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: A ({path}): {path}: {message}\n"

    @pytest.mark.parametrize("op, flag", [
        ("relent", "--h"), ("entropy", "--h"), ("trexplog", "--x"), ("entropy", "--x"),
    ])
    def test_unread_operand_exits_two(self, matrix_files, capsys, op, flag):
        args = ["eval", op, "--a", matrix_files["id3"]]
        if op == "relent":
            args += ["--x", matrix_files["id3"]]
        assert main(args) == 0
        capsys.readouterr()
        # the unread file is neither 3x3 nor positive definite; it is not parsed
        assert main(args + [flag, matrix_files["indefinite"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_unknown_operation_rejected_by_parser(self):
        assert main(["eval", "determinant", "--a", "x.json"]) == 2


class TestSuitesDirect:
    def test_klein_suite_kinds(self):
        report = klein_suite(2, 20, 5, 1e-9)
        kinds = {t.kind for t in report.trials}
        assert kinds == {"nonneg", "identity", "separated"}
        assert report.passed

    def test_variational_suite_budgeted_violations(self):
        report = variational_suite(3, 10, 5, 1e-9)
        assert report.passed
        assert report.invalid_trials == 0
        # budgets make healthy violations distinctly negative
        assert report.max_violation < -1e-7

    def test_klein_separated_pairs_respect_distance(self):
        report = klein_suite(1, 30, 12, 1e-9)
        separated = [t for t in report.trials if t.kind == "separated"]
        assert separated
        assert all(t.value >= 1e-8 for t in separated)


def test_module_invocation_exit_status():
    proc = subprocess.run(
        [sys.executable, "-m", "qrelent", "verify", "--suite", "klein",
         "--dim", "2", "--trials", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "klein: PASS" in proc.stdout
