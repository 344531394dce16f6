"""Matrix file format and canonical report writing."""

import errno
import json
import os
import stat

import numpy as np
import pytest

from qrelent import (
    HermitianMatrix,
    MatrixParseError,
    matrix_from_dict,
    matrix_to_dict,
    read_matrix,
    write_matrix,
    write_report,
)
from qrelent import BoundTrial, SegmentTrial, matrixio
from conftest import sample_hermitian, trial_rng


def test_identity_from_dict():
    m = matrix_from_dict({"dim": 2, "re": [1.0, 0.0, 0.0, 1.0]})
    assert np.array_equal(m.entries, np.eye(2, dtype=complex))


def test_missing_im_treated_as_zero():
    m = matrix_from_dict({"dim": 2, "re": [1.0, 2.0, 2.0, 1.0]})
    assert np.all(m.entries.imag == 0.0)


def test_round_trip_full_precision(tmp_path):
    m = sample_hermitian(trial_rng(301, 0), 5, 3.0)
    path = str(tmp_path / "m.json")
    write_matrix(m, path)
    back = read_matrix(path)
    assert np.array_equal(back.entries, m.entries)


def test_round_trip_real_matrix_omits_im(tmp_path):
    m = HermitianMatrix.diagonal([1.5, -2.25])
    path = str(tmp_path / "m.json")
    write_matrix(m, path)
    doc = json.loads(open(path).read())
    assert "im" not in doc
    assert np.array_equal(read_matrix(path).entries, m.entries)


def test_integer_entries_accepted():
    m = matrix_from_dict({"dim": 1, "re": [2]})
    assert m.entries[0, 0] == 2.0


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2, "re": [1.0, 2.0, 3.0, 4.0]},  # anti-self-adjoint part too large
        {"dim": 2, "re": [1.0, 0.0, 0.0]},  # wrong length
        {"dim": 0, "re": []},  # bad dim
        {"dim": 2},  # missing re
        {"dim": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0]},  # im wrong length
        {"dim": 2, "re": [1.0, 0.0, 0.0, "x"]},  # non-numeric
        {"dim": 2, "re": [1.0, 0.0, 0.0, True]},  # bool is not a number here
        {"dim": "2", "re": [1.0, 0.0, 0.0, 1.0]},  # dim not an int
        [1, 2, 3],  # not an object
    ],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(MatrixParseError):
        matrix_from_dict(doc)


def test_parse_error_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "re": [1.0, 2.0, 3.0, 4.0]}')
    with pytest.raises(MatrixParseError) as err:
        read_matrix(str(path))
    assert "bad.json" in str(err.value)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "re": [1.0,,]}')
    with pytest.raises(MatrixParseError) as err:
        read_matrix(str(path))
    assert "line 2" in str(err.value)


def test_non_finite_entries_rejected():
    with pytest.raises(MatrixParseError):
        matrix_from_dict({"dim": 1, "re": [float("nan")]})


@pytest.mark.parametrize("re", [[1, 1e200, -1e200, 1], [1e308] * 4])
def test_entries_whose_norm_overflows_rejected(re):
    # Accepted before as the identity, or symmetrized to inf+nanj.
    with pytest.raises(MatrixParseError, match="^m: matrix entries overflow"):
        matrix_from_dict({"dim": 2, "re": re}, context="m")


@pytest.mark.parametrize("key", ["re", "im"])
def test_integer_beyond_float64_range_names_the_file_and_field(tmp_path, key):
    path = tmp_path / "huge.json"
    doc = {"dim": 1, "re": [1], key: [10**400]}
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixParseError) as err:
        read_matrix(str(path))
    assert str(err.value) == f"{path}: field '{key}' has a value beyond the float64 range"
    assert isinstance(err.value.__cause__, OverflowError)


def test_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'\xff{"dim": 1, "re": [1.0]}')
    with pytest.raises(MatrixParseError) as err:
        read_matrix(str(path))
    assert str(err.value) == f"{path}: not UTF-8 text: byte 0 invalid start byte"
    assert isinstance(err.value.__cause__, UnicodeDecodeError)


def test_json_nested_too_deeply_names_the_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(MatrixParseError) as err:
        read_matrix(str(path))
    assert str(err.value) == f"{path}: invalid JSON: nested too deeply"
    assert isinstance(err.value.__cause__, RecursionError)


def test_matrix_to_dict_round_trips_complex():
    m = sample_hermitian(trial_rng(302, 0), 3, 2.0)
    back = matrix_from_dict(matrix_to_dict(m))
    assert np.array_equal(back.entries, m.entries)


def test_report_written_canonically(tmp_path):
    path = str(tmp_path / "report.json")
    write_report({"b": 1, "a": {"z": 2.5, "y": [1.0]}}, path)
    text = open(path).read()
    assert text == '{"a": {"y": [1.0], "z": 2.5}, "b": 1}\n'


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    path = str(tmp_path / "report.json")
    write_report({"k": 1}, path)
    write_report({"k": 2}, path)
    assert json.loads(open(path).read()) == {"k": 2}
    assert os.listdir(tmp_path) == ["report.json"]


def _records(n):
    return [{"i": i, "v": i / 7, "witness": {"t": 0.5, "p1": [{"dim": 1, "re": [i]}]}}
            for i in range(n)]


def _record_objects(n):
    # Segment records, every third with witness arrays, and bound records,
    # every other one invalid.
    e = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
    return [SegmentTrial(i / 10, 1.0, 0.5, i / 7, 2.0, witness=(
                {"t": i / 10, "p1": [e * i], "p2": [e.real], "fixed": e} if i % 3 == 0 else None))
            if i % 2 else BoundTrial("k", i / 3, 0.0, -i / 3, 1.0, valid=i % 4 == 0)
            for i in range(n)]


RUN = matrixio._RUN
NAN, INF = float("nan"), float("inf")
REFERENCE_CASES = {
    "non-finite": {"reports": [{"trials": [{"v": NAN}, {"v": INF}, {"v": -INF}],
                                "max_violation": NAN}], "tol": INF},
    "strings": {"é\n\"\\": [{"ключ": "値\t \x00", "\U0001f600": "/"}], "a": "ü"},
    "empty lists": {"a": [], "reports": [{"trials": []}, {"trials": [{}]}], "z": [{}]},
    **{f"{n} records": {"trials": _records(n), "pass": False}
       for n in (1, RUN, RUN + 1, 2 * RUN + 3)},
    "dicts and scalars": {"x": [1, {"a": 2}, "s", None, {"b": [{"c": 3}]}],
                          "y": [{"a": 1}, 2.5, [{"b": 1}], {"t": [{"u": 1}]}],
                          "z": [{"t": [{"u": 1}]}, 3, {"v": [1]}, [{"w": 2}]]},
    "nested reports": {"summary": {"suites_run": ["a", "b"], "all_pass": False},
                       "reports": [{"suite_name": "a", "trials": _records(2 * RUN + 3),
                                    "extras": {"gain": -0.0}},
                                   {"suite_name": "b", "reports": [{"trials": _records(3)}]}]},
    "int keys": {1: [{"a": 1}], 2: "b", 10: [{3: [{"c": 4}]}]},
    "float keys": {0.5: [{"a": 1}], 2.0: None, -INF: [1.5]},
    "bool keys": {False: [{"a": 1}], True: [{True: [{None: 1}]}]},
    **{f"{n} record objects": {"summary": {"n": n}, "reports": [
        {"trials": _record_objects(n), "extras": {}}, {"trials": _records(2)}]}
       for n in (1, RUN + 1, 3 * RUN + 4)},
    "a witness array outside a run": {"x": [np.eye(2)], "y": {"fixed": np.eye(1)}},
}


@pytest.mark.parametrize("doc", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
def test_report_equals_json_dumps(tmp_path, doc):
    path = tmp_path / "report.json"
    write_report(doc, str(path))
    expected = json.dumps(doc, sort_keys=True, default=matrixio.json_default) + "\n"
    assert path.read_text(encoding="utf-8") == expected


def test_records_are_encoded_in_runs():
    doc = REFERENCE_CASES["nested reports"]
    pieces = list(matrixio._pieces(doc))
    assert "".join(pieces) == json.dumps(doc, sort_keys=True)
    longest_run = max(len(p) for p in pieces)
    assert longest_run < len(json.dumps(_records(RUN + 1)))


def test_record_objects_are_encoded_in_runs():
    # Records and their witness arrays become JSON one run at a time.
    doc = REFERENCE_CASES[f"{3 * RUN + 4} record objects"]
    pieces = list(matrixio._pieces(doc))
    assert "".join(pieces) == json.dumps(doc, sort_keys=True, default=matrixio.json_default)
    longest_run = max(len(p) for p in pieces)
    assert longest_run < len(json.dumps(_record_objects(RUN + 1), default=matrixio.json_default))


def test_json_default_drops_fields_at_their_default_and_writes_matrix_files():
    segment = SegmentTrial(0.5, 1.0, 2.0, 0.25, 3.0)
    assert matrixio.json_default(segment) == {
        "t": 0.5, "lhs": 1.0, "rhs": 2.0, "violation": 0.25, "scale": 3.0}
    invalid = BoundTrial("k", 1.0, 0.0, -1.0, 1.0, valid=False)
    assert matrixio.json_default(invalid)["valid"] is False
    assert "valid" not in matrixio.json_default(BoundTrial("k", 1.0, 0.0, -1.0, 1.0))
    m = sample_hermitian(trial_rng(303, 0), 3, 2.0)
    assert matrixio.json_default(m.entries) == matrix_to_dict(m)
    witness = {"t": 0.5, "p1": [m.entries]}
    assert matrixio.json_default(SegmentTrial(0.5, 1.0, 2.0, 0.25, 3.0, witness=witness))[
        "witness"] is witness


@pytest.mark.parametrize("obj", [
    object(), {1, 2}, 1 + 2j, b"x", np.float32(1.0), np.zeros(3), np.zeros((2, 3)),
    np.zeros((1, 2, 2)), SegmentTrial,
], ids=["object", "set", "complex", "bytes", "float32", "vector", "non-square", "stack",
        "record-class"])
def test_json_default_raises_type_error_for_anything_else(obj):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        matrixio.json_default(obj)
    with pytest.raises(TypeError):
        json.dumps({"x": [obj]}, default=matrixio.json_default)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("write", [write_report, lambda obj, path: write_matrix(
    HermitianMatrix.diagonal([1.0]), path)], ids=["report", "matrix"])
def test_new_file_gets_the_umask_mode(tmp_path, umask_022, write):
    path = tmp_path / "out.json"
    write({"k": 1}, str(path))
    plain = tmp_path / "plain.json"
    with open(plain, "w"):
        pass
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o644


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("mode", [0o644, 0o640])
def test_overwrite_keeps_the_file_mode(tmp_path, umask_022, mode):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    path.chmod(mode)
    write_report({"k": 2}, str(path))
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == '{"k": 2}\n'


def _previous_report(tmp_path):
    path = tmp_path / "report.json"
    write_report({"trials": _records(2)}, str(path))
    return path, path.read_bytes()


def test_unencodable_last_run_keeps_the_previous_report(tmp_path):
    path, before = _previous_report(tmp_path)
    doc = {"summary": {"n": 1}, "trials": _records(3 * RUN)}
    doc["trials"][-1]["witness"]["t"] = {0.5}
    with pytest.raises(TypeError):
        write_report(doc, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def test_full_disk_mid_stream_keeps_the_previous_report(tmp_path, monkeypatch):
    path, before = _previous_report(tmp_path)
    doc = {"summary": {"n": 1}, "trials": _records(3 * RUN)}
    half = len(json.dumps(doc)) // 2
    written = []
    fdopen = os.fdopen

    def fdopen_filling_up(fd, *args, **kwargs):
        fh = fdopen(fd, *args, **kwargs)
        write = fh.write

        def write_until_full(text):
            if sum(written) + len(text) > half:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(len(text))
            return write(text)

        fh.write = write_until_full
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen_filling_up)
    with pytest.raises(OSError) as err:
        write_report(doc, str(path))
    assert str(err.value) == f"[Errno {errno.ENOSPC}] No space left on device: {str(path)!r}"
    assert len(written) > 3  # the failing write came after the summary and a run
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def test_write_error_names_the_report_not_its_temporary_file(tmp_path):
    # The temporary file beside the report cannot be made: the error names
    # the report's path, keeps its class and leaves nothing behind.
    path = str(tmp_path / "missing" / "report.json")
    with pytest.raises(FileNotFoundError) as err:
        write_report({"k": 1}, path)
    assert str(err.value) == f"[Errno {errno.ENOENT}] No such file or directory: {path!r}"
    assert err.value.filename == path
    assert os.listdir(tmp_path) == []
