"""Matrix file I/O and canonical report persistence.

Matrix files are JSON objects ``{"dim": n, "re": [...], "im": [...]}`` with
``n*n`` row-major entries; ``"im"`` may be omitted for real matrices.
Reports and matrices are written canonically (sorted keys, newline
terminated, shortest round-trip float form) and atomically (temp file plus
rename), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import MatrixParseError, NotHermitianError
from .hermitian import HermitianMatrix, PdMatrix, symmetrize


def matrix_to_dict(m: HermitianMatrix | PdMatrix) -> dict:
    """Matrix file representation; the imaginary block is kept only if nonzero."""
    e = m.entries
    out = {"dim": int(e.shape[0]), "re": e.real.ravel().tolist()}
    if np.any(e.imag != 0.0):
        out["im"] = e.imag.ravel().tolist()
    return out


def matrix_from_dict(obj: dict, context: str = "matrix") -> HermitianMatrix:
    """Parse and symmetrize a matrix dict, validating the schema."""
    if not isinstance(obj, dict):
        raise MatrixParseError(f"{context}: expected a JSON object, got {type(obj).__name__}")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MatrixParseError(f"{context}: field 'dim' must be a positive integer, got {dim!r}")
    re = _number_block(obj, "re", dim, context, required=True)
    im = _number_block(obj, "im", dim, context, required=False)
    entries = re if im is None else re + 1j * im
    try:
        return symmetrize(entries.reshape(dim, dim))
    except NotHermitianError as exc:
        raise MatrixParseError(f"{context}: {exc}") from exc


def _number_block(obj, key, dim, context, required):
    if key not in obj:
        if required:
            raise MatrixParseError(f"{context}: missing field '{key}'")
        return None
    values = obj[key]
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise MatrixParseError(f"{context}: field '{key}' must be a list of numbers")
    if len(values) != dim * dim:
        raise MatrixParseError(
            f"{context}: field '{key}' has {len(values)} entries, expected {dim * dim}"
        )
    block = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(block)):
        raise MatrixParseError(f"{context}: field '{key}' contains non-finite values")
    return block


def read_matrix(path: str) -> HermitianMatrix:
    """Read a matrix file, symmetrizing on ingestion."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return matrix_from_dict(obj, context=str(path))


def _write_canonical(obj, path: str) -> None:
    # The documents written are trees, so the circular-reference check is skipped.
    text = json.dumps(obj, sort_keys=True, check_circular=False) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qrelent-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix(m: HermitianMatrix | PdMatrix, path: str) -> None:
    """Write a matrix file; a read of the result reproduces the entries exactly."""
    _write_canonical(matrix_to_dict(m), path)


def write_report(report: dict, path: str) -> None:
    """Persist a JSON-able report canonically and atomically."""
    _write_canonical(report, path)
