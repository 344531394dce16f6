"""Matrix file I/O and canonical report persistence.

Matrix files are JSON objects ``{"dim": n, "re": [...], "im": [...]}`` with
``n*n`` row-major entries; ``"im"`` may be omitted for real matrices.
Reports and matrices are written canonically, as the text of
``json.dumps(obj, sort_keys=True)`` plus a newline, and atomically (temp
file plus rename), so identical runs produce byte-identical files.  The
text is streamed in pieces: the writer holds at most one run of records as
text, never the whole document.  A new file gets the mode ``open(path,
"w")`` would give it, 0o666 less the umask; a replaced file keeps its mode.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat

import numpy as np

from .errors import MatrixParseError, NotHermitianError
from .hermitian import HermitianMatrix, PdMatrix, symmetrize


def matrix_to_dict(m: HermitianMatrix | PdMatrix | np.ndarray) -> dict:
    """Matrix file representation of a matrix or of its self-adjoint entries.

    The imaginary block is kept only if nonzero.
    """
    e = m if isinstance(m, np.ndarray) else m.entries
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
    try:
        block = np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise MatrixParseError(f"{context}: field '{key}' has a value beyond the float64 range") from exc
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
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text: byte {exc.start} {exc.reason}") from exc
    except RecursionError as exc:
        raise MatrixParseError(f"{path}: invalid JSON: nested too deeply") from exc
    return matrix_from_dict(obj, context=str(path))


# json.dumps(obj, sort_keys=True) runs this encoder, in C, on the whole
# document; the writer runs it on pieces.  The documents are trees, so the
# circular-reference check is skipped.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode

# Records encoded per call in a list of records.  A segment suite writes a
# trial as ten records, one of which may carry its witness matrices, so a
# run is one trial: writing a flipped lieb report peaks at 0.05 MB
# (tracemalloc) at dim 6 and at one 0.5 MB witness set, 2.7 MB, at dim 64.
_RUN = 10


def _is_records(obj) -> bool:
    """Whether ``obj`` is a list of dicts, judged by its first item."""
    return isinstance(obj, list) and bool(obj) and isinstance(obj[0], dict)


def _holds_records(obj) -> bool:
    """Whether ``obj`` is a dict with a list of dicts among its values."""
    return isinstance(obj, dict) and any(map(_is_records, obj.values()))


def _pieces(obj):
    """The text of ``json.dumps(obj, sort_keys=True)``, in pieces.

    A dict that holds a list of dicts is written key by key, a list of such
    dicts item by item, any other list of dicts in runs of ``_RUN`` items;
    everything else is encoded whole.  Each choice gives the same text, so
    a list is judged by its first item.
    """
    if _holds_records(obj):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            # The key as the encoder writes it: quoted, escaped, "1" for 1.
            yield (", " if i else "") + _encode({key: 0})[1:-2]
            yield from _pieces(obj[key])
        yield "}"
    elif _is_records(obj):
        yield "["
        if _holds_records(obj[0]):
            for i, item in enumerate(obj):
                if i:
                    yield ", "
                yield from _pieces(item)
        else:
            for i in range(0, len(obj), _RUN):
                yield (", " if i else "") + _encode(obj[i:i + _RUN])[1:-1]
        yield "]"
    else:
        yield _encode(obj)


def _write_canonical(obj, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".qrelent-{os.urandom(8).hex()}.tmp")
    # Mode 0o666 less the umask, as open(path, "w") creates a file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(_pieces(obj))
            fh.write("\n")
        # A replaced file keeps its mode, as open(path, "w") keeps it.
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
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
