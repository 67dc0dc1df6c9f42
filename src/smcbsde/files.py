"""File formats: model/problem documents and numeric artifacts.

Input documents are JSON with a ``schema_version`` field and a ``kind`` tag.
Tables are indexed exactly like the in-memory tables (states 0-based,
durations listed from 1).  Writers emit deterministic bytes for identical
inputs: JSON is dumped with sorted keys and newline-terminated, CSV numbers
use 17 significant digits so values round-trip exactly.

Schema versions 1 and 2 are read; ``SCHEMA_VERSION`` (2) is written.  Every
table field of either version holds a nested list of numbers or a packed
array, ``{"dtype": "<f8", "shape": [...], "data": "<base64>"}``, whose data
are the little-endian float64 bytes of the table in C order.  The writers
pack every table, which keeps each value bit for bit (NaN, infinities and
-0.0 included) and decodes without parsing a number.  A packed field is
checked strictly: exactly those three keys, dtype exactly ``"<f8"``, a shape
of non-negative integers, strict base64, and 8 bytes per entry.  Scalar
fields (``n_states``, ``horizon``, the bounds) are plain JSON numbers.

JSON layout: dicts and lists are indented by two spaces per level, as
``json.dumps(indent=2)`` lays them out; each numpy array is one compact line
from ``json.dumps`` without indent, which runs json's C encoder (an indent
forces its pure-Python encoder on every number).  Numbers that are not
finite are written as null, so every artifact is strict JSON.

Memory: the writers stream.  ``write_json`` writes each piece of its text to
the open file and never holds the whole text; an array's line is dumped a
block of rows at a time (``lattice._blocks``), with the bytes one dump of
the whole array gives, and a packed table is base64-encoded from slices of
``_PIECE`` entries (a multiple of 3, so the pieces join into the text one
encode of the whole table gives).  ``write_csv`` formats a block of rows at
a time.  A packed field is decoded the same way, piece by piece, straight
into the table it returns, so a load holds the document's text and strings
and the tables, about twice the file, and a save no copy of its tables.

Rows: a problem loader given the lattice ``sys`` the problem is solved on
(as the CLI's solve-bsde, verify-duality and solve-control do) decodes a
packed beta only at the rows the solvers read, those of the cells before
the horizon (``sys.plan.key[:sys.plan.offset[T]]``), each whole, dense or on
the block; each run of consecutive rows is one slice of the string, cut at
quads.  The other rows are zero, in pages of a calloc-backed table that are
never written, so never made resident.  The whole string is still checked:
its length, its padding and, a piece at a time, its alphabet, so a defect
in a row never decoded is refused as one in a row that is.  A file whose
alpha does not fit the lattice is refused (ProblemDataError, from the
lattice's one fit check) before any other field is decoded; a nested-list
beta is decoded whole.

Document kinds
--------------
semi_markov_model : n_states, horizon, pi (N x (T+1)), jump (N x (T+1) x N),
                    x0 (N)
linear_bsde       : alpha (T x D), g (T x D), beta (T x D x X, or null),
                    terminal (D)
control_problem   : controls (U x q), alpha (T x D x U), g (T x D x U),
                    beta (T x D x U x X), terminal (D), alpha_bound,
                    beta_bound

beta rows are W+1 wide, on each source's block of the model's lattice, or D
wide (dense): the loaders check the leading axes, the savers write the
layout the object holds, and the lattice checks the width where it is read.
A beta row is beta[k, s], the cell's (X,) row or (U, X) rows.
"""

from __future__ import annotations

import base64
import binascii
import ctypes
import json
import math
import mmap
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .bsde import LinearDriver
from .chain import InvalidModelError, SemiMarkovModel, validate_model
from .control import ControlProblem
from .lattice import _blocks, _require_fit

__all__ = [
    "SCHEMA_VERSION",
    "FileFormatError",
    "format_number",
    "load_document",
    "load_control_problem",
    "load_linear_problem",
    "load_model",
    "save_control_problem",
    "save_linear_problem",
    "save_model",
    "write_csv",
    "write_json",
]

SCHEMA_VERSION = 2


class FileFormatError(ValueError):
    """A document is malformed; the message names the file and field."""


def format_number(x) -> str:
    return "%.17g" % float(x)


# entries of a packed table per base64 piece: 3 << 13 float64 values are
# 3 << 16 bytes, a multiple of 3, so each piece encodes to whole quads
_PIECE = 3 << 13


# an array's JSON text is dumped in blocks of BLOCK_ENTRIES / _TEXT_WEIGHT
# entries: while dumped, an entry weighs far more than its 8 bytes (a float
# object and its list slot, its repr in json's accumulator, its share of
# the joined text and of the slice without brackets), about 5 MB a block
_TEXT_WEIGHT = 8


class _Base64:
    """A float table that write_json emits as the base64 string of its
    little-endian float64 bytes in C order, encoded piece by piece."""

    def __init__(self, table):
        self.table = table

    def pieces(self):
        flat = self.table.flat
        for lo in range(0, self.table.size, _PIECE):
            piece = flat[lo:lo + _PIECE].astype("<f8", copy=False)
            yield binascii.b2a_base64(piece, newline=False).decode("ascii")


def _array_pieces(arr):
    """The text json.dumps gives for arr.tolist(), with every entry that is
    not finite as null, dumped a block of rows at a time."""
    def text(part):
        if part.dtype.kind == "f" and not np.isfinite(part).all():
            part = np.where(np.isfinite(part), part, None)
        return json.dumps(part.tolist(), allow_nan=False)

    if arr.ndim == 0:
        yield text(arr)
        return
    yield "["
    width = _TEXT_WEIGHT * math.prod(arr.shape[1:])
    for i, at in enumerate(_blocks(arr.shape[0], width)):
        if i:
            yield ", "
        yield text(arr[at])[1:-1]
    yield "]"


def _json_pieces(obj, indent=""):
    """The text of obj as JSON, in pieces; nested lines are indented past
    ``indent``."""
    if isinstance(obj, np.ndarray):
        yield from _array_pieces(obj)
        return
    if isinstance(obj, _Base64):
        yield '"'
        yield from obj.pieces()
        yield '"'
        return
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        sep = "{\n"
        for k, v in sorted(obj.items()):
            # json names a key that is no string by that key's own JSON
            key = k if isinstance(k, str) else json.dumps(k)
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _json_pieces(v, inner)
            sep = ",\n"
        yield f"\n{indent}}}"
        return
    if isinstance(obj, (list, tuple)) and obj:
        sep = "[\n"
        for v in obj:
            yield sep + inner
            yield from _json_pieces(v, inner)
            sep = ",\n"
        yield f"\n{indent}]"
        return
    if isinstance(obj, float) and not math.isfinite(obj):
        obj = None
    yield json.dumps(obj, allow_nan=False)


@contextmanager
def _output(path, mode):
    """``path`` open for writing in ``mode``; a write that fails removes
    the file, so that no partial artifact is left behind."""
    with open(path, mode) as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            Path(path).unlink(missing_ok=True)
            raise


def write_json(path, payload) -> None:
    """Strict JSON of dicts, lists and numpy arrays, laid out as the module
    notes say; NaN and +-inf as null."""
    with _output(path, "w") as fh:
        fh.writelines(_json_pieces(payload))
        fh.write("\n")


def _int_lines(rows):
    """The lines "%d,...,%d" of an integer array (R, C) as ASCII, one block
    of rows at a time, built in numpy: each column right-aligned in a
    (width, rows) byte table by repeated divmod, a '-' before a negative's
    first digit, then every blank (a zero byte) dropped by one compress."""
    rows = np.asarray(rows, dtype=np.int64)
    for at in _blocks(rows.shape[0], rows.shape[1]):
        parts, n = [], at.stop - at.start
        for col in rows[at].T:
            # |int64 min| wraps to itself, which reads right as uint64; the
            # divmods run in the narrowest type that holds the column
            left, sign = np.abs(col).view(np.uint64), col < 0
            width = len(str(left.max())) + bool(sign.any())
            left = left.astype(np.min_scalar_type(left.max()))
            table = np.empty((width, n), np.uint8)
            for i in range(width - 1, -1, -1):
                digit = (left > 0) | (i == width - 1)
                left, d = np.divmod(left, 10)
                table[i] = np.where(digit, d + 48, sign * np.uint8(45))
                sign &= digit
            parts += [table, np.full((1, n), ord(","), np.uint8)]
        parts[-1:] = [np.full((1, n), ord("\n"), np.uint8)]
        line = np.concatenate(parts).T
        yield line[line != 0].tobytes()


def _column_lines(columns):
    """The CSV lines of equally long 1-D columns as ASCII, one block of
    rows at a time, each block by one % format: integer columns by %d,
    the others by format_number's %.17g."""
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.17g"
                    for c in columns) + "\n"
    for at in _blocks(len(columns[0]), len(columns)):
        block = np.empty((at.stop - at.start, len(columns)), dtype=object)
        for j, c in enumerate(columns):
            block[:, j] = c[at]  # Python ints and floats, which % reads fast
        yield (line * len(block) % tuple(block.ravel().tolist())).encode()


def write_csv(path, header, rows) -> None:
    """CSV of a header and rows: a 2-D integer array, whose text
    (_int_lines) is the same as the %d format's, or a tuple of 1-D numpy
    columns (_column_lines); written a block of rows at a time."""
    with _output(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if isinstance(rows, np.ndarray):
            fh.writelines(_int_lines(rows))
        else:
            fh.writelines(_column_lines(rows))


def _require(doc, field, path):
    if field not in doc:
        raise FileFormatError(f"{path}: missing field '{field}'")
    return doc[field]


def load_document(path, expected_kind=None) -> dict:
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: file not found")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at "
            f"offset {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    version = _require(doc, "schema_version", path)
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise FileFormatError(
            f"{path}: schema_version {version} unsupported "
            f"(expected 1 or {SCHEMA_VERSION})"
        )
    kind = _require(doc, "kind", path)
    if expected_kind is not None and kind != expected_kind:
        raise FileFormatError(
            f"{path}: kind '{kind}' where '{expected_kind}' was expected"
        )
    return doc


def _packed(arr):
    """The packed form of a float table: its little-endian float64 bytes in
    C order, base64-encoded by write_json, with the shape (a 0-d table's
    is (1,))."""
    arr = np.atleast_1d(arr)
    # the shape as an array, which write_json lays out on one line
    return {"dtype": "<f8", "shape": np.array(arr.shape, dtype=np.int64),
            "data": _Base64(arr)}


# numpy advises huge pages for a table of at least this many bytes
_HUGE = 1 << 22


def _zeros(shape, sparse):
    """A float64 table of zeros, calloc-backed, so that a page is made
    resident only when written.  Where only some rows will be written
    (``sparse``), a large table is advised against the huge pages numpy
    asks for: with them the first write into each 2 MB commits all of
    it."""
    table = np.zeros(shape, dtype="<f8")
    if sparse and table.nbytes >= _HUGE and hasattr(mmap, "MADV_NOHUGEPAGE"):
        madvise = ctypes.CDLL(None).madvise
        madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
        madvise.restype = ctypes.c_int
        page, at = mmap.PAGESIZE, table.ctypes.data
        lo, hi = -(-at // page) * page, (at + table.nbytes) // page * page
        # advice refused costs memory, not correctness
        madvise(lo, hi - lo, mmap.MADV_NOHUGEPAGE)
    return table


# the base64 alphabet, which a packed field's data holds before its padding
_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _decode(data, shape, rows=None):
    """The float64 table of ``shape`` whose bytes ``data`` holds in strict
    base64, decoded a piece at a time into the table; ValueError or
    TypeError where data is anything else.  ``rows``: ascending flat
    indices over the table's two leading axes, the only rows decoded (all
    by default); the others stay zero, in pages the table never touches.
    The byte count that data's length and padding give is checked before
    the table is allocated, and the whole string, a piece at a time, for
    characters outside the alphabet before its ``pad`` trailing '='s, so a
    row never decoded is checked as strictly as one that is."""
    if not isinstance(data, str) or len(data) % 4:
        raise ValueError(data)
    pad = 2 if data.endswith("==") else int(data.endswith("="))
    size = len(data) // 4 * 3 - pad
    if size != 8 * math.prod(shape):
        raise ValueError(size)
    step = _PIECE // 3 * 32
    for lo in range(0, len(data) - pad, step):
        if data[lo:min(lo + step, len(data) - pad)].encode("ascii").translate(
                None, _ALPHABET):
            raise ValueError(lo)
    table = _zeros(shape, rows is not None)
    out = table.reshape(-1).view(np.uint8)
    if rows is None:
        runs = [(0, size)]
    elif not len(rows):
        runs = []
    else:
        # each run of consecutive rows as the byte range it covers
        width = 8 * math.prod(shape[2:])
        cut = np.flatnonzero(np.diff(rows) != 1) + 1
        first, last = rows[np.r_[0, cut]], rows[np.r_[cut - 1, -1]] + 1
        runs = zip((first * width).tolist(), (last * width).tolist())
    for begin, end in runs:
        # the run's quads, a piece at a time; each decodes to 3 bytes but
        # the padded last, and only the run's own bytes are kept
        for lo in range(begin // 3 * 4, -(-end // 3) * 4, step):
            raw = binascii.a2b_base64(data[lo:min(lo + step, -(-end // 3) * 4)])
            at = lo // 4 * 3
            a, b = max(at, begin), min(at + len(raw), end)
            out[a:b] = np.frombuffer(raw, np.uint8, b - a, a - at)
    # native byte order, as a nested list loads: no copy on a little-endian
    # machine
    return table.astype(float, copy=False)


def _unpack(value, field, path, rows=None):
    """The table a packed field holds; anything but the exact packed form
    raises FileFormatError naming the field.  ``rows`` = (lead, index):
    where the table's leading axes are ``lead``, only its rows at the flat
    indices ``index`` over them are decoded (_decode)."""
    def bad(why):
        return FileFormatError(f"{path}: field '{field}' is not a packed "
                               f"array: {why}")

    if set(value) != {"dtype", "shape", "data"}:
        raise bad(f"keys {sorted(value)}, expected ['data', 'dtype', 'shape']")
    if value["dtype"] != "<f8":
        raise bad(f"dtype {json.dumps(value['dtype'])}, expected \"<f8\"")
    shape = value["shape"]
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise bad(f"shape {json.dumps(shape)} is not a list of "
                  f"non-negative integers")
    if rows is not None:
        lead, index = rows
        rows = index if shape[:2] == list(lead) else None
    try:
        return _decode(value["data"], shape, rows)
    except (TypeError, ValueError):
        pass
    # a defect: the whole-string decode names it
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise bad(f"data is not a base64 string ({exc})") from exc
    if len(raw) != 8 * math.prod(shape):
        raise bad(f"{len(raw)} data bytes for shape {tuple(shape)}, expected "
                  f"{8 * math.prod(shape)}")
    # Python 3.10's b64decode, unlike 3.11's, takes '=' past the padding
    raise bad("data is not a base64 string (padding past its end)")


def _array(doc, field, path, shape=None, rows=None):
    """A table field, packed or as nested lists, as a float array; a None
    in ``shape`` takes any length on that axis.  ``rows``: a packed table
    decodes only these flat indices over its leading two axes where those
    are shape[:2] (_unpack).  The field leaves the document, so that a
    packed table's text is freed once decoded."""
    value = _require(doc, field, path)
    del doc[field]
    if isinstance(value, dict):
        arr = _unpack(value, field, path,
                      None if rows is None else (shape[:2], rows))
    else:
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise FileFormatError(
                f"{path}: field '{field}' is not numeric") from exc
    if shape is not None and (arr.ndim != len(shape) or any(
            n not in (m, None) for m, n in zip(arr.shape, shape))):
        raise FileFormatError(
            f"{path}: field '{field}' has shape {arr.shape}, expected "
            f"{str(shape).replace('None', 'any')}"
        )
    return arr


def _number(doc, field, path, integer=False):
    """A scalar field: a JSON number, integral where ``integer`` is set."""
    value = _require(doc, field, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{path}: field '{field}' must be a number, "
                              f"not {json.dumps(value)[:40]}")
    if integer and isinstance(value, float) and not value.is_integer():
        raise FileFormatError(f"{path}: field '{field}' must be an integer, "
                              f"not {value!r}")
    return int(value) if integer else float(value)


def _read_model(path) -> SemiMarkovModel:
    """The model a document holds, before validate_model's checks."""
    doc = load_document(path, "semi_markov_model")
    n = _number(doc, "n_states", path, integer=True)
    t = _number(doc, "horizon", path, integer=True)
    pi = _array(doc, "pi", path, (n, t + 1))
    jump = _array(doc, "jump", path, (n, t + 1, n))
    x0 = _array(doc, "x0", path, (n,))
    try:
        return SemiMarkovModel(n, t, pi, jump, x0)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_model(path) -> SemiMarkovModel:
    """Read a model document; a model that breaks a constraint of
    validate_model raises InvalidModelError naming the path, the first
    violation and how many there are."""
    model = _read_model(path)
    violations = validate_model(model)
    if violations:
        more = len(violations) - 1
        raise InvalidModelError(
            f"{path}: {violations[0]}"
            + (f" (and {more} more violation(s))" if more else "")
        )
    return model


def _save(path, kind, **fields) -> None:
    """Write a document of ``kind``: each table field packed, None and
    scalar fields as they are."""
    write_json(path, {"schema_version": SCHEMA_VERSION, "kind": kind, **{
        name: value if np.ndim(value) == 0 else _packed(value)
        for name, value in fields.items()}})


def save_model(path, model: SemiMarkovModel) -> None:
    _save(path, "semi_markov_model", n_states=model.n_states,
          horizon=model.horizon, pi=model.pi, jump=model.jump, x0=model.x0)


def _solved_rows(sys):
    """The flat indices over a (T, D) table of the lattice ``sys``'s cells
    before the horizon, the only rows of beta the solvers read; None
    without a lattice."""
    return None if sys is None else sys.plan.key[:sys.plan.offset[sys.horizon]]


def load_linear_problem(path, sys=None):
    """Returns (LinearDriver, terminal array).  Given the lattice ``sys``
    the problem is solved on, an alpha that does not fit it raises
    ProblemDataError before any other field is decoded, and a packed beta
    is decoded only at its cells before the horizon (_solved_rows), its
    other rows left zero; its whole data are still checked."""
    doc = load_document(path, "linear_bsde")
    alpha = _array(doc, "alpha", path)
    if alpha.ndim != 2:
        raise FileFormatError(f"{path}: alpha must be a (T, D) table")
    if sys is not None:
        _require_fit(sys, alpha=alpha)
    t, d = alpha.shape
    g = _array(doc, "g", path, (t, d))
    beta = None
    if doc.get("beta") is not None:
        beta = _array(doc, "beta", path, (t, d, None), _solved_rows(sys))
    terminal = _array(doc, "terminal", path, (d,))
    return LinearDriver(alpha, g, beta), terminal


def save_linear_problem(path, driver: LinearDriver, terminal) -> None:
    _save(path, "linear_bsde", alpha=driver.alpha, g=driver.g,
          beta=driver.beta, terminal=terminal)


def load_control_problem(path, sys=None) -> ControlProblem:
    """Read a control problem; ``sys`` checks alpha's fit and selects the
    rows of beta decoded as in load_linear_problem."""
    doc = load_document(path, "control_problem")
    alpha = _array(doc, "alpha", path)
    if alpha.ndim != 3:
        raise FileFormatError(f"{path}: alpha must be a (T, D, U) table")
    if sys is not None:
        _require_fit(sys, alpha.shape[2:], alpha=alpha)
    t, d, u = alpha.shape
    controls = _array(doc, "controls", path)
    if controls.ndim == 1:
        controls = controls.reshape(-1, 1)
    if controls.ndim != 2:
        raise FileFormatError(f"{path}: field 'controls' has shape "
                              f"{controls.shape}, expected (U,) or (U, q)")
    if controls.shape[0] != u:
        raise FileFormatError(
            f"{path}: {controls.shape[0]} control points but alpha has {u}"
        )
    g = _array(doc, "g", path, (t, d, u))
    beta = _array(doc, "beta", path, (t, d, u, None), _solved_rows(sys))
    terminal = _array(doc, "terminal", path, (d,))
    alpha_bound = _number(doc, "alpha_bound", path)
    beta_bound = _number(doc, "beta_bound", path)
    # fresh tables, which the problem adopts read-only without a copy
    for arr in (controls, alpha, g, beta, terminal):
        arr.flags.writeable = False
    try:
        return ControlProblem(
            controls=controls,
            alpha=alpha,
            beta=beta,
            g=g,
            terminal=terminal,
            alpha_bound=alpha_bound,
            beta_bound=beta_bound,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_control_problem(path, problem: ControlProblem) -> None:
    _save(path, "control_problem", controls=problem.controls,
          alpha=problem.alpha, g=problem.g, beta=problem.beta,
          terminal=problem.terminal, alpha_bound=problem.alpha_bound,
          beta_bound=problem.beta_bound)
