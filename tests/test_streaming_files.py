"""The streaming file layer against whole-text oracles: writers emit the
bytes a whole-text writer gives, the piecewise base64 decoder takes and
refuses exactly what one whole-string decode does, and saves and loads of a
large problem stay within their memory bounds."""

import base64
import errno
import json
import math
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smcbsde import ControlProblem, build_lattice, cli, files, lattice, solve_bsde
from smcbsde.instances import random_linear_instance

from conftest import geometric_model

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


# --------------------------------------------------------------------------
# oracles: the writers and the decoder as one whole text or string


def _json_text(obj, indent=""):
    """obj as JSON, nested lines indented past ``indent``."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            obj = np.where(np.isfinite(obj), obj, None)
        return json.dumps(obj.tolist(), allow_nan=False)
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = []
        for k, v in sorted(obj.items()):
            # json names a key that is no string by that key's own JSON
            key = k if isinstance(k, str) else json.dumps(k)
            items.append(f"{inner}{json.dumps(key)}: {_json_text(v, inner)}")
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)) and obj:
        items = (inner + _json_text(v, inner) for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    if isinstance(obj, float) and not math.isfinite(obj):
        obj = None
    return json.dumps(obj, allow_nan=False)


def oracle_write_json(path, payload):
    Path(path).write_text(_json_text(payload) + "\n")


def oracle_packed(arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"dtype": "<f8", "shape": np.array(arr.shape, dtype=np.int64),
            "data": base64.b64encode(arr.data).decode("ascii")}


def oracle_csv(header, columns):
    """The CSV text of columns, one row at a time: floats by format_number,
    anything else by str."""
    lines = [",".join(header)]
    for row in zip(*(c.tolist() for c in columns)):
        lines.append(",".join(
            files.format_number(x) if isinstance(x, float) else str(x)
            for x in row))
    return "\n".join(lines) + "\n"


def oracle_unpack(value, field, path):
    def bad(why):
        return files.FileFormatError(f"{path}: field '{field}' is not a "
                                     f"packed array: {why}")

    if set(value) != {"dtype", "shape", "data"}:
        raise bad(f"keys {sorted(value)}, expected ['data', 'dtype', 'shape']")
    if value["dtype"] != "<f8":
        raise bad(f"dtype {json.dumps(value['dtype'])}, expected \"<f8\"")
    shape = value["shape"]
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise bad(f"shape {json.dumps(shape)} is not a list of "
                  f"non-negative integers")
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise bad(f"data is not a base64 string ({exc})") from exc
    if len(raw) != 8 * math.prod(shape):
        raise bad(f"{len(raw)} data bytes for shape {tuple(shape)}, expected "
                  f"{8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def _outcome(unpack, value):
    """("ok", the table's bits) or ("error", the message) of one decode."""
    try:
        table = unpack(dict(value), "beta", "p.json")
    except files.FileFormatError as exc:
        return "error", str(exc)
    return "ok", (table.shape, table.tobytes())


def _outcomes(value, rows):
    """The outcomes of files._unpack and of the oracle on a value, with
    ``rows`` (flat indices over the value's two leading axes, or None) the
    only rows files._unpack decodes, and the only rows of the oracle's
    table that are kept: a row-selected decode leaves the others zero."""
    if rows is None:
        return _outcome(files._unpack, value), _outcome(oracle_unpack, value)
    got = _outcome(lambda *a: files._unpack(*a, (value["shape"][:2], rows)),
                   value)
    want = _outcome(oracle_unpack, value)
    if want[0] == "ok":
        shape, raw = want[1]
        lead = (math.prod(shape[:2]),) + shape[2:]
        table, kept = np.frombuffer(raw).reshape(lead), np.zeros(lead)
        kept[rows] = table[rows]
        want = "ok", (shape, kept.tobytes())
    return got, want


# --------------------------------------------------------------------------
# byte identity of the writers


SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
           1.7976931348623157e308, 1 / 3, 0.1]
_I64 = np.iinfo(np.int64)


class Packed:
    """A table the payload strategy packs, by each writer's own packing."""

    def __init__(self, table):
        self.table = table


def _floats():
    return st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def _arrays():
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    return st.one_of(
        hnp.arrays(np.float64, shapes, elements=_floats()),
        hnp.arrays(np.int64, shapes,
                   elements=st.integers(int(_I64.min), int(_I64.max))),
    )


def _leaves():
    return st.one_of(
        st.none(), st.booleans(), st.integers(-2**70, 2**70), _floats(),
        st.text(max_size=4), _arrays(),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                min_side=0, max_side=4),
                   elements=_floats()).map(Packed),
    )


def _payloads():
    return st.recursive(_leaves(), lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), kids, max_size=3),
        st.dictionaries(st.integers(-5, 5), kids, max_size=3),
    ), max_leaves=8)


def _pack(obj, packed):
    """obj with every Packed table in the form ``packed`` makes."""
    if isinstance(obj, Packed):
        return packed(obj.table)
    if isinstance(obj, dict):
        return {k: _pack(v, packed) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_pack(v, packed) for v in obj)
    return obj


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_payloads(), st.sampled_from([1, 5, 1 << 18]),
       st.sampled_from([3, 6, files._PIECE]))
def test_write_json_streams_the_whole_text_writers_bytes(
        tmp_path_factory, payload, block_entries, piece):
    # small blocks and pieces, so that arrays and tables cross them
    out = tmp_path_factory.mktemp("json")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "BLOCK_ENTRIES", block_entries)
        mp.setattr(files, "_PIECE", piece)
        files.write_json(out / "new.json", _pack(payload, files._packed))
    oracle_write_json(out / "old.json", _pack(payload, oracle_packed))
    assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()


@pytest.mark.parametrize("piece", [3, 6, files._PIECE])
def test_packed_tables_across_piece_boundaries(tmp_path, monkeypatch, piece):
    """Tables of 0 to 3 entries (every padding), and of piece - 1, piece,
    piece + 1 and two pieces' entries, encode to the whole table's base64
    and decode back bit for bit."""
    monkeypatch.setattr(files, "_PIECE", piece)
    rng = np.random.default_rng(7)
    for n in sorted({0, 1, 2, 3, piece - 1, piece, piece + 1, 2 * piece,
                     2 * piece + 1}):
        table = rng.standard_normal(n)
        table[::3] = -0.0
        files.write_json(tmp_path / "new.json", {"t": files._packed(table)})
        oracle_write_json(tmp_path / "old.json", {"t": oracle_packed(table)})
        assert ((tmp_path / "new.json").read_bytes()
                == (tmp_path / "old.json").read_bytes()), n
        value = json.loads((tmp_path / "new.json").read_text())["t"]
        back = files._unpack(value, "t", "p.json")
        assert back.dtype == np.float64 and back.flags.writeable
        assert back.tobytes() == table.tobytes(), n


def test_packed_tables_need_no_contiguous_float64_input(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "_PIECE", 3)
    tables = [np.arange(24.0).reshape(2, 3, 4).transpose(2, 0, 1),
              np.arange(-5, 6).reshape(1, 11), np.float64(2.5),
              np.arange(20.0)[::3], [1.0, 2.0]]
    for table in tables:
        files.write_json(tmp_path / "new.json", files._packed(table))
        oracle_write_json(tmp_path / "old.json", oracle_packed(table))
        assert ((tmp_path / "new.json").read_bytes()
                == (tmp_path / "old.json").read_bytes())


def test_a_write_that_fails_leaves_no_file(tmp_path):
    # the payload fails past its first piece, and the columns past the
    # header
    with pytest.raises(TypeError):
        files.write_json(tmp_path / "a.json", {"a": np.zeros(3), "b": {1}})
    with pytest.raises(TypeError):
        files.write_csv(tmp_path / "a.csv", ("c", "d"),
                        (np.zeros(3), np.array(["x", "y", "z"])))
    assert list(tmp_path.iterdir()) == []


def _column(draw, rows):
    if draw(st.booleans()):
        return draw(hnp.arrays(np.int64, rows, elements=st.integers(
            int(_I64.min), int(_I64.max))))
    return draw(hnp.arrays(np.float64, rows, elements=_floats()))


@st.composite
def _column_tables(draw):
    rows = draw(st.integers(0, 40))
    return tuple(_column(draw, rows) for _ in range(draw(st.integers(1, 4))))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_column_tables(), st.sampled_from([1, 7, 1 << 18]))
def test_write_csv_columns_are_the_per_row_text(tmp_path_factory, columns,
                                               block_entries):
    header = tuple(f"c{j}" for j in range(len(columns)))
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "BLOCK_ENTRIES", block_entries)
        files.write_csv(path, header, columns)
    assert path.read_bytes() == oracle_csv(header, columns).encode()


# --------------------------------------------------------------------------
# strict decoding: the whole-string decode's messages


def _data(n):
    return base64.b64encode(np.arange(n, dtype="<f8").tobytes()).decode()


# 10 entries: 80 bytes, 108 characters ending in one '=', which a piece of
# 3 entries cuts at 32, 64 and 96
DATA = _data(10)
MALFORMED_DATA = {
    "non-ascii": DATA[:40] + "é" + DATA[41:],
    "bad-first-piece": "*" + DATA[1:],
    "bad-middle-piece": DATA[:45] + "*" + DATA[46:],
    "bad-last-piece": DATA[:-3] + "*" + DATA[-2:],
    "whitespace": DATA[:32] + "\n" + DATA[32:],
    "url-safe": DATA[:50] + "-" + DATA[51:],
    "pad-inside-a-piece": DATA[:5] + "=" + DATA[6:],
    "pad-ending-a-piece": DATA[:31] + "=" + DATA[32:],
    "pads-ending-a-piece": DATA[:30] + "==" + DATA[32:],
    "data-after-padding": DATA + "QUJD",
    "pad-after-padding": DATA + "=",
    "three-pads": DATA[:-1] + "===",
    "length-not-a-multiple-of-4": DATA[:-1],
    "one-entry-short": _data(9),
    "one-entry-long": _data(11),
    "empty": "",
    "number": 0,
    "float": 1.5,
    "list": [DATA],
    "null": None,
    "true": True,
}


# the rows of DATA's 10 entries, as a (10, 1) table, that a selection
# decodes: none past the third, so that the middle and the last piece's
# defects sit in rows never decoded, or a run across the 3-entry pieces
SELECTIONS = {"all": None, "first-rows": [0, 1, 2],
              "across-pieces": [2, 3, 4, 7]}


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("piece", [3, files._PIECE])
@pytest.mark.parametrize("defect", sorted(MALFORMED_DATA))
def test_malformed_data_gets_the_whole_string_message(monkeypatch, piece,
                                                      defect, selection):
    monkeypatch.setattr(files, "_PIECE", piece)
    rows = SELECTIONS[selection]
    value = {"dtype": "<f8", "shape": [10] if rows is None else [10, 1],
             "data": MALFORMED_DATA[defect]}
    got, want = _outcomes(value, rows)
    assert want[0] == "error"
    assert got == want


@pytest.mark.parametrize("piece", [3, files._PIECE])
def test_a_defect_in_a_row_never_decoded_is_still_refused(monkeypatch, piece):
    # the last entry's first character, where only the first row is decoded
    monkeypatch.setattr(files, "_PIECE", piece)
    data = DATA[:96] + "*" + DATA[97:]
    value = {"dtype": "<f8", "shape": [10, 1], "data": data}
    got, want = _outcomes(value, [0])
    assert want[0] == "error" and "not a base64 string" in want[1]
    assert got == want


def test_a_valid_field_decodes_under_each_piece(monkeypatch):
    for piece in (3, 6, files._PIECE):
        monkeypatch.setattr(files, "_PIECE", piece)
        value = {"dtype": "<f8", "shape": [2, 5], "data": DATA}
        assert _outcome(files._unpack, value) == _outcome(oracle_unpack, value)


@st.composite
def _mutated_fields(draw):
    """A packed field of 0 to 7 entries whose data has up to three edits
    (a character replaced, inserted or deleted), under its own shape or one
    entry off."""
    n = draw(st.integers(0, 7))
    data = list(_data(n))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        char = draw(st.sampled_from("AQgw+/=*é "))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or not data:
            data.insert(at, char)
        elif edit == "replace":
            data[min(at, len(data) - 1)] = char
        else:
            del data[min(at, len(data) - 1)]
    shape = draw(st.sampled_from([[n], [max(n - 1, 0)], [n + 1]]))
    return {"dtype": "<f8", "shape": shape, "data": "".join(data)}


@pytest.mark.parametrize("select", [False, True])
@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_mutated_fields(), st.sampled_from([3, 6]),
       st.sets(st.integers(0, 7)).map(sorted))
def test_piecewise_decode_takes_what_the_whole_string_decode_takes(
        select, value, piece, rows):
    if select:
        # the same data as a (m, 1) table, of which only ``rows`` are read
        m = value["shape"][0]
        value = {**value, "shape": [m, 1]}
        rows = np.array([r for r in rows if r < m], dtype=np.int64)
    else:
        rows = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_PIECE", piece)
        got, want = _outcomes(value, rows)
    if got != want and sys.version_info < (3, 11):
        # 3.10's b64decode takes '=' past a padding's end; 3.11's refuses it
        assert want[0] == "ok" and got[1].endswith("(padding past its end)")
        return
    assert got == want


# --------------------------------------------------------------------------
# undecodable text and paths the operating system refuses


LOADERS = {
    "load_document": files.load_document,
    "load_model": files.load_model,
    "load_linear_problem": files.load_linear_problem,
    "load_control_problem": files.load_control_problem,
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_a_file_that_is_not_utf8_is_a_format_error(tmp_path, loader):
    path = tmp_path / "f.json"
    path.write_bytes(b'{"schema_version": 2, "kind": "\xff"}')
    message = f"{path}: not UTF-8 text: byte 0xff at offset 31"
    with pytest.raises(files.FileFormatError) as exc:
        LOADERS[loader](path)
    assert str(exc.value) == message


def test_cli_validate_reports_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes((SAMPLES / "geometric_model.json").read_bytes()[:40]
                     + b"\xfe")
    assert cli.main(["validate", "--model", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: byte 0xfe at offset 40\n")


MODEL = str(SAMPLES / "geometric_model.json")
PROBLEM = str(SAMPLES / "linear_problem.json")
# argv, the path the error names and its errno; {dir} is a work directory
OS_ERROR_CASES = {
    "validate-model-directory": (
        ["validate", "--model", "{dir}"], "{dir}", errno.EISDIR),
    "validate-out": (
        ["validate", "--model", MODEL, "--out", "{dir}/missing/v.json"],
        "{dir}/missing/v.json", errno.ENOENT),
    "simulate-out": (
        ["simulate", "--model", MODEL, "--seed", "1", "--out",
         "{dir}/missing/p.csv"], "{dir}/missing/p.csv", errno.ENOENT),
    "verify-duality-out": (
        ["verify-duality", "--model", MODEL, "--problem", PROBLEM, "--out",
         "{dir}/missing/x.json"], "{dir}/missing/x.json", errno.ENOENT),
    "verify-all-out": (
        ["verify-all", "--seed", "0", "--out", "{dir}/missing/x.json"],
        "{dir}/missing/x.json", errno.ENOENT),
}


@pytest.mark.parametrize("case", sorted(OS_ERROR_CASES))
def test_cli_a_path_the_system_refuses_exits_1(tmp_path, capsys, case):
    argv, where, code = OS_ERROR_CASES[case]
    argv = [a.format(dir=tmp_path) for a in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {where.format(dir=tmp_path)}: {os.strerror(code)}\n"


# --------------------------------------------------------------------------
# memory: a geometric N=8, T=128 problem with beta rows on the blocks


def _peak(func):
    """func's result and the peak of the memory it held above its start,
    in bytes, under tracemalloc."""
    tracemalloc.start()
    try:
        result = func()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_problem(tmp_path_factory):
    """(directory, lattice, driver, terminal, control problem): a
    geometric N=8, T=128 lattice (D=1032), a random_linear_instance on it
    (a 15 MB file) and a U=2 control problem of random tables (31 MB)."""
    sys_ = build_lattice(geometric_model(np.linspace(0.2, 0.8, 8), 128))
    rng = np.random.default_rng(0)
    driver, terminal = random_linear_instance(sys_, rng)
    t, d, w = sys_.horizon, sys_.dim, sys_.block.shape[1]
    control = ControlProblem(
        controls=np.arange(2.0), alpha=rng.uniform(-0.4, 0.4, (t, d, 2)),
        beta=rng.standard_normal((t, d, 2, w)),
        g=rng.uniform(-1.0, 1.0, (t, d, 2)), terminal=terminal,
        alpha_bound=0.4, beta_bound=10.0)
    return tmp_path_factory.mktemp("large"), sys_, driver, terminal, control


MB = 1 << 20


def test_saving_a_problem_holds_no_copy_of_its_tables(large_problem):
    out, _, driver, terminal, control = large_problem
    saves = {
        "linear.json": lambda: files.save_linear_problem(
            out / "linear.json", driver, terminal),
        "control.json": lambda: files.save_control_problem(
            out / "control.json", control),
    }
    for name, save in saves.items():
        _, peak = _peak(save)
        assert (out / name).stat().st_size > 10 * MB
        assert peak <= 1 * MB, (name, peak)


def test_loading_a_problem_peaks_near_twice_its_file(large_problem):
    out, _, driver, terminal, control = large_problem
    files.save_linear_problem(out / "linear.json", driver, terminal)
    files.save_control_problem(out / "control.json", control)
    (back, back_terminal), peak = _peak(
        lambda: files.load_linear_problem(out / "linear.json"))
    assert peak <= 2.1 * (out / "linear.json").stat().st_size
    assert back.beta.tobytes() == driver.beta.tobytes()
    assert back_terminal.tobytes() == terminal.tobytes()
    back, peak = _peak(lambda: files.load_control_problem(out / "control.json"))
    assert peak <= 2.1 * (out / "control.json").stat().st_size
    assert back.beta.tobytes() == control.beta.tobytes()


def test_writing_a_solution_peaks_below_half_the_whole_text(large_problem):
    out, sys_, driver, terminal, _ = large_problem
    solution = solve_bsde(sys_, driver, terminal)
    plan = sys_.plan
    # the tables solve-bsde writes to solution.json
    payload = {
        "times": plan.times,
        "cells": plan.cells,
        "values": solution.cell_values,
        "integrands": solution.cell_integrands,
        "successors": solution.successors[
            plan.cells[:len(solution.cell_integrands)]],
    }
    _, streamed = _peak(lambda: files.write_json(out / "new.json", payload))
    _, whole = _peak(lambda: oracle_write_json(out / "old.json", payload))
    assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()
    assert streamed < whole / 2, (streamed, whole)


def test_a_huge_declared_shape_raises_before_it_allocates(tmp_path):
    doc = {"schema_version": 2, "kind": "linear_bsde",
           "alpha": {"dtype": "<f8", "shape": [10**12], "data": _data(1)}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))

    def load():
        with pytest.raises(files.FileFormatError) as exc:
            files.load_linear_problem(path)
        return str(exc.value)

    message, peak = _peak(load)
    assert message == (
        f"{path}: field 'alpha' is not a packed array: 8 data bytes for "
        f"shape ({10**12},), expected {8 * 10**12}")
    assert peak < 1 * MB
