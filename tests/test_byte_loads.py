"""Problem loads that read long packed strings straight from the file's
bytes, against the whole-text parse they replaced
(``dense.oracle_load_document``): load_document and the three loaders give
the oracle's tables and the oracle's messages, bit for bit and character
for character, on the sample inputs, on packed saves above the size from
which strings are read from the bytes, and on edits of their text."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcbsde import (ControlProblem, LinearDriver, SemiMarkovModel,
                     build_lattice, files)
from smcbsde.instances import random_control_problem, random_linear_instance

from conftest import geometric_model
from dense import oracle_load_document

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

LOADERS = {
    "load_document": files.load_document,
    "load_model": files.load_model,
    "load_linear_problem": files.load_linear_problem,
    "load_control_problem": files.load_control_problem,
}
KIND_LOADER = {"semi_markov_model": "load_model",
               "linear_bsde": "load_linear_problem",
               "control_problem": "load_control_problem"}


def _bits(value):
    """A loader's result as comparable values: every table by its dtype,
    shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (SemiMarkovModel, ControlProblem, LinearDriver)):
        return type(value).__name__, {k: _bits(v) for k, v in
                                      sorted(vars(value).items())}
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(load, *args):
    """("ok", the result's bits) or ("error", the exception's type and
    message) of one load."""
    try:
        return "ok", _bits(load(*args))
    except Exception as exc:  # every outcome is compared, errors included
        return "error", type(exc).__name__, str(exc)


def _outcomes(path, loader, sys_=None):
    """The outcomes of ``loader`` on ``path`` and of the same loader on the
    whole-text parse of the oracle."""
    args = (path,) if sys_ is None else (path, sys_)
    got = _outcome(LOADERS[loader], *args)
    if loader == "load_document":
        return got, _outcome(oracle_load_document, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_document",
                   lambda p, kind, tables=(): oracle_load_document(p, kind))
        return got, _outcome(LOADERS[loader], *args)


def _same_outcomes(path, loaders, sys_=None):
    for loader in loaders:
        got, want = _outcomes(path, loader, sys_)
        assert got == want, loader
    return want


# --------------------------------------------------------------------------
# the corpus: sample inputs and packed saves above the threshold


@pytest.fixture(scope="module")
def saves(tmp_path_factory):
    """(directory, lattice): a geometric N=3, T=8 model (D=27) with a
    dense-beta and a block-beta linear problem and a U=2 control problem on
    it, and a geometric N=8, T=64 model, all saved packed."""
    out = tmp_path_factory.mktemp("saves")
    model = geometric_model(np.linspace(0.2, 0.8, 3), 8)
    sys_ = build_lattice(model)
    rng = np.random.default_rng(29)
    t, d = sys_.horizon, sys_.dim
    files.save_model(out / "model.json", model)
    files.save_model(out / "model-large.json",
                     geometric_model(np.linspace(0.2, 0.8, 8), 64))
    files.save_linear_problem(out / "linear-dense.json", LinearDriver(
        rng.uniform(-0.1, 0.1, (t, d)), rng.uniform(-1.0, 1.0, (t, d)),
        1e-3 * rng.standard_normal((t, d, d))), rng.uniform(-1.0, 1.0, d))
    files.save_linear_problem(out / "linear-block.json",
                              *random_linear_instance(sys_, rng))
    files.save_control_problem(out / "control.json",
                               random_control_problem(sys_, rng, n_controls=2))
    return out, sys_


SAVES = ["model-large.json", "linear-dense.json", "linear-block.json",
         "control.json"]


def _loaders(path):
    return ["load_document", KIND_LOADER[oracle_load_document(path)["kind"]]]


@pytest.mark.parametrize("name", sorted(p.name for p in SAMPLES.glob("*.json")))
def test_sample_inputs_load_as_the_oracle_loads_them(name, saves):
    path = SAMPLES / name
    loaders = _loaders(path)
    assert _same_outcomes(path, loaders)[0] == "ok"
    if loaders[1] != "load_model":
        _same_outcomes(path, loaders[1:], saves[1])


@pytest.mark.parametrize("name", SAVES)
def test_saves_load_as_the_oracle_loads_them(saves, name):
    out, sys_ = saves
    path = out / name
    assert path.stat().st_size > files._LONG
    loaders = _loaders(path)
    assert _same_outcomes(path, loaders)[0] == "ok"
    if loaders[1] != "load_model":
        assert _same_outcomes(path, loaders[1:], sys_)[0] == "ok"
    # another kind's loader names the kind
    other = "load_control_problem" if "linear" in name else "load_linear_problem"
    assert _same_outcomes(path, [other])[0] == "error"


@pytest.mark.parametrize("name", SAVES)
def test_long_packed_strings_are_read_from_the_bytes(saves, name):
    path = saves[0] / name
    kind = oracle_load_document(path)["kind"]
    tables = ("pi", "jump", "x0", "controls", "alpha", "g", "beta", "terminal")
    doc = files._document(path, kind, tables)
    spans = {field: value["data"] for field, value in doc.items()
             if isinstance(value, dict)
             and isinstance(value["data"], memoryview)}
    assert spans, "no string was read from the bytes"
    whole = files.load_document(path)
    for field, span in spans.items():
        assert len(span) >= files._LONG
        # load_document still returns the strings
        assert span.tobytes().decode("ascii") == whole[field]["data"]
    assert all(isinstance(value["data"], str)
               for value in whole.values() if isinstance(value, dict))


def test_a_short_file_is_parsed_whole(saves, monkeypatch):
    path = saves[0] / "model.json"
    assert path.stat().st_size < files._LONG
    decoded = []
    text = files._text
    monkeypatch.setattr(files, "_text",
                        lambda *a: decoded.append(a[0]) or text(*a))
    files.load_model(path)
    assert decoded == [path]


# --------------------------------------------------------------------------
# edits of a save's text


def _span(raw, field):
    """The bytes lo:hi of the data string of ``field``'s packed table."""
    lo = raw.index(b'"data": "', raw.index(b'"%s": {' % field.encode())) + 9
    return lo, raw.index(b'"', lo)


def _put(raw, at, new, width=1):
    return raw[:at] + new + raw[at + width:]


def _in_beta(new, where=0.5, width=1):
    """An edit replacing ``width`` bytes of beta's data, a fraction
    ``where`` into it, by ``new``."""
    def edit(raw):
        lo, hi = _span(raw, "beta")
        return _put(raw, lo + int(where * (hi - lo)), new, width)
    return edit


def _escaped_slash(raw):
    lo, hi = _span(raw, "beta")
    return _put(raw, raw.index(b"/", lo, hi), b"\\/")


def _escaped_letter(raw):
    lo, hi = _span(raw, "beta")
    return _put(raw, raw.index(b"A", lo, hi), b"\\u0041")


def _ending(new):
    def edit(raw):
        _, hi = _span(raw, "beta")
        return _put(raw, hi - len(new), new, len(new))
    return edit


def _long_data(raw):
    lo, hi = _span(raw, "beta")
    return raw[lo - 9:hi + 1]


def _field(name, value):
    """An edit adding ``"name": value`` first in the top-level object;
    ``value`` may read beta's '"data": "..."' pair."""
    def edit(raw):
        text = value(_long_data(raw)) if callable(value) else value
        return b'{\n  "' + name + b'": ' + text + b"," + raw[1:]
    return edit


def _replace(old, new, count=1):
    def edit(raw):
        assert old in raw
        return raw.replace(old, new, count)
    return edit


def _then(*edits):
    def edit(raw):
        for one in edits:
            raw = one(raw)
        return raw
    return edit


def _missing_comma(raw):
    # the comma after beta's table: a JSON error after a long string
    at = raw.index(b"\n", _span(raw, "beta")[1])
    at = raw.index(b"}", at)
    return _put(raw, at + 1, b"")


def _beta_twice(raw):
    at = raw.index(b'"beta": {')
    end = raw.index(b"}", _span(raw, "beta")[1]) + 1
    return raw[:end] + b",\n  " + raw[at:end] + raw[end:]


def _data_twice(raw):
    at = raw.index(b'"data": "', raw.index(b'"beta": {'))
    return raw[:at] + _long_data(raw) + b",\n    " + raw[at:]


def _truncated(fraction):
    def edit(raw):
        return raw[:int(fraction * len(raw))]
    return edit


# edits of linear-dense.json, by what they make of it
EDITS = {
    # the data string of beta
    "escaped-slash": _escaped_slash,
    "escaped-letter": _escaped_letter,
    "minus": _in_beta(b"-"),
    "space": _in_beta(b" "),
    "newline": _in_beta(b"\n"),
    "tab": _in_beta(b"\t"),
    "control-byte": _in_beta(b"\x01"),
    "byte-0xff": _in_beta(b"\xff"),
    "two-byte-utf8": _in_beta(b"\xc3\xa9", width=2),
    "pad-mid-string": _in_beta(b"="),
    "pad-first": _in_beta(b"=", where=0.0),
    "bad-first": _in_beta(b"*", where=0.0),
    "bad-last": _ending(b"*"),
    "one-pad": _ending(b"="),
    "two-pads": _ending(b"=="),
    "three-pads": _ending(b"==="),
    "pad-then-data": _ending(b"=A"),
    "one-quad-short": _ending(b"\"" + b" " * 3),
    "quote-inside": _in_beta(b'"'),
    "backslash-inside": _in_beta(b"\\"),
    "nul-escape-in-data": _in_beta(b"\\u0000", width=4),
    # "data" strings the loaders do not read as a table's data
    "data-at-top-level": _field(b"data", lambda pair: pair[8:]),
    "data-under-kind": _then(
        _replace(b'"kind": "linear_bsde"', b'"kind": {}'),
        lambda raw: raw.replace(b'"kind": {}',
                                b'"kind": {' + _long_data(raw) + b"}")),
    "data-under-version": _then(
        _replace(b'"schema_version": 2', b'"schema_version": {}'),
        lambda raw: raw.replace(b'"schema_version": {}',
                                b'"schema_version": {' + _long_data(raw)
                                + b"}")),
    "data-under-dtype": lambda raw: raw.replace(
        b'"dtype": "<f8"', b'"dtype": {' + _long_data(raw) + b"}", 1),
    "data-in-a-list": _field(b"notes", lambda pair: b"[{" + pair + b"}]"),
    "data-under-another-key": _field(b"notes", lambda pair: b"{" + pair + b"}"),
    "escaped-quote-key": _field(b'x\\"data', lambda pair: pair[8:]),
    "data-twice": _data_twice,
    "beta-twice": _beta_twice,
    "nul-escape": _field(b"note", b'"\\u0000"'),
    "placeholder-lookalike": _replace(
        b'"terminal": {\n    "data": "',
        b'"terminal": {\n    "data": "\\u00000'),
    "escaped-backslash-nul": _field(b"note", b'"\\\\u0000"'),
    # line endings, JSON errors and encodings
    "crlf": _replace(b"\n", b"\r\n", -1),
    "lone-cr": _replace(b"\n", b"\r", -1),
    "missing-comma": _missing_comma,
    "crlf-then-error": _then(_missing_comma, _replace(b"\n", b"\r\n", -1)),
    "lone-cr-then-error": _then(_missing_comma, _replace(b"\n", b"\r", -1)),
    "error-before-data": _replace(b'"alpha": {', b'"alpha" {'),
    "trailing-data": lambda raw: raw + b"x",
    "truncated-in-data": _truncated(0.5),
    "truncated-at-end": _truncated(0.999),
    "empty": lambda raw: b"",
    "utf8-bom": lambda raw: b"\xef\xbb\xbf" + raw,
    "byte-0xff-in-a-key": _replace(b'"shape"', b'"sh\xffape"'),
    "top-level-list": lambda raw: b"[" + raw + b"]",
    "schema-version-3": _replace(b'"schema_version": 2', b'"schema_version": 3'),
    "wrong-kind": _replace(b'"linear_bsde"', b'"control_problem"'),
    "missing-field": _replace(b'"terminal"', b'"terminus"'),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_edited_save_loads_as_the_oracle_loads_it(saves, tmp_path, edit):
    out, sys_ = saves
    path = tmp_path / "edited.json"
    path.write_bytes(EDITS[edit]((out / "linear-dense.json").read_bytes()))
    _same_outcomes(path, ["load_document", "load_linear_problem",
                          "load_control_problem"])
    _same_outcomes(path, ["load_linear_problem"], sys_)


def test_the_edits_meet_both_outcomes(saves, tmp_path):
    out, _ = saves
    seen = set()
    for edit in EDITS.values():
        path = tmp_path / "edited.json"
        path.write_bytes(edit((out / "linear-dense.json").read_bytes()))
        seen.add(_outcomes(path, "load_linear_problem")[0][0])
    assert seen == {"ok", "error"}


def test_a_utf8_error_names_the_files_offset(saves, tmp_path):
    out, _ = saves
    raw = (out / "linear-dense.json").read_bytes()
    lo, hi = _span(raw, "beta")
    path = tmp_path / "edited.json"
    path.write_bytes(_put(raw, hi - 5, b"\xff"))
    with pytest.raises(files.FileFormatError) as exc:
        files.load_linear_problem(path)
    assert str(exc.value) == (f"{path}: not UTF-8 text: byte 0xff at offset "
                              f"{hi - 5}")


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_a_json_error_after_a_long_string_names_its_line_and_column(
        saves, tmp_path, ending):
    out, _ = saves
    raw = _missing_comma((out / "linear-dense.json").read_bytes())
    path = tmp_path / "edited.json"
    path.write_bytes(raw.replace(b"\n", ending))
    with pytest.raises(files.FileFormatError) as exc:
        files.load_linear_problem(path)
    # the line and column of the same error in the file with "\n" endings
    text = raw.decode()
    at = text.index('"g"', text.index('"beta"'))
    line = text.count("\n", 0, at) + 1
    column = at - text.rindex("\n", 0, at)
    assert str(exc.value) == (f"{path}: invalid JSON at line {line}, column "
                              f"{column}: Expecting ',' delimiter")


def test_a_third_pad_is_refused_in_a_row_never_decoded(tmp_path):
    # a dense beta of 4 * 10 * 2 * 10 = 800 entries, 6400 bytes, ends in
    # "=="; a third '=' before them sits in a row the lattice never reads
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    t, d = sys_.horizon, sys_.dim
    rng = np.random.default_rng(5)
    problem = ControlProblem(
        controls=np.arange(2.0), alpha=rng.uniform(-0.1, 0.1, (t, d, 2)),
        beta=1e-3 * rng.standard_normal((t, d, 2, d)),
        g=rng.uniform(-1.0, 1.0, (t, d, 2)), terminal=np.zeros(d),
        alpha_bound=0.1, beta_bound=1.0)
    path = tmp_path / "control.json"
    files.save_control_problem(path, problem)
    raw = path.read_bytes()
    lo, hi = _span(raw, "beta")
    assert raw[hi - 3:hi].endswith(b"==") and hi - lo > files._LONG
    assert (t * d - 1) not in files._solved_rows(sys_)
    path.write_bytes(_put(raw, hi - 3, b"="))
    want = _same_outcomes(path, ["load_control_problem"], sys_)
    assert want[0] == "error" and "not a base64 string" in want[2]


# --------------------------------------------------------------------------
# random edits near and inside the long strings


@pytest.fixture(scope="module")
def small_save(tmp_path_factory):
    """The bytes of a dense-beta linear problem on a geometric N=2, T=6
    model (D=14), a 12.6 KB beta string in a 16 KB file."""
    sys_ = build_lattice(geometric_model((0.3, 0.6), 6))
    rng = np.random.default_rng(3)
    t, d = sys_.horizon, sys_.dim
    path = tmp_path_factory.mktemp("small") / "p.json"
    files.save_linear_problem(path, LinearDriver(
        rng.uniform(-0.1, 0.1, (t, d)), rng.uniform(-1.0, 1.0, (t, d)),
        1e-3 * rng.standard_normal((t, d, d))), rng.uniform(-1.0, 1.0, d))
    raw = path.read_bytes()
    assert _span(raw, "beta")[1] - _span(raw, "beta")[0] > files._LONG
    return raw


BYTES = [b'"', b"\\", b"=", b"-", b" ", b"\n", b"\r", b"\x00", b"\xff", b"A",
         b"{", b"}", b",", b":", b"\\u0000", b'"data": "']


@st.composite
def _edits(draw):
    """Up to three byte edits (replace, insert, delete), each anywhere in
    the file or near an end of beta's data string."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        near = draw(st.sampled_from(["anywhere", "lo", "hi"]))
        offset = draw(st.integers(-12, 12))
        spot = draw(st.floats(0.0, 1.0))
        edits.append((near, offset, spot, draw(st.sampled_from(BYTES)),
                      draw(st.sampled_from(["replace", "insert", "delete"]))))
    return edits


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_edits())
def test_random_edits_load_as_the_oracle_loads_them(small_save, edits):
    raw = small_save
    for near, offset, spot, new, how in edits:
        try:
            lo, hi = _span(raw, "beta")
        except ValueError:  # an edit broke the field's opening
            lo, hi = 0, len(raw)
        at = {"anywhere": int(spot * len(raw)), "lo": lo + offset,
              "hi": hi + offset}[near]
        at = min(max(at, 0), len(raw))
        raw = _put(raw, at, b"" if how == "delete" else new,
                   0 if how == "insert" else 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_bytes(raw)
        _same_outcomes(path, ["load_document", "load_linear_problem"])
