"""Lattice-aware problem loads: given the lattice a problem is solved on,
the loaders decode a packed beta only at the cells before the horizon, the
rows every solver reads.  Those rows are the full decode's bit for bit, the
others zero in pages never written, and the CLI's artifacts and messages
are the ones a full decode gives."""

import base64
import ctypes
import json
import mmap
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smcbsde import (
    ControlProblem,
    LinearDriver,
    ProblemDataError,
    build_lattice,
    cli,
    files,
)
from smcbsde.instances import (
    random_control_problem,
    random_linear_instance,
    random_model,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def _solved_rows(sys_):
    """The flat (time, state) indices of the cells before the horizon."""
    return sys_.plan.key[:sys_.plan.offset[sys_.horizon]]


def _junk(table, sys_, rng):
    """table with each row the solvers never read overwritten by normals,
    with NaN and infinities among them."""
    flat = table.reshape((-1,) + table.shape[2:])
    unread = np.setdiff1d(np.arange(flat.shape[0]), _solved_rows(sys_))
    flat[unread] = rng.standard_normal((unread.size,) + flat.shape[1:])
    flat[unread[::3]] = np.nan
    flat[unread[1::3]] = -np.inf
    return table


def _dense(block_rows, sys_, rng):
    """Dense rows (..., D) holding block_rows (..., W+1) on each reachable
    cell's block, normals off it; each padding slot takes the first
    successor's entry, as the lattice reads a dense row."""
    dense = rng.standard_normal(block_rows.shape[:-1] + (sys_.dim,))
    k, s = np.nonzero(sys_.reachable[:-1])
    block = sys_.block[np.searchsorted(sys_.sources, s)]
    rows, out = block_rows[k, s], dense[k, s]
    # the padding first, so that the first successor's entry is kept
    for j in range(block.shape[1] - 1, -1, -1):
        idx = block[:, j].reshape((-1,) + (1,) * (rows.ndim - 1))
        np.put_along_axis(out, idx, rows[..., j, None], -1)
    dense[k, s] = out
    return dense


@pytest.fixture(scope="module")
def lattice():
    """A sparse lattice (N=3, T=8): 52 of the 216 (time, state) cells
    before the horizon are reachable."""
    sys_ = build_lattice(random_model(np.random.default_rng(3), n=3, t=8,
                                      one_hot_start=True))
    assert 0 < _solved_rows(sys_).size < sys_.horizon * sys_.dim // 4
    return sys_


def _problems(sys_):
    """Linear and control problems by name, with beta rows on the blocks
    and dense, whose unread rows of every table hold junk, and the
    terminal values of the linear ones."""
    rng = np.random.default_rng(11)
    driver, terminal = random_linear_instance(sys_, rng)
    alpha, g, beta = (_junk(a.copy(), sys_, rng)
                      for a in (driver.alpha, driver.g, driver.beta))
    control = random_control_problem(sys_, rng)
    tables = {name: _junk(getattr(control, name).copy(), sys_, rng)
              for name in ("alpha", "g", "beta")}
    dense = _junk(_dense(tables["beta"], sys_, rng), sys_, rng)
    return {
        "linear-block": LinearDriver(alpha, g, beta),
        "linear-dense": LinearDriver(
            alpha, g, _junk(_dense(beta, sys_, rng), sys_, rng)),
        "control-block": replace(control, **tables),
        "control-dense": replace(control, **{**tables, "beta": dense}),
    }, terminal


def _save(path, problem, terminal):
    if isinstance(problem, LinearDriver):
        files.save_linear_problem(path, problem, terminal)
    else:
        files.save_control_problem(path, problem)


def _load(path, sys_=None):
    """Every table a problem document's loader returns, by name."""
    if files.load_document(path)["kind"] == "linear_bsde":
        driver, terminal = files.load_linear_problem(path, sys_)
        return {"alpha": driver.alpha, "g": driver.g, "beta": driver.beta,
                "terminal": terminal}
    problem = files.load_control_problem(path, sys_)
    return {name: getattr(problem, name)
            for name in ("controls", "alpha", "g", "beta", "terminal")}


def _bits(table):
    return np.ascontiguousarray(table).view(np.uint64)


PROBLEMS = ["control-block", "control-dense", "linear-block", "linear-dense"]


@pytest.mark.parametrize("piece", [3, 6, files._PIECE])
@pytest.mark.parametrize("name", PROBLEMS)
def test_selected_rows_are_the_full_decodes_rows(tmp_path, monkeypatch,
                                                 lattice, name, piece):
    problems, terminal = _problems(lattice)
    path = tmp_path / "problem.json"
    _save(path, problems[name], terminal)
    monkeypatch.setattr(files, "_PIECE", piece)
    full, part = _load(path), _load(path, lattice)
    rows = _solved_rows(lattice)
    for field, table in full.items():
        if field != "beta":
            assert np.array_equal(_bits(part[field]), _bits(table)), field
            continue
        lead = (table.shape[0] * table.shape[1],) + table.shape[2:]
        got, want = _bits(part[field]).reshape(lead), _bits(table).reshape(lead)
        assert np.array_equal(got[rows], want[rows])
        assert not np.delete(got, rows, axis=0).any()
        assert np.isnan(np.delete(want, rows, axis=0).view(float)).any()
    if piece < files._PIECE:
        # some run of consecutive rows crosses a piece
        width = np.prod(full["beta"].shape[2:])
        cut = np.flatnonzero(np.diff(rows) != 1) + 1
        first, last = rows[np.r_[0, cut]], rows[np.r_[cut - 1, -1]] + 1
        assert (first * width // piece < (last * width - 1) // piece).any()


@pytest.mark.parametrize("name", PROBLEMS)
def test_a_file_sized_for_another_lattice_is_refused_before_beta_is_decoded(
        tmp_path, monkeypatch, lattice, name):
    problems, terminal = _problems(lattice)
    path = tmp_path / "problem.json"
    _save(path, problems[name], terminal)
    other = build_lattice(random_model(np.random.default_rng(4), n=2, t=3))
    decode, decoded = files._decode, []

    def spied(data, shape, rows=None):
        decoded.append(tuple(shape))
        return decode(data, shape, rows)

    monkeypatch.setattr(files, "_decode", spied)
    with pytest.raises(ProblemDataError) as exc:
        _load(path, other)
    assert str(exc.value) == (
        f"field 'alpha' is sized (T, D) = {(lattice.horizon, lattice.dim)} "
        f"but the model's lattice has (T, D) = {(other.horizon, other.dim)}")
    # alpha alone was decoded, the first field read
    assert decoded == [problems[name].alpha.shape]


CUTS = {"one-time": (slice(1),), "one-state-short": (slice(None), slice(-1)),
        "one-control-short": (slice(None), slice(None), slice(-1))}


@pytest.mark.parametrize("kind, cut", [
    ("linear", "one-time"), ("linear", "one-state-short"),
    ("control", "one-time"), ("control", "one-state-short"),
    ("control", "one-control-short")])
def test_a_beta_of_other_leading_axes_gets_the_shape_message(tmp_path, lattice,
                                                             kind, cut):
    # alpha fits the lattice and beta does not: the rows of the lattice's
    # cells would index past it or into other rows
    cut = CUTS[cut]
    problems, terminal = _problems(lattice)
    path = tmp_path / "problem.json"
    problem = problems[f"{kind}-block"]
    _save(path, problem, terminal)
    doc = json.loads(path.read_text())
    beta = np.ascontiguousarray(problem.beta[cut])
    doc["beta"] = {"dtype": "<f8", "shape": list(beta.shape),
                   "data": base64.b64encode(beta.tobytes()).decode()}
    path.write_text(json.dumps(doc))
    messages = []
    for sys_ in (None, lattice):
        with pytest.raises(files.FileFormatError) as exc:
            _load(path, sys_)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert f"field 'beta' has shape {beta.shape}" in messages[0]


# --------------------------------------------------------------------------
# the control problem keeps the tables it may keep


def _tables(rng, shape=(2, 3, 2)):
    return {"controls": np.arange(2.0), "alpha": rng.uniform(-0.1, 0.1, shape),
            "g": rng.standard_normal(shape),
            "beta": rng.standard_normal(shape + (4,)),
            "terminal": rng.standard_normal(shape[1])}


def test_a_control_problem_keeps_read_only_tables_that_own_their_memory():
    tables = _tables(np.random.default_rng(0))
    for arr in tables.values():
        arr.flags.writeable = False
    problem = ControlProblem(alpha_bound=1.0, beta_bound=10.0, **tables)
    for name in ("alpha", "g", "beta", "terminal"):
        assert getattr(problem, name) is tables[name], name


def test_a_control_problem_copies_any_other_table():
    tables = _tables(np.random.default_rng(0))
    before = {name: arr.copy() for name, arr in tables.items()}
    # a writable array, and a read-only view of a writable one
    view = tables["beta"].view()
    view.flags.writeable = False
    problem = ControlProblem(alpha_bound=1.0, beta_bound=10.0,
                             **{**tables, "beta": view})
    for arr in tables.values():
        arr[...] = np.nan
    for name, arr in before.items():
        got = getattr(problem, name)
        assert not got.flags.writeable, name
        assert np.array_equal(got.reshape(arr.shape), arr), name


def test_a_loaded_control_problem_holds_the_loaders_tables(tmp_path, lattice):
    path = tmp_path / "problem.json"
    files.save_control_problem(path, _problems(lattice)[0]["control-dense"])
    problem = files.load_control_problem(path, lattice)
    for name in ("alpha", "g", "beta", "terminal"):
        table = getattr(problem, name)
        assert table.flags.owndata and not table.flags.writeable, name


# --------------------------------------------------------------------------
# pages: the rows not decoded are never made resident


def _resident_pages(table):
    """The pages of table's memory that are resident (mincore)."""
    page = mmap.PAGESIZE
    lo = table.ctypes.data // page * page
    n = -(-(table.ctypes.data + table.nbytes - lo) // page)
    vec = (ctypes.c_ubyte * n)()
    mincore = ctypes.CDLL(None, use_errno=True).mincore
    mincore.argtypes = (ctypes.c_void_p, ctypes.c_size_t,
                        ctypes.POINTER(ctypes.c_ubyte))
    mincore.restype = ctypes.c_int
    assert mincore(lo, n * page, vec) == 0, ctypes.get_errno()
    return sum(v & 1 for v in vec)


def _row_pages(table, rows):
    """The pages that the rows (flat over the two leading axes) of table
    cover."""
    page, at = mmap.PAGESIZE, table.ctypes.data
    width = table.nbytes // (table.shape[0] * table.shape[1])
    pages = set()
    for r in rows.tolist():
        pages.update(range((at + r * width) // page,
                           (at + (r + 1) * width - 1) // page + 1))
    return len(pages)


@pytest.mark.skipif(sys.platform != "linux", reason="mincore, Linux pages")
@pytest.mark.parametrize("kind", ["linear", "control"])
def test_rows_never_decoded_leave_their_pages_unresident(tmp_path, kind):
    # a dense beta of more than 32 MiB, which malloc always maps afresh,
    # over a sparse lattice: at N=4, T=64 (D=260) 78 of 16640 cells are
    # read, at N=4, T=51 (D=208, two controls) 90 of 10608
    t = 64 if kind == "linear" else 51
    sys_ = build_lattice(random_model(np.random.default_rng(0), n=4, t=t,
                                      one_hot_start=True))
    t, d = sys_.horizon, sys_.dim
    rng = np.random.default_rng(1)
    path = tmp_path / "problem.json"
    if kind == "linear":
        files.save_linear_problem(path, LinearDriver(
            np.zeros((t, d)), np.zeros((t, d)),
            rng.standard_normal((t, d, d))), np.zeros(d))
        beta = files.load_linear_problem(path, sys_)[0].beta
    else:
        files.save_control_problem(path, ControlProblem(
            controls=np.arange(2.0), alpha=np.zeros((t, d, 2)),
            g=np.zeros((t, d, 2)), beta=rng.standard_normal((t, d, 2, d)),
            terminal=np.zeros(d), alpha_bound=1.0, beta_bound=1.0))
        beta = files.load_control_problem(path, sys_).beta
    assert beta.nbytes > 32 << 20
    rows = _solved_rows(sys_)
    written = _row_pages(beta, rows)
    assert written < beta.nbytes // mmap.PAGESIZE // 50
    # and the first page, which holds malloc's header of the mapping too
    assert _resident_pages(beta) <= written + 1


# --------------------------------------------------------------------------
# the CLI: the same artifacts and messages as with every row decoded


# name -> (command, model, problem) under the directory cli_inputs makes:
# the README's commands on the samples (nested lists) and on their packed
# re-saves, and the sparse problems of _problems
CLI_CASES = {
    **{f"{leg}-{command}": (command, f"{leg}/{model}", f"{leg}/{problem}")
       for leg in ("v1", "packed")
       for command, model, problem in (
           ("solve-bsde", "geometric_model", "linear_problem"),
           ("verify-duality", "geometric_model", "linear_problem"),
           ("solve-control", "small_model", "control_problem"))},
    **{f"{name}-{command}": (command, "sparse/model", f"sparse/{name}")
       for name in PROBLEMS
       for command in (("solve-control",) if name.startswith("control")
                       else ("solve-bsde", "verify-duality"))},
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory, lattice):
    """The directory of CLI_CASES' documents."""
    out = tmp_path_factory.mktemp("inputs")
    for leg in ("v1", "packed", "sparse"):
        (out / leg).mkdir()
    for src in SAMPLES.glob("*.json"):
        (out / "v1" / src.name).write_bytes(src.read_bytes())
        dst = out / "packed" / src.name
        kind = files.load_document(src)["kind"]
        if kind == "semi_markov_model":
            files.save_model(dst, files.load_model(src))
        elif kind == "linear_bsde":
            files.save_linear_problem(dst, *files.load_linear_problem(src))
        else:
            files.save_control_problem(dst, files.load_control_problem(src))
    problems, terminal = _problems(lattice)
    files.save_model(out / "sparse" / "model.json", lattice.model)
    for name in PROBLEMS:
        _save(out / "sparse" / f"{name}.json", problems[name], terminal)
    return out


def _artifacts(out, argv):
    """The bytes of each file a command writes to ``out``."""
    assert cli.main(argv + ["--out", str(out)]) == 0
    paths = sorted(out.rglob("*")) if out.is_dir() else [out]
    return {p.relative_to(out): p.read_bytes() for p in paths}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_artifacts_are_those_of_a_full_decode(tmp_path, monkeypatch,
                                                  cli_inputs, case):
    command, model, problem = CLI_CASES[case]
    argv = [command, "--model", str(cli_inputs / f"{model}.json"),
            "--problem", str(cli_inputs / f"{problem}.json")]
    solved_rows, selected = files._solved_rows, []

    def spied(*args):
        selected.append(solved_rows(*args))
        return selected[-1]

    monkeypatch.setattr(files, "_solved_rows", spied)
    lattice_aware = _artifacts(tmp_path / "rows", argv)
    # the lattice matched the problem (a nested-list beta takes no rows)
    assert selected[-1] is not None
    monkeypatch.setattr(files, "_solved_rows", lambda *args: None)
    assert _artifacts(tmp_path / "full", argv) == lattice_aware


SAMPLE = {"solve-bsde": ("geometric_model", "linear_problem"),
          "verify-duality": ("geometric_model", "linear_problem"),
          "solve-control": ("small_model", "control_problem")}


@pytest.mark.parametrize("command", sorted(SAMPLE))
def test_cli_a_dense_row_not_finite_off_its_block_exits_1(tmp_path, capsys,
                                                          command):
    # a NaN off the block of a sample's dense row, saved packed
    model, problem = (SAMPLES / f"{name}.json" for name in SAMPLE[command])
    sys_ = build_lattice(files.load_model(model))
    k = sys_.horizon // 2
    s = int(sys_.reachable_at[k][-1])
    off = np.setdiff1d(np.arange(sys_.dim),
                       sys_.block[np.searchsorted(sys_.sources, s)])[-1]
    path = tmp_path / "problem.json"
    if command == "solve-control":
        loaded = files.load_control_problem(problem)
        beta = loaded.beta.copy()
        beta[k, s, -1, off] = np.nan
        files.save_control_problem(path, replace(loaded, beta=beta))
    else:
        driver, terminal = files.load_linear_problem(problem)
        driver.beta[k, s, off] = np.nan
        files.save_linear_problem(path, driver, terminal)
    assert json.loads(path.read_text())["beta"]["dtype"] == "<f8"
    argv = [command, "--model", str(model), "--problem", str(path),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: field 'beta' is not finite at time {k}, lattice "
        f"state {s} (state, duration) = {sys_.label(s)}")


@pytest.mark.parametrize("command, model, problem, sized, lattice", [
    ("solve-bsde", "small_model", "linear_problem", (8, 18), (3, 8)),
    ("verify-duality", "small_model", "linear_problem", (8, 18), (3, 8)),
    ("solve-control", "geometric_model", "control_problem", (3, 8), (8, 18)),
], ids=["solve-bsde", "verify-duality", "solve-control"])
def test_cli_a_packed_problem_sized_for_another_model(
        tmp_path, capsys, command, model, problem, sized, lattice):
    path = tmp_path / f"{problem}.json"
    src = SAMPLES / f"{problem}.json"
    if command == "solve-control":
        files.save_control_problem(path, files.load_control_problem(src))
    else:
        files.save_linear_problem(path, *files.load_linear_problem(src))
    argv = [command, "--model", str(SAMPLES / f"{model}.json"),
            "--problem", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: field 'alpha' is sized (T, D) = {sized} but the "
        f"model's lattice has (T, D) = {lattice}\n")
