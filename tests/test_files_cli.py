"""Document round-trips, format diagnostics, and the command-line front end."""

import base64
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smcbsde import (
    ControlProblem,
    LinearDriver,
    SemiMarkovModel,
    build_lattice,
    cli,
    duality,
    files,
    lattice,
    linalg,
    simulate_paths,
    solve_bsde,
    solve_control,
)
from smcbsde.instances import (
    random_control_problem,
    random_linear_instance,
    random_model,
)

from conftest import geometric_model, tiny_model
from dense import geometry_for, oracle_cell_noise, transition


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(50)
    model = random_model(rng, n_max=2, t_max=3, n=2, t=3)
    files.save_model(tmp_path / "model.json", model)
    sys_ = build_lattice(model)
    driver, terminal = random_linear_instance(sys_, rng)
    files.save_linear_problem(tmp_path / "linear.json", driver, terminal)
    prob = random_control_problem(sys_, rng, n_controls=2)
    files.save_control_problem(tmp_path / "control.json", prob)
    return tmp_path


def test_model_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(51)
    model = random_model(rng)
    path = tmp_path / "m.json"
    files.save_model(path, model)
    back = files.load_model(path)
    assert back.n_states == model.n_states
    assert back.horizon == model.horizon
    assert np.array_equal(back.pi, model.pi)
    assert np.array_equal(back.jump, model.jump)
    assert np.array_equal(back.x0, model.x0)


def test_linear_problem_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(52)
    sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
    driver, terminal = random_linear_instance(sys_, rng)
    path = tmp_path / "p.json"
    files.save_linear_problem(path, driver, terminal)
    back_driver, back_terminal = files.load_linear_problem(path)
    assert np.array_equal(back_driver.alpha, driver.alpha)
    assert np.array_equal(back_driver.beta, driver.beta)
    assert np.array_equal(back_driver.g, driver.g)
    assert np.array_equal(back_terminal, terminal)


def test_control_problem_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(53)
    sys_ = build_lattice(random_model(rng, n_max=2, t_max=3, n=2))
    prob = random_control_problem(sys_, rng)
    path = tmp_path / "c.json"
    files.save_control_problem(path, prob)
    back = files.load_control_problem(path)
    for field in ("controls", "alpha", "beta", "g", "terminal"):
        assert np.array_equal(getattr(back, field), getattr(prob, field))
    assert back.alpha_bound == prob.alpha_bound
    assert back.beta_bound == prob.beta_bound


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("field", ["alpha_bound", "beta_bound"])
def test_control_problem_file_with_a_non_finite_bound_is_rejected(
        tmp_path, field, token):
    # json reads these tokens as numbers; the problem rejects the bound
    rng = np.random.default_rng(53)
    sys_ = build_lattice(random_model(rng, n_max=2, t_max=3, n=2))
    path = tmp_path / "c.json"
    files.save_control_problem(path, random_control_problem(sys_, rng))
    doc = json.loads(path.read_text())
    doc[field] = "@"
    path.write_text(json.dumps(doc).replace('"@"', token))
    with pytest.raises(files.FileFormatError,
                       match=f"{path}: {field} must be finite"):
        files.load_control_problem(path)


def test_format_number_roundtrips():
    vals = [0.1, 1 / 3, np.pi, 1e-300, 123456.789]
    for v in vals:
        assert float(files.format_number(v)) == v


def test_load_document_diagnostics(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(files.FileFormatError, match="not found"):
        files.load_document(missing)

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(files.FileFormatError, match="line 1"):
        files.load_document(bad)

    wrong_version = tmp_path / "v.json"
    wrong_version.write_text(json.dumps({"schema_version": 99, "kind": "x"}))
    with pytest.raises(files.FileFormatError, match="schema_version"):
        files.load_document(wrong_version)

    wrong_kind = tmp_path / "k.json"
    wrong_kind.write_text(
        json.dumps({"schema_version": 1, "kind": "linear_bsde"})
    )
    with pytest.raises(files.FileFormatError, match="kind"):
        files.load_document(wrong_kind, "semi_markov_model")

    arr = tmp_path / "a.json"
    arr.write_text(json.dumps([1, 2]))
    with pytest.raises(files.FileFormatError, match="top level"):
        files.load_document(arr)


def test_load_model_field_diagnostics(tmp_path):
    doc = {
        "schema_version": 1,
        "kind": "semi_markov_model",
        "n_states": 2,
        "horizon": 1,
        "pi": [[0.5, 0.5]],  # wrong shape
        "jump": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]],
        "x0": [1, 0],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(files.FileFormatError, match="pi"):
        files.load_model(path)
    doc.pop("x0")
    doc["pi"] = [[0.5, 0.5], [0.5, 0.5]]
    path.write_text(json.dumps(doc))
    with pytest.raises(files.FileFormatError, match="x0"):
        files.load_model(path)


def test_write_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    payload = {"b": [1.5, 2.25], "a": {"z": 1, "m": 2}}
    files.write_json(p1, payload)
    files.write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith('{\n  "a"')


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_write_json_array_leaves_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(54)
    arrays = {
        "normal": rng.standard_normal((3, 4, 5)),
        "scaled": rng.standard_normal(40)
        * 10.0 ** rng.integers(-300, 300, 40),
        "edges": np.array([5e-324, -2.2250738585072014e-308,
                           1.7976931348623157e308, 0.1, -0.0, 1 / 3]),
        "ints": np.arange(-3, 9).reshape(3, 4),
    }
    path = tmp_path / "arrays.json"
    files.write_json(path, {"nested": [arrays]})
    back = _strict_json(path)["nested"][0]
    for name, arr in arrays.items():
        got = np.array(back[name], dtype=arr.dtype)
        assert got.shape == arr.shape
        assert got.tobytes() == arr.tobytes(), name
    # each array is one line, inside the indented layout of dicts and lists
    lines = path.read_text().splitlines()
    assert lines[:3] == ["{", '  "nested": [', "    {"]
    assert len(lines) == 3 + len(arrays) + 3


def test_write_json_writes_non_finite_numbers_as_null(tmp_path):
    arr = np.array([[1.5, np.nan], [np.inf, -np.inf]])
    path = tmp_path / "nf.json"
    files.write_json(path, {"arr": arr, "x": float("nan"),
                            "y": [-np.inf, 2.0]})
    doc = _strict_json(path)
    assert doc == {"arr": [[1.5, None], [None, None]], "x": None,
                   "y": [None, 2.0]}
    assert np.isnan(arr[0, 1])  # the caller's array is left alone


def test_write_json_passes_strings_through(tmp_path):
    strings = ["NaN", "null", "[1, 2]", '"quoted"', "tab\there", "é ✓",
               "__array_0__", ""]
    payload = {s: s for s in strings if s}
    payload["list"] = strings
    payload["arr"] = np.zeros(2)
    path = tmp_path / "s.json"
    files.write_json(path, payload)
    doc = _strict_json(path)
    assert doc["list"] == strings
    for s in strings[:-1]:
        assert doc[s] == s
    assert doc["arr"] == [0.0, 0.0]


def test_cli_validate_ok_and_failing(tmp_path, capsys):
    files.save_model(tmp_path / "ok.json", tiny_model())
    assert cli.main(["validate", "--model", str(tmp_path / "ok.json")]) == 0
    assert "model ok" in capsys.readouterr().out

    doc = json.loads((tmp_path / "ok.json").read_text())
    doc["x0"] = [0.7, 0.7]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    rc = cli.main(
        ["validate", "--model", str(tmp_path / "bad.json"), "--out",
         str(tmp_path / "report.json")]
    )
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["violations"]


def test_cli_missing_file_is_reported(tmp_path, capsys):
    rc = cli.main(["validate", "--model", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_simulate_byte_identical(workdir, capsys):
    out1, out2 = workdir / "p1.csv", workdir / "p2.csv"
    for out in (out1, out2):
        rc = cli.main(
            ["simulate", "--model", str(workdir / "model.json"), "--out",
             str(out), "--seed", "9", "--mc-paths", "20"]
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "path,time,state,duration"


def _path_rows(model, n_paths, seed):
    """The rows (path, time, state, duration) of simulate_paths' draws."""
    states, durations = simulate_paths(model, n_paths, seed=seed)
    path, time = np.indices(states.shape)
    return np.stack((path, time, states, durations), axis=-1).reshape(-1, 4)


def test_cli_simulate_writes_the_percent_text_of_simulate_paths(tmp_path):
    model = geometric_model((0.3, 0.5, 0.6), 8)
    files.save_model(tmp_path / "model.json", model)
    out = tmp_path / "paths.csv"
    assert cli.main(["simulate", "--model", str(tmp_path / "model.json"),
                     "--out", str(out), "--seed", "11", "--mc-paths",
                     "400"]) == 0
    rows = _path_rows(model, 400, 11)
    want = "path,time,state,duration\n" + "%d,%d,%d,%d\n" * len(rows) % tuple(
        rows.ravel().tolist())
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("command", ["simulate", "solve-bsde",
                                     "verify-duality", "verify-all"])
def test_a_negative_seed_exits_one(workdir, capsys, command):
    # -1 once raised numpy's ValueError from np.random.default_rng
    model, problem = str(workdir / "model.json"), str(workdir / "linear.json")
    out = workdir / "out"
    argv = {
        "simulate": ["--model", model, "--out", str(out)],
        "solve-bsde": ["--model", model, "--problem", problem, "--out",
                       str(out), "--convention", "auto"],
        "verify-duality": ["--model", model, "--problem", problem],
        "verify-all": ["--out", str(out)],
    }[command]
    assert cli.main([command, *argv, "--seed", "-1"]) == 1
    assert capsys.readouterr() == (
        "", "error: --seed must be a non-negative integer, not -1\n")
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_simulate_rejects_a_path_count_below_one(workdir, capsys, count):
    # 0 once wrote one path and exited 0; -3 died in numpy
    out = workdir / "paths.csv"
    rc = cli.main(["simulate", "--model", str(workdir / "model.json"), "--out",
                   str(out), "--seed", "9", "--mc-paths", count])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --mc-paths must be a positive integer, not {count}\n")
    assert not out.exists()


def _read_triplets(path, header):
    lines = path.read_text().splitlines()
    assert lines[0] == header
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    keys = table[:, :-1].astype(int)
    # sorted by the index columns, each index tuple once
    np.testing.assert_array_equal(keys, np.unique(keys, axis=0))
    return keys, table[:, -1]


def test_cli_build_lattice_artifacts(workdir):
    out = workdir / "lattice"
    rc = cli.main(
        ["build-lattice", "--model", str(workdir / "model.json"), "--out",
         str(out)]
    )
    assert rc == 0
    sys_ = build_lattice(files.load_model(workdir / "model.json"))
    d = sys_.dim
    # the dense matrices rebuilt from the triplets; 17g round-trips
    keys, p = _read_triplets(out / "transition.csv",
                             "source,target,probability")
    raw = np.zeros((d, d))
    raw[keys[:, 1], keys[:, 0]] = p
    np.testing.assert_array_equal(raw, transition(sys_))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dim"] == sys_.dim
    for name in ("bracket", "covariance"):
        keys, values = _read_triplets(out / f"{name}.csv",
                                      "source,row,column,value")
        assert set(keys[:, 0]) <= set(sys_.sources.tolist())
        for s in sorted(sys_.sources):
            at = keys[:, 0] == s
            mat = np.zeros((d, d))
            mat[keys[at, 1], keys[at, 2]] = values[at]
            np.testing.assert_array_equal(
                mat, getattr(geometry_for(sys_, int(s)), name)
            )


def test_cli_build_lattice_writes_sparse_triplets(tmp_path, capsys):
    files.save_model(tmp_path / "model.json",
                     geometric_model(np.linspace(0.2, 0.8, 3), 20))
    out = tmp_path / "lattice"
    rc = cli.main(["build-lattice", "--model", str(tmp_path / "model.json"),
                   "--out", str(out)])
    assert rc == 0
    written = sorted(out.iterdir())
    assert [f.name for f in written] == [
        "bracket.csv", "covariance.csv", "summary.json", "transition.csv"
    ]
    assert sum(f.stat().st_size for f in written) < 100_000


def test_cli_solve_bsde_indicator_oracle(tmp_path, capsys):
    # zero driver + indicator terminal: time-0 value is the hitting
    # probability of the flagged lattice state, computable by enumeration
    model = tiny_model()
    files.save_model(tmp_path / "model.json", model)
    sys_ = build_lattice(model)
    d = sys_.dim
    terminal = [0.0] * d
    terminal[1] = 1.0  # indicator of state (1, duration 1)
    doc = {
        "schema_version": 1,
        "kind": "linear_bsde",
        "alpha": [[0.0] * d],
        "g": [[0.0] * d],
        "beta": None,
        "terminal": terminal,
    }
    (tmp_path / "lin.json").write_text(json.dumps(doc))
    out = tmp_path / "sol"
    rc = cli.main(
        ["solve-bsde", "--model", str(tmp_path / "model.json"), "--problem",
         str(tmp_path / "lin.json"), "--out", str(out)]
    )
    assert rc == 0
    rows = (out / "values.csv").read_text().splitlines()
    assert rows[0] == "time,state,duration,value"
    first = rows[1].split(",")
    assert first[:3] == ["0", "0", "1"]
    assert float(first[3]) == pytest.approx(0.4, abs=1e-15)
    payload = json.loads((out / "solution.json").read_text())
    assert payload["metadata"]["convention"] == "mixed"
    assert payload["metadata"]["duality_residual"] <= 1e-12
    assert payload["hypotheses"]["positivity"]["passed"] in (True, False)


def test_cli_solve_bsde_checks_duality_exactly_at_long_horizon(tmp_path, capsys):
    model = geometric_model((0.3, 0.5, 0.7), 14)
    sys_ = build_lattice(model)
    count = np.zeros(sys_.dim)
    count[sys_.reachable_at[0]] = 1.0
    for _ in range(sys_.horizon):
        count = (transition(sys_) > 0.0) @ count
    assert count.sum() > 20_000  # far too many paths to walk one by one
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(54))
    files.save_model(tmp_path / "model.json", model)
    files.save_linear_problem(tmp_path / "lin.json", driver, terminal)
    out = tmp_path / "sol"
    rc = cli.main(["solve-bsde", "--model", str(tmp_path / "model.json"),
                   "--problem", str(tmp_path / "lin.json"), "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "solution.json").read_text())["metadata"]
    assert meta["duality_check"] == "exhaustive"
    assert meta["duality_residual"] <= 1e-9


@pytest.mark.parametrize("command", ["solve-bsde", "verify-duality"])
def test_cli_duality_check_has_no_monte_carlo_option(workdir, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--model", str(workdir / "model.json"), "--problem",
                  str(workdir / "linear.json"), "--out", str(workdir / "o"),
                  "--mc-paths", "100"])
    assert exc.value.code == 2


def test_cli_solve_bsde_residual_gate(workdir):
    out = workdir / "strict"
    rc = cli.main(
        ["solve-bsde", "--model", str(workdir / "model.json"), "--problem",
         str(workdir / "linear.json"), "--out", str(out), "--tol", "1e-30"]
    )
    assert rc == 2


def test_cli_duality_gates_read_the_scaled_residual(tmp_path):
    # geometric N=2, T=300 without beta: the time-0 values reach 4e11, so
    # the mixed convention's rounding alone leaves an absolute residual near
    # 1e-3, far above the default --tol 1e-9, while the scaled residual
    # |dual - value| / (1 + |value|) is near 3e-15; shifted is wrong (1.0)
    t = 300
    model = geometric_model((0.2, 0.8), t)
    d = build_lattice(model).dim
    rng = np.random.default_rng(0)
    files.save_model(tmp_path / "model.json", model)
    files.save_linear_problem(
        tmp_path / "lin.json",
        LinearDriver(rng.uniform(-0.5, 0.5, (t, d)),
                     rng.uniform(-1.0, 1.0, (t, d))),
        rng.uniform(-1.0, 1.0, d))
    args = ["--model", str(tmp_path / "model.json"), "--problem",
            str(tmp_path / "lin.json")]
    out = tmp_path / "sol"
    assert cli.main(["solve-bsde", *args, "--out", str(out),
                     "--convention", "mixed"]) == 0
    meta = json.loads((out / "solution.json").read_text())["metadata"]
    assert meta["duality_residual"] > 1e-6
    assert meta["duality_residual_scaled"] <= 1e-12
    dual = tmp_path / "dual.json"
    assert cli.main(["verify-duality", *args, "--convention", "mixed",
                     "--out", str(dual)]) == 0
    payload = json.loads(dual.read_text())
    assert payload["selected_residual"] == meta["duality_residual"]
    assert payload["selected_scaled_residual"] \
        == meta["duality_residual_scaled"]
    assert payload["scaled_residual_per_convention"]["shifted"] > 0.5
    assert cli.main(["verify-duality", *args, "--convention", "shifted"]) == 2


def test_cli_verify_duality(workdir, capsys):
    rc = cli.main(
        ["verify-duality", "--model", str(workdir / "model.json"),
         "--problem", str(workdir / "linear.json"), "--convention", "auto",
         "--out", str(workdir / "dual.json")]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "mixed" in text
    payload = json.loads((workdir / "dual.json").read_text())
    assert payload["metadata"]["convention"] == "mixed"
    res = payload["residual_per_convention"]
    assert res["mixed"] <= 1e-10
    assert res["implicit"] > res["mixed"]
    assert res["shifted"] > res["mixed"]
    assert payload["convention_selection"]


def test_cli_verify_duality_explicit_convention_fails_tolerance(workdir):
    rc = cli.main(
        ["verify-duality", "--model", str(workdir / "model.json"),
         "--problem", str(workdir / "linear.json"), "--convention",
         "implicit"]
    )
    assert rc == 2


def test_cli_solve_control(workdir, capsys):
    out = workdir / "ctl"
    rc = cli.main(
        ["solve-control", "--model", str(workdir / "model.json"),
         "--problem", str(workdir / "control.json"), "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads((out / "control.json").read_text())
    assert payload["oracle_residual"] <= 1e-9
    assert payload["hypotheses"]["positivity"]["passed"]
    policy = payload["policy"]
    assert policy["control"]
    assert {len(column) for column in policy.values()} == {
        len(policy["control"])}
    for u in policy["control"]:
        assert 0 <= u < 2
    # the values column runs over every reachable cell, time-major: the
    # policy's cells first, then the horizon's
    sys_ = build_lattice(files.load_model(workdir / "model.json"))
    solved = solve_control(files.load_control_problem(workdir / "control.json"),
                           sys_)
    assert np.array_equal(np.array(payload["values"]),
                          solved.values[sys_.reachable])
    assert policy["time"] == sys_.plan.times[:len(policy["time"])].tolist()


def test_cli_solve_control_skips_the_oracle_past_its_cap(tmp_path, capsys):
    # 91 cells before the horizon and U = 2: 2**91 open-loop policies, far
    # past the enumeration cap (2**91 wraps to 0 in 64-bit integers, which
    # would pass a size test and leave the enumeration to fail)
    model = geometric_model((0.2, 0.8), 10)
    sys_ = build_lattice(model)
    assert int(sys_.plan.offset[sys_.horizon]) >= 64
    files.save_model(tmp_path / "model.json", model)
    prob = random_control_problem(sys_, np.random.default_rng(2))
    files.save_control_problem(tmp_path / "control.json", prob)
    out = tmp_path / "ctl"
    assert cli.main(
        ["solve-control", "--model", str(tmp_path / "model.json"),
         "--problem", str(tmp_path / "control.json"), "--out", str(out)]
    ) == 0
    payload = json.loads((out / "control.json").read_text())
    assert payload["oracle_residual"] is None
    assert payload["oracle_residual_scaled"] is None
    assert ("brute-force oracle skipped: 2**91 policies exceed its cap of "
            "100000\n") in capsys.readouterr().out


def test_cli_solve_control_skip_line_states_the_count_as_a_power(tmp_path,
                                                                 capsys):
    # 9,130 cells before the horizon and U = 4: 4**9130 has about 5,500
    # digits, past the 4,300 that Python converts to a string by default,
    # so the skip line must not print the count itself
    model = geometric_model((0.2, 0.8), 120)
    sys_ = build_lattice(model)
    cells = int(sys_.plan.offset[sys_.horizon])
    assert cells * math.log10(4) > 4300
    files.save_model(tmp_path / "model.json", model)
    prob = random_control_problem(sys_, np.random.default_rng(2), n_controls=4)
    files.save_control_problem(tmp_path / "control.json", prob)
    out = tmp_path / "ctl"
    assert cli.main(
        ["solve-control", "--model", str(tmp_path / "model.json"),
         "--problem", str(tmp_path / "control.json"), "--out", str(out)]
    ) == 0
    payload = json.loads((out / "control.json").read_text())
    assert payload["oracle_residual"] is None
    assert payload["oracle_residual_scaled"] is None
    assert (f"brute-force oracle skipped: 4**{cells} policies exceed its cap "
            "of 100000\n") in capsys.readouterr().out


def test_cli_solve_control_gates_values_without_the_oracle(tmp_path, capsys):
    # past the oracle's cap, finite running terms of 1e308 overflow the
    # values: no oracle residual reads them, the finiteness gate does
    model = geometric_model((0.2, 0.8), 10)
    sys_ = build_lattice(model)
    files.save_model(tmp_path / "model.json", model)
    prob = random_control_problem(sys_, np.random.default_rng(2))
    prob = replace(prob, g=np.where(prob.g != 0.0, 1e308, 0.0))
    files.save_control_problem(tmp_path / "control.json", prob)
    out = tmp_path / "ctl"
    with np.errstate(all="ignore"):
        values = solve_control(prob, sys_).values
        rc = cli.main(
            ["solve-control", "--model", str(tmp_path / "model.json"),
             "--problem", str(tmp_path / "control.json"), "--out", str(out)])
    assert rc == 2
    bad = ~np.isfinite(values) & sys_.reachable
    assert bad.any()
    payload = json.loads((out / "control.json").read_text())
    assert payload["oracle_residual"] is None
    k = int(np.flatnonzero(bad.any(axis=1))[-1])
    s = int(np.flatnonzero(bad[k])[0])
    captured = capsys.readouterr()
    assert "brute-force oracle skipped: " in captured.out
    assert captured.err == (
        "a reachable value is not finite; the "
        f"backward values are first not finite at time {k}, lattice state "
        f"{s} (state, duration) = {sys_.label(s)}\n")


def test_cli_solve_control_hypothesis_failure(workdir, capsys):
    doc = json.loads((workdir / "control.json").read_text())
    doc["beta_bound"] = 1e3
    (workdir / "loose.json").write_text(json.dumps(doc))
    rc = cli.main(
        ["solve-control", "--model", str(workdir / "model.json"),
         "--problem", str(workdir / "loose.json"), "--out",
         str(workdir / "ctl2")]
    )
    assert rc == 1
    assert "hypothesis" in capsys.readouterr().err

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = cli.main(
            ["solve-control", "--model", str(workdir / "model.json"),
             "--problem", str(workdir / "loose.json"), "--out",
             str(workdir / "ctl2"), "--override-hypotheses"]
        )
    assert rc == 0


def test_cli_verify_all(tmp_path, capsys):
    rc = cli.main(["verify-all", "--seed", "0", "--out",
                   str(tmp_path / "suite.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "pass" in text and "FAIL" not in text
    payload = json.loads((tmp_path / "suite.json").read_text())
    assert [p["name"] for p in payload["properties"]] == [
        "successor-laws", "bracket-closed-form", "duality-residual",
        "weight-positivity", "comparison-ordering", "control-vs-brute-force",
        "epsilon-bound"]
    assert all(p["passed"] for p in payload["properties"])


def _suite_verdicts():
    return {name: passed for name, _, _, passed in cli._suite_rows(0)}


def _perturbed(sys_, prob):
    """1e-9 more mass on the first source's first real slot."""
    prob[sys_.sources[0], 0] += 1e-9


def _swapped(sys_, prob):
    """A stay and a jump of one source trade their probabilities: every law
    still sums to one, but the sojourn law no longer comes back."""
    n = sys_.model.n_states
    for s in sys_.sources:
        stay = sys_.succ[s] == s + n
        other = sys_.plan.real[s] & ~stay & (prob[s] != prob[s][stay].sum())
        if stay.any() and other.any():
            j, i = np.argmax(stay), np.argmax(other)
            prob[s, [i, j]] = prob[s, [j, i]]
            return
    raise AssertionError("no source with a stay and a jump")


@pytest.mark.parametrize("fault", [_perturbed, _swapped])
def test_verify_all_successor_laws_catch_a_faulty_table(monkeypatch, fault):
    # the fault goes into the first lattice the suite builds
    built, calls = cli.build_lattice, []

    def faulty(model):
        sys_ = built(model)
        calls.append(sys_)
        if len(calls) > 1:
            return sys_
        prob = sys_.prob.copy()
        fault(sys_, prob)
        prob.flags.writeable = False
        return replace(sys_, prob=prob)

    monkeypatch.setattr(cli, "build_lattice", faulty)
    verdicts = _suite_verdicts()
    assert not verdicts["successor-laws"]
    assert verdicts["bracket-closed-form"]


@pytest.mark.parametrize("name, index", [("_bracket_norms", 0),
                                         ("_bracket_norms", 1),
                                         ("_noise", None)])
def test_verify_all_bracket_row_catches_a_scaled_closed_form(monkeypatch,
                                                             name, index):
    # one of linalg's two closed-form norms, or duality's noise, off by a
    # factor 1 + 1e-6
    module = {"_bracket_norms": linalg, "_noise": duality}[name]
    closed = getattr(module, name)

    def scaled(*args):
        out = closed(*args)
        if index is None:
            return out * (1.0 + 1e-6)
        out = list(out)
        out[index] = out[index] * (1.0 + 1e-6)
        return tuple(out)

    monkeypatch.setattr(module, name, scaled)
    verdicts = _suite_verdicts()
    assert not verdicts["bracket-closed-form"]
    assert verdicts["successor-laws"]


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def test_cli_non_finite_duality_residual_is_a_violation(tmp_path, capsys):
    # finite running terms whose sums overflow: the values and the dual are
    # infinite and their difference is NaN (a NaN input is rejected earlier)
    doc = json.loads((SAMPLES / "linear_problem.json").read_text())
    doc["g"] = np.where(np.array(doc["g"]) != 0.0, 1e308, 0.0).tolist()
    problem = tmp_path / "nan_problem.json"
    problem.write_text(json.dumps(doc))
    model = str(SAMPLES / "geometric_model.json")
    rc = cli.main(["solve-bsde", "--model", model, "--problem", str(problem),
                   "--out", str(tmp_path / "sol")])
    assert rc == 2
    assert "duality residual (exhaustive): nan" in capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (tmp_path / "sol" / "solution.json").read_text()
    payload = json.loads(text, parse_constant=reject)
    assert payload["metadata"]["duality_residual"] is None
    rc = cli.main(["verify-duality", "--model", model, "--problem",
                   str(problem), "--convention", "mixed"])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, model, problem, sized, lattice",
    [
        ("solve-bsde", "small_model", "linear_problem", (8, 18), (3, 8)),
        ("verify-duality", "small_model", "linear_problem", (8, 18), (3, 8)),
        ("solve-control", "geometric_model", "control_problem", (3, 8),
         (8, 18)),
    ],
    ids=["solve-bsde", "verify-duality", "solve-control"],
)
def test_cli_problem_sized_for_another_model(
    tmp_path, capsys, command, model, problem, sized, lattice
):
    problem_path = str(SAMPLES / f"{problem}.json")
    rc = cli.main([command, "--model", str(SAMPLES / f"{model}.json"),
                   "--problem", problem_path, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problem_path}: field 'alpha'")
    assert str(sized) in err and str(lattice) in err


SAMPLE_PROBLEMS = {
    "solve-bsde": ("geometric_model", "linear_problem"),
    "verify-duality": ("geometric_model", "linear_problem"),
    "solve-control": ("small_model", "control_problem"),
}


def _problem_copy(command):
    model, problem = SAMPLE_PROBLEMS[command]
    model = SAMPLES / f"{model}.json"
    doc = json.loads((SAMPLES / f"{problem}.json").read_text())
    return str(model), build_lattice(files.load_model(model)), doc


def _run_on(tmp_path, command, model, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    rc = cli.main([command, "--model", model, "--problem", str(path),
                   "--out", str(tmp_path / "out")])
    return rc, str(path)


@pytest.mark.parametrize("field", ["alpha", "g", "beta", "terminal"])
@pytest.mark.parametrize("command", sorted(SAMPLE_PROBLEMS))
def test_cli_rejects_non_finite_problem_data(tmp_path, capsys, command, field):
    model, sys_, doc = _problem_copy(command)
    k = sys_.horizon if field == "terminal" else sys_.horizon // 2
    s = int(sys_.reachable_at[k][-1])
    table = np.array(doc[field], dtype=float)
    # the last entry of the cell (of its last control's row): beta rows are
    # checked whole, off the successor block too
    cell = (s,) if field == "terminal" else (k, s)
    table[cell + (-1,) * (table.ndim - len(cell))] = np.nan
    doc[field] = table.tolist()
    rc, path = _run_on(tmp_path, command, model, doc)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {path}: field '{field}' is not finite at time {k}, "
        f"lattice state {s} (state, duration) = {sys_.label(s)}"
    )


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_cli_solve_control_rejects_a_broken_bound(tmp_path, capsys, field):
    model, _, doc = _problem_copy("solve-control")
    doc[f"{field}_bound"] = 1e-6
    rc, path = _run_on(tmp_path, "solve-control", model, doc)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: field '{field}': ")
    assert "exceeds the declared bound 1e-06 at time 0" in err


def test_cli_solve_bsde_unit_drift_exits_1(tmp_path, capsys):
    model, sys_, doc = _problem_copy("solve-bsde")
    k = sys_.horizon // 2
    s = int(sys_.reachable_at[k][-1])
    alpha = np.array(doc["alpha"], dtype=float)
    alpha[k, s] = 1.0
    doc["alpha"] = alpha.tolist()
    rc, path = _run_on(tmp_path, "solve-bsde", model, doc)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: alpha[{k}, {s}] = 1.0: y - f is not a bijection\n")


@pytest.fixture
def vanishing_implicit(tmp_path):
    """Model and problem files on geometric N=2, T=4 with beta rows on the
    blocks, where the implicit weight denominator 1 - a - n_0 of the cell
    at plan position 3 (time 2, state 0) is exactly zero."""
    model = geometric_model([0.3, 0.6], 4)
    sys_ = build_lattice(model)
    t, d, w = sys_.horizon, sys_.dim, sys_.block.shape[1]
    rng = np.random.default_rng(0)
    beta = rng.standard_normal((t, d, w)) * 0.2
    alpha = np.full((t, d), 0.1)
    k, s = int(sys_.plan.times[3]), int(sys_.plan.cells[3])
    assert (k, s) == (2, 0)
    alpha[k, s] = 1.0 - oracle_cell_noise(sys_, beta, 0)[3, 0]
    assert 1.0 - alpha[k, s] - oracle_cell_noise(sys_, beta, 0)[3, 0] == 0.0
    files.save_model(tmp_path / "model.json", model)
    files.save_linear_problem(
        tmp_path / "problem.json",
        LinearDriver(alpha, rng.uniform(-1.0, 1.0, (t, d)), beta),
        rng.uniform(-1.0, 1.0, d))
    return ["--model", str(tmp_path / "model.json"),
            "--problem", str(tmp_path / "problem.json")]


@pytest.mark.parametrize("command", ["solve-bsde", "verify-duality"])
def test_cli_selected_vanishing_denominator_exits_1(
        tmp_path, capsys, vanishing_implicit, command):
    out = tmp_path / "out"
    rc = cli.main([command, *vanishing_implicit, "--convention", "implicit",
                   "--out", str(out)])
    assert rc == 1
    problem = vanishing_implicit[-1]
    assert capsys.readouterr().err == (
        f"error: {problem}: weight denominator 0.0 at time 2, state 0\n")
    assert not out.exists()


@pytest.mark.parametrize("convention", ["auto", "mixed"])
def test_cli_unselected_vanishing_denominator_has_null_residuals(
        tmp_path, capsys, vanishing_implicit, convention):
    out = tmp_path / "duality.json"
    rc = cli.main(["verify-duality", *vanishing_implicit, "--convention",
                   convention, "--out", str(out)])
    assert rc == 0
    assert "  implicit  weight denominator 0.0 at time 2, state 0\n" in \
        capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["metadata"]["convention"] == "mixed"
    for field in ("residual_per_convention",
                  "scaled_residual_per_convention"):
        assert payload[field]["implicit"] is None
        assert payload[field]["mixed"] <= 1e-12
        assert payload[field]["shifted"] > 0.0
    assert cli.main(["solve-bsde", *vanishing_implicit, "--out",
                     str(tmp_path / "sol")]) == 0


def test_cli_solve_control_without_a_sign_change_exits_1(tmp_path, capsys):
    # one control's drift is 1 at a cell: the step there falls back to the
    # verified root, and y - max_u f_u stays below zero to the bracket's end
    model, sys_, doc = _problem_copy("solve-control")
    k = sys_.horizon // 2
    s = int(sys_.reachable_at[k][-1])
    alpha = np.array(doc["alpha"], dtype=float)
    alpha[k, s, 0] = 1.0
    doc["alpha"], doc["alpha_bound"] = alpha.tolist(), 1.0
    rc, path = _run_on(tmp_path, "solve-control", model, doc)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: no sign change for y - f on [")
    assert err.endswith(f" at time {k}, state {s}\n")


def test_cli_solve_control_skips_the_oracle_at_a_unit_drift(tmp_path, capsys):
    # one control's drift is 1 at a cell, and its running term low enough
    # that y - max_u f_u still changes sign: the solve takes the verified
    # root there, the oracle's closed forms cannot, so it is skipped
    model, sys_, doc = _problem_copy("solve-control")
    k = sys_.horizon // 2
    s = int(sys_.reachable_at[k][-1])
    alpha = np.array(doc["alpha"], dtype=float)
    g = np.array(doc["g"], dtype=float)
    alpha[k, s, 0], g[k, s, 0] = 1.0, -10.0
    doc["alpha"], doc["g"], doc["alpha_bound"] = alpha.tolist(), g.tolist(), 1.0
    rc, path = _run_on(tmp_path, "solve-control", model, doc)
    assert rc == 0
    out = capsys.readouterr().out
    assert (f"brute-force oracle skipped: a drift coefficient at time {k}, "
            f"state {s} makes the step map non-invertible\n") in out
    payload = json.loads((tmp_path / "out" / "control.json").read_text())
    assert payload["oracle_residual"] is None
    assert payload["oracle_residual_scaled"] is None
    values = solve_control(files.load_control_problem(path), sys_).values
    assert np.isfinite(values[sys_.reachable]).all()


@pytest.mark.parametrize("command", sorted(SAMPLE_PROBLEMS))
def test_cli_gate_names_the_first_value_not_finite(tmp_path, capsys, command):
    # the overflow recipe of test_cli_non_finite_duality_residual_is_a_violation:
    # finite running terms whose sums overflow the backward values
    model, sys_, doc = _problem_copy(command)
    doc["g"] = np.where(np.array(doc["g"]) != 0.0, 1e308, 0.0).tolist()
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    args = [command, "--model", model, "--problem", str(path), "--out",
            str(tmp_path / "out")]
    with np.errstate(all="ignore"):
        if command == "solve-control":
            values = solve_control(files.load_control_problem(path),
                                   sys_).values
        else:
            values = solve_bsde(sys_, *files.load_linear_problem(path)).values
            args += ["--convention", "mixed"]
        rc = cli.main(args)
    assert rc == 2
    # the backward sweep meets the latest time first
    bad = ~np.isfinite(values) & sys_.reachable
    k = int(np.flatnonzero(bad.any(axis=1))[-1])
    s = int(np.flatnonzero(bad[k])[0])
    assert (f"is not finite or exceeds tolerance 1e-09; the backward values "
            f"are first not finite at time {k}, lattice state {s} "
            f"(state, duration) = {sys_.label(s)}\n") in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SAMPLE_PROBLEMS))
def test_cli_rejects_beta_rows_of_another_width(tmp_path, capsys, command):
    # dense rows cut one entry short: neither D nor the blocks' width W+1
    model, sys_, doc = _problem_copy(command)
    doc["beta"] = np.array(doc["beta"], dtype=float)[..., :-1].tolist()
    rc, path = _run_on(tmp_path, command, model, doc)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: field 'beta' has rows of width {sys_.dim - 1} but "
        f"the model's lattice takes W+1 = {sys_.block.shape[1]} "
    )


@pytest.mark.parametrize("command", sorted(SAMPLE_PROBLEMS))
def test_cli_artifacts_do_not_depend_on_the_beta_layout(tmp_path, command):
    # the samples' dense beta rows, and the same rows gathered on the blocks
    model, sys_, doc = _problem_copy(command)
    dense = np.array(doc["beta"], dtype=float)
    local = np.zeros(dense.shape[:-1] + sys_.block.shape[1:])
    k, s = np.nonzero(sys_.reachable[:-1])
    local[k, s] = sys_.block_rows(dense, k, s)
    written = []
    for leg, beta in (("dense", dense), ("local", local)):
        doc["beta"] = beta.tolist()
        rc, _ = _run_on(tmp_path, command, model, doc)
        assert rc == 0
        out = tmp_path / "out"
        paths = sorted(out.rglob("*")) if out.is_dir() else [out]
        written.append({p.relative_to(out): p.read_bytes() for p in paths})
    assert written[0] == written[1]


_I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("rows, block_entries", [
    (np.zeros((4, 3), dtype=np.int64), None),
    (np.array([[-1, 0, 1], [-10, -99, 100], [-7, 5, -123456]]), None),
    (np.array([[10**12, -10**12, 10**15 + 7], [_I64.max, _I64.min, 0]]), None),
    (np.array([[255, 256, 65535, 65536, 2**32, -(2**32) - 1]]),
     None),  # one row
    (np.arange(-12, 13).reshape(-1, 1), None),  # one column
    (np.zeros((0, 4), dtype=np.int64), None),  # zero rows
    # several blocks of rows, each with its own column widths
    (np.random.default_rng(5).integers(-10**6, 10**9, (150_000, 3)), None),
    # simulate's table: 3000 paths of 31 steps in two blocks of rows
    (_path_rows(geometric_model((0.2, 0.4, 0.6, 0.8), 30), 3000, 4), None),
    # a negative range no wider than the rows: the digit-table side
    (np.random.default_rng(6).integers(-5000, -4000, (2000, 2)), None),
    # value ranges (max - min + 1) of rows - 1 and of rows, which take the
    # digit table, and of rows + 1, which takes the digits per entry
    (np.stack((np.arange(40) % 39 - 20, np.arange(40)[::-1] - 21,
               np.r_[0:39, 40] + 10**6), 1), None),
    # blocks of 7 rows, each with its own ranges: the first column narrow
    # (3 values, its least rising by 1000 a block), the second narrow or
    # wide by block, the third wide and changing sign
    (np.stack((np.arange(50) // 7 * 1000 - 20_000 + np.arange(50) % 3,
               np.arange(50) % 9 - 4, np.arange(50) ** 5 - 10**8), 1), 21),
    # the int64 extremes in ranges of 2, and alone, ranges of 1: each
    # column takes the digit table
    (np.array([[_I64.min, _I64.max], [_I64.min + 1, _I64.max - 1],
               [_I64.min, _I64.max]]), None),
    (np.full((5, 2), _I64.min), None),
    (np.full((5, 2), _I64.max), None),
], ids=["zeros", "negatives", "large", "one-row", "one-column", "no-rows",
        "blocks", "simulate", "negative-narrow", "ranges-about-rows",
        "blocks-of-ranges", "extremes", "int64-min", "int64-max"])
def test_write_csv_integer_array_is_the_percent_format(
        tmp_path, monkeypatch, rows, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(lattice, "BLOCK_ENTRIES", block_entries)
    header = tuple(f"c{j}" for j in range(rows.shape[1]))
    files.write_csv(tmp_path / "out.csv", header, tuple(rows.T))
    line = ",".join(["%d"] * rows.shape[1]) + "\n"
    want = ",".join(header) + "\n" + line * rows.shape[0] % tuple(
        rows.ravel().tolist())
    assert (tmp_path / "out.csv").read_bytes() == want.encode()


def test_cli_main_builds_its_parser_once(tmp_path, capsys):
    model = str(SAMPLES / "geometric_model.json")
    cli._parser.cache_clear()
    assert cli.main(["validate", "--model", model]) == 0
    assert "model ok" in capsys.readouterr().out
    argv = ["simulate", "--model", model, "--seed", "3", "--out"]
    assert cli.main(argv + [str(tmp_path / "five.csv"), "--mc-paths", "5"]) == 0
    # an option of an earlier call does not carry over: one path by default
    assert cli.main(argv + [str(tmp_path / "one.csv")]) == 0
    rows = (tmp_path / "one.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0"}
    assert len((tmp_path / "five.csv").read_text().splitlines()) \
        == 5 * len(rows) + 1
    capsys.readouterr()
    # a bad command exits through argparse; the next call still parses
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert cli.main(argv + [str(tmp_path / "bad.csv"), "--mc-paths", "0"]) \
        == 1
    assert cli.main(["validate", "--model", model]) == 0
    assert cli._parser.cache_info().misses == 1


def test_cli_solution_local_integrands_rebuild_the_ambient_table(tmp_path):
    model, problem = (SAMPLES / f"{name}.json"
                      for name in SAMPLE_PROBLEMS["solve-bsde"])
    rc = cli.main(["solve-bsde", "--model", str(model), "--problem",
                   str(problem), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    sys_ = build_lattice(files.load_model(model))
    driver, terminal = files.load_linear_problem(problem)
    sol = solve_bsde(sys_, driver, terminal)
    want = sol.integrands

    # cell-major: a value per reachable cell (times, cells), integrand rows
    # on the successor slots per cell before the horizon
    times, cells = np.array(doc["times"]), np.array(doc["cells"])
    assert np.array_equal(times, sys_.plan.times)
    assert np.array_equal(cells, sys_.plan.cells)
    assert np.array_equal(np.array(doc["values"]), sol.cell_values)
    local = np.array(doc["integrands"], dtype=float)
    succ = np.array(doc["successors"])
    n = int(sys_.plan.offset[sys_.horizon])
    assert local.shape == succ.shape == (n, sys_.succ.shape[1])
    assert np.array_equal(succ, np.where(sys_.prob > 0.0, sys_.succ,
                                         -1)[cells[:n]])
    assert np.all(local[succ < 0] == 0.0)
    rebuilt = np.zeros(want.shape)
    for c, j in zip(*np.nonzero(succ >= 0)):
        rebuilt[times[c], cells[c], succ[c, j]] = local[c, j]
    assert np.array_equal(rebuilt, want)


# one entry per model field, with its label in violations: durations count
# from 1
BROKEN_ENTRIES = {
    "pi": ((0, 0), "pi[0,1]"),
    "jump": ((0, 0, 1), "jump[0,1,1]"),
    "x0": ((0,), "x0[0]"),
}


def _broken_model(tmp_path, sample, field, value):
    doc = json.loads((SAMPLES / f"{sample}.json").read_text())
    index, label = BROKEN_ENTRIES[field]
    entry = doc[field]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens, as json allows
    return str(path), label


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("field", sorted(BROKEN_ENTRIES))
@pytest.mark.parametrize("command", ["simulate", "build-lattice", "solve-bsde",
                                     "verify-duality", "solve-control"])
def test_cli_rejects_a_broken_model(tmp_path, capsys, command, field, value):
    sample, problem = SAMPLE_PROBLEMS.get(command, ("geometric_model", None))
    path, label = _broken_model(tmp_path, sample, field, value)
    argv = [command, "--model", path, "--out", str(tmp_path / "out")]
    if problem is not None:
        argv += ["--problem", str(SAMPLES / f"{problem}.json")]
    if command == "simulate":
        argv += ["--seed", "3"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {label}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_cli_validate_reports_a_non_finite_start_law(tmp_path, capsys, value):
    path, label = _broken_model(tmp_path, "geometric_model", "x0", value)
    report = tmp_path / "report.json"
    assert cli.main(["validate", "--model", path, "--out", str(report)]) == 1
    assert capsys.readouterr().out.startswith(f"{label}: non-finite entry")
    (violation,) = json.loads(report.read_text())["violations"]
    assert (violation["field"], violation["indices"]) == ("x0", [0])


# sample documents whose scalar fields break their type: (document, command,
# field, value); each one crashed, was truncated or went unnamed before
BROKEN_SCALARS = [
    ("geometric_model", "simulate", "n_states", 2.5),
    ("geometric_model", "simulate", "n_states", "abc"),
    ("geometric_model", "simulate", "n_states", True),
    ("geometric_model", "simulate", "horizon", None),
    ("control_problem", "solve-control", "alpha_bound", None),
    ("control_problem", "solve-control", "alpha_bound", "x"),
    ("control_problem", "solve-control", "controls", 0.5),
]


@pytest.mark.parametrize("sample, command, field, value", BROKEN_SCALARS,
                         ids=[f"{f}={json.dumps(v)}"
                              for _, _, f, v in BROKEN_SCALARS])
def test_cli_rejects_a_mistyped_scalar_field(tmp_path, capsys, sample,
                                             command, field, value):
    doc = json.loads((SAMPLES / f"{sample}.json").read_text())
    doc[field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if sample == "control_problem":
        argv = ["--model", str(SAMPLES / "small_model.json"),
                "--problem", str(path)]
    else:
        argv = ["--model", str(path), "--seed", "3"]
    rc = cli.main([command, *argv, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: field '{field}' ")
    assert not (tmp_path / "out").exists()


def test_cli_build_lattice_summary_lists_sit_on_one_line(tmp_path):
    model = geometric_model(np.linspace(0.2, 0.8, 3), 20)
    files.save_model(tmp_path / "model.json", model)
    out = tmp_path / "lattice"
    assert cli.main(["build-lattice", "--model", str(tmp_path / "model.json"),
                     "--out", str(out)]) == 0
    text = (out / "summary.json").read_text()
    # a line holding a bare number is an entry of a list laid out one
    # number per line
    assert not [line for line in text.splitlines()
                if re.fullmatch(r"\s*-?[\d.eE+-]+,?", line)]
    summary = json.loads(text)
    sys_ = build_lattice(model)
    assert summary["reachable_at"] == [r.tolist() for r in sys_.reachable_at]
    assert summary["sources"].keys() == {str(s) for s in sys_.sources}
    for s in sys_.sources:
        entry = summary["sources"][str(s)]
        assert entry["label"] == list(sys_.label(int(s)))
        assert entry["support"] == sys_.succ[s][sys_.prob[s] > 0.0].tolist()


# packed tables -----------------------------------------------------------

RESAVE = {
    "semi_markov_model": lambda src, dst: files.save_model(
        dst, files.load_model(src)),
    "linear_bsde": lambda src, dst: files.save_linear_problem(
        dst, *files.load_linear_problem(src)),
    "control_problem": lambda src, dst: files.save_control_problem(
        dst, files.load_control_problem(src)),
}


@pytest.fixture(scope="module")
def packed_samples(tmp_path_factory):
    """sample_inputs re-saved by the writers, so with packed tables."""
    out = tmp_path_factory.mktemp("packed") / "sample_inputs"
    out.mkdir()
    for src in sorted(SAMPLES.glob("*.json")):
        RESAVE[files.load_document(src)["kind"]](src, out / src.name)
    return out


def _tables(path):
    """Every field a document's loader returns, by name (the model before
    validation, so that any table round-trips)."""
    kind = files.load_document(path)["kind"]
    if kind == "semi_markov_model":
        model = files._read_model(path)
        names = ("n_states", "horizon", "pi", "jump", "x0")
        return {name: getattr(model, name) for name in names}
    if kind == "linear_bsde":
        driver, terminal = files.load_linear_problem(path)
        return {"alpha": driver.alpha, "g": driver.g, "beta": driver.beta,
                "terminal": terminal}
    problem = files.load_control_problem(path)
    names = ("controls", "alpha", "g", "beta", "terminal", "alpha_bound",
             "beta_bound")
    return {name: getattr(problem, name) for name in names}


def _assert_bit_equal(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].shape == value.shape, name
            assert np.array_equal(got[name].view(np.uint64),
                                  value.view(np.uint64)), name
        else:
            assert type(got[name]) is type(value), name
            assert got[name] == value, name


SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
           -2.225073858507201e-308, 1.7976931348623157e308, 1 / 3]


def _tables_of(shape):
    return hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(SPECIAL), st.floats(width=64)))


@st.composite
def documents(draw):
    """(a writer of a document, its tables) with arbitrary float64 entries,
    zero-size shapes included where the object allows them."""
    kind = draw(st.sampled_from(sorted(RESAVE)))
    if kind == "semi_markov_model":
        n, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        model = SemiMarkovModel(n, t, draw(_tables_of((n, t + 1))),
                                draw(_tables_of((n, t + 1, n))),
                                draw(_tables_of((n,))))
        return lambda path: files.save_model(path, model), {
            "n_states": n, "horizon": t, "pi": model.pi, "jump": model.jump,
            "x0": model.x0}
    t, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if kind == "linear_bsde":
        beta = draw(st.none() | _tables_of((t, d, d)))
        driver = LinearDriver(draw(_tables_of((t, d))),
                              draw(_tables_of((t, d))), beta)
        terminal = draw(_tables_of((d,)))
        return lambda path: files.save_linear_problem(
            path, driver, terminal), {"alpha": driver.alpha, "g": driver.g,
                                      "beta": beta, "terminal": terminal}
    u, q = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    bound = st.floats(allow_nan=False, allow_infinity=False)
    problem = ControlProblem(
        controls=draw(_tables_of((u, q))), alpha=draw(_tables_of((t, d, u))),
        beta=draw(_tables_of((t, d, u, d))), g=draw(_tables_of((t, d, u))),
        terminal=draw(_tables_of((d,))), alpha_bound=draw(bound),
        beta_bound=draw(bound))
    names = ("controls", "alpha", "g", "beta", "terminal", "alpha_bound",
             "beta_bound")
    return lambda path: files.save_control_problem(path, problem), {
        name: getattr(problem, name) for name in names}


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(documents())
def test_packed_tables_round_trip_bit_for_bit(tmp_path_factory, document):
    save, tables = document
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    save(path)
    assert files.load_document(path)["schema_version"] == 2
    _assert_bit_equal(_tables(path), tables)


def test_v1_samples_load_as_their_packed_resave(packed_samples):
    for src in sorted(SAMPLES.glob("*.json")):
        assert json.loads(src.read_text())["schema_version"] == 1
        _assert_bit_equal(_tables(packed_samples / src.name), _tables(src))


def _table_fields():
    for src in sorted(SAMPLES.glob("*.json")):
        doc = json.loads(src.read_text())
        for field, value in sorted(doc.items()):
            if isinstance(value, list):
                yield src.name, field


@pytest.mark.parametrize("name, field", list(_table_fields()))
def test_a_packed_document_takes_a_nested_list_field(tmp_path, packed_samples,
                                                     name, field):
    doc = json.loads((packed_samples / name).read_text())
    doc[field] = json.loads((SAMPLES / name).read_text())[field]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    _assert_bit_equal(_tables(path), _tables(packed_samples / name))


def _shorter(data):
    return base64.b64encode(base64.b64decode(data)[:-8]).decode("ascii")


# broken copies of a packed field, by what is wrong with them
MALFORMED = {
    "dtype-f4": lambda p: {**p, "dtype": "<f4"},
    "dtype-big-endian": lambda p: {**p, "dtype": ">f8"},
    "dtype-object": lambda p: {**p, "dtype": "object"},
    "data-not-base64": lambda p: {**p, "data": "*" + p["data"][1:]},
    "data-number": lambda p: {**p, "data": 0},
    "data-short": lambda p: {**p, "data": _shorter(p["data"])},
    "shape-negative": lambda p: {**p, "shape": [-n for n in p["shape"]]},
    "shape-float": lambda p: {**p, "shape": [float(n) for n in p["shape"]]},
    "extra-key": lambda p: {**p, "order": "C"},
    "missing-key": lambda p: {k: v for k, v in p.items() if k != "dtype"},
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
@pytest.mark.parametrize("command, name, field", [
    ("simulate", "geometric_model.json", "pi"),
    ("solve-bsde", "linear_problem.json", "beta"),
    ("solve-control", "control_problem.json", "controls"),
])
def test_cli_rejects_a_malformed_packed_field(tmp_path, capsys, packed_samples,
                                              command, name, field, defect):
    doc = json.loads((packed_samples / name).read_text())
    doc[field] = MALFORMED[defect](doc[field])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    message = f"{path}: field '{field}' is not a packed array: "
    with pytest.raises(files.FileFormatError, match=re.escape(message)):
        _tables(path)
    if command == "simulate":
        argv = ["--model", str(path), "--seed", "3"]
    else:
        model, _ = SAMPLE_PROBLEMS[command]
        argv = ["--model", str(SAMPLES / f"{model}.json"),
                "--problem", str(path)]
    assert cli.main([command, *argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("command, output", [
    ("simulate", "paths.csv"),
    ("build-lattice", "lattice"),
    ("solve-bsde", "bsde"),
    ("verify-duality", "duality.json"),
    ("solve-control", "ctrl"),
])
def test_cli_artifacts_do_not_depend_on_the_table_encoding(
        tmp_path, packed_samples, command, output):
    model, problem = SAMPLE_PROBLEMS.get(command, ("geometric_model", None))
    written = []
    for leg, inputs in (("v1", SAMPLES), ("packed", packed_samples)):
        out = tmp_path / leg / output
        out.parent.mkdir()
        argv = [command, "--model", str(inputs / f"{model}.json"),
                "--out", str(out)]
        if problem is not None:
            argv += ["--problem", str(inputs / f"{problem}.json")]
        if command == "simulate":
            argv += ["--seed", "3", "--mc-paths", "50"]
        assert cli.main(argv) == 0
        paths = sorted(out.rglob("*")) if out.is_dir() else [out]
        written.append({p.relative_to(out): p.read_bytes() for p in paths})
    assert written[0] == written[1]
