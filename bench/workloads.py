"""The four benchmark workloads.

Each workload turns a seed into a fixed pool of jobs; one round runs every
job of the pool once.  A job is a complete computation on the public API
that checks its own result and raises ``JobFailure`` when the check fails.
It returns the exact work counts of that run; the counts known from the
inputs alone are attached to the job at set-up.  Sizes are fixed per
workload, so only the numbers (and, for sparse models, which cells are
reachable, within a band) change with the seed.  Every pool holds an odd
number of jobs, so the median job time falls inside one job's samples
rather than between two.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from smcbsde import bsde, chain, cli, control, duality, files, instances
from smcbsde import lattice, linalg

from inputs import forward_oracle, geometric_model, small_linear_driver, sparse_model

# Monte Carlo gate: |estimate - backward value| <= MC_SE_MULTIPLE * batch-means
# standard error.  With MC_BATCHES batch means the statistic is t-distributed
# with MC_BATCHES - 1 degrees of freedom, so a correct solver fails one check
# in about 50 000.
MC_BATCHES = 10
MC_SE_MULTIPLE = 8.0
# Occupancy gate on simulated paths, per (state, duration) cell at the
# horizon: |empirical - exact| <= 6 binomial standard deviations + 3 / n.
SIM_SIGMAS = 6.0
EXACT_TOL = 1e-9


class JobFailure(RuntimeError):
    """A job's output failed its correctness check."""


@dataclass
class Job:
    label: str
    run: Callable[[], dict]
    counts: dict = field(default_factory=dict)


def _check(ok, message):
    if not ok:
        raise JobFailure(message)


def _check_lattice(sys_, oracle):
    _check(sys_.dim == oracle.dim, f"lattice dim {sys_.dim} != {oracle.dim}")
    for k, reach in enumerate(sys_.reachable_at):
        _check(tuple(int(s) for s in reach) == oracle.reachable[k],
               f"reachable set at time {k} differs from the forward oracle")


def _check_finite(values, oracle, what):
    for k, reach in enumerate(oracle.reachable):
        _check(np.all(np.isfinite(values[k, list(reach)])),
               f"{what}: non-finite value at time {k}")


def _check_linear_steps(values, driver, oracle):
    """Every backward step of a linear driver, recomputed from the oracle.

    The canonical integrand z is zero off the successor support and has mean
    zero under the successor law; the bracket projector acts on it as the
    identity, so each step reads y (1 - alpha) = E[next] + g + beta . z.
    """
    worst = 0.0
    for k in range(oracle.horizon):
        nxt = values[k + 1]
        for s in oracle.reachable[k]:
            idx, prob = oracle.succ[s]
            mean = float(prob @ nxt[idx])
            rhs = mean + driver.g[k, s]
            if driver.beta is not None:
                rhs += float(driver.beta[k, s, idx] @ (nxt[idx] - mean))
            y = values[k, s]
            worst = max(worst, abs(y * (1.0 - driver.alpha[k, s]) - rhs)
                        / (1.0 + abs(y)))
    _check(worst <= EXACT_TOL, f"linear backward step residual {worst:.3e}")


def _lattice_counts(oracle):
    return {
        "lattice.dim": oracle.dim,
        "lattice.sources": oracle.sources,
        "lattice.reachable_cells": oracle.cells,
    }


def _mc_gate(sys_, driver, terminal, values, paths, seed):
    """Batch-means check of the Monte Carlo dual value at time 0."""
    sde = duality.WeightSde.from_driver(driver)
    reach0 = list(sys_.reachable_at[0])
    batches = np.array([
        duality.dual_value(sys_, sde, driver.g, terminal,
                           mc_paths=paths, seed=seed + b)[reach0]
        for b in range(MC_BATCHES)
    ])
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(MC_BATCHES)
    exact = values[0, reach0]
    bound = MC_SE_MULTIPLE * se + EXACT_TOL * (1.0 + np.abs(exact))
    worst = float(np.max(np.abs(mean - exact) - bound))
    _check(worst <= 0.0, f"Monte Carlo dual residual exceeds {MC_SE_MULTIPLE} "
                         f"standard errors by {worst:.3e}")


def _occupancy_gate(states, durations, oracle):
    """Simulated horizon occupancy against the oracle's exact law."""
    n_paths = states.shape[0]
    n = oracle.dim // (oracle.horizon + 1)
    flat = (durations[:, -1] - 1) * n + states[:, -1]
    emp = np.bincount(flat, minlength=oracle.dim) / n_paths
    p = oracle.dist_t
    bound = SIM_SIGMAS * np.sqrt(p * (1.0 - p) / n_paths) + 3.0 / n_paths
    _check(np.all(emp[p == 0.0] == 0.0), "simulated path reached an "
                                          "unreachable state")
    worst = float(np.max(np.abs(emp - p) - bound))
    _check(worst <= 0.0, f"simulated occupancy off by {worst:.3e} beyond "
                         f"{SIM_SIGMAS} standard deviations")


def _total_paths(oracle):
    """Paths walked by exhaustive calls from every start time below T."""
    return sum(oracle.paths(i) for i in range(oracle.horizon))


# --------------------------------------------------------------------------
# lattice-scale


def _lattice_job(label, model, oracle, rng, sim_paths=2000, mc_paths=6):
    driver, terminal = small_linear_driver(rng, oracle)
    beta_bound = float(np.linalg.norm(driver.beta, axis=2).max())
    mc_seed = int(rng.integers(2**31))
    sim_seed = int(rng.integers(2**31))
    t = model.horizon
    reach0 = len(oracle.reachable[0])

    def run():
        sys_ = lattice.build_lattice(model)
        _check_lattice(sys_, oracle)
        lam = lattice.projection_constants(sys_).overall
        _check(math.isfinite(lam), "projection constant is not finite")
        for rep in (linalg.positivity_condition(sys_, beta_bound),
                    linalg.comparison_condition(sys_, beta_bound * lam)):
            _check(np.all(np.isfinite(rep.lhs)), f"{rep.name} lhs not finite")
        sol = bsde.solve_bsde(sys_, driver, terminal)
        _check_finite(sol.values, oracle, "solve_bsde")
        _check_linear_steps(sol.values, driver, oracle)
        _mc_gate(sys_, driver, terminal, sol.values, mc_paths, mc_seed)
        states, durations = chain.simulate_paths(model, sim_paths, seed=sim_seed)
        _occupancy_gate(states, durations, oracle)
        return {}

    counts = _lattice_counts(oracle)
    counts.update({
        "bsde.cells": oracle.cells,
        "duality.mc_path_steps": MC_BATCHES * mc_paths * t * reach0,
        "chain.path_steps": sim_paths * t,
    })
    return Job(label, run, counts)


def lattice_scale(rng, ctx, tiny=False):
    if tiny:
        model = geometric_model(rng, 2, 4)
        return [_lattice_job("tiny", model, forward_oracle(model), rng)]
    jobs = []
    for n, t in ((4, 40), (3, 40), (6, 20)):
        model = geometric_model(rng, n, t)
        jobs.append(_lattice_job(f"dense-N{n}-T{t}", model,
                                 forward_oracle(model), rng))
    for n, t, lo, hi in ((4, 50, 76, 84), (5, 40, 64, 70)):
        model, oracle = sparse_model(rng, n, t, lo, hi)
        jobs.append(_lattice_job(f"sparse-N{n}-T{t}", model, oracle, rng))
    return jobs


# --------------------------------------------------------------------------
# path-duality


def _duality_job(label, model, oracle, rng):
    sys_ = lattice.build_lattice(model)
    driver, terminal = instances.random_linear_instance(sys_, rng)
    _, l_bound = driver.bounds(sys_)
    t = model.horizon

    def run():
        sys_ = lattice.build_lattice(model)
        _check_lattice(sys_, oracle)
        sol = bsde.solve_bsde(sys_, driver, terminal)
        _check_finite(sol.values, oracle, "solve_bsde")
        worst = {}
        for conv in duality.Convention:
            res = 0.0
            for i in range(t):
                sde = duality.WeightSde(driver.alpha, driver.beta, conv, i)
                dual = duality.dual_value(sys_, sde, driver.g, terminal)
                reach = list(sys_.reachable_at[i])
                res = max(res, float(np.max(np.abs(dual[reach]
                                                   - sol.values[i, reach]))))
            worst[conv] = res
        mixed = worst[duality.Convention.MIXED]
        _check(mixed <= EXACT_TOL, f"mixed duality residual {mixed:.3e}")
        report = duality.weight_bounds(
            sys_, duality.WeightSde(driver.alpha, driver.beta), beta_bound=l_bound
        )
        _check(report.positivity.passed, "positivity condition failed")
        _check(report.min_weight >= -1e-10,
               f"negative weight {report.min_weight:.3e}")
        return {}

    counts = _lattice_counts(oracle)
    counts.update({
        "bsde.cells": oracle.cells,
        "duality.lattice_paths": len(duality.Convention) * _total_paths(oracle)
        + oracle.paths(0),
    })
    return Job(label, run, counts)


def path_duality(rng, ctx, tiny=False):
    if tiny:
        model = geometric_model(rng, 2, 3)
        return [_duality_job("tiny", model, forward_oracle(model), rng)]
    jobs = []
    for n, t in ((2, 12), (2, 13), (3, 8)):
        model = geometric_model(rng, n, t)
        jobs.append(_duality_job(f"dense-N{n}-T{t}", model,
                                 forward_oracle(model), rng))
    for n, t, lo, hi in ((2, 13, 250, 400), (3, 9, 1500, 2500)):
        model, oracle = sparse_model(rng, n, t, lo, hi, size=_total_paths)
        jobs.append(_duality_job(f"sparse-N{n}-T{t}", model, oracle, rng))
    return jobs


# --------------------------------------------------------------------------
# control-nonlinear


def _oracle_control_job(label, model, oracle, rng, n_controls, epsilon=1e-2):
    sys_ = lattice.build_lattice(model)
    problem = instances.random_control_problem(sys_, rng, n_controls=n_controls)

    def run():
        sys_ = lattice.build_lattice(model)
        solved = control.solve_control(problem, sys_)
        _check_finite(solved.values, oracle, "solve_control")
        brute = control.brute_force_value(problem, sys_)
        res = float(np.nanmax(np.abs(solved.values - brute.per_time_max)))
        _check(res <= EXACT_TOL, f"control-vs-oracle residual {res:.3e}")
        _, report = control.epsilon_optimal_policy(problem, sys_, solved, epsilon)
        _check(report.within_bound, f"epsilon-policy gap {report.measured:.3e} "
                                    f"above its bound {report.bound:.3e}")
        return {"control.policies": brute.n_policies,
                "control.ties": solved.ties}

    counts = _lattice_counts(oracle)
    counts.update({
        "bsde.cells": oracle.cells,
        "duality.lattice_paths": oracle.paths(0) + _total_paths(oracle),
    })
    return Job(label, run, counts)


def _long_control_job(label, model, oracle, rng, n_controls):
    sys_ = lattice.build_lattice(model)
    problem = instances.random_control_problem(sys_, rng, n_controls=n_controls)

    def run():
        sys_ = lattice.build_lattice(model)
        solved = control.solve_control(problem, sys_)
        _check_finite(solved.values, oracle, "solve_control")
        # the value of the argmax policy is the optimal value
        policy_values = control.evaluate_policy(problem, sys_, solved.policy).values
        diff = np.abs(policy_values - solved.values)
        res = float(np.nanmax(diff / (1.0 + np.abs(solved.values))))
        _check(res <= EXACT_TOL, f"argmax-policy value residual {res:.3e}")
        return {"control.ties": solved.ties}

    counts = _lattice_counts(oracle)
    counts["bsde.cells"] = oracle.cells
    return Job(label, run, counts)


def _general_job(label, model, oracle, rng):
    t, d = oracle.horizon, oracle.dim
    alpha = rng.uniform(-0.3, 0.3, (t, d))
    g = rng.uniform(-1.0, 1.0, (t, d))
    w = rng.standard_normal((t, d, d)) / math.sqrt(d)
    terminal = rng.uniform(-1.0, 1.0, d)

    def f(k, s, y, z):
        # y - f is increasing: its slope is at least 1 - 0.3 - 0.25 > 0
        return alpha[k, s] * y + 0.25 * math.tanh(y) \
            + 0.5 * math.tanh(float(w[k, s] @ z)) + g[k, s]

    evals = [0]

    def counted(k, s, y, z):
        evals[0] += 1
        return f(k, s, y, z)

    driver = bsde.GeneralDriver(counted)

    def run():
        sys_ = lattice.build_lattice(model)
        evals[0] = 0
        sol = bsde.solve_bsde(sys_, driver, terminal)
        n_evals = evals[0]
        _check_finite(sol.values, oracle, "solve_bsde (general)")
        worst = 0.0
        for k in range(t):
            nxt = sol.values[k + 1]
            for s in oracle.reachable[k]:
                idx, prob = oracle.succ[s]
                mean = float(prob @ nxt[idx])
                z = np.zeros(d)
                z[idx] = nxt[idx] - mean
                y = sol.values[k, s]
                worst = max(worst, abs(y - f(k, s, y, z) - mean) / (1.0 + abs(y)))
        _check(worst <= EXACT_TOL, f"general-driver step residual {worst:.3e}")
        return {"bsde.driver_evals": n_evals}

    counts = _lattice_counts(oracle)
    counts["bsde.cells"] = oracle.cells
    return Job(label, run, counts)


def _comparison_job(label, model, oracle, rng):
    sys_ = lattice.build_lattice(model)
    d1, t1, d2, t2 = instances.random_comparison_pair(sys_, rng)

    def run():
        sys_ = lattice.build_lattice(model)
        rep = bsde.check_comparison(sys_, d1, d2, t1, t2)
        _check(rep.terminal_ordered and rep.drivers_ordered
               and rep.condition_passed, "comparison hypotheses do not hold")
        _check(rep.ordered, f"solutions not ordered ({rep.max_violation:.3e})")
        return {}

    counts = _lattice_counts(oracle)
    counts["bsde.cells"] = 2 * oracle.cells
    return Job(label, run, counts)


def control_nonlinear(rng, ctx, tiny=False):
    if tiny:
        model = geometric_model(rng, 2, 3)
        oracle = forward_oracle(model)
        return [_oracle_control_job("tiny-oracle", model, oracle, rng, 2),
                _general_job("tiny-general", model, oracle, rng),
                _comparison_job("tiny-comparison", model, oracle, rng)]
    jobs = []
    for n_controls, cells in ((2, 16), (2, 15), (3, 10)):
        model, oracle = sparse_model(rng, 2, 5, cells, cells,
                                     size=lambda o: o.cells)
        jobs.append(_oracle_control_job(f"oracle-U{n_controls}-cells{cells}",
                                        model, oracle, rng, n_controls))
    model = geometric_model(rng, 2, 28)
    jobs.append(_long_control_job("long-N2-T28-U4", model,
                                  forward_oracle(model), rng, 4))
    for n, t in ((2, 30), (3, 14)):
        model = geometric_model(rng, n, t)
        jobs.append(_general_job(f"general-N{n}-T{t}", model,
                                 forward_oracle(model), rng))
    model = geometric_model(rng, 3, 10)
    jobs.append(_comparison_job("comparison-N3-T10", model,
                                forward_oracle(model), rng))
    return jobs


# --------------------------------------------------------------------------
# cli-roundtrip


def _cli(ctx, command, argv):
    sink = io.StringIO()
    with ctx.tracer.span(f"cli.{command}"), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        code = cli.main([command] + argv)
    _check(code == 0, f"smcbsde {command} exited {code}: {sink.getvalue()[-200:]}")


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir())


def _read_values_csv(path, oracle):
    """values.csv as a (T+1, D) table; the cells must be the reachable ones."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    n = oracle.dim // (oracle.horizon + 1)
    values = np.full((oracle.horizon + 1, oracle.dim), np.nan)
    cells = [[] for _ in range(oracle.horizon + 1)]
    for k, state, dur, value in rows:
        k, s = int(k), (int(dur) - 1) * n + int(state)
        values[k, s] = float(value)
        cells[k].append(s)
    _check(tuple(map(tuple, cells)) == oracle.reachable,
           "values.csv cells differ from the reachable cells")
    return values


def _cli_bsde_job(label, model, oracle, rng, ctx):
    driver, terminal = small_linear_driver(rng, oracle)
    base = ctx.workdir / label
    base.mkdir()
    model_path, problem_path = base / "model.json", base / "problem.json"
    files.save_model(model_path, model)
    files.save_linear_problem(problem_path, driver, terminal)
    out = base / "out"
    argv = ["--model", str(model_path), "--problem", str(problem_path),
            "--out", str(out)]

    def run():
        _cli(ctx, "solve-bsde", argv)
        values = _read_values_csv(out / "values.csv", oracle)
        _check_finite(values, oracle, "solve-bsde values.csv")
        _check(np.array_equal(values[-1, list(oracle.reachable[-1])],
                              terminal[list(oracle.reachable[-1])]),
               "values.csv terminal row differs from the problem's terminal")
        _check_linear_steps(values, driver, oracle)
        return {"files.bytes_written": _dir_bytes(out)}

    counts = _lattice_counts(oracle)
    counts.update({
        "bsde.cells": oracle.cells,
        "files.bytes_read": model_path.stat().st_size
        + problem_path.stat().st_size,
    })
    return Job(label, run, counts)


def _cli_control_job(label, model, oracle, rng, ctx, n_controls=2):
    sys_ = lattice.build_lattice(model)
    problem = instances.random_control_problem(sys_, rng, n_controls=n_controls)
    base = ctx.workdir / label
    base.mkdir()
    model_path, problem_path = base / "model.json", base / "problem.json"
    files.save_model(model_path, model)
    files.save_control_problem(problem_path, problem)
    out = base / "out"
    argv = ["--model", str(model_path), "--problem", str(problem_path),
            "--out", str(out)]

    def run():
        _cli(ctx, "solve-control", argv)
        doc = json.loads((out / "control.json").read_text())
        res = doc["oracle_residual"]
        _check(res is not None and res <= EXACT_TOL,
               f"control-vs-oracle residual {res}")
        return {"files.bytes_written": _dir_bytes(out),
                "control.ties": doc["ties"]}

    counts = _lattice_counts(oracle)
    counts.update({
        "bsde.cells": oracle.cells,
        "control.policies": n_controls ** oracle.cells,
        "files.bytes_read": model_path.stat().st_size
        + problem_path.stat().st_size,
    })
    return Job(label, run, counts)


def _cli_simulate_job(label, model, oracle, rng, ctx, n_paths=2000):
    base = ctx.workdir / label
    base.mkdir()
    model_path = base / "model.json"
    files.save_model(model_path, model)
    out = base / "paths.csv"
    argv = ["--model", str(model_path), "--out", str(out),
            "--seed", str(int(rng.integers(2**31))), "--mc-paths", str(n_paths)]
    first = []
    t = model.horizon

    def run():
        _cli(ctx, "simulate", argv)
        data = out.read_bytes()
        if not first:
            first.append(data)
        _check(data == first[0], "simulate output is not byte-identical "
                                 "across runs with one seed")
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                           dtype=np.int64)
        _check(table.shape == (n_paths * (t + 1), 4), "wrong path table shape")
        last = table[table[:, 1] == t]
        _occupancy_gate(last[:, 2:3], last[:, 3:4], oracle)
        return {"files.bytes_written": len(data)}

    counts = {
        "chain.path_steps": n_paths * t,
        "files.bytes_read": model_path.stat().st_size,
    }
    return Job(label, run, counts)


def cli_roundtrip(rng, ctx, tiny=False):
    if tiny:
        model = geometric_model(rng, 2, 3)
        oracle = forward_oracle(model)
        return [_cli_bsde_job("tiny-bsde", model, oracle, rng, ctx),
                _cli_control_job("tiny-control", model, oracle, rng, ctx),
                _cli_simulate_job("tiny-simulate", model, oracle, rng, ctx)]
    jobs = []
    for n, t, lo, hi in ((3, 19, 30, 34), (4, 31, 58, 64)):
        model, oracle = sparse_model(rng, n, t, lo, hi)
        jobs.append(_cli_bsde_job(f"solve-bsde-N{n}-T{t}", model, oracle,
                                  rng, ctx))
    for n_controls, cells in ((2, 14), (3, 9)):
        model, oracle = sparse_model(rng, 2, 5, cells, cells,
                                     size=lambda o: o.cells)
        jobs.append(_cli_control_job(f"solve-control-U{n_controls}-cells{cells}",
                                     model, oracle, rng, ctx, n_controls))
    model, oracle = sparse_model(rng, 4, 30, 40, 60)
    jobs.append(_cli_simulate_job("simulate-N4-T30", model, oracle, rng, ctx))
    return jobs


WORKLOADS = {
    "lattice-scale": lattice_scale,
    "path-duality": path_duality,
    "control-nonlinear": control_nonlinear,
    "cli-roundtrip": cli_roundtrip,
}
