"""Command-line front end.

Commands
--------
validate       check a model document and list violations
simulate       draw seeded chain paths to CSV
build-lattice  export the transition law and each source's bracket and
               covariance as sparse triplet CSVs, plus a structure summary
solve-bsde     solve a linear backward equation, emit CSV + JSON artifacts
verify-duality cross-check a backward solution against its weighted-
               expectation representation under each convention
solve-control  solve a control problem, with a brute-force oracle residual
               when the policy space is small enough
verify-all     run the bundled desk-scale property suite and print a
               summary table

Exit status: 0 success, 1 validation or hypothesis failure or a path that
cannot be read or written, 2 internal invariant violation (a residual above
tolerance or not finite).  Outputs are byte-identical for identical inputs,
seed and package version.  Set SMCBSDE_LOG to a level name (DEBUG, INFO,
...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, duality, files, linalg
from .bsde import BijectionError, DegenerateDriverError, solve_bsde
from .chain import InvalidModelError, simulate_paths, validate_model
from .control import (
    HypothesisError,
    brute_force_value,
    epsilon_optimal_policy,
    solve_control,
)
from .duality import (
    Convention,
    DEFAULT_CONVENTION,
    SelectionError,
    VanishingDenominatorError,
    WeightSde,
    _residuals,
    dual_value,
    select_convention,
    weight_bounds,
)
from .lattice import (ProblemDataError, _blocks, build_lattice,
                      projection_constants)
from .linalg import comparison_condition, positivity_condition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2

log = logging.getLogger("smcbsde")


def _configure_logging():
    level = os.environ.get("SMCBSDE_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )


def _metadata(**extra):
    meta = {"package_version": __version__,
            "schema_version": files.SCHEMA_VERSION}
    meta.update(extra)
    return meta


def _write_values(path, sys, values):
    """values.csv: a (time, state, duration, value) row per reachable cell,
    from the values (C,) at the plan's cells."""
    plan, n = sys.plan, sys.model.n_states
    files.write_csv(path, ("time", "state", "duration", "value"),
                    (plan.times, plan.cells % n, plan.cells // n + 1, values))


def _block_entries(sources, block, local):
    """(source, row, column, value) columns of the nonzero entries of each
    source's block matrix local[i] on the flat indices block[i], sorted by
    source, row and column."""
    i, r, c = np.nonzero(local)
    src, row, col = sources[i], block[i, r], block[i, c]
    order = np.lexsort((col, row, src))
    return src[order], row[order], col[order], local[i, r, c][order]


def _condition_payload(report):
    return {
        "name": report.name,
        "passed": bool(report.passed),
        "worst_margin": float(report.worst()),
        "lhs_per_time": np.asarray(report.lhs).tolist(),
    }


def _cmd_validate(args):
    model = files._read_model(args.model)
    violations = validate_model(model)
    payload = {
        "metadata": _metadata(),
        "violations": [
            {"field": v.field, "indices": list(v.indices), "message": v.message}
            for v in violations
        ],
    }
    if args.out:
        files.write_json(args.out, payload)
    for v in violations:
        print(str(v))
    if violations:
        return EXIT_INVALID
    print(f"model ok: {model.n_states} states, horizon {model.horizon}")
    return EXIT_OK


def _cmd_simulate(args):
    n = 1 if args.mc_paths is None else args.mc_paths
    if n < 1:
        print(f"error: --mc-paths must be a positive integer, not {n}",
              file=sys.stderr)
        return EXIT_INVALID
    model = files.load_model(args.model)
    states, durations = simulate_paths(model, n, seed=args.seed)
    t = states.shape[1]
    # the columns of one block of paths at a time
    files.write_csv(args.out, ("path", "time", "state", "duration"), (
        (np.arange(at.start, at.stop).repeat(t),
         np.tile(np.arange(t), at.stop - at.start), states[at].ravel(),
         durations[at].ravel()) for at in _blocks(n, 4 * t)))
    print(f"wrote {n} path(s) of length {model.horizon + 1} to {args.out}")
    return EXIT_OK


def _cmd_build_lattice(args):
    model = files.load_model(args.model)
    sys_ = build_lattice(model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, slots = np.nonzero(sys_.plan.real)
    files.write_csv(
        out / "transition.csv", ("source", "target", "probability"),
        (rows, sys_.succ[rows, slots], sys_.prob[rows, slots]),
    )
    src = sys_.sources
    entry = ("source", "row", "column", "value")
    # diag(c) - e c' - c e' on the block: c on the diagonal, -c in row and
    # column 0 (the source, where c is zero)
    c = np.pad(sys_.prob[src], ((0, 0), (1, 0)))
    bracket = c[:, :, None] * np.eye(c.shape[1])
    bracket[:, 0], bracket[:, :, 0] = -c, -c
    files.write_csv(out / "bracket.csv", entry,
                    _block_entries(src, sys_.block, bracket))
    # diag(c) - c c' lives on the successor slots
    p = sys_.prob[src][:, :, None]
    files.write_csv(out / "covariance.csv", entry, _block_entries(
        src, sys_.succ[src], p * np.eye(p.shape[1]) - p * p.transpose(0, 2, 1)
    ))
    per_source = {
        str(s): {
            "label": np.array(sys_.label(int(s))),
            "support": sys_.succ[s][sys_.plan.real[s]],
        }
        for s in src
    }
    files.write_json(
        out / "summary.json",
        {
            "metadata": _metadata(),
            "dim": sys_.dim,
            "n_states": model.n_states,
            "horizon": model.horizon,
            "reachable_at": sys_.reachable_at,
            "sources": per_source,
        },
    )
    print(f"wrote lattice artifacts for dimension {sys_.dim} to {out}")
    return EXIT_OK


def _resolve_convention(name, sys_, seed):
    if name != "auto":
        return Convention(name), None
    result = select_convention(sys_, seed=seed or 0)
    return result.convention, result


def _solve_linear(args):
    """Lattice, problem, backward solution and tolerance of a linear command."""
    sys_ = build_lattice(files.load_model(args.model))
    driver, terminal = files.load_linear_problem(args.problem, sys_)
    solution = solve_bsde(sys_, driver, terminal)
    tol = 1e-9 if args.tol is None else args.tol
    return sys_, driver, terminal, solution, tol


def _duality_residuals(sys_, driver, terminal, solution, convention):
    """Absolute and scaled residual (_residuals) of the exact time-0 dual
    under ``convention`` against the backward values."""
    sde = WeightSde.from_driver(driver, convention)
    dual = dual_value(sys_, sde, driver.g, terminal)
    return _residuals(dual[sys_.reachable_at[0]],
                      solution.cell_values[sys_.plan.span(0)])


def _gate(scaled, tol, what, sys_, values):
    """EXIT_VIOLATION, said on stderr, where a scaled residual is not finite
    or exceeds ``tol`` (None: finiteness only); EXIT_OK otherwise.  The
    message names the first reachable cell whose value (of the values (C,)
    at the plan's cells) is not finite, as the backward sweep met it (the
    latest time first), if there is one."""
    if math.isfinite(scaled) and (tol is None or scaled <= tol):
        return EXIT_OK
    where, plan = "", sys_.plan
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(plan.times[bad[-1]])
        s = int(plan.cells[bad[plan.times[bad] == k][0]])
        where = (f"; the backward values are first not finite at time {k}, "
                 f"lattice state {s} (state, duration) = {sys_.label(s)}")
    bound = "" if tol is None else f" or exceeds tolerance {tol}"
    print(f"{what} is not finite{bound}{where}", file=sys.stderr)
    return EXIT_VIOLATION


def _cmd_solve_bsde(args):
    sys_, driver, terminal, solution, tol = _solve_linear(args)
    _, l_bound = driver.bounds(sys_)
    lam = projection_constants(sys_).overall
    positivity = positivity_condition(sys_, l_bound)
    comparison = comparison_condition(sys_, l_bound * lam)

    convention, selection = _resolve_convention(args.convention, sys_, args.seed)
    residual, scaled = _duality_residuals(sys_, driver, terminal, solution,
                                          convention)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_values(out / "values.csv", sys_, solution.cell_values)
    payload = {
        "metadata": _metadata(
            convention=convention.value,
            tolerance=tol,
            duality_check="exhaustive",
            duality_residual=residual,
            duality_residual_scaled=scaled,
        ),
        "hypotheses": {
            "positivity": _condition_payload(positivity),
            "comparison": _condition_payload(comparison),
            "coefficient_bound": l_bound,
            "scale_constant": lam,
        },
        # cell-major: integrands[c][j] applies from cell c at successors[c][j]
        "times": sys_.plan.times,
        "cells": sys_.plan.cells,
        "values": solution.cell_values,
        "integrands": solution.cell_integrands,
        "successors": solution.successors[
            sys_.plan.cells[:len(solution.cell_integrands)]],
    }
    if selection is not None:
        payload["convention_selection"] = selection.summary()
    files.write_json(out / "solution.json", payload)
    print(f"solved backward equation; artifacts in {out}")
    print(f"duality residual (exhaustive): {residual:.3e}, scaled {scaled:.3e}")
    return _gate(scaled, tol, "scaled residual", sys_, solution.cell_values)


def _cmd_verify_duality(args):
    sys_, driver, terminal, solution, tol = _solve_linear(args)
    per_convention, failed = {}, {}
    for conv in Convention:
        # weights that meet a vanishing denominator have no residuals; they
        # abort the command only under the selected convention
        try:
            per_convention[conv.value] = _duality_residuals(
                sys_, driver, terminal, solution, conv)
        except VanishingDenominatorError as exc:
            per_convention[conv.value], failed[conv.value] = (None, None), exc
    convention, selection = _resolve_convention(args.convention, sys_, args.seed)
    if convention.value in failed:
        raise failed[convention.value]
    residual, scaled = per_convention[convention.value]
    payload = {
        "metadata": _metadata(
            convention=convention.value,
            tolerance=tol,
            check="exhaustive",
        ),
        "residual_per_convention": {c: r[0] for c, r in per_convention.items()},
        "scaled_residual_per_convention": {
            c: r[1] for c, r in per_convention.items()},
        "selected_residual": residual,
        "selected_scaled_residual": scaled,
    }
    if selection is not None:
        payload["convention_selection"] = selection.summary()
    if args.out:
        files.write_json(args.out, payload)
    for name, (value, ratio) in sorted(per_convention.items()):
        marker = "*" if name == convention.value else " "
        print(f"{marker} {name:9s} " + (str(failed[name]) if name in failed
              else f"residual {value:.3e}, scaled {ratio:.3e}"))
    return _gate(scaled, tol, "selected scaled residual", sys_,
                 solution.cell_values)


def _cmd_solve_control(args):
    model = files.load_model(args.model)
    sys_ = build_lattice(model)
    problem = files.load_control_problem(args.problem, sys_)
    tol = args.tol if args.tol is not None else 1e-9
    solved = solve_control(problem, sys_,
                           override_hypotheses=args.override_hypotheses)
    values = solved.solution.cell_values
    oracle_residual = oracle_scaled = None
    # over its cap, or at a unit drift the solve passed by its verified
    # root, the oracle stops: the problem is solved, only unchecked
    try:
        brute = brute_force_value(problem, sys_, max_policies=100_000)
    except ValueError as exc:
        skipped = str(exc)
    else:
        oracle_residual, oracle_scaled = _residuals(
            brute.per_time_max[sys_.reachable], values)
    plan = sys_.plan
    at = plan.span(0, sys_.horizon)
    # one column per field over the reachable cells, in time-then-state order
    time, flat = plan.times[at], plan.cells[at]
    control = solved.policy.choices[time, flat]
    n = model.n_states
    policy = {"time": time, "state": flat % n, "duration": flat // n + 1,
              "control": control, "point": problem.controls[control]}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_values(out / "values.csv", sys_, values)
    files.write_json(
        out / "control.json",
        {
            "metadata": _metadata(
                convention=DEFAULT_CONVENTION.value, tolerance=tol
            ),
            "hypotheses": {
                "positivity": _condition_payload(solved.positivity),
                "comparison": _condition_payload(solved.comparison),
                "scale_constant": solved.lambda_overall,
            },
            "values": values,
            "policy": policy,
            "ties": solved.ties,
            "oracle_residual": oracle_residual,
            "oracle_residual_scaled": oracle_scaled,
        },
    )
    print(f"solved control problem; artifacts in {out}")
    if oracle_residual is not None:
        print(f"brute-force oracle residual: {oracle_residual:.3e}, scaled "
              f"{oracle_scaled:.3e}")
        scaled, bound, what = oracle_scaled, tol, "scaled oracle residual"
    else:
        # without the oracle the values still have to be finite
        print(f"brute-force oracle skipped: {skipped}")
        finite = np.isfinite(values).all()
        scaled, bound, what = (0.0 if finite else math.inf), None, \
            "a reachable value"
    return _gate(scaled, bound, what, sys_, values)


def _suite_rows(seed):
    """Desk-scale property suite; returns (name, residual, tol, passed) rows."""
    from .instances import (
        random_comparison_pair,
        random_control_problem,
        random_linear_instance,
        random_model,
    )

    rng = np.random.default_rng(seed)
    rows = []

    def add(name, residual, tol):
        rows.append((name, float(residual), float(tol), bool(residual <= tol)))

    # the successor table: each source's law sums to one over its real
    # slots, and the stays chained along a state's durations times the
    # leave at the last give back the sojourn law pi_i(m) wherever (i, m)
    # is attainable
    worst, lattices = 0.0, []
    for _ in range(8):
        model = random_model(rng, n_max=4, t_max=8)
        sys_ = build_lattice(model)
        lattices.append(sys_)
        n, real = model.n_states, sys_.plan.real
        law = np.where(real, sys_.prob, 0.0)
        total = law[sys_.sources].sum(axis=1)
        worst = max(worst, float(np.abs(total - 1.0).max()))
        stay_slot = sys_.succ == np.arange(sys_.dim)[:, None] + n
        stay = np.where(stay_slot, law, 0.0).sum(axis=1).reshape(-1, n)
        leave = np.where(stay_slot, 0.0, law).sum(axis=1).reshape(-1, n)
        alive = np.cumprod(np.vstack((np.ones(n), stay[:-1])), axis=0)
        gap = np.abs(alive * leave - model.pi.T)[sys_.sojourn.attainable.T]
        worst = max(worst, float(gap.max(initial=0.0)))
        for k in range(sys_.horizon + 1):
            if len(sys_.reachable_at[k]) > (k + 1) * n:
                worst = max(worst, 1.0)
    add("successor-laws", worst, 1e-12)

    # each source's bracket B on its block, inverted by numpy, against the
    # closed-form norms of linalg and the closed-form noise of duality
    worst = 0.0
    for sys_ in lattices:
        norms = np.stack(linalg._bracket_norms(sys_), axis=1)
        draws = rng.standard_normal((sys_.sources.size, 4, sys_.block.shape[1]))
        for s, norm, row in zip(sys_.sources, norms, draws):
            real = sys_.plan.real[s]
            c = sys_.prob[s][real]
            m = c.size
            bracket = np.diag(np.concatenate(([0.0], c)))
            bracket[0, 1:], bracket[1:, 0] = -c, -c
            inv = np.linalg.inv(bracket)
            ref = np.array([np.linalg.norm(bracket), np.sum(inv * inv)])
            worst = max(worst, float(np.max(np.abs(norm - ref) / (1.0 + ref))))
            # n_j = b . B^-1 (e_j - c) on the block, at each real slot j
            adj = row[:, :m + 1] @ inv
            ref = adj[:, 1:] - adj[:, 1:] @ c[:, None]
            got = duality._noise(row, sys_.prob[s], real,
                                 np.zeros((row.shape[0], real.size)))[:, :m]
            worst = max(worst, float(np.max(np.abs(got - ref)
                                            / (1.0 + np.abs(ref)))))
    add("bracket-closed-form", worst, 1e-9)

    worst = 0.0
    min_weight = 0.0
    selection_done = False
    for _ in range(10):
        model = random_model(rng, n_max=3, t_max=4)
        sys_ = build_lattice(model)
        if not selection_done:
            result = select_convention(sys_, trials=8, seed=int(rng.integers(2**31)))
            selection_done = True
        driver, terminal = random_linear_instance(sys_, rng)
        solution = solve_bsde(sys_, driver, terminal)
        worst = max(worst, _duality_residuals(sys_, driver, terminal, solution,
                                              DEFAULT_CONVENTION)[1])
        sde = WeightSde.from_driver(driver, DEFAULT_CONVENTION)
        _, l_bound = driver.bounds(sys_)
        report = weight_bounds(sys_, sde, beta_bound=l_bound)
        min_weight = min(min_weight, report.min_weight)
    add("duality-residual", worst, 1e-9)
    add("weight-positivity", max(0.0, -min_weight), 1e-10)

    worst = 0.0
    for _ in range(8):
        model = random_model(rng, n_max=3, t_max=4)
        sys_ = build_lattice(model)
        d1, t1, d2, t2 = random_comparison_pair(sys_, rng)
        s1 = solve_bsde(sys_, d1, t1)
        s2 = solve_bsde(sys_, d2, t2)
        gap = s1.cell_values - s2.cell_values
        worst = max(worst, float(np.nanmax(gap)))
    add("comparison-ordering", max(0.0, worst), 1e-10)

    worst = 0.0
    eps_ok = True
    for i in range(5):
        model = random_model(rng, n_max=2, t_max=3, n=2)
        sys_ = build_lattice(model)
        problem = random_control_problem(sys_, rng, n_controls=2)
        solved = solve_control(problem, sys_)
        brute = brute_force_value(problem, sys_)
        worst = max(worst, _residuals(brute.per_time_max[sys_.reachable],
                                      solved.solution.cell_values)[1])
        if i < 2:
            _, report = epsilon_optimal_policy(problem, sys_, solved, 1e-2)
            eps_ok = eps_ok and report.within_bound
    add("control-vs-brute-force", worst, 1e-9)
    add("epsilon-bound", 0.0 if eps_ok else 1.0, 0.5)

    return rows


def _cmd_verify_all(args):
    rows = _suite_rows(args.seed or 0)
    width = max(len(name) for name, *_ in rows)
    print(f"{'property':{width}s}  {'residual':>12s}  {'tol':>8s}  result")
    all_pass = True
    for name, residual, tol, passed in rows:
        all_pass = all_pass and passed
        print(
            f"{name:{width}s}  {residual:12.3e}  {tol:8.0e}  "
            f"{'pass' if passed else 'FAIL'}"
        )
    if args.out:
        files.write_json(
            args.out,
            {
                "metadata": _metadata(seed=args.seed or 0),
                "properties": [
                    {
                        "name": name,
                        "residual": residual,
                        "tolerance": tol,
                        "passed": passed,
                    }
                    for name, residual, tol, passed in rows
                ],
            },
        )
    return EXIT_OK if all_pass else EXIT_VIOLATION


# each command's options, in the order its help lists them: "!" marks a
# required one, "=" gives a default
_COMMANDS = (
    ("validate", _cmd_validate, "check a model document", "model! out"),
    ("simulate", _cmd_simulate, "draw seeded chain paths",
     "model! out! seed! mc-paths"),
    ("build-lattice", _cmd_build_lattice,
     "export transition and noise matrices", "model! out!"),
    ("solve-bsde", _cmd_solve_bsde, "solve a linear problem",
     f"model! problem! out! seed tol convention={DEFAULT_CONVENTION.value}"),
    ("verify-duality", _cmd_verify_duality,
     "cross-check the weighted representation",
     "model! problem! out seed tol convention=auto"),
    ("solve-control", _cmd_solve_control, "solve a control problem",
     "model! problem! out! tol override-hypotheses"),
    ("verify-all", _cmd_verify_all, "run the desk-scale property suite",
     "out seed"),
)
_OPTIONS = {
    "seed": {"type": int},
    "mc-paths": {"type": int},
    "tol": {"type": float},
    "convention": {"choices": ["auto"] + [c.value for c in Convention]},
    "override-hypotheses": {"action": "store_true"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcbsde",
        description="Backward equations and control on semi-Markov lattices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_, options in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for option in options.split():
            option, _, default = option.partition("=")
            key = option.rstrip("!")
            extra = {"default": default} if default else {}
            p.add_argument(f"--{key}", required=option.endswith("!"),
                           **_OPTIONS.get(key, {}), **extra)
    return parser


# one parser per process, built on the first call of main
_parser = cache(build_parser)


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    if (getattr(args, "seed", None) or 0) < 0:
        print(f"error: --seed must be a non-negative integer, not {args.seed}",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except files.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InvalidModelError, HypothesisError, SelectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ProblemDataError, DegenerateDriverError, BijectionError,
            VanishingDenominatorError) as exc:
        print(f"error: {args.problem}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # a path that cannot be read or written
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
