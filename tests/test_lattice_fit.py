"""One check that a problem fits its lattice.

Every entry point that takes a problem's tables refuses one that does not
fit the lattice with a ProblemDataError naming the field, before any entry
is read: a per-step table is (T, D) plus its own inner axes (none for a
linear driver or a weight recursion, (U,) for a control problem), a
terminal (D,), and beta's rows are W+1 wide (on the blocks) or D wide
(dense).  The fit checks run before any finiteness check, in the order
alpha, g, beta, terminal.
"""

import numpy as np
import pytest

import smcbsde
from smcbsde import (
    ControlProblem,
    LinearDriver,
    ProblemDataError,
    WeightSde,
    brute_force_value,
    build_lattice,
    check_comparison,
    dual_value,
    epsilon_optimal_policy,
    evaluate_policy,
    solve_bsde,
    solve_control,
    weight_bounds,
)
from smcbsde.instances import random_control_problem, random_linear_instance

from conftest import geometric_model

# (T, D) offsets of the misfits, and an extra inner axis
OFFSETS = {"D+3": (0, 3), "T+2": (2, 0), "T+1,D+1": (1, 1), "D-1": (0, -1)}
MISFITS = [*OFFSETS, "inner"]


@pytest.fixture(scope="module")
def sys_():
    """Geometric N=3, T=5 (D=18)."""
    return build_lattice(geometric_model((0.2, 0.5, 0.8), 5))


@pytest.fixture(scope="module")
def linear(sys_):
    return random_linear_instance(sys_, np.random.default_rng(0))


def misfit(table, how, field):
    """Zeros shaped as the fitting ``table`` of the field (a per-step
    table, beta or the terminal) with its axes changed as ``how`` says."""
    shape = table.shape
    if how == "inner":
        at = 1 if field == "terminal" else 2
        return np.zeros(shape[:at] + (1,) + shape[at:])
    if field == "terminal":
        return np.zeros(shape[0] + OFFSETS[how][1])
    dt, dd = OFFSETS[how]
    return np.zeros((shape[0] + dt, shape[1] + dd) + shape[2:])


def refused(field, call):
    with pytest.raises(ProblemDataError, match=f"^field '{field}' "):
        call()


LINEAR = [(field, how) for field in ("alpha", "g", "beta", "terminal")
          for how in MISFITS if not (field == "terminal" and how == "T+2")]


@pytest.mark.parametrize("field, how", LINEAR)
def test_linear_driver_tables_that_do_not_fit_are_refused(sys_, linear,
                                                          field, how):
    driver, terminal = linear
    tables = {"alpha": driver.alpha, "g": driver.g, "beta": driver.beta,
              "terminal": terminal}
    tables[field] = misfit(tables[field], how, field)
    bad = LinearDriver(tables["alpha"], tables["g"], tables["beta"])
    refused(field, lambda: solve_bsde(sys_, bad, tables["terminal"]))
    refused(field, lambda: check_comparison(sys_, bad, driver,
                                            tables["terminal"], terminal))
    refused(field, lambda: check_comparison(sys_, driver, bad, terminal,
                                            tables["terminal"]))
    if field != "terminal":
        refused(field, lambda: bad.bounds(sys_))


@pytest.mark.parametrize("field, how", LINEAR)
def test_weight_recursion_tables_that_do_not_fit_are_refused(sys_, linear,
                                                             field, how):
    driver, terminal = linear
    tables = {"alpha": driver.alpha, "g": driver.g, "beta": driver.beta,
              "terminal": terminal}
    tables[field] = misfit(tables[field], how, field)
    sde = WeightSde(tables["alpha"], tables["beta"])
    for kwargs in ({}, {"mc_paths": 3, "seed": 0}):
        refused(field, lambda: dual_value(sys_, sde, tables["g"],
                                          tables["terminal"], **kwargs))
    if field in ("alpha", "beta"):
        refused(field, lambda: weight_bounds(sys_, sde))
        refused(field, lambda: weight_bounds(sys_, sde, samples=3, seed=0))


def test_beta_rows_of_another_width_name_both_widths(sys_, linear):
    driver, terminal = linear
    w, d = sys_.block.shape[1], sys_.dim
    bad = LinearDriver(driver.alpha, driver.g, driver.beta[..., :-1])
    with pytest.raises(ProblemDataError) as exc:
        solve_bsde(sys_, bad, terminal)
    assert str(exc.value) == (
        f"field 'beta' has rows of width {w - 1} but the model's lattice "
        f"takes W+1 = {w} (rows on the blocks) or D = {d} (dense rows)")


def test_other_axes_are_named_with_the_shape_the_lattice_takes(sys_, linear):
    driver, terminal = linear
    t, d, w = sys_.horizon, sys_.dim, sys_.block.shape[1]
    cases = [
        (LinearDriver(driver.alpha[..., None], driver.g), terminal,
         f"field 'alpha' has shape {(t, d, 1)} but the model's lattice "
         f"takes (T, D) = ({t}, {d})"),
        (LinearDriver(driver.alpha, driver.g, driver.beta[:, :, None]),
         terminal,
         f"field 'beta' has shape {(t, d, 1, w)} but the model's lattice "
         f"takes (T, D, X) = ({t}, {d}, {w} or {d})"),
        (driver, terminal[:-1],
         f"field 'terminal' has shape {(d - 1,)} but the model's lattice "
         f"takes (D) = ({d})"),
    ]
    for bad, term, message in cases:
        with pytest.raises(ProblemDataError) as exc:
            solve_bsde(sys_, bad, term)
        assert str(exc.value) == message


def test_every_fit_check_runs_before_any_finiteness_check(sys_, linear):
    driver, terminal = linear
    k, s = sys_.horizon // 2, int(sys_.reachable_at[sys_.horizon // 2][0])
    nan_alpha = driver.alpha.copy()
    nan_alpha[k, s] = np.nan
    nan_terminal = terminal.copy()
    nan_terminal[sys_.reachable_at[-1]] = np.nan
    wide = misfit(driver.g, "D+3", "g")
    # a misfit alpha before a terminal that is not finite
    refused("alpha", lambda: solve_bsde(
        sys_, LinearDriver(misfit(driver.alpha, "D+3", "alpha"), wide),
        nan_terminal))
    # a misfit terminal before an alpha that is not finite
    refused("terminal", lambda: solve_bsde(
        sys_, LinearDriver(nan_alpha, driver.g, driver.beta),
        misfit(terminal, "D-1", "terminal")))
    # alpha, g, beta, terminal: the first misfit is named
    refused("g", lambda: solve_bsde(
        sys_, LinearDriver(nan_alpha, wide, driver.beta[..., :-1]),
        terminal[:-1]))
    refused("beta", lambda: dual_value(
        sys_, WeightSde(nan_alpha, driver.beta[..., :-1]), driver.g,
        terminal[:-1]))


@pytest.fixture(scope="module")
def control(sys_):
    problem = random_control_problem(sys_, np.random.default_rng(2))
    return problem, solve_control(problem, sys_)


def _control_misfit(problem, how):
    """The problem with every table resized as ``how`` says (its tables
    must agree with one another), or with beta rows of another width."""
    if how == "width":
        return ControlProblem(problem.controls, problem.alpha,
                              problem.beta[..., :-1], problem.g,
                              problem.terminal, problem.alpha_bound,
                              problem.beta_bound)
    return ControlProblem(
        problem.controls, misfit(problem.alpha, how, "alpha"),
        misfit(problem.beta, how, "beta"), misfit(problem.g, how, "g"),
        misfit(problem.terminal, how, "terminal"), problem.alpha_bound,
        problem.beta_bound)


@pytest.mark.parametrize("how", [*OFFSETS, "width"])
def test_control_tables_that_do_not_fit_are_refused(sys_, control, how):
    problem, solved = control
    bad = _control_misfit(problem, how)
    field = "beta" if how == "width" else "alpha"
    refused(field, lambda: solve_control(bad, sys_))
    refused(field, lambda: brute_force_value(bad, sys_))
    refused(field, lambda: epsilon_optimal_policy(bad, sys_, solved, 0.1))
    refused(field, lambda: evaluate_policy(bad, sys_, solved.policy))


def test_problem_data_error_is_one_class_exported_once():
    assert smcbsde.bsde.ProblemDataError is smcbsde.lattice.ProblemDataError
    assert smcbsde.ProblemDataError is smcbsde.lattice.ProblemDataError
    assert issubclass(ProblemDataError, ValueError)
    assert smcbsde.__all__.count("ProblemDataError") == 1
