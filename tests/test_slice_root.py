"""The general driver's verified root, one time slice at a time, against the
per-cell root it replaced.

``bsde._verified_roots`` builds every cell's bracket and samples of a
slice as arrays, calls a scalar driver once per sample and runs the NaN,
sign and monotone checks as array reductions; ``dense._verified_root`` ran
them one cell at a time.  Values, each cell's driver calls and every
failure's message must be the same, and no check may warn where the
per-cell floats did not.
"""

import math
import re
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from smcbsde import (BijectionError, GeneralDriver, build_lattice, solve_bsde,
                     solve_control)
from smcbsde import bsde
from smcbsde.instances import random_control_problem, random_model

from conftest import geometric_model
from dense import dense_solve, dense_solve_control

# scalar drivers whose maps y - f are increasing: tanh, affine and cubic
DRIVERS = {
    "tanh": lambda w: lambda k, s, y, z: 0.5 * math.tanh(y)
    + 0.5 * math.tanh(float(w[k, s] @ z)),
    "affine": lambda w: lambda k, s, y, z: 0.3 * y + float(w[k, s] @ z) - 0.1,
    "cubic": lambda w: lambda k, s, y, z: -0.01 * y ** 3 + 0.2 * y
    + 0.1 * float(w[k, s] @ z),
}


def _lattice(seed):
    """Even seeds a random_model draw, odd ones a geometric model: the
    largest slice of each holds 9 to 30 cells."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        n = int(rng.integers(3, 6))
        return build_lattice(geometric_model(rng.uniform(0.2, 0.8, n),
                                             int(rng.integers(4, 8)))), rng
    return build_lattice(random_model(rng, n=4, t=6)), rng


def _logged(fn, log):
    def logged(k, s, y, z):
        log[k, s].append(y)
        return fn(k, s, y, z)
    return logged


def _bits(values, sys_):
    return np.asarray(values)[sys_.reachable].view(np.uint64)


@pytest.mark.parametrize("seed", range(20))
def test_slice_roots_match_the_cell_oracle_bit_for_bit(seed):
    sys_, rng = _lattice(seed)
    assert max(len(r) for r in sys_.reachable_at[:-1]) >= 3
    w = rng.standard_normal((sys_.horizon, sys_.dim, sys_.dim))
    terminal = rng.uniform(-1.0, 1.0, sys_.dim)
    for kind, make in DRIVERS.items():
        got, want = defaultdict(list), defaultdict(list)
        sol = solve_bsde(sys_, GeneralDriver(_logged(make(w), got)), terminal)
        values, _, _ = dense_solve(sys_, GeneralDriver(_logged(make(w), want)),
                                   terminal)
        np.testing.assert_array_equal(_bits(sol.values, sys_),
                                      _bits(values, sys_), err_msg=kind)
        # each cell's calls: the ends, the inner samples, the Brent iterates
        assert got == want, kind

    # a control problem with a unit drift for control 1 at every other
    # reachable cell: the fallback's verified roots, many to a slice
    problem = random_control_problem(sys_, rng, n_controls=3)
    alpha, g = problem.alpha.copy(), problem.g.copy()
    for k in range(sys_.horizon):
        alpha[k, sys_.reachable_at[k][::2], 1] = 1.0
        g[k, sys_.reachable_at[k][::2], 1] = -50.0
    rooted = replace(problem, alpha=alpha, g=g, alpha_bound=1.1)
    values, _, _ = dense_solve_control(rooted, sys_)
    np.testing.assert_array_equal(
        _bits(solve_control(rooted, sys_).values, sys_), _bits(values, sys_))


# Drivers that fail the root, and the messages they draw.  With a terminal
# of ones and a zero driver elsewhere every mean is one, so each bracket is
# [-1999, 2001] and its inner samples step by 2000/15.5 from -1999
FAILURES = {
    "nan at a bracket end": (lambda y: math.nan if y < -1950.0 else 0.0,
                             r"y - f is NaN at y = -1999\.0 "),
    # an infinite driver above 500: y - f is -inf at the upper end
    "no sign change": (lambda y: math.inf if y > 500.0 else 0.0,
                       r"no sign change for y - f on \[-1999\.0, 2001\.0\] "),
    "nan at an inner sample": (
        lambda y: math.nan if 400.0 < y < 600.0 else 0.0,
        r"y - f is NaN at y = 452\.6\d+ "),
    "not monotone": (lambda y: 1.5 * y if abs(y) < 300.0 else 0.0,
                     r"y - f is not monotone on the bracket "),
    "nan at a Brent iterate": (
        lambda y: math.nan if abs(y - 1.0) < 0.5 else 0.0,
        r"y - f is NaN at y = 1\.0 "),
    "the Brent step cap": (lambda y: 0.9 * math.tanh(y - 3.0),
                           r"the root did not converge in 3 steps "),
}


def _message(solve):
    with pytest.raises(BijectionError) as err:
        solve()
    return str(err.value)


@pytest.mark.parametrize("upper", sorted(FAILURES))
@pytest.mark.parametrize("lower", sorted(FAILURES))
def test_two_failing_cells_raise_the_oracle_message_without_a_warning(
        monkeypatch, lower, upper):
    # the cells 1 and 2 of the first slice solved, time T-1: the second and
    # third in sweep order; the lower one's failure is raised
    sys_ = build_lattice(geometric_model((0.3, 0.5, 0.6), 3))
    k = sys_.horizon - 1
    s1, s2 = (int(s) for s in sys_.reachable_at[k][1:3])
    kinds = {(k, s1): FAILURES[lower][0], (k, s2): FAILURES[upper][0]}
    driver = GeneralDriver(
        lambda k, s, y, z: kinds.get((k, s), lambda y: 0.0)(y))
    monkeypatch.setattr(bsde, "_BRENT_STEPS", 3)
    terminal = np.ones(sys_.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _message(lambda: solve_bsde(sys_, driver, terminal))
        want = _message(lambda: dense_solve(sys_, driver, terminal))
    assert got == want
    assert re.fullmatch(FAILURES[lower][1] + f"at time {k}, state {s1}", got)


@pytest.mark.parametrize("mean, bracket", [
    # the bracket's radius (1 + |mean|) 1e3 overflows: ends of +-inf
    (1e306, r"\[-inf, inf\]"),
    # finite ends whose difference overflows: the step and every inner
    # sample would be inf, and the refinement would not converge
    (1e305, r"\[-9\.99e\+307, 1\.001e\+308\]"),
], ids=["infinite-ends", "infinite-width"])
def test_a_bracket_that_overflows_names_the_bracket(mean, bracket):
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    calls = defaultdict(list)
    driver = GeneralDriver(_logged(lambda k, s, y, z: 0.5 * math.tanh(y),
                                   calls))
    terminal = np.full(sys_.dim, mean)
    message = (rf"the width of the bracket {bracket} of y - f is not finite "
               r"at time 3, ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BijectionError, match=message + "state 0$"):
            solve_bsde(sys_, driver, terminal)
        assert (3, 0) not in calls
        with pytest.raises(BijectionError, match=message + "state 0$"):
            dense_solve(sys_, driver, terminal)
        assert (3, 0) not in calls

        # the control fallback: a unit drift for control 1 at every cell of
        # time 3 but the first, whose closed form holds
        problem = random_control_problem(sys_, np.random.default_rng(0))
        alpha = problem.alpha.copy()
        src = sys_.reachable_at[3]
        alpha[3, src[1:], 1] = 1.0
        rooted = replace(problem, alpha=alpha, alpha_bound=1.1,
                         terminal=terminal)
        for solve in (solve_control, dense_solve_control):
            with pytest.raises(BijectionError,
                               match=message + f"state {src[1]}$"):
                solve(rooted, sys_)
