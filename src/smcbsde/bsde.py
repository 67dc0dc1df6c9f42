"""Backward solver for value/integrand pairs on the lattice.

Per time slice k the lattice's ``step`` gives, for every reachable source e,

    mean    = sum_succ c(succ) * values[k+1, succ]
    z       = canonical integrand: z @ increment = values[k+1, succ] - mean
              for every realizable successor

and the value is the unique root of  y - f(k, e, y, z) = mean.  Drivers must
depend on the integrand only through its products with the realizable
increments; this is enforced structurally by always handing them the
canonical representative.  Linear drivers are solved slice-wide in closed
form: their coefficients, the b . P rows among them, are gathered once over
the lattice's reachable cells and checked there (finite, no unit drift) as
the sweep would meet them, the latest time first; the slice loop keeps the
step, the projected sum and the division.  The same gathered terms give a
linear driver's values at every cell along a solution (_driver_cells), for
the comparison gap.  General drivers get the ambient row, built per slice for the reachable sources only, and a verified
bracket (sign change plus a monotonicity sweep) refined to 1e-12, cell by
cell.

Solutions keep the integrands as the step returns them: local rows
(T, D, W) on each source's successor slots, beside the successor table
(D, W) with -1 on padding.  The ambient (T, D, D) table is built only when
``BsdeSolution.integrands`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq

from .lattice import _blocks, _projected, projection_constants

__all__ = [
    "BijectionError",
    "BsdeSolution",
    "ComparisonReport",
    "DegenerateDriverError",
    "GeneralDriver",
    "LinearDriver",
    "ProblemDataError",
    "check_comparison",
    "solve_bsde",
]

ROOT_TOL = 1e-12
_BRACKET_FACTOR = 1e3
_MONOTONE_SAMPLES = 32


class DegenerateDriverError(ValueError):
    """A linear driver has a unit drift coefficient: the affine solve is
    singular and no solution exists (or infinitely many do)."""


class ProblemDataError(ValueError):
    """Problem data are not finite, or break a declared bound, at a reachable
    cell; the message names the field, the time and the state."""


class BijectionError(RuntimeError):
    """The scalar backward map y -> y - f(k, y, z) failed the bracket or
    monotonicity verification at some solve point."""


@dataclass(frozen=True)
class LinearDriver:
    """Driver  f(k, e, y, z) = alpha[k, e] * y + beta[k, e] . P_e z + g[k, e]
    with P_e the bracket projector of the source state.

    alpha, g : (T, D); beta : (T, D, W+1) rows laid out as the lattice's
    ``block`` (padding 0) or (T, D, D) dense rows, or None.  Entries at
    states never reachable at time k, or off a dense row's block, are unread.
    """

    alpha: np.ndarray
    g: np.ndarray
    beta: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "g", g)
        if self.beta is not None:
            object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))

    @classmethod
    def constant(cls, horizon, dim, alpha=0.0, g=0.0):
        """Constant drift and running term, no integrand term."""
        return cls(np.full((horizon, dim), float(alpha)),
                   np.full((horizon, dim), float(g)))

    def bounds(self, sys):
        """Max |alpha| and max Euclidean beta-row norm on the block over
        reachable (k, e)."""
        mask = sys.reachable[:-1]
        p = float(np.abs(self.alpha[mask]).max(initial=0.0))
        l = 0.0
        if self.beta is not None:
            k, s = np.nonzero(mask)
            rows = sys.block_rows(self.beta, k, s)
            rows[:, 1:] = np.where(sys.plan.real[s], rows[:, 1:], 0.0)
            l = float(np.linalg.norm(rows, axis=1).max(initial=0.0))
        return p, l


@dataclass(frozen=True)
class GeneralDriver:
    """Arbitrary driver fn(k, state, y, z_row) -> float.

    The solver hands fn the canonical integrand representative, so fn may
    read z_row freely and still respect equivalence.  Optional Lipschitz
    bounds (in y, and in the integrand seminorm) feed the comparison check.
    """

    fn: Callable
    omega1: float | None = None
    omega2: float | None = None


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution tables.

    values[k, e]              : value at time k in reachable state e (NaN
                                elsewhere)
    local_integrands[k, e, j] : canonical integrand over step k -> k+1 from
                                e, at its successor successors[e, j]; zero on
                                padding and at cells never reached
    successors[e, j]          : flat successor indices, padded with -1
    """

    values: np.ndarray
    local_integrands: np.ndarray
    successors: np.ndarray

    @property
    def integrands(self) -> np.ndarray:
        """Ambient (T, D, D) table: row [k, e] is the canonical integrand
        row applied over step k -> k+1 from e.  Built on every read."""
        t, d = self.local_integrands.shape[:2]
        out = np.zeros((t, d, d))
        rows, slots = np.nonzero(self.successors >= 0)
        out[:, rows, self.successors[rows, slots]] = \
            self.local_integrands[:, rows, slots]
        return out

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def value_at(self, k, state):
        v = self.values[k, state]
        if np.isnan(v):
            raise ValueError(f"state {state} not reachable at time {k}")
        return float(v)


def _require_finite(sys, k, **cells):
    """Raise ProblemDataError at the first source reachable at time k whose
    data are not finite.  Each named array holds one row per reachable
    state, (S_k, ...), read whole; None stands for an absent table."""
    for name, arr in cells.items():
        if arr is None or np.isfinite(arr).all():
            continue
        ok = np.isfinite(arr).reshape(arr.shape[0], -1).all(axis=1)
        s = int(sys.reachable_at[k][np.argmin(ok)])
        raise ProblemDataError(
            f"field '{name}' is not finite at time {k}, lattice state {s} "
            f"(state, duration) = {sys.label(s)}"
        )


def _terminal_array(sys, terminal):
    term = np.asarray(terminal, dtype=float)
    if term.shape != (sys.dim,):
        raise ValueError(f"terminal must have shape ({sys.dim},)")
    _require_finite(sys, sys.horizon,
                    terminal=term[sys.reachable_at[sys.horizon]])
    return term


def _verified_root(phi, center, context=""):
    """Root of y -> phi(y) after checking the map brackets and is monotone."""
    radius = (1.0 + abs(center)) * _BRACKET_FACTOR
    lo, hi = center - radius, center + radius
    flo, fhi = phi(lo), phi(hi)
    if not (flo < 0.0 < fhi):
        raise BijectionError(f"no sign change for y - f on [{lo}, {hi}]{context}")
    ys = np.linspace(lo, hi, _MONOTONE_SAMPLES)
    vals = np.array([phi(y) for y in ys])
    if np.any(np.diff(vals) < -ROOT_TOL * (1.0 + np.abs(vals[:-1]))):
        raise BijectionError(f"y - f is not monotone on the bracket{context}")
    root = brentq(phi, lo, hi, xtol=ROOT_TOL, rtol=8.881784197001252e-16)
    return float(root)


def _tables(sys, terminal):
    """Values (T+1, D), NaN but at the reachable terminal states, and zero
    local integrands (T, D, W) for a backward solve to fill."""
    term = _terminal_array(sys, terminal)
    values = np.full((sys.horizon + 1, sys.dim), np.nan)
    reach_t = sys.reachable_at[sys.horizon]
    values[-1, reach_t] = term[reach_t]
    return values, np.zeros((sys.horizon,) + sys.succ.shape)


def _solution(sys, values, local) -> BsdeSolution:
    return BsdeSolution(values, local, np.where(sys.plan.real, sys.succ, -1))


def _ambient_rows(sys, k, z):
    """Ambient integrand rows (S_k, D) of the sources reachable at time k,
    from their local rows z (S_k, W)."""
    src = sys.reachable_at[k]
    rows, slots = np.nonzero(sys.plan.real[src])
    out = np.zeros((src.size, sys.dim))
    out[rows, sys.succ[src[rows], slots]] = z[rows, slots]
    return out


def _finite_rows(table, times, states) -> np.ndarray:
    """(cells,) True where the whole row table[times, states] is finite,
    read in blocks of cells."""
    out = np.empty(times.size, dtype=bool)
    for at in _blocks(times.size, int(np.prod(table.shape[2:]))):
        rows = table[times[at], states[at]]
        out[at] = np.isfinite(rows.reshape(rows.shape[0], -1)).all(axis=1)
    return out


class _LinearTerms(NamedTuple):
    """A linear driver at the plan's cells before the horizon: alpha, g,
    the rows coef (cells, W) of b . P z (None without beta) and den =
    1 - alpha."""

    alpha: np.ndarray
    g: np.ndarray
    coef: np.ndarray | None
    den: np.ndarray

    def value(self, at, y, z):
        """alpha y + g + b . P z at the cells ``at`` (a slice or index)."""
        out = self.alpha[at] * y + self.g[at]
        if self.coef is not None:
            out = out + (self.coef[at] * z).sum(axis=-1)
        return out


def _linear_terms(sys, driver) -> _LinearTerms:
    """The _LinearTerms of a linear driver, checked as the backward sweep
    meets the cells, the latest time first: there ProblemDataError names
    the first field (alpha, g, then beta, read whole) that is not finite,
    else DegenerateDriverError the first unit drift."""
    plan = sys.plan
    at = plan.span(0, sys.horizon)
    times, cells = plan.times[at], plan.cells[at]
    a, g = driver.alpha[times, cells], driver.g[times, cells]
    rows = None if driver.beta is None else \
        sys.block_rows(driver.beta, times, cells)
    den = 1.0 - a
    ok = np.isfinite(a) & np.isfinite(g) & (np.abs(den) >= 1e-12)
    if rows is not None:
        ok &= _finite_rows(driver.beta, times, cells)
    if not ok.all():
        k = int(times[np.flatnonzero(~ok)[-1]])
        src = sys.reachable_at[k]
        _require_finite(sys, k, alpha=driver.alpha[k, src], g=driver.g[k, src],
                        beta=None if rows is None else driver.beta[k, src])
        i = int(np.argmax(np.abs(1.0 - driver.alpha[k, src]) < 1e-12))
        raise DegenerateDriverError(
            f"alpha[{k}, {src[i]}] = {driver.alpha[k, src[i]]}: y - f is not a "
            "bijection"
        )
    coef = None
    if rows is not None:
        coef = np.empty(rows.shape[:1] + sys.succ.shape[1:])
        for blk in _blocks(cells.size, rows.shape[-1] ** 2):
            coef[blk] = _projected(sys, plan.source_at[blk], rows[blk])
    return _LinearTerms(a, g, coef, den)


def _driver_cells(sys, driver, sol) -> np.ndarray:
    """Driver values (cells,) at the plan's cells before the horizon, at
    the values and local integrands of the solution ``sol``."""
    plan = sys.plan
    at = plan.span(0, sys.horizon)
    times, cells = plan.times[at], plan.cells[at]
    y, z = sol.values[times, cells], sol.local_integrands[times, cells]
    if isinstance(driver, LinearDriver):
        return _linear_terms(sys, driver).value(slice(None), y, z)
    out = np.empty(cells.size)
    for k in range(sys.horizon):
        now = plan.span(k)
        rows = _ambient_rows(sys, k, z[now])
        out[now] = [float(driver.fn(k, int(s), float(v), row))
                    for s, v, row in zip(cells[now], y[now], rows)]
    return out


def solve_bsde(sys, driver, terminal) -> BsdeSolution:
    """Solve the backward equation over all reachable states.

    Values at states unreachable at a given time are NaN and never read, so
    the solution is invariant to perturbing inputs there.  A linear driver
    with a non-finite coefficient at a reachable cell raises
    ProblemDataError; one with a unit drift there, DegenerateDriverError,
    each at the latest such time.
    """
    linear = isinstance(driver, LinearDriver)
    values, local = _tables(sys, terminal)
    if linear:
        terms = _linear_terms(sys, driver)
    for k in range(sys.horizon - 1, -1, -1):
        src = sys.reachable_at[k]
        mean, z = sys.step(k, values[k + 1])
        local[k, src] = z
        if linear:
            at = sys.plan.span(k)
            values[k, src] = (mean + terms.value(at, 0.0, z)) / terms.den[at]
            continue
        # a verified root per cell, the driver reading the ambient row
        rows = _ambient_rows(sys, k, z)
        for s, m, row in zip(src.tolist(), mean.tolist(), rows):
            values[k, s] = _verified_root(
                lambda y: y - driver.fn(k, s, y, row) - m, m,
                f" at time {k}, state {s}")
    return _solution(sys, values, local)


@dataclass(frozen=True)
class ComparisonReport:
    """Hypothesis checks and conclusion for a pair of backward solutions.

    The conclusion (first solution below the second everywhere) is asserted
    only when all hypotheses hold; a violation in that regime indicates a
    solver bug and raises instead of reporting.
    """

    terminal_ordered: bool
    drivers_ordered: bool
    condition_passed: bool
    condition_worst: float
    max_violation: float
    ordered: bool
    driver_gap_min: float = field(default=float("nan"))


def _omega2_for(sys, driver):
    if isinstance(driver, GeneralDriver) and driver.omega2 is not None:
        return float(driver.omega2)
    if isinstance(driver, LinearDriver):
        _, l = driver.bounds(sys)
        return l * projection_constants(sys).overall
    raise ValueError("general drivers need a declared omega2 bound")


def check_comparison(
    sys, driver1, driver2, terminal1, terminal2, omega2: float | None = None,
    tol: float = 1e-10,
) -> ComparisonReport:
    """Verify the comparison hypotheses and the ordering of the solutions.

    1. terminal1 <= terminal2 on reachable terminal states;
    2. driver1 <= driver2 along the solved second solution;
    3. the comparison condition holds for omega2 (derived from the drivers
       when not supplied, applied to both).
    When all three hold, values1 <= values2 + tol must follow; if it does
    not, an AssertionError is raised because the solver itself is wrong.
    """
    from .linalg import comparison_condition

    t1 = _terminal_array(sys, terminal1)
    t2 = _terminal_array(sys, terminal2)
    sol1 = solve_bsde(sys, driver1, t1)
    sol2 = solve_bsde(sys, driver2, t2)
    reach_t = sys.reachable_at[sys.horizon]
    terminal_ordered = bool(np.all(t1[reach_t] <= t2[reach_t] + tol))

    gaps = _driver_cells(sys, driver2, sol2) - _driver_cells(sys, driver1, sol2)
    gap_min = float(gaps.min(initial=np.inf))
    drivers_ordered = gap_min >= -tol

    if omega2 is None:
        omega2 = max(_omega2_for(sys, driver1), _omega2_for(sys, driver2))
    cond = comparison_condition(sys, omega2)

    diff = sol1.values - sol2.values
    with np.errstate(invalid="ignore"):
        max_violation = float(np.nanmax(diff)) if np.any(~np.isnan(diff)) else 0.0
    ordered = max_violation <= tol
    hypotheses = terminal_ordered and drivers_ordered and cond.passed
    if hypotheses and not ordered:
        raise AssertionError(
            "comparison hypotheses hold but the solutions are not ordered "
            f"(violation {max_violation}); the backward solver is inconsistent"
        )
    return ComparisonReport(
        terminal_ordered,
        drivers_ordered,
        cond.passed,
        cond.worst(),
        max_violation,
        ordered,
        gap_min,
    )
