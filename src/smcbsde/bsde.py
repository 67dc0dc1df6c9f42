"""Backward solver for value/integrand pairs on the lattice.

Per time slice k the lattice's ``step`` gives, for every reachable source e,

    mean    = sum_succ c(succ) * values[k+1, succ]
    z       = canonical integrand: z @ increment = values[k+1, succ] - mean
              for every realizable successor

and the value is the unique root of  y - f(k, e, y, z) = mean.  Drivers must
depend on the integrand only through its products with the realizable
increments; this is enforced structurally by always handing them the
canonical representative.  Linear drivers are solved slice-wide in closed
form (and must be finite at every reachable cell); general drivers get the
ambient row, built per slice for the reachable sources only, and a verified
bracket (sign change plus a monotonicity sweep) refined to 1e-12, cell by
cell.

Solutions keep the integrands as the step returns them: local rows
(T, D, W) on each source's successor slots, beside the successor table
(D, W) with -1 on padding.  The ambient (T, D, D) table is built only when
``BsdeSolution.integrands`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .lattice import projection_constants

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
            rows[:, 1:] = np.where(sys.prob[s] > 0.0, rows[:, 1:], 0.0)
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


def _driver_slice(sys, driver, k, y, z, rows=None):
    """Driver values at the sources reachable at time k, at values y (S_k,)
    or a scalar and integrands z (S_k, W) from the lattice's step (linear
    drivers, which must be finite there) or ambient rows (S_k, D)."""
    src = sys.reachable_at[k]
    if isinstance(driver, LinearDriver):
        a, g = driver.alpha[k, src], driver.g[k, src]
        b = None if driver.beta is None else driver.beta[k, src]
        _require_finite(sys, k, alpha=a, g=g, beta=b)
        out = a * y + g
        if b is not None:
            rows = sys.block_rows(driver.beta, k, src)
            out = out + (sys.projected_rows(k, rows) * z).sum(axis=-1)
        return out
    y = np.broadcast_to(y, src.shape)
    return np.array([
        float(driver.fn(k, int(s), float(v), row))
        for s, v, row in zip(src, y, rows)
    ])


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
    return BsdeSolution(values, local, np.where(sys.prob > 0.0, sys.succ, -1))


def _ambient_rows(sys, k, z):
    """Ambient integrand rows (S_k, D) of the sources reachable at time k,
    from their local rows z (S_k, W)."""
    src = sys.reachable_at[k]
    rows, slots = np.nonzero(sys.prob[src] > 0.0)
    out = np.zeros((src.size, sys.dim))
    out[rows, sys.succ[src[rows], slots]] = z[rows, slots]
    return out


def solve_bsde(sys, driver, terminal) -> BsdeSolution:
    """Solve the backward equation over all reachable states.

    Values at states unreachable at a given time are NaN and never read, so
    the solution is invariant to perturbing inputs there.  A linear driver
    with a non-finite coefficient at a reachable cell raises
    ProblemDataError; one with a unit drift there, DegenerateDriverError.
    """
    linear = isinstance(driver, LinearDriver)
    values, local = _tables(sys, terminal)
    for k in range(sys.horizon - 1, -1, -1):
        src = sys.reachable_at[k]
        mean, z = sys.step(k, values[k + 1])
        local[k, src] = z
        if not linear:
            # a verified root per cell, the driver reading the ambient row
            rows = _ambient_rows(sys, k, z)
            for s, m, row in zip(src.tolist(), mean.tolist(), rows):
                values[k, s] = _verified_root(
                    lambda y: y - driver.fn(k, s, y, row) - m, m,
                    f" at time {k}, state {s}")
            continue
        rhs = mean + _driver_slice(sys, driver, k, 0.0, z)
        a = driver.alpha[k, src]
        bad = np.abs(1.0 - a) < 1e-12
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateDriverError(
                f"alpha[{k}, {src[i]}] = {a[i]}: y - f is not a bijection"
            )
        values[k, src] = rhs / (1.0 - a)
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

    general = not (isinstance(driver1, LinearDriver)
                   and isinstance(driver2, LinearDriver))
    gap_min = np.inf
    for k in range(sys.horizon):
        src = sys.reachable_at[k]
        y2 = sol2.values[k, src]
        z2 = sol2.local_integrands[k, src]
        rows = _ambient_rows(sys, k, z2) if general else None
        gaps = (_driver_slice(sys, driver2, k, y2, z2, rows)
                - _driver_slice(sys, driver1, k, y2, z2, rows))
        gap_min = min(gap_min, float(gaps.min()))
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
