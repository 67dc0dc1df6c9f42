"""Backward solver for value/integrand pairs on the lattice.

Per time slice k the backward step gives, for every reachable source e,

    mean    = sum_succ c(succ) * values[k+1, succ]
    z       = canonical integrand: z @ increment = values[k+1, succ] - mean
              for every realizable successor

and the value is the unique root of  y - f(k, e, y, z) = mean.  Drivers must
depend on the integrand only through its products with the realizable
increments; this is enforced structurally by always handing them the
canonical representative.

Affine drivers, a linear driver or a control problem's grid of them, share
one kernel: _gather reads their terms once at the plan's cells for the
caller's checks, and _affine_solve takes the largest closed form at each
cell, a verified root only at the cells its caller lists.  General drivers
get the ambient row, built per slice for the reachable sources only.  Both
take one verified root per time slice, _verified_roots: every cell's wide
bracket and 32 samples spaced as np.linspace spaces them, as arrays; the
driver once per sample; a sign change and monotone y - f as array checks;
then Brent's refinement to 1e-12 per cell from the two end values (_brent,
a port of scipy's brentq.c that gives brentq's root bit for bit).  A NaN
of y - f at any sample or step, or a bracket of no finite width, raises
BijectionError naming the first failing cell of the slice.  The root needs
no scipy, so importing the package loads numpy alone.

Solutions are cell-major over the lattice's slice plan: a value per
reachable cell, and the local integrand rows (W,) on each source's
successor slots per cell before the horizon, beside the successor table
(D, W) with -1 on padding.  The tables over every (time, state), (T+1, D)
values, (T, D, W) local and (T, D, D) ambient integrands, are views built
on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .lattice import (ProblemDataError, SlicePlan, _at_cells, _blocks,
                      _centre, _require_fit, projection_constants)
from .linalg import comparison_condition

__all__ = [
    "BijectionError",
    "BsdeSolution",
    "ComparisonReport",
    "DegenerateDriverError",
    "GeneralDriver",
    "LinearDriver",
    "check_comparison",
    "solve_bsde",
]

ROOT_TOL = 1e-12
_BRACKET_FACTOR = 1e3
_MONOTONE_SAMPLES = 32
_BRENT_STEPS = 100
_RTOL = 4 * math.ulp(1.0)  # 4 eps, the least rtol brentq takes


class DegenerateDriverError(ValueError):
    """A linear driver has a unit drift coefficient: the affine solve is
    singular and no solution exists (or infinitely many do)."""


class BijectionError(RuntimeError):
    """The scalar backward map y -> y - f(k, y, z) failed the bracket or
    monotonicity verification, was NaN, or did not converge at some solve
    point; the message names the cell."""


@dataclass(frozen=True)
class LinearDriver:
    """Driver  f(k, e, y, z) = alpha[k, e] * y + beta[k, e] . P_e z + g[k, e]
    with P_e the bracket projector of the source state: the identity on its
    block (the source and its real successor slots), zero elsewhere.

    alpha, g : (T, D); beta : (T, D, W+1) rows laid out as the lattice's
    ``block`` (padding 0) or (T, D, D) dense rows, or None.  Entries at
    states never reachable at time k, or off a dense row's block, are unread.
    """

    alpha: np.ndarray
    g: np.ndarray
    beta: np.ndarray | None = None

    def __post_init__(self):
        for name in ("alpha", "g", "beta"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name,
                                   np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def constant(cls, horizon, dim, alpha=0.0, g=0.0):
        """Constant drift and running term, no integrand term."""
        return cls(np.full((horizon, dim), float(alpha)),
                   np.full((horizon, dim), float(g)))

    def bounds(self, sys):
        """Max |alpha| and max Euclidean beta-row norm on the block over
        reachable (k, e)."""
        _require_fit(sys, alpha=self.alpha, g=self.g, beta=self.beta)
        plan, l = sys.plan, 0.0
        if self.beta is not None:
            at = plan.span(0, sys.horizon)
            l = float(_block_norms(sys, sys.block_rows(
                self.beta, plan.times[at], plan.cells[at])).max(initial=0.0))
        return float(np.abs(self.alpha[sys.reachable[:-1]]).max(initial=0.0)), l


@dataclass(frozen=True)
class GeneralDriver:
    """Arbitrary driver fn(k, state, y, z_row) -> float.

    The solver hands fn the canonical integrand representative, so fn may
    read z_row freely and still respect equivalence.  An optional Lipschitz
    bound in the integrand seminorm, omega2, feeds the comparison check.
    """

    fn: Callable
    omega2: float | None = None


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution tables, cell-major over the slice plan ``plan``.

    cell_values[c]         : value at the reachable cell c (plan.times[c],
                             plan.cells[c])
    cell_integrands[c, j]  : canonical integrand over the step from the cell
                             c before the horizon, at the successor
                             successors[plan.cells[c], j]; zero on padding
    successors[e, j]       : flat successor indices, padded with -1

    ``values`` (T+1, D), NaN off the reachable cells, ``local_integrands``
    (T, D, W) and ``integrands`` (T, D, D), zero off them, hold the same
    entries over every (time, state): read-only views, built on first read
    and then kept.
    """

    cell_values: np.ndarray
    cell_integrands: np.ndarray
    successors: np.ndarray
    plan: SlicePlan = field(repr=False)

    @cached_property
    def values(self) -> np.ndarray:
        return self._spread(self.cell_values, np.nan)

    @cached_property
    def local_integrands(self) -> np.ndarray:
        return self._spread(self.cell_integrands, 0.0)

    @cached_property
    def integrands(self) -> np.ndarray:
        """Ambient (T, D, D) table: row [k, e] is the canonical integrand
        row applied over step k -> k+1 from e."""
        local, succ = self.local_integrands, self.successors
        rows, slots = np.nonzero(succ >= 0)
        out = np.zeros(local.shape[:2] + local.shape[1:2])
        out[:, rows, succ[rows, slots]] = local[:, rows, slots]
        out.flags.writeable = False
        return out

    def _spread(self, cells, fill) -> np.ndarray:
        """The read-only table (times, D, ...) of entries (n, ...) at the
        plan's first n cells, ``fill`` at every other (time, state)."""
        plan, n = self.plan, len(cells)
        out = np.full((plan.times[n - 1] + 1, self.successors.shape[0])
                      + cells.shape[1:], fill)
        out[plan.times[:n], plan.cells[:n]] = cells
        out.flags.writeable = False
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
    _require_fit(sys, terminal=term)
    _require_finite(sys, sys.horizon,
                    terminal=term[sys.reachable_at[sys.horizon]])
    return term


def _verified_roots(center, drivers, driver, k, states):
    """Roots of y - F_j(y) = center[j] at the cells j of one time slice, each
    after checking that the map brackets and is monotone on 32 samples
    spaced as np.linspace spaces them.  drivers(calls) gives F (float64) at
    the samples (m, 32) of the first m cells in a scalar driver's call
    order, the ends then the inner samples; driver(j, y) gives F_j(y).  The
    first failing cell raises what the cell-wise checks raised, naming time
    k and states[j], once the cells before it are refined; one whose
    bracket's width is not finite, before F is read there."""
    with np.errstate(all="ignore"):  # the cell-wise floats never warned
        radius = (1.0 + np.abs(center)) * _BRACKET_FACTOR
        lo, hi = center - radius, center + radius
        inner = np.arange(1, _MONOTONE_SAMPLES - 1) \
            * ((hi - lo) / (_MONOTONE_SAMPLES - 1))[:, None] + lo[:, None]
        # the first cell whose bracket's width is not finite, n if none
        m = int(np.argmin(np.append(np.isfinite(hi - lo), False)))
    calls = np.concatenate((lo[:m, None], hi[:m, None], inner[:m]), axis=1)
    f = drivers(calls).reshape(calls.shape)
    with np.errstate(all="ignore"):
        p = calls - f - center[:m, None]
        vals = p[:, [0, *range(2, _MONOTONE_SAMPLES), 1]]  # linspace's order
        fail = np.isnan(p).any(axis=1) | ~((p[:, 0] < 0.0) & (p[:, 1] > 0.0))
        fail |= (np.diff(vals) < -ROOT_TOL * (1.0 + np.abs(vals[:, :-1]))).any(1)
    j, c = int(np.argmax(np.append(fail, True))), center.tolist()
    where = [f" at time {k}, state {s}" for s in states[:j + 1]]
    roots = [_brent(lambda y: y - float(driver(i, y)) - c[i], *ends, where[i])
             for i, ends in enumerate(zip(lo.tolist(), hi.tolist(),
                                          *p[:j, :2].T.tolist()))]
    if j == len(c):
        return roots
    if j == m:
        raise BijectionError(f"the width of the bracket [{float(lo[j])}, "
                             f"{float(hi[j])}] of y - f is not finite{where[j]}")
    y, v = calls[j].tolist(), p[j].tolist()
    nan = [i for i, x in enumerate(v) if math.isnan(x)]
    sign = v[0] < 0.0 < v[1]
    raise BijectionError((
        f"y - f is NaN at y = {y[nan[0]]}" if nan and (sign or nan[0] < 2)
        else "y - f is not monotone on the bracket" if sign
        else f"no sign change for y - f on [{y[0]}, {y[1]}]") + where[j])


def _brent(phi, xpre, xcur, fpre, fcur, context):
    """Brent's root of phi between xpre and xcur, where it takes the values
    fpre < 0 < fcur: scipy's brentq.c line for line (xtol ROOT_TOL, rtol
    4 eps, at most _BRENT_STEPS steps), started from the known values."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_STEPS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN fails the test below
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        if math.isnan(fcur := float(phi(xcur))):
            raise BijectionError(f"y - f is NaN at y = {xcur}{context}")
    raise BijectionError(
        f"the root did not converge in {_BRENT_STEPS} steps{context}")


def _tables(sys, term):
    """Values (C,) at the plan's cells, the terminal data ``term`` (checked
    by _terminal_array) at the horizon's, and local integrands (cells
    before T, W), for a backward solve to fill every other entry."""
    plan = sys.plan
    values = np.empty(plan.cells.size)
    at = plan.span(sys.horizon)
    values[at] = term[plan.cells[at]]
    return values, np.empty((at.start, sys.succ.shape[1]))


def _solution(sys, values, local) -> BsdeSolution:
    return BsdeSolution(values, local, np.where(sys.plan.real, sys.succ, -1),
                        sys.plan)


def _backward(sys, values):
    """The slice steps of a backward solve over the values (C,), the latest
    time first: yields k, the span of its cells and sys.step's means and
    integrands there, read at the plan's successor cells from the
    time-(k+1) values as the caller left them."""
    for k in range(sys.horizon - 1, -1, -1):
        at = sys.plan.span(k)
        yield (k, at) + _centre(sys.prob[sys.reachable_at[k]],
                                values[sys.plan.next_cell[at]])


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
        rows = _at_cells(table, times[at], states[at])
        out[at] = np.isfinite(rows.reshape(rows.shape[0], -1)).all(axis=1)
    return out


class _AffineTerms(NamedTuple):
    """Affine drivers  alpha y + b . P z + g  at the plan's cells before the
    horizon: alpha, g and den = 1 - alpha, (cells,) for one driver or
    (cells, U) over a grid of U controls, and the rows coef (cells[, U], W)
    of b . P z on the successor slots (None without beta)."""

    alpha: np.ndarray
    g: np.ndarray
    coef: np.ndarray | None
    den: np.ndarray

    def value(self, at, y, z):
        """The drivers at the cells ``at`` (a slice or an index) for values
        y and local integrands z (..., W) there.  One driver adds g before
        its product sum, controls after a matrix product: the two round
        apart, and each solver's values are pinned bit for bit."""
        if self.alpha.ndim > 1:
            noise = (self.coef[at] @ z[..., None])[..., 0]
            return self.alpha[at] * np.expand_dims(y, -1) + noise + self.g[at]
        out = self.alpha[at] * y + self.g[at]
        return out if self.coef is None else out + (self.coef[at] * z).sum(-1)

    def closed(self, at, mean, z):
        """The largest closed form (mean + g + b . P z) / (1 - alpha) over
        the controls, at the cells ``at`` of one slice step."""
        numer = self.value(at, 0.0, z)
        if self.alpha.ndim == 1:
            return (mean + numer) / self.den[at]
        return ((mean[:, None] + numer) / self.den[at]).max(axis=1)

    def along(self, sol):
        """The drivers at every cell before the horizon along a solution."""
        z = sol.cell_integrands
        return self.value(slice(None), sol.cell_values[:z.shape[0]], z)


def _gather(sys, alpha, g, beta):
    """The _AffineTerms of tables alpha, g (T, D[, U]) and beta (T, D[, U],
    X) or None; (cells,) True where a cell's alpha, g and whole beta rows
    are finite, elsewhere its terms are unchecked; and beta's rows on the
    blocks (cells[, U], W+1), or None."""
    plan = sys.plan
    at = plan.span(0, sys.horizon)
    times, cells = plan.times[at], plan.cells[at]
    a, c = _at_cells(alpha, times, cells), _at_cells(g, times, cells)
    ok = np.isfinite(a.reshape(cells.size, -1)).all(axis=1) \
        & np.isfinite(c.reshape(cells.size, -1)).all(axis=1)
    coef = rows = None
    if beta is not None:
        ok &= _finite_rows(beta, times, cells)
        rows = sys.block_rows(beta, times, cells)
        # b P: the projector is the identity on the block
        coef = _on_real(sys, rows)
    return _AffineTerms(a, c, coef, 1.0 - a), ok, rows


def _on_real(sys, rows) -> np.ndarray:
    """The successor slots (cells[, U], W) of rows (cells[, U], W+1) on the
    blocks at the plan's cells before the horizon, zero on padding."""
    plan = sys.plan
    real = plan.real[plan.cells[plan.span(0, sys.horizon)]]
    real = real.reshape(real.shape[:1] + (1,) * (rows.ndim - 2) + real.shape[1:])
    return np.where(real, rows[..., 1:], 0.0)


def _block_norms(sys, rows) -> np.ndarray:
    """Euclidean norms (cells[, U]) of rows (cells[, U], W+1) on the blocks
    at the plan's cells before the horizon, padding slots read as zero:
    they are zeroed in ``rows`` itself."""
    rows[..., 1:] = _on_real(sys, rows)
    return np.linalg.norm(rows, axis=-1)


def _linear_terms(sys, driver) -> _AffineTerms:
    """The _AffineTerms of a linear driver that fits the lattice, checked
    as the backward sweep meets the cells, the latest time first: there
    ProblemDataError names the first field (alpha, g, then beta, read
    whole) that is not finite, else DegenerateDriverError the first unit
    drift."""
    terms, ok, _ = _gather(sys, driver.alpha, driver.g, driver.beta)
    ok &= np.abs(terms.den) >= 1e-12
    if not ok.all():
        k = int(sys.plan.times[np.flatnonzero(~ok)[-1]])
        src = sys.reachable_at[k]
        _require_finite(sys, k, alpha=driver.alpha[k, src], g=driver.g[k, src],
                        beta=None if driver.beta is None else driver.beta[k, src])
        i = int(np.argmax(np.abs(1.0 - driver.alpha[k, src]) < 1e-12))
        raise DegenerateDriverError(
            f"alpha[{k}, {src[i]}] = {driver.alpha[k, src[i]]}: y - f is not a "
            "bijection"
        )
    return terms


def _affine_solve(sys, terms, values, local, roots=()):
    """Fill the tables of _tables backward by  y = mean + max_u f_u(y, z):
    the largest closed form at each cell, a verified root instead at the
    cells ``roots`` (ascending positions among the plan's cells)."""
    cut = np.searchsorted(roots, sys.plan.offset).tolist()
    for k, at, mean, z in _backward(sys, values):
        local[at] = z
        if cut[k] == cut[k + 1]:
            values[at] = terms.closed(at, mean, z)
            continue
        with np.errstate(all="ignore"):  # discarded at the roots
            y = terms.closed(at, mean, z)
        c = roots[cut[k]:cut[k + 1]]
        i = c - at.start
        # the largest driver at each sample, taken over the cells' controls
        y[i] = _verified_roots(
            mean[i], lambda calls: terms.value(
                c[:len(calls)], calls.T, z[i[:len(calls)]]).max(axis=-1).T,
            lambda j, v: np.max(terms.value(c[j], v, z[i[j]])), k,
            sys.plan.cells[c])
        values[at] = y


def _driver_cells(sys, driver, sol) -> np.ndarray:
    """Driver values (cells,) at the plan's cells before the horizon, at
    the values and local integrands of the solution ``sol``."""
    if isinstance(driver, LinearDriver):
        return _linear_terms(sys, driver).along(sol)
    plan, z = sys.plan, sol.cell_integrands
    y, cells = sol.cell_values, plan.cells
    out = np.empty(z.shape[0])
    for k in range(sys.horizon):
        now = plan.span(k)
        rows = _ambient_rows(sys, k, z[now])
        out[now] = [float(driver.fn(k, int(s), float(v), row))
                    for s, v, row in zip(cells[now], y[now], rows)]
    return out


def solve_bsde(sys, driver, terminal) -> BsdeSolution:
    """Solve the backward equation over all reachable states.

    Values at states unreachable at a given time are NaN and never read, so
    the solution is invariant to perturbing inputs there.  Tables that do
    not fit the lattice (alpha, g, beta, then the terminal), or a linear
    driver with a non-finite coefficient at a reachable cell, raise
    ProblemDataError; a unit drift there, DegenerateDriverError, each at
    the latest such time.
    """
    if isinstance(driver, LinearDriver):
        _require_fit(sys, alpha=driver.alpha, g=driver.g, beta=driver.beta)
        term = _terminal_array(sys, terminal)
        # the terms first, so that the peak of their gather and the tables
        # do not add up
        terms = _linear_terms(sys, driver)
        values, local = _tables(sys, term)
        _affine_solve(sys, terms, values, local)
        return _solution(sys, values, local)
    values, local = _tables(sys, _terminal_array(sys, terminal))
    for k, at, mean, z in _backward(sys, values):
        local[at] = z
        # the driver reads the ambient rows, called once per sample
        src, rows = sys.reachable_at[k].tolist(), _ambient_rows(sys, k, z)
        values[at] = _verified_roots(
            mean, lambda calls: np.fromiter(
                (driver.fn(k, s, y, row) for s, row, ys in zip(src, rows, calls)
                 for y in ys.tolist()), float, calls.size),
            lambda j, y: driver.fn(k, src[j], y, rows[j]), k, src)
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
    sol1 = solve_bsde(sys, driver1, terminal1)
    sol2 = solve_bsde(sys, driver2, terminal2)
    at = sys.plan.span(sys.horizon)
    terminal_ordered = bool(np.all(sol1.cell_values[at]
                                   <= sol2.cell_values[at] + tol))

    gaps = _driver_cells(sys, driver2, sol2) - _driver_cells(sys, driver1, sol2)
    gap_min = float(gaps.min(initial=np.inf))
    drivers_ordered = gap_min >= -tol

    if omega2 is None:
        omega2 = max(_omega2_for(sys, driver1), _omega2_for(sys, driver2))
    cond = comparison_condition(sys, omega2)

    diff = sol1.cell_values - sol2.cell_values
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
