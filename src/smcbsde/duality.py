"""Forward weight recursions dual to the backward solver.

A linear backward equation with drift coefficient a = alpha[k, source] and
integrand row b = beta[k, source] admits a representation

    value_i = E[ terminal * V_T + sum_k g_k * W_k | state at i ],  V_i = 1,

where V is a multiplicative weight driven by the realized increments and
W_k is the weight paired with the running term g_k.  The recursion step
from time k to k+1 always evaluates (a, b, noise geometry) at the source
state at time k, the only assignment that is both predictable and in range
of the coefficient tables.  Three algebraic forms of the step are provided:

- implicit: V_{k+1} = V_k / (1 - a - n),            W_k = V_k
- shifted:  V_{k+1} = V_k * (1 + a + n),            W_k = V_k
- mixed:    V_{k+1} = V_k * (1 + n) / (1 - a),      W_k = V_k / (1 - a)

with n = b @ pinv(bracket) @ increment (for a symmetric bracket this equals
the pinv-projector-pinv' sandwich, by the Penrose identities).  The first
two are the naive readings of the recursion written with the drift summand
implicit, respectively fully explicit.  A two-line expansion shows neither
reproduces the backward solver once a and n are both nonzero: matching the
solver requires the ratio in a together with the affine factor in n, which
is the mixed form (its noise integrand is also the only predictable one).
select_convention settles the choice empirically and never silently.

Each call tabulates the factor f_k(s, j) by which the step s -> j at time k
multiplies V, per reachable cell (k, s) from the start time on and
successor slot j, and r_k(s) = W_k / V_k: (cells, W) tables laid out like
the lattice's slice plan, never tables over every (time, state).  Before
anything is walked, the first vanishing denominator among the real slots
of those cells, in (time, state, slot) order, raises; cells before the
start time are never checked.  By the Markov property the dual value obeys
u_T = terminal and u_k(s) = g_k(s) r_k(s) + sum_j c_s(j) f_k(s, j)
u_{k+1}(j), so one backward sweep over the cells, a time slice at a step,
gives it from every reachable (time, state) from the start on in
O(T * S * N), independent of the backward solver it checks.  A route
s -> j of zero weight c_s(j) f_k(s, j) adds nothing, even where u_{k+1}(j)
is not finite, so data a start never reaches is never read.  The rule
holds per route: a cell reached only by routes whose weights cancel to
zero is still read.

Exhaustive weight_bounds and the epsilon-policy gap in control fold V, W,
their running maxima, the path probability and the running minimum over a
breadth-first level walk of every realizable path, which holds only the
vectors of the paths alive at one time; no list of paths is built.  Sampled
statistics and evolve_weights evaluate V and W along a (P, L) array of
drawn or given paths, with the factors evaluated at the drawn (or given)
steps only: the sampler returns each step's slot, a given path's slots are
looked up among the transitions of positive probability.  The tables and
the drawn steps share the plan's centred pinv columns for the noise and one
copy of the convention algebra (_algebra).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .chain import _require_count
from .lattice import _blocks, _require_fit

__all__ = [
    "Convention",
    "DEFAULT_CONVENTION",
    "SelectionError",
    "SelectionResult",
    "VanishingDenominatorError",
    "WeightReport",
    "WeightSde",
    "dual_value",
    "evolve_weights",
    "select_convention",
    "weight_bounds",
]

DENOMINATOR_TOL = 1e-10


class Convention(enum.Enum):
    IMPLICIT = "implicit"
    SHIFTED = "shifted"
    MIXED = "mixed"


DEFAULT_CONVENTION = Convention.MIXED


class VanishingDenominatorError(ArithmeticError):
    """A weight-recursion denominator came within tolerance of zero."""


class SelectionError(RuntimeError):
    """No convention reproduced the backward solver within tolerance."""


@dataclass(frozen=True)
class WeightSde:
    """Coefficient tables and algebraic form of a weight recursion.

    alpha : (T, D) drift coefficients, read at the step's source state.
    beta  : (T, D, W+1) integrand rows on the blocks or (T, D, D) dense
            rows (see LinearDriver), or None for noise-free weights.
    """

    alpha: np.ndarray
    beta: np.ndarray | None
    convention: Convention = DEFAULT_CONVENTION
    start_time: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.beta is not None:
            object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))

    @classmethod
    def from_driver(cls, driver, convention=DEFAULT_CONVENTION, start_time=0):
        return cls(driver.alpha, driver.beta, convention, start_time)


class _Factors(NamedTuple):
    """Weight factors at the plan's cells from time ``start`` to the
    horizon, cell-major: the step from cell c through slot j multiplies V by
    step[c, j], whose denominator is den[c, j] (1 where there is none), and
    W = V * run[c].  den and step have one column where they do not depend
    on the slot."""

    start: int
    den: np.ndarray
    step: np.ndarray
    run: np.ndarray


def _factors(sys, sde):
    """The _Factors of sde from sde.start_time on.  Only the steps a caller
    walks are checked, by _check_denominators."""
    plan = sys.plan
    at = plan.span(sde.start_time, sys.horizon)
    a = sde.alpha.take(plan.key[at])[:, None]
    noise = np.zeros(a.shape) if sde.beta is None else \
        _cell_noise(sys, sde.beta, sde.start_time)
    den, step, run = _algebra(sde.convention, a, noise)
    return _Factors(sde.start_time, den, step, run[:, 0])


def _cell_noise(sys, beta, start):
    """Noise n = b @ pinv(bracket_s) @ (e_j - c_s) (cells, W) at the plan's
    cells from time ``start`` to the horizon, for the rows b of beta on the
    blocks.  The times go in blocks; each source's rows of a block go
    through one product, with a neighbouring time's row added where the
    block holds a single time (once T >= 2: a one-row product rounds
    differently).  The product covers every source at every time of the
    block, reachable then or not, so it runs without invalid or overflow
    warnings: the rows of cells never reached may hold anything, and no
    result reads them."""
    plan, t = sys.plan, sys.horizon
    first = plan.offset[start]
    noise = np.empty((plan.offset[t] - first, sys.succ.shape[1]))
    for blk in _blocks(t - start, sys.block.size):
        a, b = start + blk.start, start + blk.stop
        lo = max(min(a, b - 2), 0)
        rows = sys.block_rows(beta, slice(lo, max(b, min(lo + 2, t))),
                              sys.sources)
        at = plan.span(a, b)
        with np.errstate(invalid="ignore", over="ignore"):
            prod = rows.transpose(1, 0, 2) @ plan.noise_cols
        noise[at.start - first:at.stop - first] = \
            prod[plan.source_at[at], plan.times[at] - lo]
    return noise


def _algebra(conv, a, noise):
    """(den, step, run) of the steps with drift a and noise n (broadcast
    together) under the convention: the step multiplies V by ``step``,
    whose denominator is ``den`` (1 where there is none; it broadcasts
    against step), and W_k = V_k * run, with run shaped like a."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if conv is Convention.SHIFTED:
            return np.ones(noise.shape), 1.0 + a + noise, np.ones(np.shape(a))
        if conv is Convention.IMPLICIT:
            den = 1.0 - a - noise
            return den, 1.0 / den, np.ones(np.shape(a))
        den = 1.0 - a
        return den, (1.0 + noise) / den, 1.0 / den


def _vanishing(den, k, s):
    return VanishingDenominatorError(
        f"weight denominator {den} at time {k}, state {s}"
    )


def _check_denominators(sys, fac):
    """Raise on the first vanishing denominator, in (time, state, slot)
    order, among the real slots of the cells of ``fac``."""
    small = np.abs(fac.den) < DENOMINATOR_TOL
    if not small.any():
        return
    plan = sys.plan
    at = plan.span(fac.start, sys.horizon)
    bad = plan.real[plan.cells[at]] & small
    if bad.any():
        c, j = np.unravel_index(np.argmax(bad), bad.shape)
        den = np.broadcast_to(fac.den, bad.shape)[c, j]
        raise _vanishing(den, plan.times[at][c], plan.cells[at][c])


def _path_slots(sys, paths):
    """Slot of each step of a (P, L) array of lattice paths, looked up
    among the transitions of positive probability; a step that is none of
    them gets a slot that _walk rejects."""
    rows, slots = np.nonzero(sys.plan.real)
    # transitions s -> j keyed s * D + j, in ascending order
    keys = rows * sys.dim + sys.succ[rows, slots]
    query = paths[:, :-1] * sys.dim + paths[:, 1:]
    return slots[np.minimum(np.searchsorted(keys, query), keys.size - 1)]


def _walk(sys, sde, start, paths, slots):
    """Weights along a (P, L) array of lattice paths from time ``start``,
    each step given by its successor slot (P, L-1), with the weight factors
    evaluated at those steps only.

    Returns V (P, L) with V[:, 0] = 1 and the running weights W (P, L-1).
    Raises ValueError on a transition the lattice assigns zero probability,
    and VanishingDenominatorError on the first vanishing denominator in
    (time, state, slot) order among the steps.
    """
    cur, nxt = paths[:, :-1], paths[:, 1:]
    width = sys.succ.shape[1]
    flat = cur * width + slots
    missing = np.flatnonzero((sys.succ.take(flat) != nxt)
                             | ~sys.plan.real.take(flat))
    if missing.size:
        p, j = divmod(int(missing[0]), cur.shape[1])
        raise ValueError(
            f"transition {sys.label(int(cur[p, j]))} -> "
            f"{sys.label(int(nxt[p, j]))} at time {start + j} is not realizable"
        )
    times = np.arange(start, start + cur.shape[1])
    noise = np.zeros(cur.shape)
    if sde.beta is not None:
        # each step's row through its source's noise columns, at the drawn
        # slot, in blocks of steps
        rows = sys.block_rows(sde.beta, times, cur)
        rows = rows.reshape(cur.size, 1, sys.block.shape[1])
        pos = np.searchsorted(sys.sources, cur).ravel()
        at, out = slots.reshape(-1, 1), noise.reshape(-1)
        for blk in _blocks(cur.size, sys.plan.noise_cols[0].size):
            n = (rows[blk] @ sys.plan.noise_cols[pos[blk]])[:, 0]
            out[blk] = np.take_along_axis(n, at[blk], axis=-1)[:, 0]
    den, step, run = _algebra(sde.convention, sde.alpha[times, cur], noise)
    bad = np.abs(den) < DENOMINATOR_TOL
    if bad.any():
        # the first in (time, state, slot) order
        key = np.where(bad, (times * sys.dim + cur) * width + slots,
                       np.iinfo(np.int64).max)
        i = np.unravel_index(np.argmin(key), key.shape)
        raise _vanishing(den[i], times[i[1]], cur[i])
    v = np.ones(paths.shape)
    np.cumprod(step, axis=1, out=v[:, 1:])
    return v, v[:, :-1] * run


def _level_walk(sys, start, states):
    """Breadth-first walk over every realizable path from each (start,
    state), the paths alive at a time in depth-first, successor-ascending
    order.  Yields per time k (rows, cur, slots): path rows[p] of those
    alive at k, in state cur[p], branches to its slot slots[p]; the
    branches, in this order, are the paths alive at k + 1."""
    cur = np.asarray(states, dtype=np.int64)
    for k in range(start, sys.horizon):
        rows, slots = np.nonzero(sys.plan.real[cur])
        cur = cur[rows]
        yield k, rows, cur, slots
        cur = sys.succ[cur, slots]


def _drawn_paths(sys, start, states, n, seed, name="mc_paths"):
    """n seeded paths per start state, drawn in turn, with the slot of each
    step and the path weights 1/n; ValueError names ``name`` unless n is a
    positive integer."""
    _require_count(name, n)
    paths, slots = _sample_steps(sys, start, states, n, np.random.default_rng(seed))
    return paths, slots, np.full(paths.shape[0], 1.0 / n)


def evolve_weights(sys, sde: WeightSde, path) -> np.ndarray:
    """Weights V along one realizable lattice path.

    ``path[j]`` is the flat state at time start_time + j; the result has the
    same length with V[0] = 1.  Raises ValueError on a transition the
    lattice assigns zero probability.
    """
    _check_tables(sys, sde)
    path = np.array([[int(p) for p in path]], dtype=np.int64)
    v, _ = _walk(sys, sde, sde.start_time, path, _path_slots(sys, path))
    return v[0]


def _sample_paths(sys, start_time, state, n, rng):
    """n lattice paths from one (time, state) node, as _sample_steps draws
    them."""
    return _sample_steps(sys, start_time, [state], n, rng)[0]


def _sample_steps(sys, start_time, states, n, rng):
    """Inverse-CDF sampling of n lattice paths from each of ``states`` at
    ``start_time``, the states in turn.

    Each state draws one uniform per path and step, as one (steps, n)
    block; a step hands its row out to the paths grouped by current state,
    states ascending and paths in order within a state.  A path's successor
    is the first slot whose cumulative probability exceeds its draw times
    the row total (the last real slot if the draw rounds up to the total).
    Returns the paths (P, L) and the slot of each step (P, L-1).
    """
    states = np.asarray(states, dtype=np.int64)
    steps, width = sys.horizon - start_time, sys.succ.shape[1]
    draws = rng.random((states.size, steps, n)).transpose(1, 0, 2)
    draws = draws.reshape(steps, states.size * n)
    plan = sys.plan
    count = np.min_scalar_type(width)
    paths = np.empty((steps + 1, draws.shape[1]), dtype=np.int64)
    at = np.empty((steps, draws.shape[1]), dtype=np.int64)
    paths[0] = np.repeat(states, n)
    group = np.repeat(np.arange(states.size) * sys.dim, n)
    u = np.empty(draws.shape[1])
    cdf = np.empty((width, draws.shape[1]))
    hit = np.empty(cdf.shape, dtype=bool)
    picks = np.empty(draws.shape[1], dtype=count)
    # array methods and out= buffers: at a few paths per call the loop is
    # all per-call overhead; every index is in range, and mode="clip" lets
    # take write into out without a temporary
    for j in range(steps):
        cur = paths[j]
        u[(group + cur).argsort(kind="stable")] = draws[j]
        sys.cdf.take(cur, axis=1, out=cdf, mode="clip")
        np.less_equal(cdf, np.multiply(u, cdf[-1], out=u), out=hit)
        # picks stay unsigned and narrow; the int64 state carries the sum
        pick = np.multiply(cur, width + 1, out=at[j])
        pick += np.add.reduce(hit, axis=0, dtype=count, out=picks)
        plan.pick_next.take(pick, out=paths[j + 1], mode="clip")
    return paths.T, plan.pick_slot.take(at).T


def _check_tables(sys, sde, g=None, terminal=None):
    t = sys.horizon
    if not 0 <= sde.start_time <= t:
        raise ValueError(f"start_time {sde.start_time} outside 0..{t}")
    _require_fit(sys, alpha=sde.alpha, g=g, beta=sde.beta, terminal=terminal)


def _sweep(sys, fac, g, terminal):
    """Dual value u at the plan's cells from time fac.start to the horizon,
    cell-major (see the module notes)."""
    _check_denominators(sys, fac)
    plan, t, start = sys.plan, sys.horizon, fac.start
    bounds = (plan.offset[start:t + 1] - plan.offset[start]).tolist()
    first, n = int(plan.offset[start]), bounds[-1]
    cells = plan.cells[first:]
    src = cells[:n]
    u = np.empty(cells.size + 1)
    terminal.take(cells[n:], out=u[n:-1])
    u[-1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        flow = sys.prob.take(src, axis=0)
        flow *= fac.step
        dead = (flow == 0.0) | ~plan.real.take(src, axis=0)
        # a live route reads its successor's cell; a dead one multiplies a
        # zero flow by the zero after the last cell, as a masked route adds
        nxt = plan.next_cell[first:first + n] - first
        nxt[dead] = cells.size
        flow[dead] = 0.0
        base = g.take(plan.key[first:first + n]) * fac.run
        for k in range(t - start - 1, -1, -1):
            now = slice(bounds[k], bounds[k + 1])
            np.add(base[now], np.add.reduce(flow[now] * u[nxt[now]], axis=1),
                   out=u[now])
    return u[:-1]


def dual_value(
    sys,
    sde: WeightSde,
    g,
    terminal,
    start_time: int | None = None,
    mc_paths: int | None = None,
    seed=None,
) -> np.ndarray:
    """Weighted forward valuation E[terminal * V_T + sum g_k W_k | state].

    Returns a (D,) array with the value per state reachable at start_time
    and NaN elsewhere.  Exact at any size by default: the row start_time of
    one backward sweep over the weight factors, in O(T * S * N).  Pass
    mc_paths for a seeded Monte Carlo estimate over that many sampled paths
    per start state instead.
    """
    if start_time is not None and start_time != sde.start_time:
        sde = replace(sde, start_time=start_time)
    start_time = sde.start_time
    g = np.asarray(g, dtype=float)
    terminal = np.asarray(terminal, dtype=float)
    _check_tables(sys, sde, g, terminal)
    t, d = sys.horizon, sys.dim
    starts = sys.reachable_at[start_time]
    out = np.full(d, np.nan)
    if mc_paths is None:
        out[starts] = _sweep(sys, _factors(sys, sde), g, terminal)[:starts.size]
        return out
    paths, slots, weight = _drawn_paths(sys, start_time, starts, mc_paths, seed)
    v, w = _walk(sys, sde, start_time, paths, slots)
    ran = g[np.arange(start_time, t), paths[:, :-1]] * w
    total = terminal[paths[:, -1]] * v[:, -1] + ran.sum(axis=1)
    out[starts] = np.bincount(paths[:, 0], weight * total, minlength=d)[starts]
    return out


@dataclass(frozen=True)
class WeightReport:
    """Exhaustive (or sampled) statistics of one weight recursion.

    e_max_sq          : max over start states of E[max_k V_k^2]
    e_max_running_sq  : same for the running weights W_k
    min_weight        : smallest V_k, V_0 = 1 included, over every
                        enumerated (or sampled) path from every start state
    per_state         : start state -> (E[max_k V_k^2], E[max_k W_k^2])
    positivity        : the positivity condition report when a coefficient
                        bound was supplied, else None
    """

    e_max_sq: float
    e_max_running_sq: float
    min_weight: float
    per_state: dict
    positivity: object | None = None


def weight_bounds(
    sys, sde: WeightSde, samples: int | None = None, seed=None,
    beta_bound: float | None = None,
) -> WeightReport:
    """Moment and sign diagnostics for the weights started at sde.start_time.

    Walks every realizable path by default, or ``samples`` seeded draws per
    start state.  When ``beta_bound`` is given the positivity condition is
    evaluated for it, and a negative weight in the passing regime raises
    AssertionError: the sufficient condition held, so a sign flip means the
    recursion (not the input) is wrong.
    """
    _check_tables(sys, sde)
    start = sde.start_time
    states = sys.reachable_at[start]
    if samples is None:
        # fold V, W and the path probability over the level walk, reading
        # each time's factors by state
        fac = _factors(sys, sde)
        _check_denominators(sys, fac)
        bounds = (sys.plan.offset[start:] - sys.plan.offset[start]).tolist()
        run, step = np.empty(sys.dim), np.empty(sys.succ.shape)
        root, weight, v = states, np.ones(states.size), np.ones(states.size)
        vmax, wmax, min_weight = v, np.zeros(states.size), 1.0
        for k, rows, cur, slots in _level_walk(sys, start, states):
            now = slice(bounds[k - start], bounds[k - start + 1])
            run[sys.reachable_at[k]] = fac.run[now]
            step[sys.reachable_at[k]] = fac.step[now]
            w = v[rows] * run[cur]
            wmax = np.maximum(wmax[rows], w * w)
            v = v[rows] * step[cur, slots]
            vmax = np.maximum(vmax[rows], v * v)
            min_weight = np.minimum(min_weight, v.min())
            weight = weight[rows] * sys.prob[cur, slots]
            root = root[rows]
    else:
        paths, slots, weight = _drawn_paths(sys, start, states, samples, seed,
                                            "samples")
        v, w = _walk(sys, sde, start, paths, slots)
        root, vmax = paths[:, 0], np.max(v * v, axis=1)
        wmax, min_weight = np.max(w * w, axis=1, initial=0.0), v.min()
    ev = np.bincount(root, weight * vmax, minlength=sys.dim)[states]
    ew = np.bincount(root, weight * wmax, minlength=sys.dim)[states]
    per_state = {int(s): (float(a), float(b)) for s, a, b in zip(states, ev, ew)}
    positivity = None
    if beta_bound is not None:
        from .linalg import positivity_condition

        positivity = positivity_condition(sys, beta_bound)
        if positivity.passed and min_weight < -1e-10:
            raise AssertionError(
                f"positivity condition holds but a weight reached {min_weight}; "
                "the weight recursion is inconsistent"
            )
    return WeightReport(float(ev.max()), float(ew.max()), float(min_weight),
                        per_state, positivity)


def _residuals(dual, values) -> tuple[float, float]:
    """Largest absolute residual |dual - values| and largest scaled residual
    |dual - values| / (1 + |values|) over the entries, NaN where any entry
    is.  Values grow like prod 1/(1 - alpha) along a path, and rounding
    with them, so every gate that checks a dual against backward values
    reads the scaled one."""
    err = np.abs(np.asarray(dual, dtype=float) - values)
    with np.errstate(invalid="ignore"):
        scaled = err / (1.0 + np.abs(values))
    return float(err.max(initial=0.0)), float(scaled.max(initial=0.0))


@dataclass(frozen=True)
class SelectionResult:
    """Evidence from the empirical convention selection."""

    convention: Convention
    residuals: dict
    unique: bool
    trials: int
    informative: int
    uninformative: int

    def summary(self):
        lines = [
            f"{c.value}: max={self.residuals[c][0]:.3e} median={self.residuals[c][1]:.3e}"
            for c in self.residuals
        ]
        return "; ".join(lines)


def select_convention(
    sys, trials: int = 40, seed: int = 0, tol: float = 1e-6
) -> SelectionResult:
    """Pick the weight convention that reproduces the backward solver.

    Runs randomized linear instances on ``sys``, compares dual_value against
    solve_bsde at every reachable (time, state), and returns the convention
    with the smallest worst-case scaled residual (_residuals); one that is
    not finite counts as inf.  Instances whose conventions all coincide (zero
    coefficients) are marked uninformative.  If no convention agrees within
    ``tol``, or none has a finite residual, the selection fails loudly: that
    indicates either an implementation bug or an unresolved ambiguity, and
    silently picking a form would corrupt everything downstream.
    """
    from .bsde import solve_bsde
    from .instances import random_linear_instance

    rng = np.random.default_rng(seed)
    at = sys.plan.span(0, sys.horizon)
    per_conv = {c: [] for c in Convention}
    uninformative = 0
    for _ in range(trials):
        driver, terminal = random_linear_instance(sys, rng)
        sol = solve_bsde(sys, driver, terminal)
        want = sol.cell_values[at]
        trial_res = {}
        for conv in Convention:
            fac = _factors(sys, WeightSde(driver.alpha, driver.beta, conv))
            worst = _residuals(_sweep(sys, fac, driver.g, terminal)[at],
                               want)[1]
            # a NaN residual counts as inf, so that min() never picks it
            trial_res[conv] = worst if np.isfinite(worst) else np.inf
        spread = max(trial_res.values()) - min(trial_res.values())
        uninformative += bool(spread < 1e-12)
        for conv, r in trial_res.items():
            per_conv[conv].append(r)
    residuals = {
        c: (float(np.max(v)), float(np.median(v))) for c, v in per_conv.items()
    }
    best = min(residuals, key=lambda c: residuals[c][0])
    if residuals[best][0] > tol or np.isinf(residuals[best][0]):
        raise SelectionError(
            "no weight convention reproduces the backward solver within "
            f"{tol}: " + "; ".join(
                f"{c.value}={residuals[c][0]:.3e}" for c in residuals
            )
        )
    unique = sum(1 for c in residuals if residuals[c][0] <= tol) == 1
    return SelectionResult(best, residuals, unique, trials,
                           trials - uninformative, uninformative)
