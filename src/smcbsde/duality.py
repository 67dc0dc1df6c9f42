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

with n = b @ pinv(bracket) @ increment.  On the source's block the bracket
is invertible (see the lattice notes), so for the step to successor slot j
with law c over the real slots and sigma = sum c,

    n_j = b_j / c_j - (sum_i b_i - (sigma - 1) b_0) / sigma,

an O(W) closed form per cell (_noise; b_0 is the source's entry).  The first
two are the naive readings of the recursion written with the drift summand
implicit, respectively fully explicit.  A two-line expansion shows neither
reproduces the backward solver once a and n are both nonzero: matching the
solver requires the ratio in a together with the affine factor in n, which
is the mixed form (its noise integrand is also the only predictable one).
select_convention settles the choice empirically and never silently.

Each call gathers the keys, successor laws c_s and real slots of the
reachable cells (k, s) from the start time on once, for the noise (the
closed form above), the step and the sweep, and tabulates the factor
f_k(s, j) by which the step s -> j at time k multiplies V, per cell and
slot j, in the noise's buffer, and r_k(s) = W_k / V_k: (cells, W) tables
laid out like the slice plan.  Before a step is formed, the first vanishing
denominator among the real slots, in (time, state, slot) order, raises;
cells before the start time are never checked.  One search
(_check_denominators) finds it, for these tables and for the steps of a
path array alike.  By the Markov property the dual value obeys u_T =
terminal and u_k(s) = g_k(s) r_k(s) + sum_j c_s(j) f_k(s, j) u_{k+1}(j),
so one backward sweep over the cells, a time slice at a step, gives it
from every reachable (time, state) from the start on in O(T * S * N),
independent of the backward solver it checks.  A route s -> j of zero
flow c_s(j) f_k(s, j) adds nothing, even where u_{k+1}(j) is not finite,
so data a start never reaches is never read.  The rule holds per route: a
cell reached only by routes whose weights cancel to zero is still read.

The bits of u at a cell depend only on the entries read from that cell on,
so a lattice keeps its last exact sweep (_Memo): its start j, the entries it
read (_Reads; the beta rows as _rows_at gathers them) and u per convention.
A call from i >= j of a swept convention whose entries from i on are the
memo's bit for bit returns the memo's rows from i on; any other sweeps as
without a memo, and its sweep replaces the memo, or joins it from the
memo's own start and entries.  A sweep that raises
stores nothing, and one whose memo would exceed one block (BLOCK_ENTRIES)
checks and keeps nothing, so it runs and peaks as without a memo.

Exhaustive weight_bounds and the epsilon-policy gap in control fold V, W,
their running maxima, the path probability and the running minimum over a
breadth-first level walk of every realizable path, which holds only the
vectors of the paths alive at one time; no list of paths is built.  Sampled
statistics and the Monte Carlo dual evaluate V and W along a (P, L) array
of drawn paths, with the factors evaluated at the drawn steps only: paths
are drawn by the chain's one inverse-CDF step (chain._stepper) on the
lattice's successor table, which returns each step's slot.  The tables and
the drawn steps share one noise formula (_noise) and one copy of the
convention algebra (_algebra).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import lattice
from .chain import _require_count, _stepper
from .lattice import _blocks, _require_fit, _rows_at

__all__ = [
    "Convention",
    "DEFAULT_CONVENTION",
    "SelectionError",
    "SelectionResult",
    "VanishingDenominatorError",
    "WeightReport",
    "WeightSde",
    "dual_value",
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

    alpha      : (T, D) drift coefficients, read at the step's source state.
    beta       : (T, D, W+1) integrand rows on the blocks or (T, D, D) dense
                 rows (see LinearDriver), or None for noise-free weights.
    convention : a Convention or its value ("mixed"), kept as the Convention;
                 any other raises ValueError.
    """

    alpha: np.ndarray
    beta: np.ndarray | None
    convention: Convention = DEFAULT_CONVENTION
    start_time: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "convention", Convention(self.convention))
        except ValueError:
            raise ValueError(f"convention {self.convention!r} is none of "
                             f"{[c.value for c in Convention]}") from None
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.beta is not None:
            object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))

    @classmethod
    def from_driver(cls, driver, convention=DEFAULT_CONVENTION, start_time=0):
        return cls(driver.alpha, driver.beta, convention, start_time)


class _Reads(NamedTuple):
    """What a sweep from a start reads: alpha, g and the beta rows ((cells,
    0) without beta) at its cells before the horizon, and the terminal at
    the horizon's cells."""

    alpha: np.ndarray
    g: np.ndarray
    rows: np.ndarray
    terminal: np.ndarray


class _Memo(NamedTuple):
    """A lattice's last exact sweep: start, _Reads and u per convention."""

    start: int
    reads: _Reads
    u: dict


class _Factors(NamedTuple):
    """Weight factors at the plan's cells from the start time on, with their
    keys, laws and real slots: V *= step[c, j or 0] via slot j, W = V*run[c]."""

    key: np.ndarray
    prob: np.ndarray
    real: np.ndarray
    step: np.ndarray
    run: np.ndarray


def _reads(sys, sde, g, terminal):
    """The _Reads of a sweep of sde from sde.start_time on."""
    plan = sys.plan
    at = plan.span(sde.start_time, sys.horizon)
    key = plan.key[at]
    rows = np.empty((key.size, 0)) if sde.beta is None else \
        _rows_at(sys, sde.beta, plan.times[at], plan.cells[at], key)
    return _Reads(sde.alpha.take(key), g.take(key), rows,
                  terminal.take(sys.reachable_at[-1]))


def _factors(sys, sde):
    """The _Factors of sde from sde.start_time on, the cells the sweep and
    the level walk read; raises VanishingDenominatorError on the first
    vanishing denominator among their real slots."""
    plan = sys.plan
    at = plan.span(sde.start_time, sys.horizon)
    key, cells = plan.key[at], plan.cells[at]
    prob, real = sys.prob.take(cells, axis=0), plan.real.take(cells, axis=0)
    a = sde.alpha.take(key)[:, None]
    noise = np.zeros(a.shape) if sde.beta is None else \
        _cell_noise(sys, sde.beta, at, prob, real)
    step, run = _algebra(sys, sde.convention, a, noise, lambda: (
        plan.times[at, None], cells[:, None], np.arange(real.shape[1])))
    return _Factors(key, prob, real, step, run[:, 0])


def _cell_noise(sys, beta, at, prob, real):
    """Noise (cells, W) at the plan's cells ``at`` (a slice), of laws
    ``prob`` and real slots ``real``, for beta's rows, in blocks of cells."""
    times, cells, key = sys.plan.times[at], sys.plan.cells[at], sys.plan.key[at]
    noise = np.zeros(prob.shape)
    for blk in _blocks(cells.size, sys.block.shape[1]):
        _noise(_rows_at(sys, beta, times[blk], cells[blk], key[blk]),
               prob[blk], real[blk], noise[blk])
    return noise


def _noise(rows, c, real, out):
    """Noise n = b @ pinv(bracket_s) @ (e_j - c_s) (..., W) of rows b (...,
    W+1) on the blocks of sources of successor laws c and real slots
    ``real`` (..., W), in closed form (see the module notes) with sum_i b_i
    read as sum_i c_i (b_i / c_i), into ``out`` (zeros); padding slots hold
    a value no reader weights.  A row's bits do not depend on its batch."""
    n = np.divide(rows[..., 1:], c, out=out, where=real)
    sigma = np.einsum("...j->...", c)
    shift = np.einsum("...j,...j->...", c, n) - (sigma - 1.0) * rows[..., 0]
    # a source without successors (build_lattice admits one) has no noise
    n -= np.divide(shift, sigma, out=np.zeros(shift.shape),
                   where=sigma > 0.0)[..., None]
    return n


def _algebra(sys, conv, a, noise, steps):
    """(step, run) of the steps with drift a and noise n (a broadcasts
    against n) under the convention, V *= step and W = V * run, the step in
    n's buffer once its denominators pass _check_denominators(``steps``)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if conv is Convention.SHIFTED:
            return np.add(1.0 + a, noise, out=noise), np.ones(a.shape)
        mixed = conv is Convention.MIXED
        den = 1.0 - a if mixed else np.subtract(1.0 - a, noise, out=noise)
        _check_denominators(sys, den, steps)
        if not mixed:
            return np.divide(1.0, den, out=den), np.ones(a.shape)
        noise += 1.0
        return np.divide(noise, den, out=noise), 1.0 / den


def _check_denominators(sys, den, steps):
    """Raise VanishingDenominatorError at the first step, in (time, state,
    slot) order, through a real slot with |den| < DENOMINATOR_TOL; steps(),
    called only if some |den| is, gives the (times, states, slots) of den.
    The two comparisons read den as it is, with no |den| table beside it."""
    small = (den < DENOMINATOR_TOL) & (den > -DENOMINATOR_TOL)
    if not small.any():
        return
    times, states, slots = steps()
    bad = small & sys.plan.real[states, slots]
    if bad.any():
        den, times, states, slots, bad = np.broadcast_arrays(
            den, times, states, slots, bad)
        key = np.where(bad, (times * sys.dim + states) * sys.succ.shape[1]
                       + slots, np.iinfo(np.int64).max)
        i = np.unravel_index(np.argmin(key), key.shape)
        raise VanishingDenominatorError(f"weight denominator {den[i]} at "
                                        f"time {times[i]}, state {states[i]}")


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
    flat = cur * sys.succ.shape[1] + slots
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
        # each step's noise at its source, read at the drawn slot
        c = sys.prob.take(cur, axis=0)
        n = _noise(_rows_at(sys, sde.beta, times, cur, times * sys.dim + cur),
                   c, sys.plan.real.take(cur, axis=0), np.zeros(c.shape))
        noise = np.take_along_axis(n, slots[..., None], axis=-1)[..., 0]
    step, run = _algebra(sys, sde.convention, sde.alpha[times, cur], noise,
                         lambda: (times, cur, slots))
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
    """Inverse-CDF sampling of n seeded lattice paths from each of
    ``states`` at ``start``, the states in turn; ValueError names ``name``
    unless n is a positive integer.

    Each state draws one uniform per path and step, as one (steps, n)
    block; a step hands its row out to the paths grouped by current state,
    states ascending and paths in order within a state, and takes the
    chain's inverse-CDF step (chain._stepper).  Returns the paths (P, L),
    the slot of each step (P, L-1) and the path weights 1/n.
    """
    _require_count(name, n)
    rng = np.random.default_rng(seed)
    states = np.asarray(states, dtype=np.int64)
    steps, size = sys.horizon - start, states.size * n
    draws = rng.random((states.size, steps, n)).transpose(1, 0, 2)
    draws = draws.reshape(steps, size)
    paths = np.empty((steps + 1, size), dtype=np.int64)
    at = np.empty((steps, size), dtype=np.int64)
    paths[0] = np.repeat(states, n)
    group = np.repeat(np.arange(states.size) * sys.dim, n)
    u, step = np.empty(size), _stepper(sys.cdf, sys.plan.pick_next, size)
    for j in range(steps):
        u[(group + paths[j]).argsort(kind="stable")] = draws[j]
        step(paths[j], u, at[j], paths[j + 1])
    return paths.T, sys.plan.pick_slot.take(at).T, np.full(size, 1.0 / n)


def _check_tables(sys, sde, g=None, terminal=None):
    t, start = sys.horizon, sde.start_time
    if isinstance(start, bool) or not isinstance(start, (int, np.integer)):
        raise ValueError(f"start_time {start!r} is not an integer in 0..{t}")
    if not 0 <= start <= t:
        raise ValueError(f"start_time {start} outside 0..{t}")
    _require_fit(sys, alpha=sde.alpha, g=g, beta=sde.beta, terminal=terminal)


def _sweep(sys, sde, g, terminal):
    """Dual value u at the plan's cells from time sde.start_time to the
    horizon, cell-major, over the _factors of sde (see the module notes)."""
    key, flow, real, step, run = _factors(sys, sde)
    plan, t, start = sys.plan, sys.horizon, sde.start_time
    bounds = (plan.offset[start:t + 1] - plan.offset[start]).tolist()
    first, n = int(plan.offset[start]), bounds[-1]
    cells = plan.cells[first:]
    u = np.empty(cells.size + 1)
    terminal.take(cells[n:], out=u[n:-1])
    u[-1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        flow *= step  # in the gathered laws' buffer; the loop reads no step
        del step
        dead = (flow == 0.0) | ~real
        # a live route reads its successor's cell; a dead one multiplies a
        # zero flow by the zero after the last cell, as a masked route adds;
        # the index has the platform's width, which a gather takes as it is
        nxt = np.subtract(plan.next_cell[first:], first, dtype=np.intp)
        np.putmask(nxt, dead, cells.size)
        np.putmask(flow, dead, 0.0)
        base = g.take(key) * run
        for k in range(t - start - 1, -1, -1):
            now = slice(bounds[k], bounds[k + 1])
            np.add(base[now], np.add.reduce(flow[now] * u[nxt[now]], axis=1),
                   out=u[now])
    return u[:-1]


def _exact(sys, sde, g, terminal):
    """_sweep's u, read off the lattice's memo (see the module notes) on a
    hit, else swept and then kept in the memo if it fits one block."""
    plan, start, conv = sys.plan, sde.start_time, sde.convention
    # alpha, g, the beta rows and three conventions' u at the cells
    if (plan.cells.size - plan.offset[start]) * (sys.block.shape[1] + 5) \
            > lattice.BLOCK_ENTRIES:
        return _sweep(sys, sde, g, terminal)
    reads, memo, same = _reads(sys, sde, g, terminal), sys._dual_memo, False
    if memo is not None and start >= memo.start:
        old = memo.reads
        skip = int(plan.offset[start] - plan.offset[memo.start])
        # bit for bit (NaN payloads and signed zeros count), as int64 views
        same = all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b
                   in zip(reads, (old.alpha[skip:], old.g[skip:],
                                  old.rows[skip:], old.terminal)))
        if same and conv in memo.u:
            return memo.u[conv][skip:]
    u = _sweep(sys, sde, g, terminal)
    if same and start == memo.start:
        memo.u[conv] = u
    else:
        object.__setattr__(sys, "_dual_memo", _Memo(start, reads, {conv: u}))
    return u


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
    one backward sweep over the weight factors, in O(T * S * N), which the
    lattice keeps for later starts on the same entries (see the module
    notes).  Pass mc_paths for a seeded Monte Carlo estimate over that many
    sampled paths per start state instead.  start_time is an integer in
    0..T.
    """
    if start_time is not None:
        sde = replace(sde, start_time=start_time)
    start_time = sde.start_time
    g = np.asarray(g, dtype=float)
    terminal = np.asarray(terminal, dtype=float)
    _check_tables(sys, sde, g, terminal)
    t, d = sys.horizon, sys.dim
    starts = sys.reachable_at[start_time]
    out = np.full(d, np.nan)
    if mc_paths is None:
        out[starts] = _exact(sys, sde, g, terminal)[:starts.size]
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
            sde = WeightSde(driver.alpha, driver.beta, conv)
            worst = _residuals(_sweep(sys, sde, driver.g, terminal)[at],
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
