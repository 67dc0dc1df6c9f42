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
multiplies V, per (time, source, successor slot), and r_k(s) = W_k / V_k.
The forward measure mu_k(s) = E[V_k 1{X_k = s}] then obeys
mu_{k+1}(j) = sum_s mu_k(s) c_s(j) f_k(s, j), and dual_value sums
mu_k r_k g_k over k plus mu_T terminal: exact in O(T * S * N) per start
state with no path enumeration, and forward, so independent of the backward
solver it checks.  Statistics of whole paths (weight_bounds, the Monte
Carlo dual_value, evolve_weights, the epsilon-policy gap in control) come
from one evaluator of V and W along a (P, L) array of paths: every
realizable path, enumerated breadth first and weighted by its probability,
or seeded draws weighted 1/n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Convention",
    "DEFAULT_CONVENTION",
    "SelectionError",
    "SelectionResult",
    "VanishingDenominatorError",
    "WeightReport",
    "WeightSde",
    "dual_value",
    "enumerate_paths",
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
    beta  : (T, D, D) integrand rows or None for noise-free weights.
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


def _factors(sys, sde):
    """Weight factors on the lattice's padded successor table, as (succ,
    prob, den, step, run): source s steps to succ[s, j] with probability
    prob[s, j] (0 on padding); that step at time k multiplies V by
    step[k, s, j], whose denominator is den[k, s, j] (1 where there is
    none), and W_k = V_k * run[k, s]."""
    _check_tables(sys, sde)
    succ, prob = sys.succ, sys.prob
    src = sys.sources
    noise = np.zeros((sys.horizon,) + succ.shape)
    if sde.beta is not None:
        # n_k(s, j) = b_k(s) @ pinv(bracket_s) @ (e_j - c_s), read on the
        # block (s, *successors): the pinv columns of the successors,
        # centred under c_s
        cols = sys.local_pinv[:, :, 1:]
        cols = cols - cols @ prob[src][:, :, None]
        rows = sde.beta[:, src[:, None], sys.block].transpose(1, 0, 2)
        noise[:, src] = (rows @ cols).transpose(1, 0, 2)
    a = sde.alpha[:, :, None]
    conv = sde.convention
    run = np.ones(sde.alpha.shape)
    # cells never stepped from may hold any value (zero denominators too);
    # only the cells a caller walks are checked, by _check_denominators
    with np.errstate(divide="ignore", invalid="ignore"):
        if conv is Convention.SHIFTED:
            den = np.ones(noise.shape)
            step = 1.0 + a + noise
        elif conv is Convention.IMPLICIT:
            den = 1.0 - a - noise
            step = 1.0 / den
        else:
            den = np.broadcast_to(1.0 - a, noise.shape)
            step = (1.0 + noise) / den
            run = 1.0 / (1.0 - sde.alpha)
    return succ, prob, den, step, run


def _check_denominators(den, times, states):
    """Raise on the first vanishing weight denominator in ``den``, whose
    entries are steps at ``times`` out of ``states`` (broadcast alike)."""
    bad = np.abs(den) < DENOMINATOR_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise VanishingDenominatorError(
            f"weight denominator {den.flat[i]} at time "
            f"{np.broadcast_to(times, den.shape).flat[i]}, "
            f"state {states.flat[i]}"
        )


def _path_weights(sys, fac, start, paths):
    """Weights along a (P, L) array of lattice paths from time ``start``.

    Returns V (P, L) with V[:, 0] = 1 and the running weights W (P, L-1).
    Raises ValueError on a transition the lattice assigns zero probability.
    """
    succ, prob, den, step, run = fac
    cur, nxt = paths[:, :-1], paths[:, 1:]
    times = np.arange(start, start + cur.shape[1])
    # slot of each step: transitions s -> j keyed s * D + j, in ascending order
    rows, slots = np.nonzero(prob > 0.0)
    keys = rows * sys.dim + succ[rows, slots]
    query = cur * sys.dim + nxt
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    missing = np.flatnonzero(keys[at] != query)
    if missing.size:
        p, j = divmod(int(missing[0]), cur.shape[1])
        raise ValueError(
            f"transition {sys.label(int(cur[p, j]))} -> "
            f"{sys.label(int(nxt[p, j]))} at time {start + j} is not realizable"
        )
    slot = slots[at]
    _check_denominators(den[times, cur, slot], times, cur)
    v = np.ones(paths.shape)
    np.cumprod(step[times, cur, slot], axis=1, out=v[:, 1:])
    return v, v[:, :-1] * run[times, cur]


def _all_paths(sys, start, states):
    """Every realizable path from each (start, state) to the horizon, as a
    (P, T - start + 1) array in enumerate_paths order per start state, in
    the given order, and the path probabilities (P,)."""
    succ, prob = sys.succ, sys.prob
    paths = np.asarray(states, dtype=np.int64).reshape(-1, 1)
    weight = np.ones(paths.shape[0])
    for _ in range(start, sys.horizon):
        cur = paths[:, -1]
        rows, slots = np.nonzero(prob[cur] > 0.0)
        nxt = succ[cur[rows], slots]
        paths = np.concatenate([paths[rows], nxt[:, None]], axis=1)
        weight = weight[rows] * prob[cur[rows], slots]
    return paths, weight


def _drawn_paths(sys, start, states, n, seed):
    """n seeded paths per start state, drawn in turn, each weighted 1/n."""
    rng = np.random.default_rng(seed)
    paths = np.concatenate(
        [_sample_paths(sys, start, int(s), n, rng) for s in states]
    )
    return paths, np.full(paths.shape[0], 1.0 / n)


def evolve_weights(sys, sde: WeightSde, path) -> np.ndarray:
    """Weights V along one realizable lattice path.

    ``path[j]`` is the flat state at time start_time + j; the result has the
    same length with V[0] = 1.  Raises ValueError on a transition the
    lattice assigns zero probability.
    """
    path = np.array([int(p) for p in path], dtype=np.int64)
    v, _ = _path_weights(sys, _factors(sys, sde), sde.start_time, path[None, :])
    return v[0]


def enumerate_paths(sys, start_time: int, state: int):
    """All realizable lattice paths from (start_time, state) to the horizon.

    Yields (path, probability) with path a tuple of flat indices, in
    deterministic successor-ascending depth-first order so repeated runs
    reduce bit-identically.  Probabilities over the yield sum to one.
    """
    t = sys.horizon
    if not 0 <= start_time <= t:
        raise ValueError(f"start_time {start_time} outside 0..{t}")

    def rec(k, s, prefix, prob):
        if k == t:
            yield tuple(prefix), prob
            return
        g = sys.geometry_for(s)
        for j in g.support:
            j = int(j)
            prefix.append(j)
            yield from rec(k + 1, j, prefix, prob * float(g.column[j]))
            prefix.pop()

    yield from rec(start_time, int(state), [int(state)], 1.0)


def _sample_paths(sys, start_time, state, n, rng):
    """Inverse-CDF sampling of lattice paths from one (time, state) node.

    Each step draws one uniform per path and hands the draws out to the
    paths grouped by current state, states ascending and paths in order
    within a state; a path's successor is the first slot whose cumulative
    probability exceeds its draw times the row total.
    """
    cum = np.cumsum(sys.prob, axis=1)
    last = np.count_nonzero(sys.prob, axis=1) - 1
    out = np.empty((n, sys.horizon - start_time + 1), dtype=np.int64)
    out[:, 0] = state
    u = np.empty(n)
    for j in range(out.shape[1] - 1):
        cur = out[:, j]
        u[np.argsort(cur, kind="stable")] = rng.random(n)
        row = cum[cur]
        picks = np.count_nonzero(row <= (u * row[:, -1])[:, None], axis=1)
        out[:, j + 1] = sys.succ[cur, np.minimum(picks, last[cur])]
    return out


def _check_tables(sys, sde, g=None, terminal=None):
    t, d = sys.horizon, sys.dim
    if sde.alpha.shape != (t, d):
        raise ValueError(f"alpha must have shape {(t, d)}")
    if sde.beta is not None and sde.beta.shape != (t, d, d):
        raise ValueError(f"beta must have shape {(t, d, d)}")
    if g is not None and np.asarray(g).shape != (t, d):
        raise ValueError(f"g must have shape {(t, d)}")
    if terminal is not None and np.asarray(terminal).shape != (d,):
        raise ValueError(f"terminal must have shape ({d},)")


def _reached(mu, x):
    """mu * x, but 0 where mu is 0 (cells a start never reaches), finite or not."""
    return np.where(mu != 0.0, mu * x, 0.0)


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
    and NaN elsewhere.  Exact at any size by default: the forward measure
    mu_k(s) = E[V_k 1{X_k = s}] is carried from every start state at once,
    in O(T * S * N) per start state.  Pass mc_paths for a seeded Monte
    Carlo estimate over that many sampled paths per start state instead.
    """
    if start_time is None:
        start_time = sde.start_time
    g = np.asarray(g, dtype=float)
    terminal = np.asarray(terminal, dtype=float)
    _check_tables(sys, sde, g, terminal)
    t, d = sys.horizon, sys.dim
    fac = _factors(sys, sde)
    starts = sys.reachable_at[start_time]
    out = np.full(d, np.nan)

    if mc_paths is not None:
        paths, weight = _drawn_paths(sys, start_time, starts, mc_paths, seed)
        v, w = _path_weights(sys, fac, start_time, paths)
        ran = g[np.arange(start_time, t), paths[:, :-1]] * w
        total = terminal[paths[:, -1]] * v[:, -1] + ran.sum(axis=1)
        out[starts] = np.bincount(paths[:, 0], weight * total, minlength=d)[starts]
        return out

    succ, prob, den, step, run = fac
    mu = np.zeros((starts.size, d))
    mu[np.arange(starts.size), starts] = 1.0
    offset = np.arange(starts.size)[:, None] * d
    total = np.zeros(starts.size)
    for k in range(start_time, t):
        src = sys.reachable_at[k]
        rows, slots = np.nonzero(prob[src] > 0.0)
        cur = src[rows]
        _check_denominators(den[k, cur, slots], k, cur)
        m = mu[:, src]
        total += _reached(m, g[k, src] * run[k, src]).sum(axis=1)
        flow = _reached(m[:, rows], prob[cur, slots] * step[k, cur, slots])
        mu = np.bincount((offset + succ[cur, slots]).ravel(), flow.ravel(),
                         minlength=mu.size).reshape(mu.shape)
    end = sys.reachable_at[t]
    total += _reached(mu[:, end], terminal[end]).sum(axis=1)
    out[starts] = total
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
    fac = _factors(sys, sde)
    start = sde.start_time
    states = sys.reachable_at[start]
    if samples is None:
        paths, weight = _all_paths(sys, start, states)
    else:
        paths, weight = _drawn_paths(sys, start, states, samples, seed)
    v, w = _path_weights(sys, fac, start, paths)
    ev = np.bincount(paths[:, 0], weight * np.max(v * v, axis=1),
                     minlength=sys.dim)[states]
    ew = np.bincount(paths[:, 0], weight * np.max(w * w, axis=1, initial=0.0),
                     minlength=sys.dim)[states]
    per_state = {int(s): (float(a), float(b)) for s, a, b in zip(states, ev, ew)}
    min_weight = float(v.min())
    positivity = None
    if beta_bound is not None:
        from .linalg import positivity_condition

        positivity = positivity_condition(sys, beta_bound)
        if positivity.passed and min_weight < -1e-10:
            raise AssertionError(
                f"positivity condition holds but a weight reached {min_weight}; "
                "the weight recursion is inconsistent"
            )
    return WeightReport(float(ev.max()), float(ew.max()), min_weight,
                        per_state, positivity)


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
    with the smallest worst-case residual.  Instances whose conventions all
    coincide (zero coefficients) are marked uninformative.  If no convention
    agrees within ``tol`` the selection fails loudly: that indicates either
    an implementation bug or an unresolved ambiguity, and silently picking a
    form would corrupt everything downstream.
    """
    from .bsde import solve_bsde
    from .instances import random_linear_instance

    rng = np.random.default_rng(seed)
    t = sys.horizon
    per_conv = {c: [] for c in Convention}
    informative = 0
    uninformative = 0
    for _ in range(trials):
        driver, terminal = random_linear_instance(sys, rng)
        sol = solve_bsde(sys, driver, terminal)
        trial_res = {}
        for conv in Convention:
            worst = 0.0
            for i in range(t):
                sde = WeightSde(driver.alpha, driver.beta, conv, start_time=i)
                dual = dual_value(sys, sde, driver.g, terminal)
                for s in sys.reachable_at[i]:
                    worst = max(worst, abs(dual[int(s)] - sol.values[i, int(s)]))
            trial_res[conv] = worst
        spread = max(trial_res.values()) - min(trial_res.values())
        if spread < 1e-12:
            uninformative += 1
        else:
            informative += 1
        for conv, r in trial_res.items():
            per_conv[conv].append(r)
    residuals = {
        c: (float(np.max(v)), float(np.median(v))) for c, v in per_conv.items()
    }
    best = min(residuals, key=lambda c: residuals[c][0])
    if residuals[best][0] > tol:
        raise SelectionError(
            "no weight convention reproduces the backward solver within "
            f"{tol}: " + "; ".join(
                f"{c.value}={residuals[c][0]:.3e}" for c in residuals
            )
        )
    unique = sum(1 for c in residuals if residuals[c][0] <= tol) == 1
    return SelectionResult(best, residuals, unique, trials, informative,
                           uninformative)
