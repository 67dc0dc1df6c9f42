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


class _StepTables:
    """Per (time, source) cache of the quantities entering one step factor."""

    def __init__(self, sys, sde):
        self.sys = sys
        self.sde = sde
        self._cache = {}

    def coeffs(self, k, s):
        key = (k, s)
        hit = self._cache.get(key)
        if hit is None:
            a = float(self.sde.alpha[k, s])
            g = self.sys.geometry_for(s)
            if self.sde.beta is None:
                row = None
                base = 0.0
            else:
                row = np.zeros(self.sys.dim)
                row[g.block] = self.sde.beta[k, s][g.block] @ g.local_pinv
                base = float(row @ g.column)
            hit = (a, row, base, g)
            self._cache[key] = hit
        return hit

    def factor(self, k, s, succ):
        """Multiplicative weight factor for the transition s -> succ at k."""
        a, row, base, _ = self.coeffs(k, s)
        n = 0.0 if row is None else float(row[succ]) - base
        conv = self.sde.convention
        if conv is Convention.SHIFTED:
            return 1.0 + a + n
        if conv is Convention.IMPLICIT:
            den = 1.0 - a - n
        else:
            den = 1.0 - a
        if abs(den) < DENOMINATOR_TOL:
            raise VanishingDenominatorError(
                f"weight denominator {den} at time {k}, state {s}"
            )
        if conv is Convention.IMPLICIT:
            return 1.0 / den
        return (1.0 + n) / den

    def g_weight(self, k, s, v):
        """Weight paired with the running term at (k, s) given V_k = v."""
        if self.sde.convention is not Convention.MIXED:
            return v
        a = float(self.sde.alpha[k, s])
        den = 1.0 - a
        if abs(den) < DENOMINATOR_TOL:
            raise VanishingDenominatorError(
                f"running-weight denominator {den} at time {k}, state {s}"
            )
        return v / den


def evolve_weights(sys, sde: WeightSde, path) -> np.ndarray:
    """Weights V along one realizable lattice path.

    ``path[j]`` is the flat state at time start_time + j; the result has the
    same length with V[0] = 1.  Raises ValueError on a transition the
    lattice assigns zero probability.
    """
    path = [int(p) for p in path]
    tables = _StepTables(sys, sde)
    v = np.ones(len(path))
    for j in range(len(path) - 1):
        k = sde.start_time + j
        s, nxt = path[j], path[j + 1]
        col = sys.geometry_for(s).column
        if col[nxt] <= 0.0:
            raise ValueError(
                f"transition {sys.label(s)} -> {sys.label(nxt)} at time {k} "
                "is not realizable"
            )
        v[j + 1] = v[j] * tables.factor(k, s, nxt)
    return v


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
    """Inverse-CDF sampling of lattice paths from one (time, state) node."""
    t = sys.horizon
    out = np.empty((n, t - start_time + 1), dtype=np.int64)
    out[:, 0] = state
    for j, k in enumerate(range(start_time, t)):
        cur = out[:, j]
        for s in np.unique(cur):
            g = sys.geometry_for(int(s))
            cum = np.cumsum(g.column[g.support])
            rows = cur == s
            u = rng.random(int(rows.sum())) * cum[-1]
            picks = np.searchsorted(cum, u, side="right")
            picks = np.minimum(picks, len(cum) - 1)
            out[rows, j + 1] = g.support[picks]
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
    and NaN elsewhere.  Exhaustive by default (exact for desk-scale
    lattices); pass mc_paths for a seeded Monte Carlo estimate instead.
    """
    if start_time is None:
        start_time = sde.start_time
    elif start_time != sde.start_time:
        sde = WeightSde(sde.alpha, sde.beta, sde.convention, start_time)
    g = np.asarray(g, dtype=float)
    terminal = np.asarray(terminal, dtype=float)
    _check_tables(sys, sde, g, terminal)
    t = sys.horizon
    tables = _StepTables(sys, sde)
    out = np.full(sys.dim, np.nan)

    if mc_paths is not None:
        rng = np.random.default_rng(seed)
        for s in sys.reachable_at[start_time]:
            s = int(s)
            paths = _sample_paths(sys, start_time, s, mc_paths, rng)
            total = 0.0
            for row in paths:
                v = 1.0
                acc = 0.0
                for j, k in enumerate(range(start_time, t)):
                    cur = int(row[j])
                    acc += g[k, cur] * tables.g_weight(k, cur, v)
                    v *= tables.factor(k, cur, int(row[j + 1]))
                total += terminal[int(row[-1])] * v + acc
            out[s] = total / mc_paths
        return out

    def value_from(k, s, v, acc, prob):
        if k == t:
            return prob * (terminal[s] * v + acc)
        acc = acc + g[k, s] * tables.g_weight(k, s, v)
        geo = sys.geometry_for(s)
        total = 0.0
        for j in geo.support:
            j = int(j)
            total += value_from(
                k + 1, j, v * tables.factor(k, s, j), acc, prob * float(geo.column[j])
            )
        return total

    for s in sys.reachable_at[start_time]:
        out[int(s)] = value_from(start_time, int(s), 1.0, 0.0, 1.0)
    return out


@dataclass(frozen=True)
class WeightReport:
    """Exhaustive (or sampled) statistics of one weight recursion.

    e_max_sq          : max over start states of E[max_k V_k^2]
    e_max_running_sq  : same for the running weights W_k
    min_weight        : smallest V_k over every enumerated path and state
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

    When ``beta_bound`` is given the positivity condition is evaluated for
    it, and a negative weight in the passing regime raises AssertionError:
    the sufficient condition held, so a sign flip means the recursion (not
    the input) is wrong.
    """
    _check_tables(sys, sde)
    tables = _StepTables(sys, sde)
    t = sys.horizon
    start = sde.start_time
    per_state = {}
    min_weight = np.inf

    def walk(k, s, v, vmax, wmax, prob):
        nonlocal min_weight
        min_weight = min(min_weight, v)
        if k == t:
            return prob * vmax**2, prob * wmax**2
        w = tables.g_weight(k, s, v)
        wmax = max(wmax, abs(w))
        geo = sys.geometry_for(s)
        ev = ew = 0.0
        for j in geo.support:
            j = int(j)
            nv = v * tables.factor(k, s, j)
            a, b = walk(
                k + 1, j, nv, max(vmax, abs(nv)), wmax, prob * float(geo.column[j])
            )
            ev += a
            ew += b
        return ev, ew

    rng = np.random.default_rng(seed) if samples is not None else None
    for s in sys.reachable_at[start]:
        s = int(s)
        if samples is None:
            per_state[s] = walk(start, s, 1.0, 1.0, 0.0, 1.0)
        else:
            paths = _sample_paths(sys, start, s, samples, rng)
            ev = ew = 0.0
            for row in paths:
                v, vmax, wmax = 1.0, 1.0, 0.0
                for j, k in enumerate(range(start, t)):
                    cur = int(row[j])
                    wmax = max(wmax, abs(tables.g_weight(k, cur, v)))
                    v *= tables.factor(k, cur, int(row[j + 1]))
                    vmax = max(vmax, abs(v))
                    min_weight = min(min_weight, v)
                ev += vmax**2
                ew += wmax**2
            per_state[s] = (ev / samples, ew / samples)

    e_max = max(v for v, _ in per_state.values())
    e_run = max(w for _, w in per_state.values())
    positivity = None
    if beta_bound is not None:
        from .linalg import positivity_condition

        positivity = positivity_condition(sys, beta_bound)
        if positivity.passed and min_weight < -1e-10:
            raise AssertionError(
                f"positivity condition holds but a weight reached {min_weight}; "
                "the weight recursion is inconsistent"
            )
    return WeightReport(float(e_max), float(e_run), float(min_weight), per_state,
                        positivity)


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
