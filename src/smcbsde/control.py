"""Finite-horizon control over a finite grid of actions.

The controlled value solves a backward recursion whose per-step scalar map is
``y = mean + max_u f_u(y, z)``, with each ``f_u`` affine in ``(y, z)``: the
affine kernel of bsde with a controls axis, exact by the largest closed
form where every drift of a cell is below one, by a verified bracketed
root elsewhere.  The policy that attains each per-step maximum is returned
alongside the values, and a brute-force enumerator over all open-loop
policy tables is provided as an independent check.  It reads the same
terms but takes no argmax: a policy's values at time k depend only on its
digits at times >= k (its suffix), so the enumerator runs the slice step
once per distinct suffix, and every policy still gets its own exact value.

Before solving, the problem data are checked at every reachable cell and the
positivity and comparison conditions are evaluated for the declared bounds;
failures raise unless overridden, because the dominance argument behind the
epsilon-policy bound leans on them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bsde import (
    BsdeSolution,
    DegenerateDriverError,
    LinearDriver,
    ProblemDataError,
    _affine_solve,
    _AffineTerms,
    _block_norms,
    _gather,
    _require_finite,
    _solution,
    _tables,
    _terminal_array,
    solve_bsde,
)
from .duality import DEFAULT_CONVENTION, WeightSde, _level_walk, weight_bounds
from .lattice import _require_fit, projection_constants
from .linalg import ConditionReport, comparison_condition, positivity_condition

__all__ = [
    "BruteForceResult",
    "ControlProblem",
    "ControlSolution",
    "EpsilonReport",
    "HypothesisError",
    "PolicyTable",
    "brute_force_value",
    "epsilon_optimal_policy",
    "evaluate_policy",
    "solve_control",
]

_TIE_TOL = 1e-12
_ALPHA_GUARD = 1e-12
_POLICY_BLOCK = 8192


class HypothesisError(RuntimeError):
    """A structural condition required by the solver does not hold."""


@dataclass(frozen=True)
class ControlProblem:
    """Control grid plus per-(time, state, control) affine driver tables.

    controls : (U, q) grid of action points (labels only; the dynamics of
               the chain are uncontrolled, the driver tables carry all the
               control dependence).
    alpha    : (T, D, U) drift coefficients, each must stay below one.
    beta     : (T, D, U, W+1) integrand coefficient rows laid out as the
               lattice's ``block`` (padding 0), or (T, D, U, D) dense rows.
    g        : (T, D, U) running terms.
    terminal : (D,) terminal data.
    alpha_bound, beta_bound : declared uniform bounds used by the
               hypothesis checks, finite; ``validate`` confirms the tables
               obey them.

    The problem holds read-only copies of the tables, so that no later
    write to an array it was given changes it; an array that is read-only
    and owns its memory (as the loaders make them) is held as it is.
    """

    controls: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    g: np.ndarray
    terminal: np.ndarray
    alpha_bound: float
    beta_bound: float

    def __post_init__(self):
        ctrl = np.atleast_2d(np.asarray(self.controls, dtype=float))
        if ctrl.shape[0] == 1 and np.asarray(self.controls).ndim == 1:
            ctrl = ctrl.T
        for name, arr in (
            ("controls", ctrl),
            ("alpha", np.asarray(self.alpha, dtype=float)),
            ("beta", np.asarray(self.beta, dtype=float)),
            ("g", np.asarray(self.g, dtype=float)),
            ("terminal", np.asarray(self.terminal, dtype=float)),
        ):
            # a read-only array that owns its memory is adopted as it is;
            # any other is copied, so that no later write reaches the problem
            if arr.flags.writeable or not arr.flags.owndata:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        u = self.controls.shape[0]
        if self.alpha.ndim != 3 or self.alpha.shape[2] != u:
            raise ValueError("alpha must have shape (T, D, U)")
        if self.g.shape != self.alpha.shape:
            raise ValueError("g must match alpha's shape")
        if self.beta.shape[:-1] != self.alpha.shape:
            raise ValueError("beta must have shape (T, D, U, W+1) or "
                             "(T, D, U, D)")
        if self.terminal.shape != (self.alpha.shape[1],):
            raise ValueError("terminal must have shape (D,)")
        # a non-finite bound passes no check (x > nan is always false) and
        # has no JSON number to be saved as
        for name in ("alpha_bound", "beta_bound"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not "
                                 f"{getattr(self, name)}")

    @property
    def n_controls(self) -> int:
        return int(self.controls.shape[0])

    def validate(self, sys, tol: float = 1e-9) -> _AffineTerms:
        """Check that the tables fit the lattice, then that they are finite
        (whole beta rows) and obey the declared bounds (beta rows on the
        block) at every reachable cell; ProblemDataError names the field,
        and the time and state at the earliest time that breaks a cell
        check.  Returns the gathered terms the solvers read."""
        _require_fit(sys, (self.n_controls,), alpha=self.alpha, g=self.g,
                     beta=self.beta, terminal=self.terminal)
        terms, ok, rows = _gather(sys, self.alpha, self.g, self.beta)
        checks = (
            ("alpha", "|alpha|", np.abs(terms.alpha).max(axis=1),
             self.alpha_bound),
            ("beta", "an integrand row norm",
             _block_norms(sys, rows).max(axis=1), self.beta_bound),
        )
        for _, _, worst, bound in checks:
            ok &= ~(worst > bound + tol)
        if not ok.all():
            # the first failing time, checked as a loop over times would
            k = int(sys.plan.times[np.argmin(ok)])
            src, now = sys.reachable_at[k], sys.plan.span(k)
            _require_finite(sys, k, alpha=self.alpha[k, src],
                            beta=self.beta[k, src], g=self.g[k, src])
            for name, label, worst, bound in checks:
                over = np.flatnonzero(worst[now] > bound + tol)
                if over.size:
                    raise ProblemDataError(
                        f"field '{name}': {label} = {worst[now][over[0]]} "
                        f"exceeds the declared bound {bound} at time {k}, "
                        f"state {src[over[0]]}"
                    )
        _terminal_array(sys, self.terminal)
        return terms


@dataclass(frozen=True)
class PolicyTable:
    """Control index per (time, state); -1 marks cells never visited."""

    choices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.choices, dtype=int).copy()
        if arr.ndim != 2:
            raise ValueError("choices must be a (T, D) integer table")
        arr.flags.writeable = False
        object.__setattr__(self, "choices", arr)


@dataclass(frozen=True)
class ControlSolution:
    """Solved controlled values plus the hypothesis evidence."""

    solution: BsdeSolution
    policy: PolicyTable
    positivity: ConditionReport
    comparison: ConditionReport
    lambda_overall: float
    ties: int

    @property
    def values(self) -> np.ndarray:
        return self.solution.values


def _check_hypotheses(problem, sys, override):
    positivity = positivity_condition(sys, problem.beta_bound)
    lam = projection_constants(sys).overall
    comparison = comparison_condition(sys, problem.beta_bound * lam)
    failed = [
        rep.name for rep in (positivity, comparison) if not rep.passed
    ]
    if failed:
        msg = (
            f"hypothesis check(s) failed: {', '.join(failed)} "
            f"(coefficient bound {problem.beta_bound}, scale {lam})"
        )
        if not override:
            raise HypothesisError(
                msg + "; pass override_hypotheses=True to solve anyway"
            )
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
    return positivity, comparison, lam


def solve_control(
    problem: ControlProblem, sys, override_hypotheses: bool = False
) -> ControlSolution:
    """Backward dynamic programme over the control grid.

    Each step takes the pointwise maximum of the per-control closed forms
    when every drift coefficient is below one, which is exact because each
    candidate solves its own affine fixed point and the maximum of the
    candidates is the fixed point of the maximised map.  Otherwise the step
    falls back to a verified bracketed root solve.
    """
    terms = problem.validate(sys)
    positivity, comparison, lam = _check_hypotheses(
        problem, sys, override_hypotheses
    )
    values, local = _tables(sys, problem.terminal)
    roots = np.flatnonzero(np.any(terms.alpha >= 1.0 - _ALPHA_GUARD, axis=1))
    _affine_solve(sys, terms, values, local, roots)
    solution = _solution(sys, values, local)
    # the controls within the tie tolerance of the maximum at each cell
    vals = terms.along(solution)
    best = vals.max(axis=1, keepdims=True)
    near = vals >= best - _TIE_TOL * (1.0 + np.abs(best))
    choices = np.full((sys.horizon, sys.dim), -1, dtype=int)
    choices[sys.reachable[:-1]] = np.argmax(near, axis=1)
    ties = int(np.count_nonzero(near.sum(axis=1) > 1))
    return ControlSolution(solution, PolicyTable(choices), positivity,
                           comparison, float(lam), ties)


def _policy_driver(problem: ControlProblem, sys, policy: PolicyTable):
    _require_fit(sys, (problem.n_controls,), alpha=problem.alpha, g=problem.g,
                 beta=problem.beta, terminal=problem.terminal)
    mask = sys.reachable[:-1]
    u = policy.choices
    bad = mask & ((u < 0) | (u >= problem.n_controls))
    if bad.any():
        k, s = (int(v) for v in np.argwhere(bad)[0])
        if u[k, s] < 0:
            raise KeyError(f"no control assigned at time {k}, state {s}")
        raise ValueError(
            f"policy index {u[k, s]} out of range at time {k}, state {s}"
        )
    # each reachable cell's table entry at its control, zero elsewhere
    pick = np.where(mask, u, 0)[:, :, None]
    alpha, g = (np.where(mask, np.take_along_axis(a, pick, 2)[..., 0], 0.0)
                for a in (problem.alpha, problem.g))
    beta = np.take_along_axis(problem.beta, pick[..., None], 2)[:, :, 0]
    return LinearDriver(alpha, g, np.where(mask[:, :, None], beta, 0.0))


def evaluate_policy(problem: ControlProblem, sys, policy: PolicyTable):
    """Value of one fixed policy table (solves its affine backward system)."""
    return solve_bsde(sys, _policy_driver(problem, sys, policy), problem.terminal)


@dataclass(frozen=True)
class BruteForceResult:
    """Pointwise maxima over every open-loop policy table.

    initial_values : (D,) max over policies of the time-0 value per state.
    per_time_max   : (T+1, D) same maximum at every time, NaN off-reachable.
    best_policy    : the table maximising the start-distribution-weighted
                     time-0 value.
    objective      : that weighted maximum.
    n_policies     : number of tables enumerated.
    """

    initial_values: np.ndarray
    per_time_max: np.ndarray
    best_policy: PolicyTable
    objective: float
    n_policies: int


def brute_force_value(
    problem: ControlProblem, sys, max_policies: int = 1_000_000
) -> BruteForceResult:
    """Enumerate every policy table and take pointwise value maxima.

    Policies are encoded as base-U digit strings over the reachable
    (time, state) cells, in time-then-state order, so the digits of policy
    p at times >= k form its time-k suffix p // U**offset[k], and its
    values at time k depend on that suffix alone.  The backward walk
    evaluates each suffix once: slice k takes the conditional means, the
    integrands and every control's closed form on the distinct time-(k+1)
    suffixes, then lays them out over the time-k suffixes by each cell's
    own digit (a broadcast; no digit table is built).  Policies run in
    blocks of U**e <= _POLICY_BLOCK sharing their digits from cell e on.
    The enumeration stays exhaustive: every policy gets its own exact
    objective, and the per-time maxima, taken over every policy, are the
    exact sub-problem optima, read without solve_control's argmax.
    """
    t, d, plan = sys.horizon, sys.dim, sys.plan
    u = problem.n_controls
    off = plan.offset[:t + 1].tolist()
    n_cells = off[t]
    n_pol = u**n_cells
    # before any entry is read; the count is never printed, as it may run
    # past the digits Python converts to a string
    _require_fit(sys, (u,), alpha=problem.alpha, g=problem.g,
                 beta=problem.beta, terminal=problem.terminal)
    if n_pol > max_policies:
        raise ValueError(
            f"{u}**{n_cells} policies exceed its cap of {max_policies}")
    terms = problem.validate(sys)
    term = problem.terminal
    bad = np.any(np.abs(terms.den) < _ALPHA_GUARD, axis=1)
    if bad.any():
        c = int(np.argmax(bad))
        raise DegenerateDriverError(
            f"a drift coefficient at time {plan.times[c]}, state "
            f"{plan.cells[c]} makes the step map non-invertible"
        )
    # a block: the u**e policies sharing their digits from cell e on; it
    # holds cols[k] distinct time-k suffixes
    e = 0
    while e < n_cells and u ** (e + 1) <= _POLICY_BLOCK:
        e += 1
    cols = [u ** max(e - o, 0) for o in off]
    reach_t = sys.reachable_at[t]
    # the running maxima per cell, the horizon's the terminal data
    peak = np.full(plan.cells.size, np.nan)
    peak[plan.span(t)] = term[reach_t]
    objective = np.empty(n_pol)
    # per slice, sized once per call: each control's closed form on the
    # block's time-(k+1) suffixes, and the values on its time-k suffixes
    cand = [np.empty((src.size, u, n)) for src, n in
            zip(sys.reachable_at[:t], cols[1:])]
    values = [np.empty((src.size, n)) for src, n in zip(sys.reachable_at, cols)]
    values[t][:] = term[reach_t, None]
    weight = sys.dist_at[0][sys.reachable_at[0]]
    # each source's successor rows in the time-(k+1) values
    rows = [plan.next_cell[plan.span(k)] - off[k + 1] for k in range(t)]
    width = sys.succ.shape[1]
    for b in range(n_pol // cols[0]):
        for k in range(t - 1, -1, -1):
            src, at, c = sys.reachable_at[k], plan.span(k), cand[k]
            m, n = src.size, cols[k + 1]
            # the slice step, as lattice._centre takes it, with the mean
            # summed slot by slot so that no column count changes its
            # rounding
            z = values[k + 1][rows[k]]
            prob = sys.prob[src]
            mean = z[:, 0] * prob[:, :1]
            for w in range(1, width):
                mean += z[:, w] * prob[:, w:w + 1]
            z -= mean[:, None]
            z[~plan.real[src]] = 0.0
            coef = terms.coef[at]
            np.multiply(coef[:, :, :1], z[:, None, 0], out=c)
            for w in range(1, width):
                c += coef[:, :, w:w + 1] * z[:, None, w]
            c += mean[:, None]
            c += terms.g[at][:, :, None]
            c /= terms.den[at][:, :, None]
            # every control at every cell of the slice is the choice of some
            # policy with one of these time-(k+1) suffixes, so the whole
            # table enters the maxima
            np.fmax(peak[at], c.max(axis=(1, 2)), out=peak[at])
            # time-k suffix j = parent * u**free + the digits of the slice's
            # first `free` cells, cell i's the i-th; the other cells hold
            # the block's own digits
            free = min(max(e - off[k], 0), m)
            own = np.arange(free, m)
            out = values[k]
            out[free:].reshape(m - free, n, u**free)[...] = \
                c[own, b // u ** (own + off[k] - e) % u][:, :, None]
            for i in range(free):
                out[i].reshape(n, -1, u, u**i)[...] = c[i].T[:, None, :, None]
        # the start-weighted sum, taken state by state for every block size
        # alike
        obj = objective[b * cols[0]:(b + 1) * cols[0]]
        obj[...] = 0.0
        for w, row in zip(weight, values[0]):
            obj += w * row
    per_time_max = np.full((t + 1, d), np.nan)
    per_time_max.flat[plan.key] = peak
    best = int(np.argmax(objective))
    choices = np.full((t, d), -1, dtype=int)
    choices[sys.reachable[:-1]] = best // u ** np.arange(n_cells) % u
    return BruteForceResult(
        per_time_max[0].copy(),
        per_time_max,
        PolicyTable(choices),
        float(objective[best]),
        int(n_pol),
    )


@dataclass(frozen=True)
class EpsilonReport:
    """Measured vs guaranteed suboptimality of a near-maximising policy.

    measured : exact E[max over times of the squared value gap along the
               chain] under the time-0 state distribution.
    bound    : T^2 * epsilon^2 * c_tilde with c_tilde the worst running
               second moment of the policy's weight recursion over all
               start times and states.
    """

    epsilon: float
    measured: float
    bound: float
    c_tilde: float
    within_bound: bool
    policy_solution: BsdeSolution = field(repr=False)


def _expected_max_gap_sq(sys, delta):
    """E[max_k delta[k, X_k]^2] over the lattice chain from time 0."""
    start = sys.dist_at[0]
    root = np.array([s for s in sys.reachable_at[0] if start[s] > 0.0])
    prob, gap = np.ones(root.size), delta[0, root] ** 2
    for k, rows, cur, flat in _level_walk(sys, 0, root):
        nxt = sys.succ.take(flat)
        gap = np.maximum(gap.take(rows), delta[k + 1].take(nxt) ** 2)
        prob = prob.take(rows) * sys.prob.take(flat)
        root = root.take(rows)
    return float((start[root] * prob) @ gap)


def epsilon_optimal_policy(
    problem: ControlProblem,
    sys,
    solved: ControlSolution | BsdeSolution,
    epsilon: float,
    convention=DEFAULT_CONVENTION,
):
    """Lowest-index policy within epsilon of the per-step maximum.

    At every reachable (time, state) the candidate drivers are evaluated at
    the solved optimal value and integrand, and the smallest control index
    whose driver value is within ``epsilon`` of the maximum is selected.
    Returns the policy and a report comparing its exactly-computed value gap
    against the a-priori bound.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    sol = solved.solution if isinstance(solved, ControlSolution) else solved
    t, d = sys.horizon, sys.dim
    vals = problem.validate(sys).along(sol)
    best = vals.max(axis=1, keepdims=True)
    choices = np.full((t, d), -1, dtype=int)
    choices[sys.reachable[:-1]] = np.argmax(vals >= best - epsilon, axis=1)
    policy = PolicyTable(choices)
    driver = _policy_driver(problem, sys, policy)
    psol = solve_bsde(sys, driver, problem.terminal)
    delta = np.zeros((t + 1, d))
    delta[sys.reachable] = np.where(np.isnan(sol.cell_values), 0.0,
                                    sol.cell_values - psol.cell_values)
    measured = _expected_max_gap_sq(sys, delta)
    c_tilde = 0.0
    for start in range(t):
        report = weight_bounds(
            sys, WeightSde(driver.alpha, driver.beta, convention, start)
        )
        c_tilde = max(c_tilde, report.e_max_running_sq)
    bound = float(t**2 * epsilon**2 * c_tilde)
    return policy, EpsilonReport(
        float(epsilon),
        float(measured),
        bound,
        float(c_tilde),
        bool(measured <= bound + 1e-12),
        psol,
    )
