"""Finite-horizon control over a finite grid of actions.

The controlled value solves a backward recursion whose per-step scalar map is
``y = mean + max_u f_u(y, z)``, with each ``f_u`` affine in ``(y, z)``.  When
every drift coefficient is below one the maximum of the per-control closed
forms solves the step exactly; otherwise a verified bracketed root finder is
used.  The policy that attains each per-step maximum is returned alongside
the values, and a brute-force enumerator over all open-loop policy tables is
provided as an independent check (the per-step maximiser must dominate every
fixed policy pointwise).

Before solving, the positivity and comparison conditions are evaluated for
the declared coefficient bounds; failures raise unless overridden, because
the dominance argument behind the epsilon-policy bound leans on them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bsde import (
    BsdeSolution,
    DegenerateDriverError,
    LinearDriver,
    _terminal_array,
    _verified_root,
)
from .duality import DEFAULT_CONVENTION, WeightSde, _all_paths, weight_bounds
from .lattice import projection_constants
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
    "hamiltonian",
    "max_driver",
    "solve_control",
]

_TIE_TOL = 1e-12
_ALPHA_GUARD = 1e-12


class HypothesisError(RuntimeError):
    """A structural condition required by the solver does not hold."""


@dataclass(frozen=True)
class ControlProblem:
    """Control grid plus per-(time, state, control) affine driver tables.

    controls : (U, q) grid of action points (labels only; the dynamics of
               the chain are uncontrolled, the driver tables carry all the
               control dependence).
    alpha    : (T, D, U) drift coefficients, each must stay below one.
    beta     : (T, D, U, D) integrand coefficient rows.
    g        : (T, D, U) running terms.
    terminal : (D,) terminal data.
    alpha_bound, beta_bound : declared uniform bounds used by the
               hypothesis checks; ``validate`` confirms the tables obey them.
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
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        u = self.controls.shape[0]
        if self.alpha.ndim != 3 or self.alpha.shape[2] != u:
            raise ValueError("alpha must have shape (T, D, U)")
        if self.g.shape != self.alpha.shape:
            raise ValueError("g must match alpha's shape")
        if self.beta.shape != self.alpha.shape + (self.alpha.shape[1],):
            raise ValueError("beta must have shape (T, D, U, D)")
        if self.terminal.shape != (self.alpha.shape[1],):
            raise ValueError("terminal must have shape (D,)")

    @property
    def n_controls(self) -> int:
        return int(self.controls.shape[0])

    def validate(self, sys, tol: float = 1e-9) -> None:
        """Check shapes against the lattice and the declared bounds."""
        t, d = sys.horizon, sys.dim
        if self.alpha.shape[:2] != (t, d):
            raise ValueError(
                f"tables sized {self.alpha.shape[:2]} do not match the "
                f"lattice ({t}, {d})"
            )
        for k in range(t):
            for s in sys.reachable_at[k]:
                s = int(s)
                worst_a = float(np.max(np.abs(self.alpha[k, s])))
                if worst_a > self.alpha_bound + tol:
                    raise ValueError(
                        f"|alpha| = {worst_a} exceeds the declared bound "
                        f"{self.alpha_bound} at time {k}, state {s}"
                    )
                norms = np.linalg.norm(self.beta[k, s], axis=1)
                if float(norms.max()) > self.beta_bound + tol:
                    raise ValueError(
                        f"an integrand row norm {norms.max()} exceeds the "
                        f"declared bound {self.beta_bound} at time {k}, "
                        f"state {s}"
                    )


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

    def control_index(self, k: int, state: int) -> int:
        u = int(self.choices[k, state])
        if u < 0:
            raise KeyError(f"no control assigned at time {k}, state {state}")
        return u


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


def hamiltonian(problem: ControlProblem, sys, k, state, y, z_row, u) -> float:
    """Driver value of one control at the given scalar value and integrand."""
    return float(max_driver(problem, sys, k, state, y, z_row)[2][u])


def max_driver(problem: ControlProblem, sys, k, state, y, z_row):
    """Largest driver value over the grid with its lowest attaining index.

    Returns (best_value, best_index, all_values).
    """
    pz = sys.geometry_for(int(state)).project(z_row)
    vals = (
        problem.alpha[k, state] * y
        + problem.beta[k, state] @ pz
        + problem.g[k, state]
    )
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx, vals


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
    problem.validate(sys)
    positivity, comparison, lam = _check_hypotheses(
        problem, sys, override_hypotheses
    )
    term = _terminal_array(sys, problem.terminal)
    t, d = sys.horizon, sys.dim
    values = np.full((t + 1, d), np.nan)
    integrands = np.zeros((t, d, d))
    choices = np.full((t, d), -1, dtype=int)
    reach_t = sys.reachable_at[t]
    values[t, reach_t] = term[reach_t]
    ties = 0
    for k in range(t - 1, -1, -1):
        for s in sys.reachable_at[k]:
            s = int(s)
            mean, z_row = sys.geometry_for(s).split(values[k + 1])
            alphas = problem.alpha[k, s]
            if np.all(alphas < 1.0 - _ALPHA_GUARD):
                numer = mean + max_driver(problem, sys, k, s, 0.0, z_row)[2]
                y = float(np.max(numer / (1.0 - alphas)))
            else:
                def phi(v, k=k, s=s, z=z_row, m=mean):
                    return v - max_driver(problem, sys, k, s, v, z)[0] - m

                y = _verified_root(phi, mean, f" at time {k}, state {s}")
            _, best, vals = max_driver(problem, sys, k, s, y, z_row)
            near = np.flatnonzero(
                vals >= vals[best] - _TIE_TOL * (1.0 + abs(vals[best]))
            )
            if near.size > 1:
                ties += 1
            choices[k, s] = int(near[0])
            values[k, s] = y
            integrands[k, s] = z_row
    return ControlSolution(
        BsdeSolution(values, integrands),
        PolicyTable(choices),
        positivity,
        comparison,
        float(lam),
        ties,
    )


def _policy_driver(problem: ControlProblem, sys, policy: PolicyTable):
    t, d = sys.horizon, sys.dim
    alpha = np.zeros((t, d))
    g = np.zeros((t, d))
    beta = np.zeros((t, d, d))
    for k in range(t):
        for s in sys.reachable_at[k]:
            s = int(s)
            u = policy.control_index(k, s)
            if u >= problem.n_controls:
                raise ValueError(
                    f"policy index {u} out of range at time {k}, state {s}"
                )
            alpha[k, s] = problem.alpha[k, s, u]
            g[k, s] = problem.g[k, s, u]
            beta[k, s] = problem.beta[k, s, u]
    return LinearDriver(alpha, g, beta)


def evaluate_policy(problem: ControlProblem, sys, policy: PolicyTable):
    """Value of one fixed policy table (solves its affine backward system)."""
    from .bsde import solve_bsde

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
    (time, state) cells; the backward evaluation is vectorised over all
    policies at once.  Because the value at (k, s) only depends on digits at
    times >= k, the per-time maxima are the exact sub-problem optima.
    """
    problem.validate(sys)
    term = _terminal_array(sys, problem.terminal)
    t, d = sys.horizon, sys.dim
    u = problem.n_controls
    cells = [(k, int(s)) for k in range(t) for s in sys.reachable_at[k]]
    n_pol = u ** len(cells)
    if n_pol > max_policies:
        raise ValueError(
            f"{n_pol} policies exceed the enumeration cap {max_policies}"
        )
    cell_index = {cell: c for c, cell in enumerate(cells)}
    pol = np.arange(n_pol)
    digits = {c: (pol // u**c) % u for c in range(len(cells))}
    values = np.zeros((n_pol, d))
    per_time_max = np.full((t + 1, d), np.nan)
    reach_t = sys.reachable_at[t]
    values[:, reach_t] = term[reach_t]
    per_time_max[t, reach_t] = term[reach_t]
    for k in range(t - 1, -1, -1):
        new = np.zeros((n_pol, d))
        for s in sys.reachable_at[k]:
            s = int(s)
            geo = sys.geometry_for(s)
            sup = geo.support
            mean = values[:, sup] @ geo.column[sup]
            zmat = values[:, sup] - mean[:, None]
            alphas = problem.alpha[k, s]
            if np.any(np.abs(1.0 - alphas) < _ALPHA_GUARD):
                raise DegenerateDriverError(
                    f"a drift coefficient at time {k}, state {s} makes the "
                    "step map non-invertible"
                )
            # beta P read on the support; P is symmetric, so P beta' works
            beff = geo.project(problem.beta[k, s])[:, sup]
            cand = (mean[None, :] + beff @ zmat.T + problem.g[k, s][:, None]) / (
                1.0 - alphas
            )[:, None]
            chosen = np.take_along_axis(
                cand, digits[cell_index[(k, s)]][None, :], axis=0
            )[0]
            new[:, s] = chosen
            per_time_max[k, s] = float(chosen.max())
        values = new
    initial_values = np.full(d, np.nan)
    reach0 = sys.reachable_at[0]
    initial_values[reach0] = values[:, reach0].max(axis=0)
    weights = sys.dist_at[0]
    best = int(np.argmax(values @ weights))
    choices = np.full((t, d), -1, dtype=int)
    for c, (k, s) in enumerate(cells):
        choices[k, s] = (best // u**c) % u
    return BruteForceResult(
        initial_values,
        per_time_max,
        PolicyTable(choices),
        float((values @ weights)[best]),
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
    states = [int(s) for s in sys.reachable_at[0] if start[int(s)] > 0.0]
    paths, prob = _all_paths(sys, 0, states)
    gap = np.max(delta[np.arange(sys.horizon + 1), paths] ** 2, axis=1)
    return float((start[paths[:, 0]] * prob) @ gap)


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
    choices = np.full((t, d), -1, dtype=int)
    for k in range(t):
        for s in sys.reachable_at[k]:
            s = int(s)
            best, _, vals = max_driver(
                problem, sys, k, s, sol.values[k, s], sol.integrands[k, s]
            )
            choices[k, s] = int(np.flatnonzero(vals >= best - epsilon)[0])
    policy = PolicyTable(choices)
    driver = _policy_driver(problem, sys, policy)
    from .bsde import solve_bsde

    psol = solve_bsde(sys, driver, problem.terminal)
    delta = np.where(np.isnan(sol.values), 0.0, sol.values - psol.values)
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
