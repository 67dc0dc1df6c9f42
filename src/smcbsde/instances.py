"""Randomized model/driver/problem generators.

Shared by the test-suite, the convention-selection experiment and the CLI
verification commands.  Everything is driven by a caller-supplied Generator
so runs are reproducible; probabilities are kept away from zero so derived
constants (hazards, projection constants) stay well scaled.
"""

from __future__ import annotations

import numpy as np

from .bsde import LinearDriver, _driver_cells, solve_bsde
from .chain import SemiMarkovModel
from .lattice import projection_constants
from .linalg import comparison_condition, positivity_condition

__all__ = [
    "max_beta_for_comparison",
    "max_beta_for_positivity",
    "random_comparison_pair",
    "random_control_problem",
    "random_linear_instance",
    "random_model",
]


def _random_law(rng, size, min_prob=0.12):
    """Random probability vector with entries either zero or >= min_prob."""
    w = rng.dirichlet(np.ones(size))
    w[w < min_prob] = 0.0
    if w.sum() <= 0.0:
        w[int(rng.integers(size))] = 1.0
    return w / w.sum()


def random_model(
    rng: np.random.Generator,
    n_max: int = 4,
    t_max: int = 10,
    n: int | None = None,
    t: int | None = None,
    sub_stochastic_prob: float = 0.3,
    one_hot_start: bool | None = None,
) -> SemiMarkovModel:
    """Random valid model, occasionally with sojourn mass past the horizon."""
    if n is None:
        n = int(rng.integers(2, n_max + 1))
    if t is None:
        t = int(rng.integers(2, t_max + 1))
    dur = t + 1
    pi = np.zeros((n, dur))
    for i in range(n):
        law = _random_law(rng, dur)
        if rng.random() < sub_stochastic_prob:
            law = law * rng.uniform(0.6, 0.95)
        pi[i] = law
    jump = np.zeros((n, dur, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for m in range(dur):
            law = _random_law(rng, len(others))
            jump[i, m, others] = law
    if one_hot_start is None:
        one_hot_start = bool(rng.random() < 0.5)
    if one_hot_start:
        x0 = np.zeros(n)
        x0[int(rng.integers(n))] = 1.0
    else:
        x0 = _random_law(rng, n, min_prob=0.2)
    return SemiMarkovModel(n, t, pi, jump, x0)


def max_beta_for_positivity(sys) -> float:
    """Largest coefficient-row norm for which the positivity condition holds."""
    worst = positivity_condition(sys, 1.0).lhs.max()
    return 1.0 / worst if worst > 0.0 else np.inf


def max_beta_for_comparison(sys) -> float:
    """Largest row norm keeping the comparison condition strict."""
    lam = projection_constants(sys).overall
    worst = comparison_condition(sys, 1.0).lhs.max()
    return 1.0 / (lam * np.sqrt(worst)) if lam > 0.0 and worst > 0.0 else np.inf


def random_linear_instance(
    sys,
    rng: np.random.Generator,
    alpha_scale: float = 0.5,
    beta_fraction: float = 0.9,
    comparison_safe: bool = False,
):
    """Random linear driver and terminal with coefficient bounds that pass
    the positivity condition (and optionally the comparison condition); a
    beta row keeps the block entries of D normals scaled by their norm."""
    t, d = sys.horizon, sys.dim
    l_max = beta_fraction * max_beta_for_positivity(sys)
    if comparison_safe:
        l_max = min(l_max, beta_fraction * max_beta_for_comparison(sys))
    mask = sys.reachable[:-1]
    alpha = np.where(mask, rng.uniform(-alpha_scale, alpha_scale, (t, d)), 0.0)
    g = np.where(mask, rng.uniform(-1.0, 1.0, (t, d)), 0.0)
    beta = np.zeros((t, d) + sys.block.shape[1:])
    for k in range(t):
        src = sys.reachable_at[k]
        for s, block in zip(src, sys.block[np.searchsorted(sys.sources, src)]):
            row = rng.standard_normal(d)
            norm = np.linalg.norm(row)
            if norm > 0.0:
                beta[k, s] = row[block] * (rng.uniform(0.3, 1.0) * l_max / norm)
    terminal = np.zeros(d)
    reach_t = sys.reachable_at[t]
    terminal[reach_t] = rng.uniform(-1.0, 1.0, reach_t.size)
    return LinearDriver(alpha, g, beta), terminal


def random_comparison_pair(sys, rng: np.random.Generator):
    """Two (driver, terminal) pairs satisfying the comparison hypotheses.

    Half the draws share drift and integrand coefficients and order the
    running/terminal data pointwise; the other half use genuinely different
    coefficients and enforce the driver ordering along the solved second
    solution by absorbing the coefficient change into the running term.
    Returns (driver1, terminal1, driver2, terminal2).
    """
    driver2, terminal2 = random_linear_instance(sys, rng, comparison_safe=True)
    t, d = sys.horizon, sys.dim
    mask = sys.reachable[:-1]
    reach_t = sys.reachable_at[t]
    terminal1 = terminal2.copy()
    terminal1[reach_t] -= rng.uniform(0.0, 1.0, reach_t.size)
    if rng.random() < 0.5:
        g1 = driver2.g - np.where(mask, rng.uniform(0.0, 1.0, (t, d)), 0.0)
        driver1 = LinearDriver(driver2.alpha, g1, driver2.beta)
        return driver1, terminal1, driver2, terminal2
    fresh, _ = random_linear_instance(sys, rng, comparison_safe=True)
    sol2 = solve_bsde(sys, driver2, terminal2)
    carry = _driver_cells(sys, driver2, sol2) - _driver_cells(sys, fresh, sol2)
    # the mask lists the cells in the plan's order, that of carry
    g1 = np.zeros((t, d))
    g1[mask] = fresh.g[mask] + carry - rng.uniform(0.0, 1.0, carry.size)
    driver1 = LinearDriver(fresh.alpha, g1, fresh.beta)
    return driver1, terminal1, driver2, terminal2


def random_control_problem(
    sys,
    rng: np.random.Generator,
    n_controls: int = 2,
    alpha_scale: float = 0.4,
    beta_fraction: float = 0.85,
    control_dependent_alpha: bool = True,
):
    """Random finite-grid control problem passing both hypothesis gates."""
    from .control import ControlProblem

    t, d = sys.horizon, sys.dim
    u = n_controls
    l_max = beta_fraction * min(
        max_beta_for_positivity(sys), max_beta_for_comparison(sys)
    )
    mask = sys.reachable[:-1]
    alpha = np.where(
        mask[:, :, None], rng.uniform(-alpha_scale, alpha_scale, (t, d, u)), 0.0
    )
    if not control_dependent_alpha:
        alpha = np.repeat(alpha[:, :, :1], u, axis=2)
    g = np.where(mask[:, :, None], rng.uniform(-1.0, 1.0, (t, d, u)), 0.0)
    beta = np.zeros((t, d, u) + sys.block.shape[1:])
    for k in range(t):
        src = sys.reachable_at[k]
        for s, block in zip(src, sys.block[np.searchsorted(sys.sources, src)]):
            for j in range(u):
                row = rng.standard_normal(d)
                norm = np.linalg.norm(row)
                if norm > 0.0:
                    beta[k, s, j] = row[block] * (rng.uniform(0.2, 1.0) * l_max
                                                  / norm)
    terminal = np.zeros(d)
    reach_t = sys.reachable_at[t]
    terminal[reach_t] = rng.uniform(-1.0, 1.0, reach_t.size)
    controls = np.linspace(0.0, 1.0, u).reshape(-1, 1)
    return ControlProblem(
        controls=controls,
        alpha=alpha,
        beta=beta,
        g=g,
        terminal=terminal,
        alpha_bound=alpha_scale,
        beta_bound=l_max,
    )
