"""Acceptance gate: every advertised property at its stated tolerance.

Each test prints a single summary line (visible with -rA or on failure) and
asserts both the numeric tolerance and, where stated, the runtime budget.
Criteria that build expensive instance sets cache them at module scope so
dependent criteria reuse the same instances.
"""

import time

import numpy as np
import pytest

from smcbsde import (
    Convention,
    WeightSde,
    brute_force_value,
    build_lattice,
    canonical_integrand,
    dual_value,
    epsilon_optimal_policy,
    integrands_equivalent,
    martingale_increment,
    noise_seminorm,
    penrose_residuals,
    pinv,
    select_convention,
    sojourn_quantities,
    solve_bsde,
    solve_control,
    transition_matrix,
    weight_bounds,
)
from smcbsde.instances import (
    random_control_problem,
    random_linear_instance,
    random_model,
)

from conftest import geometric_model
from dense import geometry_for, transition

_duality_instances = []
_control_instances = []


def _ensure_duality_instances():
    if _duality_instances:
        return _duality_instances
    rng = np.random.default_rng(2024_04)
    while len(_duality_instances) < 200:
        model = random_model(rng, n_max=3, t_max=5)
        sys_ = build_lattice(model)
        driver, terminal = random_linear_instance(sys_, rng)
        _duality_instances.append((sys_, driver, terminal))
    return _duality_instances


def _ensure_control_instances():
    if _control_instances:
        return _control_instances
    rng = np.random.default_rng(2024_07)
    while len(_control_instances) < 50:
        model = random_model(rng, n_max=2, t_max=3, n=2)
        sys_ = build_lattice(model)
        problem = random_control_problem(
            sys_, rng, n_controls=int(rng.integers(2, 4))
        )
        _control_instances.append((sys_, problem))
    return _control_instances


def test_criterion_01_martingale_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_01)
    worst = 0.0
    n_models = 50
    for _ in range(n_models):
        model = random_model(rng, n_max=4, t_max=10)
        sq = sojourn_quantities(model)
        # chain level: transition-weighted innovations sum to zero
        for m in range(1, model.n_durations + 1):
            if not np.any(sq.attainable[:, m - 1]):
                continue
            a = transition_matrix(model, m, sq)
            for i in np.flatnonzero(sq.attainable[:, m - 1]):
                i = int(i)
                mean = np.zeros(model.n_states)
                for j in range(model.n_states):
                    if a[j, i] > 0.0:
                        mean += a[j, i] * martingale_increment(model, i, m, j, sq)
                worst = max(worst, float(np.max(np.abs(mean))))
        # lattice level, at every reachable (time, state)
        sys_ = build_lattice(model)
        for k in range(sys_.horizon):
            for s in sys_.reachable_at[k]:
                c = geometry_for(sys_, int(s)).column
                residual = c - c.sum() * c
                worst = max(worst, float(np.max(np.abs(residual))))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 1: martingale residual {worst:.2e} <= 1e-12 over "
        f"{n_models} models in {elapsed:.2f}s"
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_lattice_cardinality_and_structure():
    rng = np.random.default_rng(2024_02)
    for _ in range(30):
        model = random_model(rng, n_max=4, t_max=10)
        sys_ = build_lattice(model)
        n, t = model.n_states, model.horizon
        for k, reach in enumerate(sys_.reachable_at):
            assert len(reach) <= (k + 1) * n
        # off-block entries are exactly zero: column block m feeds only the
        # duration-1 rows and the duration-(m+1) rows
        c = transition(sys_)
        for m in range(1, t + 2):
            cols = slice((m - 1) * n, m * n)
            allowed = np.zeros(sys_.dim, dtype=bool)
            allowed[:n] = True
            if m <= t:
                allowed[m * n : (m + 1) * n] = True
            assert np.all(c[~allowed][:, cols] == 0.0)
        for s in sorted(sys_.sources):
            assert abs(c[:, int(s)].sum() - 1.0) <= 1e-12
    print("criterion 2: cardinality bound, block sparsity and column sums hold")


def test_criterion_03_penrose_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_03)
    worst = 0.0
    for _ in range(500):
        size = int(rng.integers(2, 85))
        rank = int(rng.integers(1, size))
        root = rng.standard_normal((size, rank))
        q = root @ root.T
        res = penrose_residuals(q, pinv(q))
        worst = max(
            worst, max(res.values()) / (1.0 + np.linalg.norm(q))
        )
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3: worst scaled Penrose residual {worst:.2e} <= 1e-9 "
        f"over 500 matrices in {elapsed:.2f}s"
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_04_duality_identity():
    start = time.perf_counter()
    instances = _ensure_duality_instances()
    worst = 0.0
    for sys_, driver, terminal in instances:
        sol = solve_bsde(sys_, driver, terminal)
        sde = WeightSde.from_driver(driver, Convention.MIXED)
        for k in range(sys_.horizon + 1):
            dual = dual_value(sys_, sde, driver.g, terminal, start_time=k)
            reach = sys_.reachable_at[k]
            worst = max(
                worst,
                float(np.max(np.abs(dual[reach] - sol.values[k, reach]))),
            )
    unique_all = True
    rng = np.random.default_rng(2024_14)
    for idx in (0, 1, 2):
        sys_, _, _ = instances[idx]
        result = select_convention(
            sys_, trials=8, seed=int(rng.integers(2**31))
        )
        unique_all = unique_all and result.unique
        assert result.convention is Convention.MIXED
    elapsed = time.perf_counter() - start
    print(
        f"criterion 4: duality residual {worst:.2e} <= 1e-9 statewise over "
        f"{len(instances)} instances, selection unique={unique_all}, "
        f"in {elapsed:.1f}s"
    )
    assert worst <= 1e-9
    assert unique_all
    assert elapsed < 60.0


def test_criterion_05_weight_positivity():
    instances = _ensure_duality_instances()
    worst_min = np.inf
    for sys_, driver, _ in instances:
        _, l_bound = driver.bounds(sys_)
        sde = WeightSde.from_driver(driver, Convention.MIXED)
        for k in range(sys_.horizon):
            report = weight_bounds(
                sys_,
                WeightSde(sde.alpha, sde.beta, sde.convention, k),
                beta_bound=l_bound if k == 0 else None,
            )
            if k == 0:
                assert report.positivity.passed
            worst_min = min(worst_min, report.min_weight)
    print(
        f"criterion 5: minimum enumerated weight {worst_min:.2e} >= -1e-10 "
        f"over {len(instances)} instances, all start times"
    )
    assert worst_min >= -1e-10


def test_criterion_06_comparison():
    from smcbsde.instances import random_comparison_pair

    start = time.perf_counter()
    rng = np.random.default_rng(2024_06)
    worst = -np.inf
    for _ in range(100):
        model = random_model(rng, n_max=3, t_max=4)
        sys_ = build_lattice(model)
        d1, t1, d2, t2 = random_comparison_pair(sys_, rng)
        s1 = solve_bsde(sys_, d1, t1)
        s2 = solve_bsde(sys_, d2, t2)
        gap = s1.values - s2.values
        worst = max(worst, float(np.nanmax(gap)))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6: worst ordering excess {worst:.2e} <= 1e-10 over "
        f"100 pairs in {elapsed:.1f}s"
    )
    assert worst <= 1e-10
    assert elapsed < 30.0


solved_cache = []


def test_criterion_07_control_optimality():
    start = time.perf_counter()
    instances = _ensure_control_instances()
    worst = 0.0
    worst_dominance = -np.inf
    for sys_, problem in instances:
        solved = solve_control(problem, sys_)
        brute = brute_force_value(problem, sys_)
        assert brute.n_policies <= 10**6
        mask = ~np.isnan(solved.values)
        worst = max(
            worst,
            float(np.max(np.abs(solved.values[mask] - brute.per_time_max[mask]))),
        )
        worst_dominance = max(
            worst_dominance,
            float(np.max(brute.per_time_max[mask] - solved.values[mask])),
        )
        solved_cache.append((sys_, problem, solved))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7: |dp - brute force| {worst:.2e} <= 1e-9 and policy "
        f"dominance excess {worst_dominance:.2e} <= 1e-10 over "
        f"{len(instances)} instances in {elapsed:.1f}s"
    )
    assert worst <= 1e-9
    assert worst_dominance <= 1e-10
    assert elapsed < 300.0


def test_criterion_08_epsilon_optimality_bound():
    if not solved_cache:
        for sys_, problem in _ensure_control_instances():
            solved_cache.append((sys_, problem, solve_control(problem, sys_)))
    checked = 0
    for sys_, problem, solved in solved_cache:
        for eps in (1e-2, 1e-3):
            _, report = epsilon_optimal_policy(problem, sys_, solved, eps)
            assert report.measured <= report.bound + 1e-15, (
                f"measured {report.measured} exceeds bound {report.bound} "
                f"at eps={eps}"
            )
            checked += 1
    print(
        f"criterion 8: measured squared gap within T^2 eps^2 C~ on "
        f"{checked} (instance, eps) pairs"
    )
    assert checked == 100


def test_criterion_09_monte_carlo_consistency():
    from smcbsde import simulate_paths

    deltas = (0.3, 0.6)
    horizon = 10
    model = geometric_model(deltas, horizon)
    n = 100_000
    states, durations = simulate_paths(model, n, seed=2024_09)
    again = simulate_paths(model, n, seed=2024_09)
    assert states.tobytes() == again[0].tobytes()
    assert durations.tobytes() == again[1].tobytes()

    # first sojourn length from the fixed start state: categorical with
    # probabilities pi_0(m) for m <= T and survivor mass beyond
    changed = states[:, 1:] != states[:, :1]
    has_jump = changed.any(axis=1)
    first = np.where(has_jump, changed.argmax(axis=1) + 1, horizon + 1)
    checked = 0
    for m in range(1, horizon + 1):
        p = model.pi[0, m - 1]
        obs = float((first == m).mean())
        band = 3.0 * np.sqrt(p * (1.0 - p) / n)
        assert abs(obs - p) <= band, f"sojourn bin {m}: {obs} vs {p}"
        checked += 1
    tail = (1.0 - deltas[0]) ** horizon
    obs_tail = float((first == horizon + 1).mean())
    assert abs(obs_tail - tail) <= 3.0 * np.sqrt(tail * (1 - tail) / n)

    # duration-resolved one-step transition frequencies against the
    # transition matrix columns
    sq = sojourn_quantities(model)
    cells = 0
    for m in (1, 2, 3, 4):
        a = transition_matrix(model, m, sq)
        for i in (0, 1):
            here = (states[:, :-1] == i) & (durations[:, :-1] == m)
            count = int(here.sum())
            if count < 500:
                continue
            nxt = states[:, 1:][here]
            for j in (0, 1):
                p = a[j, i] if j != i else 1.0 - sq.hazard[i, m - 1]
                obs = float((nxt == j).mean())
                band = 3.0 * np.sqrt(p * (1.0 - p) / count)
                assert abs(obs - p) <= band, (
                    f"transition ({i},{m})->{j}: {obs} vs {p}"
                )
                cells += 1
    print(
        f"criterion 9: {n} paths reproduce the sojourn law ({checked} bins) "
        f"and transition columns ({cells} cells) within 3 sigma; "
        "same-seed rerun byte-identical"
    )
    assert cells >= 8


def test_criterion_10_z_equivalence_coherence():
    rng = np.random.default_rng(2024_10)
    discrepancies = 0
    checked = 0
    for _ in range(12):
        model = random_model(rng, n_max=3, t_max=4)
        sys_ = build_lattice(model)
        t = sys_.horizon
        for _ in range(12):
            k = int(rng.integers(t))
            row1 = rng.standard_normal(sys_.dim)
            kind = rng.random()
            if kind < 0.4:
                row2 = row1 + rng.uniform(-3, 3)  # same class
            elif kind < 0.6:
                row2 = row1.copy()  # off-support junk only
                union = {
                    int(j)
                    for s in sys_.reachable_at[k]
                    for j in geometry_for(sys_, int(s)).support
                }
                off = [j for j in range(sys_.dim) if j not in union]
                if off:
                    row2[off] += rng.standard_normal(len(off))
            else:
                row2 = rng.standard_normal(sys_.dim)
            diff_rows = [
                row1 - row2 if u == k else np.zeros(sys_.dim) for u in range(t)
            ]
            sem_zero = noise_seminorm(sys_, diff_rows, up_to=t - 1) <= 1e-9
            pathwise = integrands_equivalent(sys_, k, row1, row2)
            canonical = bool(
                np.allclose(
                    canonical_integrand(sys_, k, row1),
                    canonical_integrand(sys_, k, row2),
                    atol=1e-9,
                )
            )
            if not (sem_zero == pathwise == canonical):
                discrepancies += 1
            checked += 1
    print(
        f"criterion 10: three-way equivalence coherence on {checked} row "
        f"pairs, {discrepancies} discrepancies"
    )
    assert checked == 144
    assert discrepancies == 0
