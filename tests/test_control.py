"""Control over a finite action grid: per-step maximisation, brute-force
oracle agreement, policy dominance, hypothesis gating, near-optimal policies."""

from dataclasses import replace

import numpy as np
import pytest

from smcbsde import (
    ControlProblem,
    HypothesisError,
    PolicyTable,
    brute_force_value,
    build_lattice,
    epsilon_optimal_policy,
    evaluate_policy,
    solve_bsde,
    solve_control,
)
from smcbsde.instances import random_control_problem, random_model

from conftest import geometric_model, tiny_model
from dense import control_index, dense_beta, geometry_for, hamiltonian, max_driver


def small_system(rng, t_max=3):
    model = random_model(rng, n_max=2, t_max=t_max, n=2)
    return build_lattice(model)


def test_control_problem_validation():
    rng = np.random.default_rng(30)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng)
    prob.validate(sys_)
    bad = ControlProblem(
        controls=prob.controls,
        alpha=prob.alpha,
        beta=prob.beta,
        g=prob.g,
        terminal=prob.terminal,
        alpha_bound=1e-6,  # declared bound far below the actual entries
        beta_bound=prob.beta_bound,
    )
    with pytest.raises(ValueError):
        bad.validate(sys_)
    with pytest.raises(ValueError):
        ControlProblem(
            controls=prob.controls,
            alpha=prob.alpha[..., :1],
            beta=prob.beta,
            g=prob.g,
            terminal=prob.terminal,
            alpha_bound=prob.alpha_bound,
            beta_bound=prob.beta_bound,
        )


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("field", ["alpha_bound", "beta_bound"])
def test_control_problem_rejects_a_non_finite_bound(field, value):
    # an infinite bound saved as JSON null, and a NaN bound passed every
    # check in validate
    rng = np.random.default_rng(38)
    prob = random_control_problem(small_system(rng), rng)
    with pytest.raises(ValueError, match=f"{field} must be finite, not {value}"):
        replace(prob, **{field: value})


def test_hamiltonian_and_max_driver_by_hand():
    rng = np.random.default_rng(31)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng, n_controls=3)
    k, s = 0, int(sys_.reachable_at[0][0])
    geo = geometry_for(sys_, s)
    y = 0.7
    z = rng.standard_normal(sys_.dim)
    expected = [
        float(
            prob.alpha[k, s, u] * y
            + dense_beta(sys_, prob.beta)[k, s, u] @ (geo.projector @ z)
            + prob.g[k, s, u]
        )
        for u in range(3)
    ]
    for u in range(3):
        assert hamiltonian(prob, sys_, k, s, y, z, u) == pytest.approx(
            expected[u], abs=1e-13
        )
    best, idx, vals = max_driver(prob, sys_, k, s, y, z)
    assert best == pytest.approx(max(expected), abs=1e-13)
    assert idx == int(np.argmax(expected))
    np.testing.assert_allclose(vals, expected, atol=1e-13)


def test_max_driver_tie_breaks_to_lowest_index():
    rng = np.random.default_rng(32)
    sys_ = small_system(rng)
    base = random_control_problem(sys_, rng, n_controls=2)
    # duplicate control 0 into control 1: every cell ties
    prob = ControlProblem(
        controls=base.controls,
        alpha=np.repeat(base.alpha[..., :1], 2, axis=2),
        beta=np.repeat(base.beta[:, :, :1], 2, axis=2),
        g=np.repeat(base.g[..., :1], 2, axis=2),
        terminal=base.terminal,
        alpha_bound=base.alpha_bound,
        beta_bound=base.beta_bound,
    )
    _, idx, _ = max_driver(
        prob, sys_, 0, int(sys_.reachable_at[0][0]), 0.3,
        np.zeros(sys_.dim)
    )
    assert idx == 0
    solved = solve_control(prob, sys_)
    assert solved.ties > 0
    chosen = solved.policy.choices[solved.policy.choices >= 0]
    assert np.all(chosen == 0)


def test_solve_control_matches_brute_force():
    rng = np.random.default_rng(33)
    for _ in range(6):
        sys_ = small_system(rng)
        prob = random_control_problem(
            sys_, rng, n_controls=int(rng.integers(2, 4))
        )
        solved = solve_control(prob, sys_)
        brute = brute_force_value(prob, sys_)
        mask = ~np.isnan(solved.values)
        np.testing.assert_allclose(
            solved.values[mask], brute.per_time_max[mask], atol=1e-9
        )
        # every fixed policy is dominated
        assert np.all(
            brute.per_time_max[mask] <= solved.values[mask] + 1e-10
        )


def test_argmax_policy_attains_the_value():
    rng = np.random.default_rng(34)
    for _ in range(5):
        sys_ = small_system(rng)
        prob = random_control_problem(sys_, rng)
        solved = solve_control(prob, sys_)
        achieved = evaluate_policy(prob, sys_, solved.policy)
        mask = ~np.isnan(solved.values)
        np.testing.assert_allclose(
            achieved.values[mask], solved.values[mask], atol=1e-11
        )


def test_best_policy_from_brute_force_is_consistent():
    rng = np.random.default_rng(35)
    sys_ = small_system(rng, t_max=2)
    prob = random_control_problem(sys_, rng)
    brute = brute_force_value(prob, sys_)
    achieved = evaluate_policy(prob, sys_, brute.best_policy)
    weights = sys_.dist_at[0]
    reach0 = sys_.reachable_at[0]
    assert float(
        achieved.values[0, reach0] @ weights[reach0]
    ) == pytest.approx(brute.objective, abs=1e-11)
    assert brute.n_policies == prob.n_controls ** sum(
        len(sys_.reachable_at[k]) for k in range(sys_.horizon)
    )


def test_brute_force_policy_cap():
    rng = np.random.default_rng(36)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng, n_controls=3)
    with pytest.raises(ValueError):
        brute_force_value(prob, sys_, max_policies=2)


def test_brute_force_cap_names_a_count_of_any_size():
    # 3**10375 policies: the count has 4,950 digits, past the 4,300 that
    # Python converts to a string, so the message names it as a power
    sys_ = build_lattice(geometric_model((0.3, 0.6), 128))
    cells = int(sys_.plan.offset[sys_.horizon])
    assert cells * np.log10(3.0) > 4300
    prob = random_control_problem(sys_, np.random.default_rng(38),
                                  n_controls=3)
    with pytest.raises(ValueError) as err:
        brute_force_value(prob, sys_, max_policies=100_000)
    assert str(err.value) == f"3**{cells} policies exceed its cap of 100000"


def test_constant_g_shift_leaves_policy_invariant():
    # When drift/noise coefficients are shared across controls, adding a
    # constant to every running term shifts values but not the argmax.
    rng = np.random.default_rng(37)
    sys_ = small_system(rng)
    prob = random_control_problem(
        sys_, rng, control_dependent_alpha=False, n_controls=2
    )
    beta_shared = np.repeat(prob.beta[:, :, :1], 2, axis=2)
    prob = ControlProblem(
        controls=prob.controls,
        alpha=prob.alpha,
        beta=beta_shared,
        g=prob.g,
        terminal=prob.terminal,
        alpha_bound=prob.alpha_bound,
        beta_bound=prob.beta_bound,
    )
    shifted = ControlProblem(
        controls=prob.controls,
        alpha=prob.alpha,
        beta=prob.beta,
        g=prob.g + 0.37,
        terminal=prob.terminal,
        alpha_bound=prob.alpha_bound,
        beta_bound=prob.beta_bound,
    )
    p1 = solve_control(prob, sys_).policy
    p2 = solve_control(shifted, sys_).policy
    assert np.array_equal(p1.choices, p2.choices)


def test_hypothesis_gate_raises_and_overrides():
    rng = np.random.default_rng(38)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng)
    loose = ControlProblem(
        controls=prob.controls,
        alpha=prob.alpha,
        beta=prob.beta,
        g=prob.g,
        terminal=prob.terminal,
        alpha_bound=prob.alpha_bound,
        beta_bound=1e3,  # declared bound fails both conditions
    )
    with pytest.raises(HypothesisError):
        solve_control(loose, sys_)
    with pytest.warns(RuntimeWarning):
        solved = solve_control(loose, sys_, override_hypotheses=True)
    assert not solved.positivity.passed
    # the computed values are unaffected by the declared bound
    strict = solve_control(prob, sys_)
    mask = ~np.isnan(strict.values)
    np.testing.assert_allclose(solved.values[mask], strict.values[mask],
                               atol=1e-12)


def test_policy_table_accessors():
    table = PolicyTable(np.array([[0, -1], [1, 2]]))
    assert control_index(table, 0, 0) == 0
    assert control_index(table, 1, 1) == 2
    with pytest.raises(KeyError):
        control_index(table, 0, 1)
    with pytest.raises(ValueError):
        PolicyTable(np.zeros(3))


def test_epsilon_zero_recovers_argmax_policy():
    rng = np.random.default_rng(39)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng)
    solved = solve_control(prob, sys_)
    policy, report = epsilon_optimal_policy(prob, sys_, solved, 0.0)
    assert np.array_equal(policy.choices, solved.policy.choices)
    assert report.measured <= 1e-20
    assert report.within_bound


def test_epsilon_policy_bound_holds():
    rng = np.random.default_rng(40)
    for _ in range(4):
        sys_ = small_system(rng)
        prob = random_control_problem(sys_, rng)
        solved = solve_control(prob, sys_)
        for eps in (1e-2, 1e-3):
            policy, report = epsilon_optimal_policy(prob, sys_, solved, eps)
            assert report.epsilon == eps
            assert report.measured <= report.bound + 1e-12
            assert report.within_bound
            # the near-optimal policy can only fall short of the optimum
            mask = ~np.isnan(solved.values)
            gap = solved.values[mask] - report.policy_solution.values[mask]
            assert np.all(gap >= -1e-10)
            assert report.c_tilde > 0.0


def test_epsilon_large_prefers_low_indices():
    rng = np.random.default_rng(41)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng, n_controls=3)
    solved = solve_control(prob, sys_)
    policy, _ = epsilon_optimal_policy(prob, sys_, solved, 1e6)
    chosen = policy.choices[policy.choices >= 0]
    assert np.all(chosen == 0)
    with pytest.raises(ValueError):
        epsilon_optimal_policy(prob, sys_, solved, -1.0)


def test_epsilon_accepts_plain_solution():
    rng = np.random.default_rng(42)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng)
    solved = solve_control(prob, sys_)
    policy, _ = epsilon_optimal_policy(prob, sys_, solved.solution, 1e-3)
    assert policy.choices.shape == (sys_.horizon, sys_.dim)


def test_single_control_problem_reduces_to_bsde():
    rng = np.random.default_rng(43)
    sys_ = small_system(rng)
    prob = random_control_problem(sys_, rng, n_controls=1)
    solved = solve_control(prob, sys_)
    from smcbsde import LinearDriver

    driver = LinearDriver(
        prob.alpha[:, :, 0], prob.g[:, :, 0], prob.beta[:, :, 0]
    )
    direct = solve_bsde(sys_, driver, prob.terminal)
    mask = ~np.isnan(solved.values)
    np.testing.assert_allclose(solved.values[mask], direct.values[mask],
                               atol=1e-12)


def test_control_gate_reports_frozen_scale_constant():
    sys_ = build_lattice(tiny_model())
    rng = np.random.default_rng(44)
    prob = random_control_problem(sys_, rng)
    solved = solve_control(prob, sys_)
    assert solved.positivity.passed and solved.comparison.passed
    assert solved.lambda_overall == pytest.approx(np.sqrt(13.0 / 6.0), rel=1e-12)
