"""Backward solver: closed-form oracles, martingale-representation exactness,
nonlinear drivers via verified root finding, and the comparison check."""

import tracemalloc

import numpy as np
import pytest

from smcbsde import (
    BijectionError,
    BsdeSolution,
    DegenerateDriverError,
    GeneralDriver,
    LinearDriver,
    build_lattice,
    check_comparison,
    solve_bsde,
)
from smcbsde.instances import (
    random_comparison_pair,
    random_linear_instance,
    random_model,
)

from conftest import geometric_model, tiny_model
from dense import dense_beta, geometry_for, transition


def expectation_oracle(sys_, terminal, k, s):
    """E[terminal(X_T) | X_k = e_s] via forward matrix powers."""
    dist = np.zeros(sys_.dim)
    dist[s] = 1.0
    for _ in range(sys_.horizon - k):
        dist = transition(sys_) @ dist
    return float(np.asarray(terminal) @ dist)


def test_zero_driver_equals_conditional_expectation():
    rng = np.random.default_rng(1)
    for _ in range(10):
        model = random_model(rng, n_max=4, t_max=6)
        sys_ = build_lattice(model)
        terminal = rng.uniform(-1, 1, sys_.dim)
        driver = LinearDriver.constant(sys_.horizon, sys_.dim)
        sol = solve_bsde(sys_, driver, terminal)
        for k in range(sys_.horizon + 1):
            for s in sys_.reachable_at[k]:
                s = int(s)
                assert sol.values[k, s] == pytest.approx(
                    expectation_oracle(sys_, terminal, k, s), abs=1e-12
                )


def test_constant_drift_closed_form():
    # With driver a*y the step divides by (1 - a) once per remaining period.
    rng = np.random.default_rng(2)
    model = random_model(rng, n_max=3, t_max=5)
    sys_ = build_lattice(model)
    terminal = rng.uniform(-1, 1, sys_.dim)
    a = 0.3
    driver = LinearDriver.constant(sys_.horizon, sys_.dim, alpha=a)
    sol = solve_bsde(sys_, driver, terminal)
    for k in range(sys_.horizon + 1):
        for s in sys_.reachable_at[k]:
            s = int(s)
            expected = expectation_oracle(sys_, terminal, k, s) / (
                (1.0 - a) ** (sys_.horizon - k)
            )
            assert sol.values[k, s] == pytest.approx(expected, abs=1e-11)


def test_constant_running_term_closed_form():
    rng = np.random.default_rng(3)
    model = random_model(rng, n_max=3, t_max=6)
    sys_ = build_lattice(model)
    terminal = rng.uniform(-1, 1, sys_.dim)
    g = 0.25
    driver = LinearDriver.constant(sys_.horizon, sys_.dim, g=g)
    sol = solve_bsde(sys_, driver, terminal)
    for k in range(sys_.horizon + 1):
        for s in sys_.reachable_at[k]:
            s = int(s)
            expected = expectation_oracle(sys_, terminal, k, s) + g * (
                sys_.horizon - k
            )
            assert sol.values[k, s] == pytest.approx(expected, abs=1e-12)


def test_tiny_model_full_hand_computation():
    # Zero driver, terminal = indicator of state (1,1): Y_0(0,1) = 0.4.
    sys_ = build_lattice(tiny_model())
    terminal = np.zeros(4)
    terminal[1] = 1.0
    sol = solve_bsde(sys_, LinearDriver.constant(1, 4), terminal)
    assert sol.values[0, 0] == pytest.approx(0.4, abs=1e-15)
    # And the integrand must reproduce the innovation exactly: the realized
    # next value minus its conditional mean is z . (e_j - column).
    z = sol.integrands[0, 0]
    c = geometry_for(sys_, 0).column
    for j in (1, 2):
        inc = -c.copy()
        inc[j] += 1.0
        assert z @ inc == pytest.approx(terminal[j] - 0.4, abs=1e-15)


def test_integrand_representation_exactness():
    rng = np.random.default_rng(4)
    for _ in range(10):
        model = random_model(rng, n_max=4, t_max=6)
        sys_ = build_lattice(model)
        driver, terminal = random_linear_instance(sys_, rng)
        sol = solve_bsde(sys_, driver, terminal)
        for k in range(sys_.horizon):
            for s in sys_.reachable_at[k]:
                s = int(s)
                geo = geometry_for(sys_, s)
                z = sol.integrands[k, s]
                sup = geo.support
                mean = float(geo.column[sup] @ sol.values[k + 1][sup])
                for j in geo.support:
                    j = int(j)
                    inc = -geo.column.copy()
                    inc[j] += 1.0
                    assert z @ inc == pytest.approx(
                        sol.values[k + 1, j] - mean, abs=1e-12
                    )
                # canonical: supported and mean-zero under the successor law
                off = np.setdiff1d(np.arange(sys_.dim), geo.support)
                assert np.all(z[off] == 0.0)
                assert float(geo.column @ z) == pytest.approx(0.0, abs=1e-12)


def test_general_driver_matches_linear_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(5):
        model = random_model(rng, n_max=3, t_max=5)
        sys_ = build_lattice(model)
        linear, terminal = random_linear_instance(sys_, rng)

        def fn(k, s, y, z, linear=linear, sys_=sys_):
            proj = geometry_for(sys_, s).projector
            return float(
                linear.alpha[k, s] * y
                + dense_beta(sys_, linear.beta)[k, s] @ (proj @ z)
                + linear.g[k, s]
            )

        general = GeneralDriver(fn)
        sol_lin = solve_bsde(sys_, linear, terminal)
        sol_gen = solve_bsde(sys_, general, terminal)
        np.testing.assert_allclose(
            sol_gen.values[~np.isnan(sol_gen.values)],
            sol_lin.values[~np.isnan(sol_lin.values)],
            atol=1e-10,
        )


def test_general_driver_nonlinear_fixed_point_residual():
    rng = np.random.default_rng(6)
    model = random_model(rng, n_max=3, t_max=5)
    sys_ = build_lattice(model)
    terminal = rng.uniform(-1, 1, sys_.dim)

    def fn(k, s, y, z):
        # y-slope at most 0.4, so y - f is strictly increasing everywhere
        return 0.4 * np.tanh(y) + 0.1 * np.tanh(float(np.sum(z)))

    driver = GeneralDriver(fn)
    sol = solve_bsde(sys_, driver, terminal)
    for k in range(sys_.horizon):
        for s in sys_.reachable_at[k]:
            s = int(s)
            geo = geometry_for(sys_, s)
            sup = geo.support
            mean = float(geo.column[sup] @ sol.values[k + 1][sup])
            y = sol.values[k, s]
            assert y - fn(k, s, y, sol.integrands[k, s]) - mean == pytest.approx(
                0.0, abs=1e-10
            )


def test_degenerate_drift_raises():
    sys_ = build_lattice(tiny_model())
    driver = LinearDriver.constant(1, 4, alpha=1.0)
    with pytest.raises(DegenerateDriverError):
        solve_bsde(sys_, driver, np.ones(4))


def test_non_bijective_general_driver_raises():
    sys_ = build_lattice(tiny_model())
    driver = GeneralDriver(lambda k, s, y, z: 2.0 * y)
    with pytest.raises(BijectionError):
        solve_bsde(sys_, driver, np.ones(4))


def test_terminal_validation():
    sys_ = build_lattice(tiny_model())
    driver = LinearDriver.constant(1, 4)
    with pytest.raises(ValueError):
        solve_bsde(sys_, driver, np.ones(3))
    bad = np.ones(4)
    bad[2] = np.nan  # state (0,2) is reachable at the horizon
    with pytest.raises(ValueError):
        solve_bsde(sys_, driver, bad)


def test_solution_value_at():
    sys_ = build_lattice(tiny_model())
    sol = solve_bsde(sys_, LinearDriver.constant(1, 4), np.ones(4))
    assert sol.value_at(0, 0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sol.value_at(0, 3)
    assert isinstance(sol, BsdeSolution)
    np.testing.assert_allclose(sol.terminal[[1, 2]], 1.0)


def test_linear_solve_keeps_integrands_local():
    # geometric N=6, T=60: D=366, so an ambient (T, D, D) integrand table
    # would take 64 MB; the local rows (T, D, W) take 1 MB
    sys_ = build_lattice(geometric_model(np.linspace(0.2, 0.7, 6), 60))
    driver = LinearDriver.constant(sys_.horizon, sys_.dim, alpha=0.1, g=0.5)
    terminal = np.linspace(-1.0, 1.0, sys_.dim)
    tracemalloc.start()
    try:
        sol = solve_bsde(sys_, driver, terminal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert sol.local_integrands.shape == (sys_.horizon,) + sys_.succ.shape


def test_unreachable_inputs_do_not_matter():
    # Perturbing driver tables and terminal off the reachable set leaves the
    # solution unchanged.
    rng = np.random.default_rng(8)
    model = random_model(rng, n_max=3, t_max=4)
    sys_ = build_lattice(model)
    driver, terminal = random_linear_instance(sys_, rng)
    sol1 = solve_bsde(sys_, driver, terminal)
    alpha = driver.alpha.copy()
    g = driver.g.copy()
    beta = driver.beta.copy()
    term = terminal.copy()
    for k in range(sys_.horizon):
        off = np.setdiff1d(np.arange(sys_.dim), sys_.reachable_at[k])
        alpha[k, off] += 0.31
        g[k, off] -= 2.0
        beta[k, off] += 1.0
    off_t = np.setdiff1d(np.arange(sys_.dim), sys_.reachable_at[sys_.horizon])
    term[off_t] = 99.0
    sol2 = solve_bsde(sys_, LinearDriver(alpha, g, beta), term)
    mask = ~np.isnan(sol1.values)
    np.testing.assert_array_equal(sol1.values[mask], sol2.values[mask])


def test_check_comparison_ordered_pairs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        model = random_model(rng, n_max=3, t_max=4)
        sys_ = build_lattice(model)
        d1, t1, d2, t2 = random_comparison_pair(sys_, rng)
        report = check_comparison(sys_, d1, d2, t1, t2)
        assert report.terminal_ordered
        assert report.drivers_ordered
        assert report.condition_passed
        assert report.ordered
        assert report.max_violation <= 1e-10


def test_check_comparison_reports_unmet_hypotheses():
    rng = np.random.default_rng(10)
    model = random_model(rng, n_max=3, t_max=4)
    sys_ = build_lattice(model)
    d1, t1, d2, t2 = random_comparison_pair(sys_, rng)
    # flip the terminals: hypothesis (I) fails, nothing is asserted
    report = check_comparison(sys_, d2, d1, t2, t1)
    assert not (report.terminal_ordered and report.drivers_ordered)


def test_comparison_with_equal_inputs_is_tight():
    rng = np.random.default_rng(11)
    model = random_model(rng, n_max=3, t_max=4)
    sys_ = build_lattice(model)
    driver, terminal = random_linear_instance(sys_, rng, comparison_safe=True)
    report = check_comparison(sys_, driver, driver, terminal, terminal)
    assert report.ordered
    assert report.max_violation <= 1e-12


def test_driver_bounds():
    sys_ = build_lattice(geometric_model([0.3, 0.6], 3))
    rng = np.random.default_rng(12)
    driver, _ = random_linear_instance(sys_, rng)
    p, l = driver.bounds(sys_)
    assert p >= float(np.abs(driver.alpha).max()) - 1e-12
    for k in range(sys_.horizon):
        for s in sys_.reachable_at[k]:
            assert np.linalg.norm(driver.beta[k, int(s)]) <= l + 1e-12
