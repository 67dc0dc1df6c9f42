"""Weighted forward representation of linear backward solutions.

The step factor (1 + noise adjustment)/(1 - drift) reproduces the backward
solution exactly; the two single-parameter forms (purely implicit, purely
shifted) coincide with it only when the other coefficient family vanishes.
The tiny-model tests below verify all of this by direct scalar arithmetic
against frozen matrices.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcbsde import (
    Convention,
    DEFAULT_CONVENTION,
    LinearDriver,
    SelectionError,
    SemiMarkovModel,
    VanishingDenominatorError,
    WeightSde,
    build_lattice,
    dual_value,
    epsilon_optimal_policy,
    evolve_weights,
    select_convention,
    solve_bsde,
    solve_control,
    weight_bounds,
)
from smcbsde import duality, instances
from smcbsde.duality import (
    DENOMINATOR_TOL,
    _drawn_paths,
    _factors,
    _path_slots,
    _walk,
)
from smcbsde.instances import (
    random_control_problem,
    random_linear_instance,
    random_model,
)
from smcbsde.lattice import BLOCK_ENTRIES

from conftest import geometric_model, tiny_model, uniform_jump
from dense import (
    check_walked_denominators,
    dense_beta,
    enumerate_paths,
    full_factors,
    full_noise,
    geometry_for,
    transition,
)

TINY_COLUMN = np.array([0.0, 0.4, 0.6, 0.0])


def tiny_bracket():
    e0 = np.zeros(4)
    e0[0] = 1.0
    c = TINY_COLUMN
    return np.diag(c) - np.outer(e0, c) - np.outer(c, e0)


def tiny_driver(alpha=0.3, g=0.5, beta_row=(0.0, 0.2, -0.1, 0.0)):
    alpha_t = np.zeros((1, 4))
    alpha_t[0, 0] = alpha
    g_t = np.zeros((1, 4))
    g_t[0, 0] = g
    beta_t = np.zeros((1, 4, 4))
    beta_t[0, 0] = beta_row
    return LinearDriver(alpha_t, g_t, beta_t)


def noise_adjustments(beta_row):
    """n_j = beta . pinv(bracket) . (e_j - column), from frozen literals."""
    row = np.asarray(beta_row) @ np.linalg.pinv(tiny_bracket())
    return {j: float(row[j] - row @ TINY_COLUMN) for j in (1, 2)}


def test_default_convention_is_the_exact_kernel():
    assert DEFAULT_CONVENTION is Convention.MIXED
    assert {c.value for c in Convention} == {"implicit", "shifted", "mixed"}


def test_step_factors_by_hand():
    sys_ = build_lattice(tiny_model())
    alpha, beta_row = 0.3, (0.0, 0.2, -0.1, 0.0)
    driver = tiny_driver(alpha=alpha, beta_row=beta_row)
    n = noise_adjustments(beta_row)
    for j in (1, 2):
        path = [0, j]
        v_mixed = evolve_weights(
            sys_, WeightSde.from_driver(driver, Convention.MIXED), path
        )
        assert v_mixed[1] == pytest.approx((1 + n[j]) / (1 - alpha), abs=1e-14)
        v_impl = evolve_weights(
            sys_, WeightSde.from_driver(driver, Convention.IMPLICIT), path
        )
        assert v_impl[1] == pytest.approx(1 / (1 - alpha - n[j]), abs=1e-14)
        v_shift = evolve_weights(
            sys_, WeightSde.from_driver(driver, Convention.SHIFTED), path
        )
        assert v_shift[1] == pytest.approx(1 + alpha + n[j], abs=1e-14)


def test_evolve_weights_rejects_unrealizable_path():
    sys_ = build_lattice(tiny_model())
    sde = WeightSde.from_driver(tiny_driver(), Convention.MIXED)
    with pytest.raises(ValueError):
        evolve_weights(sys_, sde, [0, 3])


def test_one_step_duality_by_hand():
    sys_ = build_lattice(tiny_model())
    alpha, g, beta_row = 0.3, 0.5, (0.0, 0.2, -0.1, 0.0)
    driver = tiny_driver(alpha, g, beta_row)
    terminal = np.array([0.0, 1.0, -0.5, 0.0])
    # backward, by hand: mean = .4 - .3 = .1; z = (0, .9, -.6, 0);
    # beta . z = .18 + .06 = .24; y = (.1 + .24 + .5) / .7 = .84/.7 = 1.2
    sol = solve_bsde(sys_, driver, terminal)
    assert sol.values[0, 0] == pytest.approx(0.84 / 0.7, abs=1e-14)

    n = noise_adjustments(beta_row)
    exact = (
        sum(TINY_COLUMN[j] * terminal[j] * (1 + n[j]) for j in (1, 2)) + g
    ) / (1 - alpha)
    assert exact == pytest.approx(0.84 / 0.7, abs=1e-13)

    dual = dual_value(
        sys_, WeightSde.from_driver(driver, Convention.MIXED), driver.g, terminal
    )
    assert dual[0] == pytest.approx(0.84 / 0.7, abs=1e-13)

    # the single-parameter forms are wrong here (both coefficients active)
    for conv in (Convention.IMPLICIT, Convention.SHIFTED):
        off = dual_value(
            sys_, WeightSde.from_driver(driver, conv), driver.g, terminal
        )
        assert abs(off[0] - sol.values[0, 0]) > 1e-3


def test_single_parameter_forms_exact_on_their_subfamilies():
    sys_ = build_lattice(tiny_model())
    terminal = np.array([0.0, 1.0, -0.5, 0.0])

    def residual(driver, sol, conv):
        dual = dual_value(
            sys_, WeightSde.from_driver(driver, conv), driver.g, terminal
        )
        return abs(dual[0] - sol.values[0, 0])

    # drift only, no running term: the implicit form agrees with the exact
    # kernel, the shifted one does not
    driver = tiny_driver(alpha=0.4, g=0.0, beta_row=(0.0, 0.0, 0.0, 0.0))
    sol = solve_bsde(sys_, driver, terminal)
    assert residual(driver, sol, Convention.IMPLICIT) <= 1e-12
    assert residual(driver, sol, Convention.MIXED) <= 1e-12
    assert residual(driver, sol, Convention.SHIFTED) > 1e-3

    # drift only with a running term: the implicit step factor is still
    # right, but it weights the running term by V instead of V/(1-a), so it
    # loses exactness while the mixed form keeps it
    driver = tiny_driver(alpha=0.4, g=0.2, beta_row=(0.0, 0.0, 0.0, 0.0))
    sol = solve_bsde(sys_, driver, terminal)
    assert residual(driver, sol, Convention.MIXED) <= 1e-12
    assert residual(driver, sol, Convention.IMPLICIT) > 1e-3
    assert residual(driver, sol, Convention.SHIFTED) > 1e-3

    # noise only: shifted agrees (running weights coincide at zero drift),
    # implicit does not
    driver = tiny_driver(alpha=0.0, g=0.2, beta_row=(0.0, 0.3, -0.2, 0.0))
    sol = solve_bsde(sys_, driver, terminal)
    assert residual(driver, sol, Convention.SHIFTED) <= 1e-12
    assert residual(driver, sol, Convention.MIXED) <= 1e-12
    assert residual(driver, sol, Convention.IMPLICIT) > 1e-3


def test_enumerate_paths_probabilities():
    rng = np.random.default_rng(15)
    sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
    for start in range(sys_.horizon + 1):
        for s in sys_.reachable_at[start]:
            pairs = list(enumerate_paths(sys_, start, int(s)))
            total = sum(p for _, p in pairs)
            assert total == pytest.approx(1.0, abs=1e-12)
            # endpoint distribution equals forward matrix powers
            end = np.zeros(sys_.dim)
            for path, p in pairs:
                end[path[-1]] += p
            dist = np.zeros(sys_.dim)
            dist[int(s)] = 1.0
            for _ in range(sys_.horizon - start):
                dist = transition(sys_) @ dist
            np.testing.assert_allclose(end, dist, atol=1e-12)
    with pytest.raises(ValueError):
        list(enumerate_paths(sys_, sys_.horizon + 1, 0))


def test_dual_value_equals_backward_all_start_times():
    rng = np.random.default_rng(16)
    for _ in range(8):
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
        driver, terminal = random_linear_instance(sys_, rng)
        sol = solve_bsde(sys_, driver, terminal)
        sde = WeightSde.from_driver(driver, Convention.MIXED)
        for start in range(sys_.horizon + 1):
            dual = dual_value(sys_, sde, driver.g, terminal, start_time=start)
            reach = sys_.reachable_at[start]
            np.testing.assert_allclose(
                dual[reach], sol.values[start, reach], atol=1e-11
            )


def test_dual_value_monte_carlo_consistency():
    rng = np.random.default_rng(17)
    sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
    driver, terminal = random_linear_instance(sys_, rng)
    sde = WeightSde.from_driver(driver, Convention.MIXED)
    exact = dual_value(sys_, sde, driver.g, terminal)
    approx = dual_value(sys_, sde, driver.g, terminal, mc_paths=20000, seed=3)
    reach = sys_.reachable_at[0]
    np.testing.assert_allclose(approx[reach], exact[reach], atol=0.15)
    again = dual_value(sys_, sde, driver.g, terminal, mc_paths=20000, seed=3)
    np.testing.assert_array_equal(approx[reach], again[reach])


def test_weight_bounds_moments_and_sign():
    rng = np.random.default_rng(18)
    for _ in range(5):
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
        driver, _ = random_linear_instance(sys_, rng)
        _, l_bound = driver.bounds(sys_)
        sde = WeightSde.from_driver(driver, Convention.MIXED)
        report = weight_bounds(sys_, sde, beta_bound=l_bound)
        assert report.positivity is not None and report.positivity.passed
        assert report.min_weight >= -1e-10
        assert report.e_max_sq >= 1.0 - 1e-12
        assert report.e_max_running_sq > 0.0
        assert set(report.per_state) == {int(s) for s in sys_.reachable_at[0]}


def test_weight_bounds_sampled_close_to_exhaustive():
    rng = np.random.default_rng(19)
    sys_ = build_lattice(random_model(rng, n_max=2, t_max=3))
    driver, _ = random_linear_instance(sys_, rng)
    sde = WeightSde.from_driver(driver, Convention.MIXED)
    exact = weight_bounds(sys_, sde)
    sampled = weight_bounds(sys_, sde, samples=20000, seed=4)
    assert sampled.e_max_sq == pytest.approx(exact.e_max_sq, rel=0.2)


def test_negative_weights_outside_condition_do_not_assert():
    # Engineer a violating coefficient: noise adjustment below -1 flips the
    # weight sign.  The positivity report fails, so no assertion may fire.
    sys_ = build_lattice(tiny_model())
    scale = 0.0
    beta_row = None
    for mag in (1.0, 2.0, 5.0, 10.0, 25.0):
        cand = np.array([0.0, mag, -mag, 0.0])
        n = noise_adjustments(cand)
        if min(n.values()) < -1.2:
            beta_row = cand
            scale = mag
            break
    assert beta_row is not None, "failed to build a sign-flipping row"
    driver = tiny_driver(alpha=0.0, g=0.0, beta_row=beta_row)
    sde = WeightSde.from_driver(driver, Convention.MIXED)
    report = weight_bounds(sys_, sde, beta_bound=np.sqrt(2) * scale)
    assert not report.positivity.passed
    assert report.min_weight < 0.0


def test_vanishing_denominator_raises():
    sys_ = build_lattice(tiny_model())
    driver = tiny_driver(alpha=1.0, g=0.1)
    sde = WeightSde.from_driver(driver, Convention.MIXED)
    with pytest.raises(VanishingDenominatorError):
        dual_value(sys_, sde, driver.g, np.ones(4))


def test_select_convention_unique_and_exact():
    rng = np.random.default_rng(20)
    for seed in (0, 1):
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
        result = select_convention(sys_, trials=10, seed=seed)
        assert result.convention is Convention.MIXED
        assert result.unique
        assert result.residuals[Convention.MIXED][0] <= 1e-10
        for conv in (Convention.IMPLICIT, Convention.SHIFTED):
            assert result.residuals[conv][0] > 1e-6
        assert "mixed" in result.summary()


def test_select_convention_unsatisfiable_tolerance():
    rng = np.random.default_rng(21)
    sys_ = build_lattice(random_model(rng, n_max=2, t_max=3))
    with pytest.raises(SelectionError):
        select_convention(sys_, trials=4, seed=0, tol=1e-30)


def test_weight_sde_shape_validation():
    sys_ = build_lattice(tiny_model())
    sde = WeightSde(np.zeros((2, 4)), None)
    with pytest.raises(ValueError):
        dual_value(sys_, sde, np.zeros((2, 4)), np.ones(4))


# ---------------------------------------------------------------------------
# Differential oracle: path-by-path walkers (a per-cell factor cache, the
# exhaustive recursions and the sampled loops) that evaluate the same
# weights one path at a time, compared against the array engine.


class StepTables:
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
            g = geometry_for(self.sys, s)
            if self.sde.beta is None:
                row = None
                base = 0.0
            else:
                row = np.zeros(self.sys.dim)
                beta = dense_beta(self.sys, self.sde.beta)
                row[g.block] = beta[k, s][g.block] @ g.local_pinv
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


def reference_dual_value(sys, sde, g, terminal, mc_paths=None, seed=None):
    """Path-by-path dual valuation from sde.start_time."""
    start_time = sde.start_time
    t = sys.horizon
    tables = StepTables(sys, sde)
    out = np.full(sys.dim, np.nan)

    if mc_paths is not None:
        rng = np.random.default_rng(seed)
        for s in sys.reachable_at[start_time]:
            s = int(s)
            paths = _drawn_paths(sys, start_time, [s], mc_paths, rng)[0]
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
        geo = geometry_for(sys, s)
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


def reference_weight_bounds(sys, sde, samples=None, seed=None):
    """Path-by-path (per_state, min_weight) of the weights from sde.start_time.

    The sampled loop skips V_0 = 1 in min_weight; the engine counts it in
    both modes, so callers compare against min(1, min_weight).
    """
    tables = StepTables(sys, sde)
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
        geo = geometry_for(sys, s)
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
            paths = _drawn_paths(sys, start, [s], samples, rng)[0]
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
    return per_state, min_weight


def reference_expected_max_gap_sq(sys, delta):
    """E[max_k delta[k, X_k]^2] over the lattice chain from time 0."""
    t = sys.horizon

    def walk(k, s, running):
        running = max(running, delta[k, s] ** 2)
        if k == t:
            return running
        geo = geometry_for(sys, s)
        total = 0.0
        for j in geo.support:
            j = int(j)
            total += float(geo.column[j]) * walk(k + 1, j, running)
        return total

    start = sys.dist_at[0]
    return float(
        sum(
            float(start[int(s)]) * walk(0, int(s), 0.0)
            for s in sys.reachable_at[0]
            if start[int(s)] > 0.0
        )
    )


def reference_sample_paths(sys, start_time, state, n, rng):
    """Inverse-CDF sampling of lattice paths, one state at a time."""
    t = sys.horizon
    out = np.empty((n, t - start_time + 1), dtype=np.int64)
    out[:, 0] = state
    for j, k in enumerate(range(start_time, t)):
        cur = out[:, j]
        for s in np.unique(cur):
            g = geometry_for(sys, int(s))
            cum = np.cumsum(g.column[g.support])
            rows = cur == s
            u = rng.random(int(rows.sum())) * cum[-1]
            picks = np.searchsorted(cum, u, side="right")
            picks = np.minimum(picks, len(cum) - 1)
            out[rows, j + 1] = g.support[picks]
    return out


@pytest.mark.parametrize("n", [6, 1000])
def test_sample_paths_keep_their_stream(n):
    # the vectorised sampler hands one draw per path to the paths grouped by
    # state, which is the order the per-state loop drew them in
    rng = np.random.default_rng(71)
    models = [geometric_model((0.3, 0.6), 6),
              geometric_model((0.2, 0.5, 0.8), 9, x0=np.full(3, 1.0 / 3)),
              random_model(rng, n=4, t=7, sub_stochastic_prob=1.0)]
    for model in models:
        sys_ = build_lattice(model)
        for start in (0, sys_.horizon // 2, sys_.horizon):
            for s in sys_.reachable_at[start]:
                seed = int(rng.integers(2**31))
                got = _drawn_paths(sys_, start, [int(s)], n,
                                   np.random.default_rng(seed))[0]
                want = reference_sample_paths(sys_, start, int(s), n,
                                              np.random.default_rng(seed))
                np.testing.assert_array_equal(got, want)


def assert_close(got, want):
    # |got - want| <= 1e-12 * (1 + |want|), entry by entry
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def assert_same_weights(report, per_state, min_weight):
    assert list(report.per_state) == list(per_state)
    assert_close([report.per_state[s] for s in per_state], list(per_state.values()))
    assert_close(report.e_max_sq, max(v for v, _ in per_state.values()))
    assert_close(report.e_max_running_sq, max(w for _, w in per_state.values()))
    assert_close(report.min_weight, min(1.0, min_weight))
    assert report.positivity is None


def outcome(func, *args, **kwargs):
    """The result of a call, or the exception type it raised."""
    try:
        return func(*args, **kwargs)
    except VanishingDenominatorError:
        return VanishingDenominatorError


@st.composite
def linear_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys_ = build_lattice(random_model(rng, n_max=3, t_max=5))
    driver, terminal = random_linear_instance(sys_, rng)
    return sys_, driver, terminal, rng


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(linear_instances())
def test_forward_engine_matches_path_walkers(case):
    sys_, driver, terminal, rng = case
    for conv in Convention:
        for start in range(sys_.horizon + 1):
            sde = WeightSde(driver.alpha, driver.beta, conv, start)
            dual = dual_value(sys_, sde, driver.g, terminal)
            want = reference_dual_value(sys_, sde, driver.g, terminal)
            reach = sys_.reachable_at[start]
            assert np.isnan(dual).sum() == sys_.dim - reach.size
            assert_close(dual[reach], want[reach])
            assert_same_weights(weight_bounds(sys_, sde),
                                *reference_weight_bounds(sys_, sde))

            seed = int(rng.integers(2**31))
            dual = dual_value(sys_, sde, driver.g, terminal, mc_paths=30,
                              seed=seed)
            want = reference_dual_value(sys_, sde, driver.g, terminal,
                                        mc_paths=30, seed=seed)
            assert_close(dual[reach], want[reach])
            assert_same_weights(
                weight_bounds(sys_, sde, samples=30, seed=seed),
                *reference_weight_bounds(sys_, sde, samples=30, seed=seed),
            )

    # a vanishing denominator raises exactly where the walkers raise: at a
    # cell reachable from the start states, for the exact and sampled forms
    k = int(rng.integers(sys_.horizon))
    s = int(rng.choice(sys_.reachable_at[k]))
    alpha = driver.alpha.copy()
    alpha[k, s] = 1.0
    for conv in (Convention.MIXED, Convention.IMPLICIT):
        for start in range(sys_.horizon + 1):
            sde = WeightSde(alpha, None if conv is Convention.MIXED else
                            np.zeros_like(driver.beta), conv, start)
            for kwargs in ({}, {"mc_paths": 30, "seed": 5}):
                got = outcome(dual_value, sys_, sde, driver.g, terminal, **kwargs)
                want = outcome(reference_dual_value, sys_, sde, driver.g,
                               terminal, **kwargs)
                assert (got is VanishingDenominatorError) == (
                    want is VanishingDenominatorError)
            assert (outcome(weight_bounds, sys_, sde)
                    is VanishingDenominatorError) == (
                outcome(reference_weight_bounds, sys_, sde)
                is VanishingDenominatorError)

    problem = random_control_problem(sys_, rng, n_controls=2)
    solved = solve_control(problem, sys_)
    _, report = epsilon_optimal_policy(problem, sys_, solved,
                                       float(rng.uniform(0.0, 0.5)))
    delta = np.where(np.isnan(solved.values), 0.0,
                     solved.values - report.policy_solution.values)
    assert_close(report.measured, reference_expected_max_gap_sq(sys_, delta))


def test_dual_value_reads_only_the_cells_each_start_reaches():
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(22))
    k = sys_.horizon - 1
    bad, good = (int(s) for s in sys_.reachable_at[k][:2])
    g = driver.g.copy()
    g[k, bad] = np.nan
    for conv in Convention:
        sde = WeightSde(driver.alpha, driver.beta, conv, k)
        dual = dual_value(sys_, sde, g, terminal)
        want = reference_dual_value(sys_, sde, g, terminal)
        assert np.isnan(dual[bad]) and np.isnan(want[bad])
        assert_close(dual[good], want[good])


def test_select_convention_at_long_horizon():
    # 3^14 paths per start at time 0: path-by-path selection took hours here
    sys_ = build_lattice(geometric_model((0.3, 0.5, 0.7), 14))
    result = select_convention(sys_, trials=40)
    assert result.convention is Convention.MIXED
    assert result.unique


# ---------------------------------------------------------------------------
# Differential oracles for the backward sweep and the level walk: the
# forward measure the sweep replaced, and the (P, L) path arrays the level
# walk replaced, each evaluated on the same factor table.


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
    walked = np.zeros(den.shape, dtype=bool)
    walked[times, cur, slot] = True
    check_walked_denominators(sys, den, walked)
    v = np.ones(paths.shape)
    np.cumprod(step[times, cur, slot], axis=1, out=v[:, 1:])
    return v, v[:, :-1] * run[times, cur]


def forward_measure_dual_value(sys, sde, g, terminal):
    """dual_value by carrying mu_k(s) = E[V_k 1{X_k = s}] from every start
    state at once; a cell a start reaches with zero mass is never read."""
    g = np.asarray(g, dtype=float)
    terminal = np.asarray(terminal, dtype=float)
    start_time = sde.start_time
    t, d = sys.horizon, sys.dim
    succ, prob, den, step, run = full_factors(sys, sde)
    starts = sys.reachable_at[start_time]

    def reached(mu, x):
        return np.where(mu != 0.0, mu * x, 0.0)

    mu = np.zeros((starts.size, d))
    mu[np.arange(starts.size), starts] = 1.0
    offset = np.arange(starts.size)[:, None] * d
    total = np.zeros(starts.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start_time, t):
            src = sys.reachable_at[k]
            rows, slots = np.nonzero(prob[src] > 0.0)
            cur = src[rows]
            bad = np.abs(den[k, cur, slots]) < DENOMINATOR_TOL
            if bad.any():
                i = int(np.argmax(bad))
                raise VanishingDenominatorError(
                    f"weight denominator {den[k, cur[i], slots[i]]} at time "
                    f"{k}, state {cur[i]}")
            m = mu[:, src]
            total += reached(m, g[k, src] * run[k, src]).sum(axis=1)
            flow = reached(m[:, rows], prob[cur, slots] * step[k, cur, slots])
            mu = np.bincount((offset + succ[cur, slots]).ravel(), flow.ravel(),
                             minlength=mu.size).reshape(mu.shape)
        end = sys.reachable_at[t]
        total += reached(mu[:, end], terminal[end]).sum(axis=1)
    out = np.full(d, np.nan)
    out[starts] = total
    return out


def all_paths(sys, start, states):
    """Every realizable path from each (start, state) to the horizon, as a
    (P, T - start + 1) array in enumerate_paths order, and the path
    probabilities (P,)."""
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


def path_array_weight_bounds(sys, sde):
    """(per_state, e_max_sq, e_max_running_sq, min_weight) of the exhaustive
    weight_bounds, from the weights along every path as one (P, L) array."""
    start = sde.start_time
    states = sys.reachable_at[start]
    paths, weight = all_paths(sys, start, states)
    v, w = _path_weights(sys, full_factors(sys, sde), start, paths)
    ev = np.bincount(paths[:, 0], weight * np.max(v * v, axis=1),
                     minlength=sys.dim)[states]
    ew = np.bincount(paths[:, 0], weight * np.max(w * w, axis=1, initial=0.0),
                     minlength=sys.dim)[states]
    per_state = {int(s): (float(a), float(b)) for s, a, b in zip(states, ev, ew)}
    return per_state, float(ev.max()), float(ew.max()), float(v.min())


def path_array_expected_max_gap_sq(sys, delta):
    """E[max_k delta[k, X_k]^2] from every path as one (P, L) array."""
    start = sys.dist_at[0]
    states = [int(s) for s in sys.reachable_at[0] if start[int(s)] > 0.0]
    paths, prob = all_paths(sys, 0, states)
    gap = np.max(delta[np.arange(sys.horizon + 1), paths] ** 2, axis=1)
    return float((start[paths[:, 0]] * prob) @ gap)


@st.composite
def sweep_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys_ = build_lattice(random_model(rng, n_max=4, t_max=9))
    driver, terminal = random_linear_instance(sys_, rng)
    return sys_, driver, terminal, rng


def message(func, *args):
    """The result of a call, or the message of the vanishing denominator
    it raised."""
    try:
        return func(*args)
    except VanishingDenominatorError as err:
        return str(err)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(sweep_instances())
def test_backward_sweep_matches_forward_measure(case):
    sys_, driver, terminal, rng = case
    for conv in Convention:
        for start in range(sys_.horizon + 1):
            sde = WeightSde(driver.alpha, driver.beta, conv, start)
            dual = dual_value(sys_, sde, driver.g, terminal)
            want = forward_measure_dual_value(sys_, sde, driver.g, terminal)
            reach = sys_.reachable_at[start]
            assert np.isnan(dual).sum() == sys_.dim - reach.size
            assert_close(dual[reach], want[reach])

    # two vanishing denominators: both engines name the first in (time,
    # state, slot) order
    alpha = driver.alpha.copy()
    for _ in range(2):
        k = int(rng.integers(sys_.horizon))
        alpha[k, int(rng.choice(sys_.reachable_at[k]))] = 1.0
    for start in range(sys_.horizon + 1):
        sde = WeightSde(alpha, None, Convention.MIXED, start)
        got = message(dual_value, sys_, sde, driver.g, terminal)
        want = message(forward_measure_dual_value, sys_, sde, driver.g, terminal)
        if isinstance(want, str):
            assert got == want
        else:
            assert_close(got[sys_.reachable_at[start]],
                         want[sys_.reachable_at[start]])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(linear_instances())
def test_level_walk_matches_path_arrays_bit_for_bit(case):
    sys_, driver, terminal, rng = case
    # the weights run through NaN past one drift left undefined
    k = int(rng.integers(sys_.horizon))
    broken = driver.alpha.copy()
    broken[k, int(rng.choice(sys_.reachable_at[k]))] = np.nan
    for conv, alpha in [(c, driver.alpha) for c in Convention] + [
            (Convention.MIXED, broken)]:
        for start in range(sys_.horizon + 1):
            sde = WeightSde(alpha, driver.beta, conv, start)
            report = outcome(weight_bounds, sys_, sde)
            want = outcome(path_array_weight_bounds, sys_, sde)
            if want is VanishingDenominatorError:
                assert report is VanishingDenominatorError
                continue
            per_state, e_max_sq, e_max_running_sq, min_weight = want
            assert list(report.per_state) == list(per_state)
            # equal bit for bit, NaN included
            np.testing.assert_array_equal(list(report.per_state.values()),
                                          list(per_state.values()))
            np.testing.assert_array_equal(
                [report.e_max_sq, report.e_max_running_sq, report.min_weight],
                [e_max_sq, e_max_running_sq, min_weight])

    problem = random_control_problem(sys_, rng, n_controls=2)
    solved = solve_control(problem, sys_)
    _, report = epsilon_optimal_policy(problem, sys_, solved,
                                       float(rng.uniform(0.0, 0.5)))
    delta = np.where(np.isnan(solved.values), 0.0,
                     solved.values - report.policy_solution.values)
    assert report.measured == path_array_expected_max_gap_sq(sys_, delta)


def test_select_convention_builds_factors_once_per_trial_and_convention(
        monkeypatch):
    sys_ = build_lattice(geometric_model((0.3, 0.5, 0.7), 6))
    calls = []

    def counted(sys, sde):
        calls.append(sde.convention)
        return _factors(sys, sde)

    monkeypatch.setattr(duality, "_factors", counted)
    for trials in (1, 5):
        calls.clear()
        select_convention(sys_, trials=trials)
        assert len(calls) == 3 * trials
        assert all(calls.count(c) == trials for c in Convention)


@pytest.mark.parametrize("entries", [1, 1 << 18])
def test_cell_factors_are_the_full_tables_at_the_cells(monkeypatch, entries):
    # from every start, in blocks of one time or of all, the cell-major
    # noise and factors hold the bits of the (T, D, W) tables at the
    # reachable cells (a one-row product would round the noise differently)
    monkeypatch.setattr("smcbsde.lattice.BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(8)
    for _ in range(3):
        sys_ = build_lattice(random_model(rng, n=3, t=8))
        driver, _ = random_linear_instance(sys_, rng)
        plan = sys_.plan
        for beta in (driver.beta, dense_beta(sys_, driver.beta)):
            noise = full_noise(sys_, beta)
            for start in range(sys_.horizon):
                at = plan.span(start, sys_.horizon)
                k, s = plan.times[at], plan.cells[at]
                np.testing.assert_array_equal(duality._cell_noise(
                    sys_, beta, at, sys_.prob[s], plan.real[s]), noise[k, s])
            for conv in Convention:
                sde = WeightSde(driver.alpha, beta, conv)
                _, _, _, step, run = full_factors(sys_, sde)
                for start in range(sys_.horizon):
                    fac = _factors(sys_, WeightSde(driver.alpha, beta, conv,
                                                   start))
                    at = plan.span(start, sys_.horizon)
                    k, s = plan.times[at], plan.cells[at]
                    np.testing.assert_array_equal(fac.step, step[k, s])
                    np.testing.assert_array_equal(fac.run, run[k, s])


def test_exhaustive_weight_bounds_memory():
    # 3^10 paths from time 0; as (P, L) arrays they peaked at 30 MB
    sys_ = build_lattice(geometric_model((0.3, 0.5, 0.7), 10))
    driver, _ = random_linear_instance(sys_, np.random.default_rng(23))
    sde = WeightSde.from_driver(driver)
    tracemalloc.start()
    try:
        report = weight_bounds(sys_, sde)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.min_weight >= -1e-10
    assert peak < 10e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_exact_dual_memory_at_a_long_horizon():
    # geometric N=8, T=512 (D=4104, 198,768 reachable cells); the (T, D, W)
    # factor tables over every state peaked at 420 MB
    n, t = 8, 512
    sys_ = build_lattice(geometric_model(np.linspace(0.2, 0.8, n), t))
    rng = np.random.default_rng(29)
    alpha = rng.uniform(-0.5, 0.5, (t, sys_.dim))
    g = rng.uniform(-1.0, 1.0, (t, sys_.dim))
    terminal = rng.uniform(-1.0, 1.0, sys_.dim)
    tracemalloc.start()
    try:
        dual = dual_value(sys_, WeightSde(alpha, None), g, terminal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(dual[sys_.reachable_at[0]]).all()
    assert peak < 100e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_exact_dual_noise_runs_in_blocks_of_times():
    # state 0 never leaves, so each time reaches one cell (0, k+1), while
    # its T sources times T times make a noise product of T^2 rows: run as
    # one block of times it peaked at 42 MB, in blocks at 4 MB
    t = 1024
    sys_ = build_lattice(geometric_model((0.0, 0.5), t))
    assert sys_.plan.cells.size == t + 1
    assert sys_.sources.size * t * sys_.block.shape[1] > 10 * BLOCK_ENTRIES
    rng = np.random.default_rng(31)
    alpha = rng.uniform(-0.5, 0.5, (t, sys_.dim))
    beta = rng.uniform(-0.5, 0.5, (t, sys_.dim, sys_.block.shape[1]))
    g = rng.uniform(-1.0, 1.0, (t, sys_.dim))
    terminal = rng.uniform(-1.0, 1.0, sys_.dim)
    tracemalloc.start()
    try:
        dual = dual_value(sys_, WeightSde(alpha, beta), g, terminal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(dual[sys_.reachable_at[0]]).all()
    assert peak < 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("start", [-1, "T+1", 2.0, True])
@pytest.mark.parametrize("entry", ["dual_value", "weight_bounds",
                                   "evolve_weights", "dual_value-keyword"])
def test_start_time_is_range_checked(entry, start):
    # 2.0 once died indexing a tuple, True in numpy
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(24))
    start = sys_.horizon + 1 if start == "T+1" else start
    sde = WeightSde(driver.alpha, driver.beta, DEFAULT_CONVENTION, start)
    call = {
        "dual_value": lambda: dual_value(sys_, sde, driver.g, terminal),
        "weight_bounds": lambda: weight_bounds(sys_, sde),
        "evolve_weights": lambda: evolve_weights(sys_, sde, [0]),
        "dual_value-keyword": lambda: dual_value(
            sys_, replace(sde, start_time=int(start)), driver.g, terminal,
            start_time=start),
    }[entry]
    why = "outside" if type(start) is int else "is not an integer in"
    with pytest.raises(ValueError, match=rf"start_time {start} {why} 0\.\.4"):
        call()


def test_numpy_integer_start_times_are_taken():
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(24))
    sde = WeightSde.from_driver(driver)
    for start in (np.int64(2), np.int32(2)):
        np.testing.assert_array_equal(
            dual_value(build_lattice(sys_.model), sde, driver.g, terminal,
                       start_time=start),
            dual_value(build_lattice(sys_.model), sde, driver.g, terminal,
                       start_time=2))
        assert repr(weight_bounds(sys_, replace(sde, start_time=start))) == \
            repr(weight_bounds(sys_, replace(sde, start_time=2)))


def test_string_conventions_are_the_enums():
    # a string once fell through the enum tests to the implicit algebra:
    # "mixed" gave a start-0 dual of -0.2177 where the solver gives 0.0459
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(1))
    values = solve_bsde(sys_, driver, terminal).values
    for conv in Convention:
        sde = WeightSde(driver.alpha, driver.beta, conv.value)
        assert sde.convention is conv
        enum = WeightSde(driver.alpha, driver.beta, conv)
        got = dual_value(build_lattice(sys_.model), sde, driver.g, terminal)
        want = dual_value(build_lattice(sys_.model), enum, driver.g, terminal)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        assert repr(weight_bounds(sys_, sde)) == repr(weight_bounds(sys_, enum))
    start = sys_.reachable_at[0]
    np.testing.assert_allclose(got[start], values[0, start], rtol=1e-12)
    for bad in ("bogus", "MIXED", 2):
        with pytest.raises(ValueError, match=rf"convention {bad!r} is none of"):
            WeightSde(driver.alpha, driver.beta, bad)


@pytest.mark.parametrize("count", [0, -3, 2.5])
@pytest.mark.parametrize("entry", ["dual_value", "weight_bounds"])
def test_path_counts_must_be_positive_integers(entry, count):
    # 0 once divided by zero, -3 died in numpy
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(24))
    sde = WeightSde.from_driver(driver)
    name, call = {
        "dual_value": ("mc_paths", lambda: dual_value(
            sys_, sde, driver.g, terminal, mc_paths=count, seed=0)),
        "weight_bounds": ("samples", lambda: weight_bounds(
            sys_, sde, samples=count, seed=0)),
    }[entry]
    with pytest.raises(ValueError,
                       match=rf"{name} must be a positive integer, not {count}"):
        call()


def test_select_convention_never_selects_a_non_finite_residual(monkeypatch):
    # a running term of 1.7e308 at the start cell, paid at twice its size
    # under alpha = 0.5, overflows the backward value and the mixed dual to
    # inf there: the mixed residual is inf - inf = NaN, and the other two
    # are inf.  No convention has a finite residual, so none may be picked,
    # whatever the tolerance.
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    (s0,) = sys_.reachable_at[0]

    def overflowing(sys, rng):
        driver, terminal = random_linear_instance(sys, rng)
        alpha, g = driver.alpha.copy(), driver.g.copy()
        alpha[0, s0], g[0, s0] = 0.5, 1.7e308
        return LinearDriver(alpha, g, driver.beta), terminal

    monkeypatch.setattr(instances, "random_linear_instance", overflowing)
    with pytest.raises(SelectionError, match="mixed=inf"):
        select_convention(sys_, trials=3, tol=np.inf)


def test_a_zero_weight_route_ignores_non_finite_data():
    # alpha = -1 zeroes every shifted step out of (k, s), so the value from
    # (k, s) never reads the running terms of its successors, NaN or not
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(25))
    k = 1
    s = int(sys_.reachable_at[k][0])
    alpha, g = driver.alpha.copy(), driver.g.copy()
    alpha[k, s] = -1.0
    g[k + 1, sys_.succ[s, 0]] = np.nan
    sde = WeightSde(alpha, None, Convention.SHIFTED, k)
    dual = dual_value(sys_, sde, g, terminal)
    want = forward_measure_dual_value(sys_, sde, g, terminal)
    assert dual[s] == pytest.approx(g[k, s], abs=1e-15)
    assert_close(dual[s], want[s])


def test_padding_slots_never_trip_the_denominator_check():
    # an implicit denominator that vanishes only on a padding slot of a
    # reachable source is not a step of the chain
    rng = np.random.default_rng(26)
    while True:
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=5))
        padded = [(k, int(s)) for k in range(sys_.horizon)
                  for s in sys_.reachable_at[k] if sys_.prob[s, -1] == 0.0]
        if padded:
            break
    driver, terminal = random_linear_instance(sys_, rng)
    k, s = padded[0]
    alpha = np.zeros_like(driver.alpha)
    _, _, den, _, _ = full_factors(sys_, WeightSde(alpha, driver.beta,
                                               Convention.IMPLICIT))
    alpha[k, s] = den[k, s, -1]  # den is 1 - noise at alpha = 0
    sde = WeightSde(alpha, driver.beta, Convention.IMPLICIT, k)
    assert abs(full_factors(sys_, sde)[2][k, s, -1]) < DENOMINATOR_TOL
    assert_close(dual_value(sys_, sde, driver.g, terminal)[s],
                 forward_measure_dual_value(sys_, sde, driver.g, terminal)[s])


# ---------------------------------------------------------------------------
# Differential oracles for the sampled forms: the weights of drawn or given
# paths read off the full (T, D, W) factor table by _path_weights, with the
# paths drawn one start state at a time by _drawn_paths.


def full_table_dual_value(sys, sde, g, terminal, mc_paths, seed):
    """Monte Carlo dual value from the full factor table."""
    start, t = sde.start_time, sys.horizon
    rng = np.random.default_rng(seed)
    starts = sys.reachable_at[start]
    paths = np.concatenate([_drawn_paths(sys, start, [int(s)], mc_paths,
                                         rng)[0] for s in starts])
    v, w = _path_weights(sys, full_factors(sys, sde), start, paths)
    total = (terminal[paths[:, -1]] * v[:, -1]
             + (g[np.arange(start, t), paths[:, :-1]] * w).sum(axis=1))
    out = np.full(sys.dim, np.nan)
    out[starts] = np.bincount(paths[:, 0], total / mc_paths,
                              minlength=sys.dim)[starts]
    return out


def full_table_weight_bounds(sys, sde, samples, seed):
    """(per_state, min_weight) of the sampled weight_bounds from the full
    factor table."""
    start = sde.start_time
    rng = np.random.default_rng(seed)
    states = sys.reachable_at[start]
    paths = np.concatenate([_drawn_paths(sys, start, [int(s)], samples,
                                         rng)[0] for s in states])
    v, w = _path_weights(sys, full_factors(sys, sde), start, paths)
    ev = np.bincount(paths[:, 0], np.max(v * v, axis=1) / samples,
                     minlength=sys.dim)[states]
    ew = np.bincount(paths[:, 0], np.max(w * w, axis=1, initial=0.0) / samples,
                     minlength=sys.dim)[states]
    per_state = {int(s): (float(a), float(b)) for s, a, b in zip(states, ev, ew)}
    return per_state, float(v.min())


def raised(func, *args, **kwargs):
    """The result of a call, or the type and message of the
    VanishingDenominatorError or ValueError it raised."""
    try:
        return func(*args, **kwargs)
    except (VanishingDenominatorError, ValueError) as err:
        return type(err), str(err)


def assert_same_outcome(got, want, compare):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert not (isinstance(got, tuple) and isinstance(got[0], type)), got
        compare(got, want)


def assert_close_weights(got, want):
    for a, b in zip(got, want):
        assert_close(a, b)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(linear_instances())
def test_drawn_step_factors_match_the_full_table(case):
    sys_, driver, terminal, rng = case
    alpha = driver.alpha.copy()
    # two drawn steps whose denominators vanish under the mixed form (no
    # noise) and the implicit form (zero noise); the first in (time,
    # state, slot) order must be named alike
    paths = _drawn_paths(sys_, 0, sys_.reachable_at[0], 5, 0)[0]
    for _ in range(2):
        k = int(rng.integers(sys_.horizon))
        alpha[k, paths[int(rng.integers(paths.shape[0])), k]] = 1.0
    cases = [(c, driver.alpha, driver.beta) for c in Convention] + [
        (Convention.MIXED, alpha, None),
        (Convention.IMPLICIT, alpha, np.zeros_like(driver.beta))]
    for conv, a, beta in cases:
        for start in range(sys_.horizon + 1):
            sde = WeightSde(a, beta, conv, start)
            seed = int(rng.integers(2**31))
            paths, slots, _ = _drawn_paths(sys_, start, sys_.reachable_at[start],
                                           9, seed)
            assert_same_outcome(
                raised(_walk, sys_, sde, start, paths, slots),
                raised(_path_weights, sys_, full_factors(sys_, sde), start, paths),
                assert_close_weights)
            assert_same_outcome(
                raised(dual_value, sys_, sde, driver.g, terminal, mc_paths=9,
                       seed=seed),
                raised(full_table_dual_value, sys_, sde, driver.g, terminal, 9,
                       seed),
                assert_close)

            def same_report(report, want):
                per_state, min_weight = want
                assert_same_weights(report, per_state, min_weight)

            assert_same_outcome(
                raised(weight_bounds, sys_, sde, samples=9, seed=seed),
                raised(full_table_weight_bounds, sys_, sde, 9, seed),
                same_report)

            # given paths: a drawn path, then one with a step redirected to
            # any state, realizable or not
            path = paths[int(rng.integers(paths.shape[0]))].copy()
            for _ in range(2):
                assert_same_outcome(
                    raised(evolve_weights, sys_, sde, path),
                    raised(lambda: _path_weights(sys_, full_factors(sys_, sde), start,
                                                 path[None, :])[0][0]),
                    assert_close)
                if path.size > 1:
                    path[int(rng.integers(1, path.size))] = rng.integers(sys_.dim)


def test_a_drawn_path_through_a_dead_end_is_not_realizable():
    # state 1 leaves with certainty at duration 1 and has nowhere to go (a
    # model validate_model rejects, which build_lattice accepts): a path
    # that enters it is drawn onto a padding slot and rejected, as the
    # full table rejects it
    t = 4
    pi = np.zeros((2, t + 1))
    pi[0] = 0.5 ** np.arange(1, t + 2)
    pi[0, -1] = 0.5**t
    pi[1, 0] = 1.0
    jump = uniform_jump(2, t + 1)
    jump[1, 0] = 0.0
    sys_ = build_lattice(SemiMarkovModel(2, t, pi, jump, [1.0, 0.0]))
    driver, terminal = random_linear_instance(sys_, np.random.default_rng(28))
    sde = WeightSde.from_driver(driver)
    for seed in range(3):
        got = raised(dual_value, sys_, sde, driver.g, terminal, mc_paths=20,
                     seed=seed)
        assert got[0] is ValueError and "is not realizable" in got[1]
        assert got == raised(full_table_dual_value, sys_, sde, driver.g,
                             terminal, 20, seed)


def test_path_slots_are_the_sampled_slots():
    sys_ = build_lattice(random_model(np.random.default_rng(27), n=4, t=8))
    paths, slots, _ = _drawn_paths(sys_, 0, sys_.reachable_at[0], 50, 27)
    np.testing.assert_array_equal(_path_slots(sys_, paths), slots)


def test_a_draw_on_a_cumulative_boundary_moves_past_it():
    # (state 0, duration 1) steps to (1, 1) with probability h and to
    # (0, 2) with 1 - h; with h equal to the draw (h >= 1/2, so the row
    # total is exactly 1) the first slot whose cumulative probability
    # exceeds the draw is the second
    seed = next(s for s in range(100) if np.random.default_rng(s).random() >= 0.5)
    h = np.random.default_rng(seed).random()
    pi = np.array([[h, 1.0 - h], [0.5, 0.5]])
    sys_ = build_lattice(SemiMarkovModel(2, 1, pi, uniform_jump(2, 2), [1.0, 0.0]))
    assert sys_.prob[0].tolist() == [h, 1.0 - h] and sys_.cdf[-1, 0] == 1.0
    path = _drawn_paths(sys_, 0, [0], 1, np.random.default_rng(seed))[0]
    assert path.tolist() == [[0, sys_.flat_index(0, 2)]]


# sha256 of _drawn_paths(...)[0].tobytes(), computed with the per-call table
# and the per-step draws: any change to the lattice sampler's stream (the
# hand-out order, the pick rule) changes it
SAMPLE_PATHS_DIGEST = "b13cbd72ffb2c367b6b3d532db362f6f8675063cb5a872d93f5342a47f3a0135"


def test_sample_paths_stream_digest():
    sys_ = build_lattice(geometric_model((0.25, 0.5, 0.75), 9,
                                         x0=np.full(3, 1.0 / 3.0)))
    state = int(sys_.reachable_at[3][-1])
    paths = _drawn_paths(sys_, 3, [state], 300, np.random.default_rng(2026))[0]
    assert hashlib.sha256(paths.tobytes()).hexdigest() == SAMPLE_PATHS_DIGEST
