"""One backward step for every solver: differential tests against the
per-source loops.

The references below are the per-(time, source) loops the solvers were
written as before they worked whole time slices on the lattice's padded
successor table: centring and projecting one source at a time through its
StateGeometry view (now in ``dense``).  They are kept as oracles for the
slice step.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcbsde import (
    ControlProblem,
    DegenerateDriverError,
    GeneralDriver,
    LinearDriver,
    PolicyTable,
    ProblemDataError,
    SemiMarkovModel,
    VanishingDenominatorError,
    WeightSde,
    brute_force_value,
    build_lattice,
    check_comparison,
    dual_value,
    epsilon_optimal_policy,
    evaluate_policy,
    solve_bsde,
    solve_control,
    weight_bounds,
)
from smcbsde import bsde, control
from smcbsde.bsde import _terminal_array
from smcbsde.control import _expected_max_gap_sq
from smcbsde.instances import (
    random_comparison_pair,
    random_control_problem,
    random_linear_instance,
    random_model,
)

from conftest import geometric_model, tiny_model
from dense import (
    _verified_root,
    control_index,
    dense_beta,
    geometry_for,
    max_driver,
    step,
    transition,
)

# ---------------------------------------------------------------------------
# References: the per-source loops


def reference_driver_value(sys, driver, k, s, y, z_row):
    if isinstance(driver, LinearDriver):
        out = float(driver.alpha[k, s]) * y + float(driver.g[k, s])
        b = None if driver.beta is None else dense_beta(sys, driver.beta)[k, s]
        if b is not None:
            out += float(b @ geometry_for(sys, s).project(z_row))
        return out
    return float(driver.fn(k, s, y, z_row))


def reference_linear_step(sys, driver, k, s, mean, z_row):
    a = float(driver.alpha[k, s])
    if abs(1.0 - a) < 1e-12:
        raise DegenerateDriverError(
            f"alpha[{k}, {s}] = {a}: y - f is not a bijection"
        )
    return (mean + reference_driver_value(sys, driver, k, s, 0.0, z_row)) / (
        1.0 - a
    )


def reference_linear_checks(sys, driver):
    """The data checks of the linear solve as its per-slice loop made them,
    the latest time first: a field that is not finite (alpha, g, then beta,
    rows read whole), then a unit drift."""
    for k in range(sys.horizon - 1, -1, -1):
        src = sys.reachable_at[k]
        for name in ("alpha", "g", "beta"):
            table = getattr(driver, name)
            if table is None:
                continue
            ok = np.isfinite(table[k, src]).reshape(src.size, -1).all(axis=1)
            if not ok.all():
                s = int(src[np.argmin(ok)])
                raise ProblemDataError(
                    f"field '{name}' is not finite at time {k}, lattice state "
                    f"{s} (state, duration) = {sys.label(s)}")
        a = driver.alpha[k, src]
        bad = np.abs(1.0 - a) < 1e-12
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateDriverError(
                f"alpha[{k}, {src[i]}] = {a[i]}: y - f is not a bijection")


def reference_general_step(sys, driver, k, s, mean, z_row):
    def phi(y):
        return y - driver.fn(k, s, y, z_row) - mean

    return _verified_root(phi, mean, f" at time {k}, state {s}")


def reference_solve_bsde(sys, driver, terminal):
    term = _terminal_array(sys, terminal)
    t, d = sys.horizon, sys.dim
    values = np.full((t + 1, d), np.nan)
    integrands = np.zeros((t, d, d))
    reach_t = sys.reachable_at[t]
    values[t, reach_t] = term[reach_t]
    step = (reference_linear_step if isinstance(driver, LinearDriver)
            else reference_general_step)
    for k in range(t - 1, -1, -1):
        for s in sys.reachable_at[k]:
            s = int(s)
            mean, z_row = geometry_for(sys, s).split(values[k + 1])
            values[k, s] = step(sys, driver, k, s, float(mean), z_row)
            integrands[k, s] = z_row
    return SimpleNamespace(values=values, integrands=integrands)


_TIE_TOL = 1e-12
_ALPHA_GUARD = 1e-12


def reference_solve_control(problem, sys):
    """(values, integrands, choices, ties) of the per-source control loop."""
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
            mean, z_row = geometry_for(sys, s).split(values[k + 1])
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
    return values, integrands, choices, ties


def reference_brute_force_value(problem, sys):
    """(initial_values, per_time_max, best choices, objective, n_policies)."""
    term = _terminal_array(sys, problem.terminal)
    t, d = sys.horizon, sys.dim
    u = problem.n_controls
    cells = [(k, int(s)) for k in range(t) for s in sys.reachable_at[k]]
    n_pol = u ** len(cells)
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
            geo = geometry_for(sys, s)
            sup = geo.support
            mean = values[:, sup] @ geo.column[sup]
            zmat = values[:, sup] - mean[:, None]
            alphas = problem.alpha[k, s]
            if np.any(np.abs(1.0 - alphas) < _ALPHA_GUARD):
                raise DegenerateDriverError(
                    f"a drift coefficient at time {k}, state {s} makes the "
                    "step map non-invertible"
                )
            beff = geo.project(dense_beta(sys, problem.beta)[k, s])[:, sup]
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
    return (initial_values, per_time_max, choices,
            float((values @ weights)[best]), int(n_pol))


def reference_policy_driver(problem, sys, policy):
    t, d = sys.horizon, sys.dim
    alpha = np.zeros((t, d))
    g = np.zeros((t, d))
    beta = np.zeros((t, d, d))
    for k in range(t):
        for s in sys.reachable_at[k]:
            s = int(s)
            u = control_index(policy, k, s)
            alpha[k, s] = problem.alpha[k, s, u]
            g[k, s] = problem.g[k, s, u]
            beta[k, s] = dense_beta(sys, problem.beta)[k, s, u]
    return LinearDriver(alpha, g, beta)


def reference_epsilon_policy(problem, sys, sol, epsilon):
    """(choices, measured, bound, c_tilde, policy solution)."""
    t, d = sys.horizon, sys.dim
    choices = np.full((t, d), -1, dtype=int)
    for k in range(t):
        for s in sys.reachable_at[k]:
            s = int(s)
            best, _, vals = max_driver(
                problem, sys, k, s, sol.values[k, s], sol.integrands[k, s]
            )
            choices[k, s] = int(np.flatnonzero(vals >= best - epsilon)[0])
    driver = reference_policy_driver(problem, sys, PolicyTable(choices))
    psol = reference_solve_bsde(sys, driver, problem.terminal)
    delta = np.where(np.isnan(sol.values), 0.0, sol.values - psol.values)
    measured = _expected_max_gap_sq(sys, delta)
    c_tilde = 0.0
    for start in range(t):
        report = weight_bounds(sys, WeightSde(driver.alpha, driver.beta,
                                              start_time=start))
        c_tilde = max(c_tilde, report.e_max_running_sq)
    return choices, measured, float(t**2 * epsilon**2 * c_tilde), c_tilde, psol


def reference_gap_min(sys, driver1, driver2, sol2):
    gaps = []
    for k in range(sys.horizon):
        for s in sys.reachable_at[k]:
            s = int(s)
            y2 = sol2.values[k, s]
            z2 = sol2.integrands[k, s]
            gaps.append(
                reference_driver_value(sys, driver2, k, s, y2, z2)
                - reference_driver_value(sys, driver1, k, s, y2, z2)
            )
    return float(min(gaps))


def reference_comparison_pair(sys, rng):
    """random_comparison_pair with the per-source carry loop."""
    driver2, terminal2 = random_linear_instance(sys, rng, comparison_safe=True)
    t, d = sys.horizon, sys.dim
    mask = sys.reachable[:-1]
    reach_t = sys.reachable_at[t]
    terminal1 = terminal2.copy()
    terminal1[reach_t] -= rng.uniform(0.0, 1.0, reach_t.size)
    if rng.random() < 0.5:
        g1 = driver2.g - np.where(mask, rng.uniform(0.0, 1.0, (t, d)), 0.0)
        return LinearDriver(driver2.alpha, g1, driver2.beta), terminal1, \
            driver2, terminal2
    fresh, _ = random_linear_instance(sys, rng, comparison_safe=True)
    sol2 = reference_solve_bsde(sys, driver2, terminal2)
    g1 = np.zeros((t, d))
    for k in range(t):
        for s in sys.reachable_at[k]:
            s = int(s)
            y2 = sol2.values[k, s]
            z2 = sol2.integrands[k, s]
            carry = reference_driver_value(
                sys, driver2, k, s, y2, z2
            ) - reference_driver_value(sys, fresh, k, s, y2, z2)
            g1[k, s] = fresh.g[k, s] + carry - rng.uniform(0.0, 1.0)
    return LinearDriver(fresh.alpha, g1, fresh.beta), terminal1, driver2, \
        terminal2


# ---------------------------------------------------------------------------
# Draws


def single_path_model(rng, n, t):
    """One source per step: states 0..n-2 stay a drawn number of steps and
    then jump to the next of them; state n-1, never entered, has random laws
    and so widens the successor table, which pads every visited row."""
    m = n - 1
    pi = np.zeros((n, t + 1))
    jump = np.zeros((n, t + 1, n))
    for i in range(m):
        pi[i, int(rng.integers(t + 1))] = 1.0
        jump[i, :, (i + 1) % m] = 1.0
    pi[m] = rng.dirichlet(np.ones(t + 1))
    jump[m, :, :m] = rng.dirichlet(np.ones(m), size=t + 1)
    x0 = np.zeros(n)
    x0[0] = 1.0
    return SemiMarkovModel(n, t, pi, jump, x0)


@st.composite
def lattices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model = single_path_model(rng, draw(st.integers(3, 4)),
                                  draw(st.integers(1, 6)))
    else:
        model = random_model(
            rng, n=draw(st.integers(2, 3)), t=draw(st.integers(1, 4)),
            sub_stochastic_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        )
    return build_lattice(model), rng


def with_tables(problem, **tables):
    fields = {f: getattr(problem, f) for f in (
        "controls", "alpha", "beta", "g", "terminal", "alpha_bound",
        "beta_bound")}
    fields.update(tables)
    return ControlProblem(**fields)


def assert_close(got, want):
    # |got - want| <= 1e-12 * (1 + |want|), entry by entry, NaN where NaN
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def assert_same_solution(got, want):
    assert_close(got.values, want.values)
    assert_close(got.integrands, want.integrands)


def outcome(func, *args):
    try:
        return func(*args)
    except DegenerateDriverError:
        return DegenerateDriverError


# ---------------------------------------------------------------------------
# The differential test


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(lattices())
def test_slice_step_matches_per_source_loops(case):
    sys_, rng = case
    cells = sum(r.size for r in sys_.reachable_at[:-1])

    # linear and general backward solves
    driver, terminal = random_linear_instance(sys_, rng)
    assert_same_solution(solve_bsde(sys_, driver, terminal),
                         reference_solve_bsde(sys_, driver, terminal))
    w = rng.standard_normal((sys_.horizon, sys_.dim, sys_.dim))

    def fn(k, s, y, z):
        return 0.2 * y + 0.25 * np.tanh(y) + 0.5 * np.tanh(float(w[k, s] @ z))

    general = GeneralDriver(fn)
    assert_same_solution(solve_bsde(sys_, general, terminal),
                         reference_solve_bsde(sys_, general, terminal))

    # a unit drift at a reachable cell is degenerate in both
    k = int(rng.integers(sys_.horizon))
    s = int(rng.choice(sys_.reachable_at[k]))
    alpha = driver.alpha.copy()
    alpha[k, s] = 1.0
    unit = LinearDriver(alpha, driver.g, driver.beta)
    assert outcome(solve_bsde, sys_, unit, terminal) is DegenerateDriverError
    assert outcome(reference_solve_bsde, sys_, unit, terminal) \
        is DegenerateDriverError

    # comparison pairs: the carry and the driver gap
    seed = int(rng.integers(2**32))
    pair = random_comparison_pair(sys_, np.random.default_rng(seed))
    want = reference_comparison_pair(sys_, np.random.default_rng(seed))
    for got_part, want_part in zip(pair, want):
        if isinstance(got_part, LinearDriver):
            for name in ("alpha", "g", "beta"):
                assert_close(getattr(got_part, name), getattr(want_part, name))
        else:
            assert_close(got_part, want_part)
    d1, t1, d2, t2 = pair
    report = check_comparison(sys_, d1, d2, t1, t2)
    sol2 = reference_solve_bsde(sys_, d2, t2)
    assert_close(report.driver_gap_min, reference_gap_min(sys_, d1, d2, sol2))
    assert report.ordered
    # a linear driver against a general one (terminals out of order, so
    # that no ordering is asserted)
    report = check_comparison(sys_, d1, general, terminal + 1.0, terminal,
                              omega2=0.0)
    sol2 = reference_solve_bsde(sys_, general, terminal)
    assert_close(report.driver_gap_min,
                 reference_gap_min(sys_, d1, general, sol2))

    # control: closed form, forced ties, the root fallback, the oracles
    problem = random_control_problem(sys_, rng, n_controls=2)
    twin = with_tables(  # control 2 repeats control 0: a tie at every cell
        problem,
        controls=np.linspace(0.0, 1.0, 3).reshape(-1, 1),
        alpha=problem.alpha[:, :, [0, 1, 0]],
        beta=problem.beta[:, :, [0, 1, 0]],
        g=problem.g[:, :, [0, 1, 0]],
    )
    # a drift just above one for control 1 at one cell, with a running term
    # low enough that the maximised map still brackets its root: the closed
    # form does not hold there, the root finder must take over
    unit_alpha = problem.alpha.copy()
    unit_alpha[k, s, 1] = 1.0 + 1e-13
    unit_g = problem.g.copy()
    unit_g[k, s, 1] = -50.0
    rooted = with_tables(problem, alpha=unit_alpha, g=unit_g, alpha_bound=1.1)
    for prob in (problem, twin, rooted):
        solved = solve_control(prob, sys_)
        values, integrands, choices, ties = reference_solve_control(prob, sys_)
        assert_close(solved.values, values)
        assert_close(solved.solution.integrands, integrands)
        np.testing.assert_array_equal(solved.policy.choices, choices)
        assert solved.ties == ties
        if prob is twin:
            assert ties >= np.count_nonzero(choices == 0)

        if prob.n_controls ** cells <= 4096:
            got = outcome(brute_force_value, prob, sys_)
            want = outcome(reference_brute_force_value, prob, sys_)
            if prob is rooted:
                assert got is want is DegenerateDriverError
            else:
                assert_close(got.initial_values, want[0])
                assert_close(got.per_time_max, want[1])
                np.testing.assert_array_equal(got.best_policy.choices, want[2])
                assert_close(got.objective, want[3])
                assert got.n_policies == want[4]

        if prob is not rooted and sys_.horizon <= 4 and cells <= 12:
            epsilon = float(rng.uniform(0.0, 0.3))
            policy, report = epsilon_optimal_policy(prob, sys_, solved, epsilon)
            choices, measured, bound, c_tilde, psol = reference_epsilon_policy(
                prob, sys_, solved.solution, epsilon)
            np.testing.assert_array_equal(policy.choices, choices)
            assert report.epsilon == epsilon
            assert_close(report.measured, measured)
            assert_close(report.bound, bound)
            assert_close(report.c_tilde, c_tilde)
            assert report.within_bound == (measured <= bound + 1e-12)
            assert_same_solution(report.policy_solution, psol)


@st.composite
def faulty_problems(draw):
    """A linear problem (beta local or dense) and a copy with faults at two
    or more reachable times: an entry that is not finite or a unit drift;
    at the latest of them, in half the draws, a unit drift at the first
    state and a NaN running term at the last."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys_ = build_lattice(random_model(rng, n=draw(st.integers(2, 3)),
                                      t=draw(st.integers(2, 6))))
    driver, terminal = random_linear_instance(sys_, rng)
    if draw(st.booleans()):
        driver = LinearDriver(driver.alpha, driver.g,
                              dense_beta(sys_, driver.beta))
    tables = {f: getattr(driver, f).copy() for f in ("alpha", "g", "beta")}
    times = draw(st.lists(st.integers(0, sys_.horizon - 1), min_size=2,
                          max_size=4, unique=True))
    for k in times:
        src = sys_.reachable_at[k]
        s = int(src[draw(st.integers(0, src.size - 1))])
        field = draw(st.sampled_from(["alpha", "g", "beta", "unit"]))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if field == "unit":
            tables["alpha"][k, s] = 1.0
        elif field == "beta":
            # any entry of the row, off the block of a dense one too
            tables["beta"][k, s, draw(st.integers(0, driver.beta.shape[-1] - 1))] \
                = value
        else:
            tables[field][k, s] = value
    src = sys_.reachable_at[max(times)]
    if src.size >= 2 and draw(st.booleans()):
        tables["alpha"][max(times), src[0]] = 1.0
        tables["g"][max(times), src[-1]] = np.nan
    return sys_, driver, LinearDriver(**tables), terminal, times


def data_error(func, *args):
    try:
        func(*args)
    except (ProblemDataError, DegenerateDriverError) as err:
        return type(err), str(err)
    return None


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(faulty_problems())
def test_linear_checks_name_the_cell_the_slice_loop_named(case):
    sys_, driver, faulty, terminal, times = case
    want = data_error(reference_linear_checks, sys_, faulty)
    assert want is not None
    assert data_error(solve_bsde, sys_, faulty, terminal) == want

    # a vanishing denominator before the start time is never walked
    k = min(times)
    alpha = driver.alpha.copy()
    alpha[k, sys_.reachable_at[k]] = 1.0
    for start in range(sys_.horizon + 1):
        sde = WeightSde(alpha, driver.beta, start_time=start)
        if start <= k:
            with pytest.raises(VanishingDenominatorError,
                               match=f"at time {k}, state "):
                dual_value(sys_, sde, driver.g, terminal)
            continue
        clean = WeightSde(driver.alpha, driver.beta, start_time=start)
        np.testing.assert_array_equal(
            dual_value(sys_, sde, driver.g, terminal),
            dual_value(sys_, clean, driver.g, terminal))
        assert weight_bounds(sys_, sde).per_state \
            == weight_bounds(sys_, clean).per_state


def sparse_lattice(cells, seed=7):
    """The first random N=2, T=5 lattice from one-hot starts with ``cells``
    reachable cells before the horizon."""
    rng = np.random.default_rng(seed)
    while True:
        sys_ = build_lattice(random_model(rng, n=2, t=5, one_hot_start=True))
        if int(sys_.plan.offset[sys_.horizon]) == cells:
            return sys_


@pytest.fixture(scope="module")
def block_cases():
    """(lattice, problem, reference outcome): four random N=2, T=3 draws
    with U = 2, then lattices with several cells per slice, geometric N=3
    from a spread start (slices of 3 and 6 cells) and from one state and
    sparse N=2, T=5 ones of 12, 9 and 16 cells, with U = 3, 2, 2, 3, 2 and
    beta rows alternately on the blocks and dense."""
    rng = np.random.default_rng(81)
    cases = []
    while len(cases) < 4:
        sys_ = build_lattice(random_model(rng, n=2, t=3))
        problem = random_control_problem(sys_, rng, n_controls=2)
        if 2 ** sum(r.size for r in sys_.reachable_at[:-1]) <= 2048:
            cases.append((sys_, problem))
    spread = geometric_model([0.3, 0.5, 0.7], 2, x0=np.full(3, 1.0 / 3.0))
    for i, (sys_, u) in enumerate((
            (build_lattice(spread), 3),
            (build_lattice(geometric_model([0.3, 0.5, 0.7], 3)), 2),
            (sparse_lattice(12), 2),
            (sparse_lattice(9), 3),
            (sparse_lattice(16), 2))):
        problem = random_control_problem(sys_, np.random.default_rng(i),
                                         n_controls=u)
        if i % 2:
            problem = with_tables(problem,
                                  beta=dense_beta(sys_, problem.beta))
        cases.append((sys_, problem))
    return [(sys_, problem, reference_brute_force_value(problem, sys_))
            for sys_, problem in cases]


@pytest.mark.parametrize("block", [1, 7, 100, None])
def test_brute_force_evaluates_policies_in_blocks(block_cases, block):
    # every block size (None: the default) walks the suffixes alike:
    # within 1e-12 of the per-policy reference, and bit for bit the default
    # block's result.  The 2**16-policy lattice runs at the larger blocks
    # only (a block of one policy takes seconds there)
    for sys_, problem, want in block_cases:
        if block is not None and block < 100 and want[4] > 20_000:
            continue
        full = brute_force_value(problem, sys_)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(control, "_POLICY_BLOCK", block)
            got = brute_force_value(problem, sys_)
        assert_close(got.initial_values, want[0])
        assert_close(got.per_time_max, want[1])
        np.testing.assert_array_equal(got.best_policy.choices, want[2])
        assert_close(got.objective, want[3])
        assert got.n_policies == want[4]
        np.testing.assert_array_equal(got.per_time_max, full.per_time_max)
        assert got.objective == full.objective


def test_brute_force_memory_stays_within_the_block_buffers():
    # one slice of 19 cells before the horizon: 2**19 policies, near the
    # enumeration cap.  The peak stays within the order of the block
    # buffers, _POLICY_BLOCK * (D + largest slice * (W + 3)) floats, where a
    # table over every digit pattern of the slice would take 2**19 rows
    x0 = np.r_[np.full(19, 1.0 / 19.0), 0.0]
    sys_ = build_lattice(geometric_model(np.linspace(0.2, 0.6, 20), 1, x0=x0))
    most = sys_.reachable_at[0].size
    assert most == 19 and sys_.horizon == 1
    problem = random_control_problem(sys_, np.random.default_rng(3))
    bound = 8 * control._POLICY_BLOCK * (
        sys_.dim + most * (sys_.succ.shape[1] + 3))
    tracemalloc.start()
    try:
        got = brute_force_value(problem, sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_policies == 2**19
    assert peak <= bound
    # the best policy attains the objective, and its values the maxima
    # no higher
    values = evaluate_policy(problem, sys_, got.best_policy).values
    assert_close(sys_.dist_at[0] @ np.nan_to_num(values[0]), got.objective)
    assert np.all(values[sys_.reachable] <= got.per_time_max[sys_.reachable]
                  + 1e-12)


# ---------------------------------------------------------------------------
# The step itself


def test_step_pads_single_successor_rows():
    sys_ = build_lattice(single_path_model(np.random.default_rng(4), 3, 5))
    assert sys_.succ.shape[1] >= 2
    values = np.random.default_rng(5).standard_normal((2, sys_.dim))
    for k in range(sys_.horizon):
        assert sys_.reachable_at[k].size == 1
        mean, z = step(sys_, k, values)
        s = int(sys_.reachable_at[k][0])
        (j,) = geometry_for(sys_, s).support
        np.testing.assert_array_equal(mean[:, 0], values[:, j])
        np.testing.assert_array_equal(z, 0.0)


STEP_CASES = {
    "tiny": lambda: tiny_model(),
    "tiny-spread-start": lambda: tiny_model((0.3, 0.7)),
    "geometric-2": lambda: geometric_model([0.3, 0.6], 5),
    "geometric-3": lambda: geometric_model([0.2, 0.5, 0.8], 6),
    # state 1 leaves after one step: its stay slot is padding
    "geometric-padded": lambda: geometric_model([0.3, 1.0], 4),
    "single-path": lambda: single_path_model(np.random.default_rng(4), 3, 5),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_backward_gather_is_the_step_of_the_scattered_row(case):
    sys_ = build_lattice(STEP_CASES[case]())
    plan = sys_.plan
    tables = [np.random.default_rng(7).standard_normal(plan.cells.size)]
    # inf at the first successor of a source with a padding slot, which
    # reads it with probability zero: the mean is NaN on both paths
    padded = np.flatnonzero(~plan.real[plan.cells[:plan.offset[-2]]].all(1))
    assert padded.size or case not in ("geometric-padded", "single-path")
    if padded.size:
        inf = tables[0].copy()
        inf[plan.next_cell[padded[0], 0]] = np.inf
        tables.append(inf)
    for values in tables:
        with np.errstate(invalid="ignore"):
            steps = list(bsde._backward(sys_, values))
        assert [k for k, *_ in steps] == list(range(sys_.horizon - 1, -1, -1))
        for k, at, mean, z in steps:
            assert at == plan.span(k)
            row = np.full(sys_.dim, np.nan)
            row[sys_.reachable_at[k + 1]] = values[plan.span(k + 1)]
            with np.errstate(invalid="ignore"):
                ref = step(sys_, k, row)
            for got, want in zip((mean, z), ref):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        if values is not tables[0]:
            k = int(plan.times[padded[0]])
            mean = steps[sys_.horizon - 1 - k][2]
            assert np.isnan(mean[padded[0] - plan.offset[k]])


def test_lattice_stores_no_dense_matrix():
    sys_ = build_lattice(geometric_model([0.3, 0.5, 0.7], 6))
    for value in vars(sys_).values():
        if isinstance(value, np.ndarray):
            assert value.shape.count(sys_.dim) <= 1
    # the dense transition of the test oracle is rebuilt from the table
    np.testing.assert_allclose(transition(sys_).sum(axis=0)[sys_.sources], 1.0,
                               atol=1e-12)


@pytest.mark.parametrize("field", ["alpha", "g", "beta", "terminal"])
def test_non_finite_data_at_unreachable_cells_are_never_read(field):
    rng = np.random.default_rng(61)
    sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
    driver, terminal = random_linear_instance(sys_, rng)
    problem = random_control_problem(sys_, rng, n_controls=2)
    mask = sys_.reachable
    tables = {"alpha": driver.alpha.copy(), "g": driver.g.copy(),
              "beta": driver.beta.copy(), "terminal": terminal.copy()}
    ctl = {"alpha": problem.alpha.copy(), "g": problem.g.copy(),
           "beta": problem.beta.copy(), "terminal": problem.terminal.copy()}
    if field == "terminal":
        tables[field][~mask[-1]] = np.nan
        ctl[field][~mask[-1]] = np.nan
    else:
        tables[field][~mask[:-1]] = np.nan
        ctl[field][~mask[:-1]] = np.nan
    got = solve_bsde(sys_, LinearDriver(tables["alpha"], tables["g"],
                                        tables["beta"]), tables["terminal"])
    assert_same_solution(got, solve_bsde(sys_, driver, terminal))
    solved = solve_control(with_tables(problem, **ctl), sys_)
    np.testing.assert_array_equal(solved.values,
                                  solve_control(problem, sys_).values)
