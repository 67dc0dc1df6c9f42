"""Cell-major solution tables against the dense (T+1, D) oracle.

A solution keeps a value per reachable cell and the local integrand rows
per cell before the horizon; the (T+1, D), (T, D, W) and (T, D, D) tables
are views built on first read.  They must hold the dense oracle's tables
bit for bit, NaN at the unreachable cells included.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcbsde import (
    GeneralDriver,
    LinearDriver,
    build_lattice,
    solve_bsde,
    solve_control,
)
from smcbsde.instances import (
    random_control_problem,
    random_linear_instance,
    random_model,
)

from conftest import geometric_model
from dense import dense_beta, dense_solve, dense_solve_control


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_views(sol, want):
    """The views of ``sol`` are dense_solve's tables, read-only and kept;
    its cell-major tables are theirs at the plan's cells."""
    for name, table in zip(("values", "local_integrands", "integrands"), want):
        view = getattr(sol, name)
        assert_bits(view, table)
        assert not view.flags.writeable
        assert getattr(sol, name) is view
    plan, n = sol.plan, sol.cell_integrands.shape[0]
    assert n == plan.offset[-2]
    assert_bits(sol.cell_values, want[0][plan.times, plan.cells])
    assert_bits(sol.cell_integrands, want[1][plan.times[:n], plan.cells[:n]])


@st.composite
def lattices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_model(
        rng, n=draw(st.integers(2, 4)), t=draw(st.integers(1, 6)),
        sub_stochastic_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    return build_lattice(model), rng


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(lattices())
def test_views_equal_the_dense_tables_bit_for_bit(case):
    sys_, rng = case
    driver, terminal = random_linear_instance(sys_, rng)
    # beta on the blocks, as dense rows and absent; running terms of 1e308
    # overflow the values to inf and NaN at reachable cells
    huge = np.where(driver.g != 0.0, 1e308, 0.0)
    for beta, g in ((driver.beta, driver.g), (dense_beta(sys_, driver.beta),
                    driver.g), (None, driver.g), (driver.beta, huge)):
        linear = LinearDriver(driver.alpha, g, beta)
        with np.errstate(all="ignore"):
            assert_views(solve_bsde(sys_, linear, terminal),
                         dense_solve(sys_, linear, terminal))

    w = rng.standard_normal((sys_.horizon, sys_.dim, sys_.dim))

    def fn(k, s, y, z):
        return 0.2 * y + 0.25 * np.tanh(y) + 0.5 * np.tanh(float(w[k, s] @ z))

    general = GeneralDriver(fn)
    assert_views(solve_bsde(sys_, general, terminal),
                 dense_solve(sys_, general, terminal))

    # control: the closed forms, and a verified root at one cell where a
    # drift sits just above one
    problem = random_control_problem(sys_, rng, n_controls=2)
    k = int(rng.integers(sys_.horizon))
    s = int(rng.choice(sys_.reachable_at[k]))
    alpha, g = problem.alpha.copy(), problem.g.copy()
    alpha[k, s, 1], g[k, s, 1] = 1.0 + 1e-13, -50.0
    rooted = replace(problem, alpha=alpha, g=g, alpha_bound=1.1)
    for prob in (problem, rooted):
        assert_views(solve_control(prob, sys_).solution,
                     dense_solve_control(prob, sys_))


@pytest.fixture(scope="module")
def long_horizon():
    # geometric N=8, T=512: 198,768 reachable cells against (T+1) D = 2.1 M
    # entries; dense (T+1, D) values and (T, D, W) integrands alone took
    # 151 MB
    sys_ = build_lattice(geometric_model(np.linspace(0.2, 0.8, 8), 512))
    assert sys_.plan.cells.size == 198_768
    return sys_


@pytest.mark.parametrize("with_beta, limit", [(True, 60e6), (False, 50e6)])
def test_long_horizon_linear_solve_keeps_only_the_reachable_cells(
        long_horizon, with_beta, limit):
    sys_ = long_horizon
    t, d = sys_.horizon, sys_.dim
    rng = np.random.default_rng(3)
    beta = None
    if with_beta:  # rows on the blocks
        beta = 0.1 * rng.standard_normal((t, d, sys_.block.shape[1]))
    driver = LinearDriver(rng.uniform(-0.1, 0.1, (t, d)),
                          rng.uniform(-1.0, 1.0, (t, d)), beta)
    terminal = rng.uniform(-1.0, 1.0, d)
    tracemalloc.start()
    try:
        sol = solve_bsde(sys_, driver, terminal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(sol.cell_values).all()
    assert peak < limit
