"""One beta layout: coefficient rows on each source's block, and dense rows
read through the lattice's one gather.

A dense (T, D, ..., D) table and the same rows gathered onto the blocks,
(T, D, ..., W+1), must give bit-identical results in every reader; any
other width is refused.  The dense tables here are full rows, nonzero off
the blocks, and the gathered tables keep what the gather puts in the
padding slots (the first successor's entry), which every reader weights
by zero.
"""

import tracemalloc

import numpy as np
import pytest

from smcbsde import (
    ControlProblem,
    LinearDriver,
    SemiMarkovModel,
    WeightSde,
    brute_force_value,
    build_lattice,
    dual_value,
    epsilon_optimal_policy,
    evolve_weights,
    solve_bsde,
    solve_control,
    weight_bounds,
)
from smcbsde import lattice
from smcbsde.duality import Convention, _drawn_paths
from smcbsde.instances import (
    max_beta_for_positivity,
    random_control_problem,
    random_linear_instance,
    random_model,
)

from conftest import geometric_model
from dense import dense_beta, geometry_for

WIDTHS = (r"field 'beta' has rows of width \d+ but the model's lattice takes "
          r"W\+1 = \d+ \(rows on the blocks\) or D = \d+ \(dense rows\)$")


def gathered(sys_, table):
    """The rows of a dense table at the reachable cells, on the blocks."""
    local = np.zeros(table.shape[:-1] + sys_.block.shape[1:])
    k, s = np.nonzero(sys_.reachable[:-1])
    local[k, s] = sys_.block_rows(table, k, s)
    return local


def dense_table(sys_, rng, shape, bound):
    """Full random rows over the flat states, of norm at most ``bound``."""
    table = rng.standard_normal((sys_.horizon, sys_.dim) + shape + (sys_.dim,))
    table /= np.linalg.norm(table, axis=-1, keepdims=True)
    return table * bound * rng.uniform(0.2, 1.0, table.shape[:-1] + (1,))


def lattices():
    rng = np.random.default_rng(2024)
    for n, t in ((2, 1), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)):
        yield build_lattice(random_model(rng, n=n, t=t)), rng
    yield build_lattice(geometric_model((0.3, 0.6), 3)), rng


def assert_same(got, want):
    np.testing.assert_array_equal(got, want)


def test_block_rows_reads_the_block_entries_of_dense_rows():
    for sys_, rng in lattices():
        table = rng.standard_normal((sys_.horizon, sys_.dim, 2, sys_.dim))
        local = gathered(sys_, table)
        for k in range(sys_.horizon):
            for s in sys_.reachable_at[k]:
                block = geometry_for(sys_, int(s)).block
                assert_same(local[k, s, :, :block.size], table[k, s][:, block])
                assert_same(sys_.block_rows(table, k, s), local[k, s])
                assert_same(sys_.block_rows(local, k, s), local[k, s])


def test_dense_and_local_beta_agree_bit_for_bit():
    for sys_, rng in lattices():
        driver, terminal = random_linear_instance(sys_, rng)
        dense = dense_table(sys_, rng, (), 0.9 * max_beta_for_positivity(sys_))
        pair = [LinearDriver(driver.alpha, driver.g, beta)
                for beta in (dense, gathered(sys_, dense))]

        sols = [solve_bsde(sys_, d, terminal) for d in pair]
        assert_same(sols[0].values, sols[1].values)
        assert_same(sols[0].local_integrands, sols[1].local_integrands)
        assert pair[0].bounds(sys_) == pair[1].bounds(sys_)

        path = _drawn_paths(sys_, 0, [int(sys_.reachable_at[0][0])], 1,
                            rng)[0][0]
        for conv in Convention:
            for start in range(sys_.horizon + 1):
                sdes = [WeightSde(d.alpha, d.beta, conv, start) for d in pair]
                for kwargs in ({}, {"mc_paths": 20, "seed": start}):
                    assert_same(*(dual_value(sys_, sde, driver.g, terminal,
                                             **kwargs) for sde in sdes))
                for kwargs in ({}, {"samples": 20, "seed": start}):
                    a, b = (weight_bounds(sys_, sde, **kwargs) for sde in sdes)
                    assert (a.e_max_sq, a.e_max_running_sq, a.min_weight,
                            a.per_state) == (b.e_max_sq, b.e_max_running_sq,
                                             b.min_weight, b.per_state)
            sdes = [WeightSde(d.alpha, d.beta, conv) for d in pair]
            assert_same(*(evolve_weights(sys_, sde, path) for sde in sdes))


@pytest.mark.parametrize("entries", [1, 5, 40])
def test_gathers_in_blocks_agree_bit_for_bit(monkeypatch, entries):
    # the per-cell gathers of per-source tables (beta rows, projectors,
    # noise columns) run in blocks of BLOCK_ENTRIES entries; any block size,
    # one cell or time per block included, gives the one-block results
    def results(sys_, driver, terminal):
        sol = solve_bsde(sys_, driver, terminal)
        out = [sol.values, sol.local_integrands]
        for conv in Convention:
            for start in range(sys_.horizon + 1):
                sde = WeightSde(driver.alpha, driver.beta, conv, start)
                for kwargs in ({}, {"mc_paths": 7, "seed": start}):
                    out.append(dual_value(sys_, sde, driver.g, terminal,
                                          **kwargs))
                out.extend(weight_bounds(sys_, sde).per_state.values())
        return out

    for sys_, rng in lattices():
        driver, terminal = random_linear_instance(sys_, rng)
        for beta in (driver.beta, dense_beta(sys_, driver.beta)):
            beta[~sys_.reachable[:-1]] = np.nan  # never read
            blocked = LinearDriver(driver.alpha, driver.g, beta)
            want = results(sys_, blocked, terminal)
            with monkeypatch.context() as m:
                m.setattr(lattice, "BLOCK_ENTRIES", entries)
                got = results(sys_, blocked, terminal)
            for a, b in zip(got, want):
                assert_same(a, b)


def test_dense_and_local_control_beta_agree_bit_for_bit():
    checked = 0
    for sys_, rng in lattices():
        if 2 ** sum(r.size for r in sys_.reachable_at[:-1]) > 4096:
            continue
        base = random_control_problem(sys_, rng, n_controls=2)
        dense = dense_table(sys_, rng, (2,), base.beta_bound)
        pair = [ControlProblem(base.controls, base.alpha, beta, base.g,
                               base.terminal, base.alpha_bound,
                               base.beta_bound)
                for beta in (dense, gathered(sys_, dense))]

        solved = [solve_control(p, sys_) for p in pair]
        assert_same(solved[0].values, solved[1].values)
        assert_same(solved[0].policy.choices, solved[1].policy.choices)
        assert solved[0].ties == solved[1].ties

        brute = [brute_force_value(p, sys_) for p in pair]
        assert_same(brute[0].per_time_max, brute[1].per_time_max)
        assert_same(brute[0].initial_values, brute[1].initial_values)
        assert_same(brute[0].best_policy.choices, brute[1].best_policy.choices)
        assert brute[0].objective == brute[1].objective

        eps = [epsilon_optimal_policy(p, sys_, s, 0.05)
               for p, s in zip(pair, solved)]
        assert_same(eps[0][0].choices, eps[1][0].choices)
        a, b = (report for _, report in eps)
        assert (a.measured, a.bound, a.c_tilde) == (b.measured, b.bound,
                                                    b.c_tilde)
        checked += 1
    assert checked >= 4


def test_bounds_take_the_norm_on_the_block():
    # the dense rows' entries off the block, and the padding slots of the
    # gathered rows, count for nothing
    for sys_, rng in lattices():
        dense = dense_table(sys_, rng, (), 1.0)
        driver = LinearDriver(np.zeros(dense.shape[:2]),
                              np.zeros(dense.shape[:2]), dense)
        want = max(
            np.linalg.norm(dense[k, s, geometry_for(sys_, int(s)).block])
            for k in range(sys_.horizon) for s in sys_.reachable_at[k]
        )
        assert driver.bounds(sys_)[1] == pytest.approx(want, rel=1e-15)
        on_blocks = LinearDriver(driver.alpha, driver.g,
                                 gathered(sys_, dense_beta(sys_, dense)))
        assert on_blocks.bounds(sys_)[1] == pytest.approx(want, rel=1e-15)


def test_widths_coincide_at_one_state_and_one_step():
    # N = 1, T = 1: D = 2 = W+1, and the only block is (0, 1), so a dense
    # row and a row on the block are the same two entries
    model = SemiMarkovModel(1, 1, np.zeros((1, 2)), np.zeros((1, 2, 1)),
                            np.ones(1))
    sys_ = build_lattice(model)
    assert sys_.dim == sys_.block.shape[1] == 2
    assert sys_.block.tolist() == [[0, 1]]
    beta = np.array([[[0.3, -0.4], [5.0, 7.0]]])
    assert_same(sys_.block_rows(beta, 0, 0), beta[0, 0])
    assert_same(sys_.block_rows(beta, 0, 0), beta[0, 0, sys_.block[0]])
    driver = LinearDriver(np.full((1, 2), 0.2), np.full((1, 2), 0.1), beta)
    assert driver.bounds(sys_)[1] == pytest.approx(0.5, rel=1e-15)
    terminal = np.array([0.0, 2.0])
    sol = solve_bsde(sys_, driver, terminal)
    assert sol.values[0, 0] == pytest.approx((2.0 + 0.1) / 0.8, rel=1e-15)
    dual = dual_value(sys_, WeightSde.from_driver(driver), driver.g, terminal)
    assert dual[0] == pytest.approx(sol.values[0, 0], rel=1e-15)


def short_beta(sys_, rng, inner=()):
    """Rows one entry short of dense: neither D nor W+1 wide."""
    return rng.standard_normal((sys_.horizon, sys_.dim) + inner
                               + (sys_.dim - 1,))


def mis_sized_lattices():
    rng = np.random.default_rng(3)
    for _ in range(8):
        yield build_lattice(random_model(rng, n_max=3, t_max=4)), rng


def test_mis_sized_beta_raises_in_solve_bsde_and_dual_value():
    for sys_, rng in mis_sized_lattices():
        driver, terminal = random_linear_instance(sys_, rng)
        short = LinearDriver(driver.alpha, driver.g, short_beta(sys_, rng))
        with pytest.raises(ValueError, match=WIDTHS):
            solve_bsde(sys_, short, terminal)
        sde = WeightSde.from_driver(short)
        for kwargs in ({}, {"mc_paths": 5, "seed": 1}):
            with pytest.raises(ValueError, match=WIDTHS):
                dual_value(sys_, sde, driver.g, terminal, **kwargs)
        with pytest.raises(ValueError, match=WIDTHS):
            short.bounds(sys_)


def test_mis_sized_beta_raises_in_solve_control():
    for sys_, rng in mis_sized_lattices():
        base = random_control_problem(sys_, rng, n_controls=2)
        problem = ControlProblem(base.controls, base.alpha,
                                 short_beta(sys_, rng, (2,)), base.g,
                                 base.terminal, base.alpha_bound,
                                 base.beta_bound)
        with pytest.raises(ValueError, match=WIDTHS):
            solve_control(problem, sys_)


def test_random_linear_instance_memory_stays_on_the_blocks():
    # geometric N=6, T=48: dense beta rows alone would be 33 MB
    sys_ = build_lattice(geometric_model((0.2, 0.3, 0.4, 0.5, 0.6, 0.7), 48))
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        driver, _ = random_linear_instance(sys_, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert driver.beta.shape == (48, sys_.dim, sys_.block.shape[1])
    assert peak < 5e6
