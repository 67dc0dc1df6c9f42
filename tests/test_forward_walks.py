"""The two forward walks over the successor table, against the oracles they
replaced: build_lattice's one pass per time (reachability, the flow and the
successor-cell index together) and the level walk by flat index, with the
exhaustive statistics folded over it, bit for bit."""

import tracemalloc

import numpy as np
import pytest

from smcbsde import (Convention, InvalidModelError, SemiMarkovModel,
                     WeightSde, build_lattice, simulate_paths, weight_bounds)
from smcbsde.control import _expected_max_gap_sq
from smcbsde.duality import _level_walk
from smcbsde.instances import random_linear_instance, random_model

from conftest import dead_end_model, deterministic_model, geometric_model
from dense import (oracle_build_lattice, oracle_expected_max_gap_sq,
                   oracle_level_walk, oracle_weight_bounds)


def _models():
    rng = np.random.default_rng(28)
    models = [random_model(rng) for _ in range(12)]
    # sparse draws: one start state, long horizons, few reachable cells
    models += [random_model(rng, n=n, t=t, one_hot_start=True)
               for n, t in [(4, 64), (4, 64), (5, 41), (5, 41), (3, 40)]]
    models += [geometric_model(np.linspace(0.2, 0.8, n), t)
               for n, t in [(2, 1), (3, 1), (8, 1), (2, 13), (3, 9), (4, 40),
                            (8, 16), (8, 64)]]
    models += [deterministic_model(), dead_end_model()]
    return models


MODELS = _models()


def _same(got, want, name):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("model", MODELS,
                         ids=lambda m: f"N{m.n_states}T{m.horizon}")
def test_build_lattice_fields_equal_the_oracle_bytewise(model):
    got, want = build_lattice(model), oracle_build_lattice(model)
    for name in ("reachable", "dist_at", "sources", "block", "succ", "prob",
                 "cdf"):
        _same(getattr(got, name), getattr(want, name), name)
    assert got.dim == want.dim
    assert len(got.reachable_at) == len(want.reachable_at)
    for k, (a, b) in enumerate(zip(got.reachable_at, want.reachable_at)):
        _same(a, b, f"reachable_at[{k}]")
    plan, ref = got.plan, want.plan
    for name, arr in vars(plan).items():
        if name != "next_cell":
            _same(arr, getattr(ref, name), name)
    # a source without any successor (dead_end_model) has only padding
    # slots, whose positions no reader reads: both builders leave them as
    # they find them, so they are compared on every other source
    t = model.horizon
    live = plan.real.take(plan.cells[:plan.offset[t]], axis=0).any(axis=1)
    assert plan.next_cell.dtype == ref.next_cell.dtype == np.int32
    assert plan.next_cell.shape == ref.next_cell.shape
    _same(plan.next_cell[live], ref.next_cell[live], "next_cell")
    for arr in (got.reachable, got.dist_at, plan.next_cell, plan.cells):
        assert not arr.flags.writeable


def test_build_lattice_messages_equal_the_oracle():
    self_jump = SemiMarkovModel(2, 1, np.full((2, 2), 0.5),
                                np.full((2, 2, 2), 0.5), [1.0, 0.0])
    pi = np.array([[1.0, 0.0], [0.5, 0.5]])
    jump = np.zeros((2, 2, 2))
    jump[1, :, 0] = 1.0
    dies_at_1 = SemiMarkovModel(2, 1, pi, jump, [1.0, 0.0])
    # (0, 1) leaves at once for state 1, which leaves at once for nowhere
    pi = np.zeros((2, 4))
    pi[:, 0] = 1.0
    jump = np.zeros((2, 4, 2))
    jump[0, :, 1] = 1.0
    dies_at_2 = SemiMarkovModel(2, 3, pi, jump, [1.0, 0.0])
    for model, text in [(self_jump, "lattice state (0, 1) jumps onto itself"),
                        (dies_at_1, "reachable set is empty at time 1"),
                        (dies_at_2, "reachable set is empty at time 2")]:
        messages = []
        for build in (build_lattice, oracle_build_lattice):
            with pytest.raises(InvalidModelError) as err:
                build(model)
            messages.append(str(err.value))
        assert messages == [text, text]


def _walk_cases():
    rng = np.random.default_rng(7)
    lattices = [build_lattice(random_model(rng, t_max=7)) for _ in range(6)]
    lattices += [build_lattice(m) for m in (dead_end_model(),
                                            deterministic_model())]
    lattices.append(build_lattice(geometric_model((0.3, 0.5, 0.7), 6)))
    return rng, lattices


def test_level_walk_yields_real_slots_in_order():
    _, lattices = _walk_cases()
    for sys_ in lattices:
        w = sys_.succ.shape[1]
        real = sys_.plan.real.ravel()
        for start in range(sys_.horizon + 1):
            states = sys_.reachable_at[start]
            walks = zip(_level_walk(sys_, start, states),
                        oracle_level_walk(sys_, start, states), strict=True)
            alive = states
            for (k, rows, cur, flat), (k0, rows0, cur0, slots0) in walks:
                assert k == k0
                assert flat.dtype == rows.dtype == cur.dtype == np.int64
                # every real slot of every live path, nothing else
                assert real[flat].all()
                assert flat.size == sys_.plan.real[alive].sum()
                np.testing.assert_array_equal(cur, alive[rows])
                np.testing.assert_array_equal(flat // w, cur)
                # paths in order, slots ascending within a path
                order = rows * w + flat % w
                assert (np.diff(order) > 0).all()
                np.testing.assert_array_equal(rows, rows0)
                np.testing.assert_array_equal(cur, cur0)
                np.testing.assert_array_equal(flat, cur0 * w + slots0)
                alive = sys_.succ.ravel()[flat]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_exhaustive_statistics_equal_the_oracle_walk_bit_for_bit():
    rng, lattices = _walk_cases()
    for sys_ in lattices:
        driver, _ = random_linear_instance(sys_, rng)
        alpha = driver.alpha.copy()
        # the weights run through NaN past one drift left undefined
        k = int(rng.integers(sys_.horizon))
        alpha[k, int(rng.choice(sys_.reachable_at[k]))] = np.nan
        for conv, a, beta in [(c, driver.alpha, driver.beta)
                              for c in Convention] + [
                (Convention.MIXED, alpha, driver.beta),
                (Convention.SHIFTED, driver.alpha, None)]:
            for start in range(sys_.horizon + 1):
                sde = WeightSde(a, beta, conv, start)
                got, want = weight_bounds(sys_, sde), \
                    oracle_weight_bounds(sys_, sde)
                assert list(got.per_state) == list(want.per_state)
                assert _bits(list(got.per_state.values())) == \
                    _bits(list(want.per_state.values()))
                assert _bits([got.e_max_sq, got.e_max_running_sq,
                              got.min_weight]) == \
                    _bits([want.e_max_sq, want.e_max_running_sq,
                           want.min_weight])
        delta = rng.standard_normal((sys_.horizon + 1, sys_.dim))
        delta[~sys_.reachable] = 0.0
        assert _bits([_expected_max_gap_sq(sys_, delta)]) == \
            _bits([oracle_expected_max_gap_sq(sys_, delta)])


def test_simulate_paths_holds_two_tables_at_most():
    # the time-major table goes before the split into states and durations,
    # so the peak is the table and its transposed copy (2.26 tables at this
    # size, the rest the stepper's buffers; 4.26 when the time-major table,
    # the copy, the durations and a temporary of the split were alive)
    model = geometric_model(np.linspace(0.2, 0.8, 8), 64)
    tracemalloc.start()
    states, durations = simulate_paths(model, 20_000, seed=3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2.3 * states.nbytes
    assert states.dtype == durations.dtype == np.int64
    assert states.flags.c_contiguous and durations.flags.c_contiguous
    # at horizon 0 the step loop never runs: the start draws alone
    spread = geometric_model(np.linspace(0.2, 0.8, 8), 64,
                             x0=np.full(8, 0.125))
    start, dur = simulate_paths(spread, 50, 0, seed=3)
    assert start.shape == dur.shape == (50, 1)
    assert (dur == 1).all()
    np.testing.assert_array_equal(start, simulate_paths(spread, 50, 1,
                                                        seed=3)[0][:, :1])
