"""The exact dual against its per-call composition kept as an oracle.

One exact dual_value call gathers its cells' keys, successor laws and
real-slot masks once, shares them between the noise, the convention's step
and the backward sweep, and computes the step and the flow in buffers it
owns.  ``tests/dense.py`` keeps the composition from before, each table on
its own (``oracle_factors``, ``oracle_sweep``).  The outputs agree bit for
bit: the exact dual_value at every start and convention, exhaustive
weight_bounds and select_convention's residuals, with beta rows on the
blocks, dense and absent, on geometric and sparse ``random_model``
lattices, one of width W = 1 and one with a source without successors.  A
planted vanishing denominator raises the oracle's message.
"""

import numpy as np
import pytest

from conftest import dead_end_model, deterministic_model, geometric_model
from dense import (
    dense_beta,
    oracle_cell_noise,
    oracle_dual_value,
    oracle_factors,
    oracle_sweep,
)
from smcbsde import (
    Convention,
    VanishingDenominatorError,
    WeightSde,
    build_lattice,
    dual_value,
    select_convention,
    weight_bounds,
)
from smcbsde import duality
from smcbsde.instances import random_model

MODELS = {
    "deterministic-W1": deterministic_model,
    "dead-end": dead_end_model,
    "geometric-N2-T7": lambda: geometric_model((0.3, 0.6), 7),
    # a state that always leaves: its steps have one real slot
    "geometric-N3-T5": lambda: geometric_model((0.2, 0.5, 1.0), 5),
    **{f"random-{seed}": lambda seed=seed: random_model(
        np.random.default_rng(seed), n_max=4, t_max=7,
        sub_stochastic_prob=(0.0, 0.3, 1.0)[seed % 3]) for seed in range(6)},
}


def _problem(sys_, seed):
    """alpha, g, beta rows on the blocks and terminal, drawn at every
    (time, state)."""
    rng = np.random.default_rng(seed)
    t, d, w = sys_.horizon, sys_.dim, sys_.block.shape[1]
    return (rng.uniform(-0.3, 0.3, (t, d)), rng.uniform(-1.0, 1.0, (t, d)),
            0.1 * rng.standard_normal((t, d, w)), rng.uniform(-1.0, 1.0, d))


def _betas(sys_, beta):
    return {"local": beta, "dense": dense_beta(sys_, beta), "none": None}


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


def test_the_cases_cover_unit_width_single_slots_and_a_dead_end():
    lattices = [build_lattice(make()) for make in MODELS.values()]
    assert any(s.succ.shape[1] == 1 for s in lattices)
    count = [np.count_nonzero(s.prob[s.sources], axis=1) for s in lattices]
    assert any(np.any(m == 1) for m in count)
    assert any(np.any(m == 0) for m in count)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exact_dual_is_the_oracle_bit_for_bit(name):
    sys_ = build_lattice(MODELS[name]())
    alpha, g, beta, terminal = _problem(sys_, sys_.dim)
    for b in _betas(sys_, beta).values():
        for conv in Convention:
            for start in range(sys_.horizon + 1):
                sde = WeightSde(alpha, b, conv, start)
                assert_same_bits(dual_value(sys_, sde, g, terminal),
                                 oracle_dual_value(sys_, sde, g, terminal))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exhaustive_weight_bounds_read_the_oracle_factors(name, monkeypatch):
    sys_ = build_lattice(MODELS[name]())
    alpha, _, beta, _ = _problem(sys_, sys_.dim + 1)
    for b in _betas(sys_, beta).values():
        for conv in Convention:
            for start in range(sys_.horizon + 1):
                sde = WeightSde(alpha, b, conv, start)
                got = repr(weight_bounds(sys_, sde))
                with monkeypatch.context() as patch:
                    patch.setattr(duality, "_factors", oracle_factors)
                    assert got == repr(weight_bounds(sys_, sde))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_select_convention_residuals_are_the_oracles(name, monkeypatch):
    sys_ = build_lattice(MODELS[name]())
    got = select_convention(sys_, trials=4, seed=sys_.dim)
    monkeypatch.setattr(duality, "_sweep", lambda sys, sde, g, terminal:
                        oracle_sweep(sys, oracle_factors(sys, sde), g,
                                     terminal))
    want = select_convention(sys_, trials=4, seed=sys_.dim)
    assert repr(got) == repr(want)


def _raised(call):
    with pytest.raises(VanishingDenominatorError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("conv", [Convention.IMPLICIT, Convention.MIXED])
def test_a_planted_zero_denominator_raises_the_oracles_message(name, conv):
    # the zero sits on the last real slot of two cells: implicit's
    # denominator 1 - a - n there is at most a rounding from zero, mixed's
    # 1 - a is zero on every slot of the cell
    sys_ = build_lattice(MODELS[name]())
    alpha, g, beta, terminal = _problem(sys_, sys_.dim + 2)
    plan, t = sys_.plan, sys_.horizon
    at = plan.span(0, t)
    real = plan.real[plan.cells[at]]
    live = np.flatnonzero(real.any(axis=1))
    planted = live[[live.size // 3, -1]]
    noise = oracle_cell_noise(sys_, beta, 0)
    for c in planted:
        k, s = plan.times[c], plan.cells[c]
        last = np.flatnonzero(real[c])[-1]
        alpha[k, s] = 1.0 - noise[c, last] if conv is Convention.IMPLICIT \
            else 1.0
    for b in (beta, dense_beta(sys_, beta)):
        for start in (0, int(plan.times[planted[-1]])):
            first = planted[plan.times[planted] >= start][0]
            sde = WeightSde(alpha, b, conv, start)
            want = _raised(lambda: oracle_dual_value(sys_, sde, g, terminal))
            assert want.endswith(f" at time {plan.times[first]}, "
                                 f"state {plan.cells[first]}")
            assert _raised(lambda: dual_value(sys_, sde, g, terminal)) == want
            assert _raised(lambda: weight_bounds(sys_, sde)) == want
