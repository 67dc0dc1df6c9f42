"""The exact dual's memo: the last sweep kept on the lattice.

A lattice keeps the last exact dual_value sweep that fits in one block: its
start, the entries it read (alpha, g and the beta rows at the cells from the
start on, the terminal at the horizon's cells) and its u per convention.  A
later call hits when its start is at or after the memo's, its convention has
been swept and the entries it reads are bitwise the memo's; a hit returns a
row of the kept u and builds no factors.  Every result, hit or miss, is the
per-call oracle's (``tests/dense.py``) bit for bit.
"""

import sys
import threading

import numpy as np
import pytest

from conftest import dead_end_model, deterministic_model, geometric_model
from dense import dense_beta, oracle_dual_value
from smcbsde import (
    Convention,
    VanishingDenominatorError,
    WeightSde,
    build_lattice,
    dual_value,
)
from smcbsde import duality, lattice
from smcbsde.instances import random_model

MODELS = {
    "deterministic-W1": deterministic_model,
    "dead-end": dead_end_model,
    "geometric-N2-T7": lambda: geometric_model((0.3, 0.6), 7),
    "geometric-N3-T5": lambda: geometric_model((0.2, 0.5, 1.0), 5),
    **{f"random-{seed}": lambda seed=seed: random_model(
        np.random.default_rng(seed), n_max=4, t_max=7,
        sub_stochastic_prob=(0.0, 0.3, 1.0)[seed % 3]) for seed in range(3)},
}


def _problem(sys_, seed):
    """alpha, g, beta rows on the blocks and terminal, drawn at every
    (time, state)."""
    rng = np.random.default_rng(seed)
    t, d, w = sys_.horizon, sys_.dim, sys_.block.shape[1]
    return (rng.uniform(-0.3, 0.3, (t, d)), rng.uniform(-1.0, 1.0, (t, d)),
            0.1 * rng.standard_normal((t, d, w)), rng.uniform(-1.0, 1.0, d))


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


@pytest.fixture
def built(monkeypatch):
    """The number of _factors calls, one per sweep: a hit builds none."""
    calls = []

    def counted(sys, sde):
        calls.append(sde.start_time)
        return factors(sys, sde)

    factors = duality._factors
    monkeypatch.setattr(duality, "_factors", counted)
    return calls


def _check(sys_, alpha, beta, conv, start, g, terminal):
    sde = WeightSde(alpha, beta, conv, start)
    assert_same_bits(dual_value(sys_, sde, g, terminal),
                     oracle_dual_value(sys_, sde, g, terminal))


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("layout", ["local", "dense", "none"])
def test_every_start_is_the_oracle_bit_for_bit(name, layout, built):
    model = MODELS[name]()
    sys_ = build_lattice(model)
    alpha, g, beta, terminal = _problem(sys_, sys_.dim)
    beta = {"local": beta, "dense": dense_beta(sys_, beta), "none": None}[layout]
    starts = range(sys_.horizon + 1)
    for order in (starts, starts[::-1]):
        sys_ = build_lattice(model)
        built.clear()
        for conv in Convention:
            for start in order:
                _check(sys_, alpha, beta, conv, start, g, terminal)
        # ascending, each convention sweeps once; descending, every call
        # starts before the memo's start and sweeps
        assert len(built) == (3 if order is starts else 3 * len(starts))


def test_string_and_enum_conventions_share_the_memo(built):
    sys_ = build_lattice(geometric_model((0.3, 0.6), 5))
    alpha, g, beta, terminal = _problem(sys_, 1)
    for conv in Convention:
        _check(sys_, alpha, beta, conv, 0, g, terminal)
    for conv in Convention:
        _check(sys_, alpha, beta, conv.value, 2, g, terminal)
    assert built == [0, 0, 0]


def _reached(sys_, k):
    return int(sys_.reachable_at[k][-1])


@pytest.mark.parametrize("edit", ["alpha", "g", "beta", "dense-beta",
                                  "terminal", "signed-zero"])
def test_an_edit_of_an_entry_read_is_seen(edit, built):
    sys_ = build_lattice(geometric_model((0.3, 0.6, 0.5), 6))
    alpha, g, beta, terminal = _problem(sys_, 2)
    if edit == "dense-beta":
        beta = dense_beta(sys_, beta)
    if edit == "signed-zero":
        g[3, _reached(sys_, 3)] = 0.0
    conv, t = Convention.MIXED, sys_.horizon
    _check(sys_, alpha, beta, conv, 0, g, terminal)
    s = _reached(sys_, 3)
    if edit == "alpha":
        alpha[3, s] += 1e-3
    elif edit == "g":
        g[3, s] = np.nextafter(g[3, s], 2.0)
    elif edit == "beta":
        beta[3, s, 1] += 1e-3
    elif edit == "dense-beta":
        beta[3, s, sys_.succ[s, 0]] += 1e-3
    elif edit == "terminal":
        terminal[_reached(sys_, t)] += 1e-3
    else:
        g[3, s] = -0.0
    built.clear()
    _check(sys_, alpha, beta, conv, 2, g, terminal)
    assert built == [2]


@pytest.mark.parametrize("edit", ["dense-off-block", "alpha-unreachable",
                                  "g-unreachable", "beta-unreachable",
                                  "terminal-unreachable", "before-start"])
def test_an_edit_off_the_entries_read_still_hits(edit, built):
    sys_ = build_lattice(geometric_model((0.3, 0.6, 0.5), 6))
    alpha, g, beta, terminal = _problem(sys_, 3)
    if edit == "dense-off-block":
        beta = dense_beta(sys_, beta)
    conv, t = Convention.SHIFTED, sys_.horizon
    _check(sys_, alpha, beta, conv, 0, g, terminal)
    s = _reached(sys_, 3)
    off = int(np.flatnonzero(~sys_.reachable[3])[0])
    if edit == "dense-off-block":
        outside = np.setdiff1d(np.arange(sys_.dim), sys_.block[
            np.searchsorted(sys_.sources, s)])
        beta[3, s, outside[0]] = np.nan
    elif edit == "alpha-unreachable":
        alpha[3, off] = np.nan
    elif edit == "g-unreachable":
        g[3, off] = np.inf
    elif edit == "beta-unreachable":
        beta[3, off] = np.nan
    elif edit == "terminal-unreachable":
        terminal[np.flatnonzero(~sys_.reachable[t])[0]] = np.nan
    else:
        alpha[1, _reached(sys_, 1)] = 0.5
    built.clear()
    _check(sys_, alpha, beta, conv, 2, g, terminal)
    assert built == []


def test_a_vanishing_denominator_stores_nothing(built):
    sys_ = build_lattice(geometric_model((0.3, 0.6), 6))
    alpha, g, beta, terminal = _problem(sys_, 4)
    conv = Convention.MIXED
    alpha[2, _reached(sys_, 2)] = 1.0  # mixed's 1 - a is zero
    with pytest.raises(VanishingDenominatorError):
        dual_value(sys_, WeightSde(alpha, beta, conv), g, terminal)
    assert sys_._dual_memo is None
    _check(sys_, alpha, beta, conv, 3, g, terminal)
    kept = sys_._dual_memo
    assert kept.start == 3
    with pytest.raises(VanishingDenominatorError):
        dual_value(sys_, WeightSde(alpha, beta, conv, 1), g, terminal)
    assert sys_._dual_memo is kept
    built.clear()
    _check(sys_, alpha, beta, conv, 4, g, terminal)
    assert built == []


def test_lattices_of_one_model_keep_their_own_memos(built):
    model = geometric_model((0.3, 0.6), 6)
    one, two = build_lattice(model), build_lattice(model)
    alpha, g, beta, terminal = _problem(one, 5)
    other = -g
    _check(one, alpha, beta, Convention.MIXED, 0, g, terminal)
    _check(two, alpha, beta, Convention.MIXED, 0, other, terminal)
    assert one._dual_memo is not two._dual_memo
    built.clear()
    _check(one, alpha, beta, Convention.MIXED, 1, g, terminal)
    _check(two, alpha, beta, Convention.MIXED, 1, other, terminal)
    assert built == []


def test_nothing_is_kept_past_one_block(monkeypatch, built):
    monkeypatch.setattr(lattice, "BLOCK_ENTRIES", 1)
    sys_ = build_lattice(geometric_model((0.3, 0.6), 6))
    alpha, g, beta, terminal = _problem(sys_, 6)
    for start in range(sys_.horizon + 1):
        _check(sys_, alpha, beta, Convention.MIXED, start, g, terminal)
    assert sys_._dual_memo is None
    assert built == list(range(sys_.horizon + 1))


def test_threads_sharing_a_lattice_read_only_their_own_sweeps():
    # each memo's u per convention was swept from the entries it holds, so
    # a thread that finds the memo replaced under it loses a hit, never a bit
    model = geometric_model((0.3, 0.6), 6)
    sys_ = build_lattice(model)
    alpha, g, beta, terminal = _problem(sys_, 7)
    tables = [g, -g, 2.0 * g, g + 1.0]
    starts = range(sys_.horizon + 1)
    want = {(i, conv, start): oracle_dual_value(
        sys_, WeightSde(alpha, beta, conv, start), table, terminal)
        for i, table in enumerate(tables) for conv in Convention
        for start in starts}
    wrong, done = [], []

    def work(i):
        for _ in range(5):
            for conv in Convention:
                for start in starts:
                    got = dual_value(sys_, WeightSde(alpha, beta, conv, start),
                                     tables[i], terminal)
                    if got.tobytes() != want[i, conv, start].tobytes():
                        wrong.append((i, conv, start))
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(tables))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(done) == list(range(len(tables)))
    assert wrong == []
