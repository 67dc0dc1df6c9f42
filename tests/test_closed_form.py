"""The closed-form bracket geometry against the SVD oracle.

On each source's block the bracket B = [[0, -c'], [-c, diag c]] is
invertible (its Schur complement about diag c is -sum c), so the library
never forms B+, its projector or the noise columns: the projector is the
identity on the block, the noise and the condition norms are closed forms
in the successor law.  Each is compared here with the tables the lattice
once stored (``tests/dense.py``), at 1e-12 * (1 + |ref|), on geometric
lattices (sources with one real slot among them), sparse ``random_model``
draws, a lattice of width W = 1 and one with a source without successors.
"""

import numpy as np
import pytest

from conftest import dead_end_model, deterministic_model, geometric_model
from dense import block_geometry, pinv_noise
from smcbsde import (
    ControlProblem,
    Convention,
    WeightSde,
    build_lattice,
    comparison_condition,
    max_driver,
    positivity_condition,
)
from smcbsde.bsde import _gather
from smcbsde.duality import _cell_noise, _factors, _walk
from smcbsde.instances import random_model
from smcbsde.linalg import _bracket_norms, _per_time_max


def _models():
    rng = np.random.default_rng(2024)
    out = [("deterministic-W1", deterministic_model),
           ("dead-end", dead_end_model)]
    for i in range(24):
        n, t = int(rng.integers(2, 7)), int(rng.integers(2, 11))
        deltas = rng.uniform(0.05, 0.95, n)
        if i % 3 == 0:
            # a state that always leaves: with N = 2 its steps have one slot
            deltas[int(rng.integers(n))] = 1.0
        out.append((f"geometric-N{n}-T{t}-{i}",
                    lambda d=deltas, t=t: geometric_model(d, t)))
    for i in range(30):
        seed = int(rng.integers(2**31))
        sub = (0.0, 0.3, 1.0)[i % 3]
        out.append((f"random-{seed}", lambda s=seed, p=sub: random_model(
            np.random.default_rng(s), n_max=5, t_max=8, sub_stochastic_prob=p)))
    return out


MODELS = _models()


def assert_near(got, ref):
    np.testing.assert_array_less(np.abs(got - ref), 1e-12 * (1.0 + np.abs(ref)))


def test_the_cases_cover_single_slots_unit_width_and_a_dead_end():
    lattices = [build_lattice(make()) for _, make in MODELS]
    assert len(lattices) >= 50
    assert any(s.succ.shape[1] == 1 for s in lattices)
    count = [np.count_nonzero(s.prob[s.sources], axis=1) for s in lattices]
    assert sum(np.any(m == 1) for m in count) >= 5
    assert any(np.any(m == 0) for m in count)


@pytest.mark.parametrize("make", [m for _, m in MODELS],
                         ids=[name for name, _ in MODELS])
def test_closed_forms_match_the_svd_oracle(make):
    sys_ = build_lattice(make())
    rng = np.random.default_rng(sys_.dim)
    t, d, w = sys_.horizon, sys_.dim, sys_.succ.shape[1]
    br, bp, proj, psd = block_geometry(sys_)
    real = sys_.prob[sys_.sources] > 0.0
    live = real.any(axis=1)

    # B is invertible on the block of a source with successors, with one
    # negative eigenvalue: never PSD; its projector is the identity there
    assert not psd[live].any()
    keep = np.concatenate((live[:, None], real), axis=1)
    assert_near(np.eye(w + 1) * keep[:, None, :], proj)
    bracket, pinv_sq = _bracket_norms(sys_)
    assert_near(bracket, np.linalg.norm(br, axis=(1, 2)))
    assert_near(pinv_sq, np.linalg.norm(bp, axis=(1, 2)) ** 2)
    l, omega2 = rng.uniform(0.1, 2.0, 2)
    assert_near(positivity_condition(sys_, l).lhs, _per_time_max(
        sys_, np.sqrt(2.0) * l * np.linalg.norm(br, axis=(1, 2))
        * np.linalg.norm(bp, axis=(1, 2)) ** 2))
    assert_near(comparison_condition(sys_, omega2).lhs, _per_time_max(
        sys_, 6.0 * omega2**2 * np.linalg.norm(sys_.prob)
        * np.linalg.norm(bp, axis=(1, 2)) ** 2))

    # the noise at the plan's cells, on the real slots
    plan = sys_.plan
    at = plan.span(0, t)
    times, cells = plan.times[at], plan.cells[at]
    src = np.searchsorted(sys_.sources, cells)
    real = plan.real[cells]
    beta = rng.standard_normal((t, d, w + 1))
    want = pinv_noise(sys_, beta)[times, src]
    got = _cell_noise(sys_, beta, at, sys_.prob[cells], real)
    assert_near(got[real], want[real])

    # _gather's coef: each row b through the oracle projector
    for shape in ((t, d), (t, d, 3)):
        rows = rng.standard_normal(shape + (w + 1,))
        terms, _, got_rows = _gather(sys_, rng.uniform(-0.5, 0.5, shape),
                                     rng.standard_normal(shape), rows)
        p = proj[src].reshape((src.size,) + (1,) * (len(shape) - 2)
                              + proj.shape[1:])
        assert_near(terms.coef, (got_rows[..., None, :] @ p)[..., 0, 1:])

    # max_driver's P z, at each source's first reachable time
    problem = ControlProblem(
        [0.0, 1.0], rng.uniform(-0.5, 0.5, (t, d, 2)),
        rng.standard_normal((t, d, 2, w + 1)), rng.standard_normal((t, d, 2)),
        np.zeros(d), 1.0, 1.0)
    first = np.argmax(sys_.reachable[:t], axis=0)
    for i, s in enumerate(sys_.sources.tolist()):
        k, y, z = int(first[s]), rng.standard_normal(), rng.standard_normal(d)
        vals = max_driver(problem, sys_, k, s, y, z)[2]
        pz = proj[i] @ z[sys_.block[i]]
        ref = problem.alpha[k, s] * y + problem.beta[k, s] @ pz \
            + problem.g[k, s]
        assert_near(vals, ref)


@pytest.mark.parametrize("make", [m for _, m in MODELS],
                         ids=[name for name, _ in MODELS])
def test_cell_noise_and_the_walk_agree_bit_for_bit(make):
    # one step from every reachable cell through every real slot: the walk
    # evaluates the noise at the drawn slot, the tables at the cells
    sys_ = build_lattice(make())
    rng = np.random.default_rng(sys_.dim)
    t, d, w = sys_.horizon, sys_.dim, sys_.succ.shape[1]
    alpha = rng.uniform(-0.5, 0.5, (t, d))
    beta = rng.standard_normal((t, d, w + 1))
    plan = sys_.plan
    for k in range(t):
        src = sys_.reachable_at[k]
        rows, slots = np.nonzero(plan.real[src])
        paths = np.stack((src[rows], sys_.succ[src[rows], slots]), axis=1)
        for conv in Convention:
            sde = WeightSde(alpha, beta, conv, k)
            v, _ = _walk(sys_, sde, k, paths, slots[:, None])
            step = _factors(sys_, sde).step
            np.testing.assert_array_equal(v[:, 1], step[rows, slots])
