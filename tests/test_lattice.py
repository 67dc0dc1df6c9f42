"""Stacked (state, duration) representation: transition blocks, reachability,
per-state noise geometry, integrand equivalence and projection constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcbsde import (
    ControlProblem,
    UnreachableStateError,
    build_lattice,
    canonical_integrand,
    integrands_equivalent,
    max_driver,
    noise_seminorm,
    projection_constants,
)
from smcbsde.instances import random_model
from smcbsde.lattice import _overlap_components
from smcbsde.linalg import comparison_condition, positivity_condition

from conftest import TINY_TRANSITION, geometric_model, tiny_model
from dense import (
    bracket_matrix,
    covariance_matrix,
    geometry_for,
    step_distribution,
    transition,
)


def test_flat_index_and_label_roundtrip():
    sys_ = build_lattice(tiny_model())
    assert sys_.dim == 4
    for state in range(2):
        for dur in (1, 2):
            flat = sys_.flat_index(state, dur)
            assert sys_.label(flat) == (state, dur)
    with pytest.raises(ValueError):
        sys_.flat_index(0, 0)
    with pytest.raises(ValueError):
        sys_.flat_index(2, 1)


def test_transition_matrix_frozen_tiny():
    sys_ = build_lattice(tiny_model())
    np.testing.assert_allclose(transition(sys_), TINY_TRANSITION, atol=1e-15)


def test_transition_blocks_from_first_principles():
    # Rebuild the stacked matrix column by column from the hazard formulas
    # and compare with the assembled block version.
    rng = np.random.default_rng(31)
    for _ in range(10):
        model = random_model(rng, n_max=4, t_max=6)
        sys_ = build_lattice(model)
        n, t = model.n_states, model.horizon
        cum = np.cumsum(model.pi, axis=1)
        expected = np.zeros((sys_.dim, sys_.dim))
        for i in range(n):
            for m in range(1, t + 2):
                col = (m - 1) * n + i
                surv_prev = 1.0 if m == 1 else 1.0 - cum[i, m - 2]
                if surv_prev <= 0.0:
                    continue
                hazard = model.pi[i, m - 1] / surv_prev
                for j in range(n):
                    if j != i:
                        expected[j, col] = model.jump[i, m - 1, j] * hazard
                if m <= t:
                    expected[m * n + i, col] = 1.0 - hazard
        np.testing.assert_allclose(transition(sys_), expected, atol=1e-12)


def test_reachable_growth_and_distribution_tiny():
    sys_ = build_lattice(tiny_model())
    assert [list(r) for r in sys_.reachable_at] == [[0], [1, 2]]
    np.testing.assert_allclose(sys_.dist_at[0], [1.0, 0.0, 0.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(sys_.dist_at[1], [0.0, 0.4, 0.6, 0.0],
                               atol=1e-15)
    assert sorted(int(s) for s in sys_.sources) == [0]


def test_reachable_cardinality_bound():
    rng = np.random.default_rng(99)
    for _ in range(20):
        model = random_model(rng)
        sys_ = build_lattice(model)
        for k, reach in enumerate(sys_.reachable_at):
            assert 0 < len(reach) <= (k + 1) * model.n_states
            assert np.all(sys_.dist_at[k, reach] >= 0.0)
            assert sys_.dist_at[k].sum() == pytest.approx(1.0, abs=1e-12)
            off = np.setdiff1d(np.arange(sys_.dim), reach)
            assert np.all(sys_.dist_at[k, off] == 0.0)


def test_source_columns_are_stochastic():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sys_ = build_lattice(random_model(rng))
        for k in range(sys_.horizon):
            for s in sys_.reachable_at[k]:
                assert transition(sys_)[:, int(s)].sum() == pytest.approx(
                    1.0, abs=1e-12
                )


def test_geometry_frozen_tiny():
    sys_ = build_lattice(tiny_model())
    geo = geometry_for(sys_, 0)
    assert geo.support.tolist() == [1, 2]
    c = np.array([0.0, 0.4, 0.6, 0.0])
    np.testing.assert_allclose(geo.column, c, atol=1e-15)
    np.testing.assert_allclose(step_distribution(sys_, 0), c, atol=1e-15)
    cov = np.diag(c) - np.outer(c, c)
    np.testing.assert_allclose(geo.covariance, cov, atol=1e-15)
    np.testing.assert_allclose(covariance_matrix(sys_, 0), cov, atol=1e-15)
    e0 = np.zeros(4)
    e0[0] = 1.0
    bracket = np.diag(c) - np.outer(e0, c) - np.outer(c, e0)
    np.testing.assert_allclose(geo.bracket, bracket, atol=1e-15)
    np.testing.assert_allclose(bracket_matrix(sys_, 0), bracket, atol=1e-15)
    # The bracket mixes signs at any genuinely random source.
    eigs = np.linalg.eigvalsh(bracket)
    assert eigs[0] < -1e-12 and eigs[-1] > 1e-12
    assert not geo.bracket_psd


def test_geometry_unreachable_raises():
    sys_ = build_lattice(tiny_model())
    assert 3 not in sys_.sources
    with pytest.raises(UnreachableStateError, match=r"\(1, 2\)"):
        canonical_integrand(sys_, 0, np.ones(4), state=3)
    # started in state 1, the source (1, 1) lies above the non-source (0, 1)
    sys_ = build_lattice(tiny_model(x0=(0.0, 1.0)))
    assert sys_.sources.tolist() == [1]
    problem = ControlProblem([0.0], np.zeros((1, 4, 1)), np.zeros((1, 4, 1, 4)),
                             np.zeros((1, 4, 1)), np.zeros(4), 1.0, 1.0)
    with pytest.raises(UnreachableStateError, match=r"\(0, 1\)"):
        max_driver(problem, sys_, 0, 0, 0.0, np.ones(4))


def test_projector_reproduces_canonical_rows():
    rng = np.random.default_rng(17)
    for _ in range(10):
        sys_ = build_lattice(random_model(rng, n_max=4, t_max=5))
        for s in sorted(sys_.sources):
            geo = geometry_for(sys_, int(s))
            row = rng.standard_normal(sys_.dim)
            can = canonical_integrand(sys_, 0, row, state=int(s))
            np.testing.assert_allclose(geo.projector @ can, can, atol=1e-10)
            # products with every realizable increment are preserved
            for j in geo.support:
                j = int(j)
                inc = -geo.column.copy()
                inc[j] += 1.0
                assert row @ inc == pytest.approx(can @ inc, abs=1e-10)


def test_canonical_integrand_per_state_properties():
    sys_ = build_lattice(tiny_model())
    rng = np.random.default_rng(3)
    row = rng.standard_normal(4)
    can = canonical_integrand(sys_, 0, row, state=0)
    geo = geometry_for(sys_, 0)
    assert can[0] == 0.0 and can[3] == 0.0
    assert geo.column @ can == pytest.approx(0.0, abs=1e-14)
    # idempotent
    np.testing.assert_allclose(canonical_integrand(sys_, 0, can, state=0), can,
                               atol=1e-14)


def test_canonical_integrand_joint_handles_overlap():
    # Two sources at time 1 of the tiny model with x0 = e0 are (1,1) and
    # (0,2); their successor supports both contain (1,1)'s targets? Build a
    # bigger case and just verify the defining properties.
    rng = np.random.default_rng(8)
    for _ in range(8):
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
        k = sys_.horizon - 1
        row = rng.standard_normal(sys_.dim)
        can = canonical_integrand(sys_, k, row)
        assert integrands_equivalent(sys_, k, row, can)
        np.testing.assert_allclose(canonical_integrand(sys_, k, can), can,
                                   atol=1e-11)
        union = sorted(
            {int(j) for s in sys_.reachable_at[k]
             for j in geometry_for(sys_, int(s)).support}
        )
        off = np.setdiff1d(np.arange(sys_.dim), union)
        assert np.all(can[off] == 0.0)


def scipy_components(rows, succ, n, d):
    """The overlap components as canonical_integrand took them from scipy:
    connected components of the graph joining source i to successor node
    n + j, numbered by np.unique over the sources' scipy labels."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(rows.size), (rows, n + succ)), (n + d, n + d))
    labels = connected_components(graph, directed=False)[1][:n]
    return np.unique(labels, return_inverse=True)[1]


def test_overlap_components_match_scipy():
    rng = np.random.default_rng(19)
    # the source-successor pairs of random lattices at every time
    for _ in range(30):
        sys_ = build_lattice(random_model(rng, n_max=5, t_max=8))
        for k in range(sys_.horizon):
            src = sys_.reachable_at[k]
            rows, slots = np.nonzero(sys_.plan.real[src])
            pairs = rows, sys_.succ[src[rows], slots], src.size, sys_.dim
            np.testing.assert_array_equal(_overlap_components(*pairs),
                                          scipy_components(*pairs))
    # random sparse pairs: chains, isolated sources and unused successors
    for _ in range(200):
        n, d = (int(v) for v in rng.integers(1, 40, 2))
        m = int(rng.integers(0, 2 * n))
        pairs = rng.integers(0, n, m), rng.integers(0, d, m), n, d
        np.testing.assert_array_equal(_overlap_components(*pairs),
                                      scipy_components(*pairs))


def test_equivalence_three_way_coherence():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(6):
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
        t = sys_.horizon
        for _ in range(8):
            k = int(rng.integers(t))
            row1 = rng.standard_normal(sys_.dim)
            if rng.random() < 0.5:
                # same class: shift by a constant plus off-support junk
                row2 = row1 + rng.uniform(-2, 2)
            else:
                row2 = rng.standard_normal(sys_.dim)
            rows1 = [row1 if u == k else np.zeros(sys_.dim) for u in range(t)]
            rows2 = [row2 if u == k else np.zeros(sys_.dim) for u in range(t)]
            sem = noise_seminorm(
                sys_, [a - b for a, b in zip(rows1, rows2)], up_to=t - 1
            )
            equiv = integrands_equivalent(sys_, k, row1, row2)
            can_equal = np.allclose(
                canonical_integrand(sys_, k, row1),
                canonical_integrand(sys_, k, row2),
                atol=1e-9,
            )
            # seminorm-zero iff pathwise-equal iff canonical-equal
            assert (sem <= 1e-9) == equiv == can_equal
            checked += 1
    assert checked == 48


def test_non_finite_rows_are_never_equivalent():
    sys_ = build_lattice(geometric_model([0.3, 0.6], 4))
    zeros = np.zeros(sys_.dim)
    row = np.full(sys_.dim, np.nan)
    for k in range(sys_.horizon):
        assert not integrands_equivalent(sys_, k, row, zeros)
        for s in sys_.reachable_at[k]:
            assert not integrands_equivalent(sys_, k, row, zeros, state=int(s))
            assert not integrands_equivalent(sys_, k, zeros, row, state=int(s))
    assert integrands_equivalent(sys_, 0, zeros, zeros, state=0)


def test_constant_rows_have_zero_seminorm():
    sys_ = build_lattice(geometric_model([0.3, 0.6], 4))
    rows = [np.full(sys_.dim, 2.5) for _ in range(sys_.horizon)]
    assert noise_seminorm(sys_, rows) == pytest.approx(0.0, abs=1e-14)
    for k in range(sys_.horizon):
        can = canonical_integrand(sys_, k, rows[k])
        np.testing.assert_allclose(can, 0.0, atol=1e-12)


def test_noise_seminorm_input_checks():
    sys_ = build_lattice(tiny_model())
    with pytest.raises(ValueError):
        noise_seminorm(sys_, [np.zeros(4)], up_to=1)


def test_projection_constants_frozen_tiny():
    sys_ = build_lattice(tiny_model())
    pc = projection_constants(sys_)
    # mean-zero directions under c = (0.4, 0.6) are multiples of (3, -2);
    # |(3,-2)|^2 / (0.4*9 + 0.6*4) = 13/6, so the sharp constant is its root
    assert pc.overall == pytest.approx(np.sqrt(13.0 / 6.0), rel=1e-12)
    assert pc.per_time.shape == (1,)


def test_projection_constants_zero_noise():
    # Deterministic model: sojourn always 1 step, jumps deterministic.
    pi = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    jump = np.zeros((2, 3, 2))
    jump[0, :, 1] = 1.0
    jump[1, :, 0] = 1.0
    from smcbsde import SemiMarkovModel

    model = SemiMarkovModel(2, 2, pi, jump, [1.0, 0.0])
    sys_ = build_lattice(model)
    pc = projection_constants(sys_)
    assert pc.overall == 0.0
    # single-outcome steps carry zero covariance but a non-zero bracket
    geo = geometry_for(sys_, 0)
    np.testing.assert_allclose(geo.covariance, 0.0, atol=1e-15)
    assert np.linalg.norm(geo.bracket) > 0.5


def test_projection_constants_near_deterministic_source():
    # state 0 leaves with probability 1e-11: at time 0 the mean-zero
    # directions under c = (c1, c2) are multiples of (c2, -c1), so the sharp
    # constant is sqrt(c2/c1 + c1/c2), about 3.16e5, the largest of the run
    sys_ = build_lattice(geometric_model([1e-11, 0.5], 3))
    assert sys_.reachable_at[0].tolist() == [0]
    c1, c2 = sys_.prob[0][sys_.plan.real[0]]
    want = np.sqrt(c2 / c1 + c1 / c2)
    pc = projection_constants(sys_)
    assert pc.per_time[0] == pytest.approx(want, rel=1e-9)
    assert pc.overall == pc.per_time[0]
    assert want > 3e5


def test_projection_constant_bounds_canonical_rows_and_is_sharp():
    # Independent oracle for the per-source constant: substituting
    # w = sqrt(c) * v maps the seminorm to the plain norm, and the mean-zero
    # constraint to orthogonality against u = sqrt(c) (a unit vector, since
    # the successor law sums to one).  The squared constant is then the top
    # eigenvalue of (I - uu') diag(1/c) (I - uu').
    rng = np.random.default_rng(21)
    for _ in range(6):
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
        pc = projection_constants(sys_)
        per_state = {}
        for s in sorted(sys_.sources):
            s = int(s)
            geo = geometry_for(sys_, s)
            sup = geo.support
            c = geo.column[sup]
            if len(sup) < 2:
                per_state[s] = 0.0
                continue
            u = np.sqrt(c)
            proj = np.eye(len(sup)) - np.outer(u, u)
            spectrum, vectors = np.linalg.eigh(proj @ np.diag(1.0 / c) @ proj)
            lam = float(np.sqrt(spectrum[-1]))
            per_state[s] = lam
            # the bound holds for random canonical rows ...
            for _ in range(10):
                can = canonical_integrand(
                    sys_, 0, rng.standard_normal(sys_.dim), state=s
                )
                centred = can[sup] - float(c @ can[sup])
                semi = np.sqrt(float(c @ (centred * centred)))
                assert np.linalg.norm(can) <= lam * semi * (1 + 1e-12) + 1e-12
            # ... and is attained at the top eigenvector mapped back
            v_star = vectors[:, -1] / u
            assert abs(float(c @ v_star)) <= 1e-12
            semi_star = np.sqrt(float(c @ (v_star * v_star)))
            assert np.linalg.norm(v_star) == pytest.approx(
                lam * semi_star, rel=1e-9
            )
        for k in range(sys_.horizon):
            expect = max(
                (per_state[int(s)] for s in sys_.reachable_at[k]), default=0.0
            )
            assert pc.per_time[k] == pytest.approx(expect, rel=1e-10, abs=1e-12)


# Dense reference: the per-source D x D geometry as the lattice once stored
# it, kept here as an oracle for the block-local storage.


def dense_geometry(sys_, s):
    col = transition(sys_)[:, s]
    e = np.eye(sys_.dim)[s]
    cov = np.diag(col) - np.outer(col, col)
    br = np.diag(col) - np.outer(e, col) - np.outer(col, e)
    bp = np.linalg.pinv(br, rcond=1e-12)
    return cov, br, bp, bp @ br


def dense_split(sys_, s, values):
    col = transition(sys_)[:, s]
    sup = np.flatnonzero(col)
    mean = values @ col
    z = np.zeros_like(values)
    z[..., sup] = values[..., sup] - np.expand_dims(mean, -1)
    return mean, z


def dense_condition_lhs(sys_, beta_bound, omega2):
    c = transition(sys_)
    root_trace = np.sqrt(np.trace(c.T @ c))
    pos = np.zeros(sys_.horizon)
    comp = np.zeros(sys_.horizon)
    for k in range(sys_.horizon):
        for s in sys_.reachable_at[k]:
            _, br, bp, _ = dense_geometry(sys_, int(s))
            pos[k] = max(pos[k], np.sqrt(2.0) * beta_bound * np.linalg.norm(br)
                         * np.linalg.norm(bp) ** 2)
            comp[k] = max(comp[k], 6.0 * omega2**2 * root_trace
                          * np.trace(bp.T @ bp))
    return pos, comp


@st.composite
def lattices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_model(
        rng,
        n=draw(st.integers(2, 4)),
        t=draw(st.integers(1, 6)),
        sub_stochastic_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    return build_lattice(model), rng


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(lattices())
def test_block_geometry_matches_dense_reference(case):
    sys_, rng = case
    t, d = sys_.horizon, sys_.dim
    problem = ControlProblem(
        [0.0, 1.0, 2.0], rng.uniform(-0.5, 0.5, (t, d, 3)),
        rng.standard_normal((t, d, 3, d)), rng.standard_normal((t, d, 3)),
        np.zeros(d), 1.0, 1.0,
    )
    for s in sorted(int(s) for s in sys_.sources):
        geo = geometry_for(sys_, s)
        cov, br, bp, proj = dense_geometry(sys_, s)
        for got, want in ((geo.covariance, cov), (geo.bracket, br),
                          (geo.bracket_pinv, bp), (geo.projector, proj)):
            # pinv entries grow with the conditioning: compare at their scale
            scale = 1.0 + np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
        z = rng.standard_normal((3, sys_.dim))
        np.testing.assert_allclose(geo.project(z[0]), proj @ z[0], atol=1e-12)
        np.testing.assert_allclose(geo.project(z), z @ proj.T, atol=1e-12)
        for values in (z[0], z):
            mean, can = geo.split(values)
            want_mean, want_can = dense_split(sys_, s, values)
            np.testing.assert_allclose(mean, want_mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(can, want_can, rtol=0, atol=1e-12)
        # the per-source entry points, on rows that are not canonical: the
        # random rows and one that lives at the source coordinate only
        at_source = 5.0 * np.eye(sys_.dim)[s]
        for row in (*z, at_source):
            np.testing.assert_allclose(
                canonical_integrand(sys_, 0, row, state=s),
                dense_split(sys_, s, row)[1], rtol=0, atol=1e-12,
            )
            # same class: a constant shift plus junk off the successors
            # (the source coordinate included); other class: a fresh row
            junk = np.where(geo.column > 0.0, 0.0, rng.standard_normal(sys_.dim))
            for other in (row + rng.uniform(-2, 2) + junk, row + z[1]):
                want = np.all(np.abs(dense_split(sys_, s, row - other)[1])
                              <= 1e-9)
                assert integrands_equivalent(sys_, 0, row, other,
                                             state=s) == want
        y = rng.standard_normal()
        for row in (*z, at_source):
            _, best, vals = max_driver(problem, sys_, 0, s, y, row)
            want = (problem.alpha[0, s] * y + problem.beta[0, s] @ (proj @ row)
                    + problem.g[0, s])
            np.testing.assert_allclose(vals, want, rtol=0, atol=1e-12)
            assert best == int(np.argmax(want))
    beta_bound, omega2 = rng.uniform(0.1, 2.0, 2)
    pos, comp = dense_condition_lhs(sys_, beta_bound, omega2)
    np.testing.assert_allclose(
        positivity_condition(sys_, beta_bound).lhs, pos, rtol=1e-12, atol=0
    )
    np.testing.assert_allclose(
        comparison_condition(sys_, omega2).lhs, comp, rtol=1e-12, atol=0
    )


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(lattices())
def test_slice_plan_invariants(case):
    sys_, _ = case
    plan, t, d = sys_.plan, sys_.horizon, sys_.dim
    w = sys_.succ.shape[1]
    # the cells, time-major: reachable_at[k] is a view of slice k
    assert plan.offset[0] == 0 and plan.offset[-1] == plan.cells.size
    assert len(sys_.reachable_at) == t + 1
    for k, reach in enumerate(sys_.reachable_at):
        np.testing.assert_array_equal(reach, np.flatnonzero(sys_.reachable[k]))
        np.testing.assert_array_equal(reach, plan.cells[plan.span(k)])
        assert reach.base is plan.cells
        assert np.all(plan.times[plan.span(k)] == k)
    np.testing.assert_array_equal(plan.key, plan.times * d + plan.cells)
    assert np.all(np.diff(plan.key) > 0)
    np.testing.assert_array_equal(sys_.sources,
                                  np.unique(plan.cells[:plan.offset[t]]))
    # the lattice-only tables, as each call built them before
    np.testing.assert_array_equal(plan.real, sys_.prob > 0.0)
    last = np.count_nonzero(sys_.prob, axis=1)[:, None] - 1
    slot = np.minimum(np.arange(w + 1), last) % w
    np.testing.assert_array_equal(plan.pick_slot, slot.ravel())
    np.testing.assert_array_equal(plan.pick_next,
                                  np.take_along_axis(sys_.succ, slot, 1).ravel())
    # the successor cells, against a search over the keys (padding
    # included) and against the successor table
    n, key = plan.offset[t], plan.key
    src = plan.cells[:n]
    want = key.searchsorted((key[:n] + d - src)[:, None] + sys_.succ[src])
    assert plan.next_cell.shape == want.shape
    assert plan.next_cell.dtype.itemsize == 4
    np.testing.assert_array_equal(plan.next_cell, want)
    np.testing.assert_array_equal(plan.cells[plan.next_cell], sys_.succ[src])
    # read-only like the other lattice arrays, and lean: one entry per cell
    # per array and tables over states at most W+1 wide
    arrays = vars(plan)
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        assert arr.shape.count(d) <= 1, name
    with pytest.raises(ValueError):
        sys_.reachable_at[0][0] = 0
    cells = plan.cells.size
    for name in ("cells", "times", "key"):
        assert arrays[name].ndim == 1 and arrays[name].size <= cells, name
    for name in ("real", "pick_slot", "pick_next"):
        assert arrays[name].size <= d * (w + 1), name
    # the successor index adds its own (offset[T], W) int32 entries
    assert sum(a.nbytes for a in arrays.values()) <= (
        8 * (3 * cells + 3 * d * (w + 1)) + 4 * plan.offset[t] * w)


def test_state_jumping_onto_itself_is_rejected():
    # a jump from (0, 1) back to state 0 lands on (0, 1): the source would be
    # one of its own successors, which no semi-Markov chain does
    from smcbsde import InvalidModelError, SemiMarkovModel

    pi = np.array([[0.5, 0.5], [0.5, 0.5]])
    jump = np.full((2, 2, 2), 0.5)
    with pytest.raises(InvalidModelError, match="jumps onto itself"):
        build_lattice(SemiMarkovModel(2, 1, pi, jump, [1.0, 0.0]))


@pytest.mark.parametrize(
    "field, index, value, label",
    [
        ("pi", (0, 2), np.nan, r"pi\[0,3\]: non-finite entry nan"),
        ("jump", (1, 0, 0), np.inf, r"jump\[1,1,0\]: non-finite entry inf"),
        ("x0", (1,), -np.inf, r"x0\[1\]: non-finite entry -inf"),
        ("x0", (1,), -0.25, r"x0\[1\]: negative mass -0.25"),
        ("x0", (0,), 0.5, r"x0\[\]: mass 0.5 does not sum to 1"),
    ],
    ids=["nan-pi", "inf-jump", "inf-x0", "negative-x0", "mass-x0"],
)
def test_build_lattice_rejects_broken_laws(field, index, value, label):
    from smcbsde import InvalidModelError

    model = geometric_model([0.3, 0.6], 4)
    tables = {name: np.array(getattr(model, name))
              for name in ("pi", "jump", "x0")}
    tables[field][index] = value
    broken = type(model)(2, 4, tables["pi"], tables["jump"], tables["x0"])
    with pytest.raises(InvalidModelError, match=label):
        build_lattice(broken)


def test_reachable_set_dying_out_is_an_invalid_model():
    # every sojourn of state 0 outlasts a duration-1 jump law with no mass,
    # so from (0, 1) nothing is reachable at time 1
    from smcbsde import InvalidModelError, SemiMarkovModel

    pi = np.array([[1.0, 0.0], [0.5, 0.5]])
    jump = np.zeros((2, 2, 2))
    jump[1, :, 0] = 1.0
    with pytest.raises(InvalidModelError, match="reachable set is empty"):
        build_lattice(SemiMarkovModel(2, 1, pi, jump, [1.0, 0.0]))
