"""Model validation, hazard tables, one-step matrices and simulation."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcbsde import (
    InvalidModelError,
    SemiMarkovModel,
    SimulationError,
    build_lattice,
    files,
    martingale_increment,
    simulate,
    simulate_paths,
    sojourn_quantities,
    transition_matrix,
    validate_model,
)
from smcbsde.chain import (
    _SURVIVOR_SNAP,
    VALIDATION_TOL,
    Violation,
    _non_finite,
    _outcome_law,
    _x0_violations,
)
from smcbsde.instances import random_model

from conftest import geometric_model, tiny_model, uniform_jump


def test_model_coercion_and_readonly():
    model = tiny_model()
    assert model.pi.dtype == float
    assert not model.pi.flags.writeable
    assert not model.jump.flags.writeable
    assert not model.x0.flags.writeable
    assert model.n_durations == 2


def test_model_shape_errors():
    with pytest.raises(ValueError):
        SemiMarkovModel(2, 1, np.zeros((2, 3)), uniform_jump(2, 2), [1, 0])
    with pytest.raises(ValueError):
        SemiMarkovModel(2, 1, np.full((2, 2), 0.5), np.zeros((2, 2, 3)), [1, 0])
    with pytest.raises(ValueError):
        SemiMarkovModel(2, 1, np.full((2, 2), 0.5), uniform_jump(2, 2), [1, 0, 0])


def test_from_start_state():
    model = SemiMarkovModel.from_start_state(
        2, 1, np.full((2, 2), 0.5), uniform_jump(2, 2), 1
    )
    assert model.x0.tolist() == [0.0, 1.0]


def test_validate_clean_model():
    assert validate_model(tiny_model()) == []
    assert validate_model(geometric_model([0.3, 0.6], 5)) == []
    # the generator's draws, full and sub-stochastic, and the sample models
    # (a jump row is read at every attainable duration of positive hazard)
    rng = np.random.default_rng(57)
    for i in range(300):
        model = random_model(rng, n_max=6, t_max=12,
                             sub_stochastic_prob=(0.0, 0.3, 1.0)[i % 3])
        assert validate_model(model) == []
    samples = Path(__file__).resolve().parent.parent / "sample_inputs"
    for path in sorted(samples.glob("*_model.json")):
        assert validate_model(files._read_model(path)) == []


def test_validate_finds_each_violation_kind():
    pi = np.array([[0.4, 0.8], [0.5, 0.5]])  # state 0 mass 1.2
    model = SemiMarkovModel(2, 1, pi, uniform_jump(2, 2), [1.0, 0.0])
    fields = [v.field for v in validate_model(model)]
    assert "pi" in fields

    jump = uniform_jump(2, 2)
    jump = jump.copy()
    jump[0, 0] = [0.5, 0.5]  # self-jump mass
    model = SemiMarkovModel(2, 1, np.full((2, 2), 0.5), jump, [1.0, 0.0])
    violations = validate_model(model)
    assert any(v.field == "jump" and "self-jump" in v.message for v in violations)

    jump = uniform_jump(2, 2)
    jump = jump.copy()
    jump[1, 1] = [0.25, 0.0]  # row sum 0.25 where pi puts mass
    model = SemiMarkovModel(2, 1, np.full((2, 2), 0.5), jump, [1.0, 0.0])
    violations = validate_model(model)
    assert any(v.field == "jump" and "sums to" in v.message for v in violations)

    model = SemiMarkovModel(2, 1, np.full((2, 2), 0.5), uniform_jump(2, 2),
                            [0.4, 0.4])
    assert any(v.field == "x0" for v in validate_model(model))

    model = SemiMarkovModel(2, 1, np.array([[-0.2, 0.5], [0.5, 0.5]]),
                            uniform_jump(2, 2), [1.0, 0.0])
    assert any(v.field == "pi" and "outside" in v.message
               for v in validate_model(model))


def _leaves(pi_i, m):
    """True where a chain at duration m of a state with sojourn law pi_i
    leaves with positive probability: mass survives to m, and pi_i puts
    some at m or none survives m (a survivor mass at most _SURVIVOR_SNAP
    counts as none)."""
    def survivor(k):
        s = 1.0 - sum(pi_i[:k])
        return 0.0 if s <= _SURVIVOR_SNAP else s

    prev = survivor(m - 1)
    return prev > 0.0 and (pi_i[m - 1] / prev > 0.0 or survivor(m) == 0.0)


def reference_validate_model(model, tol=VALIDATION_TOL):
    """validate_model as a loop over every (state, duration) cell."""
    bad = _non_finite(model)
    if bad is not None:
        return [bad]
    out = []
    n, dur = model.n_states, model.n_durations
    for i in range(n):
        for m in range(1, dur + 1):
            p = model.pi[i, m - 1]
            if p < -tol or p > 1 + tol:
                out.append(
                    Violation("pi", (i, m), f"sojourn probability {p} outside [0, 1]")
                )
        total = model.pi[i].sum()
        if total > 1 + tol:
            out.append(
                Violation("pi", (i,), f"sojourn law has total mass {total} > 1")
            )
    for i in range(n):
        for m in range(1, dur + 1):
            row = model.jump[i, m - 1]
            if np.any(row < -tol):
                j = int(np.argmin(row))
                out.append(
                    Violation("jump", (i, m, j), f"negative probability {row[j]}")
                )
            if row[i] > tol:
                out.append(
                    Violation(
                        "jump",
                        (i, m, i),
                        f"self-jump probability {row[i]} must be zero",
                    )
                )
            if (model.pi[i, m - 1] > tol or _leaves(model.pi[i], m)) \
                    and abs(row.sum() - 1.0) > tol:
                out.append(
                    Violation(
                        "jump",
                        (i, m),
                        f"jump row sums to {row.sum()}, must be 1 where the "
                        "sojourn law puts mass",
                    )
                )
    return out + _x0_violations(model, tol)


@st.composite
def broken_models(draw):
    """A random model with a few entries of pi, jump and x0 overwritten by
    values that break (or just miss) a constraint."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_model(rng, n_max=4, t_max=6)
    pi, jump, x0 = model.pi.copy(), model.jump.copy(), model.x0.copy()
    values = (-0.3, -1e-10, 0.0, 0.4, 1.0 + 1e-10, 1.7)
    for arr in (pi, jump, x0):
        for _ in range(draw(st.integers(0, 4))):
            at = tuple(int(rng.integers(size)) for size in arr.shape)
            arr[at] = draw(st.sampled_from(values))
    if draw(st.booleans()):
        i = int(rng.integers(model.n_states))
        jump[i, :, i] = draw(st.sampled_from(values))  # self-jumps
    if draw(st.integers(0, 7)) == 0:
        arr = draw(st.sampled_from((pi, jump, x0)))
        arr[tuple(int(rng.integers(size)) for size in arr.shape)] = np.nan
    return SemiMarkovModel(model.n_states, model.horizon, pi, jump, x0)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(broken_models())
def test_validate_model_matches_cell_loop(model):
    got = validate_model(model)
    assert got == reference_validate_model(model)
    assert [str(v) for v in got] == [str(v) for v in reference_validate_model(model)]


def test_validate_model_checks_the_jump_row_where_the_chain_leaves():
    # duration 2 of state 0 holds 1e-11 of its sojourn law, below the
    # tolerance, yet a chain there leaves with certainty (hazard 1): the
    # cell's outcome law is its jump row, which sums to 1e-310
    pi = np.array([[1.0 - 1e-11, 1e-11, 0.0], [0.5, 0.5, 0.0]])
    jump = np.zeros((2, 3, 2))
    jump[0, :, 1] = jump[1, :, 0] = 1.0
    jump[0, 1] = [0.0, 1e-310]
    model = SemiMarkovModel(2, 2, pi, jump, [1.0, 0.0])
    assert validate_model(model) == [Violation(
        "jump", (0, 2), "jump row sums to 1e-310, must be 1 where the "
        "sojourn law puts mass")]
    assert validate_model(model) == reference_validate_model(model)


def test_violation_str_is_informative():
    v = validate_model(
        SemiMarkovModel(2, 1, np.full((2, 2), 0.5), uniform_jump(2, 2),
                        [0.9, 0.0])
    )[0]
    assert "x0" in str(v)


def test_jump_row_sum_not_required_where_law_has_no_mass():
    # pi[0, 2] = 0, so the jump row at that duration may be anything summing
    # to whatever; validation must not flag it.
    pi = np.array([[1.0, 0.0], [0.5, 0.5]])
    jump = uniform_jump(2, 2)
    jump = jump.copy()
    jump[0, 1] = [0.0, 0.0]
    model = SemiMarkovModel(2, 1, pi, jump, [1.0, 0.0])
    assert validate_model(model) == []


def test_geometric_hazard_is_constant():
    deltas = [0.3, 0.6]
    model = geometric_model(deltas, 7)
    sq = sojourn_quantities(model)
    for i, d in enumerate(deltas):
        np.testing.assert_allclose(sq.hazard[i, :-1], d, rtol=0, atol=1e-14)
        assert sq.hazard[i, -1] == pytest.approx(1.0, abs=1e-14)
        # survivor after m steps is (1-d)^m
        np.testing.assert_allclose(
            sq.survivor[i, :-1],
            (1.0 - d) ** np.arange(1, 8),
            rtol=0,
            atol=1e-14,
        )
    assert sq.attainable.all()


def test_sojourn_tables_tiny_model():
    sq = sojourn_quantities(tiny_model())
    np.testing.assert_allclose(sq.cumulative, [[0.4, 1.0], [0.5, 1.0]],
                               atol=1e-15)
    np.testing.assert_allclose(sq.hazard, [[0.4, 1.0], [0.5, 1.0]], atol=1e-15)


def test_unattainable_durations_have_nan_hazard():
    # All mass at duration 1: duration 2 is never reached.
    pi = np.array([[1.0, 0.0], [1.0, 0.0]])
    model = SemiMarkovModel(2, 1, pi, uniform_jump(2, 2), [1.0, 0.0])
    sq = sojourn_quantities(model)
    assert sq.attainable[:, 0].all()
    assert not sq.attainable[:, 1].any()
    assert np.isnan(sq.hazard[:, 1]).all()


def test_sojourn_quantities_rejects_excess_mass():
    pi = np.array([[0.6, 0.6], [0.5, 0.5]])  # 0.6 > survivor 0.4 at m=2
    model = SemiMarkovModel(2, 1, pi, uniform_jump(2, 2), [1.0, 0.0])
    with pytest.raises(InvalidModelError):
        sojourn_quantities(model)


def test_transition_matrix_tiny_model():
    model = tiny_model()
    a1 = transition_matrix(model, 1)
    np.testing.assert_allclose(a1, [[0.6, 0.5], [0.4, 0.5]], atol=1e-15)
    a2 = transition_matrix(model, 2)
    np.testing.assert_allclose(a2, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    with pytest.raises(ValueError):
        transition_matrix(model, 0)
    with pytest.raises(ValueError):
        transition_matrix(model, 3)


def test_transition_matrix_zero_column_when_unattainable():
    pi = np.array([[1.0, 0.0], [0.5, 0.5]])
    model = SemiMarkovModel(2, 1, pi, uniform_jump(2, 2), [1.0, 0.0])
    a2 = transition_matrix(model, 2)
    assert a2[:, 0].tolist() == [0.0, 0.0]
    assert a2[:, 1].sum() == pytest.approx(1.0, abs=1e-15)


def test_transition_columns_stochastic_random_models():
    rng = np.random.default_rng(42)
    for _ in range(25):
        model = random_model(rng)
        sq = sojourn_quantities(model)
        for m in range(1, model.n_durations + 1):
            if not np.any(sq.attainable[:, m - 1]):
                continue
            a = transition_matrix(model, m, sq)
            assert np.all(a >= -1e-15)
            for i in range(model.n_states):
                expected = 1.0 if sq.attainable[i, m - 1] else 0.0
                assert a[:, i].sum() == pytest.approx(expected, abs=1e-12)


def test_martingale_increment_mean_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        model = random_model(rng)
        sq = sojourn_quantities(model)
        for m in range(1, model.n_durations + 1):
            if not np.any(sq.attainable[:, m - 1]):
                continue
            a = transition_matrix(model, m, sq)
            for i in range(model.n_states):
                if not sq.attainable[i, m - 1]:
                    continue
                mean = np.zeros(model.n_states)
                for j in range(model.n_states):
                    if a[j, i] > 0.0:
                        mean += a[j, i] * martingale_increment(model, i, m, j, sq)
                np.testing.assert_allclose(mean, 0.0, atol=1e-13)


def test_martingale_increment_values_tiny_model():
    model = tiny_model()
    inc = martingale_increment(model, 0, 1, 1)
    np.testing.assert_allclose(inc, [-0.6, 0.6], atol=1e-15)
    inc = martingale_increment(model, 0, 1, 0)
    np.testing.assert_allclose(inc, [0.4, -0.4], atol=1e-15)


def test_simulate_path_structure():
    model = geometric_model([0.3, 0.6], 20)
    path = simulate(model, seed=123)
    assert path.states.shape == (21,)
    assert path.durations[0] == 1
    assert path.states[0] == 0
    assert 0 in path.jump_times
    for k in range(20):
        if path.states[k + 1] == path.states[k]:
            assert path.durations[k + 1] == path.durations[k] + 1
        else:
            assert path.durations[k + 1] == 1
            assert k + 1 in path.jump_times


def test_simulate_seeded_reproducibility():
    model = geometric_model([0.3, 0.6], 15)
    p1 = simulate(model, seed=9)
    p2 = simulate(model, seed=9)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.durations, p2.durations)
    p3 = simulate(model, seed=10)
    assert not (
        np.array_equal(p1.states, p3.states)
        and np.array_equal(p1.durations, p3.durations)
    )


def test_simulate_draws_from_a_generator_passed_as_seed():
    model = geometric_model([0.3, 0.6], 15)
    # one Generator serves both calls, as simulate_paths draws from it
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for path in (simulate(model, seed=rng), simulate(model, seed=rng)):
        states, durations = simulate_paths(model, 1, seed=ref)
        assert np.array_equal(path.states, states[0])
        assert np.array_equal(path.durations, durations[0])


def test_simulate_deterministic_sojourn():
    # All sojourns last exactly 2 steps; with two states the path alternates.
    pi = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    model = SemiMarkovModel(2, 2, pi, uniform_jump(2, 3), [1.0, 0.0])
    path = simulate(model, seed=0)
    assert path.states.tolist() == [0, 0, 1]
    assert path.durations.tolist() == [1, 2, 1]


def test_simulate_respects_start_distribution():
    model = geometric_model([0.5, 0.5], 3, x0=np.array([0.0, 1.0]))
    for seed in range(5):
        assert simulate(model, seed=seed).states[0] == 1


def test_simulate_paths_batch_matches_structure():
    model = geometric_model([0.4, 0.7], 12)
    states, durations = simulate_paths(model, 64, seed=5)
    assert states.shape == (64, 13)
    assert durations.shape == (64, 13)
    assert np.all(durations[:, 0] == 1)
    stays = states[:, 1:] == states[:, :-1]
    assert np.array_equal(durations[:, 1:][stays], durations[:, :-1][stays] + 1)
    assert np.all(durations[:, 1:][~stays] == 1)


def test_simulate_paths_byte_identical_per_seed():
    model = geometric_model([0.4, 0.7], 10)
    a = simulate_paths(model, 50, seed=77)
    b = simulate_paths(model, 50, seed=77)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[0].tobytes() == b[0].tobytes()


@pytest.mark.parametrize("n_paths", [0, -3, 2.0, True])
def test_simulate_paths_rejects_a_path_count_that_is_no_positive_integer(
        n_paths):
    with pytest.raises(ValueError,
                       match=rf"n_paths must be a positive integer, not {n_paths}"):
        simulate_paths(tiny_model(), n_paths, seed=0)


def test_simulate_error_on_dead_end():
    # State 0's sojourn law has no mass at all: duration 1 survivor is 1
    # forever, which is fine; but a zero jump row with hazard 1 is a dead end.
    pi = np.array([[1.0, 0.0], [1.0, 0.0]])
    jump = np.zeros((2, 2, 2))  # hazard 1 at duration 1, nowhere to go
    model = SemiMarkovModel(2, 1, pi, jump, [1.0, 0.0])
    with pytest.raises(SimulationError):
        simulate(model, seed=0)


def test_batch_hazard_frequencies_match():
    # Aggregate leave frequencies per (state, duration) against the hazard.
    model = geometric_model([0.35, 0.65], 10)
    sq = sojourn_quantities(model)
    states, durations = simulate_paths(model, 4000, seed=2024)
    for i in range(2):
        for m in (1, 2, 3):
            here = (states[:, :-1] == i) & (durations[:, :-1] == m)
            n = int(here.sum())
            if n < 200:
                continue
            left = states[:, 1:][here] != i
            rate = left.mean()
            h = sq.hazard[i, m - 1]
            band = 3.0 * np.sqrt(h * (1.0 - h) / n)
            assert abs(rate - h) <= band


# ---------------------------------------------------------------------------
# Differential oracle for the flat-cell sampler: the per-step loop it
# replaced, which gathered each path's cumulative outcome row by (state,
# duration) and carried states and durations side by side.


def reference_simulate_paths(model, n_paths, horizon=None, *, seed=None):
    if horizon is None:
        horizon = model.horizon
    if horizon > model.horizon:
        raise ValueError("cannot simulate past the model horizon")
    rng = np.random.default_rng(seed)
    sq = sojourn_quantities(model)
    cum = np.cumsum(_outcome_law(model, sq), axis=2)
    n = model.n_states
    states = np.empty((n_paths, horizon + 1), dtype=np.int64)
    durations = np.empty((n_paths, horizon + 1), dtype=np.int64)
    states[:, 0] = rng.choice(n, size=n_paths, p=model.x0)
    durations[:, 0] = 1
    for k in range(horizon):
        rows = cum[states[:, k], durations[:, k] - 1]
        totals = rows[:, -1]
        if np.any(totals <= 0.0):
            bad = int(np.argmax(totals <= 0.0))
            raise SimulationError(
                f"state {states[bad, k]} at duration {durations[bad, k]} has "
                "no defined continuation"
            )
        u = rng.random(n_paths) * totals
        picks = np.minimum((rows <= u[:, None]).sum(axis=1), n)
        stay = picks == n
        states[:, k + 1] = np.where(stay, states[:, k], picks)
        durations[:, k + 1] = np.where(stay, durations[:, k] + 1, 1)
    return states, durations


def simulation_outcome(func, model, n_paths, horizon, seed):
    """Output arrays and the generator's end state, or the message of the
    SimulationError raised."""
    try:
        states, durations = func(model, n_paths, horizon, seed=seed)
    except SimulationError as err:
        return str(err)
    end = seed.bit_generator.state if isinstance(seed, np.random.Generator) else None
    return states, durations, end


@st.composite
def simulation_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model = random_model(rng, n_max=5, t_max=10,
                             sub_stochastic_prob=draw(st.sampled_from([0.0, 0.5, 1.0])))
    else:
        n = int(rng.integers(2, 6))
        model = geometric_model(rng.uniform(0.05, 0.95, n), int(rng.integers(1, 11)),
                                x0=rng.dirichlet(np.ones(n)))
    if draw(st.booleans()):
        # state i leaves with certainty at duration 1 and has nowhere to go:
        # every path that enters it dies one step later
        i = int(rng.integers(model.n_states))
        pi, jump = model.pi.copy(), model.jump.copy()
        pi[i] = 0.0
        pi[i, 0] = 1.0
        jump[i, 0] = 0.0
        model = SemiMarkovModel(model.n_states, model.horizon, pi, jump, model.x0)
    horizon = draw(st.integers(0, model.horizon))
    n_paths = draw(st.sampled_from([1, 7, 1000]))
    return model, horizon, n_paths, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(simulation_cases())
def test_flat_cell_sampler_matches_the_per_step_loop(case):
    model, horizon, n_paths, seed = case
    for make in (lambda: seed, lambda: np.random.default_rng(seed)):
        got = simulation_outcome(simulate_paths, model, n_paths, horizon, make())
        want = simulation_outcome(reference_simulate_paths, model, n_paths,
                                  horizon, make())
        if isinstance(want, str):
            assert got == want
            continue
        assert not isinstance(got, str), got
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)
        assert got[2] == want[2]


def test_simulation_error_names_the_first_dead_path():
    # every sojourn lasts two steps and has nowhere to go then: all paths
    # die at time 1, and the message names path 0's state, before the
    # draw of that step
    pi = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    jump = uniform_jump(2, 3)
    jump[:, 1] = 0.0
    model = SemiMarkovModel(2, 2, pi, jump, [0.5, 0.5])
    seed = np.random.default_rng(3)
    with pytest.raises(SimulationError) as err:
        simulate_paths(model, 4, seed=seed)
    first = simulate_paths(model, 4, 1, seed=np.random.default_rng(3))[0][:, 0]
    assert str(err.value) == (f"state {first[0]} at duration 2 has no "
                              "defined continuation")
    want = np.random.default_rng(3)
    want.choice(2, size=4, p=model.x0)
    want.random(4)
    assert seed.bit_generator.state == want.bit_generator.state


# sha256 of states.tobytes() + durations.tobytes(), computed with the
# per-step loop: any change to the stream (the pick rule, the outcome
# order, the draws per step) changes it
SIMULATE_DIGEST = "343828b1220009fbe99bec90282f3ffd3fa05779b4e8e3b1705aaf2a9410cd14"


def test_simulate_paths_stream_digest():
    model = geometric_model((0.3, 0.55, 0.8), 12, x0=np.full(3, 1.0 / 3.0))
    states, durations = simulate_paths(model, 500, seed=2026)
    digest = hashlib.sha256(states.tobytes() + durations.tobytes()).hexdigest()
    assert digest == SIMULATE_DIGEST


def test_a_draw_on_a_cumulative_boundary_moves_past_it():
    # the step from (state 0, duration 1) has outcomes (jump to 0, jump to
    # 1, stay) with cumulative mass (0, h, 1); with h equal to the step's
    # draw (the stream's second double, after rng.choice's), the first
    # outcome whose cumulative mass exceeds the draw is "stay"
    seed = next(s for s in range(100)
                if np.random.default_rng(s).random(2)[1] >= 0.5)
    h = np.random.default_rng(seed).random(2)[1]
    pi = np.array([[h, 1.0 - h], [0.5, 0.5]])
    model = SemiMarkovModel(2, 1, pi, uniform_jump(2, 2), [1.0, 0.0])
    states, durations = simulate_paths(model, 1, seed=seed)
    assert states.tolist() == [[0, 0]]
    assert durations.tolist() == [[1, 2]]


# ---------------------------------------------------------------------------
# The pick rule both samplers share (chain._stepper) moves a path to the
# first slot whose cumulative probability exceeds its draw times the
# cell's total.  A draw is below 1, and its product with a total above
# 2**-1022, the least normal double, rounds below the total, so the pick is
# a real slot: on these lattices every cell's total is zero (a dead cell,
# which no step leaves) or above it.  At 2**-1022 itself the largest
# draw's product is a tie that rounds up to the total.


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.floats(2.0**-1022, 2.0, exclude_min=True))
def test_the_largest_draw_times_a_normal_total_is_below_it(total):
    assert np.nextafter(1.0, 0.0) * total < total
    tiny = np.finfo(float).tiny
    assert np.nextafter(1.0, 0.0) * tiny == tiny


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_cell_totals_are_zero_or_normal(seed, geometric):
    rng = np.random.default_rng(seed)
    if geometric:
        n = int(rng.integers(2, 6))
        model = geometric_model(rng.uniform(0.05, 0.95, n),
                                int(rng.integers(1, 40)))
    else:
        model = random_model(rng, n_max=5, t_max=10, sub_stochastic_prob=float(
            rng.choice([0.0, 0.5, 1.0])))
    total = build_lattice(model).cdf[-1]
    assert np.all((total == 0.0) | (total > np.finfo(float).tiny))
