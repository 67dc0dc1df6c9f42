"""Finite-state semi-Markov chains observed in discrete time.

A model has states 0..N-1 and a finite horizon T.  Sojourn lengths in state
i follow the law pi[i, m-1] = P(stay exactly m steps), m = 1..T+1, and the
state entered after a sojourn of length m follows jump[i, m-1, :].  Sojourn
mass is allowed to be sub-stochastic: leftover probability means the sojourn
outlasts the horizon and no renormalisation is applied.

Durations are counts starting at 1 ("just arrived"), states are 0-based.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChainPath",
    "InvalidModelError",
    "SemiMarkovModel",
    "SimulationError",
    "SojournQuantities",
    "Violation",
    "martingale_increment",
    "simulate",
    "simulate_paths",
    "sojourn_quantities",
    "transition_matrix",
    "validate_model",
]

VALIDATION_TOL = 1e-9
# Survivor mass below this is treated as exhausted (see sojourn_quantities).
_SURVIVOR_SNAP = 1e-12


def _require_count(name, n):
    """Raise ValueError naming ``name`` unless n is a positive integer."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} must be a positive integer, not {n}")


class InvalidModelError(ValueError):
    """Model data violates a structural constraint needed by an operation."""


class SimulationError(RuntimeError):
    """A simulated path reached a state with no defined continuation."""


@dataclass(frozen=True)
class SemiMarkovModel:
    """Immutable semi-Markov chain model.

    pi   : (N, T+1) sojourn law per state, durations 1..T+1 positionally.
    jump : (N, T+1, N) conditional jump law; jump[i, m-1, j] is the
           probability of landing in j given the sojourn in i lasted m.
    x0   : (N,) initial distribution of the chain state (duration starts at 1).
    """

    n_states: int
    horizon: int
    pi: np.ndarray
    jump: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        pi = np.ascontiguousarray(np.asarray(self.pi, dtype=float))
        jump = np.ascontiguousarray(np.asarray(self.jump, dtype=float))
        x0 = np.asarray(self.x0, dtype=float)
        n, t = int(self.n_states), int(self.horizon)
        if n < 1 or t < 1:
            raise InvalidModelError("need n_states >= 1 and horizon >= 1")
        if pi.shape != (n, t + 1):
            raise InvalidModelError(f"pi must have shape {(n, t + 1)}, got {pi.shape}")
        if jump.shape != (n, t + 1, n):
            raise InvalidModelError(
                f"jump must have shape {(n, t + 1, n)}, got {jump.shape}"
            )
        if x0.shape != (n,):
            raise InvalidModelError(f"x0 must have shape {(n,)}, got {x0.shape}")
        for arr in (pi, jump, x0):
            arr.flags.writeable = False
        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "horizon", t)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "jump", jump)
        object.__setattr__(self, "x0", x0)

    @classmethod
    def from_start_state(cls, n_states, horizon, pi, jump, start):
        x0 = np.zeros(n_states)
        x0[start] = 1.0
        return cls(n_states, horizon, pi, jump, x0)

    @property
    def n_durations(self) -> int:
        return self.horizon + 1


@dataclass(frozen=True)
class Violation:
    """One failed validation constraint, as data rather than an exception."""

    field: str
    indices: tuple
    message: str

    def __str__(self):
        where = ",".join(str(i) for i in self.indices)
        return f"{self.field}[{where}]: {self.message}"


@dataclass(frozen=True)
class SojournQuantities:
    """Cumulative, survivor and hazard tables derived from the sojourn law.

    cumulative[i, m-1] = P(sojourn in i <= m)
    survivor[i, m-1]   = P(sojourn in i > m);  survivor at duration 0 is 1.
    hazard[i, m-1]     = P(leave i at duration m | survived m-1 steps),
                         NaN where the duration is not attainable.
    attainable[i, m-1] = True iff state i can be occupied at duration m,
                         i.e. the survivor function at m-1 is positive.
    """

    cumulative: np.ndarray
    survivor: np.ndarray
    hazard: np.ndarray
    attainable: np.ndarray


def validate_model(model: SemiMarkovModel, tol: float = VALIDATION_TOL):
    """Check all structural constraints and return violations as a list.

    Nothing is raised: callers decide what to do with the report.
    """
    bad = _non_finite(model)
    if bad is not None:
        return [bad]
    pi, jump, dur = model.pi, model.jump, model.n_durations
    total, sums = pi.sum(axis=1), jump.sum(axis=2)
    out = []
    # per state its durations, then (column dur) its total mass
    bad = np.column_stack(((pi < -tol) | (pi > 1 + tol), total > 1 + tol))
    for i, m in np.argwhere(bad).tolist():
        out.append(
            Violation("pi", (i, m + 1), f"sojourn probability {pi[i, m]} outside [0, 1]")
            if m < dur else
            Violation("pi", (i,), f"sojourn law has total mass {total[i]} > 1")
        )
    # per (state, duration): a negative entry, a self-jump, the row sum
    low = np.argmin(jump, axis=2)
    bad = np.stack((np.any(jump < -tol, axis=2), np.diagonal(jump, 0, 0, 2).T > tol,
                    (pi > tol) & (np.abs(sums - 1.0) > tol)), axis=2)
    for i, m, kind in np.argwhere(bad).tolist():
        j = int(low[i, m])
        out.append((
            Violation("jump", (i, m + 1, j), f"negative probability {jump[i, m, j]}"),
            Violation("jump", (i, m + 1, i),
                      f"self-jump probability {jump[i, m, i]} must be zero"),
            Violation("jump", (i, m + 1), f"jump row sums to {sums[i, m]}, must "
                      "be 1 where the sojourn law puts mass"),
        )[kind])
    return out + _x0_violations(model, tol)


def _non_finite(model: SemiMarkovModel):
    """The first non-finite entry of pi, jump or x0 as a Violation, or None."""
    for name in ("pi", "jump", "x0"):
        arr = getattr(model, name)
        bad = ~np.isfinite(arr)
        if bad.any():
            at = np.unravel_index(np.argmax(bad), arr.shape)
            # durations are listed from 1, as in every other violation
            index = tuple(int(v) + (axis == 1) for axis, v in enumerate(at))
            return Violation(name, index, f"non-finite entry {arr[at]}")
    return None


def _x0_violations(model: SemiMarkovModel, tol: float):
    out = []
    if np.any(model.x0 < -tol):
        i = int(np.argmin(model.x0))
        out.append(Violation("x0", (i,), f"negative mass {model.x0[i]}"))
    if abs(model.x0.sum() - 1.0) > tol:
        out.append(Violation("x0", (), f"mass {model.x0.sum()} does not sum to 1"))
    return out


def _require_laws(model: SemiMarkovModel, tol: float = VALIDATION_TOL) -> None:
    """Raise InvalidModelError, naming the field and the index, at the first
    non-finite entry of pi, jump or x0, or where x0 is no probability
    vector.  Array checks only, cheap enough to gate every lattice build;
    validate_model checks everything else as well."""
    bad = _non_finite(model) or next(iter(_x0_violations(model, tol)), None)
    if bad is not None:
        raise InvalidModelError(f"model {bad}")


def sojourn_quantities(
    model: SemiMarkovModel, tol: float = VALIDATION_TOL
) -> SojournQuantities:
    """Build the cumulative/survivor/hazard tables for every state.

    Raises InvalidModelError when some pi[i, m] exceeds the survivor mass
    available at duration m (the hazard would leave [0, 1]).
    """
    cumulative = np.cumsum(model.pi, axis=1)
    survivor = 1.0 - cumulative
    # Cumulative sums of an exhausted law land within roundoff of 1; snap
    # that noise to an exact zero so certain departures come out as hazard
    # exactly 1 (otherwise a 1e-16 stay probability leaks into the lattice
    # and fabricates unreachable states).
    survivor[np.abs(survivor) <= _SURVIVOR_SNAP] = 0.0
    np.clip(survivor, 0.0, None, out=survivor)
    # survivor at duration m-1, i.e. mass still present when duration m starts
    prev = np.concatenate(
        [np.ones((model.n_states, 1)), survivor[:, :-1]], axis=1
    )
    attainable = prev > 0.0
    bad = model.pi > prev + tol
    if np.any(bad):
        i, m = np.argwhere(bad)[0]
        raise InvalidModelError(
            f"pi[{i},{m + 1}] = {model.pi[i, m]} exceeds the survivor mass "
            f"{prev[i, m]} remaining at that duration"
        )
    hazard = np.full_like(model.pi, np.nan)
    np.divide(model.pi, prev, out=hazard, where=attainable)
    np.clip(hazard, 0.0, 1.0, out=hazard)
    hazard[attainable & (survivor == 0.0)] = 1.0
    hazard.flags.writeable = False
    cumulative.flags.writeable = False
    survivor.flags.writeable = False
    attainable.flags.writeable = False
    return SojournQuantities(cumulative, survivor, hazard, attainable)


def transition_matrix(
    model: SemiMarkovModel, duration: int, sq: SojournQuantities | None = None
) -> np.ndarray:
    """One-step chain transition matrix given the current sojourn duration.

    Column i holds the law of the next chain state for a chain that has sat
    in i for `duration` steps: mass 1 - hazard stays put, the rest spreads
    over the jump row.  Columns of states that cannot attain `duration` are
    zero; the remaining columns sum to one.
    """
    if not 1 <= duration <= model.n_durations:
        raise ValueError(
            f"duration {duration} outside 1..{model.n_durations}"
        )
    if sq is None:
        sq = sojourn_quantities(model)
    if not np.any(sq.attainable[:, duration - 1]):
        raise InvalidModelError(f"no state can attain duration {duration}")
    law = _outcome_law(model, sq)[:, duration - 1]
    a = law[:, :-1].T.copy()
    np.fill_diagonal(a, law[:, -1])
    return a


@dataclass(frozen=True)
class ChainPath:
    """One simulated trajectory over times 0..horizon.

    states[k]    : chain state at time k
    durations[k] : steps spent in the current state including time k
                   (resets to 1 on arrival; durations[0] = 1)
    jump_times   : times of state changes, with the start time 0 included
    """

    states: np.ndarray
    durations: np.ndarray
    jump_times: np.ndarray = field(repr=False)


def _outcome_law(model, sq):
    """Per (state, duration) outcome law, jumps first then stay, (N, T+1, N+1).

    Outcome order is jump target 0..N-1 (self entry has mass zero) followed
    by "stay"; simulation inverts its CDF so the order is part of the
    reproducibility contract.  Unattainable (state, duration) pairs have no
    mass.
    """
    n = model.n_states
    probs = np.zeros((n, model.n_durations, n + 1))
    hz = np.where(sq.attainable, sq.hazard, 0.0)
    probs[:, :, :n] = model.jump * hz[:, :, None]
    probs[:, :, n] = np.where(sq.attainable, 1.0 - hz, 0.0)
    return probs


def simulate(
    model: SemiMarkovModel,
    horizon: int | None = None,
    *,
    seed=None,
) -> ChainPath:
    """Simulate one path by inverse-CDF sampling, reproducible from a seed
    (or drawn from a Generator passed as ``seed``): the single path of
    ``simulate_paths``.

    Raises SimulationError when the path enters a state/duration whose
    outcome law has no mass (possible only for invalid models).
    """
    states, durations = simulate_paths(model, 1, horizon, seed=seed)
    return ChainPath(states[0], durations[0], np.flatnonzero(durations[0] == 1))


def simulate_paths(
    model: SemiMarkovModel,
    n_paths: int,
    horizon: int | None = None,
    *,
    seed=None,
):
    """Vectorised batch simulation by inverse-CDF sampling of each step's
    outcome law, in the outcome order of ``_outcome_law``.

    Each path carries one flat cell (duration-1)*N + state.  A step draws
    one uniform per path, scales it by the total mass of the path's cell
    and picks the first outcome whose cumulative mass exceeds it (a draw
    that rounds up to the total stays put); a lookup table maps (cell,
    pick) to the next cell, and cells are split into states and durations
    once, at the end.

    Returns (states, durations), each (n_paths, horizon+1).  A fixed seed
    yields bit-identical output on repeated calls; a Generator is drawn
    from directly.
    """
    _require_count("n_paths", n_paths)
    if horizon is None:
        horizon = model.horizon
    if horizon > model.horizon:
        raise ValueError("cannot simulate past the model horizon")
    rng = np.random.default_rng(seed)
    n = model.n_states
    # cumulative outcome law with one column per cell, so that the rows of
    # a step are one take along axis 1
    cum = np.cumsum(_outcome_law(model, sojourn_quantities(model)), axis=2)
    cum = cum.transpose(2, 1, 0).reshape(n + 1, -1)
    # pick j < N jumps to cell j (state j, duration 1); picks N and N + 1
    # stay, one duration deeper
    cells = np.arange(cum.shape[1])
    after = np.empty((cells.size, n + 2), dtype=np.int64)
    after[:, :n] = np.arange(n)
    after[:, n:] = (cells + n)[:, None]
    after = after.ravel()
    count = np.min_scalar_type(n + 1)
    # a cell without mass ends every path that enters it; most models have
    # none, and then no step needs the check
    dead = bool(np.any(cum[-1] <= 0.0))
    path = np.empty((horizon + 1, n_paths), dtype=np.int64)
    path[0] = rng.choice(n, size=n_paths, p=model.x0)
    u, at = np.empty(n_paths), np.empty(n_paths, dtype=np.int64)
    hit = np.empty((n + 1, n_paths), dtype=bool)
    for k in range(horizon):
        cell = path[k]
        rows = cum.take(cell, axis=1)
        if dead and np.any(rows[-1] <= 0.0):
            m, s = divmod(int(cell[np.argmax(rows[-1] <= 0.0)]), n)
            raise SimulationError(
                f"state {s} at duration {m + 1} has no defined continuation"
            )
        np.multiply(rng.random(out=u), rows[-1], out=u)
        picks = np.less_equal(rows, u, out=hit).sum(axis=0, dtype=count)
        # picks stay unsigned and narrow; the int64 cell carries the sum
        np.multiply(cell, n + 2, out=at)
        at += picks
        after.take(at, out=path[k + 1])
    states = np.ascontiguousarray(path.T)
    durations = states // n
    states -= durations * n
    durations += 1
    return states, durations


def martingale_increment(
    model: SemiMarkovModel,
    state: int,
    duration: int,
    next_state: int,
    sq: SojournQuantities | None = None,
) -> np.ndarray:
    """Innovation e_next - A(duration) e_state of one observed transition.

    Conditionally on (state, duration) the increment has mean zero, which is
    what makes the chain indicator process a martingale after compensation.
    """
    a = transition_matrix(model, duration, sq)
    out = -a[:, state]
    out[next_state] += 1.0
    return out
