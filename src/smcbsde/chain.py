"""Finite-state semi-Markov chains observed in discrete time.

A model has states 0..N-1 and a finite horizon T.  Sojourn lengths in state
i follow the law pi[i, m-1] = P(stay exactly m steps), m = 1..T+1, and the
state entered after a sojourn of length m follows jump[i, m-1, :].  Sojourn
mass is allowed to be sub-stochastic: leftover probability means the sojourn
outlasts the horizon and no renormalisation is applied.

Durations are counts starting at 1 ("just arrived"), states are 0-based.

On the flat cells (duration-1)*N + state the chain is Markov.  Its padded
successor table (``_successors``) is the lattice's too, and simulation and
the lattice's path sampler take one inverse-CDF step on it (``_stepper``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "InvalidModelError",
    "SemiMarkovModel",
    "SimulationError",
    "SojournQuantities",
    "Violation",
    "simulate_paths",
    "sojourn_quantities",
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
    # where the law puts mass or the chain can leave (an attainable cell
    # with a positive hazard, whose outcome law is then the jump row)
    leaves = (pi > tol) | (_sojourn_tables(pi)[3] > 0.0)
    low = np.argmin(jump, axis=2)
    bad = np.stack((np.any(jump < -tol, axis=2), np.diagonal(jump, 0, 0, 2).T > tol,
                    leaves & (np.abs(sums - 1.0) > tol)), axis=2)
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
    cumulative, survivor, prev, hazard = _sojourn_tables(model.pi)
    bad = model.pi > prev + tol
    if np.any(bad):
        i, m = np.argwhere(bad)[0]
        raise InvalidModelError(
            f"pi[{i},{m + 1}] = {model.pi[i, m]} exceeds the survivor mass "
            f"{prev[i, m]} remaining at that duration"
        )
    attainable = prev > 0.0
    hazard.flags.writeable = False
    cumulative.flags.writeable = False
    survivor.flags.writeable = False
    attainable.flags.writeable = False
    return SojournQuantities(cumulative, survivor, hazard, attainable)


def _sojourn_tables(pi):
    """Unchecked (cumulative, survivor, prev, hazard) of sojourn laws pi:
    prev is the survivor mass when each duration starts, and the hazard is
    NaN where none is, 1 where none survives the duration."""
    cumulative = np.cumsum(pi, axis=1)
    survivor = 1.0 - cumulative
    # Cumulative sums of an exhausted law land within roundoff of 1; snap
    # that noise to an exact zero so certain departures come out as hazard
    # exactly 1 (otherwise a 1e-16 stay probability leaks into the lattice
    # and fabricates unreachable states).
    survivor[np.abs(survivor) <= _SURVIVOR_SNAP] = 0.0
    np.clip(survivor, 0.0, None, out=survivor)
    prev = np.concatenate([np.ones((pi.shape[0], 1)), survivor[:, :-1]],
                          axis=1)
    attainable = prev > 0.0
    hazard = np.full_like(pi, np.nan)
    np.divide(pi, prev, out=hazard, where=attainable)
    np.clip(hazard, 0.0, 1.0, out=hazard)
    hazard[attainable & (survivor == 0.0)] = 1.0
    return cumulative, survivor, prev, hazard


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


def simulate_paths(
    model: SemiMarkovModel,
    n_paths: int,
    horizon: int | None = None,
    *,
    seed=None,
):
    """Vectorised batch simulation by inverse-CDF sampling of each step's
    outcome law, read off the model's successor table (``_successors``).

    Each path carries one flat cell (duration-1)*N + state.  A step draws
    one uniform per path and takes the inverse-CDF step (``_stepper``); cells
    are split into states and durations once, at the end.

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
    table = _successors(model, sojourn_quantities(model))
    total = table.cdf[-1]
    # a cell without mass ends every path that enters it; most models have
    # none that a step leaves, and then no step needs the check
    dead = bool(np.any(total[:horizon * n] <= 0.0))
    path = np.empty((horizon + 1, n_paths), dtype=np.int64)
    path[0] = rng.choice(n, size=n_paths, p=model.x0)
    u, at = np.empty(n_paths), np.empty(n_paths, dtype=np.int64)
    step = _stepper(table.cdf, table.pick_next, n_paths)
    for k in range(horizon):
        if dead and np.any(empty := total.take(path[k]) <= 0.0):
            m, s = divmod(int(path[k, np.argmax(empty)]), n)
            raise SimulationError(
                f"state {s} at duration {m + 1} has no defined continuation"
            )
        step(path[k], rng.random(out=u), at, path[k + 1])
    # two tables at a time: the time-major one goes before the split
    states = np.ascontiguousarray(path.T)
    del path
    durations = np.empty_like(states)
    np.divmod(states, n, out=(durations, states))
    durations += 1
    return states, durations


class _Successors(NamedTuple):
    """The padded successor table of the flat cells, as LatticeSystem
    (succ, prob, cdf) and SlicePlan (real and the pick tables) hold it."""

    succ: np.ndarray
    prob: np.ndarray
    real: np.ndarray
    cdf: np.ndarray
    pick_slot: np.ndarray
    pick_next: np.ndarray


def _successors(model, sq):
    """The _Successors of ``model``: the outcomes of ``_outcome_law`` with
    positive mass, in its order, which is ascending flat order (a jump j to
    cell j, then the stay, which leaves the lattice at duration T+1)."""
    n, t = model.n_states, model.horizon
    dim = (t + 1) * n
    flat = np.arange(dim)
    cprob = _outcome_law(model, sq).transpose(1, 0, 2).reshape(dim, n + 1)
    cprob[t * n:, n] = 0.0
    real = cprob > 0.0
    count = real.sum(axis=1)
    width = max(int(count.max()), 1)
    order = np.argsort(~real, axis=1, kind="stable")[:, :width]
    slots = (flat[:, None], order)
    real = real[slots]
    succ = np.where(order < n, order, flat[:, None] + n)
    succ = np.where(real, succ, succ[:, :1])
    prob = np.where(real, cprob[slots], 0.0)
    cdf = np.ascontiguousarray(np.cumsum(prob, axis=1).T)
    # pick p from s: slot min(p, last real slot), or the last padding slot
    # (which the path walk rejects) for a cell without any
    pick_slot = np.minimum(np.arange(width + 1), count[:, None] - 1) % width
    pick_next = succ[flat[:, None], pick_slot].ravel()
    return _Successors(succ, prob, real, cdf, pick_slot.ravel(), pick_next)


def _stepper(cdf, pick_next, size):
    """The inverse-CDF step of ``size`` paths on a successor table,
    step(cur, u, at, out): each path at a cell of ``cur`` moves to the
    first slot whose cumulative probability exceeds its uniform u (scaled
    in place) times its cell's total; its pick p counts those at or below.
    It writes cur * (W+1) + p to ``at``, the next cells to ``out``.

    The largest draw, 1 - 2**-53, times a total above 2**-1022 rounds
    below it, so p is a real slot; only a smaller total (a jump row summing
    to that little where the sojourn law puts at most validate_model's
    tolerance) can give p = W, the last real slot."""
    width = cdf.shape[0]
    rows, hit = np.empty((width, size)), np.empty((width, size), dtype=bool)
    picks = np.empty(size, dtype=np.min_scalar_type(width))

    def step(cur, u, at, out):
        # array methods and out= buffers: at a few paths per call the loop
        # is all per-call overhead; every index is in range, and mode="clip"
        # lets take write into out without a temporary
        cdf.take(cur, axis=1, out=rows, mode="clip")
        np.less_equal(rows, np.multiply(u, rows[-1], out=u), out=hit)
        # picks stay unsigned and narrow; the int64 cell carries the sum
        pick = np.multiply(cur, width + 1, out=at)
        pick += np.add.reduce(hit, axis=0, dtype=picks.dtype, out=picks)
        pick_next.take(pick, out=out, mode="clip")
    return step
