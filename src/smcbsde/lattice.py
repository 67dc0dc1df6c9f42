"""Sojourn-augmented lattice that makes the semi-Markov chain Markov.

The augmented state is the pair (state, duration) embedded as a unit vector
in dimension D = (T+1) * N, flat index (duration-1)*N + state.  A jump resets
the duration to 1, staying put carries it one deeper, and duration T+1 has no
in-horizon continuation.  The lattice stores one padded successor table
indexed by flat state: ``succ[s, :m]`` are the m successors of s, ascending,
and ``prob[s, :m]`` their probabilities; the slots up to W, the widest
support, repeat the first successor with probability zero.  The chain's
``_successors`` builds it, the one table that simulation reads as well;
``build_lattice`` adds the self-jump check and the reachability pass.

For each source the one-step noise (the innovation martingale increment)
carries the covariance diag(c) - c c' (c the successor law; positive
semidefinite) and the bracket diag(c) - e c' - c e', indefinite whenever
the step is random.  The two agree on integrands supported on the
successors with c-weighted mean zero; formulas downstream are indexed
against the bracket's inverse.  Both vanish off the
block (source, *successors) of at most N+1 indices (``block``), and on it
the bracket B = [[0, -c'], [-c, diag c]] has the Schur complement -sigma
about diag c (sigma = sum c), so it is invertible with the closed-form
inverse [[-1, -1'], [-1, sigma diag(1/c) - 1 1']] / sigma and exactly one
negative eigenvalue (Haynsworth).  Its projector B+ B is the identity on the
block.  Every reader computes what it needs of these from ``prob`` where it
reads it; the lattice stores no per-source matrix and no D x D matrix.

The reachability pass also lays out one slice plan (``SlicePlan``): the
reachable cells (time, state) in time-then-state order, so that time k's
slice is one contiguous run and ``reachable_at[k]`` a view of it, with each
cell's time and, before the horizon, its successors' positions in the cells
(``next_cell``): one pass over the times takes slice k's successor rows
once for the flow to time k+1 and the cells reachable there, and a second,
once the plan's size is known, writes each slice's rows' positions straight
into ``next_cell``, so no slice's rows are held beside it.  Beside it the
plan keeps the successor table's real-slot mask (the one spelling of
``prob > 0`` in the library) and the path sampler's pick tables, which the
loops would otherwise rebuild on every call.  Per-cell tables of a solve
(cells, ...), such as a solution's values, are indexed like the plan's
cells; the plan stores none of them.

Every backward solver takes a whole time slice's step (``_centre``) on the
successor values read through ``next_cell``.  A coefficient table b is
read through ``block_rows`` alone (``_rows_at`` once the caller has checked
the fit and holds the cells' keys), which takes a table of rows on the
blocks or of dense rows over the flat states.  A gather of a per-source
table for every cell runs in blocks of at most ``BLOCK_ENTRIES`` entries
(``_blocks``).

Whether a problem's table fits the lattice is decided by ``_require_fit``
alone, wherever a table first meets the lattice (``block_rows`` for beta,
the solvers, the dual side, the problem loaders), before any entry is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import (
    InvalidModelError,
    SemiMarkovModel,
    SojournQuantities,
    _require_laws,
    _successors,
    sojourn_quantities,
)
from .linalg import _per_time_max

__all__ = [
    "LatticeSystem",
    "ProblemDataError",
    "ProjectionConstants",
    "SlicePlan",
    "build_lattice",
    "projection_constants",
]

BLOCK_ENTRIES = 1 << 18


class ProblemDataError(ValueError):
    """Problem data do not fit the lattice, or are not finite or break a
    declared bound at a reachable cell; the message names the field, and
    for a cell the time and the state."""


@dataclass(frozen=True)
class SlicePlan:
    """The reachable cells and the lattice-only tables read by every loop.

    cells      : (C,) flat states reachable at times 0..T, time-major and
                 ascending within a time
    offset     : (T+2,) slice k is cells[offset[k]:offset[k+1]]
    times      : (C,) time of each cell
    key        : (C,) ascending index time * D + state of each cell, the
                 cell's entry in a (T, D) or (T+1, D) table read flat
    real       : (D, W) True on the slots of positive probability
    pick_slot, pick_next
               : (D * (W+1),) slot and successor of the path sampler's
                 pick p from state s, at s * (W+1) + p (see chain._stepper)
    next_cell  : (offset[T], W) int32 positions in ``cells`` of the cells
                 (k+1, succ[cells[c]]) after each cell c at k, padded as succ
    """

    cells: np.ndarray
    offset: np.ndarray
    times: np.ndarray
    key: np.ndarray
    real: np.ndarray
    pick_slot: np.ndarray
    pick_next: np.ndarray
    next_cell: np.ndarray

    def span(self, k: int, end: int | None = None) -> slice:
        """The cells of times k..end-1 (of time k alone by default)."""
        return slice(self.offset[k], self.offset[k + 1 if end is None else end])


@dataclass(frozen=True)
class LatticeSystem:
    """Lattice embedding of a semi-Markov model over its full horizon.

    reachable        : (T+1, D) True where the state is reachable at the time
    succ, prob       : (D, W) padded successor table (see the module notes)
    cdf              : (W, D) cumulative successor probabilities, column s
                       over the slots of s (the path sampler's table)
    sources          : (S,) ascending states ever stepped from before T
    block            : (S, W+1) each source's block (source, *successors)
    plan             : the slice plan over the reachable cells (SlicePlan)

    The lattice also keeps the last exact dual sweep run on it (see
    duality), private and outside equality and repr.
    """

    model: SemiMarkovModel
    sojourn: SojournQuantities
    dim: int
    reachable_at: tuple
    reachable: np.ndarray
    dist_at: np.ndarray
    sources: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    cdf: np.ndarray
    block: np.ndarray
    plan: SlicePlan
    _dual_memo: object = field(default=None, init=False, repr=False,
                               compare=False)

    @property
    def horizon(self) -> int:
        return self.model.horizon

    def flat_index(self, state: int, duration: int) -> int:
        n = self.model.n_states
        if not (0 <= state < n and 1 <= duration <= self.model.n_durations):
            raise ValueError(f"no lattice state ({state}, {duration})")
        return (duration - 1) * n + state

    def label(self, flat: int):
        """Inverse of flat_index: returns (state, duration)."""
        n = self.model.n_states
        if not 0 <= flat < self.dim:
            raise ValueError(f"flat index {flat} outside 0..{self.dim - 1}")
        return flat % n, flat // n + 1

    def block_rows(self, table, times, states) -> np.ndarray:
        """Rows (cells, ..., W+1) on the blocks of the sources ``states``
        at ``times`` (index arrays that broadcast together) of a table (T,
        D, ..., X) of local rows (X = W+1, laid out as ``block``) or dense
        rows (X = D; padding slots repeat the first successor's entry, which
        every reader weights by zero).  The widths coincide only at N = 1,
        T = 1, where the two layouts hold the same entries."""
        table = np.asarray(table, dtype=float)
        _require_fit(self, table.shape[2:-1], beta=table)
        return _rows_at(self, table, times, states,
                        np.asarray(times) * self.dim + states)


def _require_fit(sys, inner=(), **tables):
    """Raise ProblemDataError at the first of the named arrays (None stands
    for an absent one) that does not fit the lattice ``sys``: ``terminal``
    is (D,), ``beta`` (T, D, *inner, X) with rows of width X = W+1 (on the
    blocks) or D (dense), and any other field (T, D, *inner)."""
    t, d, w = sys.horizon, sys.dim, sys.block.shape[1]
    lead = (t, d, *inner)
    for name, table in tables.items():
        if table is None:
            continue
        shape, step, beta = table.shape, name != "terminal", name == "beta"
        want = lead if step else (d,)
        if (shape[:-1] if beta else shape) == want \
                and (not beta or shape[-1] in (w, d)):
            continue
        if step and len(shape) >= 2 and shape[:2] != (t, d):
            why = (f"is sized (T, D) = {shape[:2]} but the model's lattice "
                   f"has (T, D) = {(t, d)}")
        elif beta and shape[:-1] == lead:
            why = (f"has rows of width {shape[-1]} but the model's lattice "
                   f"takes W+1 = {w} (rows on the blocks) or D = {d} (dense "
                   f"rows)")
        else:
            axes = ("T", "D") + ("U",) * len(inner) + ("X",) * beta if step \
                else ("D",)
            want += (f"{w} or {d}",) * beta
            why = (f"has shape {shape} but the model's lattice takes "
                   f"({', '.join(axes)}) = ({', '.join(map(str, want))})")
        raise ProblemDataError(f"field '{name}' {why}")


def _at_cells(table, times, states):
    """table[times, states] of a (T, D, ...) table at index arrays that
    broadcast together, as one flat take: a two-index gather reads its
    rows several times slower."""
    flat = table.reshape((-1,) + table.shape[2:])
    return flat.take(np.asarray(times) * table.shape[1] + states, axis=0)


def _rows_at(sys, table, times, states, key):
    """block_rows of a table that fits the lattice, with ``key`` the cells'
    times * D + states (as SlicePlan.key)."""
    if table.shape[-1] == sys.block.shape[1]:
        return table.reshape((-1,) + table.shape[2:]).take(key, axis=0)
    # one fancy index, which puts the block axis right after the cell axes;
    # inner axes move before it
    inner = (slice(None),) * (table.ndim - 3)
    blk = sys.block[sys.sources.searchsorted(states)]
    when = np.asarray(times)[..., None]
    rows = table[(when, np.asarray(states)[..., None]) + inner + (blk,)]
    if not inner:
        return rows
    return np.ascontiguousarray(np.moveaxis(rows, -1 - len(inner), -1))


def _centre(prob, z):
    """Means (S_k, ...) of successor values z (S_k, W, ...) under the laws
    prob (S_k, W), and z centred in place, zero on padding: a slice step."""
    mean = prob[:, None, :] @ z.reshape(z.shape[:2] + (-1,))
    mean = mean.reshape(z.shape[:1] + z.shape[2:])
    z -= mean[:, None]
    z[prob == 0.0] = 0.0
    return mean, z


def _blocks(n: int, width: int):
    """Slices covering range(n) whose items, ``width`` entries each, fill
    at most BLOCK_ENTRIES entries per slice."""
    per = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, min(lo + per, n)) for lo in range(0, n, per)]


def build_lattice(model: SemiMarkovModel) -> LatticeSystem:
    """Assemble the successor table, reachability, the sources' blocks and
    the slice plan.

    Raises InvalidModelError on a non-finite pi, jump or x0 entry, an x0
    that is no probability vector, inconsistent sojourn data (via
    sojourn_quantities), a state that jumps onto itself at duration 1, or a
    reachable set that dies before the horizon.
    """
    _require_laws(model)
    sq = sojourn_quantities(model)
    n, t = model.n_states, model.horizon
    dim = (t + 1) * n
    table = _successors(model, sq)
    succ, prob, valid = table.succ, table.prob, table.real
    own = valid & (succ == np.arange(dim)[:, None])
    if own.any():
        s = int(np.argwhere(own)[0, 0])
        raise InvalidModelError(
            f"lattice state {(s % n, s // n + 1)} jumps onto itself"
        )

    mask = np.zeros((t + 1, dim), dtype=bool)
    dist = np.zeros((t + 1, dim))
    dist[0, :n] = model.x0
    mask[0] = dist[0] > 0.0
    reachable = [np.flatnonzero(mask[0])]
    for k in range(t):
        cur = reachable[-1]
        if cur.size == 0:
            raise InvalidModelError(f"reachable set is empty at time {k}")
        nxt = succ.take(cur, axis=0)
        flow = prob.take(cur, axis=0) * dist[k].take(cur)[:, None]
        dist[k + 1] = np.bincount(nxt.ravel(), flow.ravel(), minlength=dim)
        mask[k + 1, nxt[valid.take(cur, axis=0)]] = True
        reachable.append(np.flatnonzero(mask[k + 1]))
    if reachable[-1].size == 0:
        raise InvalidModelError(f"reachable set is empty at time {t}")

    # the slice plan: every reachable cell once, time-major
    sizes = [reach.size for reach in reachable]
    offset = np.concatenate(([0], np.cumsum(sizes)))
    bounds = offset.tolist()
    cells = np.concatenate(reachable)
    times = np.repeat(np.arange(t + 1), sizes)
    sources = np.unique(cells[:offset[t]])
    block = np.concatenate((sources[:, None], succ[sources]), axis=1)
    # each slice's successor rows mapped straight into the table, now that
    # its size is known: pos holds the positions of the next slice's cells;
    # every index is in range, and mode="clip" lets take write into out
    # without a temporary
    next_cell = np.empty((bounds[t], succ.shape[1]), np.int32)
    pos = np.empty(dim, np.int32)
    for k in range(t):
        pos[reachable[k + 1]] = np.arange(bounds[k + 1], bounds[k + 2],
                                          dtype=np.int32)
        pos.take(succ.take(reachable[k], axis=0), mode="clip",
                 out=next_cell[bounds[k]:bounds[k + 1]])
    plan = SlicePlan(cells, offset, times, times * dim + cells, valid,
                     table.pick_slot, table.pick_next, next_cell)
    for arr in (mask, dist, sources, succ, prob, table.cdf, block,
                *vars(plan).values()):
        arr.flags.writeable = False
    return LatticeSystem(
        model, sq, dim, tuple(cells[a:b] for a, b in zip(bounds, bounds[1:])),
        mask, dist, sources, succ, prob, table.cdf, block, plan,
    )


@dataclass(frozen=True)
class ProjectionConstants:
    """Smallest constants bounding canonical integrands by their seminorm.

    per_time[k] is the least constant with ||v|| <= per_time[k] * s(v) for
    every canonical representative v (zero off the successor support, mean
    zero under the successor law) at any source reachable at time k, where
    s(.) is the one-step noise seminorm.  On that subspace the bracket and
    covariance quadratic forms coincide, so one constant serves both (the
    bracket itself has one negative eigenvalue at every source with a
    successor).  A source with one successor carries no noise and
    contributes zero.  Computed from ``prob``, one small eigenproblem per
    source.
    """

    per_time: np.ndarray
    overall: float


def projection_constants(sys: LatticeSystem) -> ProjectionConstants:
    # substituting w = sqrt(c) v maps the seminorm to the Euclidean norm and
    # the mean-zero constraint to w orthogonal to u = sqrt(c), so the squared
    # constant is the top eigenvalue of Q diag(1/c) Q, Q = I - u u'
    # (zero on padding)
    p = sys.prob[sys.sources]
    u = np.sqrt(p)
    inv = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
    q = np.eye(p.shape[1]) - u[:, :, None] * u[:, None, :]
    top = np.linalg.eigvalsh(q @ (inv[:, :, None] * q))[:, -1]
    noisy = np.count_nonzero(p, axis=1) > 1
    per_source = np.where(noisy, np.sqrt(np.maximum(top, 0.0)), 0.0)
    per_time = _per_time_max(sys, per_source)
    overall = float(per_time.max()) if per_time.size else 0.0
    per_time.flags.writeable = False
    return ProjectionConstants(per_time, overall)
