"""Sojourn-augmented lattice that makes the semi-Markov chain Markov.

The augmented state is the pair (state, duration) embedded as a unit vector
in dimension D = (T+1) * N, flat index (duration-1)*N + state.  A jump resets
the duration to 1, staying put carries it one deeper, and duration T+1 has no
in-horizon continuation.  The lattice stores one padded successor table
indexed by flat state: ``succ[s, :m]`` are the m successors of s, ascending,
and ``prob[s, :m]`` their probabilities; the slots up to W, the widest
support, repeat the first successor with probability zero.

For each source the one-step noise (the innovation martingale increment)
carries the covariance diag(c) - c c' (c the successor law; positive
semidefinite, it backs the integrand seminorm) and the bracket
diag(c) - e c' - c e', indefinite whenever the step is random.  The two agree
on integrands supported on the successors with c-weighted mean zero; formulas
downstream are indexed against the bracket's pseudoinverse.  Both vanish off
the block (source, *successors) of at most N+1 indices, so the bracket, its
pseudoinverse and projector are stored per block, stacked over ``sources``
and padded with zeros like the table.  These stacked tables are the only
per-source geometry; no D x D matrix is ever built.

The reachability pass also lays out one slice plan (``SlicePlan``): the
reachable cells (time, state) in time-then-state order, so that time k's
slice is one contiguous run and ``reachable_at[k]`` a view of it, with each
cell's time and, before the horizon, its source's position in ``sources``
and its successors' positions in the cells (``next_cell``).  Beside it the
plan keeps the lattice-only tables the loops would otherwise rebuild on
every call: the real-slot mask (the one spelling of ``prob > 0`` in the
library), the centred pinv columns of the noise and the lattice sampler's
pick tables.  Per-cell tables of a solve (cells, ...), such as a solution's
values, are indexed like the plan's cells; the plan stores none of them.

Every backward solver takes a whole time slice's step (``_centre``) on the
successor values read through ``next_cell``; ``step`` takes it on a row.
A coefficient table b is read through ``block_rows`` alone, which takes a
table of rows on the blocks or of dense rows over the flat states.  A
gather of a per-source table for every cell runs in blocks of at most
``BLOCK_ENTRIES`` entries (``_blocks``).

Whether a problem's table fits the lattice is decided by ``_require_fit``
alone, wherever a table first meets the lattice (``block_rows`` for beta,
the solvers, the dual side, the problem loaders), before any entry is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    InvalidModelError,
    SemiMarkovModel,
    SojournQuantities,
    _outcome_law,
    _require_laws,
    sojourn_quantities,
)
from .linalg import _per_time_max, pinv

__all__ = [
    "LatticeSystem",
    "ProblemDataError",
    "ProjectionConstants",
    "SlicePlan",
    "UnreachableStateError",
    "build_lattice",
    "canonical_integrand",
    "integrands_equivalent",
    "noise_seminorm",
    "projection_constants",
]

_EIG_TOL = 1e-10
BLOCK_ENTRIES = 1 << 18


class UnreachableStateError(KeyError):
    """The requested lattice state is never occupied as a transition source."""


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
    source_at  : (offset[T],) position in ``sources`` of each cell before T
    real       : (D, W) True on the slots of positive probability
    noise_cols : (S, W+1, W) each source's bracket pinv columns at its
                 successor slots, centred under its successor law
    pick_slot, pick_next
               : (D * (W+1),) slot and successor of the lattice sampler's
                 pick p (the count of cumulative probabilities at or below
                 the draw) from state s, at s * (W+1) + p
    next_cell  : (offset[T], W) int32 positions in ``cells`` of the cells
                 (k+1, succ[cells[c]]) after each cell c at k, padded as succ
    """

    cells: np.ndarray
    offset: np.ndarray
    times: np.ndarray
    key: np.ndarray
    source_at: np.ndarray
    real: np.ndarray
    noise_cols: np.ndarray
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
    local_bracket, local_pinv, local_projector
                     : (S, W+1, W+1) per-source blocks, padded with zeros
    bracket_psd      : (S,) True where the bracket is positive semidefinite
    plan             : the slice plan over the reachable cells (SlicePlan)
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
    local_bracket: np.ndarray
    local_pinv: np.ndarray
    local_projector: np.ndarray
    bracket_psd: np.ndarray
    plan: SlicePlan

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

    def step(self, k: int, values):
        """One backward step over the sources reachable at time k.

        values (..., D) are the time k+1 values.  Returns the conditional
        means (..., S_k) under each source's successor law and the local
        canonical integrands (..., S_k, W): value at successor slot j minus
        the mean, zero on padding.
        """
        src = self.reachable_at[k]
        # batch axes last, (S_k, W, ...): the gather reads whole rows of the
        # transposed values, and the one (S_k, W, ...) array becomes z
        mean, z = _centre(self.prob[src],
                          np.asarray(values, dtype=float).T[self.succ[src]])
        batch = tuple(range(z.ndim - 1, 1, -1))
        return mean.T, z.transpose(batch + (0, 1))

    def block_rows(self, table, times, states) -> np.ndarray:
        """Rows (cells, ..., W+1) on the blocks of the sources ``states``
        at ``times`` (index arrays that broadcast together) of a table (T,
        D, ..., X) of local rows (X = W+1, laid out as ``block``) or dense
        rows (X = D; padding slots repeat the first successor's entry, which
        every reader weights by zero).  The widths coincide only at N = 1,
        T = 1, where the two layouts hold the same entries.  For a table
        without inner axes ``times`` may be a slice, and ``states`` (S,):
        the rows come out (times, S, W+1)."""
        table = np.asarray(table, dtype=float)
        _require_fit(self, table.shape[2:-1], beta=table)
        if table.shape[-1] == self.block.shape[1]:
            return table[times, states]
        # one fancy index, which puts the block axis right after the cell
        # axes; inner axes move before it
        inner = (slice(None),) * (table.ndim - 3)
        blk = self.block[self.sources.searchsorted(states)]
        when = times if isinstance(times, slice) else np.asarray(times)[..., None]
        rows = table[(when, np.asarray(states)[..., None]) + inner + (blk,)]
        if not inner:
            return rows
        return np.ascontiguousarray(np.moveaxis(rows, -1 - len(inner), -1))


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
    """Assemble the successor table, reachability and per-source blocks.

    Raises InvalidModelError on a non-finite pi, jump or x0 entry, an x0
    that is no probability vector, inconsistent sojourn data (via
    sojourn_quantities), a state that jumps onto itself at duration 1, or a
    reachable set that dies before the horizon.
    """
    _require_laws(model)
    sq = sojourn_quantities(model)
    n, t = model.n_states, model.horizon
    dim = (t + 1) * n
    flat = np.arange(dim)
    # outcomes in ascending flat order: a jump to (j, 1) for every j, then
    # staying at (state, duration + 1), which leaves the lattice at T+1
    cand = np.concatenate(
        (np.broadcast_to(np.arange(n), (dim, n)), (flat + n)[:, None]), axis=1
    )
    cprob = _outcome_law(model, sq).transpose(1, 0, 2).reshape(dim, n + 1)
    cprob[t * n:, n] = 0.0
    valid = cprob > 0.0
    order = np.argsort(~valid, axis=1, kind="stable")
    count = valid.sum(axis=1)
    width = max(int(count.max()), 1)
    slots = (flat[:, None], order[:, :width])
    valid = valid[slots]
    succ = cand[slots]
    succ = np.where(valid, succ, succ[:, :1])
    prob = np.where(valid, cprob[slots], 0.0)
    cdf = np.ascontiguousarray(np.cumsum(prob, axis=1).T)
    own = valid & (succ == flat[:, None])
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
        dist[k + 1] = np.bincount(
            succ[cur].ravel(), (prob[cur] * dist[k, cur, None]).ravel(),
            minlength=dim,
        )
        mask[k + 1, succ[cur][valid[cur]]] = True
        reachable.append(np.flatnonzero(mask[k + 1]))
    if reachable[-1].size == 0:
        raise InvalidModelError(f"reachable set is empty at time {t}")

    # the slice plan: every reachable cell once, time-major
    sizes = [reach.size for reach in reachable]
    offset = np.concatenate(([0], np.cumsum(sizes)))
    cells = np.concatenate(reachable)
    times = np.repeat(np.arange(t + 1), sizes)
    sources = np.unique(cells[:offset[t]])
    # block (source, *successors): c is zero at the source coordinate, so
    # diag(c) - e c' - c e' has c on the diagonal and -c in row/column 0
    block = np.concatenate((sources[:, None], succ[sources]), axis=1)
    p = prob[sources]
    br = np.zeros((sources.size, width + 1, width + 1))
    diag = np.arange(1, width + 1)
    br[:, diag, diag] = p
    br[:, 0, 1:] = -p
    br[:, 1:, 0] = -p
    keep = np.concatenate((np.ones((sources.size, 1), bool), p > 0.0), axis=1)
    bp = pinv(br) * (keep[:, :, None] & keep[:, None, :])
    proj = bp @ br
    w = np.linalg.eigvalsh(br)
    scale = np.maximum(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])), 1.0)
    psd = w[:, 0] >= -_EIG_TOL * scale
    # noise n = b @ pinv @ (e_j - c): the pinv columns of the successors,
    # centred under the successor law
    cols = bp[:, :, 1:]
    cols = cols - cols @ p[..., None]
    # the sampler's pick p from s is its count of cumulative probabilities
    # at or below the draw: slot min(p, last real slot), or the last
    # padding slot (which the path walk rejects) for a row without any
    pick_slot = np.minimum(np.arange(width + 1), count[:, None] - 1) % width
    pick_next = succ[flat[:, None], pick_slot].ravel()
    # slice k's successor cells, read off slice k+1's positions by state
    next_cell = succ.astype(np.int32).take(cells[:offset[t]], axis=0)
    pos, at = np.empty(dim, np.int32), np.arange(cells.size, dtype=np.int32)
    for k in range(t):
        pos[reachable[k + 1]] = at[offset[k + 1]:offset[k + 2]]
        nxt = next_cell[offset[k]:offset[k + 1]]
        pos.take(nxt, out=nxt)
    plan = SlicePlan(cells, offset, times, times * dim + cells,
                     np.searchsorted(sources, cells[:offset[t]]), valid, cols,
                     pick_slot.ravel(), pick_next, next_cell)
    for arr in (mask, dist, sources, succ, prob, cdf, block, br, bp, proj, psd,
                *vars(plan).values()):
        arr.flags.writeable = False
    bounds = offset.tolist()
    return LatticeSystem(
        model, sq, dim, tuple(cells[a:b] for a, b in zip(bounds, bounds[1:])),
        mask, dist, sources, succ, prob, cdf, block, br, bp, proj, psd, plan,
    )


def _source_index(sys: LatticeSystem, state: int) -> int:
    """Position of ``state`` in ``sys.sources``; raises UnreachableStateError
    when the state is never stepped from."""
    i = int(np.searchsorted(sys.sources, state))
    if i == sys.sources.size or sys.sources[i] != state:
        raise UnreachableStateError(
            f"lattice state {sys.label(state)} is never a transition source"
        )
    return i


def _source_integrand(sys: LatticeSystem, state: int, row) -> np.ndarray:
    """Canonical integrand of ``row`` used from the single source ``state``:
    row minus its successor-law mean on the successors, zero elsewhere
    (padding slots repeat a successor at probability zero)."""
    _source_index(sys, state)
    row = np.asarray(row, dtype=float)
    succ = sys.succ[state]
    out = np.zeros(row.shape)
    out[succ] = row[succ] - sys.prob[state] @ row[succ]
    return out


def _check_time(sys, k):
    if not 0 <= k < sys.horizon:
        raise ValueError(f"integrand time {k} outside 0..{sys.horizon - 1}")


def noise_seminorm(sys: LatticeSystem, rows, up_to: int | None = None) -> float:
    """Seminorm of a sequence of integrand rows against the one-step noise.

    ``rows[u]`` is the ambient row applied at time u; the squared seminorm
    sums E[row_u cov(state_u) row_u'] over u <= up_to with the occupancy law
    of the lattice at u.  Rows that are constant on every successor support
    (in particular constant rows) have seminorm zero.
    """
    rows = [np.asarray(r, dtype=float) for r in rows]
    if up_to is None:
        up_to = len(rows) - 1
    if up_to >= sys.horizon or up_to >= len(rows):
        raise ValueError("up_to exceeds the defined rows or the horizon")
    total = 0.0
    for u in range(up_to + 1):
        src = sys.reachable_at[u]
        p = sys.dist_at[u, src]
        # variance form of row' cov row: immune to the cancellation that
        # row @ cov @ row suffers on (near-)constant rows
        _, z = sys.step(u, rows[u])
        var = (sys.prob[src] * z * z).sum(axis=1)
        total += float(p[p > 0.0] @ var[p > 0.0])
    return float(np.sqrt(max(total, 0.0)))


def canonical_integrand(
    sys: LatticeSystem, k: int, row, state: int | None = None
) -> np.ndarray:
    """Unique equivalence-class representative of an integrand row.

    With ``state`` given, the row is read as the integrand used from that
    single source: the representative is zero off the successor support and
    has successor-law weighted mean zero.  Without ``state`` the row is read
    as used from every source reachable at time k; sources whose successor
    supports overlap share their additive degree of freedom, so the
    representative is zero off the union support and centred per overlap
    component under the component's averaged successor law.  (Per-source
    centring is unattainable once supports overlap.)

    Idempotent, and rows are equivalent iff their representatives coincide.
    """
    if state is not None:
        return _source_integrand(sys, state, row)
    _check_time(sys, k)
    row = np.asarray(row, dtype=float)
    src = sys.reachable_at[k]
    rows, slots = np.nonzero(sys.plan.real[src])
    succ = sys.succ[src[rows], slots]
    comp = _overlap_components(rows, succ, src.size, sys.dim)
    mix = np.zeros((comp.max() + 1, sys.dim))
    np.add.at(mix, (comp[rows], succ), sys.prob[src[rows], slots])
    mix /= np.bincount(comp)[:, None]
    out = np.zeros_like(row)
    out[succ] = row[succ] - (mix @ row)[comp[rows]]
    return out


def _overlap_components(rows, succ, n, d) -> np.ndarray:
    """Labels (n,) of the connected components of the graph joining source
    rows[i] (of n) to successor succ[i] (of d), numbered 0, 1, ... by each
    component's least source: the least source index spread over the
    source-successor pairs until no label falls."""
    label = np.arange(n)
    while True:
        low = np.full(d, n)
        np.minimum.at(low, succ, label[rows])
        new = label.copy()
        np.minimum.at(new, rows, low[succ])
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def integrands_equivalent(
    sys: LatticeSystem, k: int, row1, row2, state: int | None = None,
    tol: float = 1e-9,
) -> bool:
    """True iff the two rows produce the same product with every realizable
    one-step increment (from ``state``, or from all sources at time k).
    A non-finite difference is never equivalent."""
    d = np.asarray(row1, dtype=float) - np.asarray(row2, dtype=float)
    if state is not None:
        z = _source_integrand(sys, state, d)
    else:
        _check_time(sys, k)
        z = sys.step(k, d)[1]
    return bool(np.all(np.abs(z) <= tol))


@dataclass(frozen=True)
class ProjectionConstants:
    """Smallest constants bounding canonical integrands by their seminorm.

    per_time[k] is the least constant with ||v|| <= per_time[k] * s(v) for
    every canonical representative v (zero off the successor support, mean
    zero under the successor law) at any source reachable at time k, where
    s(.) is the one-step noise seminorm.  On that subspace the bracket and
    covariance quadratic forms coincide, so one constant serves both; the
    bracket itself is indefinite at every genuinely random source, and
    ``fallbacks`` counts the sources where the covariance form is the
    defining one.  Zero noise contributes zero.
    """

    per_time: np.ndarray
    overall: float
    fallbacks: int
    psd_states: int


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
    per_source = np.where(top < 1.0 / _EIG_TOL, np.sqrt(np.maximum(top, 0.0)),
                          0.0)
    psd_states = int(np.count_nonzero(sys.bracket_psd))
    per_time = _per_time_max(sys, per_source)
    overall = float(per_time.max()) if per_time.size else 0.0
    per_time.flags.writeable = False
    return ProjectionConstants(
        per_time, overall, sys.sources.size - psd_states, psd_states
    )
