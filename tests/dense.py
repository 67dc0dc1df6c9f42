"""Dense reference geometry, kept as a test oracle.

The lattice stores one per-source geometry: the padded successor table and
each source's block (source, *successors); the library computes the
bracket's inverse, its projector and the noise in closed form where it
reads them.  Before that the lattice stacked the bracket, its SVD
pseudoinverse, the projector B+ B, the bracket's PSD flag (an eigvalsh)
and the centred pinv columns of the noise over the sources
(``block_geometry``, ``pinv_noise``), and before that it handed out a
per-source view with D x D matrices, a dense D x D transition matrix and a
recursive path enumerator, the weight recursions read (T, D, W) factor
tables over every state, and the backward solvers filled (T+1, D) value
and (T, D, W) integrand tables.  They live on here, unchanged in
substance, as the oracle for the closed forms, the slice step, the level
walk, the cell-major factors and solution tables and the hand-computed
tiny-model tables.  The exact dual's per-call composition from before
one call gathered the successor laws, real-slot masks and keys once and
shared them between the noise, the step and the sweep (``oracle_factors``
through ``oracle_dual_value``) is here too, its noise, step and flow each
on arrays of their own, and so is the general driver's verified root from
before its checks read a whole time slice as arrays: ``_verified_root``,
one cell at a time, the oracle of ``bsde._verified_roots``.  So are the two
forward walks from before they read the successor table by flat index:
``oracle_build_lattice``, whose reachability loop and successor-cell loop
ran apart, and ``oracle_level_walk`` with the exhaustive statistics over
it (``oracle_weight_bounds``, ``oracle_expected_max_gap_sq``).  So is the
document parse from before a problem load read its packed strings from the
file's bytes: ``oracle_load_document``, the whole text through
``read_text`` and ``json.loads``.

After them come the helpers the library once exported although only the
tests read them: the per-row ``step`` (the bit-for-bit reference of the
slice step), the integrand calculus (``canonical_integrand``,
``integrands_equivalent``, ``noise_seminorm``), one cell's control drivers
(``max_driver``, ``hamiltonian``, ``control_index``), the weights along one
given path (``evolve_weights``), the SVD ``pinv`` with its Penrose
residuals, and the chain's per-duration ``transition_matrix``,
``martingale_increment`` and one-path ``simulate``.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from smcbsde import (
    InvalidModelError,
    LinearDriver,
    SemiMarkovModel,
    VanishingDenominatorError,
    simulate_paths,
    sojourn_quantities,
)
from smcbsde.bsde import (_BRACKET_FACTOR, _MONOTONE_SAMPLES, ROOT_TOL,
                          BijectionError, _ambient_rows, _brent, _linear_terms)
from smcbsde.chain import _outcome_law, _require_laws, _successors
from smcbsde.control import _ALPHA_GUARD
from smcbsde.duality import (DENOMINATOR_TOL, Convention, WeightReport,
                             _check_tables, _factors, _walk)
from smcbsde.files import SCHEMA_VERSION, FileFormatError, _require
from smcbsde.lattice import (LatticeSystem, SlicePlan, _blocks, _centre,
                             _require_fit)


def _evaluate(phi, y, context):
    """phi(y) as a Python float; BijectionError where it is NaN."""
    v = float(phi(y))
    if math.isnan(v):
        raise BijectionError(f"y - f is NaN at y = {y}{context}")
    return v


def _verified_root(phi, center, context=""):
    """Root of y -> phi(y) after checking the map brackets and is monotone.

    The samples are spaced as np.linspace spaces them, its two ends
    included; each end is evaluated once, for the sign check, the sweep and
    the refinement alike.  A bracket whose width is not finite (its ends or
    their difference overflow) raises before phi is read."""
    radius = (1.0 + abs(center)) * _BRACKET_FACTOR
    lo, hi = center - radius, center + radius
    if not math.isfinite(hi - lo):
        raise BijectionError(f"the width of the bracket [{lo}, {hi}] of y - f "
                             f"is not finite{context}")
    flo, fhi = _evaluate(phi, lo, context), _evaluate(phi, hi, context)
    if not (flo < 0.0 < fhi):
        raise BijectionError(f"no sign change for y - f on [{lo}, {hi}]{context}")
    step = (hi - lo) / (_MONOTONE_SAMPLES - 1)
    vals = [flo, *(_evaluate(phi, i * step + lo, context)
                   for i in range(1, _MONOTONE_SAMPLES - 1)), fhi]
    for a, b in zip(vals, vals[1:]):
        if b - a < -ROOT_TOL * (1.0 + abs(a)):
            raise BijectionError(f"y - f is not monotone on the bracket{context}")
    return _brent(phi, lo, hi, flo, fhi, context)


def _brackets(p):
    """Bracket, SVD pseudoinverse, projector (S, W+1, W+1) on the blocks and
    PSD flag (S,) of sources with successor laws p (S, W), padded with
    zeros, as the lattice built them."""
    br = np.zeros((p.shape[0], p.shape[1] + 1, p.shape[1] + 1))
    diag = np.arange(1, p.shape[1] + 1)
    br[:, diag, diag] = p
    br[:, 0, 1:] = -p
    br[:, 1:, 0] = -p
    keep = np.concatenate((np.ones((p.shape[0], 1), bool), p > 0.0), axis=1)
    bp = np.linalg.pinv(br, rcond=1e-12) * (keep[:, :, None] & keep[:, None, :])
    w = np.linalg.eigvalsh(br)
    scale = np.maximum(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])), 1.0)
    return br, bp, bp @ br, w[:, 0] >= -1e-10 * scale


def block_geometry(sys):
    """(local_bracket, local_pinv, local_projector, bracket_psd) stacked
    over ``sys.sources``, the tables the lattice once stored."""
    return _brackets(sys.prob[sys.sources])


@dataclass(frozen=True)
class StateGeometry:
    """Noise data of one source state, a view of the lattice's tables.

    Stored on the block (state, *support), outside which the noise vanishes;
    ``covariance``, ``bracket``, ``bracket_pinv`` and ``projector`` are the
    D x D views.

    column     : successor law c (D,)
    support    : successor flat indices with positive mass
    block      : (state, *support) flat indices
    local_bracket : diag(c) - e c' - c e' on the block
    local_pinv : Moore-Penrose pseudoinverse of the local bracket
    local_projector : local_pinv @ local_bracket (projector onto its range)
    bracket_psd: True when the bracket has no genuinely negative eigenvalue
    """

    state: int
    column: np.ndarray
    support: np.ndarray
    block: np.ndarray
    local_bracket: np.ndarray
    local_pinv: np.ndarray
    local_projector: np.ndarray
    bracket_psd: bool

    # indexing through .T serves (D,) and (B, D) alike
    def split(self, values):
        """Successor-law mean and canonical integrand (zero off the support,
        values - mean on it) of next-step values (D,), or a batch (B, D)."""
        values = np.asarray(values, dtype=float)
        nxt = values.T[self.support]
        mean = self.column[self.support] @ nxt
        z = np.zeros(values.shape)
        z.T[self.support] = nxt - mean
        return mean, z

    def project(self, z) -> np.ndarray:
        """``projector @ z`` computed on the block, for z (D,) or (B, D)."""
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        out.T[self.block] = self.local_projector @ z.T[self.block]
        return out

    def _dense(self, local):
        out = np.zeros((self.column.size,) * 2)
        out[np.ix_(self.block, self.block)] = local
        return out

    covariance = property(
        lambda self: np.diag(self.column) - np.outer(self.column, self.column)
    )
    bracket = property(lambda self: self._dense(self.local_bracket))
    bracket_pinv = property(lambda self: self._dense(self.local_pinv))
    projector = property(lambda self: self._dense(self.local_projector))


class UnreachableStateError(KeyError):
    """The requested lattice state is never occupied as a transition source."""


def source_index(sys, state: int) -> int:
    """Position of ``state`` in ``sys.sources``; raises UnreachableStateError
    when the state is never stepped from."""
    i = int(np.searchsorted(sys.sources, state))
    if i == sys.sources.size or sys.sources[i] != state:
        raise UnreachableStateError(
            f"lattice state {sys.label(state)} is never a transition source"
        )
    return i


def geometry_for(sys, state: int) -> StateGeometry:
    """One source's view of the geometry of ``block_geometry``."""
    i = source_index(sys, state)
    m = int(np.count_nonzero(sys.prob[state]))
    support, b = sys.succ[state, :m], slice(0, m + 1)
    column = np.zeros(sys.dim)
    column[support] = sys.prob[state, :m]
    br, bp, proj, psd = _brackets(sys.prob[state][None])
    return StateGeometry(
        int(state), column, support, sys.block[i, b],
        br[0, b, b], bp[0, b, b], proj[0, b, b], bool(psd[0]),
    )


def transition(sys) -> np.ndarray:
    """Dense D x D transition matrix, column s the successor law of s."""
    c = np.zeros((sys.dim, sys.dim))
    rows, slots = np.nonzero(sys.prob)
    c[sys.succ[rows, slots], rows] = sys.prob[rows, slots]
    return c


def step_distribution(sys, state: int) -> np.ndarray:
    """Successor law of one lattice state (a column of the transition matrix)."""
    return geometry_for(sys, state).column


def covariance_matrix(sys, state: int) -> np.ndarray:
    return geometry_for(sys, state).covariance


def bracket_matrix(sys, state: int) -> np.ndarray:
    return geometry_for(sys, state).bracket


def enumerate_paths(sys, start_time: int, state: int):
    """All realizable lattice paths from (start_time, state) to the horizon.

    Yields (path, probability) with path a tuple of flat indices, in
    deterministic successor-ascending depth-first order so repeated runs
    reduce bit-identically.  Probabilities over the yield sum to one.
    """
    t = sys.horizon
    if not 0 <= start_time <= t:
        raise ValueError(f"start_time {start_time} outside 0..{t}")

    def rec(k, s, prefix, prob):
        if k == t:
            yield tuple(prefix), prob
            return
        g = geometry_for(sys, s)
        for j in g.support:
            j = int(j)
            prefix.append(j)
            yield from rec(k + 1, j, prefix, prob * float(g.column[j]))
            prefix.pop()

    yield from rec(start_time, int(state), [int(state)], 1.0)


def dense_beta(sys, beta):
    """A coefficient table of rows on the blocks, (T, D, ..., W+1), as dense
    rows over the flat states, (T, D, ..., D), zero off each block and on
    padding; a dense table comes back as it is."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1] == sys.dim:
        return beta
    on = np.concatenate((np.ones((sys.sources.size, 1), bool),
                         sys.prob[sys.sources] > 0.0), axis=1)
    i, j = np.nonzero(on)
    out = np.zeros(beta.shape[:-1] + (sys.dim,))
    out[:, sys.sources[i], ..., sys.block[i, j]] = beta[:, sys.sources[i], ..., j]
    return out


def pinv_noise(sys, beta):
    """Noise n = b @ pinv(bracket_s) @ (e_j - c_s) of every (time, source,
    successor slot) (T, S, W), through the SVD pseudoinverse's columns of
    the successors, centred under the successor law: one product of all T
    rows per source."""
    rows = sys.block_rows(beta, np.arange(sys.horizon), sys.sources[:, None])
    cols = block_geometry(sys)[1][:, :, 1:]
    cols = cols - cols @ sys.prob[sys.sources][..., None]
    return (rows @ cols).transpose(1, 0, 2)


def full_noise(sys, beta):
    """Noise of every (time, source, successor slot) (T, D, W), 0 elsewhere
    and without beta, by the closed form (oracle_noise)."""
    noise = np.zeros((sys.horizon,) + sys.succ.shape)
    if beta is not None:
        rows = sys.block_rows(beta, np.arange(sys.horizon),
                              sys.sources[:, None])
        noise[:, sys.sources] = oracle_noise(sys, rows, sys.sources[:, None]
                                             ).transpose(1, 0, 2)
    return noise


def full_factors(sys, sde):
    """Weight factors over every (time, state) on the padded successor
    table, as (succ, prob, den, step, run): source s steps to succ[s, j]
    with probability prob[s, j] (0 on padding); that step at time k
    multiplies V by step[k, s, j], whose denominator is den[k, s, j] (1
    where there is none), and W_k = V_k * run[k, s].  The (T, D, W) tables
    the exact sweep read before it worked on the reachable cells."""
    noise = full_noise(sys, sde.beta)
    den, step, run = oracle_algebra(sde.convention, sde.alpha[:, :, None],
                                    noise)
    return sys.succ, sys.prob, np.broadcast_to(den, step.shape), step, \
        run[:, :, 0]


class OracleFactors(NamedTuple):
    """Weight factors at the plan's cells from time ``start`` on, cell-major:
    the step from cell c through slot j multiplies V by step[c, j], whose
    denominator is den[c, j], and W = V * run[c]."""

    start: int
    den: np.ndarray
    step: np.ndarray
    run: np.ndarray


def oracle_noise(sys, rows, states):
    """Noise (..., W) of rows b (..., W+1) on the blocks of the sources
    ``states`` (...), in closed form with sum_i b_i read as sum_i c_i (b_i /
    c_i), gathering the successor laws and real slots itself."""
    c = sys.prob.take(states, axis=0)
    n = np.divide(rows[..., 1:], c, out=np.zeros(rows[..., 1:].shape),
                  where=sys.plan.real.take(states, axis=0))
    sigma = np.einsum("...j->...", c)
    shift = np.einsum("...j,...j->...", c, n) - (sigma - 1.0) * rows[..., 0]
    n -= np.divide(shift, sigma, out=np.zeros(shift.shape),
                   where=sigma > 0.0)[..., None]
    return n


def oracle_cell_noise(sys, beta, start):
    """Noise (cells, W) at the plan's cells from time ``start`` on, gathered
    in blocks of cells through the public block_rows into a table of its
    own."""
    plan = sys.plan
    at = plan.span(start, sys.horizon)
    times, cells = plan.times[at], plan.cells[at]
    noise = np.empty((cells.size, sys.succ.shape[1]))
    for blk in _blocks(cells.size, sys.block.shape[1]):
        noise[blk] = oracle_noise(
            sys, sys.block_rows(beta, times[blk], cells[blk]), cells[blk])
    return noise


def oracle_algebra(conv, a, noise):
    """(den, step, run) of the steps with drift a and noise n under the
    convention, each a new table: den is 1 where there is none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if conv is Convention.SHIFTED:
            return np.ones(noise.shape), 1.0 + a + noise, np.ones(np.shape(a))
        if conv is Convention.IMPLICIT:
            den = 1.0 - a - noise
            return den, 1.0 / den, np.ones(np.shape(a))
        den = 1.0 - a
        return den, (1.0 + noise) / den, 1.0 / den


def oracle_check_denominators(sys, den, times, states, slots):
    """Raise VanishingDenominatorError at the first step, in (time, state,
    slot) order, through a real slot whose denominator is within
    DENOMINATOR_TOL of zero; the arguments broadcast together."""
    bad = (np.abs(den) < DENOMINATOR_TOL) & sys.plan.real[states, slots]
    if bad.any():
        den, times, states, slots, bad = np.broadcast_arrays(
            den, times, states, slots, bad)
        key = np.where(bad, (times * sys.dim + states) * sys.succ.shape[1]
                       + slots, np.iinfo(np.int64).max)
        i = np.unravel_index(np.argmin(key), key.shape)
        raise VanishingDenominatorError(f"weight denominator {den[i]} at "
                                        f"time {times[i]}, state {states[i]}")


def oracle_factors(sys, sde):
    """The OracleFactors of sde from sde.start_time on; raises on the first
    vanishing denominator among their real slots."""
    plan = sys.plan
    at = plan.span(sde.start_time, sys.horizon)
    a = sde.alpha.take(plan.key[at])[:, None]
    noise = np.zeros(a.shape) if sde.beta is None else \
        oracle_cell_noise(sys, sde.beta, sde.start_time)
    den, step, run = oracle_algebra(sde.convention, a, noise)
    oracle_check_denominators(sys, den, plan.times[at, None],
                              plan.cells[at, None],
                              np.arange(sys.succ.shape[1]))
    return OracleFactors(sde.start_time, den, step, run[:, 0])


def oracle_sweep(sys, fac, g, terminal):
    """Dual value u at the plan's cells from time fac.start on, cell-major:
    u_k(s) = g_k(s) run_k(s) + sum_j c_s(j) step_k(s, j) u_{k+1}(j), a dead
    route (zero flow or padding) adding nothing."""
    plan, t, start = sys.plan, sys.horizon, fac.start
    bounds = (plan.offset[start:t + 1] - plan.offset[start]).tolist()
    first, n = int(plan.offset[start]), bounds[-1]
    cells = plan.cells[first:]
    src = cells[:n]
    u = np.empty(cells.size + 1)
    terminal.take(cells[n:], out=u[n:-1])
    u[-1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        flow = sys.prob.take(src, axis=0)
        flow *= fac.step
        dead = (flow == 0.0) | ~plan.real.take(src, axis=0)
        nxt = plan.next_cell[first:first + n] - first
        nxt[dead] = cells.size
        flow[dead] = 0.0
        base = g.take(plan.key[first:first + n]) * fac.run
        for k in range(t - start - 1, -1, -1):
            now = slice(bounds[k], bounds[k + 1])
            np.add(base[now], np.add.reduce(flow[now] * u[nxt[now]], axis=1),
                   out=u[now])
    return u[:-1]


def oracle_dual_value(sys, sde, g, terminal):
    """The exact dual_value (D,) from sde.start_time, NaN off the start
    states, by oracle_factors and oracle_sweep."""
    g = np.asarray(g, dtype=float)
    terminal = np.asarray(terminal, dtype=float)
    _check_tables(sys, sde, g, terminal)
    starts = sys.reachable_at[sde.start_time]
    out = np.full(sys.dim, np.nan)
    out[starts] = oracle_sweep(sys, oracle_factors(sys, sde), g,
                               terminal)[:starts.size]
    return out


def oracle_build_lattice(model):
    """build_lattice as it was before one pass per time built reachability
    and the successor-cell index together: the reachability loop gathers
    succ[cur] twice and prob[cur] with two-index reads, and a second loop
    over the times maps an int32 copy of the cells' successor rows to their
    positions in place."""
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
        dist[k + 1] = np.bincount(
            succ[cur].ravel(), (prob[cur] * dist[k, cur, None]).ravel(),
            minlength=dim,
        )
        mask[k + 1, succ[cur][valid[cur]]] = True
        reachable.append(np.flatnonzero(mask[k + 1]))
    if reachable[-1].size == 0:
        raise InvalidModelError(f"reachable set is empty at time {t}")

    sizes = [reach.size for reach in reachable]
    offset = np.concatenate(([0], np.cumsum(sizes)))
    cells = np.concatenate(reachable)
    times = np.repeat(np.arange(t + 1), sizes)
    sources = np.unique(cells[:offset[t]])
    block = np.concatenate((sources[:, None], succ[sources]), axis=1)
    next_cell = succ.astype(np.int32).take(cells[:offset[t]], axis=0)
    pos, at = np.empty(dim, np.int32), np.arange(cells.size, dtype=np.int32)
    for k in range(t):
        pos[reachable[k + 1]] = at[offset[k + 1]:offset[k + 2]]
        nxt = next_cell[offset[k]:offset[k + 1]]
        pos.take(nxt, out=nxt)
    plan = SlicePlan(cells, offset, times, times * dim + cells, valid,
                     table.pick_slot, table.pick_next, next_cell)
    bounds = offset.tolist()
    return LatticeSystem(
        model, sq, dim, tuple(cells[a:b] for a, b in zip(bounds, bounds[1:])),
        mask, dist, sources, succ, prob, table.cdf, block, plan,
    )


def oracle_load_document(path, expected_kind=None) -> dict:
    """files.load_document as it was before the loaders read packed strings
    from the file's bytes: the whole text, decoded by read_text and parsed
    by json.loads."""
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: file not found")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at "
            f"offset {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    version = _require(doc, "schema_version", path)
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise FileFormatError(
            f"{path}: schema_version {version} unsupported "
            f"(expected 1 or {SCHEMA_VERSION})"
        )
    kind = _require(doc, "kind", path)
    if expected_kind is not None and kind != expected_kind:
        raise FileFormatError(
            f"{path}: kind '{kind}' where '{expected_kind}' was expected"
        )
    return doc


def oracle_level_walk(sys, start, states):
    """The level walk as it was before it read the successor table by flat
    index: per time k (k, rows, cur, slots), from a two-dimensional nonzero
    of the real-slot mask at the paths' states, the walk stepping through
    succ[cur, slots]."""
    cur = np.asarray(states, dtype=np.int64)
    for k in range(start, sys.horizon):
        rows, slots = np.nonzero(sys.plan.real[cur])
        cur = cur[rows]
        yield k, rows, cur, slots
        cur = sys.succ[cur, slots]


def oracle_weight_bounds(sys, sde):
    """The exhaustive weight_bounds (no positivity report) over
    oracle_level_walk, reading the factors, laws and per-path state with
    two-index and fancy gathers."""
    _check_tables(sys, sde)
    start = sde.start_time
    states = sys.reachable_at[start]
    fac = _factors(sys, sde)
    bounds = (sys.plan.offset[start:] - sys.plan.offset[start]).tolist()
    run, step = np.empty(sys.dim), np.empty(sys.succ.shape)
    root, weight, v = states, np.ones(states.size), np.ones(states.size)
    vmax, wmax, min_weight = v, np.zeros(states.size), 1.0
    for k, rows, cur, slots in oracle_level_walk(sys, start, states):
        now = slice(bounds[k - start], bounds[k - start + 1])
        run[sys.reachable_at[k]] = fac.run[now]
        step[sys.reachable_at[k]] = fac.step[now]
        w = v[rows] * run[cur]
        wmax = np.maximum(wmax[rows], w * w)
        v = v[rows] * step[cur, slots]
        vmax = np.maximum(vmax[rows], v * v)
        min_weight = np.minimum(min_weight, v.min())
        weight = weight[rows] * sys.prob[cur, slots]
        root = root[rows]
    ev = np.bincount(root, weight * vmax, minlength=sys.dim)[states]
    ew = np.bincount(root, weight * wmax, minlength=sys.dim)[states]
    per_state = {int(s): (float(a), float(b)) for s, a, b in zip(states, ev, ew)}
    return WeightReport(float(ev.max()), float(ew.max()), float(min_weight),
                        per_state)


def oracle_expected_max_gap_sq(sys, delta):
    """control._expected_max_gap_sq over oracle_level_walk."""
    start = sys.dist_at[0]
    root = np.array([s for s in sys.reachable_at[0] if start[s] > 0.0])
    prob, gap = np.ones(root.size), delta[0, root] ** 2
    for k, rows, cur, slots in oracle_level_walk(sys, 0, root):
        gap = np.maximum(gap[rows], delta[k + 1, sys.succ[cur, slots]] ** 2)
        prob = prob[rows] * sys.prob[cur, slots]
        root = root[rows]
    return float((start[root] * prob) @ gap)


def check_walked_denominators(sys, den, walked):
    """Raise on the first vanishing denominator, in (time, state, slot)
    order, of the steps marked in ``walked`` (T, D, W)."""
    bad = walked & (sys.prob > 0.0) & (np.abs(den) < DENOMINATOR_TOL)
    if bad.any():
        k, s, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise VanishingDenominatorError(
            f"weight denominator {den[k, s, j]} at time {k}, state {s}")


def _dense_tables(sys, terminal):
    """Values (T+1, D), NaN but at the reachable terminal states, and zero
    local integrands (T, D, W) for a backward solve to fill."""
    term = np.asarray(terminal, dtype=float)
    values = np.full((sys.horizon + 1, sys.dim), np.nan)
    reach_t = sys.reachable_at[sys.horizon]
    values[-1, reach_t] = term[reach_t]
    return values, np.zeros((sys.horizon,) + sys.succ.shape)


def _dense_affine_solve(sys, terms, values, local, roots=()):
    """The affine kernel over (T+1, D) tables: the largest closed form at
    each cell, a verified root at the cells ``roots``."""
    plan = sys.plan
    cut = np.searchsorted(roots, plan.offset).tolist()
    for k in range(sys.horizon - 1, -1, -1):
        src, at = sys.reachable_at[k], plan.span(k)
        mean, z = step(sys, k, values[k + 1])
        local[k, src] = z
        if cut[k] == cut[k + 1]:
            values[k, src] = terms.closed(at, mean, z)
            continue
        with np.errstate(all="ignore"):  # discarded at the roots
            y = terms.closed(at, mean, z)
        for c in roots[cut[k]:cut[k + 1]]:
            i = c - at.start
            y[i] = _verified_root(
                lambda v: v - float(np.max(terms.value(c, v, z[i]))) - mean[i],
                float(mean[i]), f" at time {k}, state {src[i]}")
        values[k, src] = y


def _dense_ambient(sys, local):
    """The ambient (T, D, D) integrand table of local rows (T, D, W)."""
    succ = np.where(sys.prob > 0.0, sys.succ, -1)
    t, d = local.shape[:2]
    out = np.zeros((t, d, d))
    rows, slots = np.nonzero(succ >= 0)
    out[:, rows, succ[rows, slots]] = local[:, rows, slots]
    return out


def dense_solve(sys, driver, terminal):
    """solve_bsde over (T+1, D) tables: (values, local integrands (T, D,
    W), ambient integrands (T, D, D))."""
    values, local = _dense_tables(sys, terminal)
    if isinstance(driver, LinearDriver):
        _dense_affine_solve(sys, _linear_terms(sys, driver), values, local)
    else:
        for k in range(sys.horizon - 1, -1, -1):
            src = sys.reachable_at[k]
            mean, z = step(sys, k, values[k + 1])
            local[k, src] = z
            rows = _ambient_rows(sys, k, z)
            for s, m, row in zip(src.tolist(), mean.tolist(), rows):
                values[k, s] = _verified_root(
                    lambda y: y - driver.fn(k, s, y, row) - m, m,
                    f" at time {k}, state {s}")
    return values, local, _dense_ambient(sys, local)


def dense_solve_control(problem, sys):
    """solve_control's tables over (T+1, D), as dense_solve returns them."""
    terms = problem.validate(sys)
    values, local = _dense_tables(sys, problem.terminal)
    roots = np.flatnonzero(np.any(terms.alpha >= 1.0 - _ALPHA_GUARD, axis=1))
    _dense_affine_solve(sys, terms, values, local, roots)
    return values, local, _dense_ambient(sys, local)


# The per-row step and the integrand calculus the lattice once exported:
# the slice step on one (D,) row or a batch, the canonical representative
# of an integrand row, its equivalence class and its noise seminorm.


def step(sys, k: int, values):
    """One backward step over the sources reachable at time k.

    values (..., D) are the time k+1 values.  Returns the conditional
    means (..., S_k) under each source's successor law and the local
    canonical integrands (..., S_k, W): value at successor slot j minus
    the mean, zero on padding.
    """
    src = sys.reachable_at[k]
    # batch axes last, (S_k, W, ...): the gather reads whole rows of the
    # transposed values, and the one (S_k, W, ...) array becomes z
    mean, z = _centre(sys.prob[src],
                      np.asarray(values, dtype=float).T[sys.succ[src]])
    batch = tuple(range(z.ndim - 1, 1, -1))
    return mean.T, z.transpose(batch + (0, 1))


def _source_integrand(sys, state: int, row) -> np.ndarray:
    """Canonical integrand of ``row`` used from the single source ``state``:
    row minus its successor-law mean on the successors, zero elsewhere
    (padding slots repeat a successor at probability zero)."""
    source_index(sys, state)
    row = np.asarray(row, dtype=float)
    succ = sys.succ[state]
    out = np.zeros(row.shape)
    out[succ] = row[succ] - sys.prob[state] @ row[succ]
    return out


def _check_time(sys, k):
    if not 0 <= k < sys.horizon:
        raise ValueError(f"integrand time {k} outside 0..{sys.horizon - 1}")


def noise_seminorm(sys, rows, up_to: int | None = None) -> float:
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
        _, z = step(sys, u, rows[u])
        var = (sys.prob[src] * z * z).sum(axis=1)
        total += float(p[p > 0.0] @ var[p > 0.0])
    return float(np.sqrt(max(total, 0.0)))


def canonical_integrand(sys, k: int, row, state: int | None = None):
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
    comp = overlap_components(rows, succ, src.size, sys.dim)
    mix = np.zeros((comp.max() + 1, sys.dim))
    np.add.at(mix, (comp[rows], succ), sys.prob[src[rows], slots])
    mix /= np.bincount(comp)[:, None]
    out = np.zeros_like(row)
    out[succ] = row[succ] - (mix @ row)[comp[rows]]
    return out


def overlap_components(rows, succ, n, d) -> np.ndarray:
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


def integrands_equivalent(sys, k: int, row1, row2, state: int | None = None,
                          tol: float = 1e-9) -> bool:
    """True iff the two rows produce the same product with every realizable
    one-step increment (from ``state``, or from all sources at time k).
    A non-finite difference is never equivalent."""
    d = np.asarray(row1, dtype=float) - np.asarray(row2, dtype=float)
    if state is not None:
        z = _source_integrand(sys, state, d)
    else:
        _check_time(sys, k)
        z = step(sys, k, d)[1]
    return bool(np.all(np.abs(z) <= tol))


# One cell's control drivers, as control once exported them: the driver of
# every control at a scalar value and an ambient integrand row.


def max_driver(problem, sys, k, state, y, z_row):
    """Largest driver value over the grid with its lowest attaining index.

    Returns (best_value, best_index, all_values).
    """
    _require_fit(sys, (problem.n_controls,), alpha=problem.alpha, g=problem.g,
                 beta=problem.beta)
    # P z on the source's block: the projector is the identity there, zero
    # on the padding and at a source without successors
    i, real = source_index(sys, state), sys.plan.real[state]
    pz = np.where(np.concatenate(([real.any()], real)),
                  np.asarray(z_row, dtype=float)[sys.block[i]], 0.0)
    vals = (
        problem.alpha[k, state] * y
        + sys.block_rows(problem.beta, k, state) @ pz
        + problem.g[k, state]
    )
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx, vals


def hamiltonian(problem, sys, k, state, y, z_row, u) -> float:
    """Driver value of one control at the given scalar value and integrand."""
    return float(max_driver(problem, sys, k, state, y, z_row)[2][u])


def control_index(policy, k: int, state: int) -> int:
    """The control a PolicyTable assigns at (k, state); KeyError where it
    assigns none."""
    u = int(policy.choices[k, state])
    if u < 0:
        raise KeyError(f"no control assigned at time {k}, state {state}")
    return u


# The weights along one given path, as duality once exported them.


def path_slots(sys, paths):
    """Slot of each step of a (P, L) array of lattice paths: the real slot
    whose successor is the next state; a step that is none of them gets a
    slot that duality._walk rejects."""
    cur = paths[:, :-1]
    match = (sys.succ[cur] == paths[:, 1:, None]) & sys.plan.real[cur]
    return match.argmax(axis=-1)


def evolve_weights(sys, sde, path) -> np.ndarray:
    """Weights V along one realizable lattice path.

    ``path[j]`` is the flat state at time start_time + j; the result has the
    same length with V[0] = 1.  Raises ValueError on a transition the
    lattice assigns zero probability.
    """
    _check_tables(sys, sde)
    path = np.array([[int(p) for p in path]], dtype=np.int64)
    v, _ = _walk(sys, sde, sde.start_time, path, path_slots(sys, path))
    return v[0]


# The SVD pseudoinverse and its Penrose-identity residuals, once linalg's.


def pinv(q, rank_tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below rank_tol times the largest are treated as zero.
    Input must be finite; output satisfies the four Penrose identities to
    within 1e-9 * (1 + ||q||) in Frobenius norm (see penrose_residuals).
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("pinv requires finite entries")
    return np.linalg.pinv(q, rcond=rank_tol)


def penrose_residuals(q, qp) -> dict:
    """Frobenius residuals of the four Penrose identities for (q, qp)."""
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    qqp = q @ qp
    qpq = qp @ q
    return {
        "reproduce": float(np.linalg.norm(qqp @ q - q)),
        "weak_inverse": float(np.linalg.norm(qpq @ qp - qp)),
        "left_symmetric": float(np.linalg.norm(qqp.T - qqp)),
        "right_symmetric": float(np.linalg.norm(qpq.T - qpq)),
    }


# The chain's one-step matrices, its innovation and one simulated path, as
# chain once exported them.


def from_start_state(n_states, horizon, pi, jump, start) -> SemiMarkovModel:
    """A SemiMarkovModel started in the one state ``start``."""
    x0 = np.zeros(n_states)
    x0[start] = 1.0
    return SemiMarkovModel(n_states, horizon, pi, jump, x0)


def transition_matrix(model, duration: int, sq=None) -> np.ndarray:
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


def martingale_increment(model, state: int, duration: int, next_state: int,
                         sq=None) -> np.ndarray:
    """Innovation e_next - A(duration) e_state of one observed transition.

    Conditionally on (state, duration) the increment has mean zero, which is
    what makes the chain indicator process a martingale after compensation.
    """
    a = transition_matrix(model, duration, sq)
    out = -a[:, state]
    out[next_state] += 1.0
    return out


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


def simulate(model, horizon: int | None = None, *, seed=None) -> ChainPath:
    """The single path of ``simulate_paths``, reproducible from a seed (or
    drawn from a Generator passed as ``seed``)."""
    states, durations = simulate_paths(model, 1, horizon, seed=seed)
    return ChainPath(states[0], durations[0], np.flatnonzero(durations[0] == 1))
