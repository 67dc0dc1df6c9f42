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
one cell at a time, the oracle of ``bsde._verified_roots``.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from smcbsde import (
    LinearDriver,
    UnreachableStateError,
    VanishingDenominatorError,
)
from smcbsde.bsde import (_BRACKET_FACTOR, _MONOTONE_SAMPLES, ROOT_TOL,
                          BijectionError, _ambient_rows, _brent, _linear_terms)
from smcbsde.control import _ALPHA_GUARD
from smcbsde.duality import DENOMINATOR_TOL, Convention, _check_tables
from smcbsde.lattice import _blocks


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


def geometry_for(sys, state: int) -> StateGeometry:
    """One source's view of the geometry of ``block_geometry``."""
    i = int(np.searchsorted(sys.sources, state))
    if i == sys.sources.size or sys.sources[i] != state:
        raise UnreachableStateError(
            f"lattice state {sys.label(state)} is never a transition source"
        )
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
        mean, z = sys.step(k, values[k + 1])
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
            mean, z = sys.step(k, values[k + 1])
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
