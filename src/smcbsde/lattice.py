"""Sojourn-augmented lattice that makes the semi-Markov chain Markov.

The augmented state is the pair (state, duration) embedded as a unit vector
in dimension D = (T+1) * N, flat index (duration-1)*N + state.  One global
D x D matrix drives every step: block row 1 collects the jump laws per
duration (jumps always reset the duration to 1), the subdiagonal blocks
carry the survivor mass one duration deeper.  States with duration T+1 have
no in-horizon continuation, so only columns of states that can actually be
stepped from are column-stochastic.

For each source state the one-step noise (the innovation martingale
increment) carries two matrices:

- ``covariance_matrix``: the exact conditional covariance
  diag(c) - c c', c the successor law.  This is positive semidefinite and
  backs the integrand seminorm.
- ``bracket_matrix``: diag(c) - e c' - c e', a quadratic-variation style
  bracket.  It agrees with the covariance on integrands supported on the
  successor set with c-weighted mean zero, but is indefinite whenever the
  step is random, because it couples the source coordinate to successors.

Both are exposed because formulas downstream are indexed against the
bracket (through its pseudoinverse) while norms need the covariance.  Both
vanish outside the block (source, *successors) of at most N+1 indices, so
only blocks are stored; D x D views are built on request (StateGeometry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .chain import SemiMarkovModel, SojournQuantities, sojourn_quantities
from .linalg import pinv

__all__ = [
    "LatticeSystem",
    "ProjectionConstants",
    "StateGeometry",
    "UnreachableStateError",
    "bracket_matrix",
    "build_lattice",
    "canonical_integrand",
    "covariance_matrix",
    "integrands_equivalent",
    "noise_seminorm",
    "projection_constants",
    "step_distribution",
]

_EIG_TOL = 1e-10


class UnreachableStateError(KeyError):
    """The requested lattice state is never occupied as a transition source."""


@dataclass(frozen=True)
class StateGeometry:
    """Per-source-state noise data, cached on the lattice system.

    Stored on the block (state, *support), outside which the noise vanishes;
    ``covariance``, ``bracket``, ``bracket_pinv`` and ``projector`` are the
    D x D views, built on request for export and inspection only.  Solvers
    need no more than the block: the projector acts as the identity on the
    canonical integrand of any source whose successor law has positive mass.

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

    # split and project run in every backward step; indexing through .T
    # serves (D,) and (B, D) alike and is cheaper than Ellipsis indexing
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


@dataclass(frozen=True)
class LatticeSystem:
    """Lattice embedding of a semi-Markov model over its full horizon."""

    model: SemiMarkovModel
    sojourn: SojournQuantities
    dim: int
    transition: np.ndarray
    reachable_at: tuple
    dist_at: np.ndarray
    sources: np.ndarray
    geometry: dict

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

    def geometry_for(self, state: int) -> StateGeometry:
        try:
            return self.geometry[state]
        except KeyError:
            raise UnreachableStateError(
                f"lattice state {self.label(state)} is never a transition source"
            ) from None


def build_lattice(model: SemiMarkovModel) -> LatticeSystem:
    """Assemble the lattice transition matrix and reachability tables.

    Raises InvalidModelError (via sojourn_quantities) on inconsistent sojourn
    data and ValueError if the reachable set dies before the horizon.
    """
    sq = sojourn_quantities(model)
    n, t = model.n_states, model.horizon
    dim = (t + 1) * n
    c = np.zeros((dim, dim))
    hz = sq.hazard
    for m in range(1, t + 2):
        for i in range(n):
            if not sq.attainable[i, m - 1]:
                continue
            h = hz[i, m - 1]
            c[:n, (m - 1) * n + i] = model.jump[i, m - 1] * h
            if m <= t:
                c[m * n + i, (m - 1) * n + i] = 1.0 - h
    support = c > 0.0

    reachable = []
    dist = np.zeros((t + 1, dim))
    dist[0, :n] = model.x0
    alive = dist[0] > 0.0
    reachable.append(np.flatnonzero(alive))
    for k in range(t):
        if reachable[-1].size == 0:
            raise ValueError(f"reachable set is empty at time {k}")
        dist[k + 1] = c @ dist[k]
        alive = support[:, alive].any(axis=1)
        reachable.append(np.flatnonzero(alive))
    if reachable[-1].size == 0:
        raise ValueError(f"reachable set is empty at time {t}")

    sources = np.unique(np.concatenate(reachable[:t])) if t else np.array([], int)
    geometry = {}
    for s in sources:
        s = int(s)
        col = c[:, s].copy()
        sup = np.flatnonzero(col)
        block = np.concatenate(([s], sup[sup != s]))
        cb = col[block]
        e = np.eye(block.size)[0]
        br = np.diag(cb) - np.outer(e, cb) - np.outer(cb, e)
        bp = pinv(br)
        proj = bp @ br
        w = np.linalg.eigvalsh(br)
        scale = max(abs(w[0]), abs(w[-1]), 1.0)
        psd = bool(w[0] >= -_EIG_TOL * scale)
        for arr in (col, sup, block, br, bp, proj):
            arr.flags.writeable = False
        geometry[s] = StateGeometry(s, col, sup, block, br, bp, proj, psd)
    c.flags.writeable = False
    dist.flags.writeable = False
    for r in reachable:
        r.flags.writeable = False
    return LatticeSystem(
        model, sq, dim, c, tuple(reachable), dist, sources, geometry
    )


def step_distribution(sys: LatticeSystem, state: int) -> np.ndarray:
    """Successor law of one lattice state (a column of the transition matrix)."""
    return sys.geometry_for(state).column


def covariance_matrix(sys: LatticeSystem, state: int) -> np.ndarray:
    return sys.geometry_for(state).covariance


def bracket_matrix(sys: LatticeSystem, state: int) -> np.ndarray:
    return sys.geometry_for(state).bracket


def _check_time(sys, k):
    if not 0 <= k < sys.horizon:
        raise ValueError(f"integrand time {k} outside 0..{sys.horizon - 1}")


def _sources_at(sys, k):
    _check_time(sys, k)
    return [int(s) for s in sys.reachable_at[k]]


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
        row = rows[u]
        for s in _sources_at(sys, u):
            p = sys.dist_at[u, s]
            if p <= 0.0:
                continue
            g = sys.geometry_for(s)
            # variance form of row' cov row: immune to the cancellation that
            # row @ cov @ row suffers on (near-)constant rows
            _, z = g.split(row)
            total += p * float(g.column @ (z * z))
    return float(np.sqrt(max(total, 0.0)))


def _support_components(sys, states):
    """Group sources whose successor supports overlap (union-find)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner = {}
    groups = {}
    for s in states:
        parent[s] = s
        for j in sys.geometry_for(s).support:
            j = int(j)
            if j in owner:
                ra, rb = find(owner[j]), find(s)
                if ra != rb:
                    parent[rb] = ra
            else:
                owner[j] = s
    for s in states:
        groups.setdefault(find(s), []).append(s)
    return list(groups.values())


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
        return sys.geometry_for(state).split(row)[1]
    row = np.asarray(row, dtype=float)
    out = np.zeros_like(row)
    comps = _support_components(sys, _sources_at(sys, k))
    for comp in comps:
        mix = np.zeros(sys.dim)
        for s in comp:
            mix += sys.geometry_for(s).column
        mix /= len(comp)
        sup = np.flatnonzero(mix)
        shift = float(mix @ row)
        out[sup] = row[sup] - shift
    return out


def integrands_equivalent(
    sys: LatticeSystem, k: int, row1, row2, state: int | None = None,
    tol: float = 1e-9,
) -> bool:
    """True iff the two rows produce the same product with every realizable
    one-step increment (from ``state``, or from all sources at time k).
    A non-finite difference is never equivalent."""
    d = np.asarray(row1, dtype=float) - np.asarray(row2, dtype=float)
    states = [state] if state is not None else _sources_at(sys, k)
    return all(
        np.all(np.abs(sys.geometry_for(s).split(d)[1]) <= tol) for s in states
    )


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
    per_state = {}
    fallbacks = 0
    psd_states = 0
    for s, g in sys.geometry.items():
        if g.bracket_psd:
            psd_states += 1
        else:
            fallbacks += 1
        sup = g.support
        if len(sup) <= 1:
            per_state[s] = 0.0
            continue
        c = g.column[sup]
        # orthonormal basis of {v : c @ v = 0}; the seminorm there is the
        # c-weighted Euclidean form, so the sharp constant is the smallest
        # eigenvalue of the weighted Gram matrix
        basis = null_space(c[None, :])
        gram = basis.T @ (c[:, None] * basis)
        w = np.linalg.eigvalsh(gram)
        per_state[s] = float(1.0 / np.sqrt(w[0])) if w[0] > _EIG_TOL else 0.0
    per_time = np.zeros(sys.horizon)
    for k in range(sys.horizon):
        vals = [per_state[int(s)] for s in sys.reachable_at[k]]
        per_time[k] = max(vals) if vals else 0.0
    overall = float(per_time.max()) if per_time.size else 0.0
    per_time.flags.writeable = False
    return ProjectionConstants(per_time, overall, fallbacks, psd_states)
