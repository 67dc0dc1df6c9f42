"""Seeded benchmark inputs and an independent forward oracle for them.

The oracle walks the (state, duration) lattice forward from the model's own
sojourn tables, without calling the lattice module.  It gives the exact
counts the benchmark records (reachable cells, sources, lattice paths) and
the occupancy law at the horizon that simulated paths are checked against.
Sparse models are drawn by rejection until their source count falls in a
band, so every seed yields the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from smcbsde import bsde, chain, instances


@dataclass(frozen=True)
class Oracle:
    """Forward reachability of one model over its horizon.

    succ[s]         : (successor flat indices, probabilities) of a source
    reachable[k]    : sorted flat states reachable at time k
    dist_t          : occupancy law at the horizon, (D,)
    paths_from[k][s]: number of lattice paths from (k, s) to the horizon
    """

    dim: int
    horizon: int
    succ: dict
    reachable: tuple
    dist_t: np.ndarray
    paths_from: tuple

    @property
    def sources(self) -> int:
        return len(set().union(*map(set, self.reachable[:-1])))

    @property
    def cells(self) -> int:
        """Reachable (time, state) cells a backward solve visits."""
        return sum(len(r) for r in self.reachable[:-1])

    def paths(self, start_time: int) -> int:
        """Paths an exhaustive walk from every state reachable at start_time
        enumerates."""
        return sum(self.paths_from[start_time].values())

    def min_prob(self) -> float:
        return min(float(prob.min()) for _, prob in self.succ.values()
                   if prob.size)


def forward_oracle(model) -> Oracle:
    sq = chain.sojourn_quantities(model)
    n, t = model.n_states, model.horizon
    succ = {}
    for m in range(1, t + 2):
        for i in range(n):
            if not sq.attainable[i, m - 1]:
                continue
            h = float(sq.hazard[i, m - 1])
            out = [
                (j, float(model.jump[i, m - 1, j]) * h)
                for j in range(n)
                if model.jump[i, m - 1, j] * h > 0.0
            ]
            if m <= t and 1.0 - h > 0.0:
                out.append((m * n + i, 1.0 - h))
            succ[(m - 1) * n + i] = (
                np.array([j for j, _ in out], dtype=np.int64),
                np.array([p for _, p in out]),
            )
    dist = {i: float(p) for i, p in enumerate(model.x0) if p > 0.0}
    reachable = [tuple(sorted(dist))]
    for _ in range(t):
        nxt = {}
        for s, p in dist.items():
            if s in succ:
                for j, q in zip(*succ[s]):
                    nxt[int(j)] = nxt.get(int(j), 0.0) + p * float(q)
        dist = nxt
        reachable.append(tuple(sorted(dist)))
    dist_t = np.zeros((t + 1) * n)
    for s, p in dist.items():
        dist_t[s] = p
    paths_from = [None] * (t + 1)
    paths_from[t] = {s: 1 for s in reachable[t]}
    for k in range(t - 1, -1, -1):
        later = paths_from[k + 1]
        paths_from[k] = {
            s: sum(later[int(j)] for j in succ[s][0]) if s in succ else 0
            for s in reachable[k]
        }
    return Oracle((t + 1) * n, t, succ, tuple(reachable), dist_t,
                  tuple(paths_from))


def geometric_model(rng, n, t, one_hot=True):
    """Constant hazard per state with the tail lumped at duration T+1, so
    every duration up to T is attainable (dense reachability)."""
    hz = rng.uniform(0.25, 0.45, n)
    m = np.arange(t + 1)
    pi = hz[:, None] * (1.0 - hz[:, None]) ** m[None, :]
    pi[:, t] = (1.0 - hz) ** t
    jump = rng.uniform(0.5, 1.5, (n, t + 1, n))
    jump[np.arange(n), :, np.arange(n)] = 0.0
    jump /= jump.sum(axis=2, keepdims=True)
    if one_hot:
        x0 = np.zeros(n)
        x0[int(rng.integers(n))] = 1.0
    else:
        x0 = np.full(n, 1.0 / n)
    return chain.SemiMarkovModel(n, t, pi, jump, x0)


def sparse_model(rng, n, t, lo, hi, size=lambda o: o.sources, tries=5000):
    """random_model draw whose oracle ``size`` lies in [lo, hi]."""
    for _ in range(tries):
        model = instances.random_model(rng, n=n, t=t, one_hot_start=True)
        oracle = forward_oracle(model)
        if lo <= size(oracle) <= hi:
            return model, oracle
    raise RuntimeError(f"no {n}x{t} model with size in [{lo}, {hi}]")


def small_linear_driver(rng, oracle, alpha_scale=0.05, beta_scale=0.02):
    """Dense-beta linear driver with weights kept near one.

    Row norms are a small multiple of the smallest successor probability, so
    the Monte Carlo weights stay bounded and their batch means are close to
    normal, which is what the standard-error gate assumes.
    """
    t, d = oracle.horizon, oracle.dim
    alpha = rng.uniform(-alpha_scale, alpha_scale, (t, d))
    g = rng.uniform(-1.0, 1.0, (t, d))
    beta = rng.standard_normal((t, d, d))
    beta *= beta_scale * oracle.min_prob() / np.linalg.norm(
        beta, axis=2, keepdims=True
    )
    terminal = rng.uniform(-1.0, 1.0, d)
    return bsde.LinearDriver(alpha, g, beta), terminal
