"""Pseudoinverse contract and the two scalar hypothesis inequalities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConditionReport",
    "comparison_condition",
    "penrose_residuals",
    "pinv",
    "positivity_condition",
]

DEFAULT_RANK_TOL = 1e-12


def pinv(q, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
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


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a per-time scalar hypothesis inequality.

    margins[k] > 0 means the inequality holds strictly at time k; the
    report carries the left-hand sides so callers can show their work.
    """

    name: str
    passed: bool
    margins: np.ndarray
    lhs: np.ndarray

    def worst(self) -> float:
        return float(self.margins.min()) if self.margins.size else 1.0


def _per_time_max(sys, per_source):
    """Max of a nonnegative per-source quantity (S,) over the sources
    reachable at each time 0..T-1 (0 where there are none)."""
    per_state = np.zeros(sys.dim)
    per_state[sys.sources] = per_source
    mask = sys.reachable[: sys.horizon]
    return np.where(mask, per_state, 0.0).max(axis=1, initial=0.0)


def _bracket_norms(sys):
    """Frobenius norms ||B||_F and squared ||B+||_F^2 (S,) of each source's
    bracket, in closed form from its successor law c over its m real slots,
    sigma = sum c.  B holds c on the diagonal and -c in row and column 0,
    so ||B||_F^2 = 3 sum c^2; B+ = B^-1 holds -1/sigma in row and column 0
    and diag(1/c) - 1 1'/sigma below them, so ||B+||_F^2 = (1 + 2m +
    m(m-1)) / sigma^2 + sum (1/c_j - 1/sigma)^2.  Both vanish at a source
    without successors (build_lattice admits one), read as sigma = inf."""
    p, real = sys.prob[sys.sources], sys.plan.real[sys.sources]
    m = np.count_nonzero(real, axis=1)
    sigma = np.where(m > 0, p.sum(axis=1), np.inf)
    inv = np.divide(1.0, p, out=np.zeros_like(p), where=real)
    gap = np.where(real, inv - 1.0 / sigma[:, None], 0.0)
    return (np.sqrt(3.0 * (p * p).sum(axis=1)),
            (m * m + m + 1) / sigma**2 + (gap * gap).sum(axis=1))


def positivity_condition(sys, beta_bound: float) -> ConditionReport:
    """Sufficient condition for nonnegative dual weights.

    Per time k over reachable sources: sqrt(2) * l * ||B||_F * ||B+||_F^2
    <= 1, with B the state's bracket matrix, B+ its pseudoinverse (its
    inverse on the source's block, outside which both vanish) and l the
    declared bound on integrand coefficient rows.  Times are 0..T-1: the
    weight recursion only ever evaluates noise at transition sources.  Both
    norms are closed forms in the successor law (_bracket_norms).
    """
    bracket, pinv_sq = _bracket_norms(sys)
    vals = _per_time_max(sys, np.sqrt(2.0) * beta_bound * bracket * pinv_sq)
    margins = 1.0 - vals
    return ConditionReport("positivity", bool(np.all(vals <= 1.0)), margins, vals)


def comparison_condition(sys, omega2: float) -> ConditionReport:
    """Sufficient condition backing the comparison argument.

    Per time k over reachable sources:
    6 * omega2^2 * ||C||_F * ||B+||_F^2 < 1,
    with C the global lattice transition matrix (its Frobenius norm read off
    the successor probabilities) and B+ the per-state bracket pseudoinverse
    (its norm in closed form, _bracket_norms).  Strict inequality is
    required.
    """
    c_norm = float(np.linalg.norm(sys.prob))
    vals = _per_time_max(sys, 6.0 * omega2**2 * c_norm * _bracket_norms(sys)[1])
    margins = 1.0 - vals
    return ConditionReport("comparison", bool(np.all(vals < 1.0)), margins, vals)
