"""Shared model builders for the test-suite.

The geometric model (constant per-state leave probability, tail mass lumped
into the last duration) has closed-form hazards, which makes it the reference
case for hand-checked expectations.  The tiny two-state/one-step model is
small enough that every matrix in the pipeline fits in a frozen literal.
"""

import numpy as np

from smcbsde import SemiMarkovModel


def uniform_jump(n_states, n_durations):
    jump = np.zeros((n_states, n_durations, n_states))
    for i in range(n_states):
        others = [j for j in range(n_states) if j != i]
        jump[i, :, others] = 1.0 / len(others)
    return jump


def geometric_model(deltas, horizon, jump=None, x0=None):
    """Constant-hazard sojourns: pi_i(m) = d_i (1-d_i)^(m-1), tail lumped.

    The lump at duration T+1 makes each law sum to one exactly, so the
    hazard equals d_i for m <= T and one at the final duration.
    """
    deltas = np.asarray(deltas, dtype=float)
    n = deltas.size
    dur = horizon + 1
    m = np.arange(1, dur + 1)
    pi = deltas[:, None] * (1.0 - deltas[:, None]) ** (m[None, :] - 1)
    pi[:, -1] = (1.0 - deltas) ** horizon
    if jump is None:
        jump = uniform_jump(n, dur)
    if x0 is None:
        x0 = np.zeros(n)
        x0[0] = 1.0
    return SemiMarkovModel(n, horizon, pi, jump, x0)


def deterministic_model():
    """Every step has one outcome: a lattice of width W = 1."""
    pi = np.zeros((2, 5))
    pi[:, 0] = 1.0
    jump = np.zeros((2, 5, 2))
    jump[0, :, 1] = jump[1, :, 0] = 1.0
    return SemiMarkovModel(2, 4, pi, jump, [1.0, 0.0])


def dead_end_model():
    """State 1 leaves with certainty at duration 1 and has nowhere to go (a
    model validate_model rejects, which build_lattice accepts): its bracket,
    pseudoinverse and noise vanish."""
    t = 4
    pi = np.zeros((2, t + 1))
    pi[0] = 0.5 ** np.arange(1, t + 2)
    pi[0, -1] = 0.5**t
    pi[1, 0] = 1.0
    jump = np.zeros((2, t + 1, 2))
    jump[0, :, 1] = 1.0
    return SemiMarkovModel(2, t, pi, jump, [1.0, 0.0])


def tiny_model(x0=(1.0, 0.0)):
    """Two states, horizon 1: every derived matrix is hand-checkable."""
    pi = np.array([[0.4, 0.6], [0.5, 0.5]])
    return SemiMarkovModel(2, 1, pi, uniform_jump(2, 2), np.asarray(x0))


# Hand-derived for tiny_model: hazards are (0.4, 1.0) for state 0 and
# (0.5, 1.0) for state 1; flat order is (0,h1), (1,h1), (0,h2), (1,h2).
TINY_TRANSITION = np.array(
    [
        [0.0, 0.5, 0.0, 1.0],
        [0.4, 0.0, 1.0, 0.0],
        [0.6, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
    ]
)
