"""The verified scalar root of the general-driver step, against the
scipy-based root it replaced.

``scipy_verified_root`` is that root as it was: a sign check on the bracket
ends, 32 ``np.linspace`` samples for the monotonicity sweep, then
``scipy.optimize.brentq`` from the two ends, so each end was evaluated three
times.  The per-cell root that followed it (``dense._verified_root``)
reuses the two end values and refines by the package's port of brentq.c,
and the package's slice routine (``bsde._verified_roots``) checks a whole
time slice's samples as arrays before that refinement; each must return
the same float, bit for bit.
"""

import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import smcbsde
from smcbsde import BijectionError, GeneralDriver, build_lattice, solve_bsde
from smcbsde import bsde
from smcbsde.bsde import ROOT_TOL, _verified_roots

from conftest import geometric_model, tiny_model
from dense import _verified_root


def scipy_verified_root(phi, center, context=""):
    radius = (1.0 + abs(center)) * 1e3
    lo, hi = center - radius, center + radius
    flo, fhi = phi(lo), phi(hi)
    if not (flo < 0.0 < fhi):
        raise BijectionError(f"no sign change for y - f on [{lo}, {hi}]{context}")
    ys = np.linspace(lo, hi, 32)
    vals = np.array([phi(y) for y in ys])
    if np.any(np.diff(vals) < -ROOT_TOL * (1.0 + np.abs(vals[:-1]))):
        raise BijectionError(f"y - f is not monotone on the bracket{context}")
    root = brentq(phi, lo, hi, xtol=ROOT_TOL, rtol=8.881784197001252e-16)
    return float(root)


def _outcome(root, phi, center):
    try:
        return root(phi, center)
    except BijectionError:
        return BijectionError


def _scale():
    return st.builds(lambda m, e: m * 10.0 ** e,
                     st.floats(-1.0, 1.0, allow_nan=False), st.integers(-4, 4))


# y - f for an affine, a tanh and a cubic driver; slopes above one in the
# driver, or below zero in the map, draw brackets without a sign change and
# maps that are not monotone, which both roots must refuse alike.  The
# tanh map scaled to values near 1e-300 makes the extrapolation's
# denominator underflow to zero, which C divides to inf or NaN
MAPS = {
    "affine": lambda a, b, c: lambda y: y - (a * y + b) - c,
    "tanh": lambda a, b, c: lambda y: y - 2.0 * a * math.tanh(b * y + c) - c,
    "cubic": lambda a, b, c: lambda y: (y - b) ** 3 * abs(a) + (y - b) * a - c,
    "tiny": lambda a, b, c: lambda y: 1e-300 * (y - a * math.tanh(b * y) - c),
}


# maps of the affine, tanh and cubic kinds as drivers F: the slice routine
# reads y - F(y) - center at a cell of the given centre.  The tiny map has
# no such form, as y - F(y) cannot resolve values near 1e-300
DRIVERS = {
    "affine": lambda a, b, c: lambda y: a * y + b + c,
    "tanh": lambda a, b, c: lambda y: 2.0 * a * math.tanh(b * y + c),
    "cubic": lambda a, b, c: lambda y: y - (y - b) ** 3 * abs(a) - (y - b) * a,
}


def _slice_outcome(fns, centers):
    try:
        return _verified_roots(
            np.array(centers),
            lambda calls: np.array([fns[j](y) for j, ys in
                                    enumerate(calls.tolist()) for y in ys]),
            lambda j, y: fns[j](y), 0, range(len(fns)))
    except BijectionError:
        return BijectionError


def _same(got, want):
    if want is BijectionError:
        assert got is BijectionError
    else:
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(sorted(MAPS)), a=_scale(), b=_scale(),
       c=_scale(), center=_scale())
def test_verified_root_matches_scipy_brentq_bit_for_bit(kind, a, b, c, center):
    phi = MAPS[kind](a, b, c)
    _same(_outcome(_verified_root, phi, center),
          _outcome(scipy_verified_root, phi, center))
    if kind not in DRIVERS:
        return
    # the slice routine, on a one-cell slice, and on a slice of five cells
    # whose drivers and centres differ: its roots where every cell has one,
    # else a BijectionError
    fns, centers = [], []
    for j, scale in enumerate((1.0, -0.5, 2.0, 1e-3, -3.0)):
        fns.append(DRIVERS[kind](a * scale, b + j, c * scale))
        centers.append(center * scale + j)
    want = [_outcome(scipy_verified_root,
                     lambda y, f=f, m=m: y - f(y) - m, m)
            for f, m in zip(fns, centers)]
    for n in (1, len(fns)):
        got = _slice_outcome(fns[:n], centers[:n])
        if BijectionError in want[:n]:
            assert got is BijectionError
        else:
            assert len(got) == n
            for g, w in zip(got, want):
                _same(g, w)


def test_each_bracket_end_is_evaluated_once_per_cell():
    sys_ = build_lattice(geometric_model((0.3, 0.6), 4))
    calls = defaultdict(list)

    def fn(k, s, y, z):
        calls[k, s].append(y)
        return 0.5 * math.tanh(y) + float(z.sum())

    terminal = np.linspace(-1.0, 1.0, sys_.dim)
    solve_bsde(sys_, GeneralDriver(fn), terminal)
    assert len(calls) == int(sys_.reachable[:-1].sum())
    for ys in calls.values():
        # every sample and iterate lies in the bracket [lo, hi]
        lo, hi = min(ys), max(ys)
        assert ys.count(lo) == 1 and ys.count(hi) == 1
        # the two ends, then the sweep's inner samples, as np.linspace has them
        assert ys[:32] == [lo, hi, *np.linspace(lo, hi, 32)[1:-1].tolist()]


def test_a_nan_sample_names_the_cell():
    # y - f is NaN on (400, 600), which holds samples but neither bracket
    # end nor the root: the sweep read it as monotone before
    sys_ = build_lattice(tiny_model())
    driver = GeneralDriver(lambda k, s, y, z: math.nan if 400 < y < 600 else 0.0)
    s = int(sys_.reachable_at[0][0])
    with pytest.raises(BijectionError,
                       match=rf"y - f is NaN at y = \S+ at time 0, state {s}$"):
        solve_bsde(sys_, driver, np.ones(sys_.dim))


def test_a_nan_iterate_names_the_cell():
    # NaN only near the root y = 1, between two samples: the refinement
    # meets it (scipy raised a bare ValueError there)
    sys_ = build_lattice(tiny_model())
    driver = GeneralDriver(lambda k, s, y, z: math.nan if abs(y - 1.0) < 0.5
                           else 0.0)
    s = int(sys_.reachable_at[0][0])
    with pytest.raises(BijectionError,
                       match=rf"y - f is NaN at y = \S+ at time 0, state {s}$"):
        solve_bsde(sys_, driver, np.ones(sys_.dim))


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_refinement_takes_brentq_steps_and_stops_at_its_cap(monkeypatch, kind):
    # the same number of steps as brentq: under a cap of n steps each
    # converges, or each gives up
    phi = MAPS[kind](0.3, 0.7, 0.2)
    radius = (1.0 + 0.2) * 1e3  # the bracket of _verified_root(phi, 0.2)
    lo, hi = 0.2 - radius, 0.2 + radius
    for cap in range(1, 40):
        monkeypatch.setattr(bsde, "_BRENT_STEPS", cap)
        try:
            want = brentq(phi, lo, hi, xtol=ROOT_TOL,
                          rtol=8.881784197001252e-16, maxiter=cap)
        except RuntimeError:
            with pytest.raises(BijectionError,
                               match=f"did not converge in {cap} steps"):
                _verified_root(phi, 0.2)
            continue
        assert _verified_root(phi, 0.2) == want
        assert cap > 1  # the cap was met at least once
        return
    pytest.fail("brentq took 40 steps")


SCRIPT = """
import sys
import numpy as np
import smcbsde, smcbsde.cli, smcbsde.files, smcbsde.instances
from smcbsde import GeneralDriver, build_lattice, solve_bsde, solve_control
from smcbsde.instances import random_control_problem, random_model

rng = np.random.default_rng(3)
sys_ = build_lattice(random_model(rng, n_max=3, t_max=4, n=3, t=4))
sol = solve_bsde(sys_, GeneralDriver(lambda k, s, y, z: 0.5 * np.tanh(y)),
                 rng.standard_normal(sys_.dim))
assert np.isfinite(sol.values[sys_.reachable]).all()
solve_control(random_control_problem(sys_, rng), sys_)
# the property suite, its bracket inverses included, on numpy alone
assert all(row[3] for row in smcbsde.cli._suite_rows(0))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_importing_and_solving_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    src = str(Path(smcbsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
