"""Pseudoinverse correctness and the two structural inequality checks."""

import numpy as np
import pytest

from smcbsde import (
    build_lattice,
    comparison_condition,
    penrose_residuals,
    pinv,
    positivity_condition,
    projection_constants,
)
from smcbsde.instances import random_model

from conftest import tiny_model
from dense import geometry_for, transition


def random_psd_rank_deficient(rng, max_size=20):
    size = int(rng.integers(2, max_size + 1))
    rank = int(rng.integers(1, size))
    root = rng.standard_normal((size, rank))
    return root @ root.T


def test_pinv_diagonal_case():
    q = np.diag([3.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(pinv(q), np.diag([1 / 3, 1.0, 0.0, 0.0]),
                               atol=1e-14)


def test_pinv_known_spectral_form():
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    vals = np.array([4.0, 2.0, 0.5, 0.0, 0.0])
    q = basis @ np.diag(vals) @ basis.T
    inv_vals = np.array([0.25, 0.5, 2.0, 0.0, 0.0])
    expected = basis @ np.diag(inv_vals) @ basis.T
    np.testing.assert_allclose(pinv(q), expected, atol=1e-12)


def test_pinv_rejects_non_finite():
    with pytest.raises(ValueError):
        pinv(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_penrose_axioms_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = random_psd_rank_deficient(rng)
        res = penrose_residuals(q, pinv(q))
        bound = 1e-9 * (1.0 + np.linalg.norm(q))
        assert set(res) == {
            "reproduce",
            "weak_inverse",
            "left_symmetric",
            "right_symmetric",
        }
        assert max(res.values()) <= bound


def test_penrose_residuals_detect_wrong_inverse():
    q = np.diag([2.0, 1.0])
    res = penrose_residuals(q, np.diag([1.0, 1.0]))
    assert res["reproduce"] > 0.5


def test_pinv_of_lattice_brackets_and_covariances():
    rng = np.random.default_rng(14)
    for _ in range(8):
        sys_ = build_lattice(random_model(rng, n_max=4, t_max=5))
        for s in sorted(sys_.sources):
            geo = geometry_for(sys_, int(s))
            for q, qp in ((geo.bracket, geo.bracket_pinv),
                          (geo.covariance, pinv(geo.covariance))):
                res = penrose_residuals(q, qp)
                assert max(res.values()) <= 1e-9 * (1.0 + np.linalg.norm(q))


def test_positivity_condition_frozen_tiny():
    sys_ = build_lattice(tiny_model())
    geo = geometry_for(sys_, 0)
    scale = (
        np.sqrt(2.0)
        * np.linalg.norm(geo.bracket)
        * np.linalg.norm(geo.bracket_pinv) ** 2
    )
    report = positivity_condition(sys_, 1.0)
    assert report.name == "positivity"
    assert report.lhs.shape == (1,)
    assert report.lhs[0] == pytest.approx(scale, rel=1e-12)
    # linear in the coefficient bound; passes exactly up to 1/scale
    report_half = positivity_condition(sys_, 0.5)
    assert report_half.lhs[0] == pytest.approx(scale / 2, rel=1e-12)
    assert positivity_condition(sys_, 0.999 / scale).passed
    assert not positivity_condition(sys_, 1.001 / scale).passed


def test_comparison_condition_frozen_tiny():
    sys_ = build_lattice(tiny_model())
    geo = geometry_for(sys_, 0)
    c = transition(sys_)
    base = (
        6.0
        * np.sqrt(np.trace(c.T @ c))
        * np.trace(geo.bracket_pinv.T @ geo.bracket_pinv)
    )
    report = comparison_condition(sys_, 1.0)
    assert report.name == "comparison"
    assert report.lhs[0] == pytest.approx(base, rel=1e-12)
    # quadratic in omega2, and the inequality is strict: just above the
    # critical coefficient fails, just below passes
    report2 = comparison_condition(sys_, 2.0)
    assert report2.lhs[0] == pytest.approx(4.0 * base, rel=1e-12)
    critical = np.sqrt(1.0 / base)
    assert not comparison_condition(sys_, critical * (1 + 1e-8)).passed
    assert comparison_condition(sys_, critical * (1 - 1e-8)).passed
    assert comparison_condition(sys_, 0.999 * np.sqrt(1.0 / base)).passed


def test_condition_report_worst_margin():
    sys_ = build_lattice(tiny_model())
    report = positivity_condition(sys_, 1e-6)
    assert report.passed
    assert report.worst() == pytest.approx(float(1.0 - report.lhs.max()))


def test_conditions_cover_only_transition_times():
    rng = np.random.default_rng(23)
    sys_ = build_lattice(random_model(rng, n_max=3, t_max=6))
    report = positivity_condition(sys_, 0.1)
    assert report.lhs.shape == (sys_.horizon,)
    report = comparison_condition(sys_, 0.1)
    assert report.lhs.shape == (sys_.horizon,)


def test_positivity_threshold_implies_bounded_noise_terms():
    # Within the passing regime every per-step noise adjustment
    # beta . pinv(bracket) . increment stays in (-1, 1), the fact the
    # weight sign argument rests on.
    rng = np.random.default_rng(77)
    for _ in range(10):
        sys_ = build_lattice(random_model(rng, n_max=3, t_max=4))
        lhs = positivity_condition(sys_, 1.0).lhs.max()
        l_bound = 0.95 / lhs
        assert positivity_condition(sys_, l_bound).passed
        for s in sorted(sys_.sources):
            geo = geometry_for(sys_, int(s))
            for _ in range(5):
                row = rng.standard_normal(sys_.dim)
                row *= l_bound / np.linalg.norm(row)
                adj = row @ geo.bracket_pinv
                for j in geo.support:
                    j = int(j)
                    inc = -geo.column.copy()
                    inc[j] += 1.0
                    assert abs(float(adj @ inc)) < 1.0


def test_projection_constants_monotone_under_scaling():
    # Projection constants depend only on the geometry, not any driver.
    sys_ = build_lattice(tiny_model())
    pc1 = projection_constants(sys_)
    pc2 = projection_constants(sys_)
    assert pc1.overall == pc2.overall
