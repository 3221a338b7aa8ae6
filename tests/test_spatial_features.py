import math

import numpy as np
import pytest

from ssbl.fdcheck import central_diff_grad, max_rel_err
from ssbl.spatial_features import (FeaturePoint, delta_map, encode,
                       encode_vjp, encoding_vector, expected_coordinates,
                       gradient_check, presence, presence_loss_grad,
                       saev_losses, spatial_softmax)


def normalized_grid(rng, shape):
    return spatial_softmax(rng.normal(0.0, 2.0, shape))


# -- spatial softmax ------------------------------------------------------------


def test_softmax_uniform_for_equal_logits():
    probs = spatial_softmax(np.full((4, 5, 2), 3.7))
    np.testing.assert_allclose(probs, 1.0 / 20.0, atol=1e-15)


def test_softmax_channels_sum_to_one():
    rng = np.random.default_rng(0)
    probs = normalized_grid(rng, (16, 12, 5))
    np.testing.assert_allclose(probs.sum(axis=(0, 1)), 1.0, atol=1e-6)
    assert (probs >= 0.0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(0.0, 1.0, (8, 8, 3))
    shifted = logits + np.array([5.0, -3.0, 40.0])
    np.testing.assert_allclose(spatial_softmax(logits),
                               spatial_softmax(shifted), atol=1e-12)


def test_softmax_rejects_bad_shape():
    with pytest.raises(ValueError):
        spatial_softmax(np.zeros((4, 4)))


# -- expected coordinates ---------------------------------------------------------


def test_uniform_3x3_expectation_is_center():
    probs = spatial_softmax(np.zeros((3, 3, 1)))
    assert expected_coordinates(probs[:, :, 0]) == (1.0, 1.0)


def test_point_mass_expectation():
    p = np.zeros((3, 3))
    p[0, 2] = 1.0
    assert expected_coordinates(p) == (0.0, 2.0)


def test_expectation_matches_double_loop():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = normalized_grid(rng, (6, 9, 1))[:, :, 0]
        x, y = expected_coordinates(p)
        bx = sum(i * p[i, j] for i in range(6) for j in range(9))
        by = sum(j * p[i, j] for i in range(6) for j in range(9))
        assert abs(x - bx) < 1e-12
        assert abs(y - by) < 1e-12


# -- presence ---------------------------------------------------------------------


def test_point_mass_presence_is_one():
    p = np.zeros((5, 5))
    p[2, 3] = 1.0
    assert abs(presence(p, 2.0, 3.0, k=1.0) - 1.0) < 1e-15


def test_uniform_32x32_presence_is_small():
    p = np.full((32, 32), 1.0 / 1024.0)
    x, y = expected_coordinates(p)
    rho = presence(p, x, y, k=1.0)
    # direct summation oracle
    oracle = sum(p[i, j] * math.exp(-((i - x) ** 2 + (j - y) ** 2) / 2.0)
                 for i in range(32) for j in range(32))
    assert abs(rho - oracle) < 1e-12
    assert rho < 0.1


def test_presence_bounded():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = normalized_grid(rng, (8, 8, 1))[:, :, 0]
        x, y = expected_coordinates(p)
        rho = presence(p, x, y, k=1.0)
        assert 0.0 < rho <= 1.0


def test_localization_ordering():
    # equal means, different spread: tighter channel scores strictly higher
    gi, gj = np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij")
    def gaussian(s):
        g = np.exp(-((gi - 4.0) ** 2 + (gj - 4.0) ** 2) / (2.0 * s * s))
        return g / g.sum()
    tight, wide = gaussian(0.7), gaussian(2.5)
    xt, yt = expected_coordinates(tight)
    xw, yw = expected_coordinates(wide)
    assert abs(xt - xw) < 1e-9 and abs(yt - yw) < 1e-9
    assert presence(tight, xt, yt, 1.0) > presence(wide, xw, yw, 1.0)


# -- delta map --------------------------------------------------------------------


def test_delta_peak_equals_rho():
    pts = [FeaturePoint(2.0, 3.0, 0.8)]
    dmap = delta_map(pts, 8, 8)
    assert abs(dmap[2, 3, 0] - 0.8) < 1e-15


def test_delta_far_field_approaches_minus_one():
    pts = [FeaturePoint(0.0, 0.0, 0.5)]
    dmap = delta_map(pts, 16, 16)
    far = dmap[15, 15, 0]  # distance ~21 px: above -1 but within 1e-9 of it
    assert far > -1.0
    assert abs(far - (-1.0)) < 1e-8
    assert delta_map(pts, 60, 60)[59, 59, 0] >= -1.0


def test_delta_radially_non_increasing():
    pts = [FeaturePoint(5.0, 5.0, 0.9)]
    dmap = delta_map(pts, 11, 11)[:, :, 0]
    row = dmap[5, 5:]  # walking away from the peak along +y
    assert np.all(np.diff(row) <= 1e-15)


# -- losses -----------------------------------------------------------------------


def pts_at(t):
    return [FeaturePoint(1.0 + t, 2.0, 0.5), FeaturePoint(3.0, 1.0 + 2 * t, 0.9)]


def test_reconstruction_loss_zero_for_identity():
    grid = np.random.default_rng(4).normal(0.0, 1.0, (6, 6, 2))
    l_err, _, _ = saev_losses(grid, grid, pts_at(0), pts_at(1), pts_at(2))
    assert l_err == 0.0


def test_smoothness_zero_for_linear_encodings():
    _, _, l_smooth = saev_losses(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)),
                                 pts_at(0.0), pts_at(1.0), pts_at(2.0))
    assert l_smooth < 1e-12


def test_presence_loss_zero_when_fully_localized():
    pts = [FeaturePoint(1.0, 1.0, 1.0), FeaturePoint(2.0, 2.0, 1.0)]
    _, l_pre, _ = saev_losses(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)),
                              pts, pts, pts)
    assert l_pre == 0.0


def test_loss_shape_mismatch_raises():
    with pytest.raises(ValueError):
        saev_losses(np.zeros((2, 2, 1)), np.zeros((3, 2, 1)),
                    pts_at(0), pts_at(1), pts_at(2))
    with pytest.raises(ValueError):
        saev_losses(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)),
                    pts_at(0), pts_at(1)[:1], pts_at(2))


def test_encoding_vector_layout():
    vec = encoding_vector([FeaturePoint(1.0, 2.0, 0.3), FeaturePoint(4.0, 5.0, 0.6)])
    np.testing.assert_array_equal(vec, [1.0, 2.0, 0.3, 4.0, 5.0, 0.6])


# -- gradients --------------------------------------------------------------------


def test_gradient_check_passes_and_is_deterministic():
    report1 = gradient_check(seed=0, trials=5)
    report2 = gradient_check(seed=0, trials=5)
    assert report1 == report2
    assert report1["passed"]
    assert report1["max_rel_err"] < 1e-4


def test_uniform_direction_derivative_vanishes_on_constant_logits():
    cot = np.zeros((2, 3))
    cot[:, 0] = 1.0  # d(x_c)/dz
    grad = encode_vjp(np.zeros((6, 6, 2)), 1.0, cot)
    assert abs(grad.sum()) < 1e-12


def test_presence_loss_grad_matches_fd():
    rng = np.random.default_rng(5)
    logits = rng.normal(0.0, 1.0, (7, 6, 2))
    analytic = presence_loss_grad(logits, k=1.0)

    def loss(z):
        pts = encode(z, 1.0)
        return float(np.mean([1.0 - p.rho for p in pts]))

    numeric = central_diff_grad(loss, logits.copy())
    assert max_rel_err(analytic, numeric) < 1e-6
