"""Spatial-feature math: per-channel spatial softmax, expected feature
coordinates, presence, the radial decoder map, the three loss terms, and
analytic gradients of the whole chain with a finite-difference verifier.

Feature grids are float arrays of shape (W, H, C) indexed as [i, j, c] with
i the column/x coordinate and j the row/y coordinate, zero-based. After the
softmax every channel is a bivariate probability distribution over (i, j).

The presence kernel is an unnormalized Gaussian with peak 1 and covariance
k*I, so a point mass sitting at its own mean scores exactly 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fdcheck import central_diff_grad, max_rel_err


class FeaturePoint(NamedTuple):
    x: float
    y: float
    rho: float


def _coord_grids(w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    return np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float),
                       indexing="ij")


def spatial_softmax(logits: np.ndarray) -> np.ndarray:
    """Per-channel softmax over all (i, j), max-subtracted for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3:
        raise ValueError(f"expected a (W, H, C) grid, got shape {logits.shape}")
    shifted = logits - logits.max(axis=(0, 1), keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=(0, 1), keepdims=True)


def expected_coordinates(p: np.ndarray) -> tuple[float, float]:
    """(E[i], E[j]) of one post-softmax channel."""
    w, h = p.shape
    x = float(np.arange(w) @ p.sum(axis=1))
    y = float(p.sum(axis=0) @ np.arange(h))
    return x, y


def presence(p: np.ndarray, x: float, y: float, k: float) -> float:
    """Kernel-weighted mass of the channel around its own mean; 1 for a
    point mass, near 0 for a very spread-out channel."""
    gi, gj = _coord_grids(*p.shape)
    kernel = np.exp(-((gi - x) ** 2 + (gj - y) ** 2) / (2.0 * k))
    return float((p * kernel).sum())


def encode(logits: np.ndarray, k: float = 1.0) -> list[FeaturePoint]:
    """Full encoder head: softmax, expectations and presence per channel."""
    probs = spatial_softmax(logits)
    points = []
    for c in range(probs.shape[2]):
        x, y = expected_coordinates(probs[:, :, c])
        points.append(FeaturePoint(x, y, presence(probs[:, :, c], x, y, k)))
    return points


def encoding_vector(points: list[FeaturePoint]) -> np.ndarray:
    """Concatenated (x, y, rho) triples, the decoder/RL-facing encoding."""
    return np.array([v for pt in points for v in pt], dtype=np.float64)


def elu(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0.0, v, np.expm1(np.minimum(v, 0.0)))


def delta_map(points: list[FeaturePoint], w: int, h: int) -> np.ndarray:
    """Rasterize feature points back to (W, H, C): channel c holds
    ELU(rho_c - distance to (x_c, y_c)), peaking at the feature location and
    decaying radially toward -1."""
    gi, gj = _coord_grids(w, h)
    out = np.empty((w, h, len(points)))
    for c, pt in enumerate(points):
        dist = np.sqrt((gi - pt.x) ** 2 + (gj - pt.y) ** 2)
        out[:, :, c] = elu(pt.rho - dist)
    return out


def saev_losses(recon: np.ndarray, target: np.ndarray,
                points_tm1: list[FeaturePoint], points_t: list[FeaturePoint],
                points_tp1: list[FeaturePoint]) -> tuple[float, float, float]:
    """(reconstruction, presence, smoothness) losses.

    Reconstruction is the 2-norm of the error; presence averages (1 - rho)
    over channels at time t; smoothness is the norm of the second time
    difference of the encoding vectors.
    """
    recon = np.asarray(recon, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if recon.shape != target.shape:
        raise ValueError(f"shape mismatch: recon {recon.shape} vs target {target.shape}")
    if not (len(points_tm1) == len(points_t) == len(points_tp1)):
        raise ValueError("encodings at t-1, t, t+1 must have equal channel counts")
    l_err = float(np.linalg.norm((recon - target).ravel()))
    l_pre = float(np.mean([1.0 - pt.rho for pt in points_t]))
    e_tm1 = encoding_vector(points_tm1)
    e_t = encoding_vector(points_t)
    e_tp1 = encoding_vector(points_tp1)
    l_smooth = float(np.linalg.norm((e_tp1 - e_t) - (e_t - e_tm1)))
    return l_err, l_pre, l_smooth


# -- analytic gradients -------------------------------------------------------


def encode_vjp(logits: np.ndarray, k: float, cotangent: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the logits of sum_c (cot[c,0]*x_c + cot[c,1]*y_c +
    cot[c,2]*rho_c), backpropagated through presence, the coordinate
    expectations and the spatial softmax."""
    probs = spatial_softmax(logits)
    w, h, nc = probs.shape
    gi, gj = _coord_grids(w, h)
    grad = np.empty_like(probs)
    for c in range(nc):
        p = probs[:, :, c]
        x, y = expected_coordinates(p)
        kernel = np.exp(-((gi - x) ** 2 + (gj - y) ** 2) / (2.0 * k))
        cx, cy, cr = cotangent[c]
        # d rho / d x and d rho / d y (the kernel center moves with the mean)
        s_x = float((p * kernel * (gi - x)).sum()) / k
        s_y = float((p * kernel * (gj - y)).sum()) / k
        g_p = (cx + cr * s_x) * gi + (cy + cr * s_y) * gj + cr * kernel
        grad[:, :, c] = p * (g_p - float((g_p * p).sum()))
    return grad


def presence_loss_grad(logits: np.ndarray, k: float) -> np.ndarray:
    """Gradient of mean_c(1 - rho_c) w.r.t. the logits."""
    nc = logits.shape[2]
    cot = np.zeros((nc, 3))
    cot[:, 2] = -1.0 / nc
    return encode_vjp(logits, k, cot)


def gradient_check(seed: int = 0, trials: int = 20,
                   shape: tuple[int, int, int] = (8, 8, 3),
                   k: float = 1.0, tol: float = 1e-4) -> dict:
    """Compare encode_vjp against central finite differences on random grids
    with random cotangents. Returns a deterministic JSON-friendly report."""
    rng = np.random.default_rng([seed, 12345])
    w, h, nc = shape
    errors = []
    for _ in range(trials):
        logits = rng.normal(0.0, 1.5, shape)
        cot = rng.normal(0.0, 1.0, (nc, 3))

        analytic = encode_vjp(logits, k, cot)

        def scalar(z):
            pts = encode(z, k)
            return float(sum(cot[c, 0] * pts[c].x + cot[c, 1] * pts[c].y
                             + cot[c, 2] * pts[c].rho for c in range(nc)))

        numeric = central_diff_grad(scalar, logits.copy(), eps=1e-5)
        errors.append(max_rel_err(analytic, numeric))

    # symmetry: for constant logits a uniform logit shift must not move the
    # expected coordinates
    const = np.zeros(shape)
    cot_xy = np.zeros((nc, 3))
    cot_xy[:, 0] = 1.0
    cot_xy[:, 1] = 1.0
    uniform_dd = float(np.abs(encode_vjp(const, k, cot_xy).sum(axis=(0, 1))).max())

    worst = float(max(errors))
    return {
        "trials": trials,
        "shape": list(shape),
        "k": k,
        "max_rel_err": worst,
        "uniform_direction_derivative": uniform_dd,
        "tolerance": tol,
        "passed": bool(worst < tol and uniform_dd < 1e-12),
    }
