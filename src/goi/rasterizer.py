"""Software splatting of 3D Gaussians into per-pixel composite weights.

The central object is the composite weight matrix: for a fixed camera
and frozen geometry, every rendered quantity (color, low-dimensional
features, alpha) is a linear function of per-Gaussian attributes with
weights alpha_i * T_i gathered per pixel. render() applies that matrix
forward; render_backward() applies its transpose, which is the exact
adjoint because the feature composite is linear in the features.

Compositing walks splats in global ascending depth order (ties broken
by source index), accumulates in float64 and stops a pixel once its
transmittance drops below T_STOP. Pixel (x, y) samples the splat
footprint at the point (x, y).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .scene import Camera, Scene

NEAR_PLANE = 0.01
DILATION = 0.3          # px^2 added to both cov2d diagonal entries
ALPHA_CLAMP = 0.99
ALPHA_CUTOFF = 1.0 / 255.0
T_STOP = 1e-4
FOOTPRINT_SIGMAS = 3.5  # bounding-box radius; alpha is below cutoff outside


@dataclass
class RenderOutput:
    rgb: np.ndarray          # (H, W, 3) float32
    ld_features: np.ndarray  # (H, W, D_low) float32
    alpha: np.ndarray        # (H, W) float32


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """(..., 4) unit quaternions (w, x, y, z) -> (..., 3, 3) matrices."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rot = np.empty(q.shape[:-1] + (3, 3))
    rot[..., 0, 0] = 1 - 2 * (y * y + z * z)
    rot[..., 0, 1] = 2 * (x * y - w * z)
    rot[..., 0, 2] = 2 * (x * z + w * y)
    rot[..., 1, 0] = 2 * (x * y + w * z)
    rot[..., 1, 1] = 1 - 2 * (x * x + z * z)
    rot[..., 1, 2] = 2 * (y * z - w * x)
    rot[..., 2, 0] = 2 * (x * z - w * y)
    rot[..., 2, 1] = 2 * (y * z + w * x)
    rot[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def world_covariances(scene: Scene) -> np.ndarray:
    """Per-Gaussian 3x3 world covariance R S S^T R^T."""
    rot = quaternion_to_rotation(scene.rotations)
    m = rot * scene.scales.astype(np.float64)[:, None, :]
    return m @ m.transpose(0, 2, 1)


def project_all(scene: Scene, cam: Camera):
    """Project every Gaussian; returns parallel arrays for the survivors.

    Output arrays: means2d (M, 2), covs2d packed (M, 3), depths (M,),
    opacities (M,), source indices (M,), in ascending source order.
    """
    n = len(scene)
    if n == 0:
        z = np.zeros
        return z((0, 2)), z((0, 3)), z((0,)), z((0,)), np.zeros((0,), dtype=int)
    w2c = cam.world_to_camera
    t = scene.centroids.astype(np.float64) @ w2c[:3, :3].T + w2c[:3, 3]
    keep = t[:, 2] > NEAR_PLANE
    idx = np.where(keep)[0]
    t = t[keep]
    tz = t[:, 2]

    cov_world = world_covariances(scene)[keep]
    wrot = w2c[:3, :3]
    cov_cam = wrot @ cov_world @ wrot.T

    j = np.zeros((idx.size, 2, 3))
    j[:, 0, 0] = cam.fx / tz
    j[:, 0, 2] = -cam.fx * t[:, 0] / tz ** 2
    j[:, 1, 1] = cam.fy / tz
    j[:, 1, 2] = -cam.fy * t[:, 1] / tz ** 2
    cov2 = j @ cov_cam @ j.transpose(0, 2, 1)

    means2d = np.stack([cam.fx * t[:, 0] / tz + cam.cx,
                        cam.fy * t[:, 1] / tz + cam.cy], axis=1)
    covs2d = np.stack([cov2[:, 0, 0] + DILATION, cov2[:, 0, 1],
                       cov2[:, 1, 1] + DILATION], axis=1)
    return means2d, covs2d, tz, scene.opacities[keep].astype(np.float64), idx


def composite_weights(scene: Scene, cam: Camera) -> sparse.csr_matrix:
    """(H*W, n_gaussians) matrix of composite weights alpha_i * T_i.

    Depends only on frozen geometry, so callers training features may
    compute it once per camera and reuse it across iterations.
    """
    h, w = cam.height, cam.width
    means, covs, depths, opacities, idx = project_all(scene, cam)
    order = np.argsort(depths, kind="stable")  # stable: ties keep index order

    transmittance = np.ones(h * w)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for k in order:
        a, b, c = covs[k]
        det = a * c - b * b
        if det <= 0.0 or a <= 0.0 or c <= 0.0:
            warnings.warn("skipping splat with non-invertible 2D covariance",
                          RuntimeWarning, stacklevel=2)
            continue
        mx, my = means[k]
        radius = FOOTPRINT_SIGMAS * np.sqrt(max(a, c))
        x0 = max(0, int(np.floor(mx - radius)))
        x1 = min(w - 1, int(np.ceil(mx + radius)))
        y0 = max(0, int(np.floor(my - radius)))
        y1 = min(h - 1, int(np.ceil(my + radius)))
        if x0 > x1 or y0 > y1:
            continue
        xs = np.arange(x0, x1 + 1, dtype=np.float64) - mx
        ys = np.arange(y0, y1 + 1, dtype=np.float64) - my
        dx = np.broadcast_to(xs[None, :], (ys.size, xs.size))
        dy = np.broadcast_to(ys[:, None], (ys.size, xs.size))
        q = (c * dx * dx - 2 * b * dx * dy + a * dy * dy) / det
        alpha = np.minimum(ALPHA_CLAMP, opacities[k] * np.exp(-0.5 * q))
        alpha[alpha < ALPHA_CUTOFF] = 0.0

        pix = ((np.arange(y0, y1 + 1)[:, None] * w)
               + np.arange(x0, x1 + 1)[None, :]).ravel()
        alpha = alpha.ravel()
        t_here = transmittance[pix]
        weight = alpha * t_here
        weight[t_here < T_STOP] = 0.0   # pixel already terminated
        live = weight > 0.0
        if np.any(live):
            rows.append(pix[live])
            cols.append(np.full(int(live.sum()), idx[k], dtype=np.int64))
            vals.append(weight[live])
            transmittance[pix[live]] = t_here[live] * (1.0 - alpha[live])

    if rows:
        mat = sparse.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(h * w, len(scene)))
        return mat.tocsr()
    return sparse.csr_matrix((h * w, len(scene)))


def render_with_weights(scene: Scene, cam: Camera,
                        weights: sparse.csr_matrix) -> RenderOutput:
    h, w = cam.height, cam.width
    rgb = weights @ scene.rgbs.astype(np.float64)
    feats = weights @ scene.features.astype(np.float64)
    alpha = np.asarray(weights.sum(axis=1)).ravel()
    return RenderOutput(
        rgb=rgb.reshape(h, w, 3).astype(np.float32),
        ld_features=feats.reshape(h, w, scene.feature_dim).astype(np.float32),
        alpha=alpha.reshape(h, w).astype(np.float32),
    )


def render(scene: Scene, cam: Camera) -> RenderOutput:
    """Depth-sorted alpha compositing of color, features and opacity."""
    return render_with_weights(scene, cam, composite_weights(scene, cam))


def render_backward(scene: Scene, cam: Camera, grad_ld: np.ndarray,
                    weights: sparse.csr_matrix | None = None) -> np.ndarray:
    """Pull per-pixel feature-map gradients back to per-Gaussian features.

    Exact adjoint of the feature half of render(); geometry gets no
    gradient. Returns an (n_gaussians, D_low) float64 array.
    """
    grad_ld = np.asarray(grad_ld, dtype=np.float64)
    if grad_ld.shape != (cam.height, cam.width, scene.feature_dim):
        raise ValidationError(
            f"grad_ld shape {grad_ld.shape} does not match camera "
            f"{(cam.height, cam.width, scene.feature_dim)}")
    if weights is None:
        weights = composite_weights(scene, cam)
    return weights.T @ grad_ld.reshape(-1, scene.feature_dim)
