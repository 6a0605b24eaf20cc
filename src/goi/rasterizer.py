"""Software splatting of 3D Gaussians into per-pixel composite weights.

The central object is the composite weight matrix: for a fixed camera
and frozen geometry, every rendered quantity (color, low-dimensional
features, alpha) is a linear function of per-Gaussian attributes with
weights alpha_i * T_i gathered per pixel. render() applies that matrix
forward. Its transpose is the exact adjoint of the feature composite,
which is linear in the features: training pulls pixel-feature gradients
back to the Gaussians with it, as weights.T @ grad.

Compositing walks splats in global ascending depth order (ties broken
by source index), accumulates in float64 and stops a pixel once its
transmittance drops below T_STOP. Pixel (x, y) samples the splat
footprint at the point (x, y).

The work is done on (splat, pixel) pairs, not splat by splat. Splats
are taken in depth order in chunks whose footprint boxes hold at most
CHUNK_PAIRS candidate pairs together; a splat with more, at most one
per pixel, is a chunk of its own. A chunk's temporaries thus stay near
1 MB however many Gaussians the scene has. A chunk expands its pairs,
evaluates alpha on all of them at once and drops those below
ALPHA_CUTOFF or on pixels already terminated. It then stable-sorts the
pairs by pixel, which keeps depth order within each pixel, and
composites rank by rank: rank r holds the r-th splat over each pixel,
so one rank updates each pixel at most once. Transmittance carries over
from chunk to chunk, so every pixel sees the same float64 products in
the same order as a per-splat loop would, and the weights are identical
bit for bit.

A splat whose 2D covariance is not positive definite is skipped, with
one RuntimeWarning per call that gives the count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .scene import Camera, Scene

NEAR_PLANE = 0.01
DILATION = 0.3          # px^2 added to both cov2d diagonal entries
ALPHA_CLAMP = 0.99
ALPHA_CUTOFF = 1.0 / 255.0
T_STOP = 1e-4
FOOTPRINT_SIGMAS = 3.5  # bounding-box radius; alpha is below cutoff outside
CHUNK_PAIRS = 1 << 14  # candidate (splat, pixel) pairs expanded at once


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
    a, b, c = covs[order].T
    det = a * c - b * b
    skip = (det <= 0.0) | (a <= 0.0) | (c <= 0.0)
    if skip.any():
        warnings.warn(f"skipping {int(skip.sum())} splat(s) with "
                      "non-invertible 2D covariance", RuntimeWarning,
                      stacklevel=2)
    good = ~skip
    order = order[good]
    a, b, c, det = a[good], b[good], c[good], det[good]
    mx, my = means[order].T
    radius = FOOTPRINT_SIGMAS * np.sqrt(np.maximum(a, c))
    # clipped as floats, so a far-off splat cannot overflow the int cast;
    # an empty box keeps x0 > x1 or y0 > y1
    x0 = np.clip(np.floor(mx - radius), 0, w).astype(np.int64)
    x1 = np.clip(np.ceil(mx + radius), -1, w - 1).astype(np.int64)
    y0 = np.clip(np.floor(my - radius), 0, h).astype(np.int64)
    y1 = np.clip(np.ceil(my + radius), -1, h - 1).astype(np.int64)
    nx = np.maximum(x1 - x0 + 1, 0)
    count = nx * np.maximum(y1 - y0 + 1, 0)
    splats = (x0, y0, nx, mx, my, a, b, c, det, opacities[order], idx[order])

    transmittance = np.ones(h * w)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    ends = np.cumsum(count)
    lo = 0
    while lo < count.size:
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - count[lo] + CHUNK_PAIRS, side="right")))
        _composite_chunk([s[lo:hi] for s in splats], count[lo:hi], w,
                         transmittance, rows, cols, vals)
        lo = hi

    if rows:
        mat = sparse.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(h * w, len(scene)))
        return mat.tocsr()
    return sparse.csr_matrix((h * w, len(scene)))


def _composite_chunk(splats, count, w, transmittance, rows, cols, vals):
    """Composite one depth-ordered run of splats onto `transmittance`.

    Appends the (pixel, Gaussian, weight) triples that survive to rows,
    cols and vals.
    """
    x0, y0, nx, mx, my, a, b, c, det, opacity, gid = splats
    k = np.repeat(np.arange(count.size), count)   # splat of each pair
    j = np.arange(k.size) - np.repeat(np.cumsum(count) - count, count)
    px = x0[k] + j % nx[k]
    py = y0[k] + j // nx[k]
    pix = py * w + px
    # a pixel that has terminated stays terminated: T only decreases
    go = transmittance[pix] >= T_STOP
    k, px, py, pix = k[go], px[go], py[go], pix[go]

    # term for term the float64 expressions of a per-splat loop, so the
    # weights match it bit for bit; do not refactor the arithmetic
    dx = px - mx[k]
    dy = py - my[k]
    q =(c[k] * dx * dx - 2 * b[k] * dx * dy + a[k] * dy * dy) / det[k]
    alpha = np.minimum(ALPHA_CLAMP, opacity[k] * np.exp(-0.5 * q))
    go = alpha >= ALPHA_CUTOFF
    k, pix, alpha = k[go], pix[go], alpha[go]

    # stable by pixel keeps depth order within a pixel; `at` holds each
    # pixel's r-th splat, so one rank r touches each pixel once, and
    # pixels out of splats drop out of `first` as r passes their size
    by_pix = np.argsort(pix, kind="stable")
    pix, gid, alpha = pix[by_pix], gid[k[by_pix]], alpha[by_pix]
    first = np.flatnonzero(np.r_[True, pix[1:] != pix[:-1]])
    size = np.diff(np.r_[first, pix.size])
    for r in range(size.max(initial=0)):
        keep = size > r
        first, size = first[keep], size[keep]
        at = first + r
        t = transmittance[pix[at]]
        live = t >= T_STOP
        at, t = at[live], t[live]
        p, al = pix[at], alpha[at]
        rows.append(p)
        cols.append(gid[at])
        vals.append(al * t)
        transmittance[p] = t * (1.0 - al)


def render(scene: Scene, cam: Camera) -> RenderOutput:
    """Depth-sorted alpha compositing of color, features and opacity."""
    h, w = cam.height, cam.width
    weights = composite_weights(scene, cam)
    rgb = weights @ scene.rgbs.astype(np.float64)
    feats = weights @ scene.features.astype(np.float64)
    alpha = np.asarray(weights.sum(axis=1)).ravel()
    return RenderOutput(
        rgb=rgb.reshape(h, w, 3).astype(np.float32),
        ld_features=feats.reshape(h, w, scene.feature_dim).astype(np.float32),
        alpha=alpha.reshape(h, w).astype(np.float32),
    )
