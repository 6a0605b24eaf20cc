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

The work is done on (splat, pixel) pairs, not splat by splat. Since
ALPHA_CLAMP lies above ALPHA_CUTOFF, a pixel keeps a splat only inside
the ellipse q <= 2 ln(opacity / ALPHA_CUTOFF), so each splat's pairs are
expanded row by row over that ellipse's exact span on the row, cut to
the image. Against rounding, the ellipse's q limit is widened by
SPAN_SLACK (1 + |q|) a c / det, since q's rounding error grows with
a c / det on a thin, tilted footprint. Splats are taken in depth order
in chunks whose ellipses' bounding boxes hold at most CHUNK_PAIRS
candidate pairs together; a splat with more, at most one per pixel, is a
chunk of its own. A chunk evaluates alpha on all its pairs at once and
drops those below ALPHA_CUTOFF or on pixels already terminated,
gathering the kept pairs by index and skipping the cutoff's gather when
every pair passes. It then orders the pairs by pixel with a stable sort
of each pair's offset from the chunk's first pixel, in the narrowest
unsigned type that holds the chunk's range (a radix sort when that fits
16 bits); the pairs arrive in depth order, so the stable sort keeps
depth order within each pixel. It composites them with one running
product over a table: a row per pixel holding its transmittance entering
the chunk, then 1 - alpha of its splats in depth order, and returns the
(pixel, Gaussian, weight) triples that survive, in pixel order. The
matrix is built once from all chunks' triples, by two linear counting
passes, COO to CSC to CSR, and no comparison sort: each splat lies in
one chunk, so every column (a Gaussian) arrives with its pixels
ascending, CSC finds that canonical, and the transpose to CSR leaves
each row's Gaussians ascending. A chunk whose table would pass
TABLE_CELLS cells (1 MiB of float64) is halved until it fits or is one
splat, whose table has two cells per pixel it covers. So a chunk's
temporaries are bounded by CHUNK_PAIRS and TABLE_CELLS, however many
Gaussians the scene has. Transmittance carries over from chunk to chunk,
so every pixel sees the same float64 products in the same order as a
per-splat loop would, and the weights are identical bit for bit.

project_all takes each 2D covariance J W Sigma W^T J^T as the Gram
matrix of the two rows of J W R S, so it is positive semi-definite by
construction. A splat whose 2D covariance is not positive definite, or
whose 2D covariance or determinant is not finite (a projection that
overflowed), is skipped, with one RuntimeWarning per call that gives the
count and none of numpy's own.
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
CHUNK_PAIRS = 1 << 14  # candidate (splat, pixel) pairs expanded at once
TABLE_CELLS = 1 << 17  # float64 cells of a chunk's compositing table
SPAN_SLACK = 1e-9      # q's cutoff widens by this * (1 + |q|) * a c / det
ALPHA_SURFACE = 0.5    # alpha above which training and queries see surface


@dataclass(eq=False)
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


def project_all(scene: Scene, cam: Camera):
    """Project every Gaussian; returns parallel arrays for the survivors.

    Output arrays: means2d (M, 2), covs2d packed (M, 3), depths (M,),
    opacities (M,), source indices (M,), in ascending source order.
    """
    w2c = cam.world_to_camera
    t = scene.centroids.astype(np.float64) @ w2c[:3, :3].T + w2c[:3, 3]
    keep = t[:, 2] > NEAR_PLANE
    idx = np.where(keep)[0]
    tx, ty, tz = t[keep].T

    # Sigma' = (J P)(J P)^T with P = W R S: dot products of J P's rows
    p = w2c[:3, :3] @ (quaternion_to_rotation(scene.rotations[keep])
                       * scene.scales[keep].astype(np.float64)[:, None, :])
    # a huge focal length may overflow: an infinite mean covers no pixel,
    # and composite_weights skips a non-finite covariance
    with np.errstate(over="ignore", invalid="ignore"):
        r0 = (cam.fx / tz)[:, None] * (p[:, 0] - (tx / tz)[:, None] * p[:, 2])
        r1 = (cam.fy / tz)[:, None] * (p[:, 1] - (ty / tz)[:, None] * p[:, 2])
        means2d = np.stack([cam.fx * tx / tz + cam.cx,
                            cam.fy * ty / tz + cam.cy], axis=1)
        covs2d = np.stack([np.einsum("ij,ij->i", r0, r0) + DILATION,
                           np.einsum("ij,ij->i", r0, r1),
                           np.einsum("ij,ij->i", r1, r1) + DILATION], axis=1)
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
    with np.errstate(over="ignore", invalid="ignore"):  # skipped just below
        det = a * c - b * b
    skip = ~(np.isfinite(det) & (det > 0.0) & (a > 0.0) & (c > 0.0))
    if skip.any():
        warnings.warn(f"skipping {int(skip.sum())} splat(s) with "
                      "non-invertible 2D covariance", RuntimeWarning,
                      stacklevel=2)
    good = ~skip
    order = order[good]
    a, b, c, det = a[good], b[good], c[good], det[good]
    mx, my = means[order].T
    opacity = opacities[order]
    # alpha >= ALPHA_CUTOFF <=> q <= 2 ln(opacity / ALPHA_CUTOFF), since
    # ALPHA_CLAMP lies above the cutoff; floored so that a zero opacity
    # stays finite. q sums terms up to a c / det times itself, so its
    # rounding error is about 4 eps (a c / det) |q|; the limit is widened
    # in proportion, so that rounding in q or in the span ends never
    # drops a pair the exact test below would keep
    q_max = 2.0 * np.log(np.maximum(opacity, 0.5 * ALPHA_CUTOFF)
                         / ALPHA_CUTOFF)
    q_lim = q_max + SPAN_SLACK * (1.0 + np.abs(q_max)) * (a * c / det)
    # the ellipse q <= q_lim lies within |dx| <= sqrt(a q_lim) and
    # |dy| <= sqrt(c q_lim); clipped to the image as floats, so a far-off
    # splat cannot overflow the int cast; an empty box keeps x0 > x1 or
    # y0 > y1
    rx = np.sqrt(np.maximum(a * q_lim, 0.0))
    ry = np.sqrt(np.maximum(c * q_lim, 0.0))
    x0 = np.clip(np.ceil(mx - rx), 0, w).astype(np.int64)
    x1 = np.clip(np.floor(mx + rx), -1, w - 1).astype(np.int64)
    y0 = np.clip(np.ceil(my - ry), 0, h).astype(np.int64)
    y1 = np.clip(np.floor(my + ry), -1, h - 1).astype(np.int64)
    nx = np.maximum(x1 - x0 + 1, 0)
    ny = np.where(nx > 0, np.maximum(y1 - y0 + 1, 0), 0)
    count = nx * ny
    splats = (x0, x1, y0, ny, mx, my, a, b, c, det, q_lim, opacity,
              idx[order])

    transmittance = np.ones(h * w)
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    ends = np.cumsum(count)
    lo = 0
    while lo < count.size:
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - count[lo] + CHUNK_PAIRS, side="right")))
        # a chunk whose table would pass TABLE_CELLS is halved and retried
        while (part := _composite_chunk([s[lo:hi] for s in splats], w,
                                        transmittance)) is None:
            hi = lo + (hi - lo) // 2
        parts.append(part)
        lo = hi

    # concatenated inside the call, so no named copy outlives tocsc();
    # each column's rows arrive ascending, so neither pass sorts
    pix, gid, vals = zip(*parts)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(pix), np.concatenate(gid))),
        shape=(h * w, len(scene))).tocsc().tocsr()


def _composite_chunk(splats, w, transmittance):
    """Composite one depth-ordered run of splats onto `transmittance`.

    Returns the (pixel, Gaussian, weight) triples that survive, as three
    arrays. Returns None, and changes nothing, when the run has more than
    one splat and its table would pass TABLE_CELLS.
    """
    x0, x1, y0, ny, mx, my, a, b, c, det, q_lim, opacity, gid = splats
    # one entry per (splat, row): the span of x with q <= q_lim on the
    # row, |dx - b dy / c| <= sqrt(det (c q_lim - dy^2)) / c, cut to the
    # image by x0 and x1; dy is the loop's own py - my, which the pairs
    # reuse
    k = np.repeat(np.arange(ny.size), ny)
    py = np.arange(k.size) + (y0 - np.cumsum(ny) + ny)[k]
    dy = py - my[k]
    cr = c[k]
    half = np.sqrt(det[k] * np.maximum(cr * q_lim[k] - dy * dy, 0.0)) / cr
    mid = mx[k] + b[k] * dy / cr
    lo = np.minimum(np.maximum(np.ceil(mid - half), x0[k]),
                    x1[k] + 1).astype(np.int64)
    n = np.maximum(np.maximum(np.minimum(np.floor(mid + half), x1[k]),
                              x0[k] - 1).astype(np.int64) - lo + 1, 0)

    # one entry per (splat, pixel) pair of those spans, in depth order;
    # compacted by index, and px taken only for the pairs that stay
    r = np.repeat(np.arange(n.size), n)
    row_start = py * w
    pix = np.arange(r.size) + (lo + row_start - np.cumsum(n) + n)[r]
    # a pixel that has terminated stays terminated: T only decreases
    go = np.flatnonzero(transmittance[pix] >= T_STOP)
    r, pix = r[go], pix[go]
    k, dy = k[r], dy[r]
    px = pix - row_start[r]

    # term for term the float64 expressions of a per-splat loop, so the
    # weights match it bit for bit; do not refactor the arithmetic
    dx = px - mx[k]
    q =(c[k] * dx * dx - 2 * b[k] * dx * dy + a[k] * dy * dy) / det[k]
    alpha = np.minimum(ALPHA_CLAMP, opacity[k] * np.exp(-0.5 * q))
    go = alpha >= ALPHA_CUTOFF
    if not np.all(go):
        go = np.flatnonzero(go)
        k, pix, alpha = k[go], pix[go], alpha[go]
    if not pix.size:
        return pix, gid[k], alpha

    # sorted by pixel, depth order kept within a pixel by a stable sort
    # on the chunk-relative pixel, in the narrowest unsigned type that
    # holds it (a radix sort up to 16 bits). Row g of the table is pixel
    # g's entering transmittance, then 1 - alpha of its splats in depth
    # order, padded with 1.0, so its running product is the loop's t at
    # each splat; t falls at every splat, so the pixel is live on a
    # prefix, and its new t is the product over its live splats
    key = pix - pix.min()
    by_pix = np.argsort(key.astype(np.min_scalar_type(key.max())),
                        kind="stable")
    pix, gid, alpha = pix[by_pix], gid[k[by_pix]], alpha[by_pix]
    first = np.concatenate(([0], np.flatnonzero(pix[1:] != pix[:-1]) + 1))
    size = np.append(first[1:], pix.size) - first
    width = int(size.max()) + 1
    if first.size * width > TABLE_CELLS and ny.size > 1:
        return None
    own = pix[first]
    row = np.arange(first.size) * width
    cell = np.arange(pix.size) + np.repeat(row - first, size)
    table = np.ones((first.size, width))
    flat = table.reshape(-1)
    flat[row] = transmittance[own]
    flat[cell + 1] = 1.0 - alpha
    np.multiply.accumulate(table, axis=1, out=table)
    t = flat[cell]
    live = t >= T_STOP
    transmittance[own] = flat[row + np.add.reduceat(live, first,
                                                    dtype=np.intp)]
    return pix[live], gid[live], alpha[live] * t[live]


def is_surface(alpha) -> np.ndarray:
    """alpha > ALPHA_SURFACE in float32, as render() gives a query alpha."""
    return np.asarray(alpha, dtype=np.float32) > ALPHA_SURFACE


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
