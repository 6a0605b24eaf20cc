"""Independent reference implementations used to check the library.

Everything here is deliberately naive: per-pixel full evaluation, plain
loops, and no shared code with the package step it checks beyond the
documented constants. Where an oracle reaches that step through other
package code, its docstring names that code: loop_composite_weights
projects with the package, pixel_space_query renders with it, and
termwise_total_loss takes its input checks and logits from it.
sandwich_cov2d is the textbook projected covariance naive_render uses.
pixel_finetune_osh is the OSH fit with one sample per valid pixel, and
guarded_finetune_osh the fit on counted rows that evaluates the loss at
every step, with the package's label_factors and osh_loss_and_grad and
its stacked step;
both halve their rate on a rising step, with their own MONOTONE_TOL
and RATE_FLOOR;
literal_kmeans codebook.kmeans_init with np.add.at sums and a loop that
reseeds one emptied cluster at a time, and read_ppm the PPM reader that
checks formats.write_ppm. central_diff, rel_err, one_term and
total_loss_fd_errors are gradient check helpers, and unit_targets makes
the unit target rows total_loss takes; random_scene draws fuzz inputs.
"""

from pathlib import Path

import numpy as np

NEAR_PLANE = 0.01
DILATION = 0.3
ALPHA_CLAMP = 0.99
ALPHA_CUTOFF = 1.0 / 255.0
T_STOP = 1e-4
FOOTPRINT_SIGMAS = 3.5  # the loop's box radius, in sigmas of the wider axis
COVER_COSINE = 0.9
MIN_ENTRY_NORM = 1e-8
MONOTONE_TOL = 1e-9  # the OSH guards' allowed loss rise before a halving
RATE_FLOOR = 1e-12  # an OSH guard keeps a step at a lower rate regardless


def quat_to_rot(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def sandwich_cov2d(cam, t, rotation, scale):
    """The textbook 2D covariance J W Sigma W^T J^T + DILATION I.

    Of one Gaussian with camera-space centre t, unit quaternion rotation
    and per-axis scale, as a (2, 2) float64 array.
    """
    w2c = np.asarray(cam.world_to_camera, dtype=np.float64)
    R = quat_to_rot(np.asarray(rotation, dtype=np.float64))
    S = np.diag(np.asarray(scale, dtype=np.float64))
    sigma = R @ S @ S.T @ R.T
    tx, ty, tz = t
    J = np.array([[cam.fx / tz, 0.0, -cam.fx * tx / tz ** 2],
                  [0.0, cam.fy / tz, -cam.fy * ty / tz ** 2]])
    M = J @ w2c[:3, :3]
    return M @ sigma @ M.T + DILATION * np.eye(2)


def naive_render(scene, cam):
    """Full per-pixel evaluation of every Gaussian, 64-bit throughout.

    Returns (rgb, ld_features, alpha) as float64 arrays.
    """
    w2c = np.asarray(cam.world_to_camera, dtype=np.float64)
    n = len(scene)
    splats = []  # (depth, index, mean2d, inv_cov, opacity)
    for i in range(n):
        c = scene.centroids[i].astype(np.float64)
        t = w2c[:3, :3] @ c + w2c[:3, 3]
        if t[2] <= NEAR_PLANE:
            continue
        cov = sandwich_cov2d(cam, t, scene.rotations[i], scene.scales[i])
        tx, ty, tz = t
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        if det <= 0 or cov[0, 0] <= 0 or cov[1, 1] <= 0:
            continue
        mean2d = np.array([cam.fx * tx / tz + cam.cx,
                           cam.fy * ty / tz + cam.cy])
        splats.append((tz, i, mean2d, np.linalg.inv(cov),
                       float(scene.opacities[i])))
    splats.sort(key=lambda s: (s[0], s[1]))

    h, wid = cam.height, cam.width
    d = scene.feature_dim
    rgb = np.zeros((h, wid, 3))
    feat = np.zeros((h, wid, d))
    alpha_map = np.zeros((h, wid))
    px, py = np.meshgrid(np.arange(wid, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    # dense front-to-back compositing: every splat evaluated on every
    # pixel (no bounding boxes), transmittance tracked per pixel
    T = np.ones((h, wid))
    for tz, i, mean2d, inv_cov, op in splats:
        dx = px - mean2d[0]
        dy = py - mean2d[1]
        q = (inv_cov[0, 0] * dx * dx + 2.0 * inv_cov[0, 1] * dx * dy
             + inv_cov[1, 1] * dy * dy)
        a = np.minimum(op * np.exp(-0.5 * q), ALPHA_CLAMP)
        a[a < ALPHA_CUTOFF] = 0.0
        w = np.where(T >= T_STOP, a * T, 0.0)
        rgb += w[:, :, None] * scene.rgbs[i]
        feat += w[:, :, None] * scene.features[i]
        alpha_map += w
        T = np.where(T >= T_STOP, T * (1.0 - a), T)
    return rgb, feat, alpha_map


def loop_composite_weights(scene, cam):
    """The rasterizer's composite weights, one splat at a time.

    The package's composite_weights before it composited by (splat,
    pixel) pairs, kept verbatim; its box radius FOOTPRINT_SIGMAS now
    lives in this module. A pair-based rewrite must match its indptr,
    indices and data byte for byte.
    """
    import warnings

    from scipy import sparse

    from goi.rasterizer import project_all

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


def mc_covariance(g_rotation, g_scale, centroid, cam, n_samples=100_000,
                  seed=0):
    """Monte-Carlo screen-space covariance of a projected Gaussian.

    Samples 3D points from the Gaussian, projects each through the full
    (nonlinear) pinhole model, and returns the sample covariance of the
    2D projections. For small Gaussians this approaches J W Sigma Wt Jt.
    """
    rng = np.random.default_rng(seed)
    R = quat_to_rot(np.asarray(g_rotation, dtype=np.float64))
    pts = (R @ np.diag(g_scale) @ rng.normal(size=(3, n_samples))).T + centroid
    w2c = np.asarray(cam.world_to_camera, dtype=np.float64)
    t = pts @ w2c[:3, :3].T + w2c[:3, 3]
    uv = np.stack([cam.fx * t[:, 0] / t[:, 2] + cam.cx,
                   cam.fy * t[:, 1] / t[:, 2] + cam.cy], axis=1)
    return np.cov(uv.T)


def literal_kmeans(samples, n_entries, iters, seed):
    """codebook.kmeans_init written out: (centroids, emptied clusters).

    The same k-means++ draws and COVER_COSINE stop, then Lloyd steps that
    sum each cluster with np.add.at, find empty clusters by count or by
    a (near-)zero sum, and reseed them one by one with the least covered
    samples. The second value counts empty clusters over every step.
    Input checks are left to the package.
    """
    unit = samples / np.linalg.norm(samples, axis=-1, keepdims=True)
    rng = np.random.default_rng(seed)
    m = unit.shape[0]
    seeds = [int(rng.integers(m))]
    best_sim = unit @ unit[seeds[0]]
    while len(seeds) < n_entries and best_sim.min() < COVER_COSINE:
        dist = np.maximum(0.0, 1.0 - best_sim)
        seeds.append(int(rng.choice(m, p=dist / dist.sum())))
        best_sim = np.maximum(best_sim, unit @ unit[seeds[-1]])
    centroids = unit[seeds]
    emptied = 0
    for _ in range(iters):
        sims = unit @ centroids.T
        assign = np.argmax(sims, axis=1)
        counts = np.bincount(assign, minlength=len(seeds))
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, unit)
        norms = np.linalg.norm(sums, axis=1)
        far = np.argsort(np.max(sims, axis=1))
        reseeded = 0
        for k in range(len(seeds)):
            if counts[k] == 0 or norms[k] < MIN_ENTRY_NORM:
                centroids[k] = unit[far[reseeded]]
                reseeded += 1
            else:
                centroids[k] = sums[k] / norms[k]
        emptied += int(np.sum(counts == 0))
    return centroids, emptied


def central_diff(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def one_term(name):
    """codebook.LossWeights keeping only the named term, at weight 1."""
    from goi.codebook import LossWeights
    return LossWeights(**{k: float(k == name)
                          for k in ("ent", "max", "joint", "e2e")})


def unit_targets(v_gt):
    """v_gt as the float64 unit rows codebook.total_loss takes, scaled by
    the package's own _normalize_rows, as the trainer scales each view."""
    from goi.codebook import _normalize_rows
    return _normalize_rows(np.atleast_2d(np.asarray(v_gt, dtype=np.float64)),
                           "target feature")


def total_loss_fd_errors(v_gt, fhat, cb, dec, tau, weights, temp_dec,
                         groups):
    """codebook.total_loss gradients against central differences.

    For each LossGrads field named in groups ("entries", "dec_weight",
    "dec_bias", "fhat"), the relative error of the analytic gradient
    against central differences of LossValue.total. v_gt may be any
    nonzero rows; they are made unit_targets first. Returns {name: err}.
    """
    from goi.codebook import Codebook, Decoder, total_loss

    v_gt = unit_targets(v_gt)

    def total(cb=cb, dec=dec, fhat=fhat):
        return total_loss(v_gt, fhat, cb, dec, tau, weights,
                          temp_dec=temp_dec)[0].total

    perturb = {
        "entries": (cb.entries, lambda t: total(
            cb=Codebook(entries=t.reshape(cb.entries.shape)))),
        "dec_weight": (dec.weight, lambda t: total(
            dec=Decoder(weight=t.reshape(dec.weight.shape), bias=dec.bias))),
        "dec_bias": (dec.bias, lambda t: total(
            dec=Decoder(weight=dec.weight, bias=t))),
        "fhat": (fhat, lambda t: total(fhat=t.reshape(fhat.shape))),
    }
    _, grads = total_loss(v_gt, fhat, cb, dec, tau, weights,
                          temp_dec=temp_dec)
    return {g: rel_err(getattr(grads, g),
                       central_diff(perturb[g][1], perturb[g][0].ravel()))
            for g in groups}


def pixel_space_query(model, cam, text_embedding, pseudo_mask=None, *,
                      use_osh=True, threshold=0.6):
    """The query computed per pixel and per Gaussian, not per entry.

    Decodes every pixel and every Gaussian to its entry vector,
    normalizes each row separately and scores each against the plane.
    The logits, the argmax (ties to the lowest index) and the sign test
    (a score of exactly 0 is negative) are computed here, and OSH fits
    one sample per valid pixel (pixel_finetune_osh); rendering is the
    package's own. An entry-space query must give the same mask and
    Gaussians bit for bit; its plane sums the same loss in another
    order. Returns (mask, goi_indices, hyperplane).
    """
    from goi.osh import init_hyperplane
    from goi.rasterizer import render

    def unit_rows(features):
        f = features.astype(np.float64)
        logits = f @ model.decoder.weight.T + model.decoder.bias
        decoded = model.codebook.entries[np.argmax(logits, axis=1)]
        norms = np.linalg.norm(decoded, axis=1, keepdims=True)
        return decoded / np.maximum(norms, 1e-300)

    out = render(model.scene, cam)
    decoded = unit_rows(out.ld_features.reshape(-1, model.scene.feature_dim))
    decoded = decoded.reshape(cam.height, cam.width, -1)
    valid = out.alpha > 0.5
    h = init_hyperplane(text_embedding, threshold)
    if use_osh:
        h, _ = pixel_finetune_osh(h, decoded, valid, pseudo_mask)
    mask = valid & (decoded @ h.weight + h.bias > 0.0)
    goi = np.where(unit_rows(model.scene.features) @ h.weight + h.bias
                   > 0.0)[0]
    return mask, goi, h


def pixel_osh_loss_and_grad(weight, bias, x, y, pos_weight):
    """Weighted BCE of sigma(w.x + b) against labels y over P samples."""
    from scipy.special import expit, log_expit

    m = x @ weight + bias
    term = pos_weight * y * log_expit(m) + (1.0 - y) * log_expit(-m)
    loss = -float(term.mean())
    sig = expit(m)
    dm = -(pos_weight * y * (1.0 - sig) - (1.0 - y) * sig) / x.shape[0]
    return loss, x.T @ dm, float(dm.sum())


def pixel_finetune_osh(h0, decoded_features, valid, pseudo_mask, cfg=None,
                       rate=None):
    """The OSH fit with one sample per valid pixel of an (H, W, D) map.

    Full-batch gradient descent over the valid pixels for cfg.steps
    steps from rate (STEP_RATE by default); a step that would raise the
    loss by more than MONOTONE_TOL is retried with a halved rate.
    Returns the refined plane and the final loss.
    """
    from goi.errors import ValidationError
    from goi.osh import POS_WEIGHT, STEP_RATE, Hyperplane, OSHConfig

    if cfg is None:
        cfg = OSHConfig()
    decoded_features = np.asarray(decoded_features, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    pseudo_mask = np.asarray(pseudo_mask, dtype=bool)
    if decoded_features.shape[:2] != valid.shape or valid.shape != pseudo_mask.shape:
        raise ValidationError("feature map / mask shape mismatch")
    x = decoded_features[valid]
    if x.shape[0] == 0:
        raise ValidationError("no valid pixels to fit the hyperplane on")
    y = pseudo_mask[valid].astype(np.float64)

    w = h0.weight.copy()
    b = h0.bias
    lr = STEP_RATE if rate is None else rate
    loss, gw, gb = pixel_osh_loss_and_grad(w, b, x, y, POS_WEIGHT)
    for _ in range(cfg.steps):
        while True:
            w_new = w - lr * gw
            b_new = b - lr * gb
            new_loss, new_gw, new_gb = pixel_osh_loss_and_grad(
                w_new, b_new, x, y, POS_WEIGHT)
            if new_loss <= loss + MONOTONE_TOL or lr < RATE_FLOOR:
                break
            lr *= 0.5
        w, b, loss, gw, gb = w_new, b_new, new_loss, new_gw, new_gb
    return Hyperplane(weight=w, bias=b), loss


def guarded_finetune_osh(h0, x, neg, pos, cfg=None, rate=None):
    """The OSH fit on counted rows, its loss evaluated at every step.

    osh.finetune_osh's stacked step from rate (STEP_RATE by default):
    y = [-m; s], the negated margins over the summed gradients, moves by
    [lr G; I] * -weights times sigma(-m), under a monotone guard: a step
    that raises the loss by more than MONOTONE_TOL is retried at half
    the rate, and each rate's summed gradients are folded into the
    plane's offset on a halving. Returns the refined plane, the final
    loss and the final rate.
    """
    from scipy.special import expit

    from goi.osh import (STEP_RATE, Hyperplane, OSHConfig, label_factors,
                         osh_loss_and_grad)

    if cfg is None:
        cfg = OSHConfig()
    x, neg, pos = (np.asarray(a, dtype=np.float64) for a in (x, neg, pos))
    rows, weights = label_factors(x, neg, pos)
    r = len(rows)
    wb = np.append(h0.weight, h0.bias)
    gram = rows @ rows.T
    lr = STEP_RATE if rate is None else rate
    move = np.vstack([lr * gram, np.eye(r)]) * -weights
    y = np.concatenate([-(rows @ wb), np.zeros(r)])
    loss = osh_loss_and_grad(-y[:r], weights)[0]
    a = np.zeros(r)
    for _ in range(cfg.steps):
        while True:
            y_new = y + move @ expit(y[:r])
            new_loss = osh_loss_and_grad(-y_new[:r], weights)[0]
            if new_loss <= loss + MONOTONE_TOL or lr < RATE_FLOOR:
                break
            a += lr * y[r:]
            y[r:] = 0.0
            lr *= 0.5
            move = np.vstack([lr * gram, np.eye(r)]) * -weights
        y, loss = y_new, new_loss
    wb -= rows.T @ (a + lr * y[r:])
    return Hyperplane(weight=wb[:-1], bias=wb[-1]), loss, lr


def read_ppm(path):
    """RGB bytes of a binary PPM as formats.write_ppm writes it: "P6",
    the width and height, and 255 on one line each, then the pixels."""
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = (int(v) for v in size.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).copy()


def termwise_total_loss(v_gt, fhat, cb, dec, tau, weights=None,
                        temp_dec=10.0):
    """codebook.total_loss with each term differentiated on its own.

    The entropy and best-entry gradients are built separately, the
    latter scattered onto its entries with np.add.at, before the terms
    are summed; the package folds both into one chain rule through cos.

    v_gt is (B, D_high) target features, fhat is (B, D_low) rendered
    features. The e2e term decodes through softmax(temp_dec * logits) so
    its gradient reaches the decoder and the features; the assigned index
    d is held fixed. Returns (LossValue, LossGrads).
    """
    from scipy.special import softmax, xlogy

    from goi.codebook import (MIN_ENTRY_NORM, LossGrads, LossValue,
                              LossWeights, _normalize_rows, decode_logits)
    from goi.errors import NumericError, ValidationError

    if weights is None:
        weights = LossWeights()
    if tau <= 0 or temp_dec <= 0:
        raise ValidationError("temperatures must be positive")
    v_gt = np.atleast_2d(np.asarray(v_gt, dtype=np.float64))
    fhat = np.atleast_2d(np.asarray(fhat, dtype=np.float64))
    if v_gt.shape[0] != fhat.shape[0] or v_gt.shape[0] == 0:
        raise ValidationError("batch shapes inconsistent or empty")
    if v_gt.shape[1] != cb.dim:
        raise ValidationError("v_gt dimension does not match codebook")
    bsz = v_gt.shape[0]
    n = cb.n_entries

    u = _normalize_rows(v_gt, "target feature")              # (B, Dh)
    t = cb.entries                                           # (N, Dh)
    tn = np.linalg.norm(t, axis=1)
    if np.any(tn < MIN_ENTRY_NORM):
        raise NumericError("zero-norm codebook entry")
    cos = (u @ t.T) / tn                                     # (B, N)
    d = np.argmax(cos, axis=1)                               # assignments

    grad_entries = np.zeros_like(t)

    # --- entropy term ------------------------------------------------------
    p = softmax(tau * cos, axis=1)
    ent_each = -np.sum(xlogy(p, p), axis=1)
    l_ent = float(ent_each.mean())
    gz = -p * (np.log(p) + ent_each[:, None]) * tau          # dH/d(cos) (B, N)
    grad_entries += (gz.T @ u) / tn[:, None]
    grad_entries -= (np.sum(gz * cos, axis=0)[:, None] * t) / (tn ** 2)[:, None]

    # --- best-entry term ---------------------------------------------------
    cd = cos[np.arange(bsz), d]
    l_max = float(np.mean(1.0 - cd))
    g_rows = -(u / tn[d, None] - cd[:, None] * t[d] / (tn[d] ** 2)[:, None])
    gmax = np.zeros_like(t)
    np.add.at(gmax, d, g_rows)
    grad_entries = weights.ent * grad_entries / bsz + weights.max * gmax / bsz

    # --- logit alignment ---------------------------------------------------
    e = decode_logits(fhat, dec)                             # (B, N)
    r = e.copy()
    r[np.arange(bsz), d] -= 1.0
    l_joint = float(np.mean(np.sum(r * r, axis=1)))
    grad_e = weights.joint * 2.0 * r / bsz                   # (B, N)

    # --- end-to-end term through the soft decode ---------------------------
    s = softmax(temp_dec * e, axis=1)                        # (B, N)
    v = s @ t                                                # (B, Dh)
    vn = np.linalg.norm(v, axis=1)
    if np.any(vn < MIN_ENTRY_NORM):
        raise NumericError("soft-decoded feature collapsed to zero")
    cos_v = np.sum(u * v, axis=1) / vn
    l_e2e = float(np.mean(1.0 - cos_v))
    gv = -(u / vn[:, None] - (cos_v / vn ** 2)[:, None] * v)  # dL/dv (B, Dh)
    grad_entries += weights.e2e * (s.T @ gv) / bsz
    a = gv @ t.T                                             # (B, N)
    # the softmax Jacobian's mean term s * sum(s * a) is gv . v = 0
    # (test_e2e_softmax_mean_term_vanishes), so it is left out here too
    ge_e2e = temp_dec * s * a
    grad_e += weights.e2e * ge_e2e / bsz

    value = LossValue(
        total=(weights.ent * l_ent + weights.max * l_max
               + weights.joint * l_joint + weights.e2e * l_e2e),
        ent=l_ent, max=l_max, joint=l_joint, e2e=l_e2e)
    grads = LossGrads(
        entries=grad_entries,
        dec_weight=grad_e.T @ fhat,
        dec_bias=grad_e.sum(axis=0),
        fhat=grad_e @ dec.weight)
    return value, grads


def random_scene(seed, n_gaussians, feature_dim=4, spread=2.0):
    """Random valid scene for fuzz tests (import kept local on purpose)."""
    from goi.scene import Scene
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n_gaussians, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return Scene(
        rng.uniform(-spread, spread, size=(n_gaussians, 3)),
        q,
        rng.uniform(0.05, 0.4, size=(n_gaussians, 3)),
        rng.uniform(0.05, 1.0, size=n_gaussians),
        rng.uniform(0.0, 1.0, size=(n_gaussians, 3)),
        rng.normal(size=(n_gaussians, feature_dim)).astype(np.float32))
