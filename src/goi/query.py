"""Open-vocabulary querying and scene manipulation.

After the hard decode every pixel and every Gaussian is one of the N
codebook entries, so a query scores the unit-normalized entries against
the hyperplane built from the query embedding, and the 2D mask and the
selected Gaussians look up the sign of their entry. The unit entries and
the entry ids of a view and of the Gaussians are kept in the model's
view store, so the entries are normalized and the Gaussians decoded
once per model, and a camera is rendered and decoded on its first query
only. With OSH enabled the plane is first refined on this view against
a pseudo-mask, fitted on one row per (entry, pseudo-label) pair
weighted by its pixel count; the refined plane is also what selects the
3D Gaussians, so one refinement serves all later views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .osh import (DEFAULT_THRESHOLD, Hyperplane, finetune_osh,
                  init_hyperplane, scores)
from .rasterizer import RenderOutput, render
from .scene import Camera, Scene
from .codebook import Codebook, entry_ids
from .trainer import ALPHA_SURFACE, TrainedModel

_GAUSSIANS = "gaussians"   # view-store key of the per-Gaussian entry ids
_UNIT = "unit entries"     # view-store key of the unit codebook entries


@dataclass
class QueryResult:
    mask: np.ndarray           # (H, W) bool
    goi_indices: np.ndarray    # strictly increasing indices into the scene
    hyperplane: Hyperplane
    stats: dict


def unit_entries(cb: Codebook) -> np.ndarray:
    """Codebook entries scaled to unit length: what a hyperplane scores."""
    norms = np.linalg.norm(cb.entries, axis=1, keepdims=True)
    return cb.entries / np.maximum(norms, 1e-300)


def select_goi(model: TrainedModel, h: Hyperplane) -> np.ndarray:
    """Indices of Gaussians whose decoded entry is on the positive side.

    The Gaussians' entry ids and the unit entries are computed once per
    model (its view store).
    """
    ids, = model.stored(_GAUSSIANS, lambda: (entry_ids(
        model.scene.features, model.codebook, model.decoder),))
    unit, = model.stored(_UNIT, lambda: (unit_entries(model.codebook),))
    return np.flatnonzero((scores(h, unit) > 0.0)[ids])


def decode_pixel_features(model: TrainedModel, cam: Camera):
    """Render a view and hard-decode each pixel; returns (ids, valid)."""
    return decode_render(model, render(model.scene, cam))


def decode_render(model: TrainedModel, out: RenderOutput):
    """Hard-decode each pixel of a render; returns (ids, valid).

    ids is the (H, W) map of codebook entry indices; valid is the
    alpha > ALPHA_SURFACE surface mask.
    """
    flat = out.ld_features.reshape(-1, model.scene.feature_dim)
    ids = entry_ids(flat, model.codebook, model.decoder)
    return ids.reshape(out.alpha.shape), out.alpha > ALPHA_SURFACE


def _camera_key(cam: Camera) -> tuple:
    """Every field that decides a render: the view-store key of a camera."""
    return (cam.width, cam.height, cam.fx, cam.fy, cam.cx, cam.cy,
            cam.world_to_camera.tobytes())


def store_render(model: TrainedModel, cam: Camera, out: RenderOutput) -> None:
    """Keep the decode of out, model's render from cam, in its view store,
    so a query from cam renders nothing."""
    model.stored(_camera_key(cam), lambda: decode_render(model, out))


def open_vocab_query(model: TrainedModel, cam: Camera,
                     text_embedding: np.ndarray,
                     pseudo_mask: np.ndarray | None = None, *,
                     use_osh: bool = True,
                     threshold: float = DEFAULT_THRESHOLD) -> QueryResult:
    """Full query pipeline: 2D mask plus the selected 3D Gaussian set."""
    h = init_hyperplane(text_embedding, threshold)
    if h.weight.size != model.codebook.dim:
        raise ValidationError(
            f"embedding dim {h.weight.size} does not match codebook "
            f"dim {model.codebook.dim}")
    if use_osh:
        if pseudo_mask is None:
            raise ValidationError("OSH refinement requires a pseudo-mask")
        pseudo_mask = np.asarray(pseudo_mask, dtype=bool)
        if pseudo_mask.shape != (cam.height, cam.width):
            raise ValidationError(
                f"pseudo-mask shape {pseudo_mask.shape} does not match the "
                f"{cam.height}x{cam.width} view")
    ids, valid = model.stored(_camera_key(cam),
                              lambda: decode_pixel_features(model, cam))
    unit, = model.stored(_UNIT, lambda: (unit_entries(model.codebook),))
    if use_osh:
        # one row per (entry, pseudo-label) pair, weighted by its pixels,
        # so each entry weighs as often as it is seen
        pairs, counts = np.unique(2 * ids[valid] + pseudo_mask[valid],
                                  return_counts=True)
        h, _ = finetune_osh(h, unit[pairs // 2], counts, pairs % 2)
    mask = valid & (scores(h, unit) > 0.0)[ids]
    goi = select_goi(model, h)
    return QueryResult(mask=mask, goi_indices=goi, hyperplane=h,
                       stats={"positive_pixels": int(mask.sum()),
                              "selected_gaussians": int(goi.size)})


def overlay_image(rgb: np.ndarray, mask: np.ndarray,
                  color=(1.0, 0.2, 0.2)) -> np.ndarray:
    """Alpha-blend selected pixels 50% toward a highlight color."""
    out = np.asarray(rgb, dtype=np.float64).copy()
    out[mask] = 0.5 * out[mask] + 0.5 * np.asarray(color, dtype=np.float64)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Scene manipulation
# ---------------------------------------------------------------------------

def manipulate(scene: Scene, indices, action: str, *, delta=None,
               color=None) -> Scene:
    """Return a new scene with the indexed Gaussians edited.

    action: "delete", "extract", "translate" (needs delta) or
    "highlight" (needs color). Feature vectors are never altered.
    """
    indices = np.asarray(indices, dtype=int).reshape(-1)
    if indices.size and (indices.min() < 0 or indices.max() >= len(scene)):
        raise ValidationError("manipulation index out of range")
    out = scene.copy()
    if action == "delete":
        keep = np.setdiff1d(np.arange(len(scene)), indices)
        return _subset(out, keep)
    if action == "extract":
        return _subset(out, np.unique(indices))
    if action == "translate":
        if delta is None:
            raise ValidationError("translate requires a 3-vector delta")
        with np.errstate(over="ignore"):  # a non-finite result fails below
            out.centroids[indices] += np.asarray(delta, np.float32).reshape(3)
        if not np.all(np.isfinite(out.centroids[indices])):
            raise ValidationError("translated centroid is not finite")
        return out
    if action == "highlight":
        if color is None:
            raise ValidationError("highlight requires an rgb color")
        color = np.asarray(color, dtype=np.float32).reshape(3)
        if not np.all((color >= 0) & (color <= 1)):
            raise ValidationError("highlight color must lie in [0, 1]")
        out.rgbs[indices] = color
        return out
    raise ValidationError(f"unknown manipulation action {action!r}")


def _subset(scene: Scene, keep: np.ndarray) -> Scene:
    return Scene(*(arr[keep] for arr in scene.arrays()))
