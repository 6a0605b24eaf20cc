"""Open-vocabulary querying and scene manipulation.

After the hard decode every surface pixel and every Gaussian is one of
the N codebook entries, so a query scores the unit-normalized entries
against the hyperplane built from the query embedding once, and the 2D
mask and the selected Gaussians both read the side of their entry. Only
surface pixels (alpha > ALPHA_SURFACE) are decoded, since no query
reads another pixel's entry. The unit entries with the Gaussians' entry
ids, and the entry ids of each view, are kept in the model's view
store, so the entries are normalized and the Gaussians decoded once per
model, and a camera is rendered and decoded on its first query only.
With OSH enabled the plane is first refined on this view against a
pseudo-mask, fitted on each entry's valid pixels outside and inside it;
the refined plane is also what selects the 3D Gaussians. Each OSH query
refits on its own view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .formats import json_is
from .osh import (DEFAULT_THRESHOLD, Hyperplane, finetune_osh,
                  init_hyperplane, scores)
from .rasterizer import RenderOutput, render
from .scene import Camera, Scene
from .codebook import _normalize_rows, entry_ids
from .trainer import ALPHA_SURFACE, TrainedModel

_ENTRIES = "entries"  # view-store key of the per-model table
OVERLAY_COLOR = (1.0, 0.2, 0.2)  # overlay_image's highlight


@dataclass
class QueryResult:
    mask: np.ndarray           # (H, W) bool
    goi_indices: np.ndarray    # strictly increasing indices into the scene
    hyperplane: Hyperplane


def model_entries(model: TrainedModel):
    """(unit codebook entries, each Gaussian's entry id) of a model."""
    return (_normalize_rows(model.codebook.entries, "codebook entry"),
            entry_ids(model.scene.features, model.decoder))


def select_goi(model: TrainedModel, positive: np.ndarray) -> np.ndarray:
    """Indices of Gaussians whose decoded entry is on the positive side.

    positive is the (N,) bool side of each codebook entry.
    """
    _, ids = model.stored(_ENTRIES, lambda: model_entries(model))
    return np.flatnonzero(positive[ids])


def decode_pixel_features(model: TrainedModel, cam: Camera):
    """Render a view and hard-decode its surface; returns (ids, valid)."""
    return decode_render(model, render(model.scene, cam))


def decode_render(model: TrainedModel, out: RenderOutput):
    """Hard-decode the surface pixels of a render; returns (ids, valid).

    valid is the alpha > ALPHA_SURFACE surface mask, and ids the (H, W)
    map of codebook entry indices, decoded on valid only and 0 off it:
    a query reads no off-surface id.
    """
    valid = out.alpha > ALPHA_SURFACE
    ids = np.zeros(valid.shape, dtype=np.intp)
    ids[valid] = entry_ids(out.ld_features[valid], model.decoder)
    return ids, valid


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
    unit, _ = model.stored(_ENTRIES, lambda: model_entries(model))
    if use_osh:
        # each entry's valid pixels outside and inside the pseudo-mask
        neg, pos = np.bincount(2 * ids[valid] + pseudo_mask[valid],
                               minlength=2 * len(unit)).reshape(-1, 2).T
        h, _ = finetune_osh(h, unit, neg, pos)
    positive = scores(h, unit) > 0.0   # a score of exactly 0 is negative
    return QueryResult(mask=valid & positive[ids],
                       goi_indices=select_goi(model, positive), hyperplane=h)


def overlay_image(rgb: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Alpha-blend selected pixels 50% toward OVERLAY_COLOR."""
    out = np.asarray(rgb, dtype=np.float64).copy()
    out[mask] = 0.5 * out[mask] + 0.5 * np.asarray(OVERLAY_COLOR)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Scene manipulation
# ---------------------------------------------------------------------------

def manipulate(scene: Scene, indices, action: str, *, delta=None,
               color=None) -> Scene:
    """Return a new scene with the indexed Gaussians edited.

    indices are integers in [0, len(scene)); a fractional or boolean
    index is rejected, not cast. action: "delete", "extract",
    "translate" (needs delta) or "highlight" (needs color). Feature
    vectors are never altered.
    """
    values = np.asarray(indices).reshape(-1)  # checked before an int cast
    # a Python int past int64 arrives as a float64 or object element
    if values.dtype.kind not in "iu" and not json_is(
            int, *np.asarray(indices, dtype=object).reshape(-1)):
        raise ValidationError("manipulation indices must be integers")
    if values.size and (values.min() < 0 or values.max() >= len(scene)):
        raise ValidationError("manipulation index out of range")
    indices = values.astype(int, copy=False)
    if action == "delete":
        return _subset(scene, np.setdiff1d(np.arange(len(scene)), indices))
    if action == "extract":
        return _subset(scene, np.unique(indices))
    if action == "translate":
        if delta is None:
            raise ValidationError("translate requires a 3-vector delta")
        centroids = scene.centroids.copy()
        with np.errstate(over="ignore"):  # the Scene rejects a non-finite sum
            centroids[indices] += np.asarray(delta, np.float32).reshape(3)
        return replace(scene, centroids=centroids)
    if action == "highlight":
        if color is None:
            raise ValidationError("highlight requires an rgb color")
        color = np.asarray(color, dtype=np.float32).reshape(3)
        if not np.all((color >= 0) & (color <= 1)):
            raise ValidationError("highlight color must lie in [0, 1]")
        rgbs = scene.rgbs.copy()
        rgbs[indices] = color
        return replace(scene, rgbs=rgbs)
    raise ValidationError(f"unknown manipulation action {action!r}")


def _subset(scene: Scene, keep: np.ndarray) -> Scene:
    return Scene(*(arr[keep] for arr in scene.arrays()))
