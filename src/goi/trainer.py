"""Semantic-field optimization over a frozen Gaussian scene.

One iteration: pick a training view (round-robin over a seed-shuffled
order), draw a batch of its surface rows, evaluate the combined codebook
loss and apply plain gradient-descent steps to the per-Gaussian
features, codebook entries and decoder. Geometry never changes, so each
view's surface rows are gathered once up front: the composite weight
rows of its surface pixels (accumulated alpha > 0.5), each paired with
its nearest ground-truth feature. A trained model carries a ViewStore,
where queries keep what they decode from it.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import NumericError, ValidationError
from .formats import read_feature_map, read_json, write_json
from .rasterizer import composite_weights
from .scene import Camera, Scene, load_camera, load_scene, save_scene
from .codebook import (MIN_ENTRY_NORM, Codebook, Decoder, load_codebook,
                       load_decoder, save_codebook, save_decoder, total_loss)

ALPHA_SURFACE = 0.5     # accumulated alpha above which a pixel is surface
TRACE_EVERY = 10
VIEW_STORE_BYTES = 8 << 20  # decoded views a model keeps, oldest dropped first
PIXELS_PER_ITER = 4096  # surface rows per step; a larger view is subsampled


@dataclass
class TrainConfig:
    iterations: int = 1500
    tau_start: float = 1.0
    tau_end: float = 2.0
    tau_switch_iter: int = 1000
    lr_feature: float = 0.3
    lr_codebook: float = 1.0
    lr_decoder: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # annotations are strings here (postponed evaluation)
            integral = f.type == "int"
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Integral) if integral else
                    isinstance(value, numbers.Real) and np.isfinite(value)):
                kind = "an integer" if integral else "a finite number"
                raise ValidationError(
                    f"{f.name} must be {kind}, got {value!r}")
        if self.iterations < 0:
            raise ValidationError("iterations must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        # zero rates are legal so parameter groups can be frozen individually
        if min(self.lr_feature, self.lr_codebook, self.lr_decoder) < 0:
            raise ValidationError("learning rates must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = set(d) - cls.__dataclass_fields__.keys()
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class Dataset:
    """Training views: cameras paired with ground-truth feature maps."""

    views: list  # list of (Camera, np.ndarray of shape (Hg, Wg, D_high))
    feature_dim_high: int

    def __post_init__(self):
        if not self.views:
            raise ValidationError("dataset needs at least one view")
        for cam, gt in self.views:
            if gt.shape[2] != self.feature_dim_high:
                raise ValidationError("GT map dimension mismatch in dataset")

    @classmethod
    def load_manifest(cls, path) -> "Dataset":
        path = Path(path)
        dim, files = read_json(path, "training manifest", lambda d: (
            int(d["feature_dim_high"]),
            [(path.parent / v["camera"], path.parent / v["features"])
             for v in d["views"]]))
        return cls(views=[(load_camera(cam), read_feature_map(gt))
                          for cam, gt in files], feature_dim_high=dim)


class ViewStore:
    """Arrays computed from a model, kept by key within a byte budget.

    Every stored value (a tuple of arrays) was computed from one set of
    source arrays; a lookup naming any other set, compared by identity,
    empties the store first. The sources and the stored arrays are made
    read-only, so an in-place edit raises instead of leaving a stale
    value. When a new value does not fit, the oldest ones are dropped; a
    value larger than the whole budget is returned but not kept.
    """

    def __init__(self, budget: int = VIEW_STORE_BYTES):
        self.budget = budget
        self.nbytes = 0
        self._sources: tuple = ()
        self._values: dict = {}     # insertion order: oldest first

    def get(self, key, sources: tuple, compute):
        """compute()'s value for key, computed at most once per sources."""
        if (len(sources) != len(self._sources)
                or any(a is not b for a, b in zip(sources, self._sources))):
            self._values.clear()
            self.nbytes = 0
            for arr in sources:
                arr.flags.writeable = False
            self._sources = sources
        value = self._values.get(key)
        if value is None:
            value = compute()
            size = sum(arr.nbytes for arr in value)
            if size <= self.budget:
                while self.nbytes + size > self.budget:
                    oldest = self._values.pop(next(iter(self._values)))
                    self.nbytes -= sum(arr.nbytes for arr in oldest)
                for arr in value:
                    arr.flags.writeable = False
                self._values[key] = value
                self.nbytes += size
        return value


@dataclass
class TrainedModel:
    scene: Scene
    codebook: Codebook
    decoder: Decoder
    meta: dict = field(default_factory=dict)
    views: ViewStore = field(default_factory=ViewStore, init=False,
                             repr=False, compare=False)

    def stored(self, key, compute):
        """compute()'s value for key, kept until an array it reads changes."""
        sources = (*self.scene.arrays(), self.codebook.entries,
                   self.decoder.weight, self.decoder.bias)
        return self.views.get(key, sources, compute)


def tau_schedule(iteration: int, cfg: TrainConfig) -> float:
    """Step annealing: tau_start until the switch iteration, then tau_end
    (a switch at or past the last iteration never happens)."""
    return cfg.tau_start if iteration < cfg.tau_switch_iter else cfg.tau_end


def init_decoder(n_entries: int, feature_dim: int, seed: int) -> Decoder:
    """Random-weight, zero-bias decoder.

    With zero-initialized features a zero weight matrix would be a fixed
    point (no gradient reaches either the features or the weights), so
    the weights start at small random values to break the symmetry.
    """
    rng = np.random.default_rng([seed, 0xDEC0])
    return Decoder(weight=rng.normal(0.0, 0.5, size=(n_entries, feature_dim)),
                   bias=np.zeros(n_entries))


def _nearest_gt_lookup(cam: Camera, gt: np.ndarray) -> np.ndarray:
    """Flat render-pixel -> flat GT-pixel index map (nearest neighbor)."""
    gh, gw = gt.shape[:2]
    rows = np.minimum((np.arange(cam.height) * gh) // cam.height, gh - 1)
    cols = np.minimum((np.arange(cam.width) * gw) // cam.width, gw - 1)
    return (rows[:, None] * gw + cols[None, :]).ravel()


def train_semantic_field(scene: Scene, dataset: Dataset, cb0: Codebook,
                         cfg: TrainConfig | None = None,
                         log=None) -> TrainedModel:
    if cfg is None:
        cfg = TrainConfig()
    if dataset.feature_dim_high != cb0.dim:
        raise ValidationError("dataset / codebook dimension mismatch")
    scene = scene.copy()
    features = scene.features.astype(np.float64)
    entries = cb0.entries.copy()
    dec = init_decoder(cb0.n_entries, scene.feature_dim, cfg.seed)
    rng = np.random.default_rng(cfg.seed)

    # geometry is frozen: each view's surface rows are gathered once
    views = []
    for cam, gt in dataset.views:
        wmat = composite_weights(scene, cam)
        alpha = np.asarray(wmat.sum(axis=1)).ravel()
        surface = np.flatnonzero(alpha > ALPHA_SURFACE)
        gt_rows = gt.reshape(-1, gt.shape[2])
        lut = _nearest_gt_lookup(cam, gt)
        views.append((wmat[surface], gt_rows[lut[surface]].astype(np.float64)))

    order = rng.permutation(len(views))
    trace = []
    for it in range(cfg.iterations):
        vi = int(order[it % len(order)])
        wrows, v_gt = views[vi]
        n_rows = wrows.shape[0]
        if n_rows == 0:
            if log:
                log(f"iteration {it}: view {vi} has no surface pixels, skipped")
            continue
        if n_rows > PIXELS_PER_ITER:
            pick = rng.choice(n_rows, size=PIXELS_PER_ITER, replace=False)
            wrows, v_gt = wrows[pick], v_gt[pick]
        fhat = wrows @ features

        tau = tau_schedule(it, cfg)
        cb = Codebook(entries=entries)
        value, grads = total_loss(v_gt, fhat, cb, dec, tau)
        if not np.isfinite(value.total):
            raise NumericError(f"non-finite training loss at iteration {it}")

        features -= cfg.lr_feature * (wrows.T @ grads.fhat)
        entries -= cfg.lr_codebook * grads.entries
        dec.weight -= cfg.lr_decoder * grads.dec_weight
        dec.bias -= cfg.lr_decoder * grads.dec_bias

        # degenerate entries are reseeded with random unit vectors
        norms = np.linalg.norm(entries, axis=1)
        dead = norms < MIN_ENTRY_NORM
        if np.any(dead):
            fresh = rng.normal(size=(int(dead.sum()), entries.shape[1]))
            entries[dead] = fresh / np.linalg.norm(fresh, axis=1, keepdims=True)

        if it % TRACE_EVERY == 0:
            trace.append([it, value.total, value.ent, value.max,
                          value.joint, value.e2e])
            if log:
                log(f"iteration {it}: loss {value.total:.6f}")

    scene.features = features.astype(np.float32)
    meta = {"config": asdict(cfg), "loss_trace": trace}
    return TrainedModel(scene=scene, codebook=Codebook(entries=entries),
                        decoder=dec, meta=meta)


# ---------------------------------------------------------------------------
# Model directory I/O
# ---------------------------------------------------------------------------

_MODEL_FILES = ("scene.gois", "codebook.goic", "decoder.goid", "meta.json")


def save_model(model: TrainedModel, directory) -> None:
    directory = Path(directory)
    save_scene(model.scene, directory / "scene.gois")
    save_codebook(model.codebook, directory / "codebook.goic")
    save_decoder(model.decoder, directory / "decoder.goid")
    write_json(directory / "meta.json", model.meta, indent=1, sort_keys=True)


def load_model(directory) -> TrainedModel:
    directory = Path(directory)
    for name in _MODEL_FILES:
        if not (directory / name).exists():
            raise ValidationError(f"model directory is missing {name}")
    scene = load_scene(directory / "scene.gois")
    cb = load_codebook(directory / "codebook.goic")
    dec = load_decoder(directory / "decoder.goid")
    meta = read_json(directory / "meta.json", "model meta.json")
    if dec.weight.shape[0] != cb.n_entries:
        raise ValidationError(
            f"decoder outputs {dec.weight.shape[0]} logits but codebook "
            f"has {cb.n_entries} entries")
    if dec.weight.shape[1] != scene.feature_dim:
        raise ValidationError(
            f"decoder input dim {dec.weight.shape[1]} does not match scene "
            f"feature dim {scene.feature_dim}")
    return TrainedModel(scene=scene, codebook=cb, decoder=dec, meta=meta)
