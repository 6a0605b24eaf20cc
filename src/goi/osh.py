"""Semantic-space hyperplane: init from a text embedding, refinement.

The hyperplane starts as the normalized query embedding with bias
-threshold, so for unit-norm features "positive side" is exactly
"cosine score above threshold". A one-shot logistic regression against
a pseudo-mask (full-batch gradient descent with a monotonicity guard)
then rotates and shifts the plane to separate the target region from
look-alikes the fixed threshold cannot reject.

Features entering the plane are L2-normalized by the caller. A query
scores the N unit codebook entries, since every hard-decoded pixel and
Gaussian is one of them; the refinement still fits one sample per
valid pixel, each carrying its pixel's entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit, log_expit

from .errors import FormatError, ValidationError
from .formats import ensure_parent, read_json

MONOTONE_TOL = 1e-9
DEFAULT_THRESHOLD = 0.6  # cosine score a fixed-threshold query accepts above


@dataclass
class Hyperplane:
    weight: np.ndarray  # (D_high,)
    bias: float

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64).reshape(-1)
        self.bias = float(self.bias)
        if not np.all(np.isfinite(self.weight)) or not np.isfinite(self.bias):
            raise ValidationError("hyperplane parameters must be finite")
        if np.linalg.norm(self.weight) == 0.0:
            raise ValidationError("hyperplane weight must be non-zero")

    def to_json(self, path) -> None:
        ensure_parent(path)
        Path(path).write_text(json.dumps(
            {"weight": [float(v) for v in self.weight], "bias": self.bias}))


@dataclass
class OSHConfig:
    pos_weight: float = 0.1
    steps: int = 500
    lr: float = 5.0

    def __post_init__(self):
        if self.pos_weight <= 0 or self.steps < 1 or self.lr <= 0:
            raise ValidationError("invalid OSH configuration")


def init_hyperplane(text_embedding: np.ndarray, threshold: float) -> Hyperplane:
    """Plane whose positive side is cosine-score-above-threshold."""
    emb = np.asarray(text_embedding, dtype=np.float64).reshape(-1)
    norm = np.linalg.norm(emb)
    if norm == 0.0 or emb.size == 0:
        raise ValidationError("text embedding must be non-zero")
    return Hyperplane(weight=emb / norm, bias=-float(threshold))


def scores(h: Hyperplane, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != h.weight.shape[0]:
        raise ValidationError(
            f"feature dim {features.shape[-1]} does not match hyperplane "
            f"dim {h.weight.shape[0]}")
    return features @ h.weight + h.bias


class EmbeddingTable:
    """File-backed lookup from query text to a semantic-space embedding.

    Stands in for a text encoder: {"dim": D, "entries": [{"text": ...,
    "embedding": [...]}, ...]}.
    """

    def __init__(self, dim: int, entries: dict[str, np.ndarray]):
        self.dim = int(dim)
        self.entries = entries

    def lookup(self, text: str) -> np.ndarray:
        if text not in self.entries:
            raise ValidationError(f"no embedding for query text {text!r}")
        return self.entries[text]

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        def parse(d):
            dim = int(d["dim"])
            entries = {}
            for item in d["entries"]:
                emb = np.asarray(item["embedding"], dtype=np.float64)
                if emb.shape != (dim,):
                    raise FormatError(
                        f"embedding for {item['text']!r} has wrong length")
                entries[item["text"]] = emb
            return cls(dim, entries)
        return read_json(path, "embedding table", parse)

    def save(self, path) -> None:
        ensure_parent(path)
        Path(path).write_text(json.dumps({
            "dim": self.dim,
            "entries": [{"text": t, "embedding": [float(v) for v in e]}
                        for t, e in self.entries.items()],
        }))


def osh_loss_and_grad(weight: np.ndarray, bias: float, x: np.ndarray,
                      y: np.ndarray, pos_weight: float):
    """Weighted BCE of sigma(w.x + b) against labels y over P samples."""
    m = x @ weight + bias
    term = pos_weight * y * log_expit(m) + (1.0 - y) * log_expit(-m)
    loss = -float(term.mean())
    sig = expit(m)
    dm = -(pos_weight * y * (1.0 - sig) - (1.0 - y) * sig) / x.shape[0]
    return loss, x.T @ dm, float(dm.sum())


def finetune_osh(h0: Hyperplane, decoded_features: np.ndarray,
                 valid: np.ndarray, pseudo_mask: np.ndarray,
                 cfg: OSHConfig | None = None):
    """One-shot logistic regression of the plane against a pseudo-mask.

    Full-batch gradient descent over the valid pixels for cfg.steps
    steps; a step that would raise the loss is retried with a halved
    rate so the loss trace is monotone non-increasing. Returns the
    refined plane and the final loss.
    """
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
    lr = cfg.lr
    loss, gw, gb = osh_loss_and_grad(w, b, x, y, cfg.pos_weight)
    for _ in range(cfg.steps):
        while True:
            w_new = w - lr * gw
            b_new = b - lr * gb
            new_loss, new_gw, new_gb = osh_loss_and_grad(
                w_new, b_new, x, y, cfg.pos_weight)
            if new_loss <= loss + MONOTONE_TOL or lr < 1e-12:
                break
            lr *= 0.5
        w, b, loss, gw, gb = w_new, b_new, new_loss, new_gw, new_gb
    return Hyperplane(weight=w, bias=b), loss
