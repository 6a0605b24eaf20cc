"""Semantic-space hyperplane: init from a text embedding, refinement.

The hyperplane starts as the normalized query embedding with bias
-threshold, so for unit-norm features "positive side" is exactly
"cosine score above threshold". A one-shot logistic regression against
a pseudo-mask (full-batch gradient descent with a monotonicity guard)
then rotates and shifts the plane to separate the target region from
look-alikes the fixed threshold cannot reject.

Features entering the plane are L2-normalized by the caller. A query
scores the N unit codebook entries, since every hard-decoded pixel and
Gaussian is one of them. The refinement fits labelled rows that each
stand for a number of samples: a query passes one row per (entry,
pseudo-label) pair among its valid pixels, weighted by its pixel count,
which is the per-pixel loss summed in a different order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .errors import ValidationError
from .formats import json_is, read_json, write_json

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
        write_json(path, {"weight": [float(v) for v in self.weight],
                          "bias": self.bias})


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
    if norm == 0.0:
        raise ValidationError("text embedding must be non-zero")
    return Hyperplane(weight=emb / norm, bias=-float(threshold))


def scores(h: Hyperplane, features: np.ndarray) -> np.ndarray:
    return np.asarray(features, dtype=np.float64) @ h.weight + h.bias


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
            dim = d["dim"]
            if not json_is(int, dim):
                raise TypeError(f"dim must be an integer, got {dim!r}")
            entries = {}
            for item in d["entries"]:
                text, emb = item["text"], item["embedding"]
                if not json_is(str, text):
                    raise TypeError(f"text must be a string, got {text!r}")
                if not json_is(float, *emb):
                    raise TypeError(f"embedding for {text!r} must be numbers")
                emb = np.asarray(emb, dtype=np.float64)
                if emb.shape != (dim,):
                    raise ValueError(f"embedding for {text!r} has wrong length")
                entries[text] = emb
            return cls(dim, entries)
        return read_json(path, "embedding table", parse)

    def save(self, path) -> None:
        write_json(path, {
            "dim": self.dim,
            "entries": [{"text": t, "embedding": [float(v) for v in e]}
                        for t, e in self.entries.items()],
        })


def label_factors(counts: np.ndarray, y: np.ndarray, pos_weight: float):
    """What the loss needs of the labels: (counts, pos_weight * y, 1 - y,
    counts.sum()), fixed for a whole fit."""
    return counts, pos_weight * y, 1.0 - y, counts.sum()


def osh_loss_and_grad(weight: np.ndarray, bias: float, x: np.ndarray,
                      labels: tuple):
    """Weighted BCE of sigma(w.x + b) against labels y.

    labels is label_factors(counts, y, pos_weight): row i of x stands for
    counts[i] samples, and the loss and its gradients are means over all
    counts.sum() samples.
    """
    counts, pos, neg, n = labels
    m = x @ weight + bias
    term = pos * log_expit(m) + neg * log_expit(-m)
    loss = -float(np.sum(counts * term) / n)
    sig = expit(m)
    dm = -(counts * (pos * (1.0 - sig) - neg * sig)) / n
    return loss, x.T @ dm, float(dm.sum())


def finetune_osh(h0: Hyperplane, x: np.ndarray, counts: np.ndarray,
                 y: np.ndarray, cfg: OSHConfig | None = None):
    """One-shot logistic regression of the plane against labelled rows.

    Row i of x is a feature with pseudo-label y[i] (1 inside the target
    region) that stands for counts[i] > 0 samples. Full-batch gradient
    descent for cfg.steps steps; a step that would raise the loss is
    retried with a halved rate so the loss trace is monotone
    non-increasing. Returns the refined plane and the final loss.
    """
    if cfg is None:
        cfg = OSHConfig()
    x = np.asarray(x, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValidationError("no valid pixels to fit the hyperplane on")

    w = h0.weight.copy()
    b = h0.bias
    lr = cfg.lr
    labels = label_factors(counts, y, cfg.pos_weight)
    loss, gw, gb = osh_loss_and_grad(w, b, x, labels)
    for _ in range(cfg.steps):
        while True:
            w_new = w - lr * gw
            b_new = b - lr * gb
            new_loss, new_gw, new_gb = osh_loss_and_grad(w_new, b_new, x,
                                                         labels)
            if new_loss <= loss + MONOTONE_TOL or lr < 1e-12:
                break
            lr *= 0.5
        w, b, loss, gw, gb = w_new, b_new, new_loss, new_gw, new_gb
    return Hyperplane(weight=w, bias=b), loss
