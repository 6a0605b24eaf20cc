"""Semantic-space hyperplane: init from a text embedding, refinement.

The hyperplane starts as the normalized query embedding with bias
-threshold, so for unit-norm features "positive side" is exactly
"cosine score above threshold". A one-shot logistic regression against
a pseudo-mask (full-batch gradient descent with a monotonicity guard)
then rotates and shifts the plane to separate the target region from
look-alikes the fixed threshold cannot reject.

Features entering the plane are L2-normalized by the caller. A query
scores the N unit codebook entries, since every hard-decoded pixel and
Gaussian is one of them. The refinement fits rows that each stand for
two counts of samples, those outside the target and those inside it: a
query passes every entry with its valid pixels outside and inside the
pseudo-mask, which is the per-pixel loss summed in a different order.

The fit folds the bias into the plane, wb = (w, b), and builds its rows
and per-row weights once (label_factors): a row counted inside becomes
[x | 1], one counted outside its negation, each weighted by its share
of the samples and, inside, by pos_weight. Each loss evaluation is then
one product in, one log_expit, one expm1 and one product out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_expit

from .errors import EmptyFitError, ValidationError
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
                with np.errstate(over="ignore"):
                    if not np.isfinite(np.linalg.norm(emb)):
                        raise ValueError(f"embedding for {text!r} has a norm "
                                         "that overflows float64")
                if text in entries:
                    raise ValueError(f"repeated embedding text {text!r}")
                entries[text] = emb
            return cls(dim, entries)
        return read_json(path, "embedding table", parse)

    def save(self, path) -> None:
        write_json(path, {
            "dim": self.dim,
            "entries": [{"text": t, "embedding": [float(v) for v in e]}
                        for t, e in self.entries.items()],
        })


def label_factors(x: np.ndarray, neg: np.ndarray, pos: np.ndarray,
                  pos_weight: float):
    """The fit's signed rows and per-row weights, fixed for a whole fit.

    Row i of x stands for neg[i] of the n = neg.sum() + pos.sum()
    samples outside the target and pos[i] inside it. The rows are
    [x_i | 1] for each pos_i > 0, weighted pos_weight * pos_i / n, then
    -[x_i | 1] for each neg_i > 0, weighted neg_i / n, each in row
    order; a zero count builds no row. Returns (rows, weights).
    """
    p, q = np.flatnonzero(pos), np.flatnonzero(neg)
    rows = np.column_stack([x[np.concatenate([p, q])],
                            np.ones(p.size + q.size)])
    rows[p.size:] *= -1.0
    weights = np.concatenate([pos_weight * pos[p], neg[q]])
    return rows, weights / (neg.sum() + pos.sum())


def osh_loss_and_grad(wb: np.ndarray, rows: np.ndarray, weights: np.ndarray):
    """Weighted BCE of the augmented plane wb = (w, b) and its gradient.

    rows and weights are label_factors(x, neg, pos, pos_weight). Row j
    scores m_j = rows[j] . wb, which is w.x + b on a positive row and its
    negation on a negative one, so the loss -sum_j weights_j log sigma(m_j)
    is the mean BCE over all samples, free of cancellation at any margin.
    The gradient -rows.T @ (weights * sigma(-m)) takes sigma(-m) =
    -expm1(log sigma(m)) from the same log_expit. Returns (loss, grad).
    """
    log_sig = log_expit(rows @ wb)
    return -float(weights @ log_sig), rows.T @ (weights * np.expm1(log_sig))


def finetune_osh(h0: Hyperplane, x: np.ndarray, neg: np.ndarray,
                 pos: np.ndarray, cfg: OSHConfig | None = None):
    """One-shot logistic regression of the plane against counted rows.

    Row i of x is a feature that stands for neg[i] samples outside the
    target region and pos[i] inside it. Full-batch gradient descent for
    cfg.steps steps; a step that would raise the loss is retried with a
    halved rate so the loss trace is monotone non-increasing. Returns
    the refined plane and the final loss.
    """
    if cfg is None:
        cfg = OSHConfig()
    x, neg, pos = (np.asarray(a, dtype=np.float64) for a in (x, neg, pos))
    if not (neg.any() or pos.any()):
        raise EmptyFitError("no valid pixels to fit the hyperplane on")
    rows, weights = label_factors(x, neg, pos, cfg.pos_weight)
    wb = np.append(h0.weight, h0.bias)
    lr = cfg.lr
    loss, g = osh_loss_and_grad(wb, rows, weights)
    for _ in range(cfg.steps):
        while True:
            wb_new = wb - lr * g
            new_loss, new_g = osh_loss_and_grad(wb_new, rows, weights)
            if new_loss <= loss + MONOTONE_TOL or lr < 1e-12:
                break
            lr *= 0.5
        wb, loss, g = wb_new, new_loss, new_g
    return Hyperplane(weight=wb[:-1], bias=wb[-1]), loss
