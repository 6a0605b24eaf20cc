"""Semantic-space hyperplane: init from a text embedding, refinement.

The hyperplane starts as the normalized query embedding with bias
-threshold, so for unit-norm features "positive side" is exactly
"cosine score above threshold". A one-shot logistic regression against
a pseudo-mask (full-batch gradient descent at one rate per fit) then
rotates and shifts the plane to separate the target region from
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
of the samples and, inside, by POS_WEIGHT. Gradient descent never
leaves the rows' span, so the fit iterates on the margins m = rows @ wb
instead of on wb. Its state stacks the negated margins on the running
sum of the gradients in m, and one (2R x R) product, with the
rate-scaled Gram matrix over an identity and the per-row weights folded
into its columns, moves both from sigma(-m); a step is that product,
one add and one expit. The plane itself is formed, and the loss
evaluated, once after the last step.

The loss's Hessian in wb is at most rows.T W rows / 4 for the per-row
weights W, so by the descent lemma (Nesterov, Introductory Lectures on
Convex Optimization, 2004, 1.2.3) a step at rate lr cannot raise the
loss while lr times a Gershgorin bound on that matrix's top eigenvalue
(hessian_bound) is at most 2. The fit steps at STEP_RATE, or at 2 over
the bound where that is lower, so no step needs the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .errors import EmptyFitError, ValidationError
from .formats import check_fields, json_is, read_json, write_json

POS_WEIGHT = 0.1  # a sample's weight inside the pseudo-mask; 1 outside
STEP_RATE = 5.0  # the fit's gradient step size, unless the bound caps it
DEFAULT_THRESHOLD = 0.6  # cosine score a fixed-threshold query accepts above


@dataclass(eq=False)
class Hyperplane:
    weight: np.ndarray  # (D_high,)
    bias: float

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64).reshape(-1)
        self.bias = float(self.bias)
        if not np.all(np.isfinite(self.weight)) or not np.isfinite(self.bias):
            raise ValidationError("hyperplane parameters must be finite")
        with np.errstate(over="ignore"):  # a finite weight's norm may overflow
            if not 0.0 < np.linalg.norm(self.weight) < np.inf:
                raise ValidationError(
                    "hyperplane weight must be non-zero with a finite norm")

    def to_json(self, path) -> None:
        write_json(path, {"weight": [float(v) for v in self.weight],
                          "bias": self.bias})


@dataclass
class OSHConfig:
    steps: int = 500

    def __post_init__(self):
        check_fields(self)
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")


def init_hyperplane(text_embedding: np.ndarray, threshold: float) -> Hyperplane:
    """Plane whose positive side is cosine-score-above-threshold."""
    h = Hyperplane(weight=text_embedding, bias=-float(threshold))
    h.weight = h.weight / np.linalg.norm(h.weight)  # not /=: may alias emb
    return h


def scores(h: Hyperplane, features: np.ndarray) -> np.ndarray:
    return np.asarray(features, dtype=np.float64) @ h.weight + h.bias


class EmbeddingTable:
    """File-backed lookup from query text to a semantic-space embedding.

    Stands in for a text encoder: {"dim": D, "entries": [{"text": ...,
    "embedding": [...]}, ...]}, with D >= 1 and each embedding D numbers
    of a non-zero, finite norm, which the constructor checks.
    """

    def __init__(self, dim: int, entries: dict[str, np.ndarray]):
        if not json_is(int, dim):
            raise TypeError(f"dim must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.entries = {}
        for text, emb in entries.items():
            if not json_is(float, *emb):
                raise TypeError(f"embedding for {text!r} must be numbers")
            emb = np.asarray(emb, dtype=np.float64)
            if emb.shape != (dim,):
                raise ValueError(f"embedding for {text!r} has wrong length")
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(emb)
            if not np.isfinite(norm):
                raise ValueError(f"embedding for {text!r} has a norm "
                                 "that overflows float64")
            if norm == 0.0:
                raise ValueError(f"embedding for {text!r} has zero norm")
            self.entries[text] = emb

    def lookup(self, text: str) -> np.ndarray:
        if text not in self.entries:
            raise ValidationError(f"no embedding for query text {text!r}")
        return self.entries[text]

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        def parse(d):
            dim, entries = d["dim"], {}
            for item in d["entries"]:
                text = item["text"]
                if not json_is(str, text):
                    raise TypeError(f"text must be a string, got {text!r}")
                if text in entries:
                    raise ValueError(f"repeated embedding text {text!r}")
                entries[text] = item["embedding"]
            return cls(dim, entries)
        return read_json(path, "embedding table", parse)

    def save(self, path) -> None:
        write_json(path, {
            "dim": self.dim,
            "entries": [{"text": t, "embedding": [float(v) for v in e]}
                        for t, e in self.entries.items()],
        })


def label_factors(x: np.ndarray, neg: np.ndarray, pos: np.ndarray):
    """The fit's signed rows and per-row weights, fixed for a whole fit.

    Row i of x stands for neg[i] of the n = neg.sum() + pos.sum()
    samples outside the target and pos[i] inside it. The rows are
    [x_i | 1] for each pos_i > 0, weighted POS_WEIGHT * pos_i / n, then
    -[x_i | 1] for each neg_i > 0, weighted neg_i / n, each in row
    order; a zero count builds no row. Returns (rows, weights).
    """
    p, q = np.flatnonzero(pos), np.flatnonzero(neg)
    rows = np.column_stack([x[np.concatenate([p, q])],
                            np.ones(p.size + q.size)])
    rows[p.size:] *= -1.0
    weights = np.concatenate([POS_WEIGHT * pos[p], neg[q]])
    return rows, weights / (neg.sum() + pos.sum())


def osh_loss_and_grad(m: np.ndarray, weights: np.ndarray):
    """Weighted BCE of the fit's margins and its gradient in them.

    m = rows @ wb are the margins of the augmented plane wb = (w, b) on
    the rows of label_factors(x, neg, pos), whose weights
    are given: w.x + b on a positive row and its negation on a negative
    one. The loss -sum_j weights_j log sigma(m_j) is the mean BCE over
    all samples, taken from log_expit, free of cancellation at any
    margin. Its gradient in m is -weights * sigma(-m), the formula
    finetune_osh folds into its step; the gradient in wb is
    rows.T @ dL/dm. Returns (loss, dL/dm).
    """
    return -float(weights @ log_expit(m)), -weights * expit(-m)


def hessian_bound(gram: np.ndarray, weights: np.ndarray) -> float:
    """A bound on the top eigenvalue of the loss's Hessian in wb.

    gram = rows @ rows.T for the fit's signed rows and weights their
    per-row weights W. The Hessian, rows.T diag(W sigma (1 - sigma))
    rows, is at most rows.T W rows / 4, whose top eigenvalue is that of
    sqrt(W) gram sqrt(W) / 4; the bound is that matrix's largest
    Gershgorin row sum, max_i sum_j |sqrt(w_i) G_ij sqrt(w_j)| / 4, in
    R^2 operations for R rows.
    """
    root = np.sqrt(weights)
    return float(np.max(root * (np.abs(gram) @ root))) / 4.0


def finetune_osh(h0: Hyperplane, x: np.ndarray, neg: np.ndarray,
                 pos: np.ndarray, cfg: OSHConfig | None = None):
    """One-shot logistic regression of the plane against counted rows.

    Row i of the finite (N, D) features x stands for neg[i] samples
    outside the target region and pos[i] inside it; the counts are
    finite and non-negative, and D is the plane's dimension. Full-batch
    gradient descent for cfg.steps steps at one rate, chosen once per fit
    from hessian_bound(G, weights) with G below: STEP_RATE where STEP_RATE
    times the bound is below 2, else 2 over the bound, so by the descent
    lemma no step raises the loss. Returns the refined plane and the
    loss.

    The loop carries y = [-m; s], the negated margins of the R signed
    rows stacked on the sum s of their gradients g = -weights * sigma(-m):
    a step wb -= lr * rows.T @ g moves m by lr * G @ g, G = rows @ rows.T,
    so y moves by move @ sigma(-m) with move = [lr G; I] * -weights, built
    once. The plane wb0 - rows.T @ (lr * s) is formed once. A step costs
    one (2 R x R) product and one expit of R values, against 2 R (D + 1)
    multiply-adds on wb; a query's fit has at most 2 N rows for N codebook
    entries, so the margin step does less arithmetic while R < D + 1.
    """
    if cfg is None:
        cfg = OSHConfig()
    x, neg, pos = (np.asarray(a, dtype=np.float64) for a in (x, neg, pos))
    dim = h0.weight.size
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValidationError(f"OSH features must be an (N, {dim}) array "
                              f"for a {dim}-D plane, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("OSH features must be finite")
    if neg.shape != (len(x),) or pos.shape != (len(x),):
        raise ValidationError(
            f"OSH counts must be two 1-D arrays of {len(x)} values, one per "
            f"feature row, got shapes {neg.shape} and {pos.shape}")
    if not (np.isfinite(neg).all() and np.isfinite(pos).all()
            and (neg >= 0.0).all() and (pos >= 0.0).all()):
        raise ValidationError("OSH counts must be finite and non-negative")
    with np.errstate(over="ignore"):
        total = neg.sum() + pos.sum()
    if not np.isfinite(total):
        raise ValidationError("OSH counts' total overflows float64")
    if total == 0.0:
        raise EmptyFitError("no valid pixels to fit the hyperplane on")
    rows, weights = label_factors(x, neg, pos)
    wb = np.append(h0.weight, h0.bias)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows @ rows.T
        bound = hessian_bound(gram, weights)
    if not np.isfinite(bound):
        raise ValidationError("OSH features are too large: their Gram "
                              "matrix overflows float64")
    lr = STEP_RATE if STEP_RATE * bound < 2.0 else 2.0 / bound
    r = len(rows)
    move = np.vstack([lr * gram, np.eye(r)]) * -weights
    y = np.concatenate([-(rows @ wb), np.zeros(r)])   # [-m; s]
    neg_m = y[:r]
    e, d = expit(neg_m), np.empty_like(y)
    for _ in range(cfg.steps):
        np.matmul(move, e, out=d)
        y += d
        expit(neg_m, out=e)
    wb -= rows.T @ (lr * y[r:])
    return (Hyperplane(weight=wb[:-1], bias=wb[-1]),
            osh_loss_and_grad(-neg_m, weights)[0])
