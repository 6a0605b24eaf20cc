"""Feature clustering codebook: entry table, affine decoder, and losses.

The codebook compresses a scene's high-dimensional semantic space into N
entries; low-dimensional per-Gaussian features reach it through a single
affine layer whose argmax logit selects an entry (entry_ids). Training
combines four terms, all computed by total_loss: a clustering
self-entropy, a best-entry cosine pull, a squared logit alignment to the
assigned entry, and an end-to-end cosine regularizer evaluated through a
softmax relaxation of the hard decode (temperature DECODE_SOFT_TEMP) so
gradients can cross the argmax.

All gradient formulas here are analytic; the test suite checks each
term, and their sum, against central finite differences. Argmax ties
always break to the lowest index. The assigned index d is a constant
under differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .formats import read_container, require_finite, write_container

CODEBOOK_MAGIC = b"GOIC"
DECODER_MAGIC = b"GOID"

DEFAULT_ENTRIES = 300
KMEANS_ITERS = 10
DECODE_SOFT_TEMP = 10.0
MIN_ENTRY_NORM = 1e-8
DECODE_CHUNK_ROWS = 4096  # rows per hard-decode chunk: O(chunk x N) logits


@dataclass
class Codebook:
    entries: np.ndarray  # (N, D_high)

    def __post_init__(self):
        self.entries = np.atleast_2d(np.asarray(self.entries, dtype=np.float64))

    @property
    def n_entries(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    def validate(self) -> None:
        if self.n_entries < 2:
            raise ValidationError("codebook needs at least 2 entries")
        if np.any(np.linalg.norm(self.entries, axis=1) < MIN_ENTRY_NORM):
            raise ValidationError("codebook contains a (near-)zero entry")


@dataclass
class Decoder:
    """Single affine layer mapping D_low features to N entry logits."""

    weight: np.ndarray  # (N, D_low)
    bias: np.ndarray    # (N,)

    def __post_init__(self):
        self.weight = np.atleast_2d(np.asarray(self.weight, dtype=np.float64))
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ValidationError("decoder weight/bias row mismatch")


@dataclass
class LossWeights:
    ent: float = 0.3
    max: float = 1.0
    joint: float = 1.0
    e2e: float = 1.0


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _normalize_rows(v: np.ndarray, name: str = "vector") -> np.ndarray:
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms < MIN_ENTRY_NORM):
        raise ValidationError(f"zero-norm {name}")
    return v / norms


def _cluster_sums(unit: np.ndarray, assign: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Row k is the sum of the rows of unit assigned to cluster k.

    A one-hot CSR (clusters x samples) product whose columns ascend
    within each row, so each sum adds its rows in sample order, bit-equal
    to np.add.at(sums, assign, unit).
    """
    indptr = np.concatenate(([0], np.cumsum(counts)))
    onehot = sparse.csr_matrix(
        (np.ones(assign.size), np.argsort(assign, kind="stable"), indptr),
        shape=(counts.size, assign.size))
    return onehot @ unit


def kmeans_init(samples: np.ndarray, n_entries: int = DEFAULT_ENTRIES,
                iters: int = KMEANS_ITERS, seed: int = 0) -> Codebook:
    """Spherical k-means over sampled ground-truth features.

    Cosine-similarity Lloyd iterations with unit-renormalized centroids;
    seeding is k-means++ style on cosine distance. An emptied cluster is
    reseeded with the sample farthest (lowest max-similarity) from all
    current centroids.
    """
    if n_entries < 2 or iters < 1:
        raise ValidationError("k-means needs at least 2 entries and 1 "
                              f"iteration, got {n_entries} and {iters}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValidationError("samples must be a 2D array")
    if samples.shape[0] < n_entries:
        raise ValidationError(
            f"need at least {n_entries} samples, got {samples.shape[0]}")
    unit = _normalize_rows(samples, "sample")
    rng = np.random.default_rng(seed)

    # k-means++ seeding on cosine distance
    m = unit.shape[0]
    centroids = np.empty((n_entries, unit.shape[1]))
    first = int(rng.integers(m))
    centroids[0] = unit[first]
    best_sim = unit @ centroids[0]
    for k in range(1, n_entries):
        dist = np.maximum(0.0, 1.0 - best_sim)
        total = dist.sum()
        if total <= 0:
            pick = int(rng.integers(m))
        else:
            pick = int(rng.choice(m, p=dist / total))
        centroids[k] = unit[pick]
        best_sim = np.maximum(best_sim, unit @ centroids[k])

    for _ in range(iters):
        sims = unit @ centroids.T
        assign = np.argmax(sims, axis=1)
        counts = np.bincount(assign, minlength=n_entries)
        sums = _cluster_sums(unit, assign, counts)
        norms = np.linalg.norm(sums, axis=1)
        empty = (counts == 0) | (norms < MIN_ENTRY_NORM)
        ok = ~empty
        centroids[ok] = sums[ok] / norms[ok, None]
        if np.any(empty):
            far = np.argsort(np.max(sims, axis=1))  # least covered first
            for j, k in zip(far, np.where(empty)[0]):
                centroids[k] = unit[j]
    return Codebook(entries=centroids)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_logits(f: np.ndarray, dec: Decoder) -> np.ndarray:
    """Entry logits e = W f + b for one feature or a batch of them."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape[-1] != dec.weight.shape[1]:
        raise ValidationError(
            f"feature dim {f.shape[-1]} does not match decoder "
            f"input dim {dec.weight.shape[1]}")
    e = f @ dec.weight.T
    e += dec.bias  # in place: no second (P, N) array
    return e


def entry_ids(f: np.ndarray, cb: Codebook, dec: Decoder) -> np.ndarray:
    """Hard decode: index of each feature's highest logit. Ties -> lowest.

    Rows are decoded DECODE_CHUNK_ROWS at a time, so memory peaks at one
    chunk's logits, not at the (P, N) logits of the whole batch.
    """
    if dec.weight.shape[0] != cb.n_entries:
        raise ValidationError(
            f"decoder has {dec.weight.shape[0]} outputs but the codebook "
            f"has {cb.n_entries} entries")
    f = np.asarray(f)
    rows = f.reshape(-1, f.shape[-1])
    ids = np.empty(rows.shape[0], dtype=np.intp)
    # one pass even for no rows, so decode_logits still checks the dim
    for start in range(0, max(rows.shape[0], 1), DECODE_CHUNK_ROWS):
        chunk = rows[start:start + DECODE_CHUNK_ROWS]
        ids[start:start + chunk.shape[0]] = np.argmax(
            decode_logits(chunk, dec), axis=-1)
    return ids.reshape(f.shape[:-1])


# ---------------------------------------------------------------------------
# Combined batched loss
# ---------------------------------------------------------------------------

def _softmax_rows(z: np.ndarray):
    """Row softmax p of z, shifting z in place by its row maxima.

    Returns (p, S) with S the row sums of exp(z), so that afterwards
    log p = z - log S.
    """
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    total = p.sum(axis=1)
    p /= total[:, None]
    return p, total


@dataclass
class LossValue:
    total: float
    ent: float
    max: float
    joint: float
    e2e: float


@dataclass
class LossGrads:
    entries: np.ndarray     # (N, D_high)
    dec_weight: np.ndarray  # (N, D_low)
    dec_bias: np.ndarray    # (N,)
    fhat: np.ndarray        # (B, D_low)


def total_loss(v_gt: np.ndarray, fhat: np.ndarray, cb: Codebook, dec: Decoder,
               tau: float, weights: LossWeights | None = None,
               temp_dec: float = DECODE_SOFT_TEMP):
    """Batch-mean combined loss with gradients for all trainable groups.

    v_gt is (B, D_high) target features, fhat is (B, D_low) rendered
    features. The e2e term decodes through softmax(temp_dec * logits) so
    its gradient reaches the decoder and the features; the assigned index
    d is held fixed. Term values are unweighted; zero the other weights
    to differentiate one term alone. Returns (LossValue, LossGrads).
    """
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
    rows = np.arange(bsz)

    u = _normalize_rows(v_gt, "target feature")              # (B, Dh)
    t = cb.entries                                           # (N, Dh)
    tn = np.linalg.norm(t, axis=1)
    if np.any(tn < MIN_ENTRY_NORM):
        raise ValidationError("zero-norm codebook entry")
    cos = u @ t.T
    cos /= tn                                                # (B, N)
    d = np.argmax(cos, axis=1)                               # assignments

    # --- entropy and best-entry terms, one chain rule through cos ---------
    g = tau * cos
    p, total = _softmax_rows(g)
    # log p = g - log S and the p sum to 1, so H = -sum(p log p) is
    # log S - sum(p g), and dH/d(tau cos) = -p (log p + H) = -p (g - sum(p g))
    pg = np.einsum("ij,ij->i", p, g)
    ent_each = np.log(total) - pg
    l_ent = float(ent_each.mean())
    l_max = float(np.mean(1.0 - cos[rows, d]))
    g -= pg[:, None]
    g *= p
    g *= -weights.ent * tau
    g[rows, d] -= weights.max                # g = dL/d(cos) (B, N)
    grad_entries = g.T @ u
    grad_entries /= tn[:, None]
    grad_entries -= (np.einsum("ij,ij->j", g, cos) / tn ** 2)[:, None] * t

    # --- logit alignment ---------------------------------------------------
    e = decode_logits(fhat, dec)                             # (B, N)
    grad_e = e.copy()
    grad_e[rows, d] -= 1.0                                   # residual r
    l_joint = float(np.mean(np.einsum("ij,ij->i", grad_e, grad_e)))
    grad_e *= weights.joint * 2.0 / bsz                      # (B, N)

    # --- end-to-end term through the soft decode ---------------------------
    e *= temp_dec
    s, _ = _softmax_rows(e)                                  # (B, N)
    v = s @ t                                                # (B, Dh)
    vn = np.linalg.norm(v, axis=1)
    if np.any(vn < MIN_ENTRY_NORM):
        raise ValidationError("soft-decoded feature collapsed to zero")
    cos_v = np.einsum("ij,ij->i", u, v) / vn
    l_e2e = float(np.mean(1.0 - cos_v))
    gv = (cos_v / vn ** 2)[:, None] * v
    gv -= u / vn[:, None]                                    # dL/dv (B, Dh)
    grad_entries += weights.e2e * (s.T @ gv)
    grad_entries /= bsz
    a = gv @ t.T                                             # (B, N)
    # the softmax Jacobian's second term, s * sum(s * a), vanishes: it is
    # gv . v, and gv is orthogonal to v since the cosine ignores |v|
    a *= s
    a *= weights.e2e * temp_dec / bsz
    grad_e += a

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


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_codebook(cb: Codebook, path) -> None:
    write_container(path, CODEBOOK_MAGIC, "II", (cb.n_entries, cb.dim),
                    cb.entries)


def load_codebook(path) -> Codebook:
    (n, dim), data = read_container(path, CODEBOOK_MAGIC, "II",
                                    lambda n, dim: n * dim * 4)
    require_finite(data, "GOIC payload")
    cb = Codebook(entries=data.reshape(n, dim).astype(np.float64))
    cb.validate()
    return cb


def save_decoder(dec: Decoder, path) -> None:
    out_dim, in_dim = dec.weight.shape
    write_container(path, DECODER_MAGIC, "II", (in_dim, out_dim),
                    dec.weight, dec.bias)


def load_decoder(path) -> Decoder:
    (in_dim, out_dim), data = read_container(
        path, DECODER_MAGIC, "II", lambda i, o: o * (i + 1) * 4)
    data = require_finite(data, "GOID payload").astype(np.float64)
    return Decoder(weight=data[:out_dim * in_dim].reshape(out_dim, in_dim),
                   bias=data[out_dim * in_dim:])
