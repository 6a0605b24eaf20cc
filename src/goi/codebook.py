"""Feature clustering codebook: entry table, affine decoder, and losses.

The codebook compresses a scene's high-dimensional semantic space into N
entries; low-dimensional per-Gaussian features reach it through a single
affine layer whose argmax logit selects an entry (entry_ids). Training
combines four terms, all computed by total_loss: a clustering
self-entropy, a best-entry cosine pull, a squared logit alignment to the
assigned entry, and an end-to-end cosine regularizer evaluated through a
softmax relaxation of the hard decode (temperature DECODE_SOFT_TEMP) so
gradients can cross the argmax. That last term is evaluated in entry
space, through the cosines of the B rows to the N entries and the N x N
Gram matrix of the entries, so a batch's (B, D_high) targets enter two
products only.

total_loss holds each per-row, per-entry array entry-major, as (N, B):
every reduction over the entries (softmax, argmax, row dots) then runs
down axis 0, combining N contiguous rows of length B. A scene's
codebook holds few entries (N = 4-8 on the presets) against hundreds of
rows, and numpy reduces a short last axis far slower, per row, than it
combines long rows.

All gradient formulas here are analytic; the test suite checks each
term, and their sum, against central finite differences. Argmax ties
always break to the lowest index. The assigned index d is a constant
under differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import NumericError, ValidationError
from .formats import read_container, require_finite, write_container

CODEBOOK_MAGIC = b"GOIC"
DECODER_MAGIC = b"GOID"

DEFAULT_ENTRIES = 300  # a cap; k-means seeds until COVER_COSINE is met
COVER_COSINE = 0.9  # above synth.DISTRACTOR_COSINE, below noisy-sample 0.99
KMEANS_ITERS = 10
DECODE_SOFT_TEMP = 10.0
MIN_ENTRY_NORM = 1e-8
DECODE_CHUNK_ROWS = 4096  # rows per hard-decode chunk: O(chunk x N) logits


@dataclass(eq=False)
class Codebook:
    """At least 2 entries, none of them (near-)zero."""

    entries: np.ndarray  # (N, D_high)

    def __post_init__(self):
        self.entries = np.atleast_2d(np.asarray(self.entries, dtype=np.float64))
        if self.n_entries < 2:
            raise ValidationError("codebook needs at least 2 entries")
        if not np.isfinite(self.entries).all():
            raise ValidationError("codebook contains a non-finite entry")
        if np.any(np.linalg.norm(self.entries, axis=1) < MIN_ENTRY_NORM):
            raise ValidationError("codebook contains a (near-)zero entry")

    @property
    def n_entries(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass(eq=False)
class Decoder:
    """Single affine layer mapping D_low features to N entry logits."""

    weight: np.ndarray  # (N, D_low)
    bias: np.ndarray    # (N,)

    def __post_init__(self):
        self.weight = np.atleast_2d(np.asarray(self.weight, dtype=np.float64))
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ValidationError("decoder weight/bias row mismatch")
        if not (np.isfinite(self.weight).all()
                and np.isfinite(self.bias).all()):
            raise ValidationError("decoder contains a non-finite value")


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
    """Unit float64 rows of v, in the one array this allocates.

    The array first holds v's float64 squares, whose sums give the norms
    as np.linalg.norm takes them, and then the quotient v / norms.
    """
    with np.errstate(over="ignore"):  # a finite row may square or sum to inf
        out = np.square(v, dtype=np.float64)
        norms = np.sqrt(np.add.reduce(out, axis=-1, keepdims=True))
    if not np.all(norms >= MIN_ENTRY_NORM):
        raise ValidationError(f"zero-norm {name}")
    if not np.all(norms < np.inf):
        raise ValidationError(f"non-finite {name}" if not np.isfinite(v).all()
                              else f"{name} norm overflows {norms.dtype}")
    return np.divide(v, norms, out=out)


def kmeans_init(samples: np.ndarray, n_entries: int = DEFAULT_ENTRIES,
                iters: int = KMEANS_ITERS, seed: int = 0) -> Codebook:
    """Spherical k-means over sampled ground-truth feature rows.

    The rows may be of any float dtype; k-means works on their unit
    float64 copy.

    k-means++ seeding on cosine distance stops once every sample has a
    seed within cosine COVER_COSINE, so n_entries is only a cap, and
    samples that the first seed covers are a data error. Cosine Lloyd
    iterations then renormalize the centroids. An emptied cluster is
    reseeded with the sample farthest (lowest max-similarity) from all
    current centroids. Lloyd stops early at its fixed point: a step
    whose assignment equals the previous step's, when that step reseeded
    no cluster, would compute the same centroids again, bit for bit.
    """
    if n_entries < 2 or iters < 1:
        raise ValidationError("k-means needs at least 2 entries and 1 "
                              f"iteration, got {n_entries} and {iters}")
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValidationError("samples must be a 2D array")
    if samples.shape[0] < 2:
        raise ValidationError(
            f"need at least 2 samples, got {samples.shape[0]}")
    unit = _normalize_rows(samples, "sample")
    del samples  # the caller's rows: only unit is used below
    rng = np.random.default_rng(seed)

    # an uncovered sample keeps the distances' sum above 1 - COVER_COSINE
    m = unit.shape[0]
    seeds = [int(rng.integers(m))]
    best_sim = unit @ unit[seeds[0]]
    if best_sim.min() >= COVER_COSINE:
        raise ValidationError(
            "samples hold one distinct feature (all within cosine "
            f"{COVER_COSINE} of one sample); a codebook needs 2 entries")
    while len(seeds) < n_entries and best_sim.min() < COVER_COSINE:
        dist = np.maximum(0.0, 1.0 - best_sim)
        seeds.append(int(rng.choice(m, p=dist / dist.sum())))
        best_sim = np.maximum(best_sim, unit @ unit[seeds[-1]])
    centroids = unit[seeds]

    # COO -> CSR is a stable sort by row, so each sum adds its rows in
    # sample order, bit-equal to np.add.at; an empty cluster sums to 0
    ones, cols = np.ones(m), np.arange(m)
    last = None  # the previous step's assignment, if it reseeded nothing
    for _ in range(iters):
        sims = unit @ centroids.T
        assign = np.argmax(sims, axis=1)
        if last is not None and np.array_equal(assign, last):
            break  # the same sums, so the same centroids, at every step
        sums = sparse.csr_matrix((ones, (assign, cols)),
                                 shape=(len(seeds), m)) @ unit
        norms = np.linalg.norm(sums, axis=1)
        empty = norms < MIN_ENTRY_NORM
        centroids[~empty] = sums[~empty] / norms[~empty, None]
        last = assign
        if np.any(empty):
            far = np.argsort(np.max(sims, axis=1))  # least covered first
            centroids[empty] = unit[far[:empty.sum()]]
            last = None
    return Codebook(entries=centroids)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_logits(f: np.ndarray, dec: Decoder) -> np.ndarray:
    """Entry logits e = W f + b for one feature or a batch of them."""
    e = np.asarray(f, dtype=np.float64) @ dec.weight.T
    e += dec.bias  # in place: no second (P, N) array
    return e


def entry_ids(f: np.ndarray, dec: Decoder) -> np.ndarray:
    """Hard decode: index of each feature's highest logit. Ties -> lowest.

    Rows are decoded DECODE_CHUNK_ROWS at a time, so memory peaks at one
    chunk's logits, not at the (P, N) logits of the whole batch.
    """
    f = np.asarray(f)
    rows = f.reshape(-1, f.shape[-1])
    ids = np.empty(rows.shape[0], dtype=np.intp)
    for start in range(0, rows.shape[0], DECODE_CHUNK_ROWS):
        chunk = rows[start:start + DECODE_CHUNK_ROWS]
        ids[start:start + chunk.shape[0]] = np.argmax(
            decode_logits(chunk, dec), axis=-1)
    return ids.reshape(f.shape[:-1])


# ---------------------------------------------------------------------------
# Combined batched loss
# ---------------------------------------------------------------------------

def _softmax_cols(z: np.ndarray):
    """Column softmax p of z, shifting z in place by its column maxima.

    Returns (p, S) with S the column sums of exp(z), so that afterwards
    log p = z - log S.
    """
    z -= z.max(axis=0)
    p = np.exp(z)
    total = p.sum(axis=0)
    p /= total
    return p, total


@dataclass
class LossValue:
    total: float
    ent: float
    max: float
    joint: float
    e2e: float


@dataclass(eq=False)
class LossGrads:
    entries: np.ndarray     # (N, D_high)
    dec_weight: np.ndarray  # (N, D_low)
    dec_bias: np.ndarray    # (N,)
    fhat: np.ndarray        # (B, D_low)


def total_loss(v_gt: np.ndarray, fhat: np.ndarray, cb: Codebook, dec: Decoder,
               tau: float, weights: LossWeights | None = None,
               temp_dec: float = DECODE_SOFT_TEMP):
    """Batch-mean combined loss with gradients for all trainable groups.

    v_gt is (B, D_high) target features of unit length, used as given
    (the trainer normalizes each view's rows once, with _normalize_rows).
    fhat is (B, D_low) rendered features. The e2e term decodes through
    softmax(temp_dec * logits) so its gradient reaches the decoder and
    the features; the assigned index d is held fixed. Term values are
    unweighted; zero the other weights to differentiate one term alone.
    B >= 1 and both temperatures are positive: the trainer skips empty
    views and TrainConfig rejects a tau <= 0. Returns (LossValue, LossGrads).

    Every (B, N) quantity (cosines, logits, both softmaxes) is held as a
    contiguous (N, B) array, so the reductions over the N entries run
    down axis 0 along rows of length B; see the module docstring.

    The soft-decoded feature v = s t is never formed: the e2e term is
    evaluated in entry space, from t u^T and the Gram matrix G = t t^T,
    so the (B, D_high) targets meet only two products: u @ t.T and one
    (N, B) x (B, D_high) product. Its precision degrades as |v| << |t|,
    where entries cancel in the mixture: |v|^2 = s^T G s then loses about
    (|t| / |v|)^2 of its relative precision, and so do the gradients
    (~4e-14 relative at |v| / |t| = 0.1, ~1e-9 at 1e-3). A |v|^2 below
    MIN_ENTRY_NORM^2, negative or NaN raises NumericError.
    """
    if weights is None:
        weights = LossWeights()
    u = np.atleast_2d(np.asarray(v_gt, dtype=np.float64))   # (B, Dh)
    fhat = np.atleast_2d(np.asarray(fhat, dtype=np.float64))
    bsz = u.shape[0]
    cols = np.arange(bsz)

    t = cb.entries                                           # (N, Dh)
    tn = np.linalg.norm(t, axis=1)
    if not np.all(tn >= MIN_ENTRY_NORM):
        raise NumericError("zero-norm codebook entry")
    # t u^T, written through its transpose: OpenBLAS forms u @ (t^T laid
    # out contiguously) faster than t @ u.T with u read transposed
    ut = np.empty((len(t), bsz))                             # (N, B)
    np.matmul(u, np.ascontiguousarray(t.T), out=ut.T)
    cos = ut / tn[:, None]
    # assignments: each column's first maximum, as np.argmax(cos, axis=0)
    # finds it; argmax over axis 0 copies its input transposed, and this
    # bool copy is an eighth the size of cos's
    best = cos.max(axis=0)
    d = np.argmax(cos == best, axis=0)

    # --- entropy and best-entry terms, one chain rule through cos ---------
    g = tau * cos
    p, total = _softmax_cols(g)
    # log p = g - log S and the p sum to 1, so H = -sum(p log p) is
    # log S - sum(p g), and dH/d(tau cos) = -p (log p + H) = -p (g - sum(p g))
    pg = np.einsum("ij,ij->j", p, g)
    ent_each = np.log(total) - pg
    # each batch mean is sum / B: np.mean's bits, without its call overhead
    l_ent = float(ent_each.sum()) / bsz
    l_max = float(np.sum(1.0 - best)) / bsz
    g -= pg
    g *= p
    g *= -weights.ent * tau
    g[d, cols] -= weights.max                # g = dL/d(cos) (N, B)

    # --- logit alignment ---------------------------------------------------
    grad_e = decode_logits(fhat, dec).T.copy()               # (N, B)
    z = grad_e * temp_dec                    # the soft decode's logits
    grad_e[d, cols] -= 1.0                                   # residual r
    l_joint = float(np.einsum("ij,ij->j", grad_e, grad_e).sum()) / bsz
    grad_e *= weights.joint * 2.0 / bsz                      # (N, B)

    # --- end-to-end term through the soft decode, in entry space -----------
    # u.v = sum(s * t u^T), |v|^2 = s^T G s, and dL/dv = alpha v - u / |v|
    # with alpha = cos_v / |v|^2 reaches t and e through s and G alone
    s, _ = _softmax_cols(z)                                  # (N, B)
    sg = (t @ t.T) @ s                                       # (N, B)
    vn2 = np.einsum("ij,ij->j", sg, s)
    # |v|^2 cancels when entries oppose: rounding can take it below 0
    if not np.all(vn2 >= MIN_ENTRY_NORM ** 2):
        raise NumericError("soft-decoded feature collapsed to zero")
    vn = np.sqrt(vn2)
    cos_v = np.einsum("ij,ij->j", s, ut) / vn
    l_e2e = float(np.sum(1.0 - cos_v)) / bsz
    alpha = cos_v / vn2
    # dL/dt = (g / |t| - w s / |v|) u
    #        + [w s diag(alpha) s^T - diag(sum(g cos) / |t|^2)] t
    mix = (weights.e2e * alpha * s) @ s.T                    # (N, N)
    # einsum("ii->i") is a writable view of mix's diagonal
    np.einsum("ii->i", mix)[:] -= np.einsum("ij,ij->i", g, cos) / tn ** 2
    g /= tn[:, None]
    g -= weights.e2e * s / vn
    grad_entries = g @ u                     # the one (N, B) x (B, Dh) product
    grad_entries += mix @ t
    grad_entries /= bsz
    # a = t dL/dv; the softmax Jacobian's second term, s * sum(s * a),
    # vanishes: it is dL/dv . v, and dL/dv is orthogonal to v since the
    # cosine ignores |v|
    a = alpha * sg
    a -= ut / vn
    a *= s
    a *= weights.e2e * temp_dec / bsz
    grad_e += a

    value = LossValue(
        total=(weights.ent * l_ent + weights.max * l_max
               + weights.joint * l_joint + weights.e2e * l_e2e),
        ent=l_ent, max=l_max, joint=l_joint, e2e=l_e2e)
    grads = LossGrads(
        entries=grad_entries,
        dec_weight=grad_e @ fhat,
        dec_bias=grad_e.sum(axis=1),
        fhat=grad_e.T @ dec.weight)
    return value, grads


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_codebook(cb: Codebook, path) -> None:
    write_container(path, CODEBOOK_MAGIC, "II", (cb.n_entries, cb.dim),
                    cb.entries)


def load_codebook(path) -> Codebook:
    def build(data, n, dim):
        require_finite(data, "GOIC payload")
        return Codebook(entries=data.reshape(n, dim).astype(np.float64))
    return read_container(path, CODEBOOK_MAGIC, "II",
                          lambda n, dim: n * dim * 4, build)


def save_decoder(dec: Decoder, path) -> None:
    out_dim, in_dim = dec.weight.shape
    write_container(path, DECODER_MAGIC, "II", (in_dim, out_dim),
                    dec.weight, dec.bias)


def load_decoder(path) -> Decoder:
    def build(data, in_dim, out_dim):
        data = require_finite(data, "GOID payload").astype(np.float64)
        return Decoder(weight=data[:out_dim * in_dim].reshape(out_dim, in_dim),
                       bias=data[out_dim * in_dim:])
    return read_container(path, DECODER_MAGIC, "II",
                          lambda i, o: o * (i + 1) * 4, build)
