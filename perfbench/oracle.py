"""Oracle semantic models: a queryable model without training.

The oracle stands in for a perfectly trained field so the query and
edit workloads measure querying and editing alone. It is built only
from the public dataclasses of the ``goi`` package:

- every Gaussian's low-dimensional feature is the one-hot vector of its
  cluster label;
- the codebook holds the cluster embeddings first, then one "mixed"
  entry, then unit-norm filler entries up to ``n_entries``; all
  non-cluster entries are orthogonal to every cluster embedding;
- the decoder maps feature dimension k to entry k with weight 1, gives
  the mixed entry a constant logit of 0.5 and every filler entry a
  negative one.

A rendered pixel's feature is the vector of composited label weights,
so its hard decode is cluster k exactly when k's share is at least 0.5
and the mixed entry otherwise. That is the rule ``goi.synth.oracle_mask``
uses, so a fixed-threshold query reproduces the oracle mask wherever no
look-alike embedding sits above the threshold.
"""

from __future__ import annotations

import numpy as np

from goi.codebook import Codebook, Decoder
from goi.trainer import TrainedModel

MIXED_LOGIT = 0.5
FILLER_LOGIT = -1.0


def build_oracle_model(labeled, n_entries: int = 300,
                       seed: int = 0) -> TrainedModel:
    """Model whose hard decode reproduces a ``goi.synth.LabeledScene``."""
    emb = np.asarray(labeled.cluster_embeddings, dtype=np.float64)
    k, dim = emb.shape
    scene = labeled.scene
    if k > scene.feature_dim:
        raise ValueError(f"{k} clusters do not fit a one-hot code of "
                         f"{scene.feature_dim} dims")
    if n_entries <= k:
        raise ValueError(f"{n_entries} entries leave no mixed entry")

    features = np.zeros((len(scene), scene.feature_dim), dtype=np.float32)
    features[np.arange(len(scene)), labeled.labels] = 1.0
    model_scene = scene.copy()
    model_scene.features = features

    rng = np.random.default_rng([seed, 0x0AC1E])
    basis, _ = np.linalg.qr(emb.T)                 # (dim, k) spans the clusters
    filler = rng.normal(size=(n_entries - k, dim))
    filler -= (filler @ basis) @ basis.T
    filler /= np.linalg.norm(filler, axis=1, keepdims=True)
    codebook = Codebook(entries=np.vstack([emb, filler]))

    weight = np.zeros((n_entries, scene.feature_dim))
    weight[np.arange(k), np.arange(k)] = 1.0
    bias = np.full(n_entries, FILLER_LOGIT)
    bias[:k] = 0.0
    bias[k] = MIXED_LOGIT
    decoder = Decoder(weight=weight, bias=bias)
    return TrainedModel(scene=model_scene, codebook=codebook, decoder=decoder,
                        meta={"oracle": True})
