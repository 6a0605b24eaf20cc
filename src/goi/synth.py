"""Synthetic labeled scenes and oracle supervision.

Everything a real pipeline would get from 2D foundation models is
produced here with known ground truth: spatially separated Gaussian
blobs with per-cluster unit embeddings (pairwise near-orthogonal by
rejection sampling), per-view pseudo ground-truth feature maps with
independently redrawn noise (the stand-in for encoder multi-view
inconsistency), oracle target masks, and a text-to-embedding table.

All generators are deterministic functions of (preset, seed, view id).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .formats import write_feature_map, write_json, write_mask
from .osh import EmbeddingTable
from .rasterizer import composite_weights
from .scene import (DEFAULT_FEATURE_DIM, Camera, Scene, look_at_camera,
                    save_camera, save_scene)
from .trainer import Dataset

BLOB_RADIUS = 0.5
MIN_CENTER_SPACING = 4.0 * BLOB_RADIUS
EMBED_DIM = 256
MAX_PAIRWISE_COS = 0.3
DISTRACTOR_COSINE = 0.8
ORBIT_RADIUS = 8.0
REJECTION_TRIES = 10_000
IMAGE_SIZE = 64         # width and height of the orbit views, in pixels
GT_NOISE_SIGMA = 0.1    # expected norm of the per-view GT feature noise
N_TRAIN_VIEWS = 20      # views an experiment directory trains on
N_EVAL_VIEWS = 3        # held-out views it evaluates on
EMBEDDINGS_FILE = "embeddings.json"  # its embedding table, beside the test set
# uniform ranges of a blob Gaussian's scales, opacity and cluster colour
BLOB_SCALES = (0.06, 0.12)
BLOB_OPACITY = (0.35, 0.55)
BLOB_RGB = (0.2, 0.9)


@dataclass
class LabeledScene:
    scene: Scene
    labels: np.ndarray              # (G,) cluster id per Gaussian
    cluster_embeddings: np.ndarray  # (K, D_high) unit rows
    label_names: list
    cluster_centers: np.ndarray     # (K, 3)
    background_embedding: np.ndarray  # (D_high,) unit, for empty pixels


def _sample_embeddings(rng: np.random.Generator, count: int,
                       dim: int) -> np.ndarray:
    """Unit vectors with pairwise |cosine| <= MAX_PAIRWISE_COS."""
    out = np.zeros((count, dim))
    n = 0
    for _ in range(REJECTION_TRIES):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if n == 0 or np.max(np.abs(out[:n] @ v)) <= MAX_PAIRWISE_COS:
            out[n] = v
            n += 1
            if n == count:
                return out
    raise ValidationError("embedding rejection sampling failed")


def _random_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _shell_offsets(rng: np.random.Generator, n: int) -> np.ndarray:
    """Offsets on a jittered sphere of roughly BLOB_RADIUS."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    radii = BLOB_RADIUS * rng.uniform(0.85, 1.0, size=(n, 1))
    return d * radii


def generate_scene(preset: str = "blocks", n_clusters: int = 5,
                   gaussians_per_cluster: int = 200, seed: int = 0,
                   feature_dim: int = DEFAULT_FEATURE_DIM,
                   embed_dim: int = EMBED_DIM) -> LabeledScene:
    """Labeled multi-blob scene with well-separated cluster embeddings.

    "blocks" scatters each cluster's Gaussians on a jittered spherical
    shell around its center, "rings" lays them on a circle around it.
    Shell placement plus moderate opacity keeps every Gaussian visible
    from some orbit view, so each one actually receives supervision.
    Cluster centers sit on a ring wide enough that centers stay >= 4
    blob radii apart.
    """
    if preset not in ("blocks", "rings"):
        raise ValidationError(f"unknown scene preset {preset!r}")
    if n_clusters < 2:
        raise ValidationError("need at least 2 clusters")
    rng = np.random.default_rng([seed, {"blocks": 0, "rings": 1}[preset]])
    ring = max(3.0, MIN_CENTER_SPACING / (2.0 * np.sin(np.pi / n_clusters)))
    angles = 2.0 * np.pi * np.arange(n_clusters) / n_clusters
    centers = np.stack([ring * np.cos(angles), ring * np.sin(angles),
                        np.zeros(n_clusters)], axis=1)

    embeddings = _sample_embeddings(rng, n_clusters + 1, embed_dim)
    background = embeddings[-1]
    embeddings = embeddings[:-1]

    per = gaussians_per_cluster
    total = n_clusters * per
    centroids = np.zeros((total, 3))
    labels = np.repeat(np.arange(n_clusters), per)
    rgbs = np.zeros((total, 3))
    for k in range(n_clusters):
        sl = slice(k * per, (k + 1) * per)
        if preset == "blocks":
            offset = _shell_offsets(rng, per)
        else:
            theta = rng.uniform(0.0, 2.0 * np.pi, size=per)
            offset = np.stack([BLOB_RADIUS * 0.7 * np.cos(theta),
                               BLOB_RADIUS * 0.7 * np.sin(theta),
                               rng.normal(0.0, 0.05, size=per)], axis=1)
            offset += rng.normal(0.0, 0.05, size=(per, 3))
        centroids[sl] = centers[k] + offset
        rgbs[sl] = rng.uniform(*BLOB_RGB, size=3)

    scene = Scene(
        centroids,
        _random_quaternions(rng, total),
        rng.uniform(*BLOB_SCALES, size=(total, 3)),
        rng.uniform(*BLOB_OPACITY, size=total),
        rgbs,
        np.zeros((total, feature_dim), dtype=np.float32))
    names = [f"cluster {k}" for k in range(n_clusters)]
    return LabeledScene(scene=scene, labels=labels,
                        cluster_embeddings=embeddings, label_names=names,
                        cluster_centers=centers,
                        background_embedding=background)


def generate_adversarial_pair(base: LabeledScene, target_label: int = 0,
                              seed: int = 0) -> LabeledScene:
    """Add a distractor cluster at cosine DISTRACTOR_COSINE to the target.

    A fixed 0.6 threshold accepts both target and distractor while a
    refined hyperplane can still separate them. The distractor sits at
    the ring center, spatially disjoint from every existing cluster.
    """
    k = base.cluster_embeddings.shape[0]
    if not 0 <= target_label < k:
        raise ValidationError(f"target label {target_label} does not exist")
    rng = np.random.default_rng([seed, 0xAD7E])
    e_t = base.cluster_embeddings[target_label]
    # Gram-Schmidt a random direction against the target, then mix
    w = rng.normal(size=e_t.shape[0])
    u = w - (w @ e_t) * e_t
    u /= np.linalg.norm(u)
    e_d = DISTRACTOR_COSINE * e_t + np.sqrt(1.0 - DISTRACTOR_COSINE ** 2) * u

    center = np.zeros(3)
    dists = np.linalg.norm(base.cluster_centers - center, axis=1)
    if np.any(dists < MIN_CENTER_SPACING):
        raise ValidationError("no disjoint location for the distractor")

    per = int(np.bincount(base.labels).max())
    offset = _shell_offsets(rng, per)
    distractor = Scene(center + offset, _random_quaternions(rng, per),
                       rng.uniform(*BLOB_SCALES, size=(per, 3)),
                       rng.uniform(*BLOB_OPACITY, size=per),
                       np.tile(rng.uniform(*BLOB_RGB, size=3), (per, 1)),
                       np.zeros((per, base.scene.feature_dim)))
    return LabeledScene(
        scene=Scene(*map(np.concatenate, zip(base.scene.arrays(),
                                             distractor.arrays()))),
        labels=np.concatenate([base.labels, np.full(per, k)]),
        cluster_embeddings=np.vstack([base.cluster_embeddings, e_d]),
        label_names=base.label_names + ["distractor"],
        cluster_centers=np.vstack([base.cluster_centers, center]),
        background_embedding=base.background_embedding)


def orbit_cameras(count: int, *, height: float = 5.0, width: int = IMAGE_SIZE,
                  image_height: int = IMAGE_SIZE, fx: float = 60.0,
                  phase: float = 0.0) -> list[Camera]:
    """Evenly spaced look-at cameras on a ring above the scene plane."""
    cams = []
    for i in range(count):
        a = 2.0 * np.pi * i / count + phase
        eye = (ORBIT_RADIUS * np.cos(a), ORBIT_RADIUS * np.sin(a), height)
        cams.append(look_at_camera(eye, (0.0, 0.0, 0.0), width=width,
                                   height=image_height, fx=fx))
    return cams


def label_weight_sums(ls: LabeledScene, cam: Camera,
                      weights: sparse.csr_matrix | None = None) -> np.ndarray:
    """(H*W, K) composited weight received from each cluster per pixel."""
    if weights is None:
        weights = composite_weights(ls.scene, cam)
    k = ls.cluster_embeddings.shape[0]
    onehot = np.zeros((len(ls.scene), k))
    onehot[np.arange(len(ls.scene)), ls.labels] = 1.0
    return weights @ onehot


def generate_gt_features(ls: LabeledScene, cam: Camera,
                         noise_sigma: float = GT_NOISE_SIGMA, seed: int = 0,
                         view_id: int = 0) -> np.ndarray:
    """Per-pixel pseudo ground-truth features with per-view noise.

    Each covered pixel takes its front-most cluster's embedding (by
    composited weight share) plus an isotropic Gaussian perturbation of
    expected norm noise_sigma (per-coordinate std noise_sigma/sqrt(D))
    redrawn independently per view, renormalized to unit length; empty
    pixels get the fixed background embedding.
    """
    rng = np.random.default_rng([seed, 0x6F, view_id])
    shares = label_weight_sums(ls, cam)
    covered = shares.sum(axis=1) > 0.0
    label = np.argmax(shares, axis=1)
    dim = ls.cluster_embeddings.shape[1]
    out = np.tile(ls.background_embedding, (shares.shape[0], 1))
    base = ls.cluster_embeddings[label[covered]]
    if noise_sigma > 0:
        base = base + rng.normal(0.0, noise_sigma / np.sqrt(dim),
                                 size=(int(covered.sum()), dim))
        base = base / np.linalg.norm(base, axis=1, keepdims=True)
    out[covered] = base
    return out.reshape(cam.height, cam.width, dim).astype(np.float32)


def oracle_mask(ls: LabeledScene, cam: Camera, target_label: int,
                weights: sparse.csr_matrix | None = None) -> np.ndarray:
    """Pixels where the target cluster's composited weight exceeds 0.5."""
    if not 0 <= target_label < ls.cluster_embeddings.shape[0]:
        raise ValidationError(f"unknown label {target_label}")
    shares = label_weight_sums(ls, cam, weights)
    return (shares[:, target_label] > 0.5).reshape(cam.height, cam.width)


def embedding_table(ls: LabeledScene) -> EmbeddingTable:
    entries = {name: ls.cluster_embeddings[i]
               for i, name in enumerate(ls.label_names)}
    return EmbeddingTable(dim=ls.cluster_embeddings.shape[1], entries=entries)


# ---------------------------------------------------------------------------
# Self-contained experiment directories
# ---------------------------------------------------------------------------

@dataclass
class Experiment:
    directory: Path
    labeled: LabeledScene
    dataset: Dataset
    scene_path: Path
    manifest_path: Path
    testset_path: Path
    embeddings_path: Path


PRESETS = {
    # name: (scene preset, n_clusters, per cluster, adversarial)
    "blocks5": ("blocks", 5, 200, False),
    "rings3": ("rings", 3, 200, False),
    "adversarial": ("blocks", 5, 200, True),
}


def write_experiment(preset: str, seed: int, outdir) -> Experiment:
    """Generate and persist a complete synthetic experiment directory."""
    if preset not in PRESETS:
        raise ValidationError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    scene_preset, n_clusters, per, adversarial = PRESETS[preset]
    outdir = Path(outdir)

    ls = generate_scene(scene_preset, n_clusters, per, seed)
    if adversarial:
        ls = generate_adversarial_pair(ls, target_label=0, seed=seed)
    train_cams = orbit_cameras(N_TRAIN_VIEWS)
    eval_cams = orbit_cameras(N_EVAL_VIEWS, phase=np.pi / N_TRAIN_VIEWS,
                              height=5.5)

    scene_path = outdir / "scene.gois"
    save_scene(ls.scene, scene_path)
    write_json(outdir / "labels.json", {
        "labels": [int(v) for v in ls.labels],
        "names": ls.label_names,
    })
    table = embedding_table(ls)
    embeddings_path = outdir / EMBEDDINGS_FILE
    table.save(embeddings_path)

    views = []
    dataset_views = []
    for i, cam in enumerate(train_cams):
        cam_file = f"cam_train_{i:02d}.json"
        feat_file = f"features_train_{i:02d}.goif"
        save_camera(cam, outdir / cam_file)
        gt = generate_gt_features(ls, cam, seed=seed, view_id=i)
        write_feature_map(outdir / feat_file, gt)
        views.append({"camera": cam_file, "features": feat_file})
        dataset_views.append((cam, gt))
    manifest_path = outdir / "train_manifest.json"
    write_json(manifest_path,
               {"feature_dim_high": ls.cluster_embeddings.shape[1],
                "views": views}, indent=1)

    # evaluation cases: each held-out view queried with each cluster name
    # (adversarial preset queries only the contested target)
    query_labels = [0] if adversarial else list(range(n_clusters))
    cases = []
    for i, cam in enumerate(eval_cams):
        cam_file = f"cam_eval_{i}.json"
        save_camera(cam, outdir / cam_file)
        weights = composite_weights(ls.scene, cam)
        for lab in query_labels:
            mask_file = f"mask_eval_{i}_label{lab}.pgm"
            write_mask(outdir / mask_file, oracle_mask(ls, cam, lab, weights))
            cases.append({"camera": cam_file, "gt_mask": mask_file,
                          "text": ls.label_names[lab],
                          "pseudo_mask": mask_file})
    testset_path = outdir / "testset.json"
    write_json(testset_path, {"cases": cases}, indent=1)

    write_json(outdir / "experiment.json",
               {"preset": preset, "seed": seed, "noise_sigma": GT_NOISE_SIGMA,
                "n_train_views": N_TRAIN_VIEWS, "n_eval_views": N_EVAL_VIEWS})
    dataset = Dataset(views=dataset_views,
                      feature_dim_high=ls.cluster_embeddings.shape[1])
    return Experiment(directory=outdir, labeled=ls, dataset=dataset,
                      scene_path=scene_path, manifest_path=manifest_path,
                      testset_path=testset_path,
                      embeddings_path=embeddings_path)
