import json

import numpy as np
import pytest

from goi.errors import ValidationError
from goi.formats import read_feature_map, read_mask
from goi.scene import load_scene
from goi.synth import (EMBED_DIM, GT_NOISE_SIGMA, IMAGE_SIZE,
                       MAX_PAIRWISE_COS, MIN_CENTER_SPACING, N_EVAL_VIEWS,
                       N_TRAIN_VIEWS,
                       embedding_table, generate_adversarial_pair,
                       generate_gt_features, generate_scene, label_weight_sums,
                       oracle_mask, orbit_cameras, write_experiment)
from goi.trainer import Dataset

from oracles import naive_render


def small_scene(seed=0, preset="blocks", k=3, per=20):
    return generate_scene(preset, n_clusters=k, gaussians_per_cluster=per,
                          seed=seed, feature_dim=4, embed_dim=32)


class TestGenerateScene:
    def test_counts_and_shapes(self):
        ls = small_scene(k=4, per=15)
        assert len(ls.scene) == 60
        assert ls.labels.shape == (60,)
        assert np.array_equal(np.bincount(ls.labels), [15] * 4)
        assert ls.cluster_embeddings.shape == (4, 32)
        assert len(ls.label_names) == 4

    def test_deterministic(self):
        a = small_scene(5)
        b = small_scene(5)
        assert np.array_equal(a.scene.centroids, b.scene.centroids)
        assert np.array_equal(a.cluster_embeddings, b.cluster_embeddings)

    def test_seeds_differ(self):
        assert not np.array_equal(small_scene(0).scene.centroids,
                                  small_scene(1).scene.centroids)

    def test_embeddings_unit_and_separated(self):
        ls = generate_scene("blocks", n_clusters=5,
                            gaussians_per_cluster=5, seed=2)
        e = ls.cluster_embeddings
        assert e.shape == (5, EMBED_DIM)
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, rtol=1e-9)
        gram = np.abs(e @ e.T) - np.eye(5)
        assert gram.max() <= MAX_PAIRWISE_COS + 1e-12
        assert np.max(np.abs(e @ ls.background_embedding)) \
            <= MAX_PAIRWISE_COS + 1e-12

    def test_cluster_centers_spaced(self):
        ls = small_scene(3, k=5)
        c = ls.cluster_centers
        d = np.linalg.norm(c[:, None] - c[None, :], axis=2)
        d += np.eye(5) * 1e9
        assert d.min() >= MIN_CENTER_SPACING - 1e-9

    def test_gaussians_near_their_center(self):
        ls = small_scene(4)
        for k in range(3):
            pts = ls.scene.centroids[ls.labels == k]
            dist = np.linalg.norm(pts - ls.cluster_centers[k], axis=1)
            assert dist.max() < 1.0

    def test_rings_preset(self):
        ls = small_scene(0, preset="rings")
        assert len(ls.scene) == 60

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValidationError):
            generate_scene("cubes")
        with pytest.raises(ValidationError):
            generate_scene("blocks", n_clusters=1)


class TestAdversarialPair:
    def test_distractor_cosine_exact(self):
        ls = small_scene(0)
        adv = generate_adversarial_pair(ls, target_label=1, seed=0)
        e_t = adv.cluster_embeddings[1]
        e_d = adv.cluster_embeddings[-1]
        assert float(e_t @ e_d) == pytest.approx(0.8, abs=1e-6)
        assert np.linalg.norm(e_d) == pytest.approx(1.0, abs=1e-9)

    def test_distractor_spatially_disjoint(self):
        ls = small_scene(1)
        adv = generate_adversarial_pair(ls, seed=1)
        dist_pts = adv.scene.centroids[adv.labels == 3]
        for k in range(3):
            pts = adv.scene.centroids[adv.labels == k]
            gap = np.min(np.linalg.norm(
                pts[:, None] - dist_pts[None, :], axis=2))
            assert gap > 1.0

    def test_base_preserved(self):
        ls = small_scene(2)
        adv = generate_adversarial_pair(ls, seed=2)
        n = len(ls.scene)
        assert np.array_equal(adv.scene.centroids[:n], ls.scene.centroids)
        assert np.array_equal(adv.labels[:n], ls.labels)
        assert adv.label_names[-1] == "distractor"

    def test_bad_label_rejected(self):
        with pytest.raises(ValidationError):
            generate_adversarial_pair(small_scene(0), target_label=3)


class TestGtFeatures:
    def test_zero_noise_is_exact_embedding(self):
        ls = small_scene(0)
        cam = orbit_cameras(4, width=32, image_height=32, fx=30.0)[0]
        gt = generate_gt_features(ls, cam, noise_sigma=0.0, seed=0)
        flat = gt.reshape(-1, 32)
        shares = label_weight_sums(ls, cam)
        covered = shares.sum(axis=1) > 0
        lab = np.argmax(shares, axis=1)
        np.testing.assert_allclose(
            flat[covered], ls.cluster_embeddings[lab[covered]], atol=1e-6)
        np.testing.assert_allclose(
            flat[~covered],
            np.tile(ls.background_embedding, (int((~covered).sum()), 1)),
            atol=1e-6)

    def test_noise_keeps_high_cosine(self):
        # mean cosine to the clean embedding stays >= 0.97 at sigma 0.1
        ls = generate_scene("blocks", n_clusters=3, gaussians_per_cluster=60,
                            seed=0, feature_dim=4)
        cos_all = []
        for vid, cam in enumerate(orbit_cameras(4)):
            gt = generate_gt_features(ls, cam, noise_sigma=0.1, seed=0,
                                      view_id=vid)
            flat = gt.reshape(-1, EMBED_DIM)
            shares = label_weight_sums(ls, cam)
            covered = shares.sum(axis=1) > 0
            lab = np.argmax(shares, axis=1)
            cos_all.append(np.sum(flat[covered]
                                  * ls.cluster_embeddings[lab[covered]],
                                  axis=1))
        cos_all = np.concatenate(cos_all)
        assert cos_all.size > 1000
        assert cos_all.mean() >= 0.97

    def test_assign_entry_recovers_label(self):
        # noisy pixels still snap back to the right embedding
        ls = small_scene(0)
        cands = np.vstack([ls.cluster_embeddings, ls.background_embedding])
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        cam = orbit_cameras(4, width=32, image_height=32, fx=30.0)[0]
        for sigma in (0.1, 0.2):
            gt = generate_gt_features(ls, cam, noise_sigma=sigma, seed=0)
            flat = gt.reshape(-1, 32)
            shares = label_weight_sums(ls, cam)
            covered = np.where(shares.sum(axis=1) > 0)[0]
            lab = np.argmax(shares, axis=1)
            # highest-cosine embedding, as the codebook assigns targets
            nearest = np.argmax(flat[covered] @ cands.T, axis=1)
            hits = np.count_nonzero(nearest == lab[covered])
            assert hits / covered.size >= 0.99

    def test_views_draw_independent_noise(self):
        ls = small_scene(0)
        cam = orbit_cameras(4, width=32, image_height=32, fx=30.0)[0]
        a = generate_gt_features(ls, cam, seed=0, view_id=0)
        b = generate_gt_features(ls, cam, seed=0, view_id=1)
        assert not np.array_equal(a, b)

    def test_same_view_id_reproducible(self):
        ls = small_scene(0)
        cam = orbit_cameras(4, width=32, image_height=32, fx=30.0)[0]
        a = generate_gt_features(ls, cam, seed=0, view_id=2)
        b = generate_gt_features(ls, cam, seed=0, view_id=2)
        assert np.array_equal(a, b)


class TestOracleMask:
    def test_agrees_with_naive_renderer(self):
        ls = small_scene(0)
        cam = orbit_cameras(4, width=24, image_height=24, fx=22.0)[0]
        mask = oracle_mask(ls, cam, 0)
        # per-cluster weight by naive per-pixel compositing
        probe = ls.scene.copy()
        probe.features = (ls.labels == 0).astype(np.float32)[:, None]
        _, feat, _ = naive_render(probe, cam)
        assert np.array_equal(mask, feat[:, :, 0] > 0.5)

    def test_masks_disjoint_across_labels(self):
        ls = small_scene(1)
        cam = orbit_cameras(4, width=24, image_height=24, fx=22.0)[0]
        masks = [oracle_mask(ls, cam, k) for k in range(3)]
        assert (sum(m.astype(int) for m in masks) <= 1).all()
        assert any(m.any() for m in masks)

    def test_unknown_label_rejected(self):
        ls = small_scene(0)
        cam = orbit_cameras(1)[0]
        with pytest.raises(ValidationError):
            oracle_mask(ls, cam, 3)


class TestOrbitCameras:
    def test_count_and_geometry(self):
        cams = orbit_cameras(6, width=16, image_height=16, fx=20.0)
        assert len(cams) == 6
        for cam in cams:
            assert (cam.width, cam.height) == (16, 16)
            origin = cam.world_to_camera[:3, 3]
            # scene center projects in front of every orbit camera
            assert origin[2] > 0 or np.linalg.norm(origin) > 0
        assert not np.array_equal(cams[0].world_to_camera,
                                  cams[1].world_to_camera)


class TestEmbeddingTableExport:
    def test_lookup_matches(self):
        ls = small_scene(0)
        table = embedding_table(ls)
        for i, name in enumerate(ls.label_names):
            np.testing.assert_allclose(table.lookup(name),
                                       ls.cluster_embeddings[i])


class TestWriteExperiment:
    def test_round_trip_artifacts(self, tmp_path):
        exp = write_experiment("rings3", seed=0, outdir=tmp_path / "e")
        scene = load_scene(exp.scene_path)
        assert len(scene) == 600
        data = Dataset.load_manifest(exp.manifest_path)
        assert len(data.views) == N_TRAIN_VIEWS
        for (cam, gt), (mcam, mgt) in zip(data.views, exp.dataset.views):
            assert np.array_equal(gt, mgt)
        d = json.loads(exp.testset_path.read_text())
        assert len(d["cases"]) == N_EVAL_VIEWS * 3  # views x cluster queries
        for case in d["cases"]:
            mask = read_mask(exp.directory / case["gt_mask"])
            assert mask.shape == (IMAGE_SIZE, IMAGE_SIZE)
        assert json.loads((exp.directory / "experiment.json").read_text()) \
            == {"preset": "rings3", "seed": 0, "noise_sigma": GT_NOISE_SIGMA,
                "n_train_views": N_TRAIN_VIEWS, "n_eval_views": N_EVAL_VIEWS}

    def test_feature_maps_on_disk_match(self, tmp_path):
        exp = write_experiment("rings3", seed=1, outdir=tmp_path / "e")
        manifest = json.loads(exp.manifest_path.read_text())
        for v, (_, gt) in zip(manifest["views"], exp.dataset.views):
            on_disk = read_feature_map(exp.directory / v["features"])
            assert np.array_equal(on_disk, gt)

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_experiment("nope", seed=0, outdir=tmp_path)
