from dataclasses import replace

import numpy as np
import pytest

from goi.errors import NumericError, ValidationError
from goi.query import decode_pixel_features
from goi.scene import Camera, Scene, look_at_camera
from goi.synth import generate_gt_features, generate_scene, orbit_cameras
from goi import rasterizer, trainer
from goi.codebook import (Codebook, Decoder, _normalize_rows, entry_ids,
                          kmeans_init)
from goi.rasterizer import composite_weights
from goi.trainer import (Dataset, TrainConfig, TrainedModel, init_decoder,
                         load_model, save_model, tau_schedule,
                         train_semantic_field)

from oracles import random_scene


def tiny_setup(seed=0, n_entries=12, iterations=20, views=4, **cfg_kw):
    ls = generate_scene("blocks", n_clusters=2, gaussians_per_cluster=12,
                        seed=seed, feature_dim=4, embed_dim=16)
    cams = orbit_cameras(views, width=24, image_height=24, fx=22.0)
    data = Dataset(
        views=[(cam, generate_gt_features(ls, cam, seed=seed, view_id=i))
               for i, cam in enumerate(cams)],
        feature_dim_high=16)
    samples = np.concatenate([gt.reshape(-1, 16) for _, gt in data.views])
    norms = np.linalg.norm(samples, axis=1)
    cb0 = kmeans_init(samples[norms > 1e-8], n_entries=n_entries, iters=3,
                      seed=seed)
    cfg = TrainConfig(iterations=iterations,
                      tau_switch_iter=min(10, iterations or 1),
                      seed=seed, **cfg_kw)
    return ls, data, cb0, cfg


def train_twice(tmp_path, *args):
    """Train twice on the same arguments; assert that the two saved models
    are byte-equal and return the second."""
    for d in (tmp_path / "a", tmp_path / "b"):
        model = train_semantic_field(*args)
        save_model(model, d)
    for name in ("scene.gois", "codebook.goic", "decoder.goid", "meta.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    return model


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(lr_feature=-0.1)

    def test_zero_rates_allowed(self):
        TrainConfig(lr_feature=0.0, lr_codebook=0.0, lr_decoder=0.0)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(iterations=-1)

    def test_negative_switch_iteration_rejected(self):
        with pytest.raises(ValidationError,
                           match="^tau_switch_iter must be >= 0$"):
            TrainConfig(iterations=3, tau_switch_iter=-5)
        TrainConfig(tau_switch_iter=0)

    def test_switch_past_end_keeps_tau_start(self):
        for switch in (100, 200):
            cfg = TrainConfig(iterations=100, tau_switch_iter=switch)
            assert {tau_schedule(i, cfg) for i in range(100)} == {1.0}

    @pytest.mark.parametrize("field", ["tau_start", "tau_end"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_temperature_rejected(self, field, value):
        with pytest.raises(ValidationError,
                           match=f"^{field} must be positive$"):
            TrainConfig(**{field: value})

    def test_zero_iterations_skips_switch_check(self):
        TrainConfig(iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("iterations", 20.5), ("iterations", True), ("tau_switch_iter", "9"),
        ("seed", 64.0), ("seed", False), ("lr_feature", True),
        ("tau_start", "0.3"), ("tau_end", None),
        ("lr_feature", float("nan")), ("lr_decoder", float("inf"))])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            TrainConfig(**{"iterations": 30, "tau_switch_iter": 10,
                           field: value})

    def test_numpy_scalars_accepted(self):
        TrainConfig(iterations=np.int64(10), tau_switch_iter=np.int32(5),
                    lr_feature=np.float32(0.1))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            TrainConfig(seed=-5)
        TrainConfig(seed=0)

    def test_from_dict_round(self):
        cfg = TrainConfig.from_dict({"iterations": 5, "tau_switch_iter": 3,
                                     "seed": 9})
        assert cfg.iterations == 5 and cfg.seed == 9

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            TrainConfig.from_dict({"iterations": 5, "learning_rate": 0.1})

    def test_fields_are_the_model_settings(self):
        assert list(TrainConfig.__dataclass_fields__) == [
            "iterations", "tau_start", "tau_end", "tau_switch_iter",
            "lr_feature", "lr_codebook", "lr_decoder", "seed"]


class TestTauSchedule:
    def test_step_values(self):
        cfg = TrainConfig(iterations=1500, tau_switch_iter=1000)
        assert tau_schedule(0, cfg) == 1.0
        assert tau_schedule(999, cfg) == 1.0
        assert tau_schedule(1000, cfg) == 2.0
        assert tau_schedule(1499, cfg) == 2.0

    def test_constant_when_ends_equal(self):
        cfg = TrainConfig(iterations=100, tau_switch_iter=50,
                          tau_start=1.5, tau_end=1.5)
        assert all(tau_schedule(i, cfg) == 1.5 for i in (0, 50, 99))


class TestTraining:
    def test_zero_iterations_leaves_model_untouched(self):
        ls, data, cb0, _ = tiny_setup()
        cfg = TrainConfig(iterations=0, seed=0)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        assert np.array_equal(model.scene.features, ls.scene.features)
        assert np.array_equal(model.codebook.entries, cb0.entries)
        ref = init_decoder(cb0.n_entries, ls.scene.feature_dim, seed=0)
        assert np.array_equal(model.decoder.weight, ref.weight)
        assert np.array_equal(model.decoder.bias, ref.bias)

    def test_zero_rates_freeze_parameter_groups(self):
        ls, data, cb0, _ = tiny_setup()
        cfg = TrainConfig(iterations=10, tau_switch_iter=5,
                          lr_codebook=0.0, lr_decoder=0.0, seed=0)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        assert np.array_equal(model.codebook.entries, cb0.entries)
        ref = init_decoder(cb0.n_entries, ls.scene.feature_dim, seed=0)
        assert np.array_equal(model.decoder.weight, ref.weight)
        assert np.array_equal(model.decoder.bias, ref.bias)
        # features did move
        assert not np.array_equal(model.scene.features, ls.scene.features)

    def test_geometry_never_changes(self):
        ls, data, cb0, cfg = tiny_setup()
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        assert np.array_equal(model.scene.centroids, ls.scene.centroids)
        assert np.array_equal(model.scene.rotations, ls.scene.rotations)
        assert np.array_equal(model.scene.scales, ls.scene.scales)
        assert np.array_equal(model.scene.opacities, ls.scene.opacities)
        assert np.array_equal(model.scene.rgbs, ls.scene.rgbs)

    def test_same_seed_bit_identical(self, tmp_path):
        ls, data, cb0, cfg = tiny_setup()
        train_twice(tmp_path, ls.scene, data, cb0, cfg)

    def test_loss_decreases(self):
        ls, data, cb0, _ = tiny_setup(iterations=200)
        cfg = TrainConfig(iterations=200, tau_switch_iter=150, seed=0)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        trace = model.meta["loss_trace"]
        assert trace[-1][1] < trace[0][1]
        # entropy term strictly improves too
        assert trace[-1][2] < trace[0][2]

    @pytest.mark.parametrize("seed", range(10))
    def test_short_runs_stay_finite(self, seed):
        ls, data, cb0, cfg = tiny_setup(seed=seed, iterations=30)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        for row in model.meta["loss_trace"]:
            assert all(np.isfinite(row))
        assert np.all(np.isfinite(model.scene.features))
        assert np.all(np.isfinite(model.codebook.entries))

    def test_view_without_surface_is_skipped(self, monkeypatch):
        ls, data, cb0, cfg = tiny_setup(iterations=12)
        # looks away from the scene, so no pixel reaches the surface alpha
        away = look_at_camera((20.0, 0.0, 0.0), (40.0, 0.0, 0.0),
                              width=24, height=24, fx=22.0)
        blank = Dataset(views=[(away, data.views[0][1])], feature_dim_high=16)
        logged = []
        model = train_semantic_field(ls.scene, blank, cb0, cfg,
                                     log=logged.append)
        assert logged == ["view 0 has no surface pixels, skipped"]
        assert np.array_equal(model.scene.features, ls.scene.features)
        assert np.array_equal(model.codebook.entries, cb0.entries)
        ref = init_decoder(cb0.n_entries, ls.scene.feature_dim, seed=0)
        assert np.array_equal(model.decoder.weight, ref.weight)
        assert np.array_equal(model.decoder.bias, ref.bias)
        assert model.meta["loss_trace"] == []
        assert model.meta["skipped_views"] == 1

        # among other views, only the blank view's turns are skipped, and
        # it is logged once, when the views' rows are gathered
        mixed = Dataset(views=data.views + blank.views, feature_dim_high=16)
        logged, batches = [], []
        original = trainer.total_loss

        def recording_loss(v_gt, *args):
            batches.append(v_gt.shape[0])
            return original(v_gt, *args)
        monkeypatch.setattr(trainer, "total_loss", recording_loss)
        model = train_semantic_field(ls.scene, mixed, cb0, cfg,
                                     log=logged.append)
        order = np.random.default_rng(cfg.seed).permutation(5)
        skipped = [it for it in range(12) if order[it % 5] == 4]
        assert skipped and len(batches) == 12 - len(skipped)
        assert 0 not in batches
        assert [m for m in logged if "skipped" in m] == [
            "view 4 has no surface pixels, skipped"]
        assert model.meta["skipped_views"] == 1

    def test_surface_is_the_queried_surface(self):
        # two splats on one pixel composite a float64 alpha of 0.5 + 2^-25,
        # which is 0.5 in the float32 alpha a query reads: no surface
        # the float32 just above a third (np.float32(1 / 3) lies below it)
        third = np.nextafter(np.float32(1 / 3), np.float32(1))
        scene = Scene(centroids=[[0, 0, 2], [0, 0, 3]],
                      rotations=[[1, 0, 0, 0]] * 2, scales=[[1e-3] * 3] * 2,
                      opacities=[0.25, third], rgbs=[[0.5] * 3] * 2,
                      features=np.ones((2, 4)))
        cam = Camera(width=5, height=5, fx=5.0, fy=5.0, cx=2.0, cy=2.0)
        alpha = np.asarray(composite_weights(scene, cam).sum(axis=1)).ravel()
        assert alpha.max() == alpha[12] == 0.5 + 2.0 ** -25
        rng = np.random.default_rng(0)
        data = Dataset(views=[(cam, rng.normal(size=(5, 5, 16)))],
                       feature_dim_high=16)
        cb0 = Codebook(entries=rng.normal(size=(3, 16)))
        model = train_semantic_field(scene, data, cb0,
                                     TrainConfig(iterations=4,
                                                 tau_switch_iter=2))
        assert model.meta["skipped_views"] == 1
        assert not decode_pixel_features(model, cam)[1].any()

    def test_meta_reports_codebook_use(self):
        ls, data, cb0, cfg = tiny_setup(iterations=30)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        ids = entry_ids(model.scene.features, model.decoder)
        share = np.bincount(ids) / len(ids)
        share = share[share > 0]
        meta = model.meta
        assert meta["skipped_views"] == 0
        assert meta["codebook_entries"] == cb0.n_entries
        assert meta["entries_used"] == np.unique(ids).size == share.size
        assert meta["entry_perplexity"] == round(
            float(np.exp(-np.sum(share * np.log(share)))), 4)
        assert 1.0 <= meta["entry_perplexity"] <= meta["entries_used"]

    def test_meta_perplexity_weighs_the_shares(self):
        # no step runs, so meta.json reads the given features: zeros decode
        # to the tie's entry 0 alone, random ones to uneven shares
        ls, data, cb0, cfg = tiny_setup(iterations=0)
        zero = replace(ls.scene, features=np.zeros_like(ls.scene.features))
        meta = train_semantic_field(zero, data, cb0, cfg).meta
        assert (meta["entries_used"], meta["entry_perplexity"]) == (1, 1.0)
        rng = np.random.default_rng(4)
        noisy = replace(ls.scene, features=rng.normal(
            size=ls.scene.features.shape).astype(np.float32))
        meta = train_semantic_field(noisy, data, cb0, cfg).meta
        dec = init_decoder(cb0.n_entries, ls.scene.feature_dim, cfg.seed)
        counts = np.bincount(entry_ids(noisy.features, dec))
        share = counts[counts > 0] / len(noisy)
        assert share.size >= 2 and np.ptp(share) > 0
        assert meta["entries_used"] == share.size
        assert meta["entry_perplexity"] == round(
            float(np.exp(-np.sum(share * np.log(share)))), 4)

    def test_meta_of_an_empty_scene(self):
        ls, data, cb0, cfg = tiny_setup(iterations=5)
        empty = Scene(*(arr[:0] for arr in ls.scene.arrays()))
        meta = train_semantic_field(empty, data, cb0, cfg).meta
        assert (meta["skipped_views"], meta["entries_used"],
                meta["entry_perplexity"]) == (4, 0, 0.0)

    def test_dimension_mismatch_rejected(self):
        ls, data, _, cfg = tiny_setup()
        wrong = Codebook(entries=np.eye(8)[:4])
        with pytest.raises(ValidationError):
            train_semantic_field(ls.scene, data, wrong, cfg)

    def test_large_view_is_subsampled(self, tmp_path, monkeypatch):
        ls, data, cb0, cfg = tiny_setup(iterations=12)
        monkeypatch.setattr(trainer, "PIXELS_PER_ITER", 8)  # of 13-15 rows
        batches = []
        original = trainer.total_loss

        def recording_loss(v_gt, *args):
            batches.append(v_gt.shape[0])
            return original(v_gt, *args)
        monkeypatch.setattr(trainer, "total_loss", recording_loss)
        train_twice(tmp_path, ls.scene, data, cb0, cfg)
        assert batches == [8] * 24

    def test_targets_normalized_once_per_view(self, monkeypatch):
        ls, data, cb0, cfg = tiny_setup(iterations=12)
        normalized, batches = [], []

        def counted(v, name):
            normalized.append(name)
            return _normalize_rows(v, name)
        monkeypatch.setattr(trainer, "_normalize_rows", counted)
        original = trainer.total_loss

        def recording_loss(v_gt, *args):
            batches.append(v_gt)
            return original(v_gt, *args)
        monkeypatch.setattr(trainer, "total_loss", recording_loss)
        train_semantic_field(ls.scene, data, cb0, cfg)
        assert normalized == ["target feature"] * len(data.views)

        # each view's GT rows at its surface pixels (the GT maps have the
        # camera's size, so a pixel's nearest GT pixel is itself)
        unit = []
        for cam, gt in data.views:
            assert gt.shape[:2] == (cam.height, cam.width)
            alpha = composite_weights(ls.scene, cam).sum(axis=1)
            surface = np.flatnonzero(np.asarray(alpha, np.float32).ravel()
                                     > rasterizer.ALPHA_SURFACE)
            unit.append(_normalize_rows(gt.reshape(-1, gt.shape[2])[surface]
                                        .astype(np.float64), "target"))
        order = np.random.default_rng(cfg.seed).permutation(len(unit))
        assert len(batches) == 12
        for it, v_gt in enumerate(batches):
            assert v_gt.tobytes() == unit[order[it % len(unit)]].tobytes()

    @staticmethod
    def collapse_entry_zero(monkeypatch):
        """Zero codebook entry 0 after the first loss evaluation; with a
        zero codebook rate no update moves it off zero again."""
        real = trainer.total_loss
        calls = []

        def wrapped(v_gt, fhat, cb, dec, tau):
            out = real(v_gt, fhat, cb, dec, tau)
            if not calls:
                cb.entries[0] = 0.0
            calls.append(1)
            return out
        monkeypatch.setattr(trainer, "total_loss", wrapped)
        return calls

    def test_collapsed_entry_is_numeric_error(self, monkeypatch):
        ls, data, cb0, cfg = tiny_setup(iterations=5, lr_codebook=0.0)
        calls = self.collapse_entry_zero(monkeypatch)
        with pytest.raises(NumericError, match="zero-norm codebook entry"):
            train_semantic_field(ls.scene, data, cb0, cfg)
        assert len(calls) == 1  # the next step's loss raised

    def test_entry_collapsed_by_last_step_returns_no_model(self,
                                                           monkeypatch):
        # no loss follows the last update, so the returned Codebook's own
        # check catches the collapse; it is raised again as a NumericError
        # (exit 3), as total_loss's is after an earlier step
        ls, data, cb0, cfg = tiny_setup(iterations=1, lr_codebook=0.0)
        self.collapse_entry_zero(monkeypatch)
        with pytest.raises(NumericError, match="zero entry"):
            train_semantic_field(ls.scene, data, cb0, cfg)

    def test_trace_cadence(self):
        ls, data, cb0, cfg = tiny_setup(iterations=25)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        its = [row[0] for row in model.meta["loss_trace"]]
        assert its == [0, 10, 20]


class TestModelIO:
    def test_round_trip(self, tmp_path):
        ls, data, cb0, cfg = tiny_setup(iterations=5)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert np.array_equal(back.scene.features, model.scene.features)
        assert np.allclose(back.codebook.entries,
                           model.codebook.entries.astype(np.float32))
        assert back.meta["config"]["iterations"] == 5

    def test_missing_file_named(self, tmp_path):
        ls, data, cb0, cfg = tiny_setup(iterations=1)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        save_model(model, tmp_path / "m")
        (tmp_path / "m" / "decoder.goid").unlink()
        with pytest.raises(ValidationError, match="decoder.goid"):
            load_model(tmp_path / "m")

    def test_entry_count_mismatch_rejected(self, tmp_path):
        from goi.codebook import save_codebook
        ls, data, cb0, cfg = tiny_setup(iterations=1)
        model = train_semantic_field(ls.scene, data, cb0, cfg)
        save_model(model, tmp_path / "m")
        rng = np.random.default_rng(0)
        n = model.codebook.n_entries + 1
        save_codebook(Codebook(entries=rng.normal(size=(n, 16))),
                      tmp_path / "m" / "codebook.goic")
        with pytest.raises(ValidationError):
            load_model(tmp_path / "m")


class TestTrainedModel:
    def test_decoder_rows_must_match_codebook_entries(self):
        with pytest.raises(ValidationError) as err:
            TrainedModel(scene=random_scene(0, 4, feature_dim=2),
                         codebook=Codebook(entries=np.eye(2)),
                         decoder=Decoder(weight=np.ones((3, 2)),
                                         bias=np.zeros(3)))
        assert str(err.value) == ("decoder outputs 3 logits but codebook "
                                  "has 2 entries")

    def test_decoder_width_must_match_scene_features(self):
        with pytest.raises(ValidationError) as err:
            TrainedModel(scene=random_scene(0, 4, feature_dim=2),
                         codebook=Codebook(entries=np.eye(2)),
                         decoder=Decoder(weight=np.ones((2, 3)),
                                         bias=np.zeros(2)))
        assert str(err.value) == ("decoder input dim 3 does not match scene "
                                  "feature dim 2")


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(views=[], feature_dim_high=16)

    def test_dim_mismatch_rejected(self):
        cam = orbit_cameras(1, width=8, image_height=8, fx=8.0)[0]
        with pytest.raises(ValidationError):
            Dataset(views=[(cam, np.zeros((8, 8, 4)))], feature_dim_high=16)
