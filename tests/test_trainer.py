import numpy as np
import pytest

from goi.errors import ValidationError
from goi.scene import look_at_camera
from goi.synth import generate_gt_features, generate_scene, orbit_cameras
from goi import trainer
from goi.codebook import Codebook, kmeans_init
from goi.trainer import (Dataset, TrainConfig, init_decoder, load_model,
                         save_model, tau_schedule, train_semantic_field)


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

    def test_switch_past_end_keeps_tau_start(self):
        for switch in (100, 200):
            cfg = TrainConfig(iterations=100, tau_switch_iter=switch)
            assert {tau_schedule(i, cfg) for i in range(100)} == {1.0}

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

    def test_view_without_surface_is_skipped(self):
        ls, data, cb0, cfg = tiny_setup(iterations=12)
        # looks away from the scene, so no pixel reaches the surface alpha
        away = look_at_camera((0.0, 0.0, 20.0), (0.0, 0.0, 40.0),
                              up=(0.0, 1.0, 0.0), width=24, height=24,
                              fx=22.0)
        blank = Dataset(views=[(away, data.views[0][1])], feature_dim_high=16)
        logged = []
        model = train_semantic_field(ls.scene, blank, cb0, cfg,
                                     log=logged.append)
        assert logged == [f"iteration {it}: view 0 has no surface pixels, "
                          f"skipped" for it in range(12)]
        assert np.array_equal(model.scene.features, ls.scene.features)
        assert np.array_equal(model.codebook.entries, cb0.entries)
        ref = init_decoder(cb0.n_entries, ls.scene.feature_dim, seed=0)
        assert np.array_equal(model.decoder.weight, ref.weight)
        assert np.array_equal(model.decoder.bias, ref.bias)
        assert model.meta["loss_trace"] == []

        # among other views, only the blank view's turns are skipped
        mixed = Dataset(views=data.views + blank.views, feature_dim_high=16)
        logged = []
        train_semantic_field(ls.scene, mixed, cb0, cfg, log=logged.append)
        order = np.random.default_rng(cfg.seed).permutation(5)
        skipped = [it for it in range(12) if order[it % 5] == 4]
        assert skipped and [m for m in logged if "skipped" in m] == [
            f"iteration {it}: view 4 has no surface pixels, skipped"
            for it in skipped]

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

    def test_dead_entries_reseeded_to_unit_norm(self, tmp_path, monkeypatch):
        ls, data, cb0, cfg = tiny_setup(iterations=12)
        kept = train_semantic_field(ls.scene, data, cb0, cfg)
        monkeypatch.setattr(trainer, "MIN_ENTRY_NORM", 1e3)
        model = train_twice(tmp_path, ls.scene, data, cb0, cfg)
        # a gradient step leaves entries off unit norm; a reseed does not
        assert not np.allclose(np.linalg.norm(kept.codebook.entries, axis=1),
                               1.0, rtol=1e-6)
        np.testing.assert_allclose(
            np.linalg.norm(model.codebook.entries, axis=1), 1.0, rtol=1e-12)

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
        save_codebook(Codebook(entries=rng.normal(size=(3, 16))),
                      tmp_path / "m" / "codebook.goic")
        with pytest.raises(ValidationError):
            load_model(tmp_path / "m")


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(views=[], feature_dim_high=16)

    def test_dim_mismatch_rejected(self):
        cam = orbit_cameras(1, width=8, image_height=8, fx=8.0)[0]
        with pytest.raises(ValidationError):
            Dataset(views=[(cam, np.zeros((8, 8, 4)))], feature_dim_high=16)
