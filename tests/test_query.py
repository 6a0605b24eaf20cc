import sys
from pathlib import Path

import numpy as np
import pytest

from goi import query, trainer
from goi.errors import ValidationError
from goi.osh import Hyperplane, init_hyperplane, scores
from goi.query import (decode_pixel_features, manipulate, open_vocab_query,
                       overlay_image, select_goi)
from goi.rasterizer import render
from goi.scene import Camera, load_scene, save_scene
from goi.synth import generate_scene, oracle_mask, orbit_cameras
from goi.codebook import Codebook, Decoder, decode_logits, entry_ids
from goi.trainer import TrainedModel, ViewStore

from oracles import pixel_space_query, random_scene
from test_osh import GROUPED_PLANE_TOL

# perfbench's oracle model, imported as its own tests import it
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracle import build_oracle_model  # noqa: E402
from layers import COUNTERS, TRACED  # noqa: E402
from tracer import NAME, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    """Oracle model of a 2-cluster scene, shared across tests.

    Every Gaussian decodes to its cluster's entry, so these tests see
    querying alone and not the outcome of a training run."""
    ls = generate_scene("blocks", n_clusters=2, gaussians_per_cluster=40,
                        seed=0, feature_dim=6, embed_dim=32)
    cams = orbit_cameras(8, width=32, image_height=32, fx=30.0)
    return ls, cams, build_oracle_model(ls, n_entries=24)


def side(model, h):
    """Each codebook entry's side of h, as open_vocab_query decides it."""
    unit, _ = query.model_entries(model)
    return scores(h, unit) > 0.0


class TestDecode:
    def test_matches_per_gaussian_loop(self, oracle):
        _, _, model = oracle
        ids = entry_ids(model.scene.features, model.decoder)
        assert ids.shape == (len(model.scene),)
        for i in range(0, len(model.scene), 7):
            e = decode_logits(model.scene.features[i].astype(np.float64),
                              model.decoder)
            assert ids[i] == int(np.argmax(e))

    def test_empty_scene(self):
        scene = random_scene(0, 0, feature_dim=4)
        cb = Codebook(entries=np.eye(3))
        dec = Decoder(weight=np.zeros((3, 4)), bias=np.zeros(3))
        assert entry_ids(scene.features, dec).size == 0
        model = TrainedModel(scene=scene, codebook=cb, decoder=dec)
        assert select_goi(model, np.ones(3, dtype=bool)).size == 0

    def test_pixel_decode_ids_and_surface(self, oracle):
        # surface pixels decode as the whole view would; the rest read 0
        _, cams, model = oracle
        ids, valid = decode_pixel_features(model, cams[0])
        assert valid.any() and not valid.all()
        out = render(model.scene, cams[0])
        logits = decode_logits(out.ld_features.astype(np.float64),
                               model.decoder)
        assert ids.shape == valid.shape and ids.dtype == np.intp
        assert np.array_equal(ids[valid], np.argmax(logits, axis=-1)[valid])
        assert not ids[~valid].any()
        assert np.array_equal(valid, out.alpha > 0.5)

    def test_decodes_surface_rows_only(self, oracle, monkeypatch):
        _, cams, model = oracle
        rows = []

        def counting(f, dec):
            rows.append(f.shape)
            return entry_ids(f, dec)
        monkeypatch.setattr(query, "entry_ids", counting)
        out = render(model.scene, cams[0])
        _, valid = query.decode_render(model, out)
        assert rows == [(valid.sum(), model.scene.feature_dim)]


class TestSelectGoi:
    def test_plane_far_negative_selects_nothing(self, oracle):
        _, _, model = oracle
        # unit decoded rows score within 1e-6 of the bias here
        h = Hyperplane(weight=np.eye(32)[0] * 1e-6, bias=-2.0)
        assert select_goi(model, side(model, h)).size == 0

    def test_plane_far_positive_selects_all(self, oracle):
        _, _, model = oracle
        h = Hyperplane(weight=np.eye(32)[0] * 1e-6, bias=2.0)
        got = select_goi(model, side(model, h))
        assert np.array_equal(got, np.arange(len(model.scene)))

    def test_matches_cosine_threshold_exactly(self, oracle):
        _, _, model = oracle
        rng = np.random.default_rng(3)
        emb = rng.normal(size=32)
        h = init_hyperplane(emb, 0.6)
        got = select_goi(model, side(model, h))
        vecs = model.codebook.entries[entry_ids(model.scene.features,
                                                model.decoder)]
        unit = emb / np.linalg.norm(emb)
        cos = (vecs @ unit) / np.linalg.norm(vecs, axis=1)
        assert np.array_equal(got, np.where(cos > 0.6)[0])

    def test_cluster_query_high_precision_recall(self, oracle):
        ls, _, model = oracle
        for label in range(2):
            h = init_hyperplane(ls.cluster_embeddings[label], 0.6)
            got = set(select_goi(model, side(model, h)).tolist())
            want = set(np.where(ls.labels == label)[0].tolist())
            inter = len(got & want)
            assert inter / max(len(got), 1) >= 0.95      # precision
            assert inter / len(want) >= 0.95             # recall

    def test_repeatable(self, oracle):
        ls, _, model = oracle
        h = init_hyperplane(ls.cluster_embeddings[0], 0.6)
        a = select_goi(model, side(model, h))
        b = select_goi(model, side(model, h))
        assert np.array_equal(a, b)


class TestOpenVocabQuery:
    def test_baseline_matches_oracle_mask(self, oracle):
        ls, cams, model = oracle
        cam = cams[0]
        res = open_vocab_query(model, cam, ls.cluster_embeddings[1],
                               use_osh=False)
        want = oracle_mask(ls, cam, 1)
        both = res.mask & want
        assert both.sum() / max(res.mask.sum(), 1) >= 0.9
        assert both.sum() / max(want.sum(), 1) >= 0.9

    def test_invalid_pixels_negative(self, oracle):
        ls, cams, model = oracle
        # at threshold -2 every unit entry scores positive, so the mask is
        # exactly the surface: transparent pixels stay negative
        res = open_vocab_query(model, cams[0], ls.cluster_embeddings[0],
                               use_osh=False, threshold=-2.0)
        _, valid = decode_pixel_features(model, cams[0])
        assert not valid.all()
        assert np.array_equal(res.mask, valid)

    def test_score_exactly_zero_is_negative(self, oracle):
        # entry 0 becomes the unit axis e0, so the query for e0 scores it
        # exactly 0 at threshold 1 and 1e-9 at threshold 1 - 1e-9; every
        # other entry scores below 0 on both
        ls, cams, model = oracle
        entries = model.codebook.entries.copy()
        entries[0] = np.eye(32)[0]
        model = TrainedModel(scene=model.scene, decoder=model.decoder,
                             codebook=Codebook(entries=entries))

        def ask(threshold):
            return open_vocab_query(model, cams[0], np.eye(32)[0],
                                    use_osh=False, threshold=threshold)
        on_plane = ask(1.0)
        assert not on_plane.mask.any() and on_plane.goi_indices.size == 0
        above = ask(1.0 - 1e-9)
        ids, valid = decode_pixel_features(model, cams[0])
        assert above.mask.any()
        assert np.array_equal(above.mask, valid & (ids == 0))
        assert np.array_equal(above.goi_indices,
                              np.flatnonzero(ls.labels == 0))

    def test_reaches_every_traced_query_function(self, oracle):
        # perfbench's per-layer metrics read these spans: a query path
        # that stops calling one of them would zero its metric silently
        ls, cams, model = oracle
        model = fresh_copy(model)
        with Tracer() as tracer:
            tracer.install("goi", TRACED, COUNTERS)
            query.open_vocab_query(model, cams[0], ls.cluster_embeddings[0],
                                   use_osh=False)
            query.open_vocab_query(model, cams[1], ls.cluster_embeddings[1],
                                   oracle_mask(ls, cams[1], 1))
        assert {span[NAME] for span in tracer.spans} >= {
            "query.open_vocab_query", "query.decode_pixel_features",
            "query.select_goi", "osh.finetune_osh", "osh.osh_loss_and_grad",
            "rasterizer.render", "rasterizer.composite_weights"}

    def test_osh_requires_pseudo_mask(self, oracle):
        ls, cams, model = oracle
        with pytest.raises(ValidationError):
            open_vocab_query(model, cams[0], ls.cluster_embeddings[0],
                             use_osh=True)

    def test_osh_refinement_runs(self, oracle):
        ls, cams, model = oracle
        cam = cams[0]
        pseudo = oracle_mask(ls, cam, 0)
        res = open_vocab_query(model, cam, ls.cluster_embeddings[0],
                               pseudo_mask=pseudo, use_osh=True)
        both = res.mask & pseudo
        assert both.sum() / max(pseudo.sum(), 1) >= 0.9

    def test_zero_embedding_rejected(self, oracle):
        _, cams, model = oracle
        with pytest.raises(ValidationError):
            open_vocab_query(model, cams[0], np.zeros(32), use_osh=False)

    def test_dim_mismatch_rejected(self, oracle):
        _, cams, model = oracle
        with pytest.raises(ValidationError):
            open_vocab_query(model, cams[0], np.ones(7), use_osh=False)

    @pytest.mark.parametrize("use_osh", [False, True])
    def test_matches_pixel_space_reference_bytes(self, oracle, use_osh):
        ls, cams, model = oracle
        for cam in cams:
            for label in range(2):
                emb = ls.cluster_embeddings[label]
                pseudo = oracle_mask(ls, cam, label)
                res = open_vocab_query(model, cam, emb, pseudo,
                                       use_osh=use_osh)
                mask, goi, h = pixel_space_query(model, cam, emb, pseudo,
                                                 use_osh=use_osh)
                assert res.mask.tobytes() == mask.tobytes()
                assert res.goi_indices.tobytes() == goi.tobytes()
                # the grouped OSH fit sums the per-pixel loss in another order
                np.testing.assert_allclose(res.hyperplane.weight, h.weight,
                                           rtol=0, atol=GROUPED_PLANE_TOL)
                assert abs(res.hyperplane.bias - h.bias) <= GROUPED_PLANE_TOL
                if not use_osh:
                    assert res.hyperplane.weight.tobytes() == h.weight.tobytes()
                    assert res.hyperplane.bias == h.bias

    def test_pseudo_mask_shape_checked_before_decoding(self, oracle,
                                                       monkeypatch):
        ls, cams, model = oracle
        monkeypatch.setattr(query, "decode_pixel_features", None)
        with pytest.raises(ValidationError, match="pseudo-mask shape"):
            open_vocab_query(model, cams[0], ls.cluster_embeddings[0],
                             np.zeros((5, 7), dtype=bool), use_osh=True)


def fresh_copy(model):
    """The model with copies of its arrays and an empty view store."""
    return TrainedModel(scene=model.scene.copy(),
                        codebook=Codebook(entries=model.codebook.entries.copy()),
                        decoder=Decoder(weight=model.decoder.weight.copy(),
                                        bias=model.decoder.bias.copy()))


def count_decodes(monkeypatch):
    """Count the renders-and-decodes that open_vocab_query asks for."""
    calls = []
    original = query.decode_pixel_features

    def counted(model, cam):
        calls.append(cam)
        return original(model, cam)
    monkeypatch.setattr(query, "decode_pixel_features", counted)
    return calls


def result_bytes(res):
    return (res.mask.tobytes(), res.goi_indices.tobytes(),
            res.hyperplane.weight.tobytes(), res.hyperplane.bias)


class TestViewStore:
    @pytest.mark.parametrize("use_osh", [False, True])
    def test_hit_and_miss_give_equal_bytes(self, oracle, monkeypatch,
                                           use_osh):
        ls, cams, model = oracle
        model = fresh_copy(model)
        calls = count_decodes(monkeypatch)
        for cam in cams[:3]:
            for label in range(2):
                pseudo = oracle_mask(ls, cam, label)
                ask = lambda m: open_vocab_query(
                    m, cam, ls.cluster_embeddings[label], pseudo,
                    use_osh=use_osh)
                hit = ask(model)
                miss = ask(fresh_copy(model))
                assert result_bytes(hit) == result_bytes(miss)
                assert result_bytes(ask(model)) == result_bytes(miss)
        # one decode per camera for the stored model, one per fresh copy
        assert len(calls) == 3 + 6

    @pytest.mark.parametrize("field", ["width", "height", "fx", "fy", "cx",
                                       "cy", "world_to_camera"])
    def test_every_camera_field_is_in_the_key(self, oracle, field):
        ls, cams, model = oracle
        model = fresh_copy(model)
        emb = ls.cluster_embeddings[0]
        cam = cams[0]
        open_vocab_query(model, cam, emb, use_osh=False)
        moved = Camera(**{f: getattr(cam, f) for f in (
            "width", "height", "fx", "fy", "cx", "cy", "world_to_camera")})
        if field == "world_to_camera":
            moved.world_to_camera = cams[1].world_to_camera.copy()
        else:
            setattr(moved, field, getattr(cam, field) + 3)
        got = open_vocab_query(model, moved, emb, use_osh=False)
        want = open_vocab_query(fresh_copy(model), moved, emb, use_osh=False)
        assert result_bytes(got) == result_bytes(want)

    def test_store_stays_within_budget(self, oracle, monkeypatch):
        ls, cams, model = oracle
        model = fresh_copy(model)
        view = cams[0].height * cams[0].width * (np.intp(0).nbytes + 1)
        budget = 3 * view + 8 * len(model.scene)
        monkeypatch.setattr(trainer, "VIEW_STORE_BYTES", budget)
        calls = count_decodes(monkeypatch)
        emb = ls.cluster_embeddings[0]
        for cam in cams:
            open_vocab_query(model, cam, emb, use_osh=False)
            assert 0 < model.views.nbytes <= budget
        assert len(calls) == len(cams)
        open_vocab_query(model, cams[-1], emb, use_osh=False)    # newest
        assert len(calls) == len(cams)
        open_vocab_query(model, cams[0], emb, use_osh=False)     # dropped
        assert len(calls) == len(cams) + 1
        assert model.views.nbytes <= budget

    def test_value_over_budget_not_kept(self, oracle, monkeypatch):
        ls, cams, model = oracle
        model = fresh_copy(model)
        want = open_vocab_query(model, cams[0], ls.cluster_embeddings[1],
                                use_osh=False)
        model.views = ViewStore()
        monkeypatch.setattr(trainer, "VIEW_STORE_BYTES", 16)
        got = open_vocab_query(model, cams[0], ls.cluster_embeddings[1],
                               use_osh=False)
        assert model.views.nbytes == 0
        assert result_bytes(got) == result_bytes(want)

    @pytest.mark.parametrize("replace", ["scene", "features", "decoder",
                                         "codebook"])
    def test_replaced_arrays_miss(self, oracle, monkeypatch, replace):
        ls, cams, model = oracle
        model = fresh_copy(model)
        emb = ls.cluster_embeddings[0]
        before = open_vocab_query(model, cams[0], emb, use_osh=False)
        calls = count_decodes(monkeypatch)
        if replace == "scene":
            model.scene = model.scene.copy()
        elif replace == "features":
            model.scene.features = model.scene.features.copy()
        elif replace == "decoder":
            model.decoder = Decoder(weight=model.decoder.weight.copy(),
                                    bias=model.decoder.bias.copy())
        else:
            model.codebook = Codebook(entries=model.codebook.entries.copy())
        after = open_vocab_query(model, cams[0], emb, use_osh=False)
        assert len(calls) == 1
        assert result_bytes(after) == result_bytes(before)

    def test_unit_entries_normalized_once_per_codebook(self, oracle,
                                                        monkeypatch):
        ls, cams, model = oracle
        model = fresh_copy(model)
        calls = []
        original = query.model_entries

        def counted(m):
            calls.append(m.codebook)
            return original(m)
        monkeypatch.setattr(query, "model_entries", counted)
        for cam in cams[:3]:
            for label in range(2):
                pseudo = oracle_mask(ls, cam, label)
                for use_osh in (False, True):
                    open_vocab_query(model, cam, ls.cluster_embeddings[label],
                                     pseudo, use_osh=use_osh)
        select_goi(model, np.ones(model.codebook.n_entries, dtype=bool))
        assert len(calls) == 1
        model.codebook = Codebook(entries=model.codebook.entries.copy())
        open_vocab_query(model, cams[0], ls.cluster_embeddings[0],
                         use_osh=False)
        assert len(calls) == 2

    def test_gaussian_ids_follow_new_features(self, oracle):
        ls, cams, model = oracle
        model = fresh_copy(model)
        everything = np.ones(model.codebook.n_entries, dtype=bool)
        assert select_goi(model, everything).size == len(model.scene) > 0
        model.scene.features = model.scene.features[:0].copy()
        assert select_goi(model, everything).size == 0

    def test_in_place_write_raises(self, oracle):
        ls, cams, model = oracle
        model = fresh_copy(model)
        open_vocab_query(model, cams[0], ls.cluster_embeddings[0],
                         use_osh=False)
        for arr in (model.scene.centroids, model.scene.opacities,
                    model.scene.features, model.codebook.entries,
                    model.decoder.weight, model.decoder.bias):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        kept, = model.stored("any key", lambda: (np.zeros(3),))
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1.0   # a stored value is shared by later lookups
        edited = manipulate(model.scene, [0], "translate",
                            delta=(1.0, 0.0, 0.0))
        edited.centroids[1] = 0.0     # an edit copies; the copy is writable


class TestOverlay:
    def test_blend_and_passthrough(self):
        rgb = np.zeros((2, 2, 3))
        mask = np.array([[True, False], [False, False]])
        out = overlay_image(rgb, mask)
        np.testing.assert_allclose(out[0, 0], [0.5, 0.1, 0.1])
        assert not out[0, 1].any() and not out[1].any()

    def test_clipped(self):
        rgb = np.full((1, 1, 3), 3.0)
        out = overlay_image(rgb, np.ones((1, 1), dtype=bool))
        assert np.all(out == 1.0)


class TestManipulate:
    def scene(self):
        return random_scene(0, 10, feature_dim=3)

    def test_delete_all_gives_empty(self):
        out = manipulate(self.scene(), np.arange(10), "delete")
        assert len(out) == 0

    def test_delete_keeps_complement_in_order(self):
        s = self.scene()
        out = manipulate(s, [1, 3], "delete")
        keep = [0, 2, 4, 5, 6, 7, 8, 9]
        assert np.array_equal(out.centroids, s.centroids[keep])
        assert np.array_equal(out.features, s.features[keep])

    def test_extract_then_delete_partition(self):
        s = self.scene()
        idx = [2, 5, 6]
        ex = manipulate(s, idx, "extract")
        de = manipulate(s, idx, "delete")
        assert len(ex) + len(de) == len(s)
        assert np.array_equal(ex.centroids, s.centroids[idx])

    def test_translate_zero_is_identity(self):
        s = self.scene()
        out = manipulate(s, np.arange(10), "translate", delta=(0.0, 0.0, 0.0))
        assert np.array_equal(out.centroids, s.centroids)

    @pytest.mark.parametrize("delta", [(np.nan, 0.0, 0.0),
                                       (0.0, np.inf, 0.0), (1e39, 0.0, 0.0)])
    def test_translate_to_non_finite_rejected(self, delta):
        with pytest.raises(ValidationError,
                           match=r"^non-finite centroid \(record 0\)$"):
            manipulate(self.scene(), [0, 3], "translate", delta=delta)

    def test_translate_moves_only_selected(self):
        s = self.scene()
        out = manipulate(s, [4], "translate", delta=(1.0, 2.0, 3.0))
        np.testing.assert_allclose(out.centroids[4] - s.centroids[4],
                                   [1.0, 2.0, 3.0], rtol=1e-6)
        others = [i for i in range(10) if i != 4]
        assert np.array_equal(out.centroids[others], s.centroids[others])

    def test_highlight_sets_color(self):
        s = self.scene()
        out = manipulate(s, [0, 9], "highlight", color=(1.0, 0.0, 0.0))
        np.testing.assert_allclose(out.rgbs[[0, 9]],
                                   [[1, 0, 0], [1, 0, 0]], atol=1e-7)
        assert np.array_equal(out.rgbs[1:9], s.rgbs[1:9])

    @pytest.mark.parametrize("color", [(1.5, 0.0, 0.0), (0.0, -0.1, 0.0),
                                       (np.nan, 0.0, 0.0)])
    def test_highlight_color_outside_unit_range_rejected(self, color):
        with pytest.raises(ValidationError, match="color"):
            manipulate(self.scene(), [0], "highlight", color=color)

    def test_highlighted_scene_loads(self, tmp_path):
        out = manipulate(self.scene(), [0, 9], "highlight",
                         color=(1.0, 0.0, 1.0))
        save_scene(out, tmp_path / "h.gois")
        assert np.array_equal(load_scene(tmp_path / "h.gois").rgbs, out.rgbs)

    def test_features_never_altered(self):
        s = self.scene()
        for action, kw in [("translate", {"delta": (1.0, 0.0, 0.0)}),
                           ("highlight", {"color": (0.0, 1.0, 0.0)})]:
            out = manipulate(s, np.arange(10), action, **kw)
            assert np.array_equal(out.features, s.features)

    def test_original_untouched(self):
        s = self.scene()
        before = s.centroids.copy()
        manipulate(s, [0], "translate", delta=(5.0, 5.0, 5.0))
        assert np.array_equal(s.centroids, before)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            manipulate(self.scene(), [10], "delete")
        with pytest.raises(ValidationError):
            manipulate(self.scene(), [-1], "delete")

    @pytest.mark.parametrize("index", [2 ** 63, 2 ** 70, -2 ** 70])
    def test_index_past_int64_rejected(self, index):
        with pytest.raises(ValidationError,
                           match="^manipulation index out of range$"):
            manipulate(self.scene(), [0, index], "delete")

    @pytest.mark.parametrize("indices, action, kwargs", [
        ([2.7], "extract", {}),
        ([1.5], "highlight", {"color": (1.0, 0.0, 0.0)}),
        ([True, False], "delete", {}),
        (np.array([1.0]), "translate", {"delta": (1.0, 0.0, 0.0)})])
    def test_non_integer_indices_rejected(self, indices, action, kwargs):
        # a cast would truncate 2.7 to 2 and take a bool mask as 0 and 1
        with pytest.raises(ValidationError,
                           match="^manipulation indices must be integers$"):
            manipulate(random_scene(0, 4, feature_dim=3), indices, action,
                       **kwargs)

    def test_empty_and_narrow_integer_indices_accepted(self):
        s = self.scene()
        assert len(manipulate(s, [], "delete")) == len(s)
        assert len(manipulate(s, [], "extract")) == 0
        out = manipulate(s, np.array([3], dtype=np.uint8), "extract")
        assert np.array_equal(out.centroids, s.centroids[[3]])

    def test_unknown_action_rejected(self):
        with pytest.raises(ValidationError):
            manipulate(self.scene(), [0], "recolor")

    def test_missing_arguments_rejected(self):
        with pytest.raises(ValidationError):
            manipulate(self.scene(), [0], "translate")
        with pytest.raises(ValidationError):
            manipulate(self.scene(), [0], "highlight")
