import numpy as np
import pytest

from goi import osh
from goi.errors import FormatError, ValidationError
from goi.osh import (EmbeddingTable, Hyperplane, OSHConfig, finetune_osh,
                     init_hyperplane, label_factors, osh_loss_and_grad,
                     scores)

from oracles import central_diff, pixel_finetune_osh, rel_err


def separable_maps(seed=0, h=16, w=16, d=6, margin=1.0):
    """Feature map with two linearly separable pixel populations."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    mask = rng.uniform(size=(h, w)) < 0.3
    feats = rng.normal(scale=0.3, size=(h, w, d))
    feats[mask] += (margin + 1.0) * direction
    feats[~mask] -= margin * direction
    valid = np.ones((h, w), dtype=bool)
    return feats, valid, mask


def rows(feats, valid, mask):
    """A map's valid pixels as OSH rows, each standing for one pixel."""
    return feats[valid], np.ones(int(valid.sum())), mask[valid]


def entry_view(seed, n_entries=8, h=24, w=24, d=6):
    """A decoded view: unit entries, an (H, W) id map, a surface mask
    and a pseudo-mask that mostly follows two of the entries."""
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(n_entries, d))
    entries /= np.linalg.norm(entries, axis=1, keepdims=True)
    ids = rng.integers(n_entries, size=(h, w))
    valid = rng.uniform(size=(h, w)) < 0.8
    pseudo = np.isin(ids, [0, 1]) ^ (rng.uniform(size=(h, w)) < 0.1)
    return entries, ids, valid, pseudo


class TestInitAndClassify:
    def test_init_matches_cosine_threshold(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=8) * 3.0
        h = init_hyperplane(emb, threshold=0.6)
        unit = emb / np.linalg.norm(emb)
        for _ in range(50):
            f = rng.normal(size=8)
            f /= np.linalg.norm(f)
            # on unit features the plane test is exactly cos > threshold
            assert (scores(h, f) > 0.0) == (float(unit @ f) > 0.6)

    def test_zero_embedding_rejected(self):
        with pytest.raises(ValidationError):
            init_hyperplane(np.zeros(4), 0.6)

    def test_nonfinite_plane_rejected(self):
        with pytest.raises(ValidationError):
            Hyperplane(weight=np.array([np.nan, 1.0]), bias=0.0)


class TestLossAndGrad:
    def test_balanced_gradient_at_zero_margin(self):
        # 10 positives to 1 negative: with positive weight 0.1 the two
        # classes pull on the bias with equal force at the decision
        # boundary, so the bias gradient vanishes exactly.
        x = np.zeros((11, 3))
        y = np.array([1.0] * 10 + [0.0])
        _, gw, gb = osh_loss_and_grad(np.zeros(3), 0.0, x,
                                      label_factors(np.ones(11), y, 0.1))
        assert gb == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(gw, 0.0)

    def test_loss_closed_form_at_zero(self):
        x = np.zeros((4, 2))
        y = np.array([1.0, 1.0, 0.0, 0.0])
        loss, _, _ = osh_loss_and_grad(np.zeros(2), 0.0, x,
                                       label_factors(np.ones(4), y, 1.0))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 5))
        y = (rng.uniform(size=20) < 0.3).astype(np.float64)
        w = rng.normal(size=5)
        b = float(rng.normal())
        pw = float(rng.uniform(0.05, 1.0))
        c = rng.integers(1, 50, size=20).astype(np.float64)
        labels = label_factors(c, y, pw)
        _, gw, gb = osh_loss_and_grad(w, b, x, labels)
        num_w = central_diff(
            lambda t: osh_loss_and_grad(t, b, x, labels)[0], w)
        num_b = central_diff(
            lambda t: osh_loss_and_grad(w, float(t[0]), x, labels)[0],
            np.array([b]))
        assert rel_err(gw, num_w) < 1e-4
        assert abs(gb - num_b[0]) < 1e-4 * max(abs(gb), 1.0)

    def test_extreme_margins_stay_finite(self):
        x = np.array([[1000.0], [-1000.0]])
        y = np.array([0.0, 1.0])
        loss, gw, gb = osh_loss_and_grad(np.ones(1), 0.0, x,
                                         label_factors(np.ones(2), y, 0.1))
        assert np.isfinite(loss) and np.isfinite(gw).all() and np.isfinite(gb)

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_weigh_like_repeated_rows(self, seed):
        rng = np.random.default_rng([seed, 7])
        x = rng.normal(size=(6, 4))
        y = (rng.uniform(size=6) < 0.5).astype(np.float64)
        c = rng.integers(1, 9, size=6)
        w, b = rng.normal(size=4), float(rng.normal())
        grouped = osh_loss_and_grad(w, b, x, label_factors(c, y, 0.1))
        reps = np.repeat(np.arange(6), c)
        repeated = osh_loss_and_grad(
            w, b, x[reps], label_factors(np.ones(reps.size), y[reps], 0.1))
        assert grouped[0] == pytest.approx(repeated[0], rel=1e-14)
        np.testing.assert_allclose(grouped[1], repeated[1], rtol=1e-13,
                                   atol=1e-16)
        assert grouped[2] == pytest.approx(repeated[2], rel=1e-13, abs=1e-16)


class TestFinetune:
    def test_loss_monotone_nonincreasing(self):
        feats, valid, mask = separable_maps(0, h=8, w=8, margin=0.2)
        h0 = init_hyperplane(np.ones(6), 0.6)
        losses = [finetune_osh(h0, *rows(feats, valid, mask),
                               OSHConfig(steps=k))[1]
                  for k in range(1, 40)]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

    def test_rising_step_is_retried_at_half_rate(self, monkeypatch):
        # at the default rate the third step would raise the loss, so it
        # is retried once at half the rate: 1 + 3 + 1 loss evaluations
        e = np.eye(3)
        x = 5.0 * e[[0, 0, 1]]
        counts, y = np.array([10.0, 1.0, 5.0]), np.array([1.0, 0.0, 0.0])
        h0 = init_hyperplane(e[0], 0.6)
        calls = []

        def counted(*args):
            calls.append(args)
            return osh_loss_and_grad(*args)
        monkeypatch.setattr(osh, "osh_loss_and_grad", counted)
        finetune_osh(h0, x, counts, y, OSHConfig(steps=3))
        assert len(calls) == 5
        first, last = (finetune_osh(h0, x, counts, y, OSHConfig(steps=k))[1]
                       for k in (1, 50))
        assert last <= first

    def test_separable_reaches_full_accuracy(self):
        for seed in range(3):
            feats, valid, mask = separable_maps(seed)
            h0 = init_hyperplane(np.ones(6), 0.6)
            h, _ = finetune_osh(h0, *rows(feats, valid, mask))
            assert np.array_equal(scores(h, feats) > 0.0, mask)

    def test_already_separated_signs_preserved(self):
        rng = np.random.default_rng(2)
        d = 4
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        feats = rng.normal(size=(10, 10, d))
        m = feats @ w
        # push every point at least 2 units from the plane
        feats += ((np.sign(m) * np.maximum(0.0, 2.0 - np.abs(m)))[..., None]
                  * w)
        valid = np.ones((10, 10), dtype=bool)
        mask = (feats @ w) > 0
        h0 = Hyperplane(weight=w, bias=0.0)
        h, _ = finetune_osh(h0, *rows(feats, valid, mask),
                            OSHConfig(steps=50))
        assert np.array_equal(scores(h, feats) > 0.0, mask)

    def test_no_valid_pixels_rejected(self):
        h0 = init_hyperplane(np.ones(3), 0.6)
        with pytest.raises(ValidationError):
            finetune_osh(h0, np.zeros((0, 3)), np.zeros(0), np.zeros(0))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OSHConfig(pos_weight=0.0)
        with pytest.raises(ValidationError):
            OSHConfig(steps=0)
        with pytest.raises(ValidationError):
            OSHConfig(lr=-1.0)


# a grouped fit sums the per-pixel loss in another order; the worst
# differences measured were 3.1e-15 here and 1.8e-15 on rendered queries
GROUPED_PLANE_TOL = 1e-13


class TestAgainstPixelLoop:
    @pytest.mark.parametrize("seed", range(3))
    def test_unit_counts_match_bits(self, seed):
        feats, valid, mask = separable_maps(seed, margin=0.2)
        valid[::3, 1::2] = False
        h0 = init_hyperplane(np.ones(6), 0.6)
        cfg = OSHConfig(steps=80)
        h, loss = finetune_osh(h0, *rows(feats, valid, mask), cfg)
        ref, ref_loss = pixel_finetune_osh(h0, feats, valid, mask, cfg)
        assert h.weight.tobytes() == ref.weight.tobytes()
        assert h.bias == ref.bias and loss == ref_loss

    @pytest.mark.parametrize("seed", range(6))
    def test_entry_groups_match_within_tolerance(self, seed):
        entries, ids, valid, pseudo = entry_view(seed)
        h0 = init_hyperplane(entries[0] + 0.3 * entries[1], 0.6)
        pairs, counts = np.unique(2 * ids[valid] + pseudo[valid],
                                  return_counts=True)
        assert pairs.size <= 2 * len(entries) < valid.sum()
        h, loss = finetune_osh(h0, entries[pairs // 2], counts, pairs % 2)
        ref, ref_loss = pixel_finetune_osh(h0, entries[ids], valid, pseudo)
        np.testing.assert_allclose(h.weight, ref.weight, rtol=0,
                                   atol=GROUPED_PLANE_TOL)
        assert abs(h.bias - ref.bias) <= GROUPED_PLANE_TOL
        assert abs(loss - ref_loss) <= GROUPED_PLANE_TOL


class TestEmbeddingTable:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(4, {"red box": rng.normal(size=4),
                                   "blue box": rng.normal(size=4)})
        path = tmp_path / "emb.json"
        table.save(path)
        back = EmbeddingTable.load(path)
        assert back.dim == 4
        np.testing.assert_allclose(back.lookup("red box"),
                                   table.lookup("red box"))

    def test_unknown_text_rejected(self):
        table = EmbeddingTable(2, {"a": np.ones(2)})
        with pytest.raises(ValidationError, match="'b'"):
            table.lookup("b")

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text('{"dim": 3, "entries": '
                        '[{"text": "a", "embedding": [1.0, 2.0]}]}')
        with pytest.raises(FormatError):
            EmbeddingTable.load(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text('{"entries": []}')
        with pytest.raises(FormatError):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e309", "-1e309",
        pytest.param("9" * 401, id="401-digit integer")])
    def test_non_finite_value_rejected(self, tmp_path, literal):
        path = tmp_path / "emb.json"
        path.write_text('{"dim": 2, "entries": '
                        '[{"text": "a", "embedding": [%s, 1.0]}]}' % literal)
        with pytest.raises(FormatError, match="malformed"):
            EmbeddingTable.load(path)
