import numpy as np
import pytest

from goi.errors import FormatError, ValidationError
from goi.osh import (EmbeddingTable, Hyperplane, OSHConfig, finetune_osh,
                     init_hyperplane, osh_loss_and_grad, scores)

from oracles import central_diff, rel_err


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

    def test_dim_mismatch_rejected(self):
        h = Hyperplane(weight=np.ones(3), bias=0.0)
        with pytest.raises(ValidationError):
            scores(h, np.ones((4, 5)))

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
        _, gw, gb = osh_loss_and_grad(np.zeros(3), 0.0, x, y, pos_weight=0.1)
        assert gb == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(gw, 0.0)

    def test_loss_closed_form_at_zero(self):
        x = np.zeros((4, 2))
        y = np.array([1.0, 1.0, 0.0, 0.0])
        loss, _, _ = osh_loss_and_grad(np.zeros(2), 0.0, x, y, pos_weight=1.0)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 5))
        y = (rng.uniform(size=20) < 0.3).astype(np.float64)
        w = rng.normal(size=5)
        b = float(rng.normal())
        pw = float(rng.uniform(0.05, 1.0))
        _, gw, gb = osh_loss_and_grad(w, b, x, y, pw)
        num_w = central_diff(lambda t: osh_loss_and_grad(t, b, x, y, pw)[0], w)
        num_b = central_diff(
            lambda t: osh_loss_and_grad(w, float(t[0]), x, y, pw)[0],
            np.array([b]))
        assert rel_err(gw, num_w) < 1e-4
        assert abs(gb - num_b[0]) < 1e-4 * max(abs(gb), 1.0)

    def test_extreme_margins_stay_finite(self):
        x = np.array([[1000.0], [-1000.0]])
        y = np.array([0.0, 1.0])
        loss, gw, gb = osh_loss_and_grad(np.ones(1), 0.0, x, y, 0.1)
        assert np.isfinite(loss) and np.isfinite(gw).all() and np.isfinite(gb)


class TestFinetune:
    def test_loss_monotone_nonincreasing(self):
        feats, valid, mask = separable_maps(0, h=8, w=8, margin=0.2)
        h0 = init_hyperplane(np.ones(6), 0.6)
        losses = [finetune_osh(h0, feats, valid, mask,
                               OSHConfig(steps=k))[1]
                  for k in range(1, 40)]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

    def test_separable_reaches_full_accuracy(self):
        for seed in range(3):
            feats, valid, mask = separable_maps(seed)
            h0 = init_hyperplane(np.ones(6), 0.6)
            h, _ = finetune_osh(h0, feats, valid, mask)
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
        h, _ = finetune_osh(h0, feats, valid, mask, OSHConfig(steps=50))
        assert np.array_equal(scores(h, feats) > 0.0, mask)

    def test_no_valid_pixels_rejected(self):
        h0 = init_hyperplane(np.ones(3), 0.6)
        with pytest.raises(ValidationError):
            finetune_osh(h0, np.zeros((4, 4, 3)), np.zeros((4, 4), dtype=bool),
                         np.zeros((4, 4), dtype=bool))

    def test_shape_mismatch_rejected(self):
        h0 = init_hyperplane(np.ones(3), 0.6)
        with pytest.raises(ValidationError):
            finetune_osh(h0, np.zeros((4, 4, 3)), np.ones((4, 4), dtype=bool),
                         np.zeros((5, 5), dtype=bool))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OSHConfig(pos_weight=0.0)
        with pytest.raises(ValidationError):
            OSHConfig(steps=0)
        with pytest.raises(ValidationError):
            OSHConfig(lr=-1.0)


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
