import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goi import osh
from goi.errors import FormatError, ValidationError
from goi.osh import (POS_WEIGHT, STEP_RATE, EmbeddingTable, Hyperplane,
                     OSHConfig, finetune_osh, hessian_bound, init_hyperplane,
                     label_factors, osh_loss_and_grad, scores)

from oracles import (central_diff, guarded_finetune_osh, pixel_finetune_osh,
                     rel_err)


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
    """A map's valid pixels as OSH rows, each standing for one pixel:
    (x, neg, pos) with one count on the pixel's side of the mask."""
    pos = mask[valid].astype(np.float64)
    return feats[valid], 1.0 - pos, pos


def plane_loss_and_grad(wb, rows, weights):
    """The loss at the augmented plane wb and its gradient in wb: the
    margins are rows @ wb, so the gradient is rows.T @ dL/dm."""
    loss, dm = osh_loss_and_grad(rows @ wb, weights)
    return loss, rows.T @ dm


def halving_fit():
    """(h0, x, neg, pos) of a fit whose third step at STEP_RATE would
    raise the loss, so a guard at that rate halves it."""
    e = np.eye(3)
    return (init_hyperplane(e[0], 0.6), 5.0 * e[[0, 1]],
            np.array([1.0, 5.0]), np.array([10.0, 0.0]))


def entry_fit(seed, scale=1.0):
    """(h0, x, neg, pos) of a query-like fit: 8 unit entries in 6-D,
    times scale, with 0-29 samples each outside and inside the target."""
    rng = np.random.default_rng([seed, 33])
    x = rng.normal(size=(8, 6))
    x *= scale / np.linalg.norm(x, axis=1, keepdims=True)
    neg, pos = rng.integers(0, 30, size=(2, 8))
    return init_hyperplane(rng.normal(size=6), 0.6), x, neg, pos


def rate_bound(x, neg, pos):
    """The fit's bound on the Hessian's top eigenvalue: a step at rate
    lr is certified not to raise the loss when lr times it is at most 2."""
    rows, weights = label_factors(x, neg, pos)
    return hessian_bound(rows @ rows.T, weights)


def fit_rate(x, neg, pos):
    """The rate finetune_osh steps at: STEP_RATE unless the bound caps it."""
    bound = rate_bound(x, neg, pos)
    return STEP_RATE if STEP_RATE * bound < 2.0 else 2.0 / bound


def assert_same_fit(got, want):
    """Bit-equal planes and losses."""
    (h, loss), (ref, ref_loss) = got, want
    assert h.weight.tobytes() == ref.weight.tobytes()
    assert h.bias == ref.bias and loss == ref_loss


def assert_matches_guarded_loop(h0, x, neg, pos, cfg=None):
    """finetune_osh is bit-equal to the loop that evaluates the loss at
    every step, started at the fit's rate, and that loop never halves."""
    rate = fit_rate(x, neg, pos)
    ref, ref_loss, end_rate = guarded_finetune_osh(h0, x, neg, pos, cfg,
                                                   rate)
    assert end_rate == rate
    assert_same_fit(finetune_osh(h0, x, neg, pos, cfg), (ref, ref_loss))


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
        kept = emb.copy()
        h = init_hyperplane(emb, threshold=0.6)
        unit = emb / np.linalg.norm(emb)
        # bit-equal to emb / ||emb||, and the embedding (an EmbeddingTable
        # row, say) is left unwritten
        np.testing.assert_array_equal(emb, kept)
        np.testing.assert_array_equal(h.weight, unit)
        for _ in range(50):
            f = rng.normal(size=8)
            f /= np.linalg.norm(f)
            # on unit features the plane test is exactly cos > threshold
            assert (scores(h, f) > 0.0) == (float(unit @ f) > 0.6)

    def test_zero_embedding_rejected(self):
        with pytest.raises(ValidationError, match="weight must be non-zero"):
            init_hyperplane(np.zeros(4), 0.6)

    def test_nonfinite_plane_rejected(self):
        with pytest.raises(ValidationError):
            Hyperplane(weight=np.array([np.nan, 1.0]), bias=0.0)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight must be non-zero"):
            Hyperplane(weight=np.zeros(3), bias=0.5)

    def test_overflowing_weight_norm_rejected(self):
        # finite entries whose norm overflows: no plane, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="hyperplane weight "
                               "must be non-zero with a finite norm"):
                Hyperplane(weight=np.full(3, 1e300), bias=0.0)


class TestLossAndGrad:
    def test_balanced_gradient_at_zero_margin(self, monkeypatch):
        # 10 positives to 1 negative: with positive weight 0.1 the two
        # classes pull on the bias with equal force at the decision
        # boundary, so the bias gradient vanishes exactly.
        monkeypatch.setattr(osh, "POS_WEIGHT", 0.1)
        x = np.zeros((11, 3))
        y = np.array([1.0] * 10 + [0.0])
        _, g = plane_loss_and_grad(np.zeros(4),
                                   *label_factors(x, 1.0 - y, y))
        assert g[-1] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(g[:-1], 0.0)

    def test_loss_closed_form_at_zero(self, monkeypatch):
        monkeypatch.setattr(osh, "POS_WEIGHT", 1.0)
        x = np.zeros((4, 2))
        y = np.array([1.0, 1.0, 0.0, 0.0])
        loss, _ = plane_loss_and_grad(np.zeros(3),
                                      *label_factors(x, 1.0 - y, y))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_match_finite_differences(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 5))
        y = (rng.uniform(size=20) < 0.3).astype(np.float64)
        w = rng.normal(size=5)
        b = float(rng.normal())
        monkeypatch.setattr(osh, "POS_WEIGHT", float(rng.uniform(0.05, 1.0)))
        c = rng.integers(1, 50, size=20).astype(np.float64)
        labels = label_factors(x, (1.0 - y) * c, y * c)
        wb = np.append(w, b)
        _, g = plane_loss_and_grad(wb, *labels)
        num = central_diff(lambda t: plane_loss_and_grad(t, *labels)[0],
                           wb)
        assert rel_err(g[:-1], num[:-1]) < 1e-4
        assert abs(g[-1] - num[-1]) < 1e-4 * max(abs(g[-1]), 1.0)

    def test_extreme_margins_stay_finite(self):
        x = np.array([[1000.0], [-1000.0]])
        y = np.array([0.0, 1.0])
        loss, g = plane_loss_and_grad(
            np.array([1.0, 0.0]), *label_factors(x, 1.0 - y, y))
        assert np.isfinite(loss) and np.isfinite(g).all()

    @pytest.mark.parametrize("y", [0.0, 1.0])
    @pytest.mark.parametrize("m", [30.0, -30.0, 1000.0, -1000.0])
    def test_extreme_margin_loss_matches_closed_form(self, m, y):
        # one row at margin m: the loss is a softplus(-m) + b softplus(m)
        # with a = POS_WEIGHT y, b = 1 - y; at y = 0, m = -30 it is 9.4e-14,
        # which b m - (a + b) log sigma(m) would get 1 % wrong
        loss, g = plane_loss_and_grad(
            np.array([1.0, 0.0]),
            *label_factors(np.array([[m]]), np.array([1.0 - y]),
                           np.array([y])))
        closed = (POS_WEIGHT * y * np.logaddexp(0.0, -m)
                  + (1.0 - y) * np.logaddexp(0.0, m))
        assert loss == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert np.isfinite(g).all()

    def test_label_factors_exact_rows(self, monkeypatch):
        # entry 0 is counted on both sides, entry 1 on neither, entry 2
        # outside only and entry 3 inside only: positives come first,
        # each side in row order, and entry 1 builds no row
        monkeypatch.setattr(osh, "POS_WEIGHT", 0.5)
        x = np.arange(8.0).reshape(4, 2)
        rows, weights = label_factors(x, np.array([2, 0, 4, 0]),
                                      np.array([3, 0, 0, 1]))
        np.testing.assert_array_equal(rows, [[0.0, 1.0, 1.0],
                                             [6.0, 7.0, 1.0],
                                             [0.0, -1.0, -1.0],
                                             [-4.0, -5.0, -1.0]])
        np.testing.assert_array_equal(weights,
                                      np.array([1.5, 0.5, 2.0, 4.0]) / 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_weigh_like_repeated_rows(self, seed):
        # (neg, pos) counts weigh like the same pixels as unit rows
        rng = np.random.default_rng([seed, 7])
        x = rng.normal(size=(6, 4))
        neg, pos = rng.integers(0, 9, size=(2, 6))
        wb = rng.normal(size=5)
        grouped = plane_loss_and_grad(
            wb, *label_factors(x, neg, pos))
        reps = np.repeat(np.arange(12) % 6, np.concatenate([neg, pos]))
        inside = np.repeat([0.0, 1.0], [neg.sum(), pos.sum()])
        repeated = plane_loss_and_grad(
            wb, *label_factors(x[reps], 1.0 - inside, inside))
        assert grouped[0] == pytest.approx(repeated[0], rel=1e-14)
        np.testing.assert_allclose(grouped[1], repeated[1], rtol=1e-13,
                                   atol=1e-16)


class TestFinetune:
    def test_loss_monotone_nonincreasing(self):
        feats, valid, mask = separable_maps(0, h=8, w=8, margin=0.2)
        h0 = init_hyperplane(np.ones(6), 0.6)
        losses = [finetune_osh(h0, *rows(feats, valid, mask),
                               OSHConfig(steps=k))[1]
                  for k in range(1, 40)]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

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

    def test_all_zero_counts_rejected(self):
        h0 = init_hyperplane(np.ones(3), 0.6)
        with pytest.raises(ValidationError, match="no valid pixels"):
            finetune_osh(h0, np.eye(3), np.zeros(3), np.zeros(3))

    def test_config_validation(self):
        # the step count is the one setting; weight and rates are fixed
        assert [f.name for f in dataclasses.fields(OSHConfig)] == ["steps"]
        with pytest.raises(ValidationError, match="steps must be >= 1"):
            OSHConfig(steps=0)

    @pytest.mark.parametrize("steps", [2.5, float("nan"), True, "3"])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValidationError, match=re.escape(
                f"steps must be an integer, got {steps!r}")):
            OSHConfig(steps=steps)

    @pytest.mark.parametrize("x, neg, pos, message", [
        (np.eye(3), [1.0, -1.0, 0.0], [0.0, 0.0, 2.0],
         "counts must be finite and non-negative"),
        (np.eye(3), [1.0, np.nan, 0.0], [0.0, 0.0, 2.0],
         "counts must be finite and non-negative"),
        (np.eye(3), [1.0, np.inf, 0.0], [0.0, 0.0, 2.0],
         "counts must be finite and non-negative"),
        (np.eye(3), [1.0, 0.0], [0.0, 0.0, 2.0],
         r"counts must be two 1-D arrays of 3 values, one per feature row, "
         r"got shapes \(2,\) and \(3,\)"),
        (np.eye(3), np.ones((3, 1)), np.ones((3, 1)),
         r"counts must be two 1-D arrays of 3 values"),
        (np.eye(4), np.ones(4), np.ones(4),
         r"features must be an \(N, 3\) array for a 3-D plane, "
         r"got shape \(4, 4\)"),
        (np.ones(3), np.ones(1), np.ones(1),
         r"features must be an \(N, 3\) array"),
        (np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]), [1.0, 0.0],
         [0.0, 2.0], "OSH features must be finite"),
        (np.full((2, 3), 1e200), [1.0, 0.0], [0.0, 2.0],
         "OSH features are too large: their Gram matrix overflows float64"),
        (np.eye(3), [1e308, 1e308, 0.0], [0.0, 0.0, 2.0],
         "OSH counts' total overflows float64"),
    ], ids=["negative count", "NaN count", "infinite count", "short neg",
            "2-D counts", "wrong width", "1-D features", "NaN feature",
            "overflowing Gram", "overflowing total"])
    def test_malformed_input_rejected(self, x, neg, pos, message):
        # rejected before any step, and without a numpy warning
        h0 = init_hyperplane(np.ones(3), 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                finetune_osh(h0, x, np.asarray(neg), np.asarray(pos))


class TestCertifiedSteps:
    """Every fit steps at a rate its Hessian bound certifies, STEP_RATE
    or 2 over the bound where that is lower, and stays bit-equal to the
    loop that evaluates the loss at every step from that rate."""

    @pytest.mark.parametrize("seed", range(10))
    def test_certified_fit_matches_guarded_loop(self, seed):
        h0, x, neg, pos = entry_fit(seed)
        assert STEP_RATE * rate_bound(x, neg, pos) < 2.0
        assert_matches_guarded_loop(h0, x, neg, pos)

    # the bound caps STEP_RATE on these fits; from STEP_RATE the guard
    # passes every step at 3 and halves the rate 2-4 times at 10
    @pytest.mark.parametrize("scale", [3.0, 10.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_uncertified_fit_matches_guarded_loop(self, seed, scale):
        h0, x, neg, pos = entry_fit(seed, scale)
        assert STEP_RATE * rate_bound(x, neg, pos) >= 2.0
        assert_matches_guarded_loop(h0, x, neg, pos, OSHConfig(steps=100))

    def test_halving_fit_matches_guarded_loop(self):
        # from STEP_RATE the guard halves the rate twice on this fit, but
        # never the rate the bound caps it at
        h0, x, neg, pos = halving_fit()
        cfg = OSHConfig(steps=50)
        assert guarded_finetune_osh(h0, x, neg, pos, cfg)[2] == STEP_RATE / 4
        assert_matches_guarded_loop(h0, x, neg, pos, cfg)

    @pytest.mark.parametrize("scale", [1.0, 10.0], ids=["certified",
                                                        "capped"])
    def test_fit_evaluates_the_loss_once(self, monkeypatch, scale):
        h0, x, neg, pos = entry_fit(0, scale)
        assert (STEP_RATE * rate_bound(x, neg, pos) < 2.0) == (scale == 1.0)
        calls = []

        def counted(*args):
            calls.append(args)
            return osh_loss_and_grad(*args)
        monkeypatch.setattr(osh, "osh_loss_and_grad", counted)
        finetune_osh(h0, x, neg, pos, OSHConfig(steps=500))
        assert len(calls) == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bound_holds_and_certified_losses_fall(self, seed):
        # feature scales 0.1-10 draw fits whose rate the bound caps
        rng = np.random.default_rng(seed)
        n, d = (int(v) for v in rng.integers(1, 10, size=2))
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1.0, 1.0)
        neg, pos = rng.integers(0, 20, size=(2, n))
        pos[0] += 1   # at least one sample
        rows, weights = label_factors(x, neg, pos)
        gram = rows @ rows.T
        root = np.sqrt(weights)
        top = np.linalg.eigvalsh(root[:, None] * gram * root).max() / 4.0
        bound = hessian_bound(gram, weights)
        assert bound >= top * (1.0 - 1e-12)
        h0 = init_hyperplane(rng.normal(size=d), 0.6)
        losses = [finetune_osh(h0, x, neg, pos, OSHConfig(steps=k))[1]
                  for k in range(1, 15)]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12


# the fit sums the per-pixel loss in another order than the pixel loop
# and steps its margins, not the plane; the worst differences measured
# were 1.8e-15 with unit counts, 2.8e-14 with entry groups, 6.7e-16
# at a capped rate over 50 steps and 1.1e-14 on rendered queries
GROUPED_PLANE_TOL = 1e-13


class TestStackedStep:
    """The plane after t steps is wb0 - lr * rows.T @ (g_0 + ... + g_t-1),
    each g from osh_loss_and_grad at margins stepped one at a time."""

    @pytest.mark.parametrize("scale", [1.0, 10.0], ids=["certified",
                                                        "capped"])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_plane_is_the_rate_times_the_summed_gradients(self, steps,
                                                          scale):
        h0, x, neg, pos = entry_fit(1, scale)
        lr = fit_rate(x, neg, pos)
        assert (lr == STEP_RATE) == (scale == 1.0)
        rows, weights = label_factors(x, neg, pos)
        wb0 = np.append(h0.weight, h0.bias)
        m, total = rows @ wb0, np.zeros(len(rows))
        for _ in range(steps):
            g = osh_loss_and_grad(m, weights)[1]
            total += g
            m = m - lr * (rows @ (rows.T @ g))
        want = wb0 - lr * (rows.T @ total)
        h, loss = finetune_osh(h0, x, neg, pos, OSHConfig(steps=steps))
        np.testing.assert_allclose(h.weight, want[:-1], rtol=0,
                                   atol=GROUPED_PLANE_TOL)
        assert abs(h.bias - want[-1]) <= GROUPED_PLANE_TOL
        assert abs(loss - osh_loss_and_grad(m, weights)[0]) \
            <= GROUPED_PLANE_TOL

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("seed", range(3))
    def test_scaled_features_give_finite_planes(self, seed, scale):
        # tiny features step at STEP_RATE, large ones at a capped rate
        # from margins far in the sigmoid's tails; no numpy warning
        h0, x, neg, pos = entry_fit(seed, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, loss = finetune_osh(h0, x, neg, pos)
        assert np.isfinite(h.weight).all() and np.isfinite(h.bias)
        assert np.isfinite(loss)


class TestAgainstPixelLoop:
    @pytest.mark.parametrize("seed", range(3))
    def test_unit_counts_match_within_tolerance(self, seed):
        feats, valid, mask = separable_maps(seed, margin=0.2)
        valid[::3, 1::2] = False
        h0 = init_hyperplane(np.ones(6), 0.6)
        cfg = OSHConfig(steps=80)
        h, loss = finetune_osh(h0, *rows(feats, valid, mask), cfg)
        ref, ref_loss = pixel_finetune_osh(h0, feats, valid, mask, cfg)
        np.testing.assert_allclose(h.weight, ref.weight, rtol=0,
                                   atol=GROUPED_PLANE_TOL)
        assert abs(h.bias - ref.bias) <= GROUPED_PLANE_TOL
        assert abs(loss - ref_loss) <= GROUPED_PLANE_TOL
        assert np.array_equal(scores(h, feats[valid]) > 0.0,
                              scores(ref, feats[valid]) > 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_entry_groups_match_within_tolerance(self, seed):
        entries, ids, valid, pseudo = entry_view(seed)
        h0 = init_hyperplane(entries[0] + 0.3 * entries[1], 0.6)
        neg, pos = np.bincount(2 * ids[valid] + pseudo[valid],
                               minlength=2 * len(entries)).reshape(-1, 2).T
        assert ((neg > 0) & (pos > 0)).any()  # entries on both sides
        assert np.count_nonzero(neg) + np.count_nonzero(pos) < valid.sum()
        h, loss = finetune_osh(h0, entries, neg, pos)
        ref, ref_loss = pixel_finetune_osh(h0, entries[ids], valid, pseudo)
        np.testing.assert_allclose(h.weight, ref.weight, rtol=0,
                                   atol=GROUPED_PLANE_TOL)
        assert abs(h.bias - ref.bias) <= GROUPED_PLANE_TOL
        assert abs(loss - ref_loss) <= GROUPED_PLANE_TOL

    @pytest.mark.parametrize("steps", [3, 50])
    def test_capped_rate_matches_pixel_loop(self, steps):
        # the bound caps this fit's rate below STEP_RATE; the pixel loop
        # steps the plane itself from that rate
        h0, x, neg, pos = halving_fit()
        rate = fit_rate(x, neg, pos)
        assert rate < STEP_RATE
        ids = np.repeat([0, 0, 1], [1, 10, 5])
        inside = np.repeat([False, True, False], [1, 10, 5])
        cfg = OSHConfig(steps=steps)
        h, loss = finetune_osh(h0, x, neg, pos, cfg)
        ref, ref_loss = pixel_finetune_osh(
            h0, x[ids][None], np.ones((1, ids.size), dtype=bool),
            inside[None], cfg, rate)
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

    def test_repeated_text_rejected(self, tmp_path):
        # one text, two embeddings: neither may silently win
        path = tmp_path / "emb.json"
        path.write_text('{"dim": 2, "entries": ['
                        '{"text": "a", "embedding": [1.0, 0.0]}, '
                        '{"text": "a", "embedding": [0.0, 1.0]}]}')
        with pytest.raises(FormatError, match="repeated embedding text 'a'"):
            EmbeddingTable.load(path)

    def test_overflowing_norm_rejected(self, tmp_path):
        # finite numbers, but the norm overflows: no zero-weight plane later
        path = tmp_path / "emb.json"
        path.write_text('{"dim": 2, "entries": ['
                        '{"text": "big", "embedding": [1e300, 0.0]}]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="embedding for 'big' has "
                               "a norm that overflows float64"):
                EmbeddingTable.load(path)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_dim_rejected(self, tmp_path, dim):
        path = tmp_path / "emb.json"
        path.write_text('{"dim": %d, "entries": []}' % dim)
        with pytest.raises(FormatError) as info:
            EmbeddingTable.load(path)
        assert str(info.value) == (f"{path}: embedding table is malformed: "
                                   f"dim must be >= 1, got {dim}")

    @pytest.mark.parametrize("embedding", ["[0, 0.0]", "[-0.0, 1e-320]"])
    def test_zero_norm_rejected(self, tmp_path, embedding):
        # no plane can be built from it; the load says which entry
        path = tmp_path / "emb.json"
        path.write_text('{"dim": 2, "entries": ['
                        '{"text": "flat", "embedding": %s}]}' % embedding)
        with pytest.raises(FormatError) as info:
            EmbeddingTable.load(path)
        assert str(info.value) == (f"{path}: embedding table is malformed: "
                                   "embedding for 'flat' has zero norm")

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
