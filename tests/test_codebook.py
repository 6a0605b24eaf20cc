import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goi.errors import FormatError, ValidationError
from goi.codebook import (Codebook, Decoder, LossWeights, assign_entry,
                      decode_hard, decode_logits, decode_soft, kmeans_init,
                      load_codebook, load_decoder, loss_e2e, loss_ent,
                      loss_joint, loss_max, save_codebook, save_decoder,
                      total_loss)

from oracles import central_diff, rel_err, termwise_total_loss


def unit_rows(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_setup(seed, n=5, d_high=8, d_low=3):
    rng = np.random.default_rng(seed)
    cb = Codebook(entries=rng.normal(size=(n, d_high)))
    dec = Decoder(weight=rng.normal(size=(n, d_low)),
                  bias=rng.normal(size=n))
    return rng, cb, dec


class TestKmeans:
    def test_n_distinct_points_become_centroids(self):
        rng = np.random.default_rng(0)
        samples = unit_rows(rng, 6, 16)
        cb = kmeans_init(samples, n_entries=6, iters=5, seed=0)
        sims = cb.entries @ samples.T
        # every sample is some centroid, up to permutation
        assert np.allclose(np.sort(sims.max(axis=1)), 1.0, atol=1e-9)

    def test_two_tight_pairs_brute_force(self):
        base = np.array([[1.0, 0.0], [1.0, 0.1],
                         [0.0, 1.0], [0.1, 1.0]])
        pts = base + np.random.default_rng(1).normal(scale=0.01, size=(4, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cb = kmeans_init(pts, n_entries=2, iters=20, seed=0)
        assign = np.argmax(pts @ cb.entries.T, axis=1)

        def cost(labels):
            total = 0.0
            for k in (0, 1):
                grp = pts[labels == k]
                if len(grp) == 0:
                    return np.inf
                c = grp.sum(axis=0)
                c /= np.linalg.norm(c)
                total += np.sum(1.0 - grp @ c)
            return total

        best = min(cost(np.array([(m >> i) & 1 for i in range(4)]))
                   for m in range(1, 15))
        assert cost(assign) == pytest.approx(best, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        samples = unit_rows(rng, 200, 8)
        a = kmeans_init(samples, n_entries=10, iters=5, seed=7)
        b = kmeans_init(samples, n_entries=10, iters=5, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_no_empty_or_zero_entries(self):
        rng = np.random.default_rng(4)
        # heavy duplication forces empty clusters during lloyd iterations
        samples = np.repeat(unit_rows(rng, 3, 6), 40, axis=0)
        cb = kmeans_init(samples, n_entries=8, iters=10, seed=0)
        assert np.all(np.linalg.norm(cb.entries, axis=1) > 1e-8)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            kmeans_init(np.eye(3), n_entries=5)

    @pytest.mark.parametrize("n_entries", [1, 0, -3])
    def test_fewer_than_two_entries_rejected(self, n_entries):
        with pytest.raises(ValidationError, match="at least 2 entries"):
            kmeans_init(np.eye(3), n_entries=n_entries)


class TestDecode:
    def test_logits_at_origin_equal_bias(self):
        _, cb, dec = random_setup(0)
        np.testing.assert_allclose(decode_logits(np.zeros(3), dec), dec.bias)

    def test_zero_weight_onehot_bias(self):
        dec = Decoder(weight=np.zeros((4, 2)), bias=np.eye(4)[2])
        e = decode_logits(np.array([0.3, -0.7]), dec)
        assert np.argmax(e) == 2

    def test_logits_match_naive_product(self):
        rng, cb, dec = random_setup(1)
        f = rng.normal(size=3)
        naive = np.array([dec.weight[i] @ f + dec.bias[i] for i in range(5)])
        assert np.max(np.abs(decode_logits(f, dec) - naive)) < 1e-7

    def test_hard_decode_onehot(self):
        _, cb, _ = random_setup(2, n=8)
        d, v = decode_hard(np.eye(8)[7], cb)
        assert d == 7 and np.array_equal(v, cb.entries[7])

    def test_hard_decode_tie_breaks_low(self):
        _, cb, _ = random_setup(3)
        d, _ = decode_hard(np.zeros(5), cb)
        assert d == 0

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_hard_decode_matches_scan(self, seed):
        rng, cb, _ = random_setup(seed)
        e = rng.normal(size=5)
        best, best_i = -np.inf, 0
        for i, val in enumerate(e):
            if val > best:
                best, best_i = val, i
        d, _ = decode_hard(e, cb)
        assert d == best_i

    def test_soft_decode_saturated(self):
        _, cb, _ = random_setup(4)
        v = decode_soft(np.eye(5)[3] * 1e6, cb, temp=1.0)
        assert np.max(np.abs(v - cb.entries[3])) < 1e-6

    def test_soft_decode_uniform_is_mean(self):
        _, cb, _ = random_setup(5)
        v = decode_soft(np.full(5, 2.0), cb, temp=1.0)
        np.testing.assert_allclose(v, cb.entries.mean(axis=0), rtol=1e-9)

    def test_soft_decode_high_temp_agrees_with_hard(self):
        rng, cb, _ = random_setup(6)
        e = rng.normal(size=5)
        e[np.argmax(e)] += 0.1  # enforce a clear margin
        _, v_hard = decode_hard(e, cb)
        v_soft = decode_soft(e, cb, temp=1e3)
        assert np.max(np.abs(v_soft - v_hard)) < 1e-6

    def test_assign_entry_self(self):
        _, cb, _ = random_setup(7)
        assert assign_entry(cb.entries[3], cb) == 3

    def test_assign_entry_scan_oracle(self):
        rng, cb, _ = random_setup(8)
        v = rng.normal(size=8)
        cos = (cb.entries @ v) / (np.linalg.norm(cb.entries, axis=1)
                                  * np.linalg.norm(v))
        assert assign_entry(v, cb) == int(np.argmax(cos))


class TestLossValues:
    def test_ent_uniform_is_log_n(self):
        cb = Codebook(entries=np.tile(np.eye(4)[0], (300, 1)))
        v = cb.entries[0]
        loss, _ = loss_ent(v, cb, tau=1.0)
        assert loss == pytest.approx(np.log(300), abs=1e-9)
        assert loss == pytest.approx(5.7038, abs=5e-4)

    def test_ent_saturated_near_zero(self):
        entries = -np.tile(np.eye(3)[0], (6, 1))
        entries[2] = np.eye(3)[0]
        cb = Codebook(entries=entries)
        loss, _ = loss_ent(np.eye(3)[0], cb, tau=50.0)
        assert loss < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_ent_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        cb = Codebook(entries=rng.normal(size=(n, 5)))
        v = rng.normal(size=5)
        if np.linalg.norm(v) < 1e-6:
            return
        loss, _ = loss_ent(v, cb, tau=float(rng.uniform(0.1, 10.0)))
        assert -1e-12 <= loss <= np.log(n) + 1e-12

    def test_ent_scale_invariant_in_target(self):
        rng, cb, _ = random_setup(9)
        v = rng.normal(size=8)
        l1, _ = loss_ent(v, cb, tau=2.0)
        l3, _ = loss_ent(3.0 * v, cb, tau=2.0)
        assert abs(l1 - l3) < 1e-9

    def test_max_zero_at_match(self):
        _, cb, _ = random_setup(10)
        loss, d, _ = loss_max(cb.entries[2], cb)
        assert loss == pytest.approx(0.0, abs=1e-12) and d == 2

    def test_max_two_at_antipode(self):
        cb = Codebook(entries=np.array([[1.0, 0.0]]))
        loss, _, _ = loss_max(np.array([-1.0, 0.0]), cb)
        assert loss == pytest.approx(2.0)

    def test_joint_values(self):
        assert loss_joint(np.eye(6)[4], 4)[0] == pytest.approx(0.0)
        assert loss_joint(np.zeros(6), 1)[0] == pytest.approx(1.0)
        rng = np.random.default_rng(11)
        e = rng.normal(size=6)
        loss, _ = loss_joint(e, 2)
        oracle = sum((e[i] - (1.0 if i == 2 else 0.0)) ** 2 for i in range(6))
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_e2e_values(self):
        v = np.array([0.3, -0.4, 1.0])
        assert loss_e2e(v, 2.0 * v)[0] == pytest.approx(0.0, abs=1e-12)
        assert loss_e2e(np.array([1.0, 0.0]), np.array([0.0, 5.0]))[0] \
            == pytest.approx(1.0)

    def test_argmax_invariance_under_decoder_scaling(self):
        rng, cb, dec = random_setup(12)
        f = rng.normal(size=3)
        d1, _ = decode_hard(decode_logits(f, dec), cb)
        dec2 = Decoder(weight=7.0 * dec.weight, bias=7.0 * dec.bias)
        d2, _ = decode_hard(decode_logits(f, dec2), cb)
        assert d1 == d2


class TestLossGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_ent_gradient(self, seed):
        rng, cb, _ = random_setup(seed, n=4, d_high=5)
        v = rng.normal(size=5)
        tau = float(rng.uniform(0.5, 3.0))
        _, grad = loss_ent(v, cb, tau)
        num = central_diff(
            lambda t: loss_ent(v, Codebook(entries=t.reshape(4, 5)), tau)[0],
            cb.entries.ravel()).reshape(4, 5)
        assert rel_err(grad, num) < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_max_gradient(self, seed):
        rng, cb, _ = random_setup(seed + 100, n=4, d_high=5)
        v = rng.normal(size=5)
        loss, d, grad_row = loss_max(v, cb)

        def f(row):
            ents = cb.entries.copy()
            ents[d] = row  # d held fixed under differentiation
            u = v / np.linalg.norm(v)
            return 1.0 - float(u @ row / np.linalg.norm(row))

        num = central_diff(f, cb.entries[d])
        assert rel_err(grad_row, num) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_joint_gradient(self, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=6)
        _, grad = loss_joint(e, 3)
        num = central_diff(lambda t: loss_joint(t, 3)[0], e)
        assert rel_err(grad, num) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_e2e_gradient(self, seed):
        rng = np.random.default_rng(seed)
        v_gt = rng.normal(size=5)
        v = rng.normal(size=5)
        _, grad = loss_e2e(v_gt, v)
        num = central_diff(lambda t: loss_e2e(v_gt, t)[0], v)
        assert rel_err(grad, num) < 1e-4


class TestTotalLoss:
    def make_batch(self, seed, bsz=6, n=3, d_high=4, d_low=2):
        rng = np.random.default_rng(seed)
        cb = Codebook(entries=rng.normal(size=(n, d_high)))
        dec = Decoder(weight=rng.normal(size=(n, d_low)),
                      bias=rng.normal(size=n))
        v_gt = rng.normal(size=(bsz, d_high))
        fhat = rng.normal(size=(bsz, d_low))
        return cb, dec, v_gt, fhat

    def test_perfect_batch_leaves_only_entropy(self):
        # logits exactly onehot and decoded entry == target entry
        entries = np.eye(4)[:3]
        cb = Codebook(entries=entries)
        dec = Decoder(weight=np.zeros((3, 2)), bias=np.zeros(3))
        v_gt = np.array([entries[1]])
        fhat = np.zeros((1, 2))
        dec.bias = np.eye(3)[1] * 1.0
        # crank the soft-decode temperature so the mixture saturates
        value, _ = total_loss(v_gt, fhat, cb, dec, tau=1.0,
                              weights=LossWeights(), temp_dec=1e4)
        assert value.joint == pytest.approx(0.0, abs=1e-12)
        assert value.max == pytest.approx(0.0, abs=1e-12)
        assert value.e2e == pytest.approx(0.0, abs=1e-6)
        assert value.total == pytest.approx(0.3 * value.ent, rel=1e-9)

    def test_batch_mean_semantics(self):
        cb, dec, v_gt, fhat = self.make_batch(0)
        whole, _ = total_loss(v_gt, fhat, cb, dec, 1.0)
        singles = [total_loss(v_gt[i:i + 1], fhat[i:i + 1], cb, dec, 1.0)[0]
                   for i in range(len(v_gt))]
        assert whole.total == pytest.approx(
            np.mean([s.total for s in singles]), rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_full_gradients_match_finite_differences(self, seed):
        cb, dec, v_gt, fhat = self.make_batch(seed, bsz=4, n=3, d_high=4,
                                              d_low=2)
        tau = 1.3
        _, grads = total_loss(v_gt, fhat, cb, dec, tau)

        def loss_entries(t):
            return total_loss(v_gt, fhat, Codebook(entries=t.reshape(3, 4)),
                              dec, tau)[0].total

        def loss_weight(t):
            d2 = Decoder(weight=t.reshape(3, 2), bias=dec.bias)
            return total_loss(v_gt, fhat, cb, d2, tau)[0].total

        def loss_bias(t):
            d2 = Decoder(weight=dec.weight, bias=t)
            return total_loss(v_gt, fhat, cb, d2, tau)[0].total

        def loss_fhat(t):
            return total_loss(v_gt, t.reshape(4, 2), cb, dec, tau)[0].total

        assert rel_err(grads.entries,
                       central_diff(loss_entries,
                                    cb.entries.ravel())) < 1e-4
        assert rel_err(grads.dec_weight,
                       central_diff(loss_weight,
                                    dec.weight.ravel())) < 1e-4
        assert rel_err(grads.dec_bias, central_diff(loss_bias, dec.bias)) < 1e-4
        assert rel_err(grads.fhat,
                       central_diff(loss_fhat, fhat.ravel())) < 1e-4

    def test_empty_batch_rejected(self):
        cb, dec, _, _ = self.make_batch(1)
        with pytest.raises(ValidationError):
            total_loss(np.zeros((0, 4)), np.zeros((0, 2)), cb, dec, 1.0)


def random_batch(seed, bsz, n, d_high, d_low):
    rng = np.random.default_rng(seed)
    cb = Codebook(entries=rng.normal(size=(n, d_high)))
    dec = Decoder(weight=rng.normal(size=(n, d_low)), bias=rng.normal(size=n))
    return (cb, dec, rng.normal(size=(bsz, d_high)),
            rng.normal(size=(bsz, d_low)))


class TestMatchesTermwise:
    """total_loss against the term-by-term reference in tests/oracles.py.

    Loss values must be bit-equal; the entries gradient sums the same
    terms in another order, so it may differ by rounding only. The
    other gradients do not change and must be bit-equal too.
    """

    def check(self, cb, dec, v_gt, fhat, tau=1.3, weights=None,
              temp_dec=10.0):
        value, grads = total_loss(v_gt, fhat, cb, dec, tau, weights,
                                  temp_dec=temp_dec)
        ref_value, ref_grads = termwise_total_loss(v_gt, fhat, cb, dec, tau,
                                                   weights, temp_dec=temp_dec)
        assert value == ref_value
        assert rel_err(grads.entries, ref_grads.entries) <= 1e-13
        assert np.array_equal(grads.dec_weight, ref_grads.dec_weight)
        assert np.array_equal(grads.dec_bias, ref_grads.dec_bias)
        assert np.array_equal(grads.fhat, ref_grads.fhat)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches(self, seed):
        rng = np.random.default_rng([seed, 5])
        bsz, n = int(rng.integers(1, 80)), int(rng.integers(2, 40))
        self.check(*random_batch(seed, bsz, n, int(rng.integers(2, 40)),
                                 int(rng.integers(1, 8))),
                   tau=float(rng.uniform(0.5, 3.0)),
                   temp_dec=float(rng.uniform(1.0, 20.0)))

    def test_training_sized_batch(self):
        self.check(*random_batch(0, 340, 300, 256, 10), tau=2.0)

    def test_single_row(self):
        self.check(*random_batch(1, 1, 7, 12, 3))

    def test_every_row_on_one_entry(self):
        cb, dec, _, fhat = random_batch(2, 50, 9, 16, 4)
        rng = np.random.default_rng(2)
        v_gt = cb.entries[3] + 1e-3 * rng.normal(size=(50, 16))
        assert np.all(np.argmax(v_gt @ cb.entries.T
                                / np.linalg.norm(cb.entries, axis=1),
                                axis=1) == 3)
        self.check(cb, dec, v_gt, fhat)

    @pytest.mark.parametrize("weights", [
        LossWeights(ent=0.0), LossWeights(max=0.0),
        LossWeights(ent=0.7, max=2.5, joint=0.0, e2e=0.4)])
    def test_term_weights(self, weights):
        self.check(*random_batch(3, 40, 11, 20, 5), weights=weights)


class TestCodebookFiles:
    def test_codebook_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cb = Codebook(entries=rng.normal(size=(7, 5)).astype(np.float32))
        p1, p2 = tmp_path / "a.goic", tmp_path / "b.goic"
        save_codebook(cb, p1)
        save_codebook(load_codebook(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_decoder_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        dec = Decoder(weight=rng.normal(size=(7, 3)).astype(np.float32),
                      bias=rng.normal(size=7).astype(np.float32))
        p1, p2 = tmp_path / "a.goid", tmp_path / "b.goid"
        save_decoder(dec, p1)
        save_decoder(load_decoder(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "x.goic"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError):
            load_codebook(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        cb = Codebook(entries=rng.normal(size=(4, 3)))
        path = tmp_path / "x.goic"
        save_codebook(cb, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            load_codebook(path)
