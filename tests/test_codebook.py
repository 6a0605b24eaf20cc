import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from goi import codebook
from goi.errors import FormatError, NumericError, ValidationError
from goi.codebook import (DECODE_CHUNK_ROWS, Codebook, Decoder, LossWeights,
                          decode_logits, entry_ids, kmeans_init, load_codebook,
                          load_decoder, save_codebook, save_decoder,
                          total_loss)

from oracles import (central_diff, literal_kmeans, one_term, rel_err,
                     termwise_total_loss, total_loss_fd_errors, unit_targets)


def unit_rows(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def lloyd_sums(monkeypatch, csr_matrix=sparse.csr_matrix):
    """The assignments of the one-hot CSR products kmeans_init makes, one
    per Lloyd step that sums its clusters; csr_matrix builds each."""
    calls = []

    def recording(arg, shape):
        calls.append(arg[1][0])
        return csr_matrix(arg, shape=shape)
    monkeypatch.setattr(codebook, "sparse",
                        SimpleNamespace(csr_matrix=recording))
    return calls


def random_setup(seed, n=5, d_high=8, d_low=3):
    rng = np.random.default_rng(seed)
    cb = Codebook(entries=rng.normal(size=(n, d_high)))
    dec = Decoder(weight=rng.normal(size=(n, d_low)),
                  bias=rng.normal(size=n))
    return rng, cb, dec


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def term_values(v_gt, cb, tau=1.0):
    """LossValue for targets v_gt under a decoder that ignores features."""
    v_gt = unit_targets(v_gt)
    n = cb.n_entries
    dec = Decoder(weight=np.zeros((n, 1)), bias=np.zeros(n))
    return total_loss(v_gt, np.zeros((len(v_gt), 1)), cb, dec, tau)[0]


class TestKmeans:
    def test_n_distinct_points_become_centroids(self):
        rng = np.random.default_rng(0)
        samples = unit_rows(rng, 6, 16)
        cb = kmeans_init(samples, n_entries=6, iters=5, seed=0)
        sims = cb.entries @ samples.T
        # every sample is some centroid, up to permutation
        assert np.allclose(np.sort(sims.max(axis=1)), 1.0, atol=1e-9)

    def test_nan_sample_rejected(self):
        # a NaN norm fails the norm test as a zero norm does
        samples = unit_rows(np.random.default_rng(0), 6, 4)
        samples[2, 1] = np.nan
        with pytest.raises(ValidationError, match="zero-norm sample"):
            kmeans_init(samples, n_entries=4, iters=2, seed=0)

    def test_infinite_sample_rejected(self):
        # an inf norm passes the zero-norm test, and v / inf would be NaN
        samples = unit_rows(np.random.default_rng(0), 6, 4)
        samples[2, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite sample"):
                kmeans_init(samples, n_entries=4, iters=2, seed=0)

    def test_overflowing_sample_norm_rejected(self):
        # finite, but a square overflows, or finite squares sum to inf
        for row in ([0.0, 1e200, 0.0, 0.0], [1e154] * 4):
            samples = unit_rows(np.random.default_rng(0), 6, 4)
            samples[2] = row
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError,
                                   match="sample norm overflows float64"):
                    kmeans_init(samples, n_entries=4, iters=2, seed=0)

    def test_float32_samples_give_the_codebook_of_their_float64_cast(self):
        samples = np.random.default_rng(4).normal(
            size=(200, 16)).astype(np.float32)
        want = kmeans_init(samples.astype(np.float64), n_entries=8, iters=3,
                           seed=1)
        got = kmeans_init(samples, n_entries=8, iters=3, seed=1)
        assert got.entries.tobytes() == want.entries.tobytes()

    def test_peak_memory_drops_the_rows_once_normalised(self):
        # random 64-d rows never cover each other, so k-means fills its 16
        # entries; Lloyd then holds unit (2x the float32 rows) and two
        # (samples, 16) sims (1x): 3.2x, or 4.2x if the rows stay alive.
        # The rows are made under tracemalloc, so that freeing them shows.
        tracemalloc.start()
        try:
            rows = [np.random.default_rng(8).standard_normal(
                (20000, 64), dtype=np.float32)]
            nbytes = rows[0].nbytes
            tracemalloc.reset_peak()
            cb = kmeans_init(rows.pop(), n_entries=16, iters=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.n_entries == 16
        assert peak <= 3.5 * nbytes, peak / nbytes

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

    @pytest.mark.parametrize("m, n, d, steps", [
        (50, 7, 5, 6), (2000, 300, 16, 6), (500, 40, 16, 10),
        (20_000, 300, 64, 10)],
        ids=["50-7-5", "2000-300-16", "500-40-16", "20000-300-64"])
    def test_matches_literal_reference_bytes(self, m, n, d, steps,
                                             monkeypatch):
        # m samples in d dimensions, cap n; Lloyd's assignment last
        # changes at step `steps`, which is the last to sum its clusters
        samples = unit_rows(np.random.default_rng([m, n, d]), m, d)
        sums = lloyd_sums(monkeypatch)
        cb = kmeans_init(samples, n_entries=n, seed=m)
        ref, _ = literal_kmeans(samples, n, codebook.KMEANS_ITERS, m)
        assert len(sums) == steps
        assert cb.entries.tobytes() == ref.tobytes()

    def test_noisy_clusters_match_literal_reference_bytes(self, monkeypatch):
        rng = np.random.default_rng(9)
        samples = np.repeat(unit_rows(rng, 5, 32), 400, axis=0)
        samples += rng.normal(scale=0.1 / np.sqrt(32), size=samples.shape)
        sums = lloyd_sums(monkeypatch)
        cb = kmeans_init(samples, n_entries=300, seed=2)
        ref, _ = literal_kmeans(samples, 300, codebook.KMEANS_ITERS, 2)
        assert cb.n_entries == 5
        assert cb.entries.tobytes() == ref.tobytes()
        # the second step repeats the first's assignment and stops Lloyd
        assert len(sums) == 1

    def test_step_after_a_reseed_is_not_a_fixed_point(self, monkeypatch):
        # every sample is its own seed, so every max-similarity is 1 and
        # the least covered sample is sample 0. The first sums are made to
        # empty sample 0's cluster, which is then reseeded with sample 0:
        # the next step repeats the assignment, yet sums it again, since
        # the reseeded centroid is no sum
        emptied = []

        def emptying(arg, shape):
            product = sparse.csr_matrix(arg, shape=shape)
            if emptied:
                return product
            emptied.append(arg[1][0][0])   # sample 0's cluster
            return product.multiply(np.arange(shape[0])[:, None]
                                    != emptied[0])
        sums = lloyd_sums(monkeypatch, emptying)
        cb = kmeans_init(np.eye(3), n_entries=3, iters=5, seed=0)
        assert len(sums) == 2
        assert np.array_equal(cb.entries[np.argsort(np.argmax(
            cb.entries, axis=1))], np.eye(3))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        samples = unit_rows(rng, 200, 8)
        a = kmeans_init(samples, n_entries=10, iters=5, seed=7)
        b = kmeans_init(samples, n_entries=10, iters=5, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_no_empty_or_zero_entries(self):
        rng = np.random.default_rng(4)
        # 3 distinct features, each repeated: seeding stops at 3 entries
        # under the cap of 8, none of them zero
        samples = np.repeat(unit_rows(rng, 3, 6), 40, axis=0)
        cb = kmeans_init(samples, n_entries=8, iters=10, seed=0)
        assert cb.n_entries == 3
        assert np.all(np.linalg.norm(cb.entries, axis=1) > 1e-8)

    def test_emptied_cluster_is_reseeded(self):
        # the draws of a random search over small inputs: 33 samples in
        # 4-D, cap 12; the second Lloyd pass empties one cluster
        rng = np.random.default_rng(14422)
        m, d, cap = (int(rng.integers(lo, hi))
                     for lo, hi in ((3, 40), (2, 5), (2, 16)))
        samples = rng.normal(size=(m, d))
        a = kmeans_init(samples, n_entries=cap, iters=10, seed=14422)
        ref, emptied = literal_kmeans(samples, cap, 10, 14422)
        assert emptied > 0
        assert a.entries.tobytes() == ref.tobytes()
        assert a.n_entries == cap
        assert np.all(np.linalg.norm(a.entries, axis=1) > 1e-8)
        b = kmeans_init(samples, n_entries=cap, iters=10, seed=14422)
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_one_entry_per_noisy_cluster(self):
        rng = np.random.default_rng(6)
        centers = unit_rows(rng, 5, 32)
        samples = np.repeat(centers, 200, axis=0)
        samples += rng.normal(scale=0.1 / np.sqrt(32), size=samples.shape)
        cb = kmeans_init(samples, n_entries=300, seed=0)
        # the cap is far above the 5 semantics; each entry is one center
        assert cb.n_entries == 5
        sims = cb.entries @ centers.T
        assert sorted(np.argmax(sims, axis=1)) == list(range(5))
        assert np.all(np.max(sims, axis=1) > 0.99)

    def test_spread_samples_fill_the_cap(self):
        samples = unit_rows(np.random.default_rng(7), 500, 16)
        assert kmeans_init(samples, n_entries=40, seed=0).n_entries == 40

    def test_cap_above_the_sample_count(self):
        # three orthogonal samples: each seed covers only itself
        cb = kmeans_init(np.eye(3), n_entries=5, iters=2)
        order = np.argsort(np.argmax(cb.entries, axis=1))
        assert np.array_equal(cb.entries[order], np.eye(3))

    def test_one_distinct_feature_rejected(self):
        # one direction at many lengths: the first seed covers every sample
        samples = np.outer(np.arange(1.0, 51.0), unit_rows(
            np.random.default_rng(8), 1, 8)[0])
        with pytest.raises(ValidationError, match="one distinct feature"):
            kmeans_init(samples, n_entries=10)

    @pytest.mark.parametrize("shape", [(8,), (4, 2, 3)])
    def test_samples_not_rows_rejected(self, shape):
        samples = np.random.default_rng(6).normal(size=shape)
        with pytest.raises(ValidationError, match="must be a 2D array"):
            kmeans_init(samples, n_entries=2)

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_samples_rejected(self, m):
        with pytest.raises(ValidationError, match="at least 2 samples"):
            kmeans_init(np.ones((m, 4)), n_entries=2)

    @pytest.mark.parametrize("n_entries", [1, 0, -3])
    def test_fewer_than_two_entries_rejected(self, n_entries):
        with pytest.raises(ValidationError, match="at least 2 entries"):
            kmeans_init(np.eye(3), n_entries=n_entries)

    @pytest.mark.parametrize("iters", [0, -4])
    def test_fewer_than_one_iteration_rejected(self, iters):
        samples = unit_rows(np.random.default_rng(5), 20, 4)
        with pytest.raises(ValidationError, match="1 iteration"):
            kmeans_init(samples, n_entries=4, iters=iters)


class TestNormalizeRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_float64_quotient_by_the_norm(self, dtype):
        x = np.random.default_rng(5).normal(size=(300, 12)).astype(dtype)
        x64 = x.astype(np.float64)
        want = x64 / np.linalg.norm(x64, axis=-1, keepdims=True)
        got = codebook._normalize_rows(x)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_leaves_its_input_and_returns_a_new_array(self):
        x = np.random.default_rng(6).normal(size=(50, 8))
        before = x.copy()
        got = codebook._normalize_rows(x)
        assert got is not x and not np.shares_memory(got, x)
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_allocates_only_its_output(self, dtype):
        x = np.random.default_rng(7).normal(size=(20000, 32)).astype(dtype)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = codebook._normalize_rows(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * got.nbytes, peak / got.nbytes


class TestDecode:
    def test_logits_at_origin_equal_bias(self):
        _, cb, dec = random_setup(0)
        np.testing.assert_allclose(decode_logits(np.zeros(3), dec), dec.bias)

    def test_weight_bias_row_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="weight/bias row mismatch"):
            Decoder(weight=np.zeros((4, 2)), bias=np.zeros(3))

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
        dec = Decoder(weight=np.eye(8), bias=np.zeros(8))
        assert entry_ids(np.eye(8)[7], dec) == 7

    def test_hard_decode_tie_breaks_low(self):
        dec = Decoder(weight=np.zeros((5, 3)), bias=np.zeros(5))
        assert entry_ids(np.ones(3), dec) == 0
        dec.bias[[2, 4]] = 1.0
        assert entry_ids(np.ones(3), dec) == 2

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_hard_decode_matches_scan(self, seed):
        rng, _, dec = random_setup(seed)
        f = rng.normal(size=(4, 3))
        for row, d in zip(f, entry_ids(f, dec)):
            best, best_i = -np.inf, 0
            for i in range(5):
                val = dec.weight[i] @ row + dec.bias[i]
                if val > best:
                    best, best_i = val, i
            assert d == best_i

    def test_logits_bias_added_in_place(self):
        rng = np.random.default_rng(14)
        f = rng.normal(size=(16384, 10))
        dec = Decoder(weight=rng.normal(size=(300, 10)),
                      bias=rng.normal(size=300))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            e = decode_logits(f, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * e.nbytes
        assert e.tobytes() == (f @ dec.weight.T + dec.bias).tobytes()

    def test_hard_decode_peaks_at_one_chunk(self):
        rng = np.random.default_rng(15)
        f = rng.normal(size=(16384, 10)).astype(np.float32)
        dec = Decoder(weight=rng.normal(size=(300, 10)),
                      bias=rng.normal(size=300))
        assert f.shape[0] >= 4 * DECODE_CHUNK_ROWS
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ids = entry_ids(f, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * DECODE_CHUNK_ROWS * 300 * 8
        assert ids.shape == (16384,)

    @pytest.mark.parametrize("rows", [0, 1, DECODE_CHUNK_ROWS,
                                      DECODE_CHUNK_ROWS + 1,
                                      3 * DECODE_CHUNK_ROWS + 5])
    def test_chunked_hard_decode_matches_one_batch(self, rows):
        rng = np.random.default_rng(rows)
        f = rng.normal(size=(rows, 10)).astype(np.float32)
        dec = Decoder(weight=rng.normal(size=(300, 10)),
                      bias=rng.normal(size=300))
        ids = entry_ids(f, dec)
        assert ids.dtype == np.intp
        assert ids.tobytes() == np.argmax(decode_logits(f, dec),
                                          axis=-1).tobytes()
        grid = entry_ids(f.reshape(1, rows, 10), dec)
        assert grid.shape == (1, rows) and np.array_equal(grid[0], ids)

    # the soft decode is total_loss's e2e term: 1 - cos(v_gt, s @ entries)
    # with s = softmax(temp_dec * logits)
    def test_soft_decode_saturated(self):
        rng, cb, _ = random_setup(4)
        dec = Decoder(weight=np.zeros((5, 1)), bias=np.eye(5)[3] * 1e6)
        v_gt = rng.normal(size=(1, 8))
        value, _ = total_loss(unit_targets(v_gt), np.zeros((1, 1)), cb, dec,
                              1.0, temp_dec=1.0)
        assert value.e2e == pytest.approx(1.0 - cosine(v_gt[0],
                                                       cb.entries[3]),
                                          abs=1e-12)

    def test_soft_decode_uniform_is_mean(self):
        rng, cb, _ = random_setup(5)
        dec = Decoder(weight=np.zeros((5, 1)), bias=np.full(5, 2.0))
        v_gt = rng.normal(size=(1, 8))
        value, _ = total_loss(unit_targets(v_gt), np.zeros((1, 1)), cb, dec,
                              1.0, temp_dec=1.0)
        mean = cb.entries.mean(axis=0)
        assert value.e2e == pytest.approx(1.0 - cosine(v_gt[0], mean),
                                          rel=1e-9)

    def test_soft_decode_high_temp_agrees_with_hard(self):
        rng, cb, dec = random_setup(6)
        fhat = rng.normal(size=(1, 3))
        dec.bias[entry_ids(fhat, dec)] += 0.1  # enforce a clear margin
        v_gt = rng.normal(size=(1, 8))
        value, _ = total_loss(unit_targets(v_gt), fhat, cb, dec, 1.0,
                              temp_dec=1e3)
        hard = cb.entries[entry_ids(fhat[0], dec)]
        assert value.e2e == pytest.approx(1.0 - cosine(v_gt[0], hard),
                                          abs=1e-6)

    # the assigned entry d is total_loss's highest-cosine entry
    def test_assign_entry_self(self):
        _, cb, _ = random_setup(7)
        dec = Decoder(weight=np.zeros((5, 1)), bias=np.eye(5)[3])
        value, _ = total_loss(unit_targets(cb.entries[3:4]), np.zeros((1, 1)),
                              cb, dec, 1.0)
        assert value.max == pytest.approx(0.0, abs=1e-12)
        assert value.joint == 0.0   # logits are exactly onehot(d), d = 3

    def test_assign_entry_scan_oracle(self):
        rng, cb, _ = random_setup(8)
        v = rng.normal(size=8)
        e = rng.normal(size=5)
        dec = Decoder(weight=np.zeros((5, 1)), bias=e)
        cos = [cosine(v, t) for t in cb.entries]
        d = int(np.argmax(cos))
        value, _ = total_loss(unit_targets(v), np.zeros((1, 1)), cb, dec,
                              1.0)
        assert value.joint == pytest.approx(
            sum((e[i] - (1.0 if i == d else 0.0)) ** 2 for i in range(5)),
            rel=1e-12)
        assert value.max == pytest.approx(1.0 - max(cos), abs=1e-12)


class TestLossValues:
    def test_ent_uniform_is_log_n(self):
        cb = Codebook(entries=np.tile(np.eye(4)[0], (300, 1)))
        loss = term_values(cb.entries[0], cb).ent
        assert loss == pytest.approx(np.log(300), abs=1e-9)
        assert loss == pytest.approx(5.7038, abs=5e-4)

    def test_ent_saturated_near_zero(self):
        entries = -np.tile(np.eye(3)[0], (6, 1))
        entries[2] = np.eye(3)[0]
        cb = Codebook(entries=entries)
        assert term_values(np.eye(3)[0], cb, tau=50.0).ent < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_ent_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        cb = Codebook(entries=rng.normal(size=(n, 5)))
        v = rng.normal(size=5)
        if np.linalg.norm(v) < 1e-6:
            return
        loss = term_values(v, cb, tau=float(rng.uniform(0.1, 10.0))).ent
        assert -1e-12 <= loss <= np.log(n) + 1e-12

    def test_ent_scale_invariant_in_target(self):
        rng, cb, _ = random_setup(9)
        v = rng.normal(size=8)
        l1 = term_values(v, cb, tau=2.0).ent
        l3 = term_values(3.0 * v, cb, tau=2.0).ent
        assert abs(l1 - l3) < 1e-9

    def test_max_zero_at_match(self):
        _, cb, _ = random_setup(10)
        assert term_values(cb.entries[2], cb).max == pytest.approx(
            0.0, abs=1e-12)

    def test_max_two_at_antipode(self):
        cb = Codebook(entries=np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert term_values(np.array([-1.0, 0.0]), cb).max \
            == pytest.approx(2.0)

    def test_joint_values(self):
        _, cb, _ = random_setup(11, n=6)

        def joint(d, e):  # target on entry d, logits e
            dec = Decoder(weight=np.zeros((6, 1)), bias=e)
            return total_loss(unit_targets(cb.entries[d:d + 1]),
                              np.zeros((1, 1)), cb, dec, 1.0)[0].joint

        assert joint(4, np.eye(6)[4]) == pytest.approx(0.0)
        assert joint(1, np.zeros(6)) == pytest.approx(1.0)
        e = np.random.default_rng(11).normal(size=6)
        oracle = sum((e[i] - (1.0 if i == 2 else 0.0)) ** 2 for i in range(6))
        assert joint(2, e) == pytest.approx(oracle, rel=1e-12)

    def test_e2e_values(self):
        # logits saturated on entry 0, so the soft decode is that entry
        dec = Decoder(weight=np.zeros((2, 1)), bias=np.array([50.0, -50.0]))

        def e2e(v_gt, entry):
            cb = Codebook(entries=np.vstack([entry, -entry]))
            return total_loss(unit_targets(v_gt), np.zeros((1, 1)), cb, dec,
                              1.0)[0].e2e

        v = np.array([0.3, -0.4, 1.0])
        assert e2e(v, 2.0 * v) == pytest.approx(0.0, abs=1e-12)
        assert e2e(np.array([1.0, 0.0]), np.array([0.0, 5.0])) \
            == pytest.approx(1.0)

    def test_argmax_invariance_under_decoder_scaling(self):
        rng, _, dec = random_setup(12)
        f = rng.normal(size=3)
        dec2 = Decoder(weight=7.0 * dec.weight, bias=7.0 * dec.bias)
        assert entry_ids(f, dec) == entry_ids(f, dec2)


def term_gradient_error(term, groups, seed):
    """Worst FD error of one loss term's gradients, at temp_dec=1."""
    rng, cb, dec = random_setup(seed, n=4, d_high=5)
    v_gt = rng.normal(size=(3, 5))
    fhat = rng.normal(size=(3, 3))
    tau = float(rng.uniform(0.5, 3.0))
    errs = total_loss_fd_errors(v_gt, fhat, cb, dec, tau, one_term(term),
                                1.0, groups)
    return max(errs.values())


class TestLossGradients:
    """Each term alone through total_loss, the code that trains."""

    @pytest.mark.parametrize("seed", range(10))
    def test_ent_gradient(self, seed):
        assert term_gradient_error("ent", ("entries",), seed) < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_max_gradient(self, seed):
        assert term_gradient_error("max", ("entries",), seed + 100) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_joint_gradient(self, seed):
        assert term_gradient_error("joint", ("dec_bias", "dec_weight",
                                             "fhat"), seed) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_e2e_gradient(self, seed):
        assert term_gradient_error("e2e", ("entries", "dec_bias",
                                           "dec_weight", "fhat"),
                                   seed) < 1e-4


class TestTotalLoss:
    def make_batch(self, seed, bsz=6, n=3, d_high=4, d_low=2):
        rng = np.random.default_rng(seed)
        cb = Codebook(entries=rng.normal(size=(n, d_high)))
        dec = Decoder(weight=rng.normal(size=(n, d_low)),
                      bias=rng.normal(size=n))
        v_gt = unit_targets(rng.normal(size=(bsz, d_high)))
        fhat = rng.normal(size=(bsz, d_low))
        return cb, dec, v_gt, fhat

    def test_perfect_batch_leaves_only_entropy(self):
        # logits exactly onehot and decoded entry == target entry
        entries = np.eye(4)[:3]
        cb = Codebook(entries=entries)
        dec = Decoder(weight=np.zeros((3, 2)), bias=np.zeros(3))
        v_gt = unit_targets(entries[1])
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

    @pytest.mark.parametrize("loss", [total_loss, termwise_total_loss])
    def test_zero_entry_is_numeric_error(self, loss):
        cb, dec, v_gt, fhat = self.make_batch(2)
        cb.entries[0] = 0.0  # collapsed after the constructor checked it
        with pytest.raises(NumericError, match="zero-norm codebook entry"):
            loss(v_gt, fhat, cb, dec, 1.0)

    @pytest.mark.parametrize("loss", [total_loss, termwise_total_loss])
    def test_collapsed_soft_decode_is_numeric_error(self, loss):
        # two opposite entries at equal weight decode to exactly zero
        cb = Codebook(entries=[[1.0, 0.0], [-1.0, 0.0]])
        dec = Decoder(weight=np.zeros((2, 2)), bias=np.zeros(2))
        with pytest.raises(NumericError,
                           match="soft-decoded feature collapsed to zero"):
            loss(np.array([[1.0, 0.0]]), np.zeros((1, 2)), cb, dec, 1.0)

    def test_negative_soft_decode_norm_is_numeric_error(self):
        # three entries summing to zero at equal weight: s G s^T rounds
        # below zero, where its square root would be NaN
        t = np.random.default_rng(3).normal(size=(3, 4))
        t[2] = -(t[0] + t[1])
        s = np.full(3, 1.0 / 3.0)
        assert s @ (t @ t.T) @ s < 0.0
        dec = Decoder(weight=np.zeros((3, 2)), bias=np.zeros(3))
        with pytest.raises(NumericError,
                           match="soft-decoded feature collapsed to zero"):
            total_loss(unit_targets(t[:1]), np.zeros((1, 2)),
                       Codebook(entries=t), dec, 1.0)

    def test_nan_soft_decode_norm_is_numeric_error(self):
        # an entry turned NaN after construction fails the entry-norm test,
        # which NaN cannot pass, before any |v|^2 is formed
        cb, dec, v_gt, fhat = self.make_batch(2)
        cb.entries[1, 0] = np.nan
        with pytest.raises(NumericError, match="zero-norm codebook entry"):
            total_loss(v_gt, fhat, cb, dec, 1.0)


def random_batch(seed, bsz, n, d_high, d_low):
    rng = np.random.default_rng(seed)
    cb = Codebook(entries=rng.normal(size=(n, d_high)))
    dec = Decoder(weight=rng.normal(size=(n, d_low)), bias=rng.normal(size=n))
    return (cb, dec, rng.normal(size=(bsz, d_high)),
            rng.normal(size=(bsz, d_low)))


class TestMatchesTermwise:
    """total_loss against the term-by-term reference in tests/oracles.py.

    total_loss computes its softmaxes in place, takes the entropy as
    log S - sum(p z) instead of -sum(p log p), folds scale factors in
    another order, and evaluates the e2e term in entry space (through the
    Gram matrix G = t t^T, never forming v = s t), so it rounds
    differently: every loss value must agree within 1e-14 relative and
    every gradient within rel_err 1e-13 (worst seen over 300 random
    batches up to 349x39x259, plus five each at 340x300x256 and
    340x6x256: 5.2e-16 and 3.1e-15).

    Where entries cancel in the soft decode, |v|^2 = s G s^T loses about
    rho^-2 of its relative precision, with rho = |v| / max |t|. There the
    bounds are 1e-16 rho^-2 for values and 1e-14 rho^-2 for gradients
    (worst seen over 200 batches each of two near-opposite 256-D entries
    at rho = 1e-1, 1e-2, 1e-3: values 6.5e-16, 5.5e-14, 4.5e-12; gradients
    3.8e-14, 4.3e-12, 9.9e-10).
    """

    def check(self, cb, dec, v_gt, fhat, tau=1.3, weights=None,
              temp_dec=10.0, value_tol=1e-14, grad_tol=1e-13):
        value, grads = total_loss(unit_targets(v_gt), fhat, cb, dec, tau,
                                  weights, temp_dec=temp_dec)
        ref_value, ref_grads = termwise_total_loss(v_gt, fhat, cb, dec, tau,
                                                   weights, temp_dec=temp_dec)
        for name in ("total", "ent", "max", "joint", "e2e"):
            assert getattr(value, name) == pytest.approx(
                getattr(ref_value, name), rel=value_tol, abs=0.0), name
        for name in ("entries", "dec_weight", "dec_bias", "fhat"):
            assert rel_err(getattr(grads, name),
                           getattr(ref_grads, name)) <= grad_tol, name

    @pytest.mark.parametrize("seed", range(5))
    def test_e2e_softmax_mean_term_vanishes(self, seed):
        # d(1 - cos(u, v))/dv is orthogonal to v, so with a = gv @ t.T the
        # term sum(s * a) = gv . v that total_loss leaves out is zero
        from scipy.special import softmax
        cb, dec, v_gt, fhat = random_batch(seed, 60, 30, 16, 4)
        u = v_gt / np.linalg.norm(v_gt, axis=1, keepdims=True)
        s = softmax(10.0 * decode_logits(fhat, dec), axis=1)
        v = s @ cb.entries
        vn = np.linalg.norm(v, axis=1)
        cos_v = np.sum(u * v, axis=1) / vn
        gv = -(u / vn[:, None] - (cos_v / vn ** 2)[:, None] * v)
        a = gv @ cb.entries.T
        assert np.max(np.abs(np.sum(s * a, axis=1))) <= 1e-14 * np.max(
            np.abs(a))

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

    def test_training_shaped_at_scene_sized_n(self):
        # the presets' codebooks hold 4-8 entries
        self.check(*random_batch(4, 340, 6, 256, 10), tau=2.0)

    @pytest.mark.parametrize("ratio", [1e-1, 1e-2, 1e-3])
    def test_near_cancelling_entries(self, ratio):
        # two near-opposite entries at equal weight decode to v = ratio w
        rng = np.random.default_rng([int(-np.log10(ratio)), 11])
        a, w = unit_rows(rng, 2, 256)
        cb = Codebook(entries=[a, -a + 2.0 * ratio * w])
        dec = Decoder(weight=np.zeros((2, 3)), bias=np.zeros(2))
        rho = (np.linalg.norm(cb.entries.mean(axis=0))
               / np.linalg.norm(cb.entries, axis=1).max())
        assert rho == pytest.approx(ratio, rel=0.1)
        self.check(cb, dec, rng.normal(size=(40, 256)),
                   rng.normal(size=(40, 3)),
                   value_tol=max(1e-14, 1e-16 / rho ** 2),
                   grad_tol=max(1e-13, 1e-14 / rho ** 2))

    # total_loss holds its (B, N) arrays as (N, B): where B == N, an array
    # reduced or broadcast along the wrong axis still has the right shape
    @pytest.mark.parametrize("bsz, n, d_high, d_low", [
        (1, 7, 12, 3), (6, 6, 256, 10), (40, 40, 16, 4), (9, 9, 16, 9),
        (30, 2, 12, 3)], ids=["single_row", "b_eq_n_6", "b_eq_n_40",
                              "b_eq_n_eq_d_low", "two_entries"])
    def test_layout_sensitive_shapes(self, bsz, n, d_high, d_low):
        self.check(*random_batch(1, bsz, n, d_high, d_low))

    def test_every_row_on_one_entry(self):
        cb, dec, _, fhat = random_batch(2, 50, 9, 16, 4)
        rng = np.random.default_rng(2)
        v_gt = cb.entries[3] + 1e-3 * rng.normal(size=(50, 16))
        assert np.all(np.argmax(v_gt @ cb.entries.T
                                / np.linalg.norm(cb.entries, axis=1),
                                axis=1) == 3)
        self.check(cb, dec, v_gt, fhat)

    @pytest.mark.parametrize("seed", range(3))
    def test_logits_of_a_thousand(self, seed):
        # temp_dec * logits spans +-1e4: exp over- or underflows unless
        # each softmax is shifted by its row maximum first
        cb, dec, v_gt, fhat = random_batch(seed, 40, 12, 16, 4)
        rng = np.random.default_rng([seed, 3])
        dec = Decoder(weight=np.zeros_like(dec.weight),
                      bias=rng.choice([-1e3, 1e3], size=12))
        value, grads = total_loss(unit_targets(v_gt), fhat, cb, dec, 1.3)
        assert all(np.isfinite(getattr(value, f)) for f in (
            "total", "ent", "max", "joint", "e2e"))
        assert all(np.all(np.isfinite(getattr(grads, f))) for f in (
            "entries", "dec_weight", "dec_bias", "fhat"))
        self.check(cb, dec, v_gt, fhat)

    @pytest.mark.parametrize("weights", [
        LossWeights(ent=0.0), LossWeights(max=0.0),
        LossWeights(ent=0.7, max=2.5, joint=0.0, e2e=0.4)])
    def test_term_weights(self, weights):
        self.check(*random_batch(3, 40, 11, 20, 5), weights=weights)


class TestCodebookConstructor:
    @pytest.mark.parametrize("entries, message", [
        (np.ones((1, 3)), "codebook needs at least 2 entries"),
        (np.zeros((0, 3)), "codebook needs at least 2 entries"),
        ([[1.0, 0.0], [0.0, 1e-9]], "codebook contains a (near-)zero entry"),
        (np.zeros((3, 2)), "codebook contains a (near-)zero entry"),
        ([[1.0, 0.0], [np.nan, 1.0]], "codebook contains a non-finite entry"),
        ([[1.0, 0.0], [0.0, np.inf]], "codebook contains a non-finite entry"),
        ([[1.0, 0.0], [-np.inf, np.nan]],
         "codebook contains a non-finite entry")])
    def test_rejected(self, entries, message):
        with pytest.raises(ValidationError) as err:
            Codebook(entries=entries)
        assert str(err.value) == message

    @pytest.mark.parametrize("weight, bias", [
        ([[1.0, np.nan]], [0.0]), ([[1.0, 0.0]], [np.inf])])
    def test_decoder_rejects_non_finite(self, weight, bias):
        with pytest.raises(ValidationError) as err:
            Decoder(weight=weight, bias=bias)
        assert str(err.value) == "decoder contains a non-finite value"

    def test_loader_rejects_a_zero_entry(self, tmp_path):
        path = tmp_path / "zero.goic"
        path.write_bytes(b"GOIC" + struct.pack("<III", 1, 2, 2)
                         + np.array([[1, 0], [0, 0]], "<f4").tobytes())
        with pytest.raises(ValidationError, match="near-"):
            load_codebook(path)


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
