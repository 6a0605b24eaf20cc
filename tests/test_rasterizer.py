import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goi import rasterizer
from goi.scene import Camera, Scene
from goi.rasterizer import (ALPHA_CUTOFF, CHUNK_PAIRS, TABLE_CELLS,
                            composite_weights, project_all,
                            quaternion_to_rotation, render)
from goi.synth import generate_scene, orbit_cameras

from oracles import (central_diff, loop_composite_weights, mc_covariance,
                     naive_render, random_scene, rel_err)


def identity_camera(width=8, height=8, fx=1.0, fy=1.0, cx=0.0, cy=0.0):
    return Camera(width=width, height=height, fx=fx, fy=fy, cx=cx, cy=cy,
                  world_to_camera=np.eye(4))


def single_gaussian_scene(centroid, scale=0.2, opacity=0.8, feature=None):
    feature = [1.0, 0.0] if feature is None else feature
    return Scene(
        np.array([centroid]),
        np.array([[1.0, 0.0, 0.0, 0.0]]),
        np.array([[scale, scale, scale]]),
        np.array([opacity]),
        np.array([[0.5, 0.5, 0.5]]),
        np.array([feature], dtype=np.float32))


def project_one(scene, cam):
    """project_all on a one-Gaussian scene: (mean2d, cov2d) or None if culled."""
    means, covs, _, _, idx = project_all(scene, cam)
    return (means[0], covs[0]) if idx.size else None


class TestProjection:
    def test_on_axis_identity_pose(self):
        s = 0.3
        scene = single_gaussian_scene((0.0, 0.0, 1.0), scale=s)
        cam = identity_camera()
        mean2d, (a, b, c) = project_one(scene, cam)
        np.testing.assert_allclose(mean2d, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose([a, c], [s * s + 0.3] * 2, rtol=1e-6)
        assert abs(b) < 1e-9

    def test_behind_camera_culled(self):
        scene = single_gaussian_scene((0.0, 0.0, -1.0))
        assert project_one(scene, identity_camera()) is None
        assert composite_weights(scene, identity_camera()).nnz == 0

    def test_at_near_plane_culled(self):
        scene = single_gaussian_scene((0.0, 0.0, 0.01))
        assert project_one(scene, identity_camera()) is None
        assert composite_weights(scene, identity_camera()).nnz == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_cov2d_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        # small scales keep the pinhole projection near-linear
        scale = rng.uniform(0.01, 0.04, size=3)
        centroid = np.array([rng.uniform(-0.5, 0.5),
                             rng.uniform(-0.5, 0.5),
                             rng.uniform(3.0, 6.0)])
        cam = Camera(width=64, height=64, fx=80.0, fy=80.0, cx=32.0, cy=32.0,
                     world_to_camera=np.eye(4))
        scene = Scene(
            centroid[None], q[None], scale[None], np.array([0.9]),
            np.array([[0.5, 0.5, 0.5]]), np.zeros((1, 2), dtype=np.float32))
        _, (a, b, c) = project_one(scene, cam)
        analytic = np.array([[a - 0.3, b], [b, c - 0.3]])  # minus dilation
        sampled = mc_covariance(q, scale, centroid, cam, seed=seed)
        assert rel_err(analytic, sampled) < 0.05


def unit_cov_alpha(opacity, mean=(0.0, 0.0)):
    """Per-pixel alpha of one splat whose 2D covariance is the identity.

    The single splat composites first (transmittance 1), so its composite
    weights are its alpha. A scale of 0.5 at depth 1 with fx = fy =
    sqrt(2.8) projects to 0.7 px^2, and dilation adds 0.3.
    """
    f = np.sqrt(2.8)
    scene = single_gaussian_scene((0.0, 0.0, 1.0), scale=0.5, opacity=opacity)
    cam = Camera(width=8, height=8, fx=f, fy=f, cx=mean[0], cy=mean[1],
                 world_to_camera=np.eye(4))
    _, (a, b, c) = project_one(scene, cam)
    np.testing.assert_allclose([a, b, c], [1.0, 0.0, 1.0], atol=1e-12)
    return composite_weights(scene, cam).toarray()[:, 0].reshape(8, 8)


class TestEvalAlpha:
    def test_center_equals_opacity(self):
        alpha = unit_cov_alpha(0.8, mean=(3.0, 4.0))
        assert alpha[4, 3] == pytest.approx(0.8)

    def test_clamped_at_099(self):
        assert unit_cov_alpha(1.0)[0, 0] == pytest.approx(0.99)

    def test_unit_offset_closed_form(self):
        assert unit_cov_alpha(1.0)[0, 1] == pytest.approx(np.exp(-0.5),
                                                          rel=1e-9)

    def test_below_cutoff_is_zero(self):
        # 3 px out lies inside the 3.5-sigma footprint, where the raw alpha
        # 0.3 * exp(-4.5) ~ 0.0033 is below the 1/255 cutoff
        assert 0.0 < 0.3 * np.exp(-4.5) < 1.0 / 255.0
        alpha = unit_cov_alpha(0.3)
        assert alpha[0, 3] == 0.0 and alpha[3, 0] == 0.0
        assert alpha[0, 2] == pytest.approx(0.3 * np.exp(-2.0), rel=1e-6)


class TestRenderSmall:
    def test_single_opaque_splat(self):
        scene = single_gaussian_scene((0.0, 0.0, 2.0), scale=3.0, opacity=1.0,
                                      feature=[2.0, -1.0])
        cam = Camera(width=3, height=3, fx=10.0, fy=10.0, cx=1.0, cy=1.0,
                     world_to_camera=np.eye(4))
        out = render(scene, cam)
        # center pixel sits on the splat mean: alpha clamps to 0.99
        assert out.alpha[1, 1] == pytest.approx(0.99, abs=1e-6)
        np.testing.assert_allclose(out.ld_features[1, 1],
                                   [0.99 * 2.0, 0.99 * -1.0], rtol=1e-5)

    def test_two_coincident_splats_compose(self):
        scene = Scene(
            np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0]]),
            np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]),
            np.full((2, 3), 5.0),
            np.array([0.5, 0.5]),
            np.full((2, 3), 0.5),
            np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
        cam = Camera(width=1, height=1, fx=5.0, fy=5.0, cx=0.0, cy=0.0,
                     world_to_camera=np.eye(4))
        out = render(scene, cam)
        np.testing.assert_allclose(out.ld_features[0, 0], [0.5, 0.25],
                                   rtol=1e-5)
        assert out.alpha[0, 0] == pytest.approx(0.75, rel=1e-5)

    def test_empty_scene(self):
        scene = random_scene(0, 0, feature_dim=2)
        out = render(scene, identity_camera())
        assert not out.alpha.any() and not out.ld_features.any()


class TestRenderOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_renderer(self, seed):
        scene = random_scene(seed, 40)
        cam = Camera(width=16, height=16, fx=20.0, fy=20.0, cx=8.0, cy=8.0,
                     world_to_camera=np.eye(4) * 1.0)
        cam.world_to_camera[2, 3] = 5.0  # push scene in front of camera
        out = render(scene, cam)
        rgb, feat, alpha = naive_render(scene, cam)
        assert np.max(np.abs(out.rgb - rgb)) < 1e-5
        assert np.max(np.abs(out.ld_features - feat)) < 1e-5
        assert np.max(np.abs(out.alpha - alpha)) < 1e-5

    def test_depth_tie_breaks_by_index(self):
        # two coincident gaussians at identical depth: lower index first
        scene = Scene(
            np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]]),
            np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]),
            np.full((2, 3), 5.0),
            np.array([0.5, 0.5]),
            np.full((2, 3), 0.5),
            np.array([[1.0], [0.0]], dtype=np.float32))
        cam = Camera(width=1, height=1, fx=5.0, fy=5.0, cx=0.0, cy=0.0,
                     world_to_camera=np.eye(4))
        out = render(scene, cam)
        # index 0 composites first: weight 0.5; index 1 gets 0.25
        assert out.ld_features[0, 0, 0] == pytest.approx(0.5, rel=1e-6)


class TestRenderProperties:
    def setup_method(self):
        self.scene = random_scene(7, 60)
        self.cam = Camera(width=16, height=16, fx=20.0, fy=20.0, cx=8.0,
                          cy=8.0, world_to_camera=np.eye(4))
        self.cam.world_to_camera[2, 3] = 5.0

    def test_linearity_in_features(self):
        s1 = self.scene.copy()
        s2 = self.scene.copy()
        rng = np.random.default_rng(1)
        s2.features = rng.normal(size=s2.features.shape).astype(np.float32)
        mix = self.scene.copy()
        mix.features = (2.0 * s1.features + 3.0 * s2.features)
        f_mix = render(mix, self.cam).ld_features
        f_lin = (2.0 * render(s1, self.cam).ld_features
                 + 3.0 * render(s2, self.cam).ld_features)
        assert rel_err(f_mix, f_lin) < 1e-6

    def test_adjoint_identity(self):
        rng = np.random.default_rng(2)
        grad = rng.normal(size=(16, 16, self.scene.feature_dim))
        delta = rng.normal(size=self.scene.features.shape)
        w = composite_weights(self.scene, self.cam)
        forward = (w @ delta).reshape(grad.shape)  # J . delta
        back = w.T @ grad.reshape(-1, self.scene.feature_dim)  # Jt . grad
        lhs = float(np.sum(grad * forward))
        rhs = float(np.sum(back * delta))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)

    def test_alpha_bounded(self):
        out = render(self.scene, self.cam)
        assert np.all(out.alpha >= 0.0) and np.all(out.alpha <= 1.0)
        w = composite_weights(self.scene, self.cam)
        sums = np.asarray(w.sum(axis=1)).ravel()
        assert np.all(sums <= 1.0 + 1e-9)

    def test_deterministic(self):
        a = render(self.scene, self.cam)
        b = render(self.scene, self.cam)
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.ld_features, b.ld_features)
        assert np.array_equal(a.alpha, b.alpha)


class TestBackward:
    """The adjoint training applies: composite_weights(scene, cam).T @ grad."""

    def test_zero_grad(self):
        scene = random_scene(3, 20)
        cam = identity_camera(16, 16, fx=20, fy=20, cx=8, cy=8)
        cam.world_to_camera[2, 3] = 5.0
        grad = np.zeros((16 * 16, scene.feature_dim))
        g = composite_weights(scene, cam).T @ grad
        assert not g.any()

    def test_single_splat_weight(self):
        scene = single_gaussian_scene((0.0, 0.0, 2.0), scale=3.0, opacity=1.0)
        cam = Camera(width=1, height=1, fx=5.0, fy=5.0, cx=0.0, cy=0.0,
                     world_to_camera=np.eye(4))
        g = composite_weights(scene, cam).T @ np.array([[2.0, -4.0]])
        np.testing.assert_allclose(g[0], [0.99 * 2.0, 0.99 * -4.0], rtol=1e-6)

    def test_matches_finite_differences(self):
        scene = random_scene(11, 50, feature_dim=3)
        cam = Camera(width=8, height=8, fx=10.0, fy=10.0, cx=4.0, cy=4.0,
                     world_to_camera=np.eye(4))
        cam.world_to_camera[2, 3] = 5.0

        w = composite_weights(scene, cam)

        def loss_of(flat):
            # 64-bit forward map so finite differences are not drowned
            # out by float32 output storage
            f = w @ flat.reshape(scene.features.shape)
            return 0.5 * float(np.sum(f * f))

        f0 = w @ scene.features.astype(np.float64)  # grad of the loss
        analytic = w.T @ f0
        numeric = central_diff(loss_of, scene.features.astype(np.float64),
                               eps=1e-4).reshape(analytic.shape)
        assert rel_err(analytic, numeric) < 1e-4


def weights_and_warnings(fn, scene, cam):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        weights = fn(scene, cam)
    return weights, [str(w.message) for w in caught]


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_matches_loop(scene, cam):
    """composite_weights equals the per-splat loop byte for byte."""
    got, said = weights_and_warnings(composite_weights, scene, cam)
    want, per_splat = weights_and_warnings(loop_composite_weights, scene, cam)
    assert_same_csr(got, want)
    # the loop warned once per degenerate splat, the rewrite once per call
    assert said == ([f"skipping {len(per_splat)} splat(s) with non-invertible "
                     "2D covariance"] if per_splat else [])
    return got


def scene_of(centroids, scales, opacities):
    n = len(centroids)
    return Scene(
        np.asarray(centroids, dtype=np.float64),
        np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        np.outer(scales, np.ones(3)),
        np.asarray(opacities, dtype=np.float64),
        np.full((n, 3), 0.5), np.eye(n, 2, dtype=np.float32))


class TestMatchesLoop:
    def test_blocks5_orbit_views(self):
        ls = generate_scene("blocks", 5, 200, 0)
        for cam in orbit_cameras(20):
            assert assert_matches_loop(ls.scene, cam).nnz > 0

    def test_large_scene_spans_many_chunks(self):
        ls = generate_scene("blocks", 5, 2000, 0)
        cam = orbit_cameras(1, height=5.5, width=128, image_height=128,
                            fx=120.0, phase=0.3)[0]
        # nnz never exceeds the candidate pairs, so these span >= 3 chunks
        # and the transmittance carried between chunks is exercised
        assert assert_matches_loop(ls.scene, cam).nnz > 2 * CHUNK_PAIRS

    def test_empty_scene(self):
        assert assert_matches_loop(scene_of(np.zeros((0, 3)), np.zeros(0),
                                            np.zeros(0)),
                                   identity_camera()).nnz == 0

    def test_one_pixel_image(self):
        scene = random_scene(4, 30)
        cam = Camera(width=1, height=1, fx=3.0, fy=3.0, cx=0.0, cy=0.0,
                     world_to_camera=np.eye(4))
        cam.world_to_camera[2, 3] = 5.0
        assert assert_matches_loop(scene, cam).nnz > 0

    def test_culled_off_screen_and_border_splats(self):
        scene = scene_of(
            [(0.0, 0.0, -1.0),       # behind the camera
             (0.0, 0.0, 0.0101),     # just past the near plane
             (40.0, 0.0, 1.0),       # fully off-screen to the right
             (0.0, -40.0, 1.0),      # fully off-screen above
             (1e30, 1e30, 1.0),      # beyond int64 pixel coordinates
             (-1e30, 0.0, 1.0),
             (-1.0, 0.0, 2.0),       # straddling the left border
             (0.0, 1.9, 2.5),        # straddling the bottom border
             (1.0, 1.0, 3.0)],       # covering a corner
            [0.3, 0.05, 0.3, 0.3, 0.3, 0.3, 0.8, 0.8, 1.5],
            np.linspace(0.4, 0.95, 9))
        cam = Camera(width=12, height=10, fx=6.0, fy=6.0, cx=6.0, cy=5.0,
                     world_to_camera=np.eye(4))
        got = assert_matches_loop(scene, cam)
        assert set(got.indices) == {1, 6, 7, 8}

    def test_equal_depths_break_ties_by_index(self):
        # coincident and overlapping splats at one depth, listed out of
        # footprint order
        scene = scene_of([(0.0, 0.0, 2.0), (0.3, 0.0, 2.0), (0.0, 0.0, 2.0),
                          (-0.3, 0.2, 2.0), (0.0, 0.0, 2.0)],
                         [0.5, 0.4, 0.6, 0.5, 0.3],
                         [0.5, 0.9, 0.7, 0.6, 0.99])
        cam = Camera(width=9, height=9, fx=8.0, fy=8.0, cx=4.0, cy=4.0,
                     world_to_camera=np.eye(4))
        got = assert_matches_loop(scene, cam)
        assert set(got.indices) == set(range(5))

    @pytest.mark.parametrize("seed", range(3))
    def test_needle_thin_rotated_splats(self, seed):
        # 100:1 scales at random orientations: long, thin footprints whose
        # row spans are far narrower than their boxes
        rng = np.random.default_rng(seed)
        n = 12
        q = rng.normal(size=(n, 4))
        scene = Scene(
            np.c_[rng.uniform(-0.5, 0.5, size=(n, 2)), rng.uniform(2, 4, n)],
            q / np.linalg.norm(q, axis=1, keepdims=True),
            np.c_[np.full(n, 1.5), np.full((n, 2), 0.015)],
            rng.uniform(0.2, 1.0, n), np.full((n, 3), 0.5),
            np.eye(n, 2, dtype=np.float32))
        cam = Camera(width=32, height=32, fx=30.0, fy=30.0, cx=16.0, cy=16.0,
                     world_to_camera=np.eye(4))
        assert set(assert_matches_loop(scene, cam).indices) == set(range(n))

    def test_opacity_at_and_below_cutoff(self, monkeypatch):
        # projected splats centred on pixels, so q = 0 is sampled and an
        # opacity of exactly ALPHA_CUTOFF keeps that one pixel; below it,
        # and at 0, a splat keeps none
        ops = [ALPHA_CUTOFF, np.nextafter(ALPHA_CUTOFF, 0.0),
               0.5 * ALPHA_CUTOFF, 0.0, np.nextafter(ALPHA_CUTOFF, 1.0)]
        n = len(ops)
        proj = (np.c_[np.arange(n) + 2.0, np.full(n, 3.0)],
                np.tile([1.0, 0.0, 1.0], (n, 1)), np.arange(n) + 1.0,
                np.array(ops), np.arange(n))
        monkeypatch.setattr(rasterizer, "project_all", lambda s, c: proj)
        got = assert_matches_loop(random_scene(0, n), identity_camera())
        assert got.nnz == 2 and set(got.indices) == {0, 4}
        assert got[3 * 8 + 2, 0] == ALPHA_CUTOFF

    @staticmethod
    def assert_cutoff_at_pixel_matches_loop(monkeypatch, mean, a, b, c, q):
        # one splat whose opacity puts the cutoff at q, the per-pair
        # float64 q of one pixel, then one ulp either side
        op = min(ALPHA_CUTOFF * np.exp(0.5 * q), 1.0)
        scene, cam = random_scene(0, 1), identity_camera(16, 16)
        for o in (op, np.nextafter(op, 0.0), np.nextafter(op, 1.0)):
            proj = (mean[None], np.array([[a, b, c]]), np.ones(1),
                    np.array([o]), np.zeros(1, dtype=np.int64))
            monkeypatch.setattr(rasterizer, "project_all",
                                lambda s, c, proj=proj: proj)
            assert_matches_loop(scene, cam)

    @pytest.mark.parametrize("seed", range(3))
    def test_pixels_on_the_cutoff_ellipse(self, seed, monkeypatch):
        # row spans without slack drop some of these pixels
        rng = np.random.default_rng(seed)
        for _ in range(20):
            a, c = rng.uniform(0.3, 6.0, 2)
            b = rng.uniform(-0.95, 0.95) * np.sqrt(a * c)
            mean = np.round(rng.uniform(5.0, 11.0, 2) * 4.0) / 4.0
            dx, dy = rng.integers(-3, 4, 2) + np.floor(mean) - mean
            q = (c * dx * dx - 2 * b * dx * dy + a * dy * dy) / (a * c - b * b)
            self.assert_cutoff_at_pixel_matches_loop(monkeypatch, mean,
                                                     a, b, c, q)

    @pytest.mark.parametrize("seed", range(12))
    def test_cutoff_pixels_at_the_ellipse_extremes(self, seed, monkeypatch):
        # the pixel is the ellipse's leftmost or rightmost point (b chosen
        # so that dy = b dx / a) or its top or bottom (dx = b dy / c), so
        # the box's sqrt(a q_lim) or sqrt(c q_lim) passes through it
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a, c = rng.uniform(0.3, 6.0, 2)
            mean = np.round(rng.uniform(5.0, 11.0, 2) * 4.0) / 4.0
            dx, dy = (rng.integers(1, 4, 2) * rng.choice([-1, 1], 2)
                      + np.floor(mean) - mean)
            b = a * dy / dx if rng.random() < 0.5 else c * dx / dy
            if b * b >= 0.9 * a * c:
                continue
            q = (c * dx * dx - 2 * b * dx * dy + a * dy * dy) / (a * c - b * b)
            self.assert_cutoff_at_pixel_matches_loop(monkeypatch, mean,
                                                     a, b, c, q)

    @pytest.mark.parametrize("seed", range(3))
    def test_cutoff_pixels_far_out_on_an_ill_conditioned_splat(
            self, seed, monkeypatch):
        # a needle near 45 degrees with a c / det ~ 1e7, its centre ~1e4
        # px off the image along its long axis: q's terms are ~1e7 times
        # q there, so a slack not scaled by a c / det drops some pixels
        rng = np.random.default_rng(seed)
        for _ in range(20):
            lam = 2e7 * rng.uniform(0.8, 1.2)  # long-axis variance, px^2
            th = np.pi / 4 + rng.uniform(-0.1, 0.1)
            cs, sn = np.cos(th), np.sin(th)
            a = lam * cs * cs + 0.5 * sn * sn
            c = lam * sn * sn + 0.5 * cs * cs
            b = (lam - 0.5) * cs * sn
            assert 5e6 < a * c / (a * c - b * b) < 2e7
            t = rng.choice([-1, 1]) * rng.uniform(0.5, 1.0) * np.sqrt(8 * lam)
            s = rng.uniform(-1.0, 1.0)
            pix = rng.integers(2, 14, 2).astype(np.float64)
            mean = pix - [t * cs - s * sn, t * sn + s * cs]
            dx, dy = pix - mean
            q = (c * dx * dx - 2 * b * dx * dy + a * dy * dy) / (a * c - b * b)
            self.assert_cutoff_at_pixel_matches_loop(monkeypatch, mean,
                                                     a, b, c, q)

    def test_deep_stack_beside_a_wide_splat_stays_bounded(self):
        # 900 faint splats on one pixel behind one splat over the whole
        # image, all in one chunk by pair count: its table would be every
        # pixel times 901 ranks (~60 MB), so the chunk is halved until the
        # table holds at most TABLE_CELLS cells
        n = 900
        centroids = np.zeros((n + 1, 3))
        centroids[:, 2] = np.linspace(2.0, 3.0, n + 1)
        scales = np.full((n + 1, 3), 0.001)
        scales[0] = 2.0
        opacities = np.full(n + 1, 0.01)
        opacities[0] = 0.5
        scene = Scene(centroids, np.tile([1.0, 0.0, 0.0, 0.0], (n + 1, 1)),
                      scales, opacities, np.full((n + 1, 3), 0.5),
                      np.eye(n + 1, 2, dtype=np.float32))
        cam = Camera(width=96, height=96, fx=20.0, fy=20.0, cx=48.0, cy=48.0,
                     world_to_camera=np.eye(4))
        tracemalloc.start()
        try:
            composite_weights(scene, cam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table's 8 * TABLE_CELLS bytes (1 MiB) and one chunk's pairs
        assert 8 * TABLE_CELLS <= 2 ** 20 and peak < 4 * 2 ** 20
        got = assert_matches_loop(scene, cam)
        # the centre pixel terminates part way down the stack
        assert 0 < got[48 * 96 + 48].nnz < n

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 40),
           width=st.integers(1, 24), height=st.integers(1, 24),
           fx=st.floats(0.5, 60.0), fy=st.floats(0.5, 60.0),
           cx=st.floats(-10.0, 34.0), cy=st.floats(-10.0, 34.0),
           dist=st.floats(0.0, 8.0), ties=st.booleans())
    def test_random_scenes_and_cameras(self, seed, n, width, height, fx, fy,
                                       cx, cy, dist, ties):
        rng = np.random.default_rng(seed)
        scene = random_scene(seed, n)
        if ties and n > 1:   # half the splats share one depth
            scene.centroids[: n // 2, 2] = scene.centroids[0, 2]
        q = rng.normal(size=4)
        w2c = np.eye(4)
        w2c[:3, :3] = quaternion_to_rotation(q / np.linalg.norm(q))
        w2c[2, 3] = dist
        cam = Camera(width=width, height=height, fx=fx, fy=fy, cx=cx, cy=cy,
                     world_to_camera=w2c)
        assert_matches_loop(scene, cam)


def test_degenerate_splats_warn_once_with_count(monkeypatch):
    scene = random_scene(0, 2)
    cam = identity_camera()
    good = (np.array([[4.0, 3.0]]), np.array([[2.0, 0.5, 1.5]]),
            np.array([2.0]), np.array([0.8]), np.array([1]))
    # splat 0 is in front of splat 1 and would cover it, but det < 0
    both = (np.array([[4.0, 3.0], [4.0, 3.0]]),
            np.array([[1.0, 2.0, 1.0], [2.0, 0.5, 1.5]]),
            np.array([1.0, 2.0]), np.array([0.9, 0.8]), np.array([0, 1]))
    monkeypatch.setattr(rasterizer, "project_all", lambda s, c: both)
    got, said = weights_and_warnings(composite_weights, scene, cam)
    assert said == ["skipping 1 splat(s) with non-invertible 2D covariance"]
    monkeypatch.setattr(rasterizer, "project_all", lambda s, c: good)
    want, said = weights_and_warnings(composite_weights, scene, cam)
    assert said == [] and want.nnz > 0
    assert_same_csr(got, want)


@pytest.mark.parametrize("focal", [1e80, 1e300])
def test_overflowed_projection_is_skipped(focal):
    # finite, so Camera accepts it, but the 2D covariance overflows to
    # inf, and its determinant to NaN
    scene = generate_scene("blocks", 5, 2, 0).scene
    cam = dataclasses.replace(orbit_cameras(1, width=16, image_height=16)[0],
                              fx=focal, fy=focal)
    weights, said = weights_and_warnings(composite_weights, scene, cam)
    assert weights.shape == (256, 10) and weights.nnz == 0
    assert "skipping 10 splat(s) with non-invertible 2D covariance" in said
