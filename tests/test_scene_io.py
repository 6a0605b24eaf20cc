import struct

import numpy as np
import pytest
from scipy.special import expit

from goi.errors import FormatError, ValidationError
from goi.formats import (read_feature_map, read_mask, read_pgm,
                         write_feature_map, write_json, write_mask, write_pgm,
                         write_ppm)
from goi.scene import (MAX_CAMERA_PIXELS, Camera, Scene, import_ply,
                       load_camera, load_scene, look_at_camera, record_size,
                       save_camera, save_scene)

from oracles import random_scene, read_ppm


class TestSceneFiles:
    def test_round_trip_single(self, tmp_path):
        scene = random_scene(0, 1, feature_dim=10)
        path = tmp_path / "one.gois"
        save_scene(scene, path)
        back = load_scene(path)
        assert len(back) == 1 and back.feature_dim == 10

    def test_round_trip_bits(self, tmp_path):
        scene = random_scene(1, 500, feature_dim=10)
        p1, p2 = tmp_path / "a.gois", tmp_path / "b.gois"
        save_scene(scene, p1)
        save_scene(load_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = load_scene(p1)
        for a, b in [(scene.centroids, back.centroids),
                     (scene.rotations, back.rotations),
                     (scene.scales, back.scales),
                     (scene.opacities, back.opacities),
                     (scene.rgbs, back.rgbs),
                     (scene.features, back.features)]:
            assert np.array_equal(a, b)

    def test_empty_scene_header_only(self, tmp_path):
        path = tmp_path / "empty.gois"
        save_scene(random_scene(0, 0, feature_dim=10), path)
        assert path.stat().st_size == 24
        assert len(load_scene(path)) == 0

    def test_new_features_set_feature_dim(self, tmp_path):
        scene = random_scene(8, 5, feature_dim=4)
        scene.features = np.arange(35, dtype=np.float32).reshape(5, 7)
        assert scene.feature_dim == 7
        path = tmp_path / "wider.gois"
        save_scene(scene, path)
        assert path.stat().st_size == 24 + 5 * record_size(7)
        back = load_scene(path)
        assert back.feature_dim == 7
        for a, b in zip(scene.arrays(), back.arrays()):
            assert np.array_equal(a, b)

    def test_file_size_arithmetic(self, tmp_path):
        scene = random_scene(2, 1000, feature_dim=6)
        path = tmp_path / "big.gois"
        save_scene(scene, path)
        assert path.stat().st_size == 24 + 1000 * record_size(6)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.gois"
        path.write_bytes(b"GOIF" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_scene(path)

    def test_truncated_rejected(self, tmp_path):
        scene = random_scene(3, 10)
        path = tmp_path / "trunc.gois"
        save_scene(scene, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_scene(path)

    def test_invariant_violation_names_record(self, tmp_path):
        scene = random_scene(4, 5)
        scene.opacities[3] = 2.0
        path = tmp_path / "bad.gois"
        save_scene(scene, path)
        with pytest.raises(ValidationError, match="record 3"):
            load_scene(path)

    @pytest.mark.parametrize("field, index, value", [
        ("centroids", (2, 0), np.nan), ("rotations", (2, 1), np.nan),
        ("scales", (2, 2), np.inf), ("opacities", 2, np.nan),
        ("rgbs", (2, 0), np.nan), ("features", (2, 3), -np.inf)])
    def test_non_finite_rejected(self, tmp_path, field, index, value):
        scene = random_scene(5, 4)
        getattr(scene, field)[index] = value
        path = tmp_path / "nonfinite.gois"
        save_scene(scene, path)
        with pytest.raises(ValidationError, match="non-finite .*record 2"):
            load_scene(path)

    def test_rgb_out_of_range_names_record(self, tmp_path):
        scene = random_scene(6, 4)
        scene.rgbs[1] = (5.0, -2.0, 0.5)
        path = tmp_path / "bright.gois"
        save_scene(scene, path)
        with pytest.raises(ValidationError, match=r"rgb outside .*record 1"):
            load_scene(path)


class TestSceneConstructor:
    def arrays(self, n=3, dim=2):
        return [np.zeros((n, 3)), np.tile([1.0, 0, 0, 0], (n, 1)),
                np.ones((n, 3)), np.full(n, 0.5), np.zeros((n, 3)),
                np.zeros((n, dim))]

    def test_casts_shapes_and_copies(self):
        arrays = self.arrays()
        arrays[0] = np.zeros(9, dtype=np.float32)   # flat, already float32
        arrays[5] = np.zeros((3, 2), dtype=np.float32)
        scene = Scene(*arrays)
        assert [a.shape for a in scene.arrays()] == [
            (3, 3), (3, 4), (3, 3), (3,), (3, 3), (3, 2)]
        assert all(a.dtype == np.float32 for a in scene.arrays())
        arrays[0][0] = 7.0
        arrays[5][0, 0] = 7.0
        assert not scene.centroids.any() and not scene.features.any()
        copy = scene.copy()
        copy.rgbs[0] = 1.0
        assert not scene.rgbs.any()

    @pytest.mark.parametrize("field", range(6))
    def test_inconsistent_lengths_rejected(self, field):
        arrays = self.arrays()
        arrays[field] = self.arrays(n=4)[field]
        with pytest.raises(ValidationError, match="inconsistent"):
            Scene(*arrays)

    def test_no_feature_columns_rejected(self):
        with pytest.raises(ValidationError, match="feature_dim must be >= 1"):
            Scene(*self.arrays(dim=0))

    @pytest.mark.parametrize("field, value, rule", [
        (0, np.nan, "non-finite centroid"),
        (1, np.inf, "non-finite quaternion"),
        (2, -np.inf, "non-finite scale"),
        (3, np.nan, "non-finite opacity"),
        (4, np.nan, "non-finite rgb"),
        (5, np.inf, "non-finite feature"),
        (1, 0.6, "quaternion not unit norm"),
        (2, 0.0, "non-positive scale component"),
        (2, -1.0, "non-positive scale component"),
        (3, 1.5, "opacity outside [0, 1]"),
        (3, -0.1, "opacity outside [0, 1]"),
        (4, 1.01, "rgb outside [0, 1]"),
        (4, -0.5, "rgb outside [0, 1]")])
    def test_record_rule_names_first_bad_record(self, field, value, rule):
        arrays = self.arrays(n=4)
        arrays[field][[3, 1]] = value   # every column of records 1 and 3
        with pytest.raises(ValidationError) as err:
            Scene(*arrays)
        assert str(err.value) == f"{rule} (record 1)"

    def test_non_finite_rules_come_first(self):
        arrays = self.arrays(n=4)
        arrays[3][0] = 2.0              # opacity out of range at record 0
        arrays[0][3, 1] = np.nan        # non-finite centroid at record 3
        with pytest.raises(ValidationError) as err:
            Scene(*arrays)
        assert str(err.value) == "non-finite centroid (record 3)"

    def test_quaternion_within_tolerance_accepted(self):
        arrays = self.arrays()
        arrays[1][:, 0] = 1.0 + 5e-7
        Scene(*arrays)

    def test_quaternion_norms_are_linalg_norms(self, monkeypatch):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(1000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q[::2] *= rng.uniform(0.5, 1.5, size=(500, 1))   # off unit norm
        arrays = self.arrays(n=1000)
        arrays[1] = q
        taken, sqrt = [], np.sqrt

        def spy(x):
            taken.append(sqrt(x))
            return taken[-1]
        monkeypatch.setattr(np, "sqrt", spy)
        with pytest.raises(ValidationError, match="quaternion not unit norm"):
            Scene(*arrays)
        want = np.linalg.norm(q.astype(np.float32).astype(np.float64), axis=1)
        assert len(taken) == 1 and taken[0].tobytes() == want.tobytes()


class TestCamera:
    def test_json_round_trip(self, tmp_path):
        cam = look_at_camera((4.0, 2.0, 3.0), (0.0, 0.0, 0.0), width=32,
                             height=24, fx=40.0)
        path = tmp_path / "cam.json"
        save_camera(cam, path)
        back = load_camera(path)
        assert (back.width, back.height) == (32, 24)
        np.testing.assert_allclose(back.world_to_camera, cam.world_to_camera)

    def test_bad_rotation_rejected(self):
        m = np.eye(4)
        m[0, 0] = 2.0
        with pytest.raises(ValidationError, match="orthonormal"):
            Camera(width=4, height=4, fx=1.0, fy=1.0, cx=0, cy=0,
                   world_to_camera=m)

    @pytest.mark.parametrize("row", [
        [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1e-300, 1.0]])
    def test_non_rigid_last_row_rejected(self, row):
        # the rasterizer reads only the top three rows, so a pose whose
        # last row is not (0, 0, 0, 1) would be rendered as another pose
        m = np.eye(4)
        m[3] = row
        with pytest.raises(ValidationError, match="last row"):
            Camera(width=8, height=8, fx=10.0, fy=10.0, cx=4.0, cy=4.0,
                   world_to_camera=m)

    @pytest.mark.parametrize("key, value", [
        ("world_to_camera", [1.0, 0.0, 0.0]),
        ("world_to_camera", ["a"] * 16), ("width", "wide"), ("fx", None)])
    def test_malformed_field_is_format_error(self, tmp_path, key, value):
        d = look_at_camera((4.0, 2.0, 3.0), (0.0, 0.0, 0.0), width=8,
                           height=8, fx=10.0).to_dict()
        d[key] = value
        write_json(tmp_path / "cam.json", d)
        with pytest.raises(FormatError, match=r"cam\.json: camera is malformed"):
            load_camera(tmp_path / "cam.json")

    @pytest.mark.parametrize("key, value", [
        ("width", 8.9), ("height", True), ("width", 8.0), ("height", "8")])
    def test_non_integer_size_is_format_error(self, tmp_path, key, value):
        d = look_at_camera((4.0, 2.0, 3.0), (0.0, 0.0, 0.0), width=8,
                           height=8, fx=10.0).to_dict()
        d[key] = value
        write_json(tmp_path / "cam.json", d)
        with pytest.raises(FormatError, match="must be integers"):
            load_camera(tmp_path / "cam.json")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("key", ["fx", "fy", "cx", "cy"])
    def test_non_finite_intrinsic_rejected(self, key, value):
        fields = dict(width=8, height=8, fx=10.0, fy=10.0, cx=4.0, cy=4.0)
        fields[key] = value
        with pytest.raises(ValidationError, match="must be finite"):
            Camera(**fields)

    @pytest.mark.parametrize("index", [(0, 0), (1, 2), (2, 3)])
    def test_non_finite_pose_rejected(self, index):
        for value in (np.inf, np.nan):
            m = np.eye(4)
            m[index] = value
            with pytest.raises(ValidationError, match="must be finite"):
                Camera(width=8, height=8, fx=10.0, fy=10.0, cx=4.0, cy=4.0,
                       world_to_camera=m)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValidationError):
            Camera(width=0, height=4, fx=1.0, fy=1.0, cx=0, cy=0)
        with pytest.raises(ValidationError):
            Camera(width=4, height=4, fx=-1.0, fy=1.0, cx=0, cy=0)

    @pytest.mark.parametrize("width, height", [
        (10 ** 400, 8), (100_000, 100_000), (MAX_CAMERA_PIXELS + 1, 1)])
    def test_oversized_camera_rejected(self, width, height):
        with pytest.raises(ValidationError, match="more than"):
            Camera(width=width, height=height, fx=1.0, fy=1.0, cx=0, cy=0)

    def test_camera_at_pixel_limit_accepted(self):
        Camera(width=MAX_CAMERA_PIXELS, height=1, fx=1.0, fy=1.0, cx=0, cy=0)

    def test_look_at_points_forward(self):
        cam = look_at_camera((0.0, -5.0, 0.0), (0.0, 0.0, 0.0),
                             width=8, height=8, fx=10.0)
        t = cam.world_to_camera[:3, :3] @ np.zeros(3) + cam.world_to_camera[:3, 3]
        assert t[2] == pytest.approx(5.0)


PLY_PROPS = ("x y z rot_0 rot_1 rot_2 rot_3 scale_0 scale_1 scale_2 "
             "opacity f_dc_0 f_dc_1 f_dc_2").split()


def write_ascii_ply(path, rows):
    lines = ["ply", "format ascii 1.0", f"element vertex {len(rows)}"]
    lines += [f"property float {p}" for p in PLY_PROPS]
    lines.append("end_header")
    for r in rows:
        lines.append(" ".join(f"{v:.9g}" for v in r))
    path.write_text("\n".join(lines) + "\n")


def write_binary_ply(path, rows):
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {len(rows)}"]
    header += [f"property float {p}" for p in PLY_PROPS]
    header.append("end_header\n")
    body = b"".join(struct.pack("<14f", *r) for r in rows)
    path.write_bytes("\n".join(header).encode() + body)


class TestPlyImport:
    ROW = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
           0.0, 0.0, 0.0]

    def test_activations(self, tmp_path):
        path = tmp_path / "pts.ply"
        write_ascii_ply(path, [self.ROW])
        scene = import_ply(path, feature_dim=10)
        assert scene.opacities[0] == pytest.approx(0.5)       # sigmoid(0)
        np.testing.assert_allclose(scene.scales[0], 1.0)      # exp(0)
        np.testing.assert_allclose(scene.rgbs[0], 0.5)        # DC at zero
        assert not scene.features.any()

    def test_ranges_enforced_for_any_input(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(20):
            r = rng.normal(scale=5.0, size=14)
            rows.append(list(r))
        path = tmp_path / "wild.ply"
        write_ascii_ply(path, rows)
        scene = import_ply(path, feature_dim=4)   # the Scene checks the ranges
        expected_op = expit([r[10] for r in rows]).astype(np.float32)
        np.testing.assert_allclose(scene.opacities, expected_op, rtol=1e-6)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_feature_dim_rejected(self, tmp_path, dim):
        path = tmp_path / "pts.ply"
        write_ascii_ply(path, [self.ROW])
        with pytest.raises(ValidationError, match="feature_dim must be >= 1"):
            import_ply(path, feature_dim=dim)

    def test_missing_property_rejected(self, tmp_path):
        path = tmp_path / "nope.ply"
        lines = ["ply", "format ascii 1.0", "element vertex 1",
                 "property float x", "property float y", "property float z",
                 "end_header", "0 0 0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            import_ply(path, feature_dim=4)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_repeated_property_rejected(self, tmp_path, fmt):
        # a second x column: numpy's record dtype would refuse it, and the
        # ASCII reader would take the first x
        header = (["ply", f"format {fmt} 1.0", "element vertex 1"]
                  + [f"property float {p}" for p in PLY_PROPS + ["x"]]
                  + ["end_header", ""])
        row = self.ROW + [5.0]
        body = ((" ".join(map(str, row)) + "\n").encode() if fmt == "ascii"
                else struct.pack("<15f", *row))
        path = tmp_path / "twice.ply"
        path.write_bytes("\n".join(header).encode() + body)
        with pytest.raises(FormatError,
                           match="repeated PLY vertex property 'x'"):
            import_ply(path, feature_dim=4)

    @staticmethod
    def ply_with_extra_element(path, fmt, rows, extra_first):
        """A PLY file of rows with an element of one (a, b) row beside the
        vertex element, written before it or after it."""
        extra = ["element extra 1", "property float a", "property float b"]
        vertex = ([f"element vertex {len(rows)}"]
                  + [f"property float {p}" for p in PLY_PROPS])
        header = (["ply", f"format {fmt} 1.0"]
                  + (extra + vertex if extra_first else vertex + extra)
                  + ["end_header", ""])
        if fmt == "ascii":
            body = "".join(" ".join(f"{v:.9g}" for v in r) + "\n"
                           for r in rows).encode()
            extra_body = b"7 9\n"
        else:
            body = b"".join(struct.pack("<14f", *r) for r in rows)
            extra_body = struct.pack("<2f", 7.0, 9.0)
        body = extra_body + body if extra_first else body + extra_body
        path.write_bytes("\n".join(header).encode() + body)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_element_before_vertex_rejected(self, tmp_path, fmt):
        # its bytes would be read as the first vertex's
        rows = [[42.0, 1.0, 2.0] + self.ROW[3:]] * 2
        path = tmp_path / "extra.ply"
        self.ply_with_extra_element(path, fmt, rows, extra_first=True)
        with pytest.raises(FormatError, match="PLY element 'extra' comes "
                                              "before the vertex element"):
            import_ply(path, feature_dim=4)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_element_after_vertex_ignored(self, tmp_path, fmt):
        rows = [list(r) for r in np.random.default_rng(4).normal(size=(3, 14))]
        plain, extra = tmp_path / "plain.ply", tmp_path / "extra.ply"
        (write_ascii_ply if fmt == "ascii" else write_binary_ply)(plain, rows)
        self.ply_with_extra_element(extra, fmt, rows, extra_first=False)
        got = import_ply(extra, feature_dim=4)
        want = import_ply(plain, feature_dim=4)
        for a, b in zip(got.arrays(), want.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_comments_and_blank_header_lines_skipped(self, tmp_path, fmt):
        rows = [list(r) for r in np.random.default_rng(5).normal(size=(3, 14))]
        plain, noted = tmp_path / "plain.ply", tmp_path / "noted.ply"
        (write_ascii_ply if fmt == "ascii" else write_binary_ply)(plain, rows)
        content = plain.read_bytes()
        noted.write_bytes(content.replace(
            b"\nelement", b"\ncomment made by hand\n\n  \nelement", 1))
        got = import_ply(noted, feature_dim=4)
        want = import_ply(plain, feature_dim=4)
        for a, b in zip(got.arrays(), want.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_16_bit_properties_read_and_skipped(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        rows = [list(rng.normal(size=14)) for _ in range(4)]
        plain = tmp_path / "plain.ply"
        (write_ascii_ply if fmt == "ascii" else write_binary_ply)(plain, rows)
        header = (["ply", f"format {fmt} 1.0", "element vertex 4",
                   "property int16 flags"]
                  + [f"property float {p}" for p in PLY_PROPS]
                  + ["property uint16 id", "end_header", ""])
        if fmt == "ascii":
            body = "".join(f"{-7 - i} " + " ".join(f"{v:.9g}" for v in r)
                           + f" {60000 + i}\n" for i, r in enumerate(rows))
            body = body.encode()
        else:
            body = b"".join(struct.pack("<h14fH", -7 - i, *r, 60000 + i)
                            for i, r in enumerate(rows))
        extra = tmp_path / "extra.ply"
        extra.write_bytes("\n".join(header).encode() + body)
        got = import_ply(extra, feature_dim=4)
        want = import_ply(plain, feature_dim=4)
        for a, b in zip(got.arrays(), want.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_quaternions_normalized_once(self, tmp_path, fmt):
        # lengths from 1e-6 to 1e30, half of them within 1e-4 of an axis:
        # one float64 normalization then the float32 cast is within
        # 2**-24 of unit norm, well inside the Scene's check
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(2400, 14))
        q = rng.normal(size=(2400, 4))
        q[1200:] = (np.eye(4)[rng.integers(4, size=1200)]
                    + rng.normal(scale=1e-4, size=(1200, 4)))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        rows[:, 3:7] = q * 10.0 ** rng.uniform(-6, 30, size=(2400, 1))
        path = tmp_path / "quats.ply"
        if fmt == "ascii":
            write_ascii_ply(path, rows)
            stored = np.array([[float(f"{v:.9g}") for v in r[3:7]]
                               for r in rows])
        else:
            write_binary_ply(path, rows)
            stored = rows[:, 3:7].astype(np.float32).astype(np.float64)
        want = stored / np.linalg.norm(stored, axis=1, keepdims=True)
        scene = import_ply(path, feature_dim=1)
        assert np.array_equal(scene.rotations, want.astype(np.float32))

    def test_binary_matches_ascii(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [list(rng.normal(size=14)) for _ in range(5)]
        apath = tmp_path / "a.ply"
        write_ascii_ply(apath, rows)
        bpath = tmp_path / "b.ply"
        write_binary_ply(bpath, rows)
        sa = import_ply(apath, feature_dim=4)
        sb = import_ply(bpath, feature_dim=4)
        np.testing.assert_allclose(sa.centroids, sb.centroids, rtol=1e-6)
        np.testing.assert_allclose(sa.opacities, sb.opacities, rtol=1e-6)


class TestImageFormats:
    def test_feature_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(6, 5, 3)).astype(np.float32)
        path = tmp_path / "m.goif"
        write_feature_map(path, fm)
        assert np.array_equal(read_feature_map(path), fm)

    def test_feature_map_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.goif"
        write_feature_map(path, np.zeros((2, 2, 1), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            read_feature_map(path)

    @pytest.mark.parametrize("shape", [(0, 2, 1), (2, 0, 1)],
                             ids=["height 0", "width 0"])
    def test_feature_map_without_pixels_rejected(self, tmp_path, shape):
        path = tmp_path / "m.goif"
        write_feature_map(path, np.zeros(shape))
        with pytest.raises(FormatError, match=r"m\.goif: .*no pixels"):
            read_feature_map(path)

    def test_pgm_round_trip(self, tmp_path):
        vals = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        path = tmp_path / "a.pgm"
        write_pgm(path, vals)
        back = read_pgm(path)
        assert back.shape == (3, 4) and back.dtype == np.uint8
        assert np.max(np.abs(back / 255.0 - vals)) <= 0.5 / 255.0

    def test_pgm_bool_writes_as_float_fraction(self, tmp_path):
        mask = np.array([[True, False, True], [False, False, True]])
        write_pgm(tmp_path / "b.pgm", mask)
        write_pgm(tmp_path / "f.pgm", mask.astype(np.float64))
        assert ((tmp_path / "b.pgm").read_bytes()
                == (tmp_path / "f.pgm").read_bytes())
        assert np.array_equal(read_pgm(tmp_path / "b.pgm"), mask * 255)

    def test_pgm_integers_clipped_to_levels(self, tmp_path):
        path = tmp_path / "i.pgm"
        write_pgm(path, np.array([[300, -1, 7]], dtype=np.int16))
        assert np.array_equal(read_pgm(path), [[255, 0, 7]])

    def test_pgm_header_comment_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment line\n2 1\n# another\n255\n"
                         b"\x00\xff")
        assert np.array_equal(read_pgm(path), [[0, 255]])

    def test_mask_round_trip(self, tmp_path):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 2] = True
        path = tmp_path / "m.pgm"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rgb = rng.uniform(size=(3, 3, 3))
        path = tmp_path / "c.ppm"
        write_ppm(path, rgb)
        back = read_ppm(path)
        assert back.dtype == np.uint8
        assert np.max(np.abs(back / 255.0 - rgb)) <= 0.5 / 255.0

    @pytest.mark.parametrize("name, write", [
        ("f.goif", lambda p: write_feature_map(p, np.zeros((2, 2, 1)))),
        ("m.pgm", lambda p: write_pgm(p, np.zeros((2, 2)))),
        ("c.ppm", lambda p: write_ppm(p, np.zeros((2, 2, 3)))),
        ("v.json", lambda p: write_json(p, {"a": [1.5]}))])
    def test_writer_creates_parent_directories(self, tmp_path, name, write):
        path = tmp_path / "new" / "deeper" / name
        write(path)
        assert path.is_file()
