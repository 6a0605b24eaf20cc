"""Gaussian scene representation, cameras, and scene file I/O.

A Scene stores its Gaussians in flat float32 arrays (struct-of-arrays)
so rendering and training can operate on whole-scene numpy views.

Geometry (centroid/rotation/scale/opacity/rgb) is frozen after load;
only the per-Gaussian semantic feature vectors are mutated, and only by
the trainer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import FormatError, ValidationError
from .formats import (ensure_parent, read_container, read_exact, read_json,
                      write_container)

SCENE_MAGIC = b"GOIS"
SH_C0 = 0.28209479177387814  # DC band spherical-harmonic coefficient

DEFAULT_FEATURE_DIM = 10


class Scene:
    """Ordered collection of Gaussians sharing one feature dimension."""

    def __init__(self, feature_dim: int = DEFAULT_FEATURE_DIM):
        if feature_dim < 1:
            raise ValidationError(f"feature_dim must be >= 1, got {feature_dim}")
        self.feature_dim = int(feature_dim)
        self.centroids = np.zeros((0, 3), dtype=np.float32)
        self.rotations = np.zeros((0, 4), dtype=np.float32)
        self.scales = np.zeros((0, 3), dtype=np.float32)
        self.opacities = np.zeros((0,), dtype=np.float32)
        self.rgbs = np.zeros((0, 3), dtype=np.float32)
        self.features = np.zeros((0, self.feature_dim), dtype=np.float32)

    def __len__(self) -> int:
        return self.centroids.shape[0]

    @classmethod
    def from_arrays(cls, centroids, rotations, scales, opacities, rgbs,
                    features) -> "Scene":
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        scene = cls(feature_dim=features.shape[1])
        scene.centroids = np.asarray(centroids, dtype=np.float32).reshape(-1, 3)
        scene.rotations = np.asarray(rotations, dtype=np.float32).reshape(-1, 4)
        scene.scales = np.asarray(scales, dtype=np.float32).reshape(-1, 3)
        scene.opacities = np.asarray(opacities, dtype=np.float32).reshape(-1)
        scene.rgbs = np.asarray(rgbs, dtype=np.float32).reshape(-1, 3)
        scene.features = features.astype(np.float32)
        n = len(scene)
        for arr in (scene.rotations, scene.scales, scene.opacities,
                    scene.rgbs, scene.features):
            if arr.shape[0] != n:
                raise ValidationError("inconsistent per-Gaussian array lengths")
        return scene

    def copy(self) -> "Scene":
        return Scene.from_arrays(self.centroids.copy(), self.rotations.copy(),
                                 self.scales.copy(), self.opacities.copy(),
                                 self.rgbs.copy(), self.features.copy())

    def validate(self) -> None:
        for name, arr in (("centroid", self.centroids),
                          ("quaternion", self.rotations),
                          ("scale", self.scales),
                          ("opacity", self.opacities[:, None]),
                          ("rgb", self.rgbs), ("feature", self.features)):
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
            if bad.size:
                raise ValidationError(f"non-finite {name} (record {bad[0]})")
        norms = np.linalg.norm(self.rotations.astype(np.float64), axis=1)
        bad = np.where(np.abs(norms - 1.0) > 1e-6)[0]
        if bad.size:
            raise ValidationError(f"quaternion not unit norm (record {bad[0]})")
        bad = np.where(~np.all(self.scales > 0, axis=1))[0]
        if bad.size:
            raise ValidationError(f"non-positive scale component (record {bad[0]})")
        bad = np.where((self.opacities < 0) | (self.opacities > 1))[0]
        if bad.size:
            raise ValidationError(f"opacity outside [0, 1] (record {bad[0]})")
        bad = np.where(~np.all((self.rgbs >= 0) & (self.rgbs <= 1), axis=1))[0]
        if bad.size:
            raise ValidationError(f"rgb outside [0, 1] (record {bad[0]})")
        if self.features.shape[1] != self.feature_dim:
            raise ValidationError("feature dimension mismatch")


def record_size(feature_dim: int) -> int:
    return (3 + 4 + 3 + 1 + 3 + feature_dim) * 4


def save_scene(scene: Scene, path) -> None:
    """Write a Scene as a GOIS file (bit-exact round trip with load_scene)."""
    ensure_parent(path)
    rec = np.concatenate([scene.centroids, scene.rotations, scene.scales,
                          scene.opacities[:, None], scene.rgbs,
                          scene.features], axis=1)
    write_container(path, SCENE_MAGIC, "QII",
                    (len(scene), scene.feature_dim, 0), rec)


def load_scene(path) -> Scene:
    (count, feature_dim, _), data = read_container(
        path, SCENE_MAGIC, "QII", lambda n, dim, _: n * record_size(dim))
    rec = data.reshape(count, record_size(feature_dim) // 4)
    scene = Scene(feature_dim=feature_dim)
    scene.centroids = rec[:, 0:3].copy()
    scene.rotations = rec[:, 3:7].copy()
    scene.scales = rec[:, 7:10].copy()
    scene.opacities = rec[:, 10].copy()
    scene.rgbs = rec[:, 11:14].copy()
    scene.features = rec[:, 14:].copy()
    scene.validate()
    return scene


# ---------------------------------------------------------------------------
# Cameras
# ---------------------------------------------------------------------------

@dataclass
class Camera:
    """Pinhole camera with a row-major 4x4 rigid world-to-camera transform."""

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    world_to_camera: np.ndarray = field(
        default_factory=lambda: np.eye(4, dtype=np.float64))

    def __post_init__(self):
        self.world_to_camera = np.asarray(self.world_to_camera,
                                          dtype=np.float64).reshape(4, 4)
        if self.width < 1 or self.height < 1:
            raise ValidationError("camera dimensions must be >= 1")
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError("focal lengths must be positive")
        r = self.world_to_camera[:3, :3]
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-5:
            raise ValidationError("world_to_camera rotation not orthonormal")

    def to_dict(self) -> dict:
        return {
            "width": self.width, "height": self.height,
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "world_to_camera": [float(v) for v in self.world_to_camera.ravel()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Camera":
        try:
            return cls(width=int(d["width"]), height=int(d["height"]),
                       fx=float(d["fx"]), fy=float(d["fy"]),
                       cx=float(d["cx"]), cy=float(d["cy"]),
                       world_to_camera=np.array(d["world_to_camera"],
                                                dtype=np.float64))
        except KeyError as e:
            raise FormatError(f"camera JSON missing key {e}") from e
        except (TypeError, ValueError) as e:
            raise FormatError(f"camera JSON has a malformed field: {e}") from e


def save_camera(cam: Camera, path) -> None:
    ensure_parent(path)
    Path(path).write_text(json.dumps(cam.to_dict(), indent=1))


def load_camera(path) -> Camera:
    return read_json(path, "camera", Camera.from_dict)


def look_at_camera(eye, target, up=(0.0, 0.0, 1.0), *, width: int, height: int,
                   fx: float, fy: float | None = None) -> Camera:
    """Build a camera at `eye` looking at `target` (x right, y down, z forward)."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, np.asarray(up, dtype=np.float64))
    nrm = np.linalg.norm(right)
    if nrm < 1e-9:
        raise ValidationError("camera up vector parallel to view direction")
    right /= nrm
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward])
    w2c = np.eye(4)
    w2c[:3, :3] = rot
    w2c[:3, 3] = -rot @ eye
    return Camera(width=width, height=height, fx=fx, fy=fy if fy else fx,
                  cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                  world_to_camera=w2c)


# ---------------------------------------------------------------------------
# PLY import
# ---------------------------------------------------------------------------

_PLY_TYPES = {
    "float": ("<f4", 4), "float32": ("<f4", 4),
    "double": ("<f8", 8), "float64": ("<f8", 8),
    "int": ("<i4", 4), "int32": ("<i4", 4),
    "uint": ("<u4", 4), "uint32": ("<u4", 4),
    "short": ("<i2", 2), "ushort": ("<u2", 2),
    "char": ("<i1", 1), "uchar": ("<u1", 1), "int8": ("<i1", 1),
    "uint8": ("<u1", 1),
}

_REQUIRED_PLY_PROPS = ("x", "y", "z", "rot_0", "rot_1", "rot_2", "rot_3",
                       "scale_0", "scale_1", "scale_2", "opacity",
                       "f_dc_0", "f_dc_1", "f_dc_2")


def _parse_ply_header(f):
    line = f.readline().strip()
    if line != b"ply":
        raise FormatError("not a PLY file (missing 'ply' magic line)")
    fmt = None
    count = 0
    props = []          # (name, dtype) for the vertex element
    in_vertex = False
    while True:
        line = f.readline()
        if not line:
            raise FormatError("truncated PLY header")
        parts = line.decode("ascii", "replace").strip().split()
        if not parts or parts[0] == "comment":
            continue
        try:
            if parts[0] == "format":
                fmt = parts[1]
            elif parts[0] == "element":
                in_vertex = parts[1] == "vertex"
                if in_vertex:
                    count = int(parts[2])
            elif parts[0] == "property" and in_vertex:
                if parts[1] == "list":
                    raise FormatError(
                        "list properties unsupported in vertex element")
                if parts[1] not in _PLY_TYPES:
                    raise FormatError(
                        f"unsupported PLY property type {parts[1]}")
                props.append((parts[2], parts[1]))
            elif parts[0] == "end_header":
                break
        except (ValueError, IndexError) as e:
            raise FormatError(f"malformed PLY header line {line[:64]!r}") from e
    if fmt not in ("ascii", "binary_little_endian"):
        raise FormatError(f"unsupported PLY format {fmt}")
    if not props:
        raise FormatError("PLY has no vertex element")
    return fmt, count, props


def import_ply(path, feature_dim: int = DEFAULT_FEATURE_DIM) -> Scene:
    """Import a vanilla-3DGS point file, applying storage-space activations.

    Stored opacity logits go through a sigmoid, log-scales through exp,
    quaternions are renormalized and the DC SH band is evaluated to RGB.
    Semantic features start at zero.
    """
    with open(path, "rb") as f:
        fmt, count, props, = _parse_ply_header(f)
        names = [n for n, _ in props]
        for need in _REQUIRED_PLY_PROPS:
            if need not in names:
                raise FormatError(f"PLY missing vertex property {need!r}")
        if fmt == "binary_little_endian":
            dtype = np.dtype([(n, _PLY_TYPES[t][0]) for n, t in props])
            data = np.frombuffer(read_exact(f, dtype.itemsize * count,
                                            "PLY vertex data"), dtype=dtype)
            cols = {n: data[n].astype(np.float64) for n in _REQUIRED_PLY_PROPS}
        else:
            text = f.read().decode("ascii", "replace").split()
            try:
                vals = np.array(text[:count * len(props)], dtype=np.float64)
            except ValueError as e:
                raise FormatError(
                    f"non-numeric ASCII PLY vertex data: {e}") from e
            if vals.size != count * len(props):
                raise FormatError("truncated ASCII PLY vertex data")
            vals = vals.reshape(count, len(props))
            cols = {n: vals[:, names.index(n)] for n in _REQUIRED_PLY_PROPS}

    centroids = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    quats = np.stack([cols[f"rot_{i}"] for i in range(4)], axis=1)
    norms = np.linalg.norm(quats, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise FormatError("zero-norm quaternion in PLY")
    quats = quats / norms
    scales = np.exp(np.stack([cols[f"scale_{i}"] for i in range(3)], axis=1))
    opacities = expit(cols["opacity"])
    f_dc = np.stack([cols[f"f_dc_{i}"] for i in range(3)], axis=1)
    rgbs = np.clip(0.5 + SH_C0 * f_dc, 0.0, 1.0)

    scene = Scene.from_arrays(centroids, quats, scales, opacities, rgbs,
                              np.zeros((count, feature_dim), dtype=np.float32))
    # float32 rounding can leave quaternions marginally off unit norm
    q64 = scene.rotations.astype(np.float64)
    scene.rotations = (q64 / np.linalg.norm(q64, axis=1, keepdims=True)
                       ).astype(np.float32)
    scene.validate()
    return scene
