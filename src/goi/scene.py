"""Gaussian scene representation, cameras, and scene file I/O.

A Scene stores its Gaussians in flat float32 arrays (struct-of-arrays)
so rendering and training can operate on whole-scene numpy views. Its
fields are the columns of a GOIS record, in file order, with the widths
GEOMETRY_WIDTHS gives and the features last; code that handles every
array takes them from Scene.arrays().

Geometry (centroid/rotation/scale/opacity/rgb) is frozen after load;
only the per-Gaussian semantic feature vectors are mutated, and only by
the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from .errors import FormatError, ValidationError
from .formats import (read_container, read_exact, read_json, write_container,
                      write_json)

SCENE_MAGIC = b"GOIS"
SH_C0 = 0.28209479177387814  # DC band spherical-harmonic coefficient

DEFAULT_FEATURE_DIM = 10
MAX_CAMERA_PIXELS = 1 << 24  # 4096^2; a render holds several arrays per pixel
# float32 columns per Gaussian of each geometry field, in GOIS order; the
# feature_dim feature columns follow them
GEOMETRY_WIDTHS = {"centroids": 3, "rotations": 4, "scales": 3,
                   "opacities": 1, "rgbs": 3}


@dataclass(eq=False)
class Scene:
    """Ordered collection of Gaussians sharing one feature dimension.

    The constructor casts every array to float32 (a copy), shapes it to
    its width and rejects arrays of different lengths or no feature
    columns.
    """

    centroids: np.ndarray   # (G, 3)
    rotations: np.ndarray   # (G, 4) unit quaternions (w, x, y, z)
    scales: np.ndarray      # (G, 3)
    opacities: np.ndarray   # (G,)
    rgbs: np.ndarray        # (G, 3)
    features: np.ndarray    # (G, feature_dim)

    def __post_init__(self):
        self.features = np.atleast_2d(np.array(self.features, np.float32))
        if self.feature_dim < 1:
            raise ValidationError(
                f"feature_dim must be >= 1, got {self.feature_dim}")
        for name, width in GEOMETRY_WIDTHS.items():
            arr = np.array(getattr(self, name), np.float32)
            setattr(self, name, arr.reshape((-1, width) if width > 1 else -1))
        if any(len(arr) != len(self) for arr in self.arrays()):
            raise ValidationError("inconsistent per-Gaussian array lengths")

    def __len__(self) -> int:
        return self.centroids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def arrays(self) -> tuple:
        """The per-Gaussian arrays, in GOIS column order."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def copy(self) -> "Scene":
        return Scene(*self.arrays())

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


def record_size(feature_dim: int) -> int:
    return (sum(GEOMETRY_WIDTHS.values()) + feature_dim) * 4


def save_scene(scene: Scene, path) -> None:
    """Write a Scene as a GOIS file (bit-exact round trip with load_scene)."""
    write_container(path, SCENE_MAGIC, "QII",
                    (len(scene), scene.feature_dim, 0),
                    np.column_stack(scene.arrays()))


def load_scene(path) -> Scene:
    (count, feature_dim, _), data = read_container(
        path, SCENE_MAGIC, "QII", lambda n, dim, _: n * record_size(dim))
    rec = data.reshape(count, record_size(feature_dim) // 4)
    scene = Scene(*np.split(rec, np.cumsum(list(GEOMETRY_WIDTHS.values())),
                            axis=1))
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
        if self.width * self.height > MAX_CAMERA_PIXELS:
            raise ValidationError(
                f"camera has more than {MAX_CAMERA_PIXELS} pixels")
        if not (np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy]))
                and np.all(np.isfinite(self.world_to_camera))):
            raise ValidationError("camera intrinsics and pose must be finite")
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
            if any(type(d[k]) is not int for k in ("width", "height")):
                raise FormatError("camera JSON has a malformed field: width "
                                  "and height must be integers")
            return cls(width=d["width"], height=d["height"],
                       fx=float(d["fx"]), fy=float(d["fy"]),
                       cx=float(d["cx"]), cy=float(d["cy"]),
                       world_to_camera=np.array(d["world_to_camera"],
                                                dtype=np.float64))
        except KeyError as e:
            raise FormatError(f"camera JSON missing key {e}") from e
        except (TypeError, ValueError) as e:
            raise FormatError(f"camera JSON has a malformed field: {e}") from e


def save_camera(cam: Camera, path) -> None:
    write_json(path, cam.to_dict(), indent=1)


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
    if feature_dim < 1:
        raise ValidationError(f"feature_dim must be >= 1, got {feature_dim}")
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

    scene = Scene(centroids, quats, scales, opacities, rgbs,
                  np.zeros((count, feature_dim), dtype=np.float32))
    # float32 rounding can leave quaternions marginally off unit norm
    q64 = scene.rotations.astype(np.float64)
    scene.rotations = (q64 / np.linalg.norm(q64, axis=1, keepdims=True)
                       ).astype(np.float32)
    scene.validate()
    return scene
