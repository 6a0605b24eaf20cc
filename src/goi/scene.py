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
from .formats import (_naming, json_is, read_container, read_exact,
                      read_json, write_container, write_json)

SCENE_MAGIC = b"GOIS"
SH_C0 = 0.28209479177387814  # DC band spherical-harmonic coefficient

DEFAULT_FEATURE_DIM = 10
# import_ply's widest feature: the low-dimensional field compresses the
# semantic space, whose widest common text embedding (CLIP ViT-B's) has
# 512 dims, so a wider one has nothing to compress; features cost at most
# 2 KiB a Gaussian
MAX_FEATURE_DIM = 512
MAX_CAMERA_PIXELS = 1 << 24  # 4096^2; a render holds several arrays per pixel
LOOK_AT_UP = np.array([0.0, 0.0, 1.0])  # world up of look_at_camera's images
# float32 columns per Gaussian of each geometry field, in GOIS order; the
# feature_dim feature columns follow them
GEOMETRY_WIDTHS = {"centroids": 3, "rotations": 4, "scales": 3,
                   "opacities": 1, "rgbs": 3}


@dataclass(eq=False)
class Scene:
    """Ordered collection of Gaussians sharing one feature dimension.

    The constructor casts every array to float32 (a copy), shapes it to
    its width and rejects arrays of different lengths, no feature
    columns, and any record with a non-finite value, a quaternion off
    unit norm, a non-positive scale, or an opacity or rgb outside [0, 1];
    the error names the first such record.
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
        for name, arr in (("centroid", self.centroids),
                          ("quaternion", self.rotations),
                          ("scale", self.scales), ("opacity", self.opacities),
                          ("rgb", self.rgbs), ("feature", self.features)):
            _require(np.isfinite(arr), f"non-finite {name}")
        q = self.rotations.astype(np.float64)
        q *= q  # summed left to right, the bits of np.linalg.norm(q, axis=1)
        norms = np.sqrt(q[:, 0] + q[:, 1] + q[:, 2] + q[:, 3])
        _require(np.abs(norms - 1.0) <= 1e-6, "quaternion not unit norm")
        _require(self.scales > 0, "non-positive scale component")
        _require((self.opacities >= 0) & (self.opacities <= 1),
                 "opacity outside [0, 1]")
        _require((self.rgbs >= 0) & (self.rgbs <= 1), "rgb outside [0, 1]")

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


def _require(ok: np.ndarray, rule: str) -> None:
    """Raise ValidationError naming the first record (row of ok) that holds
    a False; the whole-array test is all a passing scene pays for."""
    if not ok.all():
        bad = np.flatnonzero(~ok.reshape(len(ok), -1).all(axis=1))
        raise ValidationError(f"{rule} (record {bad[0]})")


def record_size(feature_dim: int) -> int:
    return (sum(GEOMETRY_WIDTHS.values()) + feature_dim) * 4


def save_scene(scene: Scene, path) -> None:
    """Write a Scene as a GOIS file (bit-exact round trip with load_scene)."""
    write_container(path, SCENE_MAGIC, "QII",
                    (len(scene), scene.feature_dim, 0),
                    np.column_stack(scene.arrays()))


def load_scene(path) -> Scene:
    def build(data, count, feature_dim, _):
        rec = data.reshape(count, record_size(feature_dim) // 4)
        return Scene(*np.split(rec, np.cumsum(list(GEOMETRY_WIDTHS.values())),
                               axis=1))
    return read_container(path, SCENE_MAGIC, "QII",
                          lambda n, dim, _: n * record_size(dim), build)


# ---------------------------------------------------------------------------
# Cameras
# ---------------------------------------------------------------------------

@dataclass(eq=False)
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
        if not json_is(int, self.width, self.height):
            raise TypeError("width and height must be integers")
        # an array's entries, or those of the flat list a JSON camera holds
        pose = getattr(self.world_to_camera, "flat", self.world_to_camera)
        if not json_is(float, self.fx, self.fy, self.cx, self.cy, *pose):
            raise TypeError("intrinsics and pose must be numbers")
        self.fx, self.fy, self.cx, self.cy = intrinsics = [
            float(v) for v in (self.fx, self.fy, self.cx, self.cy)]
        self.world_to_camera = np.asarray(self.world_to_camera,
                                          dtype=np.float64).reshape(4, 4)
        if self.width < 1 or self.height < 1:
            raise ValidationError("camera dimensions must be >= 1")
        if self.width * self.height > MAX_CAMERA_PIXELS:
            raise ValidationError(
                f"camera has more than {MAX_CAMERA_PIXELS} pixels")
        if not np.isfinite([*intrinsics, *self.world_to_camera.flat]).all():
            raise ValidationError("camera intrinsics and pose must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError("focal lengths must be positive")
        if not np.array_equal(self.world_to_camera[3], (0.0, 0.0, 0.0, 1.0)):
            raise ValidationError("world_to_camera last row must be "
                                  "(0, 0, 0, 1)")
        r = self.world_to_camera[:3, :3]
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-5:
            raise ValidationError("world_to_camera rotation not orthonormal")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "world_to_camera": self.world_to_camera.ravel().tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Camera":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def save_camera(cam: Camera, path) -> None:
    write_json(path, cam.to_dict(), indent=1)


def load_camera(path) -> Camera:
    return read_json(path, "camera", Camera.from_dict)


def look_at_camera(eye, target, *, width: int, height: int,
                   fx: float) -> Camera:
    """Build a camera at `eye` looking at `target` (x right, y down, z forward)."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, LOOK_AT_UP)
    nrm = np.linalg.norm(right)
    if nrm < 1e-9:
        raise ValidationError("camera up vector parallel to view direction")
    right /= nrm
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward])
    w2c = np.eye(4)
    w2c[:3, :3] = rot
    w2c[:3, 3] = -rot @ eye
    return Camera(width=width, height=height, fx=fx, fy=fx,
                  cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                  world_to_camera=w2c)


# ---------------------------------------------------------------------------
# PLY import
# ---------------------------------------------------------------------------

_PLY_TYPES = {  # PLY property type -> little-endian numpy dtype
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
    "char": "<i1", "int8": "<i1", "uchar": "<u1", "uint8": "<u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
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
    element = None      # the element whose properties follow
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
                # the vertex data is read from the first byte of the body
                if element is None and parts[1] != "vertex":
                    raise FormatError(f"PLY element {parts[1]!r} comes "
                                      "before the vertex element")
                element = parts[1]
                if element == "vertex":
                    count = int(parts[2])
                    if count < 0:
                        raise FormatError(f"negative PLY vertex count {count}")
            elif parts[0] == "property" and element == "vertex":
                if parts[1] == "list":
                    raise FormatError(
                        "list properties unsupported in vertex element")
                if parts[1] not in _PLY_TYPES:
                    raise FormatError(
                        f"unsupported PLY property type {parts[1]}")
                if parts[2] in [n for n, _ in props]:
                    raise FormatError(
                        f"repeated PLY vertex property {parts[2]!r}")
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
    Semantic features start at zero, feature_dim (1 to MAX_FEATURE_DIM)
    of them per Gaussian.
    """
    if feature_dim < 1:
        raise ValidationError(f"feature_dim must be >= 1, got {feature_dim}")
    if feature_dim > MAX_FEATURE_DIM:
        raise ValidationError(f"feature_dim must be <= {MAX_FEATURE_DIM}, "
                              f"got {feature_dim}")
    # a finite value may overflow below; the Scene rejects its record
    with _naming(path), open(path, "rb") as f, np.errstate(over="ignore"):
        fmt, count, props, = _parse_ply_header(f)
        names = [n for n, _ in props]
        for need in _REQUIRED_PLY_PROPS:
            if need not in names:
                raise FormatError(f"PLY missing vertex property {need!r}")
        if fmt == "binary_little_endian":
            dtype = np.dtype([(n, _PLY_TYPES[t]) for n, t in props])
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
        scales = np.exp(np.stack([cols[f"scale_{i}"] for i in range(3)],
                                 axis=1))
        opacities = expit(cols["opacity"])
        f_dc = np.stack([cols[f"f_dc_{i}"] for i in range(3)], axis=1)
        rgbs = np.clip(0.5 + SH_C0 * f_dc, 0.0, 1.0)
        return Scene(centroids, quats / norms, scales, opacities, rgbs,
                     np.zeros((count, feature_dim), dtype=np.float32))
