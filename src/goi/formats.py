"""Binary and image container formats.

All multi-byte integers and floats are little-endian. Containers carry a
4-byte ASCII magic so mixing up file kinds fails loudly instead of
producing garbage arrays.

  GOIF  dense H x W x D float32 feature map
  P5    8-bit binary PGM, used for alpha and binary masks
  P6    8-bit binary PPM, used for RGB renders and overlays

JSON side files (cameras, manifests, test sets, embedding tables,
hyperplanes, index lists, configs) are read through read_json.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

FEATURE_MAP_MAGIC = b"GOIF"
FORMAT_VERSION = 1


def read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what} "
                          f"(wanted {n} bytes, got {len(buf)})")
    return buf


def read_json(path, what: str):
    """Parse a JSON file; text that is not JSON raises FormatError."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{what} {path} is not valid JSON: {e}") from e


def check_magic(f, expected: bytes) -> None:
    got = read_exact(f, 4, "magic")
    if got != expected:
        raise FormatError(
            f"wrong container type: expected magic {expected.decode()!r}, "
            f"got {got!r}")


def write_feature_map(path, values: np.ndarray) -> None:
    """Write an H x W x D float32 map as a GOIF file."""
    values = np.asarray(values)
    if values.ndim != 3:
        raise FormatError(f"feature map must be H x W x D, got shape {values.shape}")
    h, w, d = values.shape
    with open(path, "wb") as f:
        f.write(FEATURE_MAP_MAGIC)
        f.write(struct.pack("<IIII", FORMAT_VERSION, h, w, d))
        f.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_feature_map(path) -> np.ndarray:
    with open(path, "rb") as f:
        check_magic(f, FEATURE_MAP_MAGIC)
        version, h, w, d = struct.unpack("<IIII", read_exact(f, 16, "GOIF header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported GOIF version {version}")
        data = read_exact(f, h * w * d * 4, "GOIF payload")
        extra = f.read(1)
    if extra:
        raise FormatError("trailing bytes after GOIF payload")
    return np.frombuffer(data, dtype="<f4").reshape(h, w, d).copy()


def _read_pnm_header(f, magic: bytes):
    if read_exact(f, 2, "PNM magic") != magic:
        raise FormatError(f"wrong container type: expected {magic.decode()} image")

    fields = []
    while len(fields) < 3:
        tok = b""
        ch = f.read(1)
        while ch.isspace():
            ch = f.read(1)
        if ch == b"#":  # comment line
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        while ch and not ch.isspace():
            tok += ch
            ch = f.read(1)
        if not tok:
            raise FormatError("truncated PNM header")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"only 8-bit PNM supported, maxval={maxval}")
    return w, h


def write_pgm(path, values: np.ndarray) -> None:
    """Write an H x W uint8 (or bool / [0,1] float) image as binary PGM."""
    a = np.asarray(values)
    if a.ndim != 2:
        raise FormatError(f"PGM image must be H x W, got shape {a.shape}")
    if a.dtype == bool:
        a = a.astype(np.uint8) * 255
    elif np.issubdtype(a.dtype, np.floating):
        a = np.clip(np.rint(a * 255.0), 0, 255).astype(np.uint8)
    else:
        a = a.astype(np.uint8)
    h, w = a.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(a.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_pnm_header(f, b"P5")
        data = read_exact(f, w * h, "PGM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def read_mask(path) -> np.ndarray:
    """Read a PGM as a boolean mask; any nonzero pixel counts as positive."""
    return read_pgm(path) != 0


def write_mask(path, mask: np.ndarray) -> None:
    write_pgm(path, np.asarray(mask, dtype=bool))


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an H x W x 3 image ([0,1] float or uint8) as binary PPM."""
    a = np.asarray(rgb)
    if a.ndim != 3 or a.shape[2] != 3:
        raise FormatError(f"PPM image must be H x W x 3, got shape {a.shape}")
    if np.issubdtype(a.dtype, np.floating):
        a = np.clip(np.rint(a * 255.0), 0, 255).astype(np.uint8)
    else:
        a = a.astype(np.uint8)
    h, w, _ = a.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(a.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_pnm_header(f, b"P6")
        data = read_exact(f, w * h * 3, "PPM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).copy()


def ensure_parent(path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
