"""Binary and image container formats, and the JSON boundary.

All multi-byte integers and floats are little-endian. A GOI container is

  magic      4 ASCII bytes naming the kind, so mixing up files fails
             loudly instead of producing garbage arrays
  version    uint32, FORMAT_VERSION
  header     kind-specific fields (sizes), a struct format per kind
  payload    float32 values running to the end of the file

and every kind is read through read_container, which checks that the
payload is exactly as long as the header's sizes imply. A header thus
never makes a reader allocate more than the file holds, and trailing or
missing bytes are one error. The kinds:

  GOIS  scene (scene.py)             GOIC  codebook entries (codebook.py)
  GOID  decoder (codebook.py)        GOIF  dense H x W x D feature map

The GOIC, GOID and GOIF readers reject a NaN or infinite payload value
with require_finite; a scene's values are checked per record by the
Scene constructor instead, so the error can name the record.

Images are binary PNM: P5 (8-bit PGM) for alpha and binary masks, P6
(8-bit PPM) for RGB renders and overlays, which are only written. PGM
headers, and PLY's, are read with read_exact, which refuses a size
larger than what is left of the file.

JSON side files (cameras, manifests, test sets, embedding tables,
index lists, configs, model metadata) are read through read_json, whose
`parse` callback takes the decoded value apart: text that is not JSON,
a NaN, infinite or overflowing number, and a value of the wrong shape
or type all raise FormatError. json_is, the one type test of parsers
and of the records they build, coerces nothing and takes no bool for a
number. A callback never opens the files a value names; its caller
does, after it returns. write_json writes them.

Every reader that opens a file (read_json, read_container, read_pgm and
scene.import_ply) raises its errors, and those of what it builds, through
_naming, which puts the path in front once; no message names the file.

Every writer here (write_container, write_pgm, write_ppm, write_json,
and the writers built on them) creates the parent directory of the file
it writes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

FEATURE_MAP_MAGIC = b"GOIF"
FORMAT_VERSION = 1


@contextmanager
def _naming(context):
    """Raise a FormatError or ValidationError again, of the same class,
    with context (a path, a test case, ...) in front of its message."""
    try:
        yield
    except (FormatError, ValidationError) as e:
        raise type(e)(f"{context}: {e}") from e


def read_exact(f, n: int, what: str) -> bytes:
    """Read n bytes, refusing any n past the end of the file up front."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if not 0 <= n <= left:
        raise FormatError(f"truncated file while reading {what} "
                          f"(wanted {n} bytes, {left} left)")
    return f.read(n)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text[:32]}")
    return value


def read_json(path, what: str, parse=lambda value: value):
    """Decode a JSON file and return parse(value).

    Undecodable text, a number that is not finite as a float, nesting
    deeper than the decoder's recursion limit, and a value parse cannot
    take apart (it raises ValueError, KeyError, IndexError, TypeError or
    OverflowError) raise FormatError.
    """
    with _naming(path):
        try:
            return parse(json.loads(Path(path).read_text(),
                                    parse_float=_finite,
                                    parse_constant=_finite))
        except KeyError as e:
            raise FormatError(f"{what} is missing key {e}") from e
        except (ValueError, IndexError, TypeError, OverflowError,
                RecursionError) as e:
            raise FormatError(f"{what} is malformed: {e}") from e


def json_is(kind: type, *values) -> bool:
    """Whether every value is of kind, with nothing coerced: int takes
    integers, float any real number, str strings; a bool is neither an
    integer nor a number."""
    kinds = kind, {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return all(isinstance(v, kinds) and not isinstance(v, bool)
               for v in values)


def check_fields(config) -> None:
    """Raise ValidationError unless each field of the dataclass config
    holds an integer if annotated int, else a finite number."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        integral = f.type in ("int", int)
        if not (json_is(int, value) if integral else
                json_is(float, value) and np.isfinite(value)):
            kind = "an integer" if integral else "a finite number"
            raise ValidationError(f"{f.name} must be {kind}, got {value!r}")


def write_json(path, value, **dumps_options) -> None:
    """Write value as JSON text; dumps_options go to json.dumps."""
    _parent_made(path).write_text(json.dumps(value, **dumps_options))


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Return values, or raise FormatError if any of them is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"non-finite value in {what} (at {bad[0]})")
    return values


def write_container(path, magic: bytes, header: str, fields, *arrays) -> None:
    """Write a GOI container: magic, version, header fields, float32 arrays."""
    with open(_parent_made(path), "wb") as f:
        f.write(magic + struct.pack("<I" + header, FORMAT_VERSION, *fields))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def read_container(path, magic: bytes, header: str, size, build):
    """Read a GOI container; returns build(flat float32 payload, *fields).

    `header` is the struct format of the fields after the version, and
    size(*fields) the payload length in bytes that they imply.
    """
    kind = magic.decode()
    fmt = "<I" + header
    with _naming(path), open(path, "rb") as f:
        got = f.read(4)
        if got != magic:
            raise FormatError(f"wrong container type: expected magic "
                              f"{kind!r}, got {got!r}")
        version, *fields = struct.unpack(
            fmt, read_exact(f, struct.calcsize(fmt), f"{kind} header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported {kind} version {version}")
        payload = f.read()
        if len(payload) != size(*fields):
            raise FormatError(f"{kind} payload is {len(payload)} bytes, "
                              f"its header implies {size(*fields)}")
        return build(np.frombuffer(payload, dtype="<f4"), *fields)


def write_feature_map(path, values: np.ndarray) -> None:
    """Write an H x W x D float32 map as a GOIF file."""
    values = np.asarray(values)
    if values.ndim != 3:
        raise FormatError(f"feature map must be H x W x D, got shape {values.shape}")
    write_container(path, FEATURE_MAP_MAGIC, "III", values.shape, values)


def read_feature_map(path) -> np.ndarray:
    """Read a GOIF file: an H x W x D map with at least one pixel."""
    def build(data, h, w, d):
        if h == 0 or w == 0:
            raise FormatError(f"feature map is {h} x {w}: it has no pixels")
        return require_finite(data, "GOIF payload").reshape(h, w, d).copy()
    return read_container(path, FEATURE_MAP_MAGIC, "III",
                          lambda h, w, d: h * w * d * 4, build)


def _read_pgm_header(f):
    if read_exact(f, 2, "PNM magic") != b"P5":
        raise FormatError("wrong container type: expected P5 image")

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
        if not tok.isdigit() or len(tok) > 10:
            raise FormatError(f"bad PNM header field {tok[:16]!r}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"only 8-bit PNM supported, maxval={maxval}")
    return w, h


def _write_pnm(path, magic: bytes, a: np.ndarray) -> None:
    levels = a if np.issubdtype(a.dtype, np.integer) else np.rint(a * 255.0)
    a = np.clip(levels, 0, 255).astype(np.uint8)
    with open(_parent_made(path), "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, a.shape[1], a.shape[0]))
        f.write(a.tobytes())


def write_pgm(path, values: np.ndarray) -> None:
    """Write an H x W image as binary PGM: integers are levels, clipped to
    [0, 255]; bools and floats are [0, 1] fractions, scaled by 255,
    rounded and clipped."""
    a = np.asarray(values)
    if a.ndim != 2:
        raise FormatError(f"PGM image must be H x W, got shape {a.shape}")
    _write_pnm(path, b"P5", a)


def read_pgm(path) -> np.ndarray:
    with _naming(path), open(path, "rb") as f:
        w, h = _read_pgm_header(f)
        data = read_exact(f, w * h, "PGM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def read_mask(path) -> np.ndarray:
    """Read a PGM as a boolean mask; any nonzero pixel counts as positive."""
    return read_pgm(path) != 0


def write_mask(path, mask: np.ndarray) -> None:
    write_pgm(path, np.asarray(mask, dtype=bool))


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an H x W x 3 image as binary PPM, scaled as write_pgm does."""
    a = np.asarray(rgb)
    if a.ndim != 3 or a.shape[2] != 3:
        raise FormatError(f"PPM image must be H x W x 3, got shape {a.shape}")
    _write_pnm(path, b"P6", a)


def _parent_made(path) -> Path:
    """path as a Path, once its parent directory exists."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path
