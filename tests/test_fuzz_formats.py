"""Damaged binary files: a reader may only ever raise GOIError.

Each format starts from a small valid file, then one of three damages is
applied: truncation, a flipped byte, or a header size field inflated
past what the file holds. Truncated and inflated files must be
rejected; a flipped byte may still decode to a valid file.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from goi.codebook import (Codebook, Decoder, load_codebook, load_decoder,
                          save_codebook, save_decoder)
from goi.errors import FormatError, GOIError
from goi.formats import (read_feature_map, read_pgm, write_feature_map,
                         write_pgm)
from goi.scene import load_scene, save_scene

from oracles import random_scene


def rng():
    return np.random.default_rng(0)


def pnm_fields(field_index):
    """Rewrite width (0) or height (1) of a "P? W H 255" header."""
    def inflate(data, value):
        magic, size, rest = data.split(b"\n", 2)
        dims = size.split(b" ")
        dims[field_index] = b"%d" % value
        return b"\n".join([magic, b" ".join(dims), rest])
    return inflate


def struct_field(offset, fmt):
    """Rewrite the binary header field at `offset`."""
    def inflate(data, value):
        out = bytearray(data)
        struct.pack_into(fmt, out, offset, value)
        return bytes(out)
    return inflate


# format -> (write a valid file, read it back, {size field: (inflate, max)})
FORMATS = {
    "GOIS": (lambda p: save_scene(random_scene(0, 3), p), load_scene,
             {"count": (struct_field(8, "<Q"), 2 ** 64 - 1),
              "feature_dim": (struct_field(16, "<I"), 2 ** 32 - 1)}),
    "GOIC": (lambda p: save_codebook(Codebook(rng().normal(size=(4, 3))), p),
             load_codebook,
             {"n": (struct_field(8, "<I"), 2 ** 32 - 1),
              "dim": (struct_field(12, "<I"), 2 ** 32 - 1)}),
    "GOID": (lambda p: save_decoder(Decoder(rng().normal(size=(4, 3)),
                                            rng().normal(size=4)), p),
             load_decoder,
             {"in_dim": (struct_field(8, "<I"), 2 ** 32 - 1),
              "out_dim": (struct_field(12, "<I"), 2 ** 32 - 1)}),
    "GOIF": (lambda p: write_feature_map(p, rng().normal(size=(2, 3, 2))),
             read_feature_map,
             {"h": (struct_field(8, "<I"), 2 ** 32 - 1),
              "w": (struct_field(12, "<I"), 2 ** 32 - 1),
              "d": (struct_field(16, "<I"), 2 ** 32 - 1)}),
    "PGM": (lambda p: write_pgm(p, rng().uniform(size=(3, 4))), read_pgm,
            {"width": (pnm_fields(0), 10 ** 10 - 1),
             "height": (pnm_fields(1), 10 ** 10 - 1)}),
}


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_raises_only_goi_error(tmp_path, kind, data):
    write, read, fields = FORMATS[kind]
    path = tmp_path / f"file.{kind.lower()}"
    write(path)
    valid = path.read_bytes()
    damage = data.draw(st.sampled_from(["truncate", "flip", "inflate"]))
    if damage == "truncate":
        damaged = valid[:data.draw(st.integers(0, len(valid) - 1))]
    elif damage == "flip":
        pos = data.draw(st.integers(0, len(valid) - 1))
        mask = data.draw(st.integers(1, 255))
        damaged = valid[:pos] + bytes([valid[pos] ^ mask]) + valid[pos + 1:]
    else:
        inflate, top = fields[data.draw(st.sampled_from(sorted(fields)))]
        # a modest overshoot and one near the field's maximum both occur
        value = data.draw(st.one_of(st.integers(10 ** 3, 10 ** 4),
                                    st.integers(top // 2, top)))
        damaged = inflate(valid, value)
    path.write_bytes(damaged)
    if damage == "flip":
        try:
            read(path)
        except GOIError:
            pass
    else:
        with pytest.raises(GOIError):
            read(path)


@pytest.mark.parametrize("kind, header_bytes", [("GOIC", 16), ("GOID", 16),
                                                ("GOIF", 20)])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_is_format_error(tmp_path, kind, header_bytes,
                                            where, value):
    write, read, _ = FORMATS[kind]
    path = tmp_path / f"file.{kind.lower()}"
    write(path)
    data = bytearray(path.read_bytes())
    read(path)   # valid before the damage
    struct.pack_into("<f", data,
                     header_bytes if where == "first" else len(data) - 4, value)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="non-finite value"):
        read(path)
