"""Self-describing binary weight files.

Layout (all little-endian):
  magic "WMHNET\\0\\0" | format version u32 | spec digest (8 bytes)
  input_channels u32 | n_widths u32 | widths u32[n]
  layer count u32
  per layer, for the kernel then the bias:
    dtype code u8 (0=float32, 1=float64) | ndim u8 | shape u32[ndim] | raw values
  crc32 of everything above, u32
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import FormatError
from .unet import DEFAULT_WIDTHS, NetworkSpec, build_unet

MAGIC = b"WMHNET\x00\x00"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.float32, 1: np.float64}


def spec_digest(spec: NetworkSpec) -> bytes:
    text = f"{spec.input_channels}:{','.join(map(str, spec.widths))}"
    return hashlib.sha256(text.encode()).digest()[:8]


def _pack_array(arr: np.ndarray) -> bytes:
    code = _DTYPE_CODES[arr.dtype]
    parts = [struct.pack("<BB", code, arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    return b"".join(parts)


class _Reader:
    """Reads fields off a memoryview; a field is a slice of it, not a copy."""
    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise FormatError("weight file truncated")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def save_weights(path, spec: NetworkSpec, weights) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION), spec_digest(spec)]
    parts.append(struct.pack("<II", spec.input_channels, len(spec.widths)))
    parts.append(struct.pack(f"<{len(spec.widths)}I", *spec.widths))
    parts.append(struct.pack("<I", len(weights)))
    for w, b in weights:
        parts.append(_pack_array(np.asarray(w)))
        parts.append(_pack_array(np.asarray(b)))
    body = b"".join(parts)
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    Path(path).write_bytes(blob)


def load_weights(path):
    """Read a weight file; returns (spec, weights). Verifies the checksum."""
    blob = memoryview(Path(path).read_bytes())
    if len(blob) < len(MAGIC) + 4:
        raise FormatError("weight file too short")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise FormatError("weight file checksum mismatch")

    r = _Reader(body)
    if r.take(len(MAGIC)) != MAGIC:
        raise FormatError("bad weight file magic")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise FormatError(f"unsupported weight file version {version}")
    digest = r.take(8)
    input_channels, n_widths = r.unpack("<II")
    if n_widths != len(DEFAULT_WIDTHS):
        raise FormatError(f"weight file stores {n_widths} widths, the network has "
                          f"{len(DEFAULT_WIDTHS)}")
    widths = r.unpack(f"<{n_widths}I")

    # Reconstruct the spec from the stored widths (base_width = widths[0]).
    spec = build_unet(input_channels=input_channels, base_width=widths[0])
    if spec.widths != widths or spec_digest(spec) != digest:
        raise FormatError("weight file spec does not match a buildable network")

    (n_layers,) = r.unpack("<I")
    if n_layers != len(spec.layers):
        raise FormatError(
            f"weight file has {n_layers} layers, spec expects {len(spec.layers)}"
        )
    weights = []
    for i, c in enumerate(spec.layers, 1):
        arrays = []
        for name, want in (("kernel", (c.out_channels, c.in_channels, c.kernel, c.kernel)),
                           ("bias", (c.out_channels,))):
            code, ndim = r.unpack("<BB")
            if code not in _CODE_DTYPES:
                raise FormatError(f"unknown dtype code {code}")
            shape = r.unpack(f"<{ndim}I")
            if shape != want:
                raise FormatError(f"weight file layer {i} {name} has shape {shape}, "
                                  f"the spec expects {want}")
            dtype = np.dtype(_CODE_DTYPES[code])
            raw = r.take(int(np.prod(shape)) * dtype.itemsize)
            # The one copy: writeable arrays that own their memory.
            arrays.append(np.frombuffer(raw, dtype=dtype.newbyteorder("<"))
                          .reshape(shape).astype(dtype))
        weights.append((arrays[0], arrays[1]))
    return spec, weights
