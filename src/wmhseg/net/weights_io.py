"""Binary weight files holding only what the network spec cannot derive.

Layout (all little-endian):
  magic "WMHNET\\0\\0" | format version u32 | input_channels u32
  base_width u32 | dtype code u8 (0=float32, 1=float64)
  each layer's kernel then bias, in spec order, as raw values
  crc32 of everything above, u32

``build_unet(input_channels, base_width)`` fixes every array's shape, so a
body of any other length than the spec needs is rejected.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, ContractError, FormatError
from .unet import NetworkSpec, build_unet

MAGIC = b"WMHNET\x00\x00"
VERSION = 2
_HEADER = struct.Struct("<8sIIIB")
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))  # indexed by dtype code


def _shapes(spec: NetworkSpec):
    """Each layer's kernel and bias shape, in file order."""
    return [shape for c in spec.layers
            for shape in ((c.out_channels, c.in_channels, c.kernel, c.kernel), (c.out_channels,))]


def save_weights(path, spec: NetworkSpec, weights) -> None:
    if spec != build_unet(spec.input_channels, spec.widths[0]):
        raise ContractError("spec is not one build_unet(input_channels, base_width) makes")
    arrays = [np.asarray(a) for pair in weights for a in pair]
    shapes = _shapes(spec)
    if len(arrays) != len(shapes):
        raise ContractError(f"weight set has {len(arrays)} arrays, the spec needs {len(shapes)}")
    for i, (a, want) in enumerate(zip(arrays, shapes)):
        if a.shape != want:
            raise ContractError(f"layer {i // 2 + 1} {('kernel', 'bias')[i % 2]} has shape "
                                f"{a.shape}, the spec expects {want}")
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) != 1 or arrays[0].dtype not in _DTYPES:
        raise ContractError("weights must share one float32 or float64 dtype, got "
                            + ", ".join(sorted(map(str, dtypes))))
    dtype = arrays[0].dtype
    header = _HEADER.pack(MAGIC, VERSION, spec.input_channels, spec.widths[0],
                          _DTYPES.index(dtype))
    body = b"".join([header, *(np.ascontiguousarray(a, dtype.newbyteorder("<")).tobytes()
                               for a in arrays)])
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def load_weights(path):
    """Read a weight file; returns (spec, weights). Verifies the checksum and
    that the body holds exactly the values the spec needs."""
    blob = memoryview(Path(path).read_bytes())
    if len(blob) < _HEADER.size + 4:
        raise FormatError("weight file too short")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise FormatError("weight file checksum mismatch")

    magic, version, input_channels, base_width, code = _HEADER.unpack_from(body)
    if magic != MAGIC:
        raise FormatError("bad weight file magic")
    if version != VERSION:
        raise FormatError(f"unsupported weight file version {version}")
    if code >= len(_DTYPES):
        raise FormatError(f"unknown dtype code {code}")
    try:
        spec = build_unet(input_channels=input_channels, base_width=base_width)
    except ConfigurationError as exc:
        raise FormatError(f"weight file header: {exc}") from None

    dtype, shapes = _DTYPES[code], _shapes(spec)
    sizes = [math.prod(shape) for shape in shapes]
    want = _HEADER.size + sum(sizes) * dtype.itemsize
    if len(body) != want:
        raise FormatError(f"weight file body is {len(body)} bytes, the spec needs {want}")
    values = np.frombuffer(body, dtype.newbyteorder("<"), offset=_HEADER.size)
    # The one copy: writeable arrays that own their memory.
    arrays = [chunk.reshape(shape).astype(dtype)
              for chunk, shape in zip(np.split(values, np.cumsum(sizes)[:-1]), shapes)]
    return spec, list(zip(arrays[::2], arrays[1::2]))
