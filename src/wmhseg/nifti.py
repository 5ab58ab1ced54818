"""Minimal NIfTI-1 single-file (.nii / .nii.gz) reader and writer.

Covers exactly what the pipeline needs: 3D uint8 / int16 / float32 volumes,
spacing from pixdim, scl_slope/scl_inter scaling, both endiannesses and
optional gzip containers.  Orientation and affine header fields are carried
along verbatim when re-writing a volume that was read from disk, but they are
never interpreted.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, UnsupportedTypeError
from .grids import BinaryMask3D, Volume3D

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# datatype code -> (numpy dtype, bitpix)
_DTYPES = {
    2: (np.uint8, 8),
    4: (np.int16, 16),
    16: (np.float32, 32),
}
_DTYPE_CODES = {np.dtype(np.uint8): 2, np.dtype(np.int16): 4, np.dtype(np.float32): 16}


def _read_bytes(path) -> bytes:
    """The file's bytes, gunzipped when it starts with the gzip magic."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"corrupt or truncated gzip stream: {exc}") from exc


def _endian(hdr) -> str:
    """struct byte-order prefix of a header, from its sizeof_hdr field."""
    return ">" if struct.unpack_from(">i", hdr, 0)[0] == HEADER_SIZE else "<"


def _unpack_header(raw: bytes):
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    endian = _endian(raw)
    sizeof_hdr = struct.unpack_from(endian + "i", raw, 0)[0]
    if sizeof_hdr != HEADER_SIZE:
        raise FormatError(f"sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE}")

    magic = raw[344:348]
    if magic == MAGIC_PAIR:
        raise FormatError("two-file NIfTI (ni1) is not supported")
    if magic != MAGIC_SINGLE:
        raise FormatError(f"bad magic {magic!r}")

    dim = struct.unpack_from(endian + "8h", raw, 40)
    datatype = struct.unpack_from(endian + "h", raw, 70)[0]
    pixdim = struct.unpack_from(endian + "8f", raw, 76)
    vox_offset = struct.unpack_from(endian + "f", raw, 108)[0]
    scl_slope = struct.unpack_from(endian + "f", raw, 112)[0]
    scl_inter = struct.unpack_from(endian + "f", raw, 116)[0]
    if not math.isfinite(vox_offset):
        raise FormatError(f"vox_offset is {vox_offset}")
    if not all(math.isfinite(p) for p in pixdim[1:4]):
        raise FormatError(f"non-finite voxel spacing, pixdim = {pixdim}")
    # scl_inter is ignored, like the NIfTI convention says, when slope is 0.
    if scl_slope != 0.0 and not (math.isfinite(scl_slope) and math.isfinite(scl_inter)):
        raise FormatError(f"non-finite scaling: scl_slope {scl_slope}, scl_inter {scl_inter}")
    return endian, dim, datatype, pixdim, vox_offset, scl_slope, scl_inter


def read_nifti(path) -> Volume3D:
    """Read a single-file NIfTI-1 volume.

    Values are mapped through scl_slope/scl_inter when slope is nonzero and
    not the identity transform (per the NIfTI convention slope 0 means
    "unscaled").  The raw header bytes are kept in the volume's ``header``
    field so a later write can preserve orientation fields.
    """
    raw = _read_bytes(path)
    endian, dim, datatype, pixdim, vox_offset, scl_slope, scl_inter = _unpack_header(raw)

    ndim = dim[0]
    if ndim < 3 or any(d > 1 for d in dim[4 : 1 + max(3, ndim)]):
        raise FormatError(f"expected a 3D volume, header dim = {dim}")
    if min(dim[1:4]) < 1:
        raise FormatError(f"dim[1..3] must be >= 1, header dim = {dim}")
    nx, ny, nz = dim[1:4]

    if datatype not in _DTYPES:
        raise UnsupportedTypeError(f"unsupported NIfTI datatype code {datatype}")
    np_dtype, _ = _DTYPES[datatype]

    vox_offset = int(round(vox_offset)) if vox_offset >= HEADER_SIZE else VOX_OFFSET
    n_vox = nx * ny * nz
    n_bytes = n_vox * np.dtype(np_dtype).itemsize
    if len(raw) < vox_offset + n_bytes:
        raise FormatError(
            f"truncated data section: need {n_bytes} bytes at offset {vox_offset}, "
            f"file holds {len(raw) - vox_offset}"
        )

    data = np.frombuffer(raw, dtype=np.dtype(np_dtype).newbyteorder(endian),
                         count=n_vox, offset=vox_offset)
    # NIfTI stores x fastest: reshaping to (nz, ny, nx) in C order matches.
    data = np.ascontiguousarray(data.reshape(nz, ny, nx)).astype(np_dtype)

    if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
        data = data.astype(np.float32) * np.float32(scl_slope) + np.float32(scl_inter)

    spacing = tuple(abs(p) if p != 0 else 1.0 for p in pixdim[1:4])
    return Volume3D(data, spacing, bytes(raw[:HEADER_SIZE]))


def read_nifti_mask(path) -> BinaryMask3D:
    """Read a NIfTI file as a binary mask (nonzero = foreground)."""
    vol = read_nifti(path)
    return BinaryMask3D(vol.data != 0, vol.spacing, vol.header)


def _build_header(dims, spacing, datatype_code, template: bytes | None):
    """(header, byte-order prefix) for a volume.  A template's own fields,
    byte order and qfac (pixdim[0], written as its sign, 0 read as +1) are
    kept; without one the header is little-endian with qfac +1."""
    hdr = bytearray(template) if template else bytearray(HEADER_SIZE)
    if len(hdr) != HEADER_SIZE:
        raise FormatError("header template must be 348 bytes")
    endian = _endian(hdr)
    qfac = -1.0 if struct.unpack_from(endian + "f", hdr, 76)[0] < 0 else 1.0
    struct.pack_into(endian + "i", hdr, 0, HEADER_SIZE)
    nx, ny, nz = dims
    struct.pack_into(endian + "8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(endian + "h", hdr, 70, datatype_code)
    struct.pack_into(endian + "h", hdr, 72, _DTYPES[datatype_code][1])
    sx, sy, sz = spacing
    struct.pack_into(endian + "8f", hdr, 76, qfac, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(endian + "f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into(endian + "f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into(endian + "f", hdr, 116, 0.0)  # scl_inter
    hdr[344:348] = MAGIC_SINGLE
    return hdr, endian


def write_nifti(volume, path, datatype=None) -> None:
    """Write a Volume3D or BinaryMask3D as a single-file NIfTI-1.

    A grid read from disk is written in its header's byte order with its
    orientation fields; one built in memory is written little-endian.

    Masks are stored as uint8 {0, 1}.  For volumes the datatype defaults to
    float32 unless the data already has a supported integer dtype.  Paths
    ending in .gz are gzip-compressed with no file name or time in the gzip
    header, so equal data gives equal bytes under any name.
    """
    path = Path(path)
    if isinstance(volume, BinaryMask3D):
        data = volume.data.astype(np.uint8)
    elif isinstance(volume, Volume3D):
        data = volume.data
    else:
        raise ContractError(f"cannot write object of type {type(volume).__name__}")

    if datatype is None:
        np_dtype = data.dtype if data.dtype in _DTYPE_CODES else np.dtype(np.float32)
    else:
        np_dtype = np.dtype(datatype)
        if np_dtype not in _DTYPE_CODES:
            raise UnsupportedTypeError(f"unsupported output dtype {np_dtype}")
    code = _DTYPE_CODES[np.dtype(np_dtype)]

    hdr, endian = _build_header(volume.dims, volume.spacing, code, volume.header)
    payload = data.astype(np.dtype(np_dtype).newbyteorder(endian))
    blob = bytes(hdr) + b"\x00" * (VOX_OFFSET - HEADER_SIZE) + payload.tobytes()

    if path.suffix == ".gz":
        # An empty filename and mtime=0 keep the file name (RFC 1952 FNAME)
        # and the clock (MTIME) out of the gzip header, so the bytes depend
        # on the data alone.
        with open(path, "wb") as raw, gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, compresslevel=4, mtime=0) as f:
            f.write(blob)
    else:
        with open(path, "wb") as f:
            f.write(blob)
