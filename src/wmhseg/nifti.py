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
import zlib
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, UnsupportedTypeError
from .grids import BinaryMask3D, Volume3D

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# The header fields this module reads or sets, at their nifti1.h offsets.
# Every other header byte is carried along untouched.
_HEADER = np.dtype({
    "names": ["sizeof_hdr", "dim", "datatype", "bitpix", "pixdim", "vox_offset",
              "scl_slope", "scl_inter", "magic"],
    "formats": ["<i4", ("<i2", 8), "<i2", "<i2", ("<f4", 8), "<f4", "<f4", "<f4", "V4"],
    "offsets": [0, 40, 70, 72, 76, 108, 112, 116, 344],
    "itemsize": HEADER_SIZE,
})

# datatype code -> numpy dtype; bitpix is 8 * itemsize
_DTYPES = {2: np.dtype(np.uint8), 4: np.dtype(np.int16), 16: np.dtype(np.float32)}
_DTYPE_CODES = {dtype: code for code, dtype in _DTYPES.items()}


def _fields(hdr):
    """(byte order, view of the declared fields) of a 348-byte header.

    The header is big-endian when its sizeof_hdr reads 348 that way.  The
    view is writable when ``hdr`` is a bytearray.
    """
    big = np.frombuffer(hdr, _HEADER.newbyteorder(">"), count=1)[0]
    if big["sizeof_hdr"] == HEADER_SIZE:
        return ">", big
    return "<", np.frombuffer(hdr, _HEADER, count=1)[0]


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


def read_nifti(path) -> Volume3D:
    """Read a single-file NIfTI-1 volume.

    Values are mapped through scl_slope/scl_inter when slope is nonzero and
    not the identity transform (per the NIfTI convention slope 0 means
    "unscaled").  The raw header bytes are kept in the volume's ``header``
    field so a later write can preserve orientation fields.
    """
    raw = _read_bytes(path)
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    endian, hdr = _fields(raw)
    if hdr["sizeof_hdr"] != HEADER_SIZE:
        raise FormatError(f"sizeof_hdr is {int(hdr['sizeof_hdr'])}, expected {HEADER_SIZE}")
    magic = bytes(hdr["magic"])
    if magic == MAGIC_PAIR:
        raise FormatError("two-file NIfTI (ni1) is not supported")
    if magic != MAGIC_SINGLE:
        raise FormatError(f"bad magic {magic!r}")

    # Python numbers from here on, so no product overflows a header type.
    dim, pixdim = tuple(hdr["dim"].tolist()), tuple(hdr["pixdim"].tolist())
    datatype, vox_offset = int(hdr["datatype"]), float(hdr["vox_offset"])
    scl_slope, scl_inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
    if not math.isfinite(vox_offset):
        raise FormatError(f"vox_offset is {vox_offset}")
    if not all(math.isfinite(p) for p in pixdim[1:4]):
        raise FormatError(f"non-finite voxel spacing, pixdim = {pixdim}")
    # scl_inter is ignored, like the NIfTI convention says, when slope is 0.
    if scl_slope != 0.0 and not (math.isfinite(scl_slope) and math.isfinite(scl_inter)):
        raise FormatError(f"non-finite scaling: scl_slope {scl_slope}, scl_inter {scl_inter}")

    ndim = dim[0]
    if ndim < 3 or any(d > 1 for d in dim[4 : 1 + max(3, ndim)]):
        raise FormatError(f"expected a 3D volume, header dim = {dim}")
    if min(dim[1:4]) < 1:
        raise FormatError(f"dim[1..3] must be >= 1, header dim = {dim}")
    nx, ny, nz = dim[1:4]

    if datatype not in _DTYPES:
        raise UnsupportedTypeError(f"unsupported NIfTI datatype code {datatype}")
    np_dtype = _DTYPES[datatype]

    vox_offset = int(round(vox_offset)) if vox_offset >= HEADER_SIZE else VOX_OFFSET
    n_vox = nx * ny * nz
    n_bytes = n_vox * np_dtype.itemsize
    if len(raw) < vox_offset + n_bytes:
        raise FormatError(
            f"truncated data section: need {n_bytes} bytes at offset {vox_offset}, "
            f"file holds {len(raw) - vox_offset}"
        )

    data = np.frombuffer(raw, dtype=np_dtype.newbyteorder(endian),
                         count=n_vox, offset=vox_offset)
    # NIfTI stores x fastest: reshaping to (nz, ny, nx) in C order matches.
    data = data.reshape(nz, ny, nx).astype(np_dtype)

    if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
        data = data.astype(np.float32) * np.float32(scl_slope) + np.float32(scl_inter)

    spacing = tuple(abs(p) if p != 0 else 1.0 for p in pixdim[1:4])
    return Volume3D(data, spacing, bytes(raw[:HEADER_SIZE]))


def read_nifti_mask(path) -> BinaryMask3D:
    """Read a NIfTI file as a binary mask (nonzero = foreground)."""
    vol = read_nifti(path)
    return BinaryMask3D(vol.data != 0, vol.spacing, vol.header)


def _build_header(dims, spacing, np_dtype, template: bytes | None):
    """(header, byte order) for a volume.  A template's own fields, byte
    order and qfac (pixdim[0], written as its sign, 0 read as +1) are kept;
    without one the header is little-endian with qfac +1."""
    for axis, n in zip("xyz", dims):
        if n > np.iinfo(np.int16).max:
            raise ContractError(f"dim {axis} is {n}; NIfTI-1 stores dims as int16 (at most 32767)")
    hdr = bytearray(template) if template else bytearray(HEADER_SIZE)
    if len(hdr) != HEADER_SIZE:
        raise FormatError("header template must be 348 bytes")
    endian, fields = _fields(hdr)
    qfac = -1.0 if fields["pixdim"][0] < 0 else 1.0
    fields["sizeof_hdr"] = HEADER_SIZE
    fields["dim"] = (3, *dims, 1, 1, 1, 1)
    fields["datatype"] = _DTYPE_CODES[np_dtype]
    fields["bitpix"] = 8 * np_dtype.itemsize
    fields["pixdim"] = (qfac, *spacing, 0.0, 0.0, 0.0, 0.0)
    fields["vox_offset"] = VOX_OFFSET
    fields["scl_slope"], fields["scl_inter"] = 1.0, 0.0
    fields["magic"] = MAGIC_SINGLE
    return hdr, endian


def write_nifti(volume, path) -> None:
    """Write a Volume3D or BinaryMask3D as a single-file NIfTI-1.

    A grid read from disk is written in its header's byte order with its
    orientation fields; one built in memory is written little-endian.

    Masks are stored as uint8 {0, 1}.  Volumes keep a uint8, int16 or
    float32 dtype and are written as float32 otherwise.  Paths ending in .gz
    are gzip-compressed with no file name or time in the gzip header, so
    equal data gives equal bytes under any name.
    """
    path = Path(path)
    if isinstance(volume, BinaryMask3D):
        data = volume.data.astype(np.uint8)
    elif isinstance(volume, Volume3D):
        data = volume.data
    else:
        raise ContractError(f"cannot write object of type {type(volume).__name__}")

    np_dtype = data.dtype if data.dtype in _DTYPE_CODES else np.dtype(np.float32)
    hdr, endian = _build_header(volume.dims, volume.spacing, np_dtype, volume.header)
    payload = data.astype(np_dtype.newbyteorder(endian))
    blob = bytes(hdr) + b"\x00" * (VOX_OFFSET - HEADER_SIZE) + payload.tobytes()
    path.write_bytes(gzip.compress(blob, compresslevel=4, mtime=0)
                     if path.suffix == ".gz" else blob)
