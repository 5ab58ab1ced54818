import gzip
import struct

import numpy as np
import pytest

from wmhseg.errors import FormatError, UnsupportedTypeError
from wmhseg.grids import BinaryMask3D, Volume3D
from wmhseg.nifti import (
    HEADER_SIZE,
    VOX_OFFSET,
    read_nifti,
    read_nifti_mask,
    write_nifti,
)


def small_volume(dtype=np.float32, spacing=(0.96, 0.95, 3.0)):
    rng = np.random.default_rng(0)
    if np.issubdtype(dtype, np.floating):
        data = rng.random((2, 4, 4)).astype(dtype)
    else:
        data = rng.integers(0, 100, (2, 4, 4)).astype(dtype)
    return Volume3D(data, spacing)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
def test_round_trip_exact(tmp_path, dtype):
    vol = small_volume(dtype)
    path = tmp_path / "vol.nii"
    write_nifti(vol, path, datatype=dtype)
    back = read_nifti(path)
    np.testing.assert_array_equal(back.data, vol.data)
    assert back.dims == vol.dims
    np.testing.assert_allclose(back.spacing, vol.spacing, rtol=1e-6)


def test_round_trip_gzip(tmp_path):
    vol = small_volume()
    path = tmp_path / "vol.nii.gz"
    write_nifti(vol, path)
    with open(path, "rb") as f:
        assert f.read(2) == b"\x1f\x8b"
    np.testing.assert_array_equal(read_nifti(path).data, vol.data)


def test_gzip_bytes_independent_of_file_name(tmp_path):
    mask = BinaryMask3D(np.random.default_rng(3).random((3, 5, 5)) < 0.5, (1, 1, 1))
    write_nifti(mask, tmp_path / "seg0.nii.gz")
    write_nifti(mask, tmp_path / "seg1.nii.gz")
    raw = (tmp_path / "seg0.nii.gz").read_bytes()
    assert raw == (tmp_path / "seg1.nii.gz").read_bytes()
    assert raw[3] == 0  # FLG: no FNAME, no other optional field


def test_spacing_from_pixdim(tmp_path):
    vol = small_volume(spacing=(0.96, 0.95, 3.00))
    path = tmp_path / "vol.nii"
    write_nifti(vol, path)
    raw = path.read_bytes()
    pixdim = struct.unpack_from("<8f", raw, 76)
    np.testing.assert_allclose(pixdim[1:4], (0.96, 0.95, 3.00), rtol=1e-6)


def test_mask_written_as_uint8(tmp_path):
    rng = np.random.default_rng(1)
    mask = BinaryMask3D(rng.random((3, 5, 5)) < 0.5, (1, 1, 1))
    path = tmp_path / "mask.nii"
    write_nifti(mask, path)
    raw = path.read_bytes()
    assert struct.unpack_from("<h", raw, 70)[0] == 2  # uint8 code
    payload = np.frombuffer(raw, np.uint8, offset=VOX_OFFSET)
    assert payload.sum() == mask.population
    np.testing.assert_array_equal(read_nifti_mask(path).data, mask.data)


def test_big_endian_file_read_via_swap(tmp_path):
    data = np.arange(32, dtype=np.float32).reshape(2, 4, 4)
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into(">i", hdr, 0, HEADER_SIZE)
    struct.pack_into(">8h", hdr, 40, 3, 4, 4, 2, 1, 1, 1, 1)
    struct.pack_into(">h", hdr, 70, 16)
    struct.pack_into(">h", hdr, 72, 32)
    struct.pack_into(">8f", hdr, 76, 1.0, 1.0, 1.0, 2.0, 0, 0, 0, 0)
    struct.pack_into(">f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into(">f", hdr, 112, 1.0)
    hdr[344:348] = b"n+1\x00"
    blob = bytes(hdr) + b"\x00" * 4 + data.astype(">f4").tobytes()
    path = tmp_path / "big.nii"
    path.write_bytes(blob)
    vol = read_nifti(path)
    np.testing.assert_array_equal(vol.data, data)
    assert vol.spacing == (1.0, 1.0, 2.0)


def test_scl_slope_applied(tmp_path):
    vol = small_volume(np.int16)
    path = tmp_path / "scaled.nii"
    write_nifti(vol, path, datatype=np.int16)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 112, 2.0)   # scl_slope
    struct.pack_into("<f", raw, 116, 10.0)  # scl_inter
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    np.testing.assert_allclose(back.data, vol.data.astype(np.float32) * 2 + 10)


def test_two_file_magic_rejected(tmp_path):
    vol = small_volume()
    path = tmp_path / "pair.nii"
    write_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"ni1\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_nifti(path)


def test_bad_sizeof_hdr_rejected(tmp_path):
    path = tmp_path / "bad.nii"
    path.write_bytes(b"\x00" * 400)
    with pytest.raises(FormatError):
        read_nifti(path)


def test_unsupported_datatype_rejected(tmp_path):
    vol = small_volume()
    path = tmp_path / "weird.nii"
    write_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 70, 64)  # float64 code, unsupported
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedTypeError):
        read_nifti(path)


def test_truncated_data_rejected(tmp_path):
    vol = small_volume()
    path = tmp_path / "trunc.nii"
    write_nifti(vol, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(FormatError):
        read_nifti(path)


def test_header_bytes_preserved_on_rewrite(tmp_path):
    vol = small_volume()
    path = tmp_path / "orig.nii"
    write_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    # Scribble into an orientation field (qoffset_x at byte 268).
    struct.pack_into("<f", raw, 268, 12.5)
    path.write_bytes(bytes(raw))
    for grid in (read_nifti(path), read_nifti_mask(path)):
        out = tmp_path / "rewrite.nii"
        write_nifti(grid, out)
        assert struct.unpack_from("<f", out.read_bytes(), 268)[0] == 12.5


def test_grid_built_in_memory_has_no_header():
    assert small_volume().header is None
    assert BinaryMask3D(np.zeros((2, 4, 4)), (1, 1, 1)).header is None
