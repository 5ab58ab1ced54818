import gzip
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def oriented_file(path, endian, qfac, data=None):
    """A float32 NIfTI with qform/sform set, in the given byte order."""
    data = np.arange(40, dtype=np.float32).reshape(2, 4, 5) if data is None else data
    nz, ny, nx = data.shape
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into(endian + "i", hdr, 0, HEADER_SIZE)
    struct.pack_into(endian + "8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(endian + "2h", hdr, 70, 16, 32)
    struct.pack_into(endian + "8f", hdr, 76, qfac, 0.9, 0.8, 3.0, 0, 0, 0, 0)
    struct.pack_into(endian + "3f", hdr, 108, float(VOX_OFFSET), 1.0, 0.0)
    struct.pack_into(endian + "2h", hdr, 252, 1, 2)  # qform_code, sform_code
    struct.pack_into(endian + "6f", hdr, 256, 0.0, 0.0, 1.0, -90.5, 126.0, -72.0)
    struct.pack_into(endian + "12f", hdr, 280, -0.9, 0, 0, 90.5, 0, 0.8, 0, -126.0,
                     0, 0, 3.0, -72.0)
    hdr[344:348] = b"n+1\x00"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + data.astype(endian + "f4").tobytes())
    return path


# qform_code/sform_code, quatern/qoffset and the three srow rows
ORIENTATION = ((252, "2h"), (256, "6f"), (280, "12f"))


@pytest.mark.parametrize("endian", ["<", ">"])
@pytest.mark.parametrize("qfac", [1.0, -1.0])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_round_trip_keeps_byte_order_and_orientation(tmp_path, endian, qfac, suffix):
    src = oriented_file(tmp_path / "src.nii", endian, qfac)
    vol = read_nifti(src)
    for grid, name in ((vol, "vol"), (read_nifti_mask(src), "mask")):
        out = tmp_path / (name + suffix)
        write_nifti(grid, out)
        raw = read_nifti(out).header
        assert struct.unpack_from(endian + "i", raw, 0)[0] == HEADER_SIZE
        assert struct.unpack_from(endian + "f", raw, 76)[0] == qfac
        for offset, fmt in ORIENTATION:
            assert (struct.unpack_from(endian + fmt, raw, offset)
                    == struct.unpack_from(endian + fmt, src.read_bytes(), offset))
        back = read_nifti(out)
        np.testing.assert_array_equal(back.data, grid.data)
        assert back.spacing == vol.spacing


def test_zero_qfac_written_as_one(tmp_path):
    out = tmp_path / "out.nii"
    write_nifti(read_nifti(oriented_file(tmp_path / "src.nii", "<", 0.0)), out)
    assert struct.unpack_from("<f", out.read_bytes(), 76)[0] == 1.0


def _corrupt(path, offset, fmt, value):
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("field, offset", [("vox_offset", 108), ("scl_slope", 112),
                                           ("scl_inter", 116)])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_header_float_rejected(tmp_path, field, offset, value):
    path = oriented_file(tmp_path / "src.nii", "<", 1.0)
    _corrupt(path, offset, "<f", value)
    with pytest.raises(FormatError, match=field):
        read_nifti(path)


def test_truncated_gzip_rejected(tmp_path):
    path = tmp_path / "vol.nii.gz"
    write_nifti(small_volume(), path)
    path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(FormatError):
        read_nifti(path)


def _fuzz_one(endian, gz, edits, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = oriented_file(Path(tmp) / "f.nii", endian, 1.0)
        raw = bytearray(path.read_bytes())
        for offset, fmt, value in edits:
            struct.pack_into(endian + fmt, raw, offset, value)
        raw = gzip.compress(bytes(raw), mtime=0) if gz else bytes(raw)
        path.write_bytes(raw[: cut % (len(raw) + 1)] if cut is not None else raw)
        try:
            read_nifti(path)
        except FormatError:
            pass


header_float = st.floats(width=32, allow_nan=True, allow_infinity=True)
header_edit = st.one_of(
    st.tuples(st.sampled_from([40, 42, 44, 46]), st.just("h"),
              st.integers(-(2**15), 2**15 - 1)),  # dim[0..3]
    st.tuples(st.sampled_from([80, 84, 88, 108, 112, 116]), st.just("f"),
              header_float),  # pixdim[1..3], vox_offset, scl_slope, scl_inter
)


@settings(max_examples=300, deadline=None)
@given(endian=st.sampled_from("<>"), gz=st.booleans(),
       edits=st.lists(header_edit, max_size=4),
       cut=st.one_of(st.none(), st.integers(0, 2**16)))
def test_fuzz_corrupt_headers_fail_typed(endian, gz, edits, cut):
    # Any read either succeeds or raises FormatError; nothing else escapes.
    _fuzz_one(endian, gz, edits, cut)
