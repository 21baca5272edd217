"""GrayImage container plus PGM reading/writing with byte-offset errors."""

import numpy as np
import pytest

from kaczmat.images import MAX_SUPPORTED_MAXVAL, GrayImage, PgmError, read_pgm, write_pgm


def write_bytes(tmp_path, body, name="img.pgm"):
    path = tmp_path / name
    path.write_bytes(body)
    return path


def test_gray_image_validation():
    img = GrayImage(np.zeros((2, 3)))
    assert img.height == 2 and img.width == 3 and img.max_value == 255.0
    with pytest.raises(ValueError):
        GrayImage(np.zeros(4))
    with pytest.raises(ValueError):
        GrayImage(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((2, 2)), max_value=0.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_gray_image_max_value_must_be_finite(bad):
    # max_value = inf was accepted, and write_pgm then raised OverflowError
    with pytest.raises(ValueError, match="^max_value must be finite"):
        GrayImage(np.zeros((2, 2)), max_value=bad)


def test_gray_image_clamped_copy():
    img = GrayImage(np.array([[-5.0, 100.0], [300.0, 255.0]]))
    c = img.clamped()
    np.testing.assert_array_equal(c.pixels, [[0.0, 100.0], [255.0, 255.0]])
    # original untouched: range is a convention for in-memory images
    assert img.pixels[0, 0] == -5.0


def test_read_minimal_ascii(tmp_path):
    path = write_bytes(tmp_path, b"P2\n1 1\n255\n128\n")
    img = read_pgm(path)
    assert img.pixels[0, 0] == 128.0
    assert img.max_value == 255.0


def test_read_ascii_with_comments(tmp_path):
    body = b"P2 # magic\n# a comment line\n2 2\n# another\n15\n0 5\n10 15\n"
    img = read_pgm(write_bytes(tmp_path, body))
    np.testing.assert_array_equal(img.pixels, [[0.0, 5.0], [10.0, 15.0]])
    assert img.max_value == 15.0


def test_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(0)
    img = GrayImage(np.floor(rng.uniform(0, 256, size=(8, 8))))
    path = tmp_path / "b.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    np.testing.assert_array_equal(back.pixels, img.pixels)
    assert back.max_value == 255.0


def test_roundtrip_ascii(tmp_path):
    rng = np.random.default_rng(1)
    img = GrayImage(np.floor(rng.uniform(0, 256, size=(12, 9))))
    path = tmp_path / "a.pgm"
    write_pgm(img, path, ascii_format=True)
    back = read_pgm(path)
    np.testing.assert_array_equal(back.pixels, img.pixels)
    # the ASCII encoding honours the 70-character line limit
    for line in path.read_bytes().splitlines():
        assert len(line) <= 70


@pytest.mark.parametrize("maxval", [1, 255, MAX_SUPPORTED_MAXVAL])
def test_ascii_lines_break_greedily(tmp_path, maxval):
    # each line is filled as far as the 70-character limit allows: no line
    # but the last could take the next line's first token
    rng = np.random.default_rng(maxval)
    img = GrayImage(rng.integers(0, maxval + 1, size=(17, 23)), maxval)
    path = tmp_path / "a.pgm"
    write_pgm(img, path, ascii_format=True)
    lines = path.read_text(encoding="ascii").split("\n")[3:-1]
    assert " ".join(lines).split() == [str(int(v)) for v in img.pixels.ravel()]
    assert all(len(line) <= 70 for line in lines)
    for line, after in zip(lines, lines[1:]):
        assert len(line) + 1 + len(after.split()[0]) > 70


def test_roundtrip_16bit(tmp_path):
    img = GrayImage(np.array([[0.0, 256.0], [1000.0, 65535.0]]), max_value=65535.0)
    path = tmp_path / "w.pgm"
    write_pgm(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    # big-endian two-byte samples
    assert raw[-8:] == bytes([0, 0, 1, 0, 3, 232, 255, 255])
    back = read_pgm(path)
    np.testing.assert_array_equal(back.pixels, img.pixels)
    assert back.max_value == 65535.0


def test_write_clamps_and_rounds(tmp_path):
    img = GrayImage(np.array([[-3.2, 17.5], [260.0, 254.5]]))
    path = tmp_path / "c.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    # rint rounds half to even
    np.testing.assert_array_equal(back.pixels, [[0.0, 18.0], [255.0, 254.0]])


def test_write_rejects_fractional_maxval(tmp_path):
    img = GrayImage(np.zeros((2, 2)), max_value=254.7)
    with pytest.raises(ValueError):
        write_pgm(img, tmp_path / "x.pgm")
    huge = GrayImage(np.zeros((2, 2)), max_value=float(MAX_SUPPORTED_MAXVAL + 1))
    with pytest.raises(ValueError):
        write_pgm(huge, tmp_path / "y.pgm")


def test_read_binary_whitespace_rule(tmp_path):
    # exactly one whitespace byte after the maxval, then the raster; a pixel
    # value equal to a whitespace byte must not be eaten
    body = b"P5\n2 2\n255\n" + bytes([10, 32, 9, 200])
    img = read_pgm(write_bytes(tmp_path, body))
    np.testing.assert_array_equal(img.pixels, [[10.0, 32.0], [9.0, 200.0]])


def test_read_trailing_bytes_ignored(tmp_path):
    body = b"P2\n1 1\n9\n4\n# trailing junk ignored\nextra"
    assert read_pgm(write_bytes(tmp_path, body)).pixels[0, 0] == 4.0
    body5 = b"P5\n1 1\n255\n" + bytes([7]) + b"leftover"
    assert read_pgm(write_bytes(tmp_path, body5)).pixels[0, 0] == 7.0


def test_read_errors_carry_byte_offsets(tmp_path):
    cases = [
        (b"P6\n1 1\n255\n\x00", 0),        # unsupported magic
        (b"P2\nx 1\n255\n0\n", 3),          # width not an integer
        (b"P2\n0 1\n255\n", 3),             # width < 1
        (b"P2\n1 0\n255\n", 5),             # height < 1
        (b"P2\n1 1\n0\n", 7),               # maxval < 1
        (b"P2\n1 1\n70000\n0\n", 7),        # maxval too large
        (b"P2\n2 1\n255\n1\n", 13),         # missing ASCII pixel (EOF offset)
        (b"P2\n1 1\n9\n12\n", 9),           # ASCII pixel above maxval
        (b"P5\n2 2\n255\n\x00\x00", 13),    # truncated raster (EOF offset)
    ]
    for body, offset in cases:
        with pytest.raises(PgmError) as exc:
            read_pgm(write_bytes(tmp_path, body))
        assert exc.value.offset == offset, body
        assert f"byte {offset}:" in str(exc.value)


def test_read_ascii_header_claiming_more_pixels_than_bytes(tmp_path):
    # the P2 raster is checked against the bytes left (a separator and a
    # digit a pixel) before anything is allocated for it
    body = b"P2\n99999999999 99999999999\n255\n0\n"
    with pytest.raises(PgmError, match="truncated pixel data") as exc:
        read_pgm(write_bytes(tmp_path, body))
    assert exc.value.offset == len(body)


def test_read_binary_pixel_over_maxval(tmp_path):
    body = b"P5\n2 1\n200\n" + bytes([100, 201])
    with pytest.raises(PgmError) as exc:
        read_pgm(write_bytes(tmp_path, body))
    assert exc.value.offset == 12  # second raster byte
    body16 = b"P5\n2 1\n300\n" + bytes([0, 50, 1, 200])  # 456 > 300
    with pytest.raises(PgmError) as exc16:
        read_pgm(write_bytes(tmp_path, body16))
    assert exc16.value.offset == 13


def test_read_missing_whitespace_before_raster(tmp_path):
    with pytest.raises(PgmError, match="whitespace"):
        read_pgm(write_bytes(tmp_path, b"P5\n1 1\n255"))
