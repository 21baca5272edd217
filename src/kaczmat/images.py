"""Grayscale image container and PGM (P2/P5) reader/writer.

The reader reports failures with the byte offset into the file. Pixels are
clamped to [0, max_value] only when writing; in-memory images may carry
out-of-range values (solver output is scored before clamping).
"""

import math
import re
import textwrap
from dataclasses import dataclass

import numpy as np

from .sampling import check_real

MAX_SUPPORTED_MAXVAL = 65535


class PgmError(ValueError):
    """Malformed PGM content; ``offset`` is the 0-based byte position."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"byte {offset}: {message}"
        super().__init__(message)


@dataclass
class GrayImage:
    """A height x width grid of intensities in [0, max_value].

    The range is a convention, not a hard constraint: arithmetic on images
    (blurring, iterative restoration) may leave it, and only ``write_pgm``
    clamps. ``clamped()`` returns an in-range copy.
    """

    pixels: np.ndarray
    max_value: float = 255.0

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {self.pixels.shape}")
        if not np.isfinite(self.pixels).all():
            raise ValueError("pixels must be finite")
        check_real("max_value", self.max_value)

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    def clamped(self):
        return GrayImage(np.clip(self.pixels, 0.0, self.max_value), self.max_value)


# whitespace and "#" comments (to the end of the line), then one token
_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n?)*(\S*)")


def _token(data, pos, what):
    """The next token at or after ``pos``: (token, its offset, end offset)."""
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise PgmError(f"unexpected end of file, expected {what}", match.end())
    return match[1], match.start(1), match.end()


def _int_token(data, pos, what, low, high, message):
    """The next token as an integer in [low, high]: (value, end offset);
    ``message`` formats the range error from the value."""
    tok, start, end = _token(data, pos, what)
    try:
        value = int(tok)
    except ValueError:
        raise PgmError(f"expected integer {what}, got {tok!r}", start) from None
    if not (low <= value <= high):
        raise PgmError(message.format(value), start)
    return value, end


def _raster_dtype(maxval):
    """The dtype of one P5 pixel."""
    return np.dtype(np.uint8 if maxval < 256 else ">u2")


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) graymap; returns a GrayImage.

    Binary rasters use one byte per pixel, or two big-endian bytes when the
    maximum value exceeds 255. Content after the raster is ignored.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic, start, pos = _token(data, 0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"expected magic 'P2' or 'P5', got {magic!r}", start)
    width, pos = _int_token(data, pos, "width", 1, math.inf,
                            "width must be positive, got {}")
    height, pos = _int_token(data, pos, "height", 1, math.inf,
                             "height must be positive, got {}")
    maxval, pos = _int_token(
        data, pos, "maximum gray value", 1, MAX_SUPPORTED_MAXVAL,
        f"maximum gray value must be in [1, {MAX_SUPPORTED_MAXVAL}], got {{}}")
    count = width * height

    if magic == b"P2":
        if 2 * count > len(data) - pos:  # a separator and a digit a pixel
            raise PgmError(f"truncated pixel data: {count} pixels need at least "
                           f"{2 * count} bytes, have {len(data) - pos}", len(data))
        values = np.empty(count, dtype=np.float64)
        outside = f"pixel value {{}} outside [0, {maxval}]"
        for idx in range(count):
            values[idx], pos = _int_token(data, pos, "pixel value", 0, maxval, outside)
        return GrayImage(values.reshape(height, width), float(maxval))

    # P5: exactly one whitespace byte separates the header from the raster
    if not data[pos : pos + 1].isspace():
        raise PgmError("expected a whitespace byte before binary pixels", pos)
    raster_start = pos + 1
    dtype = _raster_dtype(maxval)
    need = count * dtype.itemsize
    raster = data[raster_start : raster_start + need]
    if len(raster) < need:
        raise PgmError(f"truncated pixel data: need {need} bytes, have {len(raster)}", len(data))
    values = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    over = np.flatnonzero(values > maxval)
    if over.size:
        raise PgmError(f"pixel value {int(values[over[0]])} exceeds maximum {maxval}",
                       raster_start + int(over[0]) * dtype.itemsize)
    return GrayImage(values.reshape(height, width), float(maxval))


def write_pgm(image, path, ascii_format=False):
    """Write a GrayImage as P5 (default) or P2.

    Pixels are clamped to [0, max_value] and rounded to integers here, and
    only here. The maximum value must be integer-valued and at most 65535.
    """
    maxval = int(round(image.max_value))
    if abs(image.max_value - maxval) > 1e-9 or not (
        1 <= maxval <= MAX_SUPPORTED_MAXVAL
    ):
        raise ValueError(
            f"PGM needs an integer maximum value in [1, {MAX_SUPPORTED_MAXVAL}], "
            f"got {image.max_value}"
        )
    pix = np.rint(np.clip(image.pixels, 0.0, maxval)).astype(np.int64)
    h, w = pix.shape
    magic = "P2" if ascii_format else "P5"
    header = f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        if ascii_format:
            # keep lines within the format's 70-character limit
            lines = textwrap.wrap(" ".join(map(str, pix.ravel().tolist())), 70)
            fh.write("".join(line + "\n" for line in lines).encode("ascii"))
        else:
            fh.write(pix.astype(_raster_dtype(maxval)).tobytes())
