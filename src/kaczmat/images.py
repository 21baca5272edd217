"""Grayscale image container and PGM (P2/P5) reader/writer.

The reader reports failures with the byte offset into the file. Pixels are
clamped to [0, max_value] only when writing; in-memory images may carry
out-of-range values (solver output is scored before clamping).
"""

import textwrap
from dataclasses import dataclass

import numpy as np

_WHITESPACE = b" \t\n\r\x0b\x0c"
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
        if not (self.max_value > 0):
            raise ValueError(f"max_value must be positive, got {self.max_value}")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    def clamped(self):
        return GrayImage(np.clip(self.pixels, 0.0, self.max_value), self.max_value)


class _Scanner:
    """Whitespace/comment-aware tokenizer over PGM header and ASCII pixels."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def _skip_filler(self):
        data = self.data
        while self.pos < len(data):
            c = data[self.pos : self.pos + 1]
            if c in _WHITESPACE:
                self.pos += 1
            elif c == b"#":
                nl = data.find(b"\n", self.pos)
                self.pos = len(data) if nl < 0 else nl + 1
            else:
                break

    def token(self, what):
        self._skip_filler()
        if self.pos >= len(self.data):
            raise PgmError(f"unexpected end of file, expected {what}", self.pos)
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos : self.pos + 1] not in _WHITESPACE:
            self.pos += 1
        return data[start : self.pos], start

    def int_token(self, what):
        tok, start = self.token(what)
        try:
            return int(tok), start
        except ValueError:
            raise PgmError(f"expected integer {what}, got {tok!r}", start) from None


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) graymap; returns a GrayImage.

    Binary rasters use one byte per pixel, or two big-endian bytes when the
    maximum value exceeds 255. Content after the raster is ignored.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    scan = _Scanner(data)
    magic, start = scan.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"expected magic 'P2' or 'P5', got {magic!r}", start)
    width, off = scan.int_token("width")
    if width < 1:
        raise PgmError(f"width must be positive, got {width}", off)
    height, off = scan.int_token("height")
    if height < 1:
        raise PgmError(f"height must be positive, got {height}", off)
    maxval, off = scan.int_token("maximum gray value")
    if not (1 <= maxval <= MAX_SUPPORTED_MAXVAL):
        raise PgmError(
            f"maximum gray value must be in [1, {MAX_SUPPORTED_MAXVAL}], got {maxval}",
            off,
        )
    count = width * height

    if magic == b"P2":
        values = np.empty(count, dtype=np.float64)
        for idx in range(count):
            v, off = scan.int_token("pixel value")
            if not (0 <= v <= maxval):
                raise PgmError(
                    f"pixel value {v} outside [0, {maxval}]", off
                )
            values[idx] = v
        return GrayImage(values.reshape(height, width), float(maxval))

    # P5: exactly one whitespace byte separates the header from the raster
    if scan.pos >= len(data) or data[scan.pos : scan.pos + 1] not in _WHITESPACE:
        raise PgmError("expected a whitespace byte before binary pixels", scan.pos)
    raster_start = scan.pos + 1
    bytes_per = 1 if maxval < 256 else 2
    raster = data[raster_start : raster_start + count * bytes_per]
    if len(raster) < count * bytes_per:
        raise PgmError(
            f"truncated pixel data: need {count * bytes_per} bytes, have {len(raster)}",
            len(data),
        )
    dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
    values = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    over = np.nonzero(values > maxval)[0]
    if over.size:
        idx = int(over[0])
        raise PgmError(
            f"pixel value {int(values[idx])} exceeds maximum {maxval}",
            raster_start + idx * bytes_per,
        )
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
        elif maxval < 256:
            fh.write(pix.astype(np.uint8).tobytes())
        else:
            fh.write(pix.astype(">u2").tobytes())
