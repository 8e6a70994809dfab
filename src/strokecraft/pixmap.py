"""Binary portable pixmap I/O: P5 for grayscale canvases, P6 for color.

Writes are canonical (single-space header, maxval 255, row-major raster)
so identical pixels always produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from . import files
from .errors import DataIOError
from .strokes.canvas import Canvas

MAGIC_BY_CHANNELS = {1: b"P5", 3: b"P6"}
SUFFIX_BY_CHANNELS = {1: ".pgm", 3: ".ppm"}
CHANNELS_BY_MAGIC = {b"P5": 1, b"P6": 3}


def quantize(pixels: np.ndarray) -> np.ndarray:
    """[0, 1] floats to the nearest byte value, saturating out-of-range."""
    return np.clip(np.rint(np.asarray(pixels) * 255.0), 0.0, 255.0).astype(np.uint8)


def write_pixmap(path, canvas: Canvas) -> None:
    """One canvas as a binary pixmap; the channel count picks the format."""
    magic = MAGIC_BY_CHANNELS[canvas.channels]
    header = b"%s\n%d %d\n255\n" % (magic, canvas.width, canvas.height)
    files.write_bytes(path, header + quantize(canvas.pixels).tobytes())


def _tokens(blob: bytes, path) -> tuple[bytes, int, int, int, bytes]:
    """Magic, width, height, maxval, and the raster that follows the header.

    Comments (# to end of line) and any whitespace runs are legal between
    header fields; exactly one whitespace byte separates maxval from the
    raster.
    """
    if len(blob) < 2 or blob[:2] not in CHANNELS_BY_MAGIC:
        raise DataIOError(f"{path} is not a binary pixmap (bad magic)")
    magic = blob[:2]
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            end = blob.find(b"\n", pos)
            pos = len(blob) if end < 0 else end + 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise DataIOError(f"{path} ends inside the pixmap header")
        token = blob[start:pos]
        if not token.isdigit():
            raise DataIOError(f"{path} has a non-numeric header field {token!r}")
        try:
            fields.append(int(token))
        except ValueError:  # past Python's limit on digits converted to int
            raise DataIOError(f"{path} has a {len(token)}-digit header field") from None
    pos += 1  # the single whitespace byte after maxval
    width, height, maxval = fields
    return magic, width, height, maxval, blob[pos:]


def read_pixmap(path) -> Canvas:
    """Parse a binary pixmap into a [0, 1] canvas; P5 gives one channel."""
    magic, width, height, maxval, raster = _tokens(files.read_bytes(path), path)
    if width < 1 or height < 1:
        raise DataIOError(f"{path} declares an empty {width}x{height} image")
    if not 1 <= maxval <= 255:
        raise DataIOError(f"{path} declares unsupported maxval {maxval}")
    channels = CHANNELS_BY_MAGIC[magic]
    expected = width * height * channels
    if len(raster) != expected:
        raise DataIOError(
            f"{path} raster holds {len(raster)} bytes, expected {expected}"
        )
    values = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / maxval
    return Canvas(values.reshape(height, width, channels))
