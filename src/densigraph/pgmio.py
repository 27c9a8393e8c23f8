"""Binary PGM (P5) image I/O plus best-effort decoding of other formats.

P5 with maxval 255 is the bit-exact interchange format; PNG/JPEG decode
through Pillow when it is installed. Color images are reduced to grayscale
with the standard luma weights.
"""

from __future__ import annotations

import io
import re

import numpy as np

try:
    from PIL import Image

    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


# pgm(5): "P5", then width, height and maxval as decimal tokens, each after
# whitespace or '#' comments that run to the end of the line, then exactly
# one whitespace byte before the raster.
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_P5_HEADER = re.compile(rb"P5" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def to_grayscale(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Luma conversion of 8-bit channel arrays, rounded and clamped to [0, 255]."""
    y = np.rint(
        LUMA_WEIGHTS[0] * np.asarray(r, dtype=np.float64)
        + LUMA_WEIGHTS[1] * np.asarray(g, dtype=np.float64)
        + LUMA_WEIGHTS[2] * np.asarray(b, dtype=np.float64)
    )
    return np.clip(y, 0, 255).astype(np.uint8)


def write_p5(pixels: np.ndarray) -> bytes:
    """Serialize a 2-D uint8 array as a binary PGM."""
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("P5 output requires a 2-D array")
    h, w = arr.shape
    return b"".join((b"P5\n%d %d\n255\n" % (w, h), memoryview(arr)))


def read_p5(data: bytes) -> np.ndarray:
    """Parse a binary PGM with maxval 255 into a 2-D uint8 array.

    Raises ValueError on anything that is not a well-formed P5.
    """
    header = _P5_HEADER.match(data)
    if header is None:
        raise ValueError("not a P5 PGM header")
    w, h, maxval = (int(field) for field in header.groups())
    if maxval != 255 or w < 1 or h < 1:
        raise ValueError("P5 must be 8-bit with positive dimensions")
    if len(data) - header.end() < w * h:
        raise ValueError("P5 raster size mismatch")
    # a view of the raster in ``data``, not a copy; bytes after it are ignored
    return np.frombuffer(data, dtype=np.uint8, count=w * h, offset=header.end()).reshape(h, w)


def decode_image(data: bytes) -> np.ndarray | None:
    """Decode bytes into a grayscale uint8 array, or None if undecodable."""
    if data.startswith(b"P5"):
        try:
            return read_p5(data)
        except ValueError:
            return None
    if _HAVE_PIL:
        try:
            img = Image.open(io.BytesIO(data))
            img.load()
        except Exception:
            return None
        arr = np.asarray(img.convert("RGB"))
        return to_grayscale(arr[..., 0], arr[..., 1], arr[..., 2])
    return None


def sniff_extension(data: bytes) -> str:
    """File extension for the storage layout, from magic bytes."""
    if data.startswith(b"P5"):
        return "pgm"
    if data.startswith(b"\x89PNG"):
        return "png"
    if data.startswith(b"\xff\xd8"):
        return "jpg"
    return "bin"
