"""Numpy pixel kernels for the density stage.

highpass_image is the definition: the float64 residual frame - bg, kept
where it exceeds tau and rounded half-to-even (np.rint). highpass_sum returns
the sum of that image and its count of kept pixels. It works in uint8 on maps
that highpass_maps derives once per background and tau, and equals the
definition exactly for every uint8 frame, every finite tau >= 0 and every
background in [0, 255] that is on or more than 2**-44 from each n + 0.5. A
window mean S / z off a half is >= 1 / (2z) from it, and rounding moves it
by <= 2**-46, so every z < 2**42 is in the domain. Both refuse what is
outside it with ValueError; highpass_image also accepts the near halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# pixels per step of a map build, so its float64 temporaries stay small
_CHUNK = 1 << 14
# fl(k - b) can land exactly on some m + 0.5 only when b lies within half an
# ulp of 255.5 (2**-46) of some n + 0.5; highpass_maps refuses such b
_NEAR_HALF = 2.0**-44


def _check_domain(bg: np.ndarray, tau: float) -> None:
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not ((bg >= 0) & (bg <= 255)).all():  # NaN fails both comparisons
        raise ValueError("background values must be finite and within 0..255")


def highpass_image(frame, bg, tau):
    """Thresholded residual frame - bg as uint8; values <= tau map to 0."""
    bg, tau = np.asarray(bg, dtype=np.float64), float(tau)
    _check_domain(bg, tau)
    diff = frame.astype(np.float64) - bg
    out = np.where(diff > tau, np.rint(diff), 0.0)
    return out.astype(np.uint8)


@dataclass(frozen=True, eq=False)
class HighpassMaps:
    """One background and tau as highpass_sum reads them; see highpass_maps."""

    threshold: np.ndarray  # uint8: a pixel is kept iff frame > threshold
    offset: np.ndarray  # uint8: a kept pixel's rounded residual is frame - offset
    tie_index: np.ndarray  # flat indices of backgrounds n + 0.5

    @property
    def nbytes(self) -> int:
        return self.threshold.nbytes + self.offset.nbytes + self.tie_index.nbytes


def highpass_maps(bg, tau) -> HighpassMaps:
    """Derive highpass_sum's maps from a 2-D background in [0, 255] and a
    finite tau >= 0. A background within 2**-44 of n + 0.5 but not on it
    raises ValueError; no window mean S / z with z < 2**42 is one.

    The test fl(k - b) > tau is monotone in the integer k and fails at k = 0,
    so it reads frame > threshold, with threshold the largest k in 0..255
    that fails it. floor(fl(b + tau)) is that k or one above it (fl(b + tau)
    can round up onto an integer that passes), so one evaluation of the
    float test at it settles the threshold.

    A kept residual fl(k - b) rounds to k - rint(b) unless it lands exactly
    on some m + 0.5. At a tie b = n + 0.5 every residual does, and rounds to
    k - n less one when k - n is odd: the offset is n, and highpass_sum
    corrects by the parity at tie_index. Backgrounds within a few ulps of
    n + 0.5 land on m + 0.5 for some k only, so no pair of maps holds them.
    """
    bg, tau = np.asarray(bg, dtype=np.float64), float(tau)
    if bg.ndim != 2:
        raise ValueError(f"background must be 2-D, got shape {bg.shape}")
    flat = bg.reshape(-1)
    threshold = np.empty(flat.size, dtype=np.uint8)
    offset = np.empty(flat.size, dtype=np.uint8)
    ties = [np.zeros(0, dtype=np.intp)]
    for start in range(0, flat.size, _CHUNK):
        b = flat[start : start + _CHUNK]
        _check_domain(b, tau)
        half = b - np.floor(b) - 0.5  # exact wherever it is near 0
        tie = half == 0
        if ((np.abs(half) <= _NEAR_HALF) & ~tie).any():
            raise ValueError("background values within 2**-44 of some n + 0.5 must be on it")
        k = np.floor(np.minimum(b + tau, 255.0))
        k -= (k - b) > tau
        threshold[start : start + b.size] = k
        offset[start : start + b.size] = np.ceil(b - 0.5)  # rint(b), but n at a tie
        ties.append(np.flatnonzero(tie) + start)
    return HighpassMaps(
        threshold.reshape(bg.shape), offset.reshape(bg.shape), np.concatenate(ties)
    )


# below this many pixels one uint32 reduce of a frame is faster than the
# uint16 column sums; both are exact, since 255 * 2**16 < 2**32
_FLAT_SUM_PIXELS = 1 << 16


def _byte_sum(a: np.ndarray) -> int:
    """Exact sum of a 2-D uint8 array. A frame under _FLAT_SUM_PIXELS adds
    up in one uint32 reduce. Above it, up to 256 rows add up in uint16
    without overflow (256 * 255 < 2**16), which is faster than widening
    every byte."""
    if a.size < _FLAT_SUM_PIXELS:
        return int(np.add.reduce(a, axis=None, dtype=np.uint32))
    total = 0
    for top in range(0, a.shape[0], 256):
        columns = np.add.reduce(a[top : top + 256], axis=0, dtype=np.uint16)
        total += int(np.add.reduce(columns, dtype=np.int64))
    return total


def highpass_sum(frame, bg, tau=None):
    """Fused residual + threshold + sum; returns (density, active_pixels).

    ``bg`` is either the HighpassMaps of a background and tau, built once
    for many frames, or a background array whose maps this call builds
    from ``tau``. ``frame`` is a uint8 array of the background's shape.
    """
    maps = bg if tau is None else highpass_maps(bg, tau)
    if not isinstance(maps, HighpassMaps):
        raise TypeError("highpass_sum needs HighpassMaps, or a background array and tau")
    if frame.dtype != np.uint8 or frame.shape != maps.threshold.shape:
        raise ValueError(
            f"frame must be uint8 of shape {maps.threshold.shape}, got {frame.dtype} {frame.shape}"
        )
    kept = np.greater(frame, maps.threshold)
    residual = np.subtract(frame, maps.offset)  # wraps only where not kept
    np.multiply(residual, kept.view(np.uint8), out=residual)
    odd_ties = np.count_nonzero(residual.take(maps.tie_index) & 1)
    return _byte_sum(residual) - odd_ties, np.count_nonzero(kept)
