"""Temporal background subtraction and traffic-density extraction.

A per-camera background is the pixelwise mean of the first ``z`` frames.
Each frame is then high-pass filtered (frame minus background, thresholded
at tau) and the surviving intensities are summed into a density value,
normalized by the saturation sum m*n*255.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from typing import Iterable

import numpy as np

from . import kernels
from .errors import InsufficientFrames, OutOfOrderTimestamp, ShapeMismatch
from .ingestion import format_rfc3339, parse_rfc3339
from .pgmio import to_grayscale  # re-exported: grayscale is part of this stage

__all__ = [
    "Frame",
    "BackgroundModel",
    "DensityRecord",
    "to_grayscale",
    "build_background",
    "high_pass",
    "density",
    "process_sequence",
    "write_trace_csv",
    "read_trace_csv",
]

DEFAULT_TAU = 25
DEFAULT_WINDOW = 100


@dataclass(frozen=True)
class Frame:
    camera_id: str
    captured_at: datetime
    pixels: np.ndarray  # (height, width) uint8

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class BackgroundModel:
    camera_id: str
    values: np.ndarray  # (height, width) float64, each value in [0, 255]
    window_size: int
    built_from: tuple[datetime, ...]


@dataclass(frozen=True)
class DensityRecord:
    camera_id: str
    captured_at: datetime
    raw_density: int
    normalized: float


def _check_frame(frame: Frame, first: Frame) -> None:
    if frame.pixels.shape != first.pixels.shape:
        raise ShapeMismatch(
            f"frame {frame.captured_at} shape {frame.pixels.shape} != {first.pixels.shape}"
        )
    if frame.camera_id != first.camera_id:
        raise ShapeMismatch(f"mixed cameras {frame.camera_id!r} / {first.camera_id!r}")


def _check_order(frame: Frame, prev: Frame) -> None:
    if frame.captured_at < prev.captured_at:
        raise OutOfOrderTimestamp(
            f"{frame.camera_id}: frame {frame.captured_at} after {prev.captured_at}"
        )


def build_background(frames: Iterable[Frame], z: int) -> BackgroundModel:
    """Pixelwise mean of the first z frames (real-valued, no rounding).

    The frames are summed as integers, which float64 holds exactly, and
    divided once, so the result equals the float64 mean of their stack.
    """
    window = list(islice(frames, max(z, 0)))
    if z < 2 or len(window) < z:
        raise InsufficientFrames(f"need >= {max(z, 2)} frames, got {len(window)}")
    total = np.zeros(window[0].pixels.shape, dtype=np.int64)
    for f in window:
        _check_frame(f, window[0])
        total += f.pixels
    return BackgroundModel(
        camera_id=window[0].camera_id,
        values=total / z,
        window_size=z,
        built_from=tuple(f.captured_at for f in window),
    )


def high_pass(frame: Frame, bg: BackgroundModel, tau: float) -> np.ndarray:
    """Thresholded residual image: round(frame - bg) where the raw
    difference exceeds tau, else 0. Negative differences are dropped."""
    if frame.pixels.shape != bg.values.shape:
        raise ShapeMismatch(
            f"frame {frame.pixels.shape} vs background {bg.values.shape}"
        )
    return kernels.highpass_image(frame.pixels, bg.values, float(tau))


def density(residual: np.ndarray) -> tuple[int, float]:
    """Sum a thresholded image into (raw_density, normalized)."""
    d = int(residual.astype(np.int64).sum())
    h, w = residual.shape
    return d, d / (h * w * 255)


def _frame_density(frame: Frame, bg: BackgroundModel, tau: float) -> DensityRecord:
    d, _active = kernels.highpass_sum(frame.pixels, bg.values, float(tau))
    denom = frame.height * frame.width * 255
    return DensityRecord(frame.camera_id, frame.captured_at, d, d / denom)


def process_sequence(
    frames: Iterable[Frame],
    z: int = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> list[DensityRecord]:
    """Run the full density pipeline over frames in capture order.

    The background is built once from the first z frames and held constant.
    Only those z frames are held at once, so ``frames`` may be a generator
    that decodes one frame at a time. A frame earlier than the one before it
    raises OutOfOrderTimestamp; a frame whose shape or camera differs from
    the first raises ShapeMismatch.
    """
    frames = iter(frames)
    window = list(islice(frames, max(z, 0)))
    for prev, frame in zip(window, window[1:]):
        _check_order(frame, prev)
    bg = build_background(window, z)  # raises InsufficientFrames if short
    records = [_frame_density(frame, bg, tau) for frame in window]
    prev = window[-1]
    del window  # from here on, one frame at a time
    for frame in frames:
        _check_order(frame, prev)
        _check_frame(frame, prev)
        records.append(_frame_density(frame, bg, tau))
        prev = frame
    return records


# --- trace CSV (camera_id,captured_at,raw_density,normalized) ---

TRACE_HEADER = "camera_id,captured_at,raw_density,normalized"


def write_trace_csv(records: Iterable[DensityRecord]) -> str:
    lines = [TRACE_HEADER]
    for r in records:
        lines.append(
            f"{r.camera_id},{format_rfc3339(r.captured_at)},{r.raw_density},{r.normalized:.6f}"
        )
    return "\n".join(lines) + "\n"


def read_trace_csv(text: str) -> list[DensityRecord]:
    """Parse a trace written by write_trace_csv. A malformed line raises
    ValueError naming its 1-based line number."""
    lines = text.rstrip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("line 1: not a density trace CSV header")
    out = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            cam, ts, d, norm = line.split(",")
            out.append(DensityRecord(cam, parse_rfc3339(ts), int(d), float(norm)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad trace row {line!r} ({exc})") from exc
    return out
