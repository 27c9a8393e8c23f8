"""Temporal background subtraction and traffic-density extraction.

A per-camera background is the pixelwise mean of the first ``z`` frames.
Each frame is then high-pass filtered (frame minus background, thresholded
at tau) and the surviving intensities are summed into a density value,
normalized by the saturation sum m*n*255.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from typing import Iterable

import numpy as np

from . import kernels
from .errors import InsufficientFrames, OutOfOrderTimestamp, ShapeMismatch
from .ingestion import format_rfc3339, parse_rfc3339

__all__ = [
    "Frame",
    "DensityRecord",
    "build_background",
    "process_sequence",
    "write_trace_csv",
    "read_trace_csv",
]


@dataclass(frozen=True)
class Frame:
    camera_id: str
    captured_at: datetime
    pixels: np.ndarray  # (height, width) uint8


@dataclass(frozen=True)
class DensityRecord:
    camera_id: str
    captured_at: datetime
    raw_density: int
    normalized: float


def _check_next(frame: Frame, prev: Frame) -> None:
    """Refuse a frame that cannot follow ``prev`` in one camera's sequence."""
    if frame.camera_id != prev.camera_id:
        raise ShapeMismatch(f"mixed cameras {frame.camera_id!r} / {prev.camera_id!r}")
    if frame.pixels.shape != prev.pixels.shape:
        raise ShapeMismatch(
            f"frame {frame.captured_at} shape {frame.pixels.shape} != {prev.pixels.shape}"
        )
    if frame.captured_at <= prev.captured_at:
        raise OutOfOrderTimestamp(
            f"{frame.camera_id}: frame {frame.captured_at} is not later than {prev.captured_at}"
        )


def build_background(frames: Iterable[Frame], z: int) -> np.ndarray:
    """Pixelwise mean of the first z frames (float64, no rounding).

    The frames are summed as integers, which float64 holds exactly, and
    divided once, so the result equals the float64 mean of their stack.
    """
    window = list(islice(frames, max(z, 0)))
    if z < 2 or len(window) < z:
        raise InsufficientFrames(f"need >= {max(z, 2)} frames, got {len(window)}")
    for prev, frame in zip(window, window[1:]):
        _check_next(frame, prev)
    total = np.zeros(window[0].pixels.shape, dtype=np.int64)
    for frame in window:
        total += frame.pixels
    return total / z


def _frame_density(frame: Frame, maps: kernels.HighpassMaps) -> DensityRecord:
    d, _active = kernels.highpass_sum(frame.pixels, maps)
    return DensityRecord(frame.camera_id, frame.captured_at, d, d / (frame.pixels.size * 255))


def process_sequence(frames: Iterable[Frame], z: int, tau: float) -> list[DensityRecord]:
    """Run the full density pipeline over frames in capture order.

    The background is built once from the first z frames and held constant,
    and the kernel's maps are derived from it once, so each frame is scored
    in uint8. Only those z frames are held at once, so ``frames`` may be a
    generator that decodes one frame at a time. Each frame is checked
    against the one before it: a different camera or shape raises
    ShapeMismatch, and a capture time that is not later raises
    OutOfOrderTimestamp.
    """
    frames = iter(frames)
    window = list(islice(frames, max(z, 0)))
    # build_background raises InsufficientFrames if the window is short
    maps = kernels.highpass_maps(build_background(window, z), tau)
    records = [_frame_density(frame, maps) for frame in window]
    prev = window[-1]
    del window  # from here on, one frame at a time
    for frame in frames:
        _check_next(frame, prev)
        records.append(_frame_density(frame, maps))
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


def _trace_row(line: str, prev: int | None) -> tuple[int, float]:
    _cam, ts, d, norm = line.split(",")
    t, raw, value = int(parse_rfc3339(ts).timestamp()), int(d), float(norm)
    if raw < 0 or not (math.isfinite(value) and value >= 0):
        raise ValueError("densities must be finite and >= 0")
    if prev is not None and t <= prev:
        raise ValueError("captured_at is not later than the row before")
    return t, value


def read_trace_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a trace written by write_trace_csv into (capture times as int64
    Unix seconds, normalized densities): at least one row, each with finite
    non-negative densities and later than the row before. A line that breaks
    this raises ValueError naming its 1-based line number."""
    lines = text.rstrip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("line 1: not a density trace CSV header")
    if len(lines) == 1:
        raise ValueError("line 2: bad trace row '' (the trace has no rows)")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            rows.append(_trace_row(line, rows[-1][0] if rows else None))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad trace row {line!r} ({exc})") from exc
    seconds, values = zip(*rows)
    return np.array(seconds, dtype=np.int64), np.array(values, dtype=np.float64)
