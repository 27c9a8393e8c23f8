"""Temporal background subtraction and traffic-density extraction.

A per-camera background is the pixelwise mean of the first ``z`` frames.
Each frame is then high-pass filtered (frame minus background, thresholded
at tau) and the surviving intensities are summed into a density value,
normalized by the saturation sum m*n*255.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import islice
from typing import Iterable

import numpy as np

from . import kernels
from .errors import InsufficientFrames, OutOfOrderTimestamp, ShapeMismatch
from .ingestion import parse_rfc3339

__all__ = [
    "Frame",
    "Trace",
    "build_background",
    "process_sequence",
    "write_trace_csv",
    "read_trace_csv",
]


@dataclass(frozen=True)
class Frame:
    captured_at: datetime
    pixels: np.ndarray  # (height, width) uint8


@dataclass(frozen=True, eq=False)
class Trace:
    """One camera's density trace: one row per frame, in capture order."""

    seconds: np.ndarray  # int64 Unix seconds, each later than the one before
    raw_density: np.ndarray  # int64 sum of the frame's high-pass image
    normalized: np.ndarray  # float64 raw_density / (pixels * 255)

    def __len__(self) -> int:
        return self.seconds.size


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _whole_second(t: datetime) -> int:
    """Unix seconds of t as the frame store keeps it: UTC, microseconds dropped."""
    return (t.astimezone(timezone.utc) - _EPOCH) // timedelta(seconds=1)


def _check_next(frame: Frame, shape: tuple, after: float) -> int:
    """The whole second of ``frame``. A shape other than ``shape`` raises
    ShapeMismatch, and a second not later than ``after`` OutOfOrderTimestamp."""
    if frame.pixels.shape != shape:
        raise ShapeMismatch(f"frame {frame.captured_at} shape {frame.pixels.shape} != {shape}")
    t = _whole_second(frame.captured_at)
    if t <= after:
        raise OutOfOrderTimestamp(
            f"frame {frame.captured_at} is not in a later second than the frame before it"
        )
    return t


def build_background(frames: Iterable[Frame], z: int) -> np.ndarray:
    """Pixelwise mean of the first z frames (float64, no rounding).

    The frames are summed as integers, which float64 holds exactly, and
    divided once, so the result equals the float64 mean of their stack.
    One frame is held at a time. A window shorter than z raises
    InsufficientFrames even when a frame in it also fails a shape or
    capture-order check; otherwise that check's error is raised.
    """
    total, count, fault, t = None, 0, None, -math.inf
    for frame in islice(frames, max(z, 0)):
        count += 1
        if total is None:
            total = np.zeros(frame.pixels.shape, dtype=np.int64)
        if fault is None:
            try:
                t = _check_next(frame, total.shape, t)
            except (ShapeMismatch, OutOfOrderTimestamp) as exc:
                fault = exc
                continue
            total += frame.pixels
    if z < 2 or count < z:
        raise InsufficientFrames(f"need >= {max(z, 2)} frames, got {count}")
    if fault is not None:
        raise fault
    return total / z


def process_sequence(frames: Iterable[Frame], z: int, tau: float) -> Trace:
    """Run the full density pipeline over one camera's frames in capture order.

    ``frames`` is read twice, so it must be re-iterable (a list, or an
    object whose ``__iter__`` starts again at frame 0); an iterator raises
    TypeError. The first pass builds the background from the first z
    frames, and the kernel's maps from it once, so each frame is scored in
    uint8. The second pass starts again at frame 0 and scores every frame.
    One frame is held at a time, so each iteration may decode as it goes.
    Each frame is checked against the one before it: a different shape
    raises ShapeMismatch, and a capture time that is not in a later second
    raises OutOfOrderTimestamp.
    """
    if iter(frames) is frames:
        raise TypeError("process_sequence reads frames twice: pass a re-iterable, not an iterator")
    maps = kernels.highpass_maps(build_background(frames, z), tau)
    seconds, raw, t = [], [], -math.inf
    for frame in frames:
        t = _check_next(frame, maps.threshold.shape, t)
        seconds.append(t)
        raw.append(kernels.highpass_sum(frame.pixels, maps)[0])
    raw = np.array(raw, dtype=np.int64)
    return Trace(np.array(seconds, dtype=np.int64), raw, raw / (maps.threshold.size * 255))


# --- trace CSV (camera_id,captured_at,raw_density,normalized) ---

TRACE_HEADER = "camera_id,captured_at,raw_density,normalized"


def write_trace_csv(camera_id: str, trace: Trace) -> str:
    # every timestamp in one call: YYYY-MM-DDTHH:MM:SS, as format_rfc3339
    # writes it but for the Z, for each year 1-9999
    stamps = np.datetime_as_string(trace.seconds.astype("datetime64[s]"), unit="s").tolist()
    rows = zip(stamps, trace.raw_density.tolist(), trace.normalized.tolist())
    lines = [TRACE_HEADER] + [f"{camera_id},{t}Z,{d},{v:.6f}" for t, d, v in rows]
    return "\n".join(lines) + "\n"


def _trace_row(line: str, camera_id: str, prev: int | None) -> tuple[int, int, float]:
    cam, ts, d, norm = line.split(",")
    if cam != camera_id:
        raise ValueError(f"camera_id {cam!r} is not the trace's camera {camera_id!r}")
    t, raw, value = int(parse_rfc3339(ts).timestamp()), int(d), float(norm)
    if raw < 0 or not (math.isfinite(value) and value >= 0):
        raise ValueError("densities must be finite and >= 0")
    if prev is not None and t <= prev:
        raise ValueError("captured_at is not later than the row before")
    return t, raw, value


def read_trace_csv(text: str, camera_id: str) -> Trace:
    """Parse camera_id's trace as write_trace_csv wrote it: at least one row,
    each naming camera_id, with finite non-negative densities and later than
    the row before. A line that breaks this raises ValueError naming its
    1-based line number."""
    # '\n' only, as write_trace_csv writes it: a camera id may hold U+2028
    lines = text.rstrip().split("\n")
    if lines[0] != TRACE_HEADER:
        raise ValueError("line 1: not a density trace CSV header")
    if len(lines) == 1:
        raise ValueError("line 2: bad trace row '' (the trace has no rows)")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            rows.append(_trace_row(line, camera_id, rows[-1][0] if rows else None))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad trace row {line!r} ({exc})") from exc
    seconds, raw, values = zip(*rows)
    return Trace(np.array(seconds, np.int64), np.array(raw, np.int64), np.array(values))
