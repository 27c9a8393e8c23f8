"""Temporal background subtraction and traffic-density extraction.

A per-camera background is the pixelwise mean of the first ``z`` frames.
Each frame is then high-pass filtered (frame minus background, thresholded
at tau) and the surviving intensities are summed into a density value,
normalized by the saturation sum m*n*255.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import InsufficientFrames, ShapeMismatch
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


def _check_shapes(frames: Sequence[Frame]) -> None:
    first = frames[0]
    for f in frames[1:]:
        if f.pixels.shape != first.pixels.shape:
            raise ShapeMismatch(
                f"frame {f.captured_at} shape {f.pixels.shape} != {first.pixels.shape}"
            )
        if f.camera_id != first.camera_id:
            raise ShapeMismatch(f"mixed cameras {f.camera_id!r} / {first.camera_id!r}")


def build_background(frames: Sequence[Frame], z: int) -> BackgroundModel:
    """Pixelwise mean of the first z frames (real-valued, no rounding)."""
    if z < 2 or len(frames) < z:
        raise InsufficientFrames(f"need >= {max(z, 2)} frames, got {len(frames)}")
    window = list(frames[:z])
    _check_shapes(window)
    stack = np.stack([f.pixels for f in window]).astype(np.float64)
    values = stack.mean(axis=0)
    return BackgroundModel(
        camera_id=window[0].camera_id,
        values=values,
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
    frames: Sequence[Frame],
    z: int = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> list[DensityRecord]:
    """Run the full density pipeline over a time-ordered frame sequence.

    The background is built once from the first z frames and held constant.
    """
    if len(frames) < z:
        raise InsufficientFrames(f"need >= {z} frames, got {len(frames)}")
    frames = sorted(frames, key=lambda f: f.captured_at)
    _check_shapes(frames)
    bg = build_background(frames, z)
    return [_frame_density(frame, bg, tau) for frame in frames]


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
    lines = text.strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("not a density trace CSV")
    out = []
    for line in lines[1:]:
        cam, ts, d, norm = line.split(",")
        out.append(DensityRecord(cam, parse_rfc3339(ts), int(d), float(norm)))
    return out
