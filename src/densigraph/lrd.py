"""Time-scale aggregation, Hurst estimation, and diurnal bucketing, on numpy
arrays: a trace is its capture times (int64 Unix seconds) and its values."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import timedelta
from typing import Iterable, Sequence

import numpy as np

from .errors import BlockTooLarge, DegenerateSeries, TooFewScales

__all__ = [
    "HurstEstimate",
    "aggregate_series",
    "variance_time_hurst",
    "rs_hurst",
    "default_scales",
    "default_rs_blocks",
    "bucket_hourly",
    "city_step",
    "resample_locf",
]


@dataclass(frozen=True)
class HurstEstimate:
    method: str  # "variance_time" | "rs"
    H: float
    regression_points: tuple[tuple[float, float], ...]  # (log2 scale, log2 stat)
    r_squared: float

    def to_json(self, subject: str) -> str:
        return json.dumps(
            {
                "subject": subject,
                "method": self.method,
                "H": self.H,
                "r_squared": self.r_squared,
                "points": [list(p) for p in self.regression_points],
            },
            sort_keys=True,
        )


def aggregate_series(values: np.ndarray, m: int) -> np.ndarray:
    """Non-overlapping block means of size m; trailing partial block dropped."""
    n = values.size
    if m < 1 or m > n:
        raise BlockTooLarge(f"block size {m} vs length {n}")
    if m == 1:
        return values
    k = n // m
    return values[: k * m].reshape(k, m).mean(axis=1)


def _series(values) -> np.ndarray:
    """``values`` as float64, refused unless non-empty, finite and not constant."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 1 or not np.isfinite(values).all():
        raise DegenerateSeries("values must be non-empty and finite")
    if values.var() == 0:
        raise DegenerateSeries("zero-variance series")
    return values


def _loglog_fit(points: list[tuple[float, float]]) -> tuple[float, float]:
    """OLS slope and r^2 of log2-log2 points."""
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - resid @ resid / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


def default_scales(n: int) -> list[int]:
    """Powers of 2 from 1 up to n/100."""
    scales = []
    m = 1
    while m <= max(1, n // 100):
        scales.append(m)
        m *= 2
    return scales


def variance_time_hurst(values, scales: Sequence[int] | None = None) -> HurstEstimate:
    """H from the slope of log Var(aggregated) vs log block size: H = 1 + slope/2."""
    values = _series(values)
    n = values.size
    if scales is None:
        scales = default_scales(n)
    scales = sorted(set(int(m) for m in scales))
    usable = [m for m in scales if n // m >= 10]
    if len(usable) < 3:
        raise TooFewScales(f"need >=3 scales with >=10 points, have {len(usable)}")
    points = []
    for m in usable:
        var = aggregate_series(values, m).var(ddof=1)
        if var <= 0:
            raise DegenerateSeries(f"zero variance at scale {m}")
        points.append((math.log2(m), math.log2(var)))
    slope, r2 = _loglog_fit(points)
    return HurstEstimate(
        method="variance_time",
        H=1.0 + slope / 2.0,
        regression_points=tuple(points),
        r_squared=r2,
    )


def default_rs_blocks(n: int) -> list[int]:
    blocks = []
    size = 16
    while size <= n // 4:
        blocks.append(size)
        size *= 2
    return blocks


def rs_hurst(values, block_sizes: Sequence[int] | None = None) -> HurstEstimate:
    """Rescaled-range H: slope of log mean(R/S) vs log block size."""
    values = _series(values)
    n = values.size
    if block_sizes is None:
        block_sizes = default_rs_blocks(n)
    block_sizes = sorted(set(int(b) for b in block_sizes))
    if any(b < 8 for b in block_sizes):
        raise BlockTooLarge("R/S block sizes must be >= 8")
    usable = [b for b in block_sizes if b <= n]
    if len(usable) < 3:
        raise TooFewScales(f"need >=3 usable block sizes, have {len(usable)}")
    points = []
    for b in usable:
        blocks = values[: n // b * b].reshape(-1, b)
        s = blocks.std(axis=1)
        z = np.cumsum(blocks - blocks.mean(axis=1, keepdims=True), axis=1)
        kept = s != 0  # a constant block has no rescaled range
        ratios = (z.max(axis=1) - z.min(axis=1))[kept] / s[kept]
        if ratios.size:
            points.append((math.log2(b), math.log2(float(ratios.mean()))))
    if len(points) < 3:
        raise TooFewScales("fewer than 3 block sizes yielded an R/S value")
    slope, r2 = _loglog_fit(points)
    return HurstEstimate(
        method="rs",
        H=slope,
        regression_points=tuple(points),
        r_squared=r2,
    )


def bucket_hourly(
    seconds: np.ndarray, values: np.ndarray, tz_offset_hours: float = 0.0
) -> list[tuple[int, float, int]]:
    """24 buckets of (local hour, mean value, count) for values captured at
    ``seconds`` (Unix seconds), with the offset rounded to the microsecond
    as timedelta rounds it."""
    if seconds.size == 0:
        raise ValueError("no records to bucket")
    offset_us = timedelta(hours=tz_offset_hours) // timedelta(microseconds=1)
    # microseconds per day and per hour; whole days of offset leave the hour alone
    hours = (seconds * 1_000_000 + offset_us % 86_400_000_000) // 3_600_000_000 % 24
    # bincount adds each hour's values in input order
    sums = np.bincount(hours, weights=values, minlength=24).tolist()
    counts = np.bincount(hours, minlength=24).tolist()
    return [(h, sums[h] / counts[h] if counts[h] else 0.0, counts[h]) for h in range(24)]


def city_step(traces_seconds: Iterable[np.ndarray]) -> int | None:
    """A city's grid step in seconds: the lower median of all its traces' gaps pooled."""
    gaps = np.sort(np.concatenate([np.diff(seconds) for seconds in traces_seconds]))
    return int(gaps[(gaps.size - 1) // 2]) if gaps.size else None


def resample_locf(
    seconds: np.ndarray, values: np.ndarray, step: int
) -> list[tuple[int, np.ndarray]]:
    """Snap a trace (strictly increasing int64 ``seconds``) onto grid points i * ``step``
    (Unix seconds), each the last observation at or before it; gaps over 10 steps split
    it into (first grid index, values) segments, and one spanning no grid point is dropped."""
    if seconds.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(seconds) > 10 * step) + 1
    out = []
    for seg_seconds, seg_values in zip(np.split(seconds, cuts), np.split(values, cuts)):
        first = -(-seg_seconds[0] // step)  # ceiling: no grid point before the first row
        grid = np.arange(first, seg_seconds[-1] // step + 1, dtype=np.int64) * step
        if grid.size:
            out.append((int(first), seg_values[np.searchsorted(seg_seconds, grid, "right") - 1]))
    return out
