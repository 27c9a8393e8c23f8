"""Time-scale aggregation, Hurst estimation, and diurnal bucketing."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from .density import DensityRecord
from .errors import BlockTooLarge, DegenerateSeries, TooFewScales

__all__ = [
    "TimeSeries",
    "HurstEstimate",
    "aggregate_series",
    "variance_time_hurst",
    "rs_hurst",
    "default_scales",
    "default_rs_blocks",
    "bucket_hourly",
    "resample_locf",
]


@dataclass(frozen=True)
class TimeSeries:
    subject: str
    t0: datetime
    step: float  # seconds
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.values.size < 1 or not np.isfinite(self.values).all():
            raise ValueError("values must be non-empty and finite")


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


def aggregate_series(series: TimeSeries, m: int) -> TimeSeries:
    """Non-overlapping block means of size m; trailing partial block dropped."""
    n = series.values.size
    if m < 1 or m > n:
        raise BlockTooLarge(f"block size {m} vs length {n}")
    if m == 1:
        return series
    k = n // m
    values = series.values[: k * m].reshape(k, m).mean(axis=1)
    return TimeSeries(series.subject, series.t0, series.step * m, values)


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


def variance_time_hurst(series: TimeSeries, scales: Sequence[int] | None = None) -> HurstEstimate:
    """H from the slope of log Var(aggregated) vs log block size: H = 1 + slope/2."""
    n = series.values.size
    if series.values.var() == 0:
        raise DegenerateSeries("zero-variance series")
    if scales is None:
        scales = default_scales(n)
    scales = sorted(set(int(m) for m in scales))
    usable = [m for m in scales if n // m >= 10]
    if len(usable) < 3:
        raise TooFewScales(f"need >=3 scales with >=10 points, have {len(usable)}")
    points = []
    for m in usable:
        var = aggregate_series(series, m).values.var(ddof=1)
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


def _rs_one_block(x: np.ndarray) -> float | None:
    s = x.std()
    if s == 0:
        return None
    z = np.cumsum(x - x.mean())
    return (z.max() - z.min()) / s


def rs_hurst(series: TimeSeries, block_sizes: Sequence[int] | None = None) -> HurstEstimate:
    """Rescaled-range H: slope of log mean(R/S) vs log block size."""
    values = series.values
    n = values.size
    if values.var() == 0:
        raise DegenerateSeries("zero-variance series")
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
        ratios = []
        for i in range(n // b):
            rs = _rs_one_block(values[i * b : (i + 1) * b])
            if rs is not None:
                ratios.append(rs)
        if ratios:
            points.append((math.log2(b), math.log2(float(np.mean(ratios)))))
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
    records: Sequence[DensityRecord], tz_offset_hours: float = 0.0
) -> list[tuple[int, float, int]]:
    """24 buckets of (local hour, mean normalized density, count)."""
    if not records:
        raise ValueError("no records to bucket")
    sums = [0.0] * 24
    counts = [0] * 24
    offset = timedelta(hours=tz_offset_hours)
    for r in records:
        hour = (r.captured_at.astimezone(timezone.utc) + offset).hour
        sums[hour] += r.normalized
        counts[hour] += 1
    return [
        (h, sums[h] / counts[h] if counts[h] else 0.0, counts[h]) for h in range(24)
    ]


def resample_locf(
    records: Sequence[DensityRecord],
    step_seconds: float,
) -> list[TimeSeries]:
    """Snap density records onto a regular grid by last-observation-carried-
    forward; gaps longer than 10 steps split the series."""
    if not records:
        return []
    records = sorted(records, key=lambda r: r.captured_at)
    out: list[TimeSeries] = []
    seg_start = 0
    for i in range(1, len(records) + 1):
        gap = (
            (records[i].captured_at - records[i - 1].captured_at).total_seconds()
            if i < len(records)
            else None
        )
        if gap is None or gap > 10.0 * step_seconds:
            seg = records[seg_start:i]
            t0 = seg[0].captured_at
            span = (seg[-1].captured_at - t0).total_seconds()
            n = int(span // step_seconds) + 1
            values = np.empty(n)
            j = 0
            for k in range(n):
                t = t0 + timedelta(seconds=k * step_seconds)
                while j + 1 < len(seg) and seg[j + 1].captured_at <= t:
                    j += 1
                values[k] = seg[j].normalized
            out.append(TimeSeries(seg[0].camera_id, t0, step_seconds, values))
            seg_start = i
    return out
