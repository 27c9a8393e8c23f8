"""Synthetic oracles: rendered traffic scenes with exact coverage ground
truth, seeded distribution samplers, and exact fractional Gaussian noise.

Everything here is deterministic given its seed; these generators are what
the rest of the test suite measures itself against.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Iterable, Iterator

import numpy as np

from .density import Frame
from .errors import EmbeddingFailure, InvalidH, InvalidParams, InvalidSpec

__all__ = [
    "VehicleEvent",
    "SceneSpec",
    "render_scene_sequence",
    "coverage_truth",
    "frames_from_spec",
    "random_scene_spec",
    "diurnal_scene_spec",
    "sample_distribution",
    "inverse_cdf",
    "gen_fgn",
]


@dataclass(frozen=True)
class VehicleEvent:
    enter_frame: int
    exit_frame: int  # exclusive
    x: int
    y: int
    width: int
    height: int
    intensity: int


def _is_number(value) -> bool:
    """A real number and not a bool (a JSON true would otherwise read as 1)."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_grid(value) -> bool:
    """A JSON grid of numbers: a list of equally long lists of numbers."""
    return (
        isinstance(value, list)
        and all(isinstance(row, list) and len(row) == len(value[0]) for row in value)
        and all(_is_number(v) for row in value for v in row)
    )


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    background: int | np.ndarray
    vehicle_events: tuple[VehicleEvent, ...]
    noise_stddev: float
    frame_count: int
    seed: int

    def background_map(self) -> np.ndarray:
        """The background as a (height, width) float64 array; a scalar is a
        read-only zero-stride view of one value, not a full-frame copy."""
        if np.isscalar(self.background):
            return np.broadcast_to(np.float64(self.background), (self.height, self.width))
        return np.asarray(self.background, dtype=np.float64)

    def validate(self) -> None:
        if self.width < 1 or self.height < 1 or self.frame_count < 1:
            raise InvalidSpec("non-positive dimensions")
        if not (math.isfinite(self.noise_stddev) and self.noise_stddev >= 0):
            raise InvalidSpec(f"noise stddev must be finite and >= 0, got {self.noise_stddev}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if np.isscalar(self.background) and not _is_number(self.background):
            raise InvalidSpec(f"background {reprlib.repr(self.background)} is not a number")
        try:
            bg = self.background_map()
        except OverflowError as exc:
            raise InvalidSpec(f"background holds a value outside 0-255 ({exc})") from exc
        if bg.shape != (self.height, self.width):
            raise InvalidSpec(f"background is {bg.shape}, not {(self.height, self.width)}")
        lo, hi = bg.min(), bg.max()  # a NaN anywhere makes both NaN
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidSpec("background holds a non-finite value")
        if lo < 0 or hi > 255:
            raise InvalidSpec("background holds a value outside 0-255")
        for ev in self.vehicle_events:
            if not (0 <= ev.enter_frame < ev.exit_frame <= self.frame_count):
                raise InvalidSpec(f"bad event window {ev.enter_frame}..{ev.exit_frame}")
            if ev.x < 0 or ev.y < 0 or ev.x + ev.width > self.width or ev.y + ev.height > self.height:
                raise InvalidSpec("rectangle out of bounds")
            if ev.width < 1 or ev.height < 1:
                raise InvalidSpec("degenerate rectangle")
            if not 0 <= ev.intensity <= 255:
                raise InvalidSpec(f"vehicle intensity {ev.intensity} is outside 0-255")
            patch = bg[ev.y : ev.y + ev.height, ev.x : ev.x + ev.width]
            if np.abs(ev.intensity - patch).min() <= 2 * self.noise_stddev:
                raise InvalidSpec("vehicle intensity too close to background")

    @staticmethod
    def from_json(text: str) -> "SceneSpec":
        """Parse a spec; malformed JSON, a missing or unknown key, or a value of
        the wrong type raises InvalidSpec (with the line for bad JSON)."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"line {exc.lineno}: {exc.msg}") from exc
        try:
            events = tuple(VehicleEvent(**ev) for ev in obj.pop("vehicle_events"))
            spec = SceneSpec(vehicle_events=events, **obj)
        except (AttributeError, KeyError, TypeError) as exc:
            raise InvalidSpec(f"not a scene spec ({type(exc).__name__}: {exc})") from exc
        ints = [spec.width, spec.height, spec.frame_count, spec.seed]
        ints += [v for ev in events for v in vars(ev).values()]
        if not all(type(v) is int for v in ints) or type(spec.noise_stddev) not in (int, float):
            raise InvalidSpec(
                "sizes, frame indices, positions, intensities and seed must be"
                " integers, and noise_stddev a number"
            )
        if not (_is_number(spec.background) or _is_grid(spec.background)):
            raise InvalidSpec(
                f"background {reprlib.repr(spec.background)} is not a number"
                " or a grid of numbers (rows of equal length)"
            )
        return spec

    def to_json(self) -> str:
        obj = {
            "width": self.width,
            "height": self.height,
            "background": self.background
            if np.isscalar(self.background)
            else np.asarray(self.background).tolist(),
            "vehicle_events": [vars(ev) for ev in self.vehicle_events],
            "noise_stddev": self.noise_stddev,
            "frame_count": self.frame_count,
            "seed": self.seed,
        }
        return json.dumps(obj, sort_keys=True)


def render_scene_sequence(spec: SceneSpec) -> Iterator[np.ndarray]:
    """Render each frame in turn: background + active rectangles + clamped noise.

    The spec is validated on the call, before the first frame is drawn. Each
    yielded frame is a new uint8 array; the float64 work is done in blocks of
    whole rows (see BLOCK_PIXELS), so no full-frame float64 buffer is held
    beyond an array background's own map.
    """
    spec.validate()
    return _render(spec)


# Frames are rendered in blocks of whole rows of at most this many pixels, so
# the float64 work buffers stay cache-sized whatever the frame size; a row
# wider than this is one block on its own.
BLOCK_PIXELS = 1 << 14


def _active_events(spec: SceneSpec) -> list[list[VehicleEvent]]:
    """Each frame's active events, in event order (a later event paints over
    an earlier one)."""
    active: list[list[VehicleEvent]] = [[] for _ in range(spec.frame_count)]
    for ev in spec.vehicle_events:
        for t in range(ev.enter_frame, ev.exit_frame):
            active[t].append(ev)
    return active


def _render(spec: SceneSpec) -> Iterator[np.ndarray]:
    h, w = spec.height, spec.width
    bg = spec.background_map()
    rng = np.random.default_rng(spec.seed)
    rows = min(h, max(1, BLOCK_PIXELS // w))
    noise_buf = np.zeros((rows, w))  # stays zero when no noise is drawn
    img_buf = np.empty((rows, w))
    for events in _active_events(spec):
        frame = np.empty((h, w), dtype=np.uint8)
        for r0 in range(0, h, rows):
            r1 = min(h, r0 + rows)
            noise, img = noise_buf[: r1 - r0], img_buf[: r1 - r0]
            if spec.noise_stddev > 0:
                # keep float64 and this draw order: the blocks follow each other
                # in C order, so the seed fixes every frame's bytes
                rng.standard_normal(out=noise)
                noise *= spec.noise_stddev
            np.add(noise, bg[r0:r1], out=img)
            for ev in events:
                y0, y1 = max(ev.y, r0) - r0, min(ev.y + ev.height, r1) - r0
                if y0 < y1:
                    xs = slice(ev.x, ev.x + ev.width)
                    np.add(noise[y0:y1, xs], ev.intensity, out=img[y0:y1, xs])
            np.rint(img, out=img)
            np.clip(img, 0, 255, out=img)
            frame[r0:r1] = img
        yield frame


def coverage_truth(spec: SceneSpec, t: int) -> float:
    """Exact union area fraction of rectangles active at frame t."""
    if not 0 <= t < spec.frame_count:
        raise IndexError(f"frame index {t} outside 0..{spec.frame_count - 1}")
    mask = np.zeros((spec.height, spec.width), dtype=bool)
    for ev in spec.vehicle_events:
        if ev.enter_frame <= t < ev.exit_frame:
            mask[ev.y : ev.y + ev.height, ev.x : ev.x + ev.width] = True
    return int(mask.sum()) / (spec.width * spec.height)


@dataclass(frozen=True)
class _SpecFrames:
    """A spec's timestamped Frames on a regular capture grid. Each iteration
    renders them again from the seed, one at a time, so the sequence can be
    read more than once (as density.process_sequence reads it)."""

    spec: SceneSpec
    t0: datetime
    step_seconds: float

    def __iter__(self) -> Iterator[Frame]:
        for i, arr in enumerate(render_scene_sequence(self.spec)):
            yield Frame(self.t0 + timedelta(seconds=i * self.step_seconds), arr)


def frames_from_spec(
    spec: SceneSpec, t0: datetime | None = None, step_seconds: float = 60.0
) -> Iterable[Frame]:
    """Render a spec into timestamped Frames on a regular capture grid, one
    at a time on each iteration; the spec is validated on the call, as in
    render_scene_sequence."""
    spec.validate()
    if t0 is None:
        t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    return _SpecFrames(spec, t0, step_seconds)


def random_scene_spec(
    seed: int,
    width: int = 100,
    height: int = 100,
    frame_count: int = 300,
    max_concurrent: int = 8,
    noise_stddev: float = 4.0,
    background: int = 60,
    vehicle_intensity: int = 200,
    dwell: tuple[int, int] = (4, 12),
) -> SceneSpec:
    """Random scene with 1..max_concurrent vehicles present at any frame.

    Vehicles are short-lived rectangles at random positions, so every pixel
    sees the background most of the time.
    """
    rng = np.random.default_rng(seed)
    events = []
    active: list[int] = []  # exit frames of currently-active vehicles
    target = int(rng.integers(1, max_concurrent + 1))
    for t in range(frame_count):
        active = [e for e in active if e > t]
        if rng.random() < 0.1:
            target = int(rng.integers(1, max_concurrent + 1))
        while len(active) < target:
            w = int(rng.integers(6, 16))
            h = int(rng.integers(4, 10))
            x = int(rng.integers(0, width - w))
            y = int(rng.integers(0, height - h))
            exit_frame = min(frame_count, t + int(rng.integers(*dwell)))
            if exit_frame <= t:
                continue
            events.append(
                VehicleEvent(t, exit_frame, x, y, w, h, vehicle_intensity)
            )
            active.append(exit_frame)
    return SceneSpec(
        width=width,
        height=height,
        background=background,
        vehicle_events=tuple(events),
        noise_stddev=noise_stddev,
        frame_count=frame_count,
        seed=seed,
    )


DIURNAL_PROFILE = {
    0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 7, 9: 5,
    10: 3, 11: 1, 12: 1, 13: 1, 14: 3, 15: 4, 16: 5, 17: 7, 18: 5,
    19: 3, 20: 2, 21: 2, 22: 1, 23: 1,
}


def diurnal_scene_spec(
    seed: int,
    frames_per_hour: int = 60,
    width: int = 100,
    height: int = 100,
) -> SceneSpec:
    """One synthetic day whose vehicle concurrency peaks at 8-9 and 17-18
    local and bottoms out over 11-13 (frame i falls in hour i // frames_per_hour)."""
    rng = np.random.default_rng(seed)
    frame_count = 24 * frames_per_hour
    events = []
    for hour, level in DIURNAL_PROFILE.items():
        start = hour * frames_per_hour
        for t in range(start, start + frames_per_hour, 5):
            for _ in range(level):
                w = int(rng.integers(6, 16))
                h = int(rng.integers(4, 10))
                x = int(rng.integers(0, width - w))
                y = int(rng.integers(0, height - h))
                events.append(
                    VehicleEvent(t, min(frame_count, t + 5), x, y, w, h, 200)
                )
    return SceneSpec(
        width=width,
        height=height,
        background=60,
        vehicle_events=tuple(events),
        noise_stddev=4.0,
        frame_count=frame_count,
        seed=seed,
    )


# --- seeded distribution sampling ---


def _check_positive(params: dict, names) -> None:
    for name in names:
        if params[name] <= 0 or not math.isfinite(params[name]):
            raise InvalidParams(f"{name} must be positive and finite")


def inverse_cdf(family: str, params: dict, u: np.ndarray) -> np.ndarray:
    """Closed-form quantile functions (exponential, weibull, loglogistic)."""
    u = np.asarray(u, dtype=np.float64)
    if family == "exponential":
        _check_positive(params, ["rate"])
        return -np.log1p(-u) / params["rate"]
    if family == "weibull":
        _check_positive(params, ["shape", "scale"])
        return params["scale"] * (-np.log1p(-u)) ** (1.0 / params["shape"])
    if family == "loglogistic":
        _check_positive(params, ["scale", "shape"])
        return params["scale"] * (u / (1.0 - u)) ** (1.0 / params["shape"])
    raise InvalidParams(f"no closed-form inverse CDF for {family}")


def _box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return z[:n]


def _marsaglia_tsang(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """Gamma(shape, 1) draws; shape < 1 handled by the power boost."""
    boost = None
    k = shape
    if shape < 1.0:
        boost = rng.random(n) ** (1.0 / shape)
        k = shape + 1.0
    d = k - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        x = _box_muller(rng, need)
        v = (1.0 + c * x) ** 3
        u = rng.random(need)
        ok = (v > 0) & (
            np.log(np.maximum(u, 1e-300))
            < 0.5 * x * x + d - d * v + d * np.log(np.where(v > 0, v, 1.0))
        )
        accepted = (d * v)[ok]
        out[filled : filled + accepted.size] = accepted
        filled += accepted.size
    if boost is not None:
        out *= boost
    return out


def sample_distribution(family: str, params: dict, n: int, seed: int) -> np.ndarray:
    """Seeded deterministic sampling for the five supported families."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    rng = np.random.default_rng(seed)
    if family in ("exponential", "weibull", "loglogistic"):
        return inverse_cdf(family, params, rng.random(n))
    if family == "normal":
        _check_positive(params, ["sigma"])
        if not math.isfinite(params["mu"]):
            raise InvalidParams("mu must be finite")
        return params["mu"] + params["sigma"] * _box_muller(rng, n)
    if family == "gamma":
        _check_positive(params, ["shape", "scale"])
        return params["scale"] * _marsaglia_tsang(rng, params["shape"], n)
    raise InvalidParams(f"unknown family {family!r}")


# --- fractional Gaussian noise via circulant embedding ---


def fgn_autocov(H: float, k: np.ndarray) -> np.ndarray:
    k = np.abs(np.asarray(k, dtype=np.float64))
    return 0.5 * (
        (k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H)
    )


def gen_fgn(H: float, n: int, seed: int) -> np.ndarray:
    """Exact unit-variance fractional Gaussian noise of length n.

    Circulant embedding: the covariance sequence is wrapped onto a circulant
    matrix whose eigenvalues come from one FFT; negative eigenvalues trigger
    a retry at the next power-of-two embedding size.
    """
    if not 0 < H < 1:
        raise InvalidH(f"H must be in (0,1), got {H}")
    if n < 2:
        raise InvalidH("n must be >= 2")
    rng = np.random.default_rng(seed)
    m = 1 << max(1, int(math.ceil(math.log2(2 * (n - 1)))))
    for _ in range(4):
        gamma = fgn_autocov(H, np.arange(m // 2 + 1))
        row = np.concatenate([gamma, gamma[-2:0:-1]])
        lam = np.fft.fft(row).real
        if lam.min() > -1e-8:
            lam = np.maximum(lam, 0.0)
            break
        m *= 2
    else:
        raise EmbeddingFailure(f"no nonnegative embedding up to size {m}")

    half = m // 2
    v = np.zeros(m, dtype=complex)
    z0, zh = rng.standard_normal(2)
    z_re = rng.standard_normal(half - 1)
    z_im = rng.standard_normal(half - 1)
    v[0] = math.sqrt(lam[0] / m) * z0
    v[half] = math.sqrt(lam[half] / m) * zh
    amp = np.sqrt(lam[1:half] / (2 * m))
    v[1:half] = amp * (z_re + 1j * z_im)
    v[half + 1 :] = np.conj(v[1:half][::-1])
    return np.fft.fft(v).real[:n]
