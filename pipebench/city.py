"""Seeded synthetic cities for the pipeline benchmark.

Everything the program is given comes from here: one scene JSON per camera
(the ``SceneSpec`` format that ``densigraph synth`` reads), an optional
labelled seed set for ``clean --labels``, and on-disk corruption applied
after ``synth`` has stored the frames. The generator is the benchmark's own,
so the inputs do not move when the package's synth helpers change. It also
keeps the exact truth the output checks need: per-frame vehicle coverage and
the set of injected bad frames with the reason ``clean`` must give them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

T0 = datetime(2024, 1, 1)
DAY_SECONDS = 86400

# vehicles present per slot, by hour of day: morning and evening peaks
DIURNAL = (1, 1, 1, 1, 1, 2, 3, 5, 7, 5, 3, 1, 1, 1, 3, 4, 5, 7, 5, 3, 2, 2, 1, 1)
SLOTS_PER_HOUR = 6  # a vehicle stays for one slot
TEMPLATE_LEVEL = 245  # camera-error notification frame: flat and bright
NOISE = 4.0


@dataclass(frozen=True)
class Shape:
    cameras: int
    frames: int  # one synthetic day per camera
    height: int
    width: int
    dirty: bool = False  # labels, error templates and corrupted files

    @property
    def step(self) -> int:
        return DAY_SECONDS // self.frames

    @property
    def pixels(self) -> int:
        return self.cameras * self.frames * self.height * self.width


WORKLOADS = {
    # pixels dominate: decode, features, background and kernel; two cameras
    # so the density thread pool has parallel numpy work to show or not
    "city_hd": Shape(cameras=2, frames=360, height=480, width=640),
    # per-record work dominates: manifest rescans, trace parsing, pooled fit
    "city_many": Shape(cameras=12, frames=720, height=72, width=96),
    # the only workload with labels, clustering and removed frames
    "city_dirty": Shape(cameras=4, frames=720, height=240, width=320, dirty=True),
}

TEMPLATE_SHARE = 0.03
ZERO_SIZE_SHARE = 0.01
UNDECODABLE_SHARE = 0.01
REGULAR_LABELS = 7
OUTLIER_LABELS = 3


@dataclass
class Camera:
    camera_id: str
    scene: dict
    coverage: list[float] = field(default_factory=list)  # exact, per frame
    templates: set[int] = field(default_factory=set)  # frame indices
    zero_size: set[int] = field(default_factory=set)
    undecodable: set[int] = field(default_factory=set)


@dataclass
class City:
    name: str
    shape: Shape
    cameras: list[Camera]
    labels: list[dict]  # [{relative_path, label}], empty when clean

    def relative_path(self, camera_id: str, index: int) -> str:
        ts = T0 + timedelta(seconds=index * self.shape.step)
        return f"{self.name}/{camera_id}/{ts:%Y%m%d}/{ts:%H%M%S}.pgm"

    def expected_reasons(self) -> dict[str, str]:
        """relative_path -> the reason clean must record for each injected frame."""
        out = {}
        for cam in self.cameras:
            for reason, indices in (
                ("ClusterOutlier", cam.templates),
                ("ZeroSize", cam.zero_size),
                ("DecodeError", cam.undecodable),
            ):
                for i in indices:
                    out[self.relative_path(cam.camera_id, i)] = reason
        return out


def _scene(rng: random.Random, shape: Shape, templates: set[int]) -> dict:
    per_hour = shape.frames // 24
    slot = max(1, per_hour // SLOTS_PER_HOUR)
    background = rng.randrange(50, 80)
    events = []
    for t in range(0, shape.frames, slot):
        for _ in range(DIURNAL[t // per_hour]):
            w = rng.randrange(shape.width // 16, shape.width // 6)
            h = rng.randrange(shape.height // 16, shape.height // 6)
            events.append(
                {
                    "enter_frame": t,
                    "exit_frame": min(shape.frames, t + slot),
                    "x": rng.randrange(0, shape.width - w),
                    "y": rng.randrange(0, shape.height - h),
                    "width": w,
                    "height": h,
                    "intensity": rng.randrange(170, 230),
                }
            )
    # listed last so the template covers every vehicle active in its frame
    for t in sorted(templates):
        events.append(
            {
                "enter_frame": t,
                "exit_frame": t + 1,
                "x": 0,
                "y": 0,
                "width": shape.width,
                "height": shape.height,
                "intensity": TEMPLATE_LEVEL,
            }
        )
    return {
        "width": shape.width,
        "height": shape.height,
        "background": background,
        "vehicle_events": events,
        "noise_stddev": NOISE,
        "frame_count": shape.frames,
        "seed": rng.randrange(2**31),
    }


def generate(name: str, seed: int) -> City:
    """The city for workload ``name``; the same seed gives the same city."""
    shape = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    cameras = []
    for c in range(shape.cameras):
        cam = Camera(f"cam{c:02d}", {})
        if shape.dirty:
            picks = rng.sample(
                range(shape.frames),
                round(shape.frames * (TEMPLATE_SHARE + ZERO_SIZE_SHARE + UNDECODABLE_SHARE)),
            )
            n_t = round(shape.frames * TEMPLATE_SHARE)
            n_z = round(shape.frames * ZERO_SIZE_SHARE)
            cam.templates = set(picks[:n_t])
            cam.zero_size = set(picks[n_t : n_t + n_z])
            cam.undecodable = set(picks[n_t + n_z :])
        cam.scene = _scene(rng, shape, cam.templates)
        cam.coverage = coverage(cam.scene)
        cameras.append(cam)
    city = City(name, shape, cameras, [])
    if shape.dirty:
        city.labels = _labels(rng, city)
    return city


def _labels(rng: random.Random, city: City) -> list[dict]:
    """A small seed set: regular frames spread over the day, plus templates."""
    labels = []
    frames = city.shape.frames
    for k in range(REGULAR_LABELS):
        cam = city.cameras[k % len(city.cameras)]
        bad = cam.templates | cam.zero_size | cam.undecodable
        start = k * frames // REGULAR_LABELS
        index = next(i for i in range(start, frames) if i not in bad)
        labels.append({"relative_path": city.relative_path(cam.camera_id, index), "label": "regular"})
    for k in range(OUTLIER_LABELS):
        cam = city.cameras[k % len(city.cameras)]
        index = rng.choice(sorted(cam.templates))
        labels.append({"relative_path": city.relative_path(cam.camera_id, index), "label": "outlier"})
    return labels


def write_inputs(city: City, folder: Path) -> dict[str, Path]:
    """Write one scene JSON per camera (and labels.json); camera_id -> scene path."""
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cam in city.cameras:
        path = folder / f"{cam.camera_id}.json"
        path.write_text(json.dumps(cam.scene, sort_keys=True))
        paths[cam.camera_id] = path
    if city.labels:
        (folder / "labels.json").write_text(json.dumps(city.labels, sort_keys=True))
    return paths


def corrupt(city: City, data_root: Path) -> None:
    """Damage stored frames the way a crawl does: emptied files, and files
    cut short mid-raster (the P5 header survives, the raster does not)."""
    for cam in city.cameras:
        for i in cam.zero_size:
            (data_root / city.relative_path(cam.camera_id, i)).write_bytes(b"")
        for i in cam.undecodable:
            path = data_root / city.relative_path(cam.camera_id, i)
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])


def coverage(scene: dict) -> list[float]:
    """Exact union area fraction of the rectangles active in each frame."""
    active: list[list[dict]] = [[] for _ in range(scene["frame_count"])]
    for ev in scene["vehicle_events"]:
        for t in range(ev["enter_frame"], ev["exit_frame"]):
            active[t].append(ev)
    area = scene["width"] * scene["height"]
    out = []
    for events in active:
        rows: dict[int, list[tuple[int, int]]] = {}
        for ev in events:
            for y in range(ev["y"], ev["y"] + ev["height"]):
                rows.setdefault(y, []).append((ev["x"], ev["x"] + ev["width"]))
        covered = 0
        for spans in rows.values():
            end = 0
            for a, b in sorted(spans):
                if b > end:
                    covered += b - max(a, end)
                    end = b
        out.append(covered / area)
    return out
