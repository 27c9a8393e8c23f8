"""Running the densigraph stages on a city and checking what they wrote."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import city as citygen

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

STAGES = ("clean", "density", "fit", "lrd", "report")
PEARSON_MIN = 0.95
RECALL_MIN = 0.95
OUTPUT_DIRS = ("density", "fits", "lrd", "report")
REMOVAL_REASONS = ("ZeroSize", "DecodeError", "Duplicate", "ClusterOutlier")


class Ledger:
    """Operations attempted and failed: stage invocations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"pipebench: FAILED {what}", file=sys.stderr)
        return ok


@dataclass(frozen=True)
class Child:
    code: int
    wall: float  # seconds
    cpu: float  # user + system seconds over all of the child's threads
    rss_mb: float  # peak resident set


class Children:
    """Runs ``densigraph`` child processes, one at a time, against ``src/``."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "DENSIGRAPH_ROOT"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(work)

    def run(self, argv: list[str]) -> Child:
        log = self.work / "child.log"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env, cwd=self.work,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"pipebench: {' '.join(argv)} exited {code}\n{tail}", file=sys.stderr)
        return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def cli(self, root: Path, *args: str) -> Child:
        return self.run(["-m", "densigraph.cli", "--set", f"data_root={root}", *args])

    def environment(self) -> dict:
        """Versions and settings as a child sees them; also warms the import."""
        probe = (
            "import json, os, densigraph, densigraph.cli, numpy, scipy\n"
            "cfg = densigraph.cli.Config()\n"
            "print(json.dumps({'file': densigraph.__file__,"
            " 'kernel_backend': getattr(densigraph, 'KERNEL_BACKEND', None),"
            " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
            " 'jobs': (cfg.jobs or os.cpu_count()) if hasattr(cfg, 'jobs') else None}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=self.env, cwd=self.work,
            capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise SystemExit(f"pipebench: cannot import densigraph from {SRC}:\n{out.stderr}")
        env = json.loads(out.stdout.strip().splitlines()[-1])
        if not Path(env.pop("file")).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"pipebench: densigraph did not load from {SRC}")
        return env


def setup(name: str, seed: int, inputs: Path) -> tuple[citygen.City, dict[str, Path], float]:
    """Generate the city (its input files and the exact coverage the output
    checks need) into ``inputs``; returns the city, its scene files and the
    CPU seconds the generation took."""
    shutil.rmtree(inputs, ignore_errors=True)
    start = time.process_time()
    city = citygen.generate(name, seed)
    scenes = citygen.write_inputs(city, inputs)
    return city, scenes, time.process_time() - start


def corrupt(city: citygen.City, root: Path) -> float:
    """Apply the city's on-disk corruption; returns the CPU seconds it took."""
    start = time.process_time()
    citygen.corrupt(city, root)
    return time.process_time() - start


def synth_args(city: citygen.City, scene: Path, camera_id: str) -> list[str]:
    return [
        "synth", "--scene", str(scene), "--city", city.name,
        "--camera-id", camera_id, "--t0", citygen.T0.isoformat(),
        "--step", str(city.shape.step),
    ]


def stage_args(city: citygen.City, stage: str, inputs: Path) -> list[str]:
    args = [stage, "--city", city.name]
    if stage == "clean" and city.labels:
        args += ["--labels", str(inputs / "labels.json")]
    return args


def digest(folder: Path, outputs_only: bool = False) -> str:
    """SHA-256 over every file's relative path and bytes, in path order;
    ``outputs_only`` skips the stored frames and the manifest."""
    h = hashlib.sha256()
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        rel = path.relative_to(folder)
        if outputs_only and rel.parts[0] not in OUTPUT_DIRS and rel.name != "removed.csv":
            continue
        h.update(str(rel).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def read_removed(city: citygen.City, root: Path) -> dict[str, str] | None:
    path = root / city.name / "removed.csv"
    if not path.exists():
        return None
    rows = (line.rpartition(",") for line in path.read_text().splitlines()[1:])
    return {p: reason for p, _, reason in rows}


def removed_by_reason(city: citygen.City, root: Path) -> dict[str, int]:
    counts = dict.fromkeys(REMOVAL_REASONS, 0)
    for reason in (read_removed(city, root) or {}).values():
        counts[reason] = counts.get(reason, 0) + 1
    return counts


def verify(city: citygen.City, root: Path, ledger: Ledger) -> int:
    """Output checks on the city's artifacts; returns the number of kept frames."""
    removed = read_removed(city, root)
    ledger.check(removed is not None, "removed.csv written")
    removed = removed or {}
    kept_frames = 0
    for cam in city.cameras:
        kept = [
            i for i in range(city.shape.frames)
            if city.relative_path(cam.camera_id, i) not in removed
        ]
        kept_frames += len(kept)
        trace = root / city.name / "density" / f"{cam.camera_id}.csv"
        if not ledger.check(trace.exists(), f"{cam.camera_id}: density trace written"):
            continue
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        want = [
            f"{citygen.T0 + timedelta(seconds=i * city.shape.step):%Y-%m-%dT%H:%M:%SZ}"
            for i in kept
        ]
        if not ledger.check(
            [r[1] if len(r) == 4 else None for r in rows] == want,
            f"{cam.camera_id}: one density row per kept frame ({len(rows)} rows, {len(want)} kept)",
        ):
            continue
        try:
            r = statistics.correlation([float(row[3]) for row in rows], [cam.coverage[i] for i in kept])
        except ValueError as exc:  # includes StatisticsError
            ledger.check(False, f"{cam.camera_id}: Pearson not computable: {exc}")
            continue
        ledger.check(r >= PEARSON_MIN, f"{cam.camera_id}: Pearson {r:.4f} >= {PEARSON_MIN}")
    expected = city.expected_reasons()
    if expected:
        hits = sum(1 for path, reason in expected.items() if removed.get(path) == reason)
        recall = hits / len(expected)
        ledger.check(
            recall >= RECALL_MIN,
            f"recall of injected frames with the right reason {recall:.4f} >= {RECALL_MIN}",
        )
    return kept_frames


def summary(values: list[float]) -> dict:
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": values,
    }
