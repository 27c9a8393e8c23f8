"""Pipeline benchmark: a seeded synthetic city through the densigraph CLI.

Usage (from the repository root):

    python3 pipebench/run.py --workload city_hd --seed 1 --seconds 15 --trace 0

Workloads are ``city_hd``, ``city_many`` and ``city_dirty`` (see
``pipebench/city.py``). The city's inputs (scene JSONs, labels, and on-disk
corruption after ``synth``) are generated here from ``--seed``; the program
sees only those files.

With ``--trace 0`` every stage of ``synth -> clean -> density -> fit -> lrd ->
report`` runs as its own ``python -m densigraph.cli`` child, one at a time,
the way an operator runs them, so each stage includes interpreter start and
import. ``synth`` runs once; the other stages repeat as rounds over the
stored frames until ``--seconds`` have passed since ``synth`` began (at
least four rounds), and each metric is the median over rounds. The inputs
are generated twice more before every round, both to time set-up repeatedly
(``setup_s`` is the median) and to check that the seed alone fixes them.

Stage times are CPU seconds (user + system, all threads) of the stage's
children, read with ``os.wait4``, and ``setup_s`` is the CPU time of this
process generating the inputs. On a shared two-vCPU virtual machine, time
stolen by the host made child wall times vary by 17-29% (coefficient of
variation over 8 repeats) where CPU times varied by 3-6%. CPU time still
follows how busy the host is: over ten seeds the quartile spread of a
metric's median reached 0.15 of it, so every bound is 0.25. Wall times are
recorded, with every per-round sample, in the JSON line printed before the
result, and the traced run reports them per stage.

With ``--trace 1`` the stages also run inside this process; see
``pipebench/layers.py``.

Every run checks its outputs: each stage exits 0, each camera has one density
row per kept frame, density tracks the exact vehicle coverage (Pearson >= 0.95
per camera), injected bad frames are removed with the right reason (recall >=
0.95), and repeated rounds write byte-identical artifacts. A SHA-256 digest
of every artifact of the city is printed so that two versions of the program
can be compared byte for byte. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Cities are built under ``.pipebench-work/`` in the repository root and
removed at exit; no timing is written under a city's ``data_root``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import city as citygen  # noqa: E402
import stages  # noqa: E402

WORK = stages.REPO / ".pipebench-work"
MIN_ROUNDS = 4
SETUPS_PER_ROUND = 2
STATS_STAGES = ("fit", "lrd", "report")

END_TO_END_UNITS = {
    "setup_s": "s",
    "synth_s": "s",
    "clean_s": "s",
    "density_s": "s",
    "stats_s": "s",
    "pipeline_s": "s",
    "density_mpix_per_s": "Mpix/s",
    "peak_rss_mb": "MB",
}


def run_plain(args, city, inputs, scenes, setup_s, children, ledger) -> tuple[dict, dict]:
    """Every stage a child process; medians over rounds."""
    root = children.work / "data"
    start = time.perf_counter()
    synth = [
        children.cli(root, *stages.synth_args(city, scenes[cam.camera_id], cam.camera_id))
        for cam in city.cameras
    ]
    for cam, child in zip(city.cameras, synth):
        ledger.check(child.code == 0, f"synth {cam.camera_id} exit {child.code}")
    corrupt_s = stages.corrupt(city, root) if city.shape.dirty else 0.0

    rounds: list[dict[str, stages.Child]] = []
    setup_times = [setup_s]
    outputs = set()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for _ in range(SETUPS_PER_ROUND):
            again = children.work / "inputs-again"
            _, _, t = stages.setup(args.workload, args.seed, again)
            setup_times.append(t)
            ledger.check(stages.digest(again) == stages.digest(inputs), "the seed fixes the inputs")
        results = {}
        for stage in stages.STAGES:
            child = children.cli(root, *stages.stage_args(city, stage, inputs))
            ledger.check(child.code == 0, f"round {len(rounds)} {stage} exit {child.code}")
            results[stage] = child
        rounds.append(results)
        outputs.add(stages.digest(root / city.name, outputs_only=True))
    ledger.check(len(outputs) == 1, f"rounds wrote identical artifacts ({len(outputs)} digests)")
    kept_frames = stages.verify(city, root, ledger)
    mpix = kept_frames * city.shape.height * city.shape.width / 1e6
    synth_rss = max(c.rss_mb for c in synth)

    def per_round(names, field="cpu") -> list[float]:
        return [sum(getattr(r[s], field) for s in names) for r in rounds]

    samples = {
        "setup_s": [t + corrupt_s for t in setup_times],
        "synth_s": [sum(c.cpu for c in synth)],
        "clean_s": per_round(["clean"]),
        "density_s": per_round(["density"]),
        "stats_s": per_round(STATS_STAGES),
        "pipeline_s": per_round(stages.STAGES),
        "peak_rss_mb": [max(synth_rss, *(r[s].rss_mb for s in stages.STAGES)) for r in rounds],
    }
    samples["density_mpix_per_s"] = [mpix / t for t in samples["density_s"]]
    walls = {
        "synth_s": [sum(c.wall for c in synth)],
        "clean_s": per_round(["clean"], "wall"),
        "density_s": per_round(["density"], "wall"),
        "stats_s": per_round(STATS_STAGES, "wall"),
        "pipeline_s": per_round(stages.STAGES, "wall"),
    }
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    info = {
        "rounds": len(rounds),
        "cpu": {k: stages.summary(v) for k, v in samples.items()},
        "wall": {k: stages.summary(v) for k, v in walls.items()},
        "kept_frames": kept_frames,
        "digest": stages.digest(root / city.name),
    }
    return metrics, info


def environment(args, city: citygen.City, env: dict) -> dict:
    shape = city.shape
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **env,
        "city": {
            "cameras": shape.cameras,
            "frames_per_camera": shape.frames,
            "height": shape.height,
            "width": shape.width,
            "frames": shape.cameras * shape.frames,
            "pixels": shape.pixels,
            "labels": len(city.labels),
            "injected": len(city.expected_reasons()),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(citygen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (stages.SRC / "densigraph" / "cli.py").is_file():
        print(f"pipebench: no densigraph sources under {stages.SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        children = stages.Children(work)
        env = children.environment()
        inputs = work / "inputs"
        city, scenes, setup_s = stages.setup(args.workload, args.seed, inputs)
        ledger = stages.Ledger()
        if args.trace:
            import layers

            metrics, info = layers.run_traced(args, city, inputs, scenes, children, ledger)
        else:
            metrics, info = run_plain(args, city, inputs, scenes, setup_s, children, ledger)
        info["environment"] = environment(args, city, env)
        info["failures"] = ledger.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's city is still there
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not ledger.failures,
                "attempted": ledger.attempted,
                "failed": len(ledger.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
