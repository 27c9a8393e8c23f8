"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Tolerances are fixed here, not calibrated elsewhere.
"""

import json
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from densigraph import synth
from densigraph.cli import run
from densigraph.density import build_background, process_sequence
from densigraph.lrd import rs_hurst, variance_time_hurst
from densigraph.ingestion import CameraMeta, FrameStore
from densigraph.pgmio import write_p5
from densigraph.quality import OUTLIER, REGULAR
from densigraph.statfit import fit_family, ks_critical_95, ks_statistic, rank_fits

from test_density import _low_occlusion_spec


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_density_fidelity():
    t0 = time.perf_counter()
    worst = 1.0
    for seed in range(10):
        spec = synth.random_scene_spec(seed, width=100, height=100, frame_count=300)
        frames = synth.frames_from_spec(spec)
        norm = process_sequence(frames, z=100, tau=25).normalized
        cov = [synth.coverage_truth(spec, t) for t in range(300)]
        worst = min(worst, float(np.corrcoef(norm, cov)[0, 1]))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst >= 0.95 and elapsed < 10.0,
        f"min Pearson over 10 scenes {worst:.4f} (>=0.95), runtime {elapsed:.2f}s (<10s)",
    )


def test_criterion_2_background_convergence():
    spec = _low_occlusion_spec(seed=11, frames=200)
    frames = synth.frames_from_spec(spec)
    bg = build_background(frames, z=100)
    err = float(np.abs(bg - 60.0).max())
    report(2, err <= 2.0, f"max background error {err:.3f} (<=2.0, occlusion <=5%)")


RECOVERY_POINTS = {
    "exponential": {"rate": 1.5},
    "normal": {"mu": 10.0, "sigma": 2.0},
    "gamma": {"shape": 2.0, "scale": 3.0},
    "weibull": {"shape": 1.5, "scale": 2.0},
    "loglogistic": {"scale": 3.0, "shape": 4.0},
}


def test_criterion_3_fitter_parameter_recovery():
    t0 = time.perf_counter()
    results = {}
    for family, params in RECOVERY_POINTS.items():
        good = 0
        for seed in range(100):
            sample = synth.sample_distribution(family, params, 10_000, seed)
            fitted = fit_family(family, sample)
            if all(abs(fitted[k] - v) <= 0.05 * abs(v) for k, v in params.items()):
                good += 1
        results[family] = good
    elapsed = time.perf_counter() - t0
    ok = all(g >= 95 for g in results.values()) and elapsed < 30.0
    report(3, ok, f"seeds within 5% per family {results} (>=95/100), runtime {elapsed:.1f}s (<30s)")


def test_criterion_4_model_selection_mirror():
    wins = {"loglogistic": 0, "gamma": 0}
    for family in wins:
        params = RECOVERY_POINTS[family]
        for seed in range(100):
            sample = synth.sample_distribution(family, params, 10_000, 1000 + seed)
            if rank_fits(sample).best == family:
                wins[family] += 1
    ok = all(w >= 95 for w in wins.values())
    report(4, ok, f"best-fit wins over 100 seeds {wins} (each >=95)")


def test_criterion_5_ks_calibration():
    n = 1000
    crit = ks_critical_95(n)
    results = {}
    # distinct seed streams per family: the inverse-CDF families would otherwise
    # share uniforms, and KS is invariant under the monotone quantile transform
    for fi, (family, params) in enumerate(RECOVERY_POINTS.items()):
        hits = sum(
            ks_statistic(
                synth.sample_distribution(family, params, n, fi * 1000 + seed),
                family,
                params,
            )
            < crit
            for seed in range(100)
        )
        results[family] = hits
    ok = all(h >= 93 for h in results.values())
    report(5, ok, f"D_n < 1.36/sqrt(1000) per family {results} (>=93/100)")


def test_criterion_6_hurst_accuracy():
    t0 = time.perf_counter()
    vt_scales = [2**i for i in range(9)]
    rs_blocks = [2**i for i in range(4, 13)]
    bounds = {0.5: (0.45, 0.55), 0.7: (0.63, 0.77), 0.8: (0.73, 0.87)}
    details = []
    ok = True
    for h, (lo, hi) in bounds.items():
        series = synth.gen_fgn(h, 100_000, seed=int(h * 100))
        vt = variance_time_hurst(series, vt_scales).H
        rs = rs_hurst(series, rs_blocks).H
        ok &= lo <= vt <= hi and abs(rs - h) <= 0.10
        details.append(f"H={h}: VT {vt:.3f} RS {rs:.3f}")
    shuffled = synth.gen_fgn(0.8, 100_000, seed=80)
    sh = np.random.default_rng(99).permutation(shuffled)
    vt_sh = variance_time_hurst(sh, vt_scales).H
    ok &= 0.43 <= vt_sh <= 0.57
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 20.0
    report(6, ok, f"{'; '.join(details)}; shuffled {vt_sh:.3f} in [0.43,0.57]; runtime {elapsed:.1f}s (<20s)")


def test_criterion_7_outlier_cleaning(tmp_path):
    rng = np.random.default_rng(70)
    scene = synth.random_scene_spec(70, frame_count=300)
    arrays = list(synth.render_scene_sequence(scene))
    scene2 = synth.random_scene_spec(71, frame_count=300, max_concurrent=4)
    arrays += list(synth.render_scene_sequence(scene2))
    scene3 = synth.random_scene_spec(72, frame_count=350, max_concurrent=6)
    arrays += list(synth.render_scene_sequence(scene3))
    regular_bytes = [write_p5(a) for a in arrays[:950]]

    outlier_bytes = []
    for i in range(20):  # error-notification templates: flat bright frames
        level = 238 + i % 6
        outlier_bytes.append(write_p5(np.full((100, 100), level, dtype=np.uint8)))
    for _ in range(15):  # extraneous bytes
        outlier_bytes.append(bytes(rng.integers(0, 256, 400, dtype=np.uint8)))
    outlier_bytes += [b""] * 15  # zero-size
    assert len(regular_bytes) == 950 and len(outlier_bytes) == 50

    # one camera, stored in this order, so the clean stage sees the frames
    # in this order too
    root = tmp_path / "data"
    store = FrameStore(root)
    camera = CameraMeta("cam1", "city7", 0.0, 0.0, 60.0)
    t0 = datetime(2024, 1, 1, 6, tzinfo=timezone.utc)
    paths = [
        store.store_frame(camera, t0 + timedelta(minutes=i), data).relative_path
        for i, data in enumerate(regular_bytes + outlier_bytes)
    ]
    # 10 labels: 7 regular + 3 template outliers
    labels = [
        {"relative_path": paths[i], "label": REGULAR} for i in (0, 150, 300, 450, 600, 750, 900)
    ] + [{"relative_path": paths[950 + i], "label": OUTLIER} for i in (0, 7, 14)]
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(labels))
    argv = [
        "--set", f"data_root={root}", "clean", "--city", "city7", "--labels", str(labels_path),
    ]
    assert run(argv) == 0
    lines = (root / "city7" / "removed.csv").read_text().splitlines()[1:]
    removed_by = dict(line.split(",") for line in lines)

    injected = set(paths[950:])
    recall = len(injected & set(removed_by)) / 50
    false_pos = len(set(paths[:950]) & set(removed_by)) / 950
    reason_ok = all(
        removed_by.get(paths[950 + i]) == ("ZeroSize" if not outlier_bytes[i] else "DecodeError")
        for i in range(20, 50)
    )
    ok = recall >= 0.95 and false_pos <= 0.02 and reason_ok
    report(
        7,
        ok,
        f"recall {recall:.3f} (>=0.95), FPR {false_pos:.4f} (<=0.02), rule reasons correct: {reason_ok}",
    )


def test_criterion_8_invariant_suite():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(Path(__file__).parent / "test_properties.py"), "-q"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 120.0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    report(8, ok, f"property suite: {tail}, runtime {elapsed:.1f}s (<120s)")


def _run_pipeline(root: Path, scene_path: Path):
    argv_base = ["--set", f"data_root={root}"]
    assert run(argv_base + ["synth", "--scene", str(scene_path), "--city", "sydney", "--camera-id", "cam1"]) == 0
    for cmd in ("clean", "density", "fit", "lrd", "report"):
        assert run(argv_base + [cmd, "--city", "sydney"]) == 0
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_end_to_end_determinism(tmp_path):
    scene = synth.random_scene_spec(90, frame_count=150)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(scene.to_json())
    a = _run_pipeline(tmp_path / "run_a", scene_path)
    b = _run_pipeline(tmp_path / "run_b", scene_path)
    same = a.keys() == b.keys() and all(a[k] == b[k] for k in a)
    report(9, same, f"two pipeline runs produced {len(a)} files, byte-identical: {same}")


def test_criterion_10_diurnal_sanity():
    from densigraph.lrd import bucket_hourly

    spec = synth.diurnal_scene_spec(10, frames_per_hour=30)
    frames = synth.frames_from_spec(
        spec, datetime(2024, 3, 1, tzinfo=timezone.utc), step_seconds=120.0
    )
    trace = process_sequence(frames, z=100, tau=25)
    buckets = bucket_hourly(trace.seconds, trace.normalized)
    peak_8, peak_17 = buckets[8][1], buckets[17][1]
    mid = max(buckets[h][1] for h in (11, 12, 13))
    ok = peak_8 > mid and peak_17 > mid
    report(10, ok, f"hour means 8={peak_8:.4f}, 17={peak_17:.4f} both exceed max(11-13)={mid:.4f}")
