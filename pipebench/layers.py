"""--trace 1: per-layer metrics for one city.

The layers are the package's modules. Child processes give each stage's wall
time, CPU time and peak memory as an operator sees them; the same stages run in
this process through ``densigraph.cli.run``, alternating untraced and traced
passes over the same stored frames. Layer metrics are medians over the
traced passes (``synth`` is traced once, into a copy of its own), and the
tracing overhead is the traced minus the untraced stage time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import statistics
import sys
import time

import stages
from spans import Span, Target, Tracer, self_times

FAMILIES = ("exponential", "normal", "gamma", "weibull", "loglogistic")
ALL_STAGES = ("synth",) + stages.STAGES
IMPORT_REPEATS = 3
MIN_PASSES = 2
KERNEL_SHAPE = (480, 640)
KERNEL_FRAMES = 100
KERNEL_TAU = 25.0


def _array_bytes(args, kwargs) -> int:
    return sum(getattr(a, "nbytes", 0) for a in args[:2])


def _text_bytes(args, kwargs) -> int:
    return len(args[1]) if len(args) > 1 else 0


TARGETS = [
    Target("ingestion.scan_manifest", ("ingestion:scan_manifest",)),
    Target("ingestion.records_parsed", ("ingestion:ManifestRecord.from_json",), count_only=True),
    Target("ingestion.store_frame", ("ingestion:FrameStore.store_frame",)),
    Target("pgmio.decode_image", ("pgmio:decode_image",)),
    Target("pgmio.write_p5", ("pgmio:write_p5",)),
    Target("quality.extract_features", ("quality:extract_features",)),
    Target("quality.fit_clusters", ("quality:fit_clusters",)),
    Target("quality.classify", ("quality:classify",)),
    Target("density.build_background", ("density:build_background",)),
    Target(
        "kernels.highpass_sum",
        ("kernels:highpass_sum", "_kernels_py:highpass_sum", "density:highpass_sum"),
        size=_array_bytes,
    ),
    Target("density.write_trace_csv", ("density:write_trace_csv",)),
    Target("density.read_trace_csv", ("density:read_trace_csv",)),
    Target("statfit.rank_fits", ("statfit:rank_fits",)),
    Target(
        "statfit.fit_family",
        ("statfit:fit_family",),
        namer=lambda args, kwargs: f"statfit.fit_family.{args[0] if args else kwargs.get('family')}",
    ),
    Target("statfit.ks_statistic", ("statfit:ks_statistic",)),
    Target("statfit.cdf_eval", ("statfit:cdf_eval",)),
    Target("lrd.resample_locf", ("lrd:resample_locf",)),
    Target("lrd.variance_time_hurst", ("lrd:variance_time_hurst",)),
    Target("lrd.rs_hurst", ("lrd:rs_hurst",)),
    Target("lrd.bucket_hourly", ("lrd:bucket_hourly",)),
    Target("synth.render_scene_sequence", ("synth:render_scene_sequence",)),
    Target("cli._atomic_write", ("cli:_atomic_write",), size=_text_bytes),
]

# (metric, unit) for every per-layer metric, in report order
METRICS = (
    [
        ("ingestion.scan_manifest.s", "s"),
        ("ingestion.scan_manifest.calls", "count"),
        ("ingestion.records_parsed", "count"),
    ]
    + [(f"ingestion.manifest_parses_per_stage.{s}", "ratio") for s in ("synth", "clean", "density")]
    + [
        ("ingestion.store_frame.s", "s"),
        ("ingestion.store_frame.calls", "count"),
        ("pgmio.decode_image.s", "s"),
        ("pgmio.decode_image.self_s", "s"),
        ("pgmio.decode_image.calls", "count"),
        ("pgmio.decodes_per_frame", "ratio"),
        ("pgmio.write_p5.s", "s"),
        ("quality.extract_features.s", "s"),
        ("quality.extract_features.self_s", "s"),
        ("quality.extract_features.calls", "count"),
        ("quality.fit_clusters.s", "s"),
        ("quality.classify.s", "s"),
        ("quality.classify.calls", "count"),
    ]
    + [(f"quality.removed.{r}", "count") for r in stages.REMOVAL_REASONS]
    + [
        ("density.build_background.s", "s"),
        ("density.build_background.self_s", "s"),
        ("density.build_background.calls", "count"),
        ("kernels.highpass_sum.s", "s"),
        ("kernels.highpass_sum.self_s", "s"),
        ("kernels.highpass_sum.calls", "count"),
        ("kernels.highpass_sum.mpix_per_s", "Mpix/s"),
        ("kernels.highpass_sum.bytes_computed", "B"),
        ("kernels.highpass_sum.random_mpix_per_s", "Mpix/s"),
        ("density.write_trace_csv.s", "s"),
        ("density.read_trace_csv.s", "s"),
        ("density.read_trace_csv.calls", "count"),
        ("statfit.rank_fits.s", "s"),
    ]
    + [(f"statfit.fit_family.{f}.s", "s") for f in FAMILIES]
    + [
        ("statfit.ks_statistic.s", "s"),
        ("statfit.cdf_eval.s", "s"),
        ("statfit.failed_fits", "count"),
        ("lrd.resample_locf.s", "s"),
        ("lrd.variance_time_hurst.s", "s"),
        ("lrd.rs_hurst.s", "s"),
        ("lrd.bucket_hourly.s", "s"),
        ("lrd.estimator_skips", "count"),
        ("synth.render_scene_sequence.s", "s"),
        ("cli.import_s", "s"),
    ]
    + [(f"cli.{s}.self_s", "s") for s in ALL_STAGES]
    + [(f"cli.{s}.wall_s", "s") for s in ALL_STAGES]
    + [(f"cli.{s}.cpu_s", "s") for s in ALL_STAGES]
    + [(f"cli.{s}.rss_mb", "MB") for s in ALL_STAGES]
    + [
        ("cli._atomic_write.s", "s"),
        ("cli._atomic_write.bytes", "B"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
        ("trace.pixel_self_share", "ratio"),
    ]
)

PIXEL_LAYERS = (
    "pgmio.decode_image",
    "quality.extract_features",
    "density.build_background",
    "kernels.highpass_sum",
)


def aggregate(spans: list[Span], counts: dict) -> dict[tuple[str, str], dict[str, float]]:
    """(stage, span name) -> s, self_s, calls, size, failed; plus counted calls."""
    own = self_times(spans)
    out: dict[tuple[str, str], dict[str, float]] = {}
    for s in spans:
        row = out.setdefault((s.stage, s.name), dict.fromkeys(("s", "self_s", "calls", "size", "failed"), 0.0))
        row["s"] += s.end - s.start
        row["self_s"] += own[s.span_id]
        row["calls"] += 1
        row["size"] += s.size
        row["failed"] += not s.ok
    for (stage, name), n in counts.items():
        out[(stage, name)] = {"calls": float(n)}
    return out


def median_of(passes: list[dict]) -> dict:
    keys = {k for p in passes for k in p}
    fields = ("s", "self_s", "calls", "size", "failed")
    return {
        key: {f: statistics.median(p.get(key, {}).get(f, 0.0) for p in passes) for f in fields}
        for key in keys
    }


def random_kernel_pass(ledger: stages.Ledger) -> float:
    """Mpix/s of highpass_sum on fixed random frames, checked against
    highpass_image and across every kernel backend that is built."""
    import numpy as np

    backends = []
    for name in ("kernels", "_kernels_py", "_ckernels"):
        try:
            mod = importlib.import_module(f"densigraph.{name}")
        except ImportError:
            continue
        fn = getattr(mod, "highpass_sum", None)
        if fn and hasattr(mod, "highpass_image") and all(b.highpass_sum is not fn for b in backends):
            backends.append(mod)
    if not backends:
        return 0.0
    rng = np.random.default_rng(0)
    frames = [rng.integers(0, 256, KERNEL_SHAPE, dtype=np.uint8) for _ in range(KERNEL_FRAMES)]
    bg = rng.uniform(0, 255, KERNEL_SHAPE)
    active = backends[0]
    start = time.perf_counter()
    sums = [active.highpass_sum(f, bg, KERNEL_TAU) for f in frames]
    elapsed = time.perf_counter() - start
    for f, (d, n) in zip(frames[:10], sums):
        img = active.highpass_image(f, bg, KERNEL_TAU)
        ok = d == int(img.astype(np.int64).sum()) and n == int(np.count_nonzero(img))
        ledger.check(ok, "highpass_sum equals the sum of highpass_image")
    for other in backends[1:]:
        ledger.check(
            [other.highpass_sum(f, bg, KERNEL_TAU) for f in frames[:10]] == sums[:10],
            f"{other.__name__} agrees with {active.__name__}",
        )
    return KERNEL_FRAMES * KERNEL_SHAPE[0] * KERNEL_SHAPE[1] / 1e6 / elapsed


def in_process(argv: list[str]) -> int:
    from densigraph import cli

    with contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def run_traced(args, city, inputs, scenes, children, ledger) -> tuple[dict, dict]:
    """Child-process stage times, then alternating untraced and traced
    in-process passes until ``args.seconds`` have passed (at least two each)."""
    work = children.work
    root = work / "data"
    start = time.perf_counter()

    imports = [children.run(["-c", "import densigraph.cli"]) for _ in range(IMPORT_REPEATS)]
    for child in imports:
        ledger.check(child.code == 0, f"import densigraph.cli exit {child.code}")
    per_stage: dict[str, list[stages.Child]] = {stage: [] for stage in ALL_STAGES}
    for cam in city.cameras:
        child = children.cli(root, *stages.synth_args(city, scenes[cam.camera_id], cam.camera_id))
        ledger.check(child.code == 0, f"synth {cam.camera_id} exit {child.code}")
        per_stage["synth"].append(child)
    if city.shape.dirty:
        stages.corrupt(city, root)
    for stage in stages.STAGES:
        child = children.cli(root, *stages.stage_args(city, stage, inputs))
        ledger.check(child.code == 0, f"{stage} exit {child.code}")
        per_stage[stage].append(child)

    sys.path.insert(0, str(stages.SRC))
    random_mpix = random_kernel_pass(ledger)

    tracer = Tracer(TARGETS)
    synth_root = work / "synth-traced"
    tracer.install()
    try:
        for cam in city.cameras:
            argv = [
                "--set", f"data_root={synth_root}",
                *stages.synth_args(city, scenes[cam.camera_id], cam.camera_id),
            ]
            code = tracer.stage_span("synth", lambda: in_process(argv))
            ledger.check(code == 0, f"traced synth {cam.camera_id} exit {code}")
    finally:
        tracer.close()
    synth_pass = aggregate(*tracer.take())
    shutil.rmtree(synth_root)

    def one_pass(label: str, call) -> dict[str, float]:
        cpu = {}
        for stage in stages.STAGES:
            argv = ["--set", f"data_root={root}", *stages.stage_args(city, stage, inputs)]
            t0 = time.process_time()
            code = call(stage, lambda: in_process(argv))
            cpu[stage] = time.process_time() - t0
            ledger.check(code == 0, f"{label} {stage} exit {code}")
        return cpu

    untraced: list[dict[str, float]] = []
    traced_cpu: list[dict[str, float]] = []
    traced: list[dict] = []
    while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        untraced.append(one_pass("untraced", lambda stage, call: call()))
        tracer.install()
        try:
            traced_cpu.append(one_pass("traced", tracer.stage_span))
        finally:
            tracer.close()
        traced.append(aggregate(*tracer.take()))
    kept_frames = stages.verify(city, root, ledger)

    layer = median_of(traced)
    layer.update(synth_pass)
    manifest_lines = len((root / city.name / "manifest.jsonl").read_text().splitlines())
    frames = city.shape.cameras * city.shape.frames

    def total(name: str, field: str = "s", in_stages=ALL_STAGES) -> float:
        return sum(layer.get((stage, name), {}).get(field, 0.0) for stage in in_stages)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {"cli.import_s": statistics.median(c.cpu for c in imports)}
    for target in TARGETS:
        if target.namer is None and not target.count_only:
            for field in ("s", "self_s", "calls"):
                values[f"{target.name}.{field}"] = total(target.name, field)
    values["ingestion.records_parsed"] = total("ingestion.records_parsed", "calls")
    for stage in ("synth", "clean", "density"):
        values[f"ingestion.manifest_parses_per_stage.{stage}"] = ratio(
            total("ingestion.records_parsed", "calls", (stage,)), manifest_lines
        )
    values["pgmio.decodes_per_frame"] = ratio(values["pgmio.decode_image.calls"], frames)
    for reason, n in stages.removed_by_reason(city, root).items():
        values[f"quality.removed.{reason}"] = n
    values["kernels.highpass_sum.mpix_per_s"] = ratio(
        values["kernels.highpass_sum.calls"] * city.shape.height * city.shape.width / 1e6,
        values["kernels.highpass_sum.s"],
    )
    values["kernels.highpass_sum.bytes_computed"] = total("kernels.highpass_sum", "size")
    values["kernels.highpass_sum.random_mpix_per_s"] = random_mpix
    for family in FAMILIES:
        values[f"statfit.fit_family.{family}.s"] = total(f"statfit.fit_family.{family}")
    values["statfit.failed_fits"] = sum(
        total(f"statfit.fit_family.{family}", "failed") for family in FAMILIES
    )
    values["lrd.estimator_skips"] = total("lrd.variance_time_hurst", "failed") + total(
        "lrd.rs_hurst", "failed"
    )
    for stage in ALL_STAGES:
        values[f"cli.{stage}.self_s"] = total(f"cli.{stage}", "self_s", (stage,))
        values[f"cli.{stage}.wall_s"] = sum(c.wall for c in per_stage[stage])
        values[f"cli.{stage}.cpu_s"] = sum(c.cpu for c in per_stage[stage])
        values[f"cli.{stage}.rss_mb"] = max(c.rss_mb for c in per_stage[stage])
    values["cli._atomic_write.bytes"] = total("cli._atomic_write", "size")

    plain_cpu = sum(statistics.median(p[s] for p in untraced) for s in stages.STAGES)
    traced_total = sum(statistics.median(p[s] for p in traced_cpu) for s in stages.STAGES)
    values["trace.overhead_s"] = traced_total - plain_cpu
    values["trace.overhead_share"] = ratio(traced_total - plain_cpu, plain_cpu)
    pixel_stages = ("clean", "density")
    all_self = sum(
        row.get("self_s", 0.0) for (stage, _), row in layer.items() if stage in pixel_stages
    )
    values["trace.pixel_self_share"] = ratio(
        sum(total(name, "self_s", pixel_stages) for name in PIXEL_LAYERS), all_self
    )

    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in METRICS}
    info = {
        "passes": len(traced),
        "kept_frames": kept_frames,
        "absent": tracer.absent,
        "untraced_cpu_s": {s: stages.summary([p[s] for p in untraced]) for s in stages.STAGES},
        "traced_cpu_s": {s: stages.summary([p[s] for p in traced_cpu]) for s in stages.STAGES},
        "digest": stages.digest(root / city.name),
    }
    return metrics, info
