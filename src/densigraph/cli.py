"""densigraph command-line entry point.

Subcommands mirror the pipeline stages:
  crawl    poll cameras from a catalog into the storage layout
  synth    render a synthetic scene spec into the storage layout
  clean    rule + cluster outlier pass, writes <city>/removed.csv
  density  per-camera density traces, writes <city>/density/<camera>.csv
  fit      distribution fit reports per camera and per-city aggregate
  lrd      Hurst reports and the hourly diurnal profile
  report   bundle earlier artifacts into <city>/report/ (never recomputes)

Config precedence: JSON file < DENSIGRAPH_ROOT env var < --set key=value.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from . import density as density_mod
from . import ingestion, lrd, quality, statfit, synth
from .errors import CorruptTrace, DensigraphError
from .pgmio import decode_image, write_p5

USAGE_ERROR = 1
DATA_ERROR = 2


@dataclass(frozen=True)
class Config:
    data_root: Path = Path("data")
    catalog_path: Path | None = None
    tau: float = 25.0
    window_z: int = 100
    cluster_k: int = 4
    seed: int = 0
    tz_offsets: dict = field(default_factory=dict)  # city -> hours

    @staticmethod
    def load(path: str | None, overrides: list[str]) -> "Config":
        cfg = Config()
        if path:
            obj = json.loads(Path(path).read_text())
            cfg = Config(
                data_root=Path(obj.get("data_root", "data")),
                catalog_path=Path(obj["catalog_path"]) if obj.get("catalog_path") else None,
                tau=float(obj.get("tau", 25.0)),
                window_z=int(obj.get("window_z", 100)),
                cluster_k=int(obj.get("cluster_k", 4)),
                seed=int(obj.get("seed", 0)),
                tz_offsets={k: float(v) for k, v in obj.get("tz_offsets", {}).items()},
            )
        env_root = os.environ.get("DENSIGRAPH_ROOT")
        if env_root:
            cfg = replace(cfg, data_root=Path(env_root))
        for item in overrides:
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"--set expects key=value, got {item!r}")
            if key in ("data_root", "catalog_path"):
                cfg = replace(cfg, **{key: Path(value)})
            elif key in ("tau",):
                cfg = replace(cfg, tau=float(value))
            elif key in ("window_z", "cluster_k", "seed"):
                cfg = replace(cfg, **{key: int(value)})
            else:
                raise ValueError(f"unknown config key {key!r}")
        # the pixel kernel drops residuals <= tau, so tau < 0 would let
        # negative residuals into the trace
        if not (math.isfinite(cfg.tau) and cfg.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {cfg.tau}")
        if cfg.window_z < 2:
            raise ValueError(f"window_z must be >= 2, got {cfg.window_z}")
        return cfg

    def describe(self) -> str:
        return json.dumps(
            {
                "data_root": str(self.data_root),
                "catalog_path": str(self.catalog_path) if self.catalog_path else None,
                "tau": self.tau,
                "window_z": self.window_z,
                "cluster_k": self.cluster_k,
                "seed": self.seed,
                "tz_offsets": self.tz_offsets,
            },
            sort_keys=True,
        )


def _log(msg: str) -> None:
    print(f"{ingestion.format_rfc3339(datetime.now(timezone.utc))} {msg}", file=sys.stderr)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stored_records(cfg: Config, city: str) -> list[ingestion.ManifestRecord]:
    records = ingestion.scan_manifest(cfg.data_root, city=city)
    if not records:
        raise DensigraphError(f"no manifest records for city {city!r} under {cfg.data_root}")
    return records


def _removed_paths(cfg: Config, city: str) -> set[str]:
    path = cfg.data_root / city / "removed.csv"
    if not path.exists():
        return set()
    lines = path.read_text().strip().splitlines()[1:]
    return {line.split(",")[0] for line in lines}


def _decoded_frames(
    cfg: Config, records: list[ingestion.ManifestRecord]
) -> Iterator[density_mod.Frame]:
    """Read and decode one stored frame at a time, in the records' order."""
    for rec in records:
        img = decode_image((cfg.data_root / rec.relative_path).read_bytes())
        if img is None:
            continue  # undecodable frames are quality-module territory
        yield density_mod.Frame(rec.camera_id, rec.captured_at, img)


# --- subcommands ---


def cmd_crawl(cfg: Config, args) -> int:
    if cfg.catalog_path is None:
        raise DensigraphError("crawl requires catalog_path in config or --set catalog_path=...")
    cameras = ingestion.load_catalog(cfg.catalog_path)
    store = ingestion.FrameStore(cfg.data_root)
    records = ingestion.crawl(
        cameras, store, args.duration, tz_offsets=cfg.tz_offsets
    )
    _log(f"crawl: {len(records)} fetch attempts recorded")
    return 0


def cmd_synth(cfg: Config, args) -> int:
    spec = synth.SceneSpec.from_json(Path(args.scene).read_text())
    camera = ingestion.CameraMeta(
        camera_id=args.camera_id,
        city=args.city,
        latitude=0.0,
        longitude=0.0,
        refresh_interval=args.step,
    )
    t0 = datetime.fromisoformat(args.t0).replace(tzinfo=timezone.utc)
    store = ingestion.FrameStore(cfg.data_root)
    count = 0
    for frame in synth.frames_from_spec(spec, args.camera_id, t0, args.step):
        store.store_frame(camera, frame.captured_at, write_p5(frame.pixels))
        count += 1
    _log(f"synth: stored {count} frames for {args.city}/{args.camera_id}")
    return 0


def cmd_clean(cfg: Config, args) -> int:
    records = _stored_records(cfg, args.city)
    entries = []
    features_by_path = {}
    for rec in records:
        if rec.status == "failed":
            feats = quality.ImageFeatures(rec.byte_size, False, 0, 0, 0.0, 0.0, 0.0)
        elif rec.status == "duplicate":
            feats = quality.ImageFeatures(rec.byte_size, True, 0, 0, 0.0, 0.0, 0.0)
        else:
            feats = quality.extract_features((cfg.data_root / rec.relative_path).read_bytes())
        features_by_path[rec.relative_path] = feats
        entries.append(
            quality.TraceEntry(rec.relative_path, feats, is_duplicate=rec.status == "duplicate")
        )

    model = None
    if args.labels:
        labeled_spec = json.loads(Path(args.labels).read_text())
        pairs = []
        for item in labeled_spec:
            feats = features_by_path.get(item["relative_path"])
            if feats is None:
                raise DensigraphError(
                    f"{args.labels}: relative_path {item['relative_path']!r}"
                    f" is not in the {args.city} manifest"
                )
            pairs.append((feats, item["label"]))
        labeled = quality.LabeledSet(tuple(pairs))
        unlabeled = [
            e.features
            for e in entries
            if quality.rule_filter(e.features) is None and not e.is_duplicate
        ]
        model = quality.fit_clusters(unlabeled, labeled, k=cfg.cluster_k, seed=cfg.seed)

    _kept, removed = quality.clean_trace(entries, model)
    lines = ["relative_path,reason"]
    lines += [f"{e.relative_path},{reason}" for e, reason in removed]
    _atomic_write(cfg.data_root / args.city / "removed.csv", "\n".join(lines) + "\n")
    _log(f"clean: removed {len(removed)} of {len(entries)} frames")
    return 0


def cmd_density(cfg: Config, args) -> int:
    removed = _removed_paths(cfg, args.city)
    # scan_manifest sorts by (camera_id, captured_at): cameras come in order,
    # and each camera's records in capture order
    by_camera: dict[str, list[ingestion.ManifestRecord]] = {}
    for rec in _stored_records(cfg, args.city):
        kept = by_camera.setdefault(rec.camera_id, [])
        if rec.status == "stored" and rec.relative_path not in removed:
            kept.append(rec)

    def one(camera_id: str) -> int:
        frames = _decoded_frames(cfg, by_camera[camera_id])
        records = density_mod.process_sequence(frames, z=cfg.window_z, tau=cfg.tau)
        out = cfg.data_root / args.city / "density" / f"{camera_id}.csv"
        _atomic_write(out, density_mod.write_trace_csv(records))
        return len(records)

    # each worker holds at most window_z decoded frames of its camera
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        counts = list(pool.map(one, by_camera))
    _log(f"density: {sum(counts)} records across {len(by_camera)} cameras")
    return 0


def _read_city_traces(cfg: Config, city: str) -> dict[str, list]:
    folder = cfg.data_root / city / "density"
    if not folder.exists():
        raise DensigraphError(f"run the density stage first: {folder} missing")
    traces = {}
    for p in sorted(folder.glob("*.csv")):
        try:
            traces[p.stem] = density_mod.read_trace_csv(p.read_text())
        except ValueError as exc:
            raise CorruptTrace(f"{p}: {exc}") from exc
    return traces


def cmd_fit(cfg: Config, args) -> int:
    traces = _read_city_traces(cfg, args.city)
    out_dir = cfg.data_root / args.city / "fits"
    summary = ["subject,family,params,ks_stat,passes_95"]
    subjects = list(traces.items()) + [
        (args.city, [r for recs in traces.values() for r in recs])
    ]
    for subject, records in subjects:
        sample = np.array([r.normalized for r in records])
        report = statfit.rank_fits(sample, subject=subject)
        _atomic_write(out_dir / f"{subject}.json", report.to_json() + "\n")
        for c in report.candidates:
            params = ";".join(f"{k}={v:.10g}" for k, v in sorted(c.params.items()))
            summary.append(
                f"{subject},{c.family},{params},{c.ks_stat:.6f},{str(c.passes_95).lower()}"
            )
        if report.low_confidence:
            _log(f"fit: {subject} has fewer than 30 records, low confidence")
    _atomic_write(out_dir / "summary.csv", "\n".join(summary) + "\n")
    _log(f"fit: wrote {len(subjects)} reports")
    return 0


def cmd_lrd(cfg: Config, args) -> int:
    traces = _read_city_traces(cfg, args.city)
    out_dir = cfg.data_root / args.city / "lrd"
    all_records = []
    for camera_id, records in sorted(traces.items()):
        all_records.extend(records)
        gaps = [
            (b.captured_at - a.captured_at).total_seconds()
            for a, b in zip(records, records[1:])
        ]
        step = float(np.median(gaps)) if gaps else 60.0
        segments = lrd.resample_locf(records, step)
        if not segments:
            continue
        series = max(segments, key=lambda s: s.values.size)
        for method, estimator in (
            ("variance_time", lrd.variance_time_hurst),
            ("rs", lrd.rs_hurst),
        ):
            try:
                est = estimator(series)
            except DensigraphError as exc:
                _log(f"lrd: {camera_id} {method}: {exc}")
                continue
            _atomic_write(
                out_dir / f"{camera_id}.{method}.json", est.to_json(camera_id) + "\n"
            )
    offset = cfg.tz_offsets.get(args.city, 0.0)
    buckets = lrd.bucket_hourly(all_records, offset)
    lines = ["hour,mean_normalized,count"]
    lines += [f"{h},{mean:.6f},{count}" for h, mean, count in buckets]
    _atomic_write(out_dir / "hourly.csv", "\n".join(lines) + "\n")
    _log(f"lrd: reports for {len(traces)} cameras")
    return 0


def cmd_report(cfg: Config, args) -> int:
    city_dir = cfg.data_root / args.city
    fits_dir = city_dir / "fits"
    lrd_dir = city_dir / "lrd"
    for needed in (fits_dir, lrd_dir, city_dir / "density"):
        if not needed.exists():
            raise DensigraphError(f"report: missing artifact directory {needed}; run earlier stages")
    out_dir = city_dir / "report"

    fits = {
        p.stem: json.loads(p.read_text())
        for p in sorted(fits_dir.glob("*.json"))
    }
    hursts = {
        p.stem: json.loads(p.read_text()) for p in sorted(lrd_dir.glob("*.json"))
    }
    summary = {
        "city": args.city,
        "fits": fits,
        "hurst": hursts,
        "hourly_profile": (lrd_dir / "hourly.csv").read_text().strip().splitlines()[1:]
        if (lrd_dir / "hourly.csv").exists()
        else [],
    }
    _atomic_write(out_dir / "summary.json", json.dumps(summary, sort_keys=True) + "\n")

    # CDF plot data: empirical + each fitted family on a common grid
    traces = _read_city_traces(cfg, args.city)
    for subject, report in fits.items():
        if subject in traces:
            sample = np.array([r.normalized for r in traces[subject]])
        else:
            sample = np.array(
                [r.normalized for recs in traces.values() for r in recs]
            )
        sample = np.sort(sample)
        grid = np.linspace(sample[0], sample[-1], 200)
        cols = {"empirical": np.searchsorted(sample, grid, side="right") / sample.size}
        for cand in report["candidates"]:
            cols[cand["family"]] = np.asarray(
                statfit.cdf_eval(cand["family"], cand["params"], grid)
            )
        header = "x," + ",".join(cols)
        lines = [header]
        for i, x in enumerate(grid):
            row = ",".join(f"{cols[name][i]:.6f}" for name in cols)
            lines.append(f"{x:.6f},{row}")
        _atomic_write(out_dir / f"cdf_{subject}.csv", "\n".join(lines) + "\n")
    _log(f"report: bundle written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densigraph",
        description="Traffic density extraction and characterization from camera image sequences",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a config field (data_root, catalog_path, tau, window_z, cluster_k, seed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crawl", help="poll cameras from the catalog")
    p.add_argument("--duration", type=float, required=True, help="seconds to run")
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("synth", help="render a scene spec into the data layout")
    p.add_argument("--scene", required=True, help="SceneSpec JSON file")
    p.add_argument("--city", required=True)
    p.add_argument("--camera-id", required=True)
    p.add_argument("--t0", default="2024-01-01T06:00:00", help="first capture time (UTC)")
    p.add_argument("--step", type=float, default=60.0, help="seconds between frames")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("clean", help="outlier detection and removal")
    p.add_argument("--city", required=True)
    p.add_argument("--labels", help="labeled seed JSON [{relative_path, label}]")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("density", help="extract density traces")
    p.add_argument("--city", required=True)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("fit", help="distribution fitting and KS ranking")
    p.add_argument("--city", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("lrd", help="Hurst estimation and hourly profile")
    p.add_argument("--city", required=True)
    p.set_defaults(func=cmd_lrd)

    p = sub.add_parser("report", help="bundle per-city artifacts")
    p.add_argument("--city", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        cfg = Config.load(args.config, args.overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"densigraph: bad config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _log(f"config: {cfg.describe()}")
    try:
        return args.func(cfg, args)
    except DensigraphError as exc:
        print(f"densigraph: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"densigraph: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
