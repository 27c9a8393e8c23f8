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

import os

# OpenBLAS reads this once, when numpy loads it, and otherwise starts
# nproc - 1 workers that busy-wait after start-up and after every BLAS call.
# The pipeline's only BLAS calls are a 2x2 np.linalg.solve in statfit's
# Newton step and np.polyfit / resid @ resid over a handful of scales in
# lrd, none large enough for a second thread. An operator's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

# synth, quality, lrd and statfit are imported by the commands that run them,
# so that no stage loads another's modules
from . import density as density_mod
from . import ingestion
from .errors import CorruptLabels, CorruptTrace, DensigraphError, InvalidParams, InvalidSpec
from .pgmio import decode_image, write_p5

USAGE_ERROR = 1
DATA_ERROR = 2
REMOVED_HEADER = "relative_path,reason"
REMOVAL_REASONS = ("ZeroSize", "DecodeError", "Duplicate", "ClusterOutlier")
HOURLY_HEADER = "hour,mean_normalized,count"


# Config parsers: each takes a config file's JSON value or a --set string.


def _integer(value) -> int:
    if isinstance(value, str):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {value!r}")


def _number(value) -> float:
    if isinstance(value, str):
        return float(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


def _path(value) -> Path:
    if isinstance(value, str) and value:
        return Path(value)
    raise TypeError(f"expected a non-empty path, got {value!r}")


def _optional_path(value) -> Path | None:
    return None if value is None else _path(value)


def _hours(value) -> float:
    hours = _number(value)
    if not (math.isfinite(hours) and -24 <= hours <= 24):
        raise ValueError(f"expected finite hours in -24..24, got {value!r}")
    return hours


def _hours_by_city(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object of city -> hours")
    return {city: _parse(_hours, hours, city) for city, hours in value.items()}


def _parse(parse, value, where: str):
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _key(parse, default=MISSING, **kwargs):
    """A Config field whose ``parse`` converts a config file's JSON value and
    a --set string alike."""
    return field(default=default, metadata={"parse": parse}, **kwargs)


@dataclass(frozen=True)
class Config:
    data_root: Path = _key(_path, Path("data"))
    catalog_path: Path | None = _key(_optional_path, None)
    tau: float = _key(_number, 25.0)
    window_z: int = _key(_integer, 100)
    cluster_k: int = _key(_integer, 4)
    seed: int = _key(_integer, 0)
    # city -> hours; a JSON object, so only a config file can set it
    tz_offsets: dict = _key(_hours_by_city, default_factory=dict)

    @staticmethod
    def load(path: str | None, overrides: list[str]) -> "Config":
        keys = {f.name: f.metadata["parse"] for f in fields(Config)}
        values = {}
        if path:
            text = ingestion.read_utf8(path, ValueError)
            try:
                obj = json.loads(text)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: expected a JSON object")
            for key, parse in keys.items():
                if key in obj:  # other keys are ignored
                    values[key] = _parse(parse, obj[key], f"{path}: {key}")
        env_root = os.environ.get("DENSIGRAPH_ROOT")
        if env_root:
            values["data_root"] = Path(env_root)
        for item in overrides:
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"--set expects key=value, got {item!r}")
            if key not in SET_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _parse(keys[key], value, f"--set {key}")
        cfg = Config(**values)
        # the pixel kernel drops residuals <= tau, so tau < 0 would let
        # negative residuals into the trace
        if not (math.isfinite(cfg.tau) and cfg.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {cfg.tau}")
        if cfg.window_z < 2:
            raise ValueError(f"window_z must be >= 2, got {cfg.window_z}")
        if cfg.cluster_k < 2:
            raise ValueError(f"cluster_k must be >= 2, got {cfg.cluster_k}")
        if cfg.seed < 0:
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
        return cfg

    def describe(self) -> str:
        return json.dumps(asdict(self), default=str, sort_keys=True)


# every key but tz_offsets, whose value is a JSON object
SET_KEYS = tuple(f.name for f in fields(Config) if f.name != "tz_offsets")


def _log(msg: str) -> None:
    print(f"{ingestion.format_rfc3339(datetime.now(timezone.utc))} {msg}", file=sys.stderr)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        # an id decoded under a non-UTF-8 locale keeps its raw bytes as surrogates
        with os.fdopen(fd, "w", encoding="utf-8", errors="surrogateescape") as fh:
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


def _removed_row(line: str) -> str:
    """The relative_path of a removed.csv row ``relative_path,reason``."""
    path, _, reason = line.partition(",")
    if not path or reason not in REMOVAL_REASONS:
        raise ValueError(f"expected relative_path,reason with a reason in {REMOVAL_REASONS}")
    return path


def _removed_paths(cfg: Config, city: str) -> set[str]:
    path = cfg.data_root / city / "removed.csv"
    if not path.exists():
        return set()
    return set(_rows_after_header(path, REMOVED_HEADER, _removed_row))


def _hourly_row(line: str) -> str:
    """An lrd/hourly.csv row: an hour 0-23, a finite mean >= 0 and a count
    >= 0. lrd writes all 24 hours, and an hour without records as count 0
    with mean 0."""
    cells = line.split(",")
    if len(cells) == 3 and all(c.isascii() and c.isdigit() for c in cells[::2]):
        hour, mean, count = int(cells[0]), float(cells[1]), int(cells[2])
        if hour <= 23 and math.isfinite(mean) and mean >= 0 and (count or mean == 0):
            return line
    raise ValueError("expected an hour 0-23, a finite mean >= 0 and a count >= 0 (0 only with mean 0)")


def _rows_after_header(path: Path, header: str, check) -> list:
    """Each line of a CSV side file after its header, as ``check`` returns
    it. A first line other than ``header``, or a line that ``check`` refuses
    with ValueError, is a data error naming ``path`` and the line."""
    # '\n' only, as they are written: a camera id may hold U+2028 or U+2029
    lines = ingestion.read_utf8(path, DensigraphError).removesuffix("\n").split("\n")
    if lines[:1] != [header]:
        raise DensigraphError(f"{path}:1: expected the header {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            rows.append(check(line))
        except ValueError as exc:
            raise DensigraphError(f"{path}:{lineno}: bad row {line!r} ({exc})") from exc
    return rows


def _read_frame(path: str) -> bytes:
    """A stored frame's bytes: one os.read of the size os.fstat gives, which
    costs less per file than open().read(), and more reads only if the file
    grew after the fstat."""
    fd = os.open(path, os.O_RDONLY)
    try:
        # one byte over the size, so that a read short of it ends the file
        want = os.fstat(fd).st_size + 1
        data = os.read(fd, want)
        if len(data) < want:
            return data
        chunks = [data]
        while data:
            data = os.read(fd, 1 << 16)
            chunks.append(data)
        return b"".join(chunks)
    except OSError as exc:
        exc.filename = path  # os.read names no file; open() would
        raise
    finally:
        os.close(fd)


class _StoredFrames:
    """One camera's decodable stored frames, in the records' order. Each
    iteration starts again at the first record and reads and decodes one
    frame at a time, so density.process_sequence can read the window twice
    while holding a single decoded frame."""

    def __init__(self, root: str, records: list[ingestion.ManifestRecord]):
        self._files = [(os.path.join(root, rec.relative_path), rec.captured_at) for rec in records]

    def __iter__(self) -> Iterator[density_mod.Frame]:
        for path, captured_at in self._files:
            img = decode_image(_read_frame(path))
            if img is None:
                continue  # undecodable frames are quality-module territory
            yield density_mod.Frame(captured_at, img)


def _safe_id(value: str) -> str:
    """argparse type for --city/--camera-id: reject ids ingestion would refuse."""
    try:
        ingestion.check_id("id", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _utc_time(value: str) -> datetime:
    """argparse type for --t0: an ISO 8601 time, read as UTC when it has no offset."""
    try:
        t = datetime.fromisoformat(value)
        return t.replace(tzinfo=timezone.utc) if t.tzinfo is None else t.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _step_seconds(value: str) -> float:
    """argparse type for --step: a finite number of seconds, at least 1.

    Stored frames are named and timestamped to the whole second, so a
    shorter step would put two frames in one second.
    """
    try:
        step = float(value)
    except ValueError:
        step = math.nan
    if not (math.isfinite(step) and step >= 1):
        raise argparse.ArgumentTypeError(f"expected finite seconds >= 1, got {value!r}")
    return step


def _duration_seconds(value: str) -> float:
    """argparse type for --duration: finite seconds >= 0 whose end time,
    counted from now, stays within datetime's range."""
    try:
        duration = float(value)
        datetime.now(timezone.utc) + timedelta(seconds=duration)
    except (ValueError, OverflowError):
        duration = math.nan
    if not (math.isfinite(duration) and duration >= 0):
        raise argparse.ArgumentTypeError(
            f"expected finite seconds >= 0 that end by year {datetime.max.year}, got {value!r}"
        )
    return duration


def _check_capture_grid(args, frame_count: int) -> None:
    """Fail before rendering when the last capture time leaves datetime's range."""
    try:
        args.t0 + timedelta(seconds=(frame_count - 1) * args.step)
    except OverflowError as exc:
        raise DensigraphError(
            f"{args.scene}: frame_count {frame_count} frames from --t0 "
            f"{ingestion.format_rfc3339(args.t0)} every --step {args.step:g} s "
            f"end past year {datetime.max.year}"
        ) from exc


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
    from . import synth

    camera = ingestion.CameraMeta(
        camera_id=args.camera_id,
        city=args.city,
        latitude=0.0,
        longitude=0.0,
        refresh_interval=args.step,
    )
    text = ingestion.read_utf8(args.scene, InvalidSpec)  # names the scene file itself
    try:
        spec = synth.SceneSpec.from_json(text)
        _check_capture_grid(args, spec.frame_count)
        frames = synth.frames_from_spec(spec, args.t0, args.step)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{args.scene}: {exc}") from exc
    store = ingestion.FrameStore(cfg.data_root)
    count = 0
    for frame in frames:
        store.store_frame(camera, frame.captured_at, write_p5(frame.pixels))
        count += 1
    _log(f"synth: stored {count} frames for {args.city}/{args.camera_id}")
    return 0


def _read_labels(path: str) -> list[tuple[str, str]]:
    """The (relative_path, label) pairs of a labeled-seed JSON file."""
    try:
        spec = json.loads(ingestion.read_utf8(path, CorruptLabels))
    except json.JSONDecodeError as exc:
        raise CorruptLabels(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(spec, list):
        raise CorruptLabels(f"{path}: expected a JSON list of labeled frames")
    pairs = []
    for i, item in enumerate(spec):
        if not isinstance(item, dict):
            item = {}
        pair = (item.get("relative_path"), item.get("label"))
        if not all(isinstance(v, str) for v in pair):
            raise CorruptLabels(f"{path}: entry {i} needs relative_path and label strings")
        pairs.append(pair)
    return pairs


def cmd_clean(cfg: Config, args) -> int:
    from . import quality

    labels = _read_labels(args.labels) if args.labels else None
    # relative_path -> removal reason (None: kept), in scan_manifest order
    reasons: dict[str, str | None] = {}
    # kept frames' feature rows, computed only for the cluster model
    features: dict[str, np.ndarray] = {}
    root = os.fspath(cfg.data_root)
    for rec in _stored_records(cfg, args.city):
        path, reason = rec.relative_path, None
        if rec.status == "failed":
            reason = "ZeroSize"
        elif rec.status == "duplicate":
            reason = "Duplicate"
        else:
            data = _read_frame(os.path.join(root, path))
            img = decode_image(data) if data else None
            if img is None:
                reason = "DecodeError" if data else "ZeroSize"
            elif labels is not None:
                features[path] = quality.extract_features(img, len(data))
        reasons[path] = reason

    if labels is not None:
        for i, (path, _) in enumerate(labels):
            if path not in features:
                why = f"removed as {reasons[path]}" if path in reasons else "not in the manifest"
                raise CorruptLabels(
                    f"{args.labels}: entry {i}: relative_path {path!r} is {why}; "
                    "only frames that clean keeps can be labeled"
                )
        try:
            labeled = quality.LabeledSet(
                np.array([features[path] for path, _ in labels]),
                tuple(label for _, label in labels),
            )
        except ValueError as exc:
            raise CorruptLabels(f"{args.labels}: {exc}") from exc
        rows = np.array(list(features.values()))
        model = quality.fit_clusters(rows, labeled, k=cfg.cluster_k, seed=cfg.seed)
        for path, label in zip(features, quality.classify(model, rows)):
            if label == quality.OUTLIER:
                reasons[path] = "ClusterOutlier"

    removed = [f"{path},{reason}" for path, reason in reasons.items() if reason]
    lines = [REMOVED_HEADER] + removed
    _atomic_write(cfg.data_root / args.city / "removed.csv", "\n".join(lines) + "\n")
    _log(f"clean: removed {len(removed)} of {len(reasons)} frames")
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

    root, total = os.fspath(cfg.data_root), 0
    for camera_id, recs in by_camera.items():
        try:
            trace = density_mod.process_sequence(
                _StoredFrames(root, recs), z=cfg.window_z, tau=cfg.tau
            )
        except DensigraphError as exc:
            raise type(exc)(f"{args.city}/{camera_id}: {exc}") from exc
        out = cfg.data_root / args.city / "density" / f"{camera_id}.csv"
        _atomic_write(out, density_mod.write_trace_csv(camera_id, trace))
        total += len(trace)
    _log(f"density: {total} records across {len(by_camera)} cameras")
    return 0


def _read_city_traces(cfg: Config, city: str) -> dict[str, density_mod.Trace]:
    """Each camera's trace, in camera-id order."""
    folder = cfg.data_root / city / "density"
    if not folder.exists():
        raise DensigraphError(f"run the density stage first: {folder} missing")
    clash = folder / f"{city}.csv"
    if clash.exists():
        raise DensigraphError(
            f"{clash}: camera id {city!r} is its city's name, so its fits would "
            "collide with the pooled city fits"
        )
    paths = sorted(folder.glob("*.csv"), key=lambda p: p.stem)
    if not paths:
        raise DensigraphError(f"{folder} holds no density traces; run the density stage first")
    traces = {}
    for p in paths:
        text = ingestion.read_utf8(p, CorruptTrace)
        try:
            traces[p.stem] = density_mod.read_trace_csv(text, p.stem)
        except ValueError as exc:
            raise CorruptTrace(f"{p}: {exc}") from exc
    return traces


def _subjects(city: str, traces: dict) -> list[tuple[str, np.ndarray]]:
    """Each camera's normalized sample, then the city's, pooled in camera order."""
    samples = [(camera_id, trace.normalized) for camera_id, trace in traces.items()]
    return samples + [(city, np.concatenate([values for _, values in samples]))]


def _remove_unwritten(folder: Path, pattern: str, written: set[Path]) -> None:
    """Delete the files in ``folder`` matching ``pattern`` that this run did
    not write, so no earlier run's output passes for this run's."""
    for path in sorted(folder.glob(pattern)):
        if path not in written:
            path.unlink()
            _log(f"removed {path}, which this run did not write")


@contextmanager
def _stats_json(path: Path) -> Iterator:
    """Parse a fits/ or lrd/ JSON file for the with-block: bad JSON, or a key or
    value the block cannot use (params outside their family's domain too), is
    a data error naming the file."""
    text = ingestion.read_utf8(path, DensigraphError)
    try:
        yield json.loads(text)
    except (ValueError, KeyError, TypeError, InvalidParams) as exc:
        raise DensigraphError(f"{path}: unusable: {type(exc).__name__}: {exc}") from exc


def cmd_fit(cfg: Config, args) -> int:
    from . import statfit

    traces = _read_city_traces(cfg, args.city)
    out_dir = cfg.data_root / args.city / "fits"
    summary = ["subject,family,params,ks_stat,passes_95"]
    subjects = _subjects(args.city, traces)
    for subject, sample in subjects:
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
    _remove_unwritten(out_dir, "*.json", {out_dir / f"{s}.json" for s, _ in subjects})
    _log(f"fit: wrote {len(subjects)} reports")
    return 0


def cmd_lrd(cfg: Config, args) -> int:
    from . import lrd

    traces = _read_city_traces(cfg, args.city)
    out_dir = cfg.data_root / args.city / "lrd"
    step = lrd.city_step(trace.seconds for trace in traces.values())
    written = set()
    for camera_id, trace in traces.items():
        segments = lrd.resample_locf(trace.seconds, trace.normalized, step) if step else []
        _, series = max(segments, key=lambda seg: seg[1].size, default=(0, np.empty(0)))
        for method, estimator in (
            ("variance_time", lrd.variance_time_hurst),
            ("rs", lrd.rs_hurst),
        ):
            try:
                est = estimator(series)
            except DensigraphError as exc:
                _log(f"lrd: {camera_id} {method}: {exc}")
                continue
            path = out_dir / f"{camera_id}.{method}.json"
            _atomic_write(path, est.to_json(camera_id) + "\n")
            written.add(path)
    offset = cfg.tz_offsets.get(args.city, 0.0)
    seconds = np.concatenate([trace.seconds for trace in traces.values()])
    values = np.concatenate([trace.normalized for trace in traces.values()])
    buckets = lrd.bucket_hourly(seconds, values, offset)
    lines = [HOURLY_HEADER]
    lines += [f"{h},{mean:.6f},{count}" for h, mean, count in buckets]
    _atomic_write(out_dir / "hourly.csv", "\n".join(lines) + "\n")
    _remove_unwritten(out_dir, "*.json", written)
    _log(f"lrd: reports for {len(traces)} cameras")
    return 0


def cmd_report(cfg: Config, args) -> int:
    from . import statfit

    city_dir = cfg.data_root / args.city
    fits_dir = city_dir / "fits"
    lrd_dir = city_dir / "lrd"
    for needed in (fits_dir, lrd_dir, city_dir / "density"):
        if not needed.exists():
            raise DensigraphError(f"report: missing artifact directory {needed}; run earlier stages")
    out_dir = city_dir / "report"
    traces = _read_city_traces(cfg, args.city)

    # CDF plot data: empirical + each fitted family on a common grid
    fits, cdfs = {}, {}
    for subject, sample in _subjects(args.city, traces):
        sample = np.sort(sample)
        grid = np.linspace(sample[0], sample[-1], 200)
        cols = {"empirical": np.searchsorted(sample, grid, side="right") / sample.size}
        with _stats_json(fits_dir / f"{subject}.json") as report:
            for cand in report["candidates"]:
                cols[cand["family"]] = np.asarray(
                    statfit.cdf_eval(cand["family"], cand["params"], grid)
                )
        fits[subject] = report
        lines = ["x," + ",".join(cols)]
        for i, x in enumerate(grid):
            row = ",".join(f"{cols[name][i]:.6f}" for name in cols)
            lines.append(f"{x:.6f},{row}")
        cdfs[out_dir / f"cdf_{subject}.csv"] = "\n".join(lines) + "\n"
    hursts = {}
    # <camera_id>.<method>.json; no method name holds a dot
    for path in sorted(lrd_dir.glob("*.json")):
        if path.stem.rpartition(".")[0] in traces:
            with _stats_json(path) as estimate:
                hursts[path.stem] = estimate

    hourly = lrd_dir / "hourly.csv"
    summary = {
        "city": args.city,
        "fits": fits,
        "hurst": hursts,
        "hourly_profile": (
            _rows_after_header(hourly, HOURLY_HEADER, _hourly_row) if hourly.exists() else []
        ),
    }
    _atomic_write(out_dir / "summary.json", json.dumps(summary, sort_keys=True) + "\n")
    for path, text in cdfs.items():
        _atomic_write(path, text)
    _remove_unwritten(out_dir, "cdf_*.csv", set(cdfs))
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
        help=f"override a config field ({', '.join(SET_KEYS)})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    city = argparse.ArgumentParser(add_help=False)
    city.add_argument("--city", required=True, type=_safe_id)

    p = sub.add_parser("crawl", help="poll cameras from the catalog")
    p.add_argument("--duration", type=_duration_seconds, required=True, help="seconds to run")
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("synth", parents=[city], help="render a scene spec into the data layout")
    p.add_argument("--scene", required=True, help="SceneSpec JSON file")
    p.add_argument("--camera-id", required=True, type=_safe_id)
    p.add_argument(
        "--t0", type=_utc_time, default="2024-01-01T06:00:00",
        help="first capture time, ISO 8601 (UTC unless it has an offset)",
    )
    p.add_argument("--step", type=_step_seconds, default=60.0, help="seconds between frames")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("clean", parents=[city], help="outlier detection and removal")
    p.add_argument("--labels", help="labeled seed JSON [{relative_path, label}]")
    p.set_defaults(func=cmd_clean)

    for name, func, help_text in (
        ("density", cmd_density, "extract density traces"),
        ("fit", cmd_fit, "distribution fitting and KS ranking"),
        ("lrd", cmd_lrd, "Hurst estimation and hourly profile"),
        ("report", cmd_report, "bundle per-city artifacts"),
    ):
        sub.add_parser(name, parents=[city], help=help_text).set_defaults(func=func)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth" and args.camera_id == args.city:
            # its fits would collide with the city's pooled fits
            parser.error(f"argument --camera-id: {args.camera_id!r} is also the --city name")
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        cfg = Config.load(args.config, args.overrides)
    except (ValueError, OSError) as exc:
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
