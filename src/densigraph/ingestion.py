"""Camera polling schedule, frame storage layout, and the JSONL manifest.

Layout: <root>/<city>/<camera_id>/<YYYYMMDD>/<HHMMSS>.<ext> (UTC), with an
append-only <root>/<city>/manifest.jsonl describing every attempt
(stored / duplicate / failed).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import urllib.request
from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CorruptManifest, MissingManifest, OutOfOrderTimestamp, StorageFull
from .pgmio import sniff_extension

__all__ = [
    "CameraMeta",
    "ManifestRecord",
    "Skip",
    "schedule_next_fetch",
    "dedup_check",
    "FrameStore",
    "scan_manifest",
    "load_catalog",
    "fetch_url",
]

FETCH_MARGIN = 0.9  # poll a little faster than the camera refreshes
DEFAULT_WINDOW = (time(6, 0), time(18, 0))


@dataclass(frozen=True)
class CameraMeta:
    camera_id: str
    city: str
    latitude: float
    longitude: float
    refresh_interval: float  # seconds
    source_url: str | None = None
    daylight_window: tuple[time, time] = DEFAULT_WINDOW

    def __post_init__(self):
        if self.refresh_interval <= 0:
            raise ValueError("refresh_interval must be positive")
        if self.daylight_window[0] >= self.daylight_window[1]:
            raise ValueError("daylight window start must precede end")


@dataclass(frozen=True)
class ManifestRecord:
    camera_id: str
    captured_at: datetime
    relative_path: str
    byte_size: int
    content_hash: str  # sha256 hex, lowercase
    status: str  # stored | duplicate | failed

    def to_json(self) -> str:
        return json.dumps(
            {
                "camera_id": self.camera_id,
                "captured_at": format_rfc3339(self.captured_at),
                "relative_path": self.relative_path,
                "byte_size": self.byte_size,
                "content_hash": self.content_hash,
                "status": self.status,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(line: str) -> "ManifestRecord":
        obj = json.loads(line)
        return ManifestRecord(
            camera_id=obj["camera_id"],
            captured_at=parse_rfc3339(obj["captured_at"]),
            relative_path=obj["relative_path"],
            byte_size=obj["byte_size"],
            content_hash=obj["content_hash"],
            status=obj["status"],
        )


RFC3339 = "%Y-%m-%dT%H:%M:%SZ"  # the one timestamp format of manifests and traces
_RFC3339_FIELDS = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)


def format_rfc3339(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(RFC3339)


def parse_rfc3339(text: str) -> datetime:
    """Strict inverse of format_rfc3339: exactly YYYY-MM-DDTHH:MM:SSZ, UTC."""
    fields = _RFC3339_FIELDS.fullmatch(text)
    if fields is None:
        raise ValueError(f"not an RFC 3339 UTC timestamp: {text!r}")
    return datetime(*map(int, fields.groups()), tzinfo=timezone.utc)


class Skip(NamedTuple):
    """Camera is outside its daylight window until next_open."""

    next_open: datetime


def schedule_next_fetch(
    camera: CameraMeta, now: datetime, tz_offset_hours: float = 0.0
):
    """Next fetch time (now + floor(0.9*interval), at least 1 s) inside the
    daylight window, else Skip with the next window opening."""
    offset = timedelta(hours=tz_offset_hours)
    local = now + offset
    start, end = camera.daylight_window
    if start <= local.time() < end:
        delay = max(1, math.floor(FETCH_MARGIN * camera.refresh_interval))
        return now + timedelta(seconds=delay)
    open_day = local.date()
    if local.time() >= end:
        open_day = open_day + timedelta(days=1)
    next_open_local = datetime.combine(open_day, start, tzinfo=local.tzinfo)
    return Skip(next_open_local - offset)


def dedup_check(data: bytes, last_hash: str | None) -> tuple[bool, str]:
    """(is_duplicate, sha256 hex digest of data)."""
    digest = hashlib.sha256(data).hexdigest()
    return digest == last_hash, digest


def layout_path(camera: CameraMeta, captured_at: datetime, ext: str) -> str:
    ts = captured_at.astimezone(timezone.utc)
    return f"{camera.city}/{camera.camera_id}/{ts:%Y%m%d}/{ts:%H%M%S}.{ext}"


class FrameStore:
    """Write frames into the storage layout and append manifest records.

    Per-camera streams are serialized: captured_at must strictly increase
    for a given camera.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._last_ts: dict[str, datetime] = {}
        self._last_hash: dict[str, str] = {}
        if self.root.exists():
            for rec in scan_manifest(self.root):
                self._last_ts[rec.camera_id] = rec.captured_at
                if rec.status == "stored":
                    self._last_hash[rec.camera_id] = rec.content_hash

    def store_frame(
        self, camera: CameraMeta, captured_at: datetime, data: bytes
    ) -> ManifestRecord:
        last = self._last_ts.get(camera.camera_id)
        if last is not None and captured_at <= last:
            raise OutOfOrderTimestamp(
                f"{camera.camera_id}: {captured_at} <= last stored {last}"
            )
        rel = layout_path(camera, captured_at, sniff_extension(data))
        if not data:
            record = ManifestRecord(camera.camera_id, captured_at, rel, 0, "", "failed")
        else:
            dup, digest = dedup_check(data, self._last_hash.get(camera.camera_id))
            if dup:
                record = ManifestRecord(
                    camera.camera_id, captured_at, rel, len(data), digest, "duplicate"
                )
            else:
                path = self.root / rel
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(data)
                except OSError as exc:
                    raise StorageFull(str(exc)) from exc
                self._last_hash[camera.camera_id] = digest
                record = ManifestRecord(
                    camera.camera_id, captured_at, rel, len(data), digest, "stored"
                )
        self._append_manifest(camera.city, record)
        self._last_ts[camera.camera_id] = captured_at
        return record

    def _append_manifest(self, city: str, record: ManifestRecord) -> None:
        manifest = self.root / city / "manifest.jsonl"
        manifest.parent.mkdir(parents=True, exist_ok=True)
        with manifest.open("a") as fh:
            fh.write(record.to_json() + "\n")


def scan_manifest(
    root: str | Path,
    camera_id: str | None = None,
    city: str | None = None,
    time_range: tuple[datetime, datetime] | None = None,
) -> list[ManifestRecord]:
    """All manifest records under root, filtered conjunctively and sorted by
    (camera_id, captured_at). Duplicates and failures are included.

    A line that is not a well-formed record raises CorruptManifest naming
    the manifest and the line.
    """
    root = Path(root)
    if not root.exists():
        raise MissingManifest(f"{root} does not exist")
    records = []
    for manifest in sorted(root.glob("*/manifest.jsonl")):
        if city is not None and manifest.parent.name != city:
            continue
        for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = ManifestRecord.from_json(line)
            except (ValueError, KeyError, TypeError) as exc:
                # ValueError covers bad JSON and bad timestamps; KeyError a
                # missing field; TypeError a line that is not a JSON object
                raise CorruptManifest(
                    f"{manifest}:{lineno}: bad manifest record ({type(exc).__name__}: {exc})"
                ) from exc
            if camera_id is not None and rec.camera_id != camera_id:
                continue
            if time_range is not None and not (
                time_range[0] <= rec.captured_at <= time_range[1]
            ):
                continue
            records.append(rec)
    records.sort(key=lambda r: (r.camera_id, r.captured_at))
    return records


def load_catalog(path: str | Path) -> list[CameraMeta]:
    """Camera catalog: JSON array of CameraMeta objects."""
    cameras = []
    for obj in json.loads(Path(path).read_text()):
        window = obj.get("daylight_window")
        if window:
            window = (time.fromisoformat(window[0]), time.fromisoformat(window[1]))
        else:
            window = DEFAULT_WINDOW
        cameras.append(
            CameraMeta(
                camera_id=obj["camera_id"],
                city=obj["city"],
                latitude=obj["latitude"],
                longitude=obj["longitude"],
                refresh_interval=obj["refresh_interval"],
                source_url=obj.get("source_url"),
                daylight_window=window,
            )
        )
    ids = [c.camera_id for c in cameras]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate camera_id in catalog")
    return cameras


def fetch_url(url: str, timeout: float = 10.0) -> bytes | None:
    """GET an image URL; any 2xx yields the body, anything else None."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            if 200 <= resp.status < 300:
                return resp.read()
            return None
    except Exception:
        return None


def crawl(
    cameras: Iterable[CameraMeta],
    store: FrameStore,
    duration_seconds: float,
    fetch=fetch_url,
    clock=None,
    sleep=None,
    tz_offsets: dict[str, float] | None = None,
) -> list[ManifestRecord]:
    """Poll every camera until duration elapses. fetch/clock/sleep are
    injectable for testing; the real clock and time.sleep are the default."""
    import time as _time

    clock = clock or (lambda: datetime.now(timezone.utc))
    sleep = sleep or _time.sleep
    tz_offsets = tz_offsets or {}
    t_end = clock() + timedelta(seconds=duration_seconds)
    next_due = {c.camera_id: clock() for c in cameras}
    records = []
    while True:
        now = clock()
        if now >= t_end:
            break
        due = [c for c in cameras if next_due[c.camera_id] <= now]
        if not due:
            soonest = min(next_due.values())
            sleep(max(0.0, min((soonest - now).total_seconds(), (t_end - now).total_seconds())))
            continue
        for camera in due:
            decision = schedule_next_fetch(camera, now, tz_offsets.get(camera.city, 0.0))
            if isinstance(decision, Skip):
                next_due[camera.camera_id] = decision.next_open
                continue
            body = fetch(camera.source_url) if camera.source_url else None
            try:
                records.append(store.store_frame(camera, now, body or b""))
            except OutOfOrderTimestamp:
                pass  # clock did not advance between polls; retry next round
            next_due[camera.camera_id] = decision
    return records
