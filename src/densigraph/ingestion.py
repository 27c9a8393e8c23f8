"""Camera polling schedule, frame storage layout, and the JSONL manifest.

Layout: <root>/<city>/<camera_id>/<YYYYMMDD>/<HHMMSS>.<ext> (UTC), with an
append-only <root>/<city>/manifest.jsonl describing every attempt
(stored / duplicate / failed).
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, fields
from datetime import datetime, time, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    CorruptCatalog,
    CorruptManifest,
    MissingManifest,
    OutOfOrderTimestamp,
    StorageFull,
)
from .pgmio import sniff_extension

__all__ = [
    "CameraMeta",
    "check_id",
    "ManifestRecord",
    "Skip",
    "schedule_next_fetch",
    "dedup_check",
    "FrameStore",
    "scan_manifest",
    "read_utf8",
    "load_catalog",
    "fetch_url",
]

FETCH_MARGIN = 0.9  # poll a little faster than the camera refreshes
DEFAULT_WINDOW = (time(6, 0), time(18, 0))


# '/', '\\', ',', the control characters (Unicode category Cc) and the
# surrogates that no file name can hold: 'surrogateescape' encodes only
# U+DC80-U+DCFF, which stand for the undecodable bytes of an argv or file name
_UNSAFE_ID_CHAR = re.compile(r"[/\\,\x00-\x1f\x7f-\x9f\ud800-\udc7f\udd00-\udfff]")


def check_id(kind: str, value) -> None:
    """Raise ValueError unless value is safe as a camera id or city name.

    Ids become one directory in the storage layout and one field in trace
    CSVs, so an id may not be empty, '.' or '..', nor hold '/', '\\', ',',
    a control character or a surrogate outside U+DC80-U+DCFF.
    """
    if (
        not isinstance(value, str)
        or value in ("", ".", "..")
        or _UNSAFE_ID_CHAR.search(value)
    ):
        raise ValueError(
            f"{kind} {value!r} must be a non-empty name other than '.' or '..'"
            " without '/', '\\', ',', control characters or surrogates outside U+DC80-U+DCFF"
        )


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
        check_id("camera_id", self.camera_id)
        check_id("city", self.city)
        if not (math.isfinite(self.refresh_interval) and self.refresh_interval > 0):
            raise ValueError("refresh_interval must be a finite number > 0")
        if self.daylight_window[0] >= self.daylight_window[1]:
            raise ValueError("daylight window start must precede end")


@dataclass(frozen=True, slots=True)
class ManifestRecord:
    camera_id: str
    captured_at: datetime
    relative_path: str
    byte_size: int
    content_hash: str  # sha256 hex, lowercase
    status: str  # stored | duplicate | failed

    def to_json(self) -> str:
        obj = {name: getattr(self, name) for name in _RECORD_FIELDS}
        obj["captured_at"] = format_rfc3339(self.captured_at)
        return json.dumps(obj, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "ManifestRecord":
        """The record of one manifest line; keys that are not fields are ignored.

        camera_id and status repeat on every line, so a record holds the
        interned string, not a copy of its own. A line in to_json's own layout
        is read by one pattern; any other goes through json.loads, so both
        give the same record, or the same error.
        """
        fast = _CANONICAL_LINE.fullmatch(line)
        if fast is not None:
            size, camera_id, captured_at, content_hash, relative_path, status = fast.groups()
            return ManifestRecord(
                sys.intern(camera_id),
                parse_rfc3339(captured_at),
                relative_path,
                int(size),
                content_hash,
                sys.intern(status),
            )
        obj = json.loads(line)
        obj["captured_at"] = parse_rfc3339(obj["captured_at"])
        for name in _SHARED_FIELDS:
            if type(obj.get(name)) is str:
                obj[name] = sys.intern(obj[name])
        return ManifestRecord(*[obj[name] for name in _RECORD_FIELDS])


_RECORD_FIELDS = tuple(f.name for f in fields(ManifestRecord))
_SHARED_FIELDS = ("camera_id", "status")
STATUSES = ("stored", "duplicate", "failed")

# to_json's layout: the six fields in sorted key order, each string without '"',
# '\\' or a control character (so without escapes, and as json.loads reads
# it), byte_size a JSON integer of at most 18 digits
_JSON_STR = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL_LINE = re.compile(
    r'\{"byte_size": (0|[1-9][0-9]{0,17}), "camera_id": %s, "captured_at": %s, '
    r'"content_hash": %s, "relative_path": %s, "status": %s\}\n?' % ((_JSON_STR,) * 5)
)
EXTENSIONS = ("pgm", "png", "jpg", "bin")  # every extension sniff_extension gives


# the one timestamp format of manifests and traces, YYYY-MM-DDTHH:MM:SSZ;
# strftime("%Y") does not zero-pad a year before 1000 on glibc
RFC3339 = "%04d-%02d-%02dT%02d:%02d:%02dZ"
_RFC3339_FIELDS = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)
# the value of each two-digit field: a lookup costs less than int()
_TWO_DIGITS = {"%02d" % n: n for n in range(100)}


def format_rfc3339(ts: datetime) -> str:
    t = ts.astimezone(timezone.utc)
    return RFC3339 % (t.year, t.month, t.day, t.hour, t.minute, t.second)


def parse_rfc3339(text: str) -> datetime:
    """Strict inverse of format_rfc3339: exactly YYYY-MM-DDTHH:MM:SSZ, UTC."""
    fields = _RFC3339_FIELDS.fullmatch(text)
    if fields is None:
        raise ValueError(f"not an RFC 3339 UTC timestamp: {text!r}")
    # unpacked: datetime(*map(...)) left one block per call on the tuple free
    # list, up to 2,000, which tracemalloc counts as held
    year, month, day, hour, minute, second = fields.groups()
    two = _TWO_DIGITS
    return datetime(
        int(year), two[month], two[day], two[hour], two[minute], two[second], 0, timezone.utc
    )


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
    import hashlib  # loads OpenSSL: only stages that store frames pay for it

    digest = hashlib.sha256(data).hexdigest()
    return digest == last_hash, digest


def layout_path(city: str, camera_id: str, captured_at: datetime, ext: str) -> str:
    return _utc_layout_path(city, camera_id, captured_at.astimezone(timezone.utc), ext)


def _utc_layout_path(city: str, camera_id: str, t: datetime, ext: str) -> str:
    """layout_path of a time already in UTC; the date and the time of day are
    each formatted as one integer, which costs less than six fields."""
    day, second = t.year * 10000 + t.month * 100 + t.day, t.hour * 10000 + t.minute * 100 + t.second
    return "%s/%s/%08d/%06d.%s" % (city, camera_id, day, second, ext)


class FrameStore:
    """Write frames into the storage layout and append manifest records.

    Per-camera streams are serialized: captured_at must fall in a later
    whole second than the last frame stored for its (city, camera_id), the
    resolution of both the layout path and the manifest. A city's manifest
    is read on the first store into that city, so other cities' manifests
    are never parsed. The store keeps each camera's last timestamp, last
    stored hash and last day directory, never the manifest's records.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._scanned: set[str] = set()
        self._last_ts: dict[tuple[str, str], datetime] = {}
        self._last_hash: dict[tuple[str, str], str] = {}
        self._last_dir: dict[tuple[str, str], str] = {}

    def _resume(self, city: str) -> None:
        """Pick up each camera's last timestamp and hash from city's manifest.

        Of two records of one camera in the same second, the later line wins.
        A manifest whose last line has no newline raises CorruptManifest: a
        record appended to it would join that line.
        """
        manifest = self.root / city / "manifest.jsonl"
        last_ts: dict[tuple[str, str], datetime] = {}
        last_stored: dict[tuple[str, str], tuple[datetime, str]] = {}
        if manifest.exists():
            lineno, ended = 0, True
            for lineno, ended, rec in _read_manifest(manifest, city):
                if rec is None:
                    continue
                key = (city, rec.camera_id)
                if key not in last_ts or rec.captured_at >= last_ts[key]:
                    last_ts[key] = rec.captured_at
                if rec.status == "stored" and (
                    key not in last_stored or rec.captured_at >= last_stored[key][0]
                ):
                    last_stored[key] = (rec.captured_at, rec.content_hash)
            if not ended:
                raise CorruptManifest(f"{manifest}:{lineno}: last line has no newline")
        manifest.parent.mkdir(parents=True, exist_ok=True)
        self._last_ts.update(last_ts)
        self._last_hash.update((key, digest) for key, (_, digest) in last_stored.items())
        self._scanned.add(city)

    def store_frame(
        self, camera: CameraMeta, captured_at: datetime, data: bytes
    ) -> ManifestRecord:
        # the layout path and the manifest hold the whole second
        captured_at = captured_at.astimezone(timezone.utc).replace(microsecond=0)
        if camera.city not in self._scanned:
            self._resume(camera.city)
        key = (camera.city, camera.camera_id)
        last = self._last_ts.get(key)
        if last is not None and captured_at <= last:
            raise OutOfOrderTimestamp(
                f"{camera.camera_id}: {captured_at} is not in a later second "
                f"than the last stored {last}"
            )
        rel = _utc_layout_path(camera.city, camera.camera_id, captured_at, sniff_extension(data))
        status, digest = "failed", ""
        if data:
            dup, digest = dedup_check(data, self._last_hash.get(key))
            status = "duplicate" if dup else "stored"
        if status == "stored":
            path = self.root / rel
            try:
                day = rel.rpartition("/")[0]
                if self._last_dir.get(key) != day:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    self._last_dir[key] = day
                path.write_bytes(data)
            except OSError as exc:
                raise StorageFull(str(exc)) from exc
            self._last_hash[key] = digest
        record = ManifestRecord(camera.camera_id, captured_at, rel, len(data), digest, status)
        self._append_manifest(camera.city, record)
        self._last_ts[key] = captured_at
        return record

    def _append_manifest(self, city: str, record: ManifestRecord) -> None:
        with (self.root / city / "manifest.jsonl").open("a") as fh:
            fh.write(record.to_json() + "\n")


def read_utf8(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file. Other bytes raise error naming the file and
    the line that holds them."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _check_record(rec: ManifestRecord, city: str) -> None:
    """Raise ValueError unless rec is a record FrameStore could write for city.

    rec.captured_at is in UTC, as from_json gives it, so its layout path
    needs no astimezone.
    """
    check_id("camera_id", rec.camera_id)
    if rec.status not in STATUSES:
        raise ValueError(f"status {rec.status!r} is not one of {', '.join(STATUSES)}")
    if type(rec.byte_size) is not int or rec.byte_size < 0:
        raise ValueError(f"byte_size {rec.byte_size!r} is not a non-negative integer")
    path = rec.relative_path
    ext = path.rpartition(".")[2] if isinstance(path, str) else None
    if ext not in EXTENSIONS or path != _utc_layout_path(city, rec.camera_id, rec.captured_at, ext):
        raise ValueError(
            f"relative_path {path!r} is not the layout path of its city, camera and captured_at"
        )


def _read_manifest(
    manifest: Path, city: str
) -> Iterator[tuple[int, bool, ManifestRecord | None]]:
    """Each line of city's manifest, in file order: its line number, whether
    it ends in a newline, and its record (None for a blank line).

    Lines are separated by '\n' only, as FrameStore writes them, and the file
    is read one line at a time. A line that is not UTF-8, not a well-formed
    record, or a record whose camera_id, status, byte_size or relative_path
    FrameStore would not write, raises CorruptManifest naming the manifest and
    the line; the first such line in the file is the one named.
    """
    with manifest.open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                start = fh.tell() - len(raw) + exc.start
                raise CorruptManifest(
                    f"{manifest}:{lineno}: not UTF-8 text ({exc.reason} at byte {start})"
                ) from exc
            ended = raw.endswith(b"\n")
            if line.isspace():
                yield lineno, ended, None
                continue
            try:
                rec = ManifestRecord.from_json(line)
                _check_record(rec, city)
            except (ValueError, KeyError, TypeError) as exc:
                # ValueError covers bad JSON and bad timestamps; KeyError a
                # missing field; TypeError a line that is not a JSON object
                raise CorruptManifest(
                    f"{manifest}:{lineno}: bad manifest record ({type(exc).__name__}: {exc})"
                ) from exc
            yield lineno, ended, rec


def scan_manifest(root: str | Path, city: str) -> list[ManifestRecord]:
    """All manifest records of one city, sorted by (camera_id, captured_at).
    Duplicates and failures are included; a city without a manifest has none.

    A line that is not a well-formed record, or whose camera_id, status,
    byte_size or relative_path FrameStore would not write, raises
    CorruptManifest naming the manifest and the line (see _read_manifest).
    """
    root = Path(root)
    if not root.exists():
        raise MissingManifest(f"{root} does not exist")
    manifest = root / city / "manifest.jsonl"
    if not manifest.exists():
        return []
    records = [rec for _, _, rec in _read_manifest(manifest, city) if rec is not None]
    records.sort(key=lambda r: (r.camera_id, r.captured_at))
    return records


def load_catalog(path: str | Path) -> list[CameraMeta]:
    """Camera catalog: JSON array of CameraMeta objects.

    A file that is not a JSON array, an entry that is not a valid
    CameraMeta, whose camera_id is its city's name, or a camera_id listed
    twice, raises CorruptCatalog naming the catalog and the line or entry.
    """
    try:
        entries = json.loads(read_utf8(path, CorruptCatalog))
    except json.JSONDecodeError as exc:
        raise CorruptCatalog(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(entries, list):
        raise CorruptCatalog(f"{path}: expected a JSON list of cameras")
    cameras = []
    for index, obj in enumerate(entries):
        try:
            window = obj.get("daylight_window")
            if window:
                window = (time.fromisoformat(window[0]), time.fromisoformat(window[1]))
            else:
                window = DEFAULT_WINDOW
            camera = CameraMeta(
                camera_id=obj["camera_id"],
                city=obj["city"],
                latitude=obj["latitude"],
                longitude=obj["longitude"],
                refresh_interval=obj["refresh_interval"],
                source_url=obj.get("source_url"),
                daylight_window=window,
            )
            if camera.camera_id == camera.city:
                # its fits would collide with the city's pooled fits
                raise ValueError(f"camera_id {camera.camera_id!r} is its city's name")
            cameras.append(camera)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # AttributeError: an entry that is not a JSON object
            raise CorruptCatalog(
                f"{path}: entry {index}: bad camera ({type(exc).__name__}: {exc})"
            ) from exc
    ids = [c.camera_id for c in cameras]
    if len(set(ids)) != len(ids):
        raise CorruptCatalog(f"{path}: duplicate camera_id in catalog")
    return cameras


def fetch_url(url: str) -> bytes | None:
    """GET an image URL with a 10 s timeout; any 2xx yields the body,
    anything else None."""
    import urllib.request  # only crawl fetches; other stages skip the import

    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
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
    cameras = list(cameras)  # walked on every round
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
                pass  # polled in the second of the last stored frame; retry next round
            next_due[camera.camera_id] = decision
    return records
