import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from datetime import datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from densigraph.errors import (
    CorruptCatalog,
    CorruptManifest,
    DensigraphError,
    MissingManifest,
    OutOfOrderTimestamp,
)
from densigraph.ingestion import (
    _CANONICAL_LINE,
    EXTENSIONS,
    STATUSES,
    CameraMeta,
    FrameStore,
    ManifestRecord,
    Skip,
    _check_record,
    crawl,
    dedup_check,
    format_rfc3339,
    layout_path,
    load_catalog,
    parse_rfc3339,
    scan_manifest,
    schedule_next_fetch,
)

T0 = datetime(2024, 3, 1, 10, 0, 0, tzinfo=timezone.utc)


def camera(refresh=30.0, camera_id="syd-001", city="sydney"):
    return CameraMeta(
        camera_id=camera_id,
        city=city,
        latitude=-33.87,
        longitude=151.21,
        refresh_interval=refresh,
    )


class TestSchedule:
    def test_sydney_30s(self):
        # 10:00:00 inside the 06:00-18:00 window, 0.9 * 30 = 27
        assert schedule_next_fetch(camera(30), T0) == T0 + timedelta(seconds=27)

    def test_10s_refresh(self):
        assert schedule_next_fetch(camera(10), T0) == T0 + timedelta(seconds=9)

    def test_outside_window_skips_to_next_open(self):
        evening = T0.replace(hour=19)
        decision = schedule_next_fetch(camera(), evening)
        assert isinstance(decision, Skip)
        assert decision.next_open == evening.replace(hour=6) + timedelta(days=1)

    def test_before_window_skips_to_same_day(self):
        early = T0.replace(hour=4)
        decision = schedule_next_fetch(camera(), early)
        assert decision == Skip(early.replace(hour=6))

    def test_clamped_to_one_second(self):
        assert schedule_next_fetch(camera(1.0), T0) == T0 + timedelta(seconds=1)

    def test_tz_offset_shifts_window(self):
        # 19:00 UTC is 10:00 local at offset +15... use -9 to land at 10:00
        decision = schedule_next_fetch(camera(), T0.replace(hour=19), tz_offset_hours=-9)
        assert decision == T0.replace(hour=19) + timedelta(seconds=27)

    def test_never_misses_a_refresh(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            refresh = float(rng.uniform(1.0, 600.0))
            now = T0 + timedelta(seconds=float(rng.uniform(0, 3600 * 7)))
            nxt = schedule_next_fetch(camera(refresh), now)
            assert nxt < now + timedelta(seconds=refresh)


class TestDedup:
    def test_identical(self):
        dup0, h = dedup_check(b"abc", None)
        dup1, _ = dedup_check(b"abc", h)
        assert not dup0 and dup1

    def test_one_byte_differs(self):
        _, h = dedup_check(b"abc", None)
        dup, h2 = dedup_check(b"abd", h)
        assert not dup and h2 != h

    def test_corpus_duplicate_count(self, tmp_path):
        # oracle: byte-equality scan over consecutive frames
        rng = np.random.default_rng(1)
        frames = []
        for i in range(90):
            frames.append(b"frame-%03d-" % i + rng.bytes(32))
        for pos in sorted(rng.choice(89, size=10, replace=False), reverse=True):
            frames.insert(pos + 1, frames[pos])
        assert len(frames) == 100
        expected = sum(a == b for a, b in zip(frames, frames[1:]))
        assert expected == 10

    # replay through the store and count duplicate statuses
        store = FrameStore(tmp_path)
        cam = camera()
        statuses = [
            store.store_frame(cam, T0 + timedelta(seconds=30 * i), data).status
            for i, data in enumerate(frames)
        ]
        assert statuses.count("duplicate") == expected


class TestStoreFrame:
    def test_fresh_image(self, tmp_path):
        data = bytes(40960)
        rec = FrameStore(tmp_path).store_frame(camera(), T0, data)
        assert rec.status == "stored" and rec.byte_size == 40960
        assert (tmp_path / rec.relative_path).read_bytes() == data
        assert rec.relative_path == "sydney/syd-001/20240301/100000.bin"

    def test_empty_bytes_fail_without_write(self, tmp_path):
        rec = FrameStore(tmp_path).store_frame(camera(), T0, b"")
        assert rec.status == "failed" and rec.byte_size == 0
        assert not (tmp_path / rec.relative_path).exists()

    def test_duplicate_second_call(self, tmp_path):
        store = FrameStore(tmp_path)
        store.store_frame(camera(), T0, b"same-bytes")
        rec = store.store_frame(camera(), T0 + timedelta(seconds=30), b"same-bytes")
        assert rec.status == "duplicate"

    def test_out_of_order(self, tmp_path):
        store = FrameStore(tmp_path)
        store.store_frame(camera(), T0, b"x")
        with pytest.raises(OutOfOrderTimestamp):
            store.store_frame(camera(), T0, b"y")

    def test_returned_record_is_the_one_read_back(self, tmp_path):
        rec = FrameStore(tmp_path).store_frame(camera(), T0 + timedelta(seconds=0.25), b"x")
        assert rec.captured_at == T0
        assert scan_manifest(tmp_path, city="sydney") == [rec]

    def test_same_second_is_out_of_order(self, tmp_path):
        store = FrameStore(tmp_path)
        first = store.store_frame(camera(), T0 + timedelta(seconds=0.3), b"x")
        with pytest.raises(OutOfOrderTimestamp):
            store.store_frame(camera(), T0 + timedelta(seconds=0.7), b"y")
        assert (tmp_path / first.relative_path).read_bytes() == b"x"
        assert len(scan_manifest(tmp_path, city="sydney")) == 1
        assert store.store_frame(camera(), T0 + timedelta(seconds=1), b"y").status == "stored"

    def test_reopened_store_remembers_last(self, tmp_path):
        FrameStore(tmp_path).store_frame(camera(), T0, b"x")
        with pytest.raises(OutOfOrderTimestamp):
            FrameStore(tmp_path).store_frame(camera(), T0 - timedelta(seconds=1), b"y")

    def test_torn_manifest_in_one_city_does_not_block_another(self, tmp_path):
        FrameStore(tmp_path).store_frame(camera(city="a"), T0, b"x")
        manifest = tmp_path / "a" / "manifest.jsonl"
        with manifest.open("a") as fh:
            fh.write('{"camera_id": "syd-001", "captured')
        store = FrameStore(tmp_path)
        rec = store.store_frame(camera(city="b"), T0, b"x")
        assert rec.status == "stored"
        with pytest.raises(CorruptManifest, match=re.escape(f"{manifest}:2: ")):
            store.store_frame(camera(city="a"), T0 + timedelta(seconds=1), b"y")

    def test_last_line_without_newline_is_refused(self, tmp_path):
        FrameStore(tmp_path).store_frame(camera(), T0, b"x")
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        manifest.write_bytes(manifest.read_bytes().rstrip(b"\n"))
        before = sorted(tmp_path.rglob("*")), manifest.read_bytes()
        with pytest.raises(CorruptManifest, match=re.escape(f"{manifest}:1: ")):
            FrameStore(tmp_path).store_frame(camera(), T0 + timedelta(seconds=1), b"y")
        assert (sorted(tmp_path.rglob("*")), manifest.read_bytes()) == before

    def test_two_stores_interleave_whole_lines(self, tmp_path):
        first, second = FrameStore(tmp_path), FrameStore(tmp_path)
        for i in range(10):
            t = T0 + timedelta(seconds=i)
            first.store_frame(camera(camera_id="a"), t, b"a%d" % i)
            second.store_frame(camera(camera_id="b"), t, b"" if i % 3 else b"b")
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        lines = manifest.read_bytes().split(b"\n")
        assert lines.pop() == b""
        records = [ManifestRecord.from_json(line.decode()) for line in lines]
        assert [(r.camera_id, r.captured_at) for r in records] == [
            (cam, T0 + timedelta(seconds=i)) for i in range(10) for cam in "ab"
        ]
        assert scan_manifest(tmp_path, city="sydney") == sorted(records, key=lambda r: r.camera_id)

    def test_makes_each_directory_once(self, tmp_path, monkeypatch):
        (tmp_path / "sydney" / "syd-001").mkdir(parents=True)  # no recursive calls below
        made = []
        mkdir = Path.mkdir
        monkeypatch.setattr(Path, "mkdir", lambda path, *a, **k: made.append(path) or mkdir(path, *a, **k))
        store = FrameStore(tmp_path)
        for i in range(6):  # 10:00 to 16:00 the next day
            store.store_frame(camera(), T0 + timedelta(hours=6 * i), b"%d" % i)
        days = tmp_path / "sydney" / "syd-001"
        assert made == [tmp_path / "sydney", days / "20240301", days / "20240302"]

    def test_camera_id_reused_in_another_city_is_a_separate_stream(self, tmp_path):
        FrameStore(tmp_path).store_frame(camera(city="a"), T0, b"same-bytes")
        store = FrameStore(tmp_path)
        rec = store.store_frame(camera(city="b"), T0 - timedelta(seconds=1), b"same-bytes")
        assert rec.status == "stored"
        assert rec.relative_path.startswith("b/syd-001/")
        with pytest.raises(OutOfOrderTimestamp):
            store.store_frame(camera(city="a"), T0, b"other")
        dup = store.store_frame(camera(city="a"), T0 + timedelta(seconds=1), b"same-bytes")
        assert dup.status == "duplicate"


UNSAFE_IDS = ["", ".", "..", "../../esc", "a/b", "a\\b", "a,b", "a\tb", "a\x00b", "a\x85b"]
# surrogates that no file name can hold, though a JSON catalog can escape them
UNSAFE_IDS += ["cam\ud800", "\udfff", "a\udc7fb", "cam\udd00"]


class TestCameraIds:
    @pytest.mark.parametrize("bad", UNSAFE_IDS)
    @pytest.mark.parametrize("field", ["camera_id", "city"])
    def test_unsafe_id_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            camera(**{field: bad})

    # U+DC80-U+DCFF: argv's undecodable bytes under surrogateescape
    @pytest.mark.parametrize("good", ["syd-001", "cam 1", "...", "a.b", "東京", "x_y+z", "cam\udc80", "caf\udce9"])
    def test_safe_id_accepted(self, tmp_path, good):
        rec = FrameStore(tmp_path).store_frame(camera(camera_id=good, city=good), T0, b"x")
        assert rec.camera_id == good and (tmp_path / good / good).is_dir()

    def test_surrogate_rejected_unless_a_file_name_can_hold_it(self):
        for code in range(0xD800, 0xE000):
            try:
                chr(code).encode("utf-8", "surrogateescape")
            except UnicodeEncodeError:
                with pytest.raises(ValueError, match="camera_id"):
                    camera(camera_id=f"cam{chr(code)}")
            else:
                assert camera(camera_id=f"cam{chr(code)}").camera_id == f"cam{chr(code)}"

    def test_escaping_id_stores_nothing(self, tmp_path):
        root = tmp_path / "a" / "b" / "data"
        with pytest.raises(ValueError):
            FrameStore(root).store_frame(camera(camera_id="../../esc"), T0, b"x")
        assert not any(tmp_path.rglob("*.bin"))


def record_line(**changes):
    """A manifest line FrameStore could write for sydney's syd-001 at
    10:00:01, with changes applied."""
    obj = {
        "camera_id": "syd-001",
        "captured_at": "2024-03-01T10:00:01Z",
        "relative_path": "sydney/syd-001/20240301/100001.pgm",
        "byte_size": 1,
        "content_hash": "h",
        "status": "stored",
    }
    obj.update(changes)
    return json.dumps(obj)


class TestScanManifest:
    def test_empty_root(self, tmp_path):
        assert scan_manifest(tmp_path, city="sydney") == []

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingManifest):
            scan_manifest(tmp_path / "nope", city="sydney")

    def test_no_hidden_status_filtering(self, tmp_path):
        store = FrameStore(tmp_path)
        cam = camera()
        for i, data in enumerate([b"a", b"b", b"c", b""]):
            store.store_frame(cam, T0 + timedelta(seconds=i), data)
        records = scan_manifest(tmp_path, city="sydney")
        assert len(records) == 4
        assert sum(r.status == "stored" for r in records) == 3

    def test_sorted_permutation(self, tmp_path):
        store = FrameStore(tmp_path)
        cams = [camera(camera_id="b-cam"), camera(camera_id="a-cam")]
        written = []
        for i in range(5):
            for cam in cams:
                rec = store.store_frame(cam, T0 + timedelta(seconds=30 * i), b"%d" % i + cam.camera_id.encode())
                written.append((rec.camera_id, rec.captured_at))
        records = scan_manifest(tmp_path, city="sydney")
        key = [(r.camera_id, r.captured_at) for r in records]
        assert key == sorted(written)

    def test_filters_conjunctive(self, tmp_path):
        store = FrameStore(tmp_path)
        store.store_frame(camera(), T0, b"x")
        store.store_frame(camera(camera_id="ldn-1", city="london"), T0, b"y")
        assert len(scan_manifest(tmp_path, city="london")) == 1

    def test_manifest_is_jsonl_with_exact_fields(self, tmp_path):
        store = FrameStore(tmp_path)
        store.store_frame(camera(), T0, b"x")
        line = (tmp_path / "sydney" / "manifest.jsonl").read_text().strip()
        obj = json.loads(line)
        assert set(obj) == {
            "camera_id", "captured_at", "relative_path", "byte_size", "content_hash", "status",
        }
        assert obj["content_hash"] == obj["content_hash"].lower()

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"camera_id": "syd-001", "captured',  # torn JSON
            '{"camera_id": "syd-001", "captured_at": "2024-03-01 10:00:00", '
            '"relative_path": "p", "byte_size": 1, "content_hash": "h", "status": "stored"}',
            '{"camera_id": "syd-001", "relative_path": "p", "byte_size": 1, '
            '"content_hash": "h", "status": "stored"}',  # no captured_at
            "[1, 2, 3]",
            record_line(
                camera_id="../../escaped",
                relative_path="sydney/../../escaped/20240301/100001.pgm",
            ),
            record_line(relative_path="../outside.pgm"),
            record_line(relative_path="sydney/syd-002/20240301/100001.pgm"),
            record_line(relative_path="sydney/syd-001/20240301/100002.pgm"),
            record_line(relative_path="sydney/syd-001/20240301/100001.exe"),
            record_line(relative_path=7),
            record_line(status="weird"),
            record_line(byte_size=-1),
            record_line(byte_size=1.5),
            record_line(byte_size="1"),
        ],
        ids=[
            "torn", "bad_captured_at", "missing_key", "not_an_object", "unsafe_camera_id",
            "path_outside_root", "path_of_other_camera", "path_of_other_time",
            "unknown_extension", "path_not_a_string", "unknown_status", "negative_byte_size",
            "fractional_byte_size", "byte_size_not_a_number",
        ],
    )
    def test_corrupt_line_names_path_and_line(self, tmp_path, bad_line):
        store = FrameStore(tmp_path)
        store.store_frame(camera(), T0, b"x")
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        with manifest.open("a") as fh:
            fh.write(bad_line + "\n")
        with pytest.raises(CorruptManifest, match=re.escape(f"{manifest}:2: ")):
            scan_manifest(tmp_path, city="sydney")

    def test_unchanged_record_line_is_read(self, tmp_path):
        # the lines above are refused for their one change, not for their
        # base; a key that is not a field is ignored
        (tmp_path / "sydney").mkdir()
        (tmp_path / "sydney" / "manifest.jsonl").write_text(record_line(note="x") + "\n")
        [rec] = scan_manifest(tmp_path, city="sydney")
        assert (rec.camera_id, rec.relative_path, rec.byte_size, rec.status) == (
            "syd-001", "sydney/syd-001/20240301/100001.pgm", 1, "stored"
        )


    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_lines_are_separated_by_newline_only(self, tmp_path, char):
        first = FrameStore(tmp_path).store_frame(camera(), T0, b"x")
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        line = json.dumps({**json.loads(record_line()), "note": f"a{char}b"}, ensure_ascii=False)
        with manifest.open("ab") as fh:
            fh.write(line.encode("utf-8") + b"\r\n")
        records = scan_manifest(tmp_path, city="sydney")
        assert [r.relative_path for r in records] == [
            first.relative_path, "sydney/syd-001/20240301/100001.pgm"
        ]
        with manifest.open("ab") as fh:
            fh.write(b"[1]\n")
        with pytest.raises(CorruptManifest, match=re.escape(f"{manifest}:3: ")):
            scan_manifest(tmp_path, city="sydney")

    def test_first_bad_line_in_file_order_is_named(self, tmp_path):
        FrameStore(tmp_path).store_frame(camera(), T0, b"x")
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        with manifest.open("ab") as fh:
            fh.write(b'{"camera_id": "syd-001", "captured\n\xff\n')
        with pytest.raises(CorruptManifest, match=re.escape(f"{manifest}:2: bad manifest record")):
            scan_manifest(tmp_path, city="sydney")

    def test_not_utf8_names_the_line_and_the_file_offset(self, tmp_path):
        FrameStore(tmp_path).store_frame(camera(), T0, b"x")
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        offset = manifest.stat().st_size + len('{"camera_id": "')
        with manifest.open("ab") as fh:
            fh.write(b'{"camera_id": "\xff"}\n')
        text = f"{manifest}:2: not UTF-8 text (invalid start byte at byte {offset})"
        with pytest.raises(CorruptManifest, match=re.escape(text)):
            scan_manifest(tmp_path, city="sydney")

    def test_records_equal_a_whole_file_read(self, tmp_path):
        rng = np.random.default_rng(11)
        store = FrameStore(tmp_path)
        for k in range(200):
            for c in map(int, rng.permutation(4)):
                data = [b"", b"a", b"b", b"c%d" % k][rng.integers(4)]
                store.store_frame(camera(camera_id=f"cam{c}"), T0 + timedelta(seconds=30 * k + c), data)
        # the whole-file read that scan_manifest replaced, as the reference
        text = (tmp_path / "sydney" / "manifest.jsonl").read_text("utf-8")
        reference = [ManifestRecord.from_json(line) for line in text.splitlines()]
        reference.sort(key=lambda r: (r.camera_id, r.captured_at))
        records = scan_manifest(tmp_path, city="sydney")
        assert records == reference and len(records) == 800
        # records share one string per camera_id and per status
        assert len({id(r.camera_id) for r in records}) == 4
        assert len({id(r.status) for r in records}) == 3
        with pytest.raises(FrozenInstanceError):
            records[0].status = "failed"
        assert not hasattr(records[0], "__dict__")


def json_path_record(line: str) -> ManifestRecord:
    """The record of a manifest line by json.loads alone: the path that
    ManifestRecord.from_json takes for a line not in to_json's layout."""
    obj = json.loads(line)
    obj["captured_at"] = parse_rfc3339(obj["captured_at"])
    return ManifestRecord(*[obj[f.name] for f in fields(ManifestRecord)])


def json_path_refusal(line: str, city: str) -> str:
    """What scan_manifest says of a bad line read by json_path_record."""
    try:
        _check_record(json_path_record(line), city)
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad manifest record ({type(exc).__name__}: {exc})"
    raise AssertionError(f"{line!r} is a good line")


class TestManifestLineLayout:
    """from_json reads a line in to_json's layout with one pattern; every
    other line, and every record, must come out as json_path_record's."""

    def generated_records(self, count):
        rng = np.random.default_rng(29)
        lo = datetime(1, 1, 1, tzinfo=timezone.utc)
        span = (datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc) - lo) // timedelta(seconds=1)
        sizes = [0, 1, 10**17, 10**18 - 1]  # 18 digits at most take the pattern
        for k in range(count):
            t = lo + timedelta(seconds=int(rng.integers(span)))
            status = STATUSES[k % 3]
            cam = f"cam-{k % 7}"
            size = sizes[k] if k < len(sizes) else int(rng.integers(1 << 40))
            digest = "" if status == "failed" else "%064x" % int(rng.integers(1 << 62))
            ext = EXTENSIONS[k % len(EXTENSIONS)]
            yield ManifestRecord(cam, t, layout_path("sydney", cam, t, ext), size, digest, status)

    def test_canonical_lines_give_the_json_path_records(self):
        for rec in self.generated_records(600):
            line = rec.to_json()
            assert _CANONICAL_LINE.fullmatch(line)
            for text in (line, line + "\n", line + "\r\n"):  # CRLF takes json.loads
                got = ManifestRecord.from_json(text)
                assert got == rec == json_path_record(text)
                _check_record(got, "sydney")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: {**obj, "camera_id": "cam\u6771"},  # json.dumps escapes it
            lambda obj: {**obj, "camera_id": "a\u2028b"},
            lambda obj: {**obj, "byte_size": 10**18},  # 19 digits
            lambda obj: {**obj, "note": "x"},
        ],
        ids=["non-ascii-id", "line-separator-id", "19-digit-size", "extra-key"],
    )
    def test_other_lines_take_the_json_path(self, edit):
        for rec in self.generated_records(30):
            obj = edit(json.loads(rec.to_json()))
            reordered = json.dumps(dict(reversed(obj.items())))
            for line in (json.dumps(obj, sort_keys=True), reordered):
                assert ManifestRecord.from_json(line) == json_path_record(line)

    @pytest.mark.parametrize(
        "line",
        [
            record_line(captured_at="2024-03-01 10:00:01Z"),
            record_line(captured_at="2024-03-01T10:00:61Z"),
            record_line(captured_at="2024-13-01T10:00:01Z"),
            record_line(status="weird"),
            record_line(relative_path="sydney/syd-002/20240301/100001.pgm"),
        ],
        ids=["bad-captured_at", "second-61", "month-13", "unknown-status", "other-camera-path"],
    )
    def test_canonical_bad_lines_are_refused_as_by_the_json_path(self, tmp_path, line):
        line = json.dumps(json.loads(line), sort_keys=True)
        assert _CANONICAL_LINE.fullmatch(line)
        self.assert_refused_as_by_the_json_path(tmp_path, line)

    def test_size_with_a_leading_zero_is_refused_as_by_the_json_path(self, tmp_path):
        line = json.dumps(json.loads(record_line(byte_size=7)), sort_keys=True)
        self.assert_refused_as_by_the_json_path(tmp_path, line.replace(": 7,", ": 007,"))

    def assert_refused_as_by_the_json_path(self, tmp_path, line):
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        manifest.parent.mkdir()
        manifest.write_text(line + "\n")
        text = f"{manifest}:1: {json_path_refusal(line, 'sydney')}"
        with pytest.raises(CorruptManifest) as info:
            scan_manifest(tmp_path, city="sydney")
        assert str(info.value) == text

    @pytest.mark.parametrize("year", [1, 999])
    def test_years_before_1000_round_trip(self, tmp_path, year):
        t = datetime(year, 1, 1, 6, tzinfo=timezone.utc)
        rec = FrameStore(tmp_path).store_frame(camera(), t, b"x")
        assert rec.relative_path == f"sydney/syd-001/{year:04d}0101/060000.bin"
        line = (tmp_path / "sydney" / "manifest.jsonl").read_text()
        assert f'"captured_at": "{year:04d}-01-01T06:00:00Z"' in line
        assert scan_manifest(tmp_path, city="sydney") == [rec]
        resumed = FrameStore(tmp_path)
        with pytest.raises(OutOfOrderTimestamp):
            resumed.store_frame(camera(), t, b"y")
        assert resumed.store_frame(camera(), t + timedelta(seconds=1), b"x").status == "duplicate"


class TestManifestMemory:
    def test_resume_does_not_hold_the_manifest(self, tmp_path):
        # warm takes the allocations of a first store, which neither peak should count
        for city, lines in (("warm", 10), ("large", 8000), ("small", 1000)):
            (tmp_path / city).mkdir()
            with (tmp_path / city / "manifest.jsonl").open("w") as fh:
                for i in range(lines):
                    ts = T0 + timedelta(seconds=i)
                    cam = f"cam{i % 3}"
                    rel = f"{city}/{cam}/20240301/{ts:%H%M%S}.bin"
                    fh.write(ManifestRecord(cam, ts, rel, 9, "%064x" % i, "stored").to_json() + "\n")
        peaks = {}
        for city in ("warm", "large", "small"):
            store = FrameStore(tmp_path)
            tracemalloc.start()
            try:
                store.store_frame(camera(camera_id="cam0", city=city), T0 + timedelta(hours=5), b"x")
                peaks[city] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["large"] - peaks["small"] < 64 * 1024

    def test_scan_peak_per_record(self, tmp_path):
        store = FrameStore(tmp_path)
        for c in range(12):
            for k in range(720):
                data = b"frame %d" % (k // 360)  # two stored, the rest duplicates
                store.store_frame(camera(camera_id=f"cam{c:02d}"), T0 + timedelta(minutes=k), data)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            records = scan_manifest(tmp_path, city="sydney")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(records) == 12 * 720
        assert peak / len(records) <= 600

    def test_reopened_store_resumes_each_camera(self, tmp_path):
        rng = np.random.default_rng(5)
        source = FrameStore(tmp_path / "source")
        # each camera's last frames; None repeats its last stored bytes, a duplicate
        endings = {"a": [b"fresh"], "b": [None, None], "c": [b""], "d": [b"", None]}
        last_stored = {}
        for cam_id, ending in endings.items():
            payloads = [[b"", b"p", b"q", b"r"][i] for i in rng.integers(4, size=20)] + ending
            for i, data in enumerate(payloads):
                data = last_stored.get(cam_id, b"p") if data is None else data
                rec = source.store_frame(camera(camera_id=cam_id), T0 + timedelta(seconds=i), data)
                if rec.status == "stored":
                    last_stored[cam_id] = data
        lines = (tmp_path / "source" / "sydney" / "manifest.jsonl").read_text().splitlines()
        # the cameras' lines interleaved in a seeded order, and two stored
        # records of camera e in one second, of which the later line counts
        lines = [lines[i] for i in rng.permutation(len(lines))]
        e1, e2 = (
            ManifestRecord("e", T0, "sydney/e/20240301/100000.bin", 2, dedup_check(data, None)[1], "stored")
            for data in (b"e1", b"e2")
        )
        lines.insert(int(rng.integers(len(lines))), e1.to_json())
        lines.append(e2.to_json())
        (tmp_path / "sydney").mkdir()
        (tmp_path / "sydney" / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        last_ts = {cam_id: T0 + timedelta(seconds=19 + len(e)) for cam_id, e in endings.items()}
        last_ts["e"], last_stored["e"] = T0, b"e2"
        store = FrameStore(tmp_path)
        for cam_id, ts in last_ts.items():
            cam = camera(camera_id=cam_id)
            with pytest.raises(OutOfOrderTimestamp):
                store.store_frame(cam, ts, b"new")
            assert store.store_frame(cam, ts + timedelta(seconds=1), last_stored[cam_id]).status == "duplicate"
            assert store.store_frame(cam, ts + timedelta(seconds=2), b"new").status == "stored"


class TestRfc3339:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for first_year in (1970, 1):
            lo = datetime(first_year, 1, 1, tzinfo=timezone.utc)
            span = (datetime(first_year + 230, 1, 1, tzinfo=timezone.utc) - lo).total_seconds()
            for s in rng.integers(0, int(span), 1000):
                t = lo + timedelta(seconds=int(s))
                text = format_rfc3339(t)
                assert parse_rfc3339(text) == t
                assert text == "%04d-%02d-%02dT%02d:%02d:%02dZ" % t.timetuple()[:6]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2024-01-01 06:00:00Z",
            "2024-01-01T06:00:00",
            "2024-1-1T6:0:0Z",
            "2024-01-01T06:00:00Zx",
            "2024-13-01T06:00:00Z",
            "2024-01-01T06:00:00Z\n",
        ],
    )
    def test_rejects_other_layouts(self, text):
        with pytest.raises(ValueError):
            parse_rfc3339(text)


class TestCatalog:
    def test_load_catalog(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "camera_id": "syd-001",
                        "city": "sydney",
                        "latitude": -33.9,
                        "longitude": 151.2,
                        "refresh_interval": 30,
                        "daylight_window": ["07:00", "17:00"],
                    }
                ]
            )
        )
        (cam,) = load_catalog(path)
        assert cam.daylight_window == (time(7), time(17))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        entry = {
            "camera_id": "x", "city": "c", "latitude": 0, "longitude": 0, "refresh_interval": 5,
        }
        path.write_text(json.dumps([entry, entry]))
        with pytest.raises(ValueError):
            load_catalog(path)
        with pytest.raises(CorruptCatalog, match=re.escape(f"{path}: duplicate camera_id")):
            load_catalog(path)

    @pytest.mark.parametrize("bad", ["..", "a,b", 7, "cam\ud800"])
    @pytest.mark.parametrize("field", ["camera_id", "city"])
    def test_unsafe_id_names_the_catalog(self, tmp_path, field, bad):
        path = tmp_path / "catalog.json"
        entry = {
            "camera_id": "x", "city": "c", "latitude": 0, "longitude": 0, "refresh_interval": 5,
        }
        path.write_text(json.dumps([entry, {**entry, "camera_id": "y", field: bad}]))
        with pytest.raises(DensigraphError, match=re.escape(f"{path}: entry 1: ")):
            load_catalog(path)


def fake_clock():
    """A clock at T0 that only sleep advances, by at least 1 s a call."""
    now = [T0]

    def sleep(seconds):
        now[0] += timedelta(seconds=max(seconds, 1))

    return lambda: now[0], sleep


class TestCrawl:
    def test_injected_clock_and_fetch(self, tmp_path):
        clock, sleep = fake_clock()
        bodies = iter(b"img-%d" % i for i in range(10_000))

        def fetch(url):
            return next(bodies)

        cam = camera(refresh=10.0)
        cam = CameraMeta(
            camera_id=cam.camera_id, city=cam.city, latitude=0, longitude=0,
            refresh_interval=10.0, source_url="http://example/cam.jpg",
        )
        store = FrameStore(tmp_path)
        records = crawl([cam], store, duration_seconds=60, fetch=fetch, clock=clock, sleep=sleep)
        # 0.9 * 10 = 9 s cadence over 60 s of fake time
        assert len(records) >= 6
        assert all(r.status == "stored" for r in records)

    def test_cameras_from_a_generator(self, tmp_path):
        clock, sleep = fake_clock()
        cams = (
            CameraMeta(
                camera_id=f"cam{i}", city="sydney", latitude=0, longitude=0,
                refresh_interval=10.0, source_url=f"http://example/cam{i}.jpg",
            )
            for i in range(2)
        )
        records = crawl(
            cams, FrameStore(tmp_path), duration_seconds=60,
            fetch=lambda url: url.encode(), clock=clock, sleep=sleep,
        )
        assert {r.camera_id for r in records} == {"cam0", "cam1"}
        assert len(records) >= 12
