import json
import re
from datetime import datetime, time, timedelta, timezone

import numpy as np
import pytest

from densigraph.errors import CorruptManifest, MissingManifest, OutOfOrderTimestamp
from densigraph.ingestion import (
    CameraMeta,
    FrameStore,
    Skip,
    crawl,
    dedup_check,
    format_rfc3339,
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

    def test_reopened_store_remembers_last(self, tmp_path):
        FrameStore(tmp_path).store_frame(camera(), T0, b"x")
        with pytest.raises(OutOfOrderTimestamp):
            FrameStore(tmp_path).store_frame(camera(), T0 - timedelta(seconds=1), b"y")


class TestScanManifest:
    def test_empty_root(self, tmp_path):
        assert scan_manifest(tmp_path) == []

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingManifest):
            scan_manifest(tmp_path / "nope")

    def test_no_hidden_status_filtering(self, tmp_path):
        store = FrameStore(tmp_path)
        cam = camera()
        for i, data in enumerate([b"a", b"b", b"c", b""]):
            store.store_frame(cam, T0 + timedelta(seconds=i), data)
        records = scan_manifest(tmp_path)
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
        records = scan_manifest(tmp_path)
        key = [(r.camera_id, r.captured_at) for r in records]
        assert key == sorted(written)

    def test_filters_conjunctive(self, tmp_path):
        store = FrameStore(tmp_path)
        store.store_frame(camera(), T0, b"x")
        store.store_frame(camera(camera_id="ldn-1", city="london"), T0, b"y")
        assert len(scan_manifest(tmp_path, city="london")) == 1
        assert len(scan_manifest(tmp_path, camera_id="syd-001", city="london")) == 0
        window = (T0 - timedelta(seconds=1), T0 + timedelta(seconds=1))
        assert len(scan_manifest(tmp_path, time_range=window)) == 2

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
        ],
        ids=["torn", "bad_captured_at", "missing_key", "not_an_object"],
    )
    def test_corrupt_line_names_path_and_line(self, tmp_path, bad_line):
        store = FrameStore(tmp_path)
        store.store_frame(camera(), T0, b"x")
        manifest = tmp_path / "sydney" / "manifest.jsonl"
        with manifest.open("a") as fh:
            fh.write(bad_line + "\n")
        with pytest.raises(CorruptManifest, match=re.escape(f"{manifest}:2: ")):
            scan_manifest(tmp_path)


class TestRfc3339:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        lo = datetime(1970, 1, 1, tzinfo=timezone.utc)
        span = (datetime(2200, 1, 1, tzinfo=timezone.utc) - lo).total_seconds()
        for s in rng.integers(0, int(span), 1000):
            t = lo + timedelta(seconds=int(s))
            assert parse_rfc3339(format_rfc3339(t)) == t

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


class TestCrawl:
    def test_injected_clock_and_fetch(self, tmp_path):
        fake_now = [T0]

        def clock():
            return fake_now[0]

        def sleep(seconds):
            fake_now[0] += timedelta(seconds=max(seconds, 1))

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
