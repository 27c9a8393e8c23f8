import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from densigraph import ingestion, synth
from densigraph.cli import Config, run
from densigraph.pgmio import write_p5


def run_ok(*argv):
    code = run(list(argv))
    assert code == 0, argv
    return code


@pytest.fixture()
def corpus(tmp_path):
    scene = synth.random_scene_spec(5, frame_count=150)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(scene.to_json())
    root = tmp_path / "data"
    run_ok(
        "--set", f"data_root={root}",
        "synth", "--scene", str(scene_path), "--city", "sydney", "--camera-id", "cam1",
    )
    return root


class TestPipeline:
    def test_synth_writes_layout_and_manifest(self, corpus):
        assert (corpus / "sydney" / "manifest.jsonl").exists()
        frames = list((corpus / "sydney" / "cam1").rglob("*.pgm"))
        assert len(frames) == 150

    def test_density_row_count_matches_frames(self, corpus):
        run_ok("--set", f"data_root={corpus}", "clean", "--city", "sydney")
        run_ok("--set", f"data_root={corpus}", "density", "--city", "sydney")
        trace = (corpus / "sydney" / "density" / "cam1.csv").read_text()
        assert len(trace.strip().splitlines()) == 151  # header + 150 rows

    def test_full_pipeline_and_report(self, corpus):
        for cmd in ("clean", "density", "fit", "lrd", "report"):
            run_ok("--set", f"data_root={corpus}", cmd, "--city", "sydney")
        report = json.loads((corpus / "sydney" / "report" / "summary.json").read_text())
        assert report["city"] == "sydney"
        assert "cam1" in report["fits"] and "sydney" in report["fits"]
        cdf = (corpus / "sydney" / "report" / "cdf_cam1.csv").read_text()
        assert cdf.splitlines()[0].startswith("x,empirical,")

    def test_repeat_runs_byte_identical(self, corpus):
        stages = ("clean", "density", "fit", "lrd", "report")
        for cmd in stages:
            run_ok("--set", f"data_root={corpus}", cmd, "--city", "sydney")
        first = {
            p.relative_to(corpus): p.read_bytes()
            for p in sorted(corpus.rglob("*"))
            if p.is_file() and p.name != "manifest.jsonl"
        }
        for cmd in stages:
            run_ok("--set", f"data_root={corpus}", cmd, "--city", "sydney")
        second = {
            p.relative_to(corpus): p.read_bytes()
            for p in sorted(corpus.rglob("*"))
            if p.is_file() and p.name != "manifest.jsonl"
        }
        assert first == second

    def test_clean_with_labels_removes_injected_outliers(self, corpus, tmp_path):
        import numpy as np

        from densigraph.ingestion import CameraMeta, FrameStore
        from densigraph.pgmio import write_p5
        from datetime import datetime, timedelta, timezone

        # append error-template frames to the stored corpus
        store = FrameStore(corpus)
        cam = CameraMeta("cam1", "sydney", 0.0, 0.0, 60.0)
        t = datetime(2024, 6, 1, tzinfo=timezone.utc)
        template = write_p5(np.full((100, 100), 245, dtype=np.uint8))
        injected = []
        for i in range(5):
            rec = store.store_frame(cam, t + timedelta(seconds=i), template + bytes([i]))
            injected.append(rec.relative_path)
        regular_path = next(
            r.relative_path
            for r in __import__("densigraph.ingestion", fromlist=["scan_manifest"]).scan_manifest(corpus)
            if r.relative_path not in injected
        )
        labels = [{"relative_path": regular_path, "label": "regular"}] + [
            {"relative_path": injected[0], "label": "outlier"}
        ]
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps(labels))
        run_ok(
            "--set", f"data_root={corpus}",
            "clean", "--city", "sydney", "--labels", str(labels_path),
        )
        removed = (corpus / "sydney" / "removed.csv").read_text()
        for path in injected:
            assert f"{path},ClusterOutlier" in removed


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_data_is_data_error(self, tmp_path):
        assert run(["--set", f"data_root={tmp_path}", "density", "--city", "nowhere"]) == 2

    def test_bad_config_key(self, tmp_path):
        assert run(["--set", "bogus=1", "density", "--city", "x"]) == 1

    @pytest.mark.parametrize(
        "setting",
        ["tau=-50", "tau=nan", "tau=inf", "window_z=1", "window_z=0", "jobs=2"],
    )
    def test_bad_config_value(self, tmp_path, setting, capsys):
        argv = ["--set", f"data_root={tmp_path}", "--set", setting, "density", "--city", "x"]
        assert run(argv) == 1
        assert setting.partition("=")[0] in capsys.readouterr().err

    def test_config_file_ignores_unknown_keys(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"jobs": 2, "tau": 10}))
        assert Config.load(str(cfg), []).tau == 10.0

    def test_bad_config_file_value(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"tau": -1}))
        assert run(["--config", str(cfg), "density", "--city", "x"]) == 1

    def test_env_var_overrides_file(self, tmp_path, monkeypatch, corpus):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"data_root": str(tmp_path / "wrong")}))
        monkeypatch.setenv("DENSIGRAPH_ROOT", str(corpus))
        run_ok("--config", str(cfg), "clean", "--city", "sydney")
        assert (corpus / "sydney" / "removed.csv").exists()


def store_city(root, payloads_by_camera, city="testcity"):
    """Store each camera's frame bytes one minute apart through FrameStore."""
    store = ingestion.FrameStore(root)
    t0 = datetime(2024, 1, 1, 6, tzinfo=timezone.utc)
    for camera_id, payloads in payloads_by_camera.items():
        camera = ingestion.CameraMeta(camera_id, city, 0.0, 0.0, 60.0)
        for i, data in enumerate(payloads):
            store.store_frame(camera, t0 + timedelta(minutes=i), data)


def random_frames(seed, count, shape=(8, 8)):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, shape, dtype=np.uint8) for _ in range(count)]


class TestDensityStage:
    def test_scans_manifest_once(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        store_city(root, {f"cam{i}": map(write_p5, random_frames(i, 12)) for i in range(3)})
        calls = []
        scan = ingestion.scan_manifest

        def counting_scan(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(ingestion, "scan_manifest", counting_scan)
        run_ok("--set", f"data_root={root}", "--set", "window_z=4", "density", "--city", "testcity")
        assert len(calls) == 1
        for i in range(3):
            trace = (root / "testcity" / "density" / f"cam{i}.csv").read_text()
            assert len(trace.splitlines()) == 13

    def test_undecodable_frame_in_window_is_skipped(self, tmp_path):
        # oracle: mean of the first z decodable frames, thresholded by hand
        z, tau = 4, 25.0
        arrays = random_frames(5, 10)
        payloads = [write_p5(a) for a in arrays]
        payloads.insert(2, b"not an image")
        root = tmp_path / "data"
        store_city(root, {"cam1": payloads})
        run_ok("--set", f"data_root={root}", "--set", f"window_z={z}", "density", "--city", "testcity")
        bg = np.stack(arrays[:z]).astype(np.float64).mean(axis=0)
        expected = []
        for a in arrays:
            diff = a - bg
            expected.append(int(np.rint(diff[diff > tau]).sum()))
        rows = (root / "testcity" / "density" / "cam1.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[2]) for row in rows] == expected

    def test_size_change_mid_stream_exits_2_without_trace(self, tmp_path, capsys):
        frames = random_frames(6, 8) + random_frames(7, 1, shape=(9, 8)) + random_frames(8, 3)
        root = tmp_path / "data"
        store_city(root, {"cam1": map(write_p5, frames)})
        argv = ["--set", f"data_root={root}", "--set", "window_z=4", "density", "--city", "testcity"]
        assert run(argv) == 2
        assert "shape (9, 8) != (8, 8)" in capsys.readouterr().err
        assert not (root / "testcity" / "density" / "cam1.csv").exists()


class TestCorruptInputs:
    def test_torn_manifest_line_is_data_error(self, corpus, capsys):
        manifest = corpus / "sydney" / "manifest.jsonl"
        with manifest.open("a") as fh:
            fh.write('{"camera_id": "cam00", "captured')
        assert run(["--set", f"data_root={corpus}", "density", "--city", "sydney"]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:151:" in err and "Traceback" not in err

    def test_malformed_trace_row_is_data_error(self, corpus, capsys):
        run_ok("--set", f"data_root={corpus}", "density", "--city", "sydney")
        trace = corpus / "sydney" / "density" / "cam1.csv"
        with trace.open("a") as fh:
            fh.write("cam00,garbage\n")
        assert run(["--set", f"data_root={corpus}", "fit", "--city", "sydney"]) == 2
        err = capsys.readouterr().err
        assert f"{trace}: line 152:" in err and "Traceback" not in err

    def test_unknown_labeled_path_is_data_error(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([{"relative_path": "sydney/nope.pgm", "label": "regular"}]))
        argv = ["--set", f"data_root={corpus}", "clean", "--city", "sydney", "--labels", str(labels)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(labels) in err and "sydney/nope.pgm" in err


class TestLowConfidence:
    def test_fit_small_trace_flagged(self, tmp_path):
        city = tmp_path / "tinycity" / "density"
        city.mkdir(parents=True)
        lines = ["camera_id,captured_at,raw_density,normalized"]
        for i in range(10):
            lines.append(f"camX,2024-03-01T08:0{i}:00Z,{100+i},{0.01 + i/1000:.6f}")
        (city / "camX.csv").write_text("\n".join(lines) + "\n")
        assert run(["--set", f"data_root={tmp_path}", "fit", "--city", "tinycity"]) == 0
        report = json.loads((tmp_path / "tinycity" / "fits" / "camX.json").read_text())
        assert report["low_confidence"] is True
