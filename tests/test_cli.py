import json

import pytest

from densigraph import synth
from densigraph.cli import Config, run


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
