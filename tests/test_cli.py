import json
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import densigraph
from densigraph import cli, density, ingestion, quality, synth
from densigraph.cli import Config, run
from densigraph.lrd import rs_hurst, variance_time_hurst
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

    @pytest.mark.parametrize("char", ["\u2028", "\u2029"])
    def test_camera_id_holding_a_line_separator(self, tmp_path, char):
        scene = tmp_path / "scene.json"
        scene.write_text(synth.random_scene_spec(5, frame_count=40).to_json())
        root, camera_id = tmp_path / "data", f"a{char}b"
        set_root = ("--set", f"data_root={root}", "--set", "window_z=4")
        run_ok(*set_root, "synth", "--scene", str(scene), "--city", "c", "--camera-id", camera_id)
        # an emptied frame puts the camera's path into removed.csv
        min((root / "c" / camera_id).rglob("*.pgm")).write_bytes(b"")
        for cmd in ("clean", "density", "fit", "lrd", "report"):
            run_ok(*set_root, cmd, "--city", "c")
        assert (root / "c" / "removed.csv").read_text().count(camera_id) == 1
        report = json.loads((root / "c" / "report" / "summary.json").read_text())
        assert camera_id in report["fits"]

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
            for r in ingestion.scan_manifest(corpus, city="sydney")
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

    @pytest.mark.parametrize("stage,out", [("fit", "fits"), ("lrd", "lrd"), ("report", "report")])
    def test_empty_density_folder_is_data_error(self, tmp_path, capsys, stage, out):
        city = tmp_path / "testcity"
        (city / "density").mkdir(parents=True)
        if stage == "report":
            (city / "fits").mkdir()
            (city / "lrd").mkdir()
        assert run(["--set", f"data_root={tmp_path}", stage, "--city", "testcity"]) == 2
        err = capsys.readouterr().err
        assert str(city / "density") in err and "Traceback" not in err
        assert not (city / out).exists()

    def test_bad_config_key(self, tmp_path):
        assert run(["--set", "bogus=1", "density", "--city", "x"]) == 1

    @pytest.mark.parametrize(
        "setting",
        [
            "tau=-50", "tau=nan", "tau=inf", "window_z=1", "window_z=0", "jobs=2",
            "cluster_k=1", "cluster_k=0", "seed=-1",
        ],
    )
    def test_bad_config_value(self, tmp_path, setting, capsys):
        argv = ["--set", f"data_root={tmp_path}", "--set", setting, "density", "--city", "x"]
        assert run(argv) == 1
        assert setting.partition("=")[0] in capsys.readouterr().err

    def test_config_file_ignores_unknown_keys(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"jobs": 2, "tau": 10}))
        assert Config.load(str(cfg), []).tau == 10.0

    @pytest.mark.parametrize(
        "text,named",
        [
            ('{"tau": -1}', "tau"),
            ("[]", "c.json"),
            ('{"tau": null}', "c.json"),
            ('{"tz_offsets": 5}', "c.json"),
            ('{"window_z": Infinity}', "c.json"),
            ('{"tau": ', "c.json"),
            ('{"window_z": 99.9}', "window_z"),
            ('{"cluster_k": 2.5}', "cluster_k"),
            ('{"seed": true}', "seed"),
            ('{"tau": true}', "tau"),
            ('{"tz_offsets": {"c1": NaN}}', "c.json: tz_offsets: c1"),
            ('{"tz_offsets": {"c1": Infinity}}', "c.json: tz_offsets: c1"),
            ('{"tz_offsets": {"c1": 1e9}}', "c.json: tz_offsets: c1"),
            ('{"tz_offsets": {"c1": 0, "c2": -24.5}}', "c.json: tz_offsets: c2"),
            ('{"tz_offsets": {"c1": "east"}}', "c.json: tz_offsets: c1"),
        ],
        ids=[
            "tau-negative", "list", "tau-null", "tz-offsets-number", "window-z-inf", "torn-json",
            "window-z-float", "cluster-k-float", "seed-bool", "tau-bool", "tz-offset-nan",
            "tz-offset-inf", "tz-offset-huge", "tz-offset-below-minus-24", "tz-offset-text",
        ],
    )
    def test_bad_config_file_value(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run(["--config", str(cfg), "density", "--city", "x"]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"tz_offsets": {"\xff": 9}}')
        assert run(["--config", str(cfg), "density", "--city", "x"]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:1: not UTF-8" in err and "Traceback" not in err

    def test_utf8_config_under_c_locale(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tz_offsets": {"\u6771\u4eac": 9}}', encoding="utf-8")
        code = f"from densigraph.cli import Config; print(ascii(Config.load({str(cfg)!r}, []).tz_offsets))"
        src = str(Path(densigraph.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0"}
        env["PYTHONCOERCECLOCALE"] = "0"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == ascii({"\u6771\u4eac": 9.0}).encode()

    def test_density_writes_utf8_under_c_locale(self, tmp_path):
        # the locale's own encoding is ascii, and argv decodes to surrogates
        scene = tmp_path / "scene.json"
        scene.write_text(synth.random_scene_spec(5, frame_count=12).to_json())
        root = tmp_path / "data"
        src = str(Path(densigraph.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0"}
        env["PYTHONCOERCECLOCALE"] = "0"
        for argv in (
            ["synth", "--scene", str(scene), "--city", "c", "--camera-id", "cam\u6771"],
            ["--set", "window_z=4", "density", "--city", "c"],
        ):
            out = subprocess.run(
                [sys.executable, "-m", "densigraph.cli", "--set", f"data_root={root}", *argv],
                env=env, capture_output=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr
        text = (root / "c" / "density" / "cam\u6771.csv").read_text(encoding="utf-8")
        assert len(density.read_trace_csv(text, "cam\u6771")) == 12
        assert {row.split(",")[0] for row in text.splitlines()[1:]} == {"cam\u6771"}

    @pytest.mark.parametrize(
        "cfg",
        [
            Config(),
            Config(
                data_root=Path("some/root"), catalog_path=Path("cat.json"), tau=12.5,
                window_z=30, cluster_k=3, seed=7, tz_offsets={"sydney": 10.0, "delhi": 5.5},
            ),
        ],
        ids=["default", "custom"],
    )
    def test_describe_loads_back(self, tmp_path, monkeypatch, cfg):
        monkeypatch.delenv("DENSIGRAPH_ROOT", raising=False)
        path = tmp_path / "c.json"
        path.write_text(cfg.describe())
        assert Config.load(str(path), []) == cfg

    def test_set_help_names_the_keys_set_accepts(self, capsys):
        assert run(["--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        named = help_text.partition("override a config field (")[2].partition(")")[0]

        def accepted(key):
            try:
                Config.load(None, [f"{key}="])
            except ValueError as exc:
                return "unknown config key" not in str(exc)
            return True

        keys = {f.name for f in fields(Config)} | {"bogus"}
        assert set(named.split(", ")) == {key for key in keys if accepted(key)}

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


def hand_densities(arrays, z, tau):
    """Oracle: raw densities against the mean of the first z frames, by hand."""
    bg = np.stack(arrays[:z]).mean(axis=0, dtype=np.float64)
    expected = []
    for a in arrays:
        diff = a - bg
        expected.append(int(np.rint(diff[diff > tau]).sum()))
    return expected


def trace_densities(root, camera_id, city="testcity"):
    rows = (root / city / "density" / f"{camera_id}.csv").read_text().splitlines()[1:]
    return [int(row.split(",")[2]) for row in rows]


def dirty_city(root):
    """Store two cameras whose bad frames are all error templates, so each
    would be a ClusterOutlier if a rule did not remove it first. Returns
    each camera's relative paths in capture order."""
    arrays = list(synth.render_scene_sequence(synth.random_scene_spec(3, frame_count=24)))
    regular = [write_p5(a) for a in arrays]
    template = [write_p5(np.full((100, 100), 240 + i, dtype=np.uint8)) for i in range(6)]
    # cam2 is stored first; scan_manifest still puts cam1's records first
    store_city(root, {
        "cam2": regular[12:] + template[4:],
        "cam1": regular[:10]
        + [template[0], template[0], b"", template[1], template[2]]  # 11th: duplicate
        + regular[10:12]
        + [template[3]],
    })
    records = ingestion.scan_manifest(root, city="testcity")
    paths = {cam: [r.relative_path for r in records if r.camera_id == cam] for cam in ("cam1", "cam2")}
    (root / paths["cam1"][13]).write_bytes(b"")  # emptied after storing
    cut = root / paths["cam1"][14]
    cut.write_bytes(cut.read_bytes()[:5000])  # cut short after storing
    return paths["cam1"], paths["cam2"]


def removed_rows(root, city="testcity"):
    return (root / city / "removed.csv").read_text().splitlines()[1:]


class TestCleanStage:
    def test_rules_then_clusters_once_each_in_manifest_order(self, tmp_path):
        root = tmp_path / "data"
        cam1, cam2 = dirty_city(root)
        rule_rows = [
            f"{cam1[11]},Duplicate",
            f"{cam1[12]},ZeroSize",  # failed record
            f"{cam1[13]},ZeroSize",  # emptied file
            f"{cam1[14]},DecodeError",  # cut-short file
        ]
        run_ok("--set", f"data_root={root}", "clean", "--city", "testcity")
        assert removed_rows(root) == rule_rows

        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([
            {"relative_path": cam1[0], "label": "regular"},
            {"relative_path": cam2[0], "label": "regular"},
            {"relative_path": cam1[10], "label": "outlier"},
        ]))
        run_ok("--set", f"data_root={root}", "clean", "--city", "testcity", "--labels", str(labels))
        assert removed_rows(root) == (
            [f"{cam1[10]},ClusterOutlier"]
            + rule_rows
            + [f"{cam1[17]},ClusterOutlier", f"{cam2[12]},ClusterOutlier", f"{cam2[13]},ClusterOutlier"]
        )

    def test_without_labels_computes_no_features(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        dirty_city(root)

        def no_features(*args):
            raise AssertionError("clean computed features without --labels")

        monkeypatch.setattr(quality, "extract_features", no_features)
        run_ok("--set", f"data_root={root}", "clean", "--city", "testcity")
        assert len(removed_rows(root)) == 4

    def test_reads_each_stored_frame_once_by_its_path(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        cam1, cam2 = dirty_city(root)
        reads, decodes = [], []
        read, decode = cli._read_frame, cli.decode_image

        def tracked_read(path):
            reads.append(path)
            return read(path)

        def tracked_decode(data):
            decodes.append(len(data))
            return decode(data)

        monkeypatch.setattr(cli, "_read_frame", tracked_read)
        monkeypatch.setattr(cli, "decode_image", tracked_decode)
        run_ok("--set", f"data_root={root}", "clean", "--city", "testcity")
        stored = [p for i, p in enumerate(cam1) if i not in (11, 12)] + cam2  # duplicate, failed
        assert reads == [os.path.join(root, p) for p in stored]
        assert len(decodes) == len(stored) - 1  # the emptied file is not decoded


class TestReadFrame:
    """_read_frame against a plain read of the whole file."""

    @pytest.mark.parametrize("size", [0, 480 * 640 + 15])
    def test_same_bytes_as_a_plain_read(self, tmp_path, size):
        path = tmp_path / "frame.pgm"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert cli._read_frame(str(path)) == path.read_bytes()

    @pytest.mark.parametrize("short_by", [1, 5000, 480 * 640])
    def test_reads_on_when_fstat_under_reports(self, tmp_path, monkeypatch, short_by):
        # a file that grew after its fstat
        path = tmp_path / "frame.pgm"
        path.write_bytes(np.random.default_rng(short_by).bytes(480 * 640 + 15))
        fstat = os.fstat
        monkeypatch.setattr(
            os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size - short_by)
        )
        assert cli._read_frame(str(path)) == path.read_bytes()

    def test_a_directory_is_named_as_by_open(self, tmp_path):
        with pytest.raises(IsADirectoryError) as plain:
            open(tmp_path, "rb")
        with pytest.raises(IsADirectoryError) as fast:
            cli._read_frame(str(tmp_path))
        assert str(fast.value) == str(plain.value)


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

    @pytest.mark.parametrize("at", [0, 2])
    def test_undecodable_frame_in_window_is_skipped(self, tmp_path, at):
        z, tau = 4, 25.0
        arrays = random_frames(5, 10)
        payloads = [write_p5(a) for a in arrays]
        payloads.insert(at, b"not an image")
        root = tmp_path / "data"
        store_city(root, {"cam1": payloads})
        run_ok("--set", f"data_root={root}", "--set", f"window_z={z}", "density", "--city", "testcity")
        assert trace_densities(root, "cam1") == hand_densities(arrays, z, tau)

    def test_one_thread_holds_at_most_two_decoded_frames(self, tmp_path, monkeypatch):
        z, tau, count = 50, 25.0, 52
        arrays = {f"cam{i}": random_frames(i, count, shape=(480, 640)) for i in range(3)}
        root = tmp_path / "data"
        store_city(root, {cam: map(write_p5, frames) for cam, frames in arrays.items()})
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def no_thread(thread):
            raise AssertionError(f"density started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        decode, refs, peak = cli.decode_image, [], 0

        def tracked_decode(data):
            nonlocal peak
            img = decode(data)
            refs.append(weakref.ref(img))
            peak = max(peak, sum(r() is not None for r in refs))
            return img

        monkeypatch.setattr(cli, "decode_image", tracked_decode)
        run_ok("--set", f"data_root={root}", "--set", f"window_z={z}", "density", "--city", "testcity")
        # each camera decodes its window twice: once for the background, once to score it
        assert peak <= 2 and len(refs) == 3 * (count + z)
        for cam, frames in arrays.items():
            assert trace_densities(root, cam) == hand_densities(frames, z, tau)

    def test_no_decodable_frame_exits_2(self, tmp_path, capsys):
        root = tmp_path / "data"
        store_city(root, {"cam0": [b"not an image", b"nor this"]})
        argv = ["--set", f"data_root={root}", "--set", "window_z=3", "density", "--city", "testcity"]
        assert run(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (root / "testcity" / "density" / "cam0.csv").exists()

    def test_short_camera_error_names_city_and_camera(self, tmp_path, capsys):
        root = tmp_path / "data"
        counts = {"cam0": 6, "cam1": 3, "cam2": 6}
        store_city(root, {cam: map(write_p5, random_frames(n, n)) for cam, n in counts.items()})
        argv = ["--set", f"data_root={root}", "--set", "window_z=4", "density", "--city", "testcity"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "densigraph: testcity/cam1: need >= 4 frames, got 3" in err and "Traceback" not in err
        # the first failing camera stops the stage
        traces = sorted(p.name for p in (root / "testcity" / "density").iterdir())
        assert traces == ["cam0.csv"]

    def test_size_change_mid_stream_exits_2_without_trace(self, tmp_path, capsys):
        frames = random_frames(6, 8) + random_frames(7, 1, shape=(9, 8)) + random_frames(8, 3)
        root = tmp_path / "data"
        store_city(root, {"cam1": map(write_p5, frames)})
        argv = ["--set", f"data_root={root}", "--set", "window_z=4", "density", "--city", "testcity"]
        assert run(argv) == 2
        assert "shape (9, 8) != (8, 8)" in capsys.readouterr().err
        assert not (root / "testcity" / "density" / "cam1.csv").exists()


def test_stages_that_do_not_fit_never_import_scipy():
    # numpy and Pillow are imported first: what they load (numpy 1.x loads
    # numpy.random, and with it hashlib) is not densigraph.cli's to drop
    code = (
        "import sys\n"
        "import numpy\n"
        "try:\n"
        "    import PIL.Image\n"
        "except ImportError:\n"
        "    pass\n"
        "before = set(sys.modules)\n"
        "import densigraph.cli\n"
        "stage_modules = ('densigraph.synth', 'densigraph.quality', 'densigraph.lrd',\n"
        "                 'densigraph.statfit', 'hashlib', '_hashlib')\n"
        "print(sorted(m for m in stage_modules if m in set(sys.modules) - before))\n"
        "import densigraph.density, densigraph.quality\n"
        "import densigraph.lrd, densigraph.synth, densigraph.ingestion\n"
        "print(sorted(m for m in ('scipy', 'urllib.request') if m in sys.modules))\n"
    )
    src = str(Path(densigraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["[]", "[]", ""]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
    reason="needs /proc/self/task and more than one CPU for OpenBLAS to start workers",
)
@pytest.mark.parametrize("setting,threads", [(None, "1"), ("2", "2")])
def test_cli_pins_openblas_to_one_thread_unless_set(setting, threads):
    code = (
        "import os\n"
        "import densigraph.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    src = str(Path(densigraph.__file__).resolve().parents[1])
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = src
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    tasks, value = out.stdout.split()
    assert value == threads
    if setting is None:
        assert tasks == "1"


def test_fit_and_report_never_import_scipy(corpus):
    for cmd in ("clean", "density"):
        run_ok("--set", f"data_root={corpus}", cmd, "--city", "sydney")
    code = (
        "import sys\n"
        "import densigraph.statfit\n"
        "from densigraph.cli import run\n"
        f"root = {str(corpus)!r}\n"
        "for cmd in ('fit', 'lrd', 'report'):\n"
        "    assert run(['--set', 'data_root=' + root, cmd, '--city', 'sydney']) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(densigraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    assert (corpus / "sydney" / "report" / "cdf_cam1.csv").exists()


class TestUnsafeIds:
    @pytest.mark.parametrize("bad", ["", "../../esc", "a,b", "cam\ud800"])
    @pytest.mark.parametrize("flag", ["--camera-id", "--city"])
    def test_synth_rejects_unsafe_id(self, tmp_path, capsys, flag, bad):
        scene = tmp_path / "scene.json"
        scene.write_text(synth.random_scene_spec(5, frame_count=3).to_json())
        root = tmp_path / "a" / "b" / "data"
        ids = {"--city": "sydney", "--camera-id": "cam1", flag: bad}
        argv = ["--set", f"data_root={root}", "synth", "--scene", str(scene)]
        argv += [arg for pair in ids.items() for arg in pair]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [scene]

    def test_synth_rejects_camera_named_like_its_city(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(synth.random_scene_spec(5, frame_count=3).to_json())
        argv = [
            "--set", f"data_root={tmp_path / 'data'}", "synth", "--scene", str(scene),
            "--city", "syd", "--camera-id", "syd",
        ]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "--camera-id" in err and "--city" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_crawl_rejects_camera_named_like_its_city(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        ok = {"camera_id": "c1", "city": "syd", "latitude": 0, "longitude": 0, "refresh_interval": 5}
        catalog.write_text(json.dumps([ok, {**ok, "camera_id": "syd"}]))
        argv = [
            "--set", f"data_root={tmp_path / 'data'}", "--set", f"catalog_path={catalog}",
            "crawl", "--duration", "0",
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{catalog}: entry 1:" in err and "'syd'" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_crawl_rejects_unsafe_catalog_id(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        entry = {"camera_id": "a,b", "city": "c", "latitude": 0, "longitude": 0, "refresh_interval": 5}
        catalog.write_text(json.dumps([entry]))
        argv = [
            "--set", f"data_root={tmp_path / 'data'}", "--set", f"catalog_path={catalog}",
            "crawl", "--duration", "0",
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(catalog) in err and "'a,b'" in err and "Traceback" not in err

    def test_crawl_rejects_surrogate_catalog_id(self, tmp_path, capsys):
        # JSON can escape a lone surrogate, which no directory name can hold
        catalog = tmp_path / "catalog.json"
        entry = {"camera_id": "cam\ud800", "city": "c", "latitude": 0, "longitude": 0, "refresh_interval": 5}
        catalog.write_text(json.dumps([entry]))
        assert "\\ud800" in catalog.read_text()
        argv = [
            "--set", f"data_root={tmp_path / 'data'}", "--set", f"catalog_path={catalog}",
            "crawl", "--duration", "0",
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{catalog}: entry 0:" in err and "surrogate" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()


class TestSynthFlags:
    def synth_argv(self, tmp_path, *flags):
        scene = tmp_path / "scene.json"
        scene.write_text(synth.random_scene_spec(5, frame_count=3).to_json())
        return [
            "--set", f"data_root={tmp_path / 'data'}", "synth", "--scene", str(scene),
            "--city", "sydney", "--camera-id", "cam1", *flags,
        ]

    @pytest.mark.parametrize(
        "flag,bad",
        [
            ("--t0", "garbage"), ("--t0", "0001-01-01T00:00:00+05:00"), ("--step", "-5"),
            ("--step", "0"), ("--step", "0.5"), ("--step", "nan"), ("--step", "inf"),
            ("--duration", "-5"), ("--duration", "nan"), ("--duration", "inf"),
            ("--duration", "1e300"),
        ],
    )
    def test_bad_value_is_usage_error(self, tmp_path, capsys, flag, bad):
        if flag == "--duration":  # crawl's flag, checked like synth's --step
            argv = ["--set", f"data_root={tmp_path / 'data'}", "crawl", flag, bad]
        else:
            argv = self.synth_argv(tmp_path, flag, bad)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "flags", [("--step", "1e300"), ("--t0", "9999-12-31T23:59:00")], ids=["step", "t0"]
    )
    def test_capture_grid_past_datetime_range_is_data_error(self, tmp_path, capsys, flags):
        assert run(self.synth_argv(tmp_path, *flags)) == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "frame_count 3" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_t0_offset_is_converted_to_utc(self, tmp_path):
        for name, t0, first in [
            ("aware", "2024-01-01T06:00:00+05:00", "2024-01-01T01:00:00Z"),
            ("naive", "2024-01-01T06:00:00", "2024-01-01T06:00:00Z"),
        ]:
            (tmp_path / name).mkdir()
            run_ok(*self.synth_argv(tmp_path / name, "--t0", t0))
            records = ingestion.scan_manifest(tmp_path / name / "data", city="sydney")
            assert ingestion.format_rfc3339(records[0].captured_at) == first


def test_camera_named_like_its_city_is_data_error(tmp_path, capsys):
    root = tmp_path / "data"
    (root / "syd" / "density").mkdir(parents=True)
    (root / "syd" / "density" / "syd.csv").write_text(
        "camera_id,captured_at,raw_density,normalized\nsyd,2024-01-01T06:00:00Z,5,0.000001\n"
    )
    assert run(["--set", f"data_root={root}", "fit", "--city", "syd"]) == 2
    err = capsys.readouterr().err
    assert str(Path("density") / "syd.csv") in err and "Traceback" not in err
    assert not (root / "syd" / "fits").exists()


class TestCorruptInputs:
    def test_torn_manifest_line_is_data_error(self, corpus, capsys):
        manifest = corpus / "sydney" / "manifest.jsonl"
        with manifest.open("a") as fh:
            fh.write('{"camera_id": "cam00", "captured')
        assert run(["--set", f"data_root={corpus}", "density", "--city", "sydney"]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:151:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "changes",
        [{"camera_id": "../../escaped"}, {"relative_path": "../outside.pgm"}, {"status": "weird"}],
        ids=["unsafe_camera_id", "path_outside_root", "unknown_status"],
    )
    @pytest.mark.parametrize("stage", ["clean", "density"])
    def test_edited_manifest_record_is_data_error(self, tmp_path, capsys, stage, changes):
        root = tmp_path / "data"
        store_city(root, {"cam1": [write_p5(a) for a in random_frames(6, 12)]})
        manifest = root / "testcity" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[-1] = json.dumps({**json.loads(lines[-1]), **changes})
        manifest.write_text("\n".join(lines) + "\n")
        (tmp_path / "outside.pgm").write_bytes(write_p5(np.full((8, 8), 255, dtype=np.uint8)))
        before = sorted(tmp_path.rglob("*"))
        argv = ["--set", f"data_root={root}", "--set", "window_z=5", stage, "--city", "testcity"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:12:" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("stage", ["synth", "density"])
    def test_manifest_line_not_utf8_is_data_error(self, corpus, tmp_path, capsys, stage):
        manifest = corpus / "sydney" / "manifest.jsonl"
        with manifest.open("ab") as fh:
            fh.write(b"\xff\n")
        argv = {
            "synth": self.synth_argv(tmp_path, tmp_path / "scene.json"),
            "density": ["--set", f"data_root={corpus}", "density", "--city", "sydney"],
        }[stage]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:151: not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "row",
        [
            "cam00,garbage",
            "cam1,NEXT,5,nan",
            "cam1,NEXT,5,inf",
            "cam1,NEXT,5,-0.000001",
            "cam1,NEXT,-5,0.000001",
            "cam1,LAST,5,0.000001",
            "cam1,BEFORE,5,0.000001",
            None,  # header only
        ],
        ids=[
            "garbage", "nan", "inf", "negative-normalized", "negative-raw", "repeated-time",
            "earlier-time", "no-rows",
        ],
    )
    @pytest.mark.parametrize("stage", ["fit", "lrd"])
    def test_malformed_trace_row_is_data_error(self, corpus, capsys, stage, row):
        run_ok("--set", f"data_root={corpus}", "density", "--city", "sydney")
        trace = corpus / "sydney" / "density" / "cam1.csv"
        lines = trace.read_text().splitlines()
        last = ingestion.parse_rfc3339(lines[-1].split(",")[1])
        times = {
            "NEXT": last + timedelta(minutes=1), "LAST": last, "BEFORE": last - timedelta(minutes=1),
        }
        if row is None:
            trace.write_text(lines[0] + "\n")
            lineno = 2
        else:
            for name, t in times.items():
                row = row.replace(name, ingestion.format_rfc3339(t))
            trace.write_text("\n".join(lines + [row]) + "\n")
            lineno = len(lines) + 1
        capsys.readouterr()
        assert run(["--set", f"data_root={corpus}", stage, "--city", "sydney"]) == 2
        err = capsys.readouterr().err
        assert f"{trace}: line {lineno}: bad trace row" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text,named",
        [
            (b'[{"camera_id": "c1", "city": "s"', ": line 1:"),
            (b'{"camera_id": "c1"}', ": expected"),
            (b"\xff\xfe[", ":1: not UTF-8"),
        ],
        ids=["torn", "not-a-list", "not-utf8"],
    )
    def test_crawl_rejects_catalog_that_is_not_a_json_list(self, tmp_path, capsys, text, named):
        catalog = tmp_path / "catalog.json"
        catalog.write_bytes(text)
        argv = [
            "--set", f"data_root={tmp_path / 'data'}", "--set", f"catalog_path={catalog}",
            "crawl", "--duration", "0",
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{catalog}{named}" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("interval", ["NaN", "Infinity"])
    def test_crawl_rejects_refresh_interval_that_is_not_finite(self, tmp_path, capsys, interval):
        catalog = tmp_path / "catalog.json"
        entry = '{"camera_id": "c1", "city": "s", "latitude": 0, "longitude": 0, "refresh_interval": '
        catalog.write_text(f"[{entry}{interval}}}]")
        argv = [
            "--set", f"data_root={tmp_path / 'data'}", "--set", f"catalog_path={catalog}",
            "crawl", "--duration", "0",
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{catalog}: entry 0:" in err and "refresh_interval" in err
        assert "Traceback" not in err and not (tmp_path / "data").exists()

    def test_unknown_labeled_path_is_data_error(self, corpus, tmp_path, capsys):
        records = ingestion.scan_manifest(corpus, city="sydney")
        emptied = records[0].relative_path
        (corpus / emptied).write_bytes(b"")
        last = records[-1]
        camera = ingestion.CameraMeta("cam1", "sydney", 0.0, 0.0, 60.0)
        duplicate = ingestion.FrameStore(corpus).store_frame(
            camera, last.captured_at + timedelta(minutes=1), (corpus / last.relative_path).read_bytes()
        )
        assert duplicate.status == "duplicate"
        regular = records[1].relative_path
        labels = tmp_path / "labels.json"
        for path in ("sydney/nope.pgm", emptied, duplicate.relative_path):
            labels.write_text(json.dumps([
                {"relative_path": regular, "label": "regular"},
                {"relative_path": path, "label": "outlier"},
            ]))
            argv = ["--set", f"data_root={corpus}", "clean", "--city", "sydney", "--labels", str(labels)]
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert f"{labels}: entry 1: relative_path {path!r}" in err and "Traceback" not in err


    def synth_argv(self, tmp_path, scene):
        return [
            "--set", f"data_root={tmp_path / 'data'}",
            "synth", "--scene", str(scene), "--city", "sydney", "--camera-id", "cam1",
        ]

    def test_torn_scene_json_is_data_error(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        text = json.dumps(json.loads(synth.random_scene_spec(5, frame_count=3).to_json()), indent=1)
        scene.write_text(text[: len(text) // 2])
        assert run(self.synth_argv(tmp_path, scene)) == 2
        err = capsys.readouterr().err
        line = text[: len(text) // 2].count("\n") + 1
        assert f"{scene}: line {line}:" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            {"drop": "vehicle_events"},
            {"drop": "width"},
            {"set": ("colour", 3)},
            {"set": ("width", "100")},
            {"set": ("noise_stddev", None)},
            {"set": ("background", [[1, 2], [3, 4]])},
            {"set": ("vehicle_events", [{"x": 1}])},
            {"set": ("vehicle_events", 7)},
            {"set": ("noise_stddev", float("nan"))},
            {"set": ("background", float("nan"))},
            {"set": ("background", 1e400)},
            {"set": ("background", [[60.0] * 100] * 99 + [[60.0] * 99 + [float("-inf")]])},
            {"set": ("background", 300)},
            {"set": ("background", [[60.0] * 100] * 99 + [[60.0] * 99 + [-1.0]])},
            {"intensity": 400, "background": 255},
            {"intensity": -50},
            {"set": ("seed", -1)},
        ],
        ids=[
            "no-events", "no-width", "unknown-key", "str-width", "null-noise",
            "background-shape", "bad-event", "events-not-list", "nan-noise",
            "nan-background", "1e400-background", "inf-in-background-grid",
            "background-300", "negative-in-background-grid", "intensity-400-on-255",
            "intensity-negative", "negative-seed",
        ],
    )
    def test_malformed_scene_is_data_error(self, tmp_path, capsys, edit):
        obj = json.loads(synth.random_scene_spec(5, frame_count=3).to_json())
        if "drop" in edit:
            del obj[edit["drop"]]
        elif "intensity" in edit:
            obj["vehicle_events"][0]["intensity"] = edit["intensity"]
            obj["background"] = edit.get("background", obj["background"])
        else:
            key, value = edit["set"]
            obj[key] = value
        scene = tmp_path / "scene.json"
        # json.dumps writes inf as Infinity; 1e400 is the other spelling json.loads reads as inf
        scene.write_text(json.dumps(obj).replace("Infinity", "1e400"))
        assert run(self.synth_argv(tmp_path, scene)) == 2
        err = capsys.readouterr().err
        assert str(scene) in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_scene_not_utf8_is_data_error(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_bytes(b"\xff\xfe[")
        assert run(self.synth_argv(tmp_path, scene)) == 2
        err = capsys.readouterr().err
        assert f"{scene}:1: not UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_labels_not_utf8_is_data_error(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        labels.write_bytes(b'[\n {"relative_path": "sydney/\xe9.pgm", "label": "regular"}]')
        argv = ["--set", f"data_root={corpus}", "clean", "--city", "sydney", "--labels", str(labels)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{labels}:2: not UTF-8" in err and "Traceback" not in err

    def test_removed_csv_not_utf8_is_data_error(self, corpus, capsys):
        removed = corpus / "sydney" / "removed.csv"
        removed.write_bytes(b"relative_path,reason\nsydney/\xff.pgm,Duplicate\n")
        assert run(["--set", f"data_root={corpus}", "density", "--city", "sydney"]) == 2
        err = capsys.readouterr().err
        assert f"{removed}:2: not UTF-8" in err and "Traceback" not in err
        assert not (corpus / "sydney" / "density").exists()

    def test_removed_csv_without_header_is_data_error(self, corpus, capsys):
        run_ok("--set", f"data_root={corpus}", "clean", "--city", "sydney")
        removed = corpus / "sydney" / "removed.csv"
        first = ingestion.scan_manifest(corpus, city="sydney")[0].relative_path
        removed.write_text(f"{first},Duplicate\n")
        assert run(["--set", f"data_root={corpus}", "density", "--city", "sydney"]) == 2
        err = capsys.readouterr().err
        assert f"{removed}:1: expected the header" in err and "Traceback" not in err
        assert not (corpus / "sydney" / "density").exists()

    @pytest.mark.parametrize(
        "row",
        ["garbage", "PATH,NotAReason", ",Duplicate", "PATH,Duplicate,extra", "", "PATH,duplicate"],
        ids=["no-reason", "unknown-reason", "no-path", "three-fields", "blank", "lowercase-reason"],
    )
    def test_bad_removed_csv_row_is_data_error(self, corpus, capsys, row):
        run_ok("--set", f"data_root={corpus}", "clean", "--city", "sydney")
        removed = corpus / "sydney" / "removed.csv"
        first, second = (r.relative_path for r in ingestion.scan_manifest(corpus, city="sydney")[:2])
        bad = row.replace("PATH", second)
        removed.write_text(f"relative_path,reason\n{first},Duplicate\n{bad}\n")
        assert run(["--set", f"data_root={corpus}", "density", "--city", "sydney"]) == 2
        err = capsys.readouterr().err
        assert f"{removed}:3: bad row {bad!r}" in err and "Traceback" not in err
        assert not (corpus / "sydney" / "density").exists()

    def test_torn_labels_json_is_data_error(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text('[\n {"relative_path": "sydney/a.pgm",\n  "lab')
        argv = ["--set", f"data_root={corpus}", "clean", "--city", "sydney", "--labels", str(labels)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{labels}: line 3:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "entry",
        [
            {"relative_path": "PATH"}, {"label": "regular"}, "PATH", None,
            {"relative_path": [1], "label": "regular"}, {"relative_path": "PATH", "label": ["regular"]},
        ],
        ids=["no-label", "no-path", "string", "null", "list-path", "list-label"],
    )
    def test_malformed_labels_entry_is_data_error(self, corpus, tmp_path, capsys, entry):
        stored = ingestion.scan_manifest(corpus, city="sydney")[0].relative_path
        if isinstance(entry, dict):
            entry = {k: stored if v == "PATH" else v for k, v in entry.items()}
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([{"relative_path": stored, "label": "regular"}, entry]))
        argv = ["--set", f"data_root={corpus}", "clean", "--city", "sydney", "--labels", str(labels)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{labels}: entry 1 needs relative_path and label" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("labels_obj", [{"a": 1}, [{"relative_path": "PATH", "label": "odd"}]])
    def test_labels_not_a_labeled_list_is_data_error(self, corpus, tmp_path, capsys, labels_obj):
        stored = ingestion.scan_manifest(corpus, city="sydney")[0].relative_path
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(labels_obj).replace("PATH", stored))
        argv = ["--set", f"data_root={corpus}", "clean", "--city", "sydney", "--labels", str(labels)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(labels) in err and "Traceback" not in err


def write_trace(root, city, camera_id, values, step=60):
    """A density trace CSV of ``values``, one row every ``step`` seconds."""
    t0 = datetime(2024, 3, 1, 6, tzinfo=timezone.utc)
    lines = ["camera_id,captured_at,raw_density,normalized"]
    for i, v in enumerate(values):
        t = ingestion.format_rfc3339(t0 + timedelta(seconds=i * step))
        lines.append(f"{camera_id},{t},{round(v * 1e6)},{v:.6f}")
    path = root / city / "density" / f"{camera_id}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def stats_stages(root, city):
    for stage in ("fit", "lrd", "report"):
        run_ok("--set", f"data_root={root}", stage, "--city", city)


@pytest.mark.parametrize("stage", ["fit", "lrd", "report"])
def test_trace_rows_naming_another_camera_are_data_error(tmp_path, capsys, stage):
    path = write_trace(tmp_path, "c", "c1", [0.1, 0.2, 0.3])
    stats_stages(tmp_path, "c")
    path.write_text(path.read_text().replace("c1,", "zz,"))
    capsys.readouterr()
    assert run(["--set", f"data_root={tmp_path}", stage, "--city", "c"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 2: bad trace row" in err and "'zz' is not" in err
    assert "Traceback" not in err


def test_stats_stages_read_traces_in_camera_id_order(tmp_path):
    # "cam-1.csv" sorts before "cam.csv" as a path, but "cam" before "cam-1" as an id
    for camera_id in ("cam-1", "cam0", "cam"):
        write_trace(tmp_path, "c", camera_id, [0.1, 0.2])
    traces = cli._read_city_traces(Config(data_root=tmp_path), "c")
    assert list(traces) == ["cam", "cam-1", "cam0"]
    assert [s for s, _ in cli._subjects("c", traces)] == ["cam", "cam-1", "cam0", "c"]


class TestCityGrid:
    def test_slow_camera_is_carried_forward_onto_the_city_step(self, tmp_path):
        rng = np.random.default_rng(14)
        fast, slow = (
            density.read_trace_csv(
                write_trace(tmp_path, "c", camera_id, rng.random(n), step).read_text(), camera_id
            ).normalized
            for camera_id, n, step in (("fast", 3000, 60), ("slow", 600, 300))
        )
        run_ok("--set", f"data_root={tmp_path}", "lrd", "--city", "c")
        # 2,999 gaps of 60 s and 599 of 300 s pool to a 60 s step
        slow_on_grid = np.repeat(slow, 5)[: 599 * 5 + 1]
        for camera_id, series in (("fast", fast), ("slow", slow_on_grid)):
            for method, estimator in (("variance_time", variance_time_hurst), ("rs", rs_hurst)):
                path = tmp_path / "c" / "lrd" / f"{camera_id}.{method}.json"
                assert json.loads(path.read_text())["H"] == estimator(series).H

    def test_one_row_traces_give_hourly_and_no_estimate(self, tmp_path):
        for camera_id in ("cam1", "cam2"):
            write_trace(tmp_path, "c", camera_id, [0.3])
        run_ok("--set", f"data_root={tmp_path}", "lrd", "--city", "c")
        lrd_dir = tmp_path / "c" / "lrd"
        assert [p.name for p in lrd_dir.iterdir()] == ["hourly.csv"]
        assert "6,0.300000,2" in (lrd_dir / "hourly.csv").read_text().splitlines()


class TestStaleOutputs:
    def test_lrd_removes_estimates_it_did_not_write(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        write_trace(tmp_path, "c", "cam1", rng.random(2000))
        run_ok("--set", f"data_root={tmp_path}", "lrd", "--city", "c")
        lrd_dir = tmp_path / "c" / "lrd"
        assert {p.name for p in lrd_dir.glob("*.json")} == {
            "cam1.rs.json", "cam1.variance_time.json",
        }
        write_trace(tmp_path, "c", "cam1", rng.random(40))
        capsys.readouterr()
        run_ok("--set", f"data_root={tmp_path}", "lrd", "--city", "c")
        err = capsys.readouterr().err
        assert "cam1 rs:" in err and "cam1 variance_time:" in err  # both failed, logged
        assert list(lrd_dir.glob("*.json")) == []
        assert (lrd_dir / "hourly.csv").exists()

    def test_deleted_trace_leaves_no_fits_estimates_or_cdf(self, tmp_path):
        rng = np.random.default_rng(12)
        write_trace(tmp_path, "c", "cam1", rng.random(2000))
        cam2 = write_trace(tmp_path, "c", "cam2", 5 * rng.random(2000))
        stats_stages(tmp_path, "c")
        city = tmp_path / "c"
        assert (city / "report" / "cdf_cam2.csv").exists()
        cam2.unlink()
        stats_stages(tmp_path, "c")
        summary = json.loads((city / "report" / "summary.json").read_text())
        assert set(summary["fits"]) == {"cam1", "c"}
        assert set(summary["hurst"]) == {"cam1.rs", "cam1.variance_time"}
        leftovers = [
            p.relative_to(city) for p in city.rglob("*cam2*") if p.parent.name != "density"
        ]
        assert leftovers == []
        # the city's CDF spans the pooled sample, now cam1's alone (< 1)
        xs = [float(line.split(",")[0]) for line in (city / "report" / "cdf_c.csv").read_text().splitlines()[1:]]
        assert max(xs) < 1.0


class TestUnreadableStatsJson:
    @pytest.fixture()
    def stats_root(self, tmp_path):
        write_trace(tmp_path, "c", "cam1", np.random.default_rng(13).random(2000))
        for stage in ("fit", "lrd"):
            run_ok("--set", f"data_root={tmp_path}", stage, "--city", "c")
        return tmp_path

    @pytest.mark.parametrize(
        "name,text",
        [
            ("fits/cam1.json", '{"subject": '),
            ("fits/c.json", '{"subject": "c"}'),
            ("fits/cam1.json", '{"candidates": [{"family": "gamma", "params": {}}]}'),
            ("fits/cam1.json", '{"candidates": [{"family": "gamma", "params": {"shape": "x", "scale": 1}}]}'),
            ("fits/cam1.json", '{"candidates": [{"family": "cauchy", "params": {}}]}'),
            ("fits/cam1.json", '{"candidates": 7}'),
            ("fits/cam1.json", "[]"),
            ("lrd/cam1.rs.json", '{"H": '),
            ("fits/cam1.json", None),
            ("fits/cam1.json", '{"candidates": [{"family": "exponential", "params": {"rate": -3}}]}'),
            ("fits/cam1.json", '{"candidates": [{"family": "normal", "params": {"mu": 0, "sigma": 0}}]}'),
            ("fits/cam1.json", '{"candidates": [{"family": "weibull", "params": {"shape": NaN, "scale": 1}}]}'),
            ("lrd/hourly.csv", "garbage\n1,0.5,3\n"),
            ("lrd/hourly.csv", ""),
        ],
        ids=[
            "torn", "no-candidates", "missing-param", "param-not-a-number", "unknown-family",
            "candidates-not-a-list", "not-an-object", "torn-hurst", "missing-file",
            "rate-negative", "sigma-zero", "shape-nan", "hourly-header", "hourly-empty",
        ],
    )
    def test_report_exits_2_naming_the_file(self, stats_root, capsys, name, text):
        path = stats_root / "c" / name
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        capsys.readouterr()
        assert run(["--set", f"data_root={stats_root}", "report", "--city", "c"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not (stats_root / "c" / "report").exists()


    @pytest.mark.parametrize(
        "row",
        [
            "garbage,x", "24,0.500000,3", "-1,0.500000,3", " 1,0.500000,3", "1,nan,3",
            "1,inf,3", "1,-0.500000,3", "1,0.500000,-1", "1,0.500000,x", "1,0.500000,0",
            "1,0.500000", "1,0.500000,3,4", "",
        ],
        ids=[
            "garbage", "hour-24", "hour-negative", "hour-space", "mean-nan", "mean-inf",
            "mean-negative", "count-negative", "count-text", "count-0-mean-not-0",
            "two-fields", "four-fields", "blank",
        ],
    )
    def test_bad_hourly_row_is_data_error_naming_its_line(self, stats_root, capsys, row):
        path = stats_root / "c" / "lrd" / "hourly.csv"
        lines = path.read_text().splitlines()
        assert len(lines) == 25 and lines[6].startswith("5,")
        lines[6] = row
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["--set", f"data_root={stats_root}", "report", "--city", "c"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:7: bad row {row!r}" in err and "Traceback" not in err
        assert not (stats_root / "c" / "report").exists()

    def test_hourly_rows_as_lrd_writes_them_are_bundled(self, tmp_path):
        # 300 rows a minute apart leave most hours without records
        write_trace(tmp_path, "c", "cam1", np.random.default_rng(14).random(300))
        stats_stages(tmp_path, "c")
        rows = (tmp_path / "c" / "lrd" / "hourly.csv").read_text().splitlines()[1:]
        assert len(rows) == 24 and "0,0.000000,0" in rows
        summary = json.loads((tmp_path / "c" / "report" / "summary.json").read_text())
        assert summary["hourly_profile"] == rows

    @pytest.mark.parametrize(
        "name,stage",
        [
            ("fits/cam1.json", "report"),
            ("lrd/cam1.rs.json", "report"),
            ("lrd/hourly.csv", "report"),
            ("density/cam1.csv", "fit"),
        ],
    )
    def test_not_utf8_exits_2_naming_file_and_line(self, stats_root, capsys, name, stage):
        path = stats_root / "c" / name
        text = path.read_bytes()
        path.write_bytes(text + b"\xff\n")
        line = text.count(b"\n") + 1
        capsys.readouterr()
        assert run(["--set", f"data_root={stats_root}", stage, "--city", "c"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: not UTF-8" in err and "Traceback" not in err


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
