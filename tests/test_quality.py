import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from densigraph import ingestion, quality, synth
from densigraph.errors import TooFewPoints
from densigraph.pgmio import decode_image, write_p5
from densigraph.quality import (
    EDGE_STEP,
    FEATURES,
    OUTLIER,
    REGULAR,
    ClusterModel,
    LabeledSet,
    classify,
    extract_features,
    fit_clusters,
)

from test_cli import dirty_city, random_frames, removed_rows, run_ok, store_city


def feat(**kw):
    """A feature row, by FEATURES name."""
    base = dict(
        mean_intensity=100.0,
        intensity_variance=50.0,
        edge_density=0.2,
    )
    assert set(kw) <= set(base)
    base.update(kw)
    return np.array([base[name] for name in FEATURES], dtype=np.float64)


def fields(row):
    return dict(zip(FEATURES, row))


def labeled_set(*pairs):
    """LabeledSet of (row, label) pairs."""
    return LabeledSet(np.array([row for row, _ in pairs]), tuple(label for _, label in pairs))


class TestExtractFeatures:
    def test_uniform_gray(self):
        f = fields(extract_features(np.full((10, 10), 128, dtype=np.uint8)))
        assert f["mean_intensity"] == 128.0
        assert f["intensity_variance"] == 0.0
        assert f["edge_density"] == 0.0

    def test_checkerboard_edges(self):
        board = np.indices((8, 8)).sum(axis=0) % 2 * 255
        f = fields(extract_features(board.astype(np.uint8)))
        assert f["edge_density"] == 1.0

    def test_deterministic(self):
        img = np.random.default_rng(0).integers(0, 256, (6, 6)).astype(np.uint8)
        assert extract_features(img).tobytes() == extract_features(img).tobytes()

    def test_empty_bytes(self, tmp_path, monkeypatch):
        # an emptied file is ZeroSize and never reaches extract_features
        root = tmp_path / "data"
        cam1, cam2 = dirty_city(root)
        calls = record_feature_calls(monkeypatch)
        removed = clean(root, "--labels", dirty_labels(tmp_path, cam1, cam2))
        assert removed[cam1[13]] == "ZeroSize"
        assert len(calls) == len(manifest_paths(root)) - 4  # kept by the rules

    def test_garbage_bytes(self, tmp_path, monkeypatch):
        # undecodable bytes are DecodeError and never reach extract_features
        assert decode_image(b"not an image") is None
        root = tmp_path / "data"
        frames = [write_p5(a) for a in random_frames(1, 6)]
        template = write_p5(np.full((8, 8), 250, dtype=np.uint8))
        store_city(root, {"cam1": frames[:3] + [b"not an image", template] + frames[3:]})
        paths = manifest_paths(root)
        labels = write_labels(tmp_path, [(paths[0], REGULAR), (paths[4], OUTLIER)])
        calls = record_feature_calls(monkeypatch)
        removed = clean(root, "--labels", labels)
        assert removed[paths[3]] == "DecodeError"
        assert len(calls) == len(paths) - 1


def fading_city(root):
    """Store three 64x48 cameras of 24 frames, every third one faded toward
    a flat 245 error frame with noise, plus cam1 rule hits: a duplicate, a
    failed fetch and a cut-short file. Returns the manifest's paths."""
    rng = np.random.default_rng(23)
    payloads = {}
    for c, camera_id in enumerate(("cam1", "cam2", "cam3")):
        frames = synth.render_scene_sequence(synth.random_scene_spec(30 + c, width=64, height=48, frame_count=24))
        payloads[camera_id] = []
        for i, a in enumerate(frames):
            if i % 3 == 2:
                alpha = rng.uniform(0.2, 0.9)
                a = np.rint((1 - alpha) * a + alpha * 245 + rng.normal(0, 4, a.shape))
                a = np.clip(a, 0, 255).astype(np.uint8)
            payloads[camera_id].append(write_p5(a))
    payloads["cam1"] += [payloads["cam1"][-1], b"", payloads["cam1"][0]]
    store_city(root, payloads)
    paths = manifest_paths(root)
    cut = root / paths[26]
    cut.write_bytes(cut.read_bytes()[:100])  # cut short after storing
    return paths


def two_resolution_city(root, seed):
    """Store two cameras of 100 frames, cam1 at 48x64 and cam2 at 24x32: a
    background of 60 with noise and 1-7 bright vehicles, except that frames
    16, 49 and 82 are flat 245 error templates with noise. Returns the
    manifest's paths, cam1's then cam2's."""
    rng = np.random.default_rng(seed)
    payloads = {}
    for camera_id, (h, w) in (("cam1", (48, 64)), ("cam2", (24, 32))):
        payloads[camera_id] = []
        for i in range(100):
            if i % 33 == 16:
                a = 245 + rng.normal(0, 4, (h, w))
            else:
                a = 60 + rng.normal(0, 4, (h, w))
                for _ in range(rng.integers(1, 8)):
                    vh, vw = rng.integers(h // 16, h // 6), rng.integers(w // 16, w // 6)
                    y, x = rng.integers(0, h - vh), rng.integers(0, w - vw)
                    a[y : y + vh, x : x + vw] = rng.integers(170, 230)
            payloads[camera_id].append(write_p5(np.clip(np.rint(a), 0, 255).astype(np.uint8)))
    store_city(root, payloads)
    return manifest_paths(root)


def oracle_frames():
    """Edge cases, then seeded random frames of random size up to 480x640,
    each over a random intensity band, then full-range ones of that size."""
    frames = [
        np.array([[7]], dtype=np.uint8),
        np.arange(9, dtype=np.uint8).reshape(9, 1),  # one column: no horizontal neighbors
        np.full((5, 7), 93, dtype=np.uint8),
        np.zeros((4, 6), dtype=np.uint8),
        np.full((6, 4), 255, dtype=np.uint8),
    ]
    rng = np.random.default_rng(14)
    for _ in range(40):
        h, w = rng.integers(1, 481), rng.integers(1, 641)
        lo = rng.integers(0, 256)
        hi = rng.integers(lo, 256)
        frames.append(rng.integers(lo, hi, (h, w), dtype=np.uint8, endpoint=True))
    frames += [rng.integers(0, 256, (480, 640), dtype=np.uint8) for _ in range(3)]
    return frames


def exact_mean_var(img):
    """Oracle: mean and variance as correctly rounded exact fractions."""
    a = img.astype(np.int64)
    n, s, s2 = a.size, int(a.sum()), int((a * a).sum())
    return float(Fraction(s, n)), float(Fraction(n * s2 - s * s, n * n))


def numpy_mean_edge(img):
    """Oracle: mean and edge density as numpy computed them before the
    features became integer ratios."""
    diffs = np.abs(np.diff(img.astype(np.int16), axis=1))
    edge = (diffs > EDGE_STEP).mean() if img.shape[1] > 1 else 0.0
    return img.mean(), edge


def bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


class TestFeatureOracles:
    def test_mean_and_variance_equal_fraction_oracle(self):
        for img in oracle_frames():
            f = fields(extract_features(img))
            assert bits(f["mean_intensity"], f["intensity_variance"]) == bits(*exact_mean_var(img)), img.shape

    def test_mean_and_edge_density_equal_numpy(self):
        for img in oracle_frames():
            f = fields(extract_features(img))
            assert bits(f["mean_intensity"], f["edge_density"]) == bits(*numpy_mean_edge(img)), img.shape

    def test_edge_cases(self):
        one, column, constant, black, white = (fields(extract_features(img)) for img in oracle_frames()[:5])
        assert (one["mean_intensity"], one["intensity_variance"], one["edge_density"]) == (7.0, 0.0, 0.0)
        assert column["edge_density"] == 0.0 and column["intensity_variance"] == 20 / 3
        assert (constant["mean_intensity"], constant["intensity_variance"]) == (93.0, 0.0)
        assert (black["mean_intensity"], black["intensity_variance"], black["edge_density"]) == (0.0, 0.0, 0.0)
        assert (white["mean_intensity"], white["intensity_variance"], white["edge_density"]) == (255.0, 0.0, 0.0)

    def test_variance_close_to_numpy(self):
        # numpy's two-pass var() rounds at every step; the exact ratio may
        # differ from it in the last few bits only
        for img in oracle_frames():
            v = fields(extract_features(img))["intensity_variance"]
            assert abs(v - img.var()) <= 4 * np.spacing(img.var()), img.shape

    def test_strided_view_equals_contiguous_copy(self):
        img = np.random.default_rng(3).integers(0, 256, (61, 81), dtype=np.uint8)
        for view in (img[:, ::2], img[::3], img.T, img[5:40, 7:70]):
            assert not view.flags.c_contiguous
            row = extract_features(view)
            assert row.tobytes() == extract_features(np.ascontiguousarray(view)).tobytes()


def two_blob_features(n_reg, n_out, seed=0):
    rng = np.random.default_rng(seed)
    reg = [
        feat(
            mean_intensity=80 + rng.normal(0, 3),
            intensity_variance=400 + rng.normal(0, 30),
            edge_density=0.3 + rng.normal(0, 0.02),
        )
        for _ in range(n_reg)
    ]
    out = [
        feat(
            mean_intensity=240 + rng.normal(0, 1),
            intensity_variance=rng.uniform(0, 4),
            edge_density=rng.uniform(0, 0.01),
        )
        for _ in range(n_out)
    ]
    return reg, out


class TestFitClusters:
    def test_perfectly_separated_two_clusters(self):
        reg, out = two_blob_features(2, 2)
        labeled = labeled_set((reg[0], REGULAR), (out[0], OUTLIER))
        model = fit_clusters(reg + out, labeled, k=2, seed=0)
        assert classify(model, reg[1]) == [REGULAR]
        assert classify(model, out[1]) == [OUTLIER]

    def test_identical_unlabeled_inherit_regular(self):
        reg, out = two_blob_features(1, 1)
        points = [feat()] * 10
        labeled = labeled_set((feat(), REGULAR), (out[0], OUTLIER))
        model = fit_clusters(points, labeled, k=3, seed=0)
        assert classify(model, feat()) == [REGULAR]

    def test_too_few_points(self):
        reg, out = two_blob_features(1, 1)
        labeled = labeled_set((reg[0], REGULAR), (out[0], OUTLIER))
        with pytest.raises(TooFewPoints):
            fit_clusters([feat()], labeled, k=2, seed=0)

    def test_deterministic_given_seed(self):
        reg, out = two_blob_features(40, 5, seed=3)
        labeled = labeled_set((reg[0], REGULAR), (out[0], OUTLIER))
        m1 = fit_clusters(reg + out, labeled, k=4, seed=9)
        m2 = fit_clusters(reg + out, labeled, k=4, seed=9)
        np.testing.assert_array_equal(m1.centroids, m2.centroids)
        assert m1.cluster_labels == m2.cluster_labels

    def test_synthetic_corpus_recall_and_fpr(self):
        # oracle: the generating labels of the synthetic corpus
        reg, out = two_blob_features(950, 50, seed=7)
        held_reg, held_out = two_blob_features(200, 40, seed=8)
        labeled = labeled_set(*[(f, REGULAR) for f in reg[:7]], *[(f, OUTLIER) for f in out[:3]])
        model = fit_clusters(reg + out, labeled, k=4, seed=0)
        out_hits = classify(model, held_out).count(OUTLIER)
        false_pos = classify(model, held_reg).count(OUTLIER)
        assert out_hits / len(held_out) >= 0.95
        assert false_pos / len(held_reg) <= 0.02


class TestClassify:
    def centroids_model(self):
        return ClusterModel(
            centroids=np.array([[-1.0], [1.0]]),
            cluster_labels=(REGULAR, OUTLIER),
            feature_mean=np.zeros(1),
            feature_std=np.ones(1),
            kept_dims=(0,),  # mean_intensity drives the toy model
        )

    def test_at_centroids(self):
        model = self.centroids_model()
        assert classify(model, feat(mean_intensity=-1.0)) == [REGULAR]
        assert classify(model, feat(mean_intensity=1.0)) == [OUTLIER]

    def test_midpoint_tie_breaks_lexicographically(self):
        model = self.centroids_model()
        # equidistant: 'outlier' < 'regular' lexicographically
        assert classify(model, feat(mean_intensity=0.0)) == [OUTLIER]
        # one call over several rows breaks each tie the same way
        rows = np.array([feat(mean_intensity=m) for m in (0.0, -1.0, 0.0, -0.5, 0.5, 0.0)])
        assert classify(model, rows) == [OUTLIER, REGULAR, OUTLIER, REGULAR, OUTLIER, OUTLIER]
        # the label decides a tie, not the centroid index
        flipped = ClusterModel(
            centroids=model.centroids[::-1],
            cluster_labels=model.cluster_labels[::-1],
            feature_mean=model.feature_mean,
            feature_std=model.feature_std,
            kept_dims=model.kept_dims,
        )
        assert classify(flipped, rows) == classify(model, rows)

    def test_standardize_idempotent_on_stored_params(self):
        reg, out = two_blob_features(30, 5, seed=2)
        labeled = labeled_set((reg[0], REGULAR), (out[0], OUTLIER))
        model = fit_clusters(reg + out, labeled, k=3, seed=1)
        v = model.standardize(reg[5])
        assert np.isfinite(v).all()


def manifest_paths(root):
    return [r.relative_path for r in ingestion.scan_manifest(root, city="testcity")]


def clean(root, *extra):
    """Run the clean stage on root's testcity; removed.csv as path -> reason."""
    run_ok("--set", f"data_root={root}", "clean", "--city", "testcity", *extra)
    rows = [row.split(",") for row in removed_rows(root)]
    assert len({path for path, _ in rows}) == len(rows)
    return dict(rows)


def write_labels(tmp_path, pairs):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([{"relative_path": p, "label": lab} for p, lab in pairs]))
    return str(labels)


def dirty_labels(tmp_path, cam1, cam2):
    return write_labels(tmp_path, [(cam1[0], REGULAR), (cam2[0], REGULAR), (cam1[10], OUTLIER)])


def record_feature_calls(monkeypatch):
    """Wrap quality.extract_features; returns the frames it is given."""
    frames = []
    extract = quality.extract_features

    def recording(img):
        frames.append(img)
        return extract(img)

    monkeypatch.setattr(quality, "extract_features", recording)
    return frames


class TestRuleFilter:
    """clean's rules, each on a few stored frames, without --labels."""

    def test_zero_size(self, tmp_path):
        root = tmp_path / "data"
        frames = [write_p5(a) for a in random_frames(2, 3)]
        store_city(root, {"cam1": [frames[0], b"", frames[1], frames[2]]})
        paths = manifest_paths(root)
        (root / paths[3]).write_bytes(b"")  # emptied after storing
        assert clean(root) == {paths[1]: "ZeroSize", paths[3]: "ZeroSize"}

    def test_decode_error(self, tmp_path):
        root = tmp_path / "data"
        frames = [write_p5(a) for a in random_frames(3, 3)]
        store_city(root, {"cam1": [frames[0], b"not an image", frames[1], frames[2]]})
        paths = manifest_paths(root)
        cut = root / paths[3]
        cut.write_bytes(cut.read_bytes()[:-10])  # cut short after storing
        assert clean(root) == {paths[1]: "DecodeError", paths[3]: "DecodeError"}

    def test_pass(self, tmp_path):
        # every decodable frame is kept, an error template too: only
        # clustering with --labels can remove it
        root = tmp_path / "data"
        frames = [write_p5(a) for a in random_frames(4, 5)]
        template = write_p5(np.full((8, 8), 250, dtype=np.uint8))
        store_city(root, {"cam1": frames[:2] + [template] + frames[2:]})
        assert clean(root) == {}


class TestCleanTrace:
    """clean on a city with every rule hit and labeled error templates."""

    def clean_dirty_city(self, tmp_path):
        root = tmp_path / "data"
        cam1, cam2 = dirty_city(root)
        removed = clean(root, "--labels", dirty_labels(tmp_path, cam1, cam2))
        return root, cam1, cam2, removed

    def test_partition(self, tmp_path):
        root, _, _, removed = self.clean_dirty_city(tmp_path)
        paths = manifest_paths(root)
        assert set(removed) <= set(paths)
        kept = [p for p in paths if p not in removed]
        assert len(kept) + len(removed) == len(paths)
        assert kept and removed

    def test_reasons(self, tmp_path):
        _, cam1, cam2, removed = self.clean_dirty_city(tmp_path)
        assert removed[cam1[11]] == "Duplicate"
        assert removed[cam1[12]] == "ZeroSize"  # failed record
        assert removed[cam1[13]] == "ZeroSize"  # emptied file
        assert removed[cam1[14]] == "DecodeError"  # cut-short file
        assert removed[cam1[10]] == "ClusterOutlier"
        assert removed[cam2[12]] == "ClusterOutlier"
        assert set(removed.values()) == {"Duplicate", "ZeroSize", "DecodeError", "ClusterOutlier"}

    def test_rules_precede_clustering(self, tmp_path):
        root, cam1, _, removed = self.clean_dirty_city(tmp_path)
        # the duplicate has the same template bytes as a ClusterOutlier
        hashes = {r.relative_path: r.content_hash for r in ingestion.scan_manifest(root, city="testcity")}
        assert hashes[cam1[11]] == hashes[cam1[10]]
        assert (removed[cam1[10]], removed[cam1[11]]) == ("ClusterOutlier", "Duplicate")
        for i, reason in zip(range(11, 15), ("Duplicate", "ZeroSize", "ZeroSize", "DecodeError")):
            assert removed[cam1[i]] == reason

    def test_no_outliers_keeps_all(self, tmp_path):
        # without --labels there is no cluster model: only rule hits go
        root = tmp_path / "data"
        cam1, cam2 = dirty_city(root)
        removed = clean(root)
        assert sorted(removed) == sorted(cam1[11:15])
        assert not set(removed) & set(cam2)

    def test_only_zero_size(self, tmp_path):
        root = tmp_path / "data"
        store_city(root, {"cam1": [b"", b"", write_p5(random_frames(5, 1)[0])]})
        paths = manifest_paths(root)
        (root / paths[2]).write_bytes(b"")
        assert clean(root) == dict.fromkeys(paths, "ZeroSize")

    def test_removed_bytes_pinned(self, tmp_path):
        # every third frame fades toward a bright error frame by a random
        # amount, so the cluster boundary runs through the fades: a feature
        # change that moves any verdict changes the digest
        root = tmp_path / "data"
        paths = fading_city(root)
        labels = write_labels(tmp_path, [(paths[0], REGULAR), (paths[28], REGULAR), (paths[2], OUTLIER)])
        removed = clean(root, "--labels", labels)
        fades = [p for i, p in enumerate(paths[:24]) if i % 3 == 2]
        assert 0 < sum(removed.get(p) == "ClusterOutlier" for p in fades) < len(fades)
        assert set(removed.values()) == {"Duplicate", "ZeroSize", "DecodeError", "ClusterOutlier"}
        assert hashlib.sha256((root / "testcity" / "removed.csv").read_bytes()).hexdigest() == (
            "8526f89bcca1b7037e836678aa138660d19832c2bb90414d7c593198992aff25"
        )

    def test_two_resolutions(self, tmp_path):
        # when byte size, width and height were features, the resolution
        # split outweighed the templates, and this city lost all six
        root = tmp_path / "data"
        paths = two_resolution_city(root, seed=11)
        templates = [paths[i] for i in (16, 49, 82, 116, 149, 182)]
        labels = [(p, REGULAR) for p in paths[::28]] + [(paths[i], OUTLIER) for i in (16, 82, 149)]
        removed = clean(root, "--labels", write_labels(tmp_path, labels))
        assert removed == dict.fromkeys(templates, "ClusterOutlier")

    def test_order_preserved(self, tmp_path):
        # cam2 is stored first; removed.csv still follows scan_manifest order
        root, _, cam2, removed = self.clean_dirty_city(tmp_path)
        paths = manifest_paths(root)
        idx = [paths.index(p) for p in removed]
        assert idx == sorted(idx)
        assert list(removed)[-1] in cam2
