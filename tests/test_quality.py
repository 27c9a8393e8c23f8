import numpy as np
import pytest

from densigraph import synth
from densigraph.errors import TooFewPoints
from densigraph.pgmio import write_p5
from densigraph.quality import (
    OUTLIER,
    REGULAR,
    ClusterModel,
    ImageFeatures,
    LabeledSet,
    TraceEntry,
    classify,
    clean_trace,
    extract_features,
    fit_clusters,
    rule_filter,
)


def feat(**kw):
    base = dict(
        byte_size=1000,
        decode_ok=True,
        width=10,
        height=10,
        mean_intensity=100.0,
        intensity_variance=50.0,
        edge_density=0.2,
    )
    base.update(kw)
    return ImageFeatures(**base)


class TestExtractFeatures:
    def test_empty_bytes(self):
        f = extract_features(b"")
        assert f == ImageFeatures(0, False, 0, 0, 0.0, 0.0, 0.0)

    def test_garbage_bytes(self):
        f = extract_features(b"this is not an image at all")
        assert not f.decode_ok and f.byte_size == 27

    def test_uniform_gray(self):
        data = write_p5(np.full((10, 10), 128, dtype=np.uint8))
        f = extract_features(data)
        assert f.decode_ok
        assert f.mean_intensity == 128.0
        assert f.intensity_variance == 0.0
        assert f.edge_density == 0.0

    def test_checkerboard_edges(self):
        board = np.indices((8, 8)).sum(axis=0) % 2 * 255
        f = extract_features(write_p5(board.astype(np.uint8)))
        assert f.edge_density == 1.0

    def test_deterministic(self):
        data = write_p5(np.random.default_rng(0).integers(0, 256, (6, 6)).astype(np.uint8))
        assert extract_features(data) == extract_features(data)


class TestRuleFilter:
    def test_zero_size(self):
        assert rule_filter(feat(byte_size=0, decode_ok=False)) == "ZeroSize"

    def test_decode_error(self):
        assert rule_filter(feat(decode_ok=False)) == "DecodeError"

    def test_pass(self):
        assert rule_filter(feat()) is None


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
        labeled = LabeledSet(((reg[0], REGULAR), (out[0], OUTLIER)))
        model = fit_clusters(reg + out, labeled, k=2, seed=0)
        assert classify(model, reg[1]) == REGULAR
        assert classify(model, out[1]) == OUTLIER

    def test_identical_unlabeled_inherit_regular(self):
        reg, out = two_blob_features(1, 1)
        points = [feat()] * 10
        labeled = LabeledSet(((feat(), REGULAR), (out[0], OUTLIER)))
        model = fit_clusters(points, labeled, k=3, seed=0)
        assert classify(model, feat()) == REGULAR

    def test_too_few_points(self):
        reg, out = two_blob_features(1, 1)
        labeled = LabeledSet(((reg[0], REGULAR), (out[0], OUTLIER)))
        with pytest.raises(TooFewPoints):
            fit_clusters([feat()], labeled, k=2, seed=0)

    def test_deterministic_given_seed(self):
        reg, out = two_blob_features(40, 5, seed=3)
        labeled = LabeledSet(((reg[0], REGULAR), (out[0], OUTLIER)))
        m1 = fit_clusters(reg + out, labeled, k=4, seed=9)
        m2 = fit_clusters(reg + out, labeled, k=4, seed=9)
        np.testing.assert_array_equal(m1.centroids, m2.centroids)
        assert m1.cluster_labels == m2.cluster_labels

    def test_synthetic_corpus_recall_and_fpr(self):
        # oracle: the generating labels of the synthetic corpus
        reg, out = two_blob_features(950, 50, seed=7)
        held_reg, held_out = two_blob_features(200, 40, seed=8)
        labeled = LabeledSet(
            tuple((f, REGULAR) for f in reg[:7]) + tuple((f, OUTLIER) for f in out[:3])
        )
        model = fit_clusters(reg + out, labeled, k=4, seed=0)
        out_hits = sum(classify(model, f) == OUTLIER for f in held_out)
        false_pos = sum(classify(model, f) == OUTLIER for f in held_reg)
        assert out_hits / len(held_out) >= 0.95
        assert false_pos / len(held_reg) <= 0.02


class TestClassify:
    def centroids_model(self):
        return ClusterModel(
            centroids=np.array([[-1.0], [1.0]]),
            cluster_labels=(REGULAR, OUTLIER),
            feature_mean=np.zeros(1),
            feature_std=np.ones(1),
            kept_dims=(4,),  # mean_intensity drives the toy model
        )

    def test_at_centroids(self):
        model = self.centroids_model()
        assert classify(model, feat(mean_intensity=-1.0)) == REGULAR
        assert classify(model, feat(mean_intensity=1.0)) == OUTLIER

    def test_midpoint_tie_breaks_lexicographically(self):
        model = self.centroids_model()
        # equidistant: 'outlier' < 'regular' lexicographically
        assert classify(model, feat(mean_intensity=0.0)) == OUTLIER

    def test_standardize_idempotent_on_stored_params(self):
        reg, out = two_blob_features(30, 5, seed=2)
        labeled = LabeledSet(((reg[0], REGULAR), (out[0], OUTLIER)))
        model = fit_clusters(reg + out, labeled, k=3, seed=1)
        v = model.standardize(reg[5].vector())
        assert np.isfinite(v).all()


class TestCleanTrace:
    def entries(self):
        reg, out = two_blob_features(20, 3, seed=5)
        labeled = LabeledSet(((reg[0], REGULAR), (out[0], OUTLIER)))
        model = fit_clusters(reg + out, labeled, k=2, seed=0)
        entries = (
            [TraceEntry(f"r{i}.pgm", f) for i, f in enumerate(reg)]
            + [TraceEntry("zero.pgm", feat(byte_size=0, decode_ok=False))]
            + [TraceEntry("bad.pgm", feat(decode_ok=False))]
            + [TraceEntry("dup.pgm", reg[1], is_duplicate=True)]
            + [TraceEntry(f"o{i}.pgm", f) for i, f in enumerate(out)]
        )
        return entries, model

    def test_partition(self):
        entries, model = self.entries()
        kept, removed = clean_trace(entries, model)
        assert len(kept) + len(removed) == len(entries)
        assert set(id(e) for e in kept).isdisjoint(id(e) for e, _ in removed)
        assert [e for e in entries if e in kept or any(e is r for r, _ in removed)]

    def test_reasons(self):
        entries, model = self.entries()
        _, removed = clean_trace(entries, model)
        reasons = {e.relative_path: r for e, r in removed}
        assert reasons["zero.pgm"] == "ZeroSize"
        assert reasons["bad.pgm"] == "DecodeError"
        assert reasons["dup.pgm"] == "Duplicate"
        assert reasons["o0.pgm"] == "ClusterOutlier"

    def test_rules_precede_clustering(self):
        entries, model = self.entries()
        _, removed = clean_trace(entries, model)
        for e, reason in removed:
            if e.features.byte_size == 0:
                assert reason == "ZeroSize"

    def test_no_outliers_keeps_all(self):
        reg, out = two_blob_features(10, 1, seed=6)
        entries = [TraceEntry(f"r{i}", f) for i, f in enumerate(reg)]
        kept, removed = clean_trace(entries, None)
        assert kept == entries and removed == []

    def test_only_zero_size(self):
        entries = [TraceEntry("z", feat(byte_size=0, decode_ok=False))] * 3
        kept, removed = clean_trace(entries, None)
        assert kept == [] and len(removed) == 3

    def test_order_preserved(self):
        entries, model = self.entries()
        kept, _ = clean_trace(entries, model)
        idx = [entries.index(e) for e in kept]
        assert idx == sorted(idx)
