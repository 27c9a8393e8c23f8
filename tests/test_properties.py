"""Randomized invariant suite: 1000 cases per property."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from densigraph import ingestion, kernels, synth
from densigraph.density import build_background
from densigraph.lrd import aggregate_series
from densigraph.quality import OUTLIER, REGULAR, ClusterModel, classify, fit_clusters
from densigraph.pgmio import write_p5
from densigraph.statfit import cdf_eval, fit_family, ks_statistic

from test_cli import removed_rows, run_ok
from test_density import make_frames

N_CASES = 1000


def test_tau_monotonicity():
    rng = np.random.default_rng(100)
    for _ in range(N_CASES):
        frame = rng.integers(0, 256, (8, 8)).astype(np.uint8)
        bg = rng.uniform(0, 255, (8, 8))
        t1, t2 = sorted(rng.uniform(0, 120, 2))
        d1, _ = kernels.highpass_sum(frame, bg, t1)
        d2, _ = kernels.highpass_sum(frame, bg, t2)
        assert d1 >= d2


def test_density_zero_iff_nothing_above_threshold():
    rng = np.random.default_rng(101)
    for _ in range(N_CASES):
        frame = rng.integers(0, 256, (6, 6)).astype(np.uint8)
        bg = rng.uniform(0, 255, (6, 6))
        tau = float(rng.uniform(0, 255))
        d, active = kernels.highpass_sum(frame, bg, tau)
        assert (d == 0) == (active == 0)
        assert 0 <= d <= frame.size * 255


def test_adding_vehicle_strictly_increases_density():
    rng = np.random.default_rng(102)
    for _ in range(N_CASES):
        bg = rng.uniform(0, 150, (10, 10))
        frame = np.clip(np.rint(bg), 0, 255).astype(np.uint8)
        tau = float(rng.uniform(5, 50))
        d0, _ = kernels.highpass_sum(frame, bg, tau)
        x, y = rng.integers(0, 8, 2)
        w, h = rng.integers(1, 3, 2)
        painted = frame.copy()
        painted[y : y + h, x : x + w] = np.minimum(
            255, np.ceil(bg[y : y + h, x : x + w] + tau + 2)
        ).astype(np.uint8)
        d1, _ = kernels.highpass_sum(painted, bg, tau)
        assert d1 > d0


def test_background_permutation_invariance():
    rng = np.random.default_rng(103)
    for _ in range(N_CASES):
        z = int(rng.integers(2, 6))
        arrays = [rng.integers(0, 256, (4, 4)) for _ in range(z)]
        a = build_background(make_frames(arrays), z)
        b = build_background(make_frames([arrays[i] for i in rng.permutation(z)]), z)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_aggregate_mean_preservation():
    rng = np.random.default_rng(104)
    for _ in range(N_CASES):
        n = int(rng.integers(5, 200))
        m = int(rng.integers(1, n + 1))
        v = rng.normal(size=n)
        out = aggregate_series(v, m)
        k = n // m
        assert out.mean() == pytest.approx(v[: k * m].mean(), abs=1e-12)


def test_aggregate_composition():
    rng = np.random.default_rng(105)
    for _ in range(N_CASES):
        a = int(rng.integers(1, 6))
        b = int(rng.integers(1, 6))
        blocks = int(rng.integers(1, 20))
        v = rng.normal(size=a * b * blocks)
        lhs = aggregate_series(aggregate_series(v, a), b)
        rhs = aggregate_series(v, a * b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


SCALE_PARAMS = {
    "exponential": lambda p: {"rate": p["rate"]},  # rate scales by 1/c
    "gamma": lambda p: p,
    "weibull": lambda p: p,
    "loglogistic": lambda p: p,
    "normal": lambda p: p,
}


def _positive_sample(rng, n):
    return np.exp(rng.normal(0.0, 0.7, n)) + 0.05


def test_fitter_scale_equivariance():
    rng = np.random.default_rng(106)
    families = ["exponential", "gamma", "weibull", "loglogistic", "normal"]
    scale_keys = {
        "exponential": [],
        "gamma": ["scale"],
        "weibull": ["scale"],
        "loglogistic": ["scale"],
        "normal": ["mu", "sigma"],
    }
    shape_keys = {
        "exponential": [],
        "gamma": ["shape"],
        "weibull": ["shape"],
        "loglogistic": ["shape"],
        "normal": [],
    }
    for i in range(N_CASES):
        family = families[i % len(families)]
        x = _positive_sample(rng, int(rng.integers(25, 60)))
        c = float(rng.uniform(0.2, 5.0))
        p1 = fit_family(family, x)
        p2 = fit_family(family, c * x)
        for key in scale_keys[family]:
            assert p2[key] == pytest.approx(c * p1[key], rel=1e-6)
        for key in shape_keys[family]:
            assert p2[key] == pytest.approx(p1[key], rel=1e-6)
        if family == "exponential":
            assert p2["rate"] == pytest.approx(p1["rate"] / c, rel=1e-6)


def _ks_against_uniform(u):
    u = np.sort(u)
    n = u.size
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - u, u - (i - 1) / n).max())


def test_ks_probability_integral_transform_invariance():
    rng = np.random.default_rng(107)
    cases = [
        ("exponential", {"rate": 1.7}),
        ("gamma", {"shape": 2.0, "scale": 1.0}),
        ("weibull", {"shape": 1.3, "scale": 2.0}),
        ("loglogistic", {"scale": 1.0, "shape": 3.0}),
        ("normal", {"mu": 0.0, "sigma": 1.0}),
    ]
    for i in range(N_CASES):
        family, params = cases[i % len(cases)]
        n = int(rng.integers(5, 80))
        sample = synth.sample_distribution(family, params, n, int(rng.integers(0, 2**32)))
        d_direct = ks_statistic(sample, family, params)
        u = np.asarray(cdf_eval(family, params, sample))
        assert _ks_against_uniform(u) == pytest.approx(d_direct, abs=1e-12)


def _random_features(rng):
    from test_quality import feat

    return feat(
        mean_intensity=float(rng.uniform(0, 255)),
        intensity_variance=float(rng.uniform(0, 500)),
        edge_density=float(rng.uniform(0, 1)),
    )


def test_clean_trace_partitions_input(tmp_path):
    """clean without labels: each record is kept or removed once, in
    scan_manifest order, and a record with no bytes is always ZeroSize."""
    rng = np.random.default_rng(108)
    t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    kinds = ("ok", "failed", "repeat", "garbage", "emptied", "cut")
    expected_reason = {"failed": "ZeroSize", "garbage": "DecodeError", "emptied": "ZeroSize", "cut": "DecodeError"}
    for case in range(N_CASES):
        root = tmp_path / str(case)
        store = ingestion.FrameStore(root)
        expected = {}
        for cam in rng.permutation(["c1", "c2"])[: int(rng.integers(1, 3))]:
            camera = ingestion.CameraMeta(str(cam), "city", 0.0, 0.0, 60.0)
            last = None
            for i in range(int(rng.integers(1, 8))):
                kind = kinds[int(rng.integers(len(kinds)))]
                frame = write_p5(rng.integers(0, 256, (4, 4), dtype=np.uint8))
                data = {"failed": b"", "garbage": b"junk", "repeat": last or frame}.get(kind, frame)
                rec = store.store_frame(camera, t0 + timedelta(minutes=i), data)
                last = data if rec.status == "stored" else last
                path = root / rec.relative_path
                if kind == "emptied" or (kind == "cut" and rec.status == "stored"):
                    path.write_bytes(b"" if kind == "emptied" else data[:-1])
                if rec.status == "duplicate":
                    expected[rec.relative_path] = "Duplicate"
                elif rec.status == "failed" or not path.read_bytes():
                    expected[rec.relative_path] = "ZeroSize"
                else:
                    expected[rec.relative_path] = expected_reason.get(kind)
        run_ok("--set", f"data_root={root}", "clean", "--city", "city")
        removed = [row.split(",") for row in removed_rows(root, city="city")]
        order = [r.relative_path for r in ingestion.scan_manifest(root, city="city")]
        assert sorted(order) == sorted(expected)
        assert removed == [[p, expected[p]] for p in order if expected[p]]


def test_standardization_round_trip():
    rng = np.random.default_rng(109)
    from test_quality import labeled_set, two_blob_features

    reg, out = two_blob_features(50, 8, seed=14)
    labeled = labeled_set((reg[0], REGULAR), (out[0], OUTLIER))
    model = fit_clusters(reg + out, labeled, k=3, seed=2)
    for _ in range(N_CASES):
        f = _random_features(rng)
        u = model.standardize(f)
        # un-standardize and re-standardize: exact round trip
        raw = model.feature_mean + model.feature_std * u
        again = (raw - model.feature_mean) / model.feature_std
        np.testing.assert_allclose(again, u, atol=1e-12)


def test_classify_matrix_equals_row_by_row():
    """classify over a matrix gives each row the label that classifying it
    alone gives, and that the nearest-centroid rule with ties broken by
    (label, index) gives, also for rows equidistant from an outlier and a
    regular centroid."""
    rng = np.random.default_rng(111)
    ties = 0
    for _ in range(N_CASES):
        k = int(rng.integers(2, 6))
        labels = [REGULAR, OUTLIER] + [str(rng.choice([REGULAR, OUTLIER])) for _ in range(k - 2)]
        labels = [labels[j] for j in rng.permutation(k)]
        kept = tuple(sorted(int(d) for d in rng.choice(6, int(rng.integers(1, 7)), replace=False)))
        dims = len(kept)
        # integer centroids, unit scale: midpoints are exact, so ties are exact
        model = ClusterModel(
            centroids=rng.integers(-4, 5, (k, dims)).astype(np.float64),
            cluster_labels=tuple(labels),
            feature_mean=np.zeros(dims),
            feature_std=np.ones(dims),
            kept_dims=kept,
        )
        rows = rng.uniform(-5, 5, (int(rng.integers(1, 8)), 6))
        o, r = labels.index(OUTLIER), labels.index(REGULAR)
        for _ in range(int(rng.integers(1, 4))):
            row = rng.uniform(-5, 5, 6)
            row[list(kept)] = (model.centroids[o] + model.centroids[r]) / 2
            rows = np.insert(rows, int(rng.integers(len(rows) + 1)), row, axis=0)
        expected = []
        for row in rows:
            d2 = ((row[list(kept)] - model.centroids) ** 2).sum(axis=1)
            ties += int((d2 == d2.min()).sum() > 1)
            expected.append(labels[min(range(k), key=lambda j: (d2[j], labels[j], j))])
        assert classify(model, rows) == expected
        assert [classify(model, row)[0] for row in rows] == expected
    assert ties > N_CASES


def test_iid_variance_scaling_null():
    rng = np.random.default_rng(110)
    v = rng.standard_normal(50_000)
    base = v.var(ddof=1)
    for m in (4, 16, 64):
        scaled = aggregate_series(v, m).var(ddof=1) * m
        assert scaled == pytest.approx(base, rel=0.2)
