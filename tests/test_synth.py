import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from densigraph import synth
from densigraph.errors import InvalidH, InvalidParams, InvalidSpec
from densigraph.statfit import ks_critical_95, ks_statistic


def plain_spec(events=(), noise=0.0, frames=20, seed=0):
    return synth.SceneSpec(100, 100, 60, tuple(events), noise, frames, seed)


class TestRenderScene:
    def test_no_vehicles_no_noise(self):
        frames = synth.render_scene_sequence(plain_spec())
        for f in frames:
            assert (f == 60).all()

    def test_rectangle_pixel_count(self):
        ev = synth.VehicleEvent(5, 11, 20, 30, 10, 10, 200)
        frames = synth.render_scene_sequence(plain_spec([ev]))
        for t, f in enumerate(frames):
            differing = int((f != 60).sum())
            assert differing == (100 if 5 <= t < 11 else 0)

    def test_deterministic(self):
        spec = plain_spec(noise=4.0, seed=77)
        a = list(synth.render_scene_sequence(spec))
        b = list(synth.render_scene_sequence(spec))
        assert len(a) == len(b) == 20
        assert all((x == y).all() for x, y in zip(a, b))

    def test_frames_are_pinned(self):
        # locks the noise draws and their order: the seed fixes every frame's bytes
        spec = synth.random_scene_spec(11, width=160, height=120, frame_count=64)
        digest = hashlib.sha256()
        for f in synth.render_scene_sequence(spec):
            digest.update(f.tobytes())
        assert digest.hexdigest() == "17a1630863f58dc24c50cd80c1442252dcac069f91f840a9bffef11091cf977b"

    def test_holds_one_frame_at_a_time(self):
        spec = synth.random_scene_spec(4, width=640, height=480, frame_count=60)
        float_frame = 640 * 480 * 8
        tracemalloc.start()
        try:
            count = sum(1 for _ in synth.frames_from_spec(spec))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 60
        assert peak < 4 * float_frame, f"peak {peak / 2**20:.1f} MiB"

    def test_frames_are_the_same_on_every_iteration(self):
        spec = synth.random_scene_spec(4, width=32, height=24, frame_count=20)
        frames = synth.frames_from_spec(spec, step_seconds=30.0)
        first, second = list(frames), list(frames)
        assert len(first) == len(second) == 20
        for a, b in zip(first, second):
            assert a.captured_at == b.captured_at and np.array_equal(a.pixels, b.pixels)
        rendered = list(synth.render_scene_sequence(spec))
        assert all(np.array_equal(f.pixels, r) for f, r in zip(first, rendered))

    def test_invalid_rectangle(self):
        ev = synth.VehicleEvent(0, 5, 95, 95, 10, 10, 200)
        with pytest.raises(InvalidSpec):
            synth.render_scene_sequence(plain_spec([ev]))
        with pytest.raises(InvalidSpec):
            synth.frames_from_spec(plain_spec([ev]))

    def test_intensity_too_close_to_background(self):
        ev = synth.VehicleEvent(0, 5, 0, 0, 10, 10, 65)
        with pytest.raises(InvalidSpec):
            synth.render_scene_sequence(plain_spec([ev], noise=4.0))

    def test_scene_json_round_trip(self):
        spec = synth.random_scene_spec(3, frame_count=50)
        assert synth.SceneSpec.from_json(spec.to_json()) == spec

    def test_scene_json_torn_names_line(self):
        text = json.dumps(json.loads(synth.random_scene_spec(3, frame_count=5).to_json()), indent=1)
        with pytest.raises(InvalidSpec, match=r"^line \d+: "):
            synth.SceneSpec.from_json(text[:-10])

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"width": 4}',
            '{"vehicle_events": [], "width": 4}',
            '{"vehicle_events": [{"x": 1}], "width": 4, "height": 4, "background": 0,'
            ' "noise_stddev": 0, "frame_count": 1, "seed": 0}',
            '{"vehicle_events": [], "width": 4, "height": 4, "background": 0,'
            ' "noise_stddev": 0, "frame_count": 1, "seed": 0, "extra": 1}',
            '{"vehicle_events": [], "width": 4.0, "height": 4, "background": 0,'
            ' "noise_stddev": 0, "frame_count": 1, "seed": 0}',
            '{"vehicle_events": [], "width": 4, "height": 4, "background": "grey",'
            ' "noise_stddev": 0, "frame_count": 1, "seed": 0}',
        ],
        ids=["list", "missing-events", "missing-key", "bad-event", "unknown-key", "float-width", "str-background"],
    )
    def test_scene_json_malformed(self, text):
        with pytest.raises(InvalidSpec):
            synth.SceneSpec.from_json(text)

    def test_background_shape_must_match(self):
        spec = synth.SceneSpec(4, 3, np.zeros((4, 3)), (), 0.0, 1, 0)
        with pytest.raises(InvalidSpec, match="background"):
            synth.render_scene_sequence(spec)


class TestCoverageTruth:
    def test_empty(self):
        assert synth.coverage_truth(plain_spec(), 0) == 0.0

    def test_single_rectangle(self):
        ev = synth.VehicleEvent(0, 5, 10, 10, 10, 10, 200)
        assert synth.coverage_truth(plain_spec([ev]), 0) == 0.01

    def test_union_not_sum(self):
        a = synth.VehicleEvent(0, 5, 10, 10, 10, 10, 200)
        b = synth.VehicleEvent(0, 5, 15, 10, 10, 10, 200)  # shares a 5x10 strip
        assert synth.coverage_truth(plain_spec([a, b]), 0) == 0.015

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            synth.coverage_truth(plain_spec(frames=5), 5)

    def test_agrees_with_noiseless_render(self):
        spec = synth.random_scene_spec(8, frame_count=40, noise_stddev=0.0)
        frames = list(synth.render_scene_sequence(spec))
        for t in (0, 10, 39):
            painted = int((frames[t] != 60).sum())
            assert painted == round(synth.coverage_truth(spec, t) * 100 * 100)


class TestSampleDistribution:
    def test_exponential_inverse_cdf(self):
        x = synth.inverse_cdf("exponential", {"rate": 1.0}, np.array([0.5]))
        assert x[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_loglogistic_median(self):
        x = synth.inverse_cdf("loglogistic", {"scale": 3, "shape": 4}, np.array([0.5]))
        assert x[0] == pytest.approx(3.0, abs=1e-12)

    def test_gamma_mean_clt(self):
        sample = synth.sample_distribution("gamma", {"shape": 2, "scale": 3}, 1_000_000, 9)
        assert 5.97 <= sample.mean() <= 6.03  # k*theta = 6

    def test_deterministic(self):
        a = synth.sample_distribution("weibull", {"shape": 1.5, "scale": 2}, 100, 4)
        b = synth.sample_distribution("weibull", {"shape": 1.5, "scale": 2}, 100, 4)
        np.testing.assert_array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            synth.sample_distribution("gamma", {"shape": -1, "scale": 3}, 10, 0)
        with pytest.raises(InvalidParams):
            synth.sample_distribution("cauchy", {}, 10, 0)
        for params in (
            {"mu": 0, "sigma": 0},
            {"mu": 0, "sigma": float("nan")},
            {"mu": 0, "sigma": float("inf")},
            {"mu": float("inf"), "sigma": 1},
            {"mu": float("-inf"), "sigma": 1},
            {"mu": float("nan"), "sigma": 1},
        ):
            with pytest.raises(InvalidParams):
                synth.sample_distribution("normal", params, 10, 0)

    def test_empirical_cdf_convergence(self):
        n = 2000
        hits = 0
        for seed in range(100):
            s = synth.sample_distribution("loglogistic", {"scale": 3, "shape": 4}, n, seed)
            if ks_statistic(s, "loglogistic", {"scale": 3, "shape": 4}) < ks_critical_95(n):
                hits += 1
        assert hits >= 95

    def test_small_shape_gamma(self):
        s = synth.sample_distribution("gamma", {"shape": 0.5, "scale": 1.0}, 50_000, 12)
        assert s.mean() == pytest.approx(0.5, abs=0.02)
        assert (s > 0).all()


class TestGenFgn:
    def test_h_half_lag1_near_zero(self):
        v = synth.gen_fgn(0.5, 100_000, 21)
        lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(lag1) <= 3 / math.sqrt(100_000)

    def test_h08_lag1_analytic(self):
        # analytic gamma(1) = (2^1.6 - 2) / 2
        v = synth.gen_fgn(0.8, 100_000, 22)
        lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert lag1 == pytest.approx((2**1.6 - 2) / 2, abs=0.02)

    def test_deterministic(self):
        a = synth.gen_fgn(0.7, 1000, 5)
        b = synth.gen_fgn(0.7, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_unit_variance(self):
        v = synth.gen_fgn(0.7, 100_000, 23)
        assert abs(v.var() - 1.0) < 0.05

    def test_invalid_h(self):
        with pytest.raises(InvalidH):
            synth.gen_fgn(1.0, 100, 0)
        with pytest.raises(InvalidH):
            synth.gen_fgn(0.5, 1, 0)


class TestDiurnalScene:
    def test_profile_shape(self):
        spec = synth.diurnal_scene_spec(1, frames_per_hour=20)
        cov_by_hour = {}
        for hour in (8, 11, 12, 13, 17):
            fr = range(hour * 20, (hour + 1) * 20)
            cov_by_hour[hour] = np.mean([synth.coverage_truth(spec, t) for t in fr])
        assert cov_by_hour[8] > max(cov_by_hour[h] for h in (11, 12, 13))
        assert cov_by_hour[17] > max(cov_by_hour[h] for h in (11, 12, 13))
