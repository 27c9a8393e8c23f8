import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from densigraph import synth
from densigraph.errors import InvalidH, InvalidParams, InvalidSpec
from densigraph.pgmio import write_p5
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

    @pytest.mark.parametrize(
        "width, height, frames, bound",
        [(640, 480, 20, 640 * 480 * 8), (1920, 1080, 3, 4 * 1920 * 1080)],
        ids=["480x640-under-one-float64-frame", "1080p-under-four-uint8-frames"],
    )
    def test_render_and_encode_hold_no_float_frame(self, width, height, frames, bound):
        # the float64 work is done in row blocks, and write_p5 copies the raster once
        spec = synth.random_scene_spec(4, width=width, height=height, frame_count=frames)
        tracemalloc.start()
        try:
            size = sum(len(write_p5(frame.pixels)) for frame in synth.frames_from_spec(spec))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size == frames * (width * height + len(b"P5\n%d %d\n255\n" % (width, height)))
        assert peak < bound, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                # an array background, not a multiple of 0.5
                synth.SceneSpec(
                    40, 30, np.add.outer(np.arange(30) * 2.0, np.arange(40) * 0.5) + 10.25,
                    (synth.VehicleEvent(1, 4, 5, 6, 10, 8, 230),), 3.0, 5, 7,
                ),
                "ec6aba742f1e53ddd1277e3b79ce52bf77c628ee900f3f5d1782b070919b036e",
            ),
            (
                # no noise is drawn; 60.5 rounds half to even
                synth.SceneSpec(
                    50, 20, 60.5,
                    (synth.VehicleEvent(0, 3, 4, 2, 10, 6, 200), synth.VehicleEvent(1, 4, 30, 10, 15, 8, 180)),
                    0.0, 4, 3,
                ),
                "56c9ec59d3f41412dbaee03466c55ff91f4bbb5860270c1415d8c439d72f2db8",
            ),
            (
                # overlapping rectangles: the later event is drawn over the earlier
                synth.SceneSpec(
                    64, 48, 60,
                    (
                        synth.VehicleEvent(0, 6, 10, 10, 20, 20, 200),
                        synth.VehicleEvent(2, 5, 20, 15, 20, 20, 120),
                        synth.VehicleEvent(3, 6, 5, 5, 40, 30, 250),
                    ),
                    4.0, 6, 5,
                ),
                "2d8b71909548661a26cc5ddf31da4a360d0417b1f85eaed2874c8cd47e2bfdc0",
            ),
            (
                # 25-row blocks: the rectangles cross rows 25 and 50
                synth.SceneSpec(
                    640, 60, 60,
                    (synth.VehicleEvent(0, 3, 100, 20, 50, 10, 200), synth.VehicleEvent(1, 3, 300, 45, 60, 10, 150)),
                    5.0, 3, 9,
                ),
                "036119d829af4aa6161e291cde40e56b94b6bed4aaa95ad468b79f717c9c3924",
            ),
            (
                # each row is wider than a block, so it is a block of its own
                synth.SceneSpec(
                    20000, 3, 60,
                    (synth.VehicleEvent(0, 2, 16000, 0, 500, 3, 200), synth.VehicleEvent(1, 2, 0, 1, 30, 2, 220)),
                    2.0, 2, 4,
                ),
                "7e9b5866e8f6555b838503c1b889d1700595020ff578d66dcc951c34972f62d6",
            ),
            (
                # 16-row blocks over 37 rows: the last block is 5 rows
                synth.SceneSpec(1000, 37, 60, (synth.VehicleEvent(0, 3, 200, 10, 100, 20, 200),), 4.0, 3, 6),
                "9f1b8503cdda300c127226eecf1ae980fe8f28870aaf8bd132e4928f8f36043b",
            ),
        ],
        ids=["array-background", "no-noise", "overlap", "straddles-block", "wider-than-block", "short-last-block"],
    )
    def test_render_paths_are_pinned(self, spec, digest):
        # digests of the whole-frame renderer that the row-block renderer replaced
        sha = hashlib.sha256()
        for f in synth.render_scene_sequence(spec):
            sha.update(f.tobytes())
        assert sha.hexdigest() == digest

    def test_scalar_background_renders_as_its_map(self):
        spec = synth.random_scene_spec(8, width=300, height=70, frame_count=5)
        mapped = synth.SceneSpec(
            spec.width, spec.height, np.full((spec.height, spec.width), float(spec.background)), spec.vehicle_events,
            spec.noise_stddev, spec.frame_count, spec.seed,
        )
        for a, b in zip(synth.render_scene_sequence(spec), synth.render_scene_sequence(mapped), strict=True):
            assert np.array_equal(a, b)

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

    @pytest.mark.parametrize(
        "background",
        ['"60"', "true", "false", "null", '[["60", "60"], ["60", "60"]]', "[[true, 1], [1, 1]]",
         "[[60, 60], [60]]", "[60, 60]", '{"value": 60}', "[[[60]]]"],
        ids=["string", "true", "false", "null", "grid-of-strings", "bool-in-grid",
             "ragged-grid", "flat-list", "object", "nested-grid"],
    )
    def test_background_of_the_wrong_type_is_refused(self, background):
        text = (
            '{"vehicle_events": [], "width": 2, "height": 2, "background": %s,'
            ' "noise_stddev": 0, "frame_count": 1, "seed": 0}' % background
        )
        with pytest.raises(InvalidSpec, match=r"^background .* is not a number or a grid of numbers"):
            synth.SceneSpec.from_json(text)

    @pytest.mark.parametrize("background", ["60", "60.5", "[[60, 61.5], [0, 255]]"])
    def test_number_or_grid_of_numbers_is_a_background(self, background):
        text = (
            '{"vehicle_events": [], "width": 2, "height": 2, "background": %s,'
            ' "noise_stddev": 0, "frame_count": 1, "seed": 0}' % background
        )
        spec = synth.SceneSpec.from_json(text)
        (frame,) = synth.render_scene_sequence(spec)
        assert np.array_equal(frame, np.rint(np.broadcast_to(json.loads(background), (2, 2))))
        assert json.loads(spec.to_json())["background"] == json.loads(background)

    @pytest.mark.parametrize(
        "background",
        ["1" + "0" * 400, "[[1%s, 0], [0, 0]]" % ("0" * 400), "-1", "255.5", "1e400", "NaN", "[[0, NaN], [0, 0]]"],
        ids=["400-digit-integer", "400-digit-integer-in-grid", "negative", "above-255", "inf", "nan", "nan-in-grid"],
    )
    def test_background_outside_0_255_is_refused(self, background):
        text = (
            '{"vehicle_events": [], "width": 2, "height": 2, "background": %s,'
            ' "noise_stddev": 0, "frame_count": 1, "seed": 0}' % background
        )
        spec = synth.SceneSpec.from_json(text)
        with pytest.raises(InvalidSpec, match="^background"):
            synth.render_scene_sequence(spec)

    @pytest.mark.parametrize("background", ["60", True, None])
    def test_constructed_scalar_background_must_be_a_number(self, background):
        with pytest.raises(InvalidSpec, match="background"):
            synth.render_scene_sequence(synth.SceneSpec(4, 3, background, (), 0.0, 1, 0))


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
