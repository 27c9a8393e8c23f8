import weakref
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from densigraph import kernels, synth
from densigraph.density import (
    BackgroundModel,
    Frame,
    build_background,
    density,
    high_pass,
    process_sequence,
    read_trace_csv,
    to_grayscale,
    write_trace_csv,
)
from densigraph.errors import InsufficientFrames, OutOfOrderTimestamp, ShapeMismatch

T0 = datetime(2024, 3, 1, 8, 0, tzinfo=timezone.utc)


def make_frames(arrays, camera="cam1"):
    return [
        Frame(camera, T0 + timedelta(seconds=30 * i), np.asarray(a, dtype=np.uint8))
        for i, a in enumerate(arrays)
    ]


class TestGrayscale:
    def test_gray_identity(self):
        assert to_grayscale(128, 128, 128) == 128

    def test_white(self):
        assert to_grayscale(255, 255, 255) == 255

    def test_pure_red(self):
        # hand oracle: round(0.299 * 255) = round(76.245) = 76
        assert to_grayscale(255, 0, 0) == 76


class TestBuildBackground:
    def test_mean_of_constant_frames(self):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        bg = build_background(make_frames([img] * 5), z=5)
        np.testing.assert_array_equal(bg.values, img.astype(float))

    def test_mean_of_two_levels(self):
        frames = make_frames([np.zeros((2, 2)), np.full((2, 2), 100)])
        bg = build_background(frames, z=2)
        assert (bg.values == 50.0).all()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        arrays = [rng.integers(0, 256, (4, 4)) for _ in range(6)]
        bg1 = build_background(make_frames(arrays), z=6)
        perm = [arrays[i] for i in rng.permutation(6)]
        bg2 = build_background(make_frames(perm), z=6)
        np.testing.assert_allclose(bg1.values, bg2.values, atol=1e-9)

    def test_too_few_frames(self):
        with pytest.raises(InsufficientFrames):
            build_background(make_frames([np.zeros((2, 2))]), z=2)

    def test_shape_mismatch(self):
        frames = make_frames([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(ShapeMismatch):
            build_background(frames, z=2)

    def test_equals_float64_stack_mean_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for z in [2, 3, 7, 31, 64, 100]:
            arrays = rng.integers(0, 256, (z + 3, 48, 64), dtype=np.uint8)
            if z == 100:
                arrays[:] = 255  # largest possible sum
            bg = build_background(make_frames(arrays), z=z)
            expected = np.stack(arrays[:z]).astype(np.float64).mean(axis=0)
            assert np.array_equal(bg.values, expected)

    def test_accepts_a_generator(self):
        rng = np.random.default_rng(13)
        frames = make_frames(rng.integers(0, 256, (8, 4, 4), dtype=np.uint8))
        bg = build_background((f for f in frames), z=5)
        assert np.array_equal(bg.values, build_background(frames, z=5).values)
        assert bg.built_from == tuple(f.captured_at for f in frames[:5])

    def test_occlusion_error_bound(self):
        # oracle: the scene's uniform true background; every pixel occluded
        # in at most 5% of the averaged frames
        spec = _low_occlusion_spec(seed=11, frames=200)
        frames = synth.frames_from_spec(spec, "cam1")
        bg = build_background(frames, z=100)
        assert np.abs(bg.values - 60.0).max() <= 2.0


def _low_occlusion_spec(seed, frames=200):
    # 5-frame dwells on a disjoint grid: each pixel occluded <= 5 of the
    # first 100 frames, vehicle contrast 20 on background 60, noise 2
    events = []
    rng = np.random.default_rng(seed)
    cells = iter(rng.permutation(81))  # no cell repeats: occlusion stays <= 5/100
    for t in range(0, frames, 10):
        cell = int(next(cells))
        col, row = cell % 9, cell // 9
        events.append(
            synth.VehicleEvent(t, min(frames, t + 5), col * 11, row * 11, 8, 6, 80)
        )
    return synth.SceneSpec(100, 100, 60, tuple(events), 2.0, frames, seed)


def bg_of(values, camera="cam1"):
    return BackgroundModel(camera, np.asarray(values, dtype=np.float64), 2, (T0, T0))


class TestHighPass:
    def test_self_subtraction(self):
        img = np.full((3, 3), 77, dtype=np.uint8)
        frame = make_frames([img])[0]
        out = high_pass(frame, bg_of(img), tau=25)
        assert (out == 0).all()

    def test_single_bright_pixel(self):
        img = np.zeros((3, 3), dtype=np.uint8)
        img[1, 1] = 200
        out = high_pass(make_frames([img])[0], bg_of(np.zeros((3, 3))), tau=25)
        assert out[1, 1] == 200 and out.sum() == 200

    def test_sub_threshold_rejection(self):
        img = np.zeros((3, 3), dtype=np.uint8)
        img[0, 0] = 20
        out = high_pass(make_frames([img])[0], bg_of(np.zeros((3, 3))), tau=25)
        assert (out == 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            high_pass(make_frames([np.zeros((2, 2))])[0], bg_of(np.zeros((3, 3))), 25)


class TestDensity:
    def test_all_zero(self):
        assert density(np.zeros((5, 5), dtype=np.uint8)) == (0, 0.0)

    def test_saturation(self):
        d, norm = density(np.full((100, 100), 255, dtype=np.uint8))
        assert d == 2_550_000 and norm == 1.0

    def test_single_pixel(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[0, 0] = 200
        d, norm = density(img)
        assert d == 200 and norm == pytest.approx(200 / 25500)


class TestKernelContract:
    def test_sum_equals_image_sum_and_mask_count(self):
        rng = np.random.default_rng(0)
        shape = (17, 23)
        for tau in [0.0, 0.5, 25.0, 60.0] + list(rng.uniform(0, 60, 16)):
            frame = rng.integers(0, 256, shape).astype(np.uint8)
            # a third of the background sits on x.5, so residuals land exactly on .5
            bg = np.where(
                rng.random(shape) < 1 / 3,
                rng.integers(0, 255, shape) + 0.5,
                rng.uniform(0, 255, shape),
            )
            image = kernels.highpass_image(frame, bg, tau)
            assert kernels.highpass_sum(frame, bg, tau) == (
                int(image.astype(np.int64).sum()),
                int(((frame - bg) > tau).sum()),
            )

    def test_half_residuals_round_to_even(self):
        frame = np.array([[31, 32, 200]], dtype=np.uint8)
        bg = np.full((1, 3), 0.5)
        np.testing.assert_array_equal(
            kernels.highpass_image(frame, bg, 25.0), [[30, 32, 200]]
        )
        assert kernels.highpass_sum(frame, bg, 25.0) == (262, 3)


class TestProcessSequence:
    def test_identical_frames(self):
        img = np.full((10, 10), 90, dtype=np.uint8)
        records = process_sequence(make_frames([img] * 150), z=100, tau=25)
        assert len(records) == 150
        assert all(r.raw_density == 0 and r.normalized == 0.0 for r in records)

    def test_correlates_with_coverage(self):
        spec = synth.random_scene_spec(3)
        frames = synth.frames_from_spec(spec, "cam1")
        records = process_sequence(frames, z=100, tau=25)
        cov = [synth.coverage_truth(spec, t) for t in range(spec.frame_count)]
        norm = [r.normalized for r in records]
        assert np.corrcoef(norm, cov)[0, 1] >= 0.95

    def test_monotone_vehicles_monotone_density(self):
        # paint 0..49 disjoint rectangles over a constant background
        base = np.full((60, 60), 50, dtype=np.uint8)
        arrays = []
        for count in [0] * 10 + list(range(50)):
            img = base.copy()
            for v in range(count):
                img[(v // 10) * 6 : (v // 10) * 6 + 5, (v % 10) * 6 : (v % 10) * 6 + 5] = 200
            arrays.append(img)
        records = process_sequence(make_frames(arrays), z=10, tau=25)
        norm = [r.normalized for r in records]
        eps = 1 / (60 * 60 * 255)
        assert all(b >= a - eps for a, b in zip(norm, norm[1:]))

    def test_deterministic(self):
        spec = synth.random_scene_spec(9, frame_count=120)
        frames = synth.frames_from_spec(spec, "cam1")
        r1 = process_sequence(frames, z=100, tau=25)
        r2 = process_sequence(frames, z=100, tau=25)
        assert r1 == r2

    def test_insufficient_frames(self):
        with pytest.raises(InsufficientFrames):
            process_sequence(make_frames([np.zeros((2, 2))] * 5), z=10)

    def test_generator_equals_list(self):
        spec = synth.random_scene_spec(4, frame_count=130)
        frames = synth.frames_from_spec(spec, "cam1")
        streamed = process_sequence((f for f in frames), z=100, tau=25)
        assert streamed == process_sequence(frames, z=100, tau=25)
        assert len(streamed) == 130

    def test_holds_at_most_z_frames(self):
        refs = []
        peak = 0

        def stream():
            nonlocal peak
            for i in range(40):
                frame = Frame("cam1", T0 + timedelta(seconds=i), np.full((4, 4), i, np.uint8))
                refs.append(weakref.ref(frame))
                peak = max(peak, sum(r() is not None for r in refs))
                yield frame

        assert len(process_sequence(stream(), z=5, tau=25)) == 40
        assert peak <= 5

    @pytest.mark.parametrize("at", [3, 8], ids=["in_window", "after_window"])
    def test_backwards_timestamp_raises(self, at):
        frames = make_frames(np.zeros((10, 2, 2)))
        frames[at], frames[at - 1] = frames[at - 1], frames[at]
        with pytest.raises(OutOfOrderTimestamp):
            process_sequence(frames, z=5)

    def test_shape_change_after_window_raises(self):
        arrays = [np.zeros((4, 4))] * 7 + [np.zeros((4, 5))] + [np.zeros((4, 4))]
        with pytest.raises(ShapeMismatch, match=r"\(4, 5\)"):
            process_sequence(make_frames(arrays), z=5)

    def test_camera_change_after_window_raises(self):
        frames = make_frames([np.zeros((2, 2))] * 6)
        frames[5] = Frame("cam2", frames[5].captured_at, frames[5].pixels)
        with pytest.raises(ShapeMismatch, match="mixed cameras"):
            process_sequence(frames, z=5)


class TestTraceCsv:
    def test_round_trip_and_format(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[0, 0] = 200
        records = process_sequence(make_frames([img] * 2 + [img] * 1), z=2, tau=25)
        text = write_trace_csv(records)
        assert text.splitlines()[0] == "camera_id,captured_at,raw_density,normalized"
        assert "2024-03-01T08:00:00Z" in text
        assert read_trace_csv(text) == [
            type(r)(r.camera_id, r.captured_at, r.raw_density, float(f"{r.normalized:.6f}"))
            for r in records
        ]
