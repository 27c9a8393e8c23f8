import hashlib
import weakref
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from densigraph import kernels, synth
from densigraph.density import (
    Frame,
    Trace,
    build_background,
    process_sequence,
    read_trace_csv,
    write_trace_csv,
)
from densigraph.errors import InsufficientFrames, OutOfOrderTimestamp, ShapeMismatch
from densigraph.ingestion import format_rfc3339
from densigraph.pgmio import to_grayscale

T0 = datetime(2024, 3, 1, 8, 0, tzinfo=timezone.utc)


def make_frames(arrays):
    return [
        Frame(T0 + timedelta(seconds=30 * i), np.asarray(a, dtype=np.uint8))
        for i, a in enumerate(arrays)
    ]


class Reiterable:
    """Frames from a fresh ``make_iter()`` on each iteration."""

    def __init__(self, make_iter):
        self.make_iter = make_iter

    def __iter__(self):
        return self.make_iter()


def assert_traces_equal(a, b):
    for name in ("seconds", "raw_density", "normalized"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def gray(r, g, b):
    return to_grayscale(*(np.full((2, 3), v, dtype=np.uint8) for v in (r, g, b)))


class TestGrayscale:
    def test_gray_identity(self):
        out = gray(128, 128, 128)
        assert out.dtype == np.uint8 and out.shape == (2, 3) and (out == 128).all()

    def test_white(self):
        assert (gray(255, 255, 255) == 255).all()

    def test_pure_red(self):
        # hand oracle: round(0.299 * 255) = round(76.245) = 76
        assert (gray(255, 0, 0) == 76).all()


class TestBuildBackground:
    def test_mean_of_constant_frames(self):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        bg = build_background(make_frames([img] * 5), z=5)
        np.testing.assert_array_equal(bg, img.astype(float))

    def test_mean_of_two_levels(self):
        frames = make_frames([np.zeros((2, 2)), np.full((2, 2), 100)])
        bg = build_background(frames, z=2)
        assert (bg == 50.0).all()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        arrays = [rng.integers(0, 256, (4, 4)) for _ in range(6)]
        bg1 = build_background(make_frames(arrays), z=6)
        perm = [arrays[i] for i in rng.permutation(6)]
        bg2 = build_background(make_frames(perm), z=6)
        np.testing.assert_allclose(bg1, bg2, atol=1e-9)

    def test_too_few_frames(self):
        with pytest.raises(InsufficientFrames):
            build_background(make_frames([np.zeros((2, 2))]), z=2)

    def test_short_window_with_a_bad_frame_is_too_few_frames(self):
        frames = make_frames([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(InsufficientFrames, match="need >= 3 frames, got 2"):
            build_background(frames, z=3)

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
            assert np.array_equal(bg, expected)

    def test_accepts_a_generator(self):
        rng = np.random.default_rng(13)
        frames = make_frames(rng.integers(0, 256, (8, 4, 4), dtype=np.uint8))
        bg = build_background((f for f in frames), z=5)
        assert np.array_equal(bg, build_background(frames, z=5))

    def test_occlusion_error_bound(self):
        # oracle: the scene's uniform true background; every pixel occluded
        # in at most 5% of the averaged frames
        spec = _low_occlusion_spec(seed=11, frames=200)
        frames = synth.frames_from_spec(spec)
        bg = build_background(frames, z=100)
        assert np.abs(bg - 60.0).max() <= 2.0


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


class TestHighPass:
    def test_self_subtraction(self):
        img = np.full((3, 3), 77, dtype=np.uint8)
        out = kernels.highpass_image(img, img.astype(np.float64), 25.0)
        assert (out == 0).all()

    def test_single_bright_pixel(self):
        img = np.zeros((3, 3), dtype=np.uint8)
        img[1, 1] = 200
        out = kernels.highpass_image(img, np.zeros((3, 3)), 25.0)
        assert out[1, 1] == 200 and out.sum() == 200

    def test_sub_threshold_rejection(self):
        img = np.zeros((3, 3), dtype=np.uint8)
        img[0, 0] = 20
        out = kernels.highpass_image(img, np.zeros((3, 3)), 25.0)
        assert (out == 0).all()


def last_record(img, z=2):
    """The density row of ``img`` after z zero frames (a zero background)."""
    img = np.asarray(img, dtype=np.uint8)
    trace = process_sequence(make_frames([np.zeros_like(img)] * z + [img]), z=z, tau=25)
    return int(trace.raw_density[-1]), float(trace.normalized[-1])


class TestDensity:
    def test_all_zero(self):
        assert last_record(np.zeros((5, 5))) == (0, 0.0)

    def test_saturation(self):
        d, norm = last_record(np.full((100, 100), 255))
        assert d == 2_550_000 and norm == 1.0

    def test_single_pixel(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[0, 0] = 200
        d, norm = last_record(img)
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


def image_from_maps(frame, maps):
    """Per pixel, the residual that highpass_sum adds up, read from its maps
    as HighpassMaps documents them."""
    kept = frame > maps.threshold
    image = np.where(kept, frame.astype(np.int64) - maps.offset, 0).reshape(-1)
    image[maps.tie_index] &= ~1
    return image.reshape(frame.shape)


def assert_kernel_matches_definition(bg, taus):
    """For every k in 0..255, a 1 x N frame of k against the backgrounds in
    ``bg``: the maps give highpass_image's value at each pixel, and
    highpass_sum its sum and the count of residuals above tau."""
    bg = np.asarray(bg, dtype=np.float64).reshape(1, -1)
    for tau in taus:
        maps = kernels.highpass_maps(bg, tau)
        for k in range(256):
            frame = np.full(bg.shape, k, dtype=np.uint8)
            image = kernels.highpass_image(frame, bg, tau)
            np.testing.assert_array_equal(image_from_maps(frame, maps), image, err_msg=f"k={k}")
            expected = (int(image.astype(np.int64).sum()), int(((frame - bg) > tau).sum()))
            assert kernels.highpass_sum(frame, maps) == expected, (tau, k)
            assert kernels.highpass_sum(frame, bg, tau) == expected, (tau, k)


class TestByteSum:
    @pytest.mark.parametrize("shape", [(255, 257), (256, 256), (480, 640)])
    def test_all_255_frames_on_each_side_of_the_flat_sum(self, shape):
        # 65,535 and 65,536 pixels straddle the one-reduce path's limit
        frame = np.full(shape, 255, dtype=np.uint8)
        assert kernels._byte_sum(frame) == sum(frame.ravel().tolist())

    @pytest.mark.parametrize("shape", [(1, 1), (72, 96), (255, 257), (256, 256), (300, 700)])
    def test_random_frames(self, shape):
        frame = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
        assert kernels._byte_sum(frame) == sum(frame.ravel().tolist())


class TestKernelEdges:
    @pytest.mark.parametrize("z", [2, 3, 30, 100])
    def test_every_k_against_every_window_mean(self, z):
        # build_background's outputs are S / z; an even z puts ties n + 0.5 among them
        assert_kernel_matches_definition(np.arange(255 * z + 1) / z, [0.0, 25.0, 25.5])

    @pytest.mark.parametrize("z", [2**20 + 1, 10**6 + 1, 2**31 - 1])
    def test_window_means_closest_to_a_half(self, z):
        # S / z and (S + 1) / z straddle n + 0.5 by at most 1 / z, the nearest
        # any window of z frames comes to a half without being on it
        bg = []
        for n in (0, 1, 126, 127, 254):
            total = (2 * n + 1) * z // 2
            bg += [total / z, (total + 1) / z]
        assert_kernel_matches_definition(bg, [0.0, 0.5, 25.0])

    def test_backgrounds_at_and_next_to_ties(self):
        halves = np.arange(255) + 0.5
        assert_kernel_matches_definition(halves, [0.0, 0.5, 3.25, 25.0, 25.5])
        frame = np.full((1, 1), 255, dtype=np.uint8)
        for direction in (np.inf, -np.inf):
            once = np.nextafter(halves, direction)
            for b in np.concatenate([once, np.nextafter(once, direction)]):
                background = np.array([[b]])
                with pytest.raises(ValueError):
                    kernels.highpass_maps(background, 0.0)
                with pytest.raises(ValueError):
                    kernels.highpass_sum(frame, background, 0.0)
                assert kernels.highpass_image(frame, background, 0.0)[0, 0] == np.rint(255 - b)

    def test_residual_rounded_onto_a_tie(self):
        # fl(255 - bg) is 128.5, which rounds to 128; the exact 128.50000000000001
        # would give 129, so no uint8 offset stands for this background
        bg = np.array([[126.49999999999999]])
        assert 255 - bg[0, 0] == 128.5
        frame = np.array([[255]], np.uint8)
        assert kernels.highpass_image(frame, bg, 0.0)[0, 0] == 128
        with pytest.raises(ValueError):
            kernels.highpass_sum(frame, bg, 0.0)

    def test_background_plus_tau_rounding_up_onto_an_integer(self):
        # 0.7 + 0.3 rounds to 1.0, yet fl(1 - 0.7) > 0.3: a frame of 1 passes
        assert 0.7 + 0.3 == 1.0 and 1 - 0.7 > 0.3
        assert kernels.highpass_sum(np.array([[1]], np.uint8), np.array([[0.7]]), 0.3) == (0, 1)
        for bg, tau in [(0.7, 0.3), (1.9, 0.1), (2.8, 0.2), (4.6, 0.4)]:
            assert_kernel_matches_definition([bg], [tau])

    def test_extreme_backgrounds(self):
        assert_kernel_matches_definition([0.0, 255.0, 5e-324, 0.25, 254.75], [0.0, 25.0, 254.5])

    @pytest.mark.parametrize("tau", [255.0, 300.0, 1e300])
    def test_tau_at_or_above_255_keeps_nothing(self, tau):
        frame = np.full((2, 3), 255, dtype=np.uint8)
        assert kernels.highpass_sum(frame, np.zeros((2, 3)), tau) == (0, 0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (1, 700), (300, 2)])
    def test_small_and_thin_frames(self, shape):
        rng = np.random.default_rng(sum(shape))
        frame = rng.integers(0, 256, shape, dtype=np.uint8)
        bg = np.rint(rng.uniform(0, 255, shape) * 2) / 2
        image = kernels.highpass_image(frame, bg, 10.0)
        assert kernels.highpass_sum(frame, bg, 10.0) == (
            int(image.astype(np.int64).sum()),
            int(((frame - bg) > 10.0).sum()),
        )

    @pytest.mark.parametrize(
        "bg,tau",
        [
            (-10.0, 0.0), (255.5, 0.0), (np.nan, 25.0), (np.inf, 25.0),
            (0.0, -1.0), (0.0, np.nan), (0.0, np.inf),
        ],
        ids=[
            "bg-negative", "bg-above-255", "bg-nan", "bg-inf",
            "tau-negative", "tau-nan", "tau-inf",
        ],
    )
    def test_refuses_outside_domain(self, bg, tau):
        frame = np.array([[255]], dtype=np.uint8)
        background = np.array([[bg]])
        with pytest.raises(ValueError):
            kernels.highpass_maps(background, tau)
        with pytest.raises(ValueError):
            kernels.highpass_sum(frame, background, tau)
        with pytest.raises(ValueError):
            kernels.highpass_image(frame, background, tau)

    def test_refuses_a_frame_the_maps_do_not_fit(self):
        maps = kernels.highpass_maps(np.zeros((2, 3)), 25.0)
        for frame in (np.zeros((3, 2), np.uint8), np.zeros((2, 3), np.int64)):
            with pytest.raises(ValueError):
                kernels.highpass_sum(frame, maps)
        with pytest.raises(TypeError):
            kernels.highpass_sum(np.zeros((2, 3), np.uint8), np.zeros((2, 3)))


class TestProcessSequence:
    def test_identical_frames(self):
        img = np.full((10, 10), 90, dtype=np.uint8)
        trace = process_sequence(make_frames([img] * 150), z=100, tau=25)
        assert len(trace) == 150
        assert not trace.raw_density.any() and not trace.normalized.any()

    def test_correlates_with_coverage(self):
        spec = synth.random_scene_spec(3)
        frames = synth.frames_from_spec(spec)
        trace = process_sequence(frames, z=100, tau=25)
        cov = [synth.coverage_truth(spec, t) for t in range(spec.frame_count)]
        assert np.corrcoef(trace.normalized, cov)[0, 1] >= 0.95

    def test_monotone_vehicles_monotone_density(self):
        # paint 0..49 disjoint rectangles over a constant background
        base = np.full((60, 60), 50, dtype=np.uint8)
        arrays = []
        for count in [0] * 10 + list(range(50)):
            img = base.copy()
            for v in range(count):
                img[(v // 10) * 6 : (v // 10) * 6 + 5, (v % 10) * 6 : (v % 10) * 6 + 5] = 200
            arrays.append(img)
        norm = process_sequence(make_frames(arrays), z=10, tau=25).normalized
        eps = 1 / (60 * 60 * 255)
        assert all(b >= a - eps for a, b in zip(norm, norm[1:]))

    def test_deterministic(self):
        spec = synth.random_scene_spec(9, frame_count=120)
        frames = list(synth.frames_from_spec(spec))
        r1 = process_sequence(frames, z=100, tau=25)
        r2 = process_sequence(frames, z=100, tau=25)
        assert_traces_equal(r1, r2)

    def test_trace_bytes_pinned(self):
        # an even z puts backgrounds on ties n + 0.5; the digest is the trace
        # as the float64 definition of the kernel wrote it
        spec = synth.random_scene_spec(21, width=64, height=48, frame_count=60)
        frames = list(synth.frames_from_spec(spec))
        bg = build_background(frames, z=10)
        assert np.count_nonzero(bg % 1 == 0.5) > 100
        text = write_trace_csv("cam1", process_sequence(frames, z=10, tau=25))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2cc53f712c83c3676799bf61e92476f88381150f2444ee6aafcda4e77977bea7"
        )

    def test_insufficient_frames(self):
        with pytest.raises(InsufficientFrames):
            process_sequence(make_frames([np.zeros((2, 2))] * 5), z=10, tau=25)

    def test_generator_equals_list(self):
        spec = synth.random_scene_spec(4, frame_count=130)
        frames = list(synth.frames_from_spec(spec))
        streamed = process_sequence(Reiterable(lambda: (f for f in frames)), z=100, tau=25)
        assert_traces_equal(streamed, process_sequence(frames, z=100, tau=25))
        assert len(streamed) == 130

    def test_holds_at_most_z_frames(self):
        refs = []
        peak = 0

        def stream():
            nonlocal peak
            for i in range(40):
                frame = Frame(T0 + timedelta(seconds=i), np.full((4, 4), i, np.uint8))
                refs.append(weakref.ref(frame))
                peak = max(peak, sum(r() is not None for r in refs))
                yield frame

        assert len(process_sequence(Reiterable(stream), z=5, tau=25)) == 40
        # the window is read twice, one frame at a time
        assert peak <= 2 and len(refs) == 45

    @pytest.mark.parametrize(
        "one_shot", [iter, lambda frames: (f for f in frames)], ids=["iter", "generator"]
    )
    def test_one_shot_iterator_raises(self, one_shot):
        frames = make_frames(np.zeros((6, 2, 2)))
        with pytest.raises(TypeError, match="re-iterable"):
            process_sequence(one_shot(frames), z=5, tau=25)

    @pytest.mark.parametrize(
        "at,microseconds",
        [(3, None), (8, None), (3, 0), (8, 0), (3, 100), (8, 100)],
        ids=[
            "in_window", "after_window", "in_window-equal", "after_window-equal",
            "in_window-same-second", "after_window-same-second",
        ],
    )
    def test_backwards_timestamp_raises(self, at, microseconds):
        # frame ``at`` is swapped with the one before it, or captured this many
        # microseconds after it; the trace holds whole seconds, as the store does
        frames = make_frames(np.zeros((10, 2, 2)))
        if microseconds is None:
            frames[at], frames[at - 1] = frames[at - 1], frames[at]
        else:
            later = frames[at - 1].captured_at + timedelta(microseconds=microseconds)
            frames[at] = Frame(later, frames[at].pixels)
        with pytest.raises(OutOfOrderTimestamp):
            process_sequence(frames, z=5, tau=25)

    def test_shape_change_after_window_raises(self):
        arrays = [np.zeros((4, 4))] * 7 + [np.zeros((4, 5))] + [np.zeros((4, 4))]
        with pytest.raises(ShapeMismatch, match=r"\(4, 5\)"):
            process_sequence(make_frames(arrays), z=5, tau=25)

    def test_microseconds_are_dropped(self):
        start = datetime(1969, 12, 31, 23, 59, 58, 999_999, tzinfo=timezone.utc)
        frames = [
            Frame(start + timedelta(seconds=i), np.zeros((2, 2), np.uint8)) for i in range(3)
        ]
        assert process_sequence(frames, z=2, tau=25).seconds.tolist() == [-2, -1, 0]


class TestTraceCsv:
    def test_round_trip_and_format(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[0, 0] = 200
        trace = process_sequence(make_frames([img] * 2 + [img] * 1), z=2, tau=25)
        text = write_trace_csv("cam1", trace)
        assert text.splitlines()[0] == "camera_id,captured_at,raw_density,normalized"
        assert text.splitlines()[1] == "cam1,2024-03-01T08:00:00Z,0,0.000000"
        back = read_trace_csv(text, "cam1")
        assert back.seconds.dtype == back.raw_density.dtype == np.int64
        assert back.normalized.dtype == np.float64
        assert back.seconds.tolist() == [int(T0.timestamp()) + 30 * i for i in range(3)]
        assert back.normalized.tolist() == [float(f"{v:.6f}") for v in trace.normalized]

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_on_seeded_scenes(self, seed):
        spec = synth.random_scene_spec(seed, width=64, height=48, frame_count=60)
        trace = process_sequence(synth.frames_from_spec(spec), z=10, tau=25)
        back = read_trace_csv(write_trace_csv("cam1", trace), "cam1")
        assert np.array_equal(back.seconds, trace.seconds)
        assert np.array_equal(back.raw_density, trace.raw_density)
        assert np.abs(back.normalized - trace.normalized).max() <= 5e-7

    @pytest.mark.parametrize("year", [1, 999, 1970, 2024, 9999])
    def test_bytes_equal_the_per_row_writer(self, year):
        start = datetime(year, 1, 1, tzinfo=timezone.utc)
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        seconds = [(start - epoch) // timedelta(seconds=1) + 86_399 * i + i * i for i in range(300)]
        raw = np.arange(300, dtype=np.int64) * 7919
        trace = Trace(np.array(seconds, np.int64), raw, raw / (72 * 96 * 255))
        # one datetime and one format_rfc3339 per row: the writer's reference
        rows = [
            f"cam1,{format_rfc3339(epoch + timedelta(seconds=t))},{d},{v:.6f}"
            for t, d, v in zip(seconds, raw.tolist(), trace.normalized.tolist())
        ]
        text = write_trace_csv("cam1", trace)
        assert text == "\n".join(["camera_id,captured_at,raw_density,normalized"] + rows) + "\n"
        assert text.splitlines()[1].startswith(f"cam1,{year:04d}-01-01T00:00:00Z,")
        assert read_trace_csv(text, "cam1").seconds.tolist() == seconds

    @pytest.mark.parametrize("char", ["\u2028", "\u2029"])
    def test_camera_id_holding_a_line_separator_reads_back(self, char):
        trace = process_sequence(make_frames(np.zeros((3, 2, 2))), z=2, tau=25)
        camera_id = f"a{char}b"
        back = read_trace_csv(write_trace_csv(camera_id, trace), camera_id)
        assert back.seconds.tolist() == trace.seconds.tolist()

    def test_normalized_equals_per_frame_division(self):
        spec = synth.random_scene_spec(6, width=64, height=48, frame_count=60)
        trace = process_sequence(synth.frames_from_spec(spec), z=10, tau=25)
        per_frame = [d / (64 * 48 * 255) for d in trace.raw_density.tolist()]
        assert trace.normalized.tolist() == per_frame
