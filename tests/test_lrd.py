import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from densigraph import synth
from densigraph.errors import BlockTooLarge, DegenerateSeries, TooFewScales
from densigraph.lrd import (
    aggregate_series,
    bucket_hourly,
    city_step,
    default_rs_blocks,
    resample_locf,
    rs_hurst,
    variance_time_hurst,
)

T0 = datetime(2024, 3, 1, tzinfo=timezone.utc)


def series(values):
    return np.asarray(values, dtype=float)


class TestAggregate:
    def test_block_means(self):
        out = aggregate_series(series([1, 2, 3, 4]), 2)
        np.testing.assert_array_equal(out, [1.5, 3.5])

    def test_identity(self):
        s = series([3, 1, 4, 1, 5])
        assert aggregate_series(s, 1) is s

    def test_truncation(self):
        out = aggregate_series(series([1, 2, 3, 4, 5]), 2)
        np.testing.assert_array_equal(out, [1.5, 3.5])

    def test_block_too_large(self):
        with pytest.raises(BlockTooLarge):
            aggregate_series(series([1, 2, 3]), 4)

    def test_mean_preservation(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=103)
        out = aggregate_series(series(v), 10)
        assert out.mean() == pytest.approx(v[:100].mean(), abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=120)
        a = aggregate_series(aggregate_series(series(v), 3), 4)
        b = aggregate_series(series(v), 12)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestVarianceTime:
    def test_iid_is_half(self):
        rng = np.random.default_rng(2)
        s = series(rng.standard_normal(100_000))
        est = variance_time_hurst(s, [2**i for i in range(9)])
        assert 0.45 <= est.H <= 0.55
        assert est.r_squared > 0.99

    def test_fgn_target(self):
        s = synth.gen_fgn(0.8, 100_000, 31)
        est = variance_time_hurst(s, [2**i for i in range(9)])
        assert 0.73 <= est.H <= 0.87

    def test_constant_series(self):
        with pytest.raises(DegenerateSeries):
            variance_time_hurst(series(np.ones(1000)))

    def test_too_few_scales(self):
        with pytest.raises(TooFewScales):
            variance_time_hurst(series(np.random.default_rng(3).normal(size=25)), [1, 2, 4, 8])

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(20_000)
        scales = [2**i for i in range(8)]
        h1 = variance_time_hurst(series(v), scales).H
        h2 = variance_time_hurst(series(7.5 * v - 3.0), scales).H
        assert h1 == pytest.approx(h2, abs=1e-6)


class TestRs:
    def test_iid_near_half(self):
        rng = np.random.default_rng(5)
        s = series(rng.standard_normal(100_000))
        est = rs_hurst(s, [2**i for i in range(4, 13)])
        assert 0.43 <= est.H <= 0.62  # known small-sample bias around 0.5

    def test_fgn_target(self):
        s = synth.gen_fgn(0.8, 100_000, 32)
        est = rs_hurst(s, [2**i for i in range(4, 13)])
        assert 0.70 <= est.H <= 0.90

    def test_short_series(self):
        with pytest.raises((TooFewScales, BlockTooLarge)):
            rs_hurst(series([1, 2, 1, 2, 1, 2, 1]))

    def test_small_blocks_rejected(self):
        with pytest.raises(BlockTooLarge):
            rs_hurst(series(np.random.default_rng(6).normal(size=1000)), [4, 8, 16])

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(20_000)
        blocks = [2**i for i in range(4, 11)]
        h1 = rs_hurst(series(v), blocks).H
        h2 = rs_hurst(series(-2.0 * v + 11.0), blocks).H
        assert h1 == pytest.approx(h2, abs=1e-6)

    def test_shuffle_destroys_lrd(self):
        s = synth.gen_fgn(0.8, 50_000, 33)
        shuffled = np.random.default_rng(34).permutation(s)
        est = variance_time_hurst(series(shuffled), [2**i for i in range(9)])
        assert 0.43 <= est.H <= 0.57


def rs_points_oracle(values, block_sizes):
    """rs_hurst's regression points, one block at a time."""
    points = []
    for b in block_sizes:
        ratios = []
        for i in range(values.size // b):
            x = values[i * b : (i + 1) * b]
            s = x.std()
            if s != 0:
                z = np.cumsum(x - x.mean())
                ratios.append((z.max() - z.min()) / s)
        if ratios:
            points.append((math.log2(b), math.log2(float(np.mean(ratios)))))
    return tuple(points)


def rs_cases():
    """(series, block sizes) of fGn, uniform noise, and rounded series with
    runs of zeros, whose constant blocks rs_hurst drops."""
    cases = []
    for seed, n in enumerate([200, 1000, 4099, 20_000]):
        rng = np.random.default_rng(seed)
        for H in (0.5, 0.8, 0.95):
            cases.append(synth.gen_fgn(H, n, seed))
        cases.append(rng.random(n))
        cases.append(np.maximum(np.round(synth.gen_fgn(0.9, n, 50 + seed) - 0.5), 0.0))
    blocks = [None, [8, 9, 24, 100, 127], [16, 32, 64, 128, 256, 512]]
    return [(v, b) for v in cases for b in blocks]


@pytest.mark.parametrize("values,blocks", rs_cases())
def test_rs_hurst_matches_block_loop_bitwise(values, blocks):
    usable = [b for b in (blocks or default_rs_blocks(values.size)) if b <= values.size]
    want = rs_points_oracle(values, usable)
    if len(want) < 3:
        with pytest.raises(TooFewScales):
            rs_hurst(values, blocks)
    else:
        assert rs_hurst(values, blocks).regression_points == want


def trace(*rows):
    """(seconds, values) of (hour, minute, value) rows on T0's day."""
    seconds = [int(T0.replace(hour=h, minute=m).timestamp()) for h, m, _ in rows]
    return np.array(seconds, dtype=np.int64), np.array([v for _, _, v in rows])


class TestBucketHourly:
    def test_single_hour(self):
        buckets = bucket_hourly(*trace(*[(9, m, 0.4) for m in range(5)]))
        assert buckets[9] == (9, pytest.approx(0.4), 5)
        assert all(count == 0 for h, _, count in buckets if h != 9)

    def test_mean_within_bucket(self):
        buckets = bucket_hourly(*trace((8, 0, 0.2), (8, 30, 0.6)))
        assert buckets[8] == (8, pytest.approx(0.4), 2)

    def test_tz_offset(self):
        buckets = bucket_hourly(*trace((8, 0, 0.3)), tz_offset_hours=3)
        assert buckets[11][2] == 1

    def test_diurnal_scenario_peaks(self):
        # oracle: the scenario's own hour profile (peaks 8-9 and 17-18)
        from densigraph.density import process_sequence

        spec = synth.diurnal_scene_spec(40, frames_per_hour=30)
        trace = process_sequence(synth.frames_from_spec(spec, T0, step_seconds=120.0), 100, 25)
        buckets = bucket_hourly(trace.seconds, trace.normalized)
        mid = [buckets[h][1] for h in (11, 12, 13)]
        assert buckets[8][1] > max(mid)
        assert buckets[17][1] > max(mid)


def minute_index(hour, minute):
    """The index on a 60 s grid of that wall-clock time on T0's day."""
    return int(T0.replace(hour=hour, minute=minute).timestamp()) // 60


class TestResampleLocf:
    def test_regular_grid_passthrough(self):
        ((start, ts),) = resample_locf(*trace(*[(8, m, float(m)) for m in range(5)]), 60)
        assert start == minute_index(8, 0)
        np.testing.assert_array_equal(ts, [0, 1, 2, 3, 4])

    def test_carry_forward(self):
        ((_, ts),) = resample_locf(*trace((8, 0, 1.0), (8, 3, 4.0)), 60)
        np.testing.assert_array_equal(ts, [1, 1, 1, 4])

    def test_gap_splits(self):
        seconds, values = trace((8, 0, 1.0), (8, 1, 2.0), (10, 0, 3.0), (10, 2, 4.0))
        seconds[0] += 30  # 08:00:30 first reaches the grid at 08:01
        parts = resample_locf(seconds, values, 60)
        assert [start for start, _ in parts] == [minute_index(8, 1), minute_index(10, 0)]
        assert [p.tolist() for _, p in parts] == [[2.0], [3.0, 3.0, 4.0]]

    def test_segment_between_grid_points_is_dropped(self):
        seconds, values = trace((8, 0, 1.0), (8, 1, 2.0), (10, 0, 3.0))
        seconds[2] += 30  # alone after the gap, and off the grid
        assert [start for start, _ in resample_locf(seconds, values, 60)] == [minute_index(8, 0)]

    def test_cameras_off_by_part_of_a_step_share_indices(self):
        base = int(T0.timestamp()) + np.arange(50, dtype=np.int64) * 60
        a, b = (resample_locf(base + lag, np.arange(50.0), 60) for lag in (5, 47))
        assert [(start, p.tolist()) for start, p in a] == [(start, p.tolist()) for start, p in b]
        assert a[0][0] == minute_index(0, 1)

    def test_on_grid_trace_keeps_its_values_and_hurst(self):
        values = synth.gen_fgn(0.8, 3000, 41)
        seconds = int(T0.timestamp()) + np.arange(3000, dtype=np.int64) * 120
        seconds[1500:] += 3600  # a gap of 31 steps
        assert city_step([seconds]) == 120
        parts = resample_locf(seconds, values, 120)
        assert [start for start, _ in parts] == [seconds[0] // 120, seconds[1500] // 120]
        for (_, got), want in zip(parts, (values[:1500], values[1500:])):
            np.testing.assert_array_equal(got, want)
            for estimator in (variance_time_hurst, rs_hurst):
                assert estimator(got) == estimator(want)


class TestCityStep:
    def test_mixed_cadences_take_the_finer_step(self):
        # 2 h of a 60 s camera (120 gaps) and of a 300 s camera (24 gaps)
        t0 = int(T0.timestamp())
        fast = t0 + np.arange(121, dtype=np.int64) * 60
        slow = t0 + np.arange(25, dtype=np.int64) * 300
        step = city_step([fast, slow])
        assert step == 60
        ((_, fast_series),) = resample_locf(fast, np.arange(121.0), step)
        ((_, slow_series),) = resample_locf(slow, np.arange(25.0), step)
        assert fast_series.tolist() == list(range(121))
        # the slow camera is carried forward: each value for 5 grid points
        assert slow_series.tolist() == [float(i // 5) for i in range(121)]

    def test_faster_camera_thinned_to_last_value_per_step(self):
        seconds = int(T0.timestamp()) + 10 + np.arange(30, dtype=np.int64) * 20
        ((start, series),) = resample_locf(seconds, np.arange(30.0), 60)
        assert start == minute_index(0, 1)
        # captures at :10, :30, :50 of each minute; the :50 one holds the next minute
        assert series.tolist() == [3 * i + 2.0 for i in range(9)]

    def test_lower_median_of_pooled_gaps(self):
        assert city_step([np.array([0, 60, 121]), np.array([5])]) == 60
        assert city_step([np.array([0, 3, 10, 11])]) == 3

    def test_no_gaps_no_step(self):
        assert city_step([np.array([100]), np.array([7])]) is None


class TestEstimatorsRefuse:
    @pytest.mark.parametrize("estimator", [variance_time_hurst, rs_hurst])
    @pytest.mark.parametrize(
        "values", [np.array([]), np.r_[np.arange(999.0), np.nan]], ids=["empty", "nan"]
    )
    def test_empty_or_nan_series(self, estimator, values):
        with pytest.raises(DegenerateSeries, match="non-empty and finite"):
            estimator(values)


# Oracles: the datetime forms of resample_locf and bucket_hourly, one record
# at a time, as the trace's capture times would be handled as datetimes.


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def locf_oracle(times, values, step):
    """Each segment's (first grid index, values), walking the grid instants
    EPOCH + k * step from the first at or after the segment's first time."""
    step = timedelta(seconds=step)
    out, start = [], 0
    for i in range(1, len(times) + 1):
        if i == len(times) or times[i] - times[i - 1] > 10 * step:
            seg_t, seg_v = times[start:i], values[start:i]
            first = -((EPOCH - seg_t[0]) // step)
            row, j, k = [], 0, first
            while EPOCH + k * step <= seg_t[-1]:
                while j + 1 < len(seg_t) and seg_t[j + 1] <= EPOCH + k * step:
                    j += 1
                row.append(seg_v[j])
                k += 1
            if row:
                out.append((first, row))
            start = i
    return out


def hourly_oracle(times, values, tz_offset_hours):
    sums, counts = [0.0] * 24, [0] * 24
    for t, v in zip(times, values):
        hour = (t + timedelta(hours=tz_offset_hours)).hour
        sums[hour] += v
        counts[hour] += 1
    return [(h, sums[h] / counts[h] if counts[h] else 0.0, counts[h]) for h in range(24)]


def irregular_trace(seed, step):
    """401 rows whose 400 gaps (whole seconds) have the median ``step + 0.5``:
    half are at most ``step``, half over it, some just over 10 steps and
    some of up to two hours."""
    rng = np.random.default_rng(seed)
    low = rng.choice([1, 3, step], size=200, p=[0.1, 0.1, 0.8])
    high = rng.choice(
        [step + 1, 10 * (step + 0.5), 10 * (step + 0.5) + 1, 600, 7200],
        size=200, p=[0.8, 0.05, 0.05, 0.05, 0.05],
    )
    gaps = rng.permutation(np.concatenate([low, high]))
    seconds = int(T0.timestamp()) - 3 * 86_400 + np.cumsum(np.r_[0, gaps].astype(np.int64))
    return seconds, rng.random(seconds.size)


def as_datetimes(seconds):
    return [datetime.fromtimestamp(int(t), timezone.utc) for t in seconds]


class TestArrayFormsMatchDatetimeOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_resample_locf(self, seed):
        seconds, values = irregular_trace(seed, step=60)
        # the gaps' median is 60.5 s; the lower median is a whole gap
        step = city_step([seconds])
        assert step == 60
        got = resample_locf(seconds, values, step)
        want = locf_oracle(as_datetimes(seconds), values.tolist(), step)
        assert [(start, part.tolist()) for start, part in got] == want

    def test_split_at_ten_steps_plus_one_second(self):
        # gaps of 10 steps, then 10 steps and 1 s (the only split), then 599 s;
        # 7 s later the first segment starts one grid point later
        for shift, sizes in ((0, [12, 10]), (7, [11, 10])):
            seconds = np.array([0, 60, 660, 1321, 1920], dtype=np.int64) + int(T0.timestamp()) + shift
            values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
            parts = resample_locf(seconds, values, 60)
            want = locf_oracle(as_datetimes(seconds), values.tolist(), 60)
            assert [(start, p.tolist()) for start, p in parts] == want
            assert [p.size for _, p in parts] == sizes

    @pytest.mark.parametrize("offset", [0.0, 5.5, -7.25, 1 / 3, 0.33333333, 24.0, -24.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_bucket_hourly(self, seed, offset):
        seconds, values = irregular_trace(100 + seed, step=90)
        got = bucket_hourly(seconds, values, offset)
        assert got == hourly_oracle(as_datetimes(seconds), values.tolist(), offset)

    def test_bucket_hourly_at_the_offsets_microsecond(self):
        # 0.33333333 h is 1199.999988 s, so T0 + 2400 s is 12 us before
        # local 01:00, and the second after it is past 01:00
        turn = int(T0.timestamp()) + 3600 - 1200
        seconds = np.array([turn, turn + 1], dtype=np.int64)
        got = bucket_hourly(seconds, np.array([1.0, 2.0]), 0.33333333)
        assert got == hourly_oracle(as_datetimes(seconds), [1.0, 2.0], 0.33333333)
        assert got[0][2] == 1 and got[1][2] == 1
