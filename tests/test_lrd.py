from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from densigraph import synth
from densigraph.errors import BlockTooLarge, DegenerateSeries, TooFewScales
from densigraph.lrd import (
    aggregate_series,
    bucket_hourly,
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
        frames = synth.frames_from_spec(spec, "cam1", T0, step_seconds=120.0)
        records = process_sequence(frames, z=100, tau=25)
        seconds = np.array([int(r.captured_at.timestamp()) for r in records])
        buckets = bucket_hourly(seconds, np.array([r.normalized for r in records]))
        mid = [buckets[h][1] for h in (11, 12, 13)]
        assert buckets[8][1] > max(mid)
        assert buckets[17][1] > max(mid)


class TestResampleLocf:
    def test_regular_grid_passthrough(self):
        (ts,) = resample_locf(*trace(*[(8, m, float(m)) for m in range(5)]), 60.0)
        np.testing.assert_array_equal(ts, [0, 1, 2, 3, 4])

    def test_carry_forward(self):
        (ts,) = resample_locf(*trace((8, 0, 1.0), (8, 3, 4.0)), 60.0)
        np.testing.assert_array_equal(ts, [1, 1, 1, 4])

    def test_gap_splits(self):
        parts = resample_locf(*trace((8, 0, 1.0), (8, 1, 2.0), (10, 0, 3.0)), 60.0)
        assert len(parts) == 2
        assert parts[1].tolist() == [3.0]


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


def locf_oracle(times, values, step):
    out, start = [], 0
    for i in range(1, len(times) + 1):
        if i == len(times) or (times[i] - times[i - 1]).total_seconds() > 10.0 * step:
            seg_t, seg_v = times[start:i], values[start:i]
            n = int((seg_t[-1] - seg_t[0]).total_seconds() // step) + 1
            row, j = [], 0
            for k in range(n):
                t = seg_t[0] + timedelta(seconds=k * step)
                while j + 1 < len(seg_t) and seg_t[j + 1] <= t:
                    j += 1
                row.append(seg_v[j])
            out.append(row)
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
        step = float(np.median(np.diff(seconds)))
        assert step == 60.5
        got = resample_locf(seconds, values, step)
        want = locf_oracle(as_datetimes(seconds), values.tolist(), step)
        assert [part.tolist() for part in got] == want

    def test_split_at_ten_steps_plus_one_second(self):
        seconds = np.array([0, 60, 660, 1321], dtype=np.int64) + int(T0.timestamp())
        values = np.array([1.0, 2.0, 3.0, 4.0])
        parts = resample_locf(seconds, values, 60.0)
        assert [p.tolist() for p in parts] == locf_oracle(as_datetimes(seconds), values.tolist(), 60.0)
        assert [p.size for p in parts] == [12, 1]

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
