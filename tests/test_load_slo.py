"""SLO objectives, streaming burn-rate trackers, and LoadConfig knobs."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import ConfigurationError, LoadConfig, SloObjective, SloTracker
from repro.load.sessions import (
    Service,
    ServiceProfile,
    SessionPool,
    partition_regions,
)
from repro.load.slo import SloRollup


class TestSloObjective:
    def test_defaults_and_budget(self):
        slo = SloObjective()
        assert slo.threshold_s == 0.25
        assert slo.objective == 0.999
        assert slo.error_budget == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SloObjective(threshold_s=0.0)
        with pytest.raises(ConfigurationError):
            SloObjective(objective=1.0)
        with pytest.raises(ConfigurationError):
            SloObjective(objective=0.0)
        with pytest.raises(ConfigurationError):
            SloObjective(windows=())
        with pytest.raises(ConfigurationError):
            SloObjective(windows=(10.0, -1.0))


class TestSloTracker:
    def make(self, objective=0.99, windows=(10.0, 60.0)):
        return SloTracker(SloObjective(objective=objective, windows=windows))

    def test_counts_and_overall_rates(self):
        tracker = self.make()
        tracker.record(1.0, good=990.0, bad=10.0)
        assert tracker.total == 1000.0
        assert tracker.error_rate() == pytest.approx(0.01)
        assert tracker.burn_rate() == pytest.approx(1.0)
        assert tracker.compliant

    def test_zero_mass_records_are_ignored(self):
        tracker = self.make()
        tracker.record(5.0, good=0.0, bad=0.0)
        assert tracker.total == 0.0
        assert tracker.error_rate() == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            self.make().record(0.0, good=-1.0, bad=0.0)

    @pytest.mark.parametrize("mass", [math.inf, math.nan])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(ValueError):
            self.make().record(0.0, good=mass, bad=0.0)
        with pytest.raises(ValueError):
            self.make().record(0.0, good=1.0, bad=mass)

    def test_out_of_order_record_rejected(self):
        tracker = self.make()
        tracker.record(10.0, good=1.0, bad=0.0)
        with pytest.raises(ValueError):
            tracker.record(9.0, good=1.0, bad=0.0)

    def test_windowed_error_rate_forgets_old_samples(self):
        tracker = self.make(windows=(10.0,))
        tracker.record(0.0, good=0.0, bad=100.0)     # a bad burst...
        tracker.record(50.0, good=100.0, bad=0.0)    # ...long since over
        assert tracker.error_rate() == pytest.approx(0.5)
        assert tracker.error_rate(window_s=10.0, now=50.0) == 0.0

    def test_peak_burn_tracked_online(self):
        tracker = self.make(objective=0.9, windows=(10.0,))
        tracker.record(1.0, good=50.0, bad=50.0)     # burn 5.0 in-window
        tracker.record(100.0, good=1000.0, bad=0.0)  # calm again
        assert tracker.burn_rate(window_s=10.0, now=100.0) == 0.0
        assert tracker.peak_burn_rate(10.0) == pytest.approx(5.0)
        assert tracker.peak_burn_rate() == pytest.approx(5.0)
        with pytest.raises(ValueError):
            tracker.peak_burn_rate(123.0)            # untracked window

    def test_sample_ring_stays_bounded(self):
        tracker = self.make(windows=(10.0,))
        for t in range(1000):
            tracker.record(float(t), good=1.0, bad=0.0)
        assert len(tracker._samples) <= 13
        assert tracker.good == 1000.0                # totals keep everything

    def test_merge_interleaves_and_rejects_mismatch(self):
        a, b = self.make(), self.make()
        a.record(1.0, good=90.0, bad=10.0)
        b.record(2.0, good=100.0, bad=0.0)
        a.merge(b)
        assert a.total == 200.0
        assert a.error_rate() == pytest.approx(0.05)
        assert [t for t, _, _ in a._samples] == [1.0, 2.0]
        with pytest.raises(ValueError):
            a.merge(SloTracker(SloObjective(objective=0.5)))

    def test_row_keys(self):
        tracker = self.make(windows=(10.0, 60.0))
        tracker.record(0.0, good=1.0, bad=0.0)
        row = tracker.row()
        assert set(row) == {
            "slo_threshold_s", "slo_objective", "good_requests",
            "bad_requests", "error_rate", "burn_rate",
            "peak_burn_10s", "peak_burn_60s",
        }

    def test_merge_then_record_matches_one_interleaved_stream(self):
        """Merging rebuilds every window's start index and exact sums."""
        a_stream = [(float(t), 30.0, 1.0 if t % 7 == 0 else 0.0)
                    for t in range(0, 90, 3)]
        b_stream = [(t + 1.5, 20.0, 0.0) for t, _, _ in a_stream]
        after = [(90.0 + t, 10.0, 40.0 if 5 <= t <= 20 else 0.0)
                 for t in range(40)]
        merged, other, direct = self.make(), self.make(), self.make()
        for t, good, bad in a_stream:
            merged.record(t, good=good, bad=bad)
        for t, good, bad in b_stream:
            other.record(t, good=good, bad=bad)
        merged.merge(other)
        for t, good, bad in sorted(a_stream + b_stream):
            direct.record(t, good=good, bad=bad)
        assert merged._samples == direct._samples
        # Merged peaks are only a lower bound on the interleaved stream's,
        # so the burst after the merge sets every window's peak; its
        # windows still reach back over the merged samples.
        for t, good, bad in after:
            merged.record(t, good=good, bad=bad)
            direct.record(t, good=good, bad=bad)
        assert merged.row() == direct.row()
        assert merged.peak_burn_rate(10.0) > 0.0

    def test_many_samples_in_one_window_stay_linear(self):
        """20k records inside one 300 s window: a rescan per record is
        ~10^8 sample visits and would blow far past this bound."""
        tracker = self.make(windows=(10.0, 60.0, 300.0))
        started = time.perf_counter()
        for i in range(20_000):
            tracker.record(i * 0.01, good=1.0, bad=0.001)
        elapsed = time.perf_counter() - started
        assert len(tracker._samples) == 20_000
        assert tracker.peak_burn_rate(300.0) > 0.0
        assert elapsed < 5.0


def naive_error_rate(samples, window_s, now):
    """The historic reversed float scan, kept as an accuracy oracle."""
    good = bad = 0.0
    for t, g, b in reversed(samples):
        if t < now - window_s:
            break
        good += g
        bad += b
    total = good + bad
    return bad / total if total > 0 else 0.0


def fsum_error_rate(samples, window_s, now):
    """Brute force over the whole stream with correctly rounded sums."""
    inside = [(g, b) for t, g, b in samples if t >= now - window_s]
    good = math.fsum(g for g, _ in inside)
    bad = math.fsum(b for _, b in inside)
    total = good + bad
    return bad / total if total > 0 else 0.0


mass_strategy = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
stream_strategy = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 120.0)),
              mass_strategy, mass_strategy),
    max_size=80,
)
WINDOWS = (10.0, 60.0, 300.0)


@given(steps=stream_strategy)
@settings(max_examples=300, deadline=None)
def test_window_sums_match_fsum_and_naive_oracles(steps):
    tracker = SloTracker(SloObjective(objective=0.99, windows=WINDOWS))
    budget = tracker.objective.error_budget
    stream, peaks = [], {w: 0.0 for w in WINDOWS}
    t = 0.0
    for step, good, bad in steps:
        t += step
        tracker.record(t, good=good, bad=bad)
        if good == 0 and bad == 0:
            continue                                 # ignored, as recorded
        stream.append((t, good, bad))
        for w in WINDOWS:
            expected = fsum_error_rate(stream, w, t)
            got = tracker.error_rate(w)
            assert got.hex() == expected.hex()
            assert math.isclose(got, naive_error_rate(stream, w, t),
                                rel_tol=1e-12)
            peaks[w] = max(peaks[w], expected / budget)
            assert tracker.peak_burn_rate(w).hex() == peaks[w].hex()
    # Ad-hoc queries at another ``now`` scan the ring with math.fsum.
    later = t + 1.0
    for w in WINDOWS:
        expected = fsum_error_rate(stream, w, later)
        assert tracker.error_rate(w, now=later).hex() == expected.hex()
        assert math.isclose(tracker.error_rate(w, now=later),
                            naive_error_rate(stream, w, later), rel_tol=1e-12)


class TestSloRollup:
    def test_fleet_view(self):
        rollup = SloRollup()
        web = rollup.tracker("web", SloObjective(objective=0.99))
        api = rollup.tracker("api", SloObjective(objective=0.99))
        assert rollup.tracker("web", SloObjective(objective=0.99)) is web
        web.record(0.0, good=99.0, bad=1.0)
        api.record(0.0, good=90.0, bad=10.0)
        assert rollup.fleet_error_rate() == pytest.approx(11.0 / 200.0)
        assert rollup.worst_burn() == ("api", pytest.approx(10.0))


class TestServiceModel:
    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceProfile(response_bytes=0.0)
        with pytest.raises(ConfigurationError):
            ServiceProfile(requests_per_session_per_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceProfile(session_duration_s=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceProfile(burst_rate=0.0)

    def test_bytes_per_session(self):
        profile = ServiceProfile(response_bytes=1000.0,
                                 requests_per_session_per_s=2.0)
        assert profile.bytes_per_session_per_s == 2000.0

    def test_service_defaults_group_to_name(self):
        assert Service("web").group == "web"
        assert Service("web", group="pool").group == "pool"
        assert Service("web", nodes=["pi-a"]).group is None

    def test_service_validation(self):
        with pytest.raises(ConfigurationError):
            Service("")
        with pytest.raises(ConfigurationError):
            Service("web", weight=0.0)
        with pytest.raises(ConfigurationError):
            Service("web", nodes=[])

    def test_session_pool_exact_fluid_step(self):
        pool = SessionPool(Service("web", profile=ServiceProfile(
            session_duration_s=60.0)), "global")
        pool.step(120.0, 1.0)
        # One epoch of the exact solution of n' = a/dt - n/D from n=0.
        import math
        steady = 120.0 * 60.0
        assert pool.sessions == pytest.approx(
            steady * (1.0 - math.exp(-1.0 / 60.0))
        )

    def test_session_pool_converges_to_little_law(self):
        """Long-run concurrency -> arrival rate x mean session duration."""
        pool = SessionPool(Service("web", profile=ServiceProfile(
            session_duration_s=30.0)), "global")
        for _ in range(600):
            pool.step(50.0, 1.0)
        assert pool.sessions == pytest.approx(50.0 * 30.0, rel=1e-6)

    def test_partition_regions_round_robin(self):
        edges = ["e3", "e1", "e2", "e0"]
        out = partition_regions(edges, ["us", "eu"])
        assert out == {"eu": ["e0", "e2"], "us": ["e1", "e3"]}
        with pytest.raises(ConfigurationError):
            partition_regions(["e0"], ["a", "b"])
        with pytest.raises(ConfigurationError):
            partition_regions(["e0"], [])


class TestLoadConfig:
    def test_defaults(self):
        knobs = LoadConfig()
        assert knobs.epoch_s == 1.0
        assert knobs.arrival_sampling is True
        assert knobs.backlog_epochs == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadConfig(epoch_s=0.0)
        with pytest.raises(ConfigurationError):
            LoadConfig(backlog_epochs=0)
        with pytest.raises(ConfigurationError):
            LoadConfig(histogram_min_s=1.0, histogram_max_s=0.5)
        with pytest.raises(ConfigurationError):
            LoadConfig(histogram_buckets_per_decade=0)
