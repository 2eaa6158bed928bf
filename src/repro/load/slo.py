"""SLO objectives and streaming error-budget burn-rate accounting.

Follows the SRE formulation: an objective like "99.9% of requests
under 250 ms" grants an *error budget* of ``1 - objective``; the
*burn rate* over a window is the observed bad fraction divided by the
budget, so burn 1.0 means "spending the budget exactly as fast as
allowed", burn 14.4 over an hour is the classic page-now threshold.
The tracker is fluid-native -- good/bad counts are fractional request
masses from the load engine, and trackers merge for per-service and
fleet rollups exactly like :class:`repro.telemetry.stats.LatencyHistogram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Default burn-rate alert windows (seconds) -- scaled-down analogues of
#: the SRE book's 5m/1h/6h multiwindow alerts for simulated-minute runs.
DEFAULT_WINDOWS = (10.0, 60.0, 300.0)


@dataclass(frozen=True)
class SloObjective:
    """A latency SLO: ``objective`` of requests faster than ``threshold_s``."""

    threshold_s: float = 0.25
    objective: float = 0.999
    windows: Tuple[float, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if self.threshold_s <= 0:
            raise ConfigurationError(
                f"threshold_s must be > 0, got {self.threshold_s}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if not self.windows or any(w <= 0 for w in self.windows):
            raise ConfigurationError(
                f"windows must be positive, got {self.windows}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction: ``1 - objective``."""
        return 1.0 - self.objective


#: Every finite float is an integer multiple of 2**-1074 (the smallest
#: subnormal), so masses scaled by 2**1074 are exact Python ints.
_SCALE_BITS = 1074
_SCALE = 1 << _SCALE_BITS


def _exact(x: float) -> int:
    """``x * 2**1074`` as an exact int."""
    if not x:
        return 0
    numerator, denominator = x.as_integer_ratio()
    return numerator << (_SCALE_BITS + 1 - denominator.bit_length())


class _WindowSum:
    """One trailing window's exact good/bad sums and peak burn.

    ``start`` indexes the window's oldest sample in the tracker's ring.
    The sums are ints in units of 2**-1074, so a sample added on record
    and subtracted on expiry leaves no rounding residue behind.
    """

    __slots__ = ("span", "start", "good", "bad", "peak")

    def __init__(self, span: float) -> None:
        self.span = span
        self.start = 0
        self.good = 0
        self.bad = 0
        self.peak = 0.0


class SloTracker:
    """Streaming good/bad accounting against one :class:`SloObjective`.

    :meth:`record` takes fluid request masses stamped with simulation
    time; per-window burn rates come from a ring of (time, good, bad)
    samples so the tracker is O(window / epoch) memory regardless of
    request volume.  Each window keeps a start index into the ring and
    exact running sums, so a record costs amortised O(windows) however
    many samples the windows hold.  A window's good and bad masses are
    the correctly rounded exact sums of its samples (what
    :func:`math.fsum` gives), online and in ad-hoc queries alike.  Peak
    burn per window is tracked as it happens -- campaigns report it
    without replaying the timeline.
    """

    __slots__ = ("objective", "good", "bad", "_samples", "_windows", "_longest")

    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        self.good = 0.0
        self.bad = 0.0
        # Chronological (t, good, bad) epoch samples for window sums.
        self._samples: List[Tuple[float, float, float]] = []
        self._windows: Dict[float, _WindowSum] = {
            w: _WindowSum(w) for w in objective.windows
        }
        self._longest = self._windows[max(objective.windows)]

    @property
    def total(self) -> float:
        return self.good + self.bad

    def record(self, t: float, good: float, bad: float) -> None:
        """Account an epoch's request masses at simulation time ``t``."""
        if not (0.0 <= good < math.inf and 0.0 <= bad < math.inf):
            raise ValueError("good/bad request masses must be finite and >= 0")
        if good == 0 and bad == 0:
            return
        if self._samples and t < self._samples[-1][0]:
            raise ValueError(
                f"samples must be recorded in time order "
                f"({t} < {self._samples[-1][0]})"
            )
        self.good += good
        self.bad += bad
        self._samples.append((t, good, bad))
        exact_good, exact_bad = _exact(good), _exact(bad)
        for window in self._windows.values():
            window.good += exact_good
            window.bad += exact_bad
        self._expire(t)
        for window in self._windows.values():
            window.peak = max(window.peak, self.burn_rate(window.span, now=t))

    def _expire(self, now: float) -> None:
        """Move every window's start up to ``now``; trim the ring to the longest.

        Each sample enters and leaves each window once, so this is
        amortised O(windows) per record.
        """
        samples = self._samples
        for window in self._windows.values():
            horizon = now - window.span
            start = window.start
            while samples[start][0] < horizon:
                _, good, bad = samples[start]
                window.good -= _exact(good)
                window.bad -= _exact(bad)
                start += 1
            window.start = start
        drop = self._longest.start
        if drop:
            del samples[:drop]
            for window in self._windows.values():
                window.start -= drop

    def error_rate(self, window_s: Optional[float] = None,
                   now: Optional[float] = None) -> float:
        """Bad fraction overall, or within the trailing window."""
        if window_s is None:
            total = self.total
            return self.bad / total if total > 0 else 0.0
        samples = self._samples
        latest = samples[-1][0] if samples else 0.0
        window = self._windows.get(window_s)
        if window is not None and (now is None or now == latest):
            good, bad = window.good / _SCALE, window.bad / _SCALE
        else:
            horizon = (latest if now is None else now) - window_s
            start = len(samples)
            while start and samples[start - 1][0] >= horizon:
                start -= 1
            good = math.fsum(g for _, g, _ in samples[start:])
            bad = math.fsum(b for _, _, b in samples[start:])
        total = good + bad
        return bad / total if total > 0 else 0.0

    def burn_rate(self, window_s: Optional[float] = None,
                  now: Optional[float] = None) -> float:
        """Error-budget burn multiple (1.0 = spending budget exactly)."""
        return self.error_rate(window_s, now) / self.objective.error_budget

    def peak_burn_rate(self, window_s: Optional[float] = None) -> float:
        """Highest burn seen over any ``window_s`` window so far."""
        if window_s is None:
            return max(w.peak for w in self._windows.values())
        if window_s not in self._windows:
            raise ValueError(
                f"window {window_s} not tracked (have {self.objective.windows})"
            )
        return self._windows[window_s].peak

    @property
    def compliant(self) -> bool:
        """True while the overall error rate is within the objective."""
        return self.error_rate() <= self.objective.error_budget + 1e-12

    def merge(self, other: "SloTracker") -> "SloTracker":
        """Fold ``other`` (same objective) into this tracker, in place.

        Window samples are interleaved by time, so merged burn-rate
        windows stay meaningful; peak burns take the element-wise max
        (a lower bound for the merged stream, exact when the sources
        cover disjoint services that peak together).
        """
        if other.objective != self.objective:
            raise ValueError(
                "cannot merge trackers with different objectives: "
                f"{self.objective} vs {other.objective}"
            )
        self.good += other.good
        self.bad += other.bad
        self._samples = merged = sorted(self._samples + other._samples)
        exact_good = sum(_exact(g) for _, g, _ in merged)
        exact_bad = sum(_exact(b) for _, _, b in merged)
        for span, window in self._windows.items():
            window.start, window.good, window.bad = 0, exact_good, exact_bad
            window.peak = max(window.peak, other._windows[span].peak)
        if merged:
            self._expire(merged[-1][0])
        return self

    def row(self) -> Dict[str, float]:
        """Flat metrics dict (campaign/dashboard naming convention)."""
        out: Dict[str, float] = {
            "slo_threshold_s": self.objective.threshold_s,
            "slo_objective": self.objective.objective,
            "good_requests": self.good,
            "bad_requests": self.bad,
            "error_rate": self.error_rate(),
            "burn_rate": self.burn_rate(),
        }
        for window in self.objective.windows:
            out[f"peak_burn_{window:g}s"] = self.peak_burn_rate(window)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rate = self.error_rate()
        shown = "nan" if math.isnan(rate) else f"{rate:.2e}"
        return (
            f"<SloTracker {self.objective.objective:.3%}@"
            f"{self.objective.threshold_s * 1e3:g}ms err={shown} "
            f"burn={self.burn_rate():.2f}>"
        )


@dataclass
class SloRollup:
    """Named collection of trackers with a fleet-level aggregate view."""

    trackers: Dict[str, SloTracker] = field(default_factory=dict)

    def tracker(self, name: str, objective: SloObjective) -> SloTracker:
        found = self.trackers.get(name)
        if found is None:
            found = self.trackers[name] = SloTracker(objective)
        return found

    def fleet_error_rate(self) -> float:
        good = sum(t.good for t in self.trackers.values())
        bad = sum(t.bad for t in self.trackers.values())
        total = good + bad
        return bad / total if total > 0 else 0.0

    def worst_burn(self) -> Tuple[Optional[str], float]:
        """(service, burn) with the highest overall burn rate."""
        worst_name, worst = None, 0.0
        for name in sorted(self.trackers):
            burn = self.trackers[name].burn_rate()
            if burn > worst:
                worst_name, worst = name, burn
        return worst_name, worst
