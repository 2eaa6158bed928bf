#!/usr/bin/env python
"""Perf regression gate: compare measured numbers against a baseline.

Replaces the inline heredoc that used to live in ``.github/workflows/
ci.yml`` -- the gate itself is now tested code
(``tests/test_compare_baseline.py``).  It understands two "current"
formats:

* a ``BENCH_perf.json``-shaped file (``{"scales": {"224": {...}}}``),
  as written by ``benchmarks/test_scale_perf.py``;
* a campaign result store (``results.jsonl`` from
  ``repro campaign run specs/perf_224.yaml``), where the per-scale
  metrics are the ``metrics`` of the ok run whose ``params.nodes``
  matches ``--scale`` (mean over seeds when several match).

The baseline is always ``BENCH_perf.json``-shaped (the committed repo
baseline).  A key regresses when ``current > tolerance * baseline``;
missing scales or keys are hard errors, not silent passes.

The behaviour fingerprints (``events`` and ``flows_started``: counts of
the simulated workload, independent of the host) are gated *exactly*
whenever both the baseline and the current run carry them, so a change
that alters what the simulator does fails the gate even when it is
fast.

``--scale`` is repeatable: one invocation gates every listed scale
against the same current source (useful after a full
``benchmarks/test_scale_perf.py`` regeneration, where the fresh
``BENCH_perf.json`` carries all scales including 3456).

Usage (CI's blocking perf gate):

    python benchmarks/compare_baseline.py \
        --baseline BENCH_perf.json \
        --current campaign-out/perf/results.jsonl \
        --scale 224 --key wall_s --key setup_wall_s --tolerance 2.0

Exit codes: 0 ok, 1 regression, 2 bad inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union

Number = Union[int, float]

# Host-independent counts of the simulated workload; they must match.
FINGERPRINT_KEYS = ("events", "flows_started")


class CompareError(Exception):
    """Unusable inputs: missing files, scales, or metric keys."""


class MissingScaleError(CompareError):
    """The requested scale is absent from a measurement source."""


class MissingKeyError(CompareError):
    """A gated metric key is absent from a measurement source."""


@dataclass(frozen=True)
class Comparison:
    """One gated key's verdict (``exact``: a fingerprint that must match)."""

    key: str
    baseline: float
    current: float
    tolerance: float
    exact: bool = False

    @property
    def limit(self) -> float:
        return self.tolerance * self.baseline

    @property
    def regressed(self) -> bool:
        if self.exact:
            return self.current != self.baseline
        return self.current > self.limit

    def describe(self, scale: int) -> str:
        if self.exact:
            verdict = "DRIFTED" if self.regressed else "ok"
            return (f"{scale}-node {self.key}: baseline {self.baseline:g}, "
                    f"this run {self.current:g} (must match) [{verdict}]")
        verdict = "REGRESSED" if self.regressed else "ok"
        return (f"{scale}-node {self.key}: baseline {self.baseline}s, "
                f"this run {self.current}s "
                f"(limit {self.tolerance:g}x = {self.limit:g}s) [{verdict}]")


def _load_json(path: Union[str, Path]) -> object:
    path = Path(path)
    if not path.exists():
        raise CompareError(f"measurement file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CompareError(f"invalid JSON in {path}: {exc}") from exc


def _scale_metrics_from_bench(data: dict, scale: int,
                              source: str) -> Dict[str, Number]:
    scales = data.get("scales")
    if not isinstance(scales, dict):
        raise CompareError(f"{source} has no 'scales' table")
    metrics = scales.get(str(scale))
    if metrics is None:
        raise MissingScaleError(
            f"{source} has no scale {scale}; "
            f"available: {sorted(scales)}"
        )
    return metrics


def _scale_metrics_from_store(path: Path, scale: int) -> Dict[str, Number]:
    """Mean ok-run metrics for ``params.nodes == scale`` in a JSONL store."""
    matches: List[Dict[str, Number]] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            # A truncated trailing line means a killed writer; anything
            # earlier is real corruption.
            if lineno == len(lines) - 1:
                print(f"warning: skipping truncated trailing record in "
                      f"{path}", file=sys.stderr)
                continue
            raise CompareError(
                f"corrupt result store {path} at line {lineno + 1}: {exc}"
            ) from exc
        if record.get("status") != "ok":
            continue
        if record.get("params", {}).get("nodes") != scale:
            continue
        matches.append(record.get("metrics", {}))
    if not matches:
        raise MissingScaleError(
            f"{path} has no ok run with params.nodes == {scale}"
        )
    merged: Dict[str, Number] = {}
    for key in sorted({k for m in matches for k in m}):
        values = [m[key] for m in matches
                  if isinstance(m.get(key), (int, float))
                  and not isinstance(m.get(key), bool)]
        if values:
            merged[key] = sum(values) / len(values)
    return merged


def load_scale_metrics(path: Union[str, Path],
                       scale: int) -> Dict[str, Number]:
    """Per-scale metrics from a BENCH json, a result store, or its dir."""
    path = Path(path)
    if path.is_dir():
        path = path / "results.jsonl"
    if not path.exists():
        raise CompareError(f"measurement file not found: {path}")
    if path.suffix == ".jsonl":
        return _scale_metrics_from_store(path, scale)
    return _scale_metrics_from_bench(_load_json(path), scale, str(path))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_metrics(
    baseline: Dict[str, Number],
    current: Dict[str, Number],
    keys: Sequence[str],
    tolerance: float,
) -> List[Comparison]:
    """Gate every key; raises on missing keys, never silently passes."""
    if tolerance <= 0:
        raise CompareError(f"tolerance must be > 0, got {tolerance}")
    if not keys:
        raise CompareError("no keys to compare")
    results = []
    for key in keys:
        for side, metrics in (("baseline", baseline), ("current", current)):
            if key not in metrics:
                raise MissingKeyError(
                    f"{side} metrics have no key {key!r}; "
                    f"available: {sorted(metrics)}"
                )
            if not _is_number(metrics[key]):
                raise CompareError(
                    f"{side} {key!r} is not numeric: {metrics[key]!r}"
                )
        results.append(Comparison(
            key=key, baseline=float(baseline[key]),
            current=float(current[key]), tolerance=tolerance,
        ))
    return results


def compare_fingerprints(
    baseline: Dict[str, Number],
    current: Dict[str, Number],
) -> List[Comparison]:
    """Exact checks for every fingerprint key both sides carry."""
    return [
        Comparison(key=key, baseline=float(baseline[key]),
                   current=float(current[key]), tolerance=1.0, exact=True)
        for key in FINGERPRINT_KEYS
        if _is_number(baseline.get(key)) and _is_number(current.get(key))
    ]


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_perf.json baseline")
    parser.add_argument("--current", required=True,
                        help="this run's BENCH json, results.jsonl store, "
                             "or store directory")
    parser.add_argument("--scale", type=int, action="append",
                        dest="scales", default=None, metavar="NODES",
                        help="node count to gate (repeatable; "
                             "default 224)")
    parser.add_argument("--key", action="append", dest="keys",
                        default=None, metavar="METRIC",
                        help="metric key to gate (repeatable; default: "
                             "wall_s and setup_wall_s)")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="regression threshold as a multiple of the "
                             "baseline (default 2.0)")
    args = parser.parse_args(argv)
    keys = args.keys or ["wall_s", "setup_wall_s"]
    scales = args.scales or [224]

    regressed = False
    for scale in scales:
        try:
            baseline = load_scale_metrics(args.baseline, scale)
            current = load_scale_metrics(args.current, scale)
            comparisons = compare_metrics(baseline, current, keys,
                                          args.tolerance)
            comparisons += compare_fingerprints(baseline, current)
        except CompareError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for comparison in comparisons:
            print(comparison.describe(scale))
            regressed = regressed or comparison.regressed
    if regressed:
        print(f"perf regression or fingerprint drift vs {args.baseline} "
              f"(tolerance {args.tolerance:g}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
