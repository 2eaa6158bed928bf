"""The perf regression gate (``benchmarks/compare_baseline.py``).

This used to be an untestable inline heredoc in ci.yml; now it's code,
so the tolerance boundary, the missing-scale and missing-key failure
modes, and both "current" formats (BENCH json and campaign result
store) get pinned here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_MODULE_PATH = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "compare_baseline.py")
_spec = importlib.util.spec_from_file_location("compare_baseline",
                                               _MODULE_PATH)
cb = importlib.util.module_from_spec(_spec)
# dataclass construction resolves the module through sys.modules.
sys.modules["compare_baseline"] = cb
_spec.loader.exec_module(cb)


def _bench_file(tmp_path, name, scales):
    path = tmp_path / name
    path.write_text(json.dumps({"scales": scales}))
    return path


def _store_file(tmp_path, records):
    path = tmp_path / "results.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


BASE_224 = {"wall_s": 4.0, "setup_wall_s": 2.0, "events": 1000}


class TestCompareMetrics:
    def test_within_tolerance_passes(self):
        (result,) = cb.compare_metrics(
            {"wall_s": 4.0}, {"wall_s": 7.9}, ["wall_s"], 2.0)
        assert not result.regressed
        assert result.limit == 8.0

    def test_exactly_at_tolerance_passes(self):
        """The boundary is inclusive: new == tolerance * old is not a fail."""
        (result,) = cb.compare_metrics(
            {"wall_s": 4.0}, {"wall_s": 8.0}, ["wall_s"], 2.0)
        assert not result.regressed

    def test_over_tolerance_regresses(self):
        (result,) = cb.compare_metrics(
            {"wall_s": 4.0}, {"wall_s": 8.001}, ["wall_s"], 2.0)
        assert result.regressed
        assert "REGRESSED" in result.describe(224)

    def test_missing_key_raises(self):
        with pytest.raises(cb.MissingKeyError, match="setup_wall_s"):
            cb.compare_metrics({"wall_s": 4.0}, {"wall_s": 4.0},
                               ["wall_s", "setup_wall_s"], 2.0)
        with pytest.raises(cb.MissingKeyError, match="current"):
            cb.compare_metrics({"wall_s": 4.0, "setup_wall_s": 1.0},
                               {"wall_s": 4.0},
                               ["wall_s", "setup_wall_s"], 2.0)

    def test_non_numeric_value_raises(self):
        with pytest.raises(cb.CompareError, match="not numeric"):
            cb.compare_metrics({"wall_s": "fast"}, {"wall_s": 4.0},
                               ["wall_s"], 2.0)

    def test_bad_tolerance_and_empty_keys_raise(self):
        with pytest.raises(cb.CompareError):
            cb.compare_metrics({"a": 1}, {"a": 1}, ["a"], 0.0)
        with pytest.raises(cb.CompareError):
            cb.compare_metrics({"a": 1}, {"a": 1}, [], 2.0)


class TestFingerprints:
    """``events``/``flows_started`` must match exactly when both carry them."""

    def test_matching_fingerprints_pass(self):
        results = cb.compare_fingerprints(
            {"events": 1000, "flows_started": 40, "wall_s": 4.0},
            {"events": 1000.0, "flows_started": 40, "wall_s": 9.0})
        assert [r.key for r in results] == ["events", "flows_started"]
        assert not any(r.regressed for r in results)

    def test_any_difference_drifts(self):
        (result,) = cb.compare_fingerprints({"events": 1000},
                                            {"events": 999})
        assert result.regressed
        assert "DRIFTED" in result.describe(224)

    def test_gated_only_when_both_sides_carry_them(self):
        assert cb.compare_fingerprints({"events": 1000}, {}) == []
        assert cb.compare_fingerprints({}, {"flows_started": 3}) == []


class TestLoadScaleMetrics:
    def test_bench_json(self, tmp_path):
        path = _bench_file(tmp_path, "bench.json", {"224": BASE_224})
        assert cb.load_scale_metrics(path, 224) == BASE_224

    def test_bench_json_missing_scale(self, tmp_path):
        path = _bench_file(tmp_path, "bench.json", {"56": BASE_224})
        with pytest.raises(cb.MissingScaleError, match="896"):
            cb.load_scale_metrics(path, 896)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cb.CompareError, match="not found"):
            cb.load_scale_metrics(tmp_path / "nope.json", 224)

    def test_store_jsonl_picks_matching_ok_runs(self, tmp_path):
        path = _store_file(tmp_path, [
            {"status": "ok", "params": {"nodes": 224},
             "metrics": {"wall_s": 4.0, "setup_wall_s": 2.0}},
            {"status": "ok", "params": {"nodes": 224},
             "metrics": {"wall_s": 6.0, "setup_wall_s": 2.0}},
            {"status": "ok", "params": {"nodes": 896},       # other scale
             "metrics": {"wall_s": 99.0}},
            {"status": "failed", "params": {"nodes": 224},   # not ok
             "metrics": {}},
        ])
        metrics = cb.load_scale_metrics(path, 224)
        assert metrics["wall_s"] == 5.0                      # mean over seeds
        assert metrics["setup_wall_s"] == 2.0

    def test_store_without_scale_raises(self, tmp_path):
        path = _store_file(tmp_path, [
            {"status": "ok", "params": {"nodes": 56}, "metrics": {}},
        ])
        with pytest.raises(cb.MissingScaleError, match="224"):
            cb.load_scale_metrics(path, 224)

    def test_store_directory_resolves_to_results_jsonl(self, tmp_path):
        _store_file(tmp_path, [
            {"status": "ok", "params": {"nodes": 224},
             "metrics": {"wall_s": 1.0}},
        ])
        assert cb.load_scale_metrics(tmp_path, 224) == {"wall_s": 1.0}


class TestMain:
    def test_end_to_end_pass_and_fail(self, tmp_path, capsys):
        baseline = _bench_file(tmp_path, "base.json", {"224": BASE_224})
        good = _store_file(tmp_path, [
            {"status": "ok", "params": {"nodes": 224},
             "metrics": {"wall_s": 5.0, "setup_wall_s": 3.0}},
        ])
        argv = ["--baseline", str(baseline), "--current", str(good),
                "--scale", "224", "--tolerance", "2.0"]
        assert cb.main(argv) == 0
        assert "[ok]" in capsys.readouterr().out

        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(
            {"scales": {"224": {"wall_s": 9.0, "setup_wall_s": 3.0}}}))
        argv[3] = str(slow)
        assert cb.main(argv) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_main_fails_on_fingerprint_drift(self, tmp_path, capsys):
        """Fast but behaviourally different still fails the gate."""
        baseline = _bench_file(tmp_path, "base.json", {"224": BASE_224})
        same = _bench_file(tmp_path, "same.json", {"224": dict(BASE_224)})
        argv = ["--baseline", str(baseline), "--current", str(same),
                "--scale", "224"]
        assert cb.main(argv) == 0
        assert "224-node events: baseline 1000, this run 1000" \
            in capsys.readouterr().out

        drifted = _bench_file(tmp_path, "drift.json",
                              {"224": dict(BASE_224, events=1001,
                                           wall_s=1.0)})
        argv[3] = str(drifted)
        assert cb.main(argv) == 1
        assert "DRIFTED" in capsys.readouterr().out

    def test_main_missing_scale_is_usage_error(self, tmp_path):
        baseline = _bench_file(tmp_path, "base.json", {"224": BASE_224})
        current = _bench_file(tmp_path, "cur.json", {"56": BASE_224})
        assert cb.main(["--baseline", str(baseline),
                        "--current", str(current)]) == 2

    def test_main_gates_multiple_scales(self, tmp_path, capsys):
        """Repeatable --scale: one regressed scale fails the whole gate."""
        baseline = _bench_file(tmp_path, "base.json", {
            "224": BASE_224,
            "3456": {"wall_s": 12.0, "setup_wall_s": 100.0},
        })
        current = _bench_file(tmp_path, "cur.json", {
            "224": {"wall_s": 5.0, "setup_wall_s": 2.5},
            "3456": {"wall_s": 14.0, "setup_wall_s": 110.0},
        })
        argv = ["--baseline", str(baseline), "--current", str(current),
                "--scale", "224", "--scale", "3456", "--tolerance", "2.0"]
        assert cb.main(argv) == 0
        out = capsys.readouterr().out
        assert "224-node wall_s" in out and "3456-node wall_s" in out

        regressed = _bench_file(tmp_path, "bad.json", {
            "224": {"wall_s": 5.0, "setup_wall_s": 2.5},
            "3456": {"wall_s": 30.0, "setup_wall_s": 110.0},
        })
        argv[3] = str(regressed)
        assert cb.main(argv) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_main_missing_key_is_usage_error(self, tmp_path):
        baseline = _bench_file(tmp_path, "base.json", {"224": BASE_224})
        current = _bench_file(tmp_path, "cur.json",
                              {"224": {"wall_s": 4.0}})
        assert cb.main(["--baseline", str(baseline),
                        "--current", str(current),
                        "--key", "wall_s", "--key", "setup_wall_s"]) == 2
