"""The repository benchmark: one workload, several fresh processes, one result.

Run from the repository root::

    python3 perfbench/run.py --workload consolidation --seed 224 --seconds 40 --trace 0

Each iteration runs ``perfbench/workload.py`` in a fresh single-threaded
interpreter with its own ``PYTHONHASHSEED``, until ``--seconds`` of wall
time would be exceeded (at least ``MIN_ITERATIONS`` times).

* ``--trace 0`` reports the end-to-end metrics, each the median over the
  iterations: ``setup_s``, ``run_s``, ``total_s``, ``sim_s_per_s``,
  ``peak_rss_mb`` and ``ops_ok_frac``.
* ``--trace 1`` runs one untraced and one traced iteration and reports the
  traced run's per-layer metrics, plus ``bench.trace_overhead_frac``.

Every iteration's outputs are checked, and the simulated-output
fingerprints of all iterations must be identical (same seed, same bytes,
under any hash seed).  When ``--seed`` is a workload's baseline seed, the
fingerprint is also compared with the one recorded in
``perfbench/spec.json`` and any drift is printed to standard error.

Standard output: one line with the environment record, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}`` where attempted and
failed count management operations (spawn, destroy, respawn).  The full
record, with every iteration, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ITERATIONS = 3
# Every invocation must finish within 180 s: no iteration starts that
# could not end by this mark, and each is killed at it.
HARD_LIMIT_S = 165.0


def environment() -> Dict[str, Any]:
    """Where the numbers were taken: machine, interpreter, libraries, commit."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "networkx"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def hash_seed(seed: int, iteration: int) -> int:
    """A distinct, reproducible ``PYTHONHASHSEED`` per iteration."""
    return (seed * 1_000_003 + iteration * 7_919) % 4_294_967_295 + 1


def run_iteration(workload: str, seed: int, iteration: int, trace: bool,
                  timeout_s: float, spans_out: Optional[Path] = None) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONHASHSEED=str(hash_seed(seed, iteration)))
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"problems": [f"iteration killed after {timeout_s:.0f}s"], "raised": True}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": [f"iteration exited {proc.returncode} without a result: "
                             f"{proc.stderr.strip()[-2000:]}"], "raised": True}
    result["hash_seed"] = env["PYTHONHASHSEED"]
    return result


def ok(result: Dict[str, Any]) -> bool:
    return not result.get("problems") and "fingerprint" in result


def ops_counts(results: List[Dict[str, Any]]) -> tuple[int, int]:
    """Management operations attempted and failed over all iterations.

    An iteration that died without a result counts as many failed
    operations as the others attempted (at least one).
    """
    known = [r["ops_attempted"] for r in results if "ops_attempted" in r]
    typical = max(known, default=1) or 1
    attempted = failed = 0
    for result in results:
        attempted += result.get("ops_attempted", typical)
        failed += result.get("ops_failed", typical)
    return max(attempted, 1), failed


def end_to_end(results: List[Dict[str, Any]], attempted: int, failed: int) -> Dict[str, Any]:
    good = [r for r in results if ok(r)] or [{}]

    def median(key, fn=None):
        values = [fn(r) if fn else r[key] for r in good if key in r]
        return statistics.median(values) if values else 0.0

    return {
        "setup_s": {"value": median("setup_s"), "unit": "s"},
        "run_s": {"value": median("run_s"), "unit": "s"},
        "total_s": {"value": median("total_s"), "unit": "s"},
        "sim_s_per_s": {"value": median("run_s", lambda r: r["sim_run_s"] / r["run_s"]),
                        "unit": "sim_s/s"},
        "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MiB"},
        "ops_ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def unit_of(layer_metric: str) -> str:
    if "_s." in layer_metric:
        return "s"
    if layer_metric.endswith("_frac"):
        return "ratio"
    if layer_metric.endswith("us_per_event"):
        return "us"
    if layer_metric.endswith("flows_per_solve"):
        return "flows/solve"
    return "count"


def per_layer(untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Each layer metric's median over the traced iterations."""
    layers = [r["layers"] for r in traced if ok(r)]
    metrics = {name: {"value": statistics.median(l[name] for l in layers),
                      "unit": unit_of(name)}
               for name in (layers[0] if layers else {})}
    plain = [r["run_s"] for r in untraced if ok(r)]
    timed = [r["run_s"] for r in traced if ok(r)]
    overhead = (statistics.median(timed) / statistics.median(plain) - 1.0
                if plain and timed else 0.0)
    metrics["bench.trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def drift(spec: Dict[str, Any], workload: str, seed: int,
          fingerprint: Dict[str, Any]) -> List[str]:
    """Differences from the recorded baseline fingerprint of this seed."""
    baseline = spec["workloads"][workload]
    if seed != baseline["seed"] or "fingerprint" not in baseline:
        return []
    recorded = baseline["fingerprint"]
    lines = []
    for key in sorted(set(recorded["headline"]) | set(fingerprint["headline"])):
        old, new = recorded["headline"].get(key), fingerprint["headline"].get(key)
        if old != new:
            lines.append(f"{key}: {old!r} -> {new!r}")
    for key in ("total_kernel_events", "sha256"):
        if recorded.get(key) != fingerprint.get(key):
            lines.append(f"{key}: {recorded.get(key)!r} -> {fingerprint.get(key)!r}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    from spans import selfcheck

    selfcheck()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.monotonic()
    results: List[Dict[str, Any]] = []
    # Traced mode alternates untraced and traced iterations, in pairs.
    step = 2 if args.trace else 1
    minimum = step if args.trace else MIN_ITERATIONS
    while True:
        index = len(results)
        traced = bool(args.trace) and index % 2 == 1
        spans_out = OUT / f"{stem}.spans.npz" if traced and index == 1 else None
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        results.append(run_iteration(args.workload, args.seed, index, traced,
                                     remaining, spans_out))
        elapsed = time.monotonic() - started
        each = elapsed / len(results)
        if not ok(results[-1]) or elapsed + each > HARD_LIMIT_S:
            break
        if (len(results) >= minimum and len(results) % step == 0
                and elapsed + step * each > args.seconds):
            break

    problems = [p for r in results for p in r.get("problems", [])]
    digests = {r["fingerprint"]["sha256"] for r in results if "fingerprint" in r}
    if len(digests) > 1:
        problems.append(f"fingerprints differ between hash seeds: {sorted(digests)}")
    correct = not problems and all(ok(r) for r in results)
    attempted, failed = ops_counts(results)
    if args.trace:
        metrics = per_layer(results[0::2], results[1::2])
    else:
        metrics = end_to_end(results, attempted, failed)

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "model_validation": spec["model_validation"],
        "correct": correct, "problems": problems, "iterations": results,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    if results and "fingerprint" in results[0]:
        for line in drift(spec, args.workload, args.seed, results[0]["fingerprint"]):
            print(f"fingerprint drift: {line}", file=sys.stderr)
    print(json.dumps({"environment": env, "model_validation": spec["model_validation"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
