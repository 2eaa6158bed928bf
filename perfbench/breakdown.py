"""Traced per-layer breakdown of every workload, checked against predictions.

Run from the repository root::

    python3 perfbench/breakdown.py

For each workload at its baseline seed this runs ``run.py --trace 1`` for
the benchmark's ``run_seconds``, then states for each prediction below
whether the traced numbers confirm or contradict it.
Writes ``perfbench/breakdown.json`` and ``perfbench/BREAKDOWN.md``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict, List, Tuple

from run import HERE, environment

# A layer stays "unchanged" on a workload when its self time is below this
# share of the phase it should move: doubling it moves that phase by less
# than the end-to-end bounds.
UNCHANGED_SHARE = 0.05

# (row, time metrics, phases it should move, bulk of the work in,
#  predicted unchanged on) -- the prediction table the benchmark was
# defined with.
ROWS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("sim", ("sim.self_s",), ("run",),
     ("consolidation", "flashcrowd", "partition"), ()),
    ("netsim.solve", ("netsim.solve_s",), ("run",), ("consolidation",), ("flashcrowd",)),
    ("netsim.transfer", ("netsim.transfer_s",), ("run",), ("consolidation",), ("partition",)),
    ("routing", ("routing.resolve_s",), ("setup", "run"), ("consolidation",), ()),
    ("sdn", ("sdn.packet_in_s",), ("run",), ("flashcrowd",), ("consolidation", "partition")),
    ("mgmt.monitoring+rest", ("mgmt.rest_s", "mgmt.dispatch_s"), ("setup",),
     ("consolidation",), ("flashcrowd",)),
    ("mgmt.placement", ("mgmt.node_views_s", "placement.choose_s"), ("setup",),
     ("consolidation",), ("flashcrowd",)),
    ("mgmt.spawn+virt", ("virt.create_s",), ("setup",), ("consolidation", "partition"), ()),
    ("mgmt.health", ("mgmt.health_mark_s",), ("setup", "run"),
     ("partition",), ("consolidation", "flashcrowd")),
    ("mgmt.recovery", ("mgmt.evacuate_s",), ("run",),
     ("partition",), ("consolidation", "flashcrowd")),
    ("hostos", ("hostos.cpu_solve_s",), ("run",), ("consolidation",), ("flashcrowd",)),
    ("load", ("load.engine_s", "load.slo_s"), ("run",), ("flashcrowd",), ("consolidation",)),
    ("telemetry", ("telemetry.record_s",), ("run",), ("consolidation",), ()),
)

# Layer groups for "which layer dominates a phase": every *_s metric's
# prefix, with routing and sdn counted as netsim and placement as mgmt.
GROUPS = {"routing": "netsim", "sdn": "netsim", "placement": "mgmt"}


def phase_wall(layers: Dict[str, float], phase: str) -> float:
    return sum(v for k, v in layers.items() if "_s." in k and k.endswith("." + phase))


def share(layers: Dict[str, float], metrics, phases) -> float:
    spent = sum(layers[f"{m}.{p}"] for m in metrics for p in phases)
    wall = sum(phase_wall(layers, p) for p in phases)
    return spent / wall if wall else 0.0


def by_group(layers: Dict[str, float], phase: str) -> Dict[str, float]:
    groups: Dict[str, float] = {}
    for key, value in layers.items():
        if "_s." in key and key.endswith("." + phase):
            prefix = key.split(".", 1)[0]
            group = GROUPS.get(prefix, prefix)
            groups[group] = groups.get(group, 0.0) + value
    return groups


def verdicts(layers: Dict[str, Dict[str, float]]) -> List[Dict[str, object]]:
    found = []
    for row, metrics, phases, bulk, unchanged in ROWS:
        shares = {w: share(layers[w], metrics, phases) for w in layers}
        others = [w for w in layers if w not in bulk]
        bulk_ok = all(shares[b] >= shares[o] for b in bulk for o in others)
        flat_ok = all(shares[u] < UNCHANGED_SHARE for u in unchanged)
        found.append({
            "row": row, "phases": list(phases), "shares": shares,
            "bulk_in": list(bulk), "bulk_confirmed": bulk_ok,
            "unchanged_on": list(unchanged), "unchanged_confirmed": flat_ok,
        })

    def dominant(workload: str, phase: str) -> Tuple[str, float, float]:
        groups = by_group(layers[workload], phase)
        top = max(groups, key=groups.get)
        return top, groups[top], groups[top] / sum(groups.values())

    run_top = dominant("consolidation", "run")
    setup_top = dominant("consolidation", "setup")
    flash = layers["flashcrowd"]
    run_metrics = {k: v for k, v in flash.items() if "_s." in k and k.endswith(".run")}
    slo_top = max(run_metrics, key=run_metrics.get)
    health_counts = ("mgmt.heartbeats_sent", "mgmt.health_marks", "mgmt.evacuations",
                     "mgmt.reconciles")
    nonzero = {w: [c for c in health_counts if layers[w][c]] for w in layers}
    found += [
        {"row": "netsim dominates the consolidation driven phase",
         "confirmed": run_top[0] == "netsim",
         "evidence": f"largest layer in run: {run_top[0]} {run_top[1]:.3f}s "
                     f"({run_top[2]:.0%} of traced run)"},
        {"row": "mgmt monitoring and REST dominate consolidation setup",
         "confirmed": setup_top[0] == "mgmt",
         "evidence": f"largest layer in setup: {setup_top[0]} {setup_top[1]:.3f}s "
                     f"({setup_top[2]:.0%} of traced setup); "
                     f"mgmt {by_group(layers['consolidation'], 'setup').get('mgmt', 0.0):.3f}s"},
        {"row": "load.slo_s dominates flashcrowd's run_s",
         "confirmed": slo_top == "load.slo_s.run",
         "evidence": f"largest run metric: {slo_top} {run_metrics[slo_top]:.3f}s "
                     f"({run_metrics[slo_top] / phase_wall(flash, 'run'):.0%} of traced run)"},
        {"row": "mgmt health and recovery are non-zero only on partition",
         "confirmed": (len(nonzero["partition"]) == len(health_counts)
                       and not any(nonzero[w] for w in layers if w != "partition")),
         "evidence": f"non-zero health/recovery counters: {nonzero}"},
    ]
    return found


def markdown(record: Dict[str, object]) -> str:
    env = record["environment"]
    lines = [
        "# Traced per-layer breakdown",
        "",
        f"Generated by `python3 perfbench/breakdown.py` on {env['nproc']} cores of "
        f"{env['cpu_model']} (Python {env['python']}, numpy {env['numpy']}, "
        f"networkx {env['networkx']}, commit {env['git_commit']}).",
        "`run.py --trace 1` per workload at its baseline seed; times are "
        "exclusive self time in seconds, per phase, median over the traced iterations.",
        "",
        "## Predictions",
        "",
        "| prediction | verdict | evidence |",
        "|---|---|---|",
    ]
    for v in record["verdicts"]:
        if "confirmed" in v:
            verdict = "confirmed" if v["confirmed"] else "contradicted"
            lines.append(f"| {v['row']} | {verdict} | {v['evidence']} |")
            continue
        shares = ", ".join(f"{w} {s:.1%}" for w, s in v["shares"].items())
        bulk = "confirmed" if v["bulk_confirmed"] else "contradicted"
        flat = ("confirmed" if v["unchanged_confirmed"] else "contradicted") \
            if v["unchanged_on"] else "n/a"
        lines.append(
            f"| {v['row']}: bulk in {', '.join(v['bulk_in'])}; unchanged on "
            f"{', '.join(v['unchanged_on']) or '(none)'} | bulk {bulk}, unchanged "
            f"{flat} | share of {'+'.join(v['phases'])}: {shares} |")
    workloads = list(record["layers"])
    lines += ["", "## Per-layer metrics", "",
              "| metric | " + " | ".join(workloads) + " |",
              "|---|" + "---|" * len(workloads)]
    for name in record["layers"][workloads[0]]:
        cells = []
        for w in workloads:
            value = record["layers"][w][name]
            cells.append(f"{value:.4g}" if isinstance(value, float) else str(value))
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    layers: Dict[str, Dict[str, float]] = {}
    for workload, entry in spec["workloads"].items():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(entry["seed"]), "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"error: {workload}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        layers[workload] = {name: m["value"] for name, m in result["metrics"].items()}
    record = {"environment": environment(), "claim": spec["claim"],
              "verdicts": verdicts(layers), "layers": layers}
    (HERE / "breakdown.json").write_text(json.dumps(record, indent=1) + "\n")
    (HERE / "BREAKDOWN.md").write_text(markdown(record))
    for v in record["verdicts"]:
        print(v["row"], v.get("confirmed", (v.get("bulk_confirmed"), v.get("unchanged_confirmed"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
