"""One benchmark iteration: set up a workload, drive it, check it, report.

Run by ``perfbench/run.py`` in a fresh interpreter per iteration::

    PYTHONPATH=src python3 perfbench/workload.py --workload consolidation --seed 224 [--trace]

Each workload is the body of an existing campaign scenario, called with
that scenario's campaign parameters.  The body is not edited: the probe
below marks the start of its driven phase by wrapping the first call the
body makes into it (``PiCloud.run_for`` or ``LoadEngine.run``), and with
``--trace`` it wraps the layer boundaries listed in ``BOUNDARIES`` so each
call records a span.  Nothing under ``src/`` changes.

The last line of standard output is one JSON object: phase wall-clock,
simulated seconds, peak RSS, management operations attempted and failed,
the output checks, the simulated-output fingerprint, and (traced) the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from spans import SpanRecorder, check_accounting, self_times

# Campaign parameters of each workload's body (the campaign specs' values,
# with the grid cell the benchmark measures).
FLASHCROWD_PARAMS = {
    "nodes": 224, "duration_s": 120.0, "replicas": 50, "uplink_mbps": 100.0,
    "base_rate": 500.0, "peak_rate": 25_000.0, "slo_ms": 250.0,
    "objective": 0.999, "routing": "sdn-least-congested",
}
PARTITION_PARAMS = {
    "racks": 4, "pis": 14, "fat_tree_k": 8, "pod": 0, "web_containers": 8,
    "settle_s": 20.0, "arrival_rate": 100.0, "heartbeat_interval_s": 2.0,
    "heartbeat_timeout_s": 1.0, "partition_s": 60.0,
    "unreachable_grace_s": 15.0, "fencing": True,
}

# Body outputs that are host wall-clock, not simulated results.
WALL_FIELDS = ("setup_wall_s", "wall_s", "events_per_s")

# Span name -> the functions whose calls it times, as "module:Class.method".
# ``_recompute`` and ``_transition`` are the funnels the public
# ``FairShareScheduler.notify_change`` and ``FailureDetector.mark`` share
# with the submit/complete and heartbeat paths, so every CPU solve and
# every health transition is counted.  ``LoadEngine._tick``/``_settle``
# are the engine's per-epoch and per-flow work, which ``LoadEngine.run``
# only drives through the kernel.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("repro.sim.kernel:Simulator.run",
                   "repro.sim.kernel:Simulator.step"),
    "netsim.solve": ("repro.netsim.cc:MaxMinRateModel.allocate",
                     "repro.netsim.cc:CcRateModel.allocate"),
    "netsim.transfer": ("repro.netsim.fabric:Network.transfer",),
    "routing.resolve": ("repro.netsim.routing:EcmpRouting.resolve",
                        "repro.netsim.routing:ShortestPathRouting.resolve",
                        "repro.netsim.sdn.controller:OpenFlowPathService.resolve"),
    "sdn.packet_in": ("repro.netsim.sdn.controller:SdnController.handle_packet_in",),
    "mgmt.rest": ("repro.mgmt.rest:RestClient.request",),
    "mgmt.node_views": ("repro.mgmt.pimaster:PiMaster.node_views",),
    "placement.choose": tuple(
        f"repro.placement.policies:{name}.choose"
        for name in ("FirstFit", "BestFit", "WorstFit", "RoundRobin",
                     "RandomFit", "LowestCpuLoad", "PackingPlacement")
    ) + ("repro.placement.network_aware:NetworkAwarePlacement.choose",),
    "virt.create": ("repro.virt.lxc:LxcRuntime.lxc_create",),
    "mgmt.health_mark": ("repro.mgmt.health:FailureDetector._transition",),
    "mgmt.evacuate": ("repro.mgmt.recovery:RecoveryManager.evacuate",),
    "hostos.cpu_solve": ("repro.hostos.scheduler:FairShareScheduler._recompute",
                         "repro.hostos.scheduler:FifoScheduler._recompute"),
    "load.engine": ("repro.load.engine:LoadEngine.run",
                    "repro.load.engine:LoadEngine._tick",
                    "repro.load.engine:LoadEngine._settle"),
    "load.slo": ("repro.load.slo:SloTracker.record",
                 "repro.load.slo:SloTracker.error_rate",
                 "repro.load.slo:SloTracker.burn_rate"),
    "telemetry.record": ("repro.telemetry.series:TimeSeries.record",),
}

# Kernel callbacks and process resumptions outside the boundaries above
# are billed to the layer that owns the callback or generator, as a
# ``<layer>.dispatch`` span.  The kernel's own signal machinery
# (``repro.sim``) stays in ``sim.kernel`` self time.
DISPATCH_LAYERS = ("netsim", "sdn", "mgmt", "hostos", "virt", "load", "apps", "other")


def layer_of(module: str) -> Optional[str]:
    """The dispatch layer of a ``repro`` module, or None for the kernel."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    layer = parts[1]
    if layer == "sim":
        return None
    if layer == "netsim" and len(parts) > 2 and parts[2] == "sdn":
        return "sdn"
    return layer if layer in DISPATCH_LAYERS else "other"


def resolve(ref: str) -> Tuple[type, str]:
    module, _, path = ref.partition(":")
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    for part in owner_name.split("."):
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{ref} is not defined on its class")
    return owner, attr


class Probe:
    """Patches the program from outside for the rest of this process.

    Always: capture the ``PiCloud`` the body builds, time the phase
    boundary, and record every management operation's Signal.  With a
    recorder: time every boundary call and dispatched callback as spans,
    and capture the objects whose counters are read at the end.
    """

    def __init__(self, run_marker: str, recorder: Optional[SpanRecorder]) -> None:
        self.recorder = recorder
        self.ops: List[Any] = []
        self.instances: Dict[str, List[Any]] = {}
        self.t_start = self.t_run = self.t_end = None
        self.sim_run_start = None
        self._phase_span: Optional[int] = None
        self.run_span: Optional[int] = None
        self._run_marker = run_marker

    @property
    def cloud(self):
        return self.instances["cloud"][0]

    # -- patching ----------------------------------------------------------

    def _patch(self, ref: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = resolve(ref)
        setattr(owner, attr, make(vars(owner)[attr]))

    def _capture(self, ref: str, key: str) -> None:
        store = self.instances.setdefault(key, [])

        def make(init):
            def capture(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                store.append(obj)
            return capture

        self._patch(ref, make)

    def _record_op(self, spawn_or_destroy):
        def op(*args, **kwargs):
            signal = spawn_or_destroy(*args, **kwargs)
            self.ops.append(signal)
            return signal
        return op

    def _mark_run(self, boundary):
        def marked(*args, **kwargs):
            if self.t_run is None:
                self.start_run()
            return boundary(*args, **kwargs)
        return marked

    def install(self) -> None:
        self._capture("repro.core.cloud:PiCloud.__init__", "cloud")
        self._patch("repro.mgmt.pimaster:PiMaster.spawn_container", self._record_op)
        self._patch("repro.mgmt.pimaster:PiMaster.destroy_container", self._record_op)
        if self.recorder is not None:
            self._install_spans()
        # Outermost, so the phase switches before the boundary's own span.
        self._patch(self._run_marker, self._mark_run)

    def _install_spans(self) -> None:
        for key, ref in (
            ("rest_server", "repro.mgmt.rest:RestServer.__init__"),
            ("rerouter", "repro.netsim.sdn.apps:ElephantRerouter.__init__"),
            ("engine", "repro.load.engine:LoadEngine.__init__"),
        ):
            self._capture(ref, key)
        recorder = self.recorder
        for name, refs in BOUNDARIES.items():
            for ref in refs:
                self._patch(ref, lambda fn, name=name: recorder.timed(fn, name))
        self._patch_dispatch()

    def _patch_dispatch(self) -> None:
        recorder = self.recorder
        call = recorder.call
        by_module: Dict[str, Optional[int]] = {}
        by_code: Dict[Any, Optional[int]] = {}

        def dispatch_id(module: str) -> Optional[int]:
            if module not in by_module:
                layer = layer_of(module)
                by_module[module] = (None if layer is None
                                     else recorder.name_id(f"{layer}.dispatch"))
            return by_module[module]

        def wrap_schedule(schedule_at):
            def schedule(sim, when, callback, *args, priority=0):
                fn = getattr(callback, "func", callback)
                nid = dispatch_id(getattr(fn, "__module__", None)
                                  or type(fn).__module__)
                if nid is not None:
                    args = (nid, callback) + args
                    callback = call
                return schedule_at(sim, when, callback, *args, priority=priority)
            return schedule

        def wrap_advance(advance):
            def resume(process, step):
                code = getattr(process._generator, "gi_code", None)
                if code not in by_code:
                    path = getattr(code, "co_filename", "")
                    _, found, rest = path.replace("\\", "/").rpartition("/repro/")
                    module = "repro." + rest[:-3].replace("/", ".") if found else ""
                    by_code[code] = dispatch_id(module)
                nid = by_code[code]
                if nid is None:
                    return advance(process, step)
                return call(nid, advance, process, step)
            return resume

        self._patch("repro.sim.kernel:Simulator.schedule_at", wrap_schedule)
        self._patch("repro.sim.process:Process._advance", wrap_advance)

    # -- phases ------------------------------------------------------------

    def start_setup(self) -> None:
        self.t_start = time.perf_counter()
        if self.recorder is not None:
            self._phase_span = self.recorder.open("bench.setup")

    def start_run(self) -> None:
        if self.recorder is not None:
            self.recorder.close(self._phase_span)
        self.t_run = time.perf_counter()
        if self.recorder is not None:
            self._phase_span = self.run_span = self.recorder.open("bench.run")
        self.sim_run_start = self.cloud.sim.now

    def end_run(self) -> None:
        if self.recorder is not None:
            self.recorder.close(self._phase_span)
        self.t_end = time.perf_counter()

    def ops_failed(self) -> int:
        return sum(1 for signal in self.ops
                   if signal.triggered and signal.exception is not None)


# -- workloads --------------------------------------------------------------


def run_consolidation(seed: int) -> Dict[str, Any]:
    from repro.campaign.scenarios import measure_scale

    return measure_scale(224, seed=seed)


def run_flashcrowd(seed: int) -> Dict[str, Any]:
    from repro.campaign.scenarios import RunContext, flashcrowd_slo

    return flashcrowd_slo(RunContext(params=dict(FLASHCROWD_PARAMS), seed=seed))


def run_partition(seed: int) -> Dict[str, Any]:
    from repro.campaign.scenarios import RunContext, partition_chaos

    return partition_chaos(RunContext(params=dict(PARTITION_PARAMS), seed=seed))


def check_consolidation(out: Dict[str, Any], probe: Probe) -> List[str]:
    net = probe.cloud.network
    placed = [s for s in probe.ops if s.triggered and s.exception is None]
    accounted = (net.flows_completed.total + net.flows_failed.total
                 + net.active_flow_count)
    problems = []
    if len(probe.ops) != 24 or len(placed) != 24:
        problems.append(f"{len(placed)} of {len(probe.ops)} spawns placed, want 24 of 24")
    if accounted != net.flows_started.total:
        problems.append(f"completed+failed+active={accounted} != "
                        f"flows_started={net.flows_started.total}")
    return problems


def check_flashcrowd(out: Dict[str, Any], probe: Probe) -> List[str]:
    good, bad = out["web_good_requests"], out["web_bad_requests"]
    offered = out["web_offered_requests"]
    if abs(good + bad - offered) > 1e-9 * max(offered, 1.0):
        return [f"good+bad={good + bad!r} != offered={offered!r}"]
    return []


def check_partition(out: Dict[str, Any], probe: Probe) -> List[str]:
    problems = []
    if out["duplicate_container_epochs"] != 0:
        problems.append(f"duplicate_container_epochs="
                        f"{out['duplicate_container_epochs']} with fencing on")
    if out["reconciles"] < 1:
        problems.append("no heal-time reconcile ran")
    return problems


# name -> (body, phase-boundary call, output check, headline fingerprint keys)
WORKLOADS = {
    "consolidation": (run_consolidation, "repro.core.cloud:PiCloud.run_for",
                      check_consolidation,
                      ("events", "flows_started", "recomputes", "flows_solved")),
    "flashcrowd": (run_flashcrowd, "repro.load.engine:LoadEngine.run",
                   check_flashcrowd,
                   ("kernel_events", "flows_started", "reroutes",
                    "web_offered_requests", "web_p99_ms", "web_error_rate")),
    "partition": (run_partition, "repro.load.engine:LoadEngine.run",
                  check_partition,
                  ("kernel_events", "evacuations", "containers_respawned",
                   "reconciles", "web_p99_ms", "web_error_rate")),
}


def fingerprint(out: Dict[str, Any], probe: Probe, headline: Tuple[str, ...]) -> Dict[str, Any]:
    """The simulated outputs: a digest of all of them plus a readable few."""
    simulated = {key: value for key, value in out.items() if key not in WALL_FIELDS}
    simulated["total_kernel_events"] = probe.cloud.sim.events_executed
    blob = json.dumps(simulated, sort_keys=True, default=repr)
    return {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "headline": {key: out[key] for key in headline},
        "total_kernel_events": probe.cloud.sim.events_executed,
    }


# -- per-layer metrics (traced) ---------------------------------------------

# *_s metrics: metric name -> span names whose self times it sums.
TIMED = {
    "sim.self_s": ("sim.kernel",),
    "netsim.solve_s": ("netsim.solve",),
    "netsim.transfer_s": ("netsim.transfer",),
    "routing.resolve_s": ("routing.resolve",),
    "sdn.packet_in_s": ("sdn.packet_in",),
    "mgmt.rest_s": ("mgmt.rest",),
    "mgmt.node_views_s": ("mgmt.node_views",),
    "placement.choose_s": ("placement.choose",),
    "virt.create_s": ("virt.create",),
    "mgmt.health_mark_s": ("mgmt.health_mark",),
    "mgmt.evacuate_s": ("mgmt.evacuate",),
    "hostos.cpu_solve_s": ("hostos.cpu_solve",),
    "load.engine_s": ("load.engine",),
    "load.slo_s": ("load.slo",),
    "telemetry.record_s": ("telemetry.record",),
    **{f"{layer}.dispatch_s": (f"{layer}.dispatch",) for layer in DISPATCH_LAYERS},
    "bench.unattributed_s": ("bench.setup", "bench.run"),
}
PHASES = ("setup", "run")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(probe: Probe, out: Dict[str, Any]) -> Dict[str, float]:
    """Self time per boundary and phase, plus the layers' own counters."""
    recorder = probe.recorder
    names, parents, starts, ends = recorder.columns()
    check_accounting(parents, starts, ends)
    selfs = self_times(parents, starts, ends)
    in_run = starts >= starts[probe.run_span]
    width = len(recorder.names)
    by_phase = {
        "setup": np.bincount(names[~in_run], weights=selfs[~in_run], minlength=width),
        "run": np.bincount(names[in_run], weights=selfs[in_run], minlength=width),
    }
    calls = np.bincount(names, minlength=width)

    def spans(name: str, column) -> float:
        return float(column[recorder.names.index(name)]) if name in recorder.names else 0.0

    metrics: Dict[str, float] = {}
    for metric, span_names in TIMED.items():
        for phase in PHASES:
            metrics[f"{metric}.{phase}"] = sum(spans(n, by_phase[phase]) for n in span_names)

    # The phases are the only root spans, so summed self times plus the
    # phases' own self time must reproduce the wall-clock timed outside.
    for phase, wall in (("setup", probe.t_run - probe.t_start),
                        ("run", probe.t_end - probe.t_run)):
        attributed = float(np.sum(by_phase[phase]))
        if abs(attributed - wall) > 1e-3:
            raise RuntimeError(f"{phase}: self times sum to {attributed!r}s, "
                               f"traced wall is {wall!r}s")

    cloud = probe.cloud
    sim, net, pm = cloud.sim, cloud.network, cloud.pimaster
    ctrl = cloud.controller
    servers = probe.instances["rest_server"]
    served = sum(s.requests_served for s in servers)
    recovery, health = pm.recovery, pm.health
    sim_self = metrics["sim.self_s.setup"] + metrics["sim.self_s.run"]
    engines = probe.instances["engine"]
    metrics.update({
        "sim.events": sim.events_executed,
        "sim.us_per_event": _ratio(sim_self * 1e6, sim.events_executed),
        "sim.heap_compactions": sim.heap_compactions,
        "netsim.solve_calls": net.recomputes,
        "netsim.flows_per_solve": _ratio(net.flows_solved, net.recomputes),
        "netsim.transfer_calls": int(spans("netsim.transfer", calls)),
        "netsim.flows_failed_frac": _ratio(net.flows_failed.total, net.flows_started.total),
        "routing.resolve_calls": int(spans("routing.resolve", calls)),
        "sdn.packet_ins": ctrl.packet_in_count if ctrl is not None else 0,
        "sdn.flow_mods": ctrl.flow_mod_count if ctrl is not None else 0,
        "sdn.reroutes": sum(r.reroutes for r in probe.instances["rerouter"]),
        "mgmt.monitoring_polls": pm.monitoring.polls,
        "mgmt.poll_errors": pm.monitoring.poll_errors,
        "mgmt.rest_requests": int(spans("mgmt.rest", calls)),
        "mgmt.rest_failed_frac": _ratio(sum(s.requests_failed for s in servers), served),
        "mgmt.node_views_calls": int(spans("mgmt.node_views", calls)),
        "placement.choose_calls": int(spans("placement.choose", calls)),
        "mgmt.spawns": pm.spawns,
        "mgmt.spawn_failures": pm.spawn_failures,
        "mgmt.op_retries": pm.op_retries,
        "virt.creates": sum(d.runtime.containers_created for d in cloud.daemons.values()),
        "mgmt.heartbeats_sent": health.heartbeats_sent,
        "mgmt.heartbeats_missed": health.heartbeats_missed,
        "mgmt.health_marks": int(spans("mgmt.health_mark", calls)),
        "mgmt.evacuations": recovery.evacuations,
        "mgmt.respawn_ok_frac": _ratio(recovery.containers_respawned,
                                       recovery.containers_evacuated),
        "mgmt.respawn_retries": recovery.respawn_retries,
        "mgmt.reconciles": pm.reconciles,
        "hostos.cpu_solves": int(spans("hostos.cpu_solve", calls)),
        "load.epochs": sum(e.epochs_run for e in engines),
        "load.slo_calls": int(spans("load.slo", calls)),
        "load.shed_frac": _ratio(out.get("shed_requests", 0.0), out.get("total_requests", 0.0)),
        "telemetry.records": int(spans("telemetry.record", calls)),
        "bench.spans": len(starts),
    })
    return metrics


# -- entry point ------------------------------------------------------------


def preimport() -> None:
    """Import every module a body touches, so setup_s times no imports."""
    for module in ("repro.campaign.scenarios", "repro.core.cloud", "repro.apps",
                   "repro.load", "repro.faults", "repro.placement",
                   "repro.mgmt.distribution", "repro.netsim.sdn",
                   "repro.netsim.sdn.apps"):
        importlib.import_module(module)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="record spans and report per-layer metrics")
    parser.add_argument("--spans-out", help="write the traced run's spans (.npz) here")
    args = parser.parse_args(argv)

    preimport()
    body, marker, check, headline = WORKLOADS[args.workload]
    run_id = f"{args.workload}-{args.seed}-{time.time_ns()}"
    probe = Probe(marker, SpanRecorder(run_id) if args.trace else None)
    probe.install()
    result: Dict[str, Any] = {"run_id": run_id, "problems": []}
    try:
        probe.start_setup()
        out = body(args.seed)
        probe.end_run()
        problems = check(out, probe)
        t_checked = time.perf_counter()
        if probe.t_run is None:
            problems.append("the body never reached its driven phase")
        result.update({
            "setup_s": probe.t_run - probe.t_start,
            "run_s": probe.t_end - probe.t_run,
            "total_s": t_checked - probe.t_start,
            "sim_run_s": probe.cloud.sim.now - probe.sim_run_start,
            "fingerprint": fingerprint(out, probe, headline),
            "problems": problems,
        })
        if probe.recorder is not None:
            result["layers"] = layer_metrics(probe, out)
            if args.spans_out:
                probe.recorder.write(args.spans_out)
    except Exception:  # noqa: BLE001 - reported as a failed run, not a crash
        result["problems"].append(traceback.format_exc())
        result["raised"] = True
    result["ops_attempted"] = len(probe.ops)
    result["ops_failed"] = (len(probe.ops) if result.get("raised") or result["problems"]
                            else probe.ops_failed())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
