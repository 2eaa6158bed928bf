"""Pluggable rate models: max-min fair share vs per-flow congestion control.

The fabric's :class:`~repro.netsim.fabric.Network` delegates rate
assignment to a :class:`RateModel` strategy:

* :class:`MaxMinRateModel` (the default) reproduces the historic
  instantaneous max-min fair share -- stateless, event-driven, and
  byte-identical to the pre-strategy fabric.
* :class:`CcRateModel` runs a per-flow congestion-control loop on top of
  the same solver: each flow keeps a congestion window, each link
  direction a fluid FIFO queue (:class:`~repro.netsim.link.QueueState`),
  and an epoch ticker converts windows to demand rates
  (``cwnd / rtt``), feeds queueing delay / ECN marks / drops back into
  the windows, and re-allocates.  Three update rules are provided:
  Reno-style AIMD, DCTCP with an ECN-fraction EWMA, and a delay-based
  variant (smoothed-RTT backoff).

Allocation under ``cc`` is *demand-capped max-min*: every flow's demand
``min(cwnd / rtt, rate_cap)`` is handed to
:func:`~repro.netsim.fairness.max_min_rates` as its cap, so flows still
share each direction's capacity max-min fairly *below* their windows --
the shared-capacity accounting lives in one place for both models.

Determinism: the cc loop contains no randomness; flows are always
iterated in ``flow_id`` order and per-direction demand sums are
accumulated in that same order, so same-seed runs are bit-identical
regardless of hash seeds.

Fidelity notes (the model is fluid, not packet-level):

* One queue per direction, single-bottleneck approximation: a flow
  offers its full demand to every hop on its path (see
  :class:`~repro.netsim.link.QueueState`).
* Signals are sampled per epoch, not per packet: the ECN fraction is
  the share of the epoch the queue spent above the marking threshold,
  loss means the queue overflowed at some point during the epoch.
* Multiplicative decreases are gated to once per RTT, matching the
  once-per-window reaction of real TCP.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.errors import RateModelError
from repro.netsim.fairness import max_min_rates, single_flow_rate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.fabric import FlowTransfer, Network
    from repro.netsim.link import LinkDirection

RATE_MODELS = ("maxmin", "cc")
CC_PROTOCOLS = ("reno", "dctcp", "delay")

# Default knobs, mirrored (and validated) by
# repro.core.config.RateModelConfig -- tests/test_cc.py pins the two in
# sync.  Tuned for the paper's fabric: 100 Mb/s links, shallow switch
# buffers (200 x 1500 B packets), DCTCP-style ECN threshold at 15% of
# the buffer.
DEFAULT_EPOCH_S = 0.001
DEFAULT_QUEUE_LIMIT_BYTES = 300_000.0
DEFAULT_ECN_THRESHOLD_FRAC = 0.15
DEFAULT_INIT_CWND_BYTES = 15_000.0
DEFAULT_MIN_CWND_BYTES = 1_500.0
DEFAULT_MSS_BYTES = 1_500.0
DEFAULT_AI_MSS_PER_RTT = 1.0
DEFAULT_MD_FACTOR = 0.5
DEFAULT_DCTCP_G = 0.0625
DEFAULT_DELAY_THRESHOLD = 1.25
DEFAULT_DELAY_SMOOTHING = 0.1


class RateModel:
    """Strategy interface: how the fabric assigns rates to active flows.

    Lifecycle: the :class:`~repro.netsim.fabric.Network` calls
    :meth:`attach` once at construction, :meth:`on_activate` /
    :meth:`on_detach` as flows join and leave, and :meth:`allocate`
    from every solve.  ``allocate`` receives the flows of a closed
    bottleneck component (sorted by flow id) and must return a rate for
    each; ``dirty_dirs`` is the set of directions the triggering churn
    touched (``None`` for a full solve) so stateful models can refresh
    per-direction bookkeeping for directions that lost their last flow.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.network: Optional["Network"] = None

    def attach(self, network: "Network") -> None:
        if self.network is not None and self.network is not network:
            raise RateModelError(
                f"rate model {self.name!r} is already attached to a fabric"
            )
        self.network = network

    def on_activate(self, flow: "FlowTransfer") -> None:
        """A flow became ACTIVE on its resolved path."""

    def on_detach(self, flow: "FlowTransfer") -> None:
        """A flow left the fabric (completed, failed, or was killed)."""

    def allocate(
        self,
        flows: List["FlowTransfer"],
        dirty_dirs: Optional[set],
    ) -> Dict["FlowTransfer", float]:
        raise NotImplementedError

    def describe(self) -> dict:
        """Introspection row for reports and the CLI."""
        return {"model": self.name}


class MaxMinRateModel(RateModel):
    """Instantaneous max-min fair share (the historic default).

    Stateless: every allocation is a pure function of the component's
    paths, capacities and rate caps, computed with the same arithmetic
    (and the same iteration order) as the pre-strategy fabric, so the
    default path stays byte-identical.
    """

    name = "maxmin"

    def allocate(
        self,
        flows: List["FlowTransfer"],
        dirty_dirs: Optional[set],
    ) -> Dict["FlowTransfer", float]:
        network = self.network
        if not flows:
            return {}
        if len(flows) == 1:
            # Most churn solves cover one flow alone on its path: skip the
            # component machinery (same arithmetic, see single_flow_rate).
            flow = flows[0]
            directions = flow.directions
            capacities = {direction: direction.capacity for direction in directions}
            return {flow: single_flow_rate(directions, capacities,
                                           network._rate_caps.get(flow))}
        flow_paths = {flow: flow.directions for flow in flows}
        capacities: Dict["LinkDirection", float] = {}
        for flow in flows:
            for direction in flow.directions:
                capacities[direction] = direction.capacity
        # validate=False: paths/capacities come straight from fabric
        # state; re-walking them every solve is pure overhead.
        return max_min_rates(flow_paths, capacities, network._rate_caps,
                             validate=False)


class CcFlowState:
    """Per-flow congestion-control state: the window and its update rule.

    Usable standalone (unit tests drive :meth:`update` with hand-built
    signal sequences); the :class:`CcRateModel` owns one per active flow.
    """

    __slots__ = (
        "protocol", "cwnd", "min_cwnd", "mss", "ai_mss_per_rtt", "md_factor",
        "dctcp_g", "delay_threshold", "delay_smoothing",
        "rtt_base", "alpha", "srtt", "last_decrease_at",
        "ecn_signals", "loss_signals", "decreases",
    )

    def __init__(
        self,
        protocol: str,
        *,
        rtt_base_s: float,
        init_cwnd_bytes: float = DEFAULT_INIT_CWND_BYTES,
        min_cwnd_bytes: float = DEFAULT_MIN_CWND_BYTES,
        mss_bytes: float = DEFAULT_MSS_BYTES,
        ai_mss_per_rtt: float = DEFAULT_AI_MSS_PER_RTT,
        md_factor: float = DEFAULT_MD_FACTOR,
        dctcp_g: float = DEFAULT_DCTCP_G,
        delay_threshold: float = DEFAULT_DELAY_THRESHOLD,
        delay_smoothing: float = DEFAULT_DELAY_SMOOTHING,
    ) -> None:
        if protocol not in CC_PROTOCOLS:
            raise RateModelError(
                f"unknown cc protocol {protocol!r}; choose from {CC_PROTOCOLS}"
            )
        if rtt_base_s <= 0:
            raise RateModelError(f"rtt_base_s must be positive, got {rtt_base_s}")
        self.protocol = protocol
        self.cwnd = float(init_cwnd_bytes)
        self.min_cwnd = float(min_cwnd_bytes)
        self.mss = float(mss_bytes)
        self.ai_mss_per_rtt = float(ai_mss_per_rtt)
        self.md_factor = float(md_factor)
        self.dctcp_g = float(dctcp_g)
        self.delay_threshold = float(delay_threshold)
        self.delay_smoothing = float(delay_smoothing)
        self.rtt_base = float(rtt_base_s)
        self.alpha = 0.0           # DCTCP ECN-fraction EWMA
        self.srtt: Optional[float] = None  # delay-variant smoothed RTT
        self.last_decrease_at = -math.inf
        self.ecn_signals = 0
        self.loss_signals = 0
        self.decreases = 0

    def demand_rate(self, queue_delay_s: float) -> float:
        """Window -> offered rate: cwnd over the (queue-inclusive) RTT."""
        return self.cwnd / (self.rtt_base + queue_delay_s)

    def update(self, now: float, dt: float, rtt_s: float,
               ecn_frac: float, loss: bool) -> None:
        """One epoch step: apply the protocol's rule to the window.

        ``rtt_s`` is the current queue-inclusive RTT, ``ecn_frac`` the
        fraction of the epoch the path's worst queue spent above the ECN
        threshold, ``loss`` whether any queue on the path overflowed.
        """
        if ecn_frac > 0.0:
            self.ecn_signals += 1
        if loss:
            self.loss_signals += 1
        grow = self.ai_mss_per_rtt * self.mss * (dt / rtt_s)
        if self.protocol == "reno":
            # Classic AIMD, loss-only: Reno is ECN-blind, fills the
            # buffer until it overflows, then halves.
            if loss:
                self._decrease(now, rtt_s, self.md_factor)
            else:
                self.cwnd += grow
        elif self.protocol == "dctcp":
            self.alpha = ((1.0 - self.dctcp_g) * self.alpha
                          + self.dctcp_g * ecn_frac)
            if loss:
                self._decrease(now, rtt_s, self.md_factor)
            elif ecn_frac > 0.0:
                # Proportional backoff: gentle when marks are rare.
                self._decrease(now, rtt_s, 1.0 - self.alpha / 2.0)
            else:
                self.cwnd += grow
        else:  # delay
            if self.srtt is None:
                self.srtt = rtt_s
            else:
                w = self.delay_smoothing
                self.srtt = (1.0 - w) * self.srtt + w * rtt_s
            if loss:
                self._decrease(now, rtt_s, self.md_factor)
            elif self.srtt > self.delay_threshold * self.rtt_base:
                self._decrease(now, rtt_s, self.md_factor)
            else:
                self.cwnd += grow

    def _decrease(self, now: float, rtt_s: float, factor: float) -> None:
        """Multiplicative decrease, gated to once per RTT."""
        if now - self.last_decrease_at < rtt_s:
            return
        self.cwnd = max(self.cwnd * factor, self.min_cwnd)
        self.last_decrease_at = now
        self.decreases += 1


class CcRateModel(RateModel):
    """Per-flow congestion control stepped on a fixed epoch.

    The loop per epoch: settle queues -> read per-direction signals
    (ECN-mark fraction, overflow) -> update every flow's window ->
    re-allocate demand-capped max-min rates -> refresh per-direction
    offered demand so the queues evolve toward the new operating point.
    Churn between epochs (flows starting/finishing) reallocates with the
    current windows through the fabric's normal deferred solve; windows
    only move on epoch boundaries.
    """

    name = "cc"

    def __init__(
        self,
        *,
        protocol: str = "reno",
        epoch_s: float = DEFAULT_EPOCH_S,
        queue_limit_bytes: float = DEFAULT_QUEUE_LIMIT_BYTES,
        ecn_threshold_frac: float = DEFAULT_ECN_THRESHOLD_FRAC,
        init_cwnd_bytes: float = DEFAULT_INIT_CWND_BYTES,
        min_cwnd_bytes: float = DEFAULT_MIN_CWND_BYTES,
        mss_bytes: float = DEFAULT_MSS_BYTES,
        ai_mss_per_rtt: float = DEFAULT_AI_MSS_PER_RTT,
        md_factor: float = DEFAULT_MD_FACTOR,
        dctcp_g: float = DEFAULT_DCTCP_G,
        delay_threshold: float = DEFAULT_DELAY_THRESHOLD,
        delay_smoothing: float = DEFAULT_DELAY_SMOOTHING,
    ) -> None:
        super().__init__()
        if protocol not in CC_PROTOCOLS:
            raise RateModelError(
                f"unknown cc protocol {protocol!r}; choose from {CC_PROTOCOLS}"
            )
        if epoch_s <= 0:
            raise RateModelError(f"epoch_s must be positive, got {epoch_s}")
        if queue_limit_bytes <= 0:
            raise RateModelError(
                f"queue_limit_bytes must be positive, got {queue_limit_bytes}"
            )
        if not 0.0 < ecn_threshold_frac <= 1.0:
            raise RateModelError(
                f"ecn_threshold_frac must be in (0, 1], got {ecn_threshold_frac}"
            )
        if min_cwnd_bytes <= 0 or init_cwnd_bytes < min_cwnd_bytes:
            raise RateModelError(
                "need 0 < min_cwnd_bytes <= init_cwnd_bytes, got "
                f"min={min_cwnd_bytes} init={init_cwnd_bytes}"
            )
        if mss_bytes <= 0:
            raise RateModelError(f"mss_bytes must be positive, got {mss_bytes}")
        if ai_mss_per_rtt <= 0:
            raise RateModelError(
                f"ai_mss_per_rtt must be positive, got {ai_mss_per_rtt}"
            )
        if not 0.0 < md_factor < 1.0:
            raise RateModelError(
                f"md_factor must be in (0, 1), got {md_factor}"
            )
        if not 0.0 < dctcp_g <= 1.0:
            raise RateModelError(f"dctcp_g must be in (0, 1], got {dctcp_g}")
        if delay_threshold <= 1.0:
            raise RateModelError(
                f"delay_threshold must exceed 1.0, got {delay_threshold}"
            )
        if not 0.0 < delay_smoothing <= 1.0:
            raise RateModelError(
                f"delay_smoothing must be in (0, 1], got {delay_smoothing}"
            )
        self.protocol = protocol
        self.epoch_s = float(epoch_s)
        self.queue_limit_bytes = float(queue_limit_bytes)
        self.ecn_threshold_frac = float(ecn_threshold_frac)
        self.init_cwnd_bytes = float(init_cwnd_bytes)
        self.min_cwnd_bytes = float(min_cwnd_bytes)
        self.mss_bytes = float(mss_bytes)
        self.ai_mss_per_rtt = float(ai_mss_per_rtt)
        self.md_factor = float(md_factor)
        self.dctcp_g = float(dctcp_g)
        self.delay_threshold = float(delay_threshold)
        self.delay_smoothing = float(delay_smoothing)
        self._states: Dict["FlowTransfer", CcFlowState] = {}
        self._tick_event = None
        self._last_tick = 0.0

    # -- lifecycle -----------------------------------------------------------

    def attach(self, network: "Network") -> None:
        super().attach(network)
        threshold = self.queue_limit_bytes * self.ecn_threshold_frac
        for link in network.links():
            link.forward.enable_queue(self.queue_limit_bytes, threshold)
            link.reverse.enable_queue(self.queue_limit_bytes, threshold)

    def on_activate(self, flow: "FlowTransfer") -> None:
        rtt_base = 2.0 * sum(d.latency for d in flow.directions)
        if rtt_base <= 0.0:
            # Zero-latency path (loopback-ish): fall back to one epoch so
            # the demand stays finite.
            rtt_base = self.epoch_s
        state = CcFlowState(
            self.protocol,
            rtt_base_s=rtt_base,
            init_cwnd_bytes=self.init_cwnd_bytes,
            min_cwnd_bytes=self.min_cwnd_bytes,
            mss_bytes=self.mss_bytes,
            ai_mss_per_rtt=self.ai_mss_per_rtt,
            md_factor=self.md_factor,
            dctcp_g=self.dctcp_g,
            delay_threshold=self.delay_threshold,
            delay_smoothing=self.delay_smoothing,
        )
        self._states[flow] = state
        # Completion-boundary signal plumbing: observers (and the load
        # engine) read the flow's cc state after it finishes.
        flow.cc = state
        if self._tick_event is None:
            self._last_tick = self.network.sim.now
            self._tick_event = self.network.sim.schedule(
                self.epoch_s, self._tick
            )

    def on_detach(self, flow: "FlowTransfer") -> None:
        self._states.pop(flow, None)

    # -- allocation ----------------------------------------------------------

    def _path_queue_delay(self, flow: "FlowTransfer") -> float:
        total = 0.0
        for direction in flow.directions:
            queue = direction.queue
            if queue is not None:
                total += queue.delay_s()
        return total

    def allocate(
        self,
        flows: List["FlowTransfer"],
        dirty_dirs: Optional[set],
    ) -> Dict["FlowTransfer", float]:
        network = self.network
        now = network.sim.now
        rate_caps = network._rate_caps
        # Demand per flow: window over queue-inclusive RTT, clamped by
        # any explicit rate_cap.  ``flows`` arrives sorted by flow_id.
        demands: Dict["FlowTransfer", float] = {}
        for flow in flows:
            state = self._states.get(flow)
            if state is None:
                demand = math.inf  # e.g. flow activated before attach
            else:
                demand = state.demand_rate(self._path_queue_delay(flow))
            cap = rate_caps.get(flow)
            if cap is not None and cap < demand:
                demand = cap
            demands[flow] = demand
        flow_paths = {flow: flow.directions for flow in flows}
        capacities: Dict["LinkDirection", float] = {}
        for flow in flows:
            for direction in flow.directions:
                capacities[direction] = direction.capacity
        rates = max_min_rates(flow_paths, capacities, demands,
                              validate=False)
        # Refresh queue inflows: settle each touched queue with the old
        # offered demand up to now, then set the new aggregate demand.
        # Accumulation follows flow_id order, so the float sums are
        # deterministic.
        offered: Dict["LinkDirection", float] = {}
        for flow in flows:
            demand = demands[flow]
            if not math.isfinite(demand):
                continue
            for direction in flow.directions:
                offered[direction] = offered.get(direction, 0.0) + demand
        touched: set = set(offered)
        if dirty_dirs:
            touched |= dirty_dirs
        for direction in sorted(touched, key=lambda d: d.name):
            queue = direction.queue
            if queue is None:
                continue
            queue.advance(now)
            queue.offered = offered.get(direction, 0.0)
        return rates

    # -- the epoch ticker ----------------------------------------------------

    def _tick(self) -> None:
        network = self.network
        self._tick_event = None
        # Fold any same-instant churn solve in first so the active set
        # and queue inflows are current before windows move.
        network._flush_solve()
        if not self._states:
            return  # every cc flow finished; the ticker re-arms on activate
        sim = network.sim
        now = sim.now
        dt = now - self._last_tick
        self._last_tick = now
        flows = sorted(self._states, key=lambda f: f.flow_id)
        # Close the epoch on every queue along any active path, then pull
        # the per-direction interval signals once.
        signals: Dict["LinkDirection", tuple] = {}
        directions: set = set()
        for flow in flows:
            directions.update(flow.directions)
        for direction in sorted(directions, key=lambda d: d.name):
            queue = direction.queue
            if queue is None:
                continue
            queue.advance(now)
            signals[direction] = queue.collect()
        # Window updates from the path-worst signals.
        if dt > 0.0:
            for flow in flows:
                state = self._states[flow]
                ecn_frac = 0.0
                loss = False
                queue_delay = 0.0
                for direction in flow.directions:
                    entry = signals.get(direction)
                    if entry is None:
                        continue
                    marked_s, observed_s, dropped = entry
                    if observed_s > 0.0:
                        frac = marked_s / observed_s
                        if frac > ecn_frac:
                            ecn_frac = frac
                    loss = loss or dropped
                    queue_delay += direction.queue.delay_s()
                state.update(now, dt, state.rtt_base + queue_delay,
                             ecn_frac, loss)
        # Re-allocate the whole active set under the new windows.
        network._epoch_reallocate(flows)
        self._tick_event = sim.schedule(self.epoch_s, self._tick)

    def describe(self) -> dict:
        return {
            "model": self.name,
            "protocol": self.protocol,
            "epoch_s": self.epoch_s,
            "queue_limit_bytes": self.queue_limit_bytes,
            "ecn_threshold_frac": self.ecn_threshold_frac,
        }


def queue_metrics(directions: Iterable["LinkDirection"]) -> dict:
    """Queue/ECN rollup over ``directions``, anchored on the worst queue.

    ``queue_depth_p99`` and ``ecn_mark_frac`` are the *worst direction's*
    time-weighted p99 occupancy and mark fraction -- the bottleneck story
    (the ToR in an incast), not a fleet average diluted by idle links.
    Drops are summed.  Directions without a queue model contribute
    nothing; with none at all every metric is 0 -- so under the default
    max-min model this reports exact zeros.
    """
    p99 = 0.0
    mark_frac = 0.0
    dropped_bytes = 0.0
    drop_events = 0
    peak = 0.0
    for direction in directions:
        queue = direction.queue
        if queue is None:
            continue
        if queue.depth_hist.total > 0:
            depth = queue.depth_hist.quantile(0.99)
            if depth > p99:
                p99 = depth
        frac = queue.mark_fraction()
        if frac > mark_frac:
            mark_frac = frac
        dropped_bytes += queue.dropped_bytes
        drop_events += queue.drop_events
        if queue.peak_bytes > peak:
            peak = queue.peak_bytes
    return {
        "queue_depth_p99": p99,
        "queue_depth_peak": peak,
        "ecn_mark_frac": mark_frac,
        "dropped_bytes": dropped_bytes,
        "drop_events": drop_events,
    }
