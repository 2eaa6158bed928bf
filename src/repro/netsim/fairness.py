"""Max-min fair bandwidth allocation by progressive filling.

Given a set of flows, each traversing a list of capacitated resources
(directed link halves) and optionally rate-capped (e.g. by the sender's
NIC), compute the max-min fair rate vector: rates rise together until a
resource saturates; flows through a saturated resource freeze at their
current rate; the rest keep rising.

This is the textbook fluid model for TCP-dominated data-centre traffic
and the fidelity level at which the paper's congestion arguments operate.

The solver decomposes the instance into *bottleneck components* --
connected components of the flow/resource sharing graph -- and fills each
component independently.  The max-min allocation of disjoint components
is exactly the union of the per-component allocations (every flow's
bottleneck resource is inside its own component), so decomposition
changes nothing about the answer while making the incremental fabric
solver (:mod:`repro.netsim.fabric`) possible: re-solving one component
with this function is bit-identical to the slice of a full solve.

Determinism: all iteration happens in the insertion order of
``flow_paths`` (and path order within each flow), never over sets, so the
same instance always performs the same arithmetic in the same order.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError

try:  # numpy accelerates big components; the solver works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

FlowId = Hashable
ResourceId = Hashable

_EPSILON = 1e-9

# Components below this many flows fill with the scalar loop: the numpy
# path's array setup costs more than it saves on typical churn-sized
# components (profiles show the mean component is ~10 flows), and only
# wide incasts/elephant pile-ups clear this bar.  Both paths perform the
# identical IEEE arithmetic, so crossing the threshold never changes a
# rate (pinned by tests/test_fairness_vectorized.py).
VECTORIZE_MIN_FLOWS = 64


def connected_components(
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
) -> List[List[FlowId]]:
    """Group flows into components that share resources (transitively).

    Flows with empty paths form singleton components.  Component order and
    the flow order within each component follow ``flow_paths`` insertion
    order, so the decomposition is deterministic.
    """
    resource_owner: Dict[ResourceId, int] = {}   # resource -> component idx
    parent: List[int] = []                        # union-find over components

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    flow_component: List[int] = []
    for flow, path in flow_paths.items():
        idx = len(parent)
        parent.append(idx)
        flow_component.append(idx)
        for resource in path:
            owner = resource_owner.get(resource)
            if owner is None:
                resource_owner[resource] = idx
            else:
                a, b = find(idx), find(owner)
                if a != b:
                    # Union toward the *older* root so component identity
                    # (and thus output order) is stable.
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = b

    groups: Dict[int, List[FlowId]] = {}
    for (flow, _), idx in zip(flow_paths.items(), flow_component):
        groups.setdefault(find(idx), []).append(flow)
    # Roots are visited in first-flow order because dict preserves insertion.
    return list(groups.values())


def single_flow_rate(
    path: Sequence[ResourceId],
    capacities: Mapping[ResourceId, float],
    cap: Optional[float],
) -> float:
    """The max-min rate of a flow alone in its component, in closed form.

    Bit-identical to :func:`_fill_component` over the one flow: its
    first round raises the flow by the smallest of each resource's
    capacity over the flow's crossings of it and the cap -- the same
    divisions and ``min`` calls in the same order -- and then freezes it,
    whether a resource saturated, the cap was reached, or neither (the
    numerical-safety freeze).  A cap at or below ``_EPSILON`` never joins
    the fill, so the rate stays 0.
    """
    if cap is not None and not cap > _EPSILON:
        return 0.0
    crossing: Dict[ResourceId, int] = {}
    for res in path:
        crossing[res] = crossing.get(res, 0) + 1
    increment = math.inf
    for res, count in crossing.items():
        increment = min(increment, float(capacities[res]) / count)
    if cap is not None:
        increment = min(increment, cap - 0.0)  # the fill's cap - rate, rate 0.0
    if not math.isfinite(increment):
        return math.inf
    return 0.0 + max(increment, 0.0)  # the fill's rate += increment


def _fill_component(
    flows: List[FlowId],
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
    rate_caps: Mapping[FlowId, float],
    rates: Dict[FlowId, float],
) -> None:
    """Progressive filling over one component; writes into ``rates``."""
    active: List[FlowId] = [
        flow for flow in flows if rate_caps.get(flow, math.inf) > _EPSILON
    ]
    remaining: Dict[ResourceId, float] = {}
    crossing: Dict[ResourceId, int] = {}
    for flow in active:
        for res in flow_paths[flow]:
            if res not in remaining:
                remaining[res] = float(capacities[res])
                crossing[res] = 0
            crossing[res] += 1

    if _np is not None and len(active) >= VECTORIZE_MIN_FLOWS:
        _fill_component_vectorized(active, flow_paths, remaining, crossing,
                                   rate_caps, rates)
        return

    while active:
        # The next rate increment is the smallest of: each loaded
        # resource's equal share of its remaining capacity, and each
        # active flow's distance to its cap.
        increment = math.inf
        for res, count in crossing.items():
            if count > 0:
                increment = min(increment, remaining[res] / count)
        for flow in active:
            cap = rate_caps.get(flow)
            if cap is not None:
                increment = min(increment, cap - rates[flow])
        if not math.isfinite(increment):
            # Active flows with no constrained resources and no cap:
            # unbounded in the model; give them "infinite" rate.
            for flow in active:
                rates[flow] = math.inf
            break

        increment = max(increment, 0.0)
        for flow in active:
            rates[flow] += increment
            for res in flow_paths[flow]:
                remaining[res] -= increment

        # Freeze flows that hit a saturated resource or their own cap.
        survivors: List[FlowId] = []
        frozen: List[FlowId] = []
        for flow in active:
            cap = rate_caps.get(flow)
            if cap is not None and rates[flow] >= cap - _EPSILON:
                frozen.append(flow)
                continue
            if any(remaining[res] <= _EPSILON for res in flow_paths[flow]):
                frozen.append(flow)
            else:
                survivors.append(flow)
        if not frozen:
            # Numerical safety: freeze everything rather than loop forever.
            frozen, survivors = survivors, []
        for flow in frozen:
            for res in flow_paths[flow]:
                crossing[res] -= 1
        active = survivors


def _fill_component_vectorized(
    active: List[FlowId],
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    remaining: Mapping[ResourceId, float],
    crossing: Mapping[ResourceId, int],
    rate_caps: Mapping[FlowId, float],
    rates: Dict[FlowId, float],
) -> None:
    """Numpy water-fill: byte-identical to the scalar loop, faster wide.

    Every operation maps 1:1 onto the scalar path's IEEE arithmetic:

    * the increment is an (exact, order-independent) ``min`` over the
      same per-resource divisions and per-flow cap distances;
    * rate bumps are the same single addition per flow per round;
    * ``np.subtract.at`` performs the same *sequence* of subtractions on
      each resource slot (repeated subtraction of one increment value is
      a chain on that slot alone, so interleaving cannot change it).

    Hence rates out of this path equal the scalar path's bit-for-bit --
    the gate at :data:`VECTORIZE_MIN_FLOWS` is purely a speed decision.
    """
    res_index = {res: i for i, res in enumerate(remaining)}
    rem = _np.array([remaining[res] for res in remaining], dtype=_np.float64)
    cross = _np.array([crossing[res] for res in crossing], dtype=_np.float64)
    paths = [
        _np.array([res_index[res] for res in flow_paths[flow]],
                  dtype=_np.intp)
        for flow in active
    ]
    caps = _np.array(
        [rate_caps.get(flow, _np.inf) for flow in active], dtype=_np.float64
    )
    flow_rates = _np.zeros(len(active), dtype=_np.float64)
    alive = _np.ones(len(active), dtype=bool)
    # CSR-ish layout over ALL initially-active flows for the per-flow
    # "crosses a saturated resource?" reduction each round.
    all_idx = _np.concatenate(paths) if paths else _np.empty(0, _np.intp)
    ptr = _np.zeros(len(active) + 1, dtype=_np.intp)
    _np.cumsum([len(p) for p in paths], out=ptr[1:])

    while alive.any():
        loaded = cross > 0
        increment = _np.inf
        if loaded.any():
            increment = (rem[loaded] / cross[loaded]).min()
        cap_gap = caps[alive] - flow_rates[alive]
        if cap_gap.size:
            increment = min(increment, cap_gap.min())
        if not math.isfinite(increment):
            for i in _np.nonzero(alive)[0]:
                rates[active[i]] = math.inf
            return
        increment = max(float(increment), 0.0)

        flow_rates[alive] += increment
        alive_idx = _np.nonzero(alive)[0]
        touched = _np.concatenate([paths[i] for i in alive_idx]) \
            if alive_idx.size else _np.empty(0, _np.intp)
        _np.subtract.at(rem, touched, increment)

        saturated = rem <= _EPSILON
        hits = _np.zeros(len(active), dtype=_np.float64)
        if all_idx.size:
            # reduceat mishandles zero-length segments (an empty-path
            # flow), so substitute index 0 there and mask afterwards.
            lengths = _np.diff(ptr)
            seg_starts = _np.where(lengths > 0, ptr[:-1], 0)
            per_flow = _np.add.reduceat(
                saturated[all_idx].astype(_np.float64), seg_starts)
            hits = _np.where(lengths > 0, per_flow, 0.0)
        at_cap = _np.isfinite(caps) & (flow_rates >= caps - _EPSILON)
        frozen = alive & (at_cap | (hits > 0))
        if not frozen.any():
            # Numerical safety: freeze everything rather than loop forever.
            frozen = alive.copy()
        frozen_idx = _np.nonzero(frozen)[0]
        if frozen_idx.size:
            _np.subtract.at(
                cross,
                _np.concatenate([paths[i] for i in frozen_idx]),
                1.0,
            )
        alive &= ~frozen

    for i, flow in enumerate(active):
        rates[flow] = float(flow_rates[i])


def max_min_rates(
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
    rate_caps: Mapping[FlowId, float] | None = None,
    validate: bool = True,
) -> Dict[FlowId, float]:
    """Compute max-min fair rates.

    ``flow_paths`` maps each flow to the resources it traverses (a flow
    with an empty path is only limited by its rate cap, or unbounded).
    ``capacities`` gives each resource's capacity; ``rate_caps`` optionally
    caps individual flows.  Returns the rate for every flow.

    Raises :class:`~repro.errors.ConfigurationError` (a ``ValueError``) on
    a flow referencing an unknown resource or on non-positive capacities.

    ``rate_caps`` is consulted read-only (``.get`` per flow, never
    iterated), so callers may pass a live superset -- the fabric hands
    in its incrementally-maintained cap dict covering *all* active flows,
    and the cc rate model hands in per-flow window demands -- without
    paying a defensive copy per solve.  Entries for flows outside
    ``flow_paths`` are never consulted, so the answer only depends on the
    caps of the flows being solved.
    """
    if rate_caps is None:
        rate_caps = {}
    if validate:
        # The fabric's solver skips this (validate=False): its inputs are
        # built from link state it maintains itself, and re-walking every
        # path per solve is measurable at 10^5 solves per run.
        for resource, capacity in capacities.items():
            if capacity <= 0:
                raise ConfigurationError(
                    f"resource {resource!r} capacity must be positive"
                )
        for flow, path in flow_paths.items():
            for resource in path:
                if resource not in capacities:
                    raise ConfigurationError(
                        f"flow {flow!r} uses unknown resource {resource!r}"
                    )
            cap = rate_caps.get(flow)
            if cap is not None and cap < 0:
                raise ConfigurationError(f"flow {flow!r} has negative rate cap")

    rates: Dict[FlowId, float] = {flow: 0.0 for flow in flow_paths}
    for component in connected_components(flow_paths):
        _fill_component(component, flow_paths, capacities, rate_caps, rates)
    return rates


def solve_subset(
    flows: Iterable[FlowId],
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
    rate_caps: Mapping[FlowId, float] | None = None,
    validate: bool = True,
) -> Dict[FlowId, float]:
    """Solve max-min rates for a subset of flows known to be closed.

    ``flows`` must be a union of whole components (every flow sharing a
    resource with a member is itself a member); the fabric's dirty-set
    tracker guarantees this.  Equivalent to slicing a full
    :func:`max_min_rates` solve down to ``flows`` -- bit-for-bit, since
    the full solve fills each component independently anyway.
    """
    subset = {flow: flow_paths[flow] for flow in flows}
    return max_min_rates(subset, capacities, rate_caps, validate=validate)
