"""Bit-identity of the fabric's one-flow solve against the progressive fill.

Most of the fabric's churn solves cover one flow alone on its path, so
:class:`repro.netsim.cc.MaxMinRateModel` answers them in closed form
(:func:`repro.netsim.fairness.single_flow_rate`) instead of running the
component machinery.  The shortcut must produce the very float the
progressive fill produces -- not a close one -- or fingerprints drift.
These properties compare bit patterns, so ``-0.0`` vs ``0.0`` and any
last-ulp difference fail.
"""

import math
import struct

from hypothesis import given, settings, strategies as st

from repro.netsim.fabric import FlowState, Network
from repro.netsim.fairness import _EPSILON, max_min_rates, single_flow_rate
from repro.netsim.topology import single_switch
from repro.sim import Simulator

RESOURCES = ["r0", "r1", "r2", "r3"]
HOSTS = ["h0", "h1", "h2", "h3"]


def bits(value):
    return struct.pack("<d", value)


capacities_strategy = st.fixed_dictionaries({
    name: st.one_of(
        st.integers(1, 10 ** 9),
        st.floats(1e-6, 1e12, allow_nan=False, allow_infinity=False),
        st.sampled_from([1.0, 12.5e6, 125e6, 1.25e9]),
    )
    for name in RESOURCES
})
cap_strategy = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(0.0, _EPSILON),
    st.just(_EPSILON),
    st.floats(_EPSILON, 1e12, allow_nan=False, allow_infinity=False),
    st.sampled_from([12.5e6, 125e6]),
    st.just(math.inf),
)
# Repeats allowed: a resource crossed twice counts twice.
path_strategy = st.lists(st.sampled_from(RESOURCES), max_size=6)


@given(path=path_strategy, capacities=capacities_strategy, cap=cap_strategy)
@settings(max_examples=400, deadline=None)
def test_single_flow_rate_is_the_progressive_fill(path, capacities, cap):
    rate_caps = {} if cap is None else {"f": cap}
    expected = max_min_rates({"f": path}, capacities, rate_caps)["f"]
    assert bits(single_flow_rate(path, capacities, cap)) == bits(expected)


def mixed_capacity_network(fractions):
    """Four hosts on one switch, each access link at its own capacity."""
    sim = Simulator()
    topology = single_switch(HOSTS, bandwidth=125e6, latency=1e-4)
    network = Network(sim, topology)
    for host, fraction in zip(HOSTS, fractions):
        if fraction < 1.0:
            network.degrade_link(host, "sw0", bandwidth_frac=fraction)
    return sim, network


def global_solve(network):
    """The progressive fill over every active flow at once."""
    flows = network.active_flows()
    capacities = {d: d.capacity for flow in flows for d in flow.directions}
    rate_caps = {f: f.rate_cap for f in flows if f.rate_cap is not None}
    return max_min_rates({f: f.directions for f in flows}, capacities, rate_caps)


fractions_strategy = st.lists(
    st.one_of(st.just(1.0), st.floats(1e-3, 1.0)), min_size=4, max_size=4)
flow_strategy = st.tuples(
    st.sampled_from(HOSTS), st.sampled_from(HOSTS),
    st.floats(1.0, 1e8),                     # bytes
    cap_strategy,
    st.floats(0.0, 2.0),                     # start time
)


@given(fractions=fractions_strategy,
       flows=st.lists(flow_strategy, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_churn_solves_equal_the_global_progressive_fill(fractions, flows):
    """Every solve -- one-flow shortcut or component fill -- is bitwise
    the slice of a from-scratch progressive fill over all active flows."""
    sim, network = mixed_capacity_network(fractions)
    for src, dst, size, cap, start in flows:
        sim.schedule(start, network.transfer, src, dst, size, None, cap)
    while sim.step():
        network.sync()
        for flow, want in global_solve(network).items():
            assert bits(flow.rate) == bits(want), (sim.now, flow)


@given(bandwidth=st.floats(1.0, 1e10), fraction=st.floats(1e-3, 1.0),
       cap=cap_strategy)
@settings(max_examples=100, deadline=None)
def test_maxmin_model_one_flow_shortcut(bandwidth, fraction, cap):
    sim = Simulator()
    network = Network(sim, single_switch(["a", "b"], bandwidth=bandwidth,
                                         latency=0.0))
    network.degrade_link("b", "sw0", bandwidth_frac=fraction)
    flow = network.transfer("a", "b", 1e30, rate_cap=cap)
    sim.run(until=0.0)
    assert flow.state is FlowState.ACTIVE
    capacities = {d: d.capacity for d in flow.directions}
    rate_caps = {} if cap is None else {flow: cap}
    want = max_min_rates({flow: flow.directions}, capacities, rate_caps)[flow]
    assert bits(network.rate_model.allocate([flow], None)[flow]) == bits(want)
    assert bits(flow.rate) == bits(want)
