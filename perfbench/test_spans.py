"""Self-time arithmetic of the benchmark's span recorder.

Run with ``python3 -m pytest perfbench``.
"""

import time

import numpy as np
import pytest

from spans import HAND_BUILT, NO_PARENT, SpanRecorder, check_accounting, selfcheck, self_times


def test_hand_built_self_times():
    _, parents, starts, ends, expected = zip(*HAND_BUILT)
    assert self_times(parents, starts, ends).tolist() == pytest.approx(list(expected))
    selfcheck()


def test_self_times_sum_to_root_durations():
    _, parents, starts, ends, _ = zip(*HAND_BUILT)
    assert float(np.sum(self_times(parents, starts, ends))) == pytest.approx(12.0)


def test_child_outside_parent_is_rejected():
    with pytest.raises(ValueError, match="not nested"):
        check_accounting([NO_PARENT, 0], [0.0, 1.0], [2.0, 3.0])


def test_overlapping_children_are_rejected():
    # Two children covering 3 s of a 2 s parent would double-count time.
    with pytest.raises(ValueError, match="cover more"):
        check_accounting([NO_PARENT, 0, 0], [0.0, 0.0, 0.5], [2.0, 1.5, 2.0])


def test_recorder_nests_wrapped_calls():
    recorder = SpanRecorder("test")

    def inner():
        time.sleep(0.002)

    def outer():
        timed_inner()
        time.sleep(0.002)

    timed_inner = recorder.timed(inner, "inner")
    recorder.timed(outer, "outer")()
    names, parents, starts, ends = recorder.columns()
    assert [recorder.names[n] for n in names] == ["outer", "inner"]
    assert parents.tolist() == [NO_PARENT, 0]
    check_accounting(parents, starts, ends)
    outer_self, inner_self = self_times(parents, starts, ends)
    assert outer_self == pytest.approx((ends[0] - starts[0]) - (ends[1] - starts[1]))
    assert inner_self >= 0.002


def test_recorder_refuses_generator_functions():
    def steps():
        yield 1

    with pytest.raises(TypeError):
        SpanRecorder("test").timed(steps, "steps")
