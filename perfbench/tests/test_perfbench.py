"""The benchmark's own arithmetic: self time, the tail percentile rule, failure
counting and the reference-speed scale.  Needs numpy, not cosetlab.

    python3 -m pytest -q perfbench/tests
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from reference import scale  # noqa: E402
from tracer import (  # noqa: E402
    Span, Tracer, count_failures, covered_length, p_hi, self_times)


def span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, None)


class TestSelfTime:
    def test_leaf_keeps_its_duration(self):
        assert self_times([span(0, "a", 1.0, 3.5)]) == {0: 2.5}

    def test_children_are_subtracted(self):
        spans = [span(0, "root", 0.0, 10.0), span(1, "x", 1.0, 3.0, 0),
                 span(2, "y", 4.0, 8.0, 0), span(3, "z", 5.0, 6.0, 2)]
        st = self_times(spans)
        assert st == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})
        assert sum(st.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == 6.0

    def test_children_are_clipped_to_the_parent(self):
        assert covered_length([(-1.0, 2.0), (9.0, 12.0), (20.0, 30.0)], 0.0, 10.0) == 3.0

    def test_tracer_nesting_sets_parents_and_sample(self):
        tracer = Tracer()

        def inner():
            return 7

        def outer():
            tracer.sample = 3
            return traced_inner() + 1

        traced_inner = tracer.wrap("inner", inner)
        assert tracer.wrap("outer", outer)() == 8
        o, i = tracer.spans
        assert (o.name, o.parent, o.sample) == ("outer", None, None)
        assert (i.name, i.parent, i.sample) == ("inner", o.id, 3)
        st = self_times(tracer.spans)
        assert st[o.id] + st[i.id] == pytest.approx(o.end - o.start)

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap("boom", boom)()
        (s,) = tracer.spans
        assert s.end >= s.start and not tracer._stack


class TestTailPercentile:
    def test_needs_ten_values_beyond(self):
        assert p_hi(list(range(19))) is None
        pct, value, beyond = p_hi(list(range(1, 21)))
        assert (pct, value, beyond) == (50.0, 10, 10)

    def test_picks_highest_qualifying_percentile(self):
        values = list(range(1, 1001))
        assert p_hi(values) == (99.0, 990, 10)
        assert p_hi(values[:232]) == (95.0, 221, 11)

    def test_order_of_values_does_not_matter(self):
        values = [5.0, 1.0, 4.0] * 40
        assert p_hi(values) == p_hi(sorted(values))


@dataclass
class Outcome:
    ops: int
    ok: bool


class TestFailureCounting:
    def test_failed_call_fails_all_its_operations(self):
        outcomes = [Outcome(400, True), Outcome(120, False), Outcome(90, True)]
        assert count_failures(outcomes) == (610, 120)

    def test_n1024_probe(self):
        # the symmetric N=1024 probe: one CLI call of 2 samples exiting 2
        assert count_failures([Outcome(2, False)]) == (2, 2)
        assert count_failures([Outcome(2, True)]) == (2, 0)

    def test_empty(self):
        assert count_failures([]) == (0, 0)


class TestReferenceScale:
    def test_nominal_host_keeps_the_time(self):
        assert scale(0.1, 0.1, ref_s=0.1) == pytest.approx(1.0)

    def test_slow_host_is_scaled_down(self):
        # the kernel took 0.15 s and 0.25 s around the call: the host ran at half speed
        assert 3.0 * scale(0.15, 0.25, ref_s=0.1) == pytest.approx(1.5)

    def test_fast_host_is_scaled_up(self):
        assert scale(0.08, 0.08, ref_s=0.1) == pytest.approx(1.25)
