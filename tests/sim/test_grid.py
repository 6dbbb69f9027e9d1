"""The integer scheduling grid and the calendar queue's pop order.

Two properties carry the whole bit-identity argument of the integer-tick
engine, so they get direct property tests here:

* ``tick_of``/``time_of`` are exact inverses for every tick below the
  exactness bound (2**52 ticks), and ``tick_of`` *rejects* any float
  that is not a grid multiple — silently moving a timestamp would
  invalidate every golden;
* the lazy calendar queue pops events in exactly the ``(tick, eid)``
  order of the binary heap it replaced, including same-tick cascades
  scheduled mid-drain, on drawn event trees and on the three delay
  profiles the engine benchmark streams.
"""

import random
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.engine import (
    EXACT_TICK_LIMIT,
    EXACT_TIME_LIMIT,
    Infinity,
    NEVER_TICK,
    _TICK,
    quantize,
    tick_of,
    time_of,
)


class TestGridRoundTrip:
    @given(st.integers(min_value=0, max_value=EXACT_TICK_LIMIT))
    @settings(max_examples=200)
    def test_tick_time_round_trip_is_exact(self, tick):
        assert tick_of(time_of(tick)) == tick

    @given(st.integers(min_value=0, max_value=EXACT_TICK_LIMIT))
    @settings(max_examples=200)
    def test_on_grid_floats_are_accepted(self, tick):
        seconds = tick * _TICK
        assert time_of(tick) == seconds
        assert tick_of(seconds) == tick

    @given(st.floats(min_value=1e-12, max_value=EXACT_TIME_LIMIT,
                     allow_nan=False))
    @settings(max_examples=200)
    def test_quantized_floats_round_trip(self, seconds):
        snapped = quantize(seconds)
        assert time_of(tick_of(snapped)) == snapped

    def test_off_grid_float_raises(self):
        # 1/3 s has an infinite binary expansion: not a grid multiple.
        with pytest.raises(ValueError, match="scheduling grid"):
            tick_of(1.0 / 3.0)

    @given(st.floats(min_value=1e-12, max_value=1e3, allow_nan=False))
    @settings(max_examples=200)
    def test_every_off_grid_float_raises(self, seconds):
        if quantize(seconds) == seconds:
            assert tick_of(seconds) == round(seconds / _TICK)
        else:
            with pytest.raises(ValueError, match="scheduling grid"):
                tick_of(seconds)

    def test_infinity_maps_to_never(self):
        assert tick_of(Infinity) == NEVER_TICK
        assert time_of(NEVER_TICK) == Infinity
        assert time_of(NEVER_TICK + 12345) == Infinity

    def test_exactness_bound_is_consistent(self):
        assert EXACT_TICK_LIMIT * _TICK == EXACT_TIME_LIMIT


class TestNegativeDelays:
    def test_timeout_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-1.0)

    def test_schedule_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.schedule(env.event(), delay=-0.5)

    def test_past_tick_deadline_rejected(self):
        env = Environment(initial_time=1.0)
        with pytest.raises(ValueError, match="in the past"):
            env.timeout_at_tick(env.now_tick - 1)


def _children(seed, eid):
    """The events an event spawns when it fires — deterministic per eid,
    mixing zero (same-tick cascade), short and wide tick delays."""
    rng = random.Random(seed * 1000003 + eid)
    out = []
    for _ in range(rng.randrange(0, 3)):
        r = rng.random()
        if r < 0.4:
            out.append(0)
        elif r < 0.9:
            out.append(rng.randrange(1, 1 << 16))
        else:
            out.append(rng.randrange(1, 1 << 40))
    return out


def _heap_reference(seed, roots):
    """Pop order of the old binary heap keyed ``(tick, eid)``."""
    heap = []
    next_eid = 0
    for delay in roots:
        heappush(heap, (delay, next_eid))
        next_eid += 1
    order = []
    while heap and len(order) < 10_000:
        tick, eid = heappop(heap)
        order.append((tick, eid))
        for delay in _children(seed, eid):
            heappush(heap, (tick + delay, next_eid))
            next_eid += 1
    return order


def _calendar_run(seed, roots):
    """The same workload through the real engine's calendar queue."""
    env = Environment()
    order = []
    state = {"next_eid": len(roots)}

    def fire(eid):
        def callback(_ev):
            order.append((env.now_tick, eid))
            for delay in _children(seed, eid):
                child = state["next_eid"]
                state["next_eid"] = child + 1
                ev = env.timeout_at_tick(env.now_tick + delay)
                ev.callbacks.append(fire(child))
        return callback

    for eid, delay in enumerate(roots):
        ev = env.timeout_at_tick(delay)
        ev.callbacks.append(fire(eid))
    while len(order) < 10_000:
        try:
            env.step()
        except Exception:
            break
    return order


#: the delay profiles ``benchmarks/bench_study.py --engine`` streams: over
#: half of an engine's events land on the current tick (succeed()
#: cascades, process kick-offs, resource grants), the rest short or wide
ENGINE_STREAMS = {
    "cascade": lambda rng: 0 if rng.random() < 0.55 else rng.randrange(1, 1 << 20),
    "uniform": lambda rng: rng.randrange(1, 1 << 20),
    "wide": lambda rng: rng.randrange(1, 1 << 44),
}


class TestCalendarQueueEquivalence:
    @pytest.mark.parametrize("profile", sorted(ENGINE_STREAMS))
    def test_engine_streams_pop_in_heap_order(self, profile):
        # 1,000 events stay pending while 20,000 pops each push the next
        # drawn delay, through the real Environment and through a
        # (tick, eid) heap
        rng = random.Random(1234)
        draw = ENGINE_STREAMS[profile]
        pending = [draw(rng) for _ in range(1000)]
        delays = [draw(rng) for _ in range(20_000)]

        heap = [(tick, eid) for eid, tick in enumerate(pending)]
        heapify(heap)
        expected = []
        for i, delay in enumerate(delays):
            tick, eid = heappop(heap)
            expected.append((tick, eid))
            heappush(heap, (tick + delay, len(pending) + i))

        env = Environment()
        popped = []

        def fire(eid):
            def callback(_ev):
                i = len(popped)
                popped.append((env.now_tick, eid))
                if i < len(delays):
                    ev = env.timeout_at_tick(env.now_tick + delays[i])
                    ev.callbacks.append(fire(len(pending) + i))
            return callback

        for eid, tick in enumerate(pending):
            env.timeout_at_tick(tick).callbacks.append(fire(eid))
        while len(popped) < len(delays):
            env.step()
        assert popped == expected

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pop_order_matches_heap(self, seed):
        rng = random.Random(seed)
        roots = [rng.randrange(0, 1 << 16) for _ in range(rng.randrange(1, 30))]
        assert _calendar_run(seed, roots) == _heap_reference(seed, roots)

    def test_same_tick_is_fifo(self):
        env = Environment()
        fired = []
        for i in range(5):
            ev = env.timeout_at_tick(100)
            ev.callbacks.append(lambda _ev, i=i: fired.append(i))
        env.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_cascade_lands_after_queued_same_tick_events(self):
        # A zero-delay event scheduled mid-drain fires after the events
        # already queued at that tick (larger eid = later in FIFO).
        env = Environment()
        fired = []
        first = env.timeout_at_tick(7)

        def spawn(_ev):
            fired.append("first")
            child = env.timeout_at_tick(env.now_tick)
            child.callbacks.append(lambda _e: fired.append("cascade"))

        first.callbacks.append(spawn)
        second = env.timeout_at_tick(7)
        second.callbacks.append(lambda _e: fired.append("second"))
        env.run()
        assert fired == ["first", "second", "cascade"]
