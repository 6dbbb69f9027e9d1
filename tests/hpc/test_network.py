"""Unit tests for bandwidth pipes, links and N-to-1 serialization."""

import pytest

from repro.hpc import BandwidthPipe, Link, MB
from repro.sim import Environment
from repro.sim.engine import tick_of


def test_pipe_rate_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthPipe(env, 0)


def test_single_transfer_time():
    env = Environment()
    pipe = BandwidthPipe(env, rate=100.0)

    def proc(env):
        yield env.process(pipe.transmit(50))

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.5)
    assert pipe.bytes_moved == 50


def test_concurrent_transfers_serialize():
    """Two messages through one pipe take twice as long as one."""
    env = Environment()
    pipe = BandwidthPipe(env, rate=100.0)
    finish = []

    def proc(env):
        yield env.process(pipe.transmit(100))
        finish.append(env.now)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert finish == [pytest.approx(1.0), pytest.approx(2.0)]


def test_n_to_1_scales_linearly():
    """The Finding-3 mechanism: N senders into one pipe => N x time."""
    def total_time(n):
        env = Environment()
        pipe = BandwidthPipe(env, rate=1000.0)

        def sender(env):
            yield env.process(pipe.transmit(1000))

        for _ in range(n):
            env.process(sender(env))
        env.run()
        return env.now

    assert total_time(4) == pytest.approx(4 * total_time(1))


def test_link_crosses_both_pipes_plus_latency():
    env = Environment()
    src = BandwidthPipe(env, rate=100.0)
    dst = BandwidthPipe(env, rate=50.0)
    link = Link(env, src, dst, latency=0.25)

    def proc(env):
        yield env.process(link.send(100))

    env.process(proc(env))
    env.run()
    # 0.25 latency + 1.0 through src + 2.0 through dst
    assert env.now == pytest.approx(3.25)


class CountingEnvironment(Environment):
    """Counts processed events and spawned processes."""

    def __init__(self):
        super().__init__()
        self.steps = 0
        self.processes = 0

    def step(self):
        self.steps += 1
        super().step()

    def process(self, generator):
        self.processes += 1
        return super().process(generator)


@pytest.mark.parametrize("frozen", [False, True])
def test_link_send_sleeps_head_then_crosses_both_pipes(frozen):
    env = CountingEnvironment()
    src = BandwidthPipe(env, rate=100.0)
    dst = BandwidthPipe(env, rate=50.0)
    if frozen:
        src.freeze_rate()
        dst.freeze_rate()
    link = Link(env, src, dst, latency=0.25)
    done = []

    def sender(env):
        yield from link.send(100, head_ticks=tick_of(0.5))
        done.append(env.now)

    env.process(sender(env))
    env.run(until=10.0)
    # 0.5 head + 0.25 latency + 1.0 through src + 2.0 through dst
    assert done == [pytest.approx(3.75)]
    assert src.bytes_moved == dst.bytes_moved == 100
    if frozen:
        # alone at its ticks, a frozen send is three events (plus the
        # caller's kick-off and completion) and spawns no process
        assert (env.steps, env.processes) == (5, 1)


def test_intra_node_link_single_crossing():
    env = Environment()
    bus = BandwidthPipe(env, rate=100.0)
    link = Link(env, bus, bus, latency=0.0)

    def proc(env):
        yield env.process(link.send(100))

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(1.0)


def test_overhead_factor_inflates_bytes():
    env = Environment()
    src = BandwidthPipe(env, rate=100.0)
    dst = BandwidthPipe(env, rate=100.0)
    link = Link(env, src, dst, latency=0.0, overhead_factor=2.0)

    def proc(env):
        yield env.process(link.send(100))

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(4.0)


def test_overhead_factor_below_one_rejected():
    env = Environment()
    pipe = BandwidthPipe(env, rate=1.0)
    with pytest.raises(ValueError):
        Link(env, pipe, pipe, latency=0, overhead_factor=0.5)


def test_negative_transfer_rejected():
    env = Environment()
    pipe = BandwidthPipe(env, rate=1.0)

    def proc(env):
        yield env.process(pipe.transmit(-1))

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()
