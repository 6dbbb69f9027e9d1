"""Unit tests for the DART substrate, EVPath stones and the lock service."""

import pytest

from repro.hpc import Cluster, MB, TITAN
from repro.sim import Environment
from repro.staging import StagingConfig, VersionGate
from repro.staging.dart import DartError, DartInstance
from repro.staging.evpath import EvpathError, EvpathManager
from repro.staging.locks import LockError, LockService, RwLock
from repro.transport import Endpoint, RdmaTransport, ShmTransport


def setup():
    env = Environment()
    cluster = Cluster(env, TITAN)
    transport = RdmaTransport(cluster, "ugni")
    return env, cluster, transport


class TestDart:
    def test_directory_registration(self):
        env, cluster, transport = setup()
        dart = DartInstance(env, transport)
        server = Endpoint(cluster.node(0), "srv0")
        dart.add_server(0, server)
        assert dart.num_servers == 1
        assert dart.server(0).endpoint is server
        with pytest.raises(DartError):
            dart.add_server(0, server)
        with pytest.raises(DartError):
            dart.server(99)

    def test_client_registration_handshake(self):
        env, cluster, transport = setup()
        dart = DartInstance(env, transport)
        dart.add_server(0, Endpoint(cluster.node(0), "srv0"))
        client = Endpoint(cluster.node(1), "client")

        def proc(env):
            yield from dart.register_client(client, 0)

        env.process(proc(env))
        env.run()
        assert dart.is_registered(client)
        assert dart.server(0).registered_clients == 1
        assert dart.rpcs == 1
        assert env.now > 0

    def test_bulk_put_get_accounting(self):
        env, cluster, transport = setup()
        dart = DartInstance(env, transport)
        dart.add_server(0, Endpoint(cluster.node(0), "srv0"))
        client = Endpoint(cluster.node(1), "client")

        def proc(env):
            yield from dart.bulk_put(client, 0, 10 * MB)
            yield from dart.bulk_get(client, 0, 5 * MB)

        env.process(proc(env))
        env.run()
        assert dart.bulk_ops == 2
        assert dart.bulk_bytes == 15 * MB

    def test_peer_move(self):
        env, cluster, transport = setup()
        dart = DartInstance(env, transport)
        a = Endpoint(cluster.node(0), "a")
        b = Endpoint(cluster.node(1), "b")

        def proc(env):
            yield from dart.peer_move(a, b, 1 * MB)

        env.process(proc(env))
        env.run()
        assert dart.bulk_bytes == 1 * MB


class TestEvpath:
    def test_stone_graph_delivery(self):
        env, cluster, transport = setup()
        manager = EvpathManager(env, transport)
        src = manager.create_stone(Endpoint(cluster.node(0), "pub"))
        seen = []
        sink = manager.create_stone(Endpoint(cluster.node(1), "sub"))
        sink.set_handler(seen.append)
        src.link(sink)

        def proc(env):
            yield from src.submit({"version": 3}, nbytes=128)

        env.process(proc(env))
        env.run()
        assert seen == [{"version": 3}]
        assert sink.events_in == 1
        assert env.now > 0  # the bridge paid network time

    def test_fanout_to_multiple_sinks(self):
        env, cluster, transport = setup()
        manager = EvpathManager(env, transport)
        src = manager.create_stone(Endpoint(cluster.node(0), "pub"))
        counters = []
        for i in range(3):
            sink = manager.create_stone(Endpoint(cluster.node(i + 1), f"sub{i}"))
            sink.set_handler(lambda e, i=i: counters.append(i))
            src.link(sink)

        def proc(env):
            yield from src.submit("ready")

        env.process(proc(env))
        env.run()
        assert sorted(counters) == [0, 1, 2]

    def test_self_link_rejected(self):
        env, cluster, transport = setup()
        manager = EvpathManager(env, transport)
        stone = manager.create_stone(Endpoint(cluster.node(0), "x"))
        with pytest.raises(EvpathError):
            stone.link(stone)

    def test_unknown_stone(self):
        env, cluster, transport = setup()
        manager = EvpathManager(env, transport)
        with pytest.raises(EvpathError):
            manager.stone(5)

    def test_shm_dataplane_uses_tcp_control_channel(self):
        env, cluster, _ = setup()
        manager = EvpathManager(env, ShmTransport(cluster))
        src = manager.create_stone(Endpoint(cluster.node(0), "pub"))
        sink = manager.create_stone(Endpoint(cluster.node(1), "sub"))
        sink.set_handler(lambda e: None)
        src.link(sink)

        def proc(env):
            yield from src.submit("cross-node event")

        env.process(proc(env))
        env.run()  # would raise TransportError without the control channel
        assert sink.events_in == 1


class TestRwLock:
    def test_writer_exclusive(self):
        env = Environment()
        lock = RwLock(env)
        order = []

        def writer(env, name, hold):
            yield from lock.acquire(is_writer=True)
            order.append((name, env.now))
            yield env.timeout(hold)
            lock.release(is_writer=True)

        env.process(writer(env, "w1", 5))
        env.process(writer(env, "w2", 5))
        env.run()
        assert order == [("w1", 0), ("w2", 5)]

    def test_readers_share(self):
        env = Environment()
        lock = RwLock(env)
        times = []

        def reader(env):
            yield from lock.acquire(is_writer=False)
            times.append(env.now)
            yield env.timeout(3)
            lock.release(is_writer=False)

        env.process(reader(env))
        env.process(reader(env))
        env.run()
        assert times == [0, 0]

    def test_fifo_prevents_writer_starvation(self):
        env = Environment()
        lock = RwLock(env)
        order = []

        def reader(env, name, start):
            yield env.timeout(start)
            yield from lock.acquire(is_writer=False)
            order.append((name, env.now))
            yield env.timeout(4)
            lock.release(is_writer=False)

        def writer(env, start):
            yield env.timeout(start)
            yield from lock.acquire(is_writer=True)
            order.append(("w", env.now))
            yield env.timeout(2)
            lock.release(is_writer=True)

        env.process(reader(env, "r1", 0))
        env.process(writer(env, 1))
        env.process(reader(env, "r2", 2))  # arrives after the writer
        env.run()
        # r2 must NOT jump ahead of the queued writer.
        assert order == [("r1", 0), ("w", 4), ("r2", 6)]

    def test_release_unheld_rejected(self):
        env = Environment()
        lock = RwLock(env)
        with pytest.raises(LockError):
            lock.release(is_writer=True)
        with pytest.raises(LockError):
            lock.release(is_writer=False)


class TestLockService:
    def test_invalid_lock_type(self):
        env = Environment()
        with pytest.raises(ValueError):
            LockService(env, lock_type=4)
        with pytest.raises(ValueError):
            LockService(env, lock_type=2, gate=None)

    @pytest.mark.parametrize("lock_type", [1, 3])
    def test_a_run_config_refuses_the_unmodelled_lock_types(self, lock_type):
        # a DataSpaces run models version-window locking only; types 1
        # and 3 used to reach the library and crash every run with a
        # "not fully staged" KeyError, which the pool retried
        with pytest.raises(ValueError, match="lock_type must be 2"):
            StagingConfig(lock_type=lock_type)

    def test_type2_delegates_to_version_gate(self):
        env = Environment()
        gate = VersionGate(env, num_writers=1, num_readers=1, window=1)
        service = LockService(env, lock_type=2, gate=gate)
        trace = []

        def writer(env):
            for v in range(2):
                yield from service.lock_on_write("x", v)
                trace.append(("w", v, env.now))
                service.unlock_on_write("x", v)

        def reader(env):
            for v in range(2):
                yield from service.lock_on_read("x", v)
                yield env.timeout(10)
                service.unlock_on_read("x", v)

        env.process(writer(env))
        env.process(reader(env))
        env.run()
        # The second write waited for version 0's consumption.
        assert trace[1][2] >= 10

    def test_type3_never_blocks_writers(self):
        env = Environment()
        service = LockService(env, lock_type=3)
        done = []

        def writer(env):
            for v in range(5):
                yield from service.lock_on_write("x", v)
                service.unlock_on_write("x", v)
            done.append(env.now)

        env.process(writer(env))
        env.run()
        assert done and done[0] < 0.01  # only lock RPC latency

    def test_type1_generic_rwlock(self):
        env = Environment()
        service = LockService(env, lock_type=1)
        order = []

        def writer(env):
            yield from service.lock_on_write("x", 0)
            order.append(("w", env.now))
            yield env.timeout(2)
            service.unlock_on_write("x", 0)

        def reader(env):
            yield env.timeout(0.001)
            yield from service.lock_on_read("x", 0)
            order.append(("r", env.now))
            service.unlock_on_read("x", 0)

        env.process(writer(env))
        env.process(reader(env))
        env.run()
        assert order[0][0] == "w"
        assert order[1][1] >= 2
