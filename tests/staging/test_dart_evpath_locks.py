"""Unit tests for the DART substrate, EVPath stones and DataSpaces locking.

DataSpaces locking (``lock_type=2``) is the version gate's window:
the library's lock/unlock calls are the gate's own.  The gate's tests
live in ``test_store.py``; a whole DataSpaces run under it is tested in
``test_libraries.py``.
"""

import pytest

from repro.hpc import Cluster, MB, TITAN
from repro.sim import Environment
from repro.staging import StagingConfig, VersionGate
from repro.staging.dart import DartError, DartInstance
from repro.staging.evpath import EvpathError, EvpathManager
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

    def test_rpc_round_trip(self):
        env, cluster, transport = setup()
        dart = DartInstance(env, transport)
        server = Endpoint(cluster.node(0), "srv0")
        client = Endpoint(cluster.node(1), "client")
        moves = []
        move = transport.move

        def recording(src, dst, nbytes, **kwargs):
            moves.append((src.owner, dst.owner, nbytes))
            return move(src, dst, nbytes, **kwargs)

        transport.move = recording

        def proc(env):
            yield from dart.rpc(client, server)

        env.process(proc(env))
        env.run()
        # the request, then the reply: one control message each way
        assert moves == [("client", "srv0", DartInstance.CONTROL_BYTES),
                         ("srv0", "client", DartInstance.CONTROL_BYTES)]
        assert dart.rpcs == 1
        assert dart.bulk_ops == 0
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


class TestLockService:
    def test_type2_delegates_to_version_gate(self):
        # the lock type a run config accepts is the version window
        assert StagingConfig().lock_type == 2
        env = Environment()
        gate = VersionGate(env, num_writers=1, num_readers=1, window=1)
        trace = []

        def writer(env):
            for v in range(2):
                yield from gate.writer_acquire(v)  # the write lock
                trace.append(("w", v, env.now))
                gate.publish(v)  # the write unlock

        def reader(env):
            for v in range(2):
                yield from gate.reader_wait(v)  # the read lock
                yield env.timeout(10)
                gate.reader_done(v)  # the read unlock

        env.process(writer(env))
        env.process(reader(env))
        env.run()
        # The second write waited for version 0's consumption.
        assert trace[1][2] >= 10
