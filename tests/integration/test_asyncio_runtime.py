"""Integration tests for the real asyncio TCP runtime (localhost).

The same protocol code as the simulator, over real sockets — including
the paper's connection-break failure detector and client failover.
"""

import asyncio

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import StorageUnavailableError
from repro.runtime.asyncio_net import AsyncCluster


def run(coro):
    return asyncio.run(coro)


def test_write_then_read_across_clients():
    async def scenario():
        cluster = AsyncCluster(3)
        await cluster.start()
        try:
            a = cluster.client(home_server=0)
            b = cluster.client(home_server=2)
            await a.write(b"hello")
            assert await b.read() == b"hello"
            await b.write(b"world")
            assert await a.read() == b"world"
            await a.close()
            await b.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_many_interleaved_ops():
    async def scenario():
        cluster = AsyncCluster(4)
        await cluster.start()
        try:
            clients = [cluster.client(home_server=i) for i in range(4)]
            for i in range(12):
                writer = clients[i % 4]
                await writer.write(b"gen-%d" % i)
                reader = clients[(i + 1) % 4]
                assert await reader.read() == b"gen-%d" % i
            for c in clients:
                await c.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_concurrent_writers_converge():
    async def scenario():
        cluster = AsyncCluster(3)
        await cluster.start()
        try:
            clients = [cluster.client(home_server=i) for i in range(3)]
            await asyncio.gather(*(c.write(b"w%d" % i) for i, c in enumerate(clients)))
            values = await asyncio.gather(*(c.read() for c in clients))
            assert len(set(values)) == 1, f"diverged: {values}"
            for c in clients:
                await c.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_crash_failover_and_recovery():
    async def scenario():
        config = ProtocolConfig(client_timeout=0.3, client_max_retries=8)
        cluster = AsyncCluster(4, config)
        await cluster.start()
        try:
            client = cluster.client(home_server=1)
            await client.write(b"before")
            await cluster.crash_server(1)  # the client's home server
            await asyncio.sleep(0.05)
            await asyncio.wait_for(client.write(b"after"), timeout=10.0)
            other = cluster.client(home_server=3)
            assert await other.read() == b"after"
            await client.close()
            await other.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_all_servers_down_raises():
    async def scenario():
        config = ProtocolConfig(client_timeout=0.1, client_max_retries=2)
        cluster = AsyncCluster(2, config)
        await cluster.start()
        client = cluster.client()
        await client.write(b"v")
        await cluster.stop()
        with pytest.raises(StorageUnavailableError):
            await asyncio.wait_for(client.write(b"w"), timeout=10.0)
        await client.close()

    run(scenario())


def test_crashed_server_restarts_and_rejoins(tmp_path):
    """Crash → restart from the file-backed snapshot → rejoin → the
    recovered server itself serves the writes it missed while down."""
    async def scenario():
        config = ProtocolConfig(client_timeout=0.3, client_max_retries=20)
        cluster = AsyncCluster(3, config, durable_dir=str(tmp_path))
        await cluster.start()
        try:
            client = cluster.client(home_server=0)
            await client.write(b"before")
            await cluster.crash_server(1)
            await asyncio.sleep(0.2)
            await asyncio.wait_for(client.write(b"while-down"), timeout=10.0)

            await cluster.restart_server(1)
            for _ in range(100):  # rejoin completes within the retry cadence
                if not cluster.nodes[1].proto.rejoining:
                    break
                await asyncio.sleep(0.1)
            assert not cluster.nodes[1].proto.rejoining
            # Caught up before serving: the missed write is installed.
            assert cluster.nodes[1].proto.value == b"while-down"
            # And the snapshot on disk survives the process in spirit:
            # it records the recovered state.
            assert cluster.nodes[1].durable.load().value == b"while-down"

            rejoined = cluster.client(home_server=1)
            assert await asyncio.wait_for(rejoined.read(), timeout=10.0) == b"while-down"
            await asyncio.wait_for(rejoined.write(b"after-rejoin"), timeout=10.0)
            assert await client.read() == b"after-rejoin"
            await client.close()
            await rejoined.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_restart_with_no_survivors_resolves_alone(tmp_path):
    """Every server died; the restarted one finds nothing but refused
    connections, concludes nobody is alive (the paper's failure model)
    and resumes alone from its snapshot — paced announcements, no spin."""
    async def scenario():
        config = ProtocolConfig(client_timeout=0.3, client_max_retries=20)
        cluster = AsyncCluster(3, config, durable_dir=str(tmp_path))
        await cluster.start()
        client = cluster.client(home_server=0)
        await client.write(b"precious")
        await client.close()
        await cluster.stop()

        await cluster.restart_server(1)
        for _ in range(100):
            if not cluster.nodes[1].proto.rejoining:
                break
            await asyncio.sleep(0.1)
        proto = cluster.nodes[1].proto
        assert not proto.rejoining and proto.alone
        assert proto.value == b"precious"
        survivor = cluster.client(home_server=1)
        assert await asyncio.wait_for(survivor.read(), timeout=10.0) == b"precious"
        await asyncio.wait_for(survivor.write(b"post"), timeout=10.0)
        assert await survivor.read() == b"post"
        await survivor.close()
        await cluster.stop()

    run(scenario())


def test_heartbeat_mode_serves_reads_and_writes():
    """Basic service under the imperfect detector: no faults, no churn."""

    async def scenario():
        cluster = AsyncCluster(3, fd="heartbeat")
        await cluster.start()
        try:
            a = cluster.client(home_server=0)
            b = cluster.client(home_server=1)
            await a.write(b"hb-hello")
            assert await b.read() == b"hb-hello"
            await b.write(b"hb-world")
            assert await a.read() == b"hb-world"
            await a.close()
            await b.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_heartbeat_mode_crash_detected_and_excluded_by_quorum():
    """A crash under fd="heartbeat" is detected by silence, not by a
    connection break: the survivors install a quorum-backed view that
    excludes the dead server (epoch moves) and keep serving."""

    async def scenario():
        from repro.fd.heartbeat import HeartbeatConfig

        hb = HeartbeatConfig(
            period=0.05, timeout=0.3, check_interval=0.05, propose_grace=0.15
        )
        config = ProtocolConfig(client_timeout=0.5, client_max_retries=30)
        cluster = AsyncCluster(3, config=config, fd="heartbeat", heartbeat=hb)
        await cluster.start()
        try:
            client = cluster.client(home_server=0)
            await client.write(b"before-crash")
            await cluster.crash_server(2)

            async def excluded():
                survivors = [cluster.nodes[0].proto, cluster.nodes[1].proto]
                while not all(
                    p.installed_epoch >= 1 and 2 in p.ring.dead and not p.paused
                    for p in survivors
                ):
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(excluded(), timeout=10.0)
            await client.write(b"after-crash")
            assert await client.read() == b"after-crash"
            await client.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_heartbeat_mode_restart_rejoins_through_sponsor():
    """A restarted server under the imperfect detector announces itself
    and is folded back in by a revived-marked quorum reconfiguration; it
    then serves the latest committed value, not its stale snapshot."""

    async def scenario():
        from repro.fd.heartbeat import HeartbeatConfig

        hb = HeartbeatConfig(
            period=0.05, timeout=0.3, check_interval=0.05, propose_grace=0.15
        )
        config = ProtocolConfig(client_timeout=0.5, client_max_retries=30)
        cluster = AsyncCluster(3, config=config, fd="heartbeat", heartbeat=hb)
        await cluster.start()
        try:
            client = cluster.client(home_server=0)
            await client.write(b"epoch-0-value")
            await cluster.crash_server(2)

            async def excluded():
                while not all(
                    2 in cluster.nodes[i].proto.ring.dead for i in (0, 1)
                ):
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(excluded(), timeout=10.0)
            await client.write(b"written-while-down")
            await cluster.restart_server(2)

            async def rejoined():
                proto = cluster.nodes[2].proto
                while proto.rejoining or proto.paused:
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(rejoined(), timeout=10.0)
            # The rejoiner serves the write it missed, straight away.
            direct = cluster.client(home_server=2)
            assert await direct.read() == b"written-while-down"
            epochs = {cluster.nodes[i].proto.installed_epoch for i in range(3)}
            assert len(epochs) == 1 and epochs.pop() >= 2
            await client.close()
            await direct.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_heartbeat_mode_read_leases_serve_locally():
    """Read leases over real sockets: once every peer's grant has
    arrived, a read is served from the local copy (no ring circulation)
    and still returns the latest write."""

    async def scenario():
        cluster = AsyncCluster(3, ProtocolConfig(read_leases=True), fd="heartbeat")
        await cluster.start()
        try:
            writer = cluster.client(home_server=0)
            reader = cluster.client(home_server=1)
            await writer.write(b"leased")
            holder = cluster.nodes[1].proto

            async def leased():
                while not holder.lease_valid:
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(leased(), timeout=10.0)
            assert await asyncio.wait_for(reader.read(), timeout=10.0) == b"leased"
            assert holder.stats_lease_local_reads >= 1
            await writer.close()
            await reader.close()
        finally:
            await cluster.stop()

    run(scenario())
