"""Real asyncio TCP runtime: the deployable implementation.

The same sans-I/O state machines that run in the simulator and the round
model run here over real sockets, exactly as the paper's C implementation
ran over a cluster:

* each server listens on a TCP port; connections identify themselves
  with a one-frame handshake (ring predecessor or client);
* a writer task pulls ring messages one at a time
  (:meth:`ServerProtocol.next_ring_message`) and sends them to the
  current successor — natural backpressure gives the paper's
  one-message-at-a-time ring slotting;
* a broken outgoing ring connection *is* the perfect failure detector
  (the paper: "when a TCP connection fails, the server on the other side
  of the connection failed"); the detecting predecessor coordinates the
  reconfiguration, and other servers learn of the crash from the
  reconfiguration token's dead set;
* clients connect to any server, retry at the next one on timeout;
* every frame rides in a reliable-session segment
  (:mod:`repro.transport.reliable`).  TCP already retransmits *within* a
  connection, so the session layer earns its keep at the seams TCP does
  not cover.  The *ring* session persists across same-peer reconnects: a
  sender re-establishes a dropped successor connection by retransmitting
  exactly its unacked suffix, and the receiver's sequence numbers
  deduplicate whatever had already arrived.  *Client* sessions are
  connection-scoped on both ends — across a reconnect, exactly-once
  delivery of client operations is the protocol's OpId dedup (the same
  machinery that covers retries to a *different* server) — while within
  a connection the cumulative acks tell each side which frames actually
  reached the peer application, not merely its socket buffer.  The
  simulator wires the identical sessions under its fabric, so both
  runtimes implement — not assume — the paper's reliable FIFO channels;
* crashed servers can *restart*: each node persists a write-ahead
  snapshot (:mod:`repro.core.durable`; file-backed via
  ``AsyncCluster(durable_dir=...)``), and :meth:`AsyncServerNode.restart`
  reloads it, re-listens on the node's port and announces the node to a
  live sponsor (hello kind ``rejoin``) until a reconfiguration folds it
  back into the ring.  Every hello carries the sender's restart
  generation, so a receiver can tell a same-incarnation reconnect (keep
  the ring session; replay the unacked suffix) from a restarted peer
  (fresh session — the restarted sender's sequence numbers start over);
* ``AsyncCluster(fd="heartbeat")`` swaps the perfect detector for the
  *imperfect* one: every node beacons every other (hello kind ``hb``)
  and suspects on timeout, a broken ring connection is just a broken
  connection (the sender redials; the session replays the unacked
  suffix), and reconfiguration runs in epoch-guarded ``view_quorum``
  mode — suspicion pauses a server, views install only with an ack
  quorum of the previous view, stale traffic is rejected by epoch, and
  a wrongly suspected server is folded back in through a sponsored
  merge instead of serving stale reads (see docs/reconfiguration.md).
"""

from __future__ import annotations

import asyncio
import struct
from itertools import chain
from typing import Optional

from repro.core.client import ClientProtocol
from repro.core.config import ProtocolConfig
from repro.core.durable import MemorySnapshotStore, SnapshotStore
from repro.core.messages import (
    Heartbeat,
    LeaseGrant,
    LeaseRevoke,
    OpId,
    ReadAck,
    RejoinRequest,
    WriteAck,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.errors import ConfigurationError, StorageUnavailableError
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime.host import ArmTimer, Beacon, HostCore, Kick, Post, SendLease
from repro.runtime.interface import (
    CancelTimer,
    Complete,
    Fail,
    SendTo,
    SetTimer,
)
from repro.transport.codec import decode_message, encode_message
from repro.transport.framing import FrameDecoder, frame
from repro.transport.reliable import (
    ReliableSession,
    Segment,
    decode_frame,
    encode_batch,
    encode_segment,
)

#: Connection hello: kind (0 = ring, 1 = client, 2 = control, 3 =
#: heartbeat), peer id, and the peer's restart generation.  The
#: generation gives ring connections *incarnation* identity: a reconnect
#: from the same peer at the same generation resumes the persistent ring
#: session (the sender replays its unacked suffix), while a higher
#: generation means the peer restarted — its session state is gone, so
#: the receiver starts a fresh session instead of suppressing the
#: newcomer's restarted sequence numbers as duplicates.
_HELLO = struct.Struct(">BqI")
_KIND_RING = 0
_KIND_CLIENT = 1
#: Out-of-ring-order control traffic: rejoin announcements and
#: stale-epoch notices, one idempotent raw frame per short-lived
#: connection.
_KIND_REJOIN = 2
#: Persistent heartbeat stream (fd="heartbeat"): raw Heartbeat frames,
#: no session layer — a retransmitted heartbeat is not freshness.
_KIND_HB = 3

#: How long the ring sender waits before redialling an unreachable
#: successor under the heartbeat detector (where a refused connection is
#: *not* a crash certificate — the session holds the unacked suffix and
#: replays it once the dial succeeds).
_RING_REDIAL = 0.1

#: Default heartbeat timings for real sockets: much coarser than the
#: simulator's, because an event loop stalled by CI noise must not spray
#: wrong suspicions (they would be *safe*, but churny).
DEFAULT_ASYNC_HEARTBEAT = HeartbeatConfig(
    period=0.1, timeout=0.6, check_interval=0.05, propose_grace=0.25,
    lease_duration=0.4, clock_drift_bound=0.05,
)


def _segment_frame(segment: Segment) -> bytes:
    """One wire frame carrying a session-layer segment."""
    return frame(encode_segment(segment, encode_message))


def _segments_frame(segments: list) -> bytes:
    """One wire frame carrying one or more segments: the plain encoding
    for a single segment, the batch container for several.  Receivers
    decode both through :func:`repro.transport.reliable.decode_frame`."""
    if len(segments) == 1:
        return _segment_frame(segments[0])
    return frame(encode_batch(segments, encode_message))


def _now() -> float:
    return asyncio.get_running_loop().time()


async def _read_frames(reader: asyncio.StreamReader, decoder: FrameDecoder):
    """Yield complete frames from ``reader`` until EOF."""
    while True:
        chunk = await reader.read(64 * 1024)
        if not chunk:
            return
        for payload in decoder.feed(chunk):
            yield payload


class AsyncServerNode:
    """One storage server on asyncio TCP."""

    def __init__(
        self,
        server_id: int,
        ring: RingView,
        addresses: dict[int, tuple[str, int]],
        config: Optional[ProtocolConfig] = None,
        durable: Optional[SnapshotStore] = None,
        fd: str = "perfect",
        heartbeat: Optional[HeartbeatConfig] = None,
    ):
        self.server_id = server_id
        # Shared mapping (the cluster may still be filling it in).
        self.addresses = addresses
        self.config = config
        #: Failure detection mode: "perfect" treats a broken ring
        #: connection as a crash certificate (the paper's model);
        #: "heartbeat" runs the imperfect detector — periodic beacons,
        #: timeout suspicion that may be wrong, epoch-guarded
        #: quorum-installed views (``config.view_quorum``) — and treats
        #: a broken connection as just a broken connection.
        self.fd = fd
        self.hb_config = (
            (heartbeat or DEFAULT_ASYNC_HEARTBEAT).validate()
            if fd == "heartbeat"
            else None
        )
        self._hb_writers: dict[int, asyncio.StreamWriter] = {}
        self._beacon_task: Optional[asyncio.Task] = None
        #: Consecutive refused rejoin announcements (see
        #: :meth:`_rejoin_sponsors`).
        self._rejoin_refusals = 0
        #: Durable snapshot store; a restart reloads from it.  Use a
        #: :class:`~repro.core.durable.FileSnapshotStore` for state that
        #: must survive the *process* (the deployment story); the default
        #: in-memory store survives :meth:`restart` within one process.
        self.durable = durable if durable is not None else MemorySnapshotStore()
        #: Restart generation, carried in every outgoing hello so peers
        #: can tell a restarted incarnation from a reconnect.
        self.generation = 0
        self.proto = ServerProtocol(server_id, ring, config, durable=self.durable)
        #: Host core of the running incarnation (built when the node
        #: starts, once every peer's address is known).
        self.core: Optional[HostCore] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._client_writers: dict[int, asyncio.StreamWriter] = {}
        self._inbound_writers: list[asyncio.StreamWriter] = []
        self._ring_writer: Optional[asyncio.StreamWriter] = None
        self._ring_peer: Optional[int] = None
        self._ring_wake = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self._stopped = False
        # Reliable sessions: one endpoint toward the current successor
        # (reset whenever the successor changes — a new ring link is a
        # new channel), one per inbound peer (ring predecessors by
        # ``-peer_id - 1`` to keep them disjoint from client ids).
        self._ring_session = ReliableSession()
        #: The peer the ring session's stream is addressed to; a
        #: successor change resets the session *before* new messages
        #: enter it, so an undialled successor never wipes queued data.
        self._session_peer: Optional[int] = None
        self._peer_sessions: dict[int, ReliableSession] = {}
        # Last hello generation seen per inbound ring peer: a higher one
        # means the peer restarted, so its persistent session is void.
        self._peer_generations: dict[int, int] = {}

    def _peer_session(self, key: int) -> ReliableSession:
        session = self._peer_sessions.get(key)
        if session is None:
            session = self._peer_sessions[key] = ReliableSession()
        return session

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        host, port = self.addresses[self.server_id]
        self._server = await asyncio.start_server(self._on_connection, host, port)
        self.spawn_background(trusting=True)

    def spawn_background(self, trusting: bool) -> None:
        """Start the ring sender and this incarnation's host core: the
        detector in heartbeat mode (``trusting`` seeds its silence
        clocks; a restart starts suspect-first) and, after a restart,
        the rejoin pump."""
        self.core = core = self._new_core()
        self._tasks.append(asyncio.create_task(self._ring_sender()))
        self._track(
            asyncio.create_task(
                self._apply(chain(core.start(_now(), trusting), core.begin_rejoin()))
            )
        )

    def _new_core(self) -> HostCore:
        return HostCore(
            self.server_id,
            lambda: [self.proto],
            self.proto.config,
            [sid for sid in sorted(self.addresses) if sid != self.server_id],
            self.hb_config,
            self._rejoin_sponsors,
            batching=True,  # the ring has a connection of its own
        )

    async def stop(self) -> None:
        """Crash the server: abort every connection immediately."""
        self._stopped = True
        if self._server is not None:
            self._server.close()
        for task in self._tasks:
            task.cancel()
        writers = [
            self._ring_writer,
            *self._client_writers.values(),
            *self._inbound_writers,
            *self._hb_writers.values(),
        ]
        for writer in writers:
            if writer is not None:
                writer.transport.abort()
        await asyncio.sleep(0)

    async def restart(self) -> None:
        """Restart a stopped server from its durable snapshot and rejoin.

        The volatile half is rebuilt from scratch (a new protocol
        restored from the snapshot, fresh sessions — every link is a new
        connection, which the bumped ``generation`` communicates); the
        node re-listens on its recorded address and announces itself to
        the live servers until a reconfiguration folds it back in.
        """
        if not self._stopped:
            return
        self.generation += 1
        self._stopped = False
        self._tasks = []
        self._client_writers = {}
        self._inbound_writers = []
        self._hb_writers = {}
        self._ring_writer = None
        self._ring_peer = None
        self._ring_wake = asyncio.Event()
        self._ring_session = ReliableSession()
        self._session_peer: Optional[int] = None
        self._peer_sessions = {}
        self._peer_generations = {}
        self._beacon_task = None
        self._rejoin_refusals = 0
        self.proto = ServerProtocol.restore(
            self.server_id,
            sorted(self.addresses),
            self.durable.load(),
            self.config,
            durable=self.durable,
            generation=self.generation,
            alone=len(self.addresses) == 1,
        )
        host, port = self.addresses[self.server_id]
        self._server = await asyncio.start_server(self._on_connection, host, port)
        self.spawn_background(trusting=False)

    def _rejoin_sponsors(self, pending, attempt: int):
        """Candidate sponsors for the core's rejoin pump: every other
        server in turn.

        With the paper's failure model a refused connection means that
        server is down, so two full rounds of nothing-but-refused
        announcements mean *nobody* is alive: the restarted server is
        the whole ring and resumes alone from its snapshot, mirroring
        the simulator's alone-restart.  Under the heartbeat detector
        silence could be a partition, and resuming alone without quorum
        evidence would fork the register — keep announcing instead.
        Known limitation: if every server crashes and several restart
        near-simultaneously, their listeners accept each other's
        announcements (no refusal), each defers the other's request
        while paused, and none takes the alone path.
        """
        candidates = [sid for sid in sorted(self.addresses) if sid != self.server_id]
        if not candidates or (
            self.fd != "heartbeat"
            and self._rejoin_refusals >= 2 * len(candidates)
        ):
            return None
        return [candidates[attempt % len(candidates)]] * len(pending)

    # ------------------------------------------------------------------
    # Host-core effects
    # ------------------------------------------------------------------

    async def _apply(self, effects) -> None:
        """Execute a core's effects in order.  Beacons and grants are
        collected into one round of heartbeat-stream writes."""
        core = self.core
        beats: dict[int, list] = {}
        for effect in effects:
            kind = type(effect)
            if kind is Post:
                await self._dispatch_replies(effect.replies)
                self._ring_wake.set()
            elif kind is Kick:
                self._ring_wake.set()
            elif kind is ArmTimer:
                self._track(asyncio.create_task(self._timer(core, effect)))
            elif kind is Beacon:
                beats.setdefault(effect.peer, []).append(Heartbeat(self.server_id))
            elif kind is SendLease:
                if isinstance(effect.message, LeaseRevoke):
                    self._send_lease_revoke(effect.peer, effect.message)
                else:
                    beats.setdefault(effect.peer, []).append(effect.message)
            # Count / Stepped / Suspected: this runtime keeps no trace.
        if beats and (self._beacon_task is None or self._beacon_task.done()):
            # A round still dialling a slow peer drops this one: silence
            # is the signal, and overlapping dials would leak streams.
            self._beacon_task = asyncio.create_task(self._beacon_round(beats))
            self._track(self._beacon_task)

    async def _timer(self, core: HostCore, timer: ArmTimer) -> None:
        await asyncio.sleep(timer.delay)
        if not self._stopped and core is self.core:
            await self._apply(core.on_timer(timer.kind, timer.arg, _now()))

    def _track(self, task: asyncio.Task) -> None:
        """Register a background task, pruning finished ones.

        Timers spawn tasks for the whole life of the node; without
        pruning, a long partition would grow the list (and its retained
        coroutine frames) without bound.
        """
        self._tasks = [t for t in self._tasks if not t.done()]
        self._tasks.append(task)

    # ------------------------------------------------------------------
    # Imperfect failure detector (fd="heartbeat")
    # ------------------------------------------------------------------

    async def _beacon_round(self, beats: dict[int, list]) -> None:
        """Write each peer's heartbeat (and lease grant) on a persistent
        heartbeat stream — raw frames, no session: a retransmitted beat
        or grant is not freshness.

        A failed or slow dial simply drops the beat — silence *is* the
        signal — and the connection is re-attempted next period.  Every
        await is bounded by the period: one blackholed peer (a firewall
        that swallows SYNs rather than refusing them) must not suppress
        the beacons every *other* peer relies on for our liveness.
        """
        budget = self.hb_config.period
        for peer, messages in beats.items():
            writer = self._hb_writers.get(peer)
            if writer is None or writer.is_closing():
                try:
                    _r, writer = await asyncio.wait_for(
                        asyncio.open_connection(*self.addresses[peer]),
                        timeout=budget,
                    )
                    writer.write(_HELLO.pack(_KIND_HB, self.server_id, self.generation))
                    self._hb_writers[peer] = writer
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    self._hb_writers.pop(peer, None)
                    continue
            try:
                for message in messages:
                    writer.write(frame(encode_message(message)))
                await asyncio.wait_for(writer.drain(), timeout=budget)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                writer.close()
                self._hb_writers.pop(peer, None)

    def _send_lease_revoke(self, peer: int, message: LeaseRevoke) -> None:
        """Best-effort immediate revoke on new suspicion.

        Rides the existing heartbeat connection if one survives; when it
        does not (the usual case — the peer is silent because the link
        is gone), the grant's own expiry bounds the holder's exposure.
        """
        writer = self._hb_writers.get(peer)
        if writer is None or writer.is_closing():
            return
        try:
            writer.write(frame(encode_message(message)))
        except (ConnectionError, OSError):
            self._hb_writers.pop(peer, None)

    async def _send_control(self, destination: int, message) -> None:
        """Best-effort out-of-ring-order frame (rejoin announcements,
        stale-epoch notices), one per short-lived connection."""
        announce = isinstance(message, RejoinRequest)
        try:
            _r, writer = await asyncio.open_connection(*self.addresses[destination])
            writer.write(_HELLO.pack(_KIND_REJOIN, self.server_id, self.generation))
            writer.write(frame(encode_message(message)))
            await writer.drain()
            writer.close()
        except (ConnectionError, OSError):
            # Advisory traffic: the guard or the rejoin pump re-sends it.
            if announce:
                self._rejoin_refusals += 1
            return
        if announce:
            self._rejoin_refusals = 0

    # ------------------------------------------------------------------
    # Inbound connections
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        self._inbound_writers.append(writer)
        try:
            hello = await reader.readexactly(_HELLO.size)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        kind, peer_id, peer_generation = _HELLO.unpack(hello)
        if kind == _KIND_HB:
            # Peer heartbeat stream: raw frames, no session.
            try:
                async for payload in _read_frames(reader, decoder):
                    if self._stopped:
                        break
                    message = decode_message(payload)
                    if isinstance(message, Heartbeat):
                        await self._apply(
                            self.core.on_heartbeat(message.server_id, _now())
                        )
                    elif isinstance(message, (LeaseGrant, LeaseRevoke)):
                        await self._apply(self.core.on_lease_message(message, _now()))
            except (ConnectionError, asyncio.CancelledError):
                pass
            finally:
                writer.close()
            return
        if kind == _KIND_REJOIN:
            # Out-of-ring-order control traffic (rejoin announcements,
            # stale-epoch notices): raw frames, no session — each
            # message is idempotent and retried by its sender.
            try:
                async for payload in _read_frames(reader, decoder):
                    if self._stopped:
                        break
                    replies = self.proto.on_ring_message(
                        decode_message(payload), int(peer_id)
                    )
                    await self._dispatch_replies(replies)
                    if self.core.guarded:  # post-step policy
                        await self._apply(self.core.after_step())
                    self._ring_wake.set()
            except (ConnectionError, asyncio.CancelledError):
                pass
            finally:
                writer.close()
            return
        # Ring predecessors and clients share one id space for sessions;
        # predecessors are mapped below zero to keep them disjoint.
        session_key = peer_id if kind == _KIND_CLIENT else -peer_id - 1
        if kind == _KIND_RING:
            # Ring sessions persist across same-peer reconnects (the
            # unacked-suffix replay needs the receive cursor) — but only
            # within one incarnation.  A higher hello generation means
            # the peer restarted with fresh sequence numbers; keeping the
            # old cursor would suppress its entire fresh stream as
            # duplicates.
            if self._peer_generations.get(session_key) != peer_generation:
                self._peer_generations[session_key] = peer_generation
                self._peer_sessions[session_key] = ReliableSession()
        if kind == _KIND_CLIENT:
            self._client_writers[peer_id] = writer
            # Client sessions are connection-scoped (both ends make a
            # fresh one per connection): cross-connection exactly-once
            # for client operations is the protocol's OpId dedup, so
            # tying the session to the connection avoids both permanent
            # seq gaps across seams and leaking sessions under client
            # churn.  Ring sessions, by contrast, persist across
            # same-peer reconnects — there the unacked-suffix replay is
            # the only recovery short of a reconfiguration.
            self._peer_sessions[peer_id] = ReliableSession()
        # Bind this connection to its session object once: a stale
        # handler must never feed late frames into a replacement
        # connection's fresh session.
        session = self._peer_session(session_key)
        try:
            async for payload in _read_frames(reader, decoder):
                if self._stopped:
                    break
                for segment in decode_frame(payload, decode_message):
                    for message in session.on_segment(segment, _now()):
                        if kind == _KIND_RING:
                            replies = self.proto.on_ring_message(message, int(peer_id))
                        else:
                            replies = self.proto.on_client_message(peer_id, message)
                        await self._dispatch_replies(replies)
                        if self.core.guarded:  # post-step policy
                            await self._apply(self.core.after_step())
                        self._ring_wake.set()
                if session.ack_owed:
                    # No reverse traffic carried the ack (ring links are
                    # one-directional; client requests may defer their
                    # reply): spend a frame on a pure ack.
                    writer.write(_segment_frame(session.make_ack()))
                    await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if kind == _KIND_CLIENT and self._client_writers.get(peer_id) is writer:
                # Deregister only our own writer and session: a reconnect
                # may have replaced both before this stale handler
                # observed EOF, and it must not tear down the new ones.
                self._client_writers.pop(peer_id, None)
                self._peer_sessions.pop(peer_id, None)
            writer.close()

    async def _dispatch_replies(self, replies) -> None:
        for reply in replies:
            writer = self._client_writers.get(reply.client)
            if writer is None:
                continue
            session = self._peer_session(reply.client)
            try:
                writer.write(_segment_frame(session.send(reply.message, _now())))
                await writer.drain()
            except ConnectionError:
                self._client_writers.pop(reply.client, None)

    # ------------------------------------------------------------------
    # Outgoing ring connection + perfect failure detection
    # ------------------------------------------------------------------

    async def _ring_sender(self) -> None:
        while not self._stopped:
            ring_frame = self.core.next_ring_frame(self.proto)
            if ring_frame is None:
                if (
                    self.fd == "heartbeat"
                    and self._ring_session.in_flight
                    and (self._ring_writer is None or self._ring_writer.is_closing())
                ):
                    # Unacked ring traffic but no connection and no new
                    # work to trigger a dial: keep redialling, or the
                    # suffix would sit in the session until the next
                    # outbound message (a final standalone commit could
                    # otherwise stall forever on a healthy cluster).
                    # _successor_writer replays the unacked suffix.
                    try:
                        await self._successor_writer(self.proto.successor)
                    except (ConnectionError, OSError):
                        pass
                    await asyncio.sleep(_RING_REDIAL)
                    continue
                self._ring_wake.clear()
                if self.proto.has_ring_work:
                    continue
                await self._ring_wake.wait()
                continue
            successor, batch, directed = ring_frame
            if directed:
                await self._send_control(successor, batch[0])
                continue
            if self._session_peer != successor:
                # A different successor is a different channel: fresh
                # seqs.  Reset happens *before* the message enters the
                # session, so a retargeted stream never wipes live data.
                self._ring_session.reset()
                self._session_peer = successor
            now = _now()
            segments = [self._ring_session.send(m, now) for m in batch]
            try:
                writer = await self._successor_writer(successor)
                writer.write(_segments_frame(segments))
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop_ring_writer()
                if self.fd == "heartbeat":
                    # Not a crash certificate here: the successor may be
                    # pausing, partitioned, or restarting.  The message
                    # sits unacked in the session (replayed on the next
                    # successful dial); suspicion — and with it the
                    # reconfiguration — is the heartbeat tracker's call.
                    await asyncio.sleep(_RING_REDIAL)
                    self._ring_wake.set()
                    continue
                # The paper's failure detector: a broken ring connection
                # means the successor crashed.  Splice and reconfigure.
                self._ring_session.reset()
                self._session_peer = None
                if self.proto.ring.is_alive(successor) and self.proto.ring.num_alive > 1:
                    replies = self.proto.on_server_crash(successor)
                    await self._dispatch_replies(replies)
                # The undelivered messages' state is covered by the
                # reconfiguration merge; do not retransmit them verbatim.
                continue

    async def _successor_writer(self, successor: int) -> asyncio.StreamWriter:
        if (
            self._ring_writer is not None
            and self._ring_peer == successor
            and not self._ring_writer.is_closing()
        ):
            return self._ring_writer
        self._drop_ring_writer()
        host, port = self.addresses[successor]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_HELLO.pack(_KIND_RING, self.server_id, self.generation))
        # Reconnected to the same peer: frames written to the old
        # connection may or may not have reached it — retransmit the
        # unacked suffix and let receive-side dedup resolve the
        # ambiguity.  This is the session layer doing for connection
        # seams what TCP does within one connection.  The replay is
        # chunked into batch frames like a fresh burst would be.
        unacked = list(self._ring_session.unacked_segments())
        chunk_size = self.core.batch_limit
        for start in range(0, len(unacked), chunk_size):
            writer.write(_segments_frame(unacked[start : start + chunk_size]))
        await writer.drain()
        self._ring_writer = writer
        self._ring_peer = successor
        # Watch the read side: the successor's cumulative acks arrive
        # here, and EOF or a reset on this connection is the paper's
        # failure-detector signal for the successor's crash.
        self._tasks.append(
            asyncio.create_task(self._watch_successor(reader, writer, successor))
        )
        return writer

    async def _watch_successor(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: int,
    ) -> None:
        decoder = FrameDecoder()
        try:
            async for payload in _read_frames(reader, decoder):
                if self._ring_writer is not writer:
                    break
                for segment in decode_frame(payload, decode_message):
                    self._ring_session.on_segment(segment, _now())
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        if self._stopped or self._ring_writer is not writer:
            # A stale watcher (its connection was already replaced, e.g.
            # by a same-peer reconnect) must not tear down the live
            # connection or report a live successor as crashed —
            # identity is the *connection*, not the peer id.
            return
        self._drop_ring_writer()
        if self.fd == "heartbeat":
            # Just a broken connection: keep the session (the unacked
            # suffix replays on reconnect) and let the tracker decide
            # whether anyone is actually gone.
            self._ring_wake.set()
            return
        self._ring_session.reset()
        self._session_peer = None
        if self.proto.ring.is_alive(peer) and self.proto.ring.num_alive > 1:
            replies = self.proto.on_server_crash(peer)
            await self._dispatch_replies(replies)
        self._ring_wake.set()

    def _drop_ring_writer(self) -> None:
        if self._ring_writer is not None:
            self._ring_writer.close()
        self._ring_writer = None
        self._ring_peer = None


class AsyncClient:
    """One logical client over asyncio TCP (one operation at a time)."""

    def __init__(
        self,
        client_id: int,
        servers: list[int],
        addresses: dict[int, tuple[str, int]],
        config: Optional[ProtocolConfig] = None,
    ):
        self.proto = ClientProtocol(client_id, servers, config)
        self.client_id = client_id
        self.addresses = dict(addresses)
        self._connections: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        self._futures: dict[OpId, asyncio.Future] = {}
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._reader_tasks: dict[int, asyncio.Task] = {}
        # Strong references to in-flight timeout handlers: the loop only
        # holds weak ones, so an untracked task can be collected
        # mid-retry and its exceptions silently dropped.
        self._timeout_tasks: set[asyncio.Task] = set()
        # One reliable session per live server connection.  Sessions are
        # connection-scoped (dropped with the connection, matching the
        # server side): requests lost at a connection seam are recovered
        # by the protocol's retry timer plus server-side OpId dedup, the
        # same machinery that covers retries to a different server.
        self._sessions: dict[int, ReliableSession] = {}

    def _session(self, server: int) -> ReliableSession:
        session = self._sessions.get(server)
        if session is None:
            session = self._sessions[server] = ReliableSession()
        return session

    async def write(self, value: bytes) -> None:
        op, effects = self.proto.start_write(value)
        await self._run_op(op, effects)

    async def read(self) -> bytes:
        op, effects = self.proto.start_read()
        result = await self._run_op(op, effects)
        return result

    async def close(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        for task in self._timeout_tasks:
            task.cancel()
        for task in self._reader_tasks.values():
            task.cancel()
        for _reader, writer in self._connections.values():
            writer.close()
        self._connections.clear()

    # ------------------------------------------------------------------

    async def _run_op(self, op: OpId, effects) -> Optional[bytes]:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._futures[op] = future
        await self._execute(effects)
        return await future

    async def _execute(self, effects) -> None:
        loop = asyncio.get_running_loop()
        for effect in effects:
            if isinstance(effect, SendTo):
                await self._send(effect.server, effect.message)
            elif isinstance(effect, SetTimer):
                self._cancel(effect.timer_id)
                self._timers[effect.timer_id] = loop.call_later(
                    effect.delay, self._timeout, effect.timer_id
                )
            elif isinstance(effect, CancelTimer):
                self._cancel(effect.timer_id)
            elif isinstance(effect, Complete):
                future = self._futures.pop(effect.op, None)
                if future is not None and not future.done():
                    future.set_result(effect.value)
            elif isinstance(effect, Fail):
                future = self._futures.pop(effect.op, None)
                if future is not None and not future.done():
                    future.set_exception(
                        StorageUnavailableError(f"{effect.op}: {effect.reason}")
                    )

    async def _send(self, server: int, message) -> None:
        try:
            writer = await self._connection(server)
            writer.write(_segment_frame(self._session(server).send(message, _now())))
            await writer.drain()
        except (ConnectionError, OSError):
            self._drop(server)
            # The retry timer will move us to another server.

    async def _connection(self, server: int) -> asyncio.StreamWriter:
        if server in self._connections:
            return self._connections[server][1]
        host, port = self.addresses[server]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_HELLO.pack(_KIND_CLIENT, self.client_id, 0))
        await writer.drain()
        self._connections[server] = (reader, writer)
        self._reader_tasks[server] = asyncio.create_task(self._reader(server, reader))
        return writer

    async def _reader(self, server: int, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder()
        session = self._session(server)
        try:
            async for payload in _read_frames(reader, decoder):
                for segment in decode_frame(payload, decode_message):
                    for message in session.on_segment(segment, _now()):
                        if isinstance(message, (ReadAck, WriteAck)):
                            await self._execute(self.proto.on_reply(message))
                if session.ack_owed:
                    # Acknowledge replies even when no further request is
                    # imminent, so the server's send window stays clean.
                    self._connections[server][1].write(
                        _segment_frame(session.make_ack())
                    )
                    await self._connections[server][1].drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._drop(server)

    def _timeout(self, timer_id: int) -> None:
        self._timers.pop(timer_id, None)
        task = asyncio.ensure_future(self._execute(self.proto.on_timeout(timer_id)))
        self._timeout_tasks.add(task)
        task.add_done_callback(self._timeout_tasks.discard)

    def _cancel(self, timer_id: int) -> None:
        timer = self._timers.pop(timer_id, None)
        if timer is not None:
            timer.cancel()

    def _drop(self, server: int) -> None:
        conn = self._connections.pop(server, None)
        if conn is not None:
            conn[1].close()
        task = self._reader_tasks.pop(server, None)
        if task is not None:
            task.cancel()
        # The session dies with its connection (the server makes a fresh
        # one per connection too); the retry timer re-issues anything
        # that was in flight, and OpId dedup absorbs double delivery.
        self._sessions.pop(server, None)


class AsyncCluster:
    """Convenience: an n-server cluster on localhost ephemeral ports.

    ``durable_dir`` switches every node's snapshot store to the file
    backend (one ``s<id>.snapshot`` per server under the directory), the
    deployment configuration where state must survive the process; by
    default each node keeps an in-memory store, which is enough for
    :meth:`restart_server` within one process.
    """

    def __init__(
        self,
        num_servers: int,
        config: Optional[ProtocolConfig] = None,
        durable_dir: Optional[str] = None,
        fd: str = "perfect",
        heartbeat: Optional[HeartbeatConfig] = None,
    ):
        if fd not in ("perfect", "heartbeat"):
            raise ConfigurationError(f"unknown failure detector {fd!r}")
        self.num_servers = num_servers
        self.config = config or ProtocolConfig()
        self.fd = fd
        self.heartbeat = heartbeat
        if fd == "heartbeat":
            if not self.config.view_quorum:
                from dataclasses import replace

                self.config = replace(self.config, view_quorum=True)
        elif self.config.view_quorum:
            raise ConfigurationError(
                "view_quorum requires the heartbeat failure detector"
            )
        self.durable_dir = durable_dir
        self.nodes: dict[int, AsyncServerNode] = {}
        self.addresses: dict[int, tuple[str, int]] = {}
        self._next_client = 0

    def _make_store(self, server_id: int) -> SnapshotStore:
        if self.durable_dir is None:
            return MemorySnapshotStore()
        from repro.core.durable import FileSnapshotStore

        return FileSnapshotStore(
            f"{self.durable_dir}/s{server_id}.snapshot"
        )

    async def start(self, base_port: int = 0) -> None:
        ring = RingView.initial(self.num_servers)
        # Bind listeners first so successor connections find them.
        for server_id in range(self.num_servers):
            node = AsyncServerNode(
                server_id,
                ring,
                self.addresses,
                self.config,
                durable=self._make_store(server_id),
                fd=self.fd,
                heartbeat=self.heartbeat,
            )
            host, port = "127.0.0.1", 0
            node._server = await asyncio.start_server(node._on_connection, host, port)
            actual = node._server.sockets[0].getsockname()
            self.addresses[server_id] = (actual[0], actual[1])
            self.nodes[server_id] = node
        for node in self.nodes.values():
            node.spawn_background(trusting=True)

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()

    async def crash_server(self, server_id: int) -> None:
        await self.nodes[server_id].stop()

    async def restart_server(self, server_id: int) -> None:
        """Restart a crashed server from its durable snapshot; it
        re-listens on its original port and rejoins the ring."""
        await self.nodes[server_id].restart()

    def client(self, home_server: int = 0) -> AsyncClient:
        self._next_client += 1
        order = sorted(self.nodes)
        index = order.index(home_server)
        order = order[index:] + order[:index]
        return AsyncClient(10_000 + self._next_client, order, self.addresses, self.config)
