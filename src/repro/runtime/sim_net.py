"""Cluster runtime: protocol state machines over the discrete-event simulator.

A :class:`SimCluster` hosts the ring servers and any number of clients on
a simulated network (dual-network or shared, per the paper's testbed), and
wires up:

* one *out-loop* per NIC, which pulls at most one message at a time —
  ring messages via :meth:`ServerProtocol.next_ring_message` (the paper's
  ``queue handler``) and client replies from a reply queue — so the NIC's
  transmit port is the only scheduler of outgoing traffic, exactly as in
  the paper's performance model;
* the perfect failure detector: a server crash is delivered to every
  surviving server after a fixed detection delay (the simulator's stand-in
  for a broken TCP connection in a synchronous cluster);
* crash fidelity: a crashing server's queued-but-untransmitted messages
  die with it, while messages already on the wire are delivered (TCP
  semantics);
* the reliable session layer (:mod:`repro.transport.reliable`): every
  unicast between hosts rides in a sequence-numbered segment, acks
  piggyback on reverse traffic, lost frames are retransmitted on a
  backoff timer and duplicates/reorders are suppressed at the receiver.
  The paper's "reliable FIFO channels between correct processes" is
  thereby *implemented* machinery the nemesis can attack (drop ring
  frames, even alongside crashes) instead of an oracle the chaos
  generator had to schedule around.  Sessions to a crashed peer are
  abandoned when the failure detector fires — the simulator's stand-in
  for a TCP reset — so retransmission never outlives the channel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.core.client import ClientProtocol
from repro.core.config import ProtocolConfig
from repro.core.durable import MemorySnapshotStore
from repro.core.messages import (
    ClientMessage,
    Heartbeat,
    OpId,
    payload_size,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.tags import Tag
from repro.errors import ConfigurationError, SimulationError
from repro.fd.heartbeat import HeartbeatConfig
from repro.fd.perfect import PerfectFailureDetector
from repro.runtime.host import (
    ArmTimer,
    Beacon,
    Count,
    HostCore,
    Kick,
    Post,
    SendLease,
    Stepped,
    Suspected,
    ring_batch_limit,
)
from repro.runtime.interface import (
    CancelTimer,
    Complete,
    Fail,
    Reply,
    SendTo,
    SetTimer,
)
from repro.sim.counters import (
    CODING_CACHE_READS,
    CODING_FRAGMENT_STORES,
    CODING_PENDING_DROPPED,
    CODING_RECONSTRUCTIONS,
    CODING_REPAIRS,
    EPOCH_CONFIRMS,
    EPOCH_QUORUM_STALLS,
    EPOCH_REJECTED_RECONFIGS,
    EPOCH_STALE_DROPPED,
    FD_WRONG_SUSPICIONS,
    LEASE_FALLBACKS,
    LEASE_LOCAL_READS,
    LEASE_WAITOUTS,
    RELIABLE_ABANDONED,
    RELIABLE_ACKS,
    RELIABLE_BATCHED_FRAMES,
    RELIABLE_BATCHED_MESSAGES,
    RELIABLE_DUPS_SUPPRESSED,
    RELIABLE_RETRANSMITS,
    RELIABLE_STALE_DROPPED,
    RING_MESSAGES,
)
from repro.sim.env import SimEnv
from repro.sim.faults import FaultPlan
from repro.sim.nemesis import Nemesis
from repro.sim.network import DEFAULT_PROPAGATION_DELAY
from repro.sim.nic import FAST_ETHERNET_BPS, Nic
from repro.sim.process import SimProcess
from repro.sim.topology import build_dual_network, build_shared_network
from repro.sim.wire import WireModel
from repro.transport.reliable import (
    BATCH_ENTRY_BYTES,
    BATCH_HEADER_BYTES,
    SEGMENT_HEADER_BYTES,
    ReliableConfig,
    ReliableSession,
    Segment,
)

#: Time between a server crash and the failure detector notifying the
#: survivors.  Chosen larger than any in-flight message delivery so that
#: wire-borne messages from the dead server land before reconfiguration
#: starts (the synchrony assumption behind the paper's perfect detector).
DEFAULT_DETECTION_DELAY = 0.005

@dataclass(frozen=True)
class OpResult:
    """Outcome handed to client completion callbacks."""

    op: OpId
    kind: str  # "read" | "write"
    ok: bool
    value: Optional[bytes] = None
    tag: Optional[Tag] = None
    error: Optional[str] = None


@dataclass
class ClusterConfig:
    """Everything needed to build a simulated cluster."""

    num_servers: int
    topology: str = "dual"  # "dual" (paper testbed) or "shared"
    seed: int = 0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    bandwidth_bps: float = FAST_ETHERNET_BPS
    wire: WireModel = field(default_factory=WireModel)
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY
    detection_delay: float = DEFAULT_DETECTION_DELAY
    #: Pre-populated register contents.  Throughput experiments read
    #: value-sized payloads, so the register must start full (the paper's
    #: read experiment necessarily measures value-carrying replies).
    initial_value: bytes = b""
    #: Run every unicast through the reliable session layer
    #: (:mod:`repro.transport.reliable`).  ``False`` restores the bare
    #: fabric, whose FIFO guarantee holds only while the nemesis is
    #: polite — useful for unit tests of raw network behaviour.
    reliable: bool = True
    reliable_config: ReliableConfig = field(default_factory=ReliableConfig)
    #: Failure detector: ``"perfect"`` (the paper's oracle — crash events
    #: are simulation facts relayed after ``detection_delay``) or
    #: ``"heartbeat"`` (the imperfect detector: periodic beacons through
    #: the nemesis-routed network, timeout-based suspicion that can be
    #: *wrong* and is withdrawn on a late heartbeat).  Heartbeat mode
    #: forces ``protocol.view_quorum`` on: views become epoch-guarded
    #: and only install with an ack quorum of the previous view.
    fd: str = "perfect"
    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)

    def validate(self) -> "ClusterConfig":
        if self.num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        if self.topology not in ("dual", "shared"):
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        if self.detection_delay <= 0:
            raise ConfigurationError("detection_delay must be > 0")
        if self.fd not in ("perfect", "heartbeat"):
            raise ConfigurationError(f"unknown failure detector {self.fd!r}")
        if self.fd == "heartbeat":
            self.heartbeat.validate()
            if not self.protocol.view_quorum:
                self.protocol = replace(self.protocol, view_quorum=True)
        elif self.protocol.view_quorum:
            raise ConfigurationError(
                "view_quorum requires the heartbeat failure detector"
            )
        self.protocol.validate()
        self.reliable_config.validate()
        return self


class _OutLoop:
    """Round-robin message pump for one NIC transmit port.

    Sources are callables returning ``(dst_name, message, deliver_kind)``
    or ``None``.  At most one message is in the transmit port at a time;
    the port's idle callback re-pumps, so backpressure is exact.
    """

    def __init__(self, host: "_HostBase", nic: Nic, sources: list[Callable]):
        self.host = host
        self.nic = nic
        self.sources = sources
        self._next_index = 0
        nic.tx.on_idle(self.pump)

    def pump(self) -> None:
        if not self.host.alive or self.nic.tx.busy:
            return
        for attempt in range(len(self.sources)):
            source = self.sources[(self._next_index + attempt) % len(self.sources)]
            item = source()
            if item is None:
                continue
            self._next_index = (self._next_index + attempt + 1) % len(self.sources)
            dst_name, message, kind = item
            self.host.cluster.transmit(self.host, self.nic, dst_name, message, kind)
            return


class _HostBase(SimProcess):
    """Common machinery for server and client hosts."""

    def __init__(self, cluster: "SimCluster", name: str):
        super().__init__(cluster.env, name)
        self.cluster = cluster
        self._loops: list[_OutLoop] = []
        for nic in cluster.topo.nics.get(name, {}).values():
            nic.owner = self
        self.on_crash(self._purge_on_crash)

    def kick(self) -> None:
        """Re-run every out-loop (new work may be available)."""
        for loop in self._loops:
            loop.pump()

    def _purge_on_crash(self, _process) -> None:
        for nic in self.cluster.topo.nics.get(self.name, {}).values():
            nic.tx.purge()
            nic.rx.purge()


class _ServerHostBase(_HostBase):
    """A server machine on the simulated network: executes its
    :class:`~repro.runtime.host.HostCore`'s effects.

    Subclasses supply the protocol instances (:meth:`all_protos`), the
    ring drain (``_ring_source``) and the reply queue (``_reply_source``,
    ``_post``).  Everything a host decides around its protocols —
    reconcile and lease wait-out timers, the rejoin pump, heartbeats and
    the read lease — is the core's; this class only turns the core's
    effects into scheduler timers, out-loop kicks and nemesis-routed
    unicasts.
    """

    def __init__(self, cluster: "SimCluster", server_id: int):
        super().__init__(cluster, f"s{server_id}")
        self.server_id = server_id
        #: Last-mirrored protocol stats, for trace-counter deltas.
        self._mirrored_stats: dict[str, int] = {}
        nics = cluster.topo.nics[self.name]
        if cluster.config.topology == "dual":
            self.nic_ring = nics["srv"]
            self.nic_client = nics["cli"]
            self._loops.append(_OutLoop(self, self.nic_ring, [self._ring_source]))
            self._loops.append(_OutLoop(self, self.nic_client, [self._reply_source]))
        else:
            nic = nics["lan"]
            self.nic_ring = nic
            self.nic_client = nic
            # One NIC carries both kinds of traffic; round-robin between
            # forwarding the ring and answering clients (figure 3d).
            self._loops.append(
                _OutLoop(self, nic, [self._ring_source, self._reply_source])
            )
        self.core = self._new_core()

    def _new_core(self) -> HostCore:
        cluster = self.cluster
        config = cluster.config
        return HostCore(
            self.server_id,
            self.all_protos,
            config.protocol,
            [sid for sid in range(config.num_servers) if sid != self.server_id],
            config.heartbeat if config.fd == "heartbeat" else None,
            self._rejoin_sponsors,
            batching=cluster.reliable is not None
            and self.nic_ring is not self.nic_client,
        )

    def local_now(self) -> float:
        """This server's local clock: fabric time plus any nemesis skew."""
        return self.env.now + self.cluster.nemesis.clock_offset(self.name)

    def _rejoin_sponsors(self, pending, attempt: int):
        """Candidate sponsors for the core's rejoin pump."""
        cluster = self.cluster
        if cluster.config.fd == "heartbeat":
            # No aliveness oracle: announce to every other member in
            # turn; frames to the dead die in transit, and "nobody is
            # alive" is indistinguishable from a partition, so there is
            # deliberately no resume-alone shortcut here.
            sponsors = [sid for sid in sorted(cluster.servers) if sid != self.server_id]
        else:
            sponsors = [
                sid
                for sid, other in cluster.servers.items()
                if sid != self.server_id and other.alive
            ]
            if not sponsors:
                return None  # the perfect detector says nobody is alive
        return [sponsors[attempt % len(sponsors)]] * len(pending)

    # -- effects ---------------------------------------------------------

    def _apply(self, effects) -> None:
        """Execute a core's effects in order (each before the core's
        next protocol call)."""
        for effect in effects:
            kind = type(effect)
            if kind is Post:
                self._post(effect.replies)
            elif kind is Kick:
                self.kick()
            elif kind is ArmTimer:
                self.env.scheduler.schedule(
                    effect.delay, self._on_core_timer, self.core, effect.kind, effect.arg
                )
            elif kind is Count:
                self.env.trace.count(effect.name, effect.amount)
            elif kind is Stepped:
                self.cluster.mirror_protocol_stats(self)
            elif kind is Beacon:
                self._send_detector_message(effect.peer, Heartbeat(self.server_id))
            elif kind is SendLease:
                self._send_detector_message(effect.peer, effect.message)
            elif kind is Suspected:
                # The score the chaos gate relies on: a suspicion of a
                # host that is actually alive proves the run exercised
                # the wrongly-suspected-but-alive scenario.
                if self.cluster.servers[effect.peer].alive:
                    self.env.trace.count(FD_WRONG_SUSPICIONS)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown host effect {effect!r}")

    def after_step(self) -> None:
        """Post-handler hook; a single check under the perfect detector."""
        if self.core.guarded:
            self._apply(self.core.after_step())

    def _on_core_timer(self, core: HostCore, kind: str, arg) -> None:
        if self.alive and core is self.core:  # else: a past incarnation's
            self._apply(core.on_timer(kind, arg, self.local_now()))

    def _send_detector_message(self, peer: int, message) -> None:
        """Heartbeats and lease grants/revokes bypass the reliable layer
        (a retransmitted beacon or grant is not a freshness signal) but
        ride the nemesis-routed fabric, so partitions, drops, pauses and
        throttles attack them like everything else — which is exactly
        how wrong suspicion arises."""
        src_nic, dst_nic, network = self.cluster.topo.nic_for(self.name, f"s{peer}")
        network.unicast(
            src_nic,
            dst_nic,
            payload_size(message),
            message,
            self.cluster.servers[peer]._on_detector_message,
        )

    def _on_detector_message(self, message) -> None:
        if not self.alive:
            return
        if isinstance(message, Heartbeat):
            self._apply(self.core.on_heartbeat(message.server_id, self.local_now()))
        else:
            self._apply(self.core.on_lease_message(message, self.local_now()))

    def start_detector(self) -> None:
        """Cold-start this host's heartbeat detector (cluster build)."""
        self._apply(self.core.start(self.local_now(), trusting=True))

    def _restart_core(self) -> None:
        """A new incarnation: fresh core (suspect-first detector, no
        lease), then the rejoin pump."""
        self._mirrored_stats = {}
        self.core = self._new_core()
        self._apply(self.core.start(self.local_now(), trusting=False))
        self._apply(self.core.begin_rejoin())
        self.kick()


class ServerHost(_ServerHostBase):
    """Hosts one :class:`ServerProtocol` on the simulated network.

    Replies are queued per destination client *machine* and served
    round-robin, modelling per-TCP-connection fairness in a real kernel:
    a writer machine's (tiny) acks are not starved behind another
    machine's (bulk) read replies.
    """

    def __init__(self, cluster: "SimCluster", server_id: int, proto: ServerProtocol):
        super().__init__(cluster, server_id)
        self.proto = proto
        self._reply_queues: dict[str, deque[Reply]] = {}
        self._reply_rr: deque[str] = deque()

    def all_protos(self) -> list[ServerProtocol]:
        """Uniform surface shared with the sharded host (one protocol
        instance per block there): the host core iterates this."""
        return [self.proto]

    # -- inbound ------------------------------------------------------

    def receive_ring(self, message, sender: Optional[int] = None) -> None:
        if not self.alive:
            return
        self._post(self.proto.on_ring_message(message, sender))
        self.after_step()

    def receive_client(self, client_id: int, message: ClientMessage) -> None:
        if not self.alive:
            return
        self._post(self.proto.on_client_message(client_id, message))
        # A leased read completes with zero ring traffic, so the stat
        # mirror cannot wait for the next ring receipt — under heartbeat
        # mode the trace would undercount local reads forever.
        self.after_step()

    def notify_crash(self, crashed_id: int) -> None:
        if not self.alive:
            return
        self._post(self.proto.on_server_crash(crashed_id))

    # -- restart (crash recovery) --------------------------------------

    def restart(self) -> None:
        """Restart this server from its durable snapshot and rejoin.

        Volatile state — the protocol object, reply queues, NIC queues
        (purged at crash) — is gone; the cluster rebuilds the protocol
        from the snapshot store, re-opens the reliable channels (a
        restart is a new connection on every link) and a fresh host core
        drives the rejoin handshake until a reconfiguration folds the
        server back in.
        """
        if self._alive:
            return
        self.cluster.reopen_server(self.server_id)
        super().restart()
        self._reply_queues.clear()
        self._reply_rr.clear()
        self.proto = self.cluster.restore_server_protocol(self.server_id, self.restarts)
        self._restart_core()

    # -- outbound sources ----------------------------------------------

    def _ring_source(self):
        frame = self.core.next_ring_frame(self.proto)
        if frame is None:
            return None
        destination, messages, _directed = frame
        payload = messages[0] if len(messages) == 1 else messages
        return (f"s{destination}", payload, "ring")

    def _reply_source(self):
        while self._reply_rr:
            machine = self._reply_rr[0]
            queue = self._reply_queues.get(machine)
            if not queue:
                self._reply_rr.popleft()
                continue
            reply = queue.popleft()
            if queue:
                self._reply_rr.rotate(-1)  # next machine's turn
            else:
                self._reply_rr.popleft()
            return (machine, reply.message, "reply")
        return None

    def _post(self, replies: list[Reply]) -> None:
        for reply in replies:
            machine = self.cluster.client_name(reply.client)
            if machine is None:
                continue  # client unknown/gone; drop
            queue = self._reply_queues.setdefault(machine, deque())
            if not queue and machine not in self._reply_rr:
                self._reply_rr.append(machine)
            queue.append(reply)
        self.kick()


class ClientHost(_HostBase):
    """One client *machine*: a NIC plus any number of logical clients.

    The paper's methodology: "the client application can emulate multiple
    clients, i.e. it can send multiple read and write requests in
    parallel.  Thus, a single writing node can saturate the storage."
    Each logical client is one :class:`ClientProtocol` (one operation in
    flight); they all share the machine's NIC.
    """

    def __init__(
        self,
        cluster: "SimCluster",
        client_id: int,
        servers: list[int],
        config: ProtocolConfig,
    ):
        super().__init__(cluster, f"c{client_id}")
        self.client_id = client_id
        self.servers = list(servers)
        self.config = config
        self.protos: dict[int, ClientProtocol] = {
            client_id: ClientProtocol(client_id, servers, config)
        }
        self.out_queue: deque[tuple[str, ClientMessage]] = deque()
        self._timers: dict[tuple[int, int], object] = {}
        self._callbacks: dict[OpId, Callable[[OpResult], None]] = {}
        nic = cluster.topo.nics[self.name][
            "cli" if cluster.config.topology == "dual" else "lan"
        ]
        self.nic = nic
        self._loops.append(_OutLoop(self, nic, [self._request_source]))

    def add_virtual_client(self) -> int:
        """Create another logical client on this machine; returns its id."""
        virtual_id = self.cluster.register_virtual_client(self)
        self.protos[virtual_id] = ClientProtocol(virtual_id, self.servers, self.config)
        return virtual_id

    # -- public operation API -------------------------------------------

    def write(
        self,
        value: bytes,
        callback: Callable[[OpResult], None],
        client_id: Optional[int] = None,
    ) -> OpId:
        self.check_alive()
        proto = self._proto(client_id)
        op, effects = proto.start_write(value)
        self._callbacks[op] = callback
        block = self._bind_block(op)
        self.cluster.record_invoke(proto.client_id, op, "write", value, block)
        self._execute(proto, effects)
        return op

    def read(
        self,
        callback: Callable[[OpResult], None],
        client_id: Optional[int] = None,
    ) -> OpId:
        self.check_alive()
        proto = self._proto(client_id)
        op, effects = proto.start_read()
        self._callbacks[op] = callback
        block = self._bind_block(op)
        self.cluster.record_invoke(proto.client_id, op, "read", None, block)
        self._execute(proto, effects)
        return op

    def abort_op(self, client_id: Optional[int] = None) -> Optional[OpId]:
        """Abandon a logical client's in-flight operation (if any):
        reset the protocol's op state, disarm its timer and drop its
        completion callback.  Used by blocking wrappers that give up on
        an operation the simulation can no longer complete.  Returns the
        abandoned op id (subclasses clean their own per-op state)."""
        proto = self._proto(client_id)
        op = proto.abandon()
        if op is not None:
            self._cancel_timer(proto.client_id, op.seq)
            self._callbacks.pop(op, None)
        return op

    def _bind_block(self, op: OpId) -> Optional[int]:
        """Hook: pin the block an operation targets at start time.

        The base register has no blocks; the sharded client host
        overrides this (the pin is what keeps a timeout retransmit in
        the originating op's block) and the returned key lands in the
        recorded history for per-block checking."""
        return None

    # -- inbound ---------------------------------------------------------

    def on_reply_delivered(self, message) -> None:
        if not self.alive:
            return
        proto = self.protos.get(message.op.client)
        if proto is not None:
            self._execute(proto, proto.on_reply(message))

    # -- internals ---------------------------------------------------------

    def _proto(self, client_id: Optional[int]) -> ClientProtocol:
        if client_id is None:
            client_id = self.client_id
        return self.protos[client_id]

    def _request_source(self):
        if not self.out_queue:
            return None
        server_name, message = self.out_queue.popleft()
        return (server_name, message, "request")

    def _on_timeout(self, client_id: int, timer_id: int) -> None:
        if not self.alive:
            return
        self._timers.pop((client_id, timer_id), None)
        proto = self.protos[client_id]
        self._execute(proto, proto.on_timeout(timer_id))

    def _execute(self, proto: ClientProtocol, effects) -> None:
        client_id = proto.client_id
        for effect in effects:
            if isinstance(effect, SendTo):
                self.out_queue.append(
                    (
                        self._request_destination(effect.server, effect.message),
                        self._wrap_request(effect.message),
                    )
                )
            elif isinstance(effect, SetTimer):
                self._cancel_timer(client_id, effect.timer_id)
                self._timers[(client_id, effect.timer_id)] = self.env.scheduler.schedule(
                    effect.delay, self._on_timeout, client_id, effect.timer_id
                )
            elif isinstance(effect, CancelTimer):
                self._cancel_timer(client_id, effect.timer_id)
            elif isinstance(effect, Complete):
                result = OpResult(
                    effect.op, effect.kind, ok=True, value=effect.value, tag=effect.tag
                )
                self.cluster.record_response(client_id, effect.op, result)
                callback = self._callbacks.pop(effect.op, None)
                if callback is not None:
                    callback(result)
            elif isinstance(effect, Fail):
                result = OpResult(effect.op, "unknown", ok=False, error=effect.reason)
                callback = self._callbacks.pop(effect.op, None)
                if callback is not None:
                    callback(result)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown effect {effect!r}")
        self.kick()

    def _wrap_request(self, message: ClientMessage) -> ClientMessage:
        """Hook for subclasses that envelope requests (sharded store)."""
        return message

    def _request_destination(self, server: int, message: ClientMessage) -> str:
        """Hook: process name a request is sent to.  The protocol picks
        ``server`` from its full server list; the sharded client host
        overrides this to map the pick onto the target block's current
        placement (retries walk that ring, not the whole cluster)."""
        return f"s{server}"

    def _cancel_timer(self, client_id: int, timer_id: int) -> None:
        handle = self._timers.pop((client_id, timer_id), None)
        if handle is not None:
            handle.cancel()


class _ReliableLinkLayer:
    """Drives one :class:`~repro.transport.reliable.ReliableSession` per
    directed host pair off the cluster's event scheduler.

    The sans-I/O sessions decide *what* to (re)transmit and *what* is
    deliverable; this adapter owns the timers (retransmission backoff,
    delayed pure acks), charges segments to the NIC transmit ports like
    any other traffic, and mirrors session statistics into the trace
    (``reliable.retransmits``, ``reliable.dups_suppressed``,
    ``reliable.acks``, ``reliable.abandoned``) so chaos runs can prove
    the machinery fired.
    """

    def __init__(self, cluster: "SimCluster", config: ReliableConfig):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config
        self.sessions: dict[tuple[str, str], ReliableSession] = {}
        self._retx_timers: dict[tuple[str, str], object] = {}
        self._ack_timers: dict[tuple[str, str], object] = {}
        #: Channel generation per host, bumped whenever the host's
        #: sessions are torn down (crash detection, restart).  Deliveries
        #: carry the generations captured at send time; a mismatch at
        #: arrival means the frame belongs to a connection that no longer
        #: exists — the simulator's stand-in for a TCP segment of a dead
        #: connection being discarded, which is what keeps a frame from a
        #: host's previous incarnation out of its successor's fresh
        #: session (stale high sequence numbers would otherwise poison
        #: the reorder buffer).
        self._generations: dict[str, int] = {}

    def session(self, local: str, peer: str) -> ReliableSession:
        key = (local, peer)
        session = self.sessions.get(key)
        if session is None:
            session = self.sessions[key] = ReliableSession(self.config)
        return session

    # -- outbound ------------------------------------------------------

    def wrap(self, src_name: str, dst_name: str, kind: str, message) -> tuple[Segment, int]:
        """Envelope one outgoing message; returns (segment, wire bytes)."""
        session = self.session(src_name, dst_name)
        segment = session.send((kind, message), self.env.now)
        self._cancel(self._ack_timers, (src_name, dst_name))  # ack rides along
        self._sync_retx_timer(src_name, dst_name)
        return segment, SEGMENT_HEADER_BYTES + _payload_of(message)

    # -- inbound -------------------------------------------------------

    def deliver(self, dst_name: str, src_name: str, segment: Segment) -> None:
        """Receive-port callback: run the segment through ``dst``'s
        session endpoint and dispatch whatever became deliverable."""
        session = self.session(dst_name, src_name)
        dups_before = session.stats.dups_suppressed
        payloads = session.on_segment(segment, self.env.now)
        dups = session.stats.dups_suppressed - dups_before
        if dups:
            self.env.trace.count(RELIABLE_DUPS_SUPPRESSED, dups)
        # The piggybacked ack may have advanced our own send window.
        self._sync_retx_timer(dst_name, src_name)
        for kind, message in payloads:
            self.cluster._dispatch_payload(dst_name, src_name, kind, message)
        if session.ack_owed:
            self._arm_ack(dst_name, src_name)

    # -- lifecycle -----------------------------------------------------

    def channel_stamp(self, src: str, dst: str) -> tuple[int, int]:
        """The (src, dst) channel generations; captured per delivery."""
        return (self._generations.get(src, 0), self._generations.get(dst, 0))

    def deliver_stamped(
        self, dst_name: str, src_name: str, frame, stamp: tuple[int, int]
    ) -> None:
        """Receive-port callback with connection identity: a frame whose
        channel was re-opened since it was sent is discarded.  ``frame``
        is one :class:`Segment` or a batch of them; either way the whole
        frame shares one connection stamp (and one nemesis fate)."""
        if stamp != self.channel_stamp(src_name, dst_name):
            self.env.trace.count(RELIABLE_STALE_DROPPED)
            return
        if isinstance(frame, list):
            for segment in frame:
                self.deliver(dst_name, src_name, segment)
            return
        self.deliver(dst_name, src_name, frame)

    def abandon_peer(self, name: str) -> None:
        """Tear down every session touching ``name`` (the peer crashed).

        The failure detector calls this: a dead host's channels are
        reset, not drained, exactly as broken TCP connections would be —
        otherwise retransmission to the dead would outlive the run.
        """
        self._generations[name] = self._generations.get(name, 0) + 1
        for key, session in self.sessions.items():
            if name not in key:
                continue
            if session.in_flight:
                self.env.trace.count(RELIABLE_ABANDONED, session.in_flight)
            session.reset()
            self._cancel(self._retx_timers, key)
            self._cancel(self._ack_timers, key)

    def reopen_peer(self, name: str) -> None:
        """Reset every session touching ``name`` and bump its channel
        generation (the peer restarted: every link to it is a brand-new
        connection, and frames of the old incarnation must not land in
        the fresh sessions)."""
        self.abandon_peer(name)

    # -- timers --------------------------------------------------------

    def _sync_retx_timer(self, local: str, peer: str) -> None:
        key = (local, peer)
        session = self.sessions.get(key)
        deadline = session.retransmit_deadline if session is not None else None
        handle = self._retx_timers.get(key)
        if deadline is None:
            self._cancel(self._retx_timers, key)
            return
        if handle is not None and not handle.cancelled and handle.time <= deadline:
            return  # fires no later than needed; re-syncs itself
        self._cancel(self._retx_timers, key)
        self._retx_timers[key] = self.env.scheduler.schedule_at(
            deadline, self._on_retx_timer, local, peer
        )

    def _on_retx_timer(self, local: str, peer: str) -> None:
        self._retx_timers.pop((local, peer), None)
        session = self.sessions.get((local, peer))
        if session is None or not self._alive(local):
            return
        if not self._alive(peer):
            # The peer died after abandon_peer's one-shot sweep and this
            # session was re-filled by a later send (a client retry
            # round-robining onto the dead server).  Retransmitting into
            # the void forever would keep the scheduler from ever going
            # idle; reset instead — TCP to a dead host errors out too.
            if session.in_flight:
                self.env.trace.count(RELIABLE_ABANDONED, session.in_flight)
            session.reset()
            return
        segments = session.poll(self.env.now)
        if segments:
            self.env.trace.count(RELIABLE_RETRANSMITS, len(segments))
        limit = self.cluster.batch_limit
        if limit > 1 and len(segments) > 1:
            # Chunk retransmissions into batch frames too — a recovering
            # link refills the pipe with the same framing a fresh burst
            # would use.
            for start in range(0, len(segments), limit):
                chunk = segments[start : start + limit]
                if len(chunk) == 1:
                    self._send_segment(local, peer, chunk[0])
                else:
                    self._send_batch(local, peer, chunk)
        else:
            for segment in segments:
                self._send_segment(local, peer, segment)
        self._sync_retx_timer(local, peer)

    def _arm_ack(self, local: str, peer: str) -> None:
        key = (local, peer)
        handle = self._ack_timers.get(key)
        if handle is not None and not handle.cancelled:
            return
        self._ack_timers[key] = self.env.scheduler.schedule(
            self.config.ack_delay, self._on_ack_timer, local, peer
        )

    def _on_ack_timer(self, local: str, peer: str) -> None:
        self._ack_timers.pop((local, peer), None)
        session = self.sessions.get((local, peer))
        if session is None or not session.ack_owed or not self._alive(local):
            return
        self.env.trace.count(RELIABLE_ACKS)
        self._send_segment(local, peer, session.make_ack())

    # -- plumbing ------------------------------------------------------

    def _send_segment(self, local: str, peer: str, segment: Segment) -> None:
        src_nic, dst_nic, network = self.cluster.topo.nic_for(local, peer)
        network.unicast(
            src_nic, dst_nic, self._segment_bytes(segment), segment,
            self.cluster._segment_deliver(peer, local),
        )

    def _send_batch(self, local: str, peer: str, segments: list) -> None:
        src_nic, dst_nic, network = self.cluster.topo.nic_for(local, peer)
        wire_bytes = BATCH_HEADER_BYTES + sum(
            BATCH_ENTRY_BYTES + self._segment_bytes(s) for s in segments
        )
        self.env.trace.count(RELIABLE_BATCHED_FRAMES)
        self.env.trace.count(RELIABLE_BATCHED_MESSAGES, len(segments))
        network.unicast(
            src_nic, dst_nic, wire_bytes, list(segments),
            self.cluster._segment_deliver(peer, local),
        )

    @staticmethod
    def _segment_bytes(segment: Segment) -> int:
        wire_bytes = SEGMENT_HEADER_BYTES
        if segment.is_data:
            _kind, message = segment.payload
            wire_bytes += _payload_of(message)
        return wire_bytes

    def _alive(self, name: str) -> bool:
        host = self.cluster.process_by_name(name)
        return host is not None and host.alive

    @staticmethod
    def _cancel(timers: dict, key: tuple[str, str]) -> None:
        handle = timers.pop(key, None)
        if handle is not None:
            handle.cancel()


class SimCluster:
    """A simulated storage cluster: ring servers plus dynamic clients.

    Example::

        cluster = SimCluster.build(num_servers=5, seed=7)
        storage = AtomicStorage.over(cluster)
        storage.write(b"hello")
        assert storage.read() == b"hello"
    """

    def __init__(self, config: ClusterConfig, host_factory=None):
        """``host_factory(cluster, server_id)`` builds each server host;
        by default the ring :class:`ServerHost`.  Baseline protocols
        (:mod:`repro.baselines`) supply their own factories and reuse the
        topology, clients, failure detector and history plumbing."""
        self.config = config.validate()
        self.env = SimEnv(seed=config.seed)
        server_names = [f"s{i}" for i in range(config.num_servers)]
        builder = build_dual_network if config.topology == "dual" else build_shared_network
        self.topo = builder(
            self.env,
            server_names,
            [],
            bandwidth_bps=config.bandwidth_bps,
            wire=config.wire,
            propagation_delay=config.propagation_delay,
        )
        #: Fault controller: every network routes deliveries through it,
        #: so fault plans can partition, drop, delay, duplicate, throttle
        #: and pause without the protocol layers knowing.
        self.nemesis = Nemesis(self.env, self.topo)
        for network in self.topo.networks.values():
            network.faults = self.nemesis
        #: Reliable session layer: None means raw fabric (tests only).
        self.reliable: Optional[_ReliableLinkLayer] = (
            _ReliableLinkLayer(self, config.reliable_config)
            if config.reliable
            else None
        )
        self.ring = RingView.initial(config.num_servers)
        #: Perfect-oracle detector (``fd="perfect"``) or None under the
        #: heartbeat detector, where each host's core suspects peers
        #: from missed beacons.
        self.fd: Optional[PerfectFailureDetector] = None
        if config.fd == "perfect":
            self.fd = PerfectFailureDetector(self.env, config.detection_delay)
            self.fd.subscribe(self._fd_notify)
        self.clients: dict[int, ClientHost] = {}
        self._host_by_client_id: dict[int, ClientHost] = {}
        self._next_client_id = 0
        #: Durable snapshot stores, one per server: the simulated "disk"
        #: that outlives a crashed process and feeds its restart.
        self.durable_stores: dict[int, MemorySnapshotStore] = {}
        #: Optional history recorder (see repro.analysis.history).
        self.history = None
        #: Elastic sharding control plane (set by the sharded builders in
        #: :mod:`repro.core.sharded`): the versioned block placement
        #: table and the rebalancer driving live block migration.  None
        #: on every non-elastic cluster — hosts and clients treat that
        #: as "one ring owns everything", today's behaviour.
        self.placement = None
        self.rebalancer = None
        #: Per-server crash order (server_id -> monotone stamp).  Stamped
        #: by :meth:`note_crash`; elastic crash recovery compares stamps
        #: to decide whether a restarting ring member holds the freshest
        #: copy of its blocks (the last member to crash does).
        self.crash_stamps: dict[int, int] = {}
        self._crash_seq = 0
        if host_factory is None:
            host_factory = self._default_host_factory
        self.servers: dict[int, _HostBase] = {}
        for server_id in range(config.num_servers):
            host = host_factory(self, server_id)
            host.on_crash(self._server_crashed)
            self.servers[server_id] = host
        if config.fd == "heartbeat":
            for host in self.servers.values():
                host.start_detector()

    @property
    def batch_limit(self) -> int:
        """Ring messages per wire frame (the reliable layer chunks
        retransmissions by it).  Batching is a session-layer feature;
        raw-fabric clusters (``reliable=False``) send one message per
        frame regardless of the knob."""
        if self.reliable is None:
            return 1
        return ring_batch_limit(
            self.config.protocol.batch_max_messages, self.config.num_servers
        )

    @staticmethod
    def _default_host_factory(cluster: "SimCluster", server_id: int) -> "ServerHost":
        store = cluster.durable_stores.setdefault(server_id, MemorySnapshotStore())
        proto = ServerProtocol(
            server_id,
            cluster.ring,
            cluster.config.protocol,
            initial_value=cluster.config.initial_value,
            durable=store,
        )
        return ServerHost(cluster, server_id, proto)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_servers: int,
        topology: str = "dual",
        seed: int = 0,
        protocol: Optional[ProtocolConfig] = None,
        host_factory=None,
        **kwargs,
    ) -> "SimCluster":
        """Build a cluster with sensible defaults (see :class:`ClusterConfig`)."""
        return cls(
            ClusterConfig(
                num_servers=num_servers,
                topology=topology,
                seed=seed,
                protocol=protocol or ProtocolConfig(),
                **kwargs,
            ),
            host_factory=host_factory,
        )

    def add_client(
        self, home_server: Optional[int] = None, host_cls: type = ClientHost
    ) -> ClientHost:
        """Attach a new client machine to the client network.

        ``home_server`` binds the client to a server (the paper dedicates
        client machines per server); retries walk the ring from there.
        ``host_cls`` lets variants substitute their client host class
        (the sharded store attaches a :class:`ShardClientHost`).
        """
        client_id = self._next_client_id
        self._next_client_id += 1
        name = f"c{client_id}"
        nets = ["cli"] if self.config.topology == "dual" else ["lan"]
        self.topo.add_process(name, nets, self.config.bandwidth_bps)
        order = sorted(self.servers)
        if home_server is not None:
            if home_server not in self.servers:
                raise ConfigurationError(f"unknown home server {home_server}")
            index = order.index(home_server)
            order = order[index:] + order[:index]
        host = host_cls(self, client_id, order, self.config.protocol)
        self.clients[client_id] = host
        self._host_by_client_id[client_id] = host
        return host

    def register_virtual_client(self, host: "ClientHost") -> int:
        """Allocate a fresh logical-client id bound to ``host``."""
        client_id = self._next_client_id
        self._next_client_id += 1
        self._host_by_client_id[client_id] = host
        return client_id

    # ------------------------------------------------------------------
    # Routing and delivery
    # ------------------------------------------------------------------

    def client_name(self, client_id: int) -> Optional[str]:
        host = self._host_by_client_id.get(client_id)
        return host.name if host is not None else None

    def process_by_name(self, name: str) -> Optional[_HostBase]:
        """Resolve a host (server or client machine) by process name."""
        if name.startswith("s"):
            return self.servers.get(int(name[1:]))
        return self.clients.get(int(name[1:]))

    def transmit(self, host, src_nic: Nic, dst_name: str, message, kind: str) -> None:
        """Send one message from ``host`` through ``src_nic``."""
        route_src, dst_nic, network = self.topo.nic_for(host.name, dst_name)
        if route_src is not src_nic:  # pragma: no cover - defensive
            raise SimulationError(
                f"route from {host.name} to {dst_name} uses {route_src.name}, "
                f"but the out-loop pumped {src_nic.name}"
            )
        if kind == "ring":
            # Ring-layer traffic volume, independent of wire framing: the
            # bench divides this by completed ops to show a leased read
            # costing zero ring messages where a fenced one costs n.
            self.env.trace.count(
                RING_MESSAGES, len(message) if isinstance(message, list) else 1
            )
        if self.reliable is None:
            deliver = self._make_deliver(dst_name, kind, host.name)
            network.unicast(src_nic, dst_nic, _payload_of(message), message, deliver)
            return
        if isinstance(message, list):
            # A ring batch: each message becomes its own session segment
            # (own seq, own retransmission entry); only the wire framing
            # is shared.  The frame is charged the exact bytes of
            # transport.reliable.encode_batch, so simulated and asyncio
            # transports agree on wire cost.
            segments = []
            wire_bytes = BATCH_HEADER_BYTES
            for item in message:
                segment, seg_bytes = self.reliable.wrap(
                    host.name, dst_name, kind, item
                )
                segments.append(segment)
                wire_bytes += BATCH_ENTRY_BYTES + seg_bytes
            self.env.trace.count(RELIABLE_BATCHED_FRAMES)
            self.env.trace.count(RELIABLE_BATCHED_MESSAGES, len(segments))
            network.unicast(
                src_nic, dst_nic, wire_bytes, segments,
                self._segment_deliver(dst_name, host.name),
            )
            return
        segment, wire_bytes = self.reliable.wrap(host.name, dst_name, kind, message)
        network.unicast(
            src_nic, dst_nic, wire_bytes, segment,
            self._segment_deliver(dst_name, host.name),
        )

    def multicast_servers(self, host, message) -> None:
        """Ethernet multicast to every other alive server (naive
        broadcast baseline).  Subject to the network's collision model."""
        src_nic = host.nic_ring
        dsts = [
            other.nic_ring
            for sid, other in self.servers.items()
            if sid != host.server_id and other.alive
        ]
        if not dsts:
            return

        def deliver(dst_nic, msg) -> None:
            server = self._server_by_name(dst_nic.name.split("@")[0])
            if server is not None:
                server.receive_server(host.server_id, msg)

        network = src_nic.network
        network.multicast(src_nic, dsts, _payload_of(message), message, deliver)

    def _segment_deliver(self, dst_name: str, src_name: str):
        """Receive callback for session-layer segments: the session
        decides delivery; :meth:`_dispatch_payload` routes the results.
        The channel generations captured here give the frame its
        connection identity — a restart in flight invalidates it."""
        reliable = self.reliable
        stamp = reliable.channel_stamp(src_name, dst_name)

        def deliver(segment: Segment) -> None:
            reliable.deliver_stamped(dst_name, src_name, segment, stamp)

        return deliver

    def _make_deliver(self, dst_name: str, kind: str, src_name: str):
        """Raw-fabric receive callback (``reliable=False`` clusters)."""
        def deliver(message) -> None:
            self._dispatch_payload(dst_name, src_name, kind, message)

        return deliver

    def _dispatch_payload(self, dst_name: str, src_name: str, kind: str, message) -> None:
        if kind == "ring":
            server = self._server_by_name(dst_name)
            if server is not None:
                sender = int(src_name[1:]) if src_name.startswith("s") else None
                server.receive_ring(message, sender)
        elif kind == "srv":
            # Generic server-to-server delivery (baseline protocols).
            server = self._server_by_name(dst_name)
            if server is not None:
                server.receive_server(int(src_name[1:]), message)
        elif kind == "request":
            server = self._server_by_name(dst_name)
            client_id = int(src_name[1:])
            if server is not None:
                server.receive_client(client_id, message)
        elif kind == "reply":
            host = self.clients.get(int(dst_name[1:]))
            if host is not None:
                host.on_reply_delivered(message)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown delivery kind {kind!r}")

    def _server_by_name(self, name: str) -> Optional[ServerHost]:
        return self.servers.get(int(name[1:]))

    # ------------------------------------------------------------------
    # Failure detector
    # ------------------------------------------------------------------

    def _server_crashed(self, process) -> None:
        crashed_id = int(process.name[1:])
        if self.ring.is_alive(crashed_id) and self.ring.num_alive > 1:
            # Track the surviving membership (RingView requires at least
            # one alive member, so the very last crash is not recorded).
            self.ring = self.ring.without(crashed_id)
        if self.fd is not None:
            self.fd.report_crash(crashed_id)
        # Under the heartbeat detector nothing is relayed: the crash is
        # observed — or wrongly conjectured — through missed beacons.

    def _fd_notify(self, crashed_id: int) -> None:
        if self.reliable is not None:
            # The detector firing is the moment every survivor's TCP
            # connection to the dead server resets: abandon the sessions
            # (and their retransmission timers) in both directions.
            # Wire-borne frames of the dead have already landed — the
            # detection delay exceeds any in-flight delivery.
            self.reliable.abandon_peer(f"s{crashed_id}")
        for server_id, host in self.servers.items():
            if server_id != crashed_id and host.alive:
                host.notify_crash(crashed_id)

    def note_crash(self, server_id: int) -> None:
        """Record crash order (called by server hosts as they go down)."""
        self._crash_seq += 1
        self.crash_stamps[server_id] = self._crash_seq

    def crash_server(self, server_id: int) -> None:
        """Crash a server now (tests and fault plans)."""
        self.servers[server_id].crash()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def restart_server(self, server_id: int) -> None:
        """Restart a crashed server now: reload its durable snapshot and
        run the rejoin handshake until the ring folds it back in."""
        self.servers[server_id].restart()

    def reopen_server(self, server_id: int) -> None:
        """Cluster-level bookkeeping for a server restart.

        Runs *before* the host comes back alive: revive the membership
        view, clear the failure detector's suspicion (so a second crash
        is detected again) and re-open the reliable channels — every
        link to the restarted server is a brand-new connection.
        """
        if server_id in self.ring.dead:
            self.ring = self.ring.revived(server_id)
        if self.fd is not None:
            self.fd.report_recovery(server_id)
        if self.reliable is not None:
            self.reliable.reopen_peer(f"s{server_id}")

    def restart_resumes_alone(self, server_id: int) -> bool:
        """Whether a restarting server may resume without a rejoin.

        With the perfect detector, "no other host is alive" is a fact
        the runtime may consult, and a sole survivor restarts straight
        into serving.  The heartbeat detector has no such oracle: a
        restarted server always comes back *rejoining* (unless it is the
        whole cluster) — silence could be a partition, and resuming
        alone without quorum evidence would fork the register.
        """
        if self.config.fd == "heartbeat":
            return self.config.num_servers == 1
        return not any(
            sid != server_id and host.alive for sid, host in self.servers.items()
        )

    def restore_server_protocol(self, server_id: int, generation: int) -> ServerProtocol:
        """Rebuild a server's protocol from its durable snapshot."""
        store = self.durable_stores.setdefault(server_id, MemorySnapshotStore())
        return ServerProtocol.restore(
            server_id,
            range(self.config.num_servers),
            store.load(),
            self.config.protocol,
            durable=store,
            initial_value=self.config.initial_value,
            alone=self.restart_resumes_alone(server_id),
            generation=generation,
        )

    # ------------------------------------------------------------------
    # Trace mirroring (fd="heartbeat")
    # ------------------------------------------------------------------

    def mirror_protocol_stats(self, host) -> None:
        """Fold the protocols' epoch/lease/coding statistics into the
        trace as counter deltas (run at every post-step)."""
        self._mirror_stat(host, "stats_stale_epoch_dropped", EPOCH_STALE_DROPPED)
        self._mirror_stat(host, "stats_quorum_stalls", EPOCH_QUORUM_STALLS)
        self._mirror_stat(
            host, "stats_epoch_rejected_reconfigs", EPOCH_REJECTED_RECONFIGS
        )
        self._mirror_stat(host, "stats_confirm_reconfigs", EPOCH_CONFIRMS)
        if self.config.protocol.read_leases:
            self._mirror_stat(host, "stats_lease_local_reads", LEASE_LOCAL_READS)
            self._mirror_stat(host, "stats_lease_fallbacks", LEASE_FALLBACKS)
            self._mirror_stat(host, "stats_lease_waitouts", LEASE_WAITOUTS)
        if self.config.protocol.value_coding == "coded":
            self._mirror_stat(
                host, "stats_coding_fragment_stores", CODING_FRAGMENT_STORES
            )
            self._mirror_stat(host, "stats_coding_cache_reads", CODING_CACHE_READS)
            self._mirror_stat(
                host, "stats_coding_reconstructions", CODING_RECONSTRUCTIONS
            )
            self._mirror_stat(host, "stats_coding_repairs", CODING_REPAIRS)
            self._mirror_stat(
                host, "stats_coding_pending_dropped", CODING_PENDING_DROPPED
            )

    def _mirror_stat(self, host, stat: str, counter: str) -> None:
        value = sum(getattr(proto, stat) for proto in host.all_protos())
        delta = value - host._mirrored_stats.get(stat, 0)
        if delta > 0:
            self.env.trace.count(counter, delta)
        host._mirrored_stats[stat] = value

    def apply_faults(self, plan: FaultPlan) -> None:
        """Schedule a :class:`~repro.sim.faults.FaultPlan` against this
        cluster: crashes hit the hosts, everything else the nemesis."""
        processes: dict[str, SimProcess] = {
            host.name: host for host in self.servers.values()
        }
        processes.update({host.name: host for host in self.clients.values()})
        plan.apply(self.env, processes, self.nemesis)

    def alive_servers(self) -> list[int]:
        return [sid for sid, host in self.servers.items() if host.alive]

    # ------------------------------------------------------------------
    # History hooks (filled in by the workload/bench layers)
    # ------------------------------------------------------------------

    def record_invoke(
        self, client_id: int, op: OpId, kind: str, value, block: Optional[int] = None
    ) -> None:
        if self.history is not None:
            self.history.invoke(self.env.now, client_id, op, kind, value, block=block)

    def record_response(self, client_id: int, op: OpId, result: OpResult) -> None:
        if self.history is not None:
            self.history.respond(self.env.now, client_id, op, result.value, result.tag)

    # ------------------------------------------------------------------
    # Clock helpers
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def run_until(self, predicate: Callable[[], bool], max_events: int = 10_000_000) -> None:
        """Advance the simulation until ``predicate()`` holds."""
        fired = 0
        while not predicate():
            if not self.env.scheduler.step():
                raise SimulationError("simulation went idle before the condition held")
            fired += 1
            if fired > max_events:
                raise SimulationError("condition not reached within event budget")


def _payload_of(message) -> int:
    """Payload bytes of a message: baseline messages size themselves via
    a ``payload_bytes()`` method; core messages use
    :func:`repro.core.messages.payload_size`."""
    sizer = getattr(message, "payload_bytes", None)
    if callable(sizer):
        return sizer()
    return payload_size(message)


# Public aliases for the baseline runtimes (repro.baselines), which build
# their own server hosts on the same machinery.
HostBase = _HostBase
OutLoop = _OutLoop
ServerHostBase = _ServerHostBase
