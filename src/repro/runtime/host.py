"""Sans-I/O host core: the server-host policy both runtimes share.

The paper's algorithm lives in :class:`~repro.core.server.ServerProtocol`.
Around it every server host runs the same policy: re-evaluate views a
grace delay after suspicion changes (and keep re-evaluating while
blocked), wait out old-epoch read leases, announce a rejoining server to
sponsors with backoff, beacon and grant leases each heartbeat period,
suspect silent peers and revoke their grants, track the holder's own
lease, and drain the ring one frame at a time.  :class:`HostCore` is that
policy, written once.  It owns no clock, socket or event loop:

* every input is a method call carrying whatever clock reading it needs;
* every output is an *effect* the runtime executes, yielded in order.

Each entry point is a generator, and the runtime must execute each
effect before pulling the next: the core goes on to call protocol
handlers after it yields, and those calls must see the effect of a
:class:`Post` or :class:`Kick` (the out-loop may already have pulled
ring messages) exactly as the hand-written runtimes did.  That ordering
is what keeps simulated traces byte-identical.

One core serves one server-host *incarnation*: a restart builds a fresh
core, so timers armed by the previous incarnation are recognised as
stale by identity (the runtime drops a timer whose core is no longer the
host's).  The core works over every protocol instance the host runs
(``protos()``), because the blocks of a sharded host share one failure
detector and one read lease.

What stays in each runtime: transport (nemesis-routed unicasts in the
simulator, TCP writers in asyncio), timers and clocks, and which servers
are candidate rejoin sponsors (see :data:`SponsorPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from repro.core.config import ProtocolConfig
from repro.core.messages import LeaseGrant, LeaseRevoke, RingMessage
from repro.core.server import ServerProtocol
from repro.fd.heartbeat import HeartbeatConfig, HeartbeatTracker, ReadLease
from repro.runtime.interface import Reply
from repro.sim.counters import (
    FD_SUSPICIONS,
    FD_UNSUSPECTS,
    LEASE_EXPIRED,
    LEASE_GRANTED,
    LEASE_RENEWED,
    LEASE_REVOKED,
)

#: Batch-depth budget per full ring traversal: the effective ring-frame
#: batch is ``min(batch_max_messages, BATCH_DEPTH_RING_BUDGET // n)``.
#: 16 keeps the default depth of 4 intact up to the paper's 4-server
#: midpoint and degenerates to 2 at n=8, where deeper frames measurably
#: cost contended read throughput: a frame is stored and forwarded whole
#: at every hop, so the latency a k-deep batch adds to a traversal grows
#: with k*n (figure 3c's contended linearity sags ~5 % at n=8 with k=4).
BATCH_DEPTH_RING_BUDGET = 16

#: Rejoin announcement retry cadence: a rejoining server re-announces
#: itself (to the next candidate sponsor each attempt, round-robin) until
#: a reconfiguration commit resumes it.  The initial period comfortably
#: exceeds a healthy reconfiguration round trip, and the backoff keeps a
#: rejoiner stuck behind a long fault window from spraying announcements
#: that would each trigger a redundant reconfiguration at heal time.
REJOIN_RETRY_INITIAL = 0.25
REJOIN_RETRY_MAX = 1.0

#: Timer kinds a core arms (:class:`ArmTimer`) and is fed back
#: (:meth:`HostCore.on_timer`).
RECONCILE = "reconcile"
WAITOUT = "waitout"
REJOIN = "rejoin"
BEACON = "beacon"
CHECK = "check"


def ring_batch_limit(batch_max_messages: int, num_servers: int) -> int:
    """Ring messages per wire frame on a dedicated ring link: the
    configured knob capped by :data:`BATCH_DEPTH_RING_BUDGET`."""
    return min(batch_max_messages, max(1, BATCH_DEPTH_RING_BUDGET // num_servers))


# -- effects -----------------------------------------------------------


@dataclass(frozen=True)
class Post:
    """Send these client replies (then wake the ring sender too)."""

    replies: list[Reply]


@dataclass(frozen=True)
class Kick:
    """New ring work may be available: wake the ring sender."""


@dataclass(frozen=True)
class ArmTimer:
    """Call :meth:`HostCore.on_timer` with ``kind`` and ``arg`` after
    ``delay`` seconds — unless the host has moved to a new core."""

    delay: float
    kind: str
    arg: Any = None


@dataclass(frozen=True)
class Beacon:
    """Send a heartbeat to ``peer`` (outside any reliable session)."""

    peer: int


@dataclass(frozen=True)
class SendLease:
    """Send a lease grant or revoke to ``peer``, like a beacon."""

    peer: int
    message: Union[LeaseGrant, LeaseRevoke]


@dataclass(frozen=True)
class Count:
    """Add ``amount`` to trace counter ``name`` (a runtime without a
    trace ignores it)."""

    name: str
    amount: int = 1


@dataclass(frozen=True)
class Stepped:
    """A protocol step's post-step policy is about to run (heartbeat
    mode only): the point where a runtime samples protocol statistics."""


@dataclass(frozen=True)
class Suspected:
    """The detector newly suspects ``peer`` (a runtime that knows the
    truth can score whether the suspicion was wrong)."""

    peer: int


Effect = Union[Post, Kick, ArmTimer, Beacon, SendLease, Count, Stepped, Suspected]
Effects = Iterator[Effect]

#: ``(pending, attempt) -> sponsors``: for each still-rejoining protocol
#: in ``pending``, the server to announce to on this attempt (``None``
#: skips that protocol this round), or ``None`` overall when nobody can
#: sponsor and the host should resume alone.
SponsorPolicy = Callable[
    [list[ServerProtocol], int], Optional[list[Optional[int]]]
]

#: A ring frame: ``(destination, messages, directed)``.  Directed frames
#: carry one out-of-ring-order message (rejoin announcement, stale-epoch
#: notice, view-proposal token); the others are successor-bound batches.
RingFrame = tuple[int, list[RingMessage], bool]


class HostCore:
    """Post-step, detector, lease and ring-drain policy for one host
    incarnation.

    ``protos`` returns the host's protocol instances; ``peers`` lists the
    other servers of the cluster (beacon and suspicion targets);
    ``heartbeat`` is the detector configuration, or ``None`` under the
    perfect detector (then only rejoin and ring drain are active).
    ``batching`` false forces one message per ring frame (see
    :attr:`batch_limit`).
    """

    def __init__(
        self,
        server_id: int,
        protos: Callable[[], list[ServerProtocol]],
        config: ProtocolConfig,
        peers: list[int],
        heartbeat: Optional[HeartbeatConfig],
        sponsors: SponsorPolicy,
        batching: bool,
    ):
        self.server_id = server_id
        self.protos = protos
        self.peers = peers
        self.hb = heartbeat
        self.sponsors = sponsors
        #: Epoch-guarded views (the heartbeat detector): the only mode
        #: with post-step policy.  Runtimes test this before calling
        #: :meth:`after_step`, so perfect-detector steps pay one check.
        self.guarded = config.view_quorum
        self.lease_mode = config.read_leases and heartbeat is not None
        self.granting = self.lease_mode and heartbeat.grant_leases
        #: Ring messages per frame.  Runtimes turn ``batching`` off on a
        #: shared NIC: there the ring and the client replies round-robin
        #: frame by frame over one transmit port, so a k-message ring
        #: frame would take a k-fold bandwidth share and starve read
        #: replies (figure 3d's balance).
        self.batch_limit = (
            ring_batch_limit(config.batch_max_messages, len(peers) + 1)
            if batching
            else 1
        )
        self.tracker: Optional[HeartbeatTracker] = None
        self.lease: Optional[ReadLease] = None
        #: Last (valid, epoch) pushed into the protocols, so only
        #: transitions — not every periodic check — reach them.
        self._lease_pushed: Optional[tuple[bool, int]] = None
        self._reconcile_armed = False
        self._rejoin_pumping = False

    # -- ring drain ------------------------------------------------------

    def next_ring_frame(self, proto: ServerProtocol) -> Optional[RingFrame]:
        """The next frame ``proto`` wants on the wire, if any: a directed
        message first, else up to :attr:`batch_limit` successor-bound
        messages."""
        directed = proto.next_directed_message()
        if directed is not None:
            return directed[0], [directed[1]], True
        batch = proto.next_ring_batch(self.batch_limit)
        if not batch:
            return None
        return proto.successor, batch, False

    # -- post-step policy -------------------------------------------------

    def after_step(self) -> Effects:
        """Policy after a protocol step (heartbeat mode): coalesced
        reconcile timers, old-epoch lease wait-outs and the rejoin pump."""
        yield Stepped()
        for proto in self.protos():
            if proto.reconcile_due:
                proto.reconcile_due = False
                yield from self._arm_reconcile(self.hb.propose_grace)
            if proto.lease_waitout_due:
                # After waitout() every grant issued under the superseded
                # epoch has expired on its holder's clock (drift bound
                # charged), so the new epoch may complete writes.
                proto.lease_waitout_due = False
                yield ArmTimer(
                    self.hb.waitout(), WAITOUT, (proto, proto.installed_epoch)
                )
        yield from self.begin_rejoin()

    def _arm_reconcile(self, delay: float) -> Effects:
        """One reconcile timer per host coalesces bursts of detector
        events.  The grace delay covers the suspicion skew between the
        two sides of a partition, so a wrongly suspected server has
        paused before anyone proposes the view that excludes it."""
        if not self._reconcile_armed:
            self._reconcile_armed = True
            yield ArmTimer(delay, RECONCILE)

    def _reconcile(self) -> Effects:
        self._reconcile_armed = False
        for proto in self.protos():
            yield Post(proto.propose_reconfig())
        yield from self.after_step()
        yield Kick()
        if any(proto.blocked_on_view for proto in self.protos()):
            # Watchdog: an attempt can die silently (its token rejected
            # at a peer whose promise pointed at a coordinator that has
            # since been cleared, or lost with a crashed hop) and a
            # quorum stall only heals when the detector changes its
            # mind.  While this server stays blocked, keep re-evaluating
            # — a fresh attempt carries a higher nonce and replaces our
            # own stale promise at every peer.
            yield from self._arm_reconcile(4 * self.hb.propose_grace)

    # -- rejoin ----------------------------------------------------------

    def begin_rejoin(self) -> Effects:
        """Start the rejoin pump if a protocol is rejoining (after a
        restart, or a live server demoted by the epoch guard).  At most
        one pump runs per incarnation; on a sharded host it announces for
        every still-rejoining block."""
        if not self._rejoin_pumping and any(
            proto.rejoining for proto in self.protos()
        ):
            self._rejoin_pumping = True
            yield from self._pump_rejoin(0)

    def _pump_rejoin(self, attempt: int) -> Effects:
        """Announce (and re-announce, with backoff, rotating sponsors)
        until a reconfiguration commit resumes every rejoining protocol."""
        pending = [proto for proto in self.protos() if proto.rejoining]
        if not pending:
            self._rejoin_pumping = False  # folded back in; pump retired
            return
        sponsors = self.sponsors(pending, attempt)
        if sponsors is None:
            # Nobody to rejoin: this server *is* the ring, and its
            # recovered pending writes resolve locally.
            for proto in pending:
                proto.complete_rejoin_alone()
                yield Post(proto.drain_replies())
            self._rejoin_pumping = False
            return
        for proto, sponsor in zip(pending, sponsors):
            if sponsor is not None:
                proto.queue_rejoin_announce(sponsor)
        yield Kick()
        delay = min(REJOIN_RETRY_INITIAL * (2**attempt), REJOIN_RETRY_MAX)
        yield ArmTimer(delay, REJOIN, attempt + 1)

    # -- failure detector and read lease ---------------------------------

    def start(self, now: float, trusting: bool) -> Effects:
        """Start this incarnation's detector (heartbeat mode only).

        A cold start trusts every peer for one timeout.  A restart starts
        *suspect-first*: a snapshot carries no liveness information, so
        until a peer's heartbeat actually arrives the restarted server
        must not vouch for it — a trusting tracker would let it propose
        re-admitting a peer that died while it was down.  Pre-aged
        silence clocks trip the first check; live peers clear within one
        heartbeat period.  The lease is volatile by design
        (docs/leases.md): a new incarnation re-earns every grant.
        """
        if self.hb is None:
            return
        base = now if trusting else now - self.hb.timeout - 1e-9
        self.tracker = HeartbeatTracker(self.peers, self.hb.timeout, now=base, imperfect=True)
        if self.lease_mode:
            self.lease = ReadLease(self.hb.lease_duration)
        yield from self._beacon_round(now)
        yield ArmTimer(self.hb.check_interval, CHECK)

    def _beacon_round(self, now: float) -> Effects:
        for peer in self.peers:
            yield Beacon(peer)
            if self.granting and all(
                proto.may_grant_lease(peer) for proto in self.protos()
            ):
                # Grants ride beside the beacons, outside any session: a
                # retransmitted grant would be a forged freshness signal,
                # and the sent_at stamp makes a delayed one expire on the
                # holder's clock.
                yield SendLease(peer, LeaseGrant(self.server_id, self._epoch(), now))
        yield ArmTimer(self.hb.period, BEACON)

    def _check(self, now: float) -> Effects:
        for peer in self.tracker.check(now):
            yield Count(FD_SUSPICIONS)
            yield Suspected(peer)
            for proto in self.protos():
                yield Post(proto.on_suspect(peer))
            yield from self.after_step()
            if self.granting:
                # Best-effort prompt revocation: the holder's freshness
                # clock is the safety mechanism; this only shortens the
                # serving window when the revoke gets through.
                yield SendLease(peer, LeaseRevoke(self.server_id, self._epoch()))
        if self.lease is not None:
            # Grants expire by clock, not by any arriving message, so the
            # periodic check is what notices.
            yield from self._sync_lease(now, count_expiry=True)
        yield ArmTimer(self.hb.check_interval, CHECK)

    def on_heartbeat(self, peer: int, now: float) -> Effects:
        """A heartbeat from ``peer`` arrived; a late one withdraws a
        wrong suspicion."""
        if self.tracker is not None and self.tracker.heard_from(peer, now):
            yield Count(FD_UNSUSPECTS)
            for proto in self.protos():
                yield Post(proto.on_unsuspect(peer))
            yield from self.after_step()

    def on_lease_message(
        self, message: Union[LeaseGrant, LeaseRevoke], now: float
    ) -> Effects:
        """A grant or revoke arrived for this host's lease.

        The required-grantor set is refreshed *before* the grant is
        admitted: a grantor that entered the view since the last refresh
        must count from its first grant.
        """
        if self.lease is None:
            return
        required = self._required_grantors()
        self.lease.set_required(required)
        if isinstance(message, LeaseRevoke):
            self.lease.revoke(message.grantor)
            yield Count(LEASE_REVOKED)
        elif message.grantor in required:
            newly = self.lease.grant(message.grantor, message.epoch, message.sent_at)
            yield Count(LEASE_GRANTED if newly else LEASE_RENEWED)
        yield from self._sync_lease(now)

    def _required_grantors(self) -> set[int]:
        """Grantors the lease needs: every other alive member of the
        installed view(s) — the union across blocks on a sharded host,
        which can only over-require (strictly safe)."""
        required: set[int] = set()
        for proto in self.protos():
            required.update(proto.installed_view.alive())
        required.discard(self.server_id)
        return required

    def _epoch(self) -> int:
        return min(proto.installed_epoch for proto in self.protos())

    def _sync_lease(self, now: float, count_expiry: bool = False) -> Effects:
        """Re-evaluate the lease and push transitions into the protocols.
        ``count_expiry`` marks the periodic path, where a valid-to-invalid
        flip means grants aged out."""
        self.lease.set_required(self._required_grantors())
        epoch = self._epoch()
        valid = self.lease.valid(now, epoch)
        last = self._lease_pushed
        if last == (valid, epoch):
            return
        if count_expiry and last is not None and last[0] and not valid:
            yield Count(LEASE_EXPIRED)
        self._lease_pushed = (valid, epoch)
        for proto in self.protos():
            yield Post(proto.on_lease_update(valid, epoch))
        yield Kick()

    # -- timers ----------------------------------------------------------

    def on_timer(self, kind: str, arg: Any, now: float) -> Effects:
        """A timer this core armed fired (the runtime has already checked
        that the host is alive and still runs this core)."""
        if kind == RECONCILE:
            yield from self._reconcile()
        elif kind == WAITOUT:
            proto, epoch = arg
            yield Post(proto.lease_waitout_elapsed(epoch))
            yield Kick()
        elif kind == REJOIN:
            yield from self._pump_rejoin(arg)
        elif kind == BEACON:
            yield from self._beacon_round(now)
        elif kind == CHECK:
            yield from self._check(now)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown host timer kind {kind!r}")
