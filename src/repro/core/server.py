"""The server state machine of the atomic storage algorithm.

This module implements the paper's pseudocode lines 11–93 as a sans-I/O
state machine, plus the crash-reconfiguration protocol the paper defers to
its full version.  The mapping to the pseudocode:

====================================  =======================================
Pseudocode                            Here
====================================  =======================================
lines 11–17 (initialisation)          :meth:`ServerProtocol.__init__`
lines 18–20 (receive <write> req)     :meth:`_on_client_write`
lines 21–28 (procedure write)         :meth:`_initiate_write`
lines 29–40 (receive <pre_write>)     :meth:`_on_pre_write`
lines 41–52 (receive <write>)         :meth:`_process_commit`
lines 53–75 (task queue handler)      :meth:`next_ring_message` +
                                      :class:`~repro.core.fairness.FairScheduler`
lines 76–84 (receive <read>)          :meth:`_on_client_read`
lines 85–93 (upon pj crashed)         :meth:`on_server_crash` + reconfig
====================================  =======================================

Differences from the published pseudocode (deliberate fixes or stated
optimisations; see DESIGN.md section 5):

* **Commit messages carry tags only, and piggyback.**  Every server
  stores a pending write's *value* when it forwards the pre-write, so the
  second-phase ("write") message does not need to repeat the value;
  commit tags ride on the next outgoing ring message (Section 4.2's
  "write messages are piggybacked ... without the need for explicit
  acknowledgements").
* **Staleness-terminated commits.**  A commit tag circulates until it
  reaches the first server that already processed it (tracked by a
  per-origin committed-timestamp watermark).  In the failure-free case
  that is one full circle plus one hop; the origin acks its client when
  the tag comes back around.  Unlike terminate-at-origin, this rule stays
  correct when a commit is re-issued by a *different* server during crash
  recovery.
* **Duplicate filtering.**  The pseudocode re-adds ``msg.tag`` to the
  pending set whenever a message is forwarded (line 71), which would
  wedge reads if a crash-retransmitted duplicate were forwarded after its
  commit.  The watermark plus the pending/queued tag sets drop every
  duplicate.
* **Epoch reconfiguration instead of bare retransmission.**  On a crash,
  the detector (the crashed server's alive predecessor) pushes its state
  to the new successor (pseudocode line 88), then circulates a
  state-merge token around the new ring followed by a commit of the
  merged state, and finally re-commits every surviving pending write.
  This subsumes the pseudocode's retransmission (lines 89–91) and
  additionally resolves writes whose origin crashed — otherwise a read
  could block forever on an orphaned pre-write — and redistributes values
  for pre-writes that died mid-ring.
* **Epoch-guarded, quorum-installed views (imperfect detector).**  With
  ``config.view_quorum`` (the operating mode behind the runtimes'
  ``fd="heartbeat"`` option) the perfect-detector shortcut above is
  replaced: suspicion (:meth:`on_suspect`) may be *wrong*, so it never
  splices the view — it pauses the server and, after a grace delay, the
  runtime asks for a proposal (:meth:`propose_reconfig`).  A proposal
  launches only when the surviving members of the installed view form a
  majority of it; its token is admitted only over exactly that view
  (``epoch == installed + 1``), at most one proposal per view wins the
  per-view promise (lowest coordinator id; a forwarded competitor
  abandons one's own attempt), and the commit installs the new view
  wholesale with a strictly larger epoch.  Data traffic across epochs
  is rejected, wrongly excluded servers are fenced with
  :class:`StaleEpochNotice` and fold back in as rejoiners via the
  revived merge.  Full design rationale: docs/reconfiguration.md.
* **At-most-one commit per client write.**  Aggressive retries can get
  one operation initiated under two tags at two servers concurrently
  (partition-heal bursts make this common); each server endorses at
  most one tag per operation (lowest wins, deterministically), an
  origin only commits a returning pre-write it still endorses, and the
  reconfiguration merge keeps one entry per operation — so one write
  can never acquire two write points.
* **Client-operation deduplication.**  Pre-writes carry the client
  operation id; servers remember the highest completed sequence number
  per client (merged during reconfiguration), so a client retrying a
  write whose ack was lost gets an ack instead of a second write.
* **Superseded-initiation hygiene.**  With aggressive client timeouts a
  retry can land at a server that has not yet seen the original
  pre-write (it is stalled, not lost — the session layer retransmits),
  so the same client operation can be *initiated twice* under different
  tags.  Three rules keep that safe.  (1) A server drops any pre-write
  whose operation it already recorded as completed, so a late duplicate
  circle breaks as soon as the real commit has passed.  (2) Each server
  tracks the highest timestamp it has ever *seen* (``ts_seen``, fed by
  every pre-write, commit, state sync and merge — including dropped
  duplicates) and initiates strictly above it; therefore any write that
  begins after an operation was acknowledged outbids every tag that
  operation was ever initiated under, and a straggler duplicate commit
  can never override a newer value (the monotone install rejects it).
  (3) When a commit completes an operation, same-operation pending
  entries under other tags are zombies: they are dropped, their ack
  waiters are answered with the committed tag, and read thresholds
  referencing them are clamped — likewise at reconfiguration, where the
  merged ``completed_ops`` filters them out of the merged pending set so
  the post-merge re-commit cannot resurrect them.
* **Crash recovery.**  The paper's model is crash-stop; this server
  additionally supports restart-and-rejoin, the recovery model of
  erasure-coded atomic-storage successors.  A server persists a
  write-ahead snapshot (:mod:`repro.core.durable`) before any reply
  leaves a handler; after a restart, :meth:`ServerProtocol.restore`
  reloads it and the server comes back *rejoining*: paused, deferring
  reads, and announcing itself (:class:`RejoinRequest`) to a live
  sponsor.  The sponsor folds it back in by coordinating a
  reconfiguration whose token is marked ``revived`` — every receiver
  splices the rejoiner into its ring view before merging, so the token
  and commit traverse the *grown* ring, the rejoiner contributes its
  recovered pending set to the merge, and the commit that ends the
  reconfiguration is exactly the point at which the rejoiner is caught
  up and resumes service.  Snapshotted ``ts_seen`` keeps post-restart
  initiations above every tag the server ever touched, and the
  persisted reconfiguration nonce counter keeps restarted coordinators
  from reusing nonces.
* **Erasure-coded value backend** (``config.value_coding = "coded"``;
  docs/coding.md).  Instead of every server storing every value, the
  origin stripes each write into ``coding_n`` systematic GF(256)
  fragments (:mod:`repro.core.coding`) and sends each ring member only
  *its* fragment directly (:class:`FragmentStore`), while an
  empty-value pre-write circulates as the durability control circle.  A
  receiver parks the pre-write until its fragment arrives, so the full
  circle still proves "every member stores (its share of) the value".
  Tags, commits and the whole control plane stay replicated — only the
  value payload is striped, cutting ring bytes per write from ``n·V``
  to roughly ``(n-1)·V/k``.  Reads reconstruct the full value from
  ``k`` fragments (own + :class:`FragmentFetch`/:class:`FragmentReply`
  from peers) through a single-entry cache; the reconfiguration merge
  unions fragment sets across the token circle and re-derives a
  server's own fragment from any ``k`` others (the RADON-style repair
  path, also used by restarted rejoiners).  Coded mode requires
  ``view_quorum`` and ``coding_k`` within the majority-liveness bound,
  so every installed view retains at least ``k`` fragment holders.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core import coding
from repro.core.config import ProtocolConfig
from repro.core.durable import ServerSnapshot, SnapshotStore
from repro.core.fairness import INITIATE_OWN, FairScheduler
from repro.core.messages import (
    ClientMessage,
    ClientRead,
    ClientWrite,
    Commit,
    FragmentFetch,
    FragmentReply,
    FragmentStore,
    OpId,
    PendingEntry,
    PreWrite,
    ReadAck,
    ReadFence,
    ReconfigCommit,
    ReconfigToken,
    RejoinRequest,
    RingMessage,
    StaleEpochNotice,
    StateSync,
    WriteAck,
)
from repro.core.ring import RingView
from repro.core.tags import Tag, max_tag
from repro.errors import ProtocolError
from repro.runtime.interface import Reply


class ServerProtocol:
    """A single server of the atomic storage ring (sans-I/O).

    Runtime contract:

    * deliver inbound traffic via :meth:`on_client_message`,
      :meth:`on_ring_message` and :meth:`on_server_crash`; each returns
      the :class:`~repro.runtime.interface.Reply` effects to send to
      clients;
    * whenever the outgoing ring link is free and :attr:`has_ring_work`
      is true, pull one message with :meth:`next_ring_message` and send
      it to :attr:`successor`; afterwards collect replies produced as a
      side effect with :meth:`drain_replies`.
    """

    def __init__(
        self,
        server_id: int,
        ring: RingView,
        config: Optional[ProtocolConfig] = None,
        initial_value: bytes = b"",
        durable: Optional[SnapshotStore] = None,
    ):
        if server_id not in set(ring.members):
            raise ProtocolError(f"server {server_id} not a ring member")
        self.server_id = server_id
        self.ring = ring
        self.config = (config or ProtocolConfig()).validate()

        # Erasure-coded value backend (config.value_coding == "coded").
        # The fragment index is the server's position in the *member
        # tuple* (immutable across view changes), so every server
        # derives the same indexing without coordination.
        self._coded = self.config.value_coding == "coded"
        if self._coded and self.config.coding_n != len(ring.members):
            raise ProtocolError(
                f"coding_n={self.config.coding_n} must equal the ring size "
                f"({len(ring.members)} members)"
            )
        self._coding_index = ring.members.index(server_id)
        self._k = self.config.coding_k
        self._n = self.config.coding_n

        #: Durable snapshot store (crash recovery).  When set, the
        #: protocol persists a write-ahead snapshot of its committed and
        #: pending state before any reply leaves a handler, so a restart
        #: via :meth:`restore` never forgets an acknowledged operation.
        self.durable = durable
        self._dirty = False

        # Register state (pseudocode line 12): current value and its tag.
        # In coded mode ``value`` holds this server's *fragment* of the
        # committed value, not the value itself.
        self.value: bytes = initial_value
        self.tag: Tag = Tag.ZERO

        # Coded-mode state (all empty/None in replicated mode).
        #: Tag the stored fragment belongs to.  ``None`` means "matches
        #: ``self.tag``"; a merge that advances the tag past the held
        #: fragment leaves this at the old tag (repaired on next read).
        self.frag_tag: Optional[Tag] = None
        #: Single-entry reconstruction cache: last full value decoded
        #: (or originated) here.  Volatile — never snapshotted.
        self._cache_tag: Optional[Tag] = None
        self._cache_value: Optional[bytes] = None
        #: Full values of writes this server originated, kept until the
        #: pre-write's circle returns (they seed the cache, so the
        #: origin's own reads never pay a reconstruction).
        self._origin_values: dict[Tag, bytes] = {}
        #: Fragments received via FragmentStore for pre-writes not yet
        #: forwarded (the pending entry takes the fragment at forward
        #: time).
        self._frag_stash: dict[Tag, bytes] = {}
        #: Pre-writes parked until their fragment arrives: forwarding
        #: before the fragment is stored would break the full-circle
        #: durability proof.
        self._parked_prewrites: dict[Tag, PreWrite] = {}
        #: In-flight reconstructions: nonce -> state dict; plus a
        #: tag -> nonce map so concurrent reads of one tag coalesce
        #: into a single fetch round.
        self._recon: dict[int, dict] = {}
        self._recon_by_tag: dict[Tag, int] = {}
        self._recon_nonce = 0
        if self._coded:
            fragments = coding.encode(initial_value, self._k, self._n)
            self.value = fragments[self._coding_index]
            self._cache_tag, self._cache_value = Tag.ZERO, initial_value

        # pending_write_set (line 13): tag -> PendingEntry.  The value is
        # kept so commits can be tag-only and reconfiguration can
        # redistribute values.
        self.pending: dict[Tag, PendingEntry] = {}

        # write_queue (line 15): client writes not yet initiated.
        self.write_queue: deque[tuple[OpId, bytes, int]] = deque()

        # forward_queue + nb_msg (lines 14, 16): the fairness scheduler.
        self.fair: FairScheduler[PreWrite] = FairScheduler(
            server_id, fair=self.config.fair_forwarding
        )
        #: Tags currently sitting in the forward queue (duplicate filter).
        self.queued_tags: set[Tag] = set()

        # Commit tags awaiting transmission to the successor.
        self.commit_queue: deque[Tag] = deque()

        # Highest committed timestamp per origin: the duplicate filter
        # and the termination rule for circulating commits.
        self.watermark: dict[int, int] = {}

        # Highest timestamp ever observed in any tag, including tags of
        # dropped duplicates.  New initiations go strictly above it, so
        # a superseded duplicate's eventual commit can never outbid a
        # write that started after the operation was acknowledged.
        self.ts_seen: int = 0

        # Client-op bookkeeping.
        self.completed_ops: dict[int, int] = {}  # client -> max committed seq
        # The commit tag behind each client's max completed seq, where
        # this server knows it (it processed the commit, resolved the
        # write locally, or learned it from a merge).  Lets a
        # deduplicated retry be acked with the *real* committed tag, so
        # completions stay tagged even when the original ack was lost —
        # the benchmark-scale gate requires 100% tag coverage.
        self.completed_tags: dict[int, Tag] = {}
        self.op_index: dict[OpId, Tag] = {}  # in-flight client write -> tag
        self.ack_waiters: dict[Tag, list[tuple[int, OpId]]] = {}

        # Read waiters (line 81): (threshold tag, client, op).
        self.read_waiters: list[tuple[Tag, int, OpId]] = []

        # Reconfiguration state.
        self.paused = False
        self.control_queue: deque[RingMessage] = deque()
        self.deferred_reads: deque[tuple[int, ClientRead]] = deque()
        self._reconfig_counter = 0
        self._seen_reconfigs: set[tuple[int, int]] = set()  # (coordinator, nonce)

        # Crash-recovery state.  A restored server stays in ``rejoining``
        # (paused, announcing itself) until a reconfiguration commit
        # folds it back into the ring; a live server sponsoring someone
        # else's rejoin defers the request while it is itself paused.
        self.rejoining = False
        self.restart_generation = 0
        self._rejoin_sponsor: Optional[int] = None
        self._deferred_rejoins: deque[RejoinRequest] = deque()

        # Epoch-guarded view state (imperfect-detector mode, enabled by
        # ``config.view_quorum``).  ``installed_epoch`` is the epoch of
        # the last *committed* view — the reference every guard compares
        # against (``self.ring`` may run ahead tentatively while a
        # reconfiguration token circulates).  ``suspected`` mirrors the
        # runtime's heartbeat tracker; suspicion pauses the server but
        # never mutates the view directly — only a quorum-installed
        # commit does.  ``view_log`` records every install for the
        # epoch-agreement property tests.
        self.installed_epoch = ring.epoch
        #: The last *committed* view.  ``self.ring`` may run ahead
        #: tentatively while a reconfiguration token circulates (routing
        #: follows the proposal); quorum and base-epoch checks always
        #: anchor here.
        self.installed_view = ring
        self.suspected: set[int] = set()
        self._suspicion_paused = False
        #: One forwarded token per installed view: (base epoch,
        #: coordinator, nonce).  Competing proposals for the same base
        #: are refused unless they outrank the promise (lower
        #: coordinator id, or a fresh retry by the same coordinator), so
        #: two interleaved tokens can never both complete their circle
        #: and install divergent views at the same epoch.
        self._promise: Optional[tuple[int, int, int]] = None
        #: Nonce of this server's own in-flight proposal, if any.
        self._attempt_nonce: Optional[int] = None
        #: Rejoiners that announced themselves (rid -> claimed epoch).
        #: A rejoiner that is alive in the installed view but stale —
        #: restarted before its exclusion installed, or demoted by the
        #: epoch guard — must ride the next proposal as ``revived`` so
        #: the base check lets it merge and catch up; cleared at every
        #: install (still-stale members re-announce).
        self._announced_rejoiners: dict[int, int] = {}
        #: Set by handlers when the runtime should (re-)evaluate the
        #: view proposal after the detector's grace delay.
        self.reconcile_due = False
        #: Directed out-of-ring-order messages (StaleEpochNotice), pulled
        #: by the runtime ahead of ring traffic.
        self.outbox: deque[tuple[int, RingMessage]] = deque()
        self._stale_notified: dict[int, int] = {}  # peer -> epoch notified at
        self.view_log: list[tuple[int, int, int]] = []  # (epoch, coordinator, nonce)

        # Epoch-scoped read leases (``config.read_leases``; docs/leases.md).
        # The runtime owns every clock — grant receipt, expiry, the
        # old-epoch wait-out — and pushes the results in
        # (:meth:`on_lease_update`, :meth:`lease_waitout_elapsed`), so
        # the state machine stays clockless.  None of this state is
        # snapshotted: a restarted server re-earns its lease from
        # scratch, which is what makes excluding leases from durable
        # state a safety feature rather than an omission.
        self.lease_valid = False
        self.lease_epoch = -1
        #: Fences awaiting transmission to the successor (ours and
        #: forwarded), drained behind commit traffic when not paused.
        self.fence_queue: deque[ReadFence] = deque()
        self._fence_nonce = 0
        #: Fence nonce -> reads served when that fence completes its circle.
        self._fence_waiters: dict[int, list[tuple[int, ClientRead]]] = {}
        #: While true (set at a view install that excluded members), new
        #: write initiations are gated until every lease granted under
        #: the old epoch has provably expired (HeartbeatConfig.waitout).
        self._lease_waitout = False
        #: Set by :meth:`_install_view` when a wait-out starts; the
        #: runtime consumes it (clearing it) and arms the wait-out timer,
        #: mirroring the ``reconcile_due`` handshake.
        self.lease_waitout_due = False
        #: Coordinator's post-merge re-commit tags, stashed while the
        #: wait-out runs (re-committing them sooner could complete a
        #: write an old-epoch leaseholder has never seen).
        self._waitout_commit_tags: list[Tag] = []

        self._replies: list[Reply] = []

        # Statistics (read by the benchmark harness and tests).
        self.stats_reads_served = 0
        self.stats_reads_waited = 0
        self.stats_writes_initiated = 0
        self.stats_forwards = 0
        self.stats_commits_processed = 0
        self.stats_duplicates_dropped = 0
        self.stats_superseded_dropped = 0
        self.stats_reconfigs = 0
        self.stats_commit_unknown_tag = 0
        self.stats_rejoins_sponsored = 0
        self.stats_stale_epoch_dropped = 0
        self.stats_quorum_stalls = 0
        self.stats_epoch_rejected_reconfigs = 0
        self.stats_confirm_reconfigs = 0
        self.stats_lease_local_reads = 0
        self.stats_lease_fallbacks = 0
        self.stats_lease_waitouts = 0
        self.stats_coding_fragment_stores = 0
        self.stats_coding_cache_reads = 0
        self.stats_coding_reconstructions = 0
        self.stats_coding_repairs = 0
        self.stats_coding_pending_dropped = 0

    # ------------------------------------------------------------------
    # Durable state (crash recovery)
    # ------------------------------------------------------------------

    def snapshot(self) -> ServerSnapshot:
        """An immutable copy of everything a restart must reload.

        The forward queue is deliberately excluded: a queued pre-write
        still lives in its sender's pending set, and the rejoin merge
        redistributes it.  Session-layer state is likewise excluded — a
        restart is a new channel.
        """
        # The dict-valued fields are captured in insertion order rather
        # than sorted: ``restore`` rebuilds dicts from them, so ordering
        # is semantically irrelevant, and this method runs once per ring
        # send (write-ahead persistence) — sorting here was ~a third of
        # the write hot path.
        return ServerSnapshot(
            server_id=self.server_id,
            members=tuple(self.ring.members),
            dead=tuple(sorted(self.ring.dead)),
            tag=self.tag,
            value=self.value,
            ts_seen=self.ts_seen,
            watermark=tuple(self.watermark.items()),
            completed_ops=tuple(self.completed_ops.items()),
            pending=tuple(self.pending.values()),
            reconfig_counter=self._reconfig_counter,
            epoch=self.installed_epoch,
            completed_tags=tuple(self.completed_tags.items()),
            frag_tag=self.frag_tag,
        )

    @classmethod
    def restore(
        cls,
        server_id: int,
        members,
        snapshot: Optional[ServerSnapshot],
        config: Optional[ProtocolConfig] = None,
        durable: Optional[SnapshotStore] = None,
        *,
        initial_value: bytes = b"",
        alone: bool = False,
        generation: int = 1,
    ) -> "ServerProtocol":
        """Rebuild a server from its durable snapshot after a restart.

        ``snapshot`` may be ``None`` (the server crashed before it ever
        persisted); recovery then starts from initial state —
        ``initial_value`` must match what the server was originally
        built with, or a pre-populated register would restart empty.  With
        ``alone=False`` the server comes back *rejoining*: paused,
        deferring reads, and announcing itself until a reconfiguration
        commit folds it back into the ring with the merged state.  With
        ``alone=True`` (no other server is alive) there is nobody to
        rejoin: the server resumes immediately as the sole survivor and
        resolves its recovered pending writes locally.
        """
        members = tuple(members)
        if alone:
            dead = frozenset(members) - {server_id}
        elif snapshot is not None:
            dead = frozenset(snapshot.dead) - {server_id}
        else:
            dead = frozenset()
        epoch = snapshot.epoch if snapshot is not None else 0
        proto = cls(
            server_id,
            RingView(members, dead, epoch),
            config,
            initial_value=initial_value,
            durable=durable,
        )
        proto.installed_epoch = epoch
        proto.installed_view = proto.ring
        if snapshot is not None:
            proto.value = snapshot.value
            proto.tag = snapshot.tag
            proto.frag_tag = snapshot.frag_tag
            if proto._coded and snapshot.tag != Tag.ZERO:
                # The initial-value cache seeded by __init__ no longer
                # matches the restored tag; reads reconstruct instead.
                proto._cache_tag, proto._cache_value = None, None
            proto.ts_seen = snapshot.ts_seen
            proto.watermark = dict(snapshot.watermark)
            proto.completed_ops = dict(snapshot.completed_ops)
            proto.completed_tags = dict(snapshot.completed_tags)
            proto.pending = {entry.tag: entry for entry in snapshot.pending}
            proto.op_index = {entry.op: entry.tag for entry in snapshot.pending}
            proto._reconfig_counter = snapshot.reconfig_counter
        proto.restart_generation = generation
        if alone:
            # Sole survivor: recovered pending writes commit locally, in
            # tag order, exactly as a live server resolves them when the
            # ring shrinks to one.
            if proto.pending:
                proto._resolve_alone()
                proto.drain_replies()  # no client is waiting across a restart
        else:
            proto.rejoining = True
            proto.paused = True
        proto._dirty = True
        proto._maybe_persist()
        return proto

    @classmethod
    def from_transfer(
        cls,
        server_id: int,
        members,
        snapshot: Optional[ServerSnapshot],
        config: Optional[ProtocolConfig] = None,
        durable: Optional[SnapshotStore] = None,
        *,
        initial_value: bytes = b"",
        generation: int = 0,
    ) -> "ServerProtocol":
        """Adopt a migrated block's state on a *new* ring (live migration).

        The third install mode, distinct from :meth:`restore`'s two: the
        rebalancer drained the source ring before snapshotting, so the
        snapshot carries no pending writes, and every member of the
        destination ring installs the *same* state over the same
        fully-alive view — there is nothing to merge and nobody to
        rejoin (``restore(alone=False)`` would leave all destination
        members paused waiting to sponsor each other).  The server starts
        serving the moment the placement cutover routes traffic to it.

        The view epoch continues from the snapshot's: a frame from the
        source ring's superseded incarnation that survives in the fabric
        can never outrank the destination's installed epoch.
        """
        members = tuple(members)
        epoch = snapshot.epoch if snapshot is not None else 0
        proto = cls(
            server_id,
            RingView(members, frozenset(), epoch),
            config,
            initial_value=initial_value,
            durable=durable,
        )
        proto.installed_epoch = epoch
        proto.installed_view = proto.ring
        if snapshot is not None:
            proto.value = snapshot.value
            proto.tag = snapshot.tag
            proto.frag_tag = snapshot.frag_tag
            if proto._coded and snapshot.tag != Tag.ZERO:
                proto._cache_tag, proto._cache_value = None, None
            proto.ts_seen = snapshot.ts_seen
            proto.watermark = dict(snapshot.watermark)
            proto.completed_ops = dict(snapshot.completed_ops)
            proto.completed_tags = dict(snapshot.completed_tags)
            proto._reconfig_counter = snapshot.reconfig_counter
            # pending is deliberately *not* installed: the drain predicate
            # (:meth:`quiescent` on every alive source member) guarantees
            # the snapshot was taken with an empty pending set, and a
            # non-empty one here would mean the handoff raced the drain.
            if snapshot.pending:
                raise ProtocolError(
                    f"block transfer snapshot for server {server_id} carries "
                    f"{len(snapshot.pending)} pending write(s); the source "
                    "ring was not drained"
                )
        proto.restart_generation = generation
        proto._dirty = True
        proto._maybe_persist()
        return proto

    def quiescent(self) -> bool:
        """No client-visible work in flight on this block.

        The migration drain predicate: a snapshot taken while every
        alive member of the source ring reports quiescent carries no
        pending writes, no queued client work and no circulating ring
        traffic originated here — so the destination ring can adopt it
        with :meth:`from_transfer` without a merge.  A rejoining or
        paused member is *not* quiescent: its state may trail the ring.
        """
        return not (
            self.pending
            or self.write_queue
            or self.commit_queue
            or self.queued_tags
            or self.fence_queue
            or self.ack_waiters
            or self.read_waiters
            or self.deferred_reads
            or self.rejoining
            or self.paused
            or self.has_ring_work
        )

    def queue_rejoin_announce(self, sponsor: int) -> None:
        """Target the next rejoin announcement at ``sponsor``.

        The runtime picks sponsors (any server it believes alive) and
        re-queues announcements on a timer until :attr:`rejoining`
        clears; the request itself is idempotent at the sponsor.
        """
        if self.rejoining:
            self._rejoin_sponsor = sponsor

    def next_rejoin_announce(self) -> Optional[tuple[int, RejoinRequest]]:
        """The pending ``(sponsor, announcement)``, if one is queued.

        Pulled by the runtime's outbound pump ahead of ring traffic —
        the announcement travels outside ring order because the
        rejoiner is not part of anyone's ring yet.
        """
        if self._rejoin_sponsor is None:
            return None
        sponsor, self._rejoin_sponsor = self._rejoin_sponsor, None
        return sponsor, RejoinRequest(
            self.server_id, self.restart_generation, self.installed_epoch
        )

    def next_directed_message(self) -> Optional[tuple[int, RingMessage]]:
        """The next out-of-ring-order ``(destination, message)``, if any.

        Pulled by the runtime's outbound pump ahead of ring traffic:
        rejoin announcements, stale-epoch notices and reconfiguration
        tokens whose first hop differs from the installed successor.
        """
        announce = self.next_rejoin_announce()
        if announce is not None:
            return announce
        if self.outbox:
            return self.outbox.popleft()
        return None

    def complete_rejoin_alone(self) -> None:
        """End a rejoin with no live sponsor: this server is the ring.

        The runtime calls this when every other server is dead — there
        is nobody to announce to, and with a perfect failure detector
        "nobody answers" *means* "nobody is alive".  Recovered pending
        writes resolve locally, exactly as a live sole survivor resolves
        them when the ring shrinks to one.
        """
        if not self.rejoining:
            return
        self.ring = RingView(
            self.ring.members,
            frozenset(self.ring.members) - {self.server_id},
            max(self.ring.epoch, self.installed_epoch) + 1,
        )
        self.installed_epoch = self.ring.epoch
        self.installed_view = self.ring
        self.rejoining = False
        self._rejoin_sponsor = None
        self._resolve_alone()
        self._maybe_persist()

    def _mark_dirty(self) -> None:
        self._dirty = True

    def _maybe_persist(self) -> None:
        if self._dirty and self.durable is not None:
            self.durable.save(self.snapshot())
            self._dirty = False

    # ------------------------------------------------------------------
    # Public protocol surface
    # ------------------------------------------------------------------

    @property
    def successor(self) -> int:
        """Current ring successor (pseudocode ``pnext``)."""
        return self.ring.successor(self.server_id)

    @property
    def alone(self) -> bool:
        """True when this server is the only survivor."""
        return self.ring.num_alive == 1

    def on_client_message(self, client: int, message: ClientMessage) -> list[Reply]:
        """Handle a client request (pseudocode lines 18–20 and 76–84)."""
        if isinstance(message, ClientWrite):
            self._on_client_write(client, message)
        elif isinstance(message, ClientRead):
            self._on_client_read(client, message)
        else:
            raise ProtocolError(f"unexpected client message: {message!r}")
        self._maybe_persist()
        return self.drain_replies()

    def on_ring_message(
        self, message: RingMessage, sender: Optional[int] = None
    ) -> list[Reply]:
        """Handle a message from the ring predecessor.

        ``sender`` is the hop sender's server id when the runtime knows
        it; the epoch guard uses it to notify a stale peer that the ring
        moved on without it.
        """
        if self.config.view_quorum and isinstance(
            message,
            (PreWrite, Commit, StateSync, ReadFence,
             FragmentStore, FragmentFetch, FragmentReply),
        ):
            # Epoch guard: data traffic is valid only within the sender's
            # and receiver's *common* installed view.  Traffic from an
            # older epoch is a wrongly-suspected (or healed) server that
            # does not know it was excluded — tell it; traffic from a
            # newer epoch means *we* are the stale one (possible only on
            # reordered seams) and must not process writes we cannot
            # place.
            if message.epoch != self.installed_epoch:
                # This path touches only stats and the outbox — nothing
                # the snapshot covers — so no persist is needed here
                # (the writeahead staticheck rule proves every handler
                # leaves covered state clean).
                self.stats_stale_epoch_dropped += 1
                if message.epoch < self.installed_epoch and sender is not None:
                    self._notify_stale(sender)
                return self.drain_replies()
        if isinstance(message, PreWrite):
            self._process_commits(message.commits)
            self._on_pre_write(message)
        elif isinstance(message, Commit):
            self._process_commits(message.commits)
        elif isinstance(message, StateSync):
            self._process_commits(message.commits)
            self._on_state_sync(message)
        elif isinstance(message, ReconfigToken):
            self._on_reconfig_token(message)
        elif isinstance(message, ReconfigCommit):
            self._on_reconfig_commit(message)
        elif isinstance(message, RejoinRequest):
            self._on_rejoin_request(message)
        elif isinstance(message, StaleEpochNotice):
            self._on_stale_epoch(message)
        elif isinstance(message, ReadFence):
            self._on_read_fence(message)
        elif isinstance(message, FragmentStore):
            self._on_fragment_store(message)
        elif isinstance(message, FragmentFetch):
            self._on_fragment_fetch(message)
        elif isinstance(message, FragmentReply):
            self._on_fragment_reply(message)
        else:
            raise ProtocolError(f"unexpected ring message: {message!r}")
        self._maybe_persist()
        return self.drain_replies()

    def on_server_crash(self, crashed: int) -> list[Reply]:
        """Perfect-failure-detector notification (pseudocode lines 85–93)."""
        if crashed == self.server_id:
            raise ProtocolError("a server cannot be notified of its own crash")
        if crashed in self.ring.dead or crashed not in set(self.ring.members):
            return self.drain_replies()

        if self.rejoining:
            # Not part of anyone's ring yet: note the crash, stay paused.
            # Coordinating a reconfiguration from outside the ring would
            # circulate a token nobody routes back (every survivor still
            # considers this server dead); the announcement retry brings
            # us in through a live sponsor instead.
            self.ring = self.ring.without(crashed)
            self._maybe_persist()
            return self.drain_replies()

        was_successor = self.successor == crashed
        self.ring = self.ring.without(crashed)
        self.stats_reconfigs += 1

        if self.alone:
            self._resolve_alone()
            self._maybe_persist()
            return self.drain_replies()

        if was_successor:
            # We are the detector: splice the ring (line 87), push our
            # committed state to the new successor (line 88), then run
            # the state-merge reconfiguration, which subsumes the
            # pending-pre-write retransmission of lines 89-91.
            self.control_queue.append(StateSync(self.tag, self.value))
            self._start_reconfig()
        else:
            # Await the coordinator's token; suspend normal ring traffic.
            self.paused = True
        self._maybe_persist()
        return self.drain_replies()

    # ------------------------------------------------------------------
    # Imperfect failure detector (epoch-guarded views, config.view_quorum)
    # ------------------------------------------------------------------

    def on_suspect(self, peer: int) -> list[Reply]:
        """Heartbeat-detector suspicion of ``peer`` (may be wrong!).

        Unlike :meth:`on_server_crash`, suspicion never splices the
        view.  It (1) pauses this server — if a view member may be gone,
        locally-served reads are no longer provably fresh, and a server
        on the wrong side of a partition must stop serving *before* the
        other side installs a view without it — and (2) asks the runtime
        to re-evaluate the view proposal after the detector's grace
        delay (:attr:`reconcile_due`).
        """
        if not self.config.view_quorum:
            raise ProtocolError("on_suspect requires view_quorum mode")
        if peer == self.server_id or peer not in set(self.ring.members):
            return self.drain_replies()
        if peer in self.suspected:
            return self.drain_replies()
        self.suspected.add(peer)
        if self._promise is not None and self._promise[1] == peer:
            # The coordinator we promised this view transition to may be
            # gone; release the promise so a surviving proposer can move
            # the epoch.
            self._promise = None
        if self.installed_view.is_alive(peer) and not self.rejoining:
            self.paused = True
            self._suspicion_paused = True
            self.reconcile_due = True
        return self.drain_replies()

    def on_unsuspect(self, peer: int) -> list[Reply]:
        """A suspected peer's heartbeat arrived late: it is alive.

        The wrong suspicion is withdrawn; if the peer was already
        excluded from the installed view, re-admitting it takes a
        reconfiguration (the runtime is asked to propose one), and if we
        paused over a suspicion that has now evaporated, a *confirm*
        reconfiguration proves the view is still live before we resume.
        """
        if not self.config.view_quorum:
            raise ProtocolError("on_unsuspect requires view_quorum mode")
        if peer not in self.suspected:
            return self.drain_replies()
        self.suspected.discard(peer)
        if not self.rejoining and (
            self._suspicion_paused
            or peer in self.installed_view.dead
        ):
            self.reconcile_due = True
        return self.drain_replies()

    # ------------------------------------------------------------------
    # Read leases (config.read_leases; docs/leases.md)
    # ------------------------------------------------------------------

    def on_lease_update(self, valid: bool, epoch: int) -> list[Reply]:
        """Runtime-pushed lease validity transition.

        ``epoch`` is the epoch the runtime's :class:`~repro.fd.heartbeat.
        ReadLease` found every required grant stamped with; serving
        additionally requires it to equal :attr:`installed_epoch` at
        read time (checked per read, so a view install between updates
        cannot be served against).
        """
        self.lease_valid = valid
        self.lease_epoch = epoch if valid else -1
        return self.drain_replies()

    def may_grant_lease(self, peer: int) -> bool:
        """Grantor-side gate: may this server extend ``peer``'s lease?

        Grants flow only toward peers the grantor currently believes
        are full, caught-up members of its installed view: never to a
        suspect (suspicion and a live grant would let the detector's
        two hands disagree), never to an announced rejoiner (it holds
        stale state until the revived merge catches it up — a lease
        would let it serve that state), and never while this server is
        itself paused, rejoining, or mid-proposal (its own view may be
        about to move).
        """
        if not (self.config.read_leases and self.config.view_quorum):
            return False
        if self.rejoining or self.paused:
            return False
        if peer == self.server_id or not self.installed_view.is_alive(peer):
            return False
        if peer in self.suspected or peer in self._announced_rejoiners:
            return False
        return True

    def lease_waitout_elapsed(self, epoch: int) -> list[Reply]:
        """The old-epoch lease wait-out for ``epoch`` ran its course.

        Every lease granted under the superseded view has now provably
        expired on its holder's clock (drift bound included), so the new
        epoch may complete writes: initiation un-gates, and the
        coordinator's stashed post-merge re-commits flow.  A stale
        timer — a newer view installed meanwhile — is ignored; that
        install started its own wait-out.
        """
        if epoch != self.installed_epoch or not self._lease_waitout:
            return self.drain_replies()
        self._lease_waitout = False
        for tag in self._waitout_commit_tags:
            self.commit_queue.append(tag)
        self._waitout_commit_tags = []
        return self.drain_replies()

    @property
    def blocked_on_view(self) -> bool:
        """Paused on a view change this server itself must push along:
        suspicion-paused, or waiting on its own in-flight proposal (not
        rejoining, which a sponsor resolves).  The host keeps
        re-evaluating the proposal while this holds."""
        return (
            self.paused
            and not self.rejoining
            and (self._suspicion_paused or self._attempt_nonce is not None)
        )

    def propose_reconfig(self) -> list[Reply]:
        """Re-evaluate the view proposal (runtime-called, grace-delayed).

        Compares the detector's suspicion set against the installed
        view and, when this server is the responsible coordinator and
        the proposed view retains an ack quorum of the current one,
        launches the state-merge reconfiguration.  Without quorum the
        proposal is *refused*: the server stays paused — wrong suspicion
        costs liveness, never linearizability — until a heal shrinks the
        suspicion set.  A suspicion-paused server whose suspicions have
        all evaporated runs a membership-preserving *confirm*
        reconfiguration: its commit is the proof that the current view
        (not a successor installed elsewhere) is still live, which a
        healed minority cannot produce — its stale-epoch token earns a
        :class:`StaleEpochNotice` and a rejoin instead.
        """
        self.reconcile_due = False
        if not self.config.view_quorum or self.rejoining:
            return self.drain_replies()
        if len(self.ring.members) == 1:
            return self.drain_replies()  # no peers, nothing to suspect
        if (
            self._promise is not None
            and self._promise[0] == self.installed_epoch
            and self._promise[1] != self.server_id
        ):
            # Another coordinator's transition out of this view is in
            # flight and we forwarded its token; proposing against it
            # would only be refused.  Its commit (or its coordinator's
            # suspicion, which releases the promise) re-triggers us.
            return self.drain_replies()
        view = self.installed_view
        members = set(view.members)
        suspected = self.suspected & members
        to_exclude = sorted(s for s in suspected if view.is_alive(s))
        to_readmit = sorted(s for s in view.dead if s not in suspected)
        # Announced rejoiners that are alive in the installed view but
        # claim an *older* epoch are stale, not absent: they restarted
        # before their exclusion installed, or the epoch guard demoted
        # them, or a commit died mid-circle and left them behind.  They
        # must traverse the next token as ``revived`` (exempt from the
        # base-epoch check) to be caught up by the merge — a proposal
        # that routes through them without the marking dies at their
        # staleness forever.  Announcers already *at* our epoch pass the
        # base check unaided and keep their full arbitration role; they
        # merely need some commit to resume, which the confirm branch
        # below guarantees exists.
        announced = [
            (rid, epoch)
            for rid, epoch in sorted(self._announced_rejoiners.items())
            if rid in members
            and rid != self.server_id
            and rid not in suspected
            and view.is_alive(rid)
        ]
        stale_members = sorted(
            rid for rid, epoch in announced if epoch < self.installed_epoch
        )
        current_rejoiners = [
            rid for rid, epoch in announced if epoch >= self.installed_epoch
        ]
        if not to_exclude and not to_readmit and not stale_members:
            if (
                self._suspicion_paused
                or self._attempt_nonce is not None
                or current_rejoiners
            ):
                # Confirm: same membership, next epoch.  Also supersedes
                # a pending attempt of our own whose proposal no longer
                # matches the detector (e.g. it tried to revive a peer
                # that has since fallen silent): the stuck token dies by
                # abandonment and the confirm — which circulates live
                # members only — unblocks everyone promised to us.
                self.stats_confirm_reconfigs += 1
                self._propose_view(set(view.dead), ())
            return self.drain_replies()
        proposed_dead = (set(view.dead) | set(to_exclude)) - set(to_readmit)
        # The ack quorum is counted over the *installed* view's alive
        # members only: the token's full circle collects an ack from
        # every proposed-ring member, but revived servers are not part
        # of the view being superseded (and stale members, though
        # nominally in it, skip the promise arbitration) — neither may
        # pad the count, or a minority plus a rejoiner could
        # out-install the real majority.
        old_acks = len(set(view.alive()) - proposed_dead - set(stale_members))
        if old_acks < view.quorum:
            # No quorum of the current view survives into the proposal:
            # refuse to install.  Both sides of a partition land here
            # symmetrically — neither can move the epoch, so neither
            # can serve, and the first heal re-triggers reconciliation.
            self.stats_quorum_stalls += 1
            self.paused = True
            self._suspicion_paused = True
            return self.drain_replies()
        # No coordinator election: *every* member that sees the diff
        # proposes once its grace timer fires.  A designated coordinator
        # (say, the suspected server's predecessor) can itself be stale,
        # rejoining or freshly crashed — electing it would deadlock the
        # ring — while concurrent proposals are safe by construction:
        # the per-view promise arbitrates toward the lowest coordinator
        # id and every outranked attempt is abandoned mid-circle.
        self.stats_reconfigs += 1
        self._propose_view(
            proposed_dead, tuple(sorted(set(to_readmit) | set(stale_members)))
        )
        return self.drain_replies()

    def _propose_view(self, proposed_dead, revived: tuple[int, ...]) -> None:
        """Coordinator side: circulate a token for the proposed view.

        The coordinator adopts the proposed membership *tentatively*
        (``installed_view``/``installed_epoch`` stay anchored until the
        commit) and sends the token through the ordinary control
        pipeline.  Routing through the ring — never directly to the
        proposal's first hop — is what keeps the happens-before between
        a just-created commit and a follow-up proposal: the token rides
        the same FIFO links behind the commit, so no receiver ever sees
        a proposal based on a view it has not installed yet.
        """
        self.paused = True
        self._reconfig_counter += 1
        self._attempt_nonce = self._reconfig_counter
        self._promise = (
            self.installed_epoch, self.server_id, self._reconfig_counter
        )
        self._mark_dirty()
        token = ReconfigToken(
            nonce=self._reconfig_counter,
            epoch=self.installed_epoch + 1,
            coordinator=self.server_id,
            dead=tuple(sorted(proposed_dead)),
            tag=self.tag,
            value=self._register_blob() if self._coded else self.value,
            pending=self._pending_snapshot(),
            completed_ops=tuple(sorted(self.completed_ops.items())),
            revived=tuple(sorted(revived)),
            completed_tags=tuple(sorted(self.completed_tags.items())),
        )
        self.ring = self.installed_view.at_epoch(
            self.installed_epoch + 1, frozenset(proposed_dead)
        )
        self.control_queue.append(token)
        self._maybe_persist()

    def _notify_stale(self, peer: int) -> None:
        """Queue a StaleEpochNotice to ``peer``, once per installed epoch."""
        if self._stale_notified.get(peer) == self.installed_epoch:
            return
        self._stale_notified[peer] = self.installed_epoch
        self.outbox.append(
            (peer, StaleEpochNotice(self.installed_epoch, self.server_id))
        )

    def _on_stale_epoch(self, message: StaleEpochNotice) -> None:
        """The ring installed views we never saw: stop and rejoin."""
        if not self.config.view_quorum:
            return
        if message.epoch <= self.installed_epoch or self.rejoining:
            return
        self._enter_rejoining()

    def _enter_rejoining(self) -> None:
        """Demote this live-but-stale server to a rejoiner.

        Same posture as a restarted server: paused, deferring reads,
        announcing itself until a sponsor's revived reconfiguration
        commit carries the merged state (including this server's
        recovered pending writes) back to it.  Nothing is discarded —
        the fold-in merge is what redistributes the pending set.
        """
        self.rejoining = True
        self.paused = True
        self._suspicion_paused = False
        self._rejoin_sponsor = None
        self._attempt_nonce = None
        self._promise = None
        # In-flight fragment fetches carry our (now superseded) epoch
        # and can never be answered; route their reads back through the
        # deferred queue to re-reconstruct after the fold-in merge.
        self._requeue_recon_waiters()
        if self.config.read_leases:
            # A rejoiner must re-earn its lease after the fold-in merge;
            # until then nothing may be served locally, and any fence in
            # flight died with our ring membership.
            self.lease_valid = False
            self.lease_epoch = -1
            self._lease_waitout = False
            self._waitout_commit_tags = []
            self._requeue_fence_waiters()

    @property
    def has_ring_work(self) -> bool:
        """Whether :meth:`next_ring_message` would return a message."""
        if self.control_queue or self.outbox:
            return True
        if self.paused or self.alone:
            return False
        return bool(
            self.commit_queue
            or self.write_queue
            or self.fence_queue
            or not self.fair.empty
        )

    def next_ring_message(self) -> Optional[RingMessage]:
        """Pull the next message for the successor (the ``queue handler``
        task, lines 53–75, plus commit piggybacking)."""
        message = self._next_ring_message()
        # Initiating or forwarding mutates the pending set; persist
        # before the message leaves (write-ahead of the wire).
        self._maybe_persist()
        return message

    def next_ring_batch(self, limit: int) -> list[RingMessage]:
        """Pull up to ``limit`` successor-bound messages for one wire
        frame (:attr:`ProtocolConfig.batch_max_messages`).

        Persistence stays write-ahead — the single :meth:`_maybe_persist`
        below runs before the runtime puts any of these messages on the
        wire — but is amortised over the whole batch instead of paid per
        message.  The drain stops early if the successor changes between
        pulls (a control message may retarget the ring) so one frame
        never mixes destinations.
        """
        batch: list[RingMessage] = []
        successor = self.successor
        while len(batch) < limit:
            message = self._next_ring_message()
            if message is None:
                break
            batch.append(message)
            if self.successor != successor:
                break
        # Unconditional: a drain that yields no message may still have
        # mutated covered state (e.g. a duplicate write absorbed during
        # initiation), and _maybe_persist is a no-op when nothing is
        # dirty anyway.
        self._maybe_persist()
        return batch

    def _next_ring_message(self) -> Optional[RingMessage]:
        if self.control_queue:
            return self._attach_commits(self.control_queue.popleft())
        if self.paused or self.alone:
            return None

        choice = self.fair.choose(
            # Initiation is gated while an old-epoch lease wait-out runs:
            # a write completing before every old lease died could be
            # invisible to a leaseholder still serving reads.
            want_initiate=bool(self.write_queue) and not self._lease_waitout
        )
        if choice == INITIATE_OWN:
            message = self._initiate_write()
            if message is not None:
                return self._attach_commits(message)
            if self.write_queue or not self.fair.empty:
                # The popped write was absorbed (duplicate); keep going.
                return self._next_ring_message()
        elif choice is not None:
            _origin, prewrite = choice
            self.queued_tags.discard(prewrite.tag)
            if self._is_stale(prewrite.tag):
                # Committed while queued (possible around reconfigs).
                self.stats_duplicates_dropped += 1
                return self._next_ring_message()
            if self._op_completed(prewrite.op):
                # A duplicate initiation whose operation committed under
                # another tag while this copy sat queued; forwarding it
                # would re-enter it into our pending set as a zombie.
                if self.op_index.get(prewrite.op) == prewrite.tag:
                    del self.op_index[prewrite.op]
                self.stats_superseded_dropped += 1
                return self._next_ring_message()
            endorsed = self.op_index.get(prewrite.op)
            if endorsed is not None and endorsed != prewrite.tag:
                # While this copy sat queued, a lower-tag copy of the
                # same operation was endorsed; forwarding both would let
                # two circles race to commit one write.
                self.stats_superseded_dropped += 1
                return self._next_ring_message()
            entry_value = prewrite.value
            if self._coded:
                # The pre-write circulates empty; the stored share is
                # the stashed fragment (its arrival is what unparked
                # this pre-write, so it is normally present — a merge
                # racing the forward clears both queue and stash, so a
                # missing fragment means the entry is already covered).
                fragment = self._frag_stash.pop(prewrite.tag, None)
                if fragment is None:
                    self.stats_duplicates_dropped += 1
                    return self._next_ring_message()
                entry_value = fragment
            # Line 71: entering pending at *forward* time keeps reads
            # immediate for as long as possible; by the time any commit
            # for this tag can exist, we have forwarded the pre-write.
            self.pending[prewrite.tag] = PendingEntry(
                prewrite.tag, entry_value, prewrite.op
            )
            self.op_index[prewrite.op] = prewrite.tag
            self.stats_forwards += 1
            self._mark_dirty()
            # Build the outgoing pre-write directly with its piggybacked
            # commits rather than routing through _attach_commits, which
            # would construct the PreWrite twice.
            return PreWrite(
                prewrite.tag,
                prewrite.value,
                prewrite.op,
                self._pull_commit_tags(carrier_is_commit=False),
                self.installed_epoch,
            )

        if self.commit_queue:
            return self._attach_commits(Commit(()))
        if self.fence_queue:
            # Behind commit traffic, never ahead of it: a fence must not
            # delay the commits whose arrival answers threshold-waiting
            # reads, and the commit queue fully drains into one carrier.
            return self.fence_queue.popleft()
        return None

    def drain_replies(self) -> list[Reply]:
        """Replies produced since the last drain."""
        replies, self._replies = self._replies, []
        return replies

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _on_client_write(self, client: int, message: ClientWrite) -> None:
        op = message.op
        # Duplicate of a committed write (retry after a lost ack):
        # carry the committed tag so the completion stays tag-covered.
        if self._op_completed(op):
            self._reply(client, WriteAck(op, self._completed_tag(op)))
            return
        # Duplicate of an in-flight write: join its ack waiters.
        tag = self.op_index.get(op)
        if tag is not None:
            self.ack_waiters.setdefault(tag, []).append((client, op))
            return
        if self.alone and not self.paused and not self._lease_waitout:
            self._commit_locally(op, message.value, client)
            return
        self.write_queue.append((op, message.value, client))

    def _on_client_read(self, client: int, message: ClientRead) -> None:
        if self.paused:
            # During reconfiguration the pending set is in flux; defer.
            self.deferred_reads.append((client, message))
            return
        if self.config.read_leases:
            # Leased read path: serve locally only while the lease is
            # valid *for the installed epoch* and local state covers the
            # client's session; otherwise prove epoch liveness with a
            # full-circle fence before serving.
            if (
                self.lease_valid
                and self.lease_epoch == self.installed_epoch
                and self._session_covered(message.session)
            ):
                self.stats_lease_local_reads += 1
                self._serve_read_locally(client, message)
            else:
                self.stats_lease_fallbacks += 1
                self._fence_read(client, message)
            return
        self._serve_read_locally(client, message)

    def _serve_read_locally(self, client: int, message: ClientRead) -> None:
        if not self.pending:
            # Lines 77-78: reads are local and immediate when there is no
            # write in progress.
            self.stats_reads_served += 1
            self._answer_read(client, message.op)
            return
        # Lines 80-82: wait until the highest currently-pending write has
        # committed, then answer with the (current) committed value.
        threshold = max_tag(self.pending.keys())
        self.stats_reads_waited += 1
        self.read_waiters.append((threshold, client, message.op))

    def _answer_read(self, client: int, op: OpId) -> None:
        """Produce the read value for the *current* committed tag.

        Replicated mode answers from the register directly.  Coded mode
        must materialise the full value: from the single-entry cache
        (populated by origination, reconstruction and merge repair), by
        a trivial local decode when ``k == 1``, or by fetching ``k``
        fragments from peers — in which case the reply is deferred
        until the reconstruction completes.
        """
        if not self._coded:
            self._reply(client, ReadAck(op, self.value, self.tag))
            return
        if self._cache_tag == self.tag:
            self.stats_coding_cache_reads += 1
            self._reply(client, ReadAck(op, self._cache_value, self.tag))
            return
        if self.frag_tag is None and self._k == 1:
            full = coding.decode(
                {self._coding_index: self.value}, self._k, self._n
            )
            self._cache_tag, self._cache_value = self.tag, full
            self.stats_coding_reconstructions += 1
            self._reply(client, ReadAck(op, full, self.tag))
            return
        if self.paused:
            # Mid-reconfiguration (reachable via _wake_readers during a
            # merge apply): fetches stamped now would die at the epoch
            # seam; re-enter after resume.
            self.deferred_reads.append((client, ClientRead(op)))
            return
        self._start_reconstruction(client, op)

    def _start_reconstruction(self, client: int, op: OpId) -> None:
        """Fetch peer fragments to rebuild the value for ``self.tag``."""
        tag = self.tag
        nonce = self._recon_by_tag.get(tag)
        if nonce is not None:
            self._recon[nonce]["waiters"].append((client, op))
            return
        peers = [s for s in self.ring.alive() if s != self.server_id]
        if not peers:
            # Below the liveness bound (k > 1 survivors needed): the
            # read cannot be served until the view grows back.
            self.deferred_reads.append((client, ClientRead(op)))
            return
        fragments: dict[int, bytes] = {}
        if self.frag_tag is None:
            fragments[self._coding_index] = self.value
        self._recon_nonce += 1
        nonce = self._recon_nonce
        self._recon[nonce] = {
            "tag": tag,
            "fragments": fragments,
            "waiters": [(client, op)],
            "outstanding": len(peers),
            "misses": 0,
        }
        self._recon_by_tag[tag] = nonce
        for peer in peers:
            self.outbox.append(
                (peer, FragmentFetch(
                    nonce, tag, self.server_id, self.installed_epoch
                ))
            )

    def _requeue_recon_waiters(self) -> None:
        """Route reconstruction-waiting reads back through the deferred
        queue (mirror of :meth:`_requeue_fence_waiters`): in-flight
        fetches cannot complete across a view install or demotion, and
        after resume the reads re-evaluate against the merged state."""
        if not self._recon:
            return
        recons, self._recon = self._recon, {}
        self._recon_by_tag = {}
        for nonce in sorted(recons):
            for client, op in recons[nonce]["waiters"]:
                self.deferred_reads.append((client, ClientRead(op)))

    def _session_covered(self, session: Optional[Tag]) -> bool:
        """Whether local state covers the client's session tag.

        Every tag a client observed belongs to a *completed* write, and
        completion requires the pre-write's full circle — so a current
        ring member has the tag installed or pending.  A gap means this
        server's state predates something the client already saw (a
        lease valid for a stale epoch is excluded before this check, so
        in practice: a sharded client whose session tag belongs to
        another block); the fence fallback covers it.
        """
        if session is None or session <= self.tag:
            return True
        return bool(self.pending) and session <= max_tag(self.pending.keys())

    def _fence_read(self, client: int, message: ClientRead) -> None:
        """Fallback read: circulate a fence; serve when it returns.

        One fence per read (not batched): the fence *is* the read's ring
        cost, and the circulating baseline the lease win is measured
        against must genuinely pay it.
        """
        if self.alone:
            # A sole survivor has no circle to prove and nobody whose
            # view could move without it; local state is the register.
            self._serve_read_locally(client, message)
            return
        self._fence_nonce += 1
        self._fence_waiters[self._fence_nonce] = [(client, message)]
        self.fence_queue.append(
            ReadFence(self._fence_nonce, self.server_id, self.installed_epoch)
        )

    def _on_read_fence(self, message: ReadFence) -> None:
        """A fence arrived from the predecessor (epoch guard already ran)."""
        if message.origin == self.server_id:
            self._complete_fence(message)
            return
        self.fence_queue.append(message)

    def _complete_fence(self, message: ReadFence) -> None:
        """Our fence closed its circle under the installed epoch: every
        ring member forwarded it, so this view was live for the whole
        circulation and local committed state covers every write
        completed before the fence left.  Serve the waiting reads from
        local state — without the lease check, and without the session
        check (the full circle pulled every completed write's pre-write
        through us; a session tag from another shard's block is the one
        thing left uncovered, and the fence is exactly the proof that
        serving current local state is linearizable for *this* block)."""
        waiters = self._fence_waiters.pop(message.nonce, None)
        if waiters is None:
            return  # superseded at a view change; the reads were re-queued
        for client, read in waiters:
            if self.paused:
                self.deferred_reads.append((client, read))
            else:
                self._serve_read_locally(client, read)

    def _requeue_fence_waiters(self) -> None:
        """Route every fence-waiting read back through ``_on_client_read``.

        Called when in-flight fences can no longer complete (a view
        install obsoleted their epoch stamp, or this server was demoted
        to a rejoiner): the reads re-enter via the deferred queue, so
        after resume they re-evaluate the lease and re-fence under the
        new epoch instead of waiting for a circle that will never close.
        """
        if not self._fence_waiters:
            return
        waiters, self._fence_waiters = self._fence_waiters, {}
        for nonce in sorted(waiters):
            self.deferred_reads.extend(waiters[nonce])

    # ------------------------------------------------------------------
    # Coded value backend (config.value_coding == "coded"; docs/coding.md)
    # ------------------------------------------------------------------

    def _on_fragment_store(self, message: FragmentStore) -> None:
        """Our fragment of a write, sent directly by the origin.

        Stash it; if the matching (empty-value) pre-write is parked
        waiting for it, the pre-write re-enters the forward path now.
        """
        tag = message.tag
        self._note_tag(tag)
        if not self._coded or message.index != self._coding_index:
            return
        if self._is_stale(tag) or self._op_completed(message.op):
            # Committed (or superseded) while the fragment was in
            # flight; a parked pre-write for it is equally dead.
            self._parked_prewrites.pop(tag, None)
            self.stats_duplicates_dropped += 1
            return
        if tag in self.pending or tag in self._frag_stash:
            self.stats_duplicates_dropped += 1
            return
        self._frag_stash[tag] = message.fragment
        self.stats_coding_fragment_stores += 1
        parked = self._parked_prewrites.pop(tag, None)
        if parked is not None:
            self._on_pre_write(parked)

    def _on_fragment_fetch(self, message: FragmentFetch) -> None:
        """A peer is reconstructing ``message.tag``: send our share.

        An index of ``-1`` signals a miss — this server holds no
        fragment for that tag (its register moved past it, or it never
        saw the write); the requester counts misses to detect a round
        that cannot complete.
        """
        if not self._coded:
            return
        fragment: Optional[bytes] = None
        if message.tag == self.tag and self.frag_tag is None:
            fragment = self.value
        elif message.tag in self.pending:
            fragment = self.pending[message.tag].value
        elif message.tag in self._frag_stash:
            fragment = self._frag_stash[message.tag]
        elif self._cache_tag == message.tag and self._cache_value is not None:
            # The full value is cached: re-derive our share (covers a
            # stale own fragment after a merge repair-on-read).
            fragment = coding.encode(
                self._cache_value, self._k, self._n
            )[self._coding_index]
        if fragment is None:
            reply = FragmentReply(
                message.nonce, message.tag, -1, b"", self.installed_epoch
            )
        else:
            reply = FragmentReply(
                message.nonce, message.tag, self._coding_index, fragment,
                self.installed_epoch,
            )
        self.outbox.append((message.requester, reply))

    def _on_fragment_reply(self, message: FragmentReply) -> None:
        """A peer's share (or miss) for one of our reconstructions."""
        recon = self._recon.get(message.nonce)
        if recon is None or recon["tag"] != message.tag:
            return
        if message.index >= 0:
            recon["fragments"][message.index] = message.fragment
        else:
            recon["misses"] += 1
        fragments = recon["fragments"]
        if len(fragments) >= self._k:
            self._complete_reconstruction(message.nonce)
            return
        answered = len(fragments) + recon["misses"]
        known = 1 if self._coding_index in fragments else 0
        if answered - known >= recon["outstanding"]:
            # Every peer answered and the round fell short of k.  The
            # tag was committed ring-wide, so peers that missed have
            # moved *past* it — the commit that moved them is on its
            # way here.  Re-route the waiters: they re-check the (by
            # then advanced) tag and fetch again.
            self._abort_reconstruction(message.nonce)

    def _complete_reconstruction(self, nonce: int) -> None:
        recon = self._recon.pop(nonce)
        self._recon_by_tag.pop(recon["tag"], None)
        tag = recon["tag"]
        full = coding.decode(recon["fragments"], self._k, self._n)
        self.stats_coding_reconstructions += 1
        if tag >= self.tag and self._cache_tag != tag:
            self._cache_tag, self._cache_value = tag, full
        if tag == self.tag and self.frag_tag is not None:
            # Repair-on-read: our own fragment lagged the committed tag
            # (a merge advanced the register without our share); we now
            # hold the full value, so re-derive and install our share.
            self.value = coding.encode(full, self._k, self._n)[
                self._coding_index
            ]
            self.frag_tag = None
            self.stats_coding_repairs += 1
            self._mark_dirty()
        for client, op in recon["waiters"]:
            if self.tag == tag:
                self._reply(client, ReadAck(op, full, tag))
            else:
                # The register advanced while we fetched; the read must
                # reflect the newer committed value.
                self._answer_read(client, op)

    def _abort_reconstruction(self, nonce: int) -> None:
        recon = self._recon.pop(nonce)
        self._recon_by_tag.pop(recon["tag"], None)
        for client, op in recon["waiters"]:
            self._answer_read(client, op)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _initiate_write(self) -> Optional[PreWrite]:
        """Pseudocode lines 21–28."""
        if not self.write_queue:
            return None
        op, value, client = self.write_queue.popleft()
        # A queued duplicate may have completed meanwhile.
        if self._op_completed(op):
            self._reply(client, WriteAck(op, self._completed_tag(op)))
            return None
        if op in self.op_index:
            self.ack_waiters.setdefault(self.op_index[op], []).append((client, op))
            return None
        if self.alone:
            self._commit_locally(op, value, client)
            return None

        new_tag = Tag(self._next_ts(), self.server_id)
        # Note our own mint: if this entry is later zombie-dropped (a
        # duplicate initiation losing to a lower tag), _next_ts must
        # still never re-issue the timestamp — in coded mode, peers'
        # fragment stashes are keyed by tag, and a re-minted tag would
        # commit one tag over two different ops' fragment sets.
        self._note_tag(new_tag)
        wire_value = value
        if self._coded:
            # Stripe the value: each live member gets its fragment
            # directly; the circulating pre-write carries no value and
            # serves purely as the durability control circle.  (A dead
            # member's fragment is simply not stored — the same
            # degraded redundancy its absence from the circle implies.)
            fragments = coding.encode(value, self._k, self._n)
            for peer in self.ring.members:
                if peer == self.server_id or not self.ring.is_alive(peer):
                    continue
                self.outbox.append(
                    (peer, FragmentStore(
                        new_tag, op, self.ring.members.index(peer),
                        fragments[self.ring.members.index(peer)],
                        self.installed_epoch,
                    ))
                )
            self._origin_values[new_tag] = value
            value = fragments[self._coding_index]
            wire_value = b""
        self.pending[new_tag] = PendingEntry(new_tag, value, op)
        self.op_index[op] = new_tag
        self.ack_waiters.setdefault(new_tag, []).append((client, op))
        self.fair.note_initiated()
        self.stats_writes_initiated += 1
        self._mark_dirty()
        return PreWrite(new_tag, wire_value, op)

    def _commit_locally(self, op: OpId, value: bytes, client: int) -> None:
        """Single-survivor fast path: the write is trivially everywhere."""
        new_tag = Tag(self._next_ts(), self.server_id)
        self._note_tag(new_tag)
        self.watermark[self.server_id] = max(
            self.watermark.get(self.server_id, 0), new_tag.ts
        )
        if self._coded:
            # Store our own share; the full value seeds the cache so a
            # sole survivor's reads never need the (absent) peers.
            own = coding.encode(value, self._k, self._n)[self._coding_index]
            self._install_fragment(new_tag, own)
            self._cache_tag, self._cache_value = new_tag, value
        else:
            self._install(new_tag, value)
        self._record_completed(op, new_tag)
        self.stats_writes_initiated += 1
        self._reply(client, WriteAck(op, new_tag))
        self._wake_readers()

    def _on_pre_write(self, message: PreWrite) -> None:
        tag = message.tag
        origin = tag.server_id
        self._note_tag(tag)
        if origin == self.server_id:
            # Lines 32-38: our own pre-write completed the circle; every
            # server now stores the value, so install it and start the
            # commit phase.  The client is acked when the commit returns.
            if tag not in self.pending:
                self.stats_duplicates_dropped += 1
                return
            entry = self.pending[tag]
            if self._op_completed(entry.op):
                # The operation committed under another tag while our
                # circle was in flight (a duplicate initiation racing
                # us).  Committing this copy too would give one write
                # two write-points; drop it and answer its waiters —
                # the real commit already made the write durable.
                del self.pending[tag]
                self._origin_values.pop(tag, None)
                if self.op_index.get(entry.op) == tag:
                    del self.op_index[entry.op]
                self.stats_superseded_dropped += 1
                for client, waiting_op in self.ack_waiters.pop(tag, ()):
                    self._reply(
                        client, WriteAck(waiting_op, self._completed_tag(waiting_op))
                    )
                self._retarget_read_waiters()
                return
            if self.op_index.get(entry.op) != tag:
                # Our endorsement moved to a lower-tag copy of the same
                # operation while this circle was out.  Only the
                # endorsed copy may commit; this one stays pending as a
                # zombie (the winner's commit answers its waiters).
                self.stats_superseded_dropped += 1
                return
            del self.pending[tag]
            if self._coded:
                self._install_fragment(tag, entry.value)
                full = self._origin_values.pop(tag, None)
                if full is not None and tag >= self.tag:
                    self._cache_tag, self._cache_value = tag, full
            else:
                self._install(tag, entry.value)
            self._record_completed(entry.op, tag)
            self.op_index.pop(entry.op, None)
            self.commit_queue.append(tag)
            self._wake_readers()
            return
        if origin in self.ring.dead and self.ring.adopter(origin) == self.server_id:
            # The origin died and we are its adopter: act as the origin.
            # The pre-write reaching us means every surviving server on
            # the path stored the value; the commit distributes the
            # decision (and dies by staleness after one circle).
            if self._is_stale(tag):
                self.stats_duplicates_dropped += 1
                return
            if self._op_completed(message.op):
                # The operation committed under another tag; committing
                # this copy too would re-install a superseded value.
                self.pending.pop(tag, None)
                self.stats_superseded_dropped += 1
                for client, waiting_op in self.ack_waiters.pop(tag, ()):
                    self._reply(
                        client, WriteAck(waiting_op, self._completed_tag(waiting_op))
                    )
                self._retarget_read_waiters()
                return
            lower = self.op_index.get(message.op)
            if lower is not None and lower < tag:
                # A lower-tag initiation of the same operation is still
                # in flight; the lowest tag is the one copy allowed to
                # commit (see _on_pre_write), and its commit will clean
                # this orphan up as a zombie.
                self.stats_superseded_dropped += 1
                return
            entry = self.pending.pop(tag, None)
            if self._coded:
                # The circulating pre-write is empty; our share is in
                # the pending entry (forwarded) or the stash (not yet).
                # Neither present: the tag still advances and the
                # fragment lag is repaired on the next read.
                fragment = entry.value if entry is not None else (
                    self._frag_stash.pop(tag, None)
                )
                self._install_fragment(tag, fragment)
            else:
                self._install(tag, message.value)
            self._record_completed(message.op, tag)
            self.op_index.pop(message.op, None)
            self.commit_queue.append(tag)
            self._wake_readers()
            return
        # Lines 30-31: enqueue for (fair) forwarding.
        if self._is_stale(tag) or tag in self.pending or tag in self.queued_tags:
            self.stats_duplicates_dropped += 1
            return
        if self._op_completed(message.op):
            # Duplicate initiation of an operation that already committed
            # under another tag (an aggressive retry raced the stalled
            # original).  Dropping it here breaks the duplicate's circle,
            # so it can never commit; ts_seen was noted above, so our own
            # future initiations still outbid it.
            self.stats_superseded_dropped += 1
            return
        other = self.op_index.get(message.op)
        if other is not None and other < tag:
            # Concurrent duplicate initiations of one operation: at most
            # one may ever commit, or two servers could end up with
            # different write-points for the same write (the value of
            # the loser is zombie-dropped at whoever learns of the
            # winner first, after which a stray commit of the loser can
            # no longer be installed ring-wide).  The arbitration is
            # deterministic — the lowest tag wins — so every copy of
            # the higher circle breaks at the first server holding a
            # lower one, while the lowest circle passes everywhere.
            self.stats_superseded_dropped += 1
            return
        if self._coded and tag not in self._frag_stash:
            # Our fragment has not arrived yet: forwarding now would
            # let the circle complete without this server storing its
            # share, voiding the durability proof.  Park the pre-write;
            # the FragmentStore's arrival re-enters it here.
            if tag in self._parked_prewrites:
                self.stats_duplicates_dropped += 1
            else:
                self._parked_prewrites[tag] = message
            return
        self.queued_tags.add(tag)
        self.op_index[message.op] = tag
        self.fair.enqueue(origin, PreWrite(tag, message.value, message.op))

    def _process_commits(self, tags: tuple[Tag, ...]) -> None:
        for tag in tags:
            self._process_commit(tag)

    def _process_commit(self, tag: Tag) -> None:
        """Pseudocode lines 41–52, on a tag-only commit.

        Termination: the tag is re-enqueued for the successor unless this
        server had already processed it (staleness).  A commit therefore
        travels one full circle — every server processes it exactly
        once — plus one extra hop back to the first processor.
        """
        origin = tag.server_id
        self._note_tag(tag)
        if self._is_stale(tag):
            self.stats_duplicates_dropped += 1
            return
        self.watermark[origin] = max(self.watermark.get(origin, 0), tag.ts)
        self._mark_dirty()  # commit point: watermark and pending change
        self.stats_commits_processed += 1

        entry = self.pending.pop(tag, None)
        if self._coded:
            # A fragment stashed (or a pre-write parked) for a tag that
            # just committed is residue of a circle that completed
            # without our forward (reconfiguration reroute); drop it.
            if entry is None:
                self._frag_stash.pop(tag, None)
            self._parked_prewrites.pop(tag, None)
        if entry is not None:
            if self._coded:
                self._install_fragment(tag, entry.value)
            else:
                self._install(tag, entry.value)
            self._record_completed(entry.op, tag)
            self.op_index.pop(entry.op, None)
            self._drop_superseded(entry.op, tag)
        elif tag > self.tag:
            # We never saw this write's value and are asked to commit
            # above our installed state: only possible for flows already
            # covered by reconfiguration; counted for test visibility.
            self.stats_commit_unknown_tag += 1

        # Ack every client waiting on this tag at *this* server (the
        # origin's own client, plus any retries that attached here).
        for client, op in self.ack_waiters.pop(tag, ()):
            self._reply(client, WriteAck(op, tag))

        self._wake_readers()

        if not self.alone:
            self.commit_queue.append(tag)

    def _on_state_sync(self, message: StateSync) -> None:
        """Predecessor's committed state after a splice (line 88)."""
        self._note_tag(message.tag)
        if message.tag > self.tag:
            if self._coded:
                # Perfect-detector path only; coded mode requires
                # view_quorum, so this is belt-and-braces: advance the
                # tag, repair the fragment on the next read.
                self._install_fragment(message.tag, None)
            else:
                self._install(message.tag, message.value)
            self._wake_readers()

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------

    def _start_reconfig(self, revived: tuple[int, ...] = ()) -> None:
        """Coordinator side: circulate the state-merge token.

        ``revived`` names servers this reconfiguration folds back into
        the ring (crash recovery); the coordinator has already spliced
        them into its own view, and every receiver does the same before
        merging, so the token traverses the grown ring.
        """
        self.paused = True
        self._reconfig_counter += 1
        # Reconfig point: persist the nonce counter so a restarted
        # coordinator can never reuse a nonce (others would drop its
        # fresh token as an orphaned duplicate).
        self._mark_dirty()
        token = ReconfigToken(
            nonce=self._reconfig_counter,
            epoch=max(self.ring.epoch, self.installed_epoch + 1),
            coordinator=self.server_id,
            dead=tuple(sorted(self.ring.dead)),
            tag=self.tag,
            value=self._register_blob() if self._coded else self.value,
            pending=self._pending_snapshot(),
            completed_ops=tuple(sorted(self.completed_ops.items())),
            revived=tuple(sorted(revived)),
            completed_tags=tuple(sorted(self.completed_tags.items())),
        )
        self.control_queue.append(token)

    def _pending_snapshot(self) -> tuple[PendingEntry, ...]:
        """Every uncommitted write this server knows about: the pending
        set plus pre-writes still sitting in the forward queue (which is
        drained — the merge supersedes it).

        Coded mode: the returned entries are *token-form* — their value
        is a packed fragment set ``{our index: our fragment}`` so the
        circulating merge can union shares across members.  Queued
        pre-writes take their fragment from the stash; a queued or
        parked pre-write whose fragment never arrived contributes
        nothing (the origin's own token entry covers the write).
        """
        entries = dict(self.pending)
        for _origin, prewrite in self.fair.drain():
            if self._coded:
                fragment = self._frag_stash.get(prewrite.tag)
                if fragment is None:
                    continue
                entries.setdefault(
                    prewrite.tag,
                    PendingEntry(prewrite.tag, fragment, prewrite.op),
                )
            else:
                entries.setdefault(
                    prewrite.tag,
                    PendingEntry(prewrite.tag, prewrite.value, prewrite.op),
                )
        self.queued_tags.clear()
        if self._coded:
            return tuple(
                PendingEntry(
                    tag,
                    coding.pack_fragments(
                        {self._coding_index: entries[tag].value}
                    ),
                    entries[tag].op,
                )
                for tag in sorted(entries)
            )
        return tuple(entries[tag] for tag in sorted(entries))

    def _merge_into_token(self, token: ReconfigToken) -> ReconfigToken:
        self._note_tag(token.tag)
        for entry in token.pending:
            self._note_tag(entry.tag)
        if self._coded:
            merged_tag, merged_value = self._merge_register_blob(token)
        else:
            merged_tag, merged_value = (
                (token.tag, token.value)
                if token.tag >= self.tag
                else (self.tag, self.value)
            )
        entries = {entry.tag: entry for entry in token.pending}
        for entry in self._pending_snapshot():
            if self._coded and entry.tag in entries:
                # Union our fragment share into the circulating set.
                shares = coding.unpack_fragments(entries[entry.tag].value)
                shares.update(coding.unpack_fragments(entry.value))
                entries[entry.tag] = PendingEntry(
                    entry.tag, coding.pack_fragments(shares), entry.op
                )
            else:
                entries.setdefault(entry.tag, entry)
        completed: dict[int, int] = dict(token.completed_ops)
        completed_tags: dict[int, Tag] = dict(token.completed_tags)
        for client, seq in self.completed_ops.items():
            self._advance_completed(
                completed, completed_tags, client, seq,
                self.completed_tags.get(client),
            )
        # A server this token revives must not ride along in the merged
        # dead set via some receiver's stale view.  (In view_quorum mode
        # the receiver's view was wholesale-adopted from the token, so
        # the union adds nothing: the proposed membership is fixed by
        # the coordinator and the token gathers *state*, not exclusions.)
        # A *rejoining* merger contributes state but no exclusions: its
        # dead set is its snapshot's — stale by definition — and any
        # crash it has witnessed since restarting was witnessed by every
        # live merger too.  Unioning it in re-excluded members that were
        # folded back while the rejoiner was down, which diverted the
        # token's circle around them and deadlocked the ring (two
        # overlapping crash-recovery cycles were enough to hit this).
        local_dead = frozenset() if self.rejoining else self.ring.dead
        dead = (frozenset(token.dead) | local_dead) - frozenset(token.revived)
        return ReconfigToken(
            nonce=token.nonce,
            epoch=max(token.epoch, len(dead)) if not self.config.view_quorum
            else token.epoch,
            coordinator=token.coordinator,
            dead=tuple(sorted(dead)),
            tag=merged_tag,
            value=merged_value,
            pending=tuple(entries[tag] for tag in sorted(entries)),
            completed_ops=tuple(sorted(completed.items())),
            revived=token.revived,
            completed_tags=tuple(sorted(completed_tags.items())),
        )

    def _on_reconfig_token(self, token: ReconfigToken) -> None:
        if self.config.view_quorum:
            if not self._admit_token(token):
                return
            # Tentative *wholesale* adoption of the proposed membership:
            # the token's dead set replaces local state (a receiver's
            # private suspicions must not leak into the proposal), and
            # routing follows the proposed ring from here on.
            self.ring = self.ring.at_epoch(
                token.epoch, frozenset(token.dead) - frozenset(token.revived)
            )
        elif self.rejoining:
            # Wholesale adoption for a rejoiner: its own dead set is its
            # snapshot's and must not survive into routing — keeping a
            # long-since-revived member dead would make this server
            # forward the token (and every later frame) past it.
            self.ring = self.ring.at_epoch(
                max(self.ring.epoch + 1, token.epoch),
                frozenset(token.dead) - frozenset(token.revived),
            )
        else:
            self.ring = self.ring.with_dead(token.dead).revive_all(token.revived)
        if token.coordinator == self.server_id:
            if self.config.view_quorum and token.nonce != self._attempt_nonce:
                return  # a superseded/abandoned attempt of our own
            # Token is back with every survivor's state merged in.  In
            # view_quorum mode its full circle around the proposed ring
            # *is* the ack quorum of the old view: the proposal was
            # quorum-checked against the installed view, and every
            # proposed member forwarded the token.
            final = self._merge_into_token(token)
            commit = ReconfigCommit(
                nonce=final.nonce,
                epoch=final.epoch,
                coordinator=final.coordinator,
                dead=final.dead,
                tag=final.tag,
                value=final.value,
                pending=final.pending,
                completed_ops=final.completed_ops,
                revived=final.revived,
                completed_tags=final.completed_tags,
            )
            self.control_queue.append(commit)
            if self.config.view_quorum:
                self._install_view(commit)
            self._apply_merged_state(commit)
            # Re-commit every surviving pending write so no read blocks
            # forever and every origin can ack its client.  The commits
            # flow behind the ReconfigCommit (FIFO), so every server has
            # the merged values before a commit reaches it.  Iterating
            # the *applied* pending set (not the raw token) matters:
            # apply-time filtering has already dropped stale entries and
            # zombies of operations the merged completed_ops says are
            # done, which must not be re-committed (resurrection).
            # While an old-epoch lease wait-out runs, the re-commits are
            # stashed instead: completing a merged write before every
            # old lease died could hide it from a leaseholder's reads.
            if self._lease_waitout:
                self._waitout_commit_tags = sorted(self.pending)
            else:
                for tag in sorted(self.pending):
                    self.commit_queue.append(tag)
            self._resume()
        else:
            key = (token.coordinator, token.nonce)
            if key in self._seen_reconfigs:
                # A token orphaned by its coordinator's crash; drop it
                # (the coordinator's own crash triggers a fresh merge).
                return
            self._seen_reconfigs.add(key)
            self.paused = True
            self.control_queue.append(self._merge_into_token(token))

    def _admit_token(self, token: ReconfigToken) -> bool:
        """Epoch + promise arbitration for one view transition.

        A token is admitted when it is built on exactly this server's
        installed view (``epoch == installed + 1`` — the ack quorum it
        collects must anchor to the view it supersedes) and it wins the
        per-view promise: at most one *admitted* proposal per installed
        view, ties broken toward the lower coordinator id, with a
        coordinator's fresh retry replacing its own older promise.
        Admitting a competitor's token abandons any in-flight attempt of
        our own — the abandoned token keeps circulating but its return
        is ignored, so two proposals can never both install.  A token
        reviving *us* is exempt from the base check: catching a stale
        server up is the one sanctioned epoch jump, and the rejoiner is
        deliberately not counted toward the quorum.
        """
        if token.coordinator == self.server_id:
            # Our own token came back: valid only if it is our current
            # attempt and nothing installed meanwhile.
            return (
                token.epoch == self.installed_epoch + 1
                and token.nonce == self._attempt_nonce
            )
        if self.server_id in token.revived:
            if token.epoch <= self.installed_epoch:
                self.stats_epoch_rejected_reconfigs += 1
                return False
            return True
        if token.epoch != self.installed_epoch + 1:
            self.stats_epoch_rejected_reconfigs += 1
            if token.epoch <= self.installed_epoch:
                # A healed minority (or superseded attempt) proposing
                # from a view the ring has left behind: tell it.
                self._notify_stale(token.coordinator)
            else:
                # A proposal from beyond our next epoch is proof the
                # ring installed views we never saw (a commit can die
                # mid-circle when a member crashes while it circulates,
                # leaving us behind): same signal as a StaleEpochNotice.
                self._enter_rejoining()
            return False
        if token.coordinator in self.suspected:
            # A straggling token from a coordinator we believe gone
            # (delivered late across a heal, or its sender crashed after
            # sending): promising it would wedge this view on an attempt
            # that can never complete.  If the suspicion is wrong the
            # coordinator simply retries — liveness cost only.
            self.stats_epoch_rejected_reconfigs += 1
            return False
        promise = self._promise
        if promise is not None and promise[0] == self.installed_epoch:
            base, promised_coordinator, promised_nonce = promise
            if token.coordinator == promised_coordinator:
                if token.nonce < promised_nonce:
                    self.stats_epoch_rejected_reconfigs += 1
                    return False  # stale retry of the promised attempt
            elif token.coordinator > promised_coordinator:
                self.stats_epoch_rejected_reconfigs += 1
                return False  # outranked; the promised attempt proceeds
        self._promise = (self.installed_epoch, token.coordinator, token.nonce)
        if self._attempt_nonce is not None:
            # We had our own proposal in flight and just admitted a
            # higher-priority one: abandon ours (bumping the persisted
            # counter makes our returning token unrecognisable).
            self._reconfig_counter += 1
            self._attempt_nonce = None
            self._mark_dirty()
        return True

    def _on_reconfig_commit(self, commit: ReconfigCommit) -> None:
        if self.config.view_quorum:
            if commit.coordinator == self.server_id:
                return  # full circle; applied when created
            if commit.epoch != self.installed_epoch + 1 and (
                self.server_id not in commit.revived
                or commit.epoch <= self.installed_epoch
            ):
                # Same chain discipline as tokens: a commit installs
                # only over the view it superseded; the one sanctioned
                # jump is the fold-in of the stale server it revives.
                self.stats_epoch_rejected_reconfigs += 1
                if commit.epoch > self.installed_epoch + 1 and not self.rejoining:
                    self._enter_rejoining()
                return
            key = (commit.coordinator, -commit.nonce)
            if key in self._seen_reconfigs:
                return
            self._seen_reconfigs.add(key)
            self._install_view(commit)
            self._apply_merged_state(commit)
            self.control_queue.append(commit)
            self._resume()
            return
        if self.rejoining:
            # Same wholesale adoption as the token path: the commit's
            # membership replaces the rejoiner's stale snapshot view.
            self.ring = self.ring.at_epoch(
                max(self.ring.epoch + 1, commit.epoch),
                frozenset(commit.dead) - frozenset(commit.revived),
            )
        else:
            self.ring = self.ring.with_dead(commit.dead).revive_all(commit.revived)
        if commit.coordinator == self.server_id:
            return  # full circle; applied when created
        key = (commit.coordinator, -commit.nonce)
        if key in self._seen_reconfigs:
            return  # orphaned duplicate of a commit we already applied
        self._seen_reconfigs.add(key)
        self._apply_merged_state(commit)
        self.control_queue.append(commit)
        if frozenset(commit.dead) >= self.ring.dead:
            self._resume()
        # else: we know of a crash this commit predates; stay paused
        # until the follow-up reconfiguration's commit arrives.

    def _install_view(self, commit: ReconfigCommit) -> None:
        """Install the committed view: the epoch transition point.

        From here on, traffic of older epochs is rejected, and newly
        excluded members that may still be alive are told directly.
        With ``read_leases`` the notice is backed by an invariant: an
        install that excludes members also starts the old-epoch lease
        *wait-out* — no new-epoch write may complete until every lease
        granted under the superseded view has provably expired on its
        holder's clock — so even an excluded server that hears nothing
        (the one-way-partition case the notices cannot reach) stops
        serving leased reads before any conflicting write exists.
        Without leases the notices remain best-effort (see
        docs/reconfiguration.md).
        """
        newly_dead = frozenset(commit.dead) - self.installed_view.dead
        self.ring = self.ring.at_epoch(
            commit.epoch, frozenset(commit.dead) - frozenset(commit.revived)
        )
        self.installed_epoch = commit.epoch
        self.installed_view = self.ring
        self.view_log.append((commit.epoch, commit.coordinator, commit.nonce))
        self._announced_rejoiners.clear()  # still-stale members re-announce
        self._promise = None  # promises are per installed view
        if commit.coordinator == self.server_id:
            self._attempt_nonce = None
        # In-flight fragment fetches are stamped with the superseded
        # epoch and can never be answered; their reads re-reconstruct
        # against the merged state after resume.
        self._requeue_recon_waiters()
        if self.config.read_leases:
            # Our own lease was granted under the superseded epoch; the
            # per-read epoch check already refuses it, but dropping the
            # flag keeps the runtime's next push authoritative.
            self.lease_valid = False
            self.lease_epoch = -1
            # In-flight fences carry the old epoch stamp and can never
            # close their circle; re-route their reads through the
            # deferred queue so they re-fence under the new epoch.
            self._requeue_fence_waiters()
            # A stashed re-commit from a previous wait-out is obsolete:
            # this install's merge carried those pending writes and the
            # coordinator re-commits them afresh.
            self._waitout_commit_tags = []
            if newly_dead - {self.server_id}:
                # Members were excluded: their leases (and any lease the
                # old view granted) may live up to the full duration
                # plus drift; gate new-epoch writes until that horizon
                # passes.  Confirm/revive installs exclude nobody and
                # need no wait — the commit itself circulates ahead of
                # any new-epoch data on FIFO links.
                self._lease_waitout = True
                self.lease_waitout_due = True
                self.stats_lease_waitouts += 1
            else:
                self._lease_waitout = False
        self._mark_dirty()
        for peer in sorted(newly_dead):
            if peer != self.server_id:
                # Best-effort fence: if the excluded peer is actually
                # alive (wrong suspicion), the notice demotes it to a
                # rejoiner; if it is dead, the frame dies in transit.
                self._notify_stale(peer)

    def _apply_merged_state(self, commit: ReconfigCommit) -> None:
        self._note_tag(commit.tag)
        if commit.tag > self.tag:
            if self._coded:
                self._apply_merged_register(commit.tag, commit.value)
            else:
                self._install(commit.tag, commit.value)
        merged_tags = dict(commit.completed_tags)
        for client, seq in commit.completed_ops:
            self._advance_completed(
                self.completed_ops, self.completed_tags, client, seq,
                merged_tags.get(client),
            )
        # The merged pending set replaces local pending and every queued
        # pre-write (their tags are all in the merged set by construction).
        self.fair.drain()
        self.queued_tags.clear()
        self.fair.reset_counters()
        merged: dict[Tag, PendingEntry] = {}
        endorsed: dict[OpId, Tag] = {}
        for entry in commit.pending:  # ascending tag order by construction
            self._note_tag(entry.tag)
            if self._is_stale(entry.tag):
                continue
            if self._op_completed(entry.op):
                # A zombie of an operation the merged completed_ops says
                # is done: re-committing it would resurrect a superseded
                # value.  Its committed state is covered by the merged
                # (tag, value) — some survivor processed the real commit,
                # or completed_ops could not name the operation.
                self.stats_superseded_dropped += 1
                continue
            winner = endorsed.get(entry.op)
            if winner is not None:
                # Duplicate initiations of one uncommitted operation
                # survived into the merge; keep only the lowest tag (the
                # same arbitration the live forward path applies), or
                # the post-merge re-commit would commit one write twice
                # under different tags.  Its waiters follow the winner.
                self.stats_superseded_dropped += 1
                waiters = self.ack_waiters.pop(entry.tag, None)
                if waiters:
                    self.ack_waiters.setdefault(winner, []).extend(waiters)
                continue
            if self._coded:
                # Token-form entry: unpack the fragment union and keep
                # only our share.  The keep/drop decision must be a
                # function of the union alone — every member applies
                # the same commit, and a split decision lets the origin
                # re-commit (and ack) a write its peers dropped, whose
                # reads then never wait for it.  Unrecoverable (< k
                # shares — the write was too young to reach k members
                # before the view broke): drop it *everywhere*, origin
                # included; it never completed anywhere (completion
                # needs the full circle, and a completed write leaves
                # >= k shares in any quorum under the liveness bound)
                # and the client's retry re-initiates it.  Kept but our
                # share missing: re-derive it — the RADON-style repair
                # that also catches up rejoiners.
                shares = coding.unpack_fragments(entry.value)
                if len(shares) < self._k:
                    self.stats_coding_pending_dropped += 1
                    self.ack_waiters.pop(entry.tag, None)
                    continue
                mine = shares.get(self._coding_index)
                if mine is None:
                    full = coding.decode(shares, self._k, self._n)
                    mine = coding.encode(full, self._k, self._n)[
                        self._coding_index
                    ]
                    self.stats_coding_repairs += 1
                entry = PendingEntry(entry.tag, mine, entry.op)
            endorsed[entry.op] = entry.tag
            merged[entry.tag] = entry
        self.pending = merged
        self.op_index = {entry.op: entry.tag for entry in merged.values()}
        if self._coded:
            # Stashes and parked pre-writes are superseded wholesale by
            # the merged pending set; in-flight reconstructions died at
            # the epoch seam (their waiters were re-queued at install).
            self._frag_stash.clear()
            self._parked_prewrites.clear()
            self._origin_values = {
                tag: value
                for tag, value in self._origin_values.items()
                if tag in self.pending
            }
        self._mark_dirty()  # reconfig point: the merged state is durable
        # Waiters for operations the merge knows are complete would now
        # wait forever (their tag was filtered); answer them here.
        for tag in sorted(self.ack_waiters):
            waiting = self.ack_waiters[tag]
            remaining = [
                (client, op) for client, op in waiting if not self._op_completed(op)
            ]
            for client, op in waiting:
                if self._op_completed(op):
                    self._reply(client, WriteAck(op, self._completed_tag(op)))
            if remaining:
                self.ack_waiters[tag] = remaining
            else:
                del self.ack_waiters[tag]
        self._retarget_read_waiters()
        self._wake_readers()

    def _resume(self) -> None:
        self.paused = False
        self._suspicion_paused = False
        if self.rejoining:
            # The reconfiguration commit that carries the merged state is
            # the moment a recovering server is caught up: from here on
            # it serves reads and initiates writes like any ring member.
            self.rejoining = False
            self._rejoin_sponsor = None
        if self.config.view_quorum:
            # The installed view may not match what the detector says:
            # leftover suspicions of still-in-view members mean we must
            # not serve (re-pause, and ask for a new proposal); excluded
            # members whose heartbeats resumed deserve re-admission.
            if any(self.ring.is_alive(s) for s in self.suspected):
                self.paused = True
                self._suspicion_paused = True
                self.reconcile_due = True
            if any(
                d not in self.suspected and d in set(self.ring.members)
                for d in self.ring.dead
            ):
                self.reconcile_due = True
        deferred, self.deferred_reads = self.deferred_reads, deque()
        for client, message in deferred:
            self._on_client_read(client, message)
        rejoins, self._deferred_rejoins = self._deferred_rejoins, deque()
        for request in rejoins:
            # May pause us again (a new reconfiguration); later requests
            # in the batch then re-defer themselves.
            self._on_rejoin_request(request)

    def _on_rejoin_request(self, message: RejoinRequest) -> None:
        """Sponsor side of the rejoin handshake.

        A restarted server announced itself.  If our view still has it
        dead, splice it back in and coordinate a reconfiguration whose
        token (marked ``revived``) circulates the grown ring — through
        the rejoiner, which merges its recovered state in and resumes on
        the commit.  If our view already has it alive, a commit is (or
        was) on its way and the request is a retried duplicate: drop it.
        """
        rid = message.server_id
        if rid == self.server_id or rid not in set(self.ring.members):
            return
        if self.config.view_quorum:
            if message.epoch > self.installed_epoch:
                return  # a confused rejoiner cannot drag the ring back
            if self.rejoining:
                return
            # Sponsorship is folded into the proposal pipeline: record
            # the announcement and let the grace-delayed reconciliation
            # carry the rejoiner as ``revived`` in the next proposal.
            # (Unlike the perfect-detector path, a rejoiner still *in*
            # the installed view needs this too: it restarted — or was
            # demoted by the epoch guard — holding stale state, and
            # only a revived-marked merge catches it up.)  "Down" for a
            # sponsor under an imperfect detector means no heartbeat
            # evidence of life: while we still suspect the announcer,
            # the record stays parked — folding in a server we cannot
            # hear would bounce straight back out.
            if rid not in self._announced_rejoiners:
                # Count rejoiners taken on, not their announcement
                # retries (the perfect path counts once per splice).
                self.stats_rejoins_sponsored += 1
            self._announced_rejoiners[rid] = message.epoch
            if rid not in self.suspected:
                self.reconcile_due = True
            return
        if rid not in self.ring.dead:
            return
        if self.paused:
            # Mid-reconfiguration: the ring is in flux.  Defer; the
            # rejoiner also retries, so nothing is lost if we crash.
            self._deferred_rejoins.append(message)
            return
        self.ring = self.ring.revived(rid)
        self.stats_reconfigs += 1
        self.stats_rejoins_sponsored += 1
        self._start_reconfig(revived=(rid,))

    def _resolve_alone(self) -> None:
        """Down to a single survivor: every known pending write commits
        locally, in tag order, and every waiter is answered."""
        self.paused = False
        for _origin, prewrite in self.fair.drain():
            self.pending.setdefault(
                prewrite.tag, PendingEntry(prewrite.tag, prewrite.value, prewrite.op)
            )
        self.queued_tags.clear()
        for tag in sorted(self.pending):
            entry = self.pending.pop(tag)
            self._note_tag(tag)
            if self._op_completed(entry.op):
                # Zombie of an already-committed operation: answer its
                # waiters, but do not install a superseded value.
                self.stats_superseded_dropped += 1
                for client, op in self.ack_waiters.pop(tag, ()):
                    self._reply(client, WriteAck(op, self._completed_tag(op)))
                continue
            self.watermark[tag.server_id] = max(
                self.watermark.get(tag.server_id, 0), tag.ts
            )
            self._mark_dirty()
            if self._coded:
                # The entry holds our fragment only.  With k > 1 and no
                # peers the full value is unrecoverable (operating below
                # the liveness bound); the tag still advances, and reads
                # of it stall until the view grows back.
                self._install_fragment(tag, entry.value)
            else:
                self._install(tag, entry.value)
            self._record_completed(entry.op, tag)
            self.op_index.pop(entry.op, None)
            for client, op in self.ack_waiters.pop(tag, ()):
                self._reply(client, WriteAck(op, tag))
        # Acks for tags we initiated whose commit was still circulating.
        for tag in sorted(self.ack_waiters):
            for client, op in self.ack_waiters.pop(tag, ()):
                self._reply(client, WriteAck(op, tag))
        self.commit_queue.clear()
        self.control_queue.clear()
        self._retarget_read_waiters()
        self._wake_readers()
        self._resume()
        # Absorb queued client writes through the fast path.
        queued, self.write_queue = self.write_queue, deque()
        for op, value, client in queued:
            if self._op_completed(op):
                self._reply(client, WriteAck(op, self._completed_tag(op)))
            else:
                self._commit_locally(op, value, client)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pull_commit_tags(self, carrier_is_commit: bool) -> tuple:
        """Drain up to the piggyback budget of queued commit tags."""
        if not self.commit_queue:
            return ()
        if not (self.config.piggyback_commits or carrier_is_commit):
            return ()
        budget = self.config.max_piggybacked_commits
        tags: list[Tag] = []
        while self.commit_queue and len(tags) < budget:
            tags.append(self.commit_queue.popleft())
        return tuple(tags)

    def _attach_commits(self, message: RingMessage) -> RingMessage:
        """Piggyback queued commit tags and stamp the installed epoch."""
        if isinstance(message, (ReconfigToken, ReconfigCommit)):
            return message  # reconfiguration messages carry their own epoch
        if isinstance(message, ReadFence):
            # A fence keeps its origin's epoch stamp end to end (the
            # circle proves that epoch's liveness) and carries no
            # commits — it must stay exactly one read's ring cost.
            return message
        epoch = self.installed_epoch
        tags = self._pull_commit_tags(carrier_is_commit=isinstance(message, Commit))
        if isinstance(message, PreWrite):
            return PreWrite(
                message.tag,
                message.value,
                message.op,
                tags if tags else message.commits,
                epoch,
            )
        if isinstance(message, StateSync):
            return StateSync(
                message.tag,
                message.value,
                tags if tags else message.commits,
                epoch,
            )
        return Commit(tags if tags else message.commits, epoch)

    def _install(self, tag: Tag, value: bytes) -> None:
        """Monotone register update (lines 33-35 / 43-45)."""
        if tag > self.tag:
            self.tag = tag
            self.value = value
            self._mark_dirty()

    def _install_fragment(self, tag: Tag, fragment: Optional[bytes]) -> None:
        """Coded-mode monotone register update.

        ``fragment`` is this server's own share of the value committed
        under ``tag`` — or ``None`` when the tag must advance without
        it (merge decided above us); the previously held fragment then
        keeps its old tag in :attr:`frag_tag` and the next read's
        reconstruction repairs the lag.
        """
        if tag <= self.tag:
            return
        if fragment is not None:
            self.value = fragment
            self.frag_tag = None
        elif self.frag_tag is None:
            self.frag_tag = self.tag
        self.tag = tag
        self._mark_dirty()

    def _register_blob(self) -> bytes:
        """Our committed register as a token-form fragment set: our own
        share when it is current, empty when it lags the tag."""
        if self.frag_tag is None:
            return coding.pack_fragments({self._coding_index: self.value})
        return coding.pack_fragments({})

    def _merge_register_blob(self, token: ReconfigToken) -> tuple[Tag, bytes]:
        """Coded-mode committed-register merge for one token hop.

        The max tag wins as in replicated mode; the value is a fragment
        *union* — the winning side's collected shares plus whatever
        share this server holds for that tag (its committed register,
        a pending entry racing its commit, or a stashed fragment).
        """
        if token.tag >= self.tag:
            merged_tag = token.tag
            shares = coding.unpack_fragments(token.value)
        else:
            merged_tag = self.tag
            shares = {}
        mine: Optional[bytes] = None
        if merged_tag == self.tag and self.frag_tag is None:
            mine = self.value
        elif merged_tag in self.pending:
            mine = self.pending[merged_tag].value
        elif merged_tag in self._frag_stash:
            mine = self._frag_stash[merged_tag]
        if mine is not None:
            shares[self._coding_index] = mine
        return merged_tag, coding.pack_fragments(shares)

    def _apply_merged_register(self, tag: Tag, blob: bytes) -> None:
        """Install the merged committed register from its fragment set.

        Our own share may be missing (we never forwarded the winning
        write): with ``k`` or more shares collected it is re-derived on
        the spot — the repair path rejoiners and merge losers ride —
        and the decoded value seeds the cache; with fewer, the tag
        advances anyway and the next read repairs the fragment.
        """
        shares = coding.unpack_fragments(blob)
        mine = shares.get(self._coding_index)
        if mine is None and len(shares) >= self._k:
            full = coding.decode(shares, self._k, self._n)
            mine = coding.encode(full, self._k, self._n)[self._coding_index]
            self._cache_tag, self._cache_value = tag, full
            self.stats_coding_repairs += 1
        self._install_fragment(tag, mine)

    def _is_stale(self, tag: Tag) -> bool:
        """True when ``tag`` is already committed here (duplicate filter)."""
        return tag.ts <= self.watermark.get(tag.server_id, 0)

    @staticmethod
    def _advance_completed(
        seqs: dict, tags: dict, client: int, seq: int, tag: Optional[Tag]
    ) -> bool:
        """Advance one client's (completed-seq, completed-tag) watermark
        pair; returns whether anything changed.

        The tag slot always describes the *max* seq: advancing past it
        replaces the tag — or pops it when the new op's tag is unknown,
        so the previous op's tag can never masquerade as the new one's —
        and a seq tie only backfills an empty slot.  Every path that
        learns of completions (local commits, the reconfiguration token
        merge, commit application) goes through here, so the invariant
        lives in one place.
        """
        recorded = seqs.get(client, -1)
        if seq > recorded:
            seqs[client] = seq
            if tag is not None:
                tags[client] = tag
            else:
                tags.pop(client, None)
            return True
        if seq == recorded and tag is not None and client not in tags:
            tags[client] = tag
            return True
        return False

    def _record_completed(self, op: OpId, tag: Optional[Tag] = None) -> None:
        if self._advance_completed(
            self.completed_ops, self.completed_tags, op.client, op.seq, tag
        ):
            self._mark_dirty()

    def _op_completed(self, op: OpId) -> bool:
        """Whether ``op`` is known to have committed (under any tag).
        Clients run one operation at a time with monotone sequence
        numbers, so the per-client watermark answers exactly this."""
        return self.completed_ops.get(op.client, -1) >= op.seq

    def _completed_tag(self, op: OpId) -> Optional[Tag]:
        """The tag ``op`` committed under, if this server knows it.

        Only the client's *latest* completed operation is remembered —
        a client retries only its one in-flight op, so that is the only
        seq a dedup ack can be for.  ``None`` for older seqs (the client
        has long since moved on and discards such acks) or when the
        completion was learned without its tag."""
        if self.completed_ops.get(op.client, -1) == op.seq:
            return self.completed_tags.get(op.client)
        return None

    def _note_tag(self, tag: Tag) -> None:
        """Track the highest timestamp ever seen (duplicates included)."""
        if tag.ts > self.ts_seen:
            self.ts_seen = tag.ts
            self._mark_dirty()

    def _next_ts(self) -> int:
        """Timestamp for a fresh initiation: strictly above everything
        installed, pending, or ever seen — including tags of duplicates
        this server dropped, which may still commit elsewhere."""
        return max(max_tag(self.pending.keys()).ts, self.tag.ts, self.ts_seen) + 1

    def _drop_superseded(self, op: OpId, committed: Tag) -> None:
        """Remove pending zombies of ``op`` left by duplicate initiations.

        ``op`` just committed under ``committed``; any other pending tag
        carrying the same operation is a duplicate whose circle may
        never close.  Its ack waiters get the real committed tag, and
        read thresholds pointing at it are clamped so no read waits for
        a commit that will never arrive.
        """
        zombies = [
            tag for tag, entry in self.pending.items()
            if entry.op == op and tag != committed
        ]
        for tag in zombies:
            del self.pending[tag]
            self.queued_tags.discard(tag)
            self.stats_superseded_dropped += 1
            self._mark_dirty()
            if self._coded:
                self._frag_stash.pop(tag, None)
                self._origin_values.pop(tag, None)
            for client, waiting_op in self.ack_waiters.pop(tag, ()):
                self._reply(client, WriteAck(waiting_op, committed))
        if self._coded:
            for tag in [
                t for t, parked in self._parked_prewrites.items()
                if parked.op == op and t != committed
            ]:
                del self._parked_prewrites[tag]
                self._frag_stash.pop(tag, None)
        if self.op_index.get(op) in zombies:
            del self.op_index[op]
        if zombies:
            self._retarget_read_waiters()

    def _retarget_read_waiters(self) -> None:
        """Clamp read thresholds to the highest still-outstanding tag.

        A waiter's threshold can point at a pending entry that was
        dropped as a superseded duplicate; left alone it would wait for
        a commit that never comes.  Clamping to ``max(pending, tag)`` is
        safe: every write completed before the read arrived has either
        been installed here (covered by ``self.tag``) or is still
        pending here (covered by the remaining pending set).
        """
        if not self.read_waiters:
            return
        ceiling = max_tag(self.pending.keys())
        if self.tag > ceiling:
            ceiling = self.tag
        changed = False
        clamped = []
        for threshold, client, op in self.read_waiters:
            if threshold > ceiling:
                threshold = ceiling
                changed = True
            clamped.append((threshold, client, op))
        if changed:
            self.read_waiters = clamped
            self._wake_readers()

    def _wake_readers(self) -> None:
        """Answer read waiters whose threshold is now installed.

        The installed tag only ever reflects *committed* values (installs
        happen at pre-write return, commit processing, state sync and
        merged-state application), so ``self.tag >= threshold`` is the
        paper's line-81 condition "received a write message with tag >=
        threshold".
        """
        if not self.read_waiters:
            return
        still_waiting = []
        satisfied = []
        for threshold, client, op in self.read_waiters:
            if self.tag >= threshold:
                satisfied.append((client, op))
            else:
                still_waiting.append((threshold, client, op))
        self.read_waiters = still_waiting
        for client, op in satisfied:
            # _answer_read may reconstruct (coded mode), which can
            # re-enter waiter lists — hence the two-phase drain.
            self._answer_read(client, op)

    def _reply(self, client: int, message) -> None:
        self._replies.append(Reply(client, message))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServerProtocol id={self.server_id} tag={self.tag} "
            f"pending={len(self.pending)} paused={self.paused}>"
        )
