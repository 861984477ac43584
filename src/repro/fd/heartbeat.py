"""Heartbeat bookkeeping for timeout-based failure detection.

The asyncio runtime detects ring-neighbour crashes through TCP connection
breaks (the paper's primary mechanism); :class:`HeartbeatTracker`
complements it for peers we hold no connection to.  It is sans-I/O — the
caller feeds heartbeats and clock readings, the tracker reports suspects
— so the same logic is testable without a loop and usable from asyncio
and from the simulator alike.

Two operating modes:

* **perfect** (``imperfect=False``, the default): under the paper's
  synchrony assumption (bounded message delay ``d`` and heartbeat period
  ``p``), a timeout of ``p + d`` yields a *perfect* detector — no false
  suspicion, every crash detected within one timeout.  Suspicion is
  final: a late heartbeat from a suspect is ignored.
* **imperfect** (``imperfect=True``): the timeout is a heuristic, not a
  bound.  A suspected peer whose heartbeat arrives late is *un-suspected*
  (:meth:`heard_from` returns ``True`` at that transition), which is the
  signal the epoch-guarded reconfiguration layer uses to fold a wrongly
  suspected server back into the ring.

Membership is updatable (:meth:`add_peer` / :meth:`remove_peer`) so a
tracker can follow reconfigured views instead of silently ignoring
heartbeats from peers it was never told about — ``heard_from`` for an
unknown peer is still a no-op (returning ``False``), but callers that
grow the ring can now keep the tracker honest.

Suspicion uses a strict threshold: a peer is suspected when
``now - last_heard > timeout``; at exactly ``now - last_heard == timeout``
it is still trusted (the timeout is the *allowed* silence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class HeartbeatConfig:
    """Timing knobs for a heartbeat-based (imperfect) failure detector.

    Attributes
    ----------
    period:
        Interval between heartbeats sent to each peer.
    timeout:
        Silence after which a peer is suspected.  A heuristic, not a
        bound: wrong suspicion is *expected* under partitions, pauses
        and loss, and costs liveness only (see docs/reconfiguration.md).
    check_interval:
        Cadence at which the runtime polls :meth:`HeartbeatTracker.check`.
    propose_grace:
        Delay between a suspicion changing and the server acting on it
        by proposing a new ring view.  Covers the skew between the two
        sides of a partition noticing each other's silence: a wrongly
        suspected server has paused (its own detector fired) before the
        surviving side installs the view that excludes it.  Must exceed
        ``period + check_interval`` plus delivery jitter.
    lease_duration:
        How long one :class:`~repro.core.messages.LeaseGrant` stays
        fresh, measured against the holder's clock from the grant's
        grantor-stamped send time.  Grants ride every heartbeat, so a
        stable ring renews well within the duration; the duration only
        binds when grants stop arriving.  Must satisfy
        ``lease_duration + 2*clock_drift_bound < timeout`` *strictly*:
        a grantor stops granting the moment it stops hearing the holder,
        so the holder's last grant expires (even under worst-case drift,
        measured on the grantor's clock) before the grantor's suspicion
        can install a view excluding the holder — the lease dies before
        the epoch that would conflict with it can act.
    clock_drift_bound:
        Declared bound on the absolute offset between any two servers'
        clocks.  The lease math charges ``2 *`` this bound (holder fast
        and grantor slow, or vice versa).  The nemesis ``clock_skew``
        fault injects offsets up to this bound to attack the arithmetic.
    grant_leases:
        Whether this detector hands out read leases at all.  Off, every
        read falls back to ring circulation (the measured baseline for
        the leased read win); lease *validity checking* stays on so the
        protocol path is identical, just never taken.
    """

    period: float = 0.02
    timeout: float = 0.12
    check_interval: float = 0.01
    propose_grace: float = 0.06
    lease_duration: float = 0.08
    clock_drift_bound: float = 0.01
    grant_leases: bool = True

    def validate(self) -> "HeartbeatConfig":
        for name in ("period", "timeout", "check_interval", "propose_grace"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"heartbeat {name} must be > 0")
        if self.timeout <= self.period:
            raise ConfigurationError(
                "heartbeat timeout must exceed the period "
                f"(timeout={self.timeout}, period={self.period})"
            )
        if self.propose_grace < self.period + self.check_interval:
            raise ConfigurationError(
                "propose_grace must cover at least one period + check "
                f"interval of suspicion skew (got {self.propose_grace})"
            )
        if self.lease_duration <= 0:
            raise ConfigurationError("lease_duration must be > 0")
        if self.clock_drift_bound < 0:
            raise ConfigurationError("clock_drift_bound must be >= 0")
        if self.lease_duration <= self.period:
            raise ConfigurationError(
                "lease_duration must exceed the heartbeat period or every "
                f"grant expires before its renewal (got {self.lease_duration})"
            )
        if not self.lease_duration + 2 * self.clock_drift_bound < self.timeout:
            raise ConfigurationError(
                "lease_duration + 2*clock_drift_bound must be strictly below "
                f"the suspicion timeout (got {self.lease_duration} + "
                f"2*{self.clock_drift_bound} vs timeout={self.timeout}): a "
                "lease must provably die before the suspicion that would "
                "exclude its holder can fire"
            )
        return self

    def waitout(self) -> float:
        """Old-epoch lease wait-out applied at view install.

        A server that installs a view excluding members must wait this
        long before initiating new-epoch writes: any lease grant it (or
        any other new-view member) issued under the old epoch — sent at
        the latest at install time — has expired on every holder's
        clock, worst-case drift included.
        """
        return self.lease_duration + 2 * self.clock_drift_bound


class HeartbeatTracker:
    """Tracks last-heard times and derives suspicions."""

    def __init__(
        self,
        peers: Iterable[int],
        timeout: float,
        now: float = 0.0,
        *,
        imperfect: bool = False,
    ):
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.imperfect = imperfect
        self._last_heard: dict[int, float] = {peer: now for peer in peers}
        self._suspected: set[int] = set()

    def heard_from(self, peer: int, now: float) -> bool:
        """Record a heartbeat (or any message) from ``peer``.

        Returns ``True`` exactly when this arrival *un-suspects* the
        peer — possible only in imperfect mode; a perfect detector never
        un-suspects, and an unknown peer is ignored either way.
        """
        if peer not in self._last_heard:
            return False
        if peer in self._suspected:
            if not self.imperfect:
                return False  # perfect detectors never un-suspect
            self._suspected.discard(peer)
            self._last_heard[peer] = max(self._last_heard[peer], now)
            return True
        self._last_heard[peer] = max(self._last_heard[peer], now)
        return False

    def check(self, now: float) -> list[int]:
        """Return peers newly suspected as of ``now``.

        The threshold is strict: silence of exactly ``timeout`` is still
        within the allowance; suspicion begins strictly beyond it.
        """
        newly = []
        for peer, last in self._last_heard.items():
            if peer not in self._suspected and now - last > self.timeout:
                self._suspected.add(peer)
                newly.append(peer)
        return newly

    def add_peer(self, peer: int, now: float) -> None:
        """Start monitoring ``peer``, with its silence clock at ``now``.

        Adding an already-known peer is a no-op (its last-heard time and
        suspicion state are preserved), so callers can idempotently
        resync membership from a reconfigured view.
        """
        if peer not in self._last_heard:
            self._last_heard[peer] = now

    def remove_peer(self, peer: int) -> None:
        """Stop monitoring ``peer`` (removed from the ring for good).

        Removing an unknown peer is a no-op.  A removed peer is also
        dropped from the suspected set, so re-adding it later starts
        from a clean slate.
        """
        self._last_heard.pop(peer, None)
        self._suspected.discard(peer)

    def suspected(self) -> frozenset[int]:
        return frozenset(self._suspected)

    @property
    def peers(self) -> frozenset[int]:
        return frozenset(self._last_heard)


class ReadLease:
    """Holder-side read-lease validity, sans-I/O.

    A server's lease is valid when it holds a *fresh* grant — one whose
    grantor-stamped send time lies within ``duration`` of the holder's
    clock (sound across machines because the deployment declares a
    clock-drift bound, and the epoch wait-out charges twice it; measured
    from *send* rather than receipt so a grant buffered in a partition
    and flushed at heal arrives already-expired) — from **every**
    required grantor (the other alive members of its installed view),
    all stamped with the holder's current epoch.  The conjunction is the
    point: one
    grantor falling silent (crash, partition, or having moved to a new
    epoch) kills the lease within ``duration`` even if the rest of the
    ring keeps granting, so a holder cut off from *any* member stops
    serving locally before that member's suspicion can act on it.

    Freshness uses the same strictness convention as
    :class:`HeartbeatTracker`: a grant aged exactly ``duration`` is
    still fresh; strictly beyond, it has expired.  An empty required
    set (a single-server ring) is vacuously valid at any epoch — there
    is no one whose suspicion could conflict.

    Lease state is deliberately *not* part of any durable snapshot: a
    restarted server starts with :meth:`reset` state and re-earns grants
    only after rejoining, so stale pre-crash grants can never revive.
    """

    def __init__(self, duration: float):
        if duration <= 0:
            raise ValueError(f"lease duration must be > 0, got {duration}")
        self.duration = duration
        self._required: frozenset[int] = frozenset()
        #: grantor -> (epoch, holder-clock receipt time) of the latest grant.
        self._grants: dict[int, tuple[int, float]] = {}

    def set_required(self, grantors: Iterable[int]) -> None:
        """Declare the grantor set the lease needs (view change).

        Grants already held from grantors leaving the set are dropped —
        a stale grant from a server no longer in the view must not be
        able to satisfy a *future* view that re-includes it.
        """
        self._required = frozenset(grantors)
        for grantor in [g for g in self._grants if g not in self._required]:
            del self._grants[grantor]

    def grant(self, grantor: int, epoch: int, now: float) -> bool:
        """Record a grant timestamped ``now`` (the grantor's clock at
        send time); returns ``True`` if it *newly* covers the grantor
        (first grant, a changed epoch, or renewal of an expired grant)
        rather than refreshing a live one."""
        if grantor not in self._required:
            return False
        previous = self._grants.get(grantor)
        self._grants[grantor] = (epoch, now)
        if previous is None:
            return True
        old_epoch, old_at = previous
        return old_epoch != epoch or now - old_at > self.duration

    def revoke(self, grantor: int) -> None:
        """Drop ``grantor``'s grant immediately (explicit revocation)."""
        self._grants.pop(grantor, None)

    def reset(self) -> None:
        """Forget every grant (restart, pause, or defensive view install)."""
        self._grants.clear()

    def valid(self, now: float, epoch: int) -> bool:
        """Whether the lease covers serving a local read right now."""
        for grantor in sorted(self._required):
            held = self._grants.get(grantor)
            if held is None:
                return False
            grant_epoch, granted_at = held
            if grant_epoch != epoch or now - granted_at > self.duration:
                return False
        return True
