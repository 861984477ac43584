"""Unit tests for the sans-I/O host core (repro.runtime.host).

The core is driven here with stub protocols and explicit clock readings;
every effect it yields is collected and inspected, no runtime involved.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.messages import LeaseGrant
from repro.core.ring import RingView
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime.host import (
    CHECK,
    RECONCILE,
    REJOIN,
    ArmTimer,
    Beacon,
    Count,
    HostCore,
    Kick,
    Post,
    SendLease,
    ring_batch_limit,
)
from repro.sim.counters import FD_SUSPICIONS, LEASE_GRANTED

HB = HeartbeatConfig()


class _StubProto:
    """The slice of ServerProtocol the core reads and drives."""

    def __init__(self, view: RingView):
        self.installed_view = view
        self.installed_epoch = view.epoch
        self.reconcile_due = False
        self.lease_waitout_due = False
        self.rejoining = False
        self.blocked_on_view = False
        self.lease_updates: list[tuple[bool, int]] = []
        self.announced: list[int] = []
        self.proposals = 0

    def on_lease_update(self, valid: bool, epoch: int):
        self.lease_updates.append((valid, epoch))
        return []

    def may_grant_lease(self, peer: int) -> bool:
        return True

    def propose_reconfig(self):
        self.proposals += 1
        return []

    def queue_rejoin_announce(self, sponsor: int) -> None:
        self.announced.append(sponsor)

    def complete_rejoin_alone(self) -> None:
        self.rejoining = False

    def drain_replies(self):
        return []


def _core(proto, *, heartbeat=HB, sponsors=None, read_leases=False):
    config = ProtocolConfig(view_quorum=heartbeat is not None, read_leases=read_leases)
    return HostCore(
        0,
        lambda: [proto],
        config,
        [1, 2],
        heartbeat,
        sponsors or (lambda pending, attempt: [1 + attempt % 2] * len(pending)),
        batching=True,
    )


def _counts(effects):
    return [e.name for e in effects if isinstance(e, Count)]


def _timers(effects):
    return [(e.kind, e.delay) for e in effects if isinstance(e, ArmTimer)]


def test_batch_limit_rule_caps_depth_by_ring_size():
    assert ring_batch_limit(4, 4) == 4
    assert ring_batch_limit(4, 8) == 2
    assert ring_batch_limit(4, 32) == 1
    assert ring_batch_limit(1, 2) == 1
    proto = _StubProto(RingView.initial(3))
    assert _core(proto).batch_limit == 4
    config = ProtocolConfig()
    unbatched = HostCore(0, lambda: [proto], config, [1, 2], None, None, batching=False)
    assert unbatched.batch_limit == 1


def test_grant_from_grantor_that_just_entered_the_view_counts():
    """The required-grantor set is refreshed before a grant is admitted:
    a grantor revived into the view in this very step counts at once."""
    proto = _StubProto(RingView((0, 1, 2), frozenset({2}), 1))
    core = _core(proto, read_leases=True)
    list(core.start(now=0.0, trusting=True))
    counts = _counts(core.on_lease_message(LeaseGrant(1, 1, 0.0), now=0.0))
    assert proto.lease_updates[-1] == (True, 1)  # only 1 was required
    # Server 2 is revived: the new view (epoch 2) needs both grantors.
    proto.installed_view = RingView((0, 1, 2), frozenset(), 2)
    proto.installed_epoch = 2
    counts += _counts(core.on_lease_message(LeaseGrant(2, 2, 0.01), now=0.01))
    counts += _counts(core.on_lease_message(LeaseGrant(1, 2, 0.01), now=0.01))
    assert counts.count(LEASE_GRANTED) == 3, counts
    assert proto.lease_updates[-1] == (True, 2)


def test_reconcile_timers_coalesce_and_watchdog_rearms_while_blocked():
    proto = _StubProto(RingView.initial(3))
    core = _core(proto)
    proto.reconcile_due = True
    first = list(core.after_step())
    proto.reconcile_due = True
    second = list(core.after_step())
    assert _timers(first) == [(RECONCILE, HB.propose_grace)]
    assert _timers(second) == [], "one armed reconcile timer per host"
    proto.blocked_on_view = True
    fired = list(core.on_timer(RECONCILE, None, now=0.1))
    assert proto.proposals == 1
    assert isinstance(fired[-2], Kick)
    assert _timers(fired) == [(RECONCILE, 4 * HB.propose_grace)]
    proto.blocked_on_view = False
    assert _timers(list(core.on_timer(RECONCILE, None, now=0.4))) == []


def test_rejoin_pump_rotates_sponsors_with_backoff_then_retires():
    proto = _StubProto(RingView.initial(3))
    proto.rejoining = True
    core = _core(proto, heartbeat=None)
    delays = []
    effects = list(core.begin_rejoin())
    assert list(core.begin_rejoin()) == [], "one pump per incarnation"
    for attempt in range(1, 5):
        (timer,) = [e for e in effects if isinstance(e, ArmTimer)]
        delays.append(timer.delay)
        assert timer.kind == REJOIN and timer.arg == attempt
        effects = list(core.on_timer(REJOIN, attempt, now=0.0))
    assert delays == [0.25, 0.5, 1.0, 1.0]
    assert proto.announced == [1, 2, 1, 2, 1]
    proto.rejoining = False
    assert list(core.on_timer(REJOIN, 5, now=0.0)) == []
    proto.rejoining = True
    assert any(isinstance(e, ArmTimer) for e in core.begin_rejoin()), "restartable"


def test_rejoin_without_sponsors_resumes_alone():
    proto = _StubProto(RingView.initial(3))
    proto.rejoining = True
    core = _core(proto, heartbeat=None, sponsors=lambda pending, attempt: None)
    effects = list(core.begin_rejoin())
    assert not proto.rejoining
    assert [type(e) for e in effects] == [Post]


def test_detector_beacons_grants_and_suspects():
    proto = _StubProto(RingView.initial(3))
    suspects = []
    proto.on_suspect = lambda peer: suspects.append(peer) or []
    core = _core(proto, read_leases=True)
    started = list(core.start(now=1.0, trusting=False))
    assert [e.peer for e in started if isinstance(e, Beacon)] == [1, 2]
    grants = [e for e in started if isinstance(e, SendLease)]
    assert [(g.peer, g.message.sent_at) for g in grants] == [(1, 1.0), (2, 1.0)]
    assert [k for k, _ in _timers(started)] == ["beacon", CHECK]
    # Suspect-first after a restart: the first check trips every peer.
    checked = list(core.on_timer(CHECK, None, now=1.0))
    assert suspects == [1, 2]
    assert _counts(checked).count(FD_SUSPICIONS) == 2
    revokes = [e for e in checked if isinstance(e, SendLease)]
    assert [type(r.message).__name__ for r in revokes] == ["LeaseRevoke"] * 2
