"""Trace pins: fixed chaos schedules hash to committed constants.

``test_prop_determinism`` proves two runs *within one checkout* agree.
These pins go further: each fixed schedule's full operation history
(every invocation and response, with client, op id, kind, value, tag and
simulated time, in event order) and its sorted trace counters hash to a
sha256 committed below.  A refactor of the runtimes that changes the
order of any timer, message or host step changes the digest, so
"simulated behaviour is unchanged" is checked across commits, not just
within one.

The constants were computed once and must never be edited to make a
change pass: a moved digest is a behaviour change to explain (or a
determinism bug if it differs between two processes of one checkout).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.history import History
from repro.chaos import runner as chaos_runner
from repro.chaos.runner import run_schedule
from repro.chaos.schedule import PROFILES, generate_schedule
from repro.runtime.sim_net import SimCluster

#: (profile, index) -> sha256 of the run's history events and counters,
#: all at chaos seed 0.  ``core`` is the perfect-detector profile.
PINS = {
    ("partition", 0): "819e00a31d2fb6ec2181c3a0b77860b4c3f008dbbd3a9f7de07a8de038491c41",
    ("partition", 1): "76ba2d6eba9b57185ccbd99d3e8c1aeff286fde45ab62a857ee13ab0e1b725fc",
    ("lease", 0): "7b4a56f5388f9d07e024cfbb671ff25df9e1d024ce967b183d6aec9abfc4f282",
    ("lease", 1): "620a58c67a6c2060a56ef617138c12690d79a744fc79dd042a1d6856247fe4d7",
    ("coded", 0): "b13390d8ad8d94f26fb9363353099488cf8564dc6d1c907076007a62f91544ba",
    ("coded", 1): "34a0faa6ee5160e611bb0e0b59418c8bb66b02a638f1b2a996031116aba6e72f",
    ("skew", 0): "05cf612bfc03b1c6b38d58e7dc2eed2a97961b2825a9b5ec47b764a730f3aeed",
    ("skew", 1): "31b67a28380410b59e7abfcbe70519a3638101e9a282f3788a3973565628848b",
    ("core", 0): "9adfcebd4c056343a5fb124fecc1a46cd06ae59005254c92fc3a0e4f61252546",
}


class _RecordingHistory(History):
    """A history that also logs every invocation and response in order
    (``Operation`` drops op ids and interleaving; the pin keeps both)."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple] = []

    def invoke(self, time, client, op, kind, value, block=None) -> None:
        self.log.append(("invoke", time, client, op, kind, value, block))
        super().invoke(time, client, op, kind, value, block=block)

    def respond(self, time, client, op, value, tag=None) -> None:
        self.log.append(("respond", time, client, op, value, tag))
        super().respond(time, client, op, value, tag)


def _pinned_run(profile_name: str, index: int, monkeypatch):
    """Run one chaos schedule; returns (result, digest, counters)."""
    clusters: list[SimCluster] = []
    original_apply = SimCluster.apply_faults

    def capture(cluster, plan):
        clusters.append(cluster)
        return original_apply(cluster, plan)

    monkeypatch.setattr(chaos_runner, "History", _RecordingHistory)
    monkeypatch.setattr(SimCluster, "apply_faults", capture)
    profile = PROFILES[profile_name]
    protocol = "sharded" if profile_name in ("scale", "skew") else "core"
    schedule = generate_schedule(0, index, 4, profile)
    result = run_schedule(schedule, protocol)
    (cluster,) = clusters
    counters = dict(cluster.env.trace.counters)
    digest = hashlib.sha256()
    for event in cluster.history.log:
        digest.update(repr(event).encode())
        digest.update(b"\n")
    digest.update(repr(sorted(counters.items())).encode())
    return result, digest.hexdigest(), counters


@pytest.mark.parametrize("profile_name,index", sorted(PINS))
def test_trace_pin(profile_name, index, monkeypatch):
    result, digest, _counters = _pinned_run(profile_name, index, monkeypatch)
    assert result.ok, result.describe()
    assert digest == PINS[(profile_name, index)], (
        f"{profile_name}#{index} trace moved: {digest}"
    )


def test_lease_schedule_exercises_the_lease_path(monkeypatch):
    """End-to-end lease coverage in tier-1: a pinned ``lease`` schedule
    is linearizable and served local reads, fell back to fenced reads
    and honoured at least one old-epoch wait-out."""
    result, _digest, counters = _pinned_run("lease", 0, monkeypatch)
    assert result.linearizable, result.reason
    assert counters.get("lease.local_reads", 0) > 0
    assert counters.get("lease.fallbacks", 0) > 0
    assert counters.get("lease.waitouts", 0) > 0
