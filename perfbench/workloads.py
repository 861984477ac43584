"""The benchmark's three workloads.

All three are closed loops: every logical client waits for its reply
before it issues its next operation.

``ring_write`` and ``contended_mixed`` run the paper's Fig. 3b and
Fig. 3c configurations on the simulated dual ring (100 Mbit/s NICs,
60 us propagation).  Their figures in simulated time are a pure function
of the seed; their wall-clock throughput is what a faster hot path
raises.  The seed reaches the program only as the generated inputs: it
seeds the workload generator, which draws each write's size from
``VALUE_SIZES`` (mean 4 KiB), so different seeds interleave differently.

``wire_mixed`` runs the asyncio TCP runtime on localhost, in this
process; it is the one workload that exercises the codec, framing and
the asyncio runtime.

Wall-clock figures are taken per chunk of about ``CHUNK_SECONDS`` of
work, and each chunk is also timed against a fixed pure-Python probe
(:func:`probe`) run between slices of the workload.  The probe touches
none of the program's code, so its duration tracks only how fast the
shared host runs at that moment; scaling a chunk's rate by it gives the
rate on a host where the probe takes ``PROBE_REFERENCE_S``.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import random
import statistics
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional

from layers import sim_patches, wire_patches
from spans import SpanRecorder

#: Write sizes the generator draws from, uniformly: mean 4096 bytes.
VALUE_SIZES = (3968, 4032, 4096, 4160, 4224)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7

#: Wall seconds of work per chunk of the window.
CHUNK_SECONDS = 1.0
#: Probe duration that defines the reference host speed.
PROBE_REFERENCE_S = 0.001

#: Simulated seconds of warmup before the window, and the slices a
#: timed set-up runs it in, with a probe after each.
SIM_WARMUP = 0.1
SIM_WARMUP_SLICES = 10
#: The deterministic prefix of the window, in simulated seconds: figures
#: in simulated time and every per-op count cover exactly this span.
SIM_PREFIX = 0.5
#: The window advances in slices of this many simulated seconds, so that
#: it can end on the wall clock; a probe runs after each slice.
SIM_SLICE = 0.01

WIRE_SERVERS = 4
#: Home servers of the two wire clients (different servers).
WIRE_HOMES = (0, 2)
WIRE_VALUE_SIZE = 4096
#: Operations each wire client completes before the window opens.
WIRE_WARMUP_OPS = 200
#: Probes per wire chunk, spread over it.
WIRE_PROBES_PER_CHUNK = 20


def probe() -> float:
    """Time a fixed pure-Python task (heap and dict work, about 1 ms)."""
    started = perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(1100):
        heapq.heappush(heap, ((i * 7919) % 1103, i))
        table[i & 63] = (i, i + 1)
    while heap:
        heapq.heappop(heap)
    return perf_counter() - started


@dataclass
class Chunk:
    """One stretch of the window: operations completed, wall seconds of
    work (probes excluded) and the median probe duration."""

    ops: int
    work_s: float
    probe_s: float

    @property
    def rate(self) -> float:
        return self.ops / self.work_s

    @property
    def ref_rate(self) -> float:
        return self.rate * self.probe_s / PROBE_REFERENCE_S


class _ChunkMeter:
    """Cuts a run of (work, probe) slices into chunks."""

    def __init__(self) -> None:
        self.chunks: list[Chunk] = []
        self._ops = 0
        self._work = 0.0
        self._probes: list[float] = []

    def add(self, work_s: float, probe_s: float, ops: int) -> None:
        """One slice done; ``ops`` counts completions since the start."""
        self._work += work_s
        self._probes.append(probe_s)
        if self._work >= CHUNK_SECONDS:
            self._close(ops)

    def finish(self, ops: int) -> None:
        """Keep the trailing partial chunk if it is at least half a
        chunk (or the only one): a sliver would be a noisy sample."""
        if self._probes and (self._work >= CHUNK_SECONDS / 2 or not self.chunks):
            self._close(ops)

    def _close(self, ops: int) -> None:
        self.chunks.append(
            Chunk(ops - self._ops, self._work, statistics.median(self._probes))
        )
        self._ops, self._work, self._probes = ops, 0.0, []


@dataclass
class Outcome:
    """What one run measured, before it becomes metrics."""

    #: ``(wall seconds, reference-host seconds)`` of each set-up.
    setups: list
    #: Chunks of the untraced window.
    chunks: list
    #: Completed operations per second of the clients' clock: simulated
    #: seconds on the sim workloads, reference-host seconds on wire_mixed.
    client_ops_per_s: float
    #: Latencies in milliseconds of the clients' clock, per kind, one
    #: dict per chunk (the simulated prefix is a single chunk).
    latency_chunks: list
    attempted: int
    failed: int
    check_ok: bool
    check_explanation: str
    checker_ops_per_s: float
    #: Wall-clock latencies as measured (wire_mixed only), per kind.
    wall_latencies_ms: dict = field(default_factory=dict)
    #: Sim workloads: figures that must repeat exactly for one seed.
    digest: dict = field(default_factory=dict)
    #: Traced runs: the recorder, the traced wall time and ops, and the
    #: traced and untraced throughput over the same kind of work.
    recorder: Optional[SpanRecorder] = None
    traced_wall_s: float = 0.0
    traced_ops: int = 0
    untraced_ops_per_s: float = 0.0
    traced_ops_per_s: float = 0.0
    #: Counters the simulator keeps for the traced window.
    traced_counters: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def window_ops(self) -> int:
        return sum(chunk.ops for chunk in self.chunks)

    @property
    def window_work_s(self) -> float:
        return sum(chunk.work_s for chunk in self.chunks)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (exact, so it repeats bit for bit)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _scaled_setup(elapsed_s: float, probes: list) -> tuple:
    """``(wall seconds, seconds on the reference host)`` of one set-up
    that took ``elapsed_s`` including the ``probes`` run inside it."""
    wall_s = elapsed_s - sum(probes)
    return wall_s, wall_s * PROBE_REFERENCE_S / statistics.median(probes or [probe()])


def differences(left: dict, right: dict) -> str:
    keys = sorted(k for k in set(left) | set(right) if left.get(k) != right.get(k))
    return ", ".join(f"{k}: {left.get(k)!r} != {right.get(k)!r}" for k in keys)


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------


def _fingerprinting_history():
    """A :class:`History` that records a fingerprint of each value.

    The linearizability checks compare values only for equality, and
    keeping every 4 KiB value alive would make peak memory grow with the
    number of operations the host manages to run."""
    from repro.analysis.history import History

    class FingerprintHistory(History):
        def invoke(self, time, client, op, kind, value, block=None):
            super().invoke(time, client, op, kind, _fingerprint(value), block)

        def respond(self, time, client, op, value, tag=None):
            super().respond(time, client, op, _fingerprint(value), tag)

    return FingerprintHistory()


def _fingerprint(value):
    # Compared only within this process, so the salted hash will do.
    return None if value is None else hash(value)


def _sim_spec(name: str):
    from repro.workload.scenarios import contention_scenario, write_only_scenario

    if name == "ring_write":
        return 8, replace(write_only_scenario(), value_sizes=VALUE_SIZES)
    return 4, replace(contention_scenario(), value_sizes=VALUE_SIZES)


def _build_sim(name: str, seed: int, probes: Optional[list] = None):
    from repro.runtime.sim_net import SimCluster
    from repro.workload.generator import LoadDriver

    servers, spec = _sim_spec(name)
    cluster = SimCluster.build(
        num_servers=servers, topology="dual", initial_value=b"\xa5" * spec.value_size
    )
    cluster.history = _fingerprinting_history()
    driver = LoadDriver(cluster, spec, seed=seed)
    driver.start()
    slices = SIM_WARMUP_SLICES if probes is not None else 1
    for index in range(1, slices + 1):
        cluster.run(until=SIM_WARMUP * index / slices)
        if probes is not None:
            probes.append(probe())
    return cluster, driver


def _sim_ops(driver) -> int:
    return sum(kind.operations for kind in driver.stats.values())


def _sim_tallies(cluster) -> tuple:
    return (
        cluster.env.scheduler.events_fired,
        sum(store.saves for store in cluster.durable_stores.values()),
    )


def _sim_window(cluster, driver, min_wall: float, patches=None) -> dict:
    """Run the window: the deterministic prefix, then on until
    ``min_wall`` wall seconds have passed.  Returns the prefix capture,
    its wall seconds of work, and the chunks of the whole window."""
    cluster.env.trace.reset_counters()
    driver.begin_measurement()
    base_events, base_saves = _sim_tallies(cluster)
    start_sim = cluster.now
    prefix_slices = round(SIM_PREFIX / SIM_SLICE)
    prefix = None
    meter = _ChunkMeter()
    work_total = 0.0
    probes = []
    if patches is not None:
        patches.apply()
    started = perf_counter()
    try:
        slice_index = 0
        while prefix is None or perf_counter() - started < min_wall:
            slice_index += 1
            sliced = perf_counter()
            cluster.run(until=start_sim + slice_index * SIM_SLICE)
            work = perf_counter() - sliced
            work_total += work
            if slice_index == prefix_slices:
                events, saves = _sim_tallies(cluster)
                prefix = {
                    "work_s": work_total,
                    "reads": list(driver.stats["read"].latencies),
                    "writes": list(driver.stats["write"].latencies),
                    "counters": dict(cluster.env.trace.counters),
                    "events": events - base_events,
                    "saves": saves - base_saves,
                    "probe_s": statistics.median(probes) if probes else probe(),
                }
            probes.append(probe())
            meter.add(work, probes[-1], _sim_ops(driver))
    finally:
        if patches is not None:
            patches.undo()
    meter.finish(_sim_ops(driver))
    driver.end_measurement()
    prefix["chunks"] = meter.chunks
    prefix["start_sim"] = start_sim
    return prefix


def sim_digest(prefix: dict) -> dict:
    """Figures of the prefix that are a pure function of the seed."""
    from repro.sim.counters import NET_UNICASTS, NET_WIRE_BYTES, RING_MESSAGES, net_suffix

    counters = prefix["counters"]
    ops = len(prefix["reads"]) + len(prefix["writes"])

    def net_total(kind: str) -> int:
        return sum(v for k, v in counters.items() if k.endswith(net_suffix(kind)))

    digest = {
        "sim_ops": ops,
        "sim_ops_per_s": ops / SIM_PREFIX,
        "events.per_op": prefix["events"] / ops,
        "network.unicasts_per_op": net_total(NET_UNICASTS) / ops,
        "network.wire_bytes_per_op": net_total(NET_WIRE_BYTES) / ops,
        "ring.messages_per_op": counters.get(RING_MESSAGES, 0) / ops,
        "durable.saves_per_op": prefix["saves"] / ops,
    }
    for kind, samples in (("read", prefix["reads"]), ("write", prefix["writes"])):
        digest[f"sim_{kind}_n"] = len(samples)
        for q in (50, 90, 99):
            digest[f"sim_{kind}_p{q}_ms"] = percentile(samples, q) * 1e3
    return digest


def _sim_finish(cluster, driver, start_sim: float) -> tuple:
    """Stop issuing, let in-flight operations finish, check the history.

    Returns ``(attempted, failed, ok, explanation, checker ops/s)``;
    attempted and failed count operations invoked from ``start_sim`` on.
    """
    from repro.analysis.linearizability import check_tagged_history

    driver.stop()
    cluster.env.run_until_idle()
    history = cluster.history
    history.close()
    started = perf_counter()
    ok, explanation = check_tagged_history(history, require_full_coverage=True)
    checked = perf_counter() - started
    window_ops = [op for op in history.operations if op.start >= start_sim]
    failed = sum(1 for op in window_ops if not op.complete)
    return (
        len(window_ops), failed, ok, explanation,
        len(history.operations) / checked if checked > 0 else 0.0,
    )


def run_sim(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    setups = []
    for _ in range(SETUPS):
        # Each set-up starts from the same heap: the previous cluster is
        # collected before the clock starts, not during the next build.
        cluster = driver = None
        gc.collect()
        probes = []
        started = perf_counter()
        cluster, driver = _build_sim(name, seed, probes)
        setups.append(_scaled_setup(perf_counter() - started, probes))
    # Untraced runs measure the full window; a traced run measures half
    # untraced, then replays the deterministic prefix traced.
    window = _sim_window(cluster, driver, seconds / 2 if trace else seconds)
    attempted, failed, ok, explanation, checker_rate = _sim_finish(
        cluster, driver, window["start_sim"]
    )
    digest = sim_digest(window)
    outcome = Outcome(
        setups=setups,
        chunks=window["chunks"],
        client_ops_per_s=digest["sim_ops_per_s"],
        latency_chunks=[{
            "read": [v * 1e3 for v in window["reads"]],
            "write": [v * 1e3 for v in window["writes"]],
        }],
        attempted=attempted,
        failed=failed,
        check_ok=ok,
        check_explanation=explanation,
        checker_ops_per_s=checker_rate,
        digest=digest,
    )
    if not trace:
        return outcome

    recorder = SpanRecorder()
    cluster, driver = _build_sim(name, seed)
    traced = _sim_window(cluster, driver, 0.0, patches=sim_patches(recorder))
    t_attempted, t_failed, t_ok, t_explanation, _ = _sim_finish(
        cluster, driver, traced["start_sim"]
    )
    traced_digest = sim_digest(traced)
    if traced_digest != digest:
        outcome.check_ok = False
        outcome.notes.append(
            "determinism: the traced replay of the prefix differs from the "
            f"untraced run: {differences(digest, traced_digest)}"
        )
    if not t_ok:
        outcome.check_ok = False
        outcome.check_explanation = f"traced replay: {t_explanation}"
    outcome.attempted += t_attempted
    outcome.failed += t_failed
    outcome.recorder = recorder
    outcome.traced_wall_s = traced["work_s"]
    outcome.traced_ops = traced_digest["sim_ops"]
    # The same simulated work on both sides, the prefix, each side scaled
    # to the reference host.
    outcome.untraced_ops_per_s = (
        digest["sim_ops"] / window["work_s"] * window["probe_s"] / PROBE_REFERENCE_S
    )
    outcome.traced_ops_per_s = (
        traced_digest["sim_ops"] / traced["work_s"] * traced["probe_s"] / PROBE_REFERENCE_S
    )
    outcome.traced_counters = dict(traced["counters"], events=traced["events"])
    return outcome


# ----------------------------------------------------------------------
# Real-socket workload
# ----------------------------------------------------------------------


@dataclass
class _WireState:
    history: object
    #: Completed operations as ``(kind, start, end)``.
    completed: list = field(default_factory=list)
    #: Tag of each client's last completed operation.
    tags: dict = field(default_factory=dict)
    warm_clients: int = 0
    warmed: Optional[asyncio.Event] = None
    stop: bool = False


# The driver's two steps are module functions so that a traced run can
# time them like any other layer's entry points.


def next_op(rng: random.Random, client_id: int, seq: int) -> tuple:
    """The driver's next operation: a seeded 50/50 read or write of a
    unique value (client id and sequence number lead the random bytes)."""
    if rng.random() < 0.5:
        return "read", None
    head = client_id.to_bytes(8, "big") + seq.to_bytes(8, "big")
    return "write", head + rng.randbytes(WIRE_VALUE_SIZE - len(head))


def record(state: _WireState, client_id: int, seq: int, kind: str, result,
           start: float, end: float) -> None:
    """The driver's bookkeeping for one completed operation."""
    state.history.respond(end, client_id, seq, result, state.tags.pop(client_id, None))
    state.completed.append((kind, start, end))


def _keep_tags(client, tags: dict) -> None:
    """Keep the tag of each operation the client completes.

    The asyncio client returns only values; the tagged linearizability
    check needs the tag each read saw and each write committed under,
    which the client protocol reports in its completion effect.  The
    class attribute is looked up per call, so a traced chunk still times
    the protocol's ``on_reply``."""
    from repro.runtime.interface import Complete

    proto = client.proto

    def on_reply(message):
        effects = type(proto).on_reply(proto, message)
        for effect in effects:
            if isinstance(effect, Complete):
                tags[client.client_id] = effect.tag
        return effects

    proto.on_reply = on_reply


async def _client_loop(state: _WireState, client, rng: random.Random) -> None:
    from repro.errors import StorageUnavailableError

    _keep_tags(client, state.tags)
    seq = 0
    while not state.stop:
        kind, value = next_op(rng, client.client_id, seq)
        start = perf_counter()
        state.history.invoke(start, client.client_id, seq, kind, value)
        try:
            if kind == "write":
                await client.write(value)
                result = None
            else:
                result = await client.read()
        except StorageUnavailableError:
            pass  # stays open in the history: counted as failed
        else:
            record(state, client.client_id, seq, kind, result, start, perf_counter())
        seq += 1
        if seq == WIRE_WARMUP_OPS:
            state.warm_clients += 1
            if state.warm_clients == len(WIRE_HOMES):
                state.warmed.set()


async def _wire_setup(seed: int):
    """Start the cluster and its clients and run the warmup; returns the
    pieces the window and the tear-down need."""
    from repro.runtime.asyncio_net import AsyncCluster
    from repro.sim.rng import derive_seed

    # Snapshots stay in memory (the runtime's default store): written to
    # the shared disk, the same run's throughput spread by a third.
    cluster = AsyncCluster(WIRE_SERVERS)
    await cluster.start()
    clients = [cluster.client(home_server=home) for home in WIRE_HOMES]
    state = _WireState(history=_fingerprinting_history(), warmed=asyncio.Event())
    tasks = [
        asyncio.create_task(
            _client_loop(state, client, random.Random(derive_seed(seed, f"wire.client{i}")))
        )
        for i, client in enumerate(clients)
    ]
    await state.warmed.wait()
    return cluster, clients, state, tasks


async def _wire_teardown(cluster, clients, state, tasks) -> None:
    state.stop = True
    await asyncio.gather(*tasks)
    for client in clients:
        await client.close()
    await cluster.stop()


async def _probe_until(done: asyncio.Event, probes: list) -> None:
    """Probe the host every few event-loop milliseconds until ``done``."""
    while True:
        await asyncio.sleep(0.02)
        if done.is_set():
            return
        probes.append(probe())


async def _wire_chunk(probes: list) -> tuple:
    """Let the clients run for one chunk, probing the host speed at
    evenly spaced points; returns ``(start, end, probe durations)``."""
    start = perf_counter()
    durations = []
    for _ in range(WIRE_PROBES_PER_CHUNK):
        await asyncio.sleep(CHUNK_SECONDS / WIRE_PROBES_PER_CHUNK)
        probed = perf_counter()
        durations.append(probe())
        probes.append((probed, perf_counter()))
    return start, perf_counter(), durations


async def _run_wire(seed: int, seconds: float, trace: bool) -> Outcome:
    setups = []
    for index in range(SETUPS):
        gc.collect()
        probes = []
        done = asyncio.Event()
        prober = asyncio.create_task(_probe_until(done, probes))
        started = perf_counter()
        pieces = await _wire_setup(seed)
        elapsed = perf_counter() - started
        done.set()
        await prober
        setups.append(_scaled_setup(elapsed, probes[:]))
        if index < SETUPS - 1:
            await _wire_teardown(*pieces)
    cluster, clients, state, tasks = pieces
    window_start = perf_counter()

    recorder = SpanRecorder() if trace else None
    patches = wire_patches(recorder, sys.modules[__name__]) if trace else None
    # A traced run alternates untraced and traced chunks, so both kinds
    # see the same drift of the host over the window.
    count = max(2, round(seconds / CHUNK_SECONDS))
    plan = [trace and index % 2 == 1 for index in range(count)]
    windows = []  # (start, end, probe durations, traced)
    probes = []  # probe intervals, which stall the event loop
    for traced in plan:
        if traced:
            patches.apply()
        start, end, durations = await _wire_chunk(probes)
        if traced:
            patches.undo()
        windows.append((start, end, durations, traced))
    await _wire_teardown(cluster, clients, state, tasks)

    from repro.analysis.linearizability import check_tagged_history

    history = state.history
    history.close()
    checked_at = perf_counter()
    ok, explanation = check_tagged_history(history, require_full_coverage=True)
    checked = perf_counter() - checked_at

    chunks = {False: [], True: []}
    latency_chunks = []
    wall_latencies = {"read": [], "write": []}
    ends = sorted(state.completed, key=lambda op: op[2])
    cursor = 0
    for start, end, durations, traced in windows:
        ops = []
        while cursor < len(ends) and ends[cursor][2] < end:
            if ends[cursor][2] >= start:
                ops.append(ends[cursor])
            cursor += 1
        probe_s = statistics.median(durations)
        chunks[traced].append(Chunk(len(ops), end - start - sum(durations), probe_s))
        if traced:
            continue
        latencies = {"read": [], "write": []}
        latency_chunks.append(latencies)
        for kind, op_start, op_end in ops:
            # An operation the probe stalled would measure the probe.
            if any(op_start < p_end and p_start < op_end for p_start, p_end in probes):
                continue
            wall_ms = (op_end - op_start) * 1e3
            wall_latencies[kind].append(wall_ms)
            latencies[kind].append(wall_ms * PROBE_REFERENCE_S / probe_s)
    window_ops = [op for op in history.operations if op.start >= window_start]
    outcome = Outcome(
        setups=setups,
        chunks=chunks[False],
        client_ops_per_s=statistics.median(c.ref_rate for c in chunks[False]),
        latency_chunks=latency_chunks,
        wall_latencies_ms=wall_latencies,
        attempted=len(window_ops),
        failed=sum(1 for op in window_ops if not op.complete),
        check_ok=ok,
        check_explanation=explanation,
        checker_ops_per_s=len(history.operations) / checked if checked > 0 else 0.0,
    )
    outcome.notes.append(
        "flush policy: each server persists one in-memory snapshot per dirty "
        "protocol step (no file, no fsync)"
    )
    if trace:
        outcome.recorder = recorder
        outcome.traced_ops = sum(c.ops for c in chunks[True])
        outcome.traced_wall_s = sum(c.work_s for c in chunks[True])
        outcome.untraced_ops_per_s = statistics.median(c.ref_rate for c in chunks[False])
        outcome.traced_ops_per_s = statistics.median(c.ref_rate for c in chunks[True])
    return outcome


WORKLOADS = ("ring_write", "contended_mixed", "wire_mixed")


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if name == "wire_mixed":
        return asyncio.run(_run_wire(seed, seconds, trace))
    return run_sim(name, seed, seconds, trace)
