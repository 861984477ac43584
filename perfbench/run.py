"""Benchmark entry point.

Run from the root of the repository::

    python3 perfbench/run.py --workload ring_write --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with no tracing and prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run, whose spans
are written to ``.perfbench-out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run whose outputs fail their check prints ``correct: false`` and exits
with status 1; missing program sources exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

sys.dont_write_bytecode = True  # leave no caches beside the benchmark
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports the program lazily)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _chunked_percentile(outcome, kind: str, q: float) -> float:
    """Median over the window's chunks of each chunk's percentile."""
    return statistics.median(
        workloads.percentile(chunk[kind], q)
        for chunk in outcome.latency_chunks if chunk[kind]
    )


def _merged(latency_chunks: list) -> dict:
    return {
        kind: [v for chunk in latency_chunks for v in chunk[kind]]
        for kind in ("read", "write")
    }


def end_to_end(outcome) -> dict:
    return {
        "ops_per_ref_s": (statistics.median(c.ref_rate for c in outcome.chunks), "1/s"),
        "client_ops_per_s": (outcome.client_ops_per_s, "1/s"),
        "write_p50_ms": (_chunked_percentile(outcome, "write", 50), "ms"),
        "write_p90_ms": (_chunked_percentile(outcome, "write", 90), "ms"),
        "setup_s": (statistics.median(ref for _wall, ref in outcome.setups), "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(outcome) -> dict:
    rec = outcome.recorder
    ops = outcome.traced_ops
    wall_ns = outcome.traced_wall_s * 1e9
    counters = outcome.traced_counters

    def calls(name: str) -> int:
        return rec.calls.get(name, 0)

    def self_us(name: str) -> float:
        return _ratio(rec.self_ns.get(name, 0) / 1e3, calls(name))

    def per_op(count: float) -> float:
        return _ratio(count, ops)

    from repro.sim.counters import NET_WIRE_BYTES, net_suffix

    events = counters.get("events", 0)
    events_self = rec.layer_self_ns("sim.events:")
    wire_bytes = sum(
        v for k, v in counters.items()
        if isinstance(k, str) and k.endswith(net_suffix(NET_WIRE_BYTES))
    )
    # Frames that carry data: simulated unicasts or real framed writes,
    # less the frames that only acknowledge.
    frames = calls("sim.network:unicast") + calls("transport.framing:frame")
    data_frames = frames - calls("transport.reliable:make_ack")
    metrics = {
        "events.per_op": (per_op(events), "count"),
        "events.self_us_per_event": (_ratio(events_self / 1e3, events), "us"),
        "network.unicasts_per_op": (per_op(calls("sim.network:unicast")), "count"),
        "network.wire_bytes_per_op": (per_op(wire_bytes), "bytes"),
        "network.unicast_us_per_call": (self_us("sim.network:unicast"), "us"),
        "nic.submit_us_per_call": (self_us("sim.nic:submit"), "us"),
        "reliable.send_us_per_call": (self_us("transport.reliable:send"), "us"),
        "reliable.on_segment_us_per_call": (self_us("transport.reliable:on_segment"), "us"),
        "reliable.msgs_per_frame": (
            _ratio(calls("transport.reliable:send"), data_frames), "count"),
        "reliable.retransmits_per_op": (
            per_op(rec.amounts.get("transport.reliable:poll", 0)), "count"),
        "server.ring_msg_per_op": (per_op(calls("core.server:on_ring_message")), "count"),
        "server.ring_msg_self_us": (self_us("core.server:on_ring_message"), "us"),
        "server.client_msg_per_op": (per_op(calls("core.server:on_client_message")), "count"),
        "server.client_msg_self_us": (self_us("core.server:on_client_message"), "us"),
        "server.ring_drain_us_per_call": (self_us("core.server:next_ring_batch"), "us"),
        "durable.saves_per_op": (per_op(calls("core.durable:save")), "count"),
        "durable.snapshot_us_per_call": (self_us("core.durable:snapshot"), "us"),
        "durable.save_us_per_call": (self_us("core.durable:save"), "us"),
        "client.timeouts_per_op": (per_op(calls("core.client:on_timeout")), "count"),
        "codec.encode_us_per_call": (self_us("transport.codec:encode_message"), "us"),
        "codec.decode_us_per_call": (self_us("transport.codec:decode_message"), "us"),
        "codec.bytes_per_op": (
            per_op(rec.amounts.get("transport.codec:encode_message", 0)), "bytes"),
        "framing.feed_us_per_call": (self_us("transport.framing:feed"), "us"),
        "sim_net.self_frac": (_ratio(rec.layer_self_ns("runtime.sim_net:"), wall_ns), "frac"),
        "asyncio_net.self_frac": (
            _ratio(rec.layer_self_ns("runtime.asyncio_net:"), wall_ns), "frac"),
        "driver.self_frac": (_ratio(rec.layer_self_ns("workload."), wall_ns), "frac"),
        "gc.self_frac": (_ratio(rec.layer_self_ns("python.gc:"), wall_ns), "frac"),
        "checker.ops_per_s": (outcome.checker_ops_per_s, "1/s"),
        "trace.overhead_frac": (
            1 - _ratio(outcome.traced_ops_per_s, outcome.untraced_ops_per_s), "frac"),
        "trace.unattributed_frac": (1 - _ratio(rec.total_self_ns(), wall_ns), "frac"),
    }
    return metrics


def _check_digest(name: str, seed: int, digest: dict) -> str:
    """Compare the seed's deterministic figures with an earlier run of
    the same seed, if one left its record; returns a mismatch report."""
    if not digest:
        return ""
    path = os.path.join(OUT_DIR, "digests", f"{name}-{seed}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier != digest:
            return workloads.differences(earlier, digest)
        return ""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digest, handle, sort_keys=True)
    return ""


def _print_latencies(label: str, latencies: dict) -> None:
    for kind, samples in latencies.items():
        if samples:
            p50, p90, p99 = (workloads.percentile(samples, q) for q in (50, 90, 99))
            print(f"# {kind} latency ({label}, ms): p50 {p50:.4f}  p90 {p90:.4f}  "
                  f"p99 {p99:.4f}  (n={len(samples)}, {len(samples) // 10} beyond p90, "
                  f"{len(samples) // 100} beyond p99)")


def _print_report(workload: str, seed: int, outcome) -> None:
    print(f"# {workload} seed={seed}: window {outcome.window_work_s:.3f} s of work in "
          f"{len(outcome.chunks)} chunks, {outcome.window_ops} ops; "
          f"set-ups {[round(wall, 3) for wall, _ref in outcome.setups]} s wall, "
          f"{[round(ref, 3) for _wall, ref in outcome.setups]} s on the reference host")
    print(f"# ops_per_s (wall clock, median over chunks): "
          f"{statistics.median(c.rate for c in outcome.chunks):.3f} 1/s")
    print("# chunk ops/s: " + " ".join(f"{c.rate:.1f}" for c in outcome.chunks))
    print("# chunk ops/s on the reference host: "
          + " ".join(f"{c.ref_rate:.1f}" for c in outcome.chunks))
    if outcome.wall_latencies_ms:
        _print_latencies("wall", outcome.wall_latencies_ms)
        _print_latencies("reference host", _merged(outcome.latency_chunks))
    else:
        _print_latencies("simulated", _merged(outcome.latency_chunks))
    if outcome.digest:
        print(f"# simulated prefix ({workloads.SIM_PREFIX} s): "
              + json.dumps(outcome.digest, sort_keys=True))
    error_rate = _ratio(outcome.failed, outcome.attempted)
    print(f"# correctness: {outcome.check_explanation}; attempted {outcome.attempted}, "
          f"failed or unfinished {outcome.failed}, error_rate {error_rate:.6f}")
    for note in outcome.notes:
        print(f"# {note}")


def _print_layers(outcome) -> None:
    """Self time per layer of the traced stretch, beside the untraced
    and traced throughput it was measured against."""
    rec = outcome.recorder
    by_layer: dict = {}
    for name, ns in rec.self_ns.items():
        layer = name.split(":", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0) + ns
    wall_ns = outcome.traced_wall_s * 1e9
    print(f"# traced: {outcome.traced_ops} ops in {outcome.traced_wall_s:.3f} s; "
          f"reference-host ops/s untraced {outcome.untraced_ops_per_s:.1f}, "
          f"traced {outcome.traced_ops_per_s:.1f}")
    for layer, ns in sorted(by_layer.items(), key=lambda item: -item[1]):
        print(f"# self time {layer:24s} {ns / 1e6:10.1f} ms  {_ratio(ns, wall_ns):7.2%}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
    records = [(args.workload, outcome.digest)]
    if args.trace and outcome.digest:
        # A traced replay of the simulated prefix counts exactly too.
        counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
        records.append((f"{args.workload}-traced", counts))
    for name, digest in records:
        mismatch = _check_digest(name, args.seed, digest)
        if mismatch:
            outcome.check_ok = False
            outcome.notes.append(
                f"determinism: differs from an earlier run of this seed: {mismatch}")
    _print_report(args.workload, args.seed, outcome)
    if args.trace:
        _print_layers(outcome)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz")
        written = outcome.recorder.write(spans_path)
        print(f"# {written} spans written to {os.path.relpath(spans_path, ROOT)}")
    correct = outcome.check_ok and outcome.window_ops > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
