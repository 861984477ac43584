"""Which entry points a traced run times, per layer.

Each list names public entry points of one layer (and, where a layer is
only reached through a callback, the callback), so that every span's
self time belongs to the layer that owns the code.  The simulator's
event callbacks are attributed by the module that defines them: a
traced run routes every newly scheduled callback through one timed
trampoline per module.
"""

from __future__ import annotations

import asyncio.events

from spans import Patches, SpanRecorder, layer_of_callable, wrap_function, wrap_method


def _op_of_message(position: int):
    """``op_of`` for calls whose argument ``position`` is a message
    carrying an ``op`` field (client requests and replies)."""

    def op_of(args, _result):
        return getattr(args[position], "op", None)

    return op_of


def _op_of_start(_args, result):
    return result[0] if result else None


def _common(patches: Patches, recorder: SpanRecorder) -> None:
    """Layers both runtimes share: protocol, sessions, persist, history."""
    from repro.analysis.history import History
    from repro.core.client import ClientProtocol
    from repro.core.durable import FileSnapshotStore, MemorySnapshotStore
    from repro.core.server import ServerProtocol
    from repro.transport.reliable import ReliableSession

    server = [
        ("on_ring_message", "core.server:on_ring_message", None),
        ("on_client_message", "core.server:on_client_message", _op_of_message(2)),
        ("next_ring_batch", "core.server:next_ring_batch", None),
        ("next_ring_message", "core.server:next_ring_message", None),
        ("next_directed_message", "core.server:next_directed_message", None),
        ("snapshot", "core.durable:snapshot", None),
    ]
    for method, name, op_of in server:
        wrap_method(patches, recorder, ServerProtocol, method, name, op_of=op_of)
    for store in (MemorySnapshotStore, FileSnapshotStore):
        wrap_method(patches, recorder, store, "save", "core.durable:save")
    wrap_method(patches, recorder, ClientProtocol, "start_write",
                "core.client:start_write", op_of=_op_of_start)
    wrap_method(patches, recorder, ClientProtocol, "start_read",
                "core.client:start_read", op_of=_op_of_start)
    wrap_method(patches, recorder, ClientProtocol, "on_reply",
                "core.client:on_reply", op_of=_op_of_message(1))
    wrap_method(patches, recorder, ClientProtocol, "on_timeout", "core.client:on_timeout")
    for method in ("send", "on_segment", "make_ack"):
        wrap_method(patches, recorder, ReliableSession, method, f"transport.reliable:{method}")
    wrap_method(patches, recorder, ReliableSession, "poll", "transport.reliable:poll",
                amount_of=len)
    wrap_method(patches, recorder, History, "invoke", "analysis.history:invoke")
    wrap_method(patches, recorder, History, "respond", "analysis.history:respond")


def _call(action, *args):
    return action(*args)


def _trampoline(patches: Patches, traced_call):
    """Run a callback scheduled while tracing was on, timed only if it
    fires while tracing is still on (events outlive the traced window)."""

    def trampoline(action, *args):
        if patches.active:
            return traced_call(action, *args)
        return action(*args)

    return trampoline


def sim_patches(recorder: SpanRecorder) -> Patches:
    """Entry points of the simulated runtime and the layers under it."""
    from repro.runtime import sim_net
    from repro.sim.events import EventScheduler
    from repro.sim.network import Network
    from repro.sim.nic import Port
    from repro.workload.generator import LoadDriver

    patches = Patches(recorder)
    _common(patches, recorder)
    wrap_method(patches, recorder, EventScheduler, "run", "sim.events:run")
    wrap_method(patches, recorder, EventScheduler, "step", "sim.events:step")
    wrap_method(patches, recorder, Network, "unicast", "sim.network:unicast")
    wrap_method(patches, recorder, Port, "submit", "sim.nic:submit")
    for cls, method in (
        (sim_net.SimCluster, "transmit"),
        (sim_net._ReliableLinkLayer, "deliver_stamped"),
        (sim_net._OutLoop, "pump"),
        (sim_net.ServerHost, "receive_ring"),
        (sim_net.ServerHost, "receive_client"),
        (sim_net.ClientHost, "on_reply_delivered"),
        (sim_net.ClientHost, "write"),
        (sim_net.ClientHost, "read"),
    ):
        wrap_method(patches, recorder, cls, method, f"runtime.sim_net:{method}")
    # The driver's reaction to a completion, which also issues the
    # client's next operation (a child span of the runtime).
    wrap_method(patches, recorder, LoadDriver, "_completed", "workload.generator:_completed")

    trampolines: dict[str, object] = {}
    original = EventScheduler.schedule_at

    def schedule_at(self, time, action, *args):
        layer = layer_of_callable(action)
        trampoline = trampolines.get(layer)
        if trampoline is None:
            trampoline = trampolines[layer] = _trampoline(
                patches, recorder.wrap(f"{layer}:event", _call)
            )
        return original(self, time, trampoline, action, *args)

    patches.add(EventScheduler, "schedule_at", schedule_at)
    return patches


def wire_patches(recorder: SpanRecorder, driver_module) -> Patches:
    """Entry points of the asyncio runtime, its codec and framing, and
    the benchmark's own driver steps in ``driver_module``."""
    from repro.runtime import asyncio_net
    from repro.transport.framing import FrameDecoder

    patches = Patches(recorder)
    _common(patches, recorder)
    # Every callback and task step the event loop runs: the asyncio
    # runtime's own code (and the library under it) is this span's self
    # time; time outside it is the loop waiting in its selector.
    wrap_method(patches, recorder, asyncio.events.Handle, "_run",
                "runtime.asyncio_net:callback")
    wrap_function(patches, recorder, asyncio_net, "encode_message",
                  "transport.codec:encode_message", amount_of=len)
    wrap_function(patches, recorder, asyncio_net, "decode_message",
                  "transport.codec:decode_message")
    wrap_function(patches, recorder, asyncio_net, "frame", "transport.framing:frame")
    wrap_method(patches, recorder, FrameDecoder, "feed", "transport.framing:feed")
    for step in ("next_op", "record"):
        wrap_function(patches, recorder, driver_module, step, f"workload.driver:{step}")
    return patches
