"""Chrome-trace / Perfetto JSON export.

Produces the Trace Event Format consumed by ``chrome://tracing`` and
https://ui.perfetto.dev: a ``{"traceEvents": [...]}`` object where span
events become complete ("ph": "X") slices and instants become "i" marks.
Timestamps are microseconds (float) per the format; our virtual clock is
integer nanoseconds, so ts/dur divide by 1000.  A span is stamped at its
*end* (the emit site fires after measuring), so the slice start is
``ts - dur``.  pid is the bound-machine index — each Machine renders as
its own Perfetto process track — and tid is the emitting CPU.

NUMA events — any event carrying a ``node`` field (``numa.*``,
``mitosis.*``, ``tlb.node_fanout``) — are lifted out of the per-CPU
threads onto one synthetic ``node<N>`` track per node, so each NUMA
node renders as its own track group under the machine's process.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from types import SimpleNamespace

from . import points
from .registry import EVENTS, KIND_SPAN
from .tracer import Tracer

__all__ = ["to_chrome_trace", "write_chrome_trace", "chrome_trace_recording"]


def to_chrome_trace(events, label="repro", process_names=None):
    """Trace Event Format dict for a drained event list.

    ``process_names`` optionally maps a bound-machine pid to a display
    name; the fleet layer uses it so the gateway and every replica
    Machine appear as their own labelled process tracks.  Unlisted pids
    keep the default ``{label}:machine{pid}`` name.
    """
    out = []
    pids = set()
    node_tracks = set()     # (pid, node) pairs that need a named track
    for event in events:
        pids.add(event.pid)
        spec = EVENTS[event.name]
        node = event.fields.get("node")
        if node is not None:
            tid = _NODE_TRACK_BASE + int(node)
            node_tracks.add((event.pid, int(node)))
        else:
            tid = event.cpu
        entry = {
            "name": event.name,
            "cat": spec.cls,
            "pid": event.pid,
            "tid": tid,
            "args": {k: v for k, v in event.fields.items()
                     if k != "dur_ns"},
        }
        dur = event.fields.get("dur_ns")
        if spec.kind == KIND_SPAN and dur is not None:
            entry["ph"] = "X"
            entry["ts"] = (event.ts_ns - dur) / 1000.0
            entry["dur"] = dur / 1000.0
        else:
            entry["ph"] = "i"
            entry["ts"] = event.ts_ns / 1000.0
            entry["s"] = "t"        # thread-scoped instant
        out.append(entry)
    names = process_names or {}
    meta = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"{label}:{names[pid]}" if pid in names
                      else f"{label}:machine{pid}"}}
            for pid in sorted(pids)]
    meta += [{"name": "thread_name", "ph": "M", "pid": pid,
              "tid": _NODE_TRACK_BASE + node,
              "args": {"name": f"node{node}"}}
             for pid, node in sorted(node_tracks)]
    return {"traceEvents": meta + out, "displayTimeUnit": "ns"}


#: NUMA-node tracks sit far above any real vCPU tid.
_NODE_TRACK_BASE = 10_000


def write_chrome_trace(events, path, label="repro", process_names=None):
    """Serialise to ``path``; returns the event count written."""
    doc = to_chrome_trace(events, label=label, process_names=process_names)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return len(doc["traceEvents"])


@contextmanager
def chrome_trace_recording(path, label="repro"):
    """A CLI's ``--trace PATH``: record a whole run, then export it.

    Entering attaches a fresh :class:`~repro.trace.tracer.Tracer` (every
    Machine built afterwards binds to it) and yields a namespace holding
    it as ``tracer``; fill its ``process_names`` dict to name per-machine
    tracks.  Leaving — normally or by an exception — detaches the
    tracer, drains it, writes Chrome-trace JSON to ``path`` and prints a
    one-line summary.  With a false ``path`` nothing is attached and the
    block receives None.
    """
    if not path:
        yield None
        return
    recording = SimpleNamespace(tracer=Tracer(), process_names={})
    points.attach(recording.tracer)
    try:
        yield recording
    finally:
        points.detach()
        tracer = recording.tracer
        n = write_chrome_trace(tracer.drain(), path, label=label,
                               process_names=recording.process_names)
        print(f"  wrote {n} trace entries to {path} "
              f"({tracer.emitted} emitted, {tracer.dropped} dropped)")
