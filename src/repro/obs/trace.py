"""Cycle-stamped structured event trace with a Chrome ``trace_event``
JSON exporter.

The trace is strictly opt-in: the simulator's hot loops carry only a
``trace is None`` check, so untraced runs pay nothing.  When enabled,
components append *instant* events (a point in time: load issue, fill)
and *complete* events (a span: demand miss, prefetch in flight).  The
exporter writes the `Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_,
loadable in ``chrome://tracing`` / Perfetto; one simulated cycle maps to
one microsecond of trace time.
"""

from __future__ import annotations

import json

#: Lane (Chrome "thread") ids per event category.
_LANES = {"core": 1, "mem": 2, "prefetch": 3, "phase": 4, "profile": 5}


class EventTrace:
    """Bounded in-memory event buffer (events past ``limit`` are counted
    but discarded, so tracing a long run cannot exhaust memory)."""

    def __init__(self, limit: int = 1_000_000) -> None:
        self.limit = limit
        self.events: list[tuple] = []  # (ph, name, cat, ts, dur, args)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def _add(self, ph: str, name: str, cat: str, ts: int, dur: int, args: dict) -> None:
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append((ph, name, cat, ts, dur, args))

    def instant(self, name: str, ts: int, cat: str = "core", **args: object) -> None:
        """A point event at cycle ``ts`` (load issue, fill completion)."""
        self._add("i", name, cat, ts, 0, args)

    def complete(
        self, name: str, ts: int, dur: int, cat: str = "mem", **args: object
    ) -> None:
        """A span event from cycle ``ts`` lasting ``dur`` cycles."""
        self._add("X", name, cat, ts, dur, args)

    def counter(
        self, name: str, ts: int, values: dict, cat: str = "profile"
    ) -> None:
        """A counter-track sample at cycle ``ts``: Perfetto renders each
        key of ``values`` as one series of a stacked ``ph="C"`` track
        (used for CPI-stack and per-level miss counters)."""
        self._add("C", name, cat, ts, 0, dict(values))

    def phase(self, name: str, ts: int, dur: int, **args: object) -> None:
        """Label a simulation phase (warmup, measured region, drain) as a
        span on the dedicated ``phase`` lane."""
        self._add("X", name, "phase", ts, dur, args)

    # -- export ---------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        out = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro simulator"},
            }
        ]
        for cat, tid in _LANES.items():
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": cat},
                }
            )
            # Pin lane order in Perfetto (insertion order is not honored).
            out.append(
                {
                    "ph": "M",
                    "name": "thread_sort_index",
                    "pid": 0,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        for ph, name, cat, ts, dur, args in self.events:
            ev = {
                "ph": ph,
                "name": name,
                "cat": cat,
                "ts": ts,
                "pid": 0,
                "tid": _LANES.get(cat, 0),
            }
            if ph == "X":
                ev["dur"] = dur
            elif ph == "i":
                ev["s"] = "t"  # instant scope: thread
            if args:
                ev["args"] = args
            out.append(ev)
        return out

    def to_chrome(self) -> dict:
        return {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.trace",
                "time_unit": "1 cycle = 1 us",
                "events": len(self.events),
                "dropped": self.dropped,
            },
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome(), f)
