"""Event trace and Chrome trace_event export."""

import json

from repro import Assembler, EventTrace, Telemetry, simulate
from repro.isa.registers import T0, T1


def test_event_buffer_and_limit():
    tr = EventTrace(limit=2)
    tr.instant("a", 1)
    tr.complete("b", 2, 10)
    tr.instant("c", 3)  # past the cap
    assert len(tr) == 2
    assert tr.dropped == 1


def test_chrome_export_shape(tmp_path):
    tr = EventTrace()
    tr.instant("load-issue", 5, cat="core", pc=3)
    tr.complete("demand-miss", 5, 80, cat="mem", line=0x100)
    doc = tr.to_chrome()
    assert "traceEvents" in doc
    events = doc["traceEvents"]
    # metadata events name the process and the three lanes
    assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)
    span = next(e for e in events if e["name"] == "demand-miss")
    assert span["ph"] == "X" and span["ts"] == 5 and span["dur"] == 80
    inst = next(e for e in events if e["name"] == "load-issue")
    assert inst["ph"] == "i" and inst["args"]["pc"] == 3
    # every event carries the fields chrome://tracing requires
    for e in events:
        assert {"ph", "name", "pid", "tid"} <= set(e)

    path = tmp_path / "t.trace.json"
    tr.dump(str(path))
    assert json.loads(path.read_text())["traceEvents"]


def test_traced_simulation_emits_all_event_kinds(tiny_cfg):
    a = Assembler()
    target = a.space(64)
    a.label("main")
    a.li(T0, target)
    a.pf(T0, 0)
    for __ in range(150):
        a.nop()
    a.lw(T1, T0, 0)
    a.lw(T1, T0, 32)  # a demand miss (next line, never prefetched)
    a.halt()
    tr = EventTrace()
    simulate(a.assemble(), tiny_cfg, engine="software", telemetry=Telemetry(trace=tr))
    names = {e[1] for e in tr.events}
    assert {"load-issue", "prefetch", "demand-miss", "fill"} <= names


def test_untraced_telemetry_has_no_trace_events(tiny_cfg):
    from tests.conftest import assemble_list_walk

    program, __ = assemble_list_walk(16)
    tele = Telemetry()  # metrics on, trace off
    simulate(program, tiny_cfg, engine="dbp", telemetry=tele)
    assert tele.trace is None


def test_counter_track_events():
    tr = EventTrace()
    tr.counter("cpi_stack", 4096, {"base": 10, "load.mem": 5})
    (ph, name, cat, ts, dur, args) = tr.events[0]
    assert (ph, name, cat, ts) == ("C", "cpi_stack", "profile", 4096)
    ev = next(e for e in tr.to_chrome()["traceEvents"] if e["ph"] == "C")
    # Counter samples carry the values dict and land on the profile lane;
    # "C" events must not carry a dur or instant scope.
    assert ev["args"] == {"base": 10, "load.mem": 5}
    assert ev["tid"] == 5
    assert "dur" not in ev and "s" not in ev


def test_counter_copies_values_dict():
    tr = EventTrace()
    values = {"base": 1}
    tr.counter("cpi_stack", 1, values)
    values["base"] = 99  # later mutation must not alter the recorded sample
    assert tr.events[0][5] == {"base": 1}


def test_phase_span_lands_on_phase_lane():
    tr = EventTrace()
    tr.phase("measured", 100, 500, region=1)
    ev = next(e for e in tr.to_chrome()["traceEvents"] if e["name"] == "measured")
    assert ev["ph"] == "X" and ev["dur"] == 500 and ev["tid"] == 4
    assert ev["args"] == {"region": 1}


def test_lane_metadata_names_and_sort_indices():
    events = EventTrace().to_chrome()["traceEvents"]
    names = {e["tid"]: e["args"]["name"]
             for e in events if e["name"] == "thread_name"}
    sorts = {e["tid"]: e["args"]["sort_index"]
             for e in events if e["name"] == "thread_sort_index"}
    assert names == {1: "core", 2: "mem", 3: "prefetch", 4: "phase",
                     5: "profile"}
    assert sorts == {tid: tid for tid in names}
