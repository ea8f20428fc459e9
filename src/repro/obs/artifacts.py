"""Machine-readable run artifacts.

Every JSON document the CLI/harness emits goes through :func:`artifact`,
which stamps a versioned schema tag so downstream consumers (regression
gates, plotting scripts, the EXPERIMENTS.md reproduction recipes) can
detect incompatible layout changes instead of silently misreading them.

Schema tags currently in use:

* ``repro.sim_result/1``  — one :meth:`SimResult.to_dict` (a cached
  cell)
* ``repro.experiment/1``  — ``python -m repro run -o`` and
  ``run-spec -o``: report rows plus the spec that reruns them;
  ``run`` adds each scheme's :meth:`SchemeRun.to_dict` (telemetry and
  profile included) under ``meta.runs``
* ``repro.bench_diff/1``  — ``python -m repro bench-diff`` drift rows

Chrome trace files (``run --trace``) are plain ``trace_event`` JSON, not
artifacts.
"""

from __future__ import annotations

import json
from typing import Any, IO

SCHEMA_PREFIX = "repro"


def artifact(kind: str, body: dict[str, Any], meta: dict[str, Any] | None = None,
             version: int = 1) -> dict[str, Any]:
    """Wrap ``body`` in a schema-stamped artifact document."""
    doc: dict[str, Any] = {"schema": f"{SCHEMA_PREFIX}.{kind}/{version}"}
    if meta:
        doc["meta"] = dict(meta)
    doc.update(body)
    return doc


def schema_kind(doc: dict[str, Any]) -> str:
    """The ``kind`` of an artifact document ('' when untagged)."""
    tag = doc.get("schema", "")
    if not isinstance(tag, str) or "." not in tag or "/" not in tag:
        return ""
    return tag.split(".", 1)[1].rsplit("/", 1)[0]


def dump_json(doc: dict[str, Any], dest: str | IO[str] | None = None,
              indent: int = 2) -> str:
    """Serialize ``doc``; write it to a path/stream when given.

    Returns the serialized text either way (handy for tests and for
    printing to stdout).
    """
    text = json.dumps(doc, indent=indent, sort_keys=False)
    if isinstance(dest, str):
        with open(dest, "w") as f:
            f.write(text + "\n")
    elif dest is not None:
        dest.write(text + "\n")
    return text


def load_json(path: str) -> dict[str, Any]:
    with open(path) as f:
        return json.load(f)
