"""Content-addressed on-disk simulation result cache.

Every experiment cell (one ``simulate()`` call) is identified by a
SHA-256 key over the *complete* set of inputs that determine its
outcome:

* the canonicalized :class:`~repro.config.MachineConfig` (every nested
  dataclass field, via ``MachineConfig.to_dict``) — covering dotted-path
  overrides from experiment spec files just like hand-built configs,
* the workload name, its parameters, and the program variant,
* the prefetch engine name,
* the ``profile``/``telemetry`` observer flags (their payloads ride in
  the stored result),
* a fingerprint of the simulator source code (every ``.py`` file in the
  packages that influence simulation results or the observer payloads
  stored with them), so any change to the ISA, memory, CPU, prefetch,
  observability or workload code invalidates prior entries while
  harness/doc/test changes do not.

The value is the ``repro.sim_result/1`` artifact (``SimResult.to_dict``),
written atomically and durably; a hit deserializes back to a
``SimResult`` that compares equal to the cold run's.  Because every cell
is cached, rerunning an interrupted sweep against the same cache
executes only the cells it had not stored.  Hit/miss/write counters are
registered in a :class:`~repro.obs.metrics.MetricRegistry`, so sweeps
can report cache effectiveness alongside simulation metrics; so are the
entries that could not be read (``cache.read_errors``, recomputed) or
written (``cache.write_errors``, the sweep keeps the result).

Cache location: ``$REPRO_CACHE_DIR`` when set, else ``.repro_cache/``
under the current working directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..cpu.stats import SimResult
from ..obs import MetricRegistry, artifact, schema_kind

if TYPE_CHECKING:  # pragma: no cover
    from .executor import RunSpec

#: Subpackages and modules of ``repro`` whose source participates in the
#: code fingerprint: everything that can change simulated cycle counts
#: or the observer payloads cached with them.  Their relative imports
#: stay inside this set.
_FINGERPRINT_PACKAGES = ("isa", "mem", "cpu", "prefetch", "core", "obs",
                         "workloads")
_FINGERPRINT_MODULES = ("config.py", "errors.py", "registry.py")

_fingerprint_cache: str | None = None

logger = logging.getLogger(__name__)


def code_fingerprint() -> str:
    """SHA-256 over the simulation-relevant source tree (memoized)."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        h = hashlib.sha256()
        files: list[Path] = []
        for pkg in _FINGERPRINT_PACKAGES:
            files.extend((root / pkg).rglob("*.py"))
        files.extend(root / m for m in _FINGERPRINT_MODULES)
        for path in sorted(files):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _fingerprint_cache = h.hexdigest()
    return _fingerprint_cache


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash.

    ``os.replace`` makes the rename atomic but not durable: until the
    parent directory's metadata reaches disk, a power cut can roll the
    entry back even though the caller was told the write succeeded.
    Filesystems that refuse O_RDONLY fsync on directories are skipped.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        logger.debug("cannot open %s for fsync: %s", path, exc)
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        # Durability best-effort (some filesystems refuse directory
        # fsync); correctness is unaffected, but leave a trace.
        logger.debug("directory fsync of %s failed: %s", path, exc)
    finally:
        os.close(fd)


def canonical_spec(spec: "RunSpec") -> dict[str, Any]:
    """The JSON-stable identity of one cell (the hash pre-image).

    The config enters through ``MachineConfig.to_dict()`` (identical to
    ``dataclasses.asdict``, so keys predate the serde layer), which is
    what makes spec-file overrides cache-compatible with the historical
    ``with_*`` helpers: equal configs hash equally however they were
    built."""
    return {
        "benchmark": spec.benchmark,
        "params": {k: v for k, v in spec.params},
        "variant": spec.variant,
        "engine": spec.engine,
        "profile": spec.profile,
        "telemetry": spec.telemetry,
        "config": spec.cfg.to_dict(),
        "code": code_fingerprint(),
    }


def _digest(canonical: dict[str, Any]) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_key(spec: "RunSpec") -> str:
    return _digest(canonical_spec(spec))


def _write_durably(path: Path, doc: dict[str, Any]) -> None:
    """Write ``doc`` to ``path`` through a temp file: fsync it, rename it
    into place (atomic), then fsync the directory (durable)."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError as exc:
            logger.debug("cannot remove temp entry %s: %s", tmp, exc)
        raise


class ResultCache:
    """On-disk ``key -> cell result`` store with obs-registry counters."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.root = Path(
            root or os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
        )
        self.registry = registry or MetricRegistry()
        self._hits = self.registry.counter(
            "cache.hits", help="sweep cells served from the result cache"
        )
        self._misses = self.registry.counter(
            "cache.misses", help="sweep cells not found in the result cache"
        )
        self._writes = self.registry.counter(
            "cache.writes", help="cell results stored into the cache"
        )
        self._invalid = self.registry.counter(
            "cache.invalid", help="unreadable/incompatible cache entries skipped"
        )
        self._read_errors = self.registry.counter(
            "cache.read_errors",
            help="cache entries that existed but could not be read "
                 "(I/O error or corruption, recomputed cold)",
        )
        self._write_errors = self.registry.counter(
            "cache.write_errors",
            help="cell results that could not be stored (I/O error; "
                 "the sweep keeps the result)",
        )

    # ------------------------------------------------------------------

    def key(self, spec: "RunSpec") -> str:
        return spec_key(spec)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: "RunSpec") -> SimResult | None:
        """The cached :class:`SimResult` for ``spec``, or None on a miss.

        A missing entry is the normal cold miss.  An entry that *exists*
        but cannot be read — permission failure, I/O error, truncated or
        corrupt JSON — is also served as a miss (the sweep recomputes and
        overwrites), but counted on ``cache.read_errors`` and logged with
        its path, so silent cache-corruption never masquerades as a cold
        cache (the corruption drill asserts on the counter)."""
        path = self.path(self.key(spec))
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            self._misses.inc()
            return None
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning(
                "cache entry %s unreadable (%s: %s); recomputing",
                path, type(exc).__name__, exc,
            )
            self._read_errors.inc()
            self._misses.inc()
            return None
        try:
            if schema_kind(doc) != "sim_result":
                raise ValueError(f"unexpected schema {doc.get('schema')!r}")
            result = SimResult.from_dict(doc["result"])
        except (KeyError, TypeError, ValueError):
            # Incompatible or corrupt entry: treat as a miss and let the
            # fresh result overwrite it.
            self._invalid.inc()
            self._misses.inc()
            return None
        self._hits.inc()
        return result

    def put(self, spec: "RunSpec", result: SimResult) -> Path:
        """Store ``result`` under ``spec``'s key (atomic + durable rename).

        Counts the write on ``cache.writes``; an ``OSError`` (unwritable
        root, full disk) is counted on ``cache.write_errors`` and
        re-raised for the caller to decide."""
        canonical = canonical_spec(spec)
        path = self.path(_digest(canonical))
        doc = artifact("sim_result",
                       {"spec": canonical, "result": result.to_dict()})
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_durably(path, doc)
        except OSError:
            self._write_errors.inc()
            raise
        self._writes.inc()
        return path

    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def writes(self) -> int:
        return self._writes.value

    @property
    def read_errors(self) -> int:
        return self._read_errors.value

    @property
    def write_errors(self) -> int:
        return self._write_errors.value

    def stats(self) -> dict[str, int]:
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "writes": self._writes.value,
            "invalid": self._invalid.value,
            "read_errors": self._read_errors.value,
            "write_errors": self._write_errors.value,
        }

    def describe(self) -> str:
        s = self.stats()
        text = (
            f"result cache at {self.root}: {s['hits']} hits, "
            f"{s['misses']} misses, {s['writes']} writes"
        )
        if s["write_errors"]:
            text += f", {s['write_errors']} write errors"
        return text
