"""Generic named registries.

Machines, prefetch engines, schemes, and workloads are all dispatched by
name; each axis of the experiment matrix owns one :class:`Registry`
instance instead of a hand-maintained dict or if/elif chain.  The class
deliberately mirrors the original workload registry's contract (register
once, helpful unknown-name errors, optional lazy population) so every
axis behaves identically:

* duplicate registration is an error — two subsystems cannot silently
  fight over a name;
* unknown-name lookups raise the registry's error type listing what *is*
  available;
* a ``loader`` callable can defer imports until the first lookup (the
  workload registry imports its benchmark modules this way);
* iteration order is registration order (the paper's scheme order is
  meaningful); :meth:`names` can sort on request.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, TypeVar

from .errors import ReproError

T = TypeVar("T")


class Registry(Generic[T]):
    """A name -> item mapping with registration-time duplicate checks."""

    def __init__(
        self,
        kind: str,
        error: type[Exception] = ReproError,
        loader: Callable[[], None] | None = None,
    ) -> None:
        self.kind = kind
        self.error = error
        self._loader = loader
        self._loaded = loader is None
        self._items: dict[str, T] = {}

    # -- population ----------------------------------------------------

    def register(self, name: str, item: T) -> T:
        """Add ``item`` under ``name``; returns ``item`` for chaining."""
        if not name:
            raise self.error(f"cannot register a {self.kind} without a name")
        if name in self._items:
            raise self.error(f"duplicate {self.kind} name {name!r}")
        self._items[name] = item
        return item

    def unregister(self, name: str) -> None:
        """Remove ``name`` if present (test teardown; no-op when absent)."""
        self._items.pop(name, None)

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Mark first: the loader's imports may consult the registry.
            self._loaded = True
            loader = self._loader
            assert loader is not None
            loader()

    # -- lookup --------------------------------------------------------

    def get(self, name: str) -> T:
        self._ensure_loaded()
        try:
            return self._items[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; "
                f"available: {sorted(self._items)}"
            ) from None

    def names(self, sort: bool = False) -> list[str]:
        self._ensure_loaded()
        return sorted(self._items) if sort else list(self._items)

    def items(self) -> list[tuple[str, T]]:
        self._ensure_loaded()
        return list(self._items.items())

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._items

    def __iter__(self) -> Iterator[str]:
        self._ensure_loaded()
        return iter(self._items)

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._items)

    def as_dict(self) -> dict[str, T]:
        """A snapshot copy (for introspection; mutations are ignored)."""
        self._ensure_loaded()
        return dict(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind}: {self.names()})"

