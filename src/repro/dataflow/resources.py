"""Shared resources and handle passing (§4.5).

"We avoid using TensorFlow tensors directly for storing data ... Instead,
we pass tensors of handles, which are identifiers for resources stored in
the TensorFlow Session."  Our analog: kernels exchange lightweight string
handles; the actual objects (reference indexes, compute backends) live
in a :class:`ResourceManager` owned by the session, so large shared
state — e.g. "the multi-gigabyte reference indexes required for some
aligners" — is materialized exactly once per server.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


class Handle(str):
    """An identifier naming a resource in a :class:`ResourceManager`."""

    __slots__ = ()


class ResourceManager:
    """Session-scoped registry of shared objects, addressed by handle."""

    def __init__(self) -> None:
        self._resources: dict[str, Any] = {}
        self._lock = threading.Lock()

    def register(self, name: str, resource: Any) -> Handle:
        with self._lock:
            if name in self._resources:
                raise ValueError(f"resource {name!r} already registered")
            self._resources[name] = resource
        return Handle(name)

    def absorb(self, other: "ResourceManager") -> None:
        """Import another registry's resources (graph composition).

        A name collision is allowed only when both registries hold the
        *same object* — e.g. one execution backend shared by every stage
        of a composed pipeline; anything else would silently rebind the
        handles kernels already hold.  Conflicts are detected before
        anything is registered, so a failed absorb changes nothing.
        """
        with other._lock:
            incoming = dict(other._resources)
        with self._lock:
            for name, resource in incoming.items():
                if name in self._resources and \
                        self._resources[name] is not resource:
                    raise ValueError(
                        f"resource {name!r} already registered with a "
                        f"different object"
                    )
            self._resources.update(incoming)

    def get_or_create(self, name: str, factory: Callable[[], Any]) -> Handle:
        """Register lazily; concurrent callers share one instance."""
        with self._lock:
            if name not in self._resources:
                self._resources[name] = factory()
        return Handle(name)

    def get(self, handle: "Handle | str") -> Any:
        with self._lock:
            try:
                return self._resources[str(handle)]
            except KeyError:
                raise KeyError(f"no resource for handle {handle!r}") from None

    def __getitem__(self, handle: "Handle | str") -> Any:
        """Mapping-style lookup so a ResourceManager can serve as the
        ``shared`` view of an in-process execution backend."""
        return self.get(handle)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._resources

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._resources)
