"""The process-wide registry of live subsystem objects.

Autonomous services — event discrimination networks (PROTOCOL.md §13),
planned SPARQL backends (§15) — register themselves here under a *kind*
when constructed, so scrape-time gauges and the ``/introspect/*`` views
see every instance the process hosts without any extra wiring.  The
registry holds weak references only: a dropped service disappears from
scrapes on the next cycle.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable

__all__ = ["register_live", "live_objects", "live_totals"]

_lock = threading.Lock()
_live: dict[str, "weakref.WeakSet"] = {}


def register_live(kind: str, obj) -> None:
    """Track ``obj`` as a live object of ``kind``."""
    with _lock:
        _live.setdefault(kind, weakref.WeakSet()).add(obj)


def live_objects(kind: str) -> list:
    """The live objects of ``kind``, copied under the lock."""
    with _lock:
        return list(_live.get(kind, ()))


def live_totals(kind: str,
                value: Callable[[object], float]
                ) -> dict[tuple[str, ...], float]:
    """Sum ``value(obj)`` per ``obj.service_name`` over the live objects
    of ``kind`` — the callback shape of a ``service``-labelled gauge."""
    totals: dict[tuple[str, ...], float] = {}
    for obj in live_objects(kind):
        label = (obj.service_name,)
        totals[label] = totals.get(label, 0.0) + value(obj)
    return totals
