"""The seed's linear-scan matcher, kept as the differential oracle.

Before PROTOCOL.md §13 every event-detection service offered each event
to every registered detector in registration order.  :class:`LinearScan`
is that matcher behind the routing interface of
:class:`~repro.match.DiscriminationNetwork`; :func:`linear_service`
builds an event service that routes through it.  The match differential
storms, the poll regression and ``benchmarks/bench_match.py``'s
baseline all compare the network against this scan.
"""

from __future__ import annotations


class LinearScan:
    """Every event offered to every detector, in registration order."""

    def __init__(self) -> None:
        self._detectors: dict = {}

    def insert(self, component_id, detector) -> None:
        self._detectors[component_id] = detector

    def remove(self, component_id) -> None:
        self._detectors.pop(component_id, None)

    def route(self, event) -> list:
        return [(component_id, detector, None)
                for component_id, detector in self._detectors.items()]

    def pollable(self) -> list:
        return list(self._detectors.items())


def linear_service(service_cls, notify, **options):
    """A ``service_cls`` instance whose events bypass the network."""
    service = service_cls(notify, **options)
    service._network = LinearScan()
    return service
