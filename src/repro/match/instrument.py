"""Match-network observability: gauges, histograms, admin snapshots.

Every :class:`~repro.match.network.DiscriminationNetwork` registers
itself (weakly) with :mod:`repro.obs.live` under :data:`LIVE_KIND` when
constructed, so two consumers can see the whole process without any
extra wiring:

* :func:`install_match_metrics` adds scrape-time gauges and the
  candidate-set histogram family to a
  :class:`~repro.obs.metrics.MetricsRegistry`; the gauges aggregate
  over all live networks, labelled by service name;
* the admin surface's ``/introspect/match`` route renders
  :func:`live_snapshots` (PROTOCOL.md §13.4).
"""

from __future__ import annotations

from ..obs.live import live_objects, live_totals

__all__ = ["LIVE_KIND", "live_snapshots", "install_match_metrics",
           "MatchInstruments", "CANDIDATE_BUCKETS"]

#: the kind discrimination networks register under in repro.obs.live
LIVE_KIND = "match"

#: histogram buckets for candidates-per-event — the quantity the whole
#: subsystem exists to keep small (candidate counts, not seconds)
CANDIDATE_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                     250.0, 1000.0, 10000.0)


def live_snapshots() -> list[dict]:
    """One `/introspect/match` snapshot per live network, stable order."""
    snapshots = [network.snapshot() for network in live_objects(LIVE_KIND)]
    snapshots.sort(key=lambda view: (view["service"],
                                     -view["registered"]))
    return snapshots


def _aggregate(field: str) -> dict[tuple[str, ...], float]:
    """Sum one stats field per service label over live networks."""
    return live_totals(LIVE_KIND, lambda network: network.stats()[field])


class MatchInstruments:
    """The handle a service uses to record per-event observations."""

    def __init__(self, candidates_histogram, events_counter) -> None:
        self._histogram = candidates_histogram
        self._events = events_counter

    def observe(self, service_name: str, candidates: int) -> None:
        self._histogram.labels(service_name).observe(float(candidates))
        self._events.labels(service_name).inc()


def install_match_metrics(registry) -> MatchInstruments:
    """Register the §13 match metrics on ``registry`` (idempotent).

    Scrape-time gauges (no per-event cost):

    * ``eca_match_alpha_nodes{service=…}`` — unique leaf patterns;
    * ``eca_match_shared_memories{service=…}`` — alpha nodes serving
      more than one subscription (sharing actually happening);
    * ``eca_match_fallback_patterns{service=…}`` — linear-bucket size.

    Per-event instruments, returned for the owning service to drive:

    * ``eca_match_candidates{service=…}`` histogram — candidate-set
      size per routed event;
    * ``eca_match_events_total{service=…}`` counter.
    """
    registry.gauge(
        "eca_match_alpha_nodes",
        "Unique alpha nodes in the event discrimination network",
        labels=("service",),
        callback=lambda: _aggregate("alpha_nodes"))
    registry.gauge(
        "eca_match_shared_memories",
        "Alpha nodes shared by more than one registered component",
        labels=("service",),
        callback=lambda: _aggregate("shared_memories"))
    registry.gauge(
        "eca_match_fallback_patterns",
        "Registered components in the linear fallback bucket",
        labels=("service",),
        callback=lambda: _aggregate("fallback"))
    histogram = registry.histogram(
        "eca_match_candidates",
        "Candidate components offered one event after discrimination",
        labels=("service",), buckets=CANDIDATE_BUCKETS)
    counter = registry.counter(
        "eca_match_events_total",
        "Events routed through the discrimination network",
        labels=("service",))
    return MatchInstruments(histogram, counter)
