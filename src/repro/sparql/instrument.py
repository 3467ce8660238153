"""SPARQL-backend observability: metrics, snapshots, registries.

Every :class:`~repro.sparql.service.SparqlQueryService` registers
itself (weakly) with :mod:`repro.obs.live` under :data:`LIVE_KIND` when
constructed, like the ``repro.match`` networks, so two consumers see
the whole process with no extra wiring:

* :func:`install_sparql_metrics` adds the ``eca_sparql_*`` family to a
  :class:`~repro.obs.metrics.MetricsRegistry` — query latency
  histogram, estimated-vs-actual row histograms (the planner's
  misestimate signal), index probe counters, plan-cache hit counter and
  scrape-time store-size gauges aggregated over all live services;
* the admin surface's ``/introspect/sparql`` route renders
  :func:`live_snapshots` (PROTOCOL.md §15).
"""

from __future__ import annotations

from ..obs.live import live_objects, live_totals

__all__ = ["LIVE_KIND", "live_snapshots", "install_sparql_metrics",
           "SparqlInstruments", "ROW_BUCKETS"]

#: the kind SPARQL services register under in repro.obs.live
LIVE_KIND = "sparql"

#: histogram buckets for result-set/estimate row counts (rows, not
#: seconds): the quantity the planner tries to predict
ROW_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
               1000.0, 10000.0, 100000.0)


def live_snapshots() -> list[dict]:
    """One ``/introspect/sparql`` view per live service, stable order."""
    snapshots = [service.introspection()
                 for service in live_objects(LIVE_KIND)]
    snapshots.sort(key=lambda view: (view["service"],
                                     -view["store"]["triples"]))
    return snapshots


def _aggregate(field: str) -> dict[tuple[str, ...], float]:
    """Sum one store-snapshot field per service label over live services."""
    return live_totals(LIVE_KIND,
                       lambda service: service.store.snapshot()[field])


class SparqlInstruments:
    """The handle a service uses to record per-query observations."""

    def __init__(self, latency, queries, cache_hits, probes,
                 estimated_rows, actual_rows, pushdown_seeds) -> None:
        self._latency = latency
        self._queries = queries
        self._cache_hits = cache_hits
        self._probes = probes
        self._estimated = estimated_rows
        self._actual = actual_rows
        self._pushdown = pushdown_seeds

    def observe(self, service_name: str, form: str, seconds: float,
                estimated: float, actual: int, probes: dict[str, int],
                cache_hit: bool, seed_rows: int) -> None:
        self._latency.labels(service_name).observe(seconds)
        self._queries.labels(service_name, form).inc()
        if cache_hit:
            self._cache_hits.labels(service_name).inc()
        for index, amount in probes.items():
            if amount:
                self._probes.labels(service_name, index).inc(amount)
        self._estimated.labels(service_name).observe(float(estimated))
        self._actual.labels(service_name).observe(float(actual))
        if seed_rows:
            self._pushdown.labels(service_name).observe(float(seed_rows))


def install_sparql_metrics(registry) -> SparqlInstruments:
    """Register the §15 SPARQL metrics on ``registry`` (idempotent).

    Scrape-time gauges (no per-query cost):

    * ``eca_sparql_store_triples{service=…}`` / ``…_store_predicates`` —
      store sizes aggregated over live services.

    Per-query instruments, returned for the owning service to drive:

    * ``eca_sparql_query_seconds{service=…}`` latency histogram;
    * ``eca_sparql_queries_total{service=…,form=…}`` counter;
    * ``eca_sparql_plan_cache_hits_total{service=…}`` counter;
    * ``eca_sparql_index_probes_total{service=…,index=…}`` counter —
      which of SPO/POS/OSP (or the full scan) answered the scans;
    * ``eca_sparql_estimated_rows`` / ``eca_sparql_actual_rows``
      histograms — the plan-cost-vs-actual pair;
    * ``eca_sparql_pushdown_seed_rows`` histogram — input binding-set
      sizes pushed into the join.
    """
    registry.gauge(
        "eca_sparql_store_triples",
        "Triples held by live SPARQL stores",
        labels=("service",),
        callback=lambda: _aggregate("triples"))
    registry.gauge(
        "eca_sparql_store_predicates",
        "Distinct predicates held by live SPARQL stores",
        labels=("service",),
        callback=lambda: _aggregate("predicates"))
    latency = registry.histogram(
        "eca_sparql_query_seconds",
        "SPARQL query latency through the planned executor",
        labels=("service",))
    queries = registry.counter(
        "eca_sparql_queries_total",
        "SPARQL queries answered, by query form",
        labels=("service", "form"))
    cache_hits = registry.counter(
        "eca_sparql_plan_cache_hits_total",
        "Queries answered with a cached plan (same text, same store "
        "version)",
        labels=("service",))
    probes = registry.counter(
        "eca_sparql_index_probes_total",
        "Index probes issued by scans, by index",
        labels=("service", "index"))
    estimated = registry.histogram(
        "eca_sparql_estimated_rows",
        "Planner-estimated result rows per query",
        labels=("service",), buckets=ROW_BUCKETS)
    actual = registry.histogram(
        "eca_sparql_actual_rows",
        "Actual result rows per query",
        labels=("service",), buckets=ROW_BUCKETS)
    pushdown = registry.histogram(
        "eca_sparql_pushdown_seed_rows",
        "Input binding-set sizes pushed down into the join",
        labels=("service",), buckets=ROW_BUCKETS)
    return SparqlInstruments(latency, queries, cache_hits, probes,
                             estimated, actual, pushdown)
