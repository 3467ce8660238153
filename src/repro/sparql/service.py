"""The framework-aware SPARQL component-language service.

:class:`SparqlQueryService` is the planned/indexed counterpart of the
naive :class:`repro.services.SparqlService`: an LP-style query service
registered under its own language URI (:data:`RDF_SPARQL_LANG`) whose
``query`` hook compiles the component text once (LRU plan cache keyed
on query text + seed signature, invalidated by the store's version
counter) and executes it vectorized over the *whole* input binding set.

**Binding-set pushdown** (the headline difference from the generic
path, PROTOCOL.md §15): the request's input relation is converted to a
seed table — ``Uri`` → IRI, ``str`` → plain literal, ``int``/integral
``float`` → ``xsd:integer``, other ``float`` → ``xsd:double``,
``bool`` → ``xsd:boolean``, exactly the canonical forms the per-tuple
``{Var}`` substitution path produces — and the executor joins the query
against all input tuples in one pass.  The seeded join is RDF
*term*-equality (SPARQL semantics); the engine's later relation join
re-applies its looser value equality, so pushdown only removes tuples a
textual per-tuple substitution would also have removed.

Solution modifiers (``DISTINCT``/``ORDER BY``/``LIMIT``) are applied
*globally*, after the seeded join — the service evaluates one query
over one store, unlike the per-tuple substitution path which re-runs
the query (and its modifiers) once per input tuple.

Queries still using ``{Var}`` placeholders take the compatible
per-tuple textual path (each substituted query is itself planned and
cached), so existing opaque-style components keep working unchanged.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import replace

from ..bindings import Relation, Uri
from ..grh.messages import Request
from ..obs.trace import current_span_sink
from ..rdf import Graph, Literal, URIRef, XSD
from ..rdf.sparql import Solution
from ..services.base import LanguageService, ServiceError
from ..services.query_services import (_PLACEHOLDER_RE,
                                       _per_tuple_lp_evaluation)
from .exec import run_plan, solutions_from_table, table_from_solutions
from ..obs.live import register_live
from .instrument import LIVE_KIND, install_sparql_metrics
from .plan import QueryPlan, explain, plan_query
from .store import TripleStore

__all__ = ["SparqlQueryService", "RDF_SPARQL_LANG"]

#: language URI of the planned/indexed SPARQL backend (the naive
#: sparql-lite URI stays registered for the unoptimized service)
RDF_SPARQL_LANG = "http://www.semwebtech.org/languages/2006/rdf-sparql"


def _term_for(value):
    """The RDF term an engine value seeds a join variable with, or
    ``None`` when the value has no canonical term form (then the
    variable stays unseeded for that tuple and the engine's later
    relation join applies the constraint instead)."""
    if isinstance(value, Uri):
        return URIRef(str(value))
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD.boolean)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD.integer)
    if isinstance(value, float):
        if value.is_integer():
            return Literal(str(int(value)), datatype=XSD.integer)
        return Literal(str(value), datatype=XSD.double)
    if isinstance(value, str):
        return Literal(value)
    return None


def _value_for(term):
    """Term → engine value (same rules as the naive SparqlService)."""
    if isinstance(term, URIRef):
        return Uri(str(term))
    if isinstance(term, Literal):
        return term.to_python()
    return str(term)


class SparqlQueryService(LanguageService):
    """LP-style query service over an indexed, planned triple store."""

    service_name = "rdf-sparql"
    #: this service understands ``log:batch`` envelopes natively (the
    #: transport shim applies; declared for registry introspection)
    supports_batch = True

    def __init__(self, store: Graph | None = None,
                 prefixes: dict[str, str] | None = None, *,
                 metrics=None, plan_cache_size: int = 256,
                 recent_limit: int = 20) -> None:
        if store is None:
            store = TripleStore()
        elif not isinstance(store, TripleStore):
            store = TripleStore.from_graph(store)
        self.store: TripleStore = store
        self.prefixes = dict(prefixes or {})
        self.plan_cache_size = plan_cache_size
        self._plans: "OrderedDict[tuple, QueryPlan]" = OrderedDict()
        #: most recent executed plans with estimates and actuals, newest
        #: last — the ``/introspect/sparql`` recent-plans view
        self.recent_plans: deque = deque(maxlen=recent_limit)
        self.stats = {"queries": 0, "cache_hits": 0, "pushdown_queries": 0,
                      "fallback_rows": 0}
        self._instruments = (install_sparql_metrics(metrics)
                             if metrics is not None else None)
        register_live(LIVE_KIND, self)

    # -- planning ------------------------------------------------------------

    def _prologue(self) -> str:
        return "".join(f"PREFIX {prefix}: <{uri}>\n"
                       for prefix, uri in self.prefixes.items())

    def plan_for(self, text: str,
                 seed_vars: frozenset[str] = frozenset()
                 ) -> tuple[QueryPlan, bool]:
        """The cached plan for ``text`` (returns ``(plan, cache_hit)``).

        Cache entries are keyed on the query text plus the seed-variable
        signature (seeds change join order) and die with the store
        version they were costed against: any mutation invalidates.
        """
        key = (text, tuple(sorted(seed_vars)))
        cached = self._plans.get(key)
        if cached is not None and cached.store_version == self.store.version:
            self._plans.move_to_end(key)
            return cached, True
        plan = plan_query(self.store, text, seed_vars)
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.plan_cache_size:
            self._plans.popitem(last=False)
        return plan, False

    def explain(self, text: str,
                seed_vars: frozenset[str] = frozenset()) -> str:
        """Human-readable plan for a query (admin/debugging surface)."""
        plan, _hit = self.plan_for(self._prologue() + text, seed_vars)
        return explain(plan)

    # -- seeding -------------------------------------------------------------

    @staticmethod
    def _seed_solutions(bindings: Relation,
                        mentioned: set[str]) -> list[Solution]:
        """Input tuples as term-valued solutions over query variables."""
        seeds: list[Solution] = []
        for binding in bindings:
            seed: Solution = {}
            for name, value in binding.items():
                if name not in mentioned:
                    continue
                term = _term_for(value)
                if term is not None:
                    seed[name] = term
            seeds.append(seed)
        return seeds

    # -- protocol hook -------------------------------------------------------

    def query(self, request: Request) -> Relation:
        source = self.component_text(request)
        if _PLACEHOLDER_RE.search(source):
            # compatibility path: textual {Var} substitution, one
            # (planned, cached) evaluation per input tuple
            return _per_tuple_lp_evaluation(
                source, request.bindings,
                lambda text: self._evaluate(text, Relation([])))
        return self._evaluate(source, request.bindings)

    def _evaluate(self, source: str, bindings: Relation) -> Relation:
        text = self._prologue() + source
        started = time.perf_counter()
        try:
            parsed_plan, seeds, seed_table = self._prepare(text, bindings)
        except Exception as exc:
            raise ServiceError(str(exc)) from exc
        plan, cache_hit = parsed_plan
        try:
            table, stats = run_plan(self.store, plan, seed_table)
        except Exception as exc:
            raise ServiceError(str(exc)) from exc
        query = plan.query
        if query.form == "ASK":
            result = Relation([{}] if table.rows else [])
            actual = len(result)
        else:
            solutions = solutions_from_table(table)
            if query.variables and seed_table is not None:
                # keep the input linkage: project the seeded columns
                # alongside the selected variables so the engine's later
                # join ties each answer back to its input tuple
                extras = tuple(name for name in seed_table.columns
                               if name not in query.variables)
                query = replace(query, variables=query.variables + extras)
            from ..rdf.sparql import finalize_select
            solutions = finalize_select(query, solutions)
            result = Relation([
                {name: _value_for(term) for name, term in solution.items()}
                for solution in solutions])
            actual = len(solutions)
        elapsed = time.perf_counter() - started
        self._record(plan, stats, elapsed, cache_hit, seeds, actual)
        return result

    def _prepare(self, text: str, bindings: Relation):
        """Parse + seed + plan; split out so protocol errors are clean."""
        parsed = parse_sparql_cached(text)
        seeds: list[Solution] = []
        seed_table = None
        if len(bindings):
            mentioned = parsed.where.mentioned_variables()
            seeds = self._seed_solutions(bindings, mentioned)
            if any(seeds):
                seed_table = table_from_solutions(seeds)
        seed_vars = seed_table.sure if seed_table is not None else frozenset()
        plan, cache_hit = self.plan_for(text, frozenset(seed_vars))
        return (plan, cache_hit), seeds, seed_table

    def _record(self, plan: QueryPlan, stats, elapsed: float,
                cache_hit: bool, seeds: list, actual: int) -> None:
        self.stats["queries"] += 1
        if cache_hit:
            self.stats["cache_hits"] += 1
        if seeds:
            self.stats["pushdown_queries"] += 1
        self.stats["fallback_rows"] += stats.fallback_rows
        sink = current_span_sink()
        if sink is not None:
            # co-located traced caller: one child span per plan stage,
            # adopted under the GRH request span (PROTOCOL.md §8) so the
            # critical-path analyzer attributes SPARQL time per stage
            for stage in stats.stages:
                sink.append((f"sparql:{stage['op']}", self.service_name,
                             "ok", stage["seconds"]))
        self.recent_plans.append({
            "query": (plan.source or "")[:200],
            "form": plan.query.form,
            "estimated_rows": round(plan.estimate, 2),
            "actual_rows": actual,
            "seconds": elapsed,
            "cache_hit": cache_hit,
            "seed_rows": len(seeds),
            "stages": [{"op": stage["op"],
                        "estimated": stage["estimated"],
                        "rows": stage["rows"]}
                       for stage in stats.stages],
            "plan": plan.describe(),
        })
        if self._instruments is not None:
            self._instruments.observe(self.service_name, plan.query.form,
                                      elapsed, plan.estimate, actual,
                                      stats.probes, cache_hit, len(seeds))

    # -- introspection -------------------------------------------------------

    def introspection(self) -> dict:
        """The ``/introspect/sparql`` view of this service."""
        return {
            "service": self.service_name,
            "store": self.store.snapshot(),
            "predicates": self.store.predicate_stats(limit=20),
            "stats": dict(self.stats),
            "plan_cache": {"entries": len(self._plans),
                           "capacity": self.plan_cache_size},
            "recent_plans": list(self.recent_plans),
        }


# parsing is cheap relative to execution but not free on the per-tuple
# compatibility path, where the same substituted text repeats; a tiny
# LRU mirrors the plan cache's keying without its version sensitivity
_PARSE_CACHE: "OrderedDict[str, object]" = OrderedDict()
_PARSE_CACHE_SIZE = 512


def parse_sparql_cached(text: str):
    from ..rdf.sparql import parse_sparql
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        _PARSE_CACHE.move_to_end(text)
        return cached
    parsed = parse_sparql(text)
    _PARSE_CACHE[text] = parsed
    while len(_PARSE_CACHE) > _PARSE_CACHE_SIZE:
        _PARSE_CACHE.popitem(last=False)
    return parsed
