"""``repro.sparql`` — the indexed, planned SPARQL backend (ROADMAP 3).

Four layers over one store:

* :mod:`repro.sparql.store` — :class:`TripleStore`: SPO/POS/OSP indexes
  (inherited from :class:`repro.rdf.Graph`) plus incremental
  per-predicate cardinality statistics;
* :mod:`repro.sparql.plan` — the selectivity-driven join planner over
  the :mod:`repro.rdf.sparql` AST (greedy scan ordering, filter
  pushdown, per-subgroup seeding) with ``explain`` output;
* :mod:`repro.sparql.exec` — the vectorized executor joining whole
  binding sets (index nested-loop with substitution, hash-join-back for
  ``UNION``/``OPTIONAL``), differentially tested against the naive
  evaluator;
* :mod:`repro.sparql.service` — :class:`SparqlQueryService`, the
  framework-aware component language with binding-set pushdown,
  registered under :data:`RDF_SPARQL_LANG`.

Observability rides along in :mod:`repro.sparql.instrument`
(``eca_sparql_*`` metrics, ``/introspect/sparql``).
"""

from .exec import (ABSENT, ExecStats, Table, run_ask, run_plan, run_select,
                   solutions_from_table, table_from_solutions)
from .instrument import (ROW_BUCKETS, SparqlInstruments,
                         install_sparql_metrics, live_snapshots)
from .plan import (FilterStep, GroupPlan, OptionalStep, PlanError, QueryPlan,
                   ScanStep, UnionStep, explain, plan_query)
from .service import RDF_SPARQL_LANG, SparqlQueryService
from .store import TripleStore

__all__ = [
    "TripleStore",
    "PlanError", "ScanStep", "FilterStep", "UnionStep", "OptionalStep",
    "GroupPlan", "QueryPlan", "plan_query", "explain",
    "ABSENT", "Table", "ExecStats", "run_plan", "run_select", "run_ask",
    "solutions_from_table", "table_from_solutions",
    "SparqlQueryService", "RDF_SPARQL_LANG",
    "install_sparql_metrics", "SparqlInstruments", "live_snapshots",
    "ROW_BUCKETS",
]
