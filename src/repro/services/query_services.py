"""Query-component services: XQ-lite, eXist-like, SPARQL, Datalog.

Four services demonstrating the paper's two query-language styles
(Sec. 3) and both integration modes (Sec. 4.4):

* :class:`XQService` — *functional-style*, **framework-aware**: the
  wrapped Saxon node of Fig. 8.  Evaluates the query once per input
  tuple (external variables = the tuple) and returns one ``log:result``
  per item of the result sequence.
* :class:`ExistLikeService` — *functional-style*, **framework-UNaware**:
  the eXist node of Fig. 9.  Plain query string in, raw serialized
  results out; all adaptation happens in the GRH.
* :class:`SparqlService` — *LP-style* over an RDF graph: returns a
  relation of variable bindings which the engine joins.
* :class:`DatalogService` — *LP-style* over a Datalog program: goal in,
  relation of substitutions out.
"""

from __future__ import annotations

from ..bindings import Binding, Relation, Uri, binding_to_answer
from ..datalog import DatalogEngine, DatalogError
from ..grh.component import _PLACEHOLDER_RE
from ..grh.messages import Request
from ..rdf import Graph, Literal, URIRef
from ..rdf import select as sparql_select
from ..xmlmodel import Element, LOG_NS, QName
from ..xq import XQEvaluationError, XQSyntaxError, evaluate_query
from .base import LanguageService, ServiceError

__all__ = ["XQService", "ExistLikeService", "SparqlService",
           "DatalogService", "XQ_LANG", "EXIST_LANG", "SPARQL_LANG",
           "DATALOG_LANG"]

#: Language URIs (the resources of Fig. 1's language model).
XQ_LANG = "http://www.semwebtech.org/languages/2006/xquery-lite"
EXIST_LANG = "http://www.semwebtech.org/languages/2006/exist-like"
SPARQL_LANG = "http://www.semwebtech.org/languages/2006/sparql-lite"
DATALOG_LANG = "http://www.semwebtech.org/languages/2006/datalog"


def _substitute(text: str, binding: Binding) -> str:
    """Replace ``{Var}`` placeholders with the tuple's values.

    Framework-aware LP-style services receive the input bindings in the
    request (Sec. 4.4); placeholders let a query mention them inline the
    same way opaque components do.
    """
    from ..bindings import value_to_text

    def replace(match):
        name = match.group(1)
        if name not in binding:
            raise ServiceError(f"unbound input variable {name!r}")
        return value_to_text(binding[name])

    return _PLACEHOLDER_RE.sub(replace, text)


def _per_tuple_lp_evaluation(source: str, bindings: Relation,
                             evaluate_once) -> Relation:
    """Evaluate an LP-style query, per input tuple when it uses
    placeholders, once otherwise; merge solutions with their input tuple."""
    if not _PLACEHOLDER_RE.search(source):
        return evaluate_once(source)
    out = []
    for binding in bindings:
        for solution in evaluate_once(_substitute(source, binding)):
            if binding.compatible(solution):
                out.append(binding.merged(solution))
    return Relation(out)


def _xq_variables(binding: Binding) -> dict:
    """Convert a binding tuple to XQ-lite external variables."""
    variables = {}
    for name, value in binding.items():
        if isinstance(value, Element):
            variables[name] = [value]
        elif isinstance(value, Uri):
            variables[name] = str(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            variables[name] = float(value)
        else:
            variables[name] = value
    return variables


class XQService(LanguageService):
    """Framework-aware XQ-lite processor over named documents."""

    service_name = "xq-lite"

    def __init__(self, documents: dict[str, Element] | None = None) -> None:
        self.documents = dict(documents or {})

    def add_document(self, name: str, root: Element) -> None:
        self.documents[name] = root

    def query(self, request: Request) -> Element:
        source = self.component_text(request)
        answers = Element(QName(LOG_NS, "answers"), nsdecls={"log": LOG_NS})
        for binding in request.bindings:
            try:
                sequence = evaluate_query(source,
                                          variables=_xq_variables(binding),
                                          documents=self.documents)
            except (XQSyntaxError, XQEvaluationError) as exc:
                raise ServiceError(str(exc)) from exc
            results = [item if isinstance(item, Element)
                       else _atomize(item) for item in sequence]
            answers.append(binding_to_answer(binding, results=results))
        return answers


def _atomize(item) -> object:
    if isinstance(item, float) and item.is_integer():
        return int(item)
    if hasattr(item, "owner"):      # attribute node
        return item.value
    if hasattr(item, "value") and not isinstance(item, (str, int, float,
                                                        bool)):
        return item.value           # text node
    return item


class ExistLikeService:
    """Framework-UNaware XML query node, reached like Fig. 9's eXist.

    Not a :class:`LanguageService`: it has no notion of the ``log:``
    protocol.  ``execute`` takes a plain (already variable-substituted)
    query string and returns the serialized result sequence.
    """

    def __init__(self, documents: dict[str, Element] | None = None) -> None:
        self.documents = dict(documents or {})
        self.request_log: list[str] = []

    def add_document(self, name: str, root: Element) -> None:
        self.documents[name] = root

    def execute(self, query: str) -> str:
        from ..xmlmodel import serialize
        self.request_log.append(query)
        sequence = evaluate_query(query, documents=self.documents)
        parts = []
        for item in sequence:
            if isinstance(item, Element):
                parts.append(serialize(item))
            else:
                parts.append(str(_atomize(item)))
        return "\n".join(parts)


class SparqlService(LanguageService):
    """LP-style query service over an RDF graph."""

    service_name = "sparql-lite"

    def __init__(self, graph: Graph | None = None,
                 prefixes: dict[str, str] | None = None) -> None:
        self.graph = graph if graph is not None else Graph()
        self.prefixes = dict(prefixes or {})

    def query(self, request: Request) -> Relation:
        source = self.component_text(request)
        prologue = "".join(f"PREFIX {prefix}: <{uri}>\n"
                           for prefix, uri in self.prefixes.items())

        def evaluate_once(query_text: str) -> Relation:
            try:
                solutions = sparql_select(self.graph, prologue + query_text)
            except Exception as exc:
                raise ServiceError(str(exc)) from exc
            tuples = []
            for solution in solutions:
                data = {}
                for name, term in solution.items():
                    if term is None:
                        continue
                    if isinstance(term, URIRef):
                        data[name] = Uri(str(term))
                    elif isinstance(term, Literal):
                        data[name] = term.to_python()
                    else:
                        data[name] = str(term)
                tuples.append(data)
            return Relation(tuples)

        return _per_tuple_lp_evaluation(source, request.bindings,
                                        evaluate_once)


class DatalogService(LanguageService):
    """LP-style query service over a Datalog program."""

    service_name = "datalog"

    def __init__(self, program: str = "") -> None:
        self._source = program
        self._engine: DatalogEngine | None = None

    def load(self, program: str) -> None:
        """Replace the program (facts + rules) served by this node."""
        self._source = program
        self._engine = None

    def add_facts(self, facts: str) -> None:
        self._source += "\n" + facts
        self._engine = None

    def query(self, request: Request) -> Relation:
        if self._engine is None:
            self._engine = DatalogEngine(self._source)
        goal = self.component_text(request).strip()

        def evaluate_once(goal_text: str) -> Relation:
            try:
                return Relation(self._engine.query(goal_text))
            except DatalogError as exc:
                raise ServiceError(str(exc)) from exc

        return _per_tuple_lp_evaluation(goal, request.bindings,
                                        evaluate_once)
