"""Layer spans recorded from outside the program, plus the cProfile check.

:class:`Tracer` wraps each layer's public entry points, records one span
per call (name, layer, start, end, parent span, event id) in memory and
writes them out when the run ends.  Nothing under ``src/`` is changed:
functions are re-bound in every module that imported them (``from .x
import f`` copies the reference, so patching only the defining module
would miss those call sites) and methods are replaced on their class.
Calls *inside* a layer's own package are left unwrapped, so a recursive
evaluator costs one span per entry, not one per recursion.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder over patched layer entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def set_event(self, event_id) -> None:
        """Tag spans opened on this thread with *event_id*."""
        self._local.event = event_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, func, measure=None,
             event_of=None):
        """A wrapper recording a span around each call of *func*.

        *measure* maps ``(args, result)`` to a number stored on the span
        (bytes parsed, rows joined, requests in an envelope).  A span
        opened with no parent on its thread (a runtime worker) takes its
        event id from ``event_of(args)`` when given.
        """
        spans = self.spans
        ids = self._ids
        local = self._local
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            if not stack and event_of is not None:
                local.event = event_of(args)
            stack.append(span_id)
            started = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ended = _clock()
                stack.pop()
            extra = measure(args, result) if measure is not None else 0
            spans.append([span_id, parent, getattr(local, "event", None),
                          layer, name, started, ended, extra])
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- patching --------------------------------------------------------------

    def patch_method(self, cls, attribute: str, layer: str,
                     measure=None, event_of=None) -> None:
        original = cls.__dict__[attribute]
        self._restore.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(
            layer, f"{cls.__name__}.{attribute}", original, measure,
            event_of))

    def patch_function(self, func, layer: str, measure=None) -> int:
        """Re-bind *func* in every ``repro`` module outside its own
        package (and in its package namespace, which serves function-
        level imports); returns the number of bindings replaced."""
        home = func.__module__.rsplit(".", 1)[0]
        wrapper = self.wrap(layer, f"{home}.{func.__name__}", func, measure)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if module_name.startswith(home + ".") and module_name != home:
                continue
            for attribute, value in list(vars(module).items()):
                if value is func:
                    self._restore.append((module, attribute, func))
                    setattr(module, attribute, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"no call site of {home}.{func.__name__}")
        return replaced

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls, busy seconds, self seconds (busy minus the
        part covered by child spans), summed extras; per span name too."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1]:
                child_time[span[1]] += span[6] - span[5]
        totals: dict[str, dict] = {}
        for span_id, _, _, layer, name, started, ended, extra in self.spans:
            busy = ended - started
            for key in (layer, name):
                entry = totals.setdefault(key, {"calls": 0, "busy_s": 0.0,
                                                "self_s": 0.0, "extra": 0})
                entry["calls"] += 1
                entry["busy_s"] += busy
                entry["self_s"] += busy - child_time.get(span_id, 0.0)
                entry["extra"] += extra
        return totals

    def child_extra(self, parent_names: set[str], child_layer: str) -> int:
        """Summed extras of *child_layer* spans directly under spans named
        in *parent_names* (e.g. bytes serialized inside HTTP sends)."""
        parents = {span[0] for span in self.spans if span[4] in parent_names}
        return sum(span[7] for span in self.spans
                   if span[1] in parents and span[3] == child_layer)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span[0], "parent": span[1], "event": span[2],
                    "layer": span[3], "name": span[4],
                    "start": round(span[5], 7), "end": round(span[6], 7),
                    "extra": span[7]}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports.

    Must run before the deployment is built: services bind their
    ``handle``/``feed`` methods into the transport and the event stream
    at wiring time.
    """
    from repro import xmlmodel, xpath, xq
    from repro.actions import ActionRuntime
    from repro.bindings import Relation
    from repro.core import ECAEngine
    from repro.events import EventStream
    from repro.grh import GenericRequestHandler
    from repro.services import (ActionExecutionService, ExistLikeService,
                                InProcessTransport, PooledHttpTransport,
                                SparqlService)
    from repro.services.base import LanguageService
    from repro.services.event_service import EventDetectionService
    from repro.sparql import SparqlQueryService

    tracer.patch_function(xmlmodel.parse, "xmlmodel",
                          lambda args, result: len(args[0]))
    tracer.patch_function(xmlmodel.serialize, "xmlmodel",
                          lambda args, result: len(result))
    tracer.patch_function(xpath.evaluate, "xpath")
    tracer.patch_function(xpath.evaluator.evaluate_expr, "xpath")
    tracer.patch_function(xq.evaluate_query, "xq")
    tracer.patch_method(Relation, "join", "bindings",
                        lambda args, result: len(result))
    for name in ("evaluate_query", "execute_action"):
        tracer.patch_method(GenericRequestHandler, name, "grh",
                            event_of=_event_of_bindings)
    tracer.patch_method(GenericRequestHandler, "notify", "grh")
    tracer.patch_method(LanguageService, "handle", "svc")
    tracer.patch_method(ExistLikeService, "execute", "svc")
    tracer.patch_method(SparqlQueryService, "query", "sparql")
    tracer.patch_method(SparqlService, "query", "sparql")
    tracer.patch_method(ActionExecutionService, "action", "actions")
    for name in ("send", "insert", "delete", "assert_triple",
                 "retract_triple"):
        tracer.patch_method(ActionRuntime, name, "actions")
    tracer.patch_method(EventDetectionService, "feed", "match")
    tracer.patch_method(EventStream, "emit", "events")
    tracer.patch_method(ECAEngine, "register_rule", "core")
    for cls in (InProcessTransport, PooledHttpTransport):
        tracer.patch_method(cls, "send", "services")
        tracer.patch_method(cls, "fetch", "services",
                            lambda args, result: len(args[2]) + len(result))
        tracer.patch_method(cls, "send_batch", "services",
                            lambda args, result: len(args[2].children))

    # the engine subscribes its detection handler through this public
    # hook; wrapping the handler gives the engine's own (core) span
    original = GenericRequestHandler.__dict__["on_detection"]

    def on_detection(self, callback):
        return original(self, tracer.wrap("core", "ECAEngine.on_detection",
                                          callback))

    tracer._restore.append((GenericRequestHandler, "on_detection", original))
    GenericRequestHandler.on_detection = on_detection


def _event_of_bindings(args):
    """The ``Seq`` the benchmark's rules bind from their event, read off
    the bindings argument of a GRH call (``self, component, spec,
    bindings``)."""
    for binding in args[3]:
        return binding.get("Seq")
    return None


# -- cProfile cross-check -------------------------------------------------------

#: source file → layer, for aggregating cProfile self time by package;
#: the node model's accessors (xmlmodel/nodes.py, names.py, builder.py)
#: are data-structure methods, charged to their caller like builtins,
#: because the traced ``xmlmodel`` layer is the parse/serialize codec
_PACKAGE_LAYERS = {
    "xpath": "xpath", "xq": "xq", "bindings": "bindings", "grh": "grh",
    "core": "core", "match": "match", "events": "match",
    "actions": "actions", "sparql": "sparql", "rdf": "sparql",
    "runtime": "runtime",
}


def _profile_layer(filename: str) -> str | None:
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker not in path:
        return None
    rest = path.split(marker, 1)[1]
    package, _, module = rest.partition("/")
    if package == "xmlmodel":
        return "xmlmodel" if module in ("parser.py", "serializer.py") \
            else None
    if package == "services":
        return {"transports.py": "services",
                "event_service.py": "match"}.get(module, "svc")
    return _PACKAGE_LAYERS.get(package)


def profile_seconds(run) -> dict[str, float]:
    """Run *run()* under cProfile; self seconds per layer.

    Time in functions with no layer (builtins, the standard library,
    node-model accessors) is charged to the layers of their callers in
    proportion to the time each caller spent in them.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    layer_of = {func: _profile_layer(func[0]) for func in stats}
    by_layer: dict[str, float] = defaultdict(float)

    def charge(func, seconds, depth=0):
        layer = layer_of.get(func)
        if layer is not None:
            by_layer[layer] += seconds
            return
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[2] for entry in callers.values())
        if depth > 20 or not callers or total <= 0:
            by_layer["other"] += seconds
            return
        for caller, entry in callers.items():
            charge(caller, seconds * entry[2] / total, depth + 1)

    for func, (_, _, tottime, _, _) in stats.items():
        charge(func, tottime)
    return dict(by_layer)
