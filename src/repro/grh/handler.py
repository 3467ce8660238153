"""The Generic Request Handler (Sec. 4.4 of the paper).

The GRH "acts as a mediator for dealing with remote services.  It
inspects the namespace declaration of the components (or the language
attribute in case of opaque fragments) for determining an appropriate
language processor and forwards the request to it in an appropriate
form."  Concretely:

* **framework-aware** services receive the component together with the
  input variable bindings as one ``log:request`` and answer with
  ``log:answers`` (Fig. 8);
* **framework-unaware** services receive one plain query string *per
  input tuple*, with ``{Var}`` placeholders substituted by the tuple's
  values; the GRH binds each raw result to the surrounding
  ``eca:variable`` (Fig. 9);
* a framework-unaware service whose query happens to *generate*
  ``log:answers`` markup ("faking" a framework-aware service, Fig. 10)
  is recognized by the shape of its response and treated accordingly.

The GRH also relays event detections from event services back to the ECA
engine (Fig. 6 (1)).
"""

from __future__ import annotations

from typing import Callable

from ..bindings import (Binding, BindingError, Relation, answer_to_binding,
                        answers_to_relation, results_from_answer,
                        value_to_text)
from ..obs.attribution import pop_wait_scope, push_wait_scope
from ..obs.metrics import Counter
from ..obs.trace import (SPANS_QNAME, pop_span_sink, push_span_sink,
                         xml_to_span_dicts)
from ..xmlmodel import Element, LOG_NS, QName, XMLSyntaxError, parse
from .component import ComponentSpec
from .messages import (Detection, MessageError, Request, detection_to_xml,
                       error_text, is_error, request_to_xml, xml_to_detection)
from .registry import (HealthProber, LanguageDescriptor, LanguageRegistry,
                       RegistryError)
from .resilience import (ActionExecutionError, DeadLetter, GRHError,
                         ResilienceManager, ServiceReportedError,
                         TransientServiceFailure)

__all__ = ["GenericRequestHandler", "GRHError"]

_ANSWERS = QName(LOG_NS, "answers")
_ANSWER = QName(LOG_NS, "answer")
_TRACEPARENT_ATTR = QName(None, "traceparent")


def _finish_request_span(obs, span, kind, scope, status="ok") -> None:
    """Stamp the dispatch's accumulated waits onto the request span and
    finish it.

    The wait attributes (``batch_park``/``pool_wait``/``retry_backoff``/
    ``hedge_wait``) must land *before* ``tracer.finish`` — exporters
    (JSONL, the critical-path analyzer) read the attributes at export
    time, and success and error paths alike need the budget
    (PROTOCOL.md §14).
    """
    if scope is not None:
        for kind_key, seconds in scope.items():
            span.set_attribute(kind_key, seconds)
    obs.tracer.finish(span, status=status)
    obs.observe_request(kind, span)


class GenericRequestHandler:
    """Mediator between the ECA engine and component-language services."""

    def __init__(self, registry: LanguageRegistry, transport,
                 cache_opaque_requests: bool = False,
                 resilience: ResilienceManager | None = None) -> None:
        self.registry = registry
        self.transport = transport
        #: retry policies, per-endpoint circuit breakers and the dead
        #: letter queue; the default manager performs no retries and
        #: opens a breaker after 5 consecutive transport failures
        self.resilience = resilience if resilience is not None \
            else ResilienceManager()
        #: the registry's replica health board feeds the manager's
        #: routing decisions (PROTOCOL.md §12)
        self.resilience.health = registry.health
        self._detection_callbacks: list[Callable[[Detection], None]] = []
        self._endpoints: dict[str, tuple[str, ...]] = {}
        #: background ``/healthz`` prober, started lazily when the first
        #: multi-replica HTTP language registers; stopped by
        #: :meth:`close` (engine shutdown)
        self.health_prober: HealthProber | None = None
        self.health_probe_interval = 1.0
        #: set by :meth:`close`; keeps late replica registrations from
        #: restarting the prober thread after engine shutdown
        self._closed = False
        #: lock-protected counters (repro.obs.metrics.Counter): dispatch
        #: may be driven from several threads at once, and a plain
        #: ``int += 1`` loses increments under contention
        self._requests = Counter()
        self._cache_hits = Counter()
        #: a :class:`repro.obs.Observability`, installed by the engine;
        #: ``None`` (the default) means no tracing and no traceparent
        #: stamping — the seed behavior
        self.observability = None
        #: Memoize identical substituted queries to unaware services.
        #: Off by default: it assumes the remote data does not change
        #: within a rule evaluation (safe for the per-instance lifetime,
        #: but the cache lives for the GRH's lifetime — enable only for
        #: effectively read-only sources).
        self.cache_opaque_requests = cache_opaque_requests
        self._opaque_cache: dict[tuple[str, str], str] = {}
        #: per-address memo of transport.dispatches_inline(): an inline
        #: (same-thread) service sees the span sink, so trace context
        #: need not be stamped into its envelope
        self._inline_cache: dict[str, bool] = {}
        #: a :class:`repro.runtime.DispatchBatcher`, installed by a
        #: concurrent runtime built with ``batching=True``; ``None``
        #: (the default) sends every request on its own round-trip.
        #: When present, ``query``/``test`` requests to non-inline,
        #: batch-capable addresses coalesce into ``log:batch``
        #: envelopes (PROTOCOL.md §10)
        self.batcher = None

    @property
    def request_count(self) -> int:
        """Requests mediated so far (thread-safe counter)."""
        return self._requests.value

    @property
    def cache_hits(self) -> int:
        """Opaque-cache hits so far (thread-safe counter)."""
        return self._cache_hits.value

    def clear_opaque_cache(self) -> None:
        self._opaque_cache.clear()

    # -- service-side wiring -------------------------------------------------

    def add_service(self, descriptor: LanguageDescriptor, service) -> None:
        """Register a language and bind its service to the transport.

        ``service`` exposes ``handle(request_element) -> response_element``
        for framework-aware languages, or ``execute(query_text) -> str``
        for framework-unaware ones.
        """
        self.registry.register(descriptor)
        address = descriptor.endpoint or f"svc:{descriptor.name}"
        if descriptor.framework_aware:
            self.transport.bind(address, service.handle)
        else:
            self.transport.bind_opaque(address, service.execute)
        self._endpoints[descriptor.uri] = (address,)

    def add_remote_language(self, descriptor: LanguageDescriptor,
                            address: str | None = None) -> None:
        """Register a language whose service is already reachable at an
        address (e.g. an HTTP URL) without binding anything locally.

        A descriptor carrying a ``replicas`` tuple registers the whole
        replica set; the explicit ``address`` argument remains the
        back-compatible single-replica form (PROTOCOL.md §12).
        """
        self.registry.register(descriptor)
        if descriptor.replicas:
            addresses = descriptor.replicas
        else:
            endpoint = address or descriptor.endpoint
            if endpoint is None:
                raise GRHError(f"no endpoint known for {descriptor.name!r}")
            addresses = (endpoint,)
        self._endpoints[descriptor.uri] = addresses
        if len(addresses) > 1:
            for replica in addresses:
                self.registry.health.track(replica)
            if any(replica.startswith(("http://", "https://"))
                   for replica in addresses):
                self.ensure_health_prober()

    def set_replicas(self, uri: str, addresses) -> None:
        """Re-point a registered language at a new replica set.

        Replica churn (restarts on new ports) flows through here: stale
        addresses are evicted from the breaker/stats maps and the health
        board, so those structures stay bounded by what is registered.
        """
        addresses = tuple(addresses)
        if not addresses:
            raise GRHError("a language needs at least one replica")
        self.registry.lookup(uri)  # raises RegistryError when unknown
        self._endpoints[uri] = addresses
        self._inline_cache.clear()
        if len(addresses) > 1:
            for replica in addresses:
                self.registry.health.track(replica)
        self.resilience.prune(self.active_addresses())

    def active_addresses(self) -> set[str]:
        """Every address currently registered across all languages."""
        return {address for addresses in self._endpoints.values()
                for address in addresses}

    def _addresses_of(self,
                      descriptor: LanguageDescriptor) -> tuple[str, ...]:
        addresses = self._endpoints.get(descriptor.uri) \
            or descriptor.addresses
        if not addresses:
            raise GRHError(
                f"language {descriptor.name!r} has no service endpoint")
        return addresses

    def _address_of(self, descriptor: LanguageDescriptor) -> str:
        return self._addresses_of(descriptor)[0]

    # -- availability plumbing (PROTOCOL.md §12) -----------------------------

    def ensure_health_prober(self) -> HealthProber:
        """Create and start the background ``/healthz`` prober
        (idempotent; after :meth:`close` the prober is returned but not
        started — probing stays off once the engine has shut down)."""
        if self.health_prober is None:
            self.health_prober = HealthProber(
                self.registry.health, self._probed_addresses,
                interval=self.health_probe_interval)
        if not self._closed:
            self.health_prober.start()
        return self.health_prober

    def _probed_addresses(self) -> list[str]:
        """Only replicated languages are probed — a single-address
        language has no routing choice for the probe to inform."""
        return [address for addresses in self._endpoints.values()
                if len(addresses) > 1 for address in addresses]

    def close(self) -> None:
        """Release background resources: the health prober, the hedge
        executor, and the transport's connection pools.  Synchronous
        dispatch keeps working afterwards (pools rebuild on demand;
        hedging and probing stay off)."""
        self._closed = True
        if self.health_prober is not None:
            self.health_prober.stop()
        self.resilience.close()
        closer = getattr(self.transport, "close", None)
        if closer is not None:
            closer()

    def notify(self, detection_xml: Element) -> None:
        """Entry point for event services signalling a detection."""
        detection = xml_to_detection(detection_xml)
        for callback in self._detection_callbacks:
            callback(detection)

    def on_detection(self, callback: Callable[[Detection], None]) -> None:
        """The ECA engine subscribes to detections here."""
        self._detection_callbacks.append(callback)

    # -- dispatch ------------------------------------------------------------------

    def _descriptor_for(self, spec: ComponentSpec) -> LanguageDescriptor:
        # namespace URI for markup components; opaque components may name
        # their language with a plain ``language="name"`` attribute
        try:
            return self.registry.lookup(spec.language)
        except RegistryError:
            pass
        try:
            return self.registry.lookup_by_name(spec.language)
        except RegistryError as exc:
            raise GRHError(str(exc)) from exc

    def _send(self, descriptor: LanguageDescriptor,
              request: Request) -> Element:
        self._requests.inc()
        addresses = self._addresses_of(descriptor)
        obs = self.observability
        span = None
        payload = request_to_xml(request)
        # the inline memo keys on the primary address: a replicated
        # language is remote (never inline), a single-address one keeps
        # the seed behavior
        inline = self._inline_cache.get(addresses[0])
        if inline is None:
            inline = self._probe_inline(addresses[0])
        inline = inline and len(addresses) == 1
        if obs is not None:
            # the request span's identity rides in the envelope; an
            # observability-aware service across a process boundary
            # answers with a log:spans annotation that _strip_spans()
            # adopts into this trace.  stamped onto the payload element
            # directly — the Request object itself needs no copy
            span = obs.tracer.begin("grh.request",
                                    {"kind": request.kind,
                                     "component": request.component_id,
                                     "language": descriptor.name})
            if not inline and span.traceparent is not None:
                payload.attributes[_TRACEPARENT_ATTR] = span.traceparent
        timeout = self.resilience.timeout_for(descriptor)

        def attempt_once(address: str) -> Element:
            # a sink catches server-side span records from co-located
            # services without them riding the serialized response; a
            # real remote service annotates the response instead and is
            # handled by _strip_spans below.  an unsampled request span
            # pushes no sink at all: the service sees no tracing caller
            # and skips capture, mirroring how remote services skip it
            # on the traceparent ``-00`` flags (PROTOCOL.md §9)
            sink = push_span_sink() if obs is not None and span.sampled \
                else None
            try:
                if timeout is not None:
                    response = self.transport.send(address, payload,
                                                   timeout=timeout)
                else:
                    response = self.transport.send(address, payload)
            except GRHError:
                raise
            except Exception as exc:
                if getattr(exc, "service_reported", False):
                    # an HTTP error status from a *live* service (the
                    # transport taxonomy of PROTOCOL.md §11): the
                    # service's own report — deterministic, so not
                    # retried by default and never breaker-counted
                    raise ServiceReportedError(str(exc)) from exc
                # a crash on the other side of the transport is a service
                # failure: transient, retryable, counted by the breaker
                raise TransientServiceFailure(str(exc)) from exc
            finally:
                if sink is not None:
                    pop_span_sink()
            if obs is not None:
                if sink:
                    obs.tracer.adopt_children(span, sink)
                self._strip_spans(response, obs)
            if is_error(response):
                # a clean log:error from a healthy service: not transient
                raise ServiceReportedError(error_text(response))
            return response

        batcher = self.batcher
        batched = (batcher is not None and not inline
                   and request.kind in ("query", "test")
                   and getattr(self.transport, "supports_batch",
                               None) is not None
                   and self.transport.supports_batch(addresses[0]))
        # failover is always safe for read-only kinds; an action may
        # only retarget when its dedup key makes re-dispatch exactly
        # once on the service side (PROTOCOL.md §12)
        read_only = request.kind in ("query", "test", "register-event",
                                     "unregister-event")
        failover_ok = read_only or request.dedup is not None
        # a wait scope collects where this dispatch blocked (batcher
        # park, pool acquisition, backoff, hedge race); the layers
        # below record into it and _finish_request_span copies the
        # totals onto the span for the critical-path analyzer
        scope = push_wait_scope() if span is not None else None
        try:
            try:
                if batched:
                    # read-only request under a concurrent runtime: park
                    # it with the batcher, which ships one log:batch per
                    # address/window through the same resilience path
                    # and fans the log:batchresults back per caller; the
                    # envelope's address is routed once, at submit time
                    result = batcher.submit(
                        self.resilience.route(addresses, descriptor),
                        descriptor, payload)
                    if obs is not None:
                        self._strip_spans(result, obs)
                else:
                    result = self.resilience.call_routed(
                        addresses, descriptor, attempt_once,
                        kind=request.kind, failover_ok=failover_ok,
                        hedge_ok=request.kind in ("query", "test"))
            except _DISPATCH_FAILURES as exc:
                failure = _dispatch_failed(obs, span, request.kind, scope,
                                           descriptor.name, exc)
                if failure is None:
                    raise
                raise failure from exc
        finally:
            if scope is not None:
                pop_wait_scope()
        if span is not None:
            _finish_request_span(obs, span, request.kind, scope)
        return result

    def _probe_inline(self, address: str) -> bool:
        """Memoize whether ``address`` is dispatched synchronously on
        this thread (transport-declared).  Inline services read trace
        context from the span sink, so the envelope stays unstamped;
        everything else — or a transport with no opinion — gets the
        ``traceparent`` attribute."""
        probe = getattr(self.transport, "dispatches_inline", None)
        inline = bool(probe(address)) if probe is not None else False
        self._inline_cache[address] = inline
        return inline

    @staticmethod
    def _strip_spans(response: Element, obs) -> None:
        """Pop a ``log:spans`` annotation off a response and adopt its
        server-side spans into the local tracer.

        Services append the annotation last, so only the final child is
        inspected — no scan over (possibly large) answer lists.
        """
        children = response.children
        if not children:
            return
        last = children[-1]
        if not isinstance(last, Element) or last.name != SPANS_QNAME:
            return
        response.remove(last)
        for record in xml_to_span_dicts(last):
            obs.tracer.adopt(record)

    # -- event components (Figs. 5/6) ---------------------------------------------------

    def register_event_component(self, component_id: str,
                                 spec: ComponentSpec,
                                 idempotent: bool = False) -> None:
        """Route an event component to its detection service.

        With ``idempotent=True`` a service answering that the component
        id is *already registered* counts as success — recovery re-wires
        rules into services that survived the engine crash and still
        hold the registration (PROTOCOL.md §7).
        """
        if spec.family != "event":
            raise GRHError("not an event component")
        if spec.content is None:
            raise GRHError("event components cannot be opaque")
        descriptor = self._descriptor_for(spec)
        try:
            self._send(descriptor, Request("register-event", component_id,
                                           spec.content, Relation.unit()))
        except GRHError as exc:
            if idempotent and "already registered" in str(exc):
                return
            raise

    def unregister_event_component(self, component_id: str,
                                   spec: ComponentSpec) -> None:
        descriptor = self._descriptor_for(spec)
        self._send(descriptor, Request("unregister-event", component_id,
                                       spec.content, Relation.unit()))

    # -- query components (Figs. 7-10) ----------------------------------------------------

    def evaluate_query(self, component_id: str, spec: ComponentSpec,
                       bindings: Relation) -> Relation:
        """Evaluate one query component against its language service.

        Returns the *contribution* relation; the engine joins it with the
        rule instance's current bindings.
        """
        descriptor = self._descriptor_for(spec)
        if not descriptor.framework_aware:
            return self._evaluate_unaware(descriptor, spec, bindings)
        content = spec.content if spec.content is not None \
            else _opaque_element(spec)
        response = self._send(descriptor, Request("query", component_id,
                                                  content, bindings))
        return self._relation_from_answers(response, spec)

    def _relation_from_answers(self, response: Element,
                               spec: ComponentSpec) -> Relation:
        if response.name != _ANSWERS:
            raise GRHError(
                f"query service answered {response.name.clark}, expected "
                "log:answers")
        if spec.bind_to is None:
            try:
                return answers_to_relation(response)
            except Exception as exc:
                raise GRHError(f"malformed answers: {exc}") from exc
        tuples: list[Binding] = []
        for answer in response.findall(_ANSWER):
            try:
                base = answer_to_binding(answer)
                results = results_from_answer(answer)
            except Exception as exc:
                raise GRHError(f"malformed answer: {exc}") from exc
            for result in results:
                try:
                    tuples.append(base.extended(spec.bind_to, result))
                except BindingError:
                    continue  # inconsistent with an existing binding: drop
        return Relation(tuples)

    def _evaluate_unaware(self, descriptor: LanguageDescriptor,
                          spec: ComponentSpec,
                          bindings: Relation) -> Relation:
        """Fig. 9: one plain request per input tuple, values substituted."""
        if spec.opaque is None:
            raise GRHError(
                f"language {descriptor.name!r} is framework-unaware; its "
                "components must be opaque")
        out: list[Binding] = []
        addresses = self._addresses_of(descriptor)
        for binding in bindings:
            query = _substitute(spec.opaque, binding)
            if self.cache_opaque_requests:
                # cache key stays on the primary address: replicas serve
                # the same data, so one entry covers the set
                key = (addresses[0], query)
                if key in self._opaque_cache:
                    self._cache_hits.inc()
                    raw = self._opaque_cache[key]
                else:
                    self._requests.inc()
                    raw = self._fetch(descriptor, addresses, query)
                    self._opaque_cache[key] = raw
            else:
                self._requests.inc()
                raw = self._fetch(descriptor, addresses, query)
            out.extend(self._bind_raw_results(raw, binding, spec))
        return Relation(out)

    def _fetch(self, descriptor: LanguageDescriptor,
               addresses: tuple[str, ...], query: str) -> str:
        timeout = self.resilience.timeout_for(descriptor)
        obs = self.observability
        # framework-unaware services speak their own query language, not
        # the log: protocol — no envelope, so no traceparent to carry;
        # the round-trip is still measured client-side
        span = None
        if obs is not None:
            span = obs.tracer.begin("grh.fetch",
                                    {"language": descriptor.name})

        def attempt_once(address: str) -> str:
            try:
                if timeout is not None:
                    return self.transport.fetch(address, query,
                                                timeout=timeout)
                return self.transport.fetch(address, query)
            except GRHError:
                raise
            except Exception as exc:
                if getattr(exc, "service_reported", False):
                    # §11 taxonomy: error status from a live service
                    raise ServiceReportedError(str(exc)) from exc
                raise TransientServiceFailure(str(exc)) from exc

        scope = push_wait_scope() if span is not None else None
        try:
            try:
                result = self.resilience.call_routed(
                    addresses, descriptor, attempt_once, kind="fetch",
                    failover_ok=True, hedge_ok=True)
            except _DISPATCH_FAILURES as exc:
                failure = _dispatch_failed(obs, span, "fetch", scope,
                                           descriptor.name, exc)
                if failure is None:
                    raise
                raise failure from exc
        finally:
            if scope is not None:
                pop_wait_scope()
        if span is not None:
            _finish_request_span(obs, span, "fetch", scope)
        return result

    def _bind_raw_results(self, raw: str, binding: Binding,
                          spec: ComponentSpec) -> list[Binding]:
        raw = raw.strip()
        parsed: Element | None = None
        if raw.startswith("<"):
            try:
                parsed = parse(f"<log:results xmlns:log='{LOG_NS}'>"
                               f"{raw}</log:results>")
            except XMLSyntaxError as exc:
                raise GRHError(f"unparseable service response: {exc}") from exc
        if parsed is not None:
            children = list(parsed.elements())
            # Fig. 10: the query generated a log:answers structure itself
            if len(children) == 1 and children[0].name == _ANSWERS:
                faked = self._relation_from_answers(children[0], spec)
                return [binding.merged(other) for other in faked
                        if binding.compatible(other)]
            if spec.bind_to is None:
                raise GRHError(
                    "framework-unaware results need an eca:variable wrapper "
                    "(or a log:answers-shaped response)")
            values = [child.copy() for child in children]
            if not children and parsed.text().strip():
                values = [parsed.text().strip()]
        else:
            if spec.bind_to is None:
                raise GRHError(
                    "framework-unaware results need an eca:variable wrapper")
            # strip each line: CRLF responses (HTTP services) would
            # otherwise bind values with a trailing \r that fail joins
            values = [stripped for line in raw.splitlines()
                      if (stripped := line.strip())]
        out = []
        for value in values:
            try:
                out.append(binding.extended(spec.bind_to, value))
            except BindingError:
                continue
        return out

    # -- test components ---------------------------------------------------------------------

    def evaluate_test(self, component_id: str, spec: ComponentSpec,
                      bindings: Relation) -> Relation:
        """Delegate a test component to its service; returns survivors."""
        descriptor = self._descriptor_for(spec)
        content = spec.content if spec.content is not None \
            else _opaque_element(spec)
        response = self._send(descriptor, Request("test", component_id,
                                                  content, bindings))
        if response.name != _ANSWERS:
            raise GRHError("test service must answer log:answers")
        return answers_to_relation(response)

    # -- action components (Sec. 4.5) ------------------------------------------------------------

    def execute_action(self, component_id: str, spec: ComponentSpec,
                       bindings: Relation, guard=None) -> int:
        """Execute the action once per tuple; returns the execution count.

        A mid-loop failure raises :class:`ActionExecutionError` carrying
        the count of tuples that *did* execute (so the engine's audit
        trail stays truthful) and parks the failed tuple plus every
        not-yet-attempted tuple in the dead letter queue for replay.

        ``guard`` is the durability layer's exactly-once hook: before
        anything is dispatched, ``guard.begin(tuples)`` journals every
        tuple's idempotency key in one intent record and returns the
        wire ``dedup`` key per tuple (``None`` marks a duplicate tuple,
        which is skipped — one effect per distinct tuple; it neither
        re-executes nor counts in the return value).
        """
        descriptor = self._descriptor_for(spec)
        content = spec.content if spec.content is not None \
            else _opaque_element(spec)
        count = 0
        tuples = list(bindings)
        dedups = guard.begin(tuples) if guard is not None else None
        for index, binding in enumerate(tuples):
            dedup = None
            if dedups is not None:
                dedup = dedups[index]
                if dedup is None:
                    continue
            try:
                self._send(descriptor, Request("action", component_id,
                                               content, Relation([binding]),
                                               dedup=dedup))
            except GRHError as exc:
                remaining = Relation(tuples[index:])
                self.resilience.dead_letters.append(DeadLetter(
                    kind="action", error=str(exc),
                    enqueued_at=self.resilience.clock(),
                    component_id=component_id, spec=spec, content=content,
                    bindings=remaining))
                observer = self.resilience.observer
                if observer is not None:
                    observer("dead_letter", component_id)
                raise ActionExecutionError(str(exc), executed=count,
                                           remaining=remaining) from exc
            count += 1
        return count

    # -- resilience surface --------------------------------------------------

    def dead_letter_detection(self, detection: Detection, error,
                              attempts: int = 1) -> None:
        """Park a detection whose rule instance failed, for replay via
        :meth:`repro.core.ECAEngine.replay_dead_letters`."""
        self.resilience.dead_letters.append(DeadLetter(
            kind="detection", error=str(error),
            enqueued_at=self.resilience.clock(), attempts=attempts,
            detection=detection))
        observer = self.resilience.observer
        if observer is not None:
            observer("dead_letter", detection.component_id)

    @property
    def stats(self) -> dict:
        """Mediation counters: requests, cache hits, plus the resilience
        layer's retries, breaker activity and dead letters."""
        return {"requests": self.request_count,
                "cache_hits": self.cache_hits,
                **self.resilience.snapshot()}


#: what a routed dispatch can raise: the resilience layer's two
#: internal verdicts, or an already-mapped GRHError (breaker open,
#: retries exhausted, ...)
_DISPATCH_FAILURES = (TransientServiceFailure, ServiceReportedError,
                      GRHError)


def _dispatch_failed(obs, span, kind: str, scope, language: str,
                     exc) -> GRHError | None:
    """Record a failed dispatch; return the GRHError to raise in place
    of an internal verdict, or None when ``exc`` already is one.

    With a request span open, one structured log record is emitted
    before the span finishes with ``status="error"``, so the record
    carries the span's trace ids.
    """
    if span is not None:
        if obs.log is not None:
            obs.log.warning("grh.request.failed", kind=kind,
                            language=language, error=str(exc))
        _finish_request_span(obs, span, kind, scope, status="error")
    if isinstance(exc, TransientServiceFailure):
        return GRHError(f"service {language!r} unreachable "
                        f"or crashed: {exc}")
    if isinstance(exc, ServiceReportedError):
        return GRHError(f"service {language!r} reported: {exc}")
    return None


def _opaque_element(spec: ComponentSpec) -> Element:
    """Wrap opaque text for transmission to a framework-aware service."""
    from ..xmlmodel import ECA_NS, Text
    element = Element(QName(ECA_NS, "opaque"),
                      {QName(None, "language"): spec.language})
    element.append(Text(spec.opaque or ""))
    return element


def _substitute(text: str, binding: Binding) -> str:
    from .component import _PLACEHOLDER_RE

    def replace(match):
        name = match.group(1)
        if name not in binding:
            raise GRHError(f"opaque component uses unbound variable "
                           f"{name!r}")
        return value_to_text(binding[name])

    return _PLACEHOLDER_RE.sub(replace, text)
