"""Batched GRH dispatch: envelope codec, transports, fan-back, errors."""

import threading
import time

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry, error_message, ok_message)
from repro.grh.messages import (MessageError, Request, batch_results_to_xml,
                                batch_to_xml, is_batch, request_to_xml,
                                xml_to_batch, xml_to_batch_results)
from repro.runtime import DispatchBatcher, Runtime
from repro.services import (HttpServiceServer, HybridTransport,
                            InProcessTransport, PooledHttpTransport)
from repro.services.transports import handle_batch
from repro.xmlmodel import parse, serialize


def _request(n: int, kind: str = "query") -> "Request":
    return Request(kind, f"c{n}", None, Relation([{"N": str(n)}]))


def _payloads(count: int):
    return [request_to_xml(_request(n)) for n in range(count)]


class TestBatchCodec:
    def test_roundtrip_through_serialization(self):
        envelope = batch_to_xml(_payloads(3))
        assert is_batch(envelope)
        parsed = parse(serialize(envelope))
        children = xml_to_batch(parsed)
        assert len(children) == 3
        assert [child.get("id") for child in children] == ["c0", "c1", "c2"]

    def test_batch_count_mismatch_rejected(self):
        envelope = batch_to_xml(_payloads(2))
        envelope.attributes[next(iter(envelope.attributes))] = "5"
        with pytest.raises(MessageError):
            xml_to_batch(parse(serialize(envelope)))

    def test_batch_rejects_non_request_children(self):
        envelope = batch_to_xml([ok_message()])
        with pytest.raises(MessageError):
            xml_to_batch(envelope)

    def test_results_roundtrip_positional(self):
        results = [relation_to_answers(Relation([{"Q": "a"}])),
                   error_message("slot two failed"),
                   ok_message()]
        wire = parse(serialize(batch_results_to_xml(results)))
        back = xml_to_batch_results(wire, expected=3)
        assert len(back) == 3
        assert back[1].name.local == "error"

    def test_results_expected_count_enforced(self):
        wire = batch_results_to_xml([ok_message()])
        with pytest.raises(MessageError):
            xml_to_batch_results(wire, expected=2)


class TestHandleBatchShim:
    def test_per_request_failure_is_scoped(self):
        def handler(request):
            if request.get("id") == "c1":
                raise RuntimeError("slot exploded")
            return ok_message()

        response = handle_batch(handler, batch_to_xml(_payloads(3)))
        results = xml_to_batch_results(response, expected=3)
        assert results[0].name.local == "ok"
        assert results[1].name.local == "error"
        assert "slot exploded" in results[1].text()
        assert results[2].name.local == "ok"


class TestTransportBatchSupport:
    def test_in_process_send_batch(self):
        transport = InProcessTransport()
        transport.bind("svc:q", lambda request: ok_message())
        assert transport.supports_batch("svc:q")
        assert not transport.supports_batch("svc:unknown")
        response = transport.send_batch("svc:q", batch_to_xml(_payloads(2)))
        assert len(xml_to_batch_results(response, expected=2)) == 2

    def test_http_server_unwraps_batch(self):
        calls = []

        def handler(request):
            calls.append(request.get("id"))
            return relation_to_answers(Relation([{"Q": request.get("id")}]))

        server = HttpServiceServer(aware_handler=handler)
        url = server.start()
        transport = PooledHttpTransport(timeout=5.0)
        try:
            assert transport.supports_batch(url)
            response = transport.send_batch(url, batch_to_xml(_payloads(3)))
        finally:
            transport.close()
            server.stop()
        results = xml_to_batch_results(response, expected=3)
        assert calls == ["c0", "c1", "c2"]       # one POST, three handles
        assert all(r.name.local == "answers" for r in results)

    def test_hybrid_routes_batches_both_ways(self):
        transport = HybridTransport()
        transport.bind("svc:local", lambda request: ok_message())
        assert transport.supports_batch("svc:local")
        response = transport.send_batch("svc:local",
                                        batch_to_xml(_payloads(1)))
        assert len(xml_to_batch_results(response, expected=1)) == 1


class _CountingService:
    """Aware query service that records how it was invoked."""

    def __init__(self):
        self.lock = threading.Lock()
        self.handled = 0

    def handle(self, request):
        with self.lock:
            self.handled += 1
        return relation_to_answers(
            Relation([{"Q": f"answer-{request.get('id')}"}]))


class TestDispatchBatcher:
    def _grh_over_http(self, service):
        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry, HybridTransport(timeout=5.0))
        server = HttpServiceServer(aware_handler=service.handle)
        url = server.start()
        grh.add_remote_language(
            LanguageDescriptor("urn:test:batchq", "query", "batchq"), url)
        descriptor = registry.lookup("urn:test:batchq")
        return grh, server, descriptor, url

    def test_concurrent_submits_coalesce(self):
        service = _CountingService()
        grh, server, descriptor, url = self._grh_over_http(service)
        batcher = DispatchBatcher(grh, window=0.05, max_batch=8)
        results = {}

        def submit(n):
            payload = request_to_xml(_request(n))
            results[n] = batcher.submit(url, descriptor, payload)

        try:
            threads = [threading.Thread(target=submit, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            batcher.stop()
            server.stop()
        assert service.handled == 6
        assert batcher.batches < 6          # at least some coalescing
        assert batcher.batched_requests == 6
        # positional fan-back: each caller got exactly its own answer
        for n, answer in results.items():
            assert f"answer-c{n}" in serialize(answer)

    def test_max_batch_forces_immediate_flush(self):
        service = _CountingService()
        grh, server, descriptor, url = self._grh_over_http(service)
        batcher = DispatchBatcher(grh, window=60.0, max_batch=2)
        results = []

        def submit(n):
            results.append(
                batcher.submit(url, descriptor,
                               request_to_xml(_request(n))))

        try:
            threads = [threading.Thread(target=submit, args=(n,))
                       for n in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)  # would hang for 60s without size flush
        finally:
            batcher.stop()
            server.stop()
        assert len(results) == 2
        assert batcher.size_flushes == 1

    def test_envelope_failure_is_scoped_per_caller(self):
        """Regression: a whole-envelope failure handed the *same*
        exception object to every parked caller; concurrent re-raises
        mutated its ``__traceback__`` racily.  Each caller now gets its
        own copy, chained to the shared envelope failure."""
        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry, HybridTransport(timeout=0.5))
        address = "http://127.0.0.1:9/down"      # nothing listens here
        grh.add_remote_language(
            LanguageDescriptor("urn:test:downq", "query", "downq"), address)
        descriptor = registry.lookup("urn:test:downq")
        batcher = DispatchBatcher(grh, window=60.0, max_batch=2)
        errors = {}

        def submit(n):
            try:
                batcher.submit(address, descriptor,
                               request_to_xml(_request(n)))
            except BaseException as exc:
                errors[n] = exc

        try:
            threads = [threading.Thread(target=submit, args=(n,))
                       for n in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            batcher.stop()
        assert set(errors) == {0, 1}
        assert errors[0] is not errors[1]            # distinct objects
        assert type(errors[0]) is type(errors[1])
        # both chain back to the one envelope failure
        assert errors[0].__cause__ is errors[1].__cause__
        assert errors[0].__cause__ is not None

    def test_engine_batched_query_equivalence(self):
        """The same HTTP workload with and without batching yields the
        same effects, and batching actually reduces POST round-trips."""
        from repro.actions import ACTION_NS, ActionRuntime
        from repro.core import ECAEngine
        from repro.conditions import TEST_NS
        from repro.events import ATOMIC_NS, EventStream
        from repro.services import (ActionExecutionService,
                                    AtomicEventService, TestLanguageService,
                                    XQ_LANG, XQService)
        from repro.domain import (WorkloadConfig, booking_payloads,
                                  synthetic_persons)
        from repro.xmlmodel import ECA_NS

        def run(runtime):
            config = WorkloadConfig(persons=8, fleet_size=6, cities=2)
            registry = LanguageRegistry()
            grh = GenericRequestHandler(registry,
                                        HybridTransport(timeout=5.0))
            stream = EventStream()
            actions = ActionRuntime(event_stream=stream)
            atomic = AtomicEventService(grh.notify)
            atomic.attach(stream)
            grh.add_service(
                LanguageDescriptor(ATOMIC_NS, "event", "atomic"), atomic)
            grh.add_service(
                LanguageDescriptor(TEST_NS, "test", "test"),
                TestLanguageService())
            grh.add_service(
                LanguageDescriptor(ACTION_NS, "action", "actions"),
                ActionExecutionService(actions))
            xq = XQService({"persons.xml": synthetic_persons(config)})
            server = HttpServiceServer(aware_handler=xq.handle)
            url = server.start()
            grh.add_remote_language(
                LanguageDescriptor(XQ_LANG, "query", "xquery-lite"), url)
            engine = ECAEngine(grh, runtime=runtime)
            from repro.domain.workload import TRAVEL_NS
            engine.register_rule(f"""
            <eca:rule xmlns:eca="{ECA_NS}" id="q">
              <eca:event>
                <travel:booking xmlns:travel="{TRAVEL_NS}"
                                person="{{Person}}" to="{{To}}"/>
              </eca:event>
              <eca:variable name="Car">
                <eca:query>
                  <xq:xquery xmlns:xq="{XQ_LANG}">
                    for $c in doc('persons.xml')
                        //person[@name = $Person]/car
                    return $c/model/text()
                  </xq:xquery>
                </eca:query>
              </eca:variable>
              <eca:action>
                <act:send xmlns:act="{ACTION_NS}" to="out">
                  <owns person="{{Person}}" car="{{Car}}"/>
                </act:send>
              </eca:action>
            </eca:rule>""")
            try:
                for payload in booking_payloads(config, 12):
                    stream.emit(payload)
                assert engine.drain(30)
            finally:
                engine.shutdown(10)
                server.stop()
            effects = sorted(serialize(m.content)
                             for m in actions.messages("out"))
            return effects, xq

        plain_effects, _ = run(Runtime(workers=4))
        batched_runtime = Runtime(workers=4, batching=True,
                                  batch_window=0.02, max_batch=8)
        batched_effects, _ = run(batched_runtime)
        assert batched_effects == plain_effects
        assert batched_runtime.batcher is None  # detached on shutdown


class TestCounterIntegrity:
    """The ISSUE 6 regression: lifetime counters were incremented
    without the lock from submitters and the flusher concurrently,
    losing increments under contention."""

    def test_concurrent_submit_hammer_counts_exactly(self):
        service = _CountingService()
        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry, HybridTransport(timeout=10.0))
        server = HttpServiceServer(aware_handler=service.handle)
        url = server.start()
        grh.add_remote_language(
            LanguageDescriptor("urn:test:hammer", "query", "hammer"), url)
        descriptor = registry.lookup("urn:test:hammer")
        batcher = DispatchBatcher(grh, window=0.002, max_batch=4)
        total = 96
        errors = []

        def submit(n):
            try:
                batcher.submit(url, descriptor, request_to_xml(_request(n)))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        try:
            threads = [threading.Thread(target=submit, args=(n,))
                       for n in range(total)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            batcher.stop()
            server.stop()
        assert not errors
        assert service.handled == total
        counters = batcher.counters()
        # every request travelled in exactly one flushed envelope; a
        # lost increment shows up as a short count here
        assert counters["batched_requests"] == total
        assert counters["batches"] >= counters["size_flushes"]
        assert counters["batches"] * 4 >= total


class _SpyBatchTransport(InProcessTransport):
    """Records the timeout each envelope was shipped with."""

    def __init__(self):
        super().__init__()
        self.batch_timeouts = []

    def send_batch(self, address, envelope, timeout=None):
        self.batch_timeouts.append(timeout)
        return super().send_batch(address, envelope, timeout)


class TestEnvelopeTimeoutScaling:
    """PROTOCOL.md §10: a deep envelope gets one per-request budget per
    entry, capped at max_timeout_scale — not a single request's."""

    def _world(self, per_request_timeout, **batcher_kwargs):
        from repro.grh import ResilienceManager, RetryPolicy
        registry = LanguageRegistry()
        transport = _SpyBatchTransport()
        grh = GenericRequestHandler(
            registry, transport,
            resilience=ResilienceManager(
                retry=RetryPolicy(timeout=per_request_timeout)))
        address = transport.bind("svc:scale", lambda m: handle_batch(
            lambda r: relation_to_answers(Relation([{"Q": "ok"}])), m)
            if is_batch(m) else relation_to_answers(Relation([{"Q": "ok"}])))
        grh.add_remote_language(
            LanguageDescriptor("urn:test:scale", "query", "scale"), address)
        descriptor = registry.lookup("urn:test:scale")
        batcher = DispatchBatcher(grh, window=2.0, **batcher_kwargs)
        return transport, batcher, descriptor, address

    def _submit_n(self, batcher, address, descriptor, n, flush_at=None):
        threads = [threading.Thread(
            target=batcher.submit,
            args=(address, descriptor, request_to_xml(_request(i))))
            for i in range(n)]
        for thread in threads:
            thread.start()
        if flush_at is not None:
            # a partial bucket never size-flushes: wait until every
            # submitter is parked, then force the flush ourselves
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with batcher._lock:
                    bucket = batcher._buckets.get(address)
                    parked = len(bucket.entries) if bucket else 0
                if parked >= flush_at:
                    break
                time.sleep(0.005)
            batcher.flush()
        for thread in threads:
            thread.join(10)

    def test_full_envelope_scales_to_the_cap(self):
        transport, batcher, descriptor, address = self._world(
            0.5, max_batch=8, max_timeout_scale=4)
        try:
            self._submit_n(batcher, address, descriptor, 8)
        finally:
            batcher.stop()
        # 8 entries, cap 4: 0.5s/request -> 2.0s for the envelope
        assert transport.batch_timeouts == [pytest.approx(2.0)]

    def test_small_envelope_scales_linearly(self):
        transport, batcher, descriptor, address = self._world(
            0.5, max_batch=8, max_timeout_scale=4)
        try:
            self._submit_n(batcher, address, descriptor, 2, flush_at=2)
        finally:
            batcher.stop()
        assert transport.batch_timeouts == [pytest.approx(1.0)]

    def test_no_policy_timeout_means_no_deadline(self):
        transport, batcher, descriptor, address = self._world(
            None, max_batch=4)
        try:
            self._submit_n(batcher, address, descriptor, 4)
        finally:
            batcher.stop()
        assert transport.batch_timeouts == [None]

    def test_rejects_bad_scale(self):
        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry, InProcessTransport())
        with pytest.raises(ValueError):
            DispatchBatcher(grh, max_timeout_scale=0)
