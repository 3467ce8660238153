"""Transports: in-process broker and the real localhost HTTP endpoints."""

import contextlib
import time

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.services import (HttpServiceServer, HybridTransport,
                            InProcessTransport, PooledHttpTransport,
                            ServiceStatusError, TransportError)
from repro.xmlmodel import canonicalize, parse, serialize


def echo_handler(message):
    """Returns the request unchanged (wrapped), to inspect wire bytes."""
    wrapper = parse("<echo/>")
    wrapper.append(message.copy() if message.parent is None else message)
    return wrapper


class TestInProcessTransport:
    def test_send_roundtrips_through_markup(self):
        transport = InProcessTransport()
        seen = []

        def handler(message):
            seen.append(message)
            return relation_to_answers(Relation([{"X": 1}]))

        transport.bind("svc:q", handler)
        response = transport.send("svc:q", parse("<ping a='1'/>"))
        assert seen[0] == parse("<ping a='1'/>")
        # the handler received a *reparsed* copy, not the original object
        assert response == relation_to_answers(Relation([{"X": 1}]))

    def test_serialization_can_be_disabled(self):
        transport = InProcessTransport(serialize_messages=False)
        original = parse("<ping/>")
        received = []
        transport.bind("svc:q", lambda m: (received.append(m), m)[1])
        transport.send("svc:q", original)
        assert received[0] is original

    def test_unknown_address(self):
        transport = InProcessTransport()
        with pytest.raises(TransportError, match="no service bound"):
            transport.send("svc:ghost", parse("<x/>"))
        with pytest.raises(TransportError, match="no opaque service"):
            transport.fetch("svc:ghost", "q")

    def test_opaque_fetch(self):
        transport = InProcessTransport()
        transport.bind_opaque("svc:exist", lambda q: f"result-of({q})")
        assert transport.fetch("svc:exist", "query") == "result-of(query)"


@contextlib.contextmanager
def http_clients(**options):
    """The HTTP client (PROTOCOL.md §11), bare and behind
    HybridTransport's ``http://`` route; closed on exit."""
    clients = [PooledHttpTransport(**options), HybridTransport(**options)]
    try:
        yield clients
    finally:
        for client in clients:
            client.close()


class TestHttpTransport:
    def test_aware_post_roundtrip(self):
        def handler(message):
            return relation_to_answers(Relation([{"Got": message.name.local}]))

        with HttpServiceServer(aware_handler=handler) as url, \
                http_clients() as clients:
            for transport in clients:
                response = transport.send(url, parse("<ping/>"))
                assert "Got" in serialize(response)

    def test_opaque_get_roundtrip(self):
        with HttpServiceServer(opaque_handler=lambda q: f"<r q='{q}'/>") \
                as url, http_clients() as clients:
            for transport in clients:
                assert transport.fetch(url, "the query") \
                    == "<r q='the query'/>"

    def test_unreachable_endpoint(self):
        with http_clients(timeout=0.5) as clients:
            for transport in clients:
                with pytest.raises(TransportError) as excinfo:
                    transport.send("http://127.0.0.1:1/", parse("<x/>"))
                # connection-level: transient, not a service report
                assert not isinstance(excinfo.value, ServiceStatusError)

    def test_service_exception_becomes_transport_error(self):
        def handler(message):
            raise RuntimeError("boom")

        with HttpServiceServer(aware_handler=handler) as url, \
                http_clients() as clients:
            for transport in clients:
                with pytest.raises(ServiceStatusError) as excinfo:
                    transport.send(url, parse("<x/>"))
                assert excinfo.value.status == 500
                assert isinstance(excinfo.value, TransportError)

    def test_wrong_method_rejected(self):
        with HttpServiceServer(aware_handler=lambda m: m) as url, \
                http_clients() as clients:
            for transport in clients:
                with pytest.raises(ServiceStatusError) as excinfo:
                    transport.fetch(url, "q")
                assert excinfo.value.status == 405


class TestHttpServiceServerLifecycle:
    def test_stop_before_start_is_safe(self):
        server = HttpServiceServer(aware_handler=lambda m: m)
        server.stop()  # must not deadlock waiting on serve_forever

    def test_double_stop_is_idempotent(self):
        server = HttpServiceServer(aware_handler=lambda m: m)
        server.start()
        server.stop()
        server.stop()  # second stop is a no-op, not an error

    def test_context_manager_still_works(self):
        server = HttpServiceServer(aware_handler=lambda m: m)
        with server as url:
            assert url.startswith("http://")
        server.stop()  # and an extra stop after __exit__ is fine


class TestPerRequestTimeouts:
    def test_http_send_accepts_timeout_override(self):
        def handler(message):
            return parse("<ok/>")

        with HttpServiceServer(aware_handler=handler) as url:
            transport = PooledHttpTransport(timeout=10.0)
            response = transport.send(url, parse("<x/>"), timeout=2.0)
            assert response.name.local == "ok"
            transport.close()

    def test_http_send_times_out_on_a_slow_service(self):
        def slow(message):
            time.sleep(0.5)
            return parse("<late/>")

        with HttpServiceServer(aware_handler=slow) as url:
            transport = PooledHttpTransport(timeout=10.0)
            started = time.monotonic()
            with pytest.raises(TransportError) as excinfo:
                transport.send(url, parse("<x/>"), timeout=0.1)
            assert time.monotonic() - started < 0.45
            assert not isinstance(excinfo.value, ServiceStatusError)
            transport.close()

    def test_in_process_accepts_and_ignores_timeout(self):
        transport = InProcessTransport()
        transport.bind("svc:x", lambda m: parse("<ok/>"))
        transport.bind_opaque("svc:o", lambda q: "v")
        assert transport.send("svc:x", parse("<x/>"),
                              timeout=0.01).name.local == "ok"
        assert transport.fetch("svc:o", "q", timeout=0.01) == "v"

    def test_hybrid_routes_timeout_through(self):
        recorded = []

        class SpyHttp:
            def send(self, address, message, timeout=None):
                recorded.append(("send", timeout))
                return parse("<ok/>")

            def fetch(self, address, query, timeout=None):
                recorded.append(("fetch", timeout))
                return "v"

        hybrid = HybridTransport()
        hybrid.http = SpyHttp()
        hybrid.send("http://x/", parse("<x/>"), timeout=1.25)
        hybrid.fetch("http://x/", "q", timeout=0.75)
        assert recorded == [("send", 1.25), ("fetch", 0.75)]


class TestWireEquivalence:
    """DESIGN.md §5: identical canonical bytes over both transports."""

    def test_same_message_bytes_in_process_and_http(self):
        message = relation_to_answers(Relation([{"Person": "John Doe",
                                                 "Class": "B"}]))
        captured = {}

        def capture(received):
            captured["inproc"] = canonicalize(received)
            return parse("<ok/>")

        in_process = InProcessTransport()
        in_process.bind("svc:x", capture)
        in_process.send("svc:x", message)

        def capture_http(received):
            captured["http"] = canonicalize(received)
            return parse("<ok/>")

        with HttpServiceServer(aware_handler=capture_http) as url:
            transport = PooledHttpTransport()
            transport.send(url, message)
            transport.close()

        assert captured["inproc"] == captured["http"]
