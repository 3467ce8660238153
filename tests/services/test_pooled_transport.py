"""PooledHttpTransport: keep-alive reuse, pool bounds, reconnects —
and the PROTOCOL.md §11 failure taxonomy, both on the client itself and
through HybridTransport's HTTP route."""

import http.client
import socket
import threading
import time

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry, ResilienceManager, RetryPolicy)
from repro.grh.handler import GRHError
from repro.grh.messages import Request, request_to_xml
from repro.grh.resilience import BreakerPolicy
from repro.services import (HttpServiceServer, HybridTransport,
                            PooledHttpTransport, ServiceStatusError,
                            TransportError)
from repro.services.transports import _raise_for_status
from repro.xmlmodel import parse, serialize


def _ok_handler(message):
    return relation_to_answers(Relation([{"Q": "fine"}]))


class _RawHttpServer:
    """A scripted raw-socket HTTP/1.1 server for failure-shape tests.

    ``responses`` is a list of ``(status_line_suffix, body)`` tuples or
    the sentinel ``"close"`` (hang up without answering).  When
    ``close_after_each`` is set the socket is dropped after every
    response while *advertising* keep-alive — exactly the stale-socket
    shape the pooled transport must survive.
    """

    def __init__(self, responses=None, close_after_each=False):
        self.responses = list(responses or [])
        self.close_after_each = close_after_each
        self.requests_served = 0
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._stop = False
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def start(self):
        self._thread.start()
        host, port = self._sock.getsockname()
        return f"http://{host}:{port}/"

    def stop(self):
        self._stop = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    def _serve(self):
        while not self._stop:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _read_request(self, conn):
        conn.settimeout(5.0)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return False
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(rest) < length:
            chunk = conn.recv(4096)
            if not chunk:
                return False
            rest += chunk
        return True

    def _handle(self, conn):
        try:
            while self._read_request(conn):
                script = (self.responses.pop(0) if self.responses
                          else ("200 OK", "<ok/>"))
                if script == "close":
                    return
                status_line, body = script
                payload = body.encode("utf-8")
                # count before the write: the client can otherwise read
                # the response and assert on the counter before this
                # thread is scheduled again
                self.requests_served += 1
                conn.sendall(
                    f"HTTP/1.1 {status_line}\r\n"
                    f"Content-Type: application/xml\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"\r\n".encode("ascii") + payload)
                if self.close_after_each:
                    return
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass


def _single_pool_stats(transport):
    (stats,) = transport.pool_stats().values()
    return stats


class TestKeepAliveReuse:
    def test_sequential_sends_share_one_connection(self):
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            transport = PooledHttpTransport()
            try:
                for _ in range(5):
                    response = transport.send(url, parse("<ping/>"))
                    assert "Q" in serialize(response)
                stats = _single_pool_stats(transport)
                assert stats["created"] == 1
                assert stats["reused"] == 4
                assert stats["idle"] == 1 and stats["in_use"] == 0
            finally:
                transport.close()

    def test_fetch_reuses_too(self):
        with HttpServiceServer(opaque_handler=lambda q: f"got {q}") as url:
            transport = PooledHttpTransport()
            try:
                assert transport.fetch(url, "a") == "got a"
                assert transport.fetch(url, "b") == "got b"
                assert _single_pool_stats(transport)["reused"] == 1
            finally:
                transport.close()

    def test_batch_rides_a_warm_connection(self):
        from repro.grh.messages import batch_to_xml, xml_to_batch_results
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            transport = PooledHttpTransport()
            try:
                transport.send(url, parse("<warmup/>"))
                payloads = [request_to_xml(
                    Request("query", f"c{n}", None,
                            Relation([{"N": str(n)}])))
                    for n in range(3)]
                response = transport.send_batch(url, batch_to_xml(payloads))
                assert len(xml_to_batch_results(response, expected=3)) == 3
                assert _single_pool_stats(transport)["created"] == 1
            finally:
                transport.close()

    def test_close_then_reuse_builds_a_new_pool(self):
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            transport = PooledHttpTransport()
            transport.send(url, parse("<a/>"))
            transport.close()
            assert transport.pool_stats() == {}
            transport.send(url, parse("<b/>"))
            assert _single_pool_stats(transport)["created"] == 1
            transport.close()


class TestPoolBounds:
    def test_exhaustion_raises_within_wait_budget(self):
        release = threading.Event()

        def slow_handler(message):
            release.wait(5.0)
            return parse("<ok/>")

        with HttpServiceServer(aware_handler=slow_handler) as url:
            transport = PooledHttpTransport(timeout=0.4, max_per_endpoint=1)
            try:
                errors = []

                def occupy():
                    try:
                        transport.send(url, parse("<slow/>"), timeout=5.0)
                    except TransportError as exc:
                        errors.append(exc)

                first = threading.Thread(target=occupy, daemon=True)
                first.start()
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    stats = transport.pool_stats()
                    if stats and _single_pool_stats(transport)["in_use"]:
                        break
                    time.sleep(0.01)
                with pytest.raises(TransportError, match="exhausted"):
                    transport.send(url, parse("<second/>"))
                release.set()
                first.join(5.0)
                assert not errors
            finally:
                release.set()
                transport.close()

    def test_idle_connections_are_reaped(self):
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            transport = PooledHttpTransport(idle_timeout=0.05)
            try:
                transport.send(url, parse("<a/>"))
                time.sleep(0.15)
                transport.send(url, parse("<b/>"))
                stats = _single_pool_stats(transport)
                assert stats["reaped"] == 1
                assert stats["created"] == 2
                assert stats["reused"] == 0
            finally:
                transport.close()


class TestStaleSocketReconnect:
    def test_server_hangup_between_requests_is_transparent(self):
        # the server advertises keep-alive but drops the socket after
        # every response: each reused connection is stale, and each
        # send must recover on one fresh reconnect
        server = _RawHttpServer(close_after_each=True)
        with server as url:
            transport = PooledHttpTransport(timeout=5.0)
            try:
                for _ in range(3):
                    assert transport.send(
                        url, parse("<ping/>")).name.local == "ok"
                stats = _single_pool_stats(transport)
                # every request was eventually served on its own fresh
                # connection; stale sockets were retired, not surfaced
                assert stats["retired"] >= 2
                assert server.requests_served == 3
            finally:
                transport.close()

    def test_fresh_connection_failure_is_not_retried(self):
        # hang up without answering on a *new* connection: no silent
        # retry — the §6 resilience layer owns that decision
        server = _RawHttpServer(responses=["close"])
        with server as url:
            transport = PooledHttpTransport(timeout=2.0)
            try:
                with pytest.raises(TransportError, match="cannot reach"):
                    transport.send(url, parse("<ping/>"))
                assert server.connections == 1
            finally:
                transport.close()


class TestHttpStatusTaxonomy:
    @pytest.mark.parametrize("transport_cls",
                             [PooledHttpTransport, HybridTransport])
    def test_service_exception_is_service_reported(self, transport_cls):
        def handler(message):
            raise RuntimeError("deterministic boom")

        with HttpServiceServer(aware_handler=handler) as url:
            transport = transport_cls()
            with pytest.raises(ServiceStatusError) as excinfo:
                transport.send(url, parse("<x/>"))
            assert excinfo.value.status == 500
            assert excinfo.value.service_reported
            # the log:error body carries the service's own message
            assert "deterministic boom" in str(excinfo.value)

    @pytest.mark.parametrize("transport_cls",
                             [PooledHttpTransport, HybridTransport])
    @pytest.mark.parametrize("status_line", ["502 Bad Gateway",
                                             "503 Service Unavailable",
                                             "504 Gateway Timeout"])
    def test_gateway_statuses_stay_transient(self, transport_cls,
                                             status_line):
        server = _RawHttpServer(responses=[(status_line, "down")])
        with server as url:
            transport = transport_cls(timeout=2.0)
            with pytest.raises(TransportError) as excinfo:
                transport.send(url, parse("<x/>"))
            assert not isinstance(excinfo.value, ServiceStatusError)
            assert not getattr(excinfo.value, "service_reported", False)

    def test_raise_for_status_prefers_log_error_body(self):
        from repro.grh.messages import error_message
        body = serialize(error_message("storage exploded"))
        with pytest.raises(ServiceStatusError, match="storage exploded"):
            _raise_for_status("http://x/", 500, "Internal Server Error",
                              body)

    def test_raise_for_status_falls_back_to_status_text(self):
        with pytest.raises(ServiceStatusError, match="HTTP 404"):
            _raise_for_status("http://x/", 404, "Not Found", "nope")


def _grh_for(url, resilience):
    registry = LanguageRegistry()
    grh = GenericRequestHandler(registry, PooledHttpTransport(timeout=5.0),
                                resilience=resilience)
    grh.add_remote_language(
        LanguageDescriptor("urn:test:tax", "query", "tax"), url)
    return grh, registry.lookup("urn:test:tax")


def _query(n=0):
    return Request("query", f"c{n}", None, Relation([{"N": str(n)}]))


class Test500NotRetried:
    """The ISSUE's regression: an HTTP 500 is the service's own report
    and must not be retried (or breaker-counted) by default."""

    def test_500_raising_service_called_exactly_once(self):
        calls = []

        def handler(message):
            calls.append(1)
            raise RuntimeError("always fails")

        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                    sleep=lambda s: None)
        with HttpServiceServer(aware_handler=handler) as url:
            grh, descriptor = _grh_for(url, manager)
            with pytest.raises(GRHError, match="reported"):
                grh._send(descriptor, _query())
        assert len(calls) == 1          # NOT retried
        assert manager.retries == 0

    def test_500_retried_when_policy_opts_in(self):
        calls = []

        def handler(message):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("fails twice")
            return relation_to_answers(Relation([{"Q": "ok"}]))

        manager = ResilienceManager(
            retry=RetryPolicy(max_attempts=3, retry_on_service_errors=True),
            sleep=lambda s: None)
        with HttpServiceServer(aware_handler=handler) as url:
            grh, descriptor = _grh_for(url, manager)
            response = grh._send(descriptor, _query())
            assert "ok" in serialize(response)
        assert len(calls) == 3

    def test_500_does_not_trip_the_breaker(self):
        calls = []

        def handler(message):
            calls.append(1)
            raise RuntimeError("always fails")

        manager = ResilienceManager(
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=60.0),
            sleep=lambda s: None)
        with HttpServiceServer(aware_handler=handler) as url:
            grh, descriptor = _grh_for(url, manager)
            for _ in range(3):
                with pytest.raises(GRHError, match="reported"):
                    grh._send(descriptor, _query())
        # a threshold-1 breaker would have shed calls 2 and 3 if the
        # 500s were misclassified as transient; the service saw all 3
        assert len(calls) == 3
        assert manager.breaker_opens == 0


class TestServerBadRequests:
    """Malformed POSTs answer a clean 400, never an unhandled 500."""

    def _connect(self, url):
        host, port = url[len("http://"):].rstrip("/").split(":")
        return http.client.HTTPConnection(host, int(port), timeout=5.0)

    def test_missing_content_length_is_400(self):
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            conn = self._connect(url)
            try:
                conn.putrequest("POST", "/")
                conn.putheader("Content-Type", "application/xml")
                conn.endheaders()      # no Content-Length, no body
                response = conn.getresponse()
                assert response.status == 400
                assert b"Content-Length" in response.read()
            finally:
                conn.close()

    def test_invalid_content_length_is_400(self):
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            for bogus in ("banana", "-5"):
                conn = self._connect(url)
                try:
                    conn.putrequest("POST", "/")
                    conn.putheader("Content-Type", "application/xml")
                    conn.putheader("Content-Length", bogus)
                    conn.endheaders()
                    response = conn.getresponse()
                    assert response.status == 400
                finally:
                    conn.close()

    def test_non_utf8_body_is_400(self):
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            conn = self._connect(url)
            try:
                body = b"\xff\xfe<broken/>"
                conn.putrequest("POST", "/")
                conn.putheader("Content-Type", "application/xml")
                conn.putheader("Content-Length", str(len(body)))
                conn.endheaders()
                conn.send(body)
                response = conn.getresponse()
                assert response.status == 400
                assert b"UTF-8" in response.read()
            finally:
                conn.close()

    def test_server_speaks_keep_alive(self):
        # two requests over one client connection both answer: the
        # handler really runs HTTP/1.1 persistent connections
        with HttpServiceServer(aware_handler=_ok_handler) as url:
            conn = self._connect(url)
            try:
                for _ in range(2):
                    body = serialize(parse("<ping/>")).encode("utf-8")
                    conn.request("POST", "/", body=body,
                                 headers={"Content-Type": "application/xml"})
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                conn.close()
