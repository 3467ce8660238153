"""The remote query node of ``fig4_http``, run in its own process.

One :class:`~repro.services.HttpServiceServer` endpoint serves both query
languages of the Fig. 4 rule: POST reaches the framework-aware XQ-lite
service, GET ``?query=`` the framework-unaware eXist-like one.  The
process rebuilds the documents from the same seed as the engine side,
reports its URL and document-load times over the pipe, answers ``load``
with more load-time samples, and serves until the pipe says ``stop``
(or closes).
"""

from __future__ import annotations

import time


def serve(seed: int, persons: int, fleet: int, conn) -> None:
    from gen import classes_xml, fig4_world, fleet_xml, persons_xml
    from repro.services import ExistLikeService, HttpServiceServer, XQService
    from repro.xmlmodel import parse

    world = fig4_world(seed, persons, fleet)
    texts = {"persons.xml": persons_xml(world),
             "classes.xml": classes_xml(world),
             "fleet.xml": fleet_xml(world)}

    def load(seconds: float):
        """Load the documents into both services repeatedly for
        *seconds*; the last load and the time of each."""
        times: list[float] = []
        while len(times) < 5 or sum(times) < seconds:
            started = time.perf_counter()
            documents = {name: parse(text) for name, text in texts.items()}
            services = (XQService(documents), ExistLikeService(documents))
            times.append(time.perf_counter() - started)
        return services, times

    (xq, exist), times = load(0.3)
    server = HttpServiceServer(aware_handler=xq.handle,
                               opaque_handler=exist.execute)
    url = server.start()
    try:
        conn.send({"url": url, "load_s": times})
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message == "stop":
                break
            if message == "load":
                conn.send(load(0.3)[1])
    finally:
        server.stop()
        conn.close()
