"""The three benchmark workloads and the measurements taken on them.

``fig4_xml``   the paper's Fig. 4 rule on the synchronous engine,
               in-process with serialized messages, closed loop.
``rule_storm`` 5000 registered rules, zipf-skewed event types, reads and
               writes on one shared RDF store and ``inventory.xml``,
               closed loop.
``fig4_http``  the Fig. 4 rule with both query languages behind one HTTP
               endpoint in a separate process, ``Runtime(workers=2)``:
               latency at a fixed reference rate (open loop), capacity
               (closed loop, 4 events in flight) and the sustained rate
               (open loop at shares of capacity).

Every workload drives the engine only through public calls, checks each
event's action effects against the plain-Python oracle of :mod:`gen`,
and times latency from an event's emit (or due) time to its last action
effect landing in the ``ActionRuntime``.

Garbage collection: after set-up, one full collection runs and the
surviving set-up heap (documents, graph, rules, indexes) is frozen
(``gc.freeze()``), as a long-running engine process would do after
loading its rule base; without it, each full collection re-scans the
5000-rule heap of ``rule_storm`` and pauses for 0.4-0.7 s.  Automatic
collection of everything allocated afterwards stays on with default
thresholds while timing.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import resource
import statistics
import threading
import time
from collections import Counter, defaultdict

import gen
import layers

clock = time.perf_counter

#: document sizes and rule count of each workload
FIG4_XML_SIZE = (200, 150)          # persons, fleet cars
FIG4_HTTP_SIZE = (50, 40)
STORM_RULES = 5000
#: warm-up events before timing starts (a fixed count, so every phase
#: of one seed measures the same events)
WARMUP_EVENTS = {"fig4_xml": 50, "rule_storm": 1000, "fig4_http": 40}
#: fig4_http: the p99 latency limit, the named reference rate, events
#: in flight while measuring capacity, and the shares of capacity tried,
#: highest first, for the sustained rate
LATENCY_LIMIT_MS = 200.0
REFERENCE_RATE = 40.0
SATURATION_WINDOW = 4
SUSTAINED_FRACTIONS = (0.9, 0.8, 0.7, 0.6, 0.5)
#: fig4_http's split of the run: reference-rate latency and capacity in
#: PARTS alternating parts, then sustained-rate steps
PARTS = 3
REFERENCE_SHARE = 0.45
SATURATION_SHARE = 0.3
STEP_SHARE = 0.1
#: seconds of repeated engine set-ups per sample batch in fig4_http
SETUP_SAMPLE_S = 0.3
#: traced runs process a fixed number of events, so per-layer counts
#: repeat exactly for one seed
TRACED_EVENTS = {"fig4_xml": 400, "rule_storm": 3000, "fig4_http": 300}
PROFILED_EVENTS = 150
#: window of the chunked closed-loop completion rate, and the block of
#: consecutive events the p99 is taken over
CHUNK_S = 1.0
P99_BLOCK = 1000


class CheckFailed(RuntimeError):
    """The program's output or the harness hygiene check failed."""


# -- shared helpers ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise CheckFailed("no event completed correctly: no latency samples")
    rank = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_ms(latencies: list[float]) -> float:
    """p99 latency.  With at least two blocks of ``P99_BLOCK`` consecutive
    events (each block's p99 then has ten samples beyond it), the median
    of the per-block p99s, so that one slow episode of the machine moves
    one block, not the figure."""
    blocks = len(latencies) // P99_BLOCK
    if blocks < 2:
        return percentile(latencies, 99)
    return statistics.median(
        percentile(latencies[index * P99_BLOCK:(index + 1) * P99_BLOCK], 99)
        for index in range(blocks))


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build, min_reps: int = 3, min_total_s: float = 1.0,
                 dispose=None, times: list | None = None):
    """Build repeatedly (at least *min_reps* times and *min_total_s*);
    return the last build and the median set-up time.  *dispose* tears
    an earlier build down outside the timed region; *times*, if given,
    collects the samples."""
    fresh: list[float] = []
    built = None
    while len(fresh) < min_reps or sum(fresh) < min_total_s:
        if built is not None and dispose is not None:
            dispose(built)
        built = None
        gc.collect()
        started = clock()
        built = build()
        fresh.append(clock() - started)
    gc.collect()
    if times is not None:
        times.extend(fresh)
    return built, statistics.median(fresh)


def booking(seq: int, person: str, home: str, city: str):
    from repro.xmlmodel import Element, QName
    return Element(QName(gen.TRAVEL_NS, "booking"),
                   {QName(None, "person"): person,
                    QName(None, "from"): home,
                    QName(None, "to"): city,
                    QName(None, "seq"): str(seq)},
                   nsdecls={"travel": gen.TRAVEL_NS})


def probe_runtime(runtime, records: list, current: list,
                  on_effect=None) -> None:
    """Record every action effect on *runtime*: ``(time, op, event seq
    being emitted, argument, result)``, then call ``on_effect(op, args)``
    if given.  Instance attributes shadow the class methods, and actions
    reach the runtime through attribute lookup, so every effect passes
    through here."""
    for op in ("send", "insert", "delete", "assert_triple",
               "retract_triple"):
        original = getattr(runtime, op)

        def probe(*args, _op=op, _original=original):
            result = _original(*args)
            records.append((clock(), _op, current[0], args, result))
            if on_effect is not None:
                on_effect(_op, args)
            return result

        setattr(runtime, op, probe)


class Result:
    """Counts and samples of one measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: set[int] = set()
        self.latencies_ms: list[float] = []
        self.elapsed = 0.0
        self.started = 0.0
        #: completion time of each event (closed loops)
        self.done: list[float] = []

    @property
    def events_per_s(self) -> float:
        return self.attempted / self.elapsed

    def window_rates(self, chunk_s: float = CHUNK_S) -> list[float]:
        """Completion rate in each consecutive *chunk_s* window, taken
        between the window's first and last completion (a count over a
        fixed window would quantize the rate)."""
        windows: list[list[float]] = [
            [] for _ in range(int(self.elapsed // chunk_s))]
        for at in self.done:
            index = int((at - self.started) // chunk_s)
            if index < len(windows):
                windows[index].append(at)
        return [(len(times) - 1) / (times[-1] - times[0])
                for times in windows if len(times) > 2]

    def chunked_rate(self) -> float:
        """Median completion rate over one-second windows.

        The machine's speed drifts in episodes of a few seconds (other
        tenants on shared cores); a median over short windows keeps one
        slow episode from moving the whole run's figure."""
        rates = self.window_rates()
        return statistics.median(rates) if len(rates) >= 3 \
            else self.events_per_s


# -- fig4_xml ----------------------------------------------------------------------

class Fig4Sync:
    """The Fig. 4 rule on the synchronous in-process engine."""

    name = "fig4_xml"

    def __init__(self, seed: int, persons: int, fleet: int) -> None:
        self.world = gen.fig4_world(seed, persons, fleet)
        self.texts = {"persons.xml": gen.persons_xml(self.world),
                      "classes.xml": gen.classes_xml(self.world),
                      "fleet.xml": gen.fleet_xml(self.world)}
        self.seed = seed
        self._expected: dict = {}

    def build(self):
        from repro import ECAEngine, standard_deployment
        from repro.xmlmodel import parse
        deployment = standard_deployment()
        for name, text in self.texts.items():
            deployment.add_document(name, parse(text))
        engine = ECAEngine(deployment.grh, keep_instances=False)
        started = clock()
        engine.register_rule(gen.fig4_rule("fig4"))
        self.register_s = clock() - started
        return deployment, engine

    def expected(self, person: str, city: str) -> Counter:
        key = (person, city)
        if key not in self._expected:
            self._expected[key] = gen.fig4_offers(self.world, person, city)
        return self._expected[key]

    def attach(self, built) -> None:
        """Measure on *built*; the bookings restart from the seed's first
        one, so every phase replays the same events."""
        self.deployment, self.engine = built
        self.grh = self.deployment.grh
        self.stream = gen.fig4_booking_stream(self.world, self.seed)
        self.records: list = []
        self.current = [None]
        probe_runtime(self.deployment.runtime, self.records, self.current)

    def run(self, *, seconds: float | None = None,
            events: int | None = None, tracer=None) -> Result:
        """Closed loop: the next booking is emitted when the previous
        one returned.  Bounded by *seconds* or by an event count."""
        emit = self.deployment.stream.emit
        homes = self.world.homes
        result = Result()
        sent: dict[int, tuple] = {}
        self.records.clear()
        started = result.started = clock()
        deadline = started + seconds if seconds is not None else math.inf
        while True:
            seq, person, city = next(self.stream)
            payload = booking(seq, person, homes[person], city)
            self.current[0] = seq
            if tracer is not None:
                tracer.set_event(seq)
            emitted = clock()
            emit(payload)
            now = clock()
            result.done.append(now)
            sent[seq] = (emitted, person, city)
            result.attempted += 1
            if (events is not None and result.attempted >= events) or \
                    now >= deadline:
                break
        result.elapsed = clock() - started
        self.check(self.records, sent, result)
        return result

    def check(self, records: list, sent: dict, result: Result) -> None:
        """Compare the offers in *records* with the oracle for each
        booking in *sent* (``seq -> (emit or due time, person, city)``);
        record latencies of correct events and the seqs of wrong ones."""
        offers: dict[int, Counter] = defaultdict(Counter)
        last: dict[int, float] = {}
        for at, op, _, args, _ in records:
            if op != "send" or args[0] != "offers":
                continue
            seq = int(args[1].get("seq"))
            offers[seq][args[1].get("car")] += 1
            last[seq] = at
        for seq, (emitted, person, city) in sent.items():
            if offers.get(seq) != self.expected(person, city):
                result.errors.add(seq)
            else:
                result.latencies_ms.append((last[seq] - emitted) * 1e3)
        stray = set(offers) - set(sent)
        result.errors |= stray


# -- rule_storm --------------------------------------------------------------------

class Storm:
    """Many rules over a shared, written-to RDF store and XML document."""

    name = "rule_storm"

    def __init__(self, seed: int, rules: int) -> None:
        self.world = gen.storm_world(seed, rules)
        self.turtle = gen.storm_turtle(self.world)
        self.inventory = gen.inventory_xml(self.world)
        self.markup = [gen.storm_rule_markup(rule)
                       for rule in self.world.rules]
        self.seed = seed
        self.register_s = 0.0

    def build(self):
        from repro import ECAEngine, standard_deployment
        from repro.rdf import parse_turtle
        from repro.xmlmodel import parse
        deployment = standard_deployment(graph=parse_turtle(self.turtle))
        # standard_deployment does not hand its shared store to the
        # action runtime; without this act:assert/retract have no graph
        deployment.runtime.register_graph("inventory",
                                          deployment.rdf_sparql.store)
        deployment.add_document("inventory.xml", parse(self.inventory))
        engine = ECAEngine(deployment.grh, keep_instances=False)
        started = clock()
        for markup in self.markup:
            engine.register_rule(markup)
        self.register_s = clock() - started
        return deployment, engine

    def attach(self, built) -> None:
        """Measure on *built*: a fresh engine holds no composite state,
        so the events and the oracle restart from the seed's first
        event."""
        self.deployment, self.engine = built
        self.grh = self.deployment.grh
        self.stream = gen.storm_event_stream(self.world, self.seed)
        self.oracle = gen.StormOracle(self.world)
        self.records: list = []
        self.current = [None]
        probe_runtime(self.deployment.runtime, self.records, self.current)
        self.triples = len(self.deployment.rdf_sparql.store)

    def payload(self, event: gen.StormEvent):
        from repro.xmlmodel import Element, QName
        attributes = {QName(None, "seq"): str(event.seq)}
        if event.item is not None:
            attributes[QName(None, "item")] = event.item
        return Element(QName(gen.STORM_NS, f"t{event.type_id}"), attributes,
                       nsdecls={"st": gen.STORM_NS})

    def run(self, *, seconds: float | None = None,
            events: int | None = None, tracer=None) -> Result:
        emit = self.deployment.stream.emit
        result = Result()
        sent: dict[int, tuple] = {}
        self.records.clear()
        instances_before = self.engine.stats["instances"]
        failed_before = self.engine.stats["failed"]
        started = result.started = clock()
        deadline = started + seconds if seconds is not None else math.inf
        while True:
            event = next(self.stream)
            payload = self.payload(event)
            self.current[0] = event.seq
            if tracer is not None:
                tracer.set_event(event.seq)
            emitted = clock()
            emit(payload, at=float(event.seq))
            now = clock()
            result.done.append(now)
            sent[event.seq] = (emitted, event)
            result.attempted += 1
            if (events is not None and result.attempted >= events) or \
                    now >= deadline:
                break
        result.elapsed = clock() - started
        self.instances = self.engine.stats["instances"] - instances_before
        self._check(sent, result,
                    self.engine.stats["failed"] - failed_before)
        return result

    def _check(self, sent: dict, result: Result, failed: int) -> None:
        observed: dict[int, Counter] = defaultdict(Counter)
        last: dict[int, float] = {}
        bad_writes: set[int] = set()
        for at, op, seq, args, value in self.records:
            last[seq] = at
            if op == "send":
                hit = args[1]
                s0 = hit.get("s0")
                observed[seq][(hit.get("r"), int(hit.get("s")),
                               int(s0) if s0 is not None else None,
                               hit.get("item"), hit.get("q"))] += 1
            else:
                observed[seq][op] += 1
                if (op == "retract_triple" and value is not True) or \
                        (op == "delete" and value != 1):
                    bad_writes.add(seq)
        expected_total = 0
        for seq, (emitted, event) in sent.items():
            want: Counter = Counter()
            for rule_id, s, s0, item, qty, writes, query in \
                    self.oracle.expect(event):
                want[(rule_id, s, s0, item, qty)] += 1
                if writes:
                    want.update(("delete", "insert") if query == "xq"
                                else ("retract_triple", "assert_triple"))
                expected_total += 1
            if observed.get(seq, Counter()) != want or seq in bad_writes:
                result.errors.add(seq)
            elif want:
                result.latencies_ms.append((last[seq] - emitted) * 1e3)
        result.errors |= set(observed) - set(sent)
        if failed or self.instances != expected_total:
            result.errors.add(-1)
        # reads and writes hit the same state, which must stay flat
        store = self.deployment.rdf_sparql.store
        document = self.deployment.runtime.documents["inventory.xml"]
        items = sorted((item.get("id"), item.get("qty"))
                       for item in document.elements())
        if len(store) != self.triples or \
                items != sorted(self.world.xml_items.items()):
            result.errors.add(-2)


# -- fig4_http ---------------------------------------------------------------------

class Fig4Http:
    """The Fig. 4 rule against a remote query node."""

    name = "fig4_http"

    def __init__(self, seed: int, persons: int, fleet: int) -> None:
        self.seed = seed
        self.sync = Fig4Sync(seed, persons, fleet)
        self.world = self.sync.world
        self.size = (persons, fleet)
        self.process = None
        self.conn = None
        self.setup_times: list[float] = []

    # -- the service process -------------------------------------------------

    def start_server(self) -> None:
        import server
        context = multiprocessing.get_context("spawn")
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=server.serve, args=(self.seed, *self.size, child),
            name="perfbench-query-node")
        self.process.start()
        child.close()
        try:
            if not self.conn.poll(60):
                raise CheckFailed("query node did not start")
            hello = self.conn.recv()
        except EOFError as exc:
            raise CheckFailed("query node exited during start-up") from exc
        self.url = hello["url"]
        self.load_times: list[float] = hello["load_s"]

    @staticmethod
    def dispose(built) -> None:
        built[2].shutdown(timeout=30)

    def sample_setups(self) -> None:
        """More set-up samples: document loads in the service process,
        engine builds here (each built engine is shut down)."""
        self.conn.send("load")
        if not self.conn.poll(60):
            raise CheckFailed("query node did not answer")
        self.load_times.extend(self.conn.recv())
        built, _ = timed_setups(self.build, min_reps=1,
                                min_total_s=SETUP_SAMPLE_S,
                                dispose=Fig4Http.dispose,
                                times=self.setup_times)
        Fig4Http.dispose(built)

    def stop_server(self) -> None:
        if self.conn is not None:
            try:
                self.conn.send("stop")
            except OSError:
                pass
            self.conn.close()
            self.conn = None
        if self.process is not None:
            self.process.join(10)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(10)
            self.process = None

    # -- the engine side -----------------------------------------------------

    def build(self):
        from repro import ECAEngine
        from repro.actions import ACTION_NS, ActionRuntime
        from repro.events import ATOMIC_NS, EventStream
        from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                               LanguageRegistry)
        from repro.runtime import Runtime
        from repro.services import (EXIST_LANG, XQ_LANG,
                                    ActionExecutionService,
                                    AtomicEventService, HybridTransport)
        registry = LanguageRegistry()
        # at most nproc = 2 pooled connections, one per worker
        transport = HybridTransport(max_per_endpoint=2)
        grh = GenericRequestHandler(registry, transport)
        stream = EventStream()
        runtime = ActionRuntime(event_stream=stream)
        atomic = AtomicEventService(grh.notify)
        atomic.attach(stream)
        grh.add_service(LanguageDescriptor(ATOMIC_NS, "event",
                                           "atomic-events"), atomic)
        grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                        ActionExecutionService(runtime))
        grh.add_remote_language(
            LanguageDescriptor(XQ_LANG, "query", "xquery-lite"), self.url)
        grh.add_remote_language(
            LanguageDescriptor(EXIST_LANG, "query", "exist-like",
                               framework_aware=False), self.url)
        pool = Runtime(workers=2)
        engine = ECAEngine(grh, keep_instances=False, runtime=pool)
        started = clock()
        engine.register_rule(gen.fig4_rule("fig4"))
        self.register_s = clock() - started
        return stream, runtime, engine, transport

    def attach(self, built) -> None:
        self.stream, self.runtime, self.engine, self.transport = built
        self.grh = self.engine.grh
        self.sync.stream = gen.fig4_booking_stream(self.world, self.seed)
        self.records: list = []
        self._on_offer = None
        probe_runtime(self.runtime, self.records, [None], self._on_effect)

    def _on_effect(self, op: str, args) -> None:
        on_offer = self._on_offer
        if on_offer is not None and op == "send":
            on_offer(args[1].get("seq"))

    def shutdown(self) -> None:
        if getattr(self, "engine", None) is not None:
            if not self.engine.shutdown(timeout=30):
                raise CheckFailed("runtime did not quiesce at shutdown")
            self.engine = None

    def open_loop(self, rate: float, *, seconds: float | None = None,
                  events: int | None = None, tracer=None):
        """Emit at *rate* events/s on a fixed schedule; each latency is
        timed from the event's due time.  Returns the phase result, the
        generator's worst lateness and the backlog when the schedule
        ended."""
        count = events if events is not None \
            else max(1, int(round(rate * seconds)))
        homes = self.world.homes
        schedule = [next(self.sync.stream) for _ in range(count)]
        payloads = [booking(seq, person, homes[person], city)
                    for seq, person, city in schedule]
        self.records.clear()
        result = Result()
        lag = 0.0
        emit = self.stream.emit
        started = clock() + 0.01
        for index, payload in enumerate(payloads):
            due = started + index / rate
            now = clock()
            if now < due:
                time.sleep(due - now)
            lag = max(lag, clock() - due)
            if tracer is not None:
                tracer.set_event(schedule[index][0])
            emit(payload)
        ended = started + count / rate
        completed_by_end = len({record[3][1].get("seq")
                                for record in list(self.records)})
        if not self.engine.drain(timeout=60):
            raise CheckFailed("runtime did not drain")
        result.attempted = count
        result.elapsed = max(self.records[-1][0], ended) - started \
            if self.records else ended - started
        sent = {seq: (started + index / rate, person, city)
                for index, (seq, person, city) in enumerate(schedule)}
        self.sync.check(self.records, sent, result)
        return result, lag * 1e3, count - completed_by_end

    def saturate(self, seconds: float,
                 window: int = SATURATION_WINDOW) -> Result:
        """Closed loop with *window* events in flight: the completion
        rate is the engine's capacity.  An event completes when its last
        expected offer lands."""
        homes = self.world.homes
        result = Result()
        free = threading.Semaphore(window)
        lock = threading.Lock()
        pending: dict[str, int] = {}

        def on_offer(seq: str) -> None:
            with lock:
                pending[seq] -= 1
                finished = pending[seq] == 0
            if finished:
                result.done.append(clock())
                free.release()

        self.records.clear()
        self._on_offer = on_offer
        sent: dict[int, tuple] = {}
        emit = self.stream.emit
        started = result.started = clock()
        deadline = started + seconds
        try:
            while clock() < deadline:
                if not free.acquire(timeout=30):
                    raise CheckFailed("events in flight never completed")
                seq, person, city = next(self.sync.stream)
                with lock:
                    pending[str(seq)] = sum(
                        self.sync.expected(person, city).values())
                payload = booking(seq, person, homes[person], city)
                sent[seq] = (clock(), person, city)
                emit(payload)
                result.attempted += 1
            if not self.engine.drain(timeout=60):
                raise CheckFailed("runtime did not drain")
        finally:
            self._on_offer = None
        result.elapsed = seconds
        self.sync.check(self.records, sent, result)
        return result

    def passes(self, result: Result, backlog: int) -> bool:
        return (not result.errors and len(result.latencies_ms) > 0
                and percentile(result.latencies_ms, 99) < LATENCY_LIMIT_MS
                and backlog <= max(2, 0.05 * result.attempted))


# -- runs ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def _closed_loop_metrics(result: Result, setup_s: float) -> dict:
    eps = result.chunked_rate()
    return {
        "events_per_s": _metric(eps, "1/s"),
        # one event at a time on the caller's thread: the highest rate
        # this engine sustains is its closed-loop completion rate
        "sustained_events_per_s": _metric(eps, "1/s"),
        "latency_p50_ms": _metric(percentile(result.latencies_ms, 50), "ms"),
        "latency_p99_ms": _metric(tail_ms(result.latencies_ms), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "rss_peak_mb": _metric(rss_peak_mb(), "MB"),
    }


def settle() -> None:
    """Collect, then freeze the set-up heap (see the module docstring)."""
    gc.collect()
    gc.freeze()


def _warm(session) -> None:
    settle()
    session.run(events=WARMUP_EVENTS[session.name])


def run_fig4_xml(seed: int, seconds: float, traced: bool) -> dict:
    return _closed_loop(Fig4Sync(seed, *FIG4_XML_SIZE), "fig4_xml",
                        seconds, traced, min_reps=3, min_total_s=1.0)


def run_rule_storm(seed: int, seconds: float, traced: bool) -> dict:
    return _closed_loop(Storm(seed, STORM_RULES), "rule_storm", seconds,
                        traced, min_reps=3, min_total_s=0.0)


def _closed_loop(session, workload: str, seconds: float, traced: bool,
                 **setup) -> dict:
    """Untraced: time *seconds* of the closed loop.  Traced: the same
    fixed run of events untraced, then (fig4_xml) under cProfile, then
    on a fresh deployment with the layer wrappers installed."""
    built, setup_s = timed_setups(session.build, **setup)
    session.attach(built)
    _warm(session)
    if not traced:
        result = session.run(seconds=seconds)
        return _report(result, _closed_loop_metrics(result, setup_s))
    count = TRACED_EVENTS[workload]
    register_s = session.register_s
    plain = session.run(events=count)
    profiled = None
    if workload == "fig4_xml":
        profiled = layers.profile_seconds(
            lambda: session.run(events=PROFILED_EVENTS))
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        session.attach(session.build())
        _warm(session)
        tracer.reset()
        result = session.run(events=count, tracer=tracer)
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer, result, session, register_s=register_s)
    metrics["obs.trace_overhead_ratio"] = _metric(
        result.events_per_s / plain.events_per_s, "ratio")
    summary = {"shares": traced_shares(tracer)}
    if profiled is not None:
        summary.update(check_profile(summary["shares"], profiled))
    return _report(result, metrics, tracer=tracer, workload=workload,
                   merge=[plain], summary=summary)


def run_fig4_http(seed: int, seconds: float, traced: bool) -> dict:
    threads_before = {thread.ident for thread in threading.enumerate()}
    sockets_before = _open_sockets()
    session = Fig4Http(seed, *FIG4_HTTP_SIZE)
    tracer = summary = None
    try:
        session.start_server()
        built, _ = timed_setups(session.build, min_reps=5,
                                min_total_s=SETUP_SAMPLE_S,
                                dispose=Fig4Http.dispose,
                                times=session.setup_times)
        session.attach(built)
        settle()
        # warm-up: pools, caches and the service process's first requests
        session.open_loop(REFERENCE_RATE, events=WARMUP_EVENTS["fig4_http"])
        if traced:
            count = TRACED_EVENTS["fig4_http"]
            plain, _, _ = session.open_loop(REFERENCE_RATE, events=count)
            session.shutdown()
            tracer = layers.Tracer()
            layers.install(tracer)
            try:
                session.attach(session.build())
                settle()
                waits: list[float] = []
                session.engine.runtime.on_wait = waits.append
                session.open_loop(REFERENCE_RATE,
                                  events=WARMUP_EVENTS["fig4_http"])
                tracer.reset()
                waits.clear()
                pools_before = _pool_counts(session.transport)
                result, lag_ms, _ = session.open_loop(
                    REFERENCE_RATE, events=count, tracer=tracer)
                pools_after = _pool_counts(session.transport)
                session.shutdown()
            finally:
                tracer.restore()
            metrics = layer_metrics(tracer, result, session,
                                    register_s=session.register_s,
                                    waits=waits, lag_ms=lag_ms,
                                    pools=(pools_before, pools_after))
            metrics["obs.trace_overhead_ratio"] = _metric(
                percentile(plain.latencies_ms, 50)
                / percentile(result.latencies_ms, 50), "ratio")
            merge = [plain]
            summary = {"shares": traced_shares(tracer)}
        else:
            result, metrics, merge = _fig4_http_untraced(session, seconds)
    finally:
        try:
            session.shutdown()
        finally:
            session.stop_server()
    _check_no_leaks(threads_before, sockets_before)
    return _report(result, metrics, tracer=tracer, workload="fig4_http",
                   merge=merge, summary=summary)


def _fig4_http_untraced(session: Fig4Http, seconds: float):
    """Latency at the reference rate and capacity from a saturating
    closed loop, each measured in three parts spread over the run (the
    machine's speed drifts for seconds at a time; one long window could
    fall into one slow episode), then the sustained rate: the highest
    share of capacity, offered open loop, whose p99 stays under the
    limit with no growing backlog.  Set-up is sampled between parts too.
    """
    references: list[Result] = []
    rates: list[float] = []
    phases: list[Result] = []
    for _ in range(PARTS):
        reference, _, _ = session.open_loop(
            REFERENCE_RATE, seconds=REFERENCE_SHARE * seconds / PARTS)
        references.append(reference)
        session.sample_setups()
        saturated = session.saturate(SATURATION_SHARE * seconds / PARTS)
        rates.extend(saturated.window_rates())
        phases.append(saturated)
    capacity = statistics.median(rates)
    sustained = None
    for fraction in SUSTAINED_FRACTIONS:
        # a second try keeps one stall of the shared machine from
        # deciding the step
        for _ in range(2):
            result, _, backlog = session.open_loop(
                fraction * capacity, seconds=STEP_SHARE * seconds)
            phases.append(result)
            if session.passes(result, backlog):
                sustained = fraction * capacity
                break
        if sustained is not None:
            break
    if sustained is None:
        raise CheckFailed("no offered rate met the latency limit")
    latencies = [latency for reference in references
                 for latency in reference.latencies_ms]
    setup_s = statistics.median(session.load_times) + \
        statistics.median(session.setup_times)
    metrics = {
        "events_per_s": _metric(capacity, "1/s"),
        "sustained_events_per_s": _metric(sustained, "1/s"),
        "latency_p50_ms": _metric(percentile(latencies, 50), "ms"),
        "latency_p99_ms": _metric(tail_ms(latencies), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "rss_peak_mb": _metric(rss_peak_mb(), "MB"),
    }
    # steps that miss the limit are expected (they bound the search);
    # only their output correctness counts
    return references[0], metrics, references[1:] + phases


def _pool_counts(transport) -> tuple[int, int]:
    created = reused = 0
    for stats in transport.pool_stats().values():
        created += stats["created"]
        reused += stats["reused"]
    return created, reused


def _open_sockets() -> int:
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return 0
    count = 0
    for fd in fds:
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            continue
    return count


def _check_no_leaks(threads_before: set, sockets_before: int) -> None:
    deadline = time.monotonic() + 5
    while True:
        leaked = [thread.name for thread in threading.enumerate()
                  if thread.ident not in threads_before and thread.is_alive()]
        sockets = _open_sockets() - sockets_before
        if not leaked and sockets <= 0:
            return
        if time.monotonic() > deadline:
            raise CheckFailed(f"leaked threads {leaked} / {sockets} sockets")
        time.sleep(0.05)


# -- per-layer metrics ---------------------------------------------------------------

#: per workload, the layers (or entry points) expected to move its
#: end-to-end numbers; one that records no calls fails the traced run
REQUIRED_CALLS = {
    "fig4_xml": ("xpath", "xq", "xmlmodel", "Relation.join"),
    "rule_storm": ("xmlmodel", "match", "core", "sparql", "actions"),
    "fig4_http": ("grh", "services", "PooledHttpTransport.send"),
}


def layer_metrics(tracer, result: Result, session, *, register_s,
                  waits=None, lag_ms=0.0, pools=None) -> dict:
    totals = tracer.layer_totals()
    events = max(1, result.attempted)

    def total(key, field):
        return totals.get(key, {}).get(field, 0)

    # a batch envelope travels through send, so send + fetch counts
    # every HTTP request exactly once
    http_calls = sum(total(f"PooledHttpTransport.{op}", "calls")
                     for op in ("send", "fetch"))
    http_bytes = (tracer.child_extra({"PooledHttpTransport.send"},
                                     "xmlmodel")
                  + total("PooledHttpTransport.fetch", "extra"))
    fetches = sum(total(f"{cls}.fetch", "calls")
                  for cls in ("InProcessTransport", "PooledHttpTransport"))
    requests = sum(total(f"{cls}.{op}", "calls")
                   for cls in ("InProcessTransport", "PooledHttpTransport")
                   for op in ("send", "fetch"))
    batches = total("PooledHttpTransport.send_batch", "calls") + \
        total("InProcessTransport.send_batch", "calls")
    batch_children = total("PooledHttpTransport.send_batch", "extra") + \
        total("InProcessTransport.send_batch", "extra")
    stats = session.grh.stats
    errors = sum(service.get("failures", 0)
                 for service in stats.get("services", {}).values())
    sparql_hits = sparql_queries = 0
    if isinstance(session, Storm):
        # the planned service's plan cache; sparql-lite has none
        sparql_queries = session.deployment.rdf_sparql.stats["queries"]
        sparql_hits = session.deployment.rdf_sparql.stats["cache_hits"]
    rdf_writes = sum(1 for record in getattr(session, "records", ())
                     if record[1] in ("assert_triple", "retract_triple"))
    created_reused = (0, 0)
    if pools is not None:
        created_reused = (pools[1][0] - pools[0][0],
                          pools[1][1] - pools[0][1])
    reuse_total = sum(created_reused)
    waits_ms = [wait * 1e3 for wait in (waits or [])]
    metrics = {
        "xpath.calls": (total("xpath", "calls"), "count"),
        "xpath.self_s": (total("xpath", "self_s"), "s"),
        "xq.calls": (total("xq", "calls"), "count"),
        "xq.self_s": (total("xq", "self_s"), "s"),
        "xmlmodel.parse_calls": (total("repro.xmlmodel.parse", "calls"),
                                 "count"),
        "xmlmodel.parse_s": (total("repro.xmlmodel.parse", "self_s"), "s"),
        "xmlmodel.serialize_calls": (
            total("repro.xmlmodel.serialize", "calls"), "count"),
        "xmlmodel.serialize_s": (
            total("repro.xmlmodel.serialize", "self_s"), "s"),
        "xmlmodel.bytes": (total("xmlmodel", "extra"), "B"),
        "bindings.join_calls": (total("Relation.join", "calls"), "count"),
        "bindings.join_rows_out": (total("Relation.join", "extra"), "count"),
        "bindings.self_s": (total("bindings", "self_s"), "s"),
        "grh.requests_per_event": (requests / events, "1/event"),
        "grh.unaware_requests_per_event": (fetches / events, "1/event"),
        "grh.self_s": (total("grh", "self_s"), "s"),
        "grh.retries": (stats.get("retries", 0), "count"),
        "grh.errors": (errors, "count"),
        "match.calls": (total("match", "calls"), "count"),
        "match.self_s": (total("match", "self_s") + total("events", "self_s"),
                         "s"),
        "match.detections_per_event": (
            total("GenericRequestHandler.notify", "calls") / events,
            "1/event"),
        "core.register_s": (register_s, "s"),
        "core.instances": (total("ECAEngine.on_detection", "calls"),
                           "count"),
        "core.self_s": (total("core", "self_s"), "s"),
        "sparql.calls": (total("sparql", "calls"), "count"),
        "sparql.self_s": (total("sparql", "self_s"), "s"),
        "sparql.plan_cache_hit_ratio": (
            sparql_hits / sparql_queries if sparql_queries else 0.0,
            "ratio"),
        "rdf.writes": (rdf_writes, "count"),
        "actions.calls": (total("ActionExecutionService.action", "calls"),
                          "count"),
        "actions.self_s": (total("actions", "self_s"), "s"),
        "runtime.queue_wait_p50_ms": (
            percentile(waits_ms, 50) if waits_ms else 0.0, "ms"),
        "runtime.queue_wait_p99_ms": (
            percentile(waits_ms, 99) if waits_ms else 0.0, "ms"),
        "runtime.batch_children_per_envelope": (
            batch_children / batches if batches else 0.0, "count"),
        "services.http_requests_per_event": (http_calls / events, "1/event"),
        "services.bytes_per_event": (http_bytes / events, "B/event"),
        "services.send_s": (total("services", "self_s"), "s"),
        "services.conn_reuse_ratio": (
            created_reused[1] / reuse_total if reuse_total else 0.0,
            "ratio"),
        "gen.lag_max_ms": (lag_ms, "ms"),
        "error_ratio": (len(result.errors) / events, "ratio"),
    }
    missing = [layer for layer in REQUIRED_CALLS[session.name]
               if total(layer, "calls") == 0]
    if isinstance(session, Fig4Http) and not waits_ms:
        missing.append("runtime queue waits")
    if missing:
        raise CheckFailed(f"traced entry points recorded no calls: {missing}")
    return {name: _metric(value, unit)
            for name, (value, unit) in metrics.items()}


#: layers compared between the traced split and the cProfile aggregation
PROFILE_LAYERS = ("xpath", "xq", "xmlmodel", "bindings", "grh", "svc",
                  "services", "core", "match", "actions", "sparql")
PROFILE_TOLERANCE = 0.10


def layer_shares(seconds: dict) -> dict[str, float]:
    grand = sum(seconds.get(layer, 0.0) for layer in PROFILE_LAYERS) or 1.0
    return {layer: seconds.get(layer, 0.0) / grand
            for layer in PROFILE_LAYERS}


def traced_shares(tracer) -> dict[str, float]:
    totals = tracer.layer_totals()
    seconds = {layer: totals.get(layer, {}).get("self_s", 0.0)
               for layer in PROFILE_LAYERS}
    # the stream's own emit is event-layer work, grouped with matching
    seconds["match"] += totals.get("events", {}).get("self_s", 0.0)
    return layer_shares(seconds)


def check_profile(traced: dict, profiled: dict) -> dict:
    """Traced self-time shares must agree with cProfile's per-package
    aggregation within ±10 points on every compared layer (both
    normalized over the compared layers, so harness time drops out)."""
    profile = layer_shares(profiled)
    gaps = {layer: abs(traced[layer] - profile[layer])
            for layer in PROFILE_LAYERS}
    worst = max(gaps.values())
    if worst > PROFILE_TOLERANCE:
        raise CheckFailed(
            f"traced layer shares disagree with cProfile by {worst:.3f}: "
            + ", ".join(f"{layer} {traced[layer]:.3f}/{profile[layer]:.3f}"
                        for layer in PROFILE_LAYERS))
    return {"cprofile_shares": profile, "max_share_gap": worst}


def _report(result: Result, metrics: dict, *, tracer=None, workload=None,
            merge=(), summary=None) -> dict:
    """The result line; a traced run also writes its spans and a layer
    summary (self-time shares, the cProfile check) to ``out/``."""
    errors = len(result.errors) + sum(len(extra.errors) for extra in merge)
    attempted = result.attempted + sum(extra.attempted for extra in merge)
    if tracer is not None:
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{workload}.jsonl"))
        summary = dict(summary, layers={
            layer: totals for layer, totals in tracer.layer_totals().items()
            if "." not in layer})
        with open(os.path.join(out_dir, f"layers-{workload}.json"), "w",
                  encoding="utf-8") as out:
            json.dump(summary, out, indent=1, sort_keys=True)
    return {"correct": errors == 0, "attempted": attempted,
            "failed": errors, "metrics": metrics}


WORKLOADS = {"fig4_xml": run_fig4_xml, "rule_storm": run_rule_storm,
             "fig4_http": run_fig4_http}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    return WORKLOADS[workload](seed, seconds, traced)
