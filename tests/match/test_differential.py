"""Differential storms: network path ≡ the linear-scan oracle.

For every event service and seeds 0–9: register the same random rule
set on a network-routed service and on one routed through the seed's
linear scan (:mod:`.linear`), drive the same seeded
event storm (with mid-storm polls and registration churn), and assert
the two emit **identical detection sequences** — same canonical XML,
which pins component ids, intervals, bindings, constituents *and*
detection ids (so ordering too).
"""

import random

import pytest

from repro.bindings import Relation
from repro.events import EventStream
from repro.grh.messages import Request
from repro.services.event_service import (AtomicEventService, SnoopService,
                                          XChangeService)
from repro.xmlmodel import canonicalize

from .linear import linear_service
from .storm import (random_event_payload, random_pattern, random_snoop,
                    random_xchange)

SERVICES = {
    AtomicEventService: lambda rng: random_pattern(rng),
    SnoopService: lambda rng: random_snoop(rng),
    XChangeService: lambda rng: random_xchange(rng),
}


def register(service, component_id, content):
    service.register_event(Request("register-event", component_id,
                                   content, Relation.unit()))


def unregister(service, component_id):
    service.unregister_event(Request("unregister-event", component_id,
                                     None, Relation.unit()))


def run_storm(service_cls, make_rule, seed, rules=24, events=110):
    """Drive one seeded storm through both paths; return both outputs."""
    outputs = {"network": [], "linear": []}
    services = {
        "network": service_cls(outputs["network"].append, incarnation=""),
        "linear": linear_service(service_cls, outputs["linear"].append,
                                 incarnation=""),
    }
    rng = random.Random(seed)
    contents = [make_rule(rng) for _ in range(rules)]
    for index, content in enumerate(contents):
        for service in services.values():
            register(service, f"rule-{index}::event", content.copy())

    storm = random.Random(seed + 1000)
    streams = {name: EventStream() for name in services}
    for name, service in services.items():
        service.attach(streams[name])
    spare = rules  # ids for churn re-registrations
    for _ in range(events):
        roll = storm.random()
        payload = random_event_payload(storm)
        advance = storm.choice((0.0, 0.5, 1.0, 3.0))
        for name, stream in streams.items():
            stream.advance(advance)
            stream.emit(payload.copy())
        if roll < 0.08:  # poll both paths at the same instant
            now = next(iter(streams.values())).now
            for service in services.values():
                service.poll(now)
        elif roll < 0.16:  # churn: drop one component on both paths
            victim = storm.randrange(spare)
            for service in services.values():
                unregister(service, f"rule-{victim}::event")
        elif roll < 0.22:  # churn: register a fresh component mid-storm
            content = make_rule(storm)
            for service in services.values():
                register(service, f"rule-{spare}::event", content.copy())
            spare += 1
    final_poll = next(iter(streams.values())).now + 25.0
    for service in services.values():
        service.poll(final_poll)
    return ([canonicalize(element) for element in outputs["network"]],
            [canonicalize(element) for element in outputs["linear"]])


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("service_cls", list(SERVICES),
                         ids=lambda cls: cls.service_name)
def test_network_equals_linear(service_cls, seed):
    network, linear = run_storm(service_cls, SERVICES[service_cls], seed)
    assert network == linear
    # the storm must actually exercise matching, not vacuously pass
    assert linear, f"seed {seed} produced no detections"


def test_detection_ids_are_monotonic_per_service():
    network, _ = run_storm(SnoopService, SERVICES[SnoopService], seed=3)
    ids = [line.split('detection-id="')[1].split('"')[0]
           for line in network if 'detection-id="' in line]
    sequence = [int(identifier.rsplit(":", 1)[1]) for identifier in ids]
    assert sequence == sorted(sequence)
    assert len(set(sequence)) == len(sequence)
