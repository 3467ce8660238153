"""Regression: ``poll`` detections must carry their constituent events.

``EventDetectionService.poll`` used to build the ``log:detection``
without ``occurrence.constituents``, so time-driven detections
(``snoop:periodic``) lost the matched-event payloads that ``feed``
includes — Fig. 6 (1) signals "the event sequence that matched the
pattern" for *every* detection, not only stream-driven ones.
"""

import functools

import pytest

from repro.bindings import Relation
from repro.events.base import Event
from repro.grh.messages import Request, xml_to_detection
from repro.services.event_service import SnoopService
from repro.xmlmodel import parse

from .linear import linear_service
from .storm import DOMAIN_NS

D = f'xmlns:d="{DOMAIN_NS}"'
SNOOP = 'xmlns:snoop="http://www.semwebtech.org/languages/2006/snoop"'

PERIODIC = f"""
<snoop:periodic {SNOOP} period="5">
  <d:open {D} job="{{J}}"/>
  <d:close {D}/>
</snoop:periodic>
"""


@pytest.mark.parametrize("build", [SnoopService,
                                   functools.partial(linear_service,
                                                     SnoopService)],
                         ids=["network", "linear"])
def test_periodic_poll_carries_constituents(build):
    delivered = []
    service = build(delivered.append, incarnation="")
    service.register_event(Request("register-event", "tick::event",
                                   parse(PERIODIC), Relation.unit()))
    opener = parse(f'<d:open {D} job="j1"/>')
    service.feed(Event(opener, 0.0, 0))
    service.poll(11.0)
    assert len(delivered) == 2  # fires at t=5 and t=10
    for element in delivered:
        detection = xml_to_detection(element)
        assert detection.component_id == "tick::event"
        assert [payload.name.local for payload in detection.events] \
            == ["open"]
        assert detection.events[0].get("job") == "j1"
        assert detection.bindings == Relation.unit().join(
            detection.bindings)  # non-empty, consistent join
        assert [dict(binding) for binding in detection.bindings] \
            == [{"J": "j1"}]
