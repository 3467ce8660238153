"""Seeded input generators and plain-Python reference oracles.

Everything the engine receives in a benchmark run is built here from the
``--seed`` argument: the XML documents, the RDF graph, the rule markup and
the event stream.  The oracles compute the expected action effects with
ordinary Python over the same generated data; they never touch the
engine, the GRH or the services, so a defect on that path cannot hide in
the reference.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

ECA_NS = "http://www.semwebtech.org/languages/2006/eca-ml"
ACT_NS = "http://www.semwebtech.org/languages/2006/actions"
XQ_LANG = "http://www.semwebtech.org/languages/2006/xquery-lite"
SPARQL_LITE = "http://www.semwebtech.org/languages/2006/sparql-lite"
RDF_SPARQL = "http://www.semwebtech.org/languages/2006/rdf-sparql"
SNOOP_NS = "http://www.semwebtech.org/languages/2006/snoop"
XCHANGE_NS = "http://www.semwebtech.org/languages/2006/xchange"
LOG_NS = "http://www.semwebtech.org/languages/2006/log"
TRAVEL_NS = "http://www.semwebtech.org/domains/2006/travel"
STORM_NS = "urn:perfbench:storm"
INV = "urn:perfbench:inv#"

_FIRST = ["John", "Jane", "Max", "Mia", "Ada", "Alan", "Grace", "Edsger",
          "Barbara", "Donald", "Frances", "Niklaus"]
_LAST = ["Doe", "Roe", "Power", "Wall", "Byron", "Turing", "Hopper",
         "Dijkstra", "Liskov", "Knuth", "Allen", "Wirth"]
_MODELS = ["Golf", "Passat", "Polo", "Clio", "Laguna", "Espace", "Corsa",
           "Astra", "Focus", "Fiesta", "Panda", "Punto", "Megane", "Octavia",
           "Fabia"]
_CLASSES = ["A", "B", "C", "D", "E"]
_CITIES = ["Paris", "Rome", "Munich", "Berlin", "Lisbon", "Vienna", "Oslo",
           "Madrid"]


# -- Fig. 4: the paper's running example, scaled --------------------------------

@dataclass
class Fig4World:
    """Persons with their own car models, the model→class map and the
    rental fleet — the three autonomous data sources of Figs. 8–10."""

    persons: dict[str, list[str]]
    homes: dict[str, str]
    classes: dict[str, str]
    fleet: list[tuple[str, str, str, str]]      # (id, model, class, city)
    cities: list[str]
    #: (person, city) bookings that yield at least one offer
    bookings: list[tuple[str, str]] = field(default_factory=list)


def fig4_world(seed: int, persons: int, fleet_size: int,
               cities: int = 4) -> Fig4World:
    """The seed picks names, owned models and which models share a
    class; the shape that sets the per-event work is the same for every
    seed and every booking: three models per class, two cars of distinct
    models per person (John Doe's Golf and Passat in the paper), and the
    fleet spread evenly over the cities, each city holding the same run
    of models."""
    rng = random.Random(f"fig4/{seed}")
    city_names = _CITIES[:cities]
    shuffled = rng.sample(_MODELS, len(_MODELS))
    classes = {model: _CLASSES[index % len(_CLASSES)]
               for index, model in enumerate(shuffled)}
    people: dict[str, list[str]] = {}
    homes: dict[str, str] = {}
    for index in range(persons):
        name = (f"{rng.choice(_FIRST)} {rng.choice(_LAST)} {index}")
        people[name] = rng.sample(_MODELS, 2)
        homes[name] = rng.choice(city_names)
    fleet = []
    for index in range(fleet_size):
        model = shuffled[(index // cities) % len(shuffled)]
        fleet.append((f"f{index}", model, classes[model],
                      city_names[index % cities]))
    world = Fig4World(people, homes, classes, fleet, city_names)
    world.bookings = [(person, city) for person in people
                      for city in city_names
                      if fig4_offers(world, person, city)]
    return world


def fig4_offers(world: Fig4World, person: str, city: str) -> Counter:
    """Expected offered car models for one booking, as a multiset.

    The rule's relation is a *set* of (OwnCar, Class, Avail) tuples
    (Sec. 3: set semantics), and the action fires once per tuple, so a
    model offered for two distinct owned cars is offered twice.
    """
    tuples = set()
    for own in set(world.persons[person]):
        wanted = world.classes[own]
        for _, model, klass, location in world.fleet:
            if location == city and klass == wanted:
                tuples.add((own, wanted, model))
    return Counter(model for _, _, model in tuples)


def persons_xml(world: Fig4World) -> str:
    out = ["<persons>"]
    for name, models in world.persons.items():
        out.append(f'<person name="{name}" home="{world.homes[name]}">')
        out.extend(f"<car><model>{model}</model></car>" for model in models)
        out.append("</person>")
    out.append("</persons>")
    return "".join(out)


def classes_xml(world: Fig4World) -> str:
    return "<classes>" + "".join(
        f'<entry model="{model}" class="{klass}"/>'
        for model, klass in world.classes.items()) + "</classes>"


def fleet_xml(world: Fig4World) -> str:
    return "<fleet>" + "".join(
        f'<car id="{ident}" model="{model}" class="{klass}" '
        f'location="{city}"/>'
        for ident, model, klass, city in world.fleet) + "</fleet>"


def fig4_booking_stream(world: Fig4World, seed: int):
    """Endless seeded booking sequence: ``(seq, person, city)``."""
    rng = random.Random(f"fig4-events/{seed}")
    for seq in itertools.count(1):
        person, city = rng.choice(world.bookings)
        yield seq, person, city


def fig4_rule(rule_id: str) -> str:
    """The Fig. 4 rule over the synthetic documents: an aware XQ query,
    two framework-unaware ``exist-like`` queries, the natural join and
    ``act:send``.

    The third query is the paper's Fig. 10 form (as in
    ``repro.domain.CAR_RENTAL_RULE``): it generates ``log:answers`` with
    ``Avail`` and ``Class`` itself, and the engine joins them on
    ``Class``.  (``full_pipeline_rule_markup`` binds ``Avail`` per tuple
    instead and never reaches the join.)  The booking's ``seq`` attribute
    is carried to the offer so each effect is attributed to its event."""
    return f"""
    <eca:rule xmlns:eca="{ECA_NS}" id="{rule_id}">
      <eca:event>
        <travel:booking xmlns:travel="{TRAVEL_NS}"
                        person="{{Person}}" to="{{To}}" seq="{{Seq}}"/>
      </eca:event>
      <eca:variable name="OwnCar">
        <eca:query>
          <xq:xquery xmlns:xq="{XQ_LANG}">
            for $c in doc('persons.xml')//person[@name = $Person]/car
            return $c/model/text()
          </xq:xquery>
        </eca:query>
      </eca:variable>
      <eca:variable name="Class">
        <eca:query>
          <eca:opaque language="exist-like">
            doc('classes.xml')//entry[@model = '{{OwnCar}}']/@class
          </eca:opaque>
        </eca:query>
      </eca:variable>
      <eca:query>
        <eca:opaque language="exist-like">
          &lt;log:answers xmlns:log="{LOG_NS}"&gt; {{
            for $c in doc('fleet.xml')//car[@location = '{{To}}']
            return &lt;log:answer&gt;
              &lt;log:variable name="Avail"&gt;{{ $c/@model }}&lt;/log:variable&gt;
              &lt;log:variable name="Class"&gt;{{ $c/@class }}&lt;/log:variable&gt;
            &lt;/log:answer&gt; }}
          &lt;/log:answers&gt;
        </eca:opaque>
      </eca:query>
      <eca:action>
        <act:send xmlns:act="{ACT_NS}" to="offers">
          <offer seq="{{Seq}}" person="{{Person}}" car="{{Avail}}"/>
        </act:send>
      </eca:action>
    </eca:rule>
    """


# -- rule_storm: many rules, zipf-skewed event types, reads and writes ---------

#: rule layout by position in a block of 20 (independent of the seed, so
#: every seed has the same share of composites, query languages and
#: writers at the same popularity ranks): a SNOOP ``seq`` in ``recent``
#: context, an XChange ``and`` with a window, a ``sparql-lite`` query and
#: an XQ lookup on ``inventory.xml``, one each; the other 16 are atomic
#: and query ``rdf-sparql`` with the event-bound ``Item`` pushed down.
#: Four in 20 (two ``rdf-sparql``, the ``sparql-lite`` and the XQ rule)
#: also write the state they read.
_SNOOP, _XCHANGE, _LITE, _XQ = 7, 17, 13, 18
_WRITERS = (1, 12, _LITE, _XQ)
XCHANGE_WINDOW = 100.0


@dataclass(frozen=True)
class StormRule:
    index: int
    pattern: str            # "atomic" | "snoop" | "xchange"
    query: str              # "rdf" | "lite" | "xq"
    writes: bool
    types: tuple[int, ...]  # event type ids (1 for atomic, 2 composite)

    @property
    def rule_id(self) -> str:
        return f"r{self.index}"


@dataclass
class StormWorld:
    rules: list[StormRule]
    rdf_items: dict[str, str]       # code -> qty (RDF store)
    xml_items: dict[str, str]       # id -> qty (inventory.xml)
    type_owner: dict[int, tuple[StormRule, int]]   # type -> (rule, slot)
    cumulative: list[float]         # zipf CDF over rules


def _storm_rule(index: int, next_type) -> StormRule:
    slot = index % 20
    pattern = {_SNOOP: "snoop", _XCHANGE: "xchange"}.get(slot, "atomic")
    query = {_LITE: "lite", _XQ: "xq"}.get(slot, "rdf")
    writes = slot in _WRITERS
    count = 1 if pattern == "atomic" else 2
    return StormRule(index, pattern, query, writes,
                     tuple(next_type() for _ in range(count)))


def storm_world(seed: int, rules: int, rdf_items: int = 2000,
                xml_items: int = 50, zipf_s: float = 1.0) -> StormWorld:
    rng = random.Random(f"storm/{seed}")
    counter = itertools.count()
    specs = [_storm_rule(index, lambda: next(counter))
             for index in range(rules)]
    owner = {type_id: (rule, slot) for rule in specs
             for slot, type_id in enumerate(rule.types)}
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(rules)]
    cumulative = list(itertools.accumulate(weights))
    return StormWorld(
        specs,
        {f"i{n}": str(rng.randrange(1, 1000)) for n in range(rdf_items)},
        {f"x{n}": str(rng.randrange(1, 1000)) for n in range(xml_items)},
        owner, cumulative)


def storm_turtle(world: StormWorld) -> str:
    lines = []
    for code, qty in world.rdf_items.items():
        subject = f"<{INV}{code}>"
        lines.append(f'{subject} <{INV}code> "{code}" ; '
                     f'<{INV}qty> "{qty}" ; <{INV}label> "L{code}" .')
    return "\n".join(lines)


def inventory_xml(world: StormWorld) -> str:
    return "<inventory>" + "".join(
        f'<item id="{ident}" qty="{qty}"/>'
        for ident, qty in world.xml_items.items()) + "</inventory>"


def _storm_event_pattern(rule: StormRule) -> str:
    st = f'xmlns:st="{STORM_NS}"'
    if rule.pattern == "atomic":
        return f'<st:t{rule.types[0]} {st} item="{{Item}}" seq="{{Seq}}"/>'
    first, second = rule.types
    if rule.pattern == "snoop":
        return (f'<snoop:seq xmlns:snoop="{SNOOP_NS}" context="recent">'
                f'<st:t{first} {st} item="{{Item}}" seq="{{Seq0}}"/>'
                f'<st:t{second} {st} seq="{{Seq}}"/></snoop:seq>')
    return (f'<xc:and xmlns:xc="{XCHANGE_NS}" within="{XCHANGE_WINDOW:g}">'
            f'<st:t{first} {st} item="{{Item}}" seq="{{Seq0}}"/>'
            f'<st:t{second} {st} seq="{{Seq}}"/></xc:and>')


def _storm_query(rule: StormRule) -> str:
    if rule.query == "rdf":
        return (f'<eca:query><q:select xmlns:q="{RDF_SPARQL}">'
                f'SELECT ?Qty ?Label WHERE {{ ?S &lt;{INV}code&gt; ?Item . '
                f'?S &lt;{INV}qty&gt; ?Qty . ?S &lt;{INV}label&gt; ?Label }}'
                f'</q:select></eca:query>')
    if rule.query == "lite":
        return (f'<eca:query><q:select xmlns:q="{SPARQL_LITE}">'
                f'SELECT ?Qty ?Label WHERE {{ ?S &lt;{INV}code&gt; "{{Item}}" . '
                f'?S &lt;{INV}qty&gt; ?Qty . ?S &lt;{INV}label&gt; ?Label }}'
                f'</q:select></eca:query>')
    return (f'<eca:variable name="Qty"><eca:query>'
            f'<xq:xquery xmlns:xq="{XQ_LANG}">'
            f"for $i in doc('inventory.xml')//item[@id = $Item] "
            f"return string($i/@qty)</xq:xquery></eca:query></eca:variable>")


def _storm_action(rule: StormRule) -> str:
    seq0 = ' s0="{Seq0}"' if rule.pattern != "atomic" else ""
    send = (f'<act:send to="storm"><hit r="{rule.rule_id}" s="{{Seq}}"'
            f'{seq0} item="{{Item}}" q="{{Qty}}"/></act:send>')
    if not rule.writes:
        return f'<act:sequence xmlns:act="{ACT_NS}">{send}</act:sequence>'
    if rule.query == "xq":
        write = ('<act:delete document="inventory.xml" '
                 "path=\"/inventory/item[@id = '{Item}']\"/>"
                 '<act:insert document="inventory.xml" at="/inventory">'
                 '<item id="{Item}" qty="{Qty}"/></act:insert>')
    else:
        triple = (f's="{INV}{{Item}}" p="{INV}label" o="{{Label}}"')
        write = (f'<act:retract graph="inventory" {triple}/>'
                 f'<act:assert graph="inventory" {triple}/>')
    return f'<act:sequence xmlns:act="{ACT_NS}">{send}{write}</act:sequence>'


def storm_rule_markup(rule: StormRule) -> str:
    return (f'<eca:rule xmlns:eca="{ECA_NS}" id="{rule.rule_id}">'
            f"<eca:event>{_storm_event_pattern(rule)}</eca:event>"
            f"{_storm_query(rule)}"
            f"<eca:action>{_storm_action(rule)}</eca:action></eca:rule>")


@dataclass(frozen=True)
class StormEvent:
    seq: int
    type_id: int
    item: str | None        # only the item-carrying slot has one


def storm_event_stream(world: StormWorld, seed: int):
    """Endless seeded event sequence, zipf-skewed over rules."""
    rng = random.Random(f"storm-events/{seed}")
    total = world.cumulative[-1]
    for seq in itertools.count(1):
        rule = world.rules[bisect.bisect_left(world.cumulative,
                                              rng.random() * total)]
        slot = rng.randrange(len(rule.types))
        item = None
        if slot == 0:
            pool = world.xml_items if rule.query == "xq" \
                else world.rdf_items
            item = f"{'x' if rule.query == 'xq' else 'i'}" \
                   f"{rng.randrange(len(pool))}"
        yield StormEvent(seq, rule.types[slot], item)


class StormOracle:
    """Brute-force matcher over the generated patterns.

    Each event is checked against the one rule that owns its type, with
    the composite semantics written out directly: SNOOP ``seq`` in
    ``recent`` context pairs a terminator with the latest earlier
    initiator and never consumes it; XChange ``and`` pairs every new
    constituent with every stored partner whose time span fits the
    window, each pair once.  Event time is the event's ``seq``.
    """

    def __init__(self, world: StormWorld) -> None:
        self.world = world
        self._recent: dict[int, tuple[str, int]] = {}
        self._partials: dict[int, tuple[list, list]] = {}

    def expect(self, event: StormEvent) -> list[tuple]:
        """Expected effects for one event: a list of
        ``(rule_id, seq, seq0, item, qty, writes, query)``."""
        rule, slot = self.world.type_owner[event.type_id]
        if rule.pattern == "atomic":
            return [self._effect(rule, event.seq, None, event.item)]
        if rule.pattern == "snoop":
            if slot == 0:
                self._recent[rule.index] = (event.item, event.seq)
                return []
            initiator = self._recent.get(rule.index)
            if initiator is None:
                return []
            return [self._effect(rule, event.seq, initiator[1],
                                 initiator[0])]
        firsts, seconds = self._partials.setdefault(rule.index, ([], []))
        out = []
        if slot == 0:
            for seq in seconds:
                if event.seq - seq <= XCHANGE_WINDOW:
                    out.append(self._effect(rule, seq, event.seq,
                                            event.item))
            firsts.append((event.seq, event.item))
        else:
            for seq0, item in firsts:
                if event.seq - seq0 <= XCHANGE_WINDOW:
                    out.append(self._effect(rule, event.seq, seq0, item))
            seconds.append(event.seq)
        return out

    def _effect(self, rule: StormRule, seq: int, seq0: int | None,
                item: str) -> tuple:
        pool = self.world.xml_items if rule.query == "xq" \
            else self.world.rdf_items
        return (rule.rule_id, seq, seq0, item, pool[item], rule.writes,
                rule.query)
