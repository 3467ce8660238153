"""Windowed XChange conjunctions forget what the window has passed.

``and``/``seq`` with ``within`` drop every stored partial (and every
emitted-combination key) that can no longer take part in a detection.
A seeded stream checks that this changes nothing a detector reports —
the pruned detector emits exactly what an otherwise identical detector
that never forgets emits — while its state stays bounded instead of
growing with the stream.
"""

import random

import pytest

from repro.events import AndQuery, EventStream, PatternQuery, SeqQuery
from repro.events.atomic import AtomicPattern
from repro.events.xchange import _Conjunction
from repro.xmlmodel import E, parse

TAGS = ("a", "b", "c")


class NeverForgetAnd(AndQuery):
    def _forget(self, horizon):
        pass


class NeverForgetSeq(SeqQuery):
    def _forget(self, horizon):
        pass


def build(rng, and_cls, seq_cls, depth=0):
    """A random windowed conjunction tree over ``<tag k="{K}"/>``
    patterns."""
    children = []
    for _ in range(rng.choice((2, 3))):
        if depth == 0 and rng.random() < 0.3:
            children.append(build(rng, and_cls, seq_cls, depth + 1))
        else:
            tag = rng.choice(TAGS)
            children.append(PatternQuery(AtomicPattern(
                parse(f'<{tag} k="{{K}}"/>'))))
    cls = rng.choice((and_cls, seq_cls))
    return cls(children, within=rng.choice((3.0, 5.0, 8.0)))


def state_size(query):
    """Stored partials plus emitted keys, over the whole query tree."""
    if not isinstance(query, _Conjunction):
        return 0
    own = sum(len(pool) for pool in query._partials) + len(query._emitted)
    return own + sum(state_size(child) for child in query.queries)


def detections_of(occurrences):
    return [(o.start, o.end,
             tuple(event.sequence for event in o.constituents),
             sorted(tuple(sorted(binding.items())) for binding in o.bindings))
            for o in occurrences]


@pytest.mark.parametrize("seed", range(6))
def test_pruned_window_matches_unpruned_and_stays_bounded(seed):
    pruned = build(random.Random(seed), AndQuery, SeqQuery)
    kept = build(random.Random(seed), NeverForgetAnd, NeverForgetSeq)
    stream = EventStream()
    out = {"pruned": [], "kept": []}
    stream.subscribe(lambda event: out["pruned"].extend(pruned.feed(event)))
    stream.subscribe(lambda event: out["kept"].extend(kept.feed(event)))
    rng = random.Random(seed + 100)
    peak = 0
    for _ in range(200):
        stream.advance(rng.choice((0.0, 0.5, 1.0, 2.0)))
        stream.emit(E(rng.choice(TAGS), {"k": str(rng.randrange(2))}))
        peak = max(peak, state_size(pruned))
    assert out["kept"], f"seed {seed} produced no detections"
    assert detections_of(out["pruned"]) == detections_of(out["kept"])
    # the forgetting detector holds about one window of events (a
    # window spans ~4-9 of them); the other one holds the whole stream
    assert peak < 100
    assert state_size(kept) > 3 * peak


def test_events_outside_the_window_are_dropped():
    query = AndQuery([PatternQuery(AtomicPattern(parse("<a/>"))),
                      PatternQuery(AtomicPattern(parse("<b/>")))],
                     within=2.0)
    stream = EventStream()
    detected = []
    stream.subscribe(lambda event: detected.extend(query.feed(event)))
    stream.emit(E("a"))
    stream.advance(1.0)
    stream.emit(E("b"))          # completes with the a at t=0
    assert len(detected) == 1
    assert state_size(query) == 3  # two partials, one emitted key
    stream.advance(5.0)
    stream.emit(E("a"))          # t=6: everything before t=4 is gone
    assert [len(pool) for pool in query._partials] == [1, 0]
    assert query._emitted == {}
