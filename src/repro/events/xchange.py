"""An XChange-style composite event language.

The paper names XChange [BP05] as a second usable event-component
language.  This module implements its flavour of event queries:
*simulation-unification-style* deep XML patterns combined with ``and`` /
``or`` / ``seq`` / ``without`` over the event stream, optionally limited
to a time window — deliberately different in style from the SNOOP
operator algebra so the framework demonstrably hosts *heterogeneous*
event languages behind one Generic Request Handler.

Like every event language in the framework, detections are
:class:`~repro.events.base.Occurrence` values carrying a relation of
variable bindings (``{Name}`` placeholders in patterns).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .atomic import AtomicPattern
from .base import Event, Occurrence
from .snoop import Detector, _combine

__all__ = ["EventQuery", "PatternQuery", "AndQuery", "OrQuery", "SeqQuery",
           "WithoutQuery", "XChangeError"]


class XChangeError(ValueError):
    """Raised for invalid query composition."""


class EventQuery(Detector):
    """Base class of XChange-style event queries (detector interface)."""


class PatternQuery(EventQuery):
    """A deep XML pattern matched against single events (partial match:
    extra attributes/children in the event are allowed)."""

    def __init__(self, pattern: AtomicPattern) -> None:
        self.pattern = pattern

    def feed(self, event: Event) -> list[Occurrence]:
        occurrence = self.pattern.match(event)
        return [occurrence] if occurrence else []

    def reset(self) -> None:
        pass

    def variables(self) -> set[str]:
        return self.pattern.variables()


class OrQuery(EventQuery):
    """Any of the sub-queries."""

    def __init__(self, queries: Sequence[EventQuery]) -> None:
        if not queries:
            raise XChangeError("or {} needs at least one sub-query")
        self.queries = list(queries)

    def feed(self, event: Event) -> list[Occurrence]:
        out: list[Occurrence] = []
        for sub_query in self.queries:
            out.extend(sub_query.feed(event))
        return out

    def reset(self) -> None:
        for sub_query in self.queries:
            sub_query.reset()

    def variables(self) -> set[str]:
        names: set[str] = set()
        for sub_query in self.queries:
            names |= sub_query.variables()
        return names


class _Conjunction(EventQuery):
    """Shared machinery of ``and`` / ``seq``: all sub-queries must match
    distinct events, with consistent bindings, optionally within a window.

    With a window, state that no future detection can use is dropped
    before each event is combined (:meth:`_forget`), so memory and the
    per-event combination work stay bounded by the window's contents.
    """

    ordered = False

    def __init__(self, queries: Sequence[EventQuery],
                 within: float | None = None) -> None:
        if len(queries) < 2:
            raise XChangeError("conjunction needs at least two sub-queries")
        if within is not None and within <= 0:
            raise XChangeError("window length must be positive")
        self.queries = list(queries)
        self.within = within
        self._partials: list[list[Occurrence]] = [[] for _ in queries]
        #: emitted combination (sorted event sequences) → its end time
        self._emitted: dict[tuple[int, ...], float] = {}

    def feed(self, event: Event) -> list[Occurrence]:
        if self.within is not None:
            self._forget(event.timestamp - self.within)
        fresh: list[tuple[int, Occurrence]] = []
        for index, sub_query in enumerate(self.queries):
            for occurrence in sub_query.feed(event):
                self._partials[index].append(occurrence)
                fresh.append((index, occurrence))
        out: list[Occurrence] = []
        for index, occurrence in fresh:
            out.extend(self._complete(index, occurrence))
        return out

    def _complete(self, fresh_index: int,
                  fresh_occurrence: Occurrence) -> list[Occurrence]:
        pools = [self._partials[i] if i != fresh_index else [fresh_occurrence]
                 for i in range(len(self.queries))]
        detections: list[Occurrence] = []
        for combination in itertools.product(*pools):
            key = tuple(sorted(event.sequence
                               for occurrence in combination
                               for event in occurrence.constituents))
            if len(set(key)) < len(key) or key in self._emitted:
                continue  # events must be distinct; dedupe combinations
            if self.ordered and any(
                    combination[i].end >= combination[i + 1].start
                    for i in range(len(combination) - 1)):
                continue
            start = min(occurrence.start for occurrence in combination)
            end = max(occurrence.end for occurrence in combination)
            if self.within is not None and end - start > self.within:
                continue
            combined: Occurrence | None = combination[0]
            for occurrence in combination[1:]:
                combined = _combine(combined, occurrence)
                if combined is None:
                    break
            if combined is not None:
                self._emitted[key] = end
                detections.append(combined)
        return detections

    def _forget(self, horizon: float) -> None:
        """Drop the partials and emitted keys older than ``horizon``.

        Stream timestamps are monotone, and every occurrence a
        sub-query reports while fed an event contains that event, so
        each new combination ends at or after ``horizon + within``.  A
        partial starting before ``horizon`` would stretch any such
        combination past the window; an emitted key whose events all
        precede ``horizon`` can never be formed again.
        """
        self._partials = [[occurrence for occurrence in pool
                           if occurrence.start >= horizon]
                          for pool in self._partials]
        self._emitted = {key: end for key, end in self._emitted.items()
                         if end >= horizon}

    def reset(self) -> None:
        for sub_query in self.queries:
            sub_query.reset()
        self._partials = [[] for _ in self.queries]
        self._emitted.clear()

    def variables(self) -> set[str]:
        names: set[str] = set()
        for sub_query in self.queries:
            names |= sub_query.variables()
        return names


class AndQuery(_Conjunction):
    """All sub-queries, in any order."""

    ordered = False


class SeqQuery(_Conjunction):
    """All sub-queries, in the given order."""

    ordered = True


class WithoutQuery(EventQuery):
    """A positive query with an exclusion: detections of ``positive`` are
    suppressed when a ``without`` match occurred inside their span."""

    def __init__(self, positive: EventQuery, without: EventQuery) -> None:
        self.positive = positive
        self.without = without
        self._excluded_times: list[float] = []

    def feed(self, event: Event) -> list[Occurrence]:
        for occurrence in self.without.feed(event):
            self._excluded_times.append(occurrence.end)
        out = []
        for occurrence in self.positive.feed(event):
            if not any(occurrence.start <= t <= occurrence.end
                       for t in self._excluded_times):
                out.append(occurrence)
        return out

    def reset(self) -> None:
        self.positive.reset()
        self.without.reset()
        self._excluded_times.clear()

    def variables(self) -> set[str]:
        return self.positive.variables()
