"""``repro.match`` — Rete-style event discrimination (PROTOCOL.md §13).

Turns per-event matching cost from O(registered components) into
~O(affected components): registered detectors are compiled into an
alpha-indexed discrimination network shared by all event-detection
services, so a million-rule registration stays serviceable under an
event storm.  See :mod:`repro.match.analyzer` for the indexable-key
grammar and :mod:`repro.match.network` for routing semantics.
"""

from .analyzer import (Analysis, LeafKey, analyze, compile_pattern,
                       pattern_identity, probe_keys)
from .instrument import (CANDIDATE_BUCKETS, MatchInstruments,
                         install_match_metrics, live_snapshots)
from .network import AlphaNode, DiscriminationNetwork

__all__ = [
    "Analysis", "LeafKey", "analyze", "compile_pattern",
    "pattern_identity", "probe_keys",
    "AlphaNode", "DiscriminationNetwork",
    "MatchInstruments", "install_match_metrics", "live_snapshots",
    "CANDIDATE_BUCKETS",
]
