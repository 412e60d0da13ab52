"""Query-driven routing: learn where the data is, stop flooding.

The routing layer gives each :class:`~repro.net.node.PeerNode` a local,
continuously learned picture of its network so the hop-by-hop gather can
stop paying for neighbours that provably cannot contribute:

* :mod:`repro.routing.digest` — compact Bloom-style per-relation
  summaries of a peer's :class:`~repro.storage.tables.FactTable`
  contents, exchanged piggyback on :class:`~repro.net.protocol.Answer`
  messages.  No false negatives: a digest can only over-approximate.
* :mod:`repro.routing.aggregate` — :class:`SubtreeDigest` unions of
  those summaries over everything reachable through one neighbour,
  built hop-by-hop as gathers return, so a requester can prove an
  entire *branch* of the gather tree irrelevant to a query's constants
  and skip it — not just a single relation fetch.
* :mod:`repro.routing.stats` — per-neighbour hit-rate and
  bytes-per-useful-tuple statistics mined from the
  :class:`~repro.core.messaging.ExchangeLog`, aged with a decay factor
  so routing adapts as data moves.
* :mod:`repro.routing.index` — the :class:`RoutingIndex` fusing all
  three, consulted by the gather path.  Pruning is **never** a
  correctness decision: every skip is backed by same-gather version
  confirmation or static topology the network construction guarantees,
  and anything stale, missing, or unknown falls back to contacting the
  neighbour.

This package sits below :mod:`repro.net` (which imports it) and must
never import it back.
"""

from .aggregate import (
    SubtreeDigest,
    aggregate_bytes,
    build_subtree,
    subtree_token,
)
from .digest import (
    DIGEST_BITS,
    DIGEST_HASHES,
    DIGEST_MAX_BITS,
    NeighbourDigests,
    RelationDigest,
    adaptive_nbits,
    digest_bytes,
)
from .index import RoutingIndex, subsystem_fingerprint
from .stats import TrafficStats

__all__ = [
    "DIGEST_BITS",
    "DIGEST_HASHES",
    "DIGEST_MAX_BITS",
    "RelationDigest",
    "NeighbourDigests",
    "SubtreeDigest",
    "adaptive_nbits",
    "aggregate_bytes",
    "build_subtree",
    "digest_bytes",
    "subtree_token",
    "RoutingIndex",
    "subsystem_fingerprint",
    "TrafficStats",
]
