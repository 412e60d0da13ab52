"""repro — reproduction of Bertossi & Bravo (EDBT 2004):
*Query Answering in Peer-to-Peer Data Exchange Systems*.

Subpackages
-----------
``repro.datalog``
    Disjunctive ASP engine (grounder + stable-model solver + choice operator
    + HCF shifting) standing in for DLV.
``repro.relational``
    Relational substrate: schemas, instances, FO queries, integrity and
    data-exchange constraints.
``repro.cqa``
    Database repairs over single databases (Definition 1) — the baseline
    framework the paper builds on.
``repro.core``
    The paper's contribution: peer-to-peer data-exchange systems, trust,
    solutions for a peer, peer consistent answers, and the FO-rewriting,
    ASP (GAV), LAV, and transitive computation mechanisms — behind the
    service API: :class:`~repro.core.session.PeerQuerySession` (cached
    ``answer`` / ``answer_many`` / ``explain`` returning rich
    :class:`~repro.core.results.QueryResult` objects), the pluggable
    answer-method registry (:mod:`repro.core.methods`, with the ``auto``
    planner), and the fluent :class:`~repro.core.builder.SystemBuilder`.
``repro.storage``
    Versioned fact storage: the extracted in-memory
    :class:`~repro.storage.tables.FactTable`, normalised
    :class:`~repro.storage.deltas.Delta` change sets, and the
    :class:`~repro.storage.base.FactStore` ABC with in-memory and
    durable (append-only delta log + snapshot) backends — version
    tokens are restart-stable content fingerprints throughout.
``repro.workloads``
    Synthetic peer-network and instance generators for benchmarks.
``repro.net``
    The peer network runtime: each peer as an independent
    message-passing node (typed protocol, pluggable transports with
    fault injection, hop-by-hop routing, concurrent fan-out) behind the
    :class:`~repro.net.service.NetworkSession` facade —
    :func:`~repro.net.service.open_session` switches between local and
    network execution with one argument.
"""

__version__ = "1.3.0"

__all__ = ["datalog", "relational", "cqa", "core", "storage",
           "workloads", "net"]
