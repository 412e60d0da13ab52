"""The paper's contribution: query answering in P2P data exchange systems.

Implements, from Bertossi & Bravo (EDBT 2004):

* the system model — peers, schemas, instances, local ICs, data exchange
  constraints Σ(P,Q), and the trust relation (Definition 2);
* **solutions for a peer** — the two-stage prioritised-repair semantics
  (Definition 4, direct case);
* **peer consistent answers** — certain answers over all solutions
  (Definition 5);
* the four computation mechanisms: direct model-theoretic enumeration,
  first-order query rewriting (Example 2), the GAV answer-set
  specification with the choice operator (Section 3.1), the LAV
  three-layer specification (Section 4.2 + Appendix); and
* the transitive combined-program semantics (Section 4.3, Example 4).

Public API
----------
The service layer (new in this release):

* :class:`PeerQuerySession` — the cached query-answering service:
  ``answer`` / ``answer_many`` / ``explain`` returning rich
  :class:`QueryResult` objects, with per-peer solutions memoized across
  queries and invalidated via :meth:`PeerSystem.version`;
* the **answer-method registry** (:mod:`repro.core.methods`) —
  ``model`` / ``asp`` / ``lav`` / ``rewrite`` / ``transitive`` as
  pluggable :class:`AnswerMethod` strategies plus the ``auto`` planner
  (FO rewriting when it applies, ASP otherwise); extend with
  :func:`register_method`;
* :class:`SystemBuilder` (via :meth:`PeerSystem.builder`) — fluent
  construction shared by examples, JSON ``io``, and the workload
  generators.

Quick start::

    from repro.core import PeerQuerySession, PeerSystem

    system = (PeerSystem.builder()
              .peer("P1", {"R1": 2}, instance={"R1": [("a", "b")]})
              .peer("P2", {"R2": 2}, instance={"R2": [("c", "d")]})
              .exchange("P1", "P2",
                        {"type": "inclusion", "child": "R2",
                         "parent": "R1", "child_arity": 2,
                         "parent_arity": 2})
              .trust("P1", "less", "P2")
              .build())
    session = PeerQuerySession(system)
    result = session.answer("P1", "q(X, Y) := R1(X, Y)")  # method="auto"
    result.answers, result.method_used, result.solution_count
"""

from .asp_gav import (
    GavSpecification,
    asp_peer_consistent_answers,
    asp_solutions_for_peer,
)
from .asp_lav import LavSpecification, SourceLabel, labels_for_peer
from .builder import SystemBuilder
from .errors import (
    NoSolutionsError,
    P2PError,
    QueryScopeError,
    RewritingNotSupported,
    SystemError_,
    TrustError,
    UnknownMethodError,
)
from .fo_rewriting import (
    PeerQueryRewriter,
    answers_via_rewriting,
    rewrite_peer_query,
)
from .explain import AnswerExplanation, explain_answer, explain_query
from .io import (
    constraint_from_dict,
    constraint_to_dict,
    dump_system,
    load_system,
    schema_from_spec,
    schema_to_spec,
    system_from_dict,
    system_to_dict,
)
from .messaging import ExchangeEvent, ExchangeLog, estimate_bytes
from .methods import (
    AnswerMethod,
    available_methods,
    get_method,
    register_method,
    unregister_method,
)
from .naming import NameMap
from .pca import (
    PCAResult,
    pca_from_solutions,
    peer_consistent_answers,
    possible_from_solutions,
    possible_peer_answers,
)
from .results import ExchangeStats, QueryError, QueryRequest, QueryResult
from .session import PeerQuerySession, SessionCacheInfo
from .solutions import SolutionSearch, solutions_for_peer
from .system import DataExchange, Peer, PeerSystem
from .transitive import (
    TransitiveSpecification,
    global_solutions,
    transitive_peer_consistent_answers,
)
from .trust import TrustLevel, TrustRelation

__all__ = [
    # system model
    "Peer", "DataExchange", "PeerSystem", "TrustRelation", "TrustLevel",
    "SystemBuilder",
    # the service API
    "PeerQuerySession", "SessionCacheInfo",
    "QueryRequest", "QueryResult", "ExchangeStats", "QueryError",
    "AnswerMethod", "register_method", "unregister_method",
    "available_methods", "get_method",
    # semantics
    "SolutionSearch", "solutions_for_peer",
    "PCAResult", "peer_consistent_answers", "pca_from_solutions",
    "possible_from_solutions", "possible_peer_answers",
    # declarative definitions
    "system_from_dict", "system_to_dict", "load_system", "dump_system",
    "schema_from_spec", "schema_to_spec",
    "constraint_from_dict", "constraint_to_dict",
    # explanations
    "AnswerExplanation", "explain_answer", "explain_query",
    # mechanisms
    "PeerQueryRewriter", "rewrite_peer_query", "answers_via_rewriting",
    "GavSpecification", "asp_solutions_for_peer",
    "asp_peer_consistent_answers",
    "LavSpecification", "SourceLabel", "labels_for_peer",
    "TransitiveSpecification", "global_solutions",
    "transitive_peer_consistent_answers",
    # support
    "NameMap", "ExchangeLog", "ExchangeEvent", "estimate_bytes",
    # errors
    "P2PError", "SystemError_", "TrustError", "QueryScopeError",
    "RewritingNotSupported", "NoSolutionsError", "UnknownMethodError",
]
