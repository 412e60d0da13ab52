"""The cached query-answering service: :class:`PeerQuerySession`.

Per-peer solutions are the expensive object in this system — every
Definition-5 answer intersects over them, and recomputing them per query
repeats the repair enumeration or ASP grounding + solving on every call.  A
session memoizes solutions per ``(system version, peer, method,
include_local_ics)`` and serves any number of queries from them;
:meth:`PeerSystem.version` is a *content-derived* fingerprint, so
swapping in genuinely updated data invalidates the relevant entries
automatically, while re-binding an identical system — rebuilt, reloaded
from disk, or built by another process — keeps the warm cache.

The session front door is :meth:`answer` — pick any registered method by
name (default ``auto``: FO rewriting when it applies, ASP otherwise) and
get a :class:`~repro.core.results.QueryResult` with full provenance.
:meth:`answer_many` batches requests; :meth:`explain` certifies individual
tuples with counter-solutions.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Union

from ..relational.instance import DatabaseInstance
from ..relational.query import Query
from .methods import AnswerMethod, get_method
from .results import (
    CERTAIN,
    POSSIBLE,
    QueryRequest,
    QueryResult,
)
from .system import PeerSystem

__all__ = ["PeerQuerySession", "SessionCacheInfo"]


class SessionCacheInfo:
    """Counters describing a session's cache behaviour."""

    __slots__ = ("hits", "misses", "entries")

    def __init__(self, hits: int, misses: int, entries: int) -> None:
        self.hits = hits
        self.misses = misses
        self.entries = entries

    def __repr__(self) -> str:
        return (f"SessionCacheInfo(hits={self.hits}, "
                f"misses={self.misses}, entries={self.entries})")


class PeerQuerySession:
    """Answers queries against one (evolving) P2P system, with caching.

    Parameters:
        system: the P2P data exchange system to serve.
        default_method: registered method name used when a request names
            none (default ``"auto"``).
        include_local_ics: enforce IC(P) inside the solution semantics.

    The bound system may be swapped (:meth:`use_system`, or assignment to
    :attr:`system`); caches are keyed on
    :meth:`~repro.core.system.PeerSystem.version`, so results computed for
    the old data are never served for the new.
    """

    def __init__(self, system: PeerSystem, *,
                 default_method: str = "auto",
                 include_local_ics: bool = True) -> None:
        get_method(default_method)  # fail fast on typos
        self.system = system
        self.default_method = default_method
        self.include_local_ics = include_local_ics
        self._solutions: dict[tuple, list[DatabaseInstance]] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def solutions(self, peer: str, *, method: Optional[str] = None
                  ) -> list[DatabaseInstance]:
        """The solutions for ``peer``, memoized per system version.

        ``method`` defaults to the session's default.  Planner methods
        (``auto``) and methods that do not enumerate solutions
        (``rewrite``) are normalised to ASP — the general enumerating
        mechanism — so they share one cache entry instead of crashing or
        duplicating work.
        """
        name = method or self.default_method
        resolved = get_method(name)
        if not resolved.enumerates_solutions or resolved.is_planner:
            name = "asp"
        self.system.peer(peer)  # validate before touching the cache
        key = (self.system.version(), peer, name, self.include_local_ics)
        cached = self._solutions.get(key)
        if cached is not None:
            self._hits += 1
            return list(cached)  # copy: caller mutation must not corrupt
        self._misses += 1
        computed = get_method(name).solutions(self, peer)
        self._solutions[key] = computed
        return list(computed)

    def invalidate(self) -> None:
        """Drop every cached entry (counters survive)."""
        self._solutions.clear()

    def cache_info(self) -> SessionCacheInfo:
        return SessionCacheInfo(self._hits, self._misses,
                                len(self._solutions))

    def use_system(self, system: PeerSystem) -> "PeerQuerySession":
        """Bind the session to (a new version of) the system.

        Entries for other versions are pruned; returns ``self`` for
        chaining.
        """
        self.system = system
        version = system.version()
        self._solutions = {key: value
                           for key, value in self._solutions.items()
                           if key[0] == version}
        return self

    # ------------------------------------------------------------------
    # The service surface
    # ------------------------------------------------------------------
    def answer(self, peer: str, query: Union[Query, str], *,
               method: Optional[str] = None,
               semantics: str = CERTAIN) -> QueryResult:
        """Answer one query with full provenance.

        ``method`` is any registered name (``auto``, ``model``, ``asp``,
        ``lav``, ``rewrite``, ``transitive``, or a plug-in); ``semantics``
        is ``"certain"`` (Definition 5) or ``"possible"`` (brave dual).
        """
        return self._execute(QueryRequest(peer, query, method, semantics))

    def answer_many(self, requests: Iterable[Union[QueryRequest, tuple]]
                    ) -> list[QueryResult]:
        """Batch execution: one :class:`QueryResult` per request, in
        order.

        Requests sharing a peer (and method) reuse the same cached
        solutions, so a batch pays the expensive enumeration once.
        Tuples ``(peer, query)`` are accepted as shorthand.
        """
        results = []
        for request in requests:
            if not isinstance(request, QueryRequest):
                request = QueryRequest(*request)
            results.append(self._execute(request))
        return results

    def explain(self, peer: str, query: Union[Query, str],
                candidate: Optional[tuple] = None):
        """Certification evidence (Definition 5 witnesses).

        With ``candidate``: one
        :class:`~repro.core.explain.AnswerExplanation` for that tuple.
        Without: explanations for every tuple holding in at least one
        solution, certain-first.  Reuses the session's cached solutions.
        """
        from .explain import _explanations_over
        parsed = QueryRequest(peer, query).resolved_query()
        self.system.validate_query_scope(peer, parsed)
        solutions = self.solutions(peer)
        if candidate is not None:
            return _explanations_over(self.system, peer, parsed, solutions,
                                      [tuple(candidate)])[0]
        from .explain import AnswerExplanation
        from .pca import possible_from_solutions
        union = possible_from_solutions(self.system, peer, parsed,
                                        solutions).answers
        explanations = _explanations_over(self.system, peer, parsed,
                                          solutions, sorted(union))
        order = {AnswerExplanation.CERTAIN: 0,
                 AnswerExplanation.POSSIBLE: 1,
                 AnswerExplanation.ABSENT: 2,
                 AnswerExplanation.NO_SOLUTIONS: 3}
        explanations.sort(key=lambda e: (order[e.status], e.tuple))
        return explanations

    # ------------------------------------------------------------------
    def _resolve(self, method: AnswerMethod, peer: str, query: Query,
                 semantics: str) -> AnswerMethod:
        """Planner hook: planner methods (``auto``) pick the concrete
        mechanism per request."""
        if not method.is_planner:
            return method
        return method.select(self.system, peer, query,
                             semantics=semantics)

    def _execute(self, request: QueryRequest) -> QueryResult:
        query = request.resolved_query()
        requested = request.method or self.default_method
        log = self.system.exchange_log
        mark = log.mark()
        hits_before = self._hits
        start = time.perf_counter()
        # selection is part of answering: the planner's support probe
        # counts toward elapsed
        method = self._resolve(get_method(requested), request.peer,
                               query, request.semantics)
        if request.semantics == POSSIBLE:
            pca = method.possible_answers(self, request.peer, query)
        else:
            pca = method.certain_answers(self, request.peer, query)
        elapsed = time.perf_counter() - start
        # the actual logged events for this execution, not synthesised
        # counter deltas — includes byte estimates and hop depth
        exchange = log.stats_since(mark)
        return QueryResult(
            peer=request.peer,
            query=query,
            answers=frozenset(pca.answers),
            semantics=request.semantics,
            method_requested=requested,
            method_used=method.name,
            solution_count=pca.solution_count,
            elapsed=elapsed,
            exchange=exchange,
            from_cache=self._hits > hits_before,
        )

    def __repr__(self) -> str:
        return (f"PeerQuerySession({self.system!r}, "
                f"default_method={self.default_method!r}, "
                f"{self.cache_info()!r})")
