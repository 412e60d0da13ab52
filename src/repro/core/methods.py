"""Pluggable answer methods: the strategy registry behind the service API.

The paper presents four mechanisms for computing peer consistent answers —
direct model enumeration (Definition 4/5), the GAV answer-set
specification (Section 3.1), the LAV three-layer specification (Section
4.2/Appendix), and FO query rewriting (Example 2) — plus the transitive
combined-program semantics of Section 4.3.  Each is packaged here as an
:class:`AnswerMethod` so that

* new mechanisms can be plugged in with :func:`register_method` without
  touching the session layer;
* each mechanism declares :meth:`AnswerMethod.supports`, letting the
  ``auto`` planner pick the cheap FO rewriting when it applies, ASP
  within the paper's DEC class, and the exact model-theoretic enumeration
  as the last resort (the method-selection concern of the follow-up
  literature on peer data exchange);
* per-peer solutions are obtained through the calling
  :class:`~repro.core.session.PeerQuerySession`, which memoizes them
  across queries.

Methods are stateless singletons; all system state travels through the
session handed to every call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Optional

from ..relational.instance import DatabaseInstance
from ..relational.query import Query
from .errors import (
    P2PError,
    RewritingNotSupported,
    SystemError_,
    UnknownMethodError,
)
from .pca import PCAResult, pca_from_solutions, possible_from_solutions
from .system import PeerSystem
from .trust import TrustLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .asp_gav import AspSolutions
    from .session import PeerQuerySession

__all__ = [
    "AnswerMethod",
    "register_method",
    "unregister_method",
    "available_methods",
    "get_method",
    "AUTO_PREFERENCE",
]


class AnswerMethod(ABC):
    """One mechanism for computing peer consistent answers.

    Subclasses implement :meth:`certain_answers` (and usually
    :meth:`solutions`); :meth:`supports` is the capability declaration the
    ``auto`` planner consults.  ``enumerates_solutions`` tells the service
    layer whether :attr:`~repro.core.pca.PCAResult.solution_count` is
    meaningful for this method (the FO-rewriting route never enumerates,
    so it reports ``None`` — *not computed*).
    """

    #: registry key; must be unique and non-empty.
    name: str = ""
    #: whether :meth:`solutions` is implemented (and counts are honest).
    enumerates_solutions: bool = True
    #: planners (``auto``) define ``select()`` and resolve to a concrete
    #: method per request; the session checks this flag, never duck-types.
    is_planner: bool = False

    # ------------------------------------------------------------------
    def supports(self, system: PeerSystem, peer: str,
                 query: Optional[Query] = None) -> bool:
        """Can this method answer ``query`` at ``peer`` of ``system``?

        The default is unconditional support; restricted mechanisms (FO
        rewriting, the transitive semantics) override this.
        """
        return True

    def solutions(self, session: "PeerQuerySession", peer: str
                  ) -> Iterable[DatabaseInstance]:
        """The solutions for ``peer`` as computed by this mechanism (any
        iterable; the session caches it and lists it on request)."""
        raise P2PError(
            f"method {self.name!r} does not enumerate solutions")

    def certain_answers(self, session: "PeerQuerySession", peer: str,
                        query: Query) -> PCAResult:
        """Peer consistent answers (Definition 5) via this mechanism.

        Default route: intersect over the session's (memoized) solutions.
        """
        session.system.validate_query_scope(peer, query)
        solutions = session.solutions(peer, method=self.name)
        return pca_from_solutions(session.system, peer, query, solutions)

    def possible_answers(self, session: "PeerQuerySession", peer: str,
                         query: Query) -> PCAResult:
        """The brave dual: tuples true in *some* solution restriction."""
        session.system.validate_query_scope(peer, query)
        solutions = session.solutions(peer, method=self.name)
        return possible_from_solutions(session.system, peer, query,
                                       solutions)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, AnswerMethod] = {}


def register_method(method: AnswerMethod | type[AnswerMethod], *,
                    replace: bool = False) -> AnswerMethod:
    """Register an :class:`AnswerMethod` (instance or zero-arg class).

    Usable as a class decorator::

        @register_method
        class MyMethod(AnswerMethod):
            name = "mine"
            ...

    Raises :class:`~repro.core.errors.P2PError` on empty or duplicate
    names unless ``replace=True``.
    """
    if isinstance(method, type):
        method = method()
    if not isinstance(method, AnswerMethod):
        raise P2PError(f"register_method expects an AnswerMethod, "
                       f"got {type(method).__name__}")
    if not method.name:
        raise P2PError("answer method needs a non-empty name")
    if method.name in _REGISTRY and not replace:
        raise P2PError(f"answer method {method.name!r} is already "
                       f"registered; pass replace=True to override")
    _REGISTRY[method.name] = method
    return method


def unregister_method(name: str) -> None:
    """Remove a method from the registry (raises if unknown)."""
    if name not in _REGISTRY:
        raise UnknownMethodError(
            f"unknown method {name!r}; registered: {available_methods()}")
    del _REGISTRY[name]


def available_methods() -> tuple[str, ...]:
    """Sorted names of every registered method."""
    return tuple(sorted(_REGISTRY))


def get_method(name: str) -> AnswerMethod:
    """Look a method up by name.

    Raises :class:`~repro.core.errors.UnknownMethodError` (a
    :class:`~repro.core.errors.P2PError`) on misses — with the available
    names, so typos are self-diagnosing.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {name!r}; "
            f"choose from {available_methods()}") from None


# ----------------------------------------------------------------------
# Built-in methods
# ----------------------------------------------------------------------
@register_method
class ModelMethod(AnswerMethod):
    """Reference semantics: enumerate Definition-4 solutions directly."""

    name = "model"

    def solutions(self, session: "PeerQuerySession", peer: str
                  ) -> list[DatabaseInstance]:
        from .solutions import solutions_for_peer
        return solutions_for_peer(
            session.system, peer,
            include_local_ics=session.include_local_ics)


class _SpecificationMethod(AnswerMethod):
    """A method whose solutions are a specification program's stable
    models, kept solved in an :class:`~repro.core.asp_gav.AspSolutions`:
    conjunctive queries are answered off the models, and nothing is
    decoded unless the query needs the instances."""

    def certain_answers(self, session: "PeerQuerySession", peer: str,
                        query: Query) -> PCAResult:
        return session.cached_solutions(
            peer, method=self.name).certain_answers(query)

    def possible_answers(self, session: "PeerQuerySession", peer: str,
                         query: Query) -> PCAResult:
        return session.cached_solutions(
            peer, method=self.name).possible_answers(query)


@register_method
class AspMethod(_SpecificationMethod):
    """GAV answer-set specification, staged (Section 3.1)."""

    name = "asp"

    def supports(self, system: PeerSystem, peer: str,
                 query: Optional[Query] = None) -> bool:
        # the program is exact only within the paper's DEC class; outside
        # it, it may report fewer solutions than there are
        from .asp_gav import gav_out_of_class
        return not gav_out_of_class(system, peer)

    def solutions(self, session: "PeerQuerySession", peer: str
                  ) -> "AspSolutions":
        from .asp_gav import AspSolutions
        if not self.supports(session.system, peer):
            raise SystemError_(
                f"a DEC of peer {peer!r} inserts into a relation that a "
                f"DEC antecedent reads; outside the class the Section 3.1 "
                f"program answers exactly (use method='model' or 'auto')")
        return AspSolutions.for_peer(
            session.system, peer,
            include_local_ics=session.include_local_ics)


@register_method
class LavMethod(_SpecificationMethod):
    """LAV three-layer specification (Section 4.2, Appendix)."""

    name = "lav"

    def supports(self, system: PeerSystem, peer: str,
                 query: Optional[Query] = None) -> bool:
        # `less`-trusted referential DECs, no local ICs
        from .asp_lav import lav_specification_for_peer
        try:
            lav_specification_for_peer(system, peer)
        except SystemError_:
            return False
        return True

    def solutions(self, session: "PeerQuerySession", peer: str
                  ) -> "AspSolutions":
        from .asp_gav import AspSolutions
        from .asp_lav import lav_specification_for_peer
        return AspSolutions(session.system, peer,
                            spec=lav_specification_for_peer(
                                session.system, peer,
                                include_local_ics=session.include_local_ics))


@register_method
class RewriteMethod(AnswerMethod):
    """FO query rewriting (Example 2) — certain answers only, within the
    supported fragment, without ever enumerating solutions."""

    name = "rewrite"
    enumerates_solutions = False

    def supports(self, system: PeerSystem, peer: str,
                 query: Optional[Query] = None) -> bool:
        # probing performs the full rewrite (DEC classification alone
        # cannot see query constructs outside the fragment); the auto
        # path therefore rewrites twice, which is accepted — the rewrite
        # is a formula transformation, orders of magnitude cheaper than
        # the ASP grounding it avoids
        from .fo_rewriting import PeerQueryRewriter
        try:
            rewriter = PeerQueryRewriter(system, peer)
            if query is not None:
                rewriter.rewrite(query)
        except (RewritingNotSupported, P2PError):
            return False
        return True

    def certain_answers(self, session: "PeerQuerySession", peer: str,
                        query: Query) -> PCAResult:
        from .fo_rewriting import answers_via_rewriting
        answers = answers_via_rewriting(session.system, peer, query)
        # the rewriting evaluates one FO query; solutions are never
        # enumerated, so the count is honestly "not computed".
        return PCAResult(answers, None)

    def possible_answers(self, session: "PeerQuerySession", peer: str,
                         query: Query) -> PCAResult:
        raise P2PError(
            "the FO-rewriting method computes certain answers only; "
            "use method='asp' (or 'auto') for possible-answer semantics")


@register_method
class TransitiveMethod(_SpecificationMethod):
    """Combined-program (global) semantics of Section 4.3."""

    name = "transitive"

    def supports(self, system: PeerSystem, peer: str,
                 query: Optional[Query] = None) -> bool:
        # Section 4.3 is defined for `less`-trusted chains only, and the
        # combined program is exact only within the paper's DEC class.
        from .transitive import TransitiveSpecification
        return not any(system.trusted_decs_of(name, TrustLevel.SAME)
                       for name in system.peers) \
            and not TransitiveSpecification(system, peer).out_of_class

    def solutions(self, session: "PeerQuerySession", peer: str
                  ) -> "AspSolutions":
        from .asp_gav import AspSolutions
        from .transitive import transitive_specification_for_peer
        return AspSolutions(session.system, peer,
                            spec=transitive_specification_for_peer(
                                session.system, peer,
                                include_local_ics=session.include_local_ics))


#: the planner's preference order: cheap first, exact last resort.
AUTO_PREFERENCE: tuple[str, ...] = ("rewrite", "asp", "model")


@register_method
class AutoMethod(AnswerMethod):
    """The planner: first supported method in :data:`AUTO_PREFERENCE`.

    FO rewriting answers with one query evaluation but covers a limited
    fragment; ASP covers the paper's DEC class but pays grounding and
    search; the model-theoretic enumeration *is* the semantics and
    answers everything, at the highest cost.  ``auto`` asks each method in
    order whether it supports the (system, peer, query) combination and
    delegates to the first that does.
    """

    name = "auto"
    is_planner = True

    def select(self, system: PeerSystem, peer: str,
               query: Optional[Query] = None, *,
               semantics: str = "certain") -> AnswerMethod:
        """The concrete method ``auto`` resolves to for this request."""
        for name in AUTO_PREFERENCE:
            candidate = get_method(name)
            if semantics == "possible" \
                    and not candidate.enumerates_solutions:
                continue
            if candidate.supports(system, peer, query):
                return candidate
        # model supports everything, so this is unreachable unless the
        # preference list was customised away from a general method
        raise P2PError(
            f"no method in {AUTO_PREFERENCE} supports peer {peer!r}")

    def solutions(self, session: "PeerQuerySession", peer: str
                  ) -> list[DatabaseInstance]:
        # through the session so the entry is shared with the method
        # selected
        return session.solutions(peer, method=self.select(
            session.system, peer, semantics="possible").name)

    def certain_answers(self, session: "PeerQuerySession", peer: str,
                        query: Query) -> PCAResult:
        method = self.select(session.system, peer, query)
        return method.certain_answers(session, peer, query)

    def possible_answers(self, session: "PeerQuerySession", peer: str,
                         query: Query) -> PCAResult:
        method = self.select(session.system, peer, query,
                             semantics="possible")
        return method.possible_answers(session, peer, query)
