"""First-order query rewriting for peer consistent answers (Example 2).

The paper's first computation mechanism transforms the peer's query so that
its *ordinary* answers over the available data are the peer consistent
answers.  Unlike CQA residue rewriting, which only constrains, the P2P
rewriting must also *relax* the query — import data located at other
peers' sites (Section 2: "This cannot be achieved by imposing extra
conditions alone ... but instead, by relaxing the query in some sense").

Example 2 rewrites ``Q : R1(x,y)`` in two steps into::

    Q'' : [R1(x,y) ∧ ∀z1 (R3(x,z1) ∧ ¬∃z2 R2(x,z2) → z1 = y)] ∨ R2(x,y)

Supported fragment (checked, otherwise :class:`RewritingNotSupported`):

* **import DECs** — full inclusion dependencies ``R_Q ⊆ R_P`` from a peer
  trusted `less` (i.e. more-reliable Q): every query atom over ``R_P``
  gains the disjunct ``R_Q(x̄)``;
* **conflict DECs** — binary EGDs ``R_P(..,y,..) ∧ S_Q(..,z,..) → y = z``
  toward a peer trusted `same`: every query atom over ``R_P`` gains a
  universal guard discarding tuples with an unprotected conflict;
* queries built from positive atoms over R(P) with ∧, ∨, ∃ and
  comparisons.

**Protection refinement.** The paper's formula (1) protects an R1-tuple
from an R3-conflict whenever *some* imported tuple ``R2(x, z2)`` exists.
That is correct on the paper's instances, but if the only import has
``z2 = z1`` (equal to the conflicting R3 value) the import does not force
``R3(x, z1)`` out, and the R1-tuple is genuinely uncertain.  We emit the
refined protection ``∃z2 (R2(x, z2) ∧ z2 ≠ z1)``, which agrees with
formula (1) on the paper's example and matches the model-theoretic
Definition 5 on the corner case (see ``tests/core/test_fo_rewriting.py``
and the errata section of DESIGN.md).

The paper stresses the approach's "intrinsic limitations" and proposes ASP
as the general mechanism; this module mirrors that division of labour.
"""

from __future__ import annotations

from itertools import count
from typing import Optional, Sequence

from ..datalog.terms import Constant, Term, Variable
from ..relational.constraints import (
    EqualityGeneratingConstraint,
    InclusionDependency,
    TupleGeneratingConstraint,
)
from ..relational.instance import DatabaseInstance
from ..relational.query import (
    And,
    Cmp,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Query,
    RelAtom,
)
from .errors import RewritingNotSupported
from .system import DataExchange, PeerSystem
from .trust import TrustLevel

__all__ = ["PeerQueryRewriter", "rewrite_peer_query",
           "answers_via_rewriting"]


class _ImportRule:
    """Full inclusion R_source ⊆ R_target from a `less`-trusted peer."""

    def __init__(self, target: str, source: str,
                 target_positions: Sequence[int],
                 source_positions: Sequence[int],
                 source_arity: int) -> None:
        self.target = target
        self.source = source
        self.target_positions = tuple(target_positions)
        self.source_positions = tuple(source_positions)
        self.source_arity = source_arity


class _ConflictRule:
    """Binary EGD R_P(...) ∧ S_Q(...) → y = z toward a `same` peer."""

    def __init__(self, p_atom: RelAtom, q_atom: RelAtom,
                 p_eq_var: Variable, q_eq_var: Variable) -> None:
        self.p_atom = p_atom
        self.q_atom = q_atom
        self.p_eq_var = p_eq_var
        self.q_eq_var = q_eq_var


class PeerQueryRewriter:
    """Builds the Example-2 rewriting for one peer of a system."""

    def __init__(self, system: PeerSystem, peer: str) -> None:
        self.system = system
        self.peer = system.peer(peer)
        if self.peer.local_ics:
            # residues for local ICs interacting with imports are outside
            # the fragment; refusing beats silently wrong answers
            raise RewritingNotSupported(
                f"peer {peer!r} has local ICs; the FO-rewriting fragment "
                f"does not cover their interaction with imports — use the "
                f"ASP method")
        self._fresh = count()
        self._imports: dict[str, list[_ImportRule]] = {}
        self._conflicts: dict[str, list[_ConflictRule]] = {}
        for exchange in system.trusted_decs_of(peer):
            self._classify(exchange)

    # ------------------------------------------------------------------
    # DEC classification
    # ------------------------------------------------------------------
    def _classify(self, exchange: DataExchange) -> None:
        level = self.system.trust.level(exchange.owner, exchange.other)
        constraint = exchange.constraint
        own = set(self.peer.schema.names)
        if isinstance(constraint, InclusionDependency) \
                and constraint.is_full() \
                and level is TrustLevel.LESS \
                and constraint.parent in own \
                and constraint.child not in own:
            child_schema = self.system.global_schema.relation(
                constraint.child)
            rule = _ImportRule(constraint.parent, constraint.child,
                               constraint.parent_positions,
                               constraint.child_positions,
                               child_schema.arity)
            self._imports.setdefault(constraint.parent, []).append(rule)
            return
        if isinstance(constraint, EqualityGeneratingConstraint) \
                and level is TrustLevel.SAME:
            rule = self._try_conflict_rule(constraint, own)
            if rule is not None:
                self._conflicts.setdefault(rule.p_atom.relation,
                                           []).append(rule)
                return
        raise RewritingNotSupported(
            f"DEC {constraint.name} (trust={level}) is outside the "
            f"FO-rewriting fragment; use the ASP method")

    def _try_conflict_rule(self, constraint: EqualityGeneratingConstraint,
                           own: set[str]) -> Optional[_ConflictRule]:
        if len(constraint.antecedent) != 2:
            return None
        if len(constraint.equalities) != 1:
            return None
        left, right = constraint.equalities[0]
        if not (isinstance(left, Variable) and isinstance(right, Variable)):
            return None
        first, second = constraint.antecedent
        for p_atom, q_atom in ((first, second), (second, first)):
            if p_atom.relation in own and q_atom.relation not in own:
                if left in p_atom.free_variables() \
                        and right in q_atom.free_variables():
                    return _ConflictRule(p_atom, q_atom, left, right)
                if right in p_atom.free_variables() \
                        and left in q_atom.free_variables():
                    return _ConflictRule(p_atom, q_atom, right, left)
        return None

    # ------------------------------------------------------------------
    # Formula rewriting
    # ------------------------------------------------------------------
    def rewrite(self, query: Query) -> Query:
        """The rewritten query; its plain answers over the combined data
        are the peer consistent answers (within the supported fragment)."""
        self.system.validate_query_scope(self.peer.name, query)
        return Query(query.name, query.head,
                     self._rewrite_formula(query.formula))

    def _rewrite_formula(self, formula: Formula) -> Formula:
        if isinstance(formula, RelAtom):
            return self._rewrite_atom(formula)
        if isinstance(formula, And):
            return And(*(self._rewrite_formula(p) for p in formula.parts))
        if isinstance(formula, Or):
            return Or(*(self._rewrite_formula(p) for p in formula.parts))
        if isinstance(formula, Exists):
            return Exists(formula.variables,
                          self._rewrite_formula(formula.sub))
        if isinstance(formula, Cmp):
            return formula
        raise RewritingNotSupported(
            f"query construct {type(formula).__name__} is outside the "
            f"FO-rewriting fragment (positive ∧/∨/∃ queries only)")

    def _rewrite_atom(self, atom: RelAtom) -> Formula:
        guards = [self._guard(atom, rule)
                  for rule in self._conflicts.get(atom.relation, ())]
        base: Formula = atom if not guards else And(atom, *guards)
        disjuncts: list[Formula] = [base]
        for rule in self._imports.get(atom.relation, ()):
            disjuncts.append(self._import_atom(atom, rule))
        return disjuncts[0] if len(disjuncts) == 1 else Or(*disjuncts)

    def _fresh_var(self, base: str) -> Variable:
        return Variable(f"{base}{next(self._fresh)}")

    def _import_atom(self, atom: RelAtom, rule: _ImportRule) -> Formula:
        """The import disjunct: R_source with columns mapped through the
        inclusion's position lists; uncovered source columns are
        existentially quantified."""
        source_terms: list[Term] = [self._fresh_var("_i")
                                    for _ in range(rule.source_arity)]
        for t_pos, s_pos in zip(rule.target_positions,
                                rule.source_positions):
            source_terms[s_pos] = atom.terms[t_pos]
        extra = [t for t in source_terms
                 if isinstance(t, Variable) and t.name.startswith("_i")]
        source_atom = RelAtom(rule.source, source_terms)
        if extra:
            return Exists(extra, source_atom)
        return source_atom

    def _guard(self, atom: RelAtom, rule: _ConflictRule) -> Formula:
        """The universal guard of formula (1), with refined protection."""
        # unify the rule's P-atom with the query atom
        if len(rule.p_atom.terms) != len(atom.terms):
            raise RewritingNotSupported(
                f"arity mismatch unifying {atom} with DEC atom "
                f"{rule.p_atom}")
        sigma: dict[Variable, Term] = {}
        conditions: list[Formula] = []
        for c_term, q_term in zip(rule.p_atom.terms, atom.terms):
            if isinstance(c_term, Variable):
                bound = sigma.get(c_term)
                if bound is None:
                    sigma[c_term] = q_term
                elif bound != q_term:
                    conditions.append(Cmp("=", bound, q_term))
            elif c_term != q_term:
                conditions.append(Cmp("=", q_term, c_term))

        def subst(term: Term) -> Term:
            if isinstance(term, Variable):
                if term in sigma:
                    return sigma[term]
                fresh = self._fresh_var("_z")
                sigma[term] = fresh
                return fresh
            return term

        q_terms = [subst(t) for t in rule.q_atom.terms]
        q_atom = RelAtom(rule.q_atom.relation, q_terms)
        eq_p = subst(rule.p_eq_var)    # bound by the query atom
        eq_q = subst(rule.q_eq_var)    # the conflicting value (z1)
        quantified = sorted(
            {t for t in q_terms
             if isinstance(t, Variable) and t.name.startswith("_z")},
            key=lambda v: v.name)

        protections: list[Formula] = []
        for import_rule in self._imports.get(atom.relation, ()):
            protections.append(
                self._protection(atom, rule, import_rule, sigma, eq_q))

        premise_parts: list[Formula] = [q_atom]
        premise_parts.extend(Not(p) for p in protections)
        premise = premise_parts[0] if len(premise_parts) == 1 \
            else And(*premise_parts)
        implication = Implies(premise, Cmp("=", eq_q, eq_p))
        guard: Formula = Forall(quantified, implication) if quantified \
            else implication
        if conditions:
            condition = conditions[0] if len(conditions) == 1 \
                else And(*conditions)
            guard = Implies(condition, guard)
        return guard

    def _protection(self, atom: RelAtom, conflict: _ConflictRule,
                    import_rule: _ImportRule, sigma: dict[Variable, Term],
                    conflict_value: Term) -> Formula:
        """∃z2 (R_import(.., z2, ..) ∧ z2 ≠ z1): an imported tuple pins an
        R_P-tuple that forces the conflicting S_Q-tuple out."""
        # position of the equality variable inside the P-atom
        eq_position = None
        for index, term in enumerate(conflict.p_atom.terms):
            if term == conflict.p_eq_var:
                eq_position = index
                break
        if eq_position is None:
            raise RewritingNotSupported(
                f"conflict DEC equality variable not in the peer atom "
                f"{conflict.p_atom}")
        target_terms = [sigma.get(t, t) if isinstance(t, Variable) else t
                        for t in conflict.p_atom.terms]
        z2 = self._fresh_var("_z")
        target_terms[eq_position] = z2
        # map target columns through the inclusion onto the source
        source_terms: list[Term] = [self._fresh_var("_i")
                                    for _ in range(import_rule.source_arity)]
        for t_pos, s_pos in zip(import_rule.target_positions,
                                import_rule.source_positions):
            source_terms[s_pos] = target_terms[t_pos]
        source_atom = RelAtom(import_rule.source, source_terms)
        inner_vars = [z2] + [t for t in source_terms
                             if isinstance(t, Variable)
                             and t.name.startswith("_i")]
        return Exists(inner_vars,
                      And(source_atom, Cmp("!=", z2, conflict_value)))


def rewrite_peer_query(system: PeerSystem, peer: str,
                       query: Query) -> Query:
    """Convenience wrapper around :class:`PeerQueryRewriter`."""
    return PeerQueryRewriter(system, peer).rewrite(query)


def answers_via_rewriting(system: PeerSystem, peer: str,
                          query: Query) -> set[tuple]:
    """PCAs by rewriting: rewrite, fetch the mentioned neighbour
    relations (logged on the exchange log), evaluate over the combined
    data.

    The rewriting is only a win when its evaluation is genuinely
    first-order-cheap, which is exactly what the indexed planner provides:
    the guarded universals of formula (1) become index-backed guard scans
    instead of active-domain products.
    """
    rewritten = rewrite_peer_query(system, peer, query)
    sources: dict[str, DatabaseInstance] = {}
    for relation in sorted(rewritten.relations()):
        owner = system.owner_of(relation)
        if owner != peer:
            system.fetch_relation(
                peer, relation, purpose=f"rewritten query {query.name}")
        sources[relation] = system.instances[owner]
    # the fetched rows are the owners' own immutable relations: gather
    # them as they are, with their indexes, instead of checking them again
    return rewritten.answers(DatabaseInstance.gather(sources))
