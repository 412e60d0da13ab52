"""Stage-by-stage replay of the evaluation pipeline, timed from outside.

The program has no instrumentation in ``core``, ``datalog`` or
``relational`` yet, so the traced pass calls each stage's public function
itself, in the order ``PeerQuerySession.answer`` does, with a span around
each.  The replayed answers are returned so the caller can check them
against the end-to-end answers: a replay that drifts from the real
pipeline fails the run instead of reporting a budget for other code.
"""

from __future__ import annotations

from repro.core import GavSpecification, rewrite_peer_query
from repro.core.methods import get_method
from repro.core.trust import TrustLevel
from repro.relational.instance import DatabaseInstance
from repro.relational.query_parser import parse_query

from .spans import SpanLog


def _replay_spec(spans: SpanLog, op: int, counts: dict, *args, **kwargs):
    """One Section-3.1 program: build, prepare, ground, solve, decode."""
    with spans.span("core.spec_build", op):
        spec = GavSpecification(*args, **kwargs)
        program = spec.program
    with spans.span("datalog.prepare", op):
        engine = spec.engine
    with spans.span("datalog.ground", op):
        ground = engine.ground
    with spans.span("datalog.solve", op):
        models = engine.answer_sets()
    with spans.span("core.decode", op):
        solutions = spec.solutions()
    counts["core.spec_rules"] += len(program.rules)
    counts["datalog.ground_atoms"] += ground.atom_count
    counts["datalog.ground_rules"] += len(ground.rules)
    counts["datalog.models"] += len(models)
    return solutions


def replay_asp(system, peer: str, query_text: str, spans: SpanLog,
               op: int) -> tuple[set, dict]:
    """``method="asp"`` on a fresh session, stage by stage.

    Mirrors ``asp_solutions_for_peer`` (stage 1 repairs the `less` DECs,
    stage 2 the `same` DECs with the `less` ones enforced) followed by
    the Definition-5 intersection of ``pca_from_solutions``.
    """
    counts = dict.fromkeys(("core.spec_rules", "datalog.ground_atoms",
                            "datalog.ground_rules", "datalog.models"), 0)
    with spans.span("relational.parse", op):
        query = parse_query(query_text)
    less = [e.constraint
            for e in system.trusted_decs_of(peer, TrustLevel.LESS)]
    same_decs = system.trusted_decs_of(peer, TrustLevel.SAME)
    same = [e.constraint for e in same_decs]
    local = list(system.peer(peer).local_ics)
    own = set(system.peer(peer).schema.names)
    changeable = set(own)
    for exchange in same_decs:
        changeable |= set(system.peer(exchange.other).schema.names)

    with spans.span("relational.instance_build", op):
        global_instance = system.global_instance()
        # the specification embeds the neighbours' data as facts
        foreign = set().union(*(c.relations() for c in (*less, *same))) - own
        for relation in sorted(foreign):
            system.fetch_relation(peer, relation, purpose="asp specification")

    stage1 = [global_instance]
    if less or local:
        stage1 = _replay_spec(spans, op, counts, global_instance, less,
                              own, local_ics=local)
    if same:
        merged: dict = {}
        for instance in stage1:
            found = _replay_spec(spans, op, counts, instance, same,
                                 changeable, enforce=less, local_ics=local)
            with spans.span("core.decode", op):
                for solution in found:
                    merged.setdefault(solution)
        with spans.span("core.decode", op):
            solutions = sorted(merged, key=str)
    else:
        with spans.span("core.decode", op):
            solutions = sorted(set(stage1), key=str)
    counts["core.solutions"] = len(solutions)

    answers = None
    with spans.span("core.intersect", op):
        for solution in solutions:
            with spans.span("relational.instance_build", op):
                restricted = system.restrict_to_peer(solution, peer)
            with spans.span("relational.eval", op):
                rows = query.answers(restricted)
            answers = rows if answers is None else answers & rows
    counts["relational.answer_rows"] = len(answers or ())
    return answers or set(), counts


def replay_rewrite(system, peer: str, query_text: str, spans: SpanLog,
                   op: int) -> tuple[set, dict]:
    """``method="auto"`` resolving to ``rewrite``, stage by stage: the
    planner's ``supports()`` probe (a full rewrite), the rewrite proper,
    the assembly of the mentioned relations, and one FO evaluation."""
    with spans.span("relational.parse", op):
        query = parse_query(query_text)
    with spans.span("core.auto_probe", op):
        if not get_method("rewrite").supports(system, peer, query):
            raise RuntimeError(f"{query_text!r} left the rewrite fragment")
    with spans.span("core.rewrite", op):
        rewritten = rewrite_peer_query(system, peer, query)
    with spans.span("relational.instance_build", op):
        own = set(system.peer(peer).schema.names)
        needed = sorted(rewritten.relations())
        data = {relation: (system.instances[peer].tuples(relation)
                           if relation in own
                           else system.fetch_relation(peer, relation))
                for relation in needed}
        instance = DatabaseInstance(
            system.global_schema.restrict(needed), data)
    with spans.span("relational.eval", op):
        answers = rewritten.answers(instance)
    return answers, {"relational.answer_rows": len(answers)}
