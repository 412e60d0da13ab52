"""Reference grounding for differential tests.

:func:`naive_ground` instantiates every rule over the whole Herbrand
universe of the program, with no simplification beyond comparison
evaluation, duplicate-head removal and dropping tautologies.  It never
calls :func:`repro.datalog.ground_program`, so the stable models of its
output are a reference the real grounder can be checked against.
"""

from itertools import product

from repro.datalog import Program, stable_models
from repro.datalog.grounding import AtomTable, GroundProgram, GroundRule
from repro.datalog.terms import Atom, Comparison, Constant, Literal


def herbrand_universe(program: Program) -> list[Constant]:
    """Every constant occurring in ``program``, in a fixed order."""
    constants = set()
    for rule in program:
        for item in (*rule.head, *rule.body):
            terms = item.atom.args if isinstance(item, Literal) \
                else (item.left, item.right)
            constants.update(t for t in terms if isinstance(t, Constant))
    return sorted(constants, key=Constant.sort_key)


def naive_ground(program: Program) -> GroundProgram:
    """Full instantiation over the Herbrand universe, no simplification
    beyond comparison evaluation and duplicate-head removal."""
    universe = herbrand_universe(program)
    table = AtomTable()
    rules: dict[GroundRule, None] = {}
    for rule in program:
        variables = sorted(rule.variables(), key=lambda v: v.name)
        for combo in product(universe, repeat=len(variables)):
            subst = dict(zip(variables, combo))

            def ground_atom(atom: Atom) -> Atom:
                return Atom(atom.predicate,
                            [subst.get(t, t) for t in atom.args])

            ok = True
            for item in rule.body:
                if isinstance(item, Comparison):
                    left = subst.get(item.left, item.left)
                    right = subst.get(item.right, item.right)
                    if not Comparison(item.op, left, right).evaluate():
                        ok = False
                        break
            if not ok:
                continue
            head = [table.add(Literal(ground_atom(lit.atom),
                                      lit.positive))
                    for lit in rule.head]
            pos, naf = [], []
            for item in rule.body:
                if isinstance(item, Comparison):
                    continue
                assert isinstance(item, Literal)
                ident = table.add(Literal(ground_atom(item.atom),
                                          item.positive))
                (naf if item.naf else pos).append(ident)
            if set(head) & set(pos):
                continue  # tautology, as the real grounder drops them
            rules.setdefault(GroundRule(
                tuple(dict.fromkeys(head)), tuple(sorted(set(pos))),
                tuple(sorted(set(naf)))))
    return GroundProgram(table, list(rules))


def naive_answer_sets(program: Program, *,
                      shift_hcf: bool = True) -> list[list[str]]:
    """The stable models of :func:`naive_ground`'s output, each as a sorted
    list of rendered literals, in sorted order."""
    ground = naive_ground(program)
    return sorted(sorted(str(ground.table.literal_for(i)) for i in model)
                  for model in stable_models(ground, shift_hcf=shift_hcf))
