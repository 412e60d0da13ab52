"""Core term and literal types for the Datalog/ASP engine.

The vocabulary follows the paper's logic programs (Bertossi & Bravo 2004,
Section 3): *extended disjunctive logic programs*, i.e. rules with

* disjunctive heads of *objective literals* (atoms or classically negated
  atoms, written ``-p(...)``),
* bodies of objective literals, possibly under *negation as failure*
  (``not l``), plus comparison builtins (``=``, ``!=``, ``<``, ...), and
* the non-deterministic ``choice`` operator of Giannotti et al. [17].

Everything here is immutable and hashable, so terms and atoms can live in
sets and serve as dictionary keys — the grounder and the solver both rely on
that heavily.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Union

__all__ = [
    "Term",
    "Constant",
    "Variable",
    "Atom",
    "Literal",
    "Comparison",
    "ChoiceGoal",
    "BodyItem",
    "compare_values",
    "make_constant",
    "format_value",
]

_IDENT_RE = re.compile(r"\A[a-z][A-Za-z0-9_]*\Z")


def format_value(value: object) -> str:
    """Render a Python constant value in program syntax.

    Integers render bare; identifier-like strings render bare; anything else
    is double-quoted with backslash escaping so that parsing round-trips.
    """
    if isinstance(value, bool):
        return '"true"' if value else '"false"'
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if _IDENT_RE.match(text):
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


class Term:
    """Abstract base for :class:`Constant` and :class:`Variable`."""

    __slots__ = ()

    def is_ground(self) -> bool:
        raise NotImplementedError


class Constant(Term):
    """A ground term wrapping a Python value (``str`` or ``int``).

    Constants compare and hash by value, so ``Constant("a") == Constant("a")``.
    Mixed-type comparison in builtins orders ints before strings,
    deterministically.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: object) -> None:
        if isinstance(value, Constant):  # tolerate accidental re-wrapping
            value = value.value
        if not isinstance(value, (str, int)):
            raise TypeError(
                f"constants must be str or int, got {type(value).__name__}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("const", value)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Constant is immutable")

    def is_ground(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return format_value(self.value)

    def sort_key(self) -> tuple:
        """A total order over constants: ints first, then strings."""
        if isinstance(self.value, int):
            return (0, self.value)
        return (1, self.value)


class Variable(Term):
    """A logical variable.  Named with a leading uppercase letter or ``_``."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Variable is immutable")

    def is_ground(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


def make_constant(value: object) -> Constant:
    """Coerce a raw Python value (or a Constant) into a :class:`Constant`."""
    return value if isinstance(value, Constant) else Constant(value)


def _coerce_term(term: object) -> Term:
    if isinstance(term, Term):
        return term
    return Constant(term)


class Atom:
    """An atom ``p(t1, ..., tn)`` over terms.

    ``args`` may be empty (propositional atoms).  Atoms do not carry negation;
    classical negation lives on :class:`Literal`.
    """

    __slots__ = ("predicate", "args", "_hash")

    def __init__(self, predicate: str, args: Iterable[object] = ()) -> None:
        if not predicate:
            raise ValueError("predicate name must be non-empty")
        coerced = tuple(_coerce_term(a) for a in args)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", coerced)
        object.__setattr__(self, "_hash", hash((predicate, coerced)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self.args)

    def variables(self) -> set[Variable]:
        return {a for a in self.args if isinstance(a, Variable)}

    def value_tuple(self) -> tuple:
        """The tuple of raw Python values; only valid on ground atoms."""
        values = []
        for arg in self.args:
            if not isinstance(arg, Constant):
                raise ValueError(f"atom {self} is not ground")
            values.append(arg.value)
        return tuple(values)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Atom)
                and self.predicate == other.predicate
                and self.args == other.args)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {self.args!r})"

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"


class Literal:
    """An objective literal, optionally under negation as failure.

    ``positive`` is the *classical* polarity: ``Literal(a, positive=False)``
    is ``-a`` in program syntax.  ``naf=True`` wraps the objective literal in
    negation as failure: ``not a`` / ``not -a``.  Heads only ever hold
    ``naf=False`` literals.
    """

    __slots__ = ("atom", "positive", "naf", "_hash")

    def __init__(self, atom: Atom, positive: bool = True,
                 naf: bool = False) -> None:
        if not isinstance(atom, Atom):
            raise TypeError("Literal wraps an Atom")
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "positive", bool(positive))
        object.__setattr__(self, "naf", bool(naf))
        object.__setattr__(self, "_hash",
                           hash((atom, bool(positive), bool(naf))))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    @property
    def predicate(self) -> str:
        return self.atom.predicate

    def objective(self) -> "Literal":
        """This literal with the NAF wrapper stripped."""
        if not self.naf:
            return self
        return Literal(self.atom, self.positive, naf=False)

    def negated_naf(self) -> "Literal":
        """This literal with the NAF wrapper toggled."""
        return Literal(self.atom, self.positive, naf=not self.naf)

    def complement(self) -> "Literal":
        """The classical complement (``a`` <-> ``-a``), preserving NAF."""
        return Literal(self.atom, not self.positive, naf=self.naf)

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def variables(self) -> set[Variable]:
        return self.atom.variables()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Literal)
                and self.atom == other.atom
                and self.positive == other.positive
                and self.naf == other.naf)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"Literal({self.atom!r}, positive={self.positive}, "
                f"naf={self.naf})")

    def __str__(self) -> str:
        core = str(self.atom) if self.positive else f"-{self.atom}"
        return f"not {core}" if self.naf else core


_COMPARISON_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def compare_values(op: str, left: object, right: object) -> bool:
    """``left op right`` over raw constant values, in the total order of
    :meth:`Constant.sort_key` (ints before strings)."""
    return _COMPARISON_OPS[op](
        (0, left) if isinstance(left, int) else (1, left),
        (0, right) if isinstance(right, int) else (1, right))


class Comparison:
    """A builtin comparison between two terms (``X != Y``, ``X < 3``, ...).

    Evaluation uses a deterministic total order over mixed types (ints sort
    before strings) so that programs never crash on heterogeneous domains.
    """

    __slots__ = ("op", "left", "right", "_hash")

    def __init__(self, op: str, left: object, right: object) -> None:
        if op not in _COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        lhs = _coerce_term(left)
        rhs = _coerce_term(right)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", lhs)
        object.__setattr__(self, "right", rhs)
        object.__setattr__(self, "_hash", hash((op, lhs, rhs)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Comparison is immutable")

    def is_ground(self) -> bool:
        return self.left.is_ground() and self.right.is_ground()

    def variables(self) -> set[Variable]:
        result = set()
        if isinstance(self.left, Variable):
            result.add(self.left)
        if isinstance(self.right, Variable):
            result.add(self.right)
        return result

    def evaluate(self) -> bool:
        """Evaluate a ground comparison.  Raises if not ground."""
        if not self.is_ground():
            raise ValueError(f"comparison {self} is not ground")
        assert isinstance(self.left, Constant)
        assert isinstance(self.right, Constant)
        return compare_values(self.op, self.left.value, self.right.value)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Comparison) and self.op == other.op
                and self.left == other.left and self.right == other.right)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Comparison({self.op!r}, {self.left!r}, {self.right!r})"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class ChoiceGoal:
    """The non-deterministic choice operator ``choice((X1,..),(Y1,..))``.

    Semantics (Giannotti et al. [17], as used in the paper's rule (9)): for
    each binding of the *domain* variables ``X1..Xn`` produced by the rest of
    the rule body, choose exactly one binding of the *chosen* variables
    ``Y1..Ym`` among those the body admits, i.e. the relation
    ``chosen(x̄, ȳ)`` is a function from domain values to chosen values.

    The grounder either handles this natively or unfolds it into the *stable
    version* with fresh ``chosen``/``diffchoice`` predicates (Section 3.2 of
    the paper); see :mod:`repro.datalog.choice`.
    """

    __slots__ = ("domain", "chosen", "_hash")

    def __init__(self, domain: Iterable[Variable],
                 chosen: Iterable[Variable]) -> None:
        dom = tuple(domain)
        cho = tuple(chosen)
        for v in dom + cho:
            if not isinstance(v, Variable):
                raise TypeError("choice goals range over variables")
        if not cho:
            raise ValueError("choice goal needs at least one chosen variable")
        overlap = set(dom) & set(cho)
        if overlap:
            names = ", ".join(sorted(v.name for v in overlap))
            raise ValueError(
                f"variables cannot be both domain and chosen: {names}")
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "chosen", cho)
        object.__setattr__(self, "_hash", hash(("choice", dom, cho)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ChoiceGoal is immutable")

    def variables(self) -> set[Variable]:
        return set(self.domain) | set(self.chosen)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChoiceGoal)
                and self.domain == other.domain
                and self.chosen == other.chosen)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ChoiceGoal({self.domain!r}, {self.chosen!r})"

    def __str__(self) -> str:
        dom = ", ".join(str(v) for v in self.domain)
        cho = ", ".join(str(v) for v in self.chosen)
        return f"choice(({dom}), ({cho}))"


BodyItem = Union[Literal, Comparison, ChoiceGoal]
