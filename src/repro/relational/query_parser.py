"""Parser for first-order query formulas.

Grammar (precedence from loosest to tightest)::

    formula  := implication
    implication := disjunction ( "->" implication )?
    disjunction := conjunction ( ("|" | "or") conjunction )*
    conjunction := unary ( ("&" | "and") unary )*
    unary    := ("~" | "not") unary
              | ("exists" | "forall") VAR+ unary
              | "(" formula ")"
              | atom | comparison | "true" | "false"
    atom     := RELATION "(" term ("," term)* ")"
    comparison := term OP term         OP in  = != < <= > >=

Conventions match the Datalog parser: identifiers starting with an
uppercase letter or ``_`` are variables, lowercase identifiers and numbers
and quoted strings are constants.  Relation names may start with either
case (``R1(X, Y)`` reads naturally, as in the paper) — a name directly
followed by ``(`` is a relation.

Examples::

    parse_formula("R1(X, Y) & forall Z1 (R3(X, Z1) -> Z1 = Y)")
    parse_query("q(X, Y) := R1(X, Y) | R2(X, Y)")
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from ..datalog.terms import Constant, Term, Variable
from .errors import QueryError
from .query import (
    And,
    Cmp,
    Exists,
    FALSE,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Query,
    RelAtom,
    TRUE,
)

__all__ = ["parse_formula", "parse_query"]

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<INTEGER>-?\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ARROW>->)
  | (?P<ASSIGN>:=)
  | (?P<OP><=|>=|!=|=|<|>)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<AMP>&)
  | (?P<PIPE>\|)
  | (?P<TILDE>~)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "exists", "forall", "true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QueryError(
                f"unexpected character {text[pos]!r} at offset {pos}")
        kind = match.lastgroup
        assert kind is not None
        if kind != "WS":
            yield _Token(kind, match.group(), pos)
        pos = match.end()


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._index = 0

    def _peek(self) -> Optional[_Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of query text")
        self._index += 1
        return token

    def _accept(self, kind: str, text: Optional[str] = None
                ) -> Optional[_Token]:
        token = self._peek()
        if token is not None and token.kind == kind and (
                text is None or token.text == text):
            return self._next()
        return None

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token is None or token.kind != kind:
            found = token.text if token else "end of input"
            raise QueryError(f"expected {kind}, found {found!r}")
        return self._next()

    def at_end(self) -> bool:
        return self._peek() is None

    # ------------------------------------------------------------------
    def parse_formula(self) -> Formula:
        return self._implication()

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._accept("ARROW"):
            return Implies(left, self._implication())
        return left

    def _disjunction(self) -> Formula:
        parts = [self._conjunction()]
        while True:
            if self._accept("PIPE") or self._accept("IDENT", "or"):
                parts.append(self._conjunction())
            else:
                break
        return parts[0] if len(parts) == 1 else Or(*parts)

    def _conjunction(self) -> Formula:
        parts = [self._unary()]
        while True:
            if self._accept("AMP") or self._accept("IDENT", "and"):
                parts.append(self._unary())
            else:
                break
        return parts[0] if len(parts) == 1 else And(*parts)

    def _unary(self) -> Formula:
        if self._accept("TILDE") or self._accept("IDENT", "not"):
            return Not(self._unary())
        quantifier = None
        token = self._peek()
        if token is not None and token.kind == "IDENT" \
                and token.text in ("exists", "forall"):
            quantifier = self._next().text
            variables = []
            while True:
                inner = self._peek()
                if inner is None or inner.kind != "IDENT" \
                        or not (inner.text[0].isupper()
                                or inner.text[0] == "_") \
                        or inner.text in _KEYWORDS:
                    break
                # After the first variable, an IDENT *directly* followed
                # by '(' is a relation atom opening the quantifier body
                # (e.g. `exists Z2 R2(X, Z2)`), not another quantified
                # variable; `exists Y Z (...)` quantifies Z.  The first
                # IDENT is always a variable, so `forall Z1 (...)` still
                # works.
                if variables:
                    following = (self._tokens[self._index + 1]
                                 if self._index + 1 < len(self._tokens)
                                 else None)
                    if following is not None \
                            and following.kind == "LPAREN" \
                            and following.position == (
                                inner.position + len(inner.text)):
                        break
                variables.append(Variable(self._next().text))
            if not variables:
                raise QueryError(f"{quantifier} needs at least one variable")
            body = self._unary()
            cls = Exists if quantifier == "exists" else Forall
            return cls(variables, body)
        if self._accept("LPAREN"):
            inner_formula = self.parse_formula()
            self._expect("RPAREN")
            return inner_formula
        return self._atom_or_comparison()

    def _atom_or_comparison(self) -> Formula:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of query text")
        if token.kind == "IDENT" and token.text == "true":
            self._next()
            return TRUE
        if token.kind == "IDENT" and token.text == "false":
            self._next()
            return FALSE
        # Relation atom: IDENT immediately followed by '('
        if token.kind == "IDENT" and token.text not in _KEYWORDS:
            after = (self._tokens[self._index + 1]
                     if self._index + 1 < len(self._tokens) else None)
            if after is not None and after.kind == "LPAREN":
                name = self._next().text
                self._next()  # consume LPAREN
                terms = [self._term()]
                while self._accept("COMMA"):
                    terms.append(self._term())
                self._expect("RPAREN")
                return RelAtom(name, terms)
        # otherwise a comparison
        left = self._term()
        op_token = self._peek()
        if op_token is None or op_token.kind != "OP":
            raise QueryError(
                f"expected comparison operator after {left}, found "
                f"{op_token.text if op_token else 'end of input'!r}")
        self._next()
        right = self._term()
        return Cmp(op_token.text, left, right)

    def _term(self) -> Term:
        token = self._next()
        if token.kind == "IDENT":
            if token.text in _KEYWORDS:
                raise QueryError(f"{token.text!r} is a reserved word")
            if token.text[0].isupper() or token.text[0] == "_":
                return Variable(token.text)
            return Constant(token.text)
        if token.kind == "INTEGER":
            return Constant(int(token.text))
        if token.kind == "STRING":
            raw = token.text[1:-1]
            return Constant(raw.replace('\\"', '"').replace("\\\\", "\\"))
        raise QueryError(f"expected a term, found {token.text!r}")


def parse_formula(text: str) -> Formula:
    """Parse a bare FO formula."""
    parser = _Parser(text)
    formula = parser.parse_formula()
    if not parser.at_end():
        raise QueryError("trailing input after formula")
    return formula


def parse_query(text: str) -> Query:
    """Parse ``name(X, Y) := formula`` (or a bare formula, in which case the
    answer variables are its free variables in first-appearance order and
    the query is named ``q``)."""
    parser = _Parser(text)
    # try the headed form first
    token = parser._peek()
    headed = False
    if token is not None and token.kind == "IDENT":
        save = parser._index
        try:
            name = parser._next().text
            parser._expect("LPAREN")
            head = []
            if parser._peek() is not None \
                    and parser._peek().kind != "RPAREN":
                term = parser._term()
                head.append(term)
                while parser._accept("COMMA"):
                    head.append(parser._term())
            parser._expect("RPAREN")
            if parser._accept("ASSIGN"):
                headed = True
            else:
                parser._index = save
        except QueryError:
            parser._index = save
    if headed:
        for term in head:
            if not isinstance(term, Variable):
                raise QueryError(
                    f"answer terms must be variables, got {term}")
        formula = parser.parse_formula()
        if not parser.at_end():
            raise QueryError("trailing input after query")
        return Query(name, head, formula)
    formula = parser.parse_formula()
    if not parser.at_end():
        raise QueryError("trailing input after query")
    ordered: list[Variable] = []
    for variable in _appearance_order(formula):
        if variable not in ordered:
            ordered.append(variable)
    free = formula.free_variables()
    head_vars = [v for v in ordered if v in free]
    return Query("q", head_vars, formula)


def _appearance_order(formula: Formula) -> list[Variable]:
    """Free-ish variable occurrence order for bare-formula queries."""
    out: list[Variable] = []

    def walk(f: Formula) -> None:
        if isinstance(f, RelAtom):
            out.extend(t for t in f.terms if isinstance(t, Variable))
        elif isinstance(f, Cmp):
            for side in (f.comparison.left, f.comparison.right):
                if isinstance(side, Variable):
                    out.append(side)
        elif isinstance(f, (And, Or)):
            for part in f.parts:
                walk(part)
        elif isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, Implies):
            walk(f.premise)
            walk(f.conclusion)
        elif isinstance(f, (Exists, Forall)):
            walk(f.sub)

    walk(formula)
    return out
