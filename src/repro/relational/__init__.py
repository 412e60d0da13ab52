"""Relational substrate: schemas, instances, FO queries, constraints.

Implements the database vocabulary of the paper's Definitions 1–3: relation
and peer schemas, immutable instances with the fact-set Σ(r), the symmetric
difference Δ and the ≤_r order, full first-order query evaluation under
active-domain semantics, and the constraint families used as local ICs and
data-exchange constraints (TGDs, EGDs/FDs/keys, denials).

Query and constraint evaluation is index-driven by default: instances
carry lazily-built, incrementally-maintained per-column hash indexes
(:mod:`repro.relational.indexes`), and the evaluation planner
(:mod:`repro.relational.planner`) compiles formulas into plans with
selection pushdown and selectivity-ordered index joins.  The naive
active-domain evaluator of :mod:`repro.relational.query` is kept as the
reference the crosscheck suites compare the planner against, reached
through ``evaluator="naive"`` on ``Query.answers`` / ``Query.is_true`` and
the constraint-checking methods.
"""

from ..datalog.terms import Constant, Variable
from .indexes import TupleIndex
from .planner import (
    QueryPlanner,
    explain_plan,
    plan_answers,
    plan_bindings,
    plan_holds,
)
from .constraints import (
    Constraint,
    DenialConstraint,
    EqualityGeneratingConstraint,
    FunctionalDependency,
    InclusionDependency,
    KeyConstraint,
    TupleGeneratingConstraint,
    Violation,
)
from .errors import (
    ConstraintError,
    InstanceError,
    QueryError,
    RelationalError,
    SchemaError,
)
from .instance import DatabaseInstance, Fact
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
    evaluation_domain,
    holds,
)
from .query_parser import parse_formula, parse_query
from .schema import DatabaseSchema, RelationSchema

__all__ = [
    # schema / instance
    "RelationSchema", "DatabaseSchema", "DatabaseInstance", "Fact",
    # query AST and evaluation
    "Formula", "RelAtom", "Cmp", "And", "Or", "Not", "Implies",
    "Exists", "Forall", "TRUE", "FALSE", "Query", "holds",
    "evaluation_domain", "parse_formula", "parse_query",
    # terms re-exported for convenience
    "Constant", "Variable",
    # index layer and evaluation planner
    "TupleIndex", "QueryPlanner", "plan_answers", "plan_bindings",
    "plan_holds", "explain_plan",
    # constraints
    "Constraint", "TupleGeneratingConstraint", "InclusionDependency",
    "EqualityGeneratingConstraint", "FunctionalDependency",
    "KeyConstraint", "DenialConstraint", "Violation",
    # errors
    "RelationalError", "SchemaError", "InstanceError", "QueryError",
    "ConstraintError",
]
