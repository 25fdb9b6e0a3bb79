"""repro.query — goal-directed query answering on the shared engine.

The source paper is ultimately about *query answering* under stable-model
semantics, yet answering a query by materialising a full fixpoint pays for
every fact the query never touches.  This subsystem makes selective queries
scale with the relevant sub-database instead:

* :mod:`~repro.query.adornment` — bound/free call patterns and the
  planner-aligned sideways information passing strategy;
* :mod:`~repro.query.magic` — magic-set rewriting of stratified Datalog¬
  programs w.r.t. a query (magic predicates, guarded adorned rules,
  parameterised seeds), sound under stratified negation by materialising
  negation-reachable definitions in full;
* :mod:`~repro.query.stratify` — predicate dependency graph, negation-aware
  SCC strata, and stratum-by-stratum evaluation on the semi-naive
  :func:`~repro.engine.seminaive.fixpoint` driver;
* :mod:`~repro.query.session` — :class:`QuerySession`: memoised compiled
  plans (keyed on program digest × query adornment), an LRU answer cache
  repaired in place on mutation (each plan keeps one incrementally
  maintained :class:`~repro.engine.maintenance.MaterializedView`; deletions
  cascade through derivation counts instead of re-deriving), and a graceful
  fallback to cautious stable-model reasoning outside the rewritable
  fragment.

See ``docs/query-answering.md`` for a worked tutorial.
"""

from .adornment import AdornedPredicate, AdornedRule, adorn_atom, adorn_rule, sips_order
from .magic import MagicProgram, canonicalize_query, magic_rewrite
from .session import (
    ExplainReport,
    QueryPlan,
    QuerySession,
    SessionEpoch,
    StandingDeltas,
    StandingQuery,
    StratumTiming,
    compile_query_plan,
    full_fixpoint_answers,
    program_digest,
    try_goal_directed,
)
from .stratify import (
    DependencyGraph,
    Stratification,
    dependency_graph,
    evaluate_stratified,
    normalize_rules,
    perfect_model,
    relevant_predicates,
    stratify,
)

__all__ = [
    "AdornedPredicate",
    "AdornedRule",
    "DependencyGraph",
    "ExplainReport",
    "MagicProgram",
    "QueryPlan",
    "QuerySession",
    "SessionEpoch",
    "StandingDeltas",
    "StandingQuery",
    "Stratification",
    "StratumTiming",
    "adorn_atom",
    "adorn_rule",
    "canonicalize_query",
    "compile_query_plan",
    "dependency_graph",
    "evaluate_stratified",
    "full_fixpoint_answers",
    "magic_rewrite",
    "normalize_rules",
    "perfect_model",
    "program_digest",
    "relevant_predicates",
    "sips_order",
    "stratify",
    "try_goal_directed",
]
