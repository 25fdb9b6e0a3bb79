"""repro — an executable formalization of
"Stable Model Semantics for Tuple-Generating Dependencies Revisited"
(Alviano, Morak & Pieris, PODS 2017).

The library implements, from scratch and for finite instances:

* the core formal machinery of the paper (normal TGDs, databases,
  interpretations, homomorphisms, normal conjunctive queries);
* the paper's contribution — the second-order ("SO") stable model semantics
  SM[D, Σ] — together with stable-model enumeration and cautious/brave
  conjunctive query answering (:mod:`repro.stable`);
* the Logic Programming (Skolemization) approach it is compared against,
  including a grounder, a normal-program stable-model solver, the
  well-founded semantics and the equality-friendly WFS (:mod:`repro.lp`);
* the chase and the chase-based operational semantics of Baget et al.
  (:mod:`repro.chase`);
* the syntactic classes of the paper: weak acyclicity, stickiness and
  guardedness (:mod:`repro.classes`);
* disjunctive rules and the Lemma 13 translation (:mod:`repro.disjunction`);
* the WATGD¬ query languages and expressivity translations of Section 7
  (:mod:`repro.languages`);
* the declarative applications of Sections 5 and 7: 2-QBF, consistent query
  answering under set-based repairs, certain graph colourability, and the
  undecidability gadgets (:mod:`repro.encodings`).

Quick start
-----------

>>> from repro import parse_program, parse_database, solve
>>> sigma = parse_program('''
...     person(X) -> exists Y. hasFather(X, Y)
...     hasFather(X, Y) -> sameAs(Y, Y)
...     hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X)
... ''')
>>> database = parse_database("person(alice).")
>>> models = solve(database, sigma, max_nulls=1)
>>> any("abnormal" in str(m) for m in models)
False
"""

from .core import (
    Atom,
    AtomIndex,
    Constant,
    ConjunctiveQuery,
    Database,
    DisjunctiveRuleSet,
    FunctionTerm,
    Interpretation,
    Literal,
    NDTGD,
    NTGD,
    Null,
    NullFactory,
    Predicate,
    RuleSet,
    Variable,
    atom_query,
    parse_atom,
    parse_database,
    parse_disjunctive_program,
    parse_disjunctive_rule,
    parse_literal,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
)
from .core.queries import certain_answers
from .engine import (
    EngineStatistics,
    MemoryBackend,
    RelationIndex,
    fixpoint,
)
from .errors import (
    ArityError,
    GroundingError,
    InconsistentProgramError,
    ParseError,
    ReproError,
    SafetyError,
    ServiceClosedError,
    ServiceOverloadedError,
    SolverLimitError,
    StratificationError,
    SubscriptionError,
    UnsupportedClassError,
)
from .obs import (
    JsonlSink,
    MetricsRegistry,
    RuleProfiler,
    Tracer,
    get_tracer,
    global_registry,
    json_snapshot,
    prometheus_text,
    set_tracer,
    use_tracer,
)
from .query import QueryPlan, QuerySession, compile_query_plan, magic_rewrite, stratify
from .service import (
    DatalogService,
    Gap,
    Notification,
    Subscription,
)
from .stable import (
    StableModelEngine,
    Universe,
    brave_answers,
    cautious_answers,
    certain_answer,
    enumerate_stable_models,
    is_stable_model,
    possible_answer,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "AtomIndex",
    "ArityError",
    "Constant",
    "ConjunctiveQuery",
    "Database",
    "DatalogService",
    "DisjunctiveRuleSet",
    "EngineStatistics",
    "FunctionTerm",
    "Gap",
    "GroundingError",
    "InconsistentProgramError",
    "Interpretation",
    "JsonlSink",
    "Literal",
    "MemoryBackend",
    "MetricsRegistry",
    "NDTGD",
    "NTGD",
    "Notification",
    "Null",
    "NullFactory",
    "ParseError",
    "Predicate",
    "QueryPlan",
    "QuerySession",
    "RelationIndex",
    "ReproError",
    "RuleProfiler",
    "RuleSet",
    "SafetyError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "SolverLimitError",
    "StableModelEngine",
    "StratificationError",
    "Subscription",
    "SubscriptionError",
    "Tracer",
    "Universe",
    "UnsupportedClassError",
    "Variable",
    "atom_query",
    "brave_answers",
    "cautious_answers",
    "certain_answer",
    "certain_answers",
    "compile_query_plan",
    "enumerate_stable_models",
    "fixpoint",
    "get_tracer",
    "global_registry",
    "json_snapshot",
    "magic_rewrite",
    "prometheus_text",
    "set_tracer",
    "stratify",
    "is_stable_model",
    "use_tracer",
    "parse_atom",
    "parse_database",
    "parse_disjunctive_program",
    "parse_disjunctive_rule",
    "parse_literal",
    "parse_program",
    "parse_query",
    "parse_rule",
    "parse_term",
    "possible_answer",
    "solve",
    "__version__",
]
