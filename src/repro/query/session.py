"""Goal-directed query sessions: one evaluator, maintained views, caches.

:class:`QuerySession` is the front door of the subsystem.  It holds a mutable
fact base plus a fixed rule set and answers conjunctive queries through

* one **evaluator** (:class:`QueryEvaluator`) — it decides once whether the
  rules are in stratified Datalog¬, compiles magic-set rewritten plans
  (:class:`QueryPlan` over a :class:`~repro.query.magic.MagicProgram`) into a
  cache keyed by *query shape* — every constant abstracted to a parameter, so
  ``path(c1, X)`` and ``path(c7, X)`` share one plan and differ only in the
  magic seed — and answers outside the fragment by cautious stable-model
  reasoning.  It is thread-safe: the session's misses, ``explain`` and
  budget forks, a :class:`repro.service.DatalogService`'s reader misses (on
  published epoch snapshots) and a replica's session all run plans through
  :meth:`QueryPlan.execute_on`, and share one plan per shape;
* a **persistent base index** — the facts live in one
  :class:`~repro.engine.index.RelationIndex` head whose access-pattern hash
  tables survive across queries *and revisions*; the plan views below are
  built from it per predicate, and :meth:`QuerySession.explain` (like a
  miss whose view trips ``max_atoms``) evaluates into a throwaway overlay
  fork of the current revision's snapshot, so no evaluation pays a fresh
  O(|DB|) re-index of the fact base;
* an **answer cache** — an LRU of answer sets keyed on the concrete query.
  On mutation, cached answers whose dependency cone misses the mutated
  predicates survive untouched; answers whose cone is hit are **repaired in
  place** from the plan's incrementally maintained
  :class:`~repro.engine.maintenance.MaterializedView` (see below) rather
  than evicted.  Cone *invalidation* (eviction) remains the fallback when no
  derivation counts back the answer — its view was dropped by the
  ``max_atoms`` budget or its seed pruned, the query left the fragment, or
  the fallback (non-stratified) mode, which has no plans and evicts
  wholesale;
* a **materialised view per hot shape** — an LRU of plan views, bounded by
  ``plan_cache_size``; each holds its plan and one
  :class:`~repro.engine.maintenance.MaterializedView` of the plan's magic
  program over the plan's dependency cone of the fact base.  A cache miss
  injects the query's magic seed as a *delta* (incremental, monotone), and
  ``add_facts``/``remove_facts`` repair the view — counting for
  non-recursive strata, Delete-and-Rederive for recursive ones — in time
  proportional to the affected cone instead of re-deriving.  The
  ``session_answers_repaired`` / ``session_engine_deltas_applied`` /
  ``session_engine_rederivations`` registry counters make the repair path
  observable.

For programs outside the stratified Datalog¬ fragment (existential rules,
negative cycles) the session degrades gracefully: with ``fallback=True``
(default) answers are computed by cautious reasoning over the stable models
(:mod:`repro.stable`), so a session is always safe to use as the single entry
point; ``strict=True`` callers get the rewriting error instead.

:func:`full_fixpoint_answers` is the deliberately naive baseline — materialise
the entire perfect model, then evaluate the query against it — kept as a
public function because the parity suite and the benchmarks measure the magic
rewriting against it.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.atoms import Atom, Predicate
from ..core.database import Database
from ..core.queries import ConjunctiveQuery
from ..core.terms import Constant, Term
from ..engine import MaterializedView, RelationIndex, RelationSnapshot, ViewDelta
from ..engine.stats import EngineStatistics, engine_counters
from ..errors import (
    SolverLimitError,
    StratificationError,
    SubscriptionError,
    UnsupportedClassError,
)
from ..obs.metrics import global_registry
from ..obs.profile import RuleProfile, RuleProfiler
from ..obs.trace import Tracer, get_tracer
from .magic import MagicProgram, canonicalize_query, magic_rewrite
from .stratify import (
    evaluate_stratified,
    normalize_rules,
    relevant_predicates,
    stratify,
)

__all__ = [
    "ExplainReport",
    "QueryPlan",
    "QuerySession",
    "SessionEpoch",
    "StandingDeltas",
    "StandingQuery",
    "StratumTiming",
    "compile_query_plan",
    "full_fixpoint_answers",
    "try_goal_directed",
]


def program_digest(rules) -> str:
    """A stable digest of a rule collection (order-insensitive)."""
    normal = normalize_rules(rules)
    payload = "\n".join(sorted(str(rule) for rule in normal))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _query_shape(query: ConjunctiveQuery):
    """The canonical (constant-abstracted) shape of a query, hashable, and
    the constants it abstracts (the values of the plan's parameters).

    Structural (tuples of frozen literals), not a rendered string: renderings
    conflate constants and variables that share a name.
    """
    literals, parameters, constants = canonicalize_query(query)
    return (literals, query.answer_variables, parameters), constants


def _query_shape_key(query: ConjunctiveQuery) -> str:
    """Human-readable rendering of the canonical query shape (display only)."""
    literals, _, _ = canonicalize_query(query)
    body = ", ".join(str(literal) for literal in literals)
    head = ",".join(variable.name for variable in query.answer_variables)
    return f"?({head}) :- {body}"


def _dependency_cone(rules, query: ConjunctiveQuery) -> frozenset[Predicate]:
    """Every predicate the query's answers can depend on (incl. negation)."""
    return relevant_predicates(
        rules,
        {literal.predicate for literal in query.literals},
        follow_negation=True,
    )


@dataclass(frozen=True)
class QueryPlan:
    """A compiled, parameterised goal-directed plan for one query shape.

    ``depends`` is the plan's dependency cone: the predicates whose facts can
    influence the answers.  :class:`QuerySession` uses it for predicate-level
    answer invalidation and to build the plan's view over the cone only.
    """

    digest: str
    shape: str
    program: MagicProgram
    depends: frozenset[Predicate]

    def execute_on(
        self,
        base: RelationSnapshot | RelationIndex,
        query: ConjunctiveQuery,
        *,
        constants: Optional[Tuple[Constant, ...]] = None,
        max_atoms: Optional[int] = None,
        statistics: Optional[EngineStatistics] = None,
        tracer=None,
        profiler=None,
    ) -> frozenset[Tuple[Term, ...]]:
        """Run the plan for a concrete *query* of this plan's shape over a
        *base* snapshot (or head index) without re-indexing it.  Pass
        *constants* when the query is canonicalised already
        (:func:`~repro.query.magic.canonicalize_query`'s third result);
        the seed is built from them instead of canonicalising again.

        Only the query's magic seed is injected, and all derivations go to
        a throwaway overlay fork sharing the base's pattern tables.  Any
        base is safe: the plan's magic and adorned relations are generated
        predicates, which no fact can share.  This is the one way a plan
        runs: service readers, :meth:`QuerySession.explain`, a session miss
        that trips ``max_atoms`` on the shared view, and callers holding a
        plain fact collection (as ``RelationIndex(facts)``) all come here.
        """
        if constants is None:
            _, _, constants = canonicalize_query(query)
        program = self.program
        index = evaluate_stratified(
            program.rules,
            (program.seed(constants),),
            base=base,
            stratification=program.stratification,
            max_atoms=max_atoms,
            statistics=statistics,
            tracer=tracer,
            profiler=profiler,
        )
        return program.collect_answers(index)


def compile_query_plan(rules, query: ConjunctiveQuery) -> QueryPlan:
    """Compile a reusable goal-directed plan for ``(rules, query)``.

    The plan is parameterised over the query's constants; reuse it for any
    query of the same shape via :meth:`QueryPlan.execute_on`.
    """
    # Normalise once: digesting and rewriting both accept the normalised
    # rules verbatim, so NTGD-to-NormalRule conversion happens a single time.
    normal = normalize_rules(rules)
    return _build_plan(normal, program_digest(normal), query)


def _build_plan(normal, digest: str, query: ConjunctiveQuery) -> QueryPlan:
    """The plan of *query* over already normalised rules and their digest."""
    return QueryPlan(
        digest=digest,
        shape=_query_shape_key(query),
        program=magic_rewrite(normal, query),
        depends=_dependency_cone(normal, query),
    )


class QueryEvaluator:
    """Plans and answers the queries of one rule set; safe to share.

    The one query-evaluation path of the stack.  It decides once, at
    construction, whether the rules are in the rewritable fragment
    (existential-free, stratified); keeps the compiled :class:`QueryPlan`\\ s
    in a cache keyed by query shape; and answers outside the fragment by
    cautious stable-model reasoning (:func:`repro.stable.cautious_answers`)
    when *fallback* is on.  A :class:`QuerySession` owns one and builds its
    maintained views from its plans; a :class:`repro.service.DatalogService`
    runs it on published epoch snapshots from any number of reader threads.

    Cache hits take no lock; a miss compiles under the evaluator's lock, so
    racing readers of a new shape rewrite it once.  Past *plan_cache_size*
    plans the oldest one is dropped from the cache, but a plan still held
    elsewhere (by a session's maintained view) is found again by its shape
    rather than compiled anew: one plan per shape while anything holds it.
    """

    def __init__(
        self,
        rules,
        *,
        plan_cache_size: int,
        fallback: bool,
        stable_options: Optional[dict],
        max_atoms: Optional[int],
    ) -> None:
        from ..core.rules import RuleSet
        from ..lp.programs import NormalProgram

        # Materialise one-shot iterables: the rules are re-walked on every
        # plan compilation and by the fallback.
        self.rules = (
            rules
            if isinstance(rules, (RuleSet, NormalProgram))
            else tuple(rules)
        )
        #: the per-evaluation budget every plan run enforces
        self.max_atoms = max_atoms
        self._fallback = fallback
        self._stable_options = dict(stable_options or {})
        # Keep the normalised form and its digest so plan compilation does
        # not re-walk the NTGDs or re-hash the program.
        self._normal: Optional[tuple] = None
        self._scope_error: Optional[Exception] = None
        try:
            self._normal = normalize_rules(self.rules)
            stratify(self._normal)
        except (UnsupportedClassError, StratificationError) as error:
            self._scope_error = error
        self.digest = program_digest_or_none(
            self._normal if self._normal is not None else self.rules
        )
        self._plan_cache_size = max(1, plan_cache_size)
        self._plans: dict = {}
        #: every compiled plan still referenced anywhere, by shape
        self._live: "weakref.WeakValueDictionary[tuple, QueryPlan]" = (
            weakref.WeakValueDictionary()
        )
        self._lock = threading.Lock()

    @property
    def rewritable(self) -> bool:
        """``True`` iff the rules are in stratified Datalog¬."""
        return self._scope_error is None

    def _scope_failure(self) -> Exception:
        """A fresh copy of the rules' scope error, to raise.

        The stored instance is never raised: each raise would chain the
        raising frames — and the snapshots they hold — onto its traceback
        for the evaluator's lifetime.
        """
        error = self._scope_error
        assert error is not None
        return type(error)(*error.args)

    def plan(self, query: ConjunctiveQuery) -> QueryPlan:
        """The compiled plan for the query's shape.

        Raises the rules' scope error outside the fragment, and
        :class:`~repro.errors.UnsupportedClassError` for a query with terms
        outside Datalog (nulls, function terms).
        """
        return self._plan(query)[0]

    def _plan(
        self, query: ConjunctiveQuery, key: Optional[tuple] = None
    ) -> Tuple[QueryPlan, bool]:
        """:meth:`plan` of a query whose shape is *key* (when the caller
        canonicalised it already), and whether this call compiled it."""
        if self._scope_error is not None:
            raise self._scope_failure()
        if key is None:
            key, _ = _query_shape(query)
        plan = self._plans.get(key)
        compiled = False
        if plan is None:
            with self._lock:
                plan = self._plans.get(key)
                if plan is None:
                    plan = self._live.get(key)
                    if plan is None:
                        plan = _build_plan(self._normal, self.digest, query)
                        self._live[key] = plan
                        compiled = True
                    if len(self._plans) >= self._plan_cache_size:
                        del self._plans[next(iter(self._plans))]
                    self._plans[key] = plan
        return plan, compiled

    def route(self, query: ConjunctiveQuery) -> Tuple[Optional[QueryPlan], object]:
        """How :meth:`answers` answers *query*: ``(plan, constants)``, or
        ``(None, error)`` when the cautious fallback does — *error* is why
        the query leaves the fragment, ``None`` when the rules do."""
        if self._scope_error is not None:
            return None, None
        try:
            key, constants = _query_shape(query)
            plan, _ = self._plan(query, key)
        except (UnsupportedClassError, StratificationError) as error:
            # The *query* leaves the fragment (nulls, function terms).
            return None, error
        return plan, constants

    def answers(
        self,
        base: RelationSnapshot | RelationIndex,
        query: ConjunctiveQuery,
        *,
        route: Optional[Tuple[Optional[QueryPlan], object]] = None,
        statistics: Optional[EngineStatistics] = None,
        tracer=None,
    ) -> Tuple[frozenset[Tuple[Term, ...]], bool]:
        """The answers of *query* over *base*, and whether the cautious
        fallback gave them (the query or the rules left the fragment).
        *route* is :meth:`route`'s result, when the caller took it."""
        plan, detail = route if route is not None else self.route(query)
        if plan is None:
            return self.fallback_answers(base, query, detail), True
        answers = plan.execute_on(
            base,
            query,
            constants=detail,
            max_atoms=self.max_atoms,
            statistics=statistics,
            tracer=tracer,
        )
        return answers, False

    def fallback_answers(
        self,
        base: RelationSnapshot | RelationIndex,
        query: ConjunctiveQuery,
        error: Optional[Exception] = None,
    ) -> frozenset:
        """Cautious stable-model answers over *base*'s facts.  When the
        fallback is off, raises *error* (why the query has no plan) or,
        by default, the rules' scope error."""
        if not self._fallback:
            raise error if error is not None else self._scope_failure()
        # Deferred import: repro.stable sits above this subsystem in the
        # layer map and imports nothing from it at module scope.
        from ..stable import cautious_answers

        # goal_directed=False: the plan request already failed, so skip the
        # doomed re-attempt.
        return cautious_answers(
            Database.of(base.atoms()),
            _as_rule_set(self.rules),
            query,
            goal_directed=False,
            **self._stable_options,
        )


def full_fixpoint_answers(
    database: Database | Iterable[Atom],
    rules,
    query: ConjunctiveQuery,
    *,
    max_atoms: Optional[int] = None,
    statistics: Optional[EngineStatistics] = None,
) -> frozenset[Tuple[Term, ...]]:
    """The baseline: materialise the whole perfect model, then evaluate.

    This is what every consumer did before the goal-directed subsystem
    existed — a full stratified fixpoint paying for facts the query never
    touches.  Kept public as the reference point for the magic-set parity
    suite and the benchmarks.
    """
    facts = database.atoms if isinstance(database, Database) else database
    index = evaluate_stratified(
        rules, facts, max_atoms=max_atoms, statistics=statistics
    )
    return query.answers(index.atoms())


@dataclass(frozen=True)
class SessionEpoch:
    """An immutable export of one session revision, safe to share.

    Produced by :meth:`QuerySession.epoch`.  ``snapshot`` is a *detached*
    :class:`~repro.engine.index.RelationSnapshot` of the fact base (cold
    pattern tables build privately under the snapshot's own lock, never
    through the session's mutable head), and ``answers`` is a point-in-time
    copy of the answer cache: concrete query → answer tuples, exactly as the
    session would return them at this revision.  Both stay valid — and
    readable from any thread — no matter what the session does afterwards.

    The mapping object itself must be treated as read-only by consumers; the
    session never mutates it after export (it is a fresh copy per call).
    """

    revision: int
    snapshot: RelationSnapshot
    answers: Mapping[ConjunctiveQuery, frozenset]

    def facts(self) -> frozenset[Atom]:
        """The fact base pinned by this epoch."""
        return self.snapshot.atoms()


@dataclass(frozen=True)
class StratumTiming:
    """Wall/CPU time and output size of one stratum of one evaluation."""

    stratum: int
    rules: int
    atoms: int
    wall_s: float
    cpu_s: float

    def as_dict(self) -> dict:
        return {
            "stratum": self.stratum,
            "rules": self.rules,
            "atoms": self.atoms,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }


@dataclass(frozen=True)
class ExplainReport:
    """What :meth:`QuerySession.explain` returns: a profiled evaluation.

    The report attributes one fresh, fully traced evaluation of the query —
    per-stratum wall/CPU timings (``strata``) and the hottest rules by join
    time with their trigger and tuple counts (``hot_rules``) — alongside the
    compiled plan it ran (``plan_rules``, magic-rewritten, in stratum
    order).  ``answers`` are the evaluation's answer tuples, identical to
    what :meth:`~QuerySession.answers` returns at the same revision.
    """

    query: str
    shape: str
    digest: str
    plan_rules: Tuple[str, ...]
    strata: Tuple[StratumTiming, ...]
    hot_rules: Tuple[RuleProfile, ...]
    answers: frozenset
    wall_s: float

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "shape": self.shape,
            "digest": self.digest,
            "plan_rules": list(self.plan_rules),
            "strata": [timing.as_dict() for timing in self.strata],
            "hot_rules": [profile.as_dict() for profile in self.hot_rules],
            "answers": sorted(str(row) for row in self.answers),
            "wall_s": self.wall_s,
        }

    def render(self) -> str:
        """A human-readable multi-line account of the evaluation."""
        lines = [
            f"query   {self.query}",
            f"shape   {self.shape}",
            f"plan    {len(self.plan_rules)} rules, digest {self.digest}",
            f"answers {len(self.answers)} tuples in {self.wall_s * 1e3:.3f} ms",
        ]
        if self.strata:
            lines.append("strata:")
            for timing in self.strata:
                lines.append(
                    f"  [{timing.stratum}] {timing.rules} rules -> "
                    f"{timing.atoms} atoms  "
                    f"wall {timing.wall_s * 1e3:.3f} ms  "
                    f"cpu {timing.cpu_s * 1e3:.3f} ms"
                )
        if self.hot_rules:
            lines.append("hot rules:")
            for profile in self.hot_rules:
                lines.append(
                    f"  {profile.seconds * 1e3:.3f} ms  "
                    f"triggers={profile.triggers} tuples={profile.tuples} "
                    f"rounds={profile.rounds}  {profile.rule}"
                )
        return "\n".join(lines)

    __str__ = render


@dataclass
class _PlanView:
    """One plan, its maintained materialisation, and the seeds injected so far.

    The view holds the plan's magic program evaluated over the plan's
    dependency cone of the session facts; each distinct constant vector adds
    its magic seed once (``seeds``), as an incremental delta — magic
    programs are monotone in their seeds, and the goal relation carries the
    parameters, so per-seed answers are recovered by a filtered scan.

    ``seeds`` is LRU-ordered: a session serving unboundedly many distinct
    constants would otherwise grow the view without bound, so past the
    session's seed cap the coldest seed is *pruned* — removed from the view
    as a deletion delta, which cascades its magic cone away in O(cone), no
    rebuild.  Cached answers of a pruned seed stay valid until the next
    relevant mutation, whose repair pass evicts them (their seed is gone).

    ``pins`` maps seeds claimed by standing queries
    (:meth:`QuerySession.register_standing`) to the registration tokens
    holding them.  A pinned seed is never pruned and a view holding any pin
    is never evicted — a standing query's exactness contract
    is that its seed's derivation cone stays materialised and repaired, so
    the per-epoch :class:`~repro.engine.maintenance.ViewDelta` accounts for
    every answer change.  Pins die with the view (budget drop): the
    subscription layer detects the loss and re-registers through a gap.
    """

    plan: QueryPlan
    view: MaterializedView
    seeds: "OrderedDict[Atom, None]" = field(default_factory=OrderedDict)
    pins: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StandingQuery:
    """One registered standing query: everything needed to turn per-plan
    :class:`~repro.engine.maintenance.ViewDelta`\\ s into per-query answer
    deltas without re-evaluation.

    Produced by :meth:`QuerySession.register_standing`.  ``plan_key``
    (the query shape) addresses the pinned plan view inside the session;
    ``goal``/``answer_arity``/``constants`` describe how answer tuples are
    read off the view's goal relation (answer prefix, parameter suffix);
    ``seed`` is the pinned magic seed; ``depends`` the dependency
    cone used to skip irrelevant epochs; ``answers`` the registration-time
    answer set (the subscriber's fold starting point).
    """

    query: ConjunctiveQuery
    plan_key: tuple
    constants: Tuple[Constant, ...]
    seed: Atom
    goal: Predicate
    answer_arity: int
    depends: frozenset[Predicate]
    answers: frozenset


@dataclass(frozen=True)
class StandingDeltas:
    """What one :meth:`QuerySession.drain_standing_deltas` call hands over.

    ``touched`` is the union of predicates whose base facts net-changed
    since the previous drain; ``views`` maps plan keys to the **net**
    :class:`~repro.engine.maintenance.ViewDelta` their maintained views
    absorbed (only non-empty deltas appear); ``lost`` lists plan keys whose
    view was dropped mid-repair (budget) — their deltas are incomplete, so
    any standing query on them must resynchronise instead of trusting
    ``views``.
    """

    touched: frozenset[Predicate]
    views: Mapping[tuple, ViewDelta]
    lost: frozenset[tuple]

    def __bool__(self) -> bool:
        return bool(self.touched or self.views or self.lost)


_EMPTY_STANDING_DELTAS = StandingDeltas(frozenset(), {}, frozenset())


class QuerySession:
    """A mutable fact base + fixed rules, answering queries goal-directedly.

    Parameters
    ----------
    database:
        Initial facts (a :class:`~repro.core.database.Database` or any
        iterable of ground atoms).
    rules:
        A :class:`~repro.core.rules.RuleSet`, iterable of NTGDs, or a
        :class:`~repro.lp.programs.NormalProgram`.
    plan_cache_size / answer_cache_size:
        Bounds on the compiled plans (and, separately, the maintained plan
        views) and on the answer cache.
    fallback:
        When the rules fall outside stratified Datalog¬, answer through
        cautious stable-model reasoning instead of raising (default).  The
        extra keyword arguments accepted by :func:`repro.stable.cautious_answers`
        can be supplied via *stable_options*.
    max_atoms:
        Optional budget, enforced per evaluation.  On the maintained-view
        path the shared view also carries the budget; when the cumulative
        cones of previously injected seeds trip it, the session drops the
        view and re-answers the query on a throwaway fork, so only a query
        that exceeds the budget *on its own* raises
        :class:`~repro.errors.SolverLimitError`.
    tracer:
        Optional explicit :class:`~repro.obs.trace.Tracer`; ``None``
        (default) consults the process-global tracer per call, so
        ``repro.obs.set_tracer`` turns tracing on for existing sessions.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` holding the
        session's ``session_*`` counters; defaults to
        :func:`repro.obs.global_registry`.  The catalogue is in
        ``docs/observability.md``.

    The facts live in one persistent :class:`~repro.engine.index.RelationIndex`
    head.  Plans come from the session's :class:`QueryEvaluator`
    (:attr:`evaluator`), and each hot query shape keeps one incrementally
    maintained :class:`~repro.engine.maintenance.MaterializedView`: a cache
    miss injects the query's magic seed as a delta into it, touching only
    the delta cone of the new seed, and mutations — **deletions included**
    — repair the view and the affected cached answers in place instead of
    re-deriving.

    For stratified Datalog¬ the unique stable model is the perfect model, so
    :meth:`answers` returns exactly the certain (= brave = perfect-model)
    answers; :meth:`certain_answers` is an explicit alias.

    **External-synchronisation contract.**  A ``QuerySession`` is *not*
    thread-safe: every method — reads included, because they move LRU
    entries, build pattern tables on the mutable head, and bump counters —
    must be called with external synchronisation (one owning thread, or a
    caller-held lock).  What the session *does* guarantee is a safe export
    surface: :meth:`epoch` returns an immutable :class:`SessionEpoch`
    (detached snapshot + answer-cache copy) that any number of threads may
    read concurrently while the owning thread keeps mutating the session,
    and :attr:`evaluator` may be run on such a snapshot from any thread.
    :class:`repro.service.DatalogService` is the packaged single-writer /
    many-reader arrangement built on exactly this contract.
    """

    def __init__(
        self,
        database: Database | Iterable[Atom] = (),
        rules=(),
        *,
        plan_cache_size: int = 64,
        answer_cache_size: int = 256,
        fallback: bool = True,
        stable_options: Optional[dict] = None,
        max_atoms: Optional[int] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        facts = database.atoms if isinstance(database, Database) else database
        self._evaluator = QueryEvaluator(
            rules,
            plan_cache_size=plan_cache_size,
            fallback=fallback,
            stable_options=stable_options,
            max_atoms=max_atoms,
        )
        #: explicit per-session tracer; ``None`` defers to the process-global
        #: one (:func:`repro.obs.get_tracer`) at each call, so flipping
        #: tracing on mid-session works without rebuilding sessions.
        self._tracer = tracer
        registry = metrics if metrics is not None else global_registry()
        counter = registry.counter
        self._plan_hits = counter("session_plan_hits")
        self._plan_misses = counter("session_plan_misses")
        self._answer_hits = counter("session_answer_hits")
        self._answer_misses = counter("session_answer_misses")
        self._fallback_queries = counter("session_fallback_queries")
        self._invalidations = counter("session_invalidations")
        self._predicate_invalidations = counter("session_predicate_invalidations")
        self._wholesale_invalidations = counter("session_wholesale_invalidations")
        self._answers_retained = counter("session_answers_retained")
        self._answers_repaired = counter("session_answers_repaired")
        self._views_built = counter("session_views_built")
        #: the engine work not yet added to the ``session_engine_*`` counters;
        #: shared by the head index and every view, drained by _report()
        self._engine = EngineStatistics()
        self._engine_counters = engine_counters(registry, "session_engine")
        self._index = RelationIndex(facts, statistics=self._engine)
        self._snapshot: Optional[RelationSnapshot] = None
        #: per-revision memo of the detached snapshot exported by epoch()
        self._export_snapshot: Optional[RelationSnapshot] = None
        self._plan_cache_size = max(1, plan_cache_size)
        self._answer_cache_size = max(1, answer_cache_size)
        #: seeds retained per plan view; past it the coldest seed is pruned
        #: from the view as a deletion delta (see _PlanView)
        self._view_seed_cap = max(256, answer_cache_size)
        #: query shape -> its plan view, LRU-ordered and bounded by
        #: plan_cache_size (views pinned by standing queries excepted)
        self._views: "OrderedDict[tuple, _PlanView]" = OrderedDict()
        #: query -> (answers, dependency cone or None, plan key or None, the
        #: query's constants or None, its magic seed or None); the plan key,
        #: constants and seed are set only when the answer came from a view
        #: and can therefore be repaired in place on mutation.
        self._answers: OrderedDict[
            ConjunctiveQuery,
            Tuple[
                frozenset,
                Optional[frozenset[Predicate]],
                Optional[tuple],
                Optional[Tuple[Constant, ...]],
                Optional[Atom],
            ],
        ] = OrderedDict()
        self._revision = 0
        # ---- standing-query (subscription) support.  Capture is off until
        # the first register_standing call, so sessions without standing
        # queries pay nothing on the mutation path.
        self._standing_tokens: set = set()
        self._capture_deltas = False
        #: predicates whose base facts net-changed since the last drain
        self._pending_touched: set[Predicate] = set()
        #: plan key -> (net added, net removed) row entries since last drain
        self._pending_views: dict[tuple, Tuple[set, set]] = {}
        #: plan keys whose view died mid-repair since the last drain
        self._pending_lost: set[tuple] = set()
        # ---- base-fact delta capture (replication support).  Off until the
        # serving layer attaches a replication publisher, so sessions that
        # are never replicated pay nothing on the mutation path.  Unlike the
        # per-plan view deltas above, this tracks the *base* fact changes —
        # exactly what a replica must apply through its own apply_batch.
        self._capture_facts = False
        #: net base-fact change since the last drain: (added, removed)
        self._pending_fact_added: set[Atom] = set()
        self._pending_fact_removed: set[Atom] = set()
        self._report()

    def _report(self) -> None:
        """Add the engine work since the last report to the registry's
        ``session_engine_*`` counters; every public call that can do engine
        work ends here."""
        self._engine.report(self._engine_counters)
        self._engine.reset()

    # -------------------------------------------------------------- fact base
    @property
    def facts(self) -> frozenset[Atom]:
        return self._index.atoms()

    @property
    def revision(self) -> int:
        """Bumped on every mutation; the snapshot is retaken lazily per
        revision, and cached answers survive it when their dependency cone
        misses the mutated predicates."""
        return self._revision

    @property
    def is_goal_directed(self) -> bool:
        """``True`` iff queries run through magic-set rewriting."""
        return self._evaluator.rewritable

    @property
    def rules(self):
        """The session's (materialised) rule collection, read-only."""
        return self._evaluator.rules

    @property
    def evaluator(self) -> QueryEvaluator:
        """The session's thread-safe :class:`QueryEvaluator`; a service runs
        it on published epoch snapshots from its reader threads."""
        return self._evaluator

    def epoch(self) -> SessionEpoch:
        """Export the current revision as an immutable :class:`SessionEpoch`.

        The export is what makes the single-writer / many-reader arrangement
        of :class:`repro.service.DatalogService` possible: the owning thread
        calls ``epoch()`` after a mutation and hands the result to any number
        of reader threads, which query the pinned snapshot and the cached
        answers without ever touching the (externally synchronised) session.
        The snapshot is :meth:`~repro.engine.index.RelationSnapshot.detach`\\ ed
        so that even cold access patterns build privately, never through the
        session's mutable head.  It is a *separate* snapshot from the one the
        session's own evaluations use (both are memoised per revision and
        share the already-built pattern tables copy-on-write): detaching the
        session's working snapshot would disable its build-on-head table
        persistence across revisions.  The answer mapping is a fresh copy per
        call.  Must be called by the thread that owns the session.
        """
        if self._export_snapshot is None:
            self._export_snapshot = self._index.snapshot().detach()
            self._report()
        answers = {
            query: entry[0] for query, entry in self._answers.items()
        }
        return SessionEpoch(
            revision=self._revision,
            snapshot=self._export_snapshot,
            answers=answers,
        )

    # -------------------------------------------------------- standing queries
    def register_standing(self, query: ConjunctiveQuery, token) -> StandingQuery:
        """Register *query* as a standing query pinned to its maintained view.

        Compiles (or reuses) the query's plan, materialises the plan's view,
        injects the query's magic seed, and **pins** both — the seed is
        exempt from LRU pruning and the plan from cache eviction for as long
        as any token holds it — then switches on per-mutation delta capture
        (:meth:`drain_standing_deltas`).  Returns a :class:`StandingQuery`
        carrying the registration-time answers and everything needed to
        project the view's future :class:`~repro.engine.maintenance.ViewDelta`\\ s
        onto this query's answer tuples.

        Idempotent per ``(query shape, constants, token)``: re-registering
        (e.g. to resynchronise after a budget-dropped view) re-pins and
        returns the *current* answers without re-deriving anything already
        materialised.  Raises the session's scope error outside the
        rewritable fragment, and :class:`~repro.errors.SubscriptionError`
        when the seed's cone cannot be held within ``max_atoms``.
        """
        # raises outside the fragment
        plan_key, plan, constants = self._plan_entry(query)
        entry = self._view_entry(plan_key, plan)
        seed = plan.program.seed(constants)
        if seed in entry.seeds:
            entry.seeds.move_to_end(seed)
        else:
            try:
                entry.view.apply_delta(additions=[seed])
            except SolverLimitError as error:
                # A half-injected seed leaves the view silently under-derived
                # for this constant vector forever; drop it (the next miss
                # rebuilds cleanly) and refuse the registration.
                self._views.pop(plan_key, None)
                self._report()
                raise SubscriptionError(
                    "the standing query's derivation cone exceeds max_atoms; "
                    "its view cannot be maintained exactly"
                ) from error
            entry.seeds[seed] = None
        entry.pins.setdefault(seed, set()).add(token)
        self._standing_tokens.add(token)
        self._capture_deltas = True
        answers = plan.program.collect_answers(entry.view.index, constants)
        self._report()
        return StandingQuery(
            query=query,
            plan_key=plan_key,
            constants=constants,
            seed=seed,
            goal=plan.program.goal.renamed,
            answer_arity=plan.program.answer_arity,
            depends=plan.depends,
            answers=answers,
        )

    def release_standing(self, standing: StandingQuery, token) -> None:
        """Drop *token*'s pin on a standing query's seed (idempotent).

        The seed (and the view) become ordinary LRU citizens again once the
        last token releases them; capture stays on while any standing query
        remains registered.
        """
        entry = self._views.get(standing.plan_key)
        if entry is not None:
            tokens = entry.pins.get(standing.seed)
            if tokens is not None:
                tokens.discard(token)
                if not tokens:
                    del entry.pins[standing.seed]
        self._standing_tokens.discard(token)
        if not self._standing_tokens:
            self._capture_deltas = False
            self._pending_touched.clear()
            self._pending_views.clear()
            self._pending_lost.clear()

    def standing_exact(self, standing: StandingQuery) -> bool:
        """``True`` while the standing query's view and seed are still live —
        i.e. the next :meth:`drain_standing_deltas` accounts exactly for its
        answer changes.  ``False`` after a budget drop: the subscriber must
        resynchronise (typically by re-registering)."""
        entry = self._views.get(standing.plan_key)
        return entry is not None and standing.seed in entry.seeds

    def standing_answers(self, standing: StandingQuery) -> Optional[frozenset]:
        """The standing query's current answers read off its live view (one
        filtered goal-relation scan, no re-evaluation), or ``None`` when the
        view or seed is gone (:meth:`standing_exact` is ``False``)."""
        if not self.standing_exact(standing):
            return None
        entry = self._views[standing.plan_key]
        answers = entry.plan.program.collect_answers(
            entry.view.index, standing.constants
        )
        self._report()
        return answers

    def set_fact_capture(self, enabled: bool) -> None:
        """Turn base-fact delta capture on or off (replication support).

        While enabled, every mutation's **net** base-fact change accumulates
        for :meth:`drain_fact_deltas` — the replication publisher drains it
        once per epoch publish.  Like standing-query capture, only the
        mutation path records anything: read-side seed injections never
        pollute the stream.  Disabling clears whatever was pending.
        """
        self._capture_facts = enabled
        if not enabled:
            self._pending_fact_added.clear()
            self._pending_fact_removed.clear()

    def drain_fact_deltas(
        self,
    ) -> Optional[Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]]:
        """The net ``(added, removed)`` base facts since the previous drain,
        then reset; ``None`` when capture is off.

        Multiple mutations between drains compose into one net delta — the
        same composition :meth:`drain_standing_deltas` applies to view
        deltas — so a replica that applies each drained delta through
        :meth:`apply_batch` reconstructs this session's fact base exactly,
        revision for revision.
        """
        if not self._capture_facts:
            return None
        drained = (
            tuple(self._pending_fact_added),
            tuple(self._pending_fact_removed),
        )
        self._pending_fact_added.clear()
        self._pending_fact_removed.clear()
        return drained

    def drain_standing_deltas(self) -> StandingDeltas:
        """The net per-plan :class:`~repro.engine.maintenance.ViewDelta`\\ s
        accumulated since the previous drain, then reset.

        Captured inside the mutation path (:meth:`apply_batch` /
        :meth:`add_facts` / :meth:`remove_facts`) only — seed injections and
        prunings on the read path never pollute the stream.  Multiple
        mutations between drains compose into one net delta per plan.  The
        single-writer serving layer drains once per epoch publish and fans
        the result out to subscribers; see ``repro.service.subscriptions``.
        """
        if not (
            self._pending_touched or self._pending_views or self._pending_lost
        ):
            return _EMPTY_STANDING_DELTAS
        symbols = self._index.symbols
        views = {
            key: ViewDelta(frozenset(added), frozenset(removed), symbols)
            for key, (added, removed) in self._pending_views.items()
            if added or removed
        }
        drained = StandingDeltas(
            touched=frozenset(self._pending_touched),
            views=views,
            lost=frozenset(self._pending_lost),
        )
        self._pending_touched.clear()
        self._pending_views.clear()
        self._pending_lost.clear()
        return drained

    def _capture_view_delta(self, key: tuple, delta: ViewDelta) -> None:
        """Fold one repair's delta rows into the pending net-change for its plan."""
        if not delta:
            return
        added, removed = self._pending_views.setdefault(key, (set(), set()))
        for entry in delta.added_rows:
            if entry in removed:
                removed.discard(entry)
            else:
                added.add(entry)
        for entry in delta.removed_rows:
            if entry in added:
                added.discard(entry)
            else:
                removed.add(entry)

    def add_facts(self, atoms: Iterable[Atom]) -> int:
        """Insert facts; returns the number actually new.

        Cached answers whose dependency cone misses the mutated predicates
        survive; the rest are repaired in place from their plan's maintained
        view, or evicted when no view backs them (fallback).
        """
        return self.apply_batch((("add", atoms),))[0]

    def remove_facts(self, atoms: Iterable[Atom]) -> int:
        """Remove facts; returns the number actually removed.

        Removal maintains the base index in place (the head index supports
        deletion; only its forks are add-only).  Each plan's materialised view absorbs
        the deletion as a delta — counting / Delete-and-Rederive, cost
        proportional to the affected cone — and the intersecting cached
        answers are repaired in place (``answers_repaired``); dependency-cone
        *eviction* is only the fallback when no derivation counts back an
        answer.
        """
        return self.apply_batch((("remove", atoms),))[0]

    def apply_batch(
        self, operations: Iterable[Tuple[str, Iterable[Atom]]]
    ) -> List[int]:
        """Apply a sequence of ``("add" | "remove", atoms)`` operations as
        **one** logical mutation.

        The operations are applied to the fact base in order, so each one
        sees the effect of the previous ones, and the returned list carries
        the exact per-operation counts — precisely what the corresponding
        sequence of :meth:`add_facts` / :meth:`remove_facts` calls would
        have returned.  But the *derived* state is settled only once, from
        the batch's **net** fact change: one revision bump, one repair (or
        invalidation) pass over the maintained views and cached answers,
        instead of one per call.  An atom added and removed within the same
        batch (or vice versa) cancels out and triggers no repair at all; a
        batch whose net change is empty leaves the revision and every cache
        untouched.  This is the primitive the write-coalescing queue of
        :class:`repro.service.DatalogService` batches bursts into.
        """
        ops = [(kind, tuple(atoms)) for kind, atoms in operations]
        for kind, _ in ops:
            if kind not in ("add", "remove"):
                raise ValueError(f"unknown batch operation {kind!r}")
        counts: List[int] = []
        #: atom -> net effect on the fact base (+1 added, -1 removed, 0 both)
        net: dict[Atom, int] = {}
        try:
            for kind, atoms in ops:
                count = 0
                if kind == "add":
                    for atom in atoms:
                        if self._index.add(atom):
                            count += 1
                            net[atom] = net.get(atom, 0) + 1
                else:
                    for atom in atoms:
                        if self._index.remove(atom):
                            count += 1
                            net[atom] = net.get(atom, 0) - 1
                counts.append(count)
        finally:
            # Settle derived state even if an operation raised mid-batch:
            # whatever reached the index must reach the views and caches.
            added = [atom for atom, delta in net.items() if delta > 0]
            removed = [atom for atom, delta in net.items() if delta < 0]
            if added or removed:
                self._mutate(added=added, removed=removed)
            self._report()
        return counts

    def _mutate(
        self,
        added: Sequence[Atom] = (),
        removed: Sequence[Atom] = (),
    ) -> None:
        """Advance the revision and repair (or invalidate) derived state."""
        tracer = self._active_tracer()
        span = (
            tracer.start(
                "session.mutate", added=len(added), removed=len(removed)
            )
            if tracer.enabled
            else None
        )
        repaired = retained = 0
        try:
            repaired, retained = self._mutate_inner(added, removed)
        finally:
            if span is not None:
                span.finish(repaired=repaired, retained=retained)

    def _active_tracer(self):
        """The session's explicit tracer, else the process-global one."""
        return self._tracer if self._tracer is not None else get_tracer()

    def _mutate_inner(
        self,
        added: Sequence[Atom] = (),
        removed: Sequence[Atom] = (),
    ) -> Tuple[int, int]:
        """:meth:`_mutate`'s work; returns the cached answers it repaired
        and those it retained."""
        touched = {atom.predicate for atom in added}
        touched.update(atom.predicate for atom in removed)
        if self._capture_deltas:
            self._pending_touched.update(touched)
        if self._capture_facts:
            # Net-compose across mutations between drains: an atom added and
            # then removed (or vice versa) cancels out, mirroring how the
            # per-plan view deltas compose — a replica applying the drained
            # delta lands on exactly this session's fact base.
            for atom in added:
                if atom in self._pending_fact_removed:
                    self._pending_fact_removed.discard(atom)
                else:
                    self._pending_fact_added.add(atom)
            for atom in removed:
                if atom in self._pending_fact_added:
                    self._pending_fact_added.discard(atom)
                else:
                    self._pending_fact_removed.add(atom)
        self._revision += 1
        self._snapshot = None
        self._export_snapshot = None
        self._invalidations.inc()
        if not self._evaluator.rewritable:
            # No dependency cones without plans: evict everything.
            self._answers.clear()
            self._wholesale_invalidations.inc()
            return 0, 0
        # Repair every maintained view first (O(affected cone) each), so the
        # answer pass below can re-read repaired materialisations.
        for key in list(self._views):
            entry = self._views[key]
            depends = entry.plan.depends
            relevant_added = [a for a in added if a.predicate in depends]
            relevant_removed = [a for a in removed if a.predicate in depends]
            if relevant_added or relevant_removed:
                try:
                    delta = entry.view.apply_delta(
                        additions=relevant_added, deletions=relevant_removed
                    )
                    if self._capture_deltas:
                        self._capture_view_delta(key, delta)
                except SolverLimitError:
                    # The repair blew the max_atoms budget: drop the view and
                    # let the answer pass below evict its answers (they are
                    # re-evaluated — and the budget re-enforced — on the
                    # next miss).  A mutation itself must never raise.  A
                    # half-applied repair also means whatever was captured
                    # for this plan is not a trustworthy net delta: mark the
                    # plan lost so standing queries resynchronise.
                    del self._views[key]
                    if self._capture_deltas:
                        self._pending_views.pop(key, None)
                        self._pending_lost.add(key)
        self._predicate_invalidations.inc()
        repaired = retained = 0
        for cache_key in list(self._answers):
            _, depends, plan_key, constants, seed = self._answers[cache_key]
            if depends is not None and touched.isdisjoint(depends):
                retained += 1
                continue
            entry = self._views.get(plan_key) if plan_key is not None else None
            # Repairable only while the view still holds this answer's seed
            # (a rebuilt or budget-dropped view starts seedless — collecting
            # from it would silently return nothing).
            if entry is not None and seed in entry.seeds:
                # Repair in place: the view is already consistent with the
                # new fact base, so the answer is one filtered scan of its
                # goal relation — no re-derivation.
                self._answers[cache_key] = (
                    entry.plan.program.collect_answers(
                        entry.view.index, constants
                    ),
                    depends,
                    plan_key,
                    constants,
                    seed,
                )
                repaired += 1
                continue
            del self._answers[cache_key]
        self._answers_repaired.inc(repaired)
        self._answers_retained.inc(retained)
        return repaired, retained

    def _ensure_snapshot(self) -> RelationSnapshot:
        if self._snapshot is None:
            self._snapshot = self._index.snapshot()
        return self._snapshot

    # ------------------------------------------------------------------ plans
    def plan_for(self, query: ConjunctiveQuery) -> QueryPlan:
        """The compiled plan for the query's shape."""
        return self._plan_entry(query)[1]

    def _plan_entry(
        self, query: ConjunctiveQuery
    ) -> Tuple[tuple, QueryPlan, Tuple[Constant, ...]]:
        """The plan, its view key (the query shape) and the query's
        constants (the plan's parameters): a live view's own plan, else the
        evaluator's.  The one place a session canonicalises a query."""
        key, constants = _query_shape(query)
        entry = self._views.get(key)
        if entry is not None:
            self._views.move_to_end(key)
            self._plan_hits.inc()
            return key, entry.plan, constants
        plan, compiled = self._evaluator._plan(query, key)
        (self._plan_misses if compiled else self._plan_hits).inc()
        return key, plan, constants

    def _view_entry(self, key: tuple, plan: QueryPlan) -> _PlanView:
        """The plan's maintained view, built once over its dependency cone."""
        entry = self._views.get(key)
        if entry is None:
            # Per-predicate fetch keeps construction O(cone), not O(|DB|).
            facts = [
                atom
                for predicate in plan.depends
                for atom in self._index.candidates(predicate)
            ]
            view = MaterializedView(
                plan.program.rules,
                facts,
                stratification=plan.program.stratification,
                statistics=self._engine,
                max_atoms=self._evaluator.max_atoms,
            )
            entry = self._store_view(key, plan, view)
        return entry

    def _store_view(
        self, key: tuple, plan: QueryPlan, view: MaterializedView
    ) -> _PlanView:
        """Register a new plan view, evicting the coldest past the bound."""
        while len(self._views) >= self._plan_cache_size:
            # Standing queries pin their view: evicting it would break the
            # exact deltas they are served from.  Evict the coldest
            # *unpinned* view instead; if every view is pinned the cache
            # runs over its bound (the subscriber count is the floor).
            cold = next(
                (key_ for key_, entry_ in self._views.items() if not entry_.pins),
                None,
            )
            if cold is None:
                break
            del self._views[cold]
        entry = _PlanView(plan=plan, view=view)
        self._views[key] = entry
        self._views_built.inc()
        return entry

    # ---------------------------------------------------------------- answers
    def answers(self, query: ConjunctiveQuery) -> frozenset[Tuple[Term, ...]]:
        """The certain answer tuples of *query* over the session state."""
        # The query itself (frozen, structurally hashed) is the cache key;
        # str(query) would conflate constants and variables sharing a name.
        cache_key = query
        tracer = self._active_tracer()
        tracing = tracer.enabled
        cached = self._answers.get(cache_key)
        if cached is not None:
            self._answers.move_to_end(cache_key)
            self._answer_hits.inc()
            if tracing:
                tracer.start(
                    "session.answers", cache="hit", revision=self._revision
                ).finish(answers=len(cached[0]))
            return cached[0]
        self._answer_misses.inc()
        span = (
            tracer.start(
                "session.answers", cache="miss", revision=self._revision
            )
            if tracing
            else None
        )
        try:
            entry = self._compute(query)
        except BaseException as error:
            if span is not None:
                span.finish(error=type(error).__name__)
            raise
        finally:
            self._report()
        result = entry[0]
        if span is not None:
            span.finish(answers=len(result))
        self._answers[cache_key] = entry
        while len(self._answers) > self._answer_cache_size:
            self._answers.popitem(last=False)
        return result

    #: For stratified Datalog¬ there is a unique stable model, so the
    #: perfect-model answers *are* the certain answers.
    certain_answers = answers

    def holds(self, query: ConjunctiveQuery) -> bool:
        """Boolean entailment: does the query have an answer?"""
        return bool(self.answers(query))

    def explain(self, query: ConjunctiveQuery, *, top: int = 10) -> ExplainReport:
        """Profile one evaluation of *query* and attribute where time went.

        The query is re-evaluated from scratch — caches and plan views
        bypassed, answer cache untouched — under a private tracer and
        per-rule profiler, in a throwaway overlay fork of the current
        revision's snapshot (:meth:`QueryPlan.execute_on`).  The returned
        :class:`ExplainReport` carries the compiled plan (magic-rewritten
        rules in stratum order), one :class:`StratumTiming` per stratum,
        and the ``top`` hottest rules by join time with their trigger and
        tuple counts.  ``str(report)`` renders the human-readable account.

        Cost is one uncached evaluation plus tracing overhead; sessions
        outside the rewritable fragment (fallback mode) have no plan to
        attribute and raise their scope error instead.
        """
        _, plan, constants = self._plan_entry(query)
        tracer = Tracer(capacity=4096)
        profiler = RuleProfiler()
        from time import perf_counter as _now

        t0 = _now()
        try:
            answers = plan.execute_on(
                self._ensure_snapshot(),
                query,
                constants=constants,
                max_atoms=self._evaluator.max_atoms,
                statistics=self._engine,
                tracer=tracer,
                profiler=profiler,
            )
        finally:
            self._report()
        wall_s = _now() - t0
        strata = tuple(
            StratumTiming(
                stratum=int(span.attributes.get("stratum", position)),
                rules=int(span.attributes.get("rules", 0)),
                atoms=int(span.attributes.get("atoms", 0)),
                wall_s=span.wall_s or 0.0,
                cpu_s=span.cpu_s or 0.0,
            )
            for position, span in enumerate(tracer.spans("engine.stratum"))
        )
        return ExplainReport(
            query=str(query),
            shape=plan.shape,
            digest=plan.digest,
            plan_rules=tuple(str(rule) for rule in plan.program.rules),
            strata=strata,
            hot_rules=tuple(profiler.top(top)),
            answers=answers,
            wall_s=wall_s,
        )

    def _compute(self, query: ConjunctiveQuery) -> tuple:
        """A miss's answer-cache entry (see ``_answers``)."""
        active = self._active_tracer()
        # Passed straight down to the engine so fixpoint/stratum spans nest
        # under the session.answers span; ``None`` when disabled keeps the
        # engine's per-call guard to one identity check.
        tracer = active if active.enabled else None
        evaluator = self._evaluator
        if not evaluator.rewritable:
            result = evaluator.fallback_answers(self._index, query)
            self._fallback_queries.inc()
            return result, None, None, None, None
        try:
            plan_key, plan, constants = self._plan_entry(query)
        except (UnsupportedClassError, StratificationError) as error:
            # Just the *query* leaves the fragment (nulls, function terms);
            # the homomorphism matcher of the stable path evaluates such
            # queries fine.
            result = evaluator.fallback_answers(self._index, query, error)
            self._fallback_queries.inc()
            return result, None, None, None, None
        # Maintained-view path: inject this query's magic seed as an
        # incremental delta (a no-op for an already-seen constant
        # vector) and read the goal relation filtered to it.  The
        # answer is tagged with the plan key so later mutations can
        # repair it in place.
        entry = self._view_entry(plan_key, plan)
        seed = plan.program.seed(constants)
        if seed in entry.seeds:
            entry.seeds.move_to_end(seed)  # LRU recency
        else:
            try:
                entry.view.apply_delta(additions=[seed])
            except SolverLimitError:
                # The shared view accumulates every seed's derivation
                # cone, so the budget can trip on a query that fits on
                # its own under the documented per-evaluation
                # semantics.  A half-injected seed would also leave
                # the view silently under-derived for this constant
                # vector forever: drop the view and answer this query
                # on a throwaway fork instead, which enforces
                # max_atoms per evaluation — only a genuinely
                # over-budget query still raises.
                self._views.pop(plan_key, None)
                result = plan.execute_on(
                    self._ensure_snapshot(),
                    query,
                    constants=constants,
                    max_atoms=self._evaluator.max_atoms,
                    statistics=self._engine,
                    tracer=tracer,
                )
                return result, plan.depends, None, None, None
            # Recorded only after the cascade succeeded.
            entry.seeds[seed] = None
        result = plan.program.collect_answers(entry.view.index, constants)
        if len(entry.seeds) > self._view_seed_cap:
            try:
                while len(entry.seeds) > self._view_seed_cap:
                    # Prune the coldest seed: its magic cone cascades
                    # away as a deletion delta (O(cone), no rebuild),
                    # bounding the view's growth in a long session.
                    # Seeds pinned by standing queries are exempt —
                    # pruning one would silently break its exact
                    # delta stream; with every seed pinned the view
                    # runs over the cap (subscribers are the floor).
                    cold = next(
                        (
                            seed_
                            for seed_ in entry.seeds
                            if seed_ not in entry.pins
                        ),
                        None,
                    )
                    if cold is None:
                        break
                    del entry.seeds[cold]
                    entry.view.apply_delta(deletions=[cold])
            except SolverLimitError:
                # A half-pruned view must never stay registered (it
                # would silently under-answer); the answer already
                # collected above is still valid, so drop the view
                # and let the next miss rebuild it cleanly.
                self._views.pop(plan_key, None)
        return result, plan.depends, plan_key, constants, seed


def try_goal_directed(
    database: Database | Iterable[Atom],
    rules,
    query: ConjunctiveQuery,
    *,
    max_atoms: Optional[int] = None,
) -> Optional[frozenset]:
    """Certain answers via magic sets, or ``None`` outside the fragment.

    For existential-free stratified rules the unique stable model is the
    perfect model, so the goal-directed answers are exactly the certain (and
    brave) answers — this is the fast path :mod:`repro.stable` takes before
    falling back to stable-model enumeration.  Returns ``None`` (instead of
    raising) when the rules or the query leave the rewritable fragment.
    """
    try:
        plan = compile_query_plan(rules, query)
    except (UnsupportedClassError, StratificationError):
        return None
    facts = database.atoms if isinstance(database, Database) else database
    return plan.execute_on(RelationIndex(facts), query, max_atoms=max_atoms)


def program_digest_or_none(rules) -> Optional[str]:
    """A digest when the rules normalise, else a digest of their reprs."""
    try:
        return program_digest(rules)
    except UnsupportedClassError:
        payload = "\n".join(sorted(str(rule) for rule in rules))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _as_rule_set(rules):
    from ..core.rules import RuleSet
    from ..lp.programs import NormalProgram, NormalRule

    if isinstance(rules, RuleSet):
        return rules
    if isinstance(rules, NormalProgram):
        return rules.as_rule_set()
    items = tuple(rules)
    if any(isinstance(rule, NormalRule) for rule in items):
        # A mixed/plain iterable of normal rules: NTGD-ify through the
        # NormalProgram view, which the stable engine can evaluate.
        return NormalProgram(
            tuple(rule for rule in items if isinstance(rule, NormalRule))
        ).as_rule_set().extend(
            rule for rule in items if not isinstance(rule, NormalRule)
        )
    return RuleSet(items)
