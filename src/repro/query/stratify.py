"""Stratification analysis: predicate dependency graphs and SCC strata.

A normal (existential-free) program is *stratified* when its predicate
dependency graph — an edge from every body predicate to the head predicate,
marked negative when the body literal is negated — has no cycle through a
negative edge.  Stratified programs have a unique stable model (the *perfect*
model, Apt-Blair-Walker), which is also their well-founded model; this is the
fragment on which the paper's three semantics (Section 4) provably coincide
and on which goal-directed rewriting (:mod:`repro.query.magic`) is sound.

The analysis here condenses the dependency graph into strongly connected
components (iterative Tarjan), rejects components containing an internal
negative edge with :class:`~repro.errors.StratificationError`, and assigns
each predicate the smallest stratum compatible with

* ``stratum(head) >= stratum(b)``     for positive body predicates ``b``,
* ``stratum(head) >  stratum(b)``     for negated body predicates ``b``.

:func:`evaluate_stratified` then runs the shared semi-naive
:func:`~repro.engine.seminaive.fixpoint` driver once per stratum over a single
growing :class:`~repro.engine.index.RelationIndex`: by the time a stratum's
rules test a negative literal, the negated predicate's stratum is complete, so
testing absence against the growing index is exact — no global loop, no
unstratified re-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom, Literal, Predicate
from ..core.rules import NTGD, RuleSet
from ..engine import RelationIndex, RelationSnapshot, fixpoint
from ..engine.stats import EngineStatistics
from ..errors import StratificationError, UnsupportedClassError
from ..lp.programs import NormalProgram, NormalRule

__all__ = [
    "DependencyGraph",
    "Stratification",
    "normalize_rules",
    "dependency_graph",
    "stratify",
    "evaluate_stratified",
    "perfect_model",
    "relevant_predicates",
]


def normalize_rules(rules) -> Tuple[NormalRule, ...]:
    """Normalise a rule collection to existential-free :class:`NormalRule`\\ s.

    Accepts a :class:`~repro.core.rules.RuleSet` (or iterable of NTGDs), a
    :class:`~repro.lp.programs.NormalProgram`, or an iterable of
    :class:`NormalRule`.  NTGDs with conjunctive heads are split into one
    normal rule per head atom, which preserves least-model and stratified
    semantics.  Rules with existential variables are outside the Datalog
    fragment and raise :class:`~repro.errors.UnsupportedClassError`.
    """
    if isinstance(rules, NormalProgram):
        return tuple(rules)
    items = list(rules)
    normalised: List[NormalRule] = []
    for rule in items:
        if isinstance(rule, NormalRule):
            normalised.append(rule)
            continue
        if not isinstance(rule, NTGD):
            raise UnsupportedClassError(
                f"cannot normalise rule object {rule!r} for goal-directed evaluation"
            )
        if rule.existential_variables:
            raise UnsupportedClassError(
                f"rule {rule} has existential variables; goal-directed "
                "rewriting covers the existential-free (Datalog) fragment"
            )
        positive = tuple(lit.atom for lit in rule.positive_body)
        negative = tuple(lit.atom for lit in rule.negative_body)
        for head in rule.head:
            normalised.append(
                NormalRule(head, positive, negative, label=rule.label)
            )
    return tuple(normalised)


@dataclass(frozen=True)
class DependencyGraph:
    """The predicate dependency graph of a normal program.

    ``edges[p]`` lists the ``(q, positive)`` pairs such that some rule with
    head predicate ``q`` mentions ``p`` in its body (``positive`` records the
    literal's polarity; a predicate feeding another both ways appears twice).
    """

    predicates: Tuple[Predicate, ...]
    edges: Dict[Predicate, Tuple[Tuple[Predicate, bool], ...]]

    def successors(self, predicate: Predicate) -> Tuple[Tuple[Predicate, bool], ...]:
        return self.edges.get(predicate, ())


def dependency_graph(rules: Iterable[NormalRule]) -> DependencyGraph:
    """Build the predicate dependency graph of *rules*."""
    edge_sets: Dict[Predicate, Set[Tuple[Predicate, bool]]] = {}
    predicates: Set[Predicate] = set()
    for rule in rules:
        head = rule.head.predicate
        predicates.add(head)
        for atom in rule.positive_body:
            predicates.add(atom.predicate)
            edge_sets.setdefault(atom.predicate, set()).add((head, True))
        for atom in rule.negative_body:
            predicates.add(atom.predicate)
            edge_sets.setdefault(atom.predicate, set()).add((head, False))
    ordered = tuple(sorted(predicates, key=lambda p: (p.name, p.arity)))
    edges = {
        predicate: tuple(
            sorted(edge_sets.get(predicate, ()), key=lambda e: (e[0].name, e[0].arity, not e[1]))
        )
        for predicate in ordered
    }
    return DependencyGraph(ordered, edges)


def _strongly_connected_components(
    graph: DependencyGraph,
) -> Dict[Predicate, int]:
    """Iterative Tarjan SCC; returns a predicate -> component-id mapping."""
    index_of: Dict[Predicate, int] = {}
    lowlink: Dict[Predicate, int] = {}
    component: Dict[Predicate, int] = {}
    stack: List[Predicate] = []
    on_stack: Set[Predicate] = set()
    counter = 0
    components = 0

    for root in graph.predicates:
        if root in index_of:
            continue
        work: List[Tuple[Predicate, int]] = [(root, 0)]
        while work:
            node, child_position = work[-1]
            if child_position == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = graph.successors(node)
            while child_position < len(successors):
                successor = successors[child_position][0]
                child_position += 1
                if successor not in index_of:
                    work[-1] = (node, child_position)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = components
                    if member == node:
                        break
                components += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return component


@dataclass(frozen=True)
class Stratification:
    """A stratified normal program, grouped and ready for evaluation.

    Attributes
    ----------
    strata:
        The rules grouped by the stratum of their head predicate, lowest
        stratum first.
    stratum_of:
        The stratum index assigned to every predicate of the program
        (extensional predicates sit in stratum 0).
    graph:
        The predicate dependency graph the strata were computed from.
    component_of:
        The dependency-graph SCC id of every predicate.  Two predicates in
        the same component are mutually recursive; a rule is *recursive*
        iff its head shares a component with one of its positive body
        predicates — the test :class:`repro.engine.maintenance.MaterializedView`
        uses to pick counting vs Delete-and-Rederive per stratum (stratum
        equality would be wrong: positive edges never raise strata, so
        unrelated non-recursive predicates routinely share a stratum).
    """

    strata: Tuple[Tuple[NormalRule, ...], ...]
    stratum_of: Dict[Predicate, int]
    graph: DependencyGraph
    component_of: Dict[Predicate, int]

    @property
    def is_definite(self) -> bool:
        """``True`` iff the program has a single stratum (no negation)."""
        return len(self.strata) <= 1

    def stratum(self, predicate: Predicate) -> int:
        return self.stratum_of.get(predicate, 0)


def stratify(rules) -> Stratification:
    """Stratify *rules*, raising :class:`StratificationError` when impossible.

    The input is normalised through :func:`normalize_rules`; the result groups
    the rules by head-predicate stratum so that
    :func:`evaluate_stratified` can run them bottom-up.
    """
    normal = normalize_rules(rules)
    graph = dependency_graph(normal)
    component = _strongly_connected_components(graph)

    # A negative edge inside one SCC is a cycle through negation.
    for source in graph.predicates:
        for target, positive in graph.successors(source):
            if not positive and component[source] == component[target]:
                cycle = sorted(
                    str(p) for p, c in component.items() if c == component[source]
                )
                raise StratificationError(
                    "program is not stratified: negative cycle through "
                    + ", ".join(cycle)
                )

    # Longest-path layering over the condensation: process predicates until
    # stable (the condensation is acyclic, so |predicates| rounds suffice).
    stratum_of: Dict[Predicate, int] = {p: 0 for p in graph.predicates}
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > len(graph.predicates) + 1:  # pragma: no cover - guarded by SCC check
            raise StratificationError("stratification did not converge")
        for source in graph.predicates:
            for target, positive in graph.successors(source):
                required = stratum_of[source] + (0 if positive else 1)
                if stratum_of[target] < required:
                    stratum_of[target] = required
                    changed = True

    height = max(stratum_of.values(), default=0) + 1
    grouped: List[List[NormalRule]] = [[] for _ in range(height)]
    for rule in normal:
        grouped[stratum_of[rule.head.predicate]].append(rule)
    return Stratification(
        tuple(tuple(group) for group in grouped), stratum_of, graph, component
    )


def evaluate_stratified(
    rules,
    facts: Iterable[Atom] = (),
    *,
    index: Optional[RelationIndex] = None,
    base: Optional[RelationSnapshot | RelationIndex] = None,
    statistics: Optional[EngineStatistics] = None,
    max_atoms: Optional[int] = None,
    stratification: Optional[Stratification] = None,
    tracer=None,
    profiler=None,
) -> RelationIndex:
    """Evaluate a stratified program bottom-up on the shared engine.

    Each stratum is one semi-naive :func:`~repro.engine.seminaive.fixpoint`
    over the growing index.  Stratification guarantees that every predicate a
    stratum negates is complete before the stratum starts, so the default
    "test absence against the growing index" of the fixpoint driver is exact
    here (cf. the soundness note on ``negative_against`` in the driver).

    Parameters
    ----------
    index:
        An existing index to grow in place (mutated!).
    base:
        A :class:`~repro.engine.index.RelationSnapshot` (or a head index,
        snapshotted here) to evaluate *over* without mutating: derivations go
        to a throwaway overlay fork sharing the base's pattern tables, so
        evaluation setup is O(1) in the base size instead of re-indexing
        every fact.  Mutually exclusive with *index*; *facts* then holds only
        the extra seeds (e.g. a magic seed), not the base facts.
    tracer / profiler:
        Optional :class:`~repro.obs.trace.Tracer` /
        :class:`~repro.obs.profile.RuleProfiler`, forwarded to every
        stratum's fixpoint.  With tracing enabled, each stratum is wrapped
        in an ``engine.stratum`` span (stratum index, rule count, atoms
        derived) — the per-stratum timings ``QuerySession.explain`` reads.
    """
    layered = stratification if stratification is not None else stratify(rules)
    if base is not None:
        if index is not None:
            raise ValueError("pass either index= or base=, not both")
        snapshot = base if isinstance(base, RelationSnapshot) else base.snapshot()
        target = snapshot.fork(statistics=statistics)
    else:
        target = index if index is not None else RelationIndex(statistics=statistics)
    target.update(facts)
    tracing = tracer is not None and tracer.enabled
    for position, stratum_rules in enumerate(layered.strata):
        seeds: List[Atom] = []
        rule_list: List[NormalRule] = []
        for rule in stratum_rules:
            if rule.is_fact and rule.head.is_ground:
                seeds.append(rule.head)
            else:
                rule_list.append(rule)
        span = (
            tracer.start(
                "engine.stratum",
                stratum=position,
                rules=len(stratum_rules),
                before=len(target),
            )
            if tracing
            else None
        )
        try:
            fixpoint(
                rule_list,
                seeds,
                index=target,
                max_atoms=max_atoms,
                statistics=statistics,
                tracer=tracer,
                profiler=profiler,
                limit_message="stratified evaluation exceeded max_atoms",
            )
        finally:
            if span is not None:
                span.finish(atoms=len(target))
    return target


def perfect_model(rules, facts: Iterable[Atom] = ()) -> frozenset[Atom]:
    """The perfect (unique stable) model of a stratified program over *facts*."""
    return evaluate_stratified(rules, facts).atoms()


def _rule_spans(
    rule,
) -> Tuple[Tuple[Predicate, ...], Tuple[Predicate, ...], Tuple[Predicate, ...]]:
    """(head, positive-body, negative-body) predicates of a rule of any shape.

    Works for :class:`NormalRule` and for NTGDs — including existential ones,
    which only the predicate-level analyses (not the rewriting) accept.
    """
    if isinstance(rule, NormalRule):
        return (
            (rule.head.predicate,),
            tuple(atom.predicate for atom in rule.positive_body),
            tuple(atom.predicate for atom in rule.negative_body),
        )
    if isinstance(rule, NTGD):
        return (
            tuple(atom.predicate for atom in rule.head),
            tuple(literal.predicate for literal in rule.positive_body),
            tuple(literal.predicate for literal in rule.negative_body),
        )
    raise UnsupportedClassError(
        f"cannot analyse rule object {rule!r} for predicate dependencies"
    )


def relevant_predicates(
    rules,
    targets: Iterable[Predicate],
    *,
    follow_negation: bool = True,
) -> frozenset[Predicate]:
    """The predicates a set of *targets* transitively depends on.

    Walks rule bodies backwards from the target predicates: every predicate in
    the body of a rule defining a relevant predicate is relevant.  With
    ``follow_negation`` (default) negative literals are followed too — the
    closure needed to *evaluate* the targets; without it the closure follows
    only positive edges — the support relation magic rewriting prunes with.
    The targets themselves are included.

    This is a predicate-level analysis, so unlike the rewriting it accepts
    existential rules too (the dependency cone slicing of
    :func:`repro.chase.query_driven_chase` and
    :func:`repro.lp.ground_program_for_query` relies on that).
    """
    spans = [_rule_spans(rule) for rule in rules]
    by_head: Dict[Predicate, List[Tuple[Predicate, ...]]] = {}
    for heads, positive, negative in spans:
        body = positive + negative if follow_negation else positive
        for head in heads:
            by_head.setdefault(head, []).append(body)
    relevant: Set[Predicate] = set(targets)
    frontier: List[Predicate] = list(relevant)
    while frontier:
        predicate = frontier.pop()
        for body in by_head.get(predicate, ()):
            for body_predicate in body:
                if body_predicate not in relevant:
                    relevant.add(body_predicate)
                    frontier.append(body_predicate)
    return frozenset(relevant)
