"""Join planning: compiled rules and body-literal ordering.

Matching a rule body against an interpretation is a multi-way join, and the
order in which the body literals are visited dominates the cost of the
backtracking search.  The planner applies the classic greedy heuristic used by
Datalog engines:

1. a literal whose arguments are (partially) **bound** — by constants, by the
   partial assignment, or by variables bound earlier in the plan — can use a
   hash index of :class:`~repro.engine.index.RelationIndex` and is strongly
   preferred over an unbound scan;
2. among equally bound literals, the one over the **smallest relation**
   (estimated by current relation cardinality) goes first, shrinking the
   intermediate result as early as possible;
3. negative literals always run last, once safety guarantees all their
   variables are bound, as pure ground-absence checks.

A :class:`CompiledRule` caches the normalised shape of a rule (head atoms,
positive and negative body atoms, the set of flexible terms per literal) so
repeated evaluation — fixpoint rounds, chase rounds, stability probes — pays
the analysis once.  :func:`compile_rule` memoises per rule object.

There is one join executor, :func:`enumerate_bindings`: an index
nested-loop join over interned rows.  An :class:`EncodedRule` lowers a
compiled rule onto a symbol table's integer ids; each step of its plan
probes the pattern hash table of the positions bound by the prefix
(``RelationIndex.rows_for``) and binds the rest of the row into flat int
slots.  :func:`enumerate_matches` is its object-level edge: it encodes a
partial assignment and delta atoms, and decodes each binding at yield.

Paper provenance: the planner is the engine-side realisation of the
homomorphism machinery of **Section 2** — matching a rule body (or query) is
computing the homomorphisms of a conjunction of literals into an
interpretation, ``q(I)``.  Every theorem-level computation rides on it: the
trigger discovery of the chase (**Lemma 8** bounds), the relevant grounding
of the Skolemization route (**Section 3.1**), the smaller-reduct-model
search of the stability check (**Definition 1**), and the sideways
information passing of the magic-set rewriting (:mod:`repro.query`), whose
bound/free adornments are aligned with this module's greedy order so that
rewritten programs probe exactly the hash indexes the planner would pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.atoms import Atom, Predicate
from ..core.terms import FunctionTerm, Null, Term
from ..obs.trace import get_tracer
from .index import Assignment, RelationIndex, is_flexible
from .intern import Row, SymbolTable
from .stats import EngineStatistics

__all__ = [
    "CompiledRule",
    "EncodedRule",
    "compile_rule",
    "encode_rule",
    "order_body",
    "enumerate_matches",
    "enumerate_bindings",
    "delta_steps",
]


def _flexible_terms(atom: Atom) -> frozenset[Term]:
    """The variables and nulls occurring (at any depth) in *atom*."""
    found: set[Term] = set()
    stack: List[Term] = list(atom.terms)
    while stack:
        term = stack.pop()
        if is_flexible(term):
            found.add(term)
        elif hasattr(term, "arguments"):
            stack.extend(term.arguments)  # type: ignore[attr-defined]
    return frozenset(found)


@dataclass(frozen=True)
class CompiledRule:
    """A rule normalised for the engine: heads plus split, analysed body.

    Applicable to every rule shape of the paper — NTGDs (Section 2), normal
    rules of the Skolemized programs (Section 3.1), and the ground rules of
    reduct computations — via :func:`compile_rule`'s structural sniffing.
    """

    heads: tuple[Atom, ...]
    positive: tuple[Atom, ...]
    negative: tuple[Atom, ...]
    source: object = field(default=None, compare=False, hash=False)
    #: flexible terms of each positive body atom, aligned with ``positive``.
    positive_terms: tuple[frozenset[Term], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.positive_terms:
            object.__setattr__(
                self,
                "positive_terms",
                tuple(_flexible_terms(atom) for atom in self.positive),
            )

    @property
    def body_terms(self) -> frozenset[Term]:
        found: set[Term] = set()
        for terms in self.positive_terms:
            found.update(terms)
        return frozenset(found)


def _split_rule(rule) -> tuple[tuple[Atom, ...], tuple[Atom, ...], tuple[Atom, ...]]:
    """Normalise NTGDs, normal rules and literal sequences to (heads, pos, neg)."""
    if hasattr(rule, "body") and hasattr(rule, "head"):  # NTGD-shaped
        positive = tuple(lit.atom for lit in rule.body if lit.positive)
        negative = tuple(lit.atom for lit in rule.body if not lit.positive)
        head = rule.head
        heads = tuple(head) if isinstance(head, tuple) else (head,)
        return heads, positive, negative
    if hasattr(rule, "positive_body"):  # NormalRule-shaped
        return (rule.head,), tuple(rule.positive_body), tuple(rule.negative_body)
    raise TypeError(f"cannot compile rule object {rule!r}")


_COMPILE_CACHE: Dict[tuple[int, bool], CompiledRule] = {}
#: Cap on memoised plans; beyond it the cache is reset (compilation is cheap,
#: unbounded growth across many transient rule sets is not).
_COMPILE_CACHE_LIMIT = 4096


def compile_rule(
    rule,
    *,
    ignore_negation: bool = False,
    statistics: Optional[EngineStatistics] = None,
) -> CompiledRule:
    """Compile *rule* (NTGD or normal rule), memoised per rule object.

    With ``ignore_negation`` the negative body is dropped — the Σ⁺ shape
    needed by the positive-closure computation of the relevant grounding
    (Section 3.1) and by the positive-projection over-approximations used in
    the chase termination arguments.
    """
    if isinstance(rule, CompiledRule):
        return rule
    key = (id(rule), ignore_negation)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None and cached.source is rule:
        return cached
    # Cache misses only: when the global tracer is on, rule compilation is
    # visible as an ``engine.compile_rule`` span (hits stay span-free — the
    # memoisation is the point, and the hot path must not allocate).
    tracer = get_tracer()
    span = (
        tracer.start("engine.compile_rule", ignore_negation=ignore_negation)
        if tracer.enabled
        else None
    )
    heads, positive, negative = _split_rule(rule)
    compiled = CompiledRule(
        heads, positive, () if ignore_negation else negative, source=rule
    )
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[key] = compiled
    if statistics is not None:
        statistics.rules_compiled += 1
    if span is not None:
        span.finish(
            positive=len(compiled.positive), negative=len(compiled.negative)
        )
    return compiled


def _bound_position_count(atom: Atom, bound: set[Term]) -> int:
    """How many argument positions of *atom* are resolvable given *bound* terms."""
    count = 0
    for term in atom.terms:
        if is_flexible(term):
            if term in bound:
                count += 1
        elif _flexible_terms_of_term(term) <= bound:
            # Constants are always bound; a function term counts once every
            # variable/null inside it is bound.
            count += 1
    return count


def _flexible_terms_of_term(term: Term) -> frozenset[Term]:
    found: set[Term] = set()
    stack: List[Term] = [term]
    while stack:
        current = stack.pop()
        if is_flexible(current):
            found.add(current)
        elif hasattr(current, "arguments"):
            stack.extend(current.arguments)  # type: ignore[attr-defined]
    return frozenset(found)


def order_body(
    compiled: CompiledRule,
    *,
    index: Optional[RelationIndex] = None,
    bound: frozenset[Term] = frozenset(),
    skip: int = -1,
) -> tuple[int, ...]:
    """A greedy join order over the positive body, as literal indices.

    Starting from the terms in *bound*, repeatedly pick the literal with the
    most bound argument positions, breaking ties by smallest estimated
    relation cardinality (``index.count``) and finally by written position for
    determinism.  ``skip`` excludes a literal (the delta literal of a
    semi-naive round, which is matched up front).

    The same most-bound-first discipline is mirrored by the sideways
    information passing strategy of the magic-set rewriting
    (:func:`repro.query.adornment.sips_order`), keeping the adornments of
    rewritten programs aligned with the access patterns chosen here.
    """
    remaining = [i for i in range(len(compiled.positive)) if i != skip]
    bound_terms = set(bound)
    plan: List[int] = []
    while remaining:
        def rank(i: int) -> tuple:
            atom = compiled.positive[i]
            bound_positions = _bound_position_count(atom, bound_terms)
            cardinality = index.count(atom.predicate) if index is not None else 0
            unbound = len(compiled.positive_terms[i] - bound_terms)
            return (-bound_positions, cardinality, unbound, i)

        best = min(remaining, key=rank)
        remaining.remove(best)
        plan.append(best)
        bound_terms.update(compiled.positive_terms[best])
    return tuple(plan)


# --------------------------------------------------------------------------
# The interned (row-plane) executor.
#
# An :class:`EncodedRule` lowers a :class:`CompiledRule` onto one symbol
# table's id space.  Term coding inside a positive body literal:
#
#   entry >= 0      the interned id of a fixed ground term (constants and
#                   variable-free function terms, interned at encode time);
#   entry <  0      slot ``-(entry + 1)``, bound during the join: a variable,
#                   a pattern null, or a *hidden slot* standing for a
#                   function term with variables or nulls inside.
#
# Head and negative-literal terms, and the arguments of the function term
# behind a hidden slot, use *specs*:
#
#   int >= 0            fixed id
#   int <  0            variable slot; unbound -> the head is not ground /
#                       the negative check is unsafe
#   (slot, null_id)     a pattern null: its binding if bound, else itself
#                       (nulls are ground data — an unbound head/negative
#                       null stands for itself, exactly as a substitution
#                       that does not bind it leaves it in place)
#   (name, (spec, ..))  a function term containing flexibles, rebuilt
#                       bottom-up through ``SymbolTable.encode_function``
#                       (the Skolem-head fast path: no term objects after
#                       the first occurrence)
#
# A hidden slot binds to the stored term's id like any other slot.  At the
# join's leaf that id is decomposed (``SymbolTable.structure``) against the
# term's spec by :func:`_unify`, which binds or compares the slots inside;
# a pattern null inside binds like a variable, as it does at the top level.
# Hidden slots are not in ``slot_of``, so decoded assignments never show
# them.

_Spec = Union[int, Tuple[int, int], Tuple[str, tuple]]


def _resolve_spec(
    spec: _Spec, binding: Sequence[Optional[int]], symbols: SymbolTable
) -> Optional[int]:
    """The id *spec* denotes under *binding*, or ``None`` if not ground."""
    if type(spec) is int:
        if spec >= 0:
            return spec
        return binding[-spec - 1]
    first = spec[0]
    if type(first) is int:  # (slot, null_id): a pattern null falls back to itself
        value = binding[first]
        return value if value is not None else spec[1]
    argument_ids: List[int] = []
    for sub in spec[1]:
        value = _resolve_spec(sub, binding, symbols)
        if value is None:
            return None
        argument_ids.append(value)
    return symbols.encode_function(first, tuple(argument_ids))


def _unify(
    spec: Tuple[str, tuple],
    tid: int,
    binding: List[Optional[int]],
    marks: List[int],
    symbols: SymbolTable,
) -> bool:
    """Match the stored term *tid* against a function-term *spec*.

    Slots inside are bound (and appended to *marks*, for the caller to
    unbind on backtrack) or compared with their binding; nested function
    terms recurse.
    """
    shape = symbols.structure(tid)
    if shape is None:
        return False
    function, argument_ids = shape
    name, arguments = spec
    if function != name or len(argument_ids) != len(arguments):
        return False
    for sub, value in zip(arguments, argument_ids):
        if type(sub) is int:
            if sub >= 0:
                if sub != value:
                    return False
                continue
            slot = -sub - 1
        elif type(sub[0]) is int:  # (slot, null_id): a pattern null binds
            slot = sub[0]
        else:
            if not _unify(sub, value, binding, marks, symbols):
                return False
            continue
        current = binding[slot]
        if current is None:
            binding[slot] = value
            marks.append(slot)
        elif current != value:
            return False
    return True


def _decoded_membership(symbols: SymbolTable, oracle):
    """A ``contains_row`` for a negation oracle whose ids are not
    *symbols*' (another table's index, or any container of atoms): the row
    is decoded and the atom looked up.

    Built here rather than inside :func:`enumerate_bindings`, whose
    per-call setup runs for every round and delta position of a fixpoint:
    a closure there would cost every call, not only the foreign-oracle
    ones.
    """
    atom_of = symbols.atom

    def contains_row(predicate: Predicate, row: Row) -> bool:
        return atom_of(predicate, row) in oracle

    return contains_row


class EncodedRule:
    """A :class:`CompiledRule` lowered onto one symbol table's id space.

    Flexible terms (variables and pattern nulls) across the positive body,
    the negative body and the heads are numbered into dense **slots** in
    first-occurrence order, and so is each distinct function term with
    flexibles inside that a positive body literal holds (a hidden slot,
    see the term coding above); a join binding is then a flat
    ``list[Optional[int]]`` indexed by slot — no term-keyed dict is
    allocated anywhere between the storage boundary and the API edge.
    """

    __slots__ = (
        "compiled",
        "symbols",
        "slots",
        "slot_of",
        "positive",
        "structures",
        "negatives",
        "head_specs",
        "_plans",
        "_programmes",
    )

    def __init__(self, compiled: CompiledRule, symbols: SymbolTable) -> None:
        self.compiled = compiled
        self.symbols = symbols
        self.slot_of: Dict[Term, int] = {}
        slots: List[Term] = []

        def slot_code(term: Term) -> int:
            slot = self.slot_of.get(term)
            if slot is None:
                slot = len(slots)
                self.slot_of[term] = slot
                slots.append(term)
            return -slot - 1

        def spec_of(term: Term) -> _Spec:
            if is_flexible(term):
                code = slot_code(term)
                if type(term) is Null:
                    return (-code - 1, symbols.encode_term(term))
                return code
            if isinstance(term, FunctionTerm) and _flexible_terms_of_term(term):
                return (
                    term.function,
                    tuple(spec_of(argument) for argument in term.arguments),
                )
            return symbols.encode_term(term)

        hidden: Dict[Term, int] = {}
        structures: List[Tuple[int, _Spec]] = []
        positive: List[Tuple[Predicate, tuple]] = []
        for atom in compiled.positive:
            entries: List[int] = []
            for term in atom.terms:
                if is_flexible(term):
                    entries.append(slot_code(term))
                elif _flexible_terms_of_term(term):
                    slot = hidden.get(term)
                    if slot is None:
                        slot = hidden[term] = len(slots)
                        slots.append(term)
                        structures.append((slot, spec_of(term)))
                    entries.append(-slot - 1)
                else:
                    entries.append(symbols.encode_term(term))
            positive.append((atom.predicate, tuple(entries)))
        self.positive = tuple(positive)
        #: (hidden slot, function-term spec) pairs, decomposed at the leaf
        self.structures = tuple(structures)
        self.negatives = tuple(
            (atom, atom.predicate, tuple(spec_of(term) for term in atom.terms))
            for atom in compiled.negative
        )
        self.head_specs = tuple(
            (atom.predicate, tuple(spec_of(term) for term in atom.terms))
            for atom in compiled.heads
        )
        self.slots = tuple(slots)
        #: (plan, initially-bound slots) -> compiled step list
        self._plans: Dict[tuple, tuple] = {}
        #: delta position (-1: the full body) -> the fixpoint's programme
        self._programmes: Dict[int, tuple] = {}

    def new_binding(self) -> List[Optional[int]]:
        return [None] * len(self.slots)

    def build_head_rows(
        self, binding: Sequence[Optional[int]]
    ) -> List[Tuple[Predicate, Row]]:
        """The ground head rows this binding derives (non-ground heads skipped)."""
        symbols = self.symbols
        out: List[Tuple[Predicate, Row]] = []
        for predicate, specs in self.head_specs:
            row: List[int] = []
            for spec in specs:
                value = _resolve_spec(spec, binding, symbols)
                if value is None:
                    break
                row.append(value)
            else:
                out.append((predicate, tuple(row)))
        return out

    def build_positive_atoms(self, binding: Sequence[Optional[int]]) -> Tuple[Atom, ...]:
        """The ground positive body under *binding* (canonical cached atoms).

        Valid only for complete bindings (every slot of the positive body
        bound) — i.e. what a finished join enumeration yields.
        """
        symbols = self.symbols
        decode = symbols.atom
        return tuple(
            decode(
                predicate,
                tuple(
                    entry if entry >= 0 else binding[-entry - 1]
                    for entry in entries
                ),
            )
            for predicate, entries in self.positive
        )

    def build_negative_atoms(self, binding: Sequence[Optional[int]]) -> Tuple[Atom, ...]:
        """The ground negative body under *binding* (canonical cached atoms)."""
        symbols = self.symbols
        decode = symbols.atom
        return tuple(
            decode(
                predicate,
                tuple(_resolve_spec(spec, binding, symbols) for spec in specs),
            )
            for _, predicate, specs in self.negatives
        )

    def build_head_atoms(self, binding: Sequence[Optional[int]]) -> List[Atom]:
        """The ground heads under *binding*, decoded (non-ground skipped)."""
        decode = self.symbols.atom
        return [
            decode(predicate, row) for predicate, row in self.build_head_rows(binding)
        ]

    def decode_binding(
        self,
        binding: Sequence[Optional[int]],
        partial: Optional[Mapping[Term, Term]] = None,
    ) -> Assignment:
        """The :data:`Assignment` equivalent of *binding*, extending
        *partial*: every bound variable and pattern null, decoded.  Hidden
        slots are not terms of the assignment and are left out."""
        result: Assignment = dict(partial) if partial else {}
        decode = self.symbols.decode_term
        for term, slot in self.slot_of.items():
            value = binding[slot]
            if value is not None:
                result[term] = decode(value)
        return result

    def steps_for(
        self, plan: Tuple[int, ...], bound_slots: frozenset
    ) -> tuple:
        """The per-literal probe programme for *plan* given pre-bound slots.

        Each step is ``(predicate, bound positions, key builders, static
        key, unbound (position, slot) pairs)``; builders reuse the literal
        entry coding (id or negative slot code).
        """
        cache_key = (plan, bound_slots)
        steps = self._plans.get(cache_key)
        if steps is not None:
            return steps
        bound = set(bound_slots)
        built: List[tuple] = []
        for literal_index in plan:
            predicate, entries = self.positive[literal_index]
            positions: List[int] = []
            builders: List[int] = []
            unbound: List[Tuple[int, int]] = []
            static = True
            new_slots: List[int] = []
            for position, entry in enumerate(entries):
                if entry >= 0:
                    positions.append(position)
                    builders.append(entry)
                else:
                    slot = -entry - 1
                    if slot in bound:
                        positions.append(position)
                        builders.append(entry)
                        static = False
                    else:
                        # Repeats of a slot first seen in this literal also
                        # land here: the first occurrence binds, the rest
                        # compare (bind-or-compare below).
                        unbound.append((position, slot))
                        new_slots.append(slot)
            bound.update(new_slots)
            static_key = tuple(builders) if (static and positions) else None
            built.append(
                (predicate, tuple(positions), tuple(builders), static_key, tuple(unbound))
            )
        steps = tuple(built)
        self._plans[cache_key] = steps
        return steps

    def programme(self, index: RelationIndex, delta_position: int = -1) -> tuple:
        """The step programme :func:`~repro.engine.seminaive.fixpoint` joins
        this rule with, memoised on the rule.

        ``delta_position`` -1 is the full body (round 1); any other value is
        :func:`delta_steps` for that delta position.  The first call plans
        with :func:`order_body` on the cardinalities *index* has then; every
        later round and every later fixpoint over this rule and symbol table
        reuses that programme.  Join order affects only cost, never the
        bindings enumerated.
        """
        steps = self._programmes.get(delta_position)
        if steps is None:
            if delta_position < 0:
                steps = self.steps_for(
                    order_body(self.compiled, index=index), frozenset()
                )
            else:
                steps = delta_steps(self, index, delta_position)
            # Racing threads may both plan; all of them use the first stored.
            steps = self._programmes.setdefault(delta_position, steps)
        return steps


_ENCODE_CACHE: Dict[Tuple[int, int], EncodedRule] = {}


def encode_rule(compiled: CompiledRule, symbols: SymbolTable) -> EncodedRule:
    """Lower *compiled* onto *symbols*, memoised per (rule, table) pair."""
    key = (id(compiled), id(symbols))
    cached = _ENCODE_CACHE.get(key)
    if cached is not None and cached.compiled is compiled and cached.symbols is symbols:
        return cached
    encoded = EncodedRule(compiled, symbols)
    if len(_ENCODE_CACHE) >= _COMPILE_CACHE_LIMIT:
        _ENCODE_CACHE.clear()
    _ENCODE_CACHE[key] = encoded
    return encoded


def _bound_slots(binding: Sequence[Optional[int]]) -> frozenset:
    return frozenset(slot for slot, value in enumerate(binding) if value is not None)


def delta_steps(
    encoded: EncodedRule,
    index: RelationIndex,
    delta_position: int,
    bound_slots: frozenset = frozenset(),
) -> tuple:
    """The step programme joining the rest of the body to a delta row.

    The literal at *delta_position* is matched against a delta row first;
    the others follow in :func:`order_body`'s greedy order, ranked by the
    cardinalities *index* has **now**.  :func:`enumerate_bindings` plans
    this on every delta call unless handed one through ``steps=``.
    :func:`~repro.engine.seminaive.fixpoint` takes it from
    :meth:`EncodedRule.programme`, which plans it once per (rule, delta
    position), at the first fixpoint whose delta reaches that position,
    and memoises it on the rule for every later round and fixpoint.
    """
    compiled = encoded.compiled
    _, entries = encoded.positive[delta_position]
    plan = order_body(
        compiled,
        index=index,
        bound=frozenset(encoded.slots[slot] for slot in bound_slots)
        | compiled.positive_terms[delta_position],
        skip=delta_position,
    )
    return encoded.steps_for(
        plan,
        bound_slots | frozenset(-entry - 1 for entry in entries if entry < 0),
    )


def enumerate_bindings(
    encoded: EncodedRule,
    index: RelationIndex,
    *,
    binding: Optional[List[Optional[int]]] = None,
    negative_against=None,
    delta_rows: Optional[Sequence[Tuple["Predicate", Row]]] = None,
    delta_position: Optional[int] = None,
    steps: Optional[tuple] = None,
    statistics: Optional[EngineStatistics] = None,
) -> Iterator[List[Optional[int]]]:
    """Enumerate slot bindings matching the encoded body into *index*.

    The join executor: a greedy plan (:func:`order_body`) over the pattern
    hash tables (``RelationIndex.rows_for``), where every probe key, every
    candidate and every binding is a flat int structure.  At the leaf,
    hidden slots are decomposed (:func:`_unify`) and the negative literals
    checked for absence from *negative_against* (default: *index*; an
    oracle on another symbol table is checked by decoded atoms); an unbound
    variable in a negative literal raises ``ValueError`` (unsafe pattern).
    A body with no positive literal has an empty programme: its one
    binding is checked at the leaf.  **Yields the live binding list** —
    callers that retain bindings across iterations must copy
    (``tuple(b)``).

    *steps* may carry a programme built for the same pre-bound slots as
    *binding* and the same *delta_position* (:func:`delta_steps`, or
    :meth:`EncodedRule.programme` for a fresh binding); the call then does
    no planning.
    """
    symbols = encoded.symbols
    if negative_against is None:
        contains_row = index.contains_row
    elif getattr(negative_against, "symbols", None) is symbols:
        contains_row = negative_against.contains_row
    else:
        contains_row = _decoded_membership(symbols, negative_against)
    if binding is None:
        binding = encoded.new_binding()
    negatives = encoded.negatives
    structures = encoded.structures
    rows_for = index.rows_for
    rows_of = index.rows_of

    def verify_negatives() -> bool:
        for atom, predicate, specs in negatives:
            row: List[int] = []
            for spec in specs:
                value = _resolve_spec(spec, binding, symbols)
                if value is None:
                    raise ValueError(
                        f"negative atom {atom} not fully bound (unsafe pattern)"
                    )
                row.append(value)
            if contains_row(predicate, tuple(row)):
                return False
        return True

    def run(steps: tuple, depth: int) -> Iterator[List[Optional[int]]]:
        if depth == len(steps):
            if not structures:
                if verify_negatives():
                    yield binding
                return
            inner: List[int] = []
            for slot, spec in structures:
                if not _unify(spec, binding[slot], binding, inner, symbols):
                    break
            else:
                if verify_negatives():
                    yield binding
            for slot in inner:
                binding[slot] = None
            return
        predicate, positions, builders, static_key, unbound = steps[depth]
        if positions:
            key = static_key
            if key is None:
                key = tuple(
                    entry if entry >= 0 else binding[-entry - 1]
                    for entry in builders
                )
            rows = rows_for(predicate, positions, key)
        else:
            rows = rows_of(predicate)
        if statistics is not None:
            statistics.tuples_scanned += len(rows)
        for row in rows:
            marks: Optional[List[int]] = None
            matched = True
            for position, slot in unbound:
                value = row[position]
                current = binding[slot]
                if current is None:
                    binding[slot] = value
                    if marks is None:
                        marks = [slot]
                    else:
                        marks.append(slot)
                elif current != value:
                    matched = False
                    break
            if matched:
                yield from run(steps, depth + 1)
            if marks is not None:
                for slot in marks:
                    binding[slot] = None

    if delta_position is None:
        if steps is None:
            bound_slots = _bound_slots(binding)
            plan = order_body(
                encoded.compiled,
                index=index,
                bound=frozenset(encoded.slots[slot] for slot in bound_slots),
            )
            steps = encoded.steps_for(plan, bound_slots)
        yield from run(steps, 0)
        return

    predicate, entries = encoded.positive[delta_position]
    if steps is None:
        steps = delta_steps(encoded, index, delta_position, _bound_slots(binding))
    rows = delta_rows if delta_rows is not None else ()
    if statistics is not None:
        statistics.tuples_scanned += len(rows)
    for delta_predicate, row in rows:
        if delta_predicate != predicate:
            continue
        marks: List[int] = []
        matched = True
        for position, entry in enumerate(entries):
            value = row[position]
            if entry >= 0:
                if entry != value:
                    matched = False
                    break
            else:
                slot = -entry - 1
                current = binding[slot]
                if current is None:
                    binding[slot] = value
                    marks.append(slot)
                elif current != value:
                    matched = False
                    break
        if matched:
            yield from run(steps, 0)
        for slot in marks:
            binding[slot] = None


def enumerate_matches(
    compiled: CompiledRule,
    index: RelationIndex,
    *,
    partial: Optional[Mapping[Term, Term]] = None,
    negative_against: Optional[RelationIndex] = None,
    delta: Optional[Sequence[Atom]] = None,
    delta_position: Optional[int] = None,
    statistics: Optional[EngineStatistics] = None,
) -> Iterator[Assignment]:
    """Enumerate assignments matching the compiled body into *index*.

    This is ``q(I)`` of Section 2 — the homomorphisms of the body into the
    indexed interpretation — executed as an index nested-loop join.  With
    ``delta``/``delta_position`` the literal at that position is matched
    only against the delta atoms (the semi-naive restriction); the remaining
    literals join against the full index.  Negative body atoms are checked for
    absence against ``negative_against`` (default: *index*) once the positive
    part is fully bound; a non-ground negative image raises ``ValueError``
    (unsafe pattern).

    The object-level edge of :func:`enumerate_bindings`: *partial* and the
    delta atoms are encoded onto the index's symbol table, and each binding
    is decoded to an assignment extending *partial* at yield.  Variables
    and nulls inside a function term need not be bound by *partial* or by
    another literal: decomposing the stored term binds them.
    """
    symbols = index.symbols
    encoded = encode_rule(compiled, symbols)
    binding = encoded.new_binding()
    if partial:
        slot_of = encoded.slot_of
        for term, value in partial.items():
            slot = slot_of.get(term)
            if slot is not None:
                binding[slot] = symbols.encode_term(value)
    delta_rows = None
    if delta_position is not None:
        encode = symbols.encode_atom
        delta_rows = [(atom.predicate, encode(atom)) for atom in (delta or ())]
    decode_binding = encoded.decode_binding
    for live in enumerate_bindings(
        encoded,
        index,
        binding=binding,
        negative_against=negative_against,
        delta_rows=delta_rows,
        delta_position=delta_position,
        statistics=statistics,
    ):
        yield decode_binding(live, partial)
