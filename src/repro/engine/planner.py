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
slots.  Each plan is generated once into a Python function
(:func:`generate_join`) with one nested ``for`` per step, and memoised
on the rule; nothing interprets the plan at run time.  So is the insert
of the rows a rule's bindings derive (:func:`generate_insert`), and the
builder of a firing's ground head, body and negative rows that a
maintained view keys its support records on (:func:`generate_firing`).
:func:`enumerate_matches` is its object-level edge: it encodes a partial
assignment and delta atoms, and decodes each binding at yield.

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
from types import CodeType
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
# term's spec, binding or comparing the slots inside; a pattern null inside
# binds like a variable, as it does at the top level.  Hidden slots are not
# in ``slot_of``, so decoded assignments never show them.
#
# Joins, inserts and firing builders are generated Python functions
# (:func:`generate_join`, :func:`generate_insert`, :func:`generate_firing`)
# with slot ``n`` in the local ``s<n>``.  A rule's insert is the semi-naive
# driver's per-row path: it takes one join's bindings, calls the driver's
# ``on_fire`` hook, builds each ground head row inline, stores it and files
# it as the next round's delta.  Its firing builder renders the same head
# rows (``_Writer.head_row``), plus the ground positive and negative body
# rows, for the maintained view, which keys the firings it records on them.
# Their source holds only ints and names the generator mints; every
# predicate, id, key, function name and message is bound in the function's
# namespace, so no user string reaches ``compile`` and programmes of the
# same shape share one code object.

_Spec = Union[int, Tuple[int, int], Tuple[str, tuple]]
#: A stored row and its predicate: the row plane's name for a ground atom.
Entry = Tuple[Predicate, Row]


def _decoded_membership(symbols: SymbolTable, oracle):
    """A ``contains_row`` for a negation oracle without *symbols* (any
    container of atoms, such as a set): the row is decoded and the atom
    looked up."""
    atom_of = symbols.atom

    def contains_row(predicate: Predicate, row: Row) -> bool:
        return atom_of(predicate, row) in oracle

    return contains_row


def negation_oracle(index: RelationIndex, negative_against=None):
    """The ``contains_row`` a join checks its negative literals with:
    *index*'s own (the default), *negative_against*'s when it shares
    *index*'s symbol table, else decoded-atom membership in it."""
    if negative_against is None:
        return index.contains_row
    if getattr(negative_against, "symbols", None) is index.symbols:
        return negative_against.contains_row
    return _decoded_membership(index.symbols, negative_against)


#: A generated join: ``join(binding, delta_rows, rows_for, rows_of,
#: contains_row, statistics)`` yielding slot-binding tuples.
_Join = Callable[..., Iterator[tuple]]
#: Code objects of generated functions, keyed by their source text.
_CODE_CACHE: Dict[str, CodeType] = {}
#: ``for`` loops per generated function: CPython rejects more than 20
#: statically nested blocks, so a longer join continues in a helper.
_MAX_LOOPS = 16
#: The arguments of a generated join after ``(binding, delta_rows)``.
_RUNTIME = ("rows_for", "rows_of", "contains_row", "statistics")


def _tuple(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _Writer:
    """One generated module: its functions' source lines, the namespace
    its minted names are bound in, and the slots bound at the current
    line of a join."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.functions: List[List[str]] = []
        self.namespace: Dict[str, object] = {
            "structure": symbols.structure,
            "encode_function": symbols.encode_function,
        }
        self.minted = 0
        self.bound: set = set()
        self.depth = self.loops = 0

    def name(self, prefix: str, value: object) -> str:
        """A fresh name bound to *value* in the namespace."""
        self.minted += 1
        self.namespace[f"{prefix}{self.minted}"] = value
        return f"{prefix}{self.minted}"

    def temporary(self) -> str:
        self.minted += 1
        return f"t{self.minted}"

    def entry(self, entry: int) -> str:
        """Source of a literal entry: a named id, or a slot's local."""
        return self.name("c", entry) if entry >= 0 else f"s{-entry - 1}"

    def open(self, name: str, parameters: Sequence[str]) -> None:
        self.functions.append([f"def {name}({', '.join(parameters)}):"])
        self.depth, self.loops = 1, 0

    def line(self, text: str) -> None:
        self.functions[-1].append("    " * self.depth + text)

    def reject_if(self, conditions: Sequence[str]) -> None:
        if conditions:
            self.line(f"if {' or '.join(conditions)}:")
            self.line("    continue" if self.loops else "    return")

    def loop(self, target: str, rows: str) -> None:
        """Count *rows* as scanned and iterate over them."""
        self.line("if statistics is not None:")
        self.line(f"    statistics.tuples_scanned += len({rows})")
        self.line(f"for {target} in {rows}:")
        self.depth += 1
        self.loops += 1

    def unpack(self, columns: Sequence) -> Tuple[str, List[str], list]:
        """The unpacking target of a row or argument tuple matched against
        *columns*, the conditions that reject it, and the nested function
        terms left to decompose.  A column ``None`` is matched already (by
        the probe key); an unbound slot code binds; a bound slot code or
        an id is compared; a function spec is decomposed."""
        names: List[str] = []
        conditions: List[str] = []
        nested: List[Tuple[str, tuple]] = []
        for column in columns:
            if column is None:
                names.append("_")
            elif type(column) is tuple:
                names.append(self.temporary())
                nested.append((names[-1], column))
            elif column < 0 and -column - 1 not in self.bound:
                self.bound.add(-column - 1)
                names.append(f"s{-column - 1}")
            else:
                names.append(self.temporary())
                conditions.append(f"{names[-1]} != {self.entry(column)}")
        return _tuple(names), conditions, nested

    def verify(self, conditions: List[str], nested: list) -> None:
        self.reject_if(conditions)
        for name, spec in nested:
            self.decompose(name, spec)

    def decompose(self, source: str, spec: Tuple[str, tuple]) -> None:
        """Match the stored term *source* names against a function spec;
        a pattern null ``(slot, null id)`` inside binds like a variable."""
        shape = self.temporary()
        self.line(f"{shape} = structure({source})")
        self.reject_if(
            [
                f"{shape} is None",
                f"{shape}[0] != {self.name('f', spec[0])}",
                f"len({shape}[1]) != {len(spec[1])}",
            ]
        )
        target, conditions, nested = self.unpack(
            [
                sub if type(sub) is int or type(sub[0]) is not int else -sub[0] - 1
                for sub in spec[1]
            ]
        )
        self.line(f"{target} = {shape}[1]")
        self.verify(conditions, nested)

    def probe(self, predicate: Predicate, entries: tuple) -> None:
        """One literal of the plan: fetch the rows that agree with its
        fixed ids and the slots bound before it, and loop over them."""
        if self.loops == _MAX_LOOPS:
            arguments = _RUNTIME + tuple(f"s{slot}" for slot in sorted(self.bound))
            helper = f"join{len(self.functions)}"
            self.line(f"yield from {helper}({', '.join(arguments)})")
            self.open(helper, arguments)
        keyed = [
            position
            for position, entry in enumerate(entries)
            if entry >= 0 or -entry - 1 in self.bound
        ]
        name = self.name("p", predicate)
        if not keyed:
            self.line(f"rows = rows_of({name})")
        else:
            key = [entries[position] for position in keyed]
            if all(entry >= 0 for entry in key):
                key_source = self.name("k", tuple(key))
            else:
                key_source = _tuple([self.entry(entry) for entry in key])
            positions = _tuple([str(position) for position in keyed])
            self.line(f"rows = rows_for({name}, {positions}, {key_source})")
        target, conditions, nested = self.unpack(
            [None if p in keyed else entry for p, entry in enumerate(entries)]
        )
        self.loop(target, "rows")
        self.verify(conditions, nested)

    def value(self, spec: _Spec) -> Optional[str]:
        """Source of the id *spec* denotes here, ``None`` while a variable
        in it is unbound."""
        if type(spec) is int:
            if spec >= 0 or -spec - 1 in self.bound:
                return self.entry(spec)
            return None
        if type(spec[0]) is int:  # a pattern null: its binding, else itself
            return f"s{spec[0]}" if spec[0] in self.bound else self.name("c", spec[1])
        arguments = [self.value(sub) for sub in spec[1]]
        if None in arguments:
            return None
        return f"encode_function({self.name('f', spec[0])}, {_tuple(arguments)})"

    def unpack_binding(self, width: int) -> None:
        """Bind a join binding of *width* slots to the slot locals."""
        if width:
            self.line(f"{_tuple([f's{s}' for s in range(width)])} = binding")

    def head_row(self, specs: Sequence[_Spec]) -> Tuple[str, List[str]]:
        """Source of the head row *specs* build from the slot locals, and
        the conditions under which it is ground: every variable in it
        bound (an unbound pattern null stands for itself)."""
        required: Dict[str, None] = {}

        def value(spec: _Spec) -> str:
            if type(spec) is int:
                if spec < 0:
                    required[f"s{-spec - 1} is not None"] = None
                return self.entry(spec)
            if type(spec[0]) is int:
                null = self.name("c", spec[1])
                return f"(s{spec[0]} if s{spec[0]} is not None else {null})"
            arguments = [value(sub) for sub in spec[1]]
            return f"encode_function({self.name('f', spec[0])}, {_tuple(arguments)})"

        return _tuple([value(spec) for spec in specs]), list(required)

    def build(self, entry: str):
        """Compile the module, or reuse the code of the same source, run it
        in the namespace and return its function *entry*."""
        source = "\n".join(line for lines in self.functions for line in lines) + "\n"
        code = _CODE_CACHE.get(source)
        if code is None:
            code = compile(source, "<generated>", "exec")
            if len(_CODE_CACHE) >= _COMPILE_CACHE_LIMIT:
                _CODE_CACHE.clear()
            _CODE_CACHE[source] = code
        exec(code, self.namespace)
        return self.namespace[entry]


def generate_join(
    encoded: "EncodedRule",
    plan: Tuple[int, ...],
    bound_slots: frozenset,
    delta_position: int = -1,
) -> _Join:
    """Lower one join programme to a generated generator function.

    *plan* orders the positive literals after the one at *delta_position*
    (-1: none), which is matched against the delta rows first, and
    *bound_slots* are read from the caller's binding.  The function
    is called as ``join(binding, delta_rows, rows_for, rows_of,
    contains_row, statistics)`` and yields a fresh tuple of
    ``len(encoded.slots)`` ids per binding, ``None`` for slots the join
    leaves unbound.  It counts ``statistics.tuples_scanned`` once per
    delta list and at every probe.  At the leaf it decomposes the hidden
    slots and checks the negative literals in order; one with an unbound
    variable raises ``ValueError`` (unsafe pattern).
    """
    writer = _Writer(encoded.symbols)
    writer.open("join", ("binding", "delta_rows") + _RUNTIME)
    for slot in sorted(bound_slots):
        writer.line(f"s{slot} = binding[{slot}]")
    writer.bound.update(bound_slots)
    if delta_position >= 0:
        predicate, entries = encoded.positive[delta_position]
        writer.loop("predicate, row", "delta_rows")
        writer.reject_if([f"predicate is not {writer.name('p', predicate)}"])
        target, conditions, nested = writer.unpack(entries)
        writer.line(f"{target} = row")
        writer.verify(conditions, nested)
    for literal in plan:
        writer.probe(*encoded.positive[literal])
    for slot, spec in encoded.structures:
        writer.decompose(f"s{slot}", spec)
    for atom, predicate, specs in encoded.negatives:
        values = [writer.value(spec) for spec in specs]
        if None in values:
            message = f"negative atom {atom} not fully bound (unsafe pattern)"
            writer.line(f"raise ValueError({writer.name('e', message)})")
            break
        writer.reject_if(
            [f"contains_row({writer.name('p', predicate)}, {_tuple(values)})"]
        )
    # Unreachable after a raise, but it keeps the function a generator, so
    # nothing runs before the caller iterates.
    slots = range(len(encoded.slots))
    writer.line(
        f"yield {_tuple([f's{s}' if s in writer.bound else 'None' for s in slots])}"
    )
    return writer.build("join")


#: A generated firing builder: ``firing(binding)`` returning the ground
#: ``(heads, body, negative)`` entries of one firing.
_Firing = Callable[[Sequence[Optional[int]]], tuple]


def generate_firing(encoded: "EncodedRule") -> _Firing:
    """Lower the rule to one generated ``firing(binding)``: the ground
    rows of the firing a complete join binding is, as ``(heads, body,
    negative)`` lists of ``(predicate, row)`` entries.  A head with an
    unbound variable is skipped (it is not ground) and an unbound pattern
    null stands for itself; the negative literals are bound, since the
    join checked them.  The maintained view keys the firings it records
    on these rows; inserting goes through :func:`generate_insert`."""
    writer = _Writer(encoded.symbols)
    writer.open("firing", ("binding",))
    writer.unpack_binding(len(encoded.slots))
    writer.line("heads = []")
    for predicate, specs in encoded.head_specs:
        row, required = writer.head_row(specs)
        append = f"heads.append(({writer.name('p', predicate)}, {row}))"
        if required:
            writer.line(f"if {' and '.join(required)}:")
            append = f"    {append}"
        writer.line(append)
    body = [
        f"({writer.name('p', predicate)}, "
        f"{_tuple([writer.entry(entry) for entry in entries])})"
        for predicate, entries in encoded.positive
    ]
    negative = [
        f"({writer.name('p', predicate)}, {writer.head_row(specs)[0]})"
        for _, predicate, specs in encoded.negatives
    ]
    writer.line(f"return heads, {_tuple(body)}, {_tuple(negative)}")
    return writer.build("firing")


#: A generated insert: ``insert(bindings, add_row, grouped, on_fire, room)``
#: returning the count of new rows.
_Insert = Callable[..., int]


def generate_insert(encoded: "EncodedRule") -> _Insert:
    """Lower the rule's heads to one generated ``insert(bindings, add_row,
    grouped, on_fire, room)``, the semi-naive driver's whole per-row path.

    For each binding of one join it calls ``on_fire(compiled, encoded,
    binding)`` when *on_fire* is not ``None``, then builds each ground head
    row inline (a head with an unbound variable is skipped, an unbound
    pattern null stands for itself) and stores it with ``add_row``; each
    row ``add_row`` reports new is filed under its predicate in *grouped*
    as a ``(predicate, row)`` entry, the next round's delta.  It returns
    the count of new rows, and returns at once when that count exceeds
    *room*, so the index holds exactly one row past a budget when the
    caller sees it.
    """
    writer = _Writer(encoded.symbols)
    writer.open("insert", ("bindings", "add_row", "grouped", "on_fire", "room"))
    writer.line("new = 0")
    #: head predicate -> (its minted name, the local holding its delta group)
    groups: Dict[Predicate, Tuple[str, str]] = {}
    for predicate, _ in encoded.head_specs:
        if predicate not in groups:
            name, group = writer.name("p", predicate), f"g{len(groups)}"
            groups[predicate] = (name, group)
            writer.line(f"{group} = grouped.get({name})")
    rule = f"{writer.name('r', encoded.compiled)}, {writer.name('e', encoded)}"
    writer.line("for binding in bindings:")
    writer.depth += 1
    writer.line("if on_fire is not None:")
    writer.line(f"    on_fire({rule}, binding)")
    writer.unpack_binding(len(encoded.slots))
    for predicate, specs in encoded.head_specs:
        name, group = groups[predicate]
        row, required = writer.head_row(specs)
        if required:
            writer.line(f"if {' and '.join(required)}:")
            writer.depth += 1
        writer.line(f"row = {row}")
        writer.line(f"if add_row({name}, row):")
        writer.line(f"    if {group} is None:")
        writer.line(f"        {group} = grouped[{name}] = []")
        writer.line(f"    {group}.append(({name}, row))")
        writer.line("    new += 1")
        writer.line("    if new > room:")
        writer.line("        return new")
        if required:
            writer.depth -= 1
    writer.depth -= 1
    writer.line("return new")
    return writer.build("insert")


class EncodedRule:
    """A :class:`CompiledRule` lowered onto one symbol table's id space.

    Flexible terms (variables and pattern nulls) across the positive body,
    the negative body and the heads are numbered into dense **slots** in
    first-occurrence order, and so is each distinct function term with
    flexibles inside that a positive body literal holds (a hidden slot,
    see the term coding above); a join binding is then a flat tuple of
    ``Optional[int]`` indexed by slot — no term-keyed dict is allocated
    anywhere between the storage boundary and the API edge.
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
        "_firing",
        "_insert",
        "_joins",
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
        #: the generated firing builder, made at the first firing_rows call
        self._firing: Optional[_Firing] = None
        #: the generated insert, made at the first inserter call
        self._insert: Optional[_Insert] = None
        #: (plan, pre-bound slots, delta position) -> generated join
        self._joins: Dict[tuple, _Join] = {}
        #: delta position (-1: the full body) -> the fixpoint's programme
        self._programmes: Dict[int, _Join] = {}

    def new_binding(self) -> List[Optional[int]]:
        return [None] * len(self.slots)

    def inserter(self) -> _Insert:
        """The rule's generated insert (:func:`generate_insert`), the one
        path by which :func:`~repro.engine.seminaive.fixpoint` stores the
        rows a join's bindings derive; generated at the first call and
        memoised on the rule."""
        insert = self._insert
        if insert is None:
            # Racing threads may both generate; the inserts are equivalent.
            insert = self._insert = generate_insert(self)
        return insert

    def firing_rows(
        self, binding: Sequence[Optional[int]]
    ) -> Tuple[List[Entry], Tuple[Entry, ...], Tuple[Entry, ...]]:
        """The ground ``(heads, body, negative)`` entries of the firing a
        complete join *binding* is (:func:`generate_firing`), non-ground
        heads skipped.  The builder is generated at the first call, so a
        rule no maintained view records never compiles one."""
        firing = self._firing
        if firing is None:
            # Racing threads may both generate; the builders are equivalent.
            firing = self._firing = generate_firing(self)
        return firing(binding)

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

    def join(
        self,
        index: RelationIndex,
        delta_position: int = -1,
        bound_slots: frozenset = frozenset(),
    ) -> _Join:
        """The generated join of the body given pre-bound slots.

        With a *delta_position* that literal is matched against the delta
        rows first.  The rest follow in :func:`order_body`'s greedy order,
        ranked by the cardinalities *index* has **now**; the function
        (:func:`generate_join`) is memoised per (plan, pre-bound slots,
        delta position).
        """
        compiled = self.compiled
        bound = frozenset(self.slots[slot] for slot in bound_slots)
        if delta_position >= 0:
            bound |= compiled.positive_terms[delta_position]
        plan = order_body(compiled, index=index, bound=bound, skip=delta_position)
        key = (plan, bound_slots, delta_position)
        join = self._joins.get(key)
        if join is None:
            join = generate_join(self, plan, bound_slots, delta_position)
            # Racing threads may both generate; all of them use the first stored.
            join = self._joins.setdefault(key, join)
        return join

    def programme(
        self, index: RelationIndex, delta_position: int = -1
    ) -> _Join:
        """The join :func:`~repro.engine.seminaive.fixpoint` runs for this
        rule at *delta_position* (-1: the full body, round 1), memoised on
        the rule.

        The first call plans with :func:`order_body` on the cardinalities
        *index* has then; every later round and every later fixpoint over
        this rule and symbol table reuses that function.  Join order
        affects only cost, never the bindings enumerated.
        """
        join = self._programmes.get(delta_position)
        if join is None:
            # Racing threads may both plan; all of them use the first stored.
            join = self._programmes.setdefault(
                delta_position, self.join(index, delta_position)
            )
        return join


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


def enumerate_bindings(
    encoded: EncodedRule,
    index: RelationIndex,
    *,
    binding: Optional[Sequence[Optional[int]]] = None,
    negative_against=None,
    delta_rows: Optional[Sequence[Tuple["Predicate", Row]]] = None,
    delta_position: Optional[int] = None,
    statistics: Optional[EngineStatistics] = None,
) -> Iterator[tuple]:
    """Enumerate slot bindings matching the encoded body into *index*.

    The join executor: the generated function of a greedy plan
    (:func:`order_body`, :meth:`EncodedRule.join`) over the pattern hash
    tables (``RelationIndex.rows_for``), where every probe key, every
    candidate and every binding is a flat int structure.  At the leaf,
    hidden slots are decomposed and the negative literals checked for
    absence from *negative_against* (default: *index*; an oracle without
    *index*'s symbol table, such as a set of atoms, is checked by decoded
    atoms); an unbound variable in a negative literal raises
    ``ValueError`` (unsafe pattern).  A body with no positive literal has
    no loop: its one binding is checked at the leaf.  Yields each binding
    as a fresh tuple of ``len(encoded.slots)`` ids, ``None`` for slots the
    join leaves unbound.
    """
    bound_slots = frozenset(
        slot for slot, value in enumerate(binding or ()) if value is not None
    )
    join = encoded.join(
        index, -1 if delta_position is None else delta_position, bound_slots
    )
    return join(
        binding,
        delta_rows if delta_rows is not None else (),
        index.rows_for,
        index.rows_of,
        negation_oracle(index, negative_against),
        statistics,
    )


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
    for found in enumerate_bindings(
        encoded,
        index,
        binding=binding,
        negative_against=negative_against,
        delta_rows=delta_rows,
        delta_position=delta_position,
        statistics=statistics,
    ):
        yield decode_binding(found, partial)
