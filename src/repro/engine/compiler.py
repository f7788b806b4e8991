"""Lowering formal XSDs to compiled, table-driven form.

The tree validator interprets content models symbolically: every node
re-runs a :class:`~repro.regex.derivatives.DerivativeMatcher` whose states
are regex ASTs (hashing whole expressions per step) and resolves child
types by scanning the content model's symbol list.  This module performs
that work *once per schema* instead of once per node:

* each content model is lowered to its **minimal complete DFA** over the
  erased element names (Definition 3's move: by EDC, matching the erased
  word against the erased expression is equivalent to matching the typed
  word, and by UPA the construction is unambiguous and small);
* the DFA is renumbered to dense integer tables, so one validation step is
  ``row[symbol_id]`` — an integer list index;
* element names, types, and attribute names are interned to small ints;
  declared-attribute sets become bitmasks.

The result, :class:`CompiledSchema`, is immutable and shareable across
threads; :mod:`repro.engine.cache` memoizes it per schema fingerprint and
:mod:`repro.engine.streaming` runs documents against it.
"""

from __future__ import annotations

import time
from array import array

from repro.automata.minimize import minimize
from repro.observability import default_registry
from repro.observability.tracing import span
from repro.regex.derivatives import to_dfa
from repro.xsd.typednames import split_typed_name

DENSE_STATE_LIMIT = 256
"""Largest per-type DFA (in states) that still gets dense rows.

Dense tables cost ``states x alphabet`` integers per type.  Content
models are tiny in practice, but interleave (``&``) of n distinct
symbols needs 2^n states, so a single pathological type could eat the
whole budget; such types (and therefore their schema) simply keep the
dict-driven path, which is O(1) per state in memory."""

CHUNK_MEMO_SIZE = 1024
"""Entries a schema's shared chunk memo holds per parser-limit set.

The memo fills insert-until-full: the first distinct chunks a schema
sees stay, later ones go to the scan's private per-call memo."""

CHUNK_MEMO_MAX_BYTES = 256
"""Longest chunk (tag plus trailing text) the shared memo admits.

Longer chunks go to the scan's private per-call memo, freed when the
call returns, so a full shared memo holds at most
``CHUNK_MEMO_SIZE * CHUNK_MEMO_MAX_BYTES`` (256 KB) of keys however
large the documents' text nodes are.  The benchmark's documents have
no chunk over 50 bytes."""

CHUNK_MEMO_LIMIT_SETS = 8
"""Distinct parser-limit sets that get a shared chunk memo per schema;
calls under further sets keep a private memo."""


class ContentDFA:
    """A minimal complete DFA over a content model's (erased) alphabet.

    States are dense integers with 0 initial; ``table[state][symbol_id]``
    is the successor (always defined — the DFA is complete over its
    alphabet).  Words containing symbols outside the alphabet are rejected,
    mirroring how a derivative step on a foreign symbol yields the empty
    language.

    Attributes:
        symbols: tuple of alphabet symbols, sorted; ``symbol_ids`` inverts.
        table: tuple of per-state tuples of successor state ids.
        accepting: tuple of booleans, indexed by state.
        live: tuple of booleans; ``live[s]`` iff some accepting state is
            reachable from ``s`` (a dead state can never recover).
    """

    __slots__ = ("symbols", "symbol_ids", "table", "accepting", "live")

    def __init__(self, symbols, table, accepting, live):
        self.symbols = symbols
        self.symbol_ids = {name: i for i, name in enumerate(symbols)}
        self.table = table
        self.accepting = accepting
        self.live = live

    def accepts(self, word):
        """True iff the DFA accepts ``word`` (an iterable of symbols)."""
        state = 0
        table = self.table
        ids = self.symbol_ids
        for name in word:
            symbol = ids.get(name)
            if symbol is None:
                return False
            state = table[state][symbol]
        return self.accepting[state]

    def __len__(self):
        return len(self.table)


def compile_regex(regex, alphabet=None):
    """Compile a regex to a :class:`ContentDFA`.

    Args:
        regex: a :class:`~repro.regex.ast.Regex` (deterministic content
            models stay small; the construction works for any regex).
        alphabet: iterable of symbols; defaults to those in the regex.
    """
    if alphabet is None:
        alphabet = regex.symbols()
    symbols = tuple(sorted(alphabet))
    started = time.perf_counter_ns()
    dfa = minimize(to_dfa(regex, alphabet=symbols))
    default_registry().histogram("engine.compile.minimize_ns").observe(
        time.perf_counter_ns() - started
    )
    # Stable BFS renumbering from the initial state, in symbol order.
    index = {dfa.initial: 0}
    order = [dfa.initial]
    position = 0
    while position < len(order):
        state = order[position]
        position += 1
        for name in symbols:
            target = dfa.transitions[(state, name)]
            if target not in index:
                index[target] = len(order)
                order.append(target)
    table = tuple(
        tuple(index[dfa.transitions[(state, name)]] for name in symbols)
        for state in order
    )
    accepting = tuple(state in dfa.accepting for state in order)
    live = _live_states(table, accepting)
    return ContentDFA(symbols, table, accepting, live)


def _live_states(table, accepting):
    """Backwards reachability from the accepting states."""
    count = len(table)
    predecessors = [[] for __ in range(count)]
    for source, row in enumerate(table):
        for target in row:
            predecessors[target].append(source)
    live = [False] * count
    worklist = [state for state in range(count) if accepting[state]]
    for state in worklist:
        live[state] = True
    while worklist:
        state = worklist.pop()
        for source in predecessors[state]:
            if not live[source]:
                live[source] = True
                worklist.append(source)
    return tuple(live)


class CompiledType:
    """One complex type, lowered to tables.

    Attributes:
        name: the source type name (for diagnostics).
        dfa: the :class:`ContentDFA` of the erased content model.
        children: dict element name -> ``(symbol_id, child_type_id)``; by
            EDC the child type is a function of the element name, so one
            dict lookup replaces the tree validator's symbol scan.
        mixed: whether character data is allowed.
        required_attrs: tuple of required attribute names, in declaration
            order (diagnostic order matches the tree validator).
        declared_mask: bitmask over the schema-wide attribute interning of
            the attributes declared on this type.
        dense: whether this type carries dense tables (small DFAs only;
            see :data:`DENSE_STATE_LIMIT`).
        dense_rows: tuple of ``array('i')`` rows, one per DFA state,
            indexed by *schema-wide* element-name id; ``-1`` marks a name
            that is not in this type's alphabet.  ``None`` when not dense.
        child_types: ``array('i')`` mapping schema-wide name id to the
            child's type id (EDC: a function of the name), ``-1`` when the
            name is not a child of this type.  ``None`` when not dense.
            Both tables carry one trailing slot past the alphabet
            (:attr:`CompiledSchema.foreign_id`), ``-1`` everywhere.
        acc_bits: accepting-states bitset — ``acc_bits >> state & 1``.
        required_set: frozenset of the required attribute names.
        declared_attrs: frozenset of every declared attribute name.
    """

    __slots__ = (
        "name", "dfa", "children", "mixed", "required_attrs",
        "declared_mask", "dense", "dense_rows", "child_types", "acc_bits",
        "required_set", "declared_attrs",
    )

    def __init__(self, name, dfa, children, mixed, required_attrs,
                 declared_mask, declared_attrs=frozenset()):
        self.name = name
        self.dfa = dfa
        self.children = children
        self.mixed = mixed
        self.required_attrs = required_attrs
        self.declared_mask = declared_mask
        self.dense = False
        self.dense_rows = None
        self.child_types = None
        self.acc_bits = 0
        for state, accepting in enumerate(dfa.accepting):
            if accepting:
                self.acc_bits |= 1 << state
        self.required_set = frozenset(required_attrs)
        self.declared_attrs = declared_attrs

    def build_dense(self, name_ids):
        """Fill the dense tables against a schema-wide name interning."""
        if len(self.dfa.table) > DENSE_STATE_LIMIT:
            return False
        width = len(name_ids) + 1  # plus the foreign slot
        child_types = array("i", [-1]) * width
        columns = []  # (schema-wide id, per-type symbol id)
        for element_name, (symbol, child_type) in self.children.items():
            interned = name_ids[element_name]
            child_types[interned] = child_type
            columns.append((interned, symbol))
        rows = []
        for row in self.dfa.table:
            dense_row = array("i", [-1]) * width
            for interned, symbol in columns:
                dense_row[interned] = row[symbol]
            rows.append(dense_row)
        self.dense_rows = tuple(rows)
        self.child_types = child_types
        self.dense = True
        return True


class CompiledSchema:
    """An immutable, table-driven form of a formal XSD.

    The tables never change after construction; the only mutable part
    is the dense scan's bounded chunk memo, a cache whose entries are a
    pure function of their key.

    Attributes:
        fingerprint: the :func:`repro.engine.cache.schema_fingerprint` of
            the source schema (``None`` when compiled directly).
        types: tuple of :class:`CompiledType`, indexed by type id.
        type_ids: dict type name -> type id.
        start: dict root element name -> type id (the paper's ``T0``).
        start_names: sorted tuple of allowed root names (diagnostics).
        attr_ids: dict attribute name -> bit position, shared by every
            type's ``declared_mask``.
        names: sorted tuple interning the schema-wide element alphabet
            (every child name of every type, plus the root names).
        name_ids: dict name -> interned id (str keys).
        byte_ids: the same interning with UTF-8 byte-string keys — the
            byte tokenizer looks names up without decoding.
        start_types: ``array('i')`` over the interning: root type id per
            name, ``-1`` for names that cannot be roots.
        foreign_id: ``len(names)``, the id of the trailing slot of
            ``start_types`` and every dense table: ``-1`` everywhere, it
            stands for any name outside the alphabet, so the dense scan
            indexes the tables without a bounds check.
        dense: True iff *every* type is dense, i.e. the whole schema can
            be validated on the dense fast path.
        dense_types: tuple, indexed by type id, of
            ``(dense_rows, child_types, acc_bits, mixed, declared_attrs,
            required_set)`` — the hot loop unpacks one tuple per start
            tag instead of touching attributes — plus one trailing entry
            at ``skip_id``.  ``None`` when not dense.
        skip_id: ``len(types)``, the dense scan's skipped-subtree
            pseudo-type: its ``child_types`` (:attr:`skipped_types`)
            allows no child, so a skipped element's children are skipped
            too; every end tag accepts, text is fine, and attributes go
            unchecked.
        skipped_types: the pseudo-type's ``child_types`` array, ``-1``
            everywhere (``None`` when not dense).
        chunk_memos: the dense scan's shared chunk memos, one dict per
            parser-limit set (see :meth:`chunk_memo`).
    """

    __slots__ = (
        "fingerprint", "types", "type_ids", "start", "start_names",
        "attr_ids", "names", "name_ids", "byte_ids", "start_types",
        "foreign_id", "skip_id", "skipped_types",
        "dense", "dense_types", "chunk_memos",
    )

    def __init__(self, fingerprint, types, type_ids, start, start_names,
                 attr_ids):
        self.fingerprint = fingerprint
        self.types = types
        self.type_ids = type_ids
        self.start = start
        self.start_names = start_names
        self.attr_ids = attr_ids
        alphabet = set(start)
        for compiled in types:
            alphabet.update(compiled.children)
        self.names = tuple(sorted(alphabet))
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.byte_ids = {
            name.encode("utf-8"): i for i, name in enumerate(self.names)
        }
        self.foreign_id = len(self.names)
        self.start_types = array("i", [-1]) * (self.foreign_id + 1)
        for name, type_id in start.items():
            self.start_types[self.name_ids[name]] = type_id
        self.dense = all(
            [compiled.build_dense(self.name_ids) for compiled in types]
        )
        self.skip_id = len(types)
        self.skipped_types = None
        self.dense_types = None
        if self.dense:
            self.skipped_types = array("i", [-1]) * (self.foreign_id + 1)
            self.dense_types = tuple(
                (compiled.dense_rows, compiled.child_types,
                 compiled.acc_bits, compiled.mixed, compiled.declared_attrs,
                 compiled.required_set)
                for compiled in types
            ) + ((None, self.skipped_types, -1, True, frozenset(),
                  frozenset()),)
        self.chunk_memos = {}

    def chunk_memo(self, limits):
        """The shared ``chunk -> action`` memo for parser ``limits``.

        :func:`~repro.xmlmodel.tokenizer.parse_chunk` checks exactly the
        attribute-count, name-length and text-length caps, so those three
        key the memo: a chunk certified under lax limits is never reused
        under strict ones.  Callers insert only chunks of at most
        :data:`CHUNK_MEMO_MAX_BYTES` bytes, and only while the memo holds
        fewer than :data:`CHUNK_MEMO_SIZE` entries.  Past
        :data:`CHUNK_MEMO_LIMIT_SETS` limit sets the memo is a fresh,
        unshared dict.
        """
        key = (limits.max_attributes, limits.max_name_length,
               limits.max_text_length)
        memo = self.chunk_memos.get(key)
        if memo is None:
            if len(self.chunk_memos) >= CHUNK_MEMO_LIMIT_SETS:
                return {}
            memo = self.chunk_memos.setdefault(key, {})
        return memo

    def type_named(self, name):
        """The :class:`CompiledType` for a source type name."""
        return self.types[self.type_ids[name]]

    def root_type_id(self, element_name):
        """The start type id of a root element name, or ``None``."""
        return self.start.get(element_name)

    def __repr__(self):
        return (
            f"<CompiledSchema types={len(self.types)} "
            f"roots={list(self.start_names)}>"
        )


def compile_xsd(xsd, fingerprint=None):
    """Lower a formal :class:`~repro.xsd.model.XSD` to a CompiledSchema.

    The schema is assumed well-formed (Definition 2: EDC + UPA); ``XSD``
    enforces both at construction time.
    """
    from repro.resilience.faults import probe

    probe("compile")
    registry = default_registry()
    dfa_sizes = registry.histogram("engine.compile.dfa_states")
    with span("engine.compile") as trace:
        if fingerprint is not None:
            trace.set_attribute("schema", fingerprint[:12])
        type_names = tuple(sorted(xsd.types))
        type_ids = {name: i for i, name in enumerate(type_names)}
        attr_ids = {}
        types = []
        dfa_states = 0
        for name in type_names:
            model = xsd.rho[name]
            erased = model.map_symbols(lambda s: split_typed_name(s)[0])
            dfa = compile_regex(erased.regex)
            dfa_sizes.observe(len(dfa))
            dfa_states += len(dfa)
            children = {}
            for symbol in model.element_names():
                element_name, target_type = split_typed_name(symbol)
                children[element_name] = (
                    dfa.symbol_ids[element_name], type_ids[target_type]
                )
            required = tuple(
                use.name for use in model.attributes if use.required
            )
            declared_mask = 0
            for use in model.attributes:
                bit = attr_ids.setdefault(use.name, len(attr_ids))
                declared_mask |= 1 << bit
            types.append(
                CompiledType(
                    name=name,
                    dfa=dfa,
                    children=children,
                    mixed=model.mixed,
                    required_attrs=required,
                    declared_mask=declared_mask,
                    declared_attrs=frozenset(
                        use.name for use in model.attributes
                    ),
                )
            )
        registry.counter("engine.compile.schemas").inc()
        registry.counter("engine.compile.types").inc(len(types))
        trace.set_attribute("types", len(types))
        trace.set_attribute("dfa_states", dfa_states)
        start = {}
        for typed in xsd.start:
            element_name, target_type = split_typed_name(typed)
            start[element_name] = type_ids[target_type]
        return CompiledSchema(
            fingerprint=fingerprint,
            types=tuple(types),
            type_ids=type_ids,
            start=start,
            start_names=tuple(sorted(start)),
            attr_ids=attr_ids,
        )


def compile_bonxai(schema):
    """Compile a BonXai schema (parsed or compiled) to a CompiledSchema.

    Rides the existing lowering chain: ``bonxai.compile`` to the formal
    BXSD core, Algorithm 2 to the DFA-based pivot, Algorithm 4 to a formal
    XSD, then :func:`compile_xsd`.  The result validates exactly the
    structural (rule) language of the schema; BonXai-specific extras
    (constraints, rule highlighting) stay with the tree validator.
    """
    from repro.bonxai.compile import CompiledSchema as BonxaiCompiled
    from repro.bonxai.compile import compile_schema
    from repro.translation.bxsd_to_dfa import bxsd_to_dfa_based
    from repro.translation.dfa_to_xsd import dfa_based_to_xsd

    if not isinstance(schema, BonxaiCompiled):
        schema = compile_schema(schema)
    xsd = dfa_based_to_xsd(bxsd_to_dfa_based(schema.bxsd))
    return compile_xsd(xsd)
