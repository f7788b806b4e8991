"""Streaming validation against a compiled schema.

The validator consumes SAX-style events (from
:func:`repro.xmlmodel.parser.iter_events` or ``XMLDocument.events()``) and
never materializes a tree: its working state is a stack of frames, one per
open element, each holding the element's compiled type id and current
content-DFA state.  A document is valid iff every frame's DFA ends in an
accepting state — the event-stream restatement of Definition 2/3's "every
node's child-string matches its content model".

The report is interchangeable with the tree validator's: the same
:class:`~repro.xsd.validator.XSDValidationReport` class, the same typing
keys, and the same violation strings (the *multiset* of violations is
equal; the order differs because streaming discovers a node's
child-word mismatch at its end tag, after its children's violations,
whereas the tree validator reports parents first).  The differential test
suite pins this down.

One deliberate deviation from pure streaming: each frame accumulates its
child-name list so the mismatch diagnostic can cite the full child-string,
exactly like the tree validator.  Memory is O(max fanout x depth), not
O(document).
"""

from __future__ import annotations

import time
from itertools import islice

from repro.engine.compiler import (
    CHUNK_MEMO_MAX_BYTES,
    CHUNK_MEMO_SIZE,
    CompiledSchema,
)
from repro.observability import default_registry
from repro.observability.provenance import first_divergence
from repro.observability.tracing import span
from repro.resilience.faults import probe
from repro.resilience.limits import ParserLimits, resolve_limits
from repro.xmlmodel.parser import _iter_events, iter_events
from repro.xmlmodel.tokenizer import (
    END,
    START,
    FallbackRequired,
    attribute_names,
    body_start,
    parse_chunk,
    split_body,
)
from repro.xsd import violations as wording
from repro.xsd.validator import XSDValidationReport

DEADLINE_STRIDE = 1024
"""Chunks the dense scan walks between two deadline checks (memo hits
count too), so a deadline fires at most one stride late."""

# The parent class's slot descriptor for ``typing``: _DenseReport shadows
# the attribute with a lazy property, so reads/writes of the underlying
# storage must go through the descriptor explicitly.
_TYPING_SLOT = XSDValidationReport.typing

_UNLIMITED = ParserLimits.unlimited()

class _DenseReport(XSDValidationReport):
    """A report from the dense fast path, with *lazy* typing.

    The fast path commits every well-formed, certifiable document, valid
    or not; ``violations`` is the list the compat loop would have
    produced, in the same order.  The typing map — per-element indexed
    paths, a dict and two f-strings per element — costs more to build
    than the validation itself, and throughput-oriented callers never
    read it; it is materialized on first access by re-walking the
    already-validated document bytes (the chunk memo makes the re-walk
    cheap).  ``data=None`` means the root was undeclared: the typing is
    empty, as the compat loop leaves it.
    """

    __slots__ = ("_schema", "_data", "_offset")

    def __init__(self, schema, data, offset, violations):
        self.violations = violations
        _TYPING_SLOT.__set__(self, {} if data is None else None)
        self._schema = schema
        self._data = data
        self._offset = offset

    @property
    def typing(self):
        value = _TYPING_SLOT.__get__(self, XSDValidationReport)
        if value is None:
            chunks = self._data[self._offset:].split(b"<")
            value = _materialize_typing(self._schema, chunks)
            _TYPING_SLOT.__set__(self, value)
            self._data = None
        return value


def _materialize_typing(schema, chunks):
    """Rebuild the typing map the compat path would have produced.

    Walks the body chunks again (names only, no validation — the scan
    already judged the document) building the same indexed paths in the
    same document order as ``_run``: a child its parent's type does not
    allow gets no entry, nor does anything in its subtree, and its
    siblings' ordinals do not count it.  Runs with unlimited parser
    caps: the document passed the call-time limits when it was
    validated, and materialization must not depend on whatever limits
    are ambient later.
    """
    names = schema.names
    types = schema.types
    start_types = schema.start_types
    dense_types = schema.dense_types
    byte_ids = schema.byte_ids
    foreign_id = schema.foreign_id  # -1 in every table

    def name_id_of(name_bytes):
        return byte_ids.get(name_bytes, foreign_id)

    typing = {}
    stack = []  # (typed_path, ordinals, parent child_types)
    skip_depth = 0
    memo = {}
    memo_get = memo.get
    for chunk in islice(chunks, 1, None):
        action = memo_get(chunk)
        if action is None:
            action = parse_chunk(chunk, _UNLIMITED, name_id_of)
            memo[chunk] = action
        kind = action[0]
        if skip_depth:
            if kind == START:
                skip_depth += 1
            elif kind == END:
                skip_depth -= 1
            continue
        if kind == END:
            stack.pop()
            continue
        interned = action[1]
        if stack:
            typed_path, ordinals, child_types = stack[-1]
            type_id = child_types[interned]
            if type_id < 0:  # not allowed here: skip the subtree
                if kind == START:
                    skip_depth = 1
                continue
            name = names[interned]
            ordinal = ordinals[name] = ordinals.get(name, 0) + 1
            typed_path = f"{typed_path}/{name}[{ordinal}]"
        else:
            type_id = start_types[interned]
            name = names[interned]
            typed_path = f"/{name}[1]"
        typing[typed_path] = types[type_id].name
        if kind == START:
            stack.append((typed_path, {}, dense_types[type_id][1]))
    return typing


class StreamingValidator:
    """Validates event streams against one :class:`CompiledSchema`.

    Stateless between calls; one instance may be shared across threads.
    """

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema

    def validate_events(self, events, provenance=None):
        """Consume an event iterable; return an XSDValidationReport.

        Stops consuming as soon as the outcome is decided (undeclared
        root), mirroring the tree validator's early return.  After the
        root element closes, the remainder of the stream is drained and
        any further element event is reported as a violation — a
        malformed stream carrying a second root must not validate clean,
        matching what the tree parser would reject outright.

        Args:
            events: the SAX-style event iterable.
            provenance: optional
                :class:`~repro.observability.ProvenanceRecorder`; when
                given, every validated element gets an
                :class:`~repro.observability.ElementProvenance` record
                (type, content-DFA state path, first-divergence reason).
                Disabled recording costs the event loop one bool test.
        """
        probe("validate")
        return self._observed_run(events, provenance)

    def _observed_run(self, events, provenance=None, path=None):
        """The compat loop with its spans/metrics (probe already fired);
        ``path`` labels the span (``"reparse"`` after a dense fallback)."""
        registry = default_registry()
        started = time.perf_counter_ns()
        with span("engine.validate") as trace:
            if path is not None:
                trace.set_attribute("path", path)
            fingerprint = self.schema.fingerprint
            if fingerprint is not None:
                trace.set_attribute("schema", fingerprint[:12])
            report, consumed = self._run(events, provenance)
            trace.set_attribute("events", consumed)
            trace.set_attribute("violations", len(report.violations))
        registry.counter("engine.stream.events").inc(consumed)
        registry.counter("engine.stream.docs").inc()
        if report.violations:
            registry.counter("engine.stream.violations").inc(
                len(report.violations)
            )
        registry.histogram("engine.stream.doc_ns").observe(
            time.perf_counter_ns() - started
        )
        return report

    def _run(self, events, recorder=None):
        """The validation loop; returns ``(report, events_consumed)``."""
        schema = self.schema
        types = schema.types
        report = XSDValidationReport()
        violations = report.violations
        typing = report.typing
        recording = recorder is not None
        # Frame layout (a mutable list, tuples would cost re-allocation):
        # [type_id, dfa_state, name, path, typed_path, child_names,
        #  recognized, has_text, ordinals] — plus, only while a
        # provenance recorder is attached, [dfa_state_path, entry] at
        # indices 9/10 (the hot loop never touches them otherwise).
        stack = []
        skip_depth = 0
        root_closed = False
        consumed = 0
        for event in events:
            consumed += 1
            kind = event[0]
            if skip_depth:
                if kind == "start":
                    skip_depth += 1
                elif kind == "end":
                    skip_depth -= 1
                continue
            if kind == "start":
                name = event[1]
                if root_closed:
                    violations.append(wording.second_root(name))
                    skip_depth = 1
                    continue
                if stack:
                    frame = stack[-1]
                    frame[5].append(name)
                    compiled = types[frame[0]]
                    entry = compiled.children.get(name)
                    if entry is None:
                        violations.append(wording.child_not_allowed(
                            frame[3], name, frame[2], compiled.name
                        ))
                        frame[6] = False
                        if recording:
                            frame[10].mark_invalid(
                                f"child <{name}> is not allowed under "
                                f"<{frame[2]}> (type {compiled.name})"
                            )
                        skip_depth = 1
                        continue
                    symbol, type_id = entry
                    frame[1] = compiled.dfa.table[frame[1]][symbol]
                    if recording:
                        frame[9].append(frame[1])
                    ordinals = frame[8]
                    ordinal = ordinals[name] = ordinals.get(name, 0) + 1
                    path = f"{frame[3]}/{name}"
                    typed_path = f"{frame[4]}/{name}[{ordinal}]"
                else:
                    type_id = schema.start.get(name)
                    if type_id is None:
                        violations.append(wording.root_not_declared(
                            name, schema.start_names
                        ))
                        return report, consumed
                    path = "/" + name
                    typed_path = f"/{name}[1]"
                typing[typed_path] = types[type_id].name
                frame = [
                    type_id, 0, name, path, typed_path, [], True, False, {}
                ]
                if recording:
                    frame.append([0])
                    frame.append(recorder.start_element(
                        path, typed_path, name, types[type_id].name
                    ))
                stack.append(frame)
                self._check_attributes(
                    frame, event[2], violations,
                    frame[10] if recording else None,
                )
            elif kind == "end":
                frame = stack.pop()
                compiled = types[frame[0]]
                if frame[6] and not compiled.dfa.accepting[frame[1]]:
                    violations.append(wording.content_mismatch(
                        frame[3], frame[2], frame[5], compiled.name
                    ))
                    if recording:
                        frame[10].mark_invalid(
                            first_divergence(compiled.dfa, frame[5])
                        )
                if frame[7] and not compiled.mixed:
                    violations.append(wording.text_not_allowed(
                        frame[3], frame[2], compiled.name
                    ))
                    if recording:
                        frame[10].mark_invalid(
                            f"contains text but type {compiled.name} "
                            f"is not mixed"
                        )
                if recording:
                    frame[10].dfa_states = tuple(frame[9])
                if not stack:
                    # Keep draining: trailing element events (a second
                    # root) must surface as violations, not be ignored.
                    root_closed = True
            else:  # text
                if stack and event[1].strip():
                    stack[-1][7] = True
        return report, consumed

    def _check_attributes(self, frame, attributes, violations, entry=None):
        compiled = self.schema.types[frame[0]]
        for required in compiled.required_attrs:
            if required not in attributes:
                violations.append(
                    wording.missing_attribute(frame[3], frame[2], required)
                )
                if entry is not None:
                    entry.mark_invalid(
                        f"missing required attribute {required!r}"
                    )
        attr_ids = self.schema.attr_ids
        mask = compiled.declared_mask
        for attr_name in attributes:
            bit = attr_ids.get(attr_name)
            if bit is None or not mask >> bit & 1:
                violations.append(wording.undeclared_attribute(
                    frame[3], frame[2], attr_name
                ))
                if entry is not None:
                    entry.mark_invalid(
                        f"undeclared attribute {attr_name!r}"
                    )

    def validate(self, source, provenance=None, limits=None, deadline=None):
        """Validate ``source``: XML text/bytes, a document/element, or events.

        Text and UTF-8 bytes take the dense fast path when the schema is
        dense and no provenance recorder is attached (provenance needs
        the per-element bookkeeping only the compat loop carries); all
        other inputs — and every fast-path fallback — run the
        event-driven compat loop, so the report is identical either way.

        Args:
            source: the document.
            provenance: optional recorder (see :meth:`validate_events`).
            limits: :class:`~repro.resilience.ParserLimits` for text and
                bytes (explicit wins over ambient wins over defaults).
            deadline: optional zero-arg callable that raises once the
                caller's deadline has passed; the dense scan calls it
                every :data:`DEADLINE_STRIDE` chunks and at its end, the
                compat loop every 64 events and at the end of the stream.
        """
        if isinstance(source, str):
            if provenance is None and self.schema.dense:
                return self._validate_dense(
                    source.encode("utf-8"), source, limits, deadline
                )
        elif isinstance(source, (bytes, bytearray, memoryview)):
            return self.validate_bytes(source, provenance, limits, deadline)
        return self._validate_compat(
            as_events(source, limits), provenance, deadline
        )

    def validate_bytes(self, data, provenance=None, limits=None,
                       deadline=None):
        """Validate UTF-8 document bytes without materializing a str.

        The dense fast path works on the bytes directly; only a fallback
        (or a non-dense schema, or provenance recording) decodes them
        for the char-based parser.  ``limits`` and ``deadline`` are as
        for :meth:`validate`.

        Raises:
            ParseError: on malformed documents (including bytes that are
                not valid UTF-8) and over-limit ones, exactly as
                ``validate(text)`` would.
        """
        data = bytes(data)
        if provenance is None and self.schema.dense:
            return self._validate_dense(data, None, limits, deadline)
        return self._validate_compat(
            as_events(_decode_utf8(data), limits), provenance, deadline
        )

    def _validate_compat(self, events, provenance, deadline):
        if deadline is not None:
            events = checked_events(events, deadline)
        return self.validate_events(events, provenance)

    def _validate_dense(self, data, text, limits=None, deadline=None):
        """Dense attempt with compat fallback; mirrors the compat path's
        eager input-size check and ``parse``/``validate`` probe order.

        The ``engine.validate`` span of a committed scan carries
        ``path`` = ``"dense"`` (valid) or ``"dense_invalid"``; after a
        fallback the failed attempt's span carries no ``path`` and the
        compat rerun's span carries ``"reparse"``.
        """
        limits = resolve_limits(limits)
        limit = limits.max_input_bytes
        (dense_docs, fallbacks, events, docs, doc_ns,
         violated) = _instruments()
        started = time.perf_counter_ns()
        if limit is not None and len(data) > limit:
            # Identical error to the char parser's eager size check.
            limits.check_input_size(
                text if text is not None else _decode_utf8(data)
            )
        probe("parse")
        probe("validate")
        try:
            with span("engine.validate") as trace:
                fingerprint = self.schema.fingerprint
                if fingerprint is not None:
                    trace.set_attribute("schema", fingerprint[:12])
                report, consumed = self._scan_dense(data, limits, deadline)
                count = len(report.violations)
                trace.set_attribute(
                    "path", "dense_invalid" if count else "dense"
                )
                trace.set_attribute("events", consumed)
                trace.set_attribute("violations", count)
        except FallbackRequired:
            fallbacks.inc()
        else:
            dense_docs.inc()
            events.inc(consumed)
            docs.inc()
            if count:
                violated.inc(count)
            doc_ns.observe(time.perf_counter_ns() - started)
            return report
        # The rerun starts only after the except block has dropped the
        # exception, so the failed scan's frame (its chunk list and
        # memo) is freed before the char parser allocates.
        if text is None:
            text = _decode_utf8(data)
        stream = _iter_events(text, limits)
        if deadline is not None:
            stream = checked_events(stream, deadline)
        # The probes already fired once for this document; rerun the
        # compat loop without re-probing (fault injection must see one
        # document, not two).
        return self._observed_run(stream, path="reparse")

    def _scan_dense(self, data, limits, deadline=None):
        """The fused tokenizer+validator loop.

        One chunk-memo lookup per tag; integer table steps; *no* object
        events.  Commits every document that is well formed and within
        limits, valid or not, with the violations ``_run`` would report
        in the same order: EDC and the single-type rule make each
        Definition-3 check local to one tag and its parent's registers.
        Only anomalies the char parser must word — malformed or
        uncertifiable markup, limits, a second root, text after the
        root — raise :class:`FallbackRequired`.

        A child its parent's type does not allow is recorded, switches
        the parent's content-model check off (its accepting bits become
        all ones, as ``_run`` clears "recognized"), and opens a skipped
        subtree: frames of a pseudo-type whose children are all skipped
        too and whose end tags always accept, still tokenized,
        tag-matched and depth-limited.  Names outside the schema alphabet
        read the tables at the schema's ``foreign_id`` slot (-1
        everywhere) and carry a per-call id for tag matching; their
        actions stay in the private memo.  An undeclared root returns at
        once, as ``_run`` stops consuming there.  Messages are built only
        when a check fails (:class:`_ScanViolations`), so a valid
        document runs the same register loop as before.

        Chunks are looked up first in the schema's shared memo for
        ``limits`` (filled until
        :data:`~repro.engine.compiler.CHUNK_MEMO_SIZE` entries, with
        chunks of at most
        :data:`~repro.engine.compiler.CHUNK_MEMO_MAX_BYTES` bytes), then
        in a private memo for this call.  ``deadline`` (a zero-arg callable
        or ``None``) runs after every :data:`DEADLINE_STRIDE` chunks and
        once after the last.
        """
        schema = self.schema
        offset = body_start(data)
        if not _is_utf8(data[:offset]):  # the compat path decodes it all
            raise FallbackRequired
        chunks = split_body(data, offset)
        start_types = schema.start_types
        byte_ids = schema.byte_ids
        max_depth = limits.max_depth
        foreign_id = schema.foreign_id
        foreign = {}
        foreign_names = []  # by per-call id - foreign_id - 1

        def name_id_of(name_bytes):
            interned = byte_ids.get(name_bytes)
            if interned is None:  # outside the schema alphabet
                interned = foreign.get(name_bytes)
                if interned is None:
                    interned = foreign[name_bytes] = (
                        foreign_id + 1 + len(foreign_names)
                    )
                    foreign_names.append(name_bytes)
            return interned

        # The skipped-subtree pseudo-type (see CompiledSchema.skip_id).
        skipped = schema.skipped_types
        skip_id = schema.skip_id
        dense_types = schema.dense_types
        shared = schema.chunk_memo(limits)
        shared_get = shared.get
        private = {}
        private_get = private.get
        stack = []
        push = stack.append
        pop = stack.pop
        total = len(chunks)
        # Builds each message only when a check fails; the hot branches
        # hold one short call per cold path (a branch longer than 255
        # bytecode units would cost every chunk that jumps over it an
        # EXTENDED_ARG).
        violations = _ScanViolations(schema, stack, foreign_names, chunks,
                                     shared, private, deadline)
        disallowed = violations.disallowed
        check_attributes = violations.attributes
        check_empty = violations.empty_element
        check_end = violations.end_tag
        depth = 0
        root_done = False
        # Exact compat-event accounting (start/end tags plus non-empty
        # text runs), so ``engine.stream.events`` agrees between paths.
        consumed = 0
        # Registers of the innermost open element.
        state = 0
        rows = None
        child_types = None
        acc_bits = 0
        mixed = True
        has_text = False
        open_id = -1
        # chunks[0] is the empty prefix before the root's '<'.
        for base in range(1, total, DEADLINE_STRIDE):
            window = iter(chunks[base:base + DEADLINE_STRIDE])
            for chunk in window:
                action = shared_get(chunk)
                if action is None:
                    action = private_get(chunk)
                    if action is None:
                        action = parse_chunk(chunk, limits, name_id_of)
                        if action[1] > foreign_id:  # a per-call id
                            if action[0] != END:
                                # Tables see the foreign slot; the name's
                                # own id rides along for tag matching.
                                action = (action[0], foreign_id,
                                          *action[2:], action[1])
                            private[chunk] = action
                        elif (len(shared) < CHUNK_MEMO_SIZE
                                and len(chunk) <= CHUNK_MEMO_MAX_BYTES):
                            shared[chunk] = action
                        else:
                            private[chunk] = action
                kind = action[0]
                if kind == START:
                    interned = action[1]
                    if max_depth is not None and depth >= max_depth:
                        raise FallbackRequired
                    if depth:
                        type_id = child_types[interned]
                        if type_id >= 0:
                            state = rows[state][interned]
                        else:  # not allowed here: skip the subtree
                            if child_types is not skipped:
                                disallowed(open_id, child_types, action)
                                acc_bits = -1  # parent's model check off
                            if interned == foreign_id:
                                interned = action[5]  # for tag matching
                            type_id = skip_id
                    else:
                        if root_done:
                            raise FallbackRequired
                        type_id = start_types[interned]
                        if type_id < 0:
                            return violations.undeclared_root(data,
                                                              action)
                    push((state, rows, child_types, acc_bits, mixed,
                          has_text, open_id))
                    depth += 1
                    (rows, child_types, acc_bits, mixed, declared,
                     required) = dense_types[type_id]
                    state = 0
                    open_id = interned
                    has_text = action[3]
                    consumed += 2 if action[4] else 1
                    attrs = action[2]
                    if attrs or required:
                        if not (required <= attrs and attrs <= declared):
                            if child_types is not skipped:
                                check_attributes(open_id, type_id, attrs,
                                                 chunk)
                elif kind == END:
                    if action[1] != open_id:  # mismatched end (or depth 0)
                        raise FallbackRequired
                    if not acc_bits >> state & 1 or has_text and not mixed:
                        check_end(open_id, child_types, acc_bits >> state & 1,
                                  has_text and not mixed, window, base)
                    depth -= 1
                    (state, rows, child_types, acc_bits, mixed, has_text,
                     open_id) = pop()
                    if depth:
                        consumed += 2 if action[4] else 1
                        if action[3]:
                            has_text = True
                    else:
                        consumed += 1
                        root_done = True
                        if action[3]:  # text after the root element
                            raise FallbackRequired
                else:  # SELFCLOSE
                    interned = action[1]
                    if max_depth is not None and depth >= max_depth:
                        raise FallbackRequired
                    if depth:
                        type_id = child_types[interned]
                        if type_id >= 0:
                            state = rows[state][interned]
                        else:
                            if child_types is not skipped:
                                disallowed(open_id, child_types, action)
                                acc_bits = -1
                            type_id = skip_id
                    else:
                        if root_done:
                            raise FallbackRequired
                        type_id = start_types[interned]
                        if type_id < 0:
                            return violations.undeclared_root(data,
                                                              action)
                        root_done = True
                    entry = dense_types[type_id]
                    attrs = action[2]
                    required = entry[5]
                    if not entry[2] & 1 or (attrs or required) and not (
                            required <= attrs and attrs <= entry[4]):
                        if type_id != skip_id:
                            check_empty(open_id if depth else -1, interned,
                                        type_id, attrs, chunk)
                    consumed += 3 if depth and action[4] else 2
                    if action[3]:
                        if depth:
                            has_text = True
                        else:
                            raise FallbackRequired
            if deadline is not None:
                deadline()
        if depth or not root_done:  # unterminated element / no root
            raise FallbackRequired
        return _DenseReport(schema, data, offset, violations.found), consumed


class _ScanViolations:
    """The dense scan's violation list and its cold paths.

    The scan calls a method only when a check fails; the message is
    built there, in ``_run``'s wording and order: the path from the
    register stack (``stack[1:]`` holds the open element's ancestors'
    saved registers, whose last field is their name id), the type from
    the identity of the open element's ``child_types`` table, a
    content-model reject's child word by re-walking the element's
    (memoised) chunks, undeclared attributes' order by re-parsing the
    tag.

    The re-walks stay linear in the document over a whole scan: each
    walked element's chunk range is kept (``walked``: end index ->
    start index), and a later walk jumps over it, so no chunk is walked
    twice however many ancestors reject.  Walks call ``deadline`` every
    :data:`DEADLINE_STRIDE` chunks, as the scan does.
    """

    __slots__ = ("schema", "stack", "foreign_names", "chunks", "shared",
                 "private", "deadline", "walked", "found", "_type_names",
                 "_path_key", "_path_value")

    def __init__(self, schema, stack, foreign_names, chunks, shared,
                 private, deadline):
        self.schema = schema
        self.stack = stack
        self.foreign_names = foreign_names
        self.chunks = chunks
        self.shared = shared
        self.private = private
        self.deadline = deadline
        self.walked = None  # made by the first walk
        self.found = []
        self._type_names = None
        self._path_key = None
        self._path_value = None

    def disallowed(self, parent_id, parent_types, action):
        """The start or self-closing tag ``action`` is not allowed under
        the open element."""
        names = self.schema.names
        self.found.append(wording.child_not_allowed(
            self._path(parent_id), self._name_of(action), names[parent_id],
            self._type_name(parent_types),
        ))

    def attributes(self, open_id, type_id, attrs, chunk):
        """The attribute violations of the element just opened."""
        self._attributes(self._path(open_id), self.schema.names[open_id],
                         self.schema.types[type_id], attrs, chunk)

    def empty_element(self, parent_id, interned, type_id, attrs, chunk):
        """A self-closing element's attribute violations, then its
        empty-word content-model reject, as ``_run`` meets its end event
        after its start event; ``parent_id`` is -1 at the root."""
        name = self.schema.names[interned]
        path = "/" + name
        if parent_id >= 0:
            path = self._path(parent_id) + path
        compiled = self.schema.types[type_id]
        self._attributes(path, name, compiled, attrs, chunk)
        if not compiled.acc_bits & 1:
            self.found.append(
                wording.content_mismatch(path, name, (), compiled.name)
            )

    def end_tag(self, open_id, open_types, accepted, text, window, base):
        """The open element's content-model reject (unless ``accepted``)
        and text violation (if ``text``) at its end tag, the chunk the
        scan's ``window`` iterator (over ``chunks[base:]``) last
        yielded."""
        names = self.schema.names
        path = self._path(open_id)
        name = names[open_id]
        type_name = self._type_name(open_types)
        if not accepted:
            end = (min(base + DEADLINE_STRIDE, len(self.chunks))
                   - window.__length_hint__() - 1)
            self.found.append(wording.content_mismatch(
                path, name, self._child_word(end), type_name
            ))
        if text:
            self.found.append(
                wording.text_not_allowed(path, name, type_name)
            )

    def undeclared_root(self, data, action):
        """The scan's result for an undeclared root: ``_run`` stops
        consuming after the root's start event, so nothing past that
        tag can matter — except bytes that are not UTF-8, which the
        compat path rejects before parsing."""
        if not _is_utf8(data):
            raise FallbackRequired
        self.found.append(wording.root_not_declared(
            self._name_of(action), self.schema.start_names
        ))
        return _DenseReport(self.schema, None, 0, self.found), 1

    def _attributes(self, path, name, compiled, attrs, chunk):
        """Missing required attributes (declaration order), then
        undeclared ones (document order, re-parsed from the tag)."""
        found = self.found
        for required in compiled.required_attrs:
            if required not in attrs:
                found.append(wording.missing_attribute(path, name, required))
        declared = compiled.declared_attrs
        if not attrs <= declared:
            for attribute in attribute_names(chunk):
                if attribute not in declared:
                    found.append(
                        wording.undeclared_attribute(path, name, attribute)
                    )

    def _child_word(self, end):
        """The child word of the element whose end tag is
        ``chunks[end]``, read by walking its chunks backwards (every one
        is memoised) and jumping over the ranges of earlier walks.  Only
        called for a recognized element, so every child is in the
        schema alphabet."""
        chunks = self.chunks
        shared_get = self.shared.get
        private = self.private
        walked = self.walked
        if walked is None:
            walked = self.walked = {}
        names = self.schema.names
        deadline = self.deadline
        word = []
        level = 0
        index = end - 1
        steps = 0
        while True:
            start = walked.get(index)
            if start is not None:  # an earlier walk's element: jump over
                if not level:
                    chunk = chunks[start]
                    word.append(
                        names[(shared_get(chunk) or private[chunk])[1]]
                    )
                index = start - 1
                continue
            chunk = chunks[index]
            action = shared_get(chunk) or private[chunk]
            kind = action[0]
            if kind == END:
                level += 1
            elif level:
                if kind == START:
                    level -= 1
                    if not level:
                        word.append(names[action[1]])
            elif kind == START:  # the element's own start tag
                break
            else:
                word.append(names[action[1]])
            index -= 1
            steps += 1
            if deadline is not None and not steps % DEADLINE_STRIDE:
                deadline()
        walked[end] = index
        word.reverse()
        return word

    def _path(self, open_id):
        """The open element's path; consecutive violations under one
        open element reuse it (its saved registers tuple, held here,
        identifies the open element)."""
        stack = self.stack
        key = stack[-1]
        if key is not self._path_key:
            names = self.schema.names
            parts = [names[entry[6]] for entry in islice(stack, 1, None)]
            parts.append(names[open_id])
            self._path_key = key
            self._path_value = "/" + "/".join(parts)
        return self._path_value

    def _type_name(self, child_types):
        type_names = self._type_names
        if type_names is None:
            schema = self.schema
            type_names = self._type_names = {}
            for compiled, entry in zip(schema.types, schema.dense_types):
                type_names.setdefault(id(entry[1]), compiled.name)
        return type_names[id(child_types)]

    def _name_of(self, action):
        """The element name of a start or self-closing tag's action (a
        foreign name's own per-call id rides at index 5)."""
        schema = self.schema
        interned = action[1]
        if interned < schema.foreign_id:
            return schema.names[interned]
        index = action[5] - schema.foreign_id - 1
        return self.foreign_names[index].decode("ascii")


def _is_utf8(data):
    if data.isascii():
        return True
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


_INSTRUMENTS = None


def _instruments():
    """The dense path's metric instruments, looked up once per process:
    ``(engine.dense.docs, engine.dense.fallbacks, engine.stream.events,
    engine.stream.docs, engine.stream.doc_ns, engine.stream.violations)``.
    """
    global _INSTRUMENTS
    if _INSTRUMENTS is None:
        registry = default_registry()
        _INSTRUMENTS = (
            registry.counter("engine.dense.docs"),
            registry.counter("engine.dense.fallbacks"),
            registry.counter("engine.stream.events"),
            registry.counter("engine.stream.docs"),
            registry.histogram("engine.stream.doc_ns"),
            registry.counter("engine.stream.violations"),
        )
    return _INSTRUMENTS


def checked_events(events, deadline, stride=64):
    """Wrap an event stream with a ``deadline()`` call after every
    ``stride`` events and one at its end.

    Raising from inside the stream aborts the streaming validator
    mid-document, so a pathological document cannot hold a worker past
    its deadline by more than one stride of events.  Events are still
    pulled one at a time: nothing is read ahead of the consumer.
    """
    iterator = iter(events)
    for first in iterator:
        yield first
        yield from islice(iterator, stride - 1)
        deadline()
    deadline()


def _decode_utf8(data):
    """Decode document bytes, mapping undecodable input to ParseError."""
    from repro.errors import ParseError

    try:
        return bytes(data).decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(f"input is not valid UTF-8: {error}")


def as_events(source, limits=None):
    """Coerce text / UTF-8 bytes / documents / elements / iterables into
    an event stream; ``limits`` reaches the parser for text and bytes."""
    if isinstance(source, str):
        return iter_events(source, limits=limits)
    if isinstance(source, (bytes, bytearray, memoryview)):
        return iter_events(_decode_utf8(source), limits=limits)
    events = getattr(source, "events", None)
    if events is not None:
        return events()
    return source


def validate_streaming(schema, source, cache=None):
    """One-shot convenience: validate ``source`` against ``schema``.

    Args:
        schema: a :class:`CompiledSchema`, or a formal
            :class:`~repro.xsd.model.XSD` (compiled through the default
            cache, so repeated calls with an equal schema are cheap).
        source: XML text, an ``XMLDocument``/``XMLElement``, or an event
            iterable.
        cache: optional :class:`~repro.engine.cache.SchemaCache` override.

    Returns:
        An :class:`~repro.xsd.validator.XSDValidationReport` agreeing with
        :func:`repro.xsd.validator.validate_xsd` on validity, typing, and
        the multiset of violation messages.
    """
    if not isinstance(schema, CompiledSchema):
        from repro.engine.cache import compile_cached

        schema = compile_cached(schema, cache)
    return StreamingValidator(schema).validate(source)
