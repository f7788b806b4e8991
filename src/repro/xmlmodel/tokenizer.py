"""Byte-level two-tier tokenizer for the streaming hot path.

The char-based parser (:mod:`repro.xmlmodel.parser`) is the semantic
reference: strict well-formedness, exact diagnostics, full entity and
CDATA support.  It is also the dominant cost of text-to-verdict
validation — per-character cursor movement and per-event object
construction dwarf the engine's integer table steps.

This module adds a *fast tier* that never walks characters.  The body of
a document is split once on ``b"<"``; every resulting chunk is exactly
``tag-bytes + b">" + trailing-text-bytes``, and real documents repeat
chunks heavily (same tags, same markup runs), so each distinct chunk is
parsed **once** into an action tuple and memoized — the hot loop is one
dict lookup per chunk.  All well-formedness checking, limit checking,
and decoding happen on the memo-miss path; the per-event cost for a
repeated chunk is a hash of its bytes.

The fast tier only commits to inputs it can prove the careful tier would
accept identically:

* prolog is scanned structurally; a DOCTYPE falls back;
* any ``b"<!"``/``b"<?"`` in the body (comments, CDATA, PIs) falls back;
* non-ASCII chunks, entity references, over-limit constructs, duplicate
  attributes, and every malformed shape fall back;
* names use a conservative ASCII subset of the reference name grammar.

"Falls back" means :class:`FallbackRequired` is raised and the caller
re-runs the char-based tier from the start — so errors (type, message,
line/column) and event streams are *identical by construction*: the fast
tier either produces exactly what the careful tier would, or it produces
nothing and the careful tier speaks.  Schema validity is not a fast-tier
concern: a well-formed, certifiable document commits whether or not it
is valid, and the dense scan records its violations itself.

Entry points: :func:`body_start`, :func:`split_body`,
:func:`parse_chunk` and, for diagnostics only, :func:`attribute_names`.
The fused dense validation loop in :mod:`repro.engine.streaming` drives
them with schema-interned name ids.
``tests/test_tokenizer_hardening`` pins the whole path on the parser's
fuzz-mutant corpus: ``validate_bytes`` and ``validate`` agree with the
event-driven validator over :func:`~repro.xmlmodel.parser.iter_events`.
"""

from __future__ import annotations

import re


class FallbackRequired(Exception):
    """The fast tier cannot certify this input; use the careful tier.

    Always raise a fresh instance: re-raising one shared instance chains
    every raise site's frame onto its ``__traceback__``, keeping each
    failed scan's document bytes alive.
    """

    __slots__ = ()


# Whitespace the reference parser skips between tokens ('\x0b' etc. are
# *not* in this set: the char parser rejects them between markup, so the
# fast tier must too).
_WS = b" \t\r\n"

# ASCII bytes that str.strip() removes — the validator's text-content
# test is `text.strip()`, whose whitespace set on ASCII is wider than
# the parser's token whitespace ('\x0b', '\x0c', '\x1c'-'\x1f').
_STR_WS = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"

# Conservative ASCII subset of the reference name grammar (isalpha/_:
# start, isalnum/_:.- continue).  Anything outside falls back.
_NAME_RE = re.compile(rb"[A-Za-z_:][A-Za-z0-9_:.\-]*")

# One attribute: mandatory leading whitespace (the char parser also
# accepts none after a closing quote; that shape falls back), optional
# whitespace around '=', single- or double-quoted value.
_ATTR_RE = re.compile(
    rb"[ \t\r\n]+([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*=[ \t\r\n]*"
    rb"(?:\"([^\"]*)\"|'([^']*)')"
)

_EMPTY_SET = frozenset()

# Action kinds.
START, END, SELFCLOSE = 0, 1, 2


def body_start(data):
    """Byte offset of the root element's ``<`` after the prolog.

    Handles whitespace, an XML declaration, and comment/PI misc;
    a DOCTYPE (rare, and full of quoting subtleties) falls back.
    Raises :class:`FallbackRequired` whenever the prolog is anything the
    structural scan cannot certify — including malformed shapes, which
    the careful tier then rejects with its exact diagnostics.
    """
    pos = 0
    size = len(data)
    while True:
        while pos < size and data[pos] in _WS:
            pos += 1
        if data.startswith(b"<?", pos):
            # Search after the opening "<?" so "<?>" (whose closing "?>"
            # would overlap it) is not mistaken for a complete PI.
            end = data.find(b"?>", pos + 2)
            if end < 0:
                raise FallbackRequired
            pos = end + 2
            continue
        if data.startswith(b"<!--", pos):
            end = data.find(b"-->", pos + 4)
            if end < 0:
                raise FallbackRequired
            pos = end + 3
            continue
        if data.startswith(b"<!", pos):  # DOCTYPE (or garbage)
            raise FallbackRequired
        if pos >= size or data[pos] != 0x3C:  # not '<'
            raise FallbackRequired
        return pos


def split_body(data, start):
    """Chunk the body: one entry per tag, ``tag + b'>' + trailing text``.

    Falls back if the body contains any markup the chunk grammar cannot
    represent (comments, CDATA sections, processing instructions).
    """
    body = data[start:] if start else data
    if b"<!" in body or b"<?" in body:
        raise FallbackRequired
    return body.split(b"<")


def parse_chunk(chunk, limits, name_id_of):
    """Parse one chunk into an action tuple (the memo-miss path).

    Returns ``(kind, name_id, attr_names, significant_text, has_text)``
    where ``kind`` is :data:`START`/:data:`END`/:data:`SELFCLOSE`,
    ``attr_names`` is a frozenset of decoded attribute names (``None``
    for end tags), ``significant_text`` is True iff the trailing text
    contains a non-whitespace character, and ``has_text`` is True iff
    there is any trailing text (the char parser emits a text event for
    it).  Attribute values and text are checked but not kept: actions
    live in shared memos, and the validator reads neither.

    Every check the reference parser performs on this shape happens
    here — name grammar, quote closure, duplicate attributes, and the
    ambient :class:`~repro.resilience.ParserLimits` caps — and every
    violation raises :class:`FallbackRequired` so the careful tier can
    produce the canonical error.  ``name_id_of`` interns a name's bytes
    to an integer id; the dense scan maps names outside the schema
    alphabet to per-call ids above
    :attr:`~repro.engine.compiler.CompiledSchema.foreign_id`.
    """
    if not chunk.isascii():
        raise FallbackRequired
    gt = chunk.find(b">")
    if gt < 0:
        raise FallbackRequired
    tag = chunk[:gt]
    rest = chunk[gt + 1:]
    has_text = bool(rest)
    significant = False
    if has_text:
        if b"&" in rest:
            raise FallbackRequired
        max_text = limits.max_text_length
        if max_text is not None and len(rest) > max_text:
            raise FallbackRequired
        significant = bool(rest.strip(_STR_WS))
    max_name = limits.max_name_length
    if tag[:1] == b"/":
        name = tag[1:].rstrip(_WS)
        if _NAME_RE.fullmatch(name) is None:
            raise FallbackRequired
        if max_name is not None and len(name) > max_name:
            raise FallbackRequired
        return (END, name_id_of(name), None, significant, has_text)
    selfclose = tag[-1:] == b"/"
    if selfclose:
        tag = tag[:-1]
    matched = _NAME_RE.match(tag)
    if matched is None:
        raise FallbackRequired
    end = matched.end()
    name = tag[:end]
    if max_name is not None and end > max_name:
        raise FallbackRequired
    attr_names = _EMPTY_SET
    if end < len(tag):
        blob = tag[end:]
        pos = 0
        names = []
        values = []
        match_attr = _ATTR_RE.match
        while True:
            attr = match_attr(blob, pos)
            if attr is None:
                break
            attr_name, double, single = attr.group(1, 2, 3)
            if attr_name in names:
                raise FallbackRequired  # duplicate -> careful tier's error
            names.append(attr_name)
            values.append(double if double is not None else single)
            pos = attr.end()
        if blob[pos:].strip(_WS):
            raise FallbackRequired
        max_attrs = limits.max_attributes
        if max_attrs is not None and len(names) > max_attrs:
            raise FallbackRequired
        max_text = limits.max_text_length
        for attr_name, value in zip(names, values):
            if max_name is not None and len(attr_name) > max_name:
                raise FallbackRequired
            if b"&" in value:
                raise FallbackRequired
            if max_text is not None and len(value) > max_text:
                raise FallbackRequired
        attr_names = frozenset(name.decode("ascii") for name in names)
    kind = SELFCLOSE if selfclose else START
    return (kind, name_id_of(name), attr_names, significant, has_text)


def attribute_names(chunk):
    """The attribute names of a chunk's tag, in document order.

    Action tuples keep attribute names as a frozenset; a violation
    message that lists undeclared attributes needs their order, so the
    dense scan re-parses that one tag here.  ``chunk`` must already have
    passed :func:`parse_chunk`.
    """
    tag = chunk[:chunk.find(b">")]
    if tag[-1:] == b"/":
        tag = tag[:-1]
    blob = tag[_NAME_RE.match(tag).end():]
    return [match.group(1).decode("ascii")
            for match in _ATTR_RE.finditer(blob)]
