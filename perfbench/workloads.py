"""Seeded request streams for the three benchmark workloads, with their oracle.

Every workload is a list of distinct request payloads (schema text,
schema kind, document text) plus a seeded *order* in which clients send
them.  Each payload carries its expected verdict and violation multiset,
computed before any timing by the reference tree validator
(``parse_document`` + ``validate_xsd``) on the formal XSD the schema
text translates to — the daemon never sees the expectations.

The workloads vary what the daemon's cost depends on:

* ``serve_small`` — the daemon's typical request: 0.3-4 KB documents
  against three hot paper schemas (Figure 3 XSD, Figure 5 BonXai,
  Figure 2 DTD), two client connections.  Fixed per-request costs
  dominate.
* ``serve_large`` — E11-family documents of 100-140 KB against the
  Figure 3 XSD, one connection.  Tokenizer and table walk dominate.
  30% carry one seeded violation (kept away from 50% so the median sits
  inside one mode).
* ``schema_churn`` — small documents, each request taking its schema
  from a pool twice the daemon's schema-memo size, one connection.
  Most requests parse, translate and compile a schema.

Sizes, invalid shares and violation classes are stratified rather than
sampled, so two seeds differ in content but not in mix.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

WORKLOADS = ("serve_small", "serve_large", "schema_churn")

# Shares of expected-invalid payloads.
SMALL_INVALID_SHARE = 0.25
LARGE_INVALID_SHARE = 0.30

# serve_small element-count strata per schema, and the size of the fixed
# reference sample their edges are cut from.
SMALL_SIZE_BINS = 8
SMALL_REFERENCE_SIZE = 256

LARGE_VIOLATIONS = ("disallowed_child", "content_model", "attribute", "text")


class Payload:
    """One distinct ``POST /validate`` request and its expected answer."""

    __slots__ = ("kind", "schema", "document", "valid", "violations", "raw",
                 "elements")

    def __init__(self, kind, schema, document, valid, violations, elements):
        self.kind = kind
        self.schema = schema
        self.document = document
        self.valid = valid
        self.violations = violations
        self.elements = elements
        body = json.dumps(
            {"schema": schema, "schema_kind": kind, "document": document}
        ).encode("utf-8")
        self.raw = (
            b"POST /validate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body

    def matches(self, answer):
        """True iff a decoded 200 answer carries the expected verdict and
        violation multiset."""
        violations = answer.get("violations")
        return (
            answer.get("valid") is self.valid
            and isinstance(violations, list)
            and tuple(sorted(violations)) == self.violations
        )


class Workload:
    """A generated workload.

    Attributes:
        name / seed: what it was generated from.
        connections: concurrent keep-alive client connections.
        payloads: the distinct requests.
        order: payload indices in send order (clients cycle through it).
        hot: the ``(kind, schema text)`` pairs set-up must warm.
        properties: recorded input properties.
    """

    def __init__(self, name, seed, connections, payloads, order, hot,
                 properties):
        self.name = name
        self.seed = seed
        self.connections = connections
        self.payloads = payloads
        self.order = order
        self.hot = hot
        self.properties = properties


# -- oracle -------------------------------------------------------------------

def formal_xsd(kind, text):
    """The formal XSD a schema text translates to, by the same square of
    translations the daemon rides (XSD as is; DTD and BonXai via the
    DFA-based XSD)."""
    from repro.bonxai import compile_schema, parse_bonxai
    from repro.translation import (
        bxsd_to_dfa_based,
        dfa_based_to_xsd,
        dtd_to_bxsd,
    )
    from repro.xmlmodel import parse_dtd
    from repro.xsd import read_xsd

    if kind == "xsd":
        return read_xsd(text)
    if kind == "dtd":
        bxsd = dtd_to_bxsd(parse_dtd(text))
    else:
        bxsd = compile_schema(parse_bonxai(text)).bxsd
    return dfa_based_to_xsd(bxsd_to_dfa_based(bxsd))


def make_payload(kind, schema_text, xsd, document):
    """A payload with its expectation from the reference tree validator."""
    from repro.xmlmodel import parse_document
    from repro.xsd import validate_xsd

    tree = parse_document(document)
    report = validate_xsd(xsd, tree)
    return Payload(kind, schema_text, document, report.valid,
                   tuple(sorted(report.violations)), tree.size())


def violation_class(message):
    """The violation class of one validator message (Definitions 2-3)."""
    if "is not allowed under" in message:
        return "disallowed_child"
    if "do not match the content model" in message:
        return "content_model"
    if "may not contain text" in message:
        return "text"
    if "attribute" in message:
        return "attribute"
    return "root"


# -- generation ---------------------------------------------------------------

def build(name, seed, tiny=False):
    """Generate workload ``name`` from ``seed`` (``tiny`` for self-tests)."""
    if name == "serve_small":
        return _serve_small(seed, tiny)
    if name == "serve_large":
        return _serve_large(seed, tiny)
    if name == "schema_churn":
        return _schema_churn(seed, tiny)
    raise ValueError(f"unknown workload {name!r} (expected one of "
                     f"{', '.join(WORKLOADS)})")


def _blocks(rng, count, rounds):
    """``rounds`` shuffled passes over ``range(count)``: every window of
    ``count`` requests sends each payload once."""
    order = []
    for __ in range(rounds):
        block = list(range(count))
        rng.shuffle(block)
        order.extend(block)
    return order


def _mutant(rng, generator_names, attr_names, xsd, kind, text, tree):
    """A conformance-mutator mutant the oracle rejects (a few tries)."""
    from repro.conformance.generate import mutate_document
    from repro.xmlmodel import write_document

    payload = None
    for __ in range(8):
        mutant = mutate_document(tree, rng, generator_names, attr_names)
        payload = make_payload(kind, text, xsd, write_document(mutant))
        if not payload.valid:
            return payload
    return payload


def _schema_alphabet(dfa):
    names = sorted(dfa.alphabet) + ["zzz"]
    attrs = sorted(
        {use.name for model in dfa.assign.values()
         for use in model.attributes}
    ) + ["bogus"]
    return names, attrs


def _serve_small(seed, tiny):
    from repro.paperdata import FIGURE2_DTD, FIGURE3_XSD, FIGURE5_BONXAI
    from repro.translation import xsd_to_dfa_based
    from repro.xmlmodel import write_document
    from repro.xsd.generator import DocumentGenerator

    rng = random.Random(f"serve_small:{seed}")
    per_schema = 8 if tiny else 64
    bins = 2 if tiny else SMALL_SIZE_BINS
    hot = [("xsd", FIGURE3_XSD), ("bonxai", FIGURE5_BONXAI),
           ("dtd", FIGURE2_DTD)]
    payloads = []
    for kind, text in hot:
        xsd = formal_xsd(kind, text)
        dfa = xsd_to_dfa_based(xsd)
        generator = DocumentGenerator(dfa)
        # The DTD admits any declared element as root; keep the paper's.
        generator.roots = ["document"]
        names, attrs = _schema_alphabet(dfa)
        # Element counts are stratified like the churn pool's schema
        # lengths: equal quotas in bins cut at the quantiles of a fixed
        # reference sample, a quarter of each bin mutated to invalid.
        reference = sorted(
            tree.size() for tree in itertools.islice(
                _small_trees(random.Random(f"serve_small-reference:{kind}"),
                             generator),
                SMALL_REFERENCE_SIZE)
        )
        edges = [reference[len(reference) * cut // bins]
                 for cut in range(1, bins)]
        room = [per_schema // bins] * bins
        for tree in _small_trees(rng, generator):
            slot = sum(tree.size() >= edge for edge in edges)
            if not room[slot]:
                continue
            room[slot] -= 1
            if room[slot] < per_schema // bins * SMALL_INVALID_SHARE:
                payloads.append(
                    _mutant(rng, names, attrs, xsd, kind, text, tree)
                )
            else:
                payloads.append(
                    make_payload(kind, text, xsd, write_document(tree))
                )
            if not any(room):
                break
    order = _blocks(rng, len(payloads), 4 if tiny else 100)
    return Workload("serve_small", seed, 2, payloads, order, hot,
                    _properties(payloads, order))


def _small_trees(rng, generator):
    """Endless generated trees whose documents are 0.3-4 KB."""
    from repro.xmlmodel import write_document

    while True:
        tree = generator.generate(rng, max_depth=3 + rng.randrange(4),
                                  max_children=6)
        if 300 <= len(write_document(tree)) <= 4096:
            yield tree


def _serve_large(seed, tiny):
    from repro.paperdata import FIGURE3_XSD

    rng = random.Random(f"serve_large:{seed}")
    # 40 documents: three per violation class at a 30% invalid share, and
    # latencies dense enough that the median does not hop between them.
    count = 4 if tiny else 40
    low, high = (16_000, 24_000) if tiny else (100_000, 140_000)
    # Stratified sizes: one draw from each of ``count`` equal slices.
    targets = [low + (i + rng.random()) * (high - low) / count
               for i in range(count)]
    rng.shuffle(targets)
    invalid = round(count * LARGE_INVALID_SHARE)
    offset = rng.randrange(len(LARGE_VIOLATIONS))
    xsd = formal_xsd("xsd", FIGURE3_XSD)
    payloads = []
    for index, target in enumerate(targets):
        violation = None
        if index < invalid:
            violation = LARGE_VIOLATIONS[
                (offset + index) % len(LARGE_VIOLATIONS)
            ]
        document = large_document(rng, int(target), violation)
        payload = make_payload("xsd", FIGURE3_XSD, xsd, document)
        if payload.valid == (violation is not None):
            raise RuntimeError(
                f"large document generator broke its own contract "
                f"(violation={violation!r}, valid={payload.valid})"
            )
        payloads.append(payload)
    order = _blocks(rng, len(payloads), 40)
    return Workload("serve_large", seed, 1, payloads, order,
                    [("xsd", FIGURE3_XSD)], _properties(payloads, order))


def _schema_churn(seed, tiny):
    from repro.serve import ServeConfig
    from repro.serve.service import ValidationService
    from repro.xmlmodel import write_document

    rng = random.Random(f"schema_churn:{seed}")
    service = ValidationService(ServeConfig(port=0))
    memo_size = service.config.schema_memo_size
    cache_size = service.cache.maxsize
    pool_size = 12 if tiny else 2 * memo_size
    docs_per_schema = 4  # 3 valid + 1 mutant: a 25% invalid share
    kinds = ("xsd", "bonxai", "dtd")
    schemas = []
    payloads = []
    for position, kind in enumerate(kinds):
        quota = (pool_size + len(kinds) - 1 - position) // len(kinds)
        for text, xsd, generator in _length_stratified(seed, kind, quota):
            names, attrs = _schema_alphabet(generator.schema)
            first = len(payloads)
            for __ in range(docs_per_schema - 1):
                tree = generator.generate(rng, max_depth=5, max_children=5)
                payloads.append(
                    make_payload(kind, text, xsd, write_document(tree))
                )
            payloads.append(
                _mutant(rng, names, attrs, xsd, kind, text, tree)
            )
            schemas.append((kind, text, first))
    # Requests take the pool's schemas in shuffled passes: the distance
    # between two uses of a schema is then mostly above the memo size, so
    # about 7 in 8 requests parse, translate and compile (uniform draws
    # would hit the memo about half the time and put the median on the
    # edge between the hit and the miss mode).  Each schema steps through
    # its documents from a seeded offset, one per pass, so every pass
    # sends exactly a quarter of the schemas their mutant.
    passes = 20 if tiny else 80
    offsets = [rng.randrange(docs_per_schema) for __ in schemas]
    positions = _blocks(rng, len(schemas), passes)
    order = [
        schemas[position][2]
        + (offsets[position] + step // len(schemas)) % docs_per_schema
        for step, position in enumerate(positions)
    ]
    properties = _properties(payloads, order)
    properties["schema_pool"] = {
        "size": len(schemas),
        "kinds": dict(Counter(kind for kind, __, __ in schemas)),
        "schema_bytes": _quantiles(len(text) for __, text, __ in schemas),
        "daemon_schema_memo": memo_size,
        "daemon_schema_cache": cache_size,
    }
    hot = [(kind, text) for kind, text, __ in schemas]
    return Workload("schema_churn", seed, 1, payloads, order, hot,
                    properties)


# Compile cost tracks schema text length closely (log-log correlation
# about 0.97 on generated pools), so the churn pool is stratified by it:
# each kind fills equal quotas in length bins cut at the quantiles of a
# fixed reference pool.  Seeds then differ in schemas, not in cost mix.
LENGTH_BINS = 8
REFERENCE_SEED = "length-reference"
REFERENCE_SIZE = 96


def _length_stratified(seed, kind, quota):
    """``quota`` schemas of ``kind`` that accept some document, spread
    evenly over the reference pool's length bins; yields ``(text, formal
    XSD, DocumentGenerator)``."""
    from repro.errors import SchemaError
    from repro.translation import xsd_to_dfa_based
    from repro.xsd.generator import DocumentGenerator

    bins = min(LENGTH_BINS, quota)
    reference = sorted(
        len(pool_schema_text(REFERENCE_SEED, index, kind))
        for index in range(1, REFERENCE_SIZE + 1)
    )
    edges = [reference[len(reference) * cut // bins]
             for cut in range(1, bins)]
    room = [quota // bins + (slot < quota % bins) for slot in range(bins)]
    chosen = []
    index = 0
    while len(chosen) < quota:
        index += 1
        if index > 50 * quota:
            raise RuntimeError(f"cannot fill the {kind} schema pool")
        text = pool_schema_text(seed, index, kind)
        slot = sum(len(text) >= edge for edge in edges)
        if not room[slot]:
            continue
        xsd = formal_xsd(kind, text)
        try:
            generator = DocumentGenerator(xsd_to_dfa_based(xsd))
        except SchemaError:
            continue  # the schema accepts no documents
        room[slot] -= 1
        chosen.append((text, xsd, generator))
    return chosen


def pool_schema_text(seed, index, kind):
    """Schema ``index`` of the churn pool, rendered as ``kind`` text.

    XSD and BonXai schemas are conformance-generator cases (DFA-based
    XSDs) written through the XSD writer or lifted to BonXai; DTDs are
    the conformance generator's 1-suffix family, which a DTD can express.
    """
    from repro.bonxai.decompile import bxsd_to_schema
    from repro.bonxai.printer import print_schema
    from repro.conformance.generate import CaseGenerator
    from repro.corpus.generator import make_dtd_like
    from repro.translation import dfa_based_to_bxsd, dfa_based_to_xsd
    from repro.xsd.writer import write_xsd

    if kind == "dtd":
        rng = random.Random(f"churn-dtd:{seed}:{index}")
        return dtd_text(make_dtd_like(rng, width=4))
    # XSD and BonXai draw disjoint cases.
    dfa = CaseGenerator(seed=seed).case(2 * index + (kind == "bonxai")).dfa
    if kind == "xsd":
        return write_xsd(dfa_based_to_xsd(dfa))
    return print_schema(bxsd_to_schema(dfa_based_to_bxsd(dfa)))


def dtd_text(bxsd):
    """Render a 1-suffix BXSD (``//name = content`` rules) as DTD text."""
    lines = []
    for rule in bxsd.rules:
        name = rule.pattern.children[-1].name
        lines.append(f"<!ELEMENT {name} {_dtd_content(rule.content.regex)}>")
        for use in rule.content.attributes:
            default = "#REQUIRED" if use.required else "#IMPLIED"
            lines.append(f"<!ATTLIST {name} {use.name} CDATA {default}>")
    return "\n".join(lines) + "\n"


def _dtd_content(regex, top=True):
    from repro.regex.ast import (
        Concat,
        Epsilon,
        Optional,
        Plus,
        Star,
        Symbol,
        Union,
    )

    if isinstance(regex, Epsilon):
        return "EMPTY"
    if isinstance(regex, Symbol):
        return f"({regex.name})" if top else regex.name
    if isinstance(regex, (Concat, Union)):
        glue = ", " if isinstance(regex, Concat) else " | "
        return "(" + glue.join(
            _dtd_content(child, False) for child in regex.children
        ) + ")"
    suffix = {Star: "*", Plus: "+", Optional: "?"}[type(regex)]
    inner = _dtd_content(regex.child, False)
    if isinstance(regex.child, Symbol):
        inner = f"({inner})"
    return inner + suffix


# -- the E11 document family --------------------------------------------------

# E11 documents repeat a handful of titles and phrases; so do these
# (the recorded distinct-chunk share says how much).
_PHRASES = ("", "", "", "prose", "text 1", "text 2", "bold words",
            "emphasis", "small print", "a rule", "the pattern", "in it")


def _words(rng):
    return _PHRASES[rng.randrange(len(_PHRASES))]


def _markup(rng, depth):
    from repro.xmlmodel.tree import XMLElement

    name = ("bold", "italic", "font", "style", "color")[rng.randrange(5)]
    node = XMLElement(name)
    if name == "style":
        node.attributes["name"] = f"user{rng.randrange(8)}"
    elif name == "color":
        node.attributes["color"] = ("red", "blue", "green")[rng.randrange(3)]
    elif name == "font":
        if rng.random() < 0.7:
            node.attributes["name"] = "Times"
        if rng.random() < 0.5:
            node.attributes["size"] = str(8 + rng.randrange(30))
    node.append_text(_words(rng))
    if depth > 0 and rng.random() < 0.3:
        node.append(_markup(rng, depth - 1), text_after=_words(rng))
    return node


def _content_section(rng, depth):
    from repro.xmlmodel.tree import XMLElement

    node = XMLElement("section",
                      attributes={"title": f"s{rng.randrange(12)}"})
    node.append_text(_words(rng))
    for __ in range(2 + rng.randrange(5)):
        if depth > 0 and rng.random() < 0.35:
            child = _content_section(rng, depth - 1)
        else:
            child = _markup(rng, 2)
        node.append(child, text_after=_words(rng))
    return node


def _template_section(rng, depth):
    from repro.xmlmodel.tree import XMLElement

    node = XMLElement("section")
    if rng.random() < 0.7:
        node.append(XMLElement("titlefont", attributes={
            "name": "Serif", "size": str(10 + rng.randrange(40))}))
    if rng.random() < 0.7:
        node.append(_plain_style(rng))
    if depth > 0:
        node.append(_template_section(rng, depth - 1))
    return node


def _plain_style(rng, name=None):
    from repro.xmlmodel.tree import XMLElement

    style = XMLElement("style")
    if name is not None:
        style.attributes["name"] = name
    children = []
    if rng.random() < 0.6:
        children.append(XMLElement("font", attributes={"name": "Mono"}))
    if rng.random() < 0.6:
        children.append(XMLElement("color", attributes={"color": "gray"}))
    rng.shuffle(children)  # xs:all — either order is valid
    for child in children:
        style.append(child)
    return style


def large_document(rng, target_bytes, violation=None):
    """An E11-family document of about ``target_bytes`` against the
    Figure 3 XSD, carrying one ``violation`` of the given class (or
    none)."""
    from repro.xmlmodel.tree import XMLDocument, XMLElement
    from repro.xmlmodel.writer import write_document, write_element

    template = XMLElement("template")
    template.append(_template_section(rng, 2 + rng.randrange(3)))
    userstyles = XMLElement("userstyles")
    for index in range(4 + rng.randrange(8)):
        userstyles.append(_plain_style(rng, name=f"user{index}"))
    content = XMLElement("content")
    root = XMLElement("document")
    for child in (template, userstyles, content):
        root.append(child)
    size = len(write_document(XMLDocument(root)))
    while size < target_bytes:
        section = _content_section(rng, 2)
        content.append(section)
        size += len(write_element(section, indent="  ", level=2)) + 5

    if violation == "disallowed_child" or violation == "attribute":
        sections = [node for node in content.iter()
                    if node.name == "section"]
        victim = sections[rng.randrange(len(sections))]
        if violation == "attribute":
            del victim.attributes["title"]
        else:
            victim.append(XMLElement("titlefont"))
    elif violation == "content_model":
        styles = userstyles.children
        victim = styles[rng.randrange(len(styles))]
        victim.append(XMLElement("font"))
        victim.append(XMLElement("font"))
    elif violation == "text":
        styles = userstyles.children
        styles[rng.randrange(len(styles))].append_text("stray text")
    return write_document(XMLDocument(root))


# -- recorded input properties ------------------------------------------------

def _quantiles(values):
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "p50": ordered[len(ordered) // 2],
        "max": ordered[-1],
    }


def _properties(payloads, order):
    from repro.xmlmodel.tokenizer import (
        FallbackRequired,
        body_start,
        split_body,
    )

    shares = []
    for payload in payloads:
        data = payload.document.encode("utf-8")
        try:
            chunks = split_body(data, body_start(data))
        except FallbackRequired:
            continue
        shares.append(len(set(chunks)) / len(chunks))
    classes = Counter(
        violation_class(message)
        for payload in payloads
        for message in payload.violations
    )
    sent_invalid = sum(1 for index in order if not payloads[index].valid)
    return {
        "payloads": len(payloads),
        "document_bytes": _quantiles(
            len(payload.document.encode("utf-8")) for payload in payloads
        ),
        "elements": _quantiles(payload.elements for payload in payloads),
        "invalid_share": round(sent_invalid / len(order), 4),
        "violation_classes": dict(sorted(classes.items())),
        "distinct_chunk_share": round(sum(shares) / len(shares), 4),
    }
