"""``validate_many`` on the dense path: routing, limits, deadline, memory.

Text and bytes documents reach :meth:`StreamingValidator.validate`, so a
dense schema validates them on the fused byte scan; trees and event
iterables keep the compat loop.  The routed path must report exactly
what the compat path reports — errors included — under the caller's
explicit limits, with the batch deadline enforced inside the scan.
"""

import random
import sys
import time
import tracemalloc
import types

import pytest

from repro.engine import StreamingValidator, compile_xsd, validate_many
from repro.engine import batch as batch_module
from repro.engine.streaming import DEADLINE_STRIDE
from repro.errors import ParseError
from repro.observability import default_registry
from repro.paperdata import FIGURE1_XML, figure3_xsd
from repro.resilience import DocumentError, FaultInjector, ParserLimits
from repro.xmlmodel import parse_document
from repro.xmlmodel.parser import iter_events

COMPILED = compile_xsd(figure3_xsd())


def _large_document(sections=1000):
    """A valid Figure-3 document of several thousand chunks."""
    body = "".join(
        f'<section title="s{index}">text {index % 7} '
        f'<bold>b</bold><italic>i</italic></section>'
        for index in range(sections)
    )
    return (
        "<document><template><section/></template><userstyles/>"
        f"<content>{body}</content></document>"
    )


LARGE = _large_document()
# One undeclared child deep inside: the scan records it and commits.
_HEAD, _BOLD, _TAIL = LARGE.rpartition("<bold>b</bold>")
LARGE_INVALID = _HEAD + "<bogus/>" + _TAIL
# The same, plus an entity reference after it: the scan walks most of
# the document, then hands it to the char parser.
LARGE_FALLBACK = LARGE_INVALID.replace("<bogus/>", "<bogus/>&amp;")


def counter(name):
    return default_registry().counter(name).value


def _dense_counters():
    return counter("engine.dense.docs"), counter("engine.dense.fallbacks")


def _compat_error(text, limits):
    """The compat path's DocumentError for ``text`` under ``limits``."""
    validator = StreamingValidator(COMPILED)
    try:
        validator.validate_events(iter_events(text, limits=limits))
    except Exception as exc:
        return DocumentError.from_exception(exc)
    raise AssertionError(f"compat path accepted {text!r}")


def _error_surface(error):
    return error.kind, error.message, error.line, error.column


def test_fixtures_are_what_they_claim():
    assert COMPILED.dense
    assert StreamingValidator(COMPILED).validate(LARGE).valid
    assert not StreamingValidator(COMPILED).validate(LARGE_INVALID).valid
    assert LARGE.count("<") > 4 * DEADLINE_STRIDE
    assert "&amp;" in LARGE_FALLBACK
    assert LARGE_FALLBACK.index("&amp;") > len(LARGE_FALLBACK) // 2


class TestRouting:
    def test_text_and_bytes_take_the_dense_path(self):
        before = _dense_counters()
        outcomes = validate_many(
            COMPILED, [FIGURE1_XML, FIGURE1_XML.encode()], policy="isolate"
        )
        assert all(outcome.valid for outcome in outcomes)
        assert _dense_counters() == (before[0] + 2, before[1])

    def test_trees_and_event_iterables_keep_the_compat_loop(self):
        document = parse_document(FIGURE1_XML)
        before = _dense_counters()
        reports = validate_many(
            COMPILED, [document, document.root, iter_events(FIGURE1_XML)]
        )
        assert all(report.valid for report in reports)
        assert _dense_counters() == before

    def test_invalid_document_commits_with_full_diagnostics(self):
        before = _dense_counters()
        report = validate_many(COMPILED, [LARGE_INVALID])[0]
        reference = StreamingValidator(COMPILED).validate_events(
            iter_events(LARGE_INVALID)
        )
        assert report.violations == reference.violations
        assert report.violations
        assert list(report.typing.items()) == list(reference.typing.items())
        assert _dense_counters() == (before[0] + 1, before[1])

    def test_one_parse_and_one_validate_probe_per_document(self):
        sources = [FIGURE1_XML, LARGE_INVALID, "<document><content>",
                   FIGURE1_XML.encode(), parse_document(FIGURE1_XML)]
        injector = FaultInjector(seed=0, rates={})
        validate_many(COMPILED, sources, policy="isolate", injector=injector)
        assert injector.checks("parse") == len(sources) - 1  # no tree parse
        assert injector.checks("validate") == len(sources)


class TestLimitsOnTheRoutedPath:
    @pytest.mark.parametrize("limits", [
        ParserLimits(max_depth=3),
        ParserLimits(max_attributes=1),
        ParserLimits(max_depth=3, max_attributes=1),
        ParserLimits(max_text_length=8),
        ParserLimits(max_name_length=6),
    ])
    def test_explicit_limits_yield_the_compat_error(self, limits):
        before = _dense_counters()
        outcome = validate_many(
            COMPILED, [FIGURE1_XML], limits=limits, policy="isolate"
        )[0]
        assert outcome.error is not None
        assert outcome.error.kind == "limit"
        assert (_error_surface(outcome.error)
                == _error_surface(_compat_error(FIGURE1_XML, limits)))
        # The dense scan was attempted and handed over to the char parser.
        assert _dense_counters() == (before[0], before[1] + 1)

    def test_explicit_limits_win_over_ambient(self):
        with ParserLimits(max_depth=2):
            outcome = validate_many(
                COMPILED, [FIGURE1_XML], policy="isolate",
                limits=ParserLimits(),
            )[0]
        assert outcome.valid

    def test_memo_warmed_under_lax_limits_does_not_serve_strict_ones(self):
        # A schema of its own, so the shared memo starts empty.
        compiled = compile_xsd(figure3_xsd())
        lax = validate_many(compiled, [FIGURE1_XML], policy="isolate")[0]
        assert lax.valid
        for strict in (ParserLimits(max_attributes=1),
                       ParserLimits(max_text_length=8),
                       ParserLimits(max_name_length=6)):
            outcome = validate_many(
                compiled, [FIGURE1_XML], limits=strict, policy="isolate"
            )[0]
            assert outcome.error is not None, strict
            assert outcome.error.kind == "limit"
        assert validate_many(compiled, [FIGURE1_XML])[0].valid

    def test_memo_keys_on_the_caps_parse_chunk_reads(self):
        compiled = compile_xsd(figure3_xsd())
        default = compiled.chunk_memo(ParserLimits())
        assert compiled.chunk_memo(ParserLimits(max_depth=5)) is default
        assert compiled.chunk_memo(ParserLimits(max_attributes=1)) \
            is not default

    def test_memo_is_bounded(self):
        from repro.engine.compiler import CHUNK_MEMO_SIZE

        compiled = compile_xsd(figure3_xsd())
        # Every section start tag is a distinct chunk.
        text = _large_document(CHUNK_MEMO_SIZE + 200)
        assert validate_many(compiled, [text])[0].valid
        assert len(compiled.chunk_memo(ParserLimits())) == CHUNK_MEMO_SIZE

    def test_memo_retains_no_large_chunks(self):
        from repro.engine.compiler import CHUNK_MEMO_MAX_BYTES

        compiled = compile_xsd(figure3_xsd())
        # Sections are mixed: each document carries one distinct 64 KB
        # text node, so its section chunk is 64 KB long.
        documents = [
            "<document><template><section/></template><userstyles/>"
            '<content><section title="s">'
            + f"text {index} " * 8000
            + "</section></content></document>"
            for index in range(32)
        ]
        docs_before, fallbacks_before = _dense_counters()
        outcomes = validate_many(compiled, documents)
        assert all(outcome.valid for outcome in outcomes)
        assert _dense_counters() == (docs_before + 32, fallbacks_before)
        memo = compiled.chunk_memo(ParserLimits())
        assert memo and max(map(len, memo)) <= CHUNK_MEMO_MAX_BYTES
        retained = sum(sys.getsizeof(chunk) + sys.getsizeof(action)
                       for chunk, action in memo.items())
        assert retained < 4096, retained


class TestSharedMemoUnderThreads:
    def test_concurrent_batches_agree_with_serial_and_stay_bounded(self):
        from repro.engine.compiler import CHUNK_MEMO_SIZE

        workers = 8
        # Up to 1500 sections: more distinct start tags than the memo holds.
        documents = [_large_document(sections) for sections in
                     range(100, 1600, 100)]
        documents += [LARGE_INVALID, "<document><content>"]
        serial = [
            _outcome_surface(outcome) for outcome in validate_many(
                compile_xsd(figure3_xsd()), documents, policy="isolate"
            )
        ]
        compiled = compile_xsd(figure3_xsd())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = validate_many(compiled, documents, policy="isolate",
                                     workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert [_outcome_surface(outcome) for outcome in threaded] == serial
        # Check-then-insert may overshoot by one entry per racing worker.
        memo = compiled.chunk_memo(ParserLimits())
        assert CHUNK_MEMO_SIZE <= len(memo) <= CHUNK_MEMO_SIZE + workers


def _outcome_surface(outcome):
    if outcome.ok:
        return ("report", outcome.valid, sorted(outcome.report.violations))
    return ("error",) + _error_surface(outcome.error)


class TestDeadlineInsideTheScan:
    def test_deadline_fires_from_inside_the_dense_scan(self, monkeypatch):
        validator = StreamingValidator(COMPILED)
        assert validator.validate(LARGE).valid  # warm the shared memo
        tripped = []

        def monotonic():
            """Real time, except a far-future instant inside the scan."""
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_name == "_scan_dense":
                    tripped.append(True)
                    return time.monotonic() + 1000.0
                frame = frame.f_back
            return time.monotonic()

        monkeypatch.setattr(batch_module, "time",
                            types.SimpleNamespace(monotonic=monotonic))
        before = counter("engine.batch.deadline_exceeded")
        dense_before = _dense_counters()
        outcome = validate_many(
            COMPILED, [LARGE], policy="isolate", deadline=30.0
        )[0]
        assert outcome.error is not None
        assert outcome.error.kind == "deadline"
        assert tripped == [True]
        assert counter("engine.batch.deadline_exceeded") == before + 1
        # Neither committed nor handed to the compat rerun.
        assert _dense_counters() == dense_before

    def test_scan_checks_every_stride_and_at_the_end(self):
        validator = StreamingValidator(COMPILED)
        calls = []
        report = validator.validate(LARGE, deadline=lambda: calls.append(1))
        assert report.valid
        chunks = LARGE.count("<")
        assert len(calls) == -(-chunks // DEADLINE_STRIDE)

    def test_fallback_rerun_keeps_the_event_deadline(self):
        validator = StreamingValidator(COMPILED)
        scan_calls = -(-LARGE_FALLBACK.count("<") // DEADLINE_STRIDE)
        calls = []
        report = validator.validate(
            LARGE_FALLBACK, deadline=lambda: calls.append(1)
        )
        assert not report.valid
        # Whatever the scan checked before bailing, plus the compat
        # loop's checks every 64 events.
        assert len(calls) > scan_calls


class TestRepeatedFallbacksDoNotLeak:
    def test_traced_memory_stays_flat(self):
        validator = StreamingValidator(COMPILED)
        head, __, tail = _large_document(150).rpartition("<bold>b</bold>")
        data = (head + "<bogus/>&amp;" + tail).encode()
        for __ in range(3):  # warm memos, counters and caches
            assert not validator.validate_bytes(data).valid
        tracemalloc.start()
        try:
            baseline, __ = tracemalloc.get_traced_memory()
            for __ in range(30):
                assert not validator.validate_bytes(data).valid
            grown, __ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One retained scan frame holds the document bytes and its chunk
        # list; thirty of them would be many times the document's size.
        assert grown - baseline < len(data)


def _doc(content="", userstyles=""):
    """A Figure-3 document around the given content/userstyles bodies."""
    return (
        "<document><template/>"
        f"<userstyles>{userstyles}</userstyles>"
        f"<content>{content}</content></document>"
    )


class TestInvalidDocumentsOnTheScan:
    """Schema-invalid documents commit on the dense scan with exactly
    the compat loop's report — violations in order, typing in order;
    anomalies the char parser must word still fall back."""

    @staticmethod
    def _agree(text, limits=None):
        """Dense and compat outcomes agree on ``text`` (as str and as
        bytes); returns the dense path's (commits, fallbacks) growth
        for the str call."""
        from tests.test_engine_differential import _outcome

        validator = StreamingValidator(COMPILED)
        reference = _outcome(lambda: validator.validate_events(
            iter_events(text, limits=limits)
        ))
        before = _dense_counters()
        as_text = _outcome(lambda: validator.validate(text, limits=limits))
        after = _dense_counters()
        as_bytes = _outcome(lambda: validator.validate_bytes(
            text.encode(), limits=limits
        ))
        assert as_text == reference, (text, as_text, reference)
        assert as_bytes == reference, (text, as_bytes, reference)
        return after[0] - before[0], after[1] - before[1]

    @pytest.mark.parametrize("text", [
        "<nowhere><junk></nowhere",            # foreign root, bad tail
        "<zzz a='1'/>trailing <",               # foreign self-closing root
        "<section title='t'><bold></italic>",   # alphabet name, not a root
        "<bold><i>&bogus;",                     # undefined entity after it
    ])
    def test_undeclared_root_reports_without_reading_the_tail(self, text):
        assert self._agree(text) == (1, 0)

    @pytest.mark.parametrize("data", [
        b"<nowhere>\xff</nowhere>",  # undeclared root, undecodable tail
        b"<?xml version='1.0'?><!-- \xff -->" + _doc().encode(),
    ])
    def test_undecodable_bytes_fall_back(self, data):
        # The compat path decodes the whole input before parsing.
        validator = StreamingValidator(COMPILED)
        before = _dense_counters()
        with pytest.raises(ParseError) as dense:
            validator.validate_bytes(data)
        assert _dense_counters() == (before[0], before[1] + 1)
        assert "not valid UTF-8" in str(dense.value)

    def test_disallowed_subtree_with_foreign_and_schema_names(self):
        text = _doc(
            "<section title='a'>x<zap><zip q='1'>t</zip><zop/>"
            "<section><bold>deep</bold></section></zap>y"
            "<titlefont/>z</section>"
        )
        assert self._agree(text) == (1, 0)
        report = StreamingValidator(COMPILED).validate(text)
        assert [message.split(": ")[1] for message in report.violations] \
            == ["element <zap> is not allowed under <section> "
                "(type Tsection)",
                "element <titlefont> is not allowed under <section> "
                "(type Tsection)"]

    @pytest.mark.parametrize("text,limits", [
        (_doc("<section title='a'><zap><zip></zop></zap></section>"), None),
        (_doc("<section title='a'><zap><bold></italic></zap></section>"),
         None),
        (_doc("<section title='a'><zap>" + "<zz>" * 8 + "</zz>" * 8
              + "</zap></section>"), ParserLimits(max_depth=8)),
        (_doc("<section title='a'><zap><zz/></zap></section>"),
         ParserLimits(max_depth=4)),
    ])
    def test_skipped_subtree_keeps_parser_errors(self, text, limits):
        assert self._agree(text, limits) == (0, 1)

    def test_self_closing_disallowed_child(self):
        text = _doc(userstyles="<bogus/>stray<style name='s'/>")
        assert self._agree(text) == (1, 0)
        report = StreamingValidator(COMPILED).validate(text)
        assert report.violations == [
            "/document/userstyles: element <bogus> is not allowed under "
            "<userstyles> (type T_userstyles)",
            "/document/userstyles: element <userstyles> (type "
            "T_userstyles) may not contain text",
        ]

    def test_attribute_violations_keep_document_order(self):
        text = _doc(
            "<section title='t' zeta='1' alpha='2' mid='3'/>",
            userstyles="<style zeta='1' alpha='2'/>",
        )
        assert self._agree(text) == (1, 0)
        report = StreamingValidator(COMPILED).validate(text)
        assert [message.rsplit(" ", 1)[1] for message in report.violations] \
            == ["'name'", "'zeta'", "'alpha'", "'zeta'", "'alpha'", "'mid'"]

    def test_content_model_reject_cites_the_child_word(self):
        text = _doc(userstyles="<style name='s'><font/><color color='c'/>"
                               "<font size='1'>x</font></style>")
        assert self._agree(text) == (1, 0)
        report = StreamingValidator(COMPILED).validate(text)
        assert any("[font color font]" in message
                   for message in report.violations), report.violations

    def test_second_root_falls_back_to_the_parser_error(self):
        assert self._agree(_doc() + "<document/>") == (0, 1)
        assert self._agree("<nowhere/><nowhere/>") == (1, 0)

    def test_typing_skips_disallowed_subtrees(self):
        text = _doc(
            "<section title='a'/><bogus><section title='z'/></bogus>"
            "<section title='b'><bogus/><bold/></section>"
        )
        assert self._agree(text) == (1, 0)
        report = StreamingValidator(COMPILED).validate(text)
        assert list(report.typing) == [
            "/document[1]", "/document[1]/template[1]",
            "/document[1]/userstyles[1]", "/document[1]/content[1]",
            "/document[1]/content[1]/section[1]",
            "/document[1]/content[1]/section[2]",
            "/document[1]/content[1]/section[2]/bold[1]",
        ]

    def test_undeclared_root_typing_is_empty(self):
        report = StreamingValidator(COMPILED).validate(
            "<nowhere><a/></nowhere>"
        )
        assert report.typing == {}
        assert report.violations and not report.valid

    def test_deadline_fires_inside_the_scan_of_an_invalid_document(self):
        class Expired(Exception):
            pass

        calls = []

        def deadline():
            calls.append(1)
            if len(calls) == 2:
                raise Expired

        before = _dense_counters()
        with pytest.raises(Expired):
            StreamingValidator(COMPILED).validate(
                LARGE_INVALID, deadline=deadline
            )
        # Raised mid-scan: neither committed nor handed to the rerun.
        assert len(calls) == 2
        assert _dense_counters() == before

    @staticmethod
    def _chain_xsd():
        """``Ta = (a, a) | b*``: an ``<a>`` holding one ``<a>`` rejects."""
        from repro.regex.ast import concat, star, sym, union
        from repro.xsd.content import ContentModel
        from repro.xsd.model import XSD
        from repro.xsd.typednames import TypedName

        a, b = sym(TypedName("a", "Ta")), sym(TypedName("b", "Tb"))
        return XSD(
            ename={"a", "b"}, types={"Ta", "Tb"},
            rho={"Ta": ContentModel(union(concat(a, a), star(b))),
                 "Tb": ContentModel(concat())},
            start={TypedName("a", "Ta")},
        )

    def test_nested_rejects_walk_each_chunk_once(self, monkeypatch):
        # Every <a> of the chain rejects its one-child word [a], and
        # each of their child words lies past the wide innermost <a>: a
        # walk per ancestor over the whole subtree would be
        # O(depth x width) chunk lookups.
        from repro.engine.compiler import CompiledSchema

        class CountingMemo(dict):
            lookups = 0

            def get(self, key, default=None):
                CountingMemo.lookups += 1
                return dict.get(self, key, default)

        memo = CountingMemo()
        monkeypatch.setattr(CompiledSchema, "chunk_memo",
                            lambda self, limits: memo)
        validator = StreamingValidator(compile_xsd(self._chain_xsd()))

        def scan(depth, width):
            text = "<a>" * depth + "<b/>" * width + "</a>" * depth
            reference = validator.validate_events(iter_events(text))
            calls = []
            CountingMemo.lookups = 0
            report = validator.validate(
                text, deadline=lambda: calls.append(1)
            )
            assert report.violations == reference.violations
            assert len(report.violations) == depth - 1
            assert report.typing == reference.typing
            return CountingMemo.lookups, len(calls)

        width = 8 * DEADLINE_STRIDE
        lookups, calls = scan(200, width)
        chunks = 2 * 200 + width
        # The scan looks each chunk up once; all walks together once more.
        assert lookups <= 2 * chunks, (lookups, chunks)
        # The walks check the deadline per stride too: here the outer
        # <a>'s walk alone crosses the whole innermost <a>.
        lookups, calls = scan(2, width)
        assert calls >= 2 * (width // DEADLINE_STRIDE), calls

    def test_many_distinct_foreign_children_stay_linear(self):
        # Each message names its foreign child; looking the name up must
        # not cost a pass over every foreign name seen so far.
        text = _doc("".join(f"<x{index}/>" for index in range(20000)))
        validator = StreamingValidator(COMPILED)
        started = time.perf_counter()
        reference = validator.validate_events(iter_events(text))
        compat = time.perf_counter() - started
        started = time.perf_counter()
        report = validator.validate(text)
        dense = time.perf_counter() - started
        assert report.violations == reference.violations
        assert len(report.violations) == 20000
        # The char parser costs several times the scan per element; a
        # quadratic name lookup costs tens of times the compat loop.
        assert dense < 3 * compat, (dense, compat)


def _random_element(rng, depth):
    """A well-formed, usually schema-invalid Figure-3 element: names
    and attributes drawn from the schema plus foreign ones."""
    name = rng.choice(["document", "template", "userstyles", "content",
                       "section", "style", "font", "color", "bold",
                       "italic", "titlefont", "zap", "zz"])
    attributes = "".join(
        f' {key}="v"' for key in rng.sample(
            ["title", "name", "size", "color", "bogus", "zeta"],
            rng.randrange(3),
        )
    )
    tail = rng.choice(["", " ", "t"])
    if depth > 4 or rng.random() < 0.3:
        return f"<{name}{attributes}/>{tail}"
    children = "".join(_random_element(rng, depth + 1)
                       for __ in range(rng.randrange(4)))
    text = rng.choice(["", " ", "x"])
    return f"<{name}{attributes}>{text}{children}</{name}>{tail}"


def test_random_invalid_documents_agree_with_compat():
    # Seeded well-formed documents, nearly all schema-invalid (foreign
    # names, disallowed nesting, stray attributes and text), some with a
    # mismatched end tag or over a depth limit.
    from tests.test_engine_differential import _outcome

    rng = random.Random(0xB0A7)
    validator = StreamingValidator(COMPILED)
    invalid = 0
    for __ in range(600):
        root = rng.choice(["document", "document", "zap", "section"])
        body = "".join(_random_element(rng, 2)
                       for __ in range(rng.randrange(4)))
        text = f"<{root}>{body}</{root}>"
        if rng.random() < 0.1:
            text = text.replace("</", "</q", 1)
        limits = ParserLimits(max_depth=rng.choice([4, 6, 64]))
        dense = _outcome(lambda: validator.validate(text, limits=limits))
        compat = _outcome(lambda: validator.validate_events(
            iter_events(text, limits=limits)
        ))
        assert dense == compat, (text, dense, compat)
        invalid += dense[0] == "report" and not dense[1]
    assert invalid > 400, invalid


class TestDenseObservability:
    def test_span_path_and_violation_counts(self):
        from repro.observability import Tracer

        violations = default_registry().counter("engine.stream.violations")
        validator = StreamingValidator(COMPILED)
        with Tracer() as tracer:
            validator.validate(LARGE)
            before = violations.value
            invalid = validator.validate(LARGE_INVALID)
            counted = violations.value - before
            validator.validate(LARGE_FALLBACK)
        assert counted == len(invalid.violations) == 1
        spans = [s for s in tracer.finished_spans()
                 if s.name == "engine.validate"]
        paths = [s.attributes.get("path") for s in spans]
        # The fallback's failed attempt carries no path; its rerun does.
        assert paths == ["dense", "dense_invalid", None, "reparse"]
        assert spans[1].attributes["violations"] == 1
        assert spans[3].attributes["violations"] == 1

    def test_event_counts_agree_on_invalid_documents(self):
        # Skipped subtrees and an undeclared root's early stop count
        # exactly the events the compat loop consumes.
        events = default_registry().counter("engine.stream.events")
        validator = StreamingValidator(COMPILED)
        for text in [
            LARGE_INVALID,
            _doc("<section title='a'>x<zap><zip q='1'>t</zip><zop/> "
                 "</zap>y<titlefont/>z</section>"),
            "<nowhere><a/></nowhere>",
        ]:
            before = events.value
            validator.validate(text)
            dense = events.value - before
            before = events.value
            validator.validate_events(iter_events(text))
            assert dense == events.value - before, text
