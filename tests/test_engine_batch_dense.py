"""``validate_many`` on the dense path: routing, limits, deadline, memory.

Text and bytes documents reach :meth:`StreamingValidator.validate`, so a
dense schema validates them on the fused byte scan; trees and event
iterables keep the compat loop.  The routed path must report exactly
what the compat path reports — errors included — under the caller's
explicit limits, with the batch deadline enforced inside the scan.
"""

import sys
import time
import tracemalloc
import types

import pytest

from repro.engine import StreamingValidator, compile_xsd, validate_many
from repro.engine import batch as batch_module
from repro.engine.streaming import DEADLINE_STRIDE
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
# One undeclared child deep inside: the scan walks most of the document
# before it falls back.
_HEAD, _BOLD, _TAIL = LARGE.rpartition("<bold>b</bold>")
LARGE_INVALID = _HEAD + "<bogus/>" + _TAIL


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

    def test_invalid_document_falls_back_with_full_diagnostics(self):
        before = _dense_counters()
        report = validate_many(COMPILED, [LARGE_INVALID])[0]
        reference = StreamingValidator(COMPILED).validate_events(
            iter_events(LARGE_INVALID)
        )
        assert sorted(report.violations) == sorted(reference.violations)
        assert report.violations
        assert _dense_counters() == (before[0], before[1] + 1)

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
        scan_calls = -(-LARGE_INVALID.count("<") // DEADLINE_STRIDE)
        calls = []
        report = validator.validate(
            LARGE_INVALID, deadline=lambda: calls.append(1)
        )
        assert not report.valid
        # Whatever the scan checked before bailing, plus the compat
        # loop's checks every 64 events.
        assert len(calls) > scan_calls


class TestRepeatedFallbacksDoNotLeak:
    def test_traced_memory_stays_flat(self):
        validator = StreamingValidator(COMPILED)
        head, __, tail = _large_document(150).rpartition("<bold>b</bold>")
        data = (head + "<bogus/>" + tail).encode()
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
