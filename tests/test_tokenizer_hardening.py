"""Hardening suite: the dense byte path agrees with the char parser.

:meth:`StreamingValidator.validate_bytes` (and ``validate`` on text)
runs the byte tokenizer's fast tier fused with the dense table walk, and
falls back to the event-driven validator over the char parser whenever
it cannot certify an input.  The promise: for *every* input the result
equals ``validate_events(iter_events(text))`` — the same verdict,
violation list (in order) and typing, or the exact same error (type, message,
line, column, plus ``limit``/``value`` for
:class:`~repro.errors.LimitExceeded`).  The dangerous surface is the set
of inputs the fast tier *does* commit, so this suite sweeps it with the
same 600-mutant seeded corpus the parser fuzz suite uses, against a
permissive schema that declares every base-document name (so mutants
reach the dense walk instead of failing on an unknown name), plus
targeted probes of the limits plumbing and the fallback boundary.
"""

import random

import pytest

from repro.engine import StreamingValidator
from repro.errors import LimitExceeded
from repro.observability import default_registry
from repro.resilience import ParserLimits
from repro.xmlmodel.parser import iter_events
from tests.test_engine_differential import _outcome
from tests.test_fuzz_parser import (
    BASE_DOCUMENTS,
    LIMITS,
    MUTATIONS,
    mutate,
    permissive_schema,
)

pytestmark = pytest.mark.differential

CLEAN_DOCUMENT = "<doc a='1'><item>text</item><item/></doc>"

# ``engine.dense.docs`` growth over the 600-mutant sweep, as measured at
# its seed: 125 mutants commit on the dense path, counted once by
# validate_bytes and once by validate (25 before the scan committed
# schema-invalid documents).  The floor keeps the sweep from passing
# through fallback alone.
DENSE_SWEEP_FLOOR = 250


VALIDATOR = StreamingValidator(
    permissive_schema([CLEAN_DOCUMENT, "<a b=''/>"])
)


def assert_dense_agreement(text):
    """Both dense entry points agree with the event-driven reference
    under the ambient limits."""
    reference = _outcome(lambda: VALIDATOR.validate_events(iter_events(text)))
    as_bytes = _outcome(lambda: VALIDATOR.validate_bytes(text.encode()))
    assert as_bytes == reference, (
        f"validate_bytes diverges on {text!r}:\n"
        f"  reference={reference}\n  dense={as_bytes}"
    )
    as_text = _outcome(lambda: VALIDATOR.validate(text))
    assert as_text == reference, (
        f"validate diverges on {text!r}:\n"
        f"  reference={reference}\n  dense={as_text}"
    )


def _dense_counters():
    registry = default_registry()
    return (registry.counter("engine.dense.docs").value,
            registry.counter("engine.dense.fallbacks").value)


def test_schema_takes_the_dense_path():
    assert VALIDATOR.schema.dense


class TestSeededCorpus:
    """The parser fuzz corpus, replayed through the dense path."""

    def test_base_documents_agree(self):
        with LIMITS:
            for text in BASE_DOCUMENTS:
                assert_dense_agreement(text)

    def test_600_mutants_agree(self):
        # Same seed and mutation schedule as the parser fuzz sweep, so
        # the two suites certify the same inputs.
        rng = random.Random(0x20150806)
        docs_before, __ = _dense_counters()
        with LIMITS:
            for round_number in range(600):
                base = BASE_DOCUMENTS[round_number % len(BASE_DOCUMENTS)]
                assert_dense_agreement(mutate(base, rng))
        docs_after, __ = _dense_counters()
        assert docs_after - docs_before >= DENSE_SWEEP_FLOOR

    def test_every_mutation_operator_alone(self):
        rng = random.Random(0xFACADE)
        with LIMITS:
            for mutation in MUTATIONS:
                for base in BASE_DOCUMENTS:
                    for __ in range(5):
                        assert_dense_agreement(mutation(base, rng))


class TestLimitsPlumbing:
    """Ambient ParserLimits reach the dense path intact."""

    def test_ambient_limits_are_honored(self):
        deep = "<a>" * 10 + "x" + "</a>" * 10
        with ParserLimits(max_depth=4):
            assert_dense_agreement(deep)
            with pytest.raises(LimitExceeded) as caught:
                VALIDATOR.validate_bytes(deep.encode())
        assert caught.value.limit == "max_depth"

    def test_input_size_cap_is_eager_and_identical(self):
        text = "<a>" + "x" * 64 + "</a>"
        with ParserLimits(max_input_bytes=32):
            with pytest.raises(LimitExceeded) as dense:
                VALIDATOR.validate_bytes(text.encode())
            with pytest.raises(LimitExceeded) as reference:
                iter_events(text)
        assert str(dense.value) == str(reference.value)
        assert dense.value.limit == reference.value.limit
        assert dense.value.value == reference.value.value

    def test_per_chunk_caps_match_reference_errors(self):
        cases = [
            ("<" + "n" * 20 + "/>", ParserLimits(max_name_length=8)),
            ("<a>" + "y" * 40 + "</a>", ParserLimits(max_text_length=16)),
            ("<a " + " ".join(f'k{i}="v"' for i in range(6)) + "/>",
             ParserLimits(max_attributes=3)),
        ]
        for text, limits in cases:
            with limits:
                assert_dense_agreement(text)


class TestFallbackBoundary:
    """The dense path commits when it can and falls back when it must."""

    def test_clean_document_takes_the_fast_tier(self):
        docs_before, falls_before = _dense_counters()
        report = VALIDATOR.validate_bytes(CLEAN_DOCUMENT.encode())
        assert report.valid
        assert _dense_counters() == (docs_before + 1, falls_before)
        assert_dense_agreement(CLEAN_DOCUMENT)

    @pytest.mark.parametrize("text", [
        "<!DOCTYPE d><d/>",                      # prolog DOCTYPE
        "<a><!-- c --></a>",                     # comment in the body
        "<a><![CDATA[x]]></a>",                  # CDATA in the body
        "<a>&amp;</a>",                          # entity reference
        "<a b='&lt;'/>",                         # entity in attribute
        "<élément/>",                  # non-ASCII name
        "<a b = '1'c='2'/>",                     # no space after quote
    ])
    def test_uncertifiable_inputs_delegate(self, text):
        docs_before, falls_before = _dense_counters()
        VALIDATOR.validate_bytes(text.encode())
        assert _dense_counters() == (docs_before, falls_before + 1)
        assert_dense_agreement(text)

    @pytest.mark.parametrize("text", [
        "<?>",                      # '?>' overlapping the opening '<?'
        "<a/>\n",                   # trailing misc after the root
        "<a> </a>",                 # whitespace-only text event
        "<a b=''/>",                # empty attribute value
        "<a><a></a></a>",           # same name, nested
    ])
    def test_tricky_certified_shapes_agree(self, text):
        assert_dense_agreement(text)

    def test_malformed_shapes_produce_reference_errors(self):
        for text in ["<a b/>", "</a>", "<a></b>", "<a", "<>", "<a//>",
                     "<a>text", "x<a/>", "<a/><b/>", "<a 1='x'/>"]:
            assert_dense_agreement(text)
