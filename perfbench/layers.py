"""The traced run: per-layer costs of the same request stream, in-process.

Each request of the workload's stream is replayed through the public
functions the daemon calls, one benchmark-side span around each call:

* ``serve.http`` — :func:`~repro.serve.http.read_request` fed the
  recorded request bytes, :meth:`HttpRequest.json`, and
  :func:`~repro.serve.http.json_response` on the answer;
* ``serve.service`` — :func:`~repro.serve.service.schema_key` and
  :meth:`ValidationService.process`;
* ``engine.batch`` / ``engine.streaming`` / ``xmlmodel.parser`` — per
  document, ``validate_many(policy="isolate", deadline=...)``, bare
  :meth:`StreamingValidator.validate`, and draining ``iter_events``.

The program's own spans (``serve.schema.compile``, ``engine.cache.get``,
``engine.batch``, ``engine.validate``, ...) land in the same
:class:`~repro.observability.Tracer` and are read from its summary.
"""

from __future__ import annotations

import asyncio
import statistics
import time

# Engine calls per document: enough repeats for a steady median.
ENGINE_REPEATS = 3
# Requests replayed whatever the time budget (every payload when fewer).
MIN_REQUESTS = 200
DEADLINE = 5.0


def replay(workload, budget_seconds):
    """Replay the head of the workload's stream for about
    ``budget_seconds``; returns ``(timings, spans, tally)``.

    ``timings`` maps a layer call to its per-call microseconds;
    ``spans`` is the tracer summary; ``tally`` counts replayed requests
    and wrong answers (checked against the oracle like the daemon's).
    """
    from repro.observability import Tracer

    tracer = Tracer(maxlen=64)
    with tracer:
        timings, tally = asyncio.run(
            _replay_requests(workload, budget_seconds / 2)
        )
        _replay_engine(workload, timings, tally, budget_seconds / 2)
    return timings, tracer.summary(), tally


async def _replay_requests(workload, budget_seconds):
    from repro.observability.tracing import span
    from repro.serve import ServeConfig
    from repro.serve.http import (
        MAX_HEADER_BYTES,
        json_response,
        read_request,
    )
    from repro.serve.service import ValidationService, schema_key

    config = ServeConfig(port=0, workers=2)
    service = ValidationService(config)
    timings = {name: [] for name in (
        "serve.http.read", "serve.http.json_decode",
        "serve.service.schema_key", "serve.service.process",
        "serve.http.encode")}
    tally = {"requests": 0, "mismatches": 0, "documents": []}
    minimum = min(len(workload.payloads), MIN_REQUESTS)
    stop_at = time.perf_counter() + budget_seconds
    for position, index in enumerate(workload.order):
        if position >= minimum and time.perf_counter() > stop_at:
            break
        payload = workload.payloads[index]
        with span("perfbench.request"):
            reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)
            reader.feed_data(payload.raw)
            reader.feed_eof()
            with span("perfbench.serve.http.read") as call:
                request = await read_request(reader, config.max_body_bytes)
            timings["serve.http.read"].append(call.duration_ns)
            with span("perfbench.serve.http.json_decode") as call:
                params = request.json()
            timings["serve.http.json_decode"].append(call.duration_ns)
            with span("perfbench.serve.service.schema_key") as call:
                schema_key(params["schema_kind"], params["schema"])
            timings["serve.service.schema_key"].append(call.duration_ns)
            with span("perfbench.serve.service.process") as call:
                status, answer = service.process(
                    "validate", params, "perfbench",
                    time.monotonic() + DEADLINE,
                )
            timings["serve.service.process"].append(call.duration_ns)
            with span("perfbench.serve.http.encode") as call:
                json_response(status, answer)
            timings["serve.http.encode"].append(call.duration_ns)
        tally["requests"] += 1
        if status != 200 or not payload.matches(answer):
            tally["mismatches"] += 1
        tally["documents"].append(index)
    return timings, tally


def _replay_engine(workload, timings, tally, budget_seconds):
    """Per-document engine costs over the replayed requests' documents."""
    from repro.engine import SchemaCache, validate_many
    from repro.engine.streaming import StreamingValidator
    from repro.observability.tracing import span
    from repro.xmlmodel import iter_events

    from .workloads import formal_xsd

    cache = SchemaCache(maxsize=len(workload.hot) + 1)
    validators = {}
    bare = {}
    overhead = {}
    events = {}
    stop_at = time.perf_counter() + budget_seconds
    # Visit each distinct document once, in stream order, until the time
    # is up and both verdicts were seen; interleave the three calls so
    # drift hits them alike.
    distinct = list(dict.fromkeys(tally["documents"]))
    verdicts = set()
    for visited, index in enumerate(distinct):
        if (visited >= 4 and len(verdicts) == 2
                and time.perf_counter() > stop_at):
            break
        payload = workload.payloads[index]
        verdicts.add(payload.valid)
        key = (payload.kind, payload.schema)
        validator = validators.get(key)
        if validator is None:
            compiled = cache.get(formal_xsd(payload.kind, payload.schema))
            validator = validators[key] = (StreamingValidator(compiled),
                                           compiled)
        streaming, compiled = validator
        document = payload.document
        bare_ns, batch_ns, events_ns = [], [], []
        with span("perfbench.document"):
            for __ in range(ENGINE_REPEATS):
                with span("perfbench.engine.streaming.validate") as call:
                    report = streaming.validate(document)
                bare_ns.append(call.duration_ns)
                with span("perfbench.engine.batch.validate_many") as call:
                    outcome = validate_many(
                        compiled, [document], policy="isolate",
                        deadline=DEADLINE,
                    )[0]
                batch_ns.append(call.duration_ns)
                with span("perfbench.xmlmodel.parser.events") as call:
                    for __ in iter_events(document):
                        pass
                events_ns.append(call.duration_ns)
        if (report.valid is not payload.valid
                or tuple(sorted(report.violations)) != payload.violations
                or not outcome.ok
                or outcome.report.valid is not payload.valid):
            tally["mismatches"] += 1
        bare[index] = statistics.median(bare_ns)
        overhead[index] = statistics.median(batch_ns) - bare[index]
        events[index] = statistics.median(events_ns)
    # Weight per-document costs by how often the stream sends each one.
    sent = [index for index in tally["documents"] if index in bare]
    timings["engine.streaming.validate_valid"] = [
        bare[i] for i in sent if workload.payloads[i].valid]
    timings["engine.streaming.validate_invalid"] = [
        bare[i] for i in sent if not workload.payloads[i].valid]
    timings["engine.streaming.validate"] = [bare[i] for i in sent]
    timings["engine.batch.overhead"] = [overhead[i] for i in sent]
    timings["xmlmodel.parser.events"] = [events[i] for i in sent]


def p50_us(timings, name):
    """Median of one layer call, microseconds."""
    return statistics.median(timings[name]) / 1e3
