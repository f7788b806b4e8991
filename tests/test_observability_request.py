"""Request-correlation layer: trace context, baggage, tail sampling.

Covers the end-to-end observability surface the serve daemon builds on:
W3C ``traceparent`` parsing/formatting, ambient baggage riding spans
across the ``validate_many`` pool hop, the tail-based trace sampler,
the size-capped JSONL ring file, histogram percentiles + exemplars in
the Prometheus exposition, and the daemon's own correlation headers,
``/debug/traces`` endpoint, and structured access log — plus the
guarantee that none of it costs anything when observability is off.
"""

import json
import time

import pytest

from repro.observability import (
    Histogram,
    MetricsRegistry,
    RingFileWriter,
    TailSampler,
    Tracer,
    current_baggage,
    current_tracer,
    format_traceparent,
    installed_tracer,
    new_trace_id,
    parse_traceparent,
    read_ring,
    set_baggage,
    span,
    to_prometheus,
    trace_id_hex,
)
from repro.observability.tracing import NULL_SPAN, span_id_hex


class TestTraceContext:
    def test_format_parse_round_trip(self):
        trace_id = new_trace_id()
        header = format_traceparent(trace_id, 7)
        assert header == f"00-{trace_id}-{7:016x}-01"
        assert parse_traceparent(header) == (trace_id, f"{7:016x}")

    def test_parse_is_case_and_whitespace_tolerant(self):
        header = "  00-" + "AB" * 16 + "-00000000000000FF-01 \n"
        assert parse_traceparent(header) == ("ab" * 16, "00000000000000ff")

    @pytest.mark.parametrize("header", [
        None,
        "",
        "00-abc",                                   # too few fields
        "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
        "0-" + "ab" * 16 + "-" + "cd" * 8 + "-01",   # short version
        "00-" + "ab" * 15 + "-" + "cd" * 8 + "-01",  # short trace id
        "00-" + "ab" * 16 + "-" + "cd" * 7 + "-01",  # short parent id
        "00-" + "zz" * 16 + "-" + "cd" * 8 + "-01",  # non-hex trace id
        "00-" + "ab" * 16 + "-" + "zz" * 8 + "-01",  # non-hex parent id
        "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",  # all-zero trace id
        "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",  # all-zero parent id
        "00-" + "ab" * 16 + "-" + "cd" * 8 + "-xx",  # non-hex flags
    ])
    def test_malformed_headers_start_a_fresh_trace(self, header):
        assert parse_traceparent(header) is None

    def test_new_trace_ids_are_unique_32_hex(self):
        ids = {new_trace_id() for __ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 32 and int(t, 16) >= 0 for t in ids)

    def test_hex_helpers_pad_and_wrap(self):
        assert span_id_hex(1) == "0000000000000001"
        assert span_id_hex(1 << 64) == "0000000000000000"
        assert span_id_hex("abcd") == "000000000000abcd"
        assert trace_id_hex(255) == "0" * 30 + "ff"
        assert trace_id_hex("ab" * 16) == "ab" * 16

    def test_unsampled_flag(self):
        assert format_traceparent("ab" * 16, 1, sampled=False).endswith(
            "-00"
        )


class TestBaggage:
    def test_set_baggage_layers_and_restores(self):
        assert current_baggage() is None
        with set_baggage(tenant="acme"):
            assert current_baggage() == {"tenant": "acme"}
            with set_baggage(request_id="r-1", schema_hash=None):
                assert current_baggage() == {
                    "tenant": "acme", "request_id": "r-1",
                }
            assert current_baggage() == {"tenant": "acme"}
        assert current_baggage() is None

    def test_spans_absorb_baggage_and_explicit_attributes_win(self):
        with Tracer() as tracer:
            with set_baggage(tenant="acme", request_id="r-1"):
                with tracer.span("work", tenant="override"):
                    pass
        (finished,) = tracer.finished_spans()
        assert finished.attributes["tenant"] == "override"
        assert finished.attributes["request_id"] == "r-1"

    def test_root_span_takes_external_trace_id(self):
        trace_id = new_trace_id()
        tracer = Tracer()
        with tracer.span("serve.request", trace_id=trace_id) as root:
            assert root.trace_id == trace_id
            with installed_tracer(tracer, root):
                with tracer.span("child") as child:
                    # A parent ambient always wins over the override.
                    assert child.trace_id == trace_id
                    assert child.parent_id == root.span_id

    def test_baggage_crosses_the_validate_many_pool(self):
        from repro.engine import validate_many
        from repro.paperdata import FIGURE1_XML, figure3_xsd

        trace_id = new_trace_id()
        with Tracer() as tracer:
            with set_baggage(tenant="acme", request_id="r-9"):
                with tracer.span("serve.request",
                                 trace_id=trace_id) as root:
                    with installed_tracer(tracer, root):
                        reports = validate_many(
                            figure3_xsd(), [FIGURE1_XML] * 4, workers=2
                        )
        assert all(report.valid for report in reports)
        spans = tracer.finished_spans()
        docs = [s for s in spans if s.name == "engine.batch.doc"]
        validates = [s for s in spans if s.name == "engine.validate"]
        assert len(docs) == 4 and len(validates) == 4
        # Worker-side spans kept the request's trace id AND baggage.
        for worker_span in docs + validates:
            assert worker_span.trace_id == trace_id
            assert worker_span.attributes["tenant"] == "acme"
            assert worker_span.attributes["request_id"] == "r-9"
        assert tracer.open_spans() == 0


def _finish_trace(tracer, status=None, error=False, attrs=None):
    """Run one root-only trace; returns its trace id."""
    trace_id = new_trace_id()
    with tracer.span("serve.request", trace_id=trace_id,
                     **(attrs or {})) as root:
        if status is not None:
            root.set_attribute("status", status)
        if error:
            root.set_status("error")
    return trace_id


class TestTailSampler:
    def test_error_traces_are_kept(self):
        sampler = TailSampler(reservoir=0, registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        kept_id = _finish_trace(tracer, status=422)
        _finish_trace(tracer, status=200)
        (record,) = sampler.retained()
        assert record["reason"] == "error"
        assert record["trace_id"] == kept_id
        assert record["root"]["attributes"]["status"] == 422

    def test_error_status_string_is_kept(self):
        sampler = TailSampler(reservoir=0, registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        trace_id = _finish_trace(tracer, error=True)
        (record,) = sampler.retained()
        assert record["trace_id"] == trace_id
        assert record["reason"] == "error"

    def test_slow_traces_are_kept(self):
        sampler = TailSampler(latency_threshold=1e-9, reservoir=0,
                              registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        _finish_trace(tracer, status=200)
        (record,) = sampler.retained()
        assert record["reason"] == "slow"
        assert record["duration_ms"] > 0

    def test_fast_traces_drop_with_empty_reservoir(self):
        registry = MetricsRegistry()
        sampler = TailSampler(reservoir=0, registry=registry)
        tracer = Tracer(sink=sampler)
        for __ in range(5):
            _finish_trace(tracer, status=200)
        assert sampler.retained() == []
        counters = registry.snapshot()["counters"]
        assert counters["trace.tail.dropped"] == 5
        assert counters.get("trace.tail.kept", 0) == 0

    def test_reservoir_keeps_a_baseline_of_fast_traces(self):
        import random

        sampler = TailSampler(reservoir=2, registry=MetricsRegistry(),
                              rng=random.Random(7))
        tracer = Tracer(sink=sampler)
        for __ in range(40):
            _finish_trace(tracer, status=200)
        kept = sampler.retained()
        # The first `reservoir` fast traces always win their slot.
        assert len(kept) >= 2
        assert all(record["reason"] == "reservoir" for record in kept)

    def test_retained_is_newest_first_and_bounded(self):
        sampler = TailSampler(reservoir=0, retain=3,
                              registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        ids = [_finish_trace(tracer, status=500) for __ in range(5)]
        records = sampler.retained()
        assert [r["trace_id"] for r in records] == ids[:1:-1]
        assert sampler.retained(limit=1)[0]["trace_id"] == ids[-1]

    def test_kept_traces_carry_their_child_spans(self):
        sampler = TailSampler(reservoir=0, registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        trace_id = new_trace_id()
        with tracer.span("serve.request", trace_id=trace_id) as root:
            root.set_attribute("status", 503)
            with installed_tracer(tracer, root):
                with tracer.span("engine.validate"):
                    pass
        (record,) = sampler.retained()
        names = {entry["name"] for entry in record["spans"]}
        assert names == {"serve.request", "engine.validate"}
        assert all(entry["trace_id"] == trace_id
                   for entry in record["spans"])

    def test_kept_traces_stream_to_the_ring(self):
        written = []

        class Ring:
            def write(self, record):
                written.append(record)

        sampler = TailSampler(reservoir=0, ring=Ring(),
                              registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        _finish_trace(tracer, status=404)
        _finish_trace(tracer, status=200)
        assert len(written) == 1
        assert written[0]["reason"] == "error"

    def test_pending_traces_are_bounded(self):
        sampler = TailSampler(reservoir=0, max_pending=4,
                              registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        # Children whose roots never finish: pending must stay bounded.
        for __ in range(20):
            root = tracer.span("root", trace_id=new_trace_id())
            with installed_tracer(tracer, root):
                with tracer.span("leaked.child"):
                    pass
            # The root is deliberately never ended.
        assert len(sampler._pending) <= 4

    def test_spans_per_trace_are_capped(self):
        sampler = TailSampler(reservoir=0, max_spans_per_trace=3,
                              registry=MetricsRegistry())
        tracer = Tracer(sink=sampler)
        with tracer.span("serve.request",
                         trace_id=new_trace_id()) as root:
            root.set_attribute("status", 500)
            with installed_tracer(tracer, root):
                for __ in range(10):
                    with tracer.span("chatty"):
                        pass
        (record,) = sampler.retained()
        assert len(record["spans"]) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TailSampler(retain=0, registry=MetricsRegistry())
        with pytest.raises(ValueError):
            TailSampler(reservoir=-1, registry=MetricsRegistry())


class TestRingFile:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        with RingFileWriter(path, max_bytes=1 << 20) as ring:
            for index in range(5):
                ring.write({"n": index})
        assert [r["n"] for r in read_ring(path)] == list(range(5))

    def test_rotation_caps_total_size(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        payload = "x" * 100
        with RingFileWriter(path, max_bytes=1024, backups=1) as ring:
            for index in range(64):
                ring.write({"n": index, "pad": payload})
        assert path.stat().st_size <= 1024 + 256  # one record of slack
        backup = tmp_path / "ring.jsonl.1"
        assert backup.exists()
        # The newest records are in the live file, in order.
        tail = [r["n"] for r in read_ring(path)]
        assert tail == sorted(tail)
        assert tail[-1] == 63

    def test_reader_skips_torn_lines(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        path.write_text('{"n": 1}\n{"torn": \n{"n": 2}\n',
                        encoding="utf-8")
        assert [r["n"] for r in read_ring(path)] == [1, 2]

    def test_append_resume(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        with RingFileWriter(path, max_bytes=1 << 20) as ring:
            ring.write({"n": 1})
        with RingFileWriter(path, max_bytes=1 << 20) as ring:
            ring.write({"n": 2})
        assert [r["n"] for r in read_ring(path)] == [1, 2]


class TestHistogramPercentiles:
    def test_percentile_interpolates_within_buckets(self):
        histogram = Histogram("t")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(0.0) <= histogram.percentile(0.5)
        assert histogram.percentile(0.5) == pytest.approx(50, rel=0.5)
        assert histogram.percentile(0.99) == pytest.approx(99, rel=0.5)
        assert histogram.percentile(1.0) == 100

    def test_percentile_clamps_to_observed_range(self):
        histogram = Histogram("t")
        histogram.observe(1000)
        assert histogram.percentile(0.0) == 1000
        assert histogram.percentile(1.0) == 1000

    def test_percentile_validates_and_handles_empty(self):
        histogram = Histogram("t")
        assert histogram.percentile(0.99) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_snapshot_reports_p50_p95_p99(self):
        histogram = Histogram("t")
        for value in range(1, 101):
            histogram.observe(value)
        summary = histogram.snapshot()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]


class TestExemplarsAndHelp:
    def test_exemplar_renders_in_openmetrics_syntax(self):
        registry = MetricsRegistry()
        registry.histogram(
            "serve.request.latency", help="request latency (ns)"
        ).observe(1500, exemplar={"trace_id": "ab" * 16})
        text = to_prometheus(registry)
        assert "# HELP serve_request_latency request latency (ns)" in text
        lines = [l for l in text.splitlines()
                 if "serve_request_latency_bucket" in l]
        tagged = [l for l in lines if "# {" in l]
        assert len(tagged) == 1
        assert f'trace_id="{"ab" * 16}"' in tagged[0]
        assert "} 1500" in tagged[0]

    def test_latest_exemplar_per_bucket_wins(self):
        histogram = Histogram("h")
        histogram.observe(100, exemplar={"trace_id": "aa" * 16})
        histogram.observe(101, exemplar={"trace_id": "bb" * 16})
        exemplars = histogram.snapshot()["exemplars"]
        (entry,) = exemplars.values()
        assert entry["labels"]["trace_id"] == "bb" * 16

    def test_unexemplared_snapshot_has_no_exemplars_key(self):
        histogram = Histogram("h")
        histogram.observe(5)
        assert "exemplars" not in histogram.snapshot()

    def test_help_survives_labeled_series(self):
        registry = MetricsRegistry()
        registry.counter('serve.shed.by{reason="queue_full"}',
                         help="refusals by gate").inc()
        registry.counter('serve.shed.by{reason="draining"}').inc()
        text = to_prometheus(registry)
        helps = [l for l in text.splitlines()
                 if l.startswith("# HELP serve_shed_by ")]
        assert helps == ["# HELP serve_shed_by refusals by gate"]
        assert text.index("# HELP serve_shed_by") < text.index(
            "# TYPE serve_shed_by"
        )


class TestZeroCostWhenDisabled:
    def test_module_span_is_the_shared_null_object(self):
        assert current_tracer() is None
        assert span("engine.validate") is NULL_SPAN
        assert span("engine.validate") is span("serve.request")

    def test_installed_tracer_none_disables_within_a_tracer(self):
        with Tracer() as tracer:
            with installed_tracer(None):
                assert span("inner") is NULL_SPAN
            assert current_tracer() is tracer

    def test_serve_config_observability_flag(self):
        from repro.serve import ServeConfig

        assert ServeConfig().observability_enabled is False
        assert ServeConfig(
            access_log="a.jsonl"
        ).observability_enabled is True
        assert ServeConfig(trace_log="t.jsonl").observability_enabled
        assert ServeConfig(trace_requests=True).observability_enabled


# -- the daemon end to end -------------------------------------------------

@pytest.fixture(scope="module")
def obs_server(tmp_path_factory):
    import http.client

    from repro.serve import ServeConfig, start_in_thread

    logs = tmp_path_factory.mktemp("obs")
    registry = MetricsRegistry()
    config = ServeConfig(
        port=0, workers=2, queue_depth=4,
        access_log=str(logs / "access.jsonl"),
        trace_log=str(logs / "traces.jsonl"),
        tail_reservoir=0,          # deterministic: only errors retained
        tail_latency=30.0,
    )
    handle = start_in_thread(config, registry=registry)
    handle.registry = registry
    handle.logs = logs

    def request(method, path, body=None, headers=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10.0
        )
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(method, path, body=payload,
                         headers=headers or {})
            response = conn.getresponse()
            raw = response.read()
            decoded = (
                json.loads(raw)
                if response.getheader("Content-Type", "").startswith(
                    "application/json")
                else raw.decode("utf-8")
            )
            return response.status, decoded, dict(response.getheaders())
        finally:
            conn.close()

    handle.request = request
    with handle:
        yield handle


# Holds the only worker for a while: the comment sends it to the char
# parser, which walks all 60k elements.
SLOW_DOCUMENT = ("<document><!-- careful tier --><title/><author/>"
                 + "<content/>" * 60_000 + "</document>")


def _validate_body(**extra):
    from repro.paperdata import FIGURE1_XML, FIGURE3_XSD

    body = {"schema": FIGURE3_XSD, "schema_kind": "xsd",
            "document": FIGURE1_XML}
    body.update(extra)
    return body


class TestServeCorrelation:
    def test_incoming_traceparent_is_honored_end_to_end(self, obs_server):
        trace_id = new_trace_id()
        header = format_traceparent(trace_id, 0xAA)
        status, __, headers = obs_server.request(
            "POST", "/validate", _validate_body(),
            {"traceparent": header},
        )
        assert status == 200
        assert headers["X-Trace-Id"] == trace_id
        parsed = parse_traceparent(headers["traceparent"])
        assert parsed is not None
        assert parsed[0] == trace_id
        # The response's parent id is the server's root span, not ours.
        assert parsed[1] != f"{0xAA:016x}"
        assert headers["X-Request-Id"]

    def test_fresh_ids_without_a_traceparent(self, obs_server):
        __, __, first = obs_server.request(
            "POST", "/validate", _validate_body()
        )
        __, __, second = obs_server.request(
            "POST", "/validate", _validate_body()
        )
        assert first["X-Trace-Id"] != second["X-Trace-Id"]
        assert first["X-Request-Id"] != second["X-Request-Id"]
        assert len(first["X-Trace-Id"]) == 32

    def test_error_trace_is_retained_and_correlated(self, obs_server):
        trace_id = new_trace_id()
        status, __, headers = obs_server.request(
            "POST", "/validate",
            _validate_body(schema="<not-a-schema", tenant="debugme"),
            {"traceparent": format_traceparent(trace_id, 1)},
        )
        assert status == 422
        assert headers["X-Trace-Id"] == trace_id

        # Retained by the tail sampler, reason "error", same trace id.
        __, payload, __ = obs_server.request("GET", "/debug/traces")
        assert payload["enabled"] is True
        match = [t for t in payload["traces"]
                 if t["trace_id"] == trace_id]
        assert len(match) == 1
        assert match[0]["reason"] == "error"
        assert match[0]["root"]["attributes"]["tenant"] == "debugme"

        # The same record streamed to the on-disk trace ring.
        ring_ids = [r["trace_id"]
                    for r in read_ring(obs_server.logs / "traces.jsonl")]
        assert trace_id in ring_ids

        # The reason filter narrows, the limit caps.
        __, errors_only, __ = obs_server.request(
            "GET", "/debug/traces?reason=error&limit=1"
        )
        assert len(errors_only["traces"]) == 1
        assert errors_only["traces"][0]["reason"] == "error"

    def test_access_log_lines_join_the_trace(self, obs_server):
        from repro.serve.accesslog import read_access_log

        trace_id = new_trace_id()
        obs_server.request(
            "POST", "/validate", _validate_body(tenant="logged"),
            {"traceparent": format_traceparent(trace_id, 2)},
        )
        # The line lands just after the response bytes: poll briefly.
        deadline = time.monotonic() + 5.0
        match = []
        while not match and time.monotonic() < deadline:
            match = [
                r for r in read_access_log(
                    obs_server.logs / "access.jsonl")
                if r.get("trace_id") == trace_id
            ]
            if not match:
                time.sleep(0.01)
        assert len(match) == 1
        line = match[0]
        assert line["tenant"] == "logged"
        assert line["route"] == "validate"
        assert line["status"] == 200
        assert line["bytes_in"] > 0 and line["bytes_out"] > 0
        assert line["worker_ms"] >= 0
        assert line["queue_wait_ms"] >= 0
        assert "reason" not in line            # None fields dropped
        assert line["request_id"]

    def test_metrics_expose_exemplars_and_help(self, obs_server):
        trace_id = new_trace_id()
        obs_server.request(
            "POST", "/validate", _validate_body(),
            {"traceparent": format_traceparent(trace_id, 3)},
        )
        __, text, __ = obs_server.request("GET", "/metrics")
        assert "# HELP serve_request_latency " in text
        tagged = [l for l in text.splitlines()
                  if "serve_request_latency_bucket" in l and "# {" in l]
        assert tagged, "no exemplar on the request latency histogram"
        assert any(f'trace_id="{trace_id}"' in l for l in tagged)

    def test_shed_requests_still_get_correlation_headers(self):
        import http.client
        import threading

        from repro.serve import ServeConfig, start_in_thread

        config = ServeConfig(port=0, workers=1, queue_depth=0,
                             trace_requests=True)
        with start_in_thread(config,
                             registry=MetricsRegistry()) as handle:
            results = []

            def slow():
                conn = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=30.0
                )
                try:
                    conn.request(
                        "POST", "/validate",
                        body=json.dumps(
                            _validate_body(document=SLOW_DOCUMENT)
                        ),
                    )
                    results.append(conn.getresponse().status)
                finally:
                    conn.close()

            thread = threading.Thread(target=slow)
            thread.start()
            deadline = time.monotonic() + 5.0
            while (handle.daemon.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10.0
            )
            try:
                conn.request("POST", "/validate",
                             body=json.dumps(_validate_body()))
                response = conn.getresponse()
                response.read()
                # Shed before any worker ran it — yet fully correlated.
                assert response.status == 429
                assert response.getheader("X-Request-Id")
                assert len(response.getheader("X-Trace-Id")) == 32
            finally:
                conn.close()
            thread.join()
            assert results == [200]


class TestServeWithoutObservability:
    def test_no_correlation_headers_and_debug_traces_disabled(self):
        from repro.serve import ServeConfig, start_in_thread

        registry = MetricsRegistry()
        with start_in_thread(ServeConfig(port=0, workers=1),
                             registry=registry) as handle:
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10.0
            )
            try:
                conn.request("POST", "/validate",
                             body=json.dumps(_validate_body()))
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader("X-Request-Id") is None
                assert response.getheader("X-Trace-Id") is None
                assert handle.daemon.tracer is None
                assert handle.daemon.tail_sampler is None
                assert handle.daemon.access_log is None

                conn.request("GET", "/debug/traces")
                debug = conn.getresponse()
                payload = json.loads(debug.read())
                assert debug.status == 200
                assert payload == {"enabled": False, "traces": []}
            finally:
                conn.close()

    def test_client_traceparent_is_still_echoed_when_disabled(self):
        from repro.serve import ServeConfig, start_in_thread

        trace_id = new_trace_id()
        with start_in_thread(ServeConfig(port=0, workers=1),
                             registry=MetricsRegistry()) as handle:
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10.0
            )
            try:
                conn.request(
                    "POST", "/validate",
                    body=json.dumps(_validate_body()),
                    headers={
                        "traceparent": format_traceparent(trace_id, 5),
                    },
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                # The client's id is echoed (no spans, no random I/O),
                # but no request id is minted without a tracer.
                assert response.getheader("X-Trace-Id") == trace_id
                assert response.getheader("X-Request-Id") is None
            finally:
                conn.close()
