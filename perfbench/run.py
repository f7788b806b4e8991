"""The repository benchmark: ``POST /validate`` end to end, split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_small --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` spawns ``repro serve`` several times to time set-up, then
drives the last daemon in a closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` reports the per-layer metrics: an
untraced and a ``--trace-requests`` daemon window (three eighths of the
seconds each; counters come from the untraced daemon's ``/metrics``),
then an in-process replay of the same stream with a span around every
layer call (the last quarter).  Every answer is checked against the
tree-validator oracle; a wrong verdict or violation multiset makes the
command exit 1.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Daemon spawns per --trace 0 run; set-up time is their median.
SETUPS = 3
# Unrecorded closed-loop time before a measured window.
WARMUP_SECONDS = 1.0
# Share of --seconds the traced run spends replaying in-process.
REPLAY_SHARE = 0.25


def _spec_metrics(kind):
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric,
    as ``BENCHMARK.json`` declares them."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as spec:
        return [(entry["name"], entry["unit"])
                for entry in json.load(spec)[kind]]


def percentile(values, q):
    """Nearest-rank ``q``-quantile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _hot_indices(workload):
    """One payload per hot schema: what set-up must have answered."""
    first = {}
    for index, payload in enumerate(workload.payloads):
        first.setdefault((payload.kind, payload.schema), index)
    return [first[key] for key in workload.hot]


def _window(port, workload, seconds, tally):
    """Warm up, then measure one closed-loop window; checks every answer."""
    from perfbench.drive import check, closed_loop

    warm = closed_loop(port, workload, WARMUP_SECONDS)
    check(workload, warm, tally)
    gc.collect()
    gc.disable()
    try:
        outcomes = closed_loop(port, workload, seconds,
                               start=len(warm.samples))
    finally:
        gc.enable()
    check(workload, outcomes, tally)
    return outcomes


def _latency(workload, outcomes):
    """Latency figures of one window, milliseconds."""
    latencies = [sample[1] / 1e6 for sample in outcomes.samples]
    invalid = [sample[1] / 1e6 for sample in outcomes.samples
               if not workload.payloads[sample[0]].valid]
    if not latencies or not invalid:
        raise RuntimeError(
            f"window too short: {len(latencies)} answers, "
            f"{len(invalid)} for invalid documents"
        )
    return {
        "samples": len(latencies),
        "req_p50_ms": statistics.median(latencies),
        "req_p90_ms": percentile(latencies, 0.90),
        "req_p99_ms": percentile(latencies, 0.99),
        "invalid_samples": len(invalid),
        "invalid_p50_ms": statistics.median(invalid),
        "throughput_rps": len(latencies) / outcomes.elapsed,
    }


def _spawn_and_warm(workload, tally, traced=False):
    """Spawn a daemon and answer one request per hot schema; returns
    ``(daemon, seconds from spawn to the last answer)``."""
    from perfbench.drive import Daemon, check, warm

    started = time.perf_counter()
    daemon = Daemon(ROOT, traced=traced)
    try:
        answers = warm(daemon.port, workload, _hot_indices(workload))
    except BaseException:
        daemon.stop()
        raise
    elapsed = time.perf_counter() - started
    check(workload, answers, tally)
    return daemon, elapsed


def end_to_end(workload, seconds, tally, setups=SETUPS):
    """The ``--trace 0`` run: set-up timings plus one measured window."""
    from perfbench.drive import scrape

    setup_times = []
    daemon = None
    for attempt in range(setups):
        daemon, elapsed = _spawn_and_warm(workload, tally)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            daemon.stop()
    with daemon:
        outcomes = _window(daemon.port, workload, seconds, tally)
        rss = daemon.peak_rss_mb()
        counters = scrape(daemon.port)
    figures = _latency(workload, outcomes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "req_p50_ms": figures["req_p50_ms"],
        "req_p90_ms": figures["req_p90_ms"],
        "invalid_p50_ms": figures["invalid_p50_ms"],
        "throughput_rps": figures["throughput_rps"],
        "server_rss_mb": rss,
    }
    details = {"latency": figures, "setup_runs_s": setup_times,
               "counters": _counters(counters, outcomes)}
    return metrics, details


def _counter(samples, name):
    return sum(value for (sample, __), value in samples.items()
               if sample == name)


def _quantile_from_buckets(samples, name, q):
    """Interpolated quantile of an exported power-of-two histogram."""
    from repro.serve.top import histogram_quantile

    bounds = sorted(
        (math.inf if labels_value == "+Inf" else float(labels_value), count)
        for (sample, labels), count in samples.items()
        if sample == name + "_bucket"
        for key, labels_value in labels if key == "le"
    )
    deltas = []
    previous = 0.0
    for bound, cumulative in bounds:
        deltas.append((bound, cumulative - previous))
        previous = cumulative
    return histogram_quantile(deltas, q)


def _counters(samples, outcomes):
    """The daemon's own counters, mapped onto the per-layer names."""
    hits = _counter(samples, "engine_cache_hits")
    misses = _counter(samples, "engine_cache_misses")
    compile_count = _counter(samples, "engine_cache_compile_ns_count")
    compile_total = _counter(samples, "engine_cache_compile_ns_sum")
    stream_docs = _counter(samples, "engine_stream_docs")
    dense_docs = _counter(samples, "engine_dense_docs")
    shed_seen = sum(1 for sample in outcomes.samples if sample[2] == 429)
    return {
        "serve.admission.queue_wait_us": _quantile_from_buckets(
            samples, "serve_queue_wait_ns", 0.5) / 1e3,
        "serve.admission.shed": _counter(samples, "serve_shed"),
        "serve.admission.shed_seen_by_client": shed_seen,
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.cache.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "engine.compiler.compiles": compile_count,
        "engine.compiler.compile_ms": compile_total / compile_count / 1e6
        if compile_count else 0.0,
        "engine.stream.docs": stream_docs,
        "engine.dense.docs": dense_docs,
        "engine.streaming.dense_share": dense_docs / stream_docs
        if stream_docs else 0.0,
        "engine.streaming.fallbacks": _counter(
            samples, "engine_dense_fallbacks"),
        "serve.requests": _counter(samples, "serve_requests"),
    }


def per_layer(workload, seconds, tally):
    """The ``--trace 1`` run: daemon windows plus the traced replay."""
    from perfbench.drive import scrape
    from perfbench.layers import p50_us, replay

    window = seconds * (1 - REPLAY_SHARE) / 2
    daemon, __ = _spawn_and_warm(workload, tally)
    with daemon:
        plain = _window(daemon.port, workload, window, tally)
        counters = _counters(scrape(daemon.port), plain)
    daemon, __ = _spawn_and_warm(workload, tally, traced=True)
    with daemon:
        traced = _window(daemon.port, workload, window, tally)
    plain_figures = _latency(workload, plain)
    traced_figures = _latency(workload, traced)

    timings, spans, replayed = replay(workload, seconds * REPLAY_SHARE)
    tally["attempted"] += replayed["requests"]
    tally["failed"] += replayed["mismatches"]
    tally["mismatches"] += replayed["mismatches"]
    bare_p50_us = p50_us(timings, "engine.streaming.validate")
    compile_span = spans.get("serve.schema.compile",
                             {"count": 0, "mean_ns": 0.0})
    metrics = {
        "serve.http.read_us": p50_us(timings, "serve.http.read"),
        "serve.http.json_decode_us": p50_us(timings,
                                            "serve.http.json_decode"),
        "serve.http.encode_us": p50_us(timings, "serve.http.encode"),
        "serve.admission.queue_wait_us":
            counters["serve.admission.queue_wait_us"],
        "serve.admission.shed": counters["serve.admission.shed"],
        "serve.service.schema_key_us": p50_us(timings,
                                              "serve.service.schema_key"),
        "serve.service.process_us": p50_us(timings, "serve.service.process"),
        "serve.service.compile_ms": compile_span["mean_ns"] / 1e6,
        "serve.service.compiles": compile_span["count"],
        "engine.cache.hit_ratio": counters["engine.cache.hit_ratio"],
        "engine.compiler.compile_ms": counters["engine.compiler.compile_ms"],
        "engine.batch.overhead_us": p50_us(timings, "engine.batch.overhead"),
        "engine.streaming.validate_valid_us": p50_us(
            timings, "engine.streaming.validate_valid"),
        "engine.streaming.validate_invalid_us": p50_us(
            timings, "engine.streaming.validate_invalid"),
        "engine.streaming.dense_share":
            counters["engine.streaming.dense_share"],
        "engine.streaming.fallbacks": counters["engine.streaming.fallbacks"],
        "xmlmodel.parser.events_us": p50_us(timings,
                                            "xmlmodel.parser.events"),
        "serve.overhead_ratio":
            plain_figures["req_p50_ms"] * 1e3 / bare_p50_us,
        "serve.tracing_overhead_ms":
            traced_figures["req_p50_ms"] - plain_figures["req_p50_ms"],
    }
    details = {
        "untraced_latency": plain_figures,
        "traced_latency": traced_figures,
        "counters": counters,
        "overhead_ratio_base": (
            f"req_p50_ms {plain_figures['req_p50_ms']:.4f} ms (untraced "
            f"daemon) over bare StreamingValidator.validate p50 "
            f"{bare_p50_us:.1f} us on the same stream"
        ),
        "replayed_requests": replayed["requests"],
        "program_spans": spans,
    }
    return metrics, details


def _report(workload, trace, metrics, details, tally, units):
    """Human-readable lines ahead of the result line."""
    print(f"# workload {workload.name} seed {workload.seed} "
          f"connections {workload.connections} trace {trace}")
    print("# inputs " + json.dumps(workload.properties, sort_keys=True))
    for name, unit in units:
        print(f"{name} {metrics[name]:.6g} {unit}")
    error_rate = tally["failed"] / tally["attempted"]
    print(f"# error_rate {error_rate:.6g} (failed {tally['failed']} of "
          f"{tally['attempted']}; verdict mismatches {tally['mismatches']}; "
          f"transport errors {tally['transport_errors']}; "
          f"statuses {json.dumps(tally['statuses'], sort_keys=True)})")
    latency = details.get("latency")
    if latency is not None:
        beyond = latency["samples"] - math.ceil(0.99 * latency["samples"])
        tail = (f"req_p99_ms {latency['req_p99_ms']:.4f} ({beyond} beyond)"
                if beyond >= 10 else
                f"p99 not reported: {beyond} samples beyond it")
        print(f"# samples {latency['samples']} (invalid "
              f"{latency['invalid_samples']}); {tail}")
    for key, value in details.items():
        if key != "latency":
            print(f"# {key} " + json.dumps(value, sort_keys=True,
                                           default=str))


def main(argv=None):
    from perfbench import workloads
    from perfbench.drive import new_tally

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    tally = new_tally()
    if args.trace:
        metrics, details = per_layer(workload, args.seconds, tally)
        units = _spec_metrics("per_layer")
    else:
        metrics, details = end_to_end(workload, args.seconds, tally,
                                      setups=1 if args.tiny else SETUPS)
        units = _spec_metrics("end_to_end")
    _report(workload, args.trace, metrics, details, tally, units)
    correct = tally["mismatches"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if correct else 1


def _bootstrap():
    """Put the checkout's ``src`` and the benchmark package on the path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


if __name__ == "__main__":
    _bootstrap()
    # SIGTERM unwinds like an error, so every spawned daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    sys.exit(main())
