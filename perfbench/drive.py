"""Drive a real ``repro serve`` subprocess over keep-alive HTTP/1.1.

The daemon runs as ``python -m repro.cli serve --port 0 --workers 2`` in
its own process; one load-generator process (this one) talks to it in a
closed loop: each connection sends its next request only after reading
the previous response in full.  Latency is client-side, from the first
byte sent until the last response byte read.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

WORKERS = 2
BOOT_TIMEOUT = 60.0
SOCKET_TIMEOUT = 60.0


class Daemon:
    """One ``repro serve`` subprocess (a context manager that stops it)."""

    def __init__(self, root, traced=False):
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--workers", str(WORKERS)]
        if traced:
            command.append("--trace-requests")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        self.port = None
        try:
            self.port = self._announced_port()
        except BaseException:
            self.stop()
            raise

    def _announced_port(self):
        # ``serving on http://127.0.0.1:<port>`` is the first stdout line.
        self._announce = None
        reader = threading.Thread(target=self._read_announce, daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT)
        line = self._announce
        if not line or not line.startswith(b"serving on "):
            raise RuntimeError(
                f"daemon did not announce its port (got {line!r}, "
                f"exit code {self.process.poll()})"
            )
        return int(line.rsplit(b":", 1)[1])

    def _read_announce(self):
        self._announce = self.process.stdout.readline()

    def peak_rss_mb(self):
        """The daemon's peak resident set (``VmHWM``), MiB."""
        with open(f"/proc/{self.process.pid}/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


class Connection:
    """A blocking keep-alive client connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=SOCKET_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def exchange(self, raw):
        """Send one request; returns ``(status, body bytes)``."""
        self.sock.sendall(raw)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, __, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = self.reader.read(length)
        if len(body) != length:
            raise ConnectionError("response body cut short")
        return status, body

    def get(self, path):
        return self.exchange(
            b"GET " + path.encode("ascii") + b" HTTP/1.1\r\n"
            b"Host: 127.0.0.1\r\n\r\n"
        )

    def close(self):
        self.reader.close()
        self.sock.close()


class Outcomes:
    """Per-request results of one window.

    ``samples`` holds ``(payload index, latency ns, status, body)``;
    ``transport_errors`` counts requests that got no response at all.
    """

    def __init__(self):
        self.samples = []
        self.transport_errors = 0
        self.elapsed = 0.0


def warm(port, workload, payload_indices):
    """Send the given payloads once each over one connection (set-up)."""
    outcomes = Outcomes()
    connection = Connection(port)
    try:
        for index in payload_indices:
            started = time.perf_counter_ns()
            status, body = connection.exchange(workload.payloads[index].raw)
            outcomes.samples.append(
                (index, time.perf_counter_ns() - started, status, body)
            )
    finally:
        connection.close()
    return outcomes


def closed_loop(port, workload, seconds, start=0):
    """Run ``workload.connections`` closed-loop clients for ``seconds``.

    The clients share one cursor into ``workload.order`` (starting at
    ``start``), so the send sequence is the seeded one whatever the
    interleaving.
    """
    order = workload.order
    payloads = workload.payloads
    cursor = itertools.count(start)
    outcomes = Outcomes()
    lock = threading.Lock()
    failures = []
    began = time.perf_counter()
    deadline = began + seconds

    def client():
        samples = []
        errors = 0
        connection = None
        try:
            while time.perf_counter() < deadline:
                index = order[next(cursor) % len(order)]
                raw = payloads[index].raw
                try:
                    if connection is None:
                        connection = Connection(port)
                    started = time.perf_counter_ns()
                    status, body = connection.exchange(raw)
                except (OSError, ValueError, IndexError):
                    errors += 1
                    if connection is not None:
                        connection.close()
                        connection = None
                    continue
                samples.append(
                    (index, time.perf_counter_ns() - started, status, body)
                )
        except Exception as exc:  # reported, never swallowed
            failures.append(exc)
        finally:
            if connection is not None:
                connection.close()
            with lock:
                outcomes.samples.extend(samples)
                outcomes.transport_errors += errors

    threads = [threading.Thread(target=client, daemon=True)
               for __ in range(workload.connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * SOCKET_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("load-generator client did not finish")
    outcomes.elapsed = time.perf_counter() - began
    if failures:
        raise failures[0]
    return outcomes


def check(workload, outcomes, tally):
    """Check every answer against the oracle, updating ``tally``.

    ``tally`` counts ``attempted``, ``failed`` (non-200, transport error,
    or wrong answer), ``mismatches`` (wrong verdict or violations) and
    ``statuses``.
    """
    payloads = workload.payloads
    tally["attempted"] += len(outcomes.samples) + outcomes.transport_errors
    tally["failed"] += outcomes.transport_errors
    tally["transport_errors"] += outcomes.transport_errors
    for index, __, status, body in outcomes.samples:
        tally["statuses"][status] = tally["statuses"].get(status, 0) + 1
        if status != 200:
            tally["failed"] += 1
            continue
        try:
            answer = json.loads(body)
        except ValueError:
            answer = {}
        if not payloads[index].matches(answer):
            tally["failed"] += 1
            tally["mismatches"] += 1


def new_tally():
    return {"attempted": 0, "failed": 0, "mismatches": 0,
            "transport_errors": 0, "statuses": {}}


def scrape(port):
    """One ``GET /metrics`` scrape, parsed into ``{(name, labels): value}``."""
    from repro.serve.top import parse_prometheus_text

    connection = Connection(port)
    try:
        status, body = connection.get("/metrics")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_prometheus_text(body.decode("utf-8", "replace"))
