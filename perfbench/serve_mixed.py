"""``serve_mixed``: two NDJSON connections against ``python -m repro.serve``.

The server loads three CSV relations at start-up.  One client thread
alternates requests between two connections in a closed loop: both
re-run a handful of hot ``optimize='safe'`` queries; connection 0 also
commits a ~20-row transaction to ``sc`` every 5th op, and connection 1
re-pins its session (``begin``) every 10th op so it sees those commits.  The
working set fits the server's plan and result caches, so most reads
are cache hits and the kernels run only on misses after commits.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    P95_MIN_SAMPLES,
    ROOT,
    SETUP_REPS,
    GateError,
    Loop,
    Result,
    RunConfig,
    SpeedProbe,
    closed_loop,
    median,
    ms,
    peak_rss_mb,
    put_end_to_end,
    run_dir,
)
from inputs import (
    Family,
    build_family,
    delta_stream,
    fingerprint_inputs,
    rng,
    write_csvs,
)
from layers import TracedPhase, put_layer_metrics
from tracer import SpanReport, clock, load_dump

from repro.db.database import TPDatabase
from repro.db.io import load_csv
from repro.serve.protocol import encode_line, relation_payload

NAME = "serve_mixed"
HERE = Path(__file__).resolve().parent
FAMILIES = (
    Family(("sa", "sb"), "uniform", "short", 2000, 40),
    Family(("sc",), "skewed", "short", 2000, 40),
)
HOT = (
    "sa | sb",
    "(sa - sc)[k='k1']",
    "((sa | sb) & sc)[k='k0']",
    "sb - sc",
    "(sa JOIN sc ON k)[k='k2']",
)
COMMIT_EVERY = 5
BEGIN_EVERY = 10
#: Requests per connection fingerprinted (the scripts are unbounded).
FINGERPRINT_OPS = 2000
#: Seconds a server may take to print its ready line or to exit.
SERVER_DEADLINE = 60.0
REQUEST_TIMEOUT = 60.0


def script(cfg: RunConfig, conn: int, relations: dict):
    """Connection ``conn``'s endless request sequence.

    Each connection cycles through the hot queries in its own seeded
    order, so the query mix is the same on every run; connection 0
    commits every COMMIT_EVERY-th op, connection 1 re-pins every
    BEGIN_EVERY-th.
    """
    order = list(HOT)
    rng(cfg, NAME, f"conn{conn}").shuffle(order)
    queries = itertools.cycle(order)
    if conn == 0:
        deltas = delta_stream(FAMILIES[1], cfg, "serve-1", relations["sc"])
    for i in itertools.count(1):
        if conn == 0 and i % COMMIT_EVERY == 0:
            delta = next(deltas)
            yield {
                "op": "commit",
                "relation": "sc",
                "inserts": [list(row) for row in delta.inserts],
                "deletes": [list(row) for row in delta.deletes],
            }
        elif conn == 1 and i % BEGIN_EVERY == 0:
            yield {"op": "begin"}
        else:
            yield {"op": "query", "q": next(queries), "optimize": "safe"}


class Connection:
    """One blocking NDJSON client connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT)
        self.lines = self.sock.makefile("rb")
        self.read()  # the hello line

    def read(self) -> dict:
        line = self.lines.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        return self.read()

    def must(self, request: dict) -> dict:
        reply = self.call(request)
        if not reply.get("ok"):
            raise RuntimeError(f"{request['op']} failed during set-up: {reply}")
        return reply

    def close(self) -> None:
        self.lines.close()
        self.sock.close()


class Server:
    """A ``repro.serve`` subprocess, started and stopped by signal."""

    def __init__(self, paths: dict[str, Path], work: Path, trace_out: Path | None) -> None:
        args = ["--port", "0"]
        for name, path in sorted(paths.items()):
            args += ["--load", f"{name}={path}"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            command = [sys.executable, str(HERE / "traced_server.py"), str(trace_out), *args]
        self.stderr_path = work / f"server-{time.perf_counter_ns()}.stderr"
        with self.stderr_path.open("wb") as stderr:
            self.proc = subprocess.Popen(
                command,
                cwd=ROOT,
                env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}:{HERE}"},
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        self.port = self._ready_port()

    def _ready_port(self) -> int:
        deadline = time.monotonic() + SERVER_DEADLINE
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if line.startswith("serving on "):
                    return int(line.rsplit(":", 1)[1])
                if not line and self.proc.poll() is not None:
                    break
        self.stop()
        raise RuntimeError(f"server did not become ready: {self.stderr_tail()}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stderr_tail(self, lines: int = 5) -> list[str]:
        return self.stderr_path.read_text(errors="replace").splitlines()[-lines:]

    def stop(self) -> dict:
        """SIGTERM, wait, and report the exit status and stderr tail."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=SERVER_DEADLINE)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        assert self.proc.stdout is not None
        self.proc.stdout.close()
        return {"exit_status": code, "stderr_tail": self.stderr_tail()}


@dataclass
class Served:
    """A ready server with its two warm connections."""

    server: Server
    conns: list[Connection]

    def close(self) -> dict:
        for conn in self.conns:
            conn.close()
        return self.server.stop()


def start(paths, work: Path, trace_out: Path | None = None) -> Served:
    """Start a server and warm it: store conversion, plans, results."""
    server = Server(paths, work, trace_out)
    try:
        conns = [Connection(server.port) for _ in range(2)]
        conns[0].must({"op": "commit", "relation": "sc", "inserts": [], "deletes": []})
        for conn in conns:
            conn.must({"op": "begin"})
            for query in HOT:
                conn.must({"op": "query", "q": query, "optimize": "safe"})
    except BaseException:
        server.stop()
        raise
    return Served(server, conns)


class Client:
    """The closed loop's op: one request on its connection.

    Keeps every acknowledged commit request, in order, for the gate.
    """

    KINDS = {"query": "read", "commit": "commit", "begin": "begin"}

    def __init__(self, served: Served) -> None:
        self.served = served
        self.committed: list[dict] = []

    def __call__(self, op: tuple[int, dict]) -> str | None:
        conn, request = op
        reply = self.served.conns[conn].call(request)
        if not reply.get("ok"):
            return None
        if request["op"] == "commit":
            self.committed.append(request)
        return self.KINDS[request["op"]]


def cache_counters(conn: Connection) -> dict:
    stats = conn.must({"op": "stats"})["stats"]
    return {tier: (stats[tier]["hits"], stats[tier]["misses"]) for tier in ("results", "plans")}


def gate(served: Served, paths, committed: list[dict]) -> None:
    """The final wire payloads equal in-process results after the same commits."""
    conn = Connection(served.server.port)  # a fresh session sees every commit
    try:
        wire = {
            q: conn.must({"op": "query", "q": q, "optimize": "safe"})["relation"]
            for q in HOT
        }
    finally:
        conn.close()
    db = TPDatabase()
    for name, path in paths.items():
        db.register(load_csv(path, name=name))
    for request in committed:
        db.apply("sc", inserts=request["inserts"], deletes=request["deletes"])
    for query in HOT:
        local = json.loads(encode_line(relation_payload(db.query(query, optimize="safe"))))
        if wire[query] != local:
            raise GateError(f"{query}: served payload differs from the in-process result")


def ratio(before: tuple[int, int], after: tuple[int, int]) -> float:
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def prepare(cfg: RunConfig, work: Path) -> tuple[dict, dict, str]:
    """Write the CSV inputs; (paths, relations, input fingerprint)."""
    relations = {}
    for index, family in enumerate(FAMILIES):
        relations.update(build_family(family, cfg, f"serve-{index}"))
    paths = write_csvs(relations, work / "csv")
    heads = [
        list(itertools.islice(script(cfg, conn, relations), FINGERPRINT_OPS))
        for conn in range(2)
    ]
    return paths, relations, fingerprint_inputs(paths, heads)


def requests(cfg: RunConfig, relations: dict):
    """Both connections' requests from their heads, taking turns.

    One client thread alternates between the connections, so the
    interleaving, and with it which request misses the result cache, is
    the same on every run.  Between requests both connections are idle;
    the speed probe samples there.
    """
    scripts = [script(cfg, conn, relations) for conn in range(2)]
    for turn in itertools.count():
        yield turn % 2, next(scripts[turn % 2])


def run(cfg: RunConfig) -> Result:
    # Client and server take turns (a closed loop), so sharing one CPU
    # costs no parallelism and spares every request a cross-CPU wake-up,
    # whose latency swings with the host's load.  The server inherits it.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    work = run_dir(NAME, cfg.seed)
    try:
        paths, relations, fingerprint = prepare(cfg, work)
        result = Result(True, 0, 0, info={"fingerprint": fingerprint})

        if not cfg.trace:
            setups = []
            probe = SpeedProbe()
            for rep in range(SETUP_REPS):
                probe.sample()
                t0 = time.perf_counter()
                served = start(paths, work)
                setups.append((time.perf_counter() - t0, probe.window()))
                if rep < SETUP_REPS - 1:
                    result.info[f"server_{rep}"] = served.close()
            client = Client(served)
            try:
                loop = closed_loop(
                    requests(cfg, relations),
                    client,
                    cfg.seconds,
                    min_reads=P95_MIN_SAMPLES,
                    probe=probe,
                )
                rss = served.server.peak_rss_mb()
                gate(served, paths, client.committed)
            finally:
                result.info["server"] = served.close()
            put_end_to_end(
                result,
                setups=setups,
                loop=loop,
                rss_mb=rss,
                probe=probe,
            )
            loops = [loop]
        else:
            served = start(paths, work)
            try:
                plain = closed_loop(
                    requests(cfg, relations), Client(served), cfg.seconds / 2, min_reads=0
                )
            finally:
                result.info["server_plain"] = served.close()
            trace_out = work.parent / f"trace-{NAME}-seed{cfg.seed}-server.jsonl"
            served = start(paths, work, trace_out)
            client = Client(served)
            try:
                before = cache_counters(served.conns[1])
                window_start = clock()
                traced = closed_loop(
                    requests(cfg, relations), client, cfg.seconds / 2, min_reads=0
                )
                window_end = clock()
                after = cache_counters(served.conns[1])
                gate(served, paths, client.committed)
            finally:
                result.info["server"] = served.close()
            spans, pauses = load_dump(trace_out)
            report = SpanReport(spans, pauses, window_start, window_end)
            put_layer_metrics(result, traced_phase(report, plain, traced, before, after))
            loops = [plain, traced]
        result.attempted = sum(loop.attempted for loop in loops)
        result.failed = sum(loop.failed for loop in loops)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, cpus)


def traced_phase(report, plain: Loop, traced: Loop, before, after) -> TracedPhase:
    """Server spans against the client's view of the same requests."""
    reads = traced.of("read")
    n_queries = max(len(reads), 1)
    n_commits = max(len(traced.of("commit")), 1)
    query_ns = sum(reads)
    op_ns = sum(sum(times) for times in traced.latencies.values())
    inclusive = {
        name: sum(s[5] - s[4] for s in report.named(name))
        for name in ("serve.execute", "serve.encode", "serve.commit")
    }
    roots = sum(s[5] - s[4] for s in report.spans if s[1] is None)
    unowned_gc = sum(p[1] - p[0] for p in report.pauses if p[3] is None)
    return TracedPhase(
        report,
        traced.done,
        op_ns,
        min(roots + unowned_gc, op_ns),
        plain_ops_per_s=plain.done / (plain.wall_ns / 1e9),
        traced_ops_per_s=traced.done / (traced.wall_ns / 1e9),
        extra={
            "serve.execute_ms": ms(inclusive["serve.execute"]) / n_queries,
            "serve.encode_ms": ms(inclusive["serve.encode"]) / n_queries,
            "serve.wait_ms": ms(query_ns - inclusive["serve.execute"] - inclusive["serve.encode"])
            / n_queries,
            "serve.commit_ms": ms(inclusive["serve.commit"]) / n_commits,
            "serve.result_hit_ratio": ratio(before["results"], after["results"]),
            "serve.plan_hit_ratio": ratio(before["plans"], after["plans"]),
            "store.commit_p50_ms": ms(median(plain.of("commit"))),
        },
    )
