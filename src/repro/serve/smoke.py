"""End-to-end serve smoke: launch, exercise, SIGTERM, verify cleanup.

Run as ``python -m repro.serve.smoke``; CI's serve-smoke job does.  The
script is the serving layer's acceptance walk in one process tree:

1. launch ``python -m repro.serve --port 0 --data-dir D --workers 2``
   and parse the ready line for the bound port;
2. create relations, run a query twice — the second must be served from
   cache — commit, and see the re-run miss (epoch invalidation) with
   the new row visible;
3. collect the exec-pool worker PIDs via the ``stats`` op, SIGTERM the
   server while a connection is still open, and assert: exit code 0, no
   traceback in the server's output, every collected PID gone, and the
   data directory recovers to exactly the committed state.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ..db.database import TPDatabase
from .client import ServeClient

READY_PREFIX = "serving on "
STARTUP_DEADLINE_S = 60.0


def _launch(data_dir: Path) -> tuple[subprocess.Popen, int]:
    """Start a server subprocess; returns (process, bound port)."""
    argv = [
        sys.executable,
        "-m",
        "repro.serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--data-dir",
        str(data_dir),
        "--workers",
        "2",
    ]
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert process.stdout is not None
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError("server never printed its ready line")
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before ready (rc={process.poll()})"
            )
        if line.startswith(READY_PREFIX):
            return process, int(line.strip().rsplit(":", 1)[1])


def _exercise(client: ServeClient) -> list[int]:
    """The scripted conversation; returns every PID that must die on exit."""
    assert client.ping()["pong"] is True
    client.create(
        "a",
        ["product"],
        [["milk", 2, 10, 0.3], ["chips", 4, 7, 0.8]],
    )
    client.create("b", ["product"], [["milk", 5, 12, 0.5]])

    first = client.query("a | b", optimize="safe")
    assert first["cached"] is False
    again = client.query("a | b", optimize="safe")
    assert again["cached"] is True, "hot query must be served from cache"
    assert again["relation"] == first["relation"], "cache must be bit-identical"

    explain = client.query("EXPLAIN a | b", optimize="safe")
    assert "plan" in explain["explain"].lower()

    committed = client.commit("a", inserts=[["beer", 3, 8, 0.5]])
    assert committed["inserted"] == 1
    after = client.query("a | b", optimize="safe")
    assert after["cached"] is False, "commit must invalidate the cache"
    facts = {row[0][0] for row in after["relation"]["rows"]}
    assert "beer" in facts, "the committing session reads its own write"

    stats = client.stats()["stats"]
    assert stats["results"]["hits"] >= 1
    return list(stats["pool_workers"])


def _assert_dead(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"server child {pid} leaked past shutdown")


def _assert_recoverable(data_dir: Path) -> None:
    """Reopen the data dir cold and check the committed state survived."""
    with TPDatabase(data_dir=data_dir) as db:
        facts = {t.fact[0] for t in db.relation("a")}
        assert facts == {"milk", "chips", "beer"}, f"recovered {facts!r}"


def main(argv: list[str] | None = None) -> int:
    """Run the smoke sequence; 0 on success (assertions fail loudly)."""
    argparse.ArgumentParser(prog="python -m repro.serve.smoke").parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        data_dir = Path(tmp) / "data"
        process, port = _launch(data_dir)
        try:
            with ServeClient("127.0.0.1", port) as client:
                pids = _exercise(client)
                # SIGTERM with the connection still open: shutdown must
                # cancel its handler quietly.
                process.send_signal(signal.SIGTERM)
                output, _ = process.communicate(timeout=STARTUP_DEADLINE_S)
            assert process.returncode == 0, (
                f"server exited {process.returncode} on SIGTERM"
            )
            assert "Traceback" not in output, f"server output:\n{output}"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        _assert_dead(pids)
        _assert_recoverable(data_dir)
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
