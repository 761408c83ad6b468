"""Shared plumbing: run configuration, results, statistics, process probes."""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
#: Everything a run writes (inputs, data dirs, traces, result log) lives here.
OUT_DIR = ROOT / ".perfbench-out"

#: A p95 is only meaningful with at least ten samples beyond it, so an
#: untraced timed loop runs past its seconds until it holds this many reads.
P95_MIN_SAMPLES = 200
#: Set-ups per untraced run; the median is reported as ``setup_s``.
SETUP_REPS = 9
#: The probe kernel's median time on the reference machine (a 2-vCPU VM
#: running CPython 3.11): end-to-end times are reported as if measured
#: there; see :class:`SpeedProbe`.
REFERENCE_PROBE_MS = 2.0
PROBE_EVERY_NS = 1_000_000_000
PROBE_SAMPLES = 5


class GateError(Exception):
    """An output differs from its oracle: the run is not correct."""


@dataclass
class RunConfig:
    """One run: the command-line arguments plus the input scale the tests shrink."""

    seed: int
    seconds: float
    trace: bool
    #: Multiplies every generated input size (1.0 = the recorded sizes).
    scale: float = 1.0

    def size(self, n: int, floor: int = 8) -> int:
        return max(floor, int(round(n * self.scale)))


@dataclass
class Result:
    """What a workload hands back to the runner."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Context printed before the result line (fingerprint, server exit, ...).
    info: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def p95(values: list[float]) -> float:
    """The 95th percentile (inclusive method); needs at least 20 samples."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def ms(ns: float) -> float:
    return ns / 1e6


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def put_end_to_end(
    result: Result,
    *,
    setups: list[tuple[float, int]],
    loop: Loop,
    rss_mb: float,
    probe: SpeedProbe,
) -> None:
    """The end-to-end metrics, scaled to the reference machine's speed.

    ``setups`` holds each set-up's seconds with the probe window it ran
    in.  Every set-up time and op latency is scaled by its own window's
    factor; ``ops_per_s`` by the mean factor over the loop's ops,
    weighted by their time.  The unscaled values and the probe's median
    go to ``result.info``.
    """
    scales = probe.local_scales()
    reads = loop.of("read")
    took = [
        (ns, scales[window])
        for kind, latencies in loop.latencies.items()
        for ns, window in zip(latencies, loop.windows[kind])
    ]
    mean_scale = sum(ns * scale for ns, scale in took) / sum(ns for ns, _ in took)
    scaled_reads = [ns * scales[window] for ns, window in zip(reads, loop.windows["read"])]
    ops_per_s = loop.done / (loop.wall_ns / 1e9)
    result.put("setup_s", median(sec * scales[window] for sec, window in setups), "s")
    result.put("query_p50_ms", ms(median(scaled_reads)), "ms")
    result.put("query_p95_ms", ms(p95(scaled_reads)), "ms")
    result.put("ops_per_s", ops_per_s / mean_scale, "1/s")
    result.put("peak_rss_mb", rss_mb, "MiB")
    result.info["unscaled"] = {
        "setup_s": median(sec for sec, _ in setups),
        "query_p50_ms": ms(median(reads)),
        "query_p95_ms": ms(p95(reads)),
        "ops_per_s": ops_per_s,
    }
    result.info["probe_ms"] = median(probe.samples_ms)


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


def bytes_written() -> int:
    """Bytes this process has passed to write(2) so far (``wchar``)."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise RuntimeError("wchar missing from /proc/self/io")


def _probe_kernel() -> int:
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return acc


class SpeedProbe:
    """How fast this machine runs Python during a timed region.

    The timed loops call :meth:`maybe_sample` between ops; about once a
    second it times a fixed interpreter-bound kernel a few times (one
    window).  The kernel allocates no containers, so it neither triggers
    nor pays for collections of the engine's heap.  :meth:`local_scales`
    turns each window's samples into the factor that maps a time measured
    on this machine, at that moment, to the reference machine
    (``REFERENCE_PROBE_MS``); the VMs this runs on drift in speed by tens
    of percent over seconds to minutes, and a factor per window cancels
    that drift better than one per run.  Time spent probing is not op
    time.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        #: The median of each sampling's samples, in order.
        self.window_ms: list[float] = []
        self._next = 0

    def maybe_sample(self) -> int:
        """Probe when due; the ns spent (to exclude from the run's wall)."""
        if time.perf_counter_ns() < self._next:
            return 0
        return self.sample()

    def sample(self) -> int:
        """Probe now; the ns spent."""
        now = time.perf_counter_ns()
        samples = []
        for _ in range(PROBE_SAMPLES):
            start = time.perf_counter_ns()
            _probe_kernel()
            samples.append((time.perf_counter_ns() - start) / 1e6)
        end = time.perf_counter_ns()
        self.samples_ms += samples
        self.window_ms.append(median(samples))
        self._next = end + PROBE_EVERY_NS
        return end - now

    def window(self) -> int:
        """The index of the latest window (-1 before the first sample)."""
        return len(self.window_ms) - 1

    def local_scales(self) -> list[float]:
        """Per window, reference time per measured time (multiply times,
        divide rates), from the window's median and its two neighbours'."""
        w = self.window_ms
        return [REFERENCE_PROBE_MS / median(w[max(i - 1, 0):i + 2]) for i in range(len(w))]


@dataclass
class Loop:
    """What a closed loop did: latencies (ns) by op kind, counts and wall."""

    latencies: dict[str, list[int]]
    attempted: int
    failed: int
    wall_ns: int
    #: Per kind, parallel to ``latencies``: the probe window each op ran in.
    windows: dict[str, list[int]] = field(default_factory=dict)

    def of(self, kind: str) -> list[int]:
        return self.latencies.get(kind, [])

    @property
    def done(self) -> int:
        return self.attempted - self.failed


def closed_loop(ops: Iterator, run_op: Callable, seconds: float, *, min_reads: int,
                probe: Optional[SpeedProbe] = None) -> Loop:
    """Run the ops of ``ops`` back to back through ``run_op`` for ``seconds``.

    ``run_op(op)`` returns the kind of the op it completed (``"read"``,
    ``"commit"``, ...) or ``None`` when the op failed with a typed error;
    a :class:`TimeoutError` counts as a failure and ends the loop.  The
    loop runs past ``seconds`` until it holds ``min_reads`` reads, but
    never past three times ``seconds``.  The probe (if any) samples
    between ops; its samples and the making of each op are excluded from
    the wall and from the deadlines.
    """
    latencies: dict[str, list[int]] = {}
    windows: dict[str, list[int]] = {}
    attempted = failed = paused = 0
    clock = time.perf_counter_ns
    start = clock()
    while True:
        if probe is not None:
            paused += probe.maybe_sample()
        elapsed = clock() - start - paused
        if elapsed >= 3 * seconds * 1e9 or (
            elapsed >= seconds * 1e9 and len(latencies.get("read", ())) >= min_reads
        ):
            break
        made = clock()
        op = next(ops)
        paused += clock() - made
        attempted += 1
        t0 = clock()
        try:
            kind = run_op(op)
        except TimeoutError:
            failed += 1
            break
        took = clock() - t0
        if kind is None:
            failed += 1
        else:
            latencies.setdefault(kind, []).append(took)
            windows.setdefault(kind, []).append(probe.window() if probe else -1)
    return Loop(latencies, attempted, failed, clock() - start - paused, windows)


def timed_setup(reps: int, build, release=None, probe=None) -> tuple[list, object]:
    """Run ``build()`` ``reps`` times; ([(seconds, probe window)], last result).

    Each earlier result is passed to ``release`` (when given), dropped and
    collected before the next build, so the kept one is what the timed
    region runs against.  The peak resident set restarts before the last
    build: it covers one set-up and what follows, not input generation.
    The probe (if any) samples before every build.
    """
    durations = []
    built = None
    for _ in range(reps):
        if built is not None and release is not None:
            release(built)
        built = None
        gc.collect()
        reset_peak_rss()
        if probe is not None:
            probe.sample()
        start = time.perf_counter()
        built = build()
        durations.append((time.perf_counter() - start, probe.window() if probe else -1))
    return durations, built


def run_dir(workload: str, seed: int) -> Path:
    """A fresh scratch directory for one run's inputs and data."""
    base = OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)
    return base


# ----------------------------------------------------------------------
# output comparison (the correctness gate)
# ----------------------------------------------------------------------
def rows_of(relation, *, lineage: bool = True) -> list[tuple]:
    """A relation's content as comparable rows, in a canonical order."""
    rows = [
        (t.fact, t.start, t.end, str(t.lineage) if lineage else "", t.p)
        for t in relation
    ]
    rows.sort(key=repr)
    return rows


def check_equal(label: str, got, want, *, lineage: bool = True, exact: bool = True) -> None:
    """Raise :class:`GateError` unless the two relations agree.

    ``exact`` demands bit-identical probabilities; otherwise they must
    agree to 1e-9 (two algorithms whose lineage forms differ).
    """
    a, b = rows_of(got, lineage=lineage), rows_of(want, lineage=lineage)
    if len(a) != len(b):
        raise GateError(f"{label}: {len(a)} rows, oracle has {len(b)}")
    for row, expected in zip(a, b):
        same = row == expected if exact else (
            row[:4] == expected[:4]
            and math.isclose(row[4], expected[4], rel_tol=1e-9, abs_tol=1e-12)
        )
        if not same:
            raise GateError(f"{label}: row {row!r} differs from oracle {expected!r}")
