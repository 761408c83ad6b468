"""The benchmark's own tests: every workload at tiny scale.

Each workload runs untraced and traced on shrunken inputs; the metric
names and units must be exactly those of ``BENCHMARK.json``, and the
correctness gates must pass — and trip on a planted wrong probability.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import adhoc  # noqa: E402
import ingest  # noqa: E402
import serve_mixed  # noqa: E402
from common import GateError, RunConfig  # noqa: E402
from run import expected_metrics, load_contract  # noqa: E402
from tracer import SpanReport  # noqa: E402

MODULES = {"adhoc_query": adhoc, "ingest_views": ingest, "serve_mixed": serve_mixed}


@pytest.fixture(autouse=True)
def engine_as_shipped(monkeypatch):
    """Run the engine serial, on the tuple path, whatever the environment.

    ``run.py`` clears these variables before it imports the engine; the
    tests call the workloads directly, so they clear them here and reset
    the resolved configuration (restored after each test).
    """
    from repro.exec import config

    for variable in (
        config.ENV_WORKERS, config.ENV_MIN_TUPLES, config.ENV_MIN_FORMULAS,
        config.ENV_COLUMNAR,
    ):
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.setattr(config, "_ACTIVE", None)
    monkeypatch.setattr(config, "_COLUMNAR", None)
    monkeypatch.setattr(config, "_COLUMNAR_RESOLVED", False)


def tiny(trace: bool, seed: int = 3) -> RunConfig:
    return RunConfig(seed=seed, seconds=0.4, trace=trace, scale=0.05)


def test_contract_shape():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in contract["workloads"]] == list(MODULES)
    assert {m["name"] for m in contract["end_to_end"]} >= {"setup_s"}
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("workload", list(MODULES))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(workload, trace):
    result = MODULES[workload].run(tiny(trace))
    assert result.correct
    assert result.attempted >= 1 and result.failed == 0
    units = {name: unit for name, (_, unit) in result.metrics.items()}
    assert units == expected_metrics(load_contract(), trace)
    assert all(value >= 0 for value, _ in result.metrics.values())
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
    if workload == "serve_mixed":
        assert result.info["server"]["exit_status"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_adhoc_gate_checks_every_query_kind(trace):
    result = adhoc.run(tiny(trace))
    assert set(result.info["checked"]) == {"setop", "chain", "join"}
    assert all(count >= 1 for count in result.info["checked"].values())


def test_adhoc_gate_refuses_a_missing_kind():
    kept = adhoc.Kept()
    kept.offer(("setop", "ua | ub", "off", ("union", "ua", "ub")), None)
    with pytest.raises(GateError, match="chain, join"):
        adhoc.gate(None, kept)


def test_adhoc_trace_covers_query_time():
    result = adhoc.run(tiny(True))
    assert result.metrics["trace.span_coverage"][0] >= 0.9
    assert result.metrics["core.setop_ms"][0] > 0
    assert result.metrics["prob.valuation_ms"][0] > 0


def test_planted_wrong_probability_trips_the_gate(monkeypatch):
    import repro.core.relation as relation

    honest = relation.probability_batch

    def skewed(*args, **kwargs):
        values = honest(*args, **kwargs)
        return [min(1.0, p + 1e-6) for p in values]

    monkeypatch.setattr(relation, "probability_batch", skewed)
    # The first kept result is a set operation, checked bit for bit.
    with pytest.raises(GateError, match=r"^\w+ [|&-] \w+: row "):
        adhoc.run(tiny(False))


def test_self_time_subtracts_children_and_gc():
    spans = [
        (1, None, 1, "op.query", 0, 100, None),
        (2, 1, 1, "core.setop", 10, 60, {"rows": 5}),
        (3, 2, 1, "prob.valuation", 20, 30, {"hits": 1, "misses": 3}),
    ]
    pauses = [(40, 45, 2, 2, 1), (70, 80, 0, 1, 1)]
    report = SpanReport(spans, pauses, 0, 100)
    assert report.self_ns["core.setop"] == 50 - 10 - 5
    assert report.self_ns["op.query"] == 100 - 50 - 10
    assert report.gc_ns == 15 and report.gen2_count() == 1


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adhoc_query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_fingerprints_are_seeded(tmp_path):
    first = adhoc.prepare(tiny(False, seed=5), tmp_path / "a")[-1]
    again = adhoc.prepare(tiny(False, seed=5), tmp_path / "b")[-1]
    other = adhoc.prepare(tiny(False, seed=6), tmp_path / "c")[-1]
    assert first == again != other
