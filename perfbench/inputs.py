"""Seeded inputs: relation families, CSV files, query and commit streams.

Relations come from :func:`repro.bench.workloads.build_scenario` over
specs this benchmark owns, renamed so every relation mints its own
lineage variables (``ua1``, ``ua2``, ...); commit batches come lazily
from the same module's batch routine.  Each workload fingerprints the
CSV bytes and the head of its op streams; the fingerprint goes with
every result, and ``compare.py`` refuses to compare runs whose
fingerprints differ, so a change to the generator under ``src/`` cannot
silently change what is measured.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from common import RunConfig

from repro.bench.workloads import ScenarioSpec, _generate_deltas, build_scenario
from repro.core.relation import TPRelation
from repro.db.io import save_csv

#: Rows per generated commit batch.
BATCH_ROWS = 20
#: Share of deleted rows in a commit batch.  Half keeps the stores at
#: their loaded size however many commits a run gets through, so memory
#: and per-op cost do not depend on how fast the engine is.
DELETE_SHARE = 0.5


@dataclass(frozen=True)
class Family:
    """Relations drawn from one generator configuration."""

    names: tuple[str, ...]
    key_distribution: str
    interval_profile: str
    n_tuples: int
    n_facts: int

    def spec(self, cfg: RunConfig, tag: str) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"perfbench-{tag}",
            description="perfbench input family",
            key_distribution=self.key_distribution,
            interval_profile=self.interval_profile,
            n_relations=len(self.names),
            n_tuples=cfg.size(self.n_tuples, floor=40),
            n_facts=self.n_facts,
            delete_share=DELETE_SHARE,
        )


def build_family(family: Family, cfg: RunConfig, tag: str) -> dict[str, TPRelation]:
    """The family's relations by name."""
    scenario = build_scenario(family.spec(cfg, tag), scale=1.0, seed=cfg.seed)
    relations = {}
    for index, name in enumerate(family.names):
        generated = scenario.relations[f"r{index + 1}"]
        relations[name] = TPRelation.from_rows(
            name,
            ("k",),
            [(t.fact[0], t.start, t.end, t.p) for t in generated],
            validate=False,
        )
    return relations


def delta_stream(family: Family, cfg: RunConfig, tag: str, relation: TPRelation):
    """Endless commit batches against ``relation``, made lazily.

    Each batch comes from the scenario generator's own batch routine,
    as in its delta storms: inserts extend a key's chain past its
    frontier, deletes pick tuples still live at batch start.  Lazy, so a
    run never exhausts its script and holds no script in memory.
    """
    frontier: dict[str, int] = {}
    live: dict[str, list[tuple[int, int]]] = {}
    for t in relation:
        key = str(t.fact[0])
        frontier[key] = max(frontier.get(key, t.end), t.end)
        live.setdefault(key, []).append((t.start, t.end))
    spec = family.spec(cfg, tag)
    draw = rng(cfg, tag, "deltas")
    while True:
        ((_, delta),) = _generate_deltas(
            spec, draw.randrange(2**31), relation.name, frontier, live, 1, BATCH_ROWS
        )
        yield delta


def write_csvs(relations: dict[str, TPRelation], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, relation in sorted(relations.items()):
        paths[name] = directory / f"{name}.csv"
        save_csv(relation, paths[name])
    return paths


def fingerprint_inputs(paths: dict[str, Path], stream: object) -> str:
    """SHA-256 over the CSV files and the head of the op stream."""
    digest = hashlib.sha256()
    for name in sorted(paths):
        digest.update(paths[name].name.encode())
        digest.update(paths[name].read_bytes())
    digest.update(repr(stream).encode())
    return digest.hexdigest()


def rng(cfg: RunConfig, *scope: object) -> random.Random:
    return random.Random(":".join(str(part) for part in (cfg.seed, *scope)))
