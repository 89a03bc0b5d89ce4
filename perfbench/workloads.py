"""Benchmark workloads: which configs run, at which seeds and thread count.

Configs are passed to the program unchanged; the benchmark only chooses the
``--seed`` of each pass from the workload seed. A cycle is one pass over a
workload's ``cycle`` successive program seeds; every run makes at least two
cycles, so each seed is run twice and the repeat can be compared byte for
byte.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PRESETS = ("consistency_sweep", "new_client", "bound_verification",
           "local_vs_federated", "typical_case", "comm_audit")
REFERENCE_SEED = 1

# Rows per work item when a config leaves ``methods`` to the scenario.
DEFAULT_METHOD_COUNT = {"typical_case_sweep": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Path, ...]
    cycle: int

    def program_seeds(self, seed: int) -> list[int]:
        """Successive program seeds for one cycle, derived from ``seed``."""
        return [seed * 100 + j for j in range(self.cycle)]


def workloads(root: Path) -> dict[str, Workload]:
    presets = root / "src" / "fedmismatch" / "presets"
    return {
        # The traffic the package ships: K <= 6, d <= 10. Time goes to
        # per-call overhead, MC sampling, closed forms and the thread pool.
        "presets_mix": Workload("presets_mix", tuple(presets / f"{p}.json" for p in PRESETS), cycle=4),
        # K = 1000 clients with ~20 rows each: per-client Python loops.
        # Not listed in BENCHMARK.json: its interpreter-bound time drifts
        # with host speed by more than a bound allows (see README.md).
        "many_clients": Workload("many_clients", (HERE / "configs" / "many_clients.json",), cycle=2),
        # K = 6, n = 200k, d = 64: large-array passes and copies.
        "wide_features": Workload("wide_features", (HERE / "configs" / "wide_features.json",), cycle=2),
    }


def threads() -> int:
    return len(os.sched_getaffinity(0))


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def shape(raw: dict) -> dict:
    """K, n, d and rows attempted per run call, read from a config."""
    grid = raw.get("grid", {})
    items = raw.get("seeds", {}).get("replicates", 1)
    for key in ("tau", "n", "lam"):
        items *= len(grid.get(key) or [None])
    if "methods" in raw:
        methods = len(raw["methods"])
    else:
        methods = DEFAULT_METHOD_COUNT[raw["scenario"]]
    return {
        "k": raw["clients"]["k"],
        "n": grid.get("n"),
        "d": raw["population"]["d"],
        "rows": items * methods,
    }
