"""Record ``reference.json``: the reference-seed values the benchmark checks.

Run from the repository root, only when a change is meant to alter results:

    python3 perfbench/record_reference.py

For each workload it runs every config once at the reference program seed
and stores the key, risk and bound cells of each results row.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fedmismatch import cli

    reference = {}
    for name, workload in wl.workloads(ROOT).items():
        seed = workload.program_seeds(wl.REFERENCE_SEED)[0]
        reference[name] = {}
        for cfg in workload.configs:
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(cfg), "--out", out, "--seed", str(seed), "--threads", "1"])
                prefix = wl.load(cfg).get("output", {}).get("prefix", "experiment")
                data = (Path(out) / f"{prefix}_results.csv").read_bytes() if code == 0 else None
            if data is None:
                print(f"{name}/{cfg.stem}: run exited {code}", file=sys.stderr)
                return 1
            reference[name][cfg.stem] = check.reference_rows(data)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
