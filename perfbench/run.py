"""fedmismatch benchmark: end-to-end metrics, correctness gate and traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload presets_mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all           # every workload, untraced then traced

Each pass drives the documented entry point
``fedmismatch.cli.main(["run", cfg, "--out", dir, "--seed", s, "--threads", t])``
in this process, with BLAS pinned to one thread before numpy loads. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (result rows) and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
``perfbench/README.md`` for what each workload and metric means.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9

# Runs in a fresh interpreter: import fedmismatch and validate every config.
SETUP_PROBE = """
import contextlib, io, sys
from fedmismatch import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["validate", c]) for c in sys.argv[1:]]
sys.exit(max(codes))
"""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(setup: list[float], sweep: dict, maxrss_kb: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "rows_per_s": sweep["rows"] / sweep["wall"],
        "peak_rss_mb": maxrss_kb / 1024.0,
        "comm_floats_up": sweep["up"],
        "comm_floats_down": sweep["down"],
    }


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_times(configs) -> list[float]:
    """Wall time of fresh interpreters that import fedmismatch and validate."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, *map(str, configs)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": wl.threads(),
        "seed": seed,
    }


class Bench:
    """Runs passes of one workload and checks every CSV they write."""

    def __init__(self, cli, workload: wl.Workload, out: Path, reference: dict):
        self.cli = cli
        self.workload = workload
        self.out = out
        self.threads = wl.threads()
        self.raws = {cfg: wl.load(cfg) for cfg in workload.configs}
        self.shapes = {cfg: wl.shape(raw) for cfg, raw in self.raws.items()}
        self.ref_seed = workload.program_seeds(wl.REFERENCE_SEED)[0]
        self.reference = reference.get(workload.name, {})
        self.first: dict[tuple[Path, int], bytes] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference_checked = 0
        self.compared = 0
        self.distinct: dict[str, dict[int, int]] = {}

    def call(self, cfg: Path, seed: int, threads: int, recorder=None):
        """One ``run`` call; returns (wall seconds, cpu seconds, results rows)."""
        out = self.out / cfg.stem
        argv = ["run", str(cfg), "--out", str(out), "--seed", str(seed), "--threads", str(threads)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            cpu0, t0 = time.process_time(), time.perf_counter()
            if recorder is None:
                code = self.cli.main(argv)
            else:
                code = recorder.run(lambda: self.cli.main(argv))
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if recorder is not None:
            counts = recorder.run_counts[max(recorder.run_counts)]
            self.distinct.setdefault(cfg.stem, {})[seed] = counts["model.distinct_patterns"]
        results = out / f"{self.raws[cfg].get('output', {}).get('prefix', 'experiment')}_results.csv"
        data = results.read_bytes() if code == 0 and results.is_file() else None
        if results.is_file():
            results.unlink()
        return wall, cpu, self.record(cfg, seed, code, data)

    def record(self, cfg: Path, seed: int, code: int, data: bytes | None):
        """Check one CSV; returns its rows, or [] when the call failed."""
        expected = self.shapes[cfg]["rows"]
        self.attempted += expected
        label = f"{cfg.stem} seed {seed}"
        if data is None:
            self._fail(expected, [f"{label}: run exited {code} without results"])
            return []
        failed, problems = check.check_csv(data, self.raws[cfg], expected)
        earlier = self.first.setdefault((cfg, seed), data)
        self.compared += earlier is not data
        if earlier != data:
            failed, problems = expected, problems + ["results differ from the earlier run of this seed"]
        if seed == self.ref_seed:
            ref_failed, ref_problems = check.compare_reference(data, self.reference.get(cfg.stem, []))
            self.reference_checked += 1
            failed, problems = max(failed, ref_failed), problems + ref_problems
        self._fail(failed, [f"{label}: {p}" for p in problems])
        return check.parse(data)[1]

    def _fail(self, rows: int, problems: list[str]) -> None:
        self.failed += rows
        self.problems += problems

    def sweep(self, seeds, seconds: float, min_cycles: int, recorder=None):
        """At least ``min_cycles`` whole cycles over ``seeds``, more until ``seconds`` pass."""
        wall = cpu = 0.0
        rows = up = down = 0
        done = 0
        cycle_walls = []
        start = time.perf_counter()
        while done < min_cycles or time.perf_counter() - start < seconds:
            for seed in seeds:
                for cfg in self.workload.configs:
                    w, c, written = self.call(cfg, seed, self.threads, recorder)
                    wall, cpu, rows = wall + w, cpu + c, rows + len(written)
                    if done == 0:
                        up += sum(int(r["comm_floats_up"]) for r in written)
                        down += sum(int(r["comm_floats_down"]) for r in written)
            done += 1
            cycle_walls.append(wall - sum(cycle_walls))
        return {"wall": wall, "cpu": cpu, "rows": rows, "cycles": done, "up": up, "down": down,
                "cycle_walls": cycle_walls}

    def prime(self, seeds) -> None:
        """Untimed passes: one at --threads 1 per seed (the bytes every later
        pass must reproduce) and the reference pass. Single-item workloads
        skip the --threads 1 pass, where the thread count cannot matter."""
        if len(self.workload.configs) > 1:
            for seed in seeds:
                for cfg in self.workload.configs:
                    self.call(cfg, seed, 1)
            if self.ref_seed not in seeds:
                for cfg in self.workload.configs:
                    self.call(cfg, self.ref_seed, self.threads)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from fedmismatch import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"fedmismatch imported from {cli.__file__}, not from {SRC}")
    workload = wl.workloads(ROOT)[name]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    setup = [] if traced else setup_times(workload.configs)
    out = OUT / f"run-{name}-{seed}-{os.getpid()}"
    bench = Bench(cli, workload, out, reference)
    seeds = workload.program_seeds(seed)
    print(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(traced)}")
    print("env: " + json.dumps(environment(seed)))
    for cfg in workload.configs:
        print(f"workload: {name} config={cfg.stem} " + " ".join(f"{k}={v}" for k, v in bench.shapes[cfg].items()))
    try:
        bench.prime(seeds)
        if traced:
            plain = bench.sweep(seeds, seconds / 3, min_cycles=1)
            recorder = spans.SpanRecorder()
            recorder.install()
            tr = bench.sweep(seeds, 0, min_cycles=plain["cycles"], recorder=recorder)
            recorder.uninstall()
            metrics = {"cli.cpu_per_wall": plain["cpu"] / plain["wall"]}
            metrics.update(spans.layer_metrics(recorder, tr["wall"], tr["cycles"]))
            metrics["trace.overhead_s"] = (tr["wall"] - plain["wall"]) / tr["cycles"]
            OUT.mkdir(parents=True, exist_ok=True)
            spans.write_spans(recorder, OUT / f"spans-{name}.csv")
            for stem, by_seed in bench.distinct.items():
                k = bench.shapes[next(c for c in workload.configs if c.stem == stem)]["k"]
                shares = {s: round(1 - n / k, 4) for s, n in by_seed.items()}
                print(f"patterns: {name} config={stem} k={k} distinct_by_seed={by_seed} repeated_share={shares}")
            print(f"trace: {len(recorder.spans)} spans over {tr['cycles']} cycle(s) -> {OUT / f'spans-{name}.csv'}")
        else:
            sw = bench.sweep(seeds, seconds, min_cycles=2)
            metrics = end_to_end(setup, sw, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            print(f"setup: probes {[round(t, 3) for t in setup]}")
            print(f"sweep: {sw['cycles']} cycle(s) of seeds {seeds}, {sw['rows']} rows in {sw['wall']:.3f} s; "
                  f"cycle walls {[round(w, 3) for w in sw['cycle_walls']]}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if bench.reference_checked:
        print(f"check: reference values compared on {bench.reference_checked} CSV(s) at program seed {bench.ref_seed}")
    else:
        print(f"check: reference check not run (workload seed {seed} is not the reference seed "
              f"{wl.REFERENCE_SEED}); structural and determinism checks only")
    print(f"check: {bench.compared} CSV(s) compared byte for byte with an earlier run of the same seed")
    for problem in bench.problems[:20]:
        print(f"check FAILED: {problem}")
    units = metric_units("per_layer" if traced else "end_to_end")
    result = {
        "correct": bench.failed == 0 and not bench.problems and bench.compared > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    for key, unit in units.items():
        print(f"metric {key} = {metrics[key]!r} {unit}")
    if not traced:
        print(f"metric failed_share = {bench.failed / bench.attempted!r} ratio")
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in its own process: untraced, then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.workloads(ROOT):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr.strip()}")
            res = json.loads(lines[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*wl.workloads(ROOT), "all"])
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not (SRC / "fedmismatch" / "__init__.py").is_file():
            raise BenchError(f"no fedmismatch sources under {SRC}")
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
