"""The traced benchmark's recorder runs against the current code.

``perfbench/spans.py`` patches functions by name, including
``_linalg.pinv`` and ``Dataset.rows_of``/``x_obs_of``, and its counters
read call arguments by position and name. A rename or a moved argument
would first show in the benchmark's traced pass; this runs that pass on
one small preset.
"""
import contextlib
import importlib.util
import io
import pathlib
import time

from fedmismatch import cli

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_preset_records_spans_and_counters(tmp_path):
    spans = _spans()
    (preset,) = [p for p in cli._preset_paths() if p.name == "consistency_sweep.json"]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = recorder.run(lambda: cli.main(["run", str(preset), "--out", str(tmp_path), "--seed", "100"]))
        wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    assert code == 0
    names = {span[3] for span in recorder.spans}
    assert {spans.ROOT, "popgen.sample_dataset", "model.Dataset.x_obs_of", "model.Dataset.rows_of",
            "oracle.monte_carlo_risk", "plugin.build_clientwise_plugin", "fedsim.one_shot_moments"} <= names
    (counts,) = recorder.run_counts.values()
    # Three replicates of n = 200 and 800, each scored on 4,000 draws; two
    # plug-ins per item, each served to the two clients.
    assert (counts["popgen.rows"], counts["oracle.draws"], counts["plugin.attempted"]) == (3000, 24000, 24)
    assert all(counts[key] > 0 for key in ("fedsim.messages", "fedsim.rounds", "model.distinct_patterns"))
    metrics = spans.layer_metrics(recorder, wall, 1)
    assert metrics["popgen.sample_dataset.calls"] > 0 and metrics["oracle.mc_draws_per_s"] > 0
