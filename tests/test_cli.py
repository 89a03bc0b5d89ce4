"""Tests for the config-driven experiment runner."""
import csv
import json
import os
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedmismatch._parallel import block_rows
from fedmismatch.cli import (
    ConfigError,
    RESULT_COLUMNS,
    _preset_paths,
    load_config,
    main,
    parse_config,
    run_experiment,
    validate_config,
)

from support import fail_second_block


def _sweep_config(**over):
    cfg = {
        "scenario": "consistency_sweep",
        "population": {
            "d": 4,
            "sigma": {"kind": "toeplitz", "decay": 0.4},
            "theta_star": {"kind": "alternating", "scale": 1.0},
            "noise": {"kind": "gaussian", "sigma2": 0.5},
        },
        "clients": {
            "k": 2,
            "rho": [0.5, 0.5],
            "patterns": {"kind": "explicit", "observed": [[1, 3], [2, 3, 4]]},
        },
        "grid": {"n": [60, 120]},
        "methods": ["plugin_debias", "plugin_cw"],
        "mc": {"n_test": 300},
        "seeds": {"root": 9, "replicates": 2},
        "output": {"prefix": "sweeptest"},
    }
    cfg.update(over)
    return cfg


def _pipelined_config():
    """One local_vs_federated item whose training sample spans three covariate
    blocks, so ``--threads 2`` transforms blocks on pool threads."""
    return {
        "scenario": "local_vs_federated",
        "population": {
            "d": 16,
            "sigma": {"kind": "toeplitz", "decay": 0.5},
            "theta_star": {"kind": "ones", "scale": 0.6},
            "noise": {"kind": "uniform", "halfwidth": 1.0},
            "design": "sphere",
        },
        "clients": {"k": 4, "rho": "uniform", "patterns": {"kind": "bernoulli", "tau": 0.7}},
        "grid": {"n": [3 * block_rows(16) + 5], "lam": [0.5]},
        "methods": ["local", "itr_zero", "plugin_cw", "itr_ice"],
        "mc": {"n_test": 2000},
        "seeds": {"root": 4, "replicates": 1},
        "output": {"prefix": "pipelined"},
    }


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _probe(preset, *edits):
    """A shipped preset with each (dotted field, value) edit applied."""
    from fedmismatch.cli import _preset_paths

    (path,) = [p for p in _preset_paths() if p.name == preset]
    cfg = json.loads(path.read_text(encoding="utf-8"))
    for field, value in edits:
        *parents, key = field.split(".")
        node = cfg
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    return cfg


# Configs that name a method, parameter or pattern their scenario cannot run,
# as (preset, edits, field the report must name). All but the last two passed
# validation and then aborted the run; the second to last ran and ignored its
# methods, and the last ran on the default ice_rounds.
SCENARIO_PROBES = {
    "new_client_itr_method": ("new_client.json", [("methods", ["itr_zero"])], "methods"),
    "comm_audit_plugin_method": ("comm_audit.json", [("methods", ["plugin_cw"])], "methods"),
    "ice_rounds_string": (
        "local_vs_federated.json",
        [("methods", ["itr_ice"]), ("scenario_params.ice_rounds", "two")],
        "scenario_params.ice_rounds",
    ),
    "fedavg_rounds_negative": (
        "local_vs_federated.json",
        [("methods", ["fedavg"]), ("scenario_params.rounds", -1)],
        "scenario_params.rounds",
    ),
    "fedavg_local_steps_zero": (
        "local_vs_federated.json",
        [("methods", ["fedavg"]), ("scenario_params.local_steps", 0)],
        "scenario_params.local_steps",
    ),
    "comm_audit_ice_rounds_negative": (
        "comm_audit.json", [("scenario_params.ice_rounds", -1)], "scenario_params.ice_rounds"
    ),
    "comm_audit_rounds_null": ("comm_audit.json", [("scenario_params.rounds", None)], "scenario_params.rounds"),
    "new_pattern_pair_never_observed": (
        "new_client.json",
        [("clients.patterns.observed", [[1, 2], [2, 3, 5], [1, 3, 4, 5]]), ("scenario_params.new_pattern", [2, 4])],
        "scenario_params.new_pattern",
    ),
    "typical_case_tiny_tau": ("typical_case.json", [("grid.tau", [1e-300])], "grid.tau"),
    "typical_case_foreign_methods": ("typical_case.json", [("methods", ["local", "fedavg"])], "methods"),
    "ice_rounds_misspelled": (
        "local_vs_federated.json",
        [("methods", ["itr_ice"]), ("scenario_params.ice_round", 2)],
        "scenario_params.ice_round",
    ),
}

# Output prefixes that are paths, not file names. The first validated, ran
# the whole sweep and then failed to write its results; the second wrote all
# three files outside --out.
PREFIX_PROBES = {
    "prefix_with_subdir": ("typical_case.json", [("output.prefix", "sub/dir/x")], "output.prefix"),
    "prefix_escapes_out": ("typical_case.json", [("output.prefix", "../escaped")], "output.prefix"),
}
ABORTING_PROBES = {
    name: probe for name, probe in {**SCENARIO_PROBES, **PREFIX_PROBES}.items()
    if name != "typical_case_foreign_methods"
}

# Malformed JSON values: the first ten made validation raise (the ninth and
# tenth from numpy and from 1.0 / k), the next four passed a bool or a
# truncated float as an integer, the next three validated, then made the
# run fail converting n or n_test, or run on past a minute, the next two
# were also reported as a missing axis, the next validated, then made the
# run fail stratifying fewer test draws than clients, the next two validated
# and ran on the defaults of a misspelled key, the next validated and ran
# on the average of a non-symmetric sigma and its transpose, the next six
# validated and ignored a key of a kind-dependent object (misspelled, or read
# only by another kind), and the last two validated and wrote repeated rows.
# Each must be reported exactly once.
FIELD_PROBES = {
    "patterns_not_object": ("consistency_sweep.json", [("clients.patterns", "x")], "clients.patterns"),
    "noise_not_object": ("consistency_sweep.json", [("population.noise", "gauss")], "population.noise"),
    "sigma_not_object": ("consistency_sweep.json", [("population.sigma", "identity")], "population.sigma"),
    "theta_not_object": ("consistency_sweep.json", [("population.theta_star", 3)], "population.theta_star"),
    "sigma_rho_string": ("new_client.json", [("population.sigma.rho", "a")], "population.sigma.rho"),
    "pattern_tau_string": ("local_vs_federated.json", [("clients.patterns.tau", "a")], "clients.patterns.tau"),
    "rho_strings": ("consistency_sweep.json", [("clients.rho", ["a", "b"])], "clients.rho"),
    "sigma_rows_string": (
        "typical_case.json",
        [("population.d", 2), ("population.sigma", {"kind": "explicit", "rows": [[1, "a"], [0, 1]]})],
        "population.sigma.rows",
    ),
    "d_beyond_cap": ("consistency_sweep.json", [("population.d", 10**400)], "population.d"),
    "k_beyond_cap": ("consistency_sweep.json", [("clients.k", 10**400)], "clients.k"),
    "grid_n_fraction": ("consistency_sweep.json", [("grid.n", [1.5, 200])], "grid.n"),
    "grid_n_bool": ("consistency_sweep.json", [("grid.n", [True])], "grid.n"),
    "replicates_bool": ("consistency_sweep.json", [("seeds.replicates", True)], "seeds.replicates"),
    "k_bool": ("consistency_sweep.json", [("clients.k", True)], "clients.k"),
    "grid_n_beyond_cells": ("consistency_sweep.json", [("grid.n", [10**400])], "grid.n"),
    "n_test_beyond_cells": ("consistency_sweep.json", [("mc.n_test", 10**400)], "mc.n_test"),
    "replicates_beyond_cap": ("consistency_sweep.json", [("seeds.replicates", 10**400)], "seeds.replicates"),
    "grid_n_only_entry_beyond_cells": ("consistency_sweep.json", [("grid.n", [10**9])], "grid.n"),
    "grid_n_empty": ("consistency_sweep.json", [("grid.n", [])], "grid.n"),
    "n_test_below_k": (
        "local_vs_federated.json",
        [("clients.k", 50), ("methods", ["local", "itr_zero", "itr_cw", "plugin_cw", "itr_ice", "fedavg"]),
         ("mc.n_test", 20)],
        "mc.n_test",
    ),
    "mc_key_misspelled": ("consistency_sweep.json", [("mc.ntest", 500)], "mc.ntest"),
    "grid_key_misspelled": ("consistency_sweep.json", [("grid.lamda", [0.1])], "grid.lamda"),
    "sigma_rows_not_symmetric": (
        "typical_case.json",
        [("population.d", 2), ("population.sigma", {"kind": "explicit", "rows": [[1, 0.9], [0, 1]]})],
        "population.sigma.rows",
    ),
    "noise_key_misspelled": ("consistency_sweep.json", [("population.noise.sigma_2", 2)], "population.noise.sigma_2"),
    "halfwidth_with_gaussian_noise": (
        "consistency_sweep.json", [("population.noise.halfwidth", 2.0)], "population.noise.halfwidth"
    ),
    "rho_with_toeplitz_sigma": ("consistency_sweep.json", [("population.sigma.rho", 0.3)], "population.sigma.rho"),
    "values_with_ones_theta": (
        "local_vs_federated.json", [("population.theta_star.values", [1] * 8)], "population.theta_star.values"
    ),
    "tau_with_explicit_patterns": ("consistency_sweep.json", [("clients.patterns.tau", 0.5)], "clients.patterns.tau"),
    "observed_with_bernoulli_patterns": (
        "local_vs_federated.json", [("clients.patterns.observed", [[1]] * 6)], "clients.patterns.observed"
    ),
    "method_listed_twice": ("consistency_sweep.json", [("methods", ["plugin_cw", "plugin_cw"])], "methods"),
    "grid_n_listed_twice": ("consistency_sweep.json", [("grid.n", [200, 200])], "grid.n"),
}
ALL_PROBES = {**SCENARIO_PROBES, **FIELD_PROBES, **PREFIX_PROBES}

# Small JSON values; integers stay small so no mutated size allocates much.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "rho", "rows", "values", "observed", "tau"]), inner, max_size=3),
    max_leaves=10,
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


class TestValidate:
    def test_good_config_is_clean(self):
        assert validate_config(_sweep_config()) == []

    def test_bad_share_sum_names_the_field(self):
        cfg = _sweep_config()
        cfg["clients"] = dict(cfg["clients"], rho=[0.3, 0.3, 0.3], k=3)
        cfg["clients"]["patterns"] = {"kind": "explicit", "observed": [[1, 3], [2, 3, 4], [1]]}
        problems = validate_config(cfg)
        assert any(p.startswith("clients.rho:") and "not 1 within 1e-12" in p for p in problems)

    def test_zero_tau_names_the_field(self):
        cfg = _sweep_config()
        cfg["clients"] = {"k": 2, "rho": [0.5, 0.5], "patterns": {"kind": "bernoulli", "tau": 0.0}}
        problems = validate_config(cfg)
        assert any(p.startswith("clients.patterns.tau:") and "(0, 1]" in p for p in problems)

    def test_missing_population(self):
        cfg = _sweep_config()
        del cfg["population"]
        assert any(p.startswith("population:") for p in validate_config(cfg))

    def test_unknown_scenario_and_method(self):
        cfg = _sweep_config(scenario="grand_tour")
        assert any(p.startswith("scenario:") for p in validate_config(cfg))
        cfg = _sweep_config(methods=["plugin_debias", "mystery"])
        assert any("unknown method 'mystery'" in p for p in validate_config(cfg))

    def test_empty_methods_list(self):
        cfg = _sweep_config(methods=[])
        assert any(p.startswith("methods:") for p in validate_config(cfg))

    def test_typical_case_requirements(self):
        cfg = _sweep_config(scenario="typical_case_sweep")
        problems = validate_config(cfg)
        assert any("grid.tau" in p for p in problems)
        assert any("grid.lam" in p for p in problems)
        assert any("bernoulli" in p for p in problems)
        # Toeplitz with decay 0.4 has unit diagonal, so no diagonal gripe;
        # an explicit non-unit diagonal must be flagged.
        cfg = _sweep_config(scenario="typical_case_sweep")
        cfg["population"]["sigma"] = {"kind": "explicit", "rows": [[2.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        cfg["clients"]["patterns"] = {"kind": "bernoulli", "tau": 0.5}
        cfg["grid"] = {"tau": [0.5], "lam": [0.1]}
        cfg["methods"] = ["typical_zero_bias"]
        assert any("unit diagonal" in p for p in validate_config(cfg))

    def test_new_client_needs_pattern(self):
        cfg = _sweep_config(scenario="new_client_generalization", methods=["plugin_cw"])
        assert any("scenario_params.new_pattern" in p for p in validate_config(cfg))

    def test_tau_grid_needs_bernoulli(self):
        cfg = _sweep_config()
        cfg["grid"] = {"n": [50], "tau": [0.5]}
        assert any("grid.tau" in p and "bernoulli" in p for p in validate_config(cfg))

    def test_parse_config_raises_with_problem_list(self):
        cfg = _sweep_config(methods=[])
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.problems

    @pytest.mark.parametrize("name", sorted(ALL_PROBES))
    def test_probe_names_its_field(self, name, tmp_path, capsys):
        preset, edits, field = ALL_PROBES[name]
        cfg = _probe(preset, *edits)
        assert any(p.startswith(f"{field}:") for p in validate_config(cfg)), validate_config(cfg)
        assert main(["validate", _write(tmp_path, cfg)]) == 1
        assert f"invalid: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(FIELD_PROBES))
    def test_field_probe_is_reported_once(self, name):
        preset, edits, field = FIELD_PROBES[name]
        problems = validate_config(_probe(preset, *edits))
        assert len([p for p in problems if p.startswith(f"{field}:")]) == 1, problems

    # Configs give pattern indices 1-based; each report names the index as
    # given, never the 0-based tuple the pattern stores.
    @pytest.mark.parametrize(
        ("preset", "field", "value", "path", "phrase", "zero_based"),
        [
            ("consistency_sweep.json", "clients.patterns.observed", [[1, 1], [2, 3, 4]],
             "clients.patterns.observed[0]", "index 1 listed twice", "(0, 0)"),
            ("consistency_sweep.json", "clients.patterns.observed", [[2, 9], [2, 3, 4]],
             "clients.patterns.observed[0]", "index 9 outside [1, 4]", "(1, 8)"),
            ("consistency_sweep.json", "clients.patterns.observed", [[0, 2], [2, 3, 4]],
             "clients.patterns.observed[0]", "index 0 outside [1, 4]", "(-1, 1)"),
            ("new_client.json", "scenario_params.new_pattern", [3, 3],
             "scenario_params.new_pattern", "index 3 listed twice", "(2, 2)"),
        ],
        ids=["duplicate", "beyond_d", "zero", "new_pattern_duplicate"],
    )
    def test_pattern_index_reported_one_based(self, preset, field, value, path, phrase, zero_based):
        problems = [p for p in validate_config(_probe(preset, (field, value))) if p.startswith(f"{path}:")]
        assert len(problems) == 1, problems
        assert phrase in problems[0] and zero_based not in problems[0], problems

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_preset_gets_a_report_not_an_exception(self, data):
        from fedmismatch.cli import _preset_paths

        preset = data.draw(st.sampled_from([p.name for p in _preset_paths()]))
        cfg = _probe(preset)
        *parents, key = data.draw(st.sampled_from([p for p in _paths(cfg) if p]))
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = data.draw(_JSON)
        if not validate_config(cfg):
            assert parse_config(cfg).scenario == cfg["scenario"]

    def test_all_presets_are_clean(self):
        from fedmismatch.cli import _preset_paths

        paths = _preset_paths()
        assert len(paths) >= 6
        for p in paths:
            raw = json.loads(p.read_text(encoding="utf-8"))
            assert validate_config(raw) == [], p.name

    def test_benchmark_configs_are_clean(self):
        # The largest, wide_features, asks for 200,000 x 64 cells.
        paths = sorted((Path(__file__).parent.parent / "perfbench" / "configs").glob("*.json"))
        assert len(paths) == 2
        for p in paths:
            assert validate_config(json.loads(p.read_text(encoding="utf-8"))) == [], p.name

    def test_unknown_key_waits_for_the_other_problems(self):
        # A parse that stops at population.d never reads the keys after it,
        # so none of them may be reported as unknown.
        cfg = _probe("consistency_sweep.json", ("mc.ntest", 500), ("population.d", 0))
        problems = validate_config(cfg)
        assert [p.split(":")[0] for p in problems] == ["population.d"], problems

    # A value listed three times is one problem; 0 and 0.0 are one value.
    @pytest.mark.parametrize(
        ("field", "values", "want"),
        [("methods", ["plugin_cw", "plugin_debias", "plugin_cw", "plugin_cw"], ["'plugin_cw'"]),
         ("grid.n", [200, 800, 200, 800], ["entry 200", "entry 800"]),
         ("grid.lam", [0, 0.0], ["entry 0.0"])],
    )
    def test_each_repeated_value_is_reported_once(self, field, values, want):
        problems = validate_config(_probe("bound_verification.json", (field, values)))
        assert problems == [f"{field}: {w} listed twice" for w in want]


class TestRunExperiment:
    def test_row_shape_and_order(self, tmp_path):
        results, timings = run_experiment(_sweep_config(), str(tmp_path))
        rows = _read_rows(results)
        # 2 replicates x 2 grid points x 2 methods, sorted by method first.
        assert len(rows) == 8
        assert [r["method"] for r in rows] == ["plugin_cw"] * 4 + ["plugin_debias"] * 4
        for r in rows:
            assert tuple(r) == RESULT_COLUMNS
            assert r["scenario"] == "consistency_sweep"
            assert r["d"] == "4"
            assert r["k"] == "2"
            assert r["tau"] == ""
            assert float(r["excess_risk"]) == pytest.approx(
                float(r["mc_risk"]) - float(r["oracle_risk"]), abs=1e-12
            )
        t_rows = _read_rows(timings)
        assert len(t_rows) == 4
        assert set(t_rows[0]) == {"grid_index", "replicate", "wall_ms"}

    def test_bitwise_deterministic_and_thread_invariant(self, tmp_path):
        cfg = _sweep_config()
        a, _ = run_experiment(cfg, str(tmp_path / "a"))
        b, _ = run_experiment(cfg, str(tmp_path / "b"))
        c, _ = run_experiment(cfg, str(tmp_path / "c"), threads=4)
        blob = Path(a).read_bytes()
        assert blob == Path(b).read_bytes()
        assert blob == Path(c).read_bytes()

    def test_thread_invariant_where_the_sampler_pipelines(self, tmp_path):
        cfg = _pipelined_config()
        one, _ = run_experiment(cfg, str(tmp_path / "one"), threads=1)
        two, _ = run_experiment(cfg, str(tmp_path / "two"), threads=2)
        assert len(_read_rows(one)) == 4
        assert Path(one).read_bytes() == Path(two).read_bytes()

    def test_failed_block_raises_and_leaves_nothing_running(self, tmp_path, monkeypatch, capsys):
        before = threading.active_count()
        running = fail_second_block(monkeypatch)
        with pytest.raises(RuntimeError, match="block transform failed"):
            run_experiment(_pipelined_config(), str(tmp_path / "a"), threads=2)
        assert not running
        assert threading.active_count() == before
        monkeypatch.undo()
        running = fail_second_block(monkeypatch)
        path = _write(tmp_path, _pipelined_config())
        assert main(["run", path, "--out", str(tmp_path / "b"), "--threads", "2"]) == 2
        assert capsys.readouterr().err == "error: block transform failed\n"
        assert not running
        assert threading.active_count() == before

    @pytest.mark.parametrize("preset", [p.name for p in _preset_paths()])
    def test_scale_law(self, preset, tmp_path):
        """Doubling theta_star's scale and the noise's (sigma2 x 4, or the
        uniform halfwidth x 2) doubles every response exactly, so every risk
        cell is exactly 4 times the original and every other cell, the comm
        counts included, is unchanged."""
        cfg = _probe(preset)
        theta, noise = cfg["population"].get("theta_star", {}), cfg["population"].get("noise", {})
        edits = [("population.theta_star.scale", 2 * theta.get("scale", 1.0))]
        if noise.get("kind", "gaussian") == "uniform":
            edits.append(("population.noise.halfwidth", 2 * noise.get("halfwidth", 1.0)))
        else:
            edits.append(("population.noise.sigma2", 4 * noise.get("sigma2", 1.0)))
        rows = _read_rows(run_experiment(cfg, str(tmp_path / "base"), seed=100)[0])
        scaled = _read_rows(run_experiment(_probe(preset, *edits), str(tmp_path / "scaled"), seed=100)[0])
        assert rows and len(scaled) == len(rows)
        risks = ("mc_risk", "mc_stderr", "oracle_risk", "bound_value", "excess_risk")
        for row, big in zip(rows, scaled):
            for col in RESULT_COLUMNS:
                if col in risks and row[col]:
                    assert float(big[col]) == 4 * float(row[col]), (row["method"], col)
                else:
                    assert big[col] == row[col], (row["method"], col)

    def test_seed_override_matches_inline_seed(self, tmp_path):
        cfg = _sweep_config()
        over, _ = run_experiment(cfg, str(tmp_path / "o"), seed=123)
        inline = _sweep_config(seeds={"root": 123, "replicates": 2})
        want, _ = run_experiment(inline, str(tmp_path / "w"))
        assert Path(over).read_bytes() == Path(want).read_bytes()
        base, _ = run_experiment(cfg, str(tmp_path / "z"))
        assert Path(over).read_bytes() != Path(base).read_bytes()

    def test_manifest_written(self, tmp_path):
        cfg = _sweep_config()
        results, _ = run_experiment(cfg, str(tmp_path), seed=5)
        manifest = json.loads((tmp_path / "sweeptest_manifest.json").read_text())
        assert manifest["scenario"] == "consistency_sweep"
        assert manifest["root_seed"] == 5
        assert manifest["config"]["grid"] == cfg["grid"]

    def test_manifest_names_the_numeric_environment(self, tmp_path, monkeypatch):
        # At large d the result bytes depend on numpy's BLAS build and its
        # thread count, so the manifest records both.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        run_experiment(_sweep_config(), str(tmp_path))
        numeric = json.loads((tmp_path / "sweeptest_manifest.json").read_text())["numeric"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert numeric == {"numpy": np.__version__, "blas": {"name": blas["name"], "version": blas["version"]},
                           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"}

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, tmp_path, threads):
        with pytest.raises(ValueError, match="threads"):
            run_experiment(_sweep_config(), str(tmp_path), threads=threads)

    def test_plugins_share_one_moments_run_per_item(self, tmp_path, monkeypatch):
        from fedmismatch import cli

        kinds = []

        def counting(spec, uploads):
            kinds.append(spec.kind)
            return run_protocol(spec, uploads)

        run_protocol = cli.run_protocol
        monkeypatch.setattr(cli, "run_protocol", counting)
        cfg = _sweep_config(grid={"n": [60]}, seeds={"root": 9, "replicates": 1})
        results, _ = run_experiment(cfg, str(tmp_path))
        assert [r["method"] for r in _read_rows(results)] == ["plugin_cw", "plugin_debias"]
        assert kinds == ["one_shot_moments"]

    def test_sample_is_freed_before_scoring_and_m_hat_read_once(self, tmp_path, monkeypatch):
        # No fit reads a row: a work item keeps the senders' sums, n and
        # m-hat, and drops its sample before the first fit, so the
        # sample is gone when the Monte-Carlo scoring runs. m-hat is read
        # once per item, whichever of the eight methods need it.
        from fedmismatch import cli, oracle

        samples, m_reads, alive = [], [], []
        sample, estimate, score = cli.sample_dataset, cli.estimate_m, oracle.monte_carlo_risk

        def sampling(*args, **kwargs):
            data = sample(*args, **kwargs)
            samples.append(weakref.ref(data))
            return data

        def estimating(data):
            m_reads.append(data.n)
            return estimate(data)

        def scoring(*args, **kwargs):
            alive.append(samples[-1]() is not None)
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_dataset", sampling)
        monkeypatch.setattr(cli, "estimate_m", estimating)
        monkeypatch.setattr(oracle, "monte_carlo_risk", scoring)
        methods = ["local", "itr_zero", "itr_opt", "itr_cw", "itr_ice", "fedavg", "plugin_debias", "plugin_cw"]
        cfg = _sweep_config(scenario="local_vs_federated", methods=methods, grid={"n": [60, 120, 240], "lam": [0.3]},
                            scenario_params={"rounds": 20})
        results, _ = run_experiment(cfg, str(tmp_path))
        assert len(_read_rows(results)) == 6 * len(methods)
        assert len(samples) == len(alive) == 6 and m_reads == [60, 120, 240] * 2
        assert alive == [False] * 6

    def test_m_hat_is_read_only_when_a_listed_method_clips(self, tmp_path, monkeypatch):
        # The plug-ins never clip, so a plug-in-only run reads no response
        # and writes the bytes it writes with m-hat read; a run that lists
        # a clipping method, such as local, still reads it.
        from fedmismatch import cli

        plugins = _sweep_config(grid={"n": [60]})
        want = Path(run_experiment(plugins, str(tmp_path / "read"))[0]).read_bytes()
        new_client = _probe("new_client.json")
        want_new = Path(run_experiment(new_client, str(tmp_path / "read"))[0]).read_bytes()
        reads = []

        def refusing(data):
            reads.append(data.n)
            raise RuntimeError("m-hat read")

        monkeypatch.setattr(cli, "estimate_m", refusing)
        assert Path(run_experiment(plugins, str(tmp_path / "unread"))[0]).read_bytes() == want
        assert Path(run_experiment(new_client, str(tmp_path / "unread"))[0]).read_bytes() == want_new
        assert reads == []
        local = _sweep_config(scenario="local_vs_federated", methods=["plugin_cw", "local"],
                              grid={"n": [60], "lam": [0.3]})
        with pytest.raises(RuntimeError, match="m-hat read"):
            run_experiment(local, str(tmp_path / "local"))
        assert reads == [60]

    def test_rows_do_not_depend_on_the_other_listed_methods(self, tmp_path):
        methods = ["local", "itr_zero", "itr_opt", "itr_cw", "itr_ice", "fedavg", "plugin_debias", "plugin_cw"]
        col = RESULT_COLUMNS.index("method")

        def lines_by_method(listed, name):
            cfg = _sweep_config(scenario="local_vs_federated", methods=listed,
                                grid={"n": [120], "lam": [0.3]}, scenario_params={"rounds": 20})
            results, _ = run_experiment(cfg, str(tmp_path / name))
            by_method = {}
            for line in Path(results).read_bytes().splitlines()[1:]:
                by_method.setdefault(line.split(b",")[col].decode(), []).append(line)
            return by_method

        full = lines_by_method(methods, "full")
        assert sorted(full) == sorted(methods)
        variants = {"reversed": methods[::-1], "first_dropped": methods[1:], "last_dropped": methods[:-1],
                    "two_kept": ["plugin_cw", "itr_zero"]}
        for name, listed in variants.items():
            got = lines_by_method(listed, name)
            assert sorted(got) == sorted(listed)
            for method, lines in got.items():
                assert lines == full[method], (name, method)

    def test_comm_audit_holds_registration_bits_to_the_schedule(self, tmp_path, monkeypatch):
        # One registration bit more in the replay than in the log fails the
        # audit, as a float total off by one does.
        from fedmismatch import cli

        real = cli.replay_comm_schedule

        def one_bit_more(spec, patterns):
            want = real(spec, patterns)
            return replace(want, registration_bits=want.registration_bits + 1)

        monkeypatch.setattr(cli, "replay_comm_schedule", one_bit_more)
        cfg = json.loads(Path(cli.__file__).with_name("presets").joinpath("comm_audit.json").read_text())
        with pytest.raises(RuntimeError, match="comm audit mismatch for one_shot_moments"):
            run_experiment(cfg, str(tmp_path))

    def test_comm_audit_replays_the_rounds_fedavg_ran(self, tmp_path, monkeypatch):
        # A FedAvg run that stops early, as a diverging one does, logs the
        # rounds it ran, and the audit holds the log to those: here one of
        # the preset's two rounds, so half its exchange.
        from fedmismatch import cli, fedsim, ridge

        cfg = json.loads(Path(cli.__file__).with_name("presets").joinpath("comm_audit.json").read_text())
        both, _ = run_experiment(cfg, str(tmp_path / "both"))

        def one_round(sent, imputer, lam, rounds, local_steps=1):
            return ridge.fedavg_ridge(sent, imputer, lam, min(rounds, 1), local_steps)

        monkeypatch.setattr(fedsim, "fedavg_ridge", one_round)
        one, _ = run_experiment(cfg, str(tmp_path / "one"))
        ups = [[int(r["comm_floats_up"]) for r in _read_rows(path) if r["method"] == "fedavg_ridge"]
               for path in (both, one)]
        assert ups[0] and ups[0] == [2 * up for up in ups[1]] and min(ups[1]) > 0

    def test_comm_audit_drops_its_sample_before_any_protocol(self, tmp_path, monkeypatch):
        # The audit keeps only the senders' uploads of each sample.
        from fedmismatch import cli

        samples, alive = [], []
        sample, run = cli.sample_dataset, cli.run_protocol

        def sampling(*args, **kwargs):
            data = sample(*args, **kwargs)
            samples.append(weakref.ref(data))
            return data

        def running(*args, **kwargs):
            alive.append(samples[-1]() is not None)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_dataset", sampling)
        monkeypatch.setattr(cli, "run_protocol", running)
        cfg = json.loads(Path(cli.__file__).with_name("presets").joinpath("comm_audit.json").read_text())
        run_experiment(cfg, str(tmp_path))
        assert samples and alive and not any(alive)

    def test_comm_audit_rows(self, tmp_path):
        cfg = {
            "scenario": "comm_audit",
            "population": {"d": 4},
            "clients": {
                "k": 3,
                "rho": "uniform",
                "patterns": {"kind": "explicit", "observed": [[1, 2], [2, 3, 4], [1, 4]]},
            },
            "grid": {"n": [64], "lam": [0.5]},
            "scenario_params": {"ice_rounds": 2, "rounds": 2},
            "seeds": {"root": 3},
            "output": {"prefix": "audit"},
        }
        results, _ = run_experiment(cfg, str(tmp_path))
        rows = {r["method"]: r for r in _read_rows(results)}
        # obs {1,2}, {2,3,4}, {1,4}: moment uploads (m+1)(m+2)/2 = 6, 10, 6
        # floats; ICE uploads tri(m) = 3, 6, 3 once, whatever the rounds. The
        # one-shot artifacts stay on the server. Each FedAvg round takes
        # m = 2, 3, 2 floats up and broadcasts theta's d = 4 floats down,
        # fewer than the 2 + 3 + 2 = 7 of the senders' phi_k.
        assert int(rows["one_shot_moments"]["comm_floats_up"]) == 6 + 10 + 6
        assert int(rows["one_shot_moments"]["comm_floats_down"]) == 0
        assert int(rows["one_shot_ridge"]["comm_floats_up"]) == 6 + 10 + 6
        assert int(rows["one_shot_ridge"]["comm_floats_down"]) == 0
        assert int(rows["federated_ice"]["comm_floats_up"]) == 3 + 6 + 3
        assert int(rows["federated_ice"]["comm_floats_down"]) == 0
        assert int(rows["fedavg_ridge"]["comm_floats_up"]) == 2 * (2 + 3 + 2)
        assert int(rows["fedavg_ridge"]["comm_floats_down"]) == 2 * 4
        for r in rows.values():
            assert r["mc_risk"] == ""

    def test_new_client_rows(self, tmp_path):
        cfg = {
            "scenario": "new_client_generalization",
            "population": {"d": 4, "sigma": {"kind": "equicorrelated", "rho": 0.3}},
            "clients": {
                "k": 2,
                "rho": [0.5, 0.5],
                "patterns": {"kind": "explicit", "observed": [[1, 3], [2, 3, 4]]},
            },
            "grid": {"n": [400]},
            "methods": ["plugin_cw"],
            "scenario_params": {"new_pattern": [3, 4]},
            "mc": {"n_test": 400},
            "seeds": {"root": 2},
            "output": {"prefix": "newclient"},
        }
        results, _ = run_experiment(cfg, str(tmp_path))
        rows = _read_rows(results)
        assert len(rows) == 1
        r = rows[0]
        assert float(r["excess_risk"]) == pytest.approx(
            float(r["mc_risk"]) - float(r["oracle_risk"]), abs=1e-12
        )
        # The probe is sent its |{3,4}| = 2 coefficients alone; the moment
        # uploads are (m+1)(m+2)/2 = 6 and 10 floats.
        assert (r["comm_floats_up"], r["comm_floats_down"]) == ("16", "2")

    def test_typical_case_rows(self, tmp_path):
        cfg = {
            "scenario": "typical_case_sweep",
            "population": {"d": 6, "sigma": {"kind": "equicorrelated", "rho": 0.2}},
            "clients": {"k": 3, "rho": "uniform", "patterns": {"kind": "bernoulli"}},
            "grid": {"tau": [0.5, 0.9], "lam": [0.2]},
            "seeds": {"root": 4, "replicates": 2},
            "output": {"prefix": "typical"},
        }
        results, _ = run_experiment(cfg, str(tmp_path))
        rows = _read_rows(results)
        assert len(rows) == 4
        for r in rows:
            assert r["method"] == "typical_zero_bias"
            assert r["mc_risk"] == ""
            assert float(r["oracle_risk"]) > 0
            assert float(r["bound_value"]) > 0
            assert r["tau"] in ("0.5", "0.90000000000000002")

    def test_typical_case_factors_the_population_once(self, tmp_path, monkeypatch):
        # One eigh of Sigma_I per work item (3 tau x 2 lambda) and one of
        # the population Sigma, at parse time, which the bound's ridge bias
        # reuses.
        from fedmismatch import cli

        calls, eigh = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        cfg = json.loads(Path(cli.__file__).with_name("presets").joinpath("typical_case.json").read_text())
        monkeypatch.setattr(np.linalg, "eigh", counting)
        run_experiment(cfg, str(tmp_path), seed=100)
        assert calls == [(10, 10)] * 7

    def test_plugin_sweep_item_evaluates_the_oracle_once(self, monkeypatch):
        # Both plug-ins report the one oracle value of the work item: one
        # closed form (one eigh) per distinct pattern, not one per method.
        from fedmismatch import cli, oracle

        observed = [[1, 3], [2, 3, 4], [1, 3], [1, 2, 3, 4], [2, 3, 4]]
        cfg = parse_config(_probe("consistency_sweep.json", ("clients.k", 5), ("clients.patterns.observed", observed)))
        assert cfg.methods == ("plugin_debias", "plugin_cw")
        clients = cli._build_clients(cfg, None, np.random.default_rng(0))
        calls, local_oracle = [], oracle._local_oracle

        def counting(pop, pattern):
            calls.append(pattern)
            return local_oracle(pop, pattern)

        monkeypatch.setattr(oracle, "_local_oracle", counting)
        data_ss, mc_ss = np.random.SeedSequence(7).spawn(2)
        item = cli._WorkItem(rep=0, gi=0, n=200, lam=0.0, tau=None)
        rows = cli._mc_rows(cfg, item, clients, data_ss, mc_ss)
        assert calls == list(dict.fromkeys(c.pattern for c in clients)) and len(calls) == 3
        monkeypatch.undo()
        want = oracle.oracle_global_risk(cfg.population, clients)
        assert [r["oracle_risk"] for r in rows] == [want, want]


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", _write(tmp_path, _sweep_config())])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_bad_config(self, tmp_path, capsys):
        rc = main(["validate", _write(tmp_path, _sweep_config(methods=[]))])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid:")

    def test_run_reports_paths(self, tmp_path, capsys):
        cfg = _sweep_config(grid={"n": [40]}, seeds={"root": 1, "replicates": 1})
        rc = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("sweeptest_results.csv")
        assert lines[1].endswith("sweeptest_timings.csv")
        assert os.path.exists(lines[0])

    def test_run_bad_config_exits_one(self, tmp_path, capsys):
        rc = main(["run", _write(tmp_path, _sweep_config(scenario="nope"))])
        assert rc == 1
        assert "invalid:" in capsys.readouterr().err

    def test_n_test_equal_to_k_runs_to_complete_csv(self, tmp_path):
        # The n_test_below_k probe with one test draw per client: it validates
        # and writes every work item x method row, each with a Monte-Carlo risk.
        _, edits, _ = FIELD_PROBES["n_test_below_k"]
        cfg = _probe("local_vs_federated.json", *edits[:-1], ("mc.n_test", 50))
        assert validate_config(cfg) == []
        assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
        rows = _read_rows(tmp_path / "out" / "local_vs_federated_results.csv")
        # 3 replicates x 2 n x 1 lambda x 6 methods.
        assert len(rows) == 36
        assert all(r["k"] == "50" and r["mc_risk"] for r in rows)

    @pytest.mark.parametrize("name", ABORTING_PROBES)
    def test_run_rejects_probe_before_running(self, name, tmp_path, capsys):
        preset, edits, field = ABORTING_PROBES[name]
        rc = main(["run", _write(tmp_path, _probe(preset, *edits)), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"invalid: {field}:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["validate", str(path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_integer_past_digit_limit_exits_one(self, tmp_path, capsys):
        # Python refuses to parse integer literals beyond 4300 digits.
        text = json.dumps(_sweep_config()).replace('"replicates": 2', '"replicates": 1' + "0" * 5000)
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("invalid: config is not valid JSON")

    def test_out_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("FEDMISMATCH_OUT", str(out))
        cfg = _sweep_config(grid={"n": [40]}, seeds={"root": 1, "replicates": 1})
        rc = main(["run", _write(tmp_path, cfg)])
        assert rc == 0
        capsys.readouterr()
        assert (out / "sweeptest_results.csv").exists()

    def test_seed_flag(self, tmp_path, capsys):
        cfg = _sweep_config(grid={"n": [40]}, seeds={"root": 1, "replicates": 1})
        path = _write(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "s7"), "--seed", "7"]) == 0
        assert main(["run", path, "--out", str(tmp_path / "s8"), "--seed", "7"]) == 0
        capsys.readouterr()
        a = (tmp_path / "s7" / "sweeptest_results.csv").read_bytes()
        assert a == (tmp_path / "s8" / "sweeptest_results.csv").read_bytes()

    def test_negative_seed_flag_exits_one_before_writing(self, tmp_path, capsys):
        path = _write(tmp_path, _sweep_config(grid={"n": [40]}))
        out = tmp_path / "neg"
        assert main(["run", path, "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.strip() == "invalid: --seed: need an integer >= 0, got -1"
        assert not out.exists()

    def test_zero_threads_flag_exits_one_before_writing(self, tmp_path, capsys):
        path = _write(tmp_path, _sweep_config(grid={"n": [40]}))
        out = tmp_path / "t0"
        assert main(["run", path, "--out", str(out), "--threads", "0"]) == 1
        assert capsys.readouterr().err.strip() == "invalid: --threads: need an integer >= 1, got 0"
        assert not out.exists()

    def test_fedavg_at_zero_lambda_with_nothing_observed(self, tmp_path, capsys):
        # sigma_hat = 0 and lambda = 0 leave FedAvg's objective constant, so
        # theta stays 0 for every round instead of the step size dividing by 0.
        # Senders that observe nothing exchange no coefficients in any round.
        cfg = {
            "scenario": "local_vs_federated",
            "population": {"d": 2},
            "clients": {"k": 2, "rho": "uniform", "patterns": {"kind": "explicit", "observed": [[], []]}},
            "grid": {"n": [40], "lam": [0.0]},
            "methods": ["fedavg"],
            "mc": {"n_test": 500},
            "seeds": {"root": 1},
            "output": {"prefix": "fedavg0"},
        }
        assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        [row] = _read_rows(tmp_path / "out" / "fedavg0_results.csv")
        assert row["method"] == "fedavg" and float(row["oracle_risk"]) == 3.0
        assert (row["comm_floats_up"], row["comm_floats_down"]) == ("0", "0")

    def test_presets_list(self, capsys):
        rc = main(["presets", "list"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) >= 6
        assert all("\t" in line for line in out)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = _sweep_config()
        raw = load_config(_write(tmp_path, cfg))
        assert raw == cfg

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))
