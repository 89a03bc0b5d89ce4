"""Config-driven experiment runner and command-line entry point.

Configs are JSON (see README for the schema). Commands:

    fedmismatch run <config.json> [--out DIR] [--seed N] [--threads N]
    fedmismatch validate <config.json>
    fedmismatch presets list

``run`` writes three files to the output directory (default: the
FEDMISMATCH_OUT environment variable, else the working directory):

* ``<prefix>_results.csv``: one row per (replicate, grid point, method),
  bitwise deterministic given the root seed. Floats are printed with 17
  significant digits; absent quantities are empty fields.
* ``<prefix>_timings.csv``: wall-clock milliseconds per work item. Timing
  is inherently nondeterministic, so it lives outside the results file.
* ``<prefix>_manifest.json``: the parsed config echoed back with the root
  seed actually used.

Every work item (replicate x grid point) derives its generators from
``SeedSequence(root_seed, spawn_key=(replicate, grid_index))`` and splits
them into pattern, data, and evaluation streams, so items are independent
and any thread count produces identical results. Rows are sorted before
writing. Exit codes: 0 success, 1 config validation failure, 2 runtime
error.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources

import numpy as np

from . import oracle
from .impute import ImputerKind, apply_imputer, fit_optimal_imputer, fit_zero_imputer
from .model import ClientSpec, ClientwisePredictor, FeaturePattern, MomentPair, validate_federation
from .moments import cw_moments, debias_moments
from .plugin import PluginConfig, build_clientwise_plugin
from .popgen import PopulationSpec, co_observation_matrix, draw_bernoulli_patterns, sample_dataset
from .ridge import estimate_m, itr_predictor, local_learning
from .fedsim import ProtocolResult, ProtocolSpec, replay_comm_schedule, run_protocol

__all__ = ["ConfigError", "load_config", "validate_config", "run_experiment", "main"]

SCENARIOS = (
    "consistency_sweep",
    "new_client_generalization",
    "bound_verification",
    "local_vs_federated",
    "typical_case_sweep",
    "comm_audit",
)

DEFAULT_METHODS = {
    "consistency_sweep": ("plugin_debias", "plugin_cw"),
    "new_client_generalization": ("plugin_cw",),
    "bound_verification": ("itr_zero", "itr_opt"),
    "local_vs_federated": ("local", "itr_zero"),
    "typical_case_sweep": ("typical_zero_bias",),
    "comm_audit": ("one_shot_moments", "one_shot_ridge", "federated_ice", "fedavg_ridge"),
}

RESULT_COLUMNS = (
    "scenario",
    "seed",
    "n",
    "d",
    "k",
    "tau",
    "lambda",
    "method",
    "mc_risk",
    "mc_stderr",
    "oracle_risk",
    "bound_value",
    "excess_risk",
    "comm_floats_up",
    "comm_floats_down",
)


class ConfigError(ValueError):
    """Invalid experiment config; ``problems`` lists field-level messages."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class FederationConfig:
    k: int
    rho: tuple[float, ...]
    pattern_kind: str  # "explicit" | "bernoulli"
    explicit: tuple[FeaturePattern, ...] = ()
    tau: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    population: PopulationSpec
    federation: FederationConfig
    methods: tuple[str, ...]
    grid_n: tuple[int, ...]
    grid_lam: tuple[float, ...]
    grid_tau: tuple[float, ...]
    n_test: int
    root_seed: int
    replicates: int
    prefix: str
    params: dict = field(default_factory=dict)


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    return raw


def _build_sigma(spec, d: int, problems: list[str]) -> np.ndarray:
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return np.eye(d)
    if kind == "equicorrelated":
        c = float(spec.get("rho", 0.0))
        if not (-1.0 / max(d - 1, 1) < c < 1.0):
            problems.append(f"population.sigma.rho: {c} gives a non-PSD matrix at d={d}")
            return np.eye(d)
        return (1 - c) * np.eye(d) + c * np.ones((d, d))
    if kind == "toeplitz":
        decay = float(spec.get("decay", 0.5))
        if not (0.0 <= abs(decay) < 1.0):
            problems.append(f"population.sigma.decay: need |decay| < 1, got {decay}")
            return np.eye(d)
        idx = np.arange(d)
        return decay ** np.abs(idx[:, None] - idx[None, :])
    if kind == "explicit":
        rows = spec.get("rows")
        arr = np.asarray(rows, dtype=np.float64) if rows is not None else None
        if arr is None or arr.shape != (d, d):
            problems.append(f"population.sigma.rows: need a {d}x{d} matrix")
            return np.eye(d)
        return arr
    problems.append(f"population.sigma.kind: unknown kind {kind!r}")
    return np.eye(d)


def _build_theta(spec, d: int, problems: list[str]) -> np.ndarray:
    kind = spec.get("kind", "ones")
    scale = float(spec.get("scale", 1.0))
    if kind == "ones":
        return scale * np.ones(d)
    if kind == "alternating":
        return scale * np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    if kind == "explicit":
        values = spec.get("values")
        arr = np.asarray(values, dtype=np.float64) if values is not None else None
        if arr is None or arr.shape != (d,):
            problems.append(f"population.theta_star.values: need length {d}")
            return np.ones(d)
        return scale * arr
    problems.append(f"population.theta_star.kind: unknown kind {kind!r}")
    return np.ones(d)


def _parse_population(raw: dict, problems: list[str]) -> PopulationSpec | None:
    pop = raw.get("population")
    if not isinstance(pop, dict):
        problems.append("population: required object missing")
        return None
    d = pop.get("d")
    if not isinstance(d, int) or d < 1:
        problems.append(f"population.d: need an integer >= 1, got {d!r}")
        return None
    sigma = _build_sigma(pop.get("sigma", {}), d, problems)
    theta = _build_theta(pop.get("theta_star", {}), d, problems)
    noise = pop.get("noise", {"kind": "gaussian", "sigma2": 1.0})
    design = pop.get("design", "gaussian")
    if design not in ("gaussian", "sphere"):
        problems.append(f"population.design: unknown design {design!r}")
        return None
    nkind = noise.get("kind", "gaussian")
    try:
        if nkind == "gaussian":
            sigma2 = float(noise.get("sigma2", 1.0))
            return PopulationSpec(d=d, sigma=sigma, theta_star=theta, sigma2=sigma2, design=design)
        if nkind == "uniform":
            a = float(noise.get("halfwidth", 1.0))
            if design == "sphere":
                return PopulationSpec.bounded(sigma, theta, noise_halfwidth=a)
            return PopulationSpec(
                d=d, sigma=sigma, theta_star=theta, sigma2=a * a / 3.0,
                noise="uniform", design=design, noise_halfwidth=a,
            )
        problems.append(f"population.noise.kind: unknown kind {nkind!r}")
    except ValueError as exc:
        problems.append(f"population: {exc}")
    return None


def _parse_federation(raw: dict, d: int | None, problems: list[str]) -> FederationConfig | None:
    fed = raw.get("clients")
    if not isinstance(fed, dict):
        problems.append("clients: required object missing")
        return None
    k = fed.get("k")
    if not isinstance(k, int) or k < 1:
        problems.append(f"clients.k: need an integer >= 1, got {k!r}")
        return None
    rho_spec = fed.get("rho", "uniform")
    if rho_spec == "uniform":
        rho = tuple(1.0 / k for _ in range(k))
    else:
        rho = tuple(float(r) for r in rho_spec) if isinstance(rho_spec, list) else ()
        if len(rho) != k:
            problems.append(f"clients.rho: need {k} entries or 'uniform'")
            return None
        if any(not (0.0 < r <= 1.0) for r in rho):
            problems.append("clients.rho: every share must lie in (0, 1]")
            return None
        if abs(sum(rho) - 1.0) > 1e-12:
            problems.append(f"clients.rho: shares sum to {sum(rho)!r}, not 1 within 1e-12")
            return None
    pat = fed.get("patterns", {})
    kind = pat.get("kind")
    if kind == "explicit":
        if d is None:
            return None
        obs_lists = pat.get("observed")
        if not isinstance(obs_lists, list) or len(obs_lists) != k:
            problems.append(f"clients.patterns.observed: need {k} index lists")
            return None
        pats = []
        for i, obs in enumerate(obs_lists):
            try:
                pats.append(FeaturePattern.from_one_based(obs, d))
            except ValueError as exc:
                problems.append(f"clients.patterns.observed[{i}]: {exc}")
        if len(pats) != k:
            return None
        return FederationConfig(k=k, rho=rho, pattern_kind="explicit", explicit=tuple(pats))
    if kind == "bernoulli":
        tau = pat.get("tau")
        if tau is not None and not (0.0 < float(tau) <= 1.0):
            problems.append(f"clients.patterns.tau: must lie in (0, 1], got {tau}")
            return None
        return FederationConfig(k=k, rho=rho, pattern_kind="bernoulli", tau=None if tau is None else float(tau))
    problems.append(f"clients.patterns.kind: need 'explicit' or 'bernoulli', got {kind!r}")
    return None


def _parse_config(raw: dict) -> tuple[ExperimentConfig | None, list[str]]:
    problems: list[str] = []
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        problems.append(f"scenario: need one of {SCENARIOS}, got {scenario!r}")
        scenario = None
    pop = _parse_population(raw, problems)
    fed = _parse_federation(raw, pop.d if pop else None, problems)
    grid = raw.get("grid", {})
    if not isinstance(grid, dict):
        problems.append("grid: must be an object")
        grid = {}

    def _num_list(key, caster, lo=None):
        vals = grid.get(key)
        if vals is None:
            return ()
        if not isinstance(vals, list) or not vals:
            problems.append(f"grid.{key}: must be a non-empty list")
            return ()
        out = []
        for v in vals:
            try:
                c = caster(v)
            except (TypeError, ValueError):
                problems.append(f"grid.{key}: bad entry {v!r}")
                continue
            if lo is not None and c < lo:
                problems.append(f"grid.{key}: entry {v!r} below {lo}")
                continue
            out.append(c)
        return tuple(out)

    grid_n = _num_list("n", int, 1)
    grid_lam = _num_list("lam", float, 0.0)
    grid_tau = _num_list("tau", float)
    for t in grid_tau:
        if not (0.0 < t <= 1.0):
            problems.append(f"grid.tau: entry {t} outside (0, 1]")

    methods_raw = raw.get("methods")
    if methods_raw is None and scenario is not None:
        methods = DEFAULT_METHODS[scenario]
    elif isinstance(methods_raw, list) and methods_raw:
        methods = tuple(str(m) for m in methods_raw)
    else:
        problems.append("methods: must be a non-empty list when given")
        methods = ()
    if scenario not in ("typical_case_sweep", "comm_audit"):
        for m in methods:
            if m not in METHODS:
                problems.append(f"methods: unknown method {m!r}")

    mc = raw.get("mc", {})
    n_test = mc.get("n_test", 10_000) if isinstance(mc, dict) else 10_000
    if not isinstance(n_test, int) or n_test < 2:
        problems.append(f"mc.n_test: need an integer >= 2, got {n_test!r}")
        n_test = 2

    seeds = raw.get("seeds", {})
    root = seeds.get("root", 0) if isinstance(seeds, dict) else 0
    reps = seeds.get("replicates", 1) if isinstance(seeds, dict) else 1
    if not isinstance(root, int) or root < 0:
        problems.append(f"seeds.root: need an integer >= 0, got {root!r}")
        root = 0
    if not isinstance(reps, int) or reps < 1:
        problems.append(f"seeds.replicates: need an integer >= 1, got {reps!r}")
        reps = 1

    output = raw.get("output", {})
    prefix = output.get("prefix", "experiment") if isinstance(output, dict) else "experiment"
    if not isinstance(prefix, str) or not prefix:
        problems.append("output.prefix: must be a non-empty string")
        prefix = "experiment"

    params = raw.get("scenario_params", {})
    if not isinstance(params, dict):
        problems.append("scenario_params: must be an object")
        params = {}

    # Scenario-level requirements.
    if scenario in ("consistency_sweep", "new_client_generalization", "bound_verification", "local_vs_federated"):
        if not grid_n:
            problems.append(f"grid.n: required for scenario {scenario}")
    if scenario in ("bound_verification", "local_vs_federated") and not grid_lam:
        problems.append(f"grid.lam: required for scenario {scenario}")
    if scenario == "typical_case_sweep":
        if not grid_tau:
            problems.append("grid.tau: required for scenario typical_case_sweep")
        if not grid_lam:
            problems.append("grid.lam: required for scenario typical_case_sweep")
        if fed and fed.pattern_kind != "bernoulli":
            problems.append("clients.patterns: typical_case_sweep needs bernoulli patterns")
        if pop is not None and np.max(np.abs(np.diag(pop.sigma) - 1.0)) > 1e-12:
            problems.append("population.sigma: typical_case_sweep needs unit diagonal")
    if scenario == "new_client_generalization":
        new_pat = params.get("new_pattern")
        if not isinstance(new_pat, list) or not new_pat:
            problems.append("scenario_params.new_pattern: required 1-based index list")
        elif pop is not None:
            try:
                FeaturePattern.from_one_based(new_pat, pop.d)
            except ValueError as exc:
                problems.append(f"scenario_params.new_pattern: {exc}")
    if fed is not None and grid_tau and fed.pattern_kind != "bernoulli":
        problems.append("grid.tau: only meaningful with bernoulli patterns")
    if fed is not None and fed.pattern_kind == "bernoulli" and not grid_tau and fed.tau is None:
        problems.append("clients.patterns.tau: required when grid.tau is absent")

    if problems or scenario is None or pop is None or fed is None:
        return None, problems
    cfg = ExperimentConfig(
        scenario=scenario,
        population=pop,
        federation=fed,
        methods=methods,
        grid_n=grid_n,
        grid_lam=grid_lam or (0.0,),
        grid_tau=grid_tau,
        n_test=n_test,
        root_seed=root,
        replicates=reps,
        prefix=prefix,
        params=params,
    )
    return cfg, []


def validate_config(raw: dict) -> list[str]:
    """Field-level problem report; empty means the config is runnable."""
    _, problems = _parse_config(raw)
    return problems


def parse_config(raw: dict) -> ExperimentConfig:
    cfg, problems = _parse_config(raw)
    if problems:
        raise ConfigError(problems)
    return cfg


def _build_clients(cfg: ExperimentConfig, tau: float | None, rng: np.random.Generator) -> tuple[ClientSpec, ...]:
    fed = cfg.federation
    if fed.pattern_kind == "explicit":
        pats = fed.explicit
    else:
        t = tau if tau is not None else fed.tau
        pats = draw_bernoulli_patterns(fed.k, cfg.population.d, t, rng)
    clients = tuple(
        ClientSpec(id=i + 1, pattern=p, rho=r) for i, (p, r) in enumerate(zip(pats, fed.rho))
    )
    return validate_federation(clients)


@dataclass(frozen=True)
class _Fit:
    """One method's predictor plus the values reported next to its risk."""

    predictor: ClientwisePredictor
    oracle_risk: float
    bound_value: float | None = None
    protocols: tuple[ProtocolResult, ...] = ()


def _comm_columns(protocols) -> dict:
    return {
        "comm_floats_up": sum(r.comm.total_floats("up") for r in protocols),
        "comm_floats_down": sum(r.comm.total_floats("down") for r in protocols),
    }


def _one_shot_moments(data) -> ProtocolResult:
    return run_protocol(ProtocolSpec(kind="one_shot_moments"), data)


def _debiased(art, clients) -> MomentPair:
    return debias_moments(art.pair, co_observation_matrix(clients))


def _componentwise(art, clients) -> MomentPair:
    return cw_moments(art.pair, art.counts)


# Moment-pair estimator behind each plug-in method.
_PLUGIN_PAIRS = {"plugin_debias": _debiased, "plugin_cw": _componentwise}


def _fit_plugin(pair_of, pop, clients, data, lam, params) -> _Fit:
    moments = _one_shot_moments(data)
    predictor = build_clientwise_plugin(pair_of(moments.artifact, clients), clients, PluginConfig())
    return _Fit(predictor, oracle.oracle_global_risk(pop, clients), protocols=(moments,))


def _itr(imputer, completed, pop, clients, data, lam, bound_kind=None, protocols=()) -> _Fit:
    """Closed-form ridge on completed data, folded back through the imputer."""
    ridge = run_protocol(ProtocolSpec(kind="one_shot_ridge", lam=lam), completed)
    m_hat = estimate_m(data)
    predictor = itr_predictor(imputer, ridge.artifact, trunc_m=m_hat)
    protocols = protocols + (ridge,)
    if bound_kind is None:
        return _Fit(predictor, oracle.oracle_global_risk(pop, clients), protocols=protocols)
    report = oracle.itr_bound(pop, clients, bound_kind, lam, data.n, m_hat)
    return _Fit(predictor, report.r_star_reference, report.bound_value, protocols)


def _fit_itr_zero(pop, clients, data, lam, params) -> _Fit:
    imputer = fit_zero_imputer(clients)
    return _itr(imputer, apply_imputer(imputer, data), pop, clients, data, lam, ImputerKind.ZERO)


def _fit_itr_opt(pop, clients, data, lam, params) -> _Fit:
    imputer = fit_optimal_imputer(pop.sigma, clients, source="population")
    return _itr(imputer, apply_imputer(imputer, data), pop, clients, data, lam, ImputerKind.OPTIMAL_LINEAR)


def _fit_itr_cw(pop, clients, data, lam, params) -> _Fit:
    moments = _one_shot_moments(data)
    imputer = fit_optimal_imputer(_componentwise(moments.artifact, clients).sigma, clients, source="cw")
    return _itr(imputer, apply_imputer(imputer, data), pop, clients, data, lam, protocols=(moments,))


def _fit_itr_ice(pop, clients, data, lam, params) -> _Fit:
    ice = run_protocol(ProtocolSpec(kind="federated_ice", ice_rounds=int(params.get("ice_rounds", 3))), data)
    return _itr(ice.artifact.imputer, ice.artifact, pop, clients, data, lam, protocols=(ice,))


def _fit_fedavg(pop, clients, data, lam, params) -> _Fit:
    imputer = fit_zero_imputer(clients)
    spec = ProtocolSpec(
        kind="fedavg_ridge",
        lam=lam,
        rounds=int(params.get("rounds", 200)),
        local_steps=int(params.get("local_steps", 1)),
    )
    res = run_protocol(spec, apply_imputer(imputer, data))
    predictor = itr_predictor(imputer, res.artifact, trunc_m=estimate_m(data))
    ip = oracle.imputed_population_covariance(pop, clients, ImputerKind.ZERO)
    return _Fit(predictor, oracle.imputed_oracle_risk(pop, ip), protocols=(res,))


def _fit_local(pop, clients, data, lam, params) -> _Fit:
    predictor = local_learning(data, lam, trunc_m=estimate_m(data))
    bound = None
    if pop.m_bound is not None:
        bound = oracle.local_bound_terms(pop, clients, lam, data.n, pop.m_bound).upper_bound
    return _Fit(predictor, oracle.oracle_global_risk(pop, clients), bound)


# Every predictor-producing method, in the order configs list them.
_METHOD_FITS = {
    "plugin_debias": partial(_fit_plugin, _debiased),
    "plugin_cw": partial(_fit_plugin, _componentwise),
    "itr_zero": _fit_itr_zero,
    "itr_opt": _fit_itr_opt,
    "itr_cw": _fit_itr_cw,
    "itr_ice": _fit_itr_ice,
    "local": _fit_local,
    "fedavg": _fit_fedavg,
}
METHODS = tuple(_METHOD_FITS)


def _run_method(method, pop, clients, data, lam, n_test, mc_rng, params) -> dict:
    fit = _METHOD_FITS[method](pop, clients, data, lam, params)
    mc = oracle.monte_carlo_risk(fit.predictor, pop, clients, n_test, mc_rng)
    return {"method": method, "mc_risk": mc.risk, "mc_stderr": mc.stderr,
            "oracle_risk": fit.oracle_risk, "bound_value": fit.bound_value,
            "excess_risk": mc.risk - fit.oracle_risk, **_comm_columns(fit.protocols)}


@dataclass(frozen=True)
class _WorkItem:
    rep: int
    gi: int
    n: int | None
    lam: float
    tau: float | None


def _grid_points(cfg: ExperimentConfig) -> list[tuple[int | None, float, float | None]]:
    taus = cfg.grid_tau if cfg.grid_tau else (None,)
    ns = cfg.grid_n if cfg.grid_n else (None,)
    return [(n, lam, tau) for tau in taus for n in ns for lam in cfg.grid_lam]


def _run_item(cfg: ExperimentConfig, item: _WorkItem) -> list[dict]:
    ss = np.random.SeedSequence(cfg.root_seed, spawn_key=(item.rep, item.gi))
    pat_ss, data_ss, mc_root = ss.spawn(3)
    pop = cfg.population
    clients = _build_clients(cfg, item.tau, np.random.default_rng(pat_ss))
    base = {
        "scenario": cfg.scenario,
        "seed": item.rep,
        "n": item.n,
        "d": pop.d,
        "k": cfg.federation.k,
        "tau": item.tau if cfg.federation.pattern_kind == "bernoulli" else None,
        "lambda": item.lam,
    }
    rows: list[dict] = []

    if cfg.scenario == "typical_case_sweep":
        ip = oracle.imputed_population_covariance(pop, clients, ImputerKind.ZERO)
        lhs = oracle.imputed_oracle_risk(pop, ip) + oracle.ridge_bias(ip.sigma, ip.theta_prime, item.lam)
        tau = item.tau if item.tau is not None else cfg.federation.tau
        lam_prime = oracle.typical_case_lambda_prime(item.lam, tau)
        rhs = pop.sigma2 + oracle.ridge_bias(pop.sigma, pop.theta_star, lam_prime)
        rows.append({**base, "method": "typical_zero_bias", "oracle_risk": lhs, "bound_value": rhs,
                     "comm_floats_up": 0, "comm_floats_down": 0})
        return rows

    if cfg.scenario == "comm_audit":
        n = item.n if item.n is not None else 32
        data = sample_dataset(pop, clients, n, np.random.default_rng(data_ss))
        ice_rounds = int(cfg.params.get("ice_rounds", 3))
        rounds = int(cfg.params.get("rounds", 5))
        completed = apply_imputer(fit_zero_imputer(clients), data)
        nonempty = len(completed.shard_rows)
        for kind in cfg.methods:
            spec = ProtocolSpec(
                kind=kind,
                lam=item.lam,
                ice_rounds=ice_rounds if kind == "federated_ice" else 0,
                rounds=rounds if kind == "fedavg_ridge" else 0,
            )
            payload = data if kind in ("one_shot_moments", "federated_ice") else completed
            res = run_protocol(spec, payload)
            k_for_replay = len(clients) if kind in ("one_shot_moments", "federated_ice") else nonempty
            predicted = replay_comm_schedule(spec, k_for_replay, pop.d)
            got_up = res.comm.total_floats("up")
            got_down = res.comm.total_floats("down")
            if (got_up, got_down) != (predicted.up_floats, predicted.down_floats):
                raise RuntimeError(
                    f"comm audit mismatch for {kind}: logged ({got_up}, {got_down}), "
                    f"predicted ({predicted.up_floats}, {predicted.down_floats})"
                )
            rows.append({**base, "n": n, "method": kind,
                         "comm_floats_up": got_up, "comm_floats_down": got_down})
        return rows

    data = sample_dataset(pop, clients, item.n, np.random.default_rng(data_ss))
    mc_streams = mc_root.spawn(len(cfg.methods))

    if cfg.scenario == "new_client_generalization":
        new_pattern = FeaturePattern.from_one_based(cfg.params["new_pattern"], pop.d)
        probe = (ClientSpec(id=max(c.id for c in clients) + 1, pattern=new_pattern, rho=1.0),)
        moments = _one_shot_moments(data)
        o = oracle.oracle_local_risk(pop, new_pattern)
        for method, mss in zip(cfg.methods, mc_streams):
            if method not in _PLUGIN_PAIRS:
                raise ValueError(f"method {method!r} not usable for new-client evaluation")
            pair = _PLUGIN_PAIRS[method](moments.artifact, clients)
            predictor = build_clientwise_plugin(pair, probe, PluginConfig())
            if probe[0].id in predictor.unidentifiable:
                raise RuntimeError("new pattern touches unidentified moment entries")
            mc = oracle.monte_carlo_risk(predictor, pop, probe, cfg.n_test, np.random.default_rng(mss))
            rows.append({**base, "method": method, "mc_risk": mc.risk, "mc_stderr": mc.stderr,
                         "oracle_risk": o, "excess_risk": mc.risk - o, **_comm_columns((moments,))})
        return rows

    for method, mss in zip(cfg.methods, mc_streams):
        rows.append({**base, **_run_method(method, pop, clients, data, item.lam, cfg.n_test,
                                           np.random.default_rng(mss), cfg.params)})
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def run_experiment(
    raw: dict,
    out_dir: str,
    seed: int | None = None,
    threads: int = 1,
) -> tuple[str, str]:
    """Run one experiment config; returns (results_path, timings_path)."""
    cfg = parse_config(raw)
    if seed is not None:
        cfg = replace(cfg, root_seed=int(seed))
    os.makedirs(out_dir, exist_ok=True)
    points = _grid_points(cfg)
    items = [
        _WorkItem(rep=rep, gi=gi, n=n, lam=lam, tau=tau)
        for rep in range(cfg.replicates)
        for gi, (n, lam, tau) in enumerate(points)
    ]

    def worker(item: _WorkItem):
        t0 = time.perf_counter()
        rows = _run_item(cfg, item)
        return item, rows, (time.perf_counter() - t0) * 1000.0

    results = []
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, items))
    else:
        results = [worker(item) for item in items]

    keyed_rows = []
    timings = []
    for item, rows, wall in results:
        for r in rows:
            keyed_rows.append(((r["method"], item.gi, item.rep), r))
        timings.append(((item.gi, item.rep), wall))
    keyed_rows.sort(key=lambda kr: kr[0])
    timings.sort(key=lambda kv: kv[0])

    results_path = os.path.join(out_dir, f"{cfg.prefix}_results.csv")
    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for _, r in keyed_rows:
            writer.writerow([_fmt(r.get(col)) for col in RESULT_COLUMNS])

    timings_path = os.path.join(out_dir, f"{cfg.prefix}_timings.csv")
    with open(timings_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid_index", "replicate", "wall_ms"])
        for (gi, rep), wall in timings:
            writer.writerow([gi, rep, f"{wall:.3f}"])

    manifest_path = os.path.join(out_dir, f"{cfg.prefix}_manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"config": raw, "root_seed": cfg.root_seed, "scenario": cfg.scenario},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results_path, timings_path


def _preset_paths() -> list:
    base = resources.files("fedmismatch").joinpath("presets")
    return sorted((p for p in base.iterdir() if p.name.endswith(".json")), key=lambda p: p.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedmismatch", description="Federated mismatch experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=None, help="output directory (default: $FEDMISMATCH_OUT or cwd)")
    p_run.add_argument("--seed", type=int, default=None, help="override seeds.root")
    p_run.add_argument("--threads", type=int, default=1, help="worker threads for independent items")
    p_val = sub.add_parser("validate", help="check a config and report problems")
    p_val.add_argument("config", help="path to a JSON experiment config")
    p_pre = sub.add_parser("presets", help="preset operations")
    p_pre.add_argument("action", choices=["list"], help="'list' prints shipped presets")
    args = parser.parse_args(argv)

    try:
        if args.command == "presets":
            for p in _preset_paths():
                raw = json.loads(p.read_text(encoding="utf-8"))
                print(f"{p.name}\t{raw.get('scenario', '?')}\t{p}")
            return 0
        if args.command == "validate":
            raw = load_config(args.config)
            problems = validate_config(raw)
            if problems:
                for msg in problems:
                    print(f"invalid: {msg}", file=sys.stderr)
                return 1
            print("ok")
            return 0
        raw = load_config(args.config)
        out_dir = args.out or os.environ.get("FEDMISMATCH_OUT") or os.getcwd()
        results_path, timings_path = run_experiment(raw, out_dir, seed=args.seed, threads=args.threads)
        print(results_path)
        print(timings_path)
        return 0
    except ConfigError as exc:
        for msg in exc.problems:
            print(f"invalid: {msg}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
