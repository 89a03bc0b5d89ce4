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
  seed actually used, and the numeric environment that the bytes of a run at
  large d depend on: numpy's version, its BLAS build and the BLAS thread
  variables.

What a scenario accepts lives in one table, ``_SCENARIOS``: the methods a
config may list and their defaults, the grid keys it needs, its integer
``scenario_params`` with their defaults and minimums, and the function that
turns one work item into rows. ``validate`` and ``run`` both parse through
it, so a config that validates cannot fail at run time because of its own
fields; what can still fail is a sampled degenerate case, such as a client
that drew no rows. ``population.d`` is capped at ``MAX_D`` (1024),
``clients.k`` at ``MAX_K`` (10,000) and ``seeds.replicates`` at
``MAX_REPLICATES`` (10,000); each ``grid.n`` entry and ``mc.n_test`` may
ask for at most ``MAX_CELLS`` (10**8) float64 cells of n x d data. The
three sweeps stratify ``mc.n_test`` draws over their clients, one draw at
least each, so they need ``mc.n_test`` >= ``clients.k``.

Every work item (replicate x grid point) derives its generators from
``SeedSequence(root_seed, spawn_key=(replicate, grid_index))`` and splits
them into pattern, data, and evaluation streams, so items are independent.
Items run in order; ``--threads`` is the width of one thread pool for array
work inside an item (sampling and per-client sums, see ``_parallel``), which
splits that work the same way at any width, so any thread count produces
identical results. The evaluation stream draws one Monte-Carlo test sample
per item, which scores every method.
Rows are sorted before writing. Exit codes: 0 success, 1 config validation
failure, 2 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from importlib import resources
from typing import Callable

import numpy as np

from . import oracle
from ._parallel import workers
from .impute import ImputationMap
from .model import ClientSpec, ClientwisePredictor, CommLog, FeaturePattern, MomentPair, validate_federation
from .moments import co_observation, cw_moments, debias_moments
from .plugin import build_clientwise_plugin
from .popgen import PopulationSpec, draw_bernoulli_patterns, sample_dataset
from .ridge import estimate_m, itr_predictor, local_learning
from .fedsim import PROTOCOL_KINDS, ProtocolResult, ProtocolSpec, replay_comm_schedule, run_protocol, serve_predictor

__all__ = ["ConfigError", "load_config", "validate_config", "run_experiment", "main"]

# Largest population.d and clients.k a config may ask for; each client holds d x d moment sums.
MAX_D = 1024
MAX_K = 10_000
# Largest n x d sample (training or Monte-Carlo) a config may ask for, in float64 cells.
# A sample holds each client's observed cells, at most n x d of them.
MAX_CELLS = 10**8
MAX_REPLICATES = 10_000

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
    explicit: tuple[FeaturePattern, ...] = ()  # one pattern per client; empty for bernoulli patterns
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
    params: dict = field(default_factory=dict)  # typed scenario_params, defaults filled in


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    return raw


class _Invalid(Exception):
    """One field-level problem; it ends the parse of the part of the config it occurs in."""


class _Reads(dict):
    """A config object, nested objects included, that records each key the parser reads through ``get``;
    ``unread`` reports every other key, at any depth, as unknown."""

    def __init__(self, raw: dict):
        super().__init__((k, _Reads(v) if isinstance(v, dict) else v) for k, v in raw.items())
        self.read: set = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def unread(self, prefix: str = ""):
        for key, value in self.items():
            if key not in self.read:
                yield f"{prefix}{key}: unknown key"
            elif isinstance(value, _Reads):
                yield from value.unread(f"{prefix}{key}.")


def _obj(parent: dict, path: str, required: bool = False) -> dict:
    """The sub-object at ``path``; {} when it is absent and optional."""
    key = path.rpartition(".")[2]
    if key not in parent and not required:
        return {}
    value = parent.get(key)
    if not isinstance(value, dict):
        raise _Invalid(f"{path}: required object missing" if value is None
                       else f"{path}: need an object, got {value!r}")
    return value


def _number(value, path: str, *, integer: bool = False, lo=None, hi=None):
    """``value`` as a finite float, or as an int when ``integer`` (JSON integers only; bools are neither),
    within [lo, hi] where given."""
    if isinstance(value, bool):
        ok = False
    elif integer:
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if not ok or (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f" in [{lo}, {hi}]" if hi is not None else ("" if lo is None else f" >= {lo}")
        raise _Invalid(f"{path}: need {'an integer' if integer else 'a finite number'}{bound}, got {value!r}")
    return value if integer else float(value)


def _array(value, shape: tuple[int, ...], path: str, need: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float array of ``shape``."""
    cells = np.array(value, dtype=object)
    if cells.shape != shape:
        raise _Invalid(f"{path}: {need}")
    return np.array([_number(v, path) for v in cells.flat]).reshape(shape)


def _pattern(value, d: int, path: str) -> FeaturePattern:
    """A pattern from a JSON list of 1-based indices."""
    if not isinstance(value, list):
        raise _Invalid(f"{path}: need a list of 1-based indices, got {value!r}")
    indices = [_number(i, path, integer=True) for i in value]
    try:
        return FeaturePattern.from_one_based(indices, d)
    except ValueError as exc:
        raise _Invalid(f"{path}: {exc}") from exc


def _build_sigma(spec: dict, d: int) -> np.ndarray:
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return np.eye(d)
    if kind == "equicorrelated":
        c = _number(spec.get("rho", 0.0), "population.sigma.rho")
        if not (-1.0 / max(d - 1, 1) < c < 1.0):
            raise _Invalid(f"population.sigma.rho: {c} gives a non-PSD matrix at d={d}")
        return (1 - c) * np.eye(d) + c * np.ones((d, d))
    if kind == "toeplitz":
        decay = _number(spec.get("decay", 0.5), "population.sigma.decay")
        if not (0.0 <= abs(decay) < 1.0):
            raise _Invalid(f"population.sigma.decay: need |decay| < 1, got {decay}")
        idx = np.arange(d)
        return decay ** np.abs(idx[:, None] - idx[None, :])
    if kind == "explicit":
        rows = _array(spec.get("rows"), (d, d), "population.sigma.rows", f"need a {d}x{d} matrix")
        if np.max(np.abs(rows - rows.T)) > 1e-12 * np.max(np.abs(rows)):
            raise _Invalid("population.sigma.rows: not symmetric")
        return rows
    raise _Invalid(f"population.sigma.kind: unknown kind {kind!r}")


def _build_theta(spec: dict, d: int) -> np.ndarray:
    kind = spec.get("kind", "ones")
    scale = _number(spec.get("scale", 1.0), "population.theta_star.scale")
    if kind == "ones":
        return scale * np.ones(d)
    if kind == "alternating":
        return scale * np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    if kind == "explicit":
        return scale * _array(spec.get("values"), (d,), "population.theta_star.values", f"need length {d}")
    raise _Invalid(f"population.theta_star.kind: unknown kind {kind!r}")


def _parse_population(raw: dict) -> PopulationSpec:
    pop = _obj(raw, "population", required=True)
    d = _number(pop.get("d"), "population.d", integer=True, lo=1, hi=MAX_D)
    sigma = _build_sigma(_obj(pop, "population.sigma"), d)
    theta = _build_theta(_obj(pop, "population.theta_star"), d)
    noise = _obj(pop, "population.noise")
    design = pop.get("design", "gaussian")
    if design not in ("gaussian", "sphere"):
        raise _Invalid(f"population.design: unknown design {design!r}")
    nkind = noise.get("kind", "gaussian")
    if nkind not in ("gaussian", "uniform"):
        raise _Invalid(f"population.noise.kind: unknown kind {nkind!r}")
    uniform = nkind == "uniform"
    key = "halfwidth" if uniform else "sigma2"
    value = _number(noise.get(key, 1.0), f"population.noise.{key}")
    try:
        return PopulationSpec(
            d=d, sigma=sigma, theta_star=theta, sigma2=value * value / 3.0 if uniform else value,
            noise=nkind, design=design, noise_halfwidth=value if uniform else None,
        )
    except ValueError as exc:
        raise _Invalid(f"population: {exc}") from exc


def _parse_federation(raw: dict, d: int | None) -> FederationConfig | None:
    fed = _obj(raw, "clients", required=True)
    k = _number(fed.get("k"), "clients.k", integer=True, lo=1, hi=MAX_K)
    rho_spec = fed.get("rho", "uniform")
    if rho_spec == "uniform":
        rho = tuple(1.0 / k for _ in range(k))
    else:
        if not isinstance(rho_spec, list) or len(rho_spec) != k:
            raise _Invalid(f"clients.rho: need {k} entries or 'uniform'")
        rho = tuple(_number(r, "clients.rho") for r in rho_spec)
        if any(not (0.0 < r <= 1.0) for r in rho):
            raise _Invalid("clients.rho: every share must lie in (0, 1]")
        if abs(sum(rho) - 1.0) > 1e-12:
            raise _Invalid(f"clients.rho: shares sum to {sum(rho)!r}, not 1 within 1e-12")
    pat = _obj(fed, "clients.patterns")
    kind = pat.get("kind")
    if kind == "explicit":
        if d is None:
            return None
        obs_lists = pat.get("observed")
        if not isinstance(obs_lists, list) or len(obs_lists) != k:
            raise _Invalid(f"clients.patterns.observed: need {k} index lists")
        pats = tuple(_pattern(obs, d, f"clients.patterns.observed[{i}]") for i, obs in enumerate(obs_lists))
        return FederationConfig(k=k, rho=rho, explicit=pats)
    if kind == "bernoulli":
        tau = pat.get("tau")
        if tau is not None and not (0.0 < _number(tau, "clients.patterns.tau") <= 1.0):
            raise _Invalid(f"clients.patterns.tau: must lie in (0, 1], got {tau}")
        return FederationConfig(k=k, rho=rho, tau=None if tau is None else float(tau))
    raise _Invalid(f"clients.patterns.kind: need 'explicit' or 'bernoulli', got {kind!r}")


def _parse_config(raw: dict) -> tuple[ExperimentConfig | None, list[str]]:
    raw = _Reads(raw)
    problems: list[str] = []

    def collect(parse, *args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except _Invalid as exc:
            problems.append(str(exc))
            return None

    scenario = raw.get("scenario")
    entry = _SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    if entry is None:
        problems.append(f"scenario: need one of {tuple(_SCENARIOS)}, got {scenario!r}")
    pop = collect(_parse_population, raw)
    fed = collect(_parse_federation, raw, pop.d if pop else None)
    grid = collect(_obj, raw, "grid") or {}

    def _num_list(key, **kind):
        vals = grid.get(key)
        if vals is None:
            return ()
        if not isinstance(vals, list) or not vals:
            problems.append(f"grid.{key}: must be a non-empty list")
            return ()
        out = [collect(_number, v, f"grid.{key}", **kind) for v in vals]
        return tuple(v for v in out if v is not None)

    max_rows = MAX_CELLS // (pop.d if pop else 1)
    axes = {"n": _num_list("n", integer=True, lo=1, hi=max_rows), "lam": _num_list("lam", lo=0.0), "tau": _num_list("tau")}
    for t in axes["tau"]:
        if not (0.0 < t <= 1.0):
            problems.append(f"grid.tau: entry {t} outside (0, 1]")
    for key, values in axes.items():
        problems += [f"grid.{key}: entry {v} listed twice" for v, count in Counter(values).items() if count > 1]

    methods_raw = raw.get("methods")
    if methods_raw is None:
        methods = entry.defaults if entry else ()
    elif isinstance(methods_raw, list) and methods_raw:
        methods = tuple(str(m) for m in methods_raw)
    else:
        problems.append("methods: must be a non-empty list when given")
        methods = ()
    problems += [f"methods: {m!r} listed twice" for m, count in Counter(methods).items() if count > 1]

    mc = collect(_obj, raw, "mc") or {}
    n_test = collect(_number, mc.get("n_test", 10_000), "mc.n_test", integer=True, lo=2, hi=max_rows)
    seeds = collect(_obj, raw, "seeds") or {}
    root = collect(_number, seeds.get("root", 0), "seeds.root", integer=True, lo=0)
    reps = collect(_number, seeds.get("replicates", 1), "seeds.replicates", integer=True, lo=1, hi=MAX_REPLICATES)
    output = collect(_obj, raw, "output") or {}
    prefix = output.get("prefix", "experiment")
    if not isinstance(prefix, str) or not prefix:
        problems.append("output.prefix: must be a non-empty string")
    elif prefix in (".", "..") or any(sep and sep in prefix for sep in ("/", os.sep, os.altsep)):
        problems.append(f"output.prefix: {prefix!r} must be a file name, not a path")
    raw_params = collect(_obj, raw, "scenario_params") or {}

    params: dict = {}
    if entry is not None:
        for m in methods:
            if m not in entry.methods:
                problems.append(f"methods: unknown method {m!r} for scenario {scenario}, need some of {entry.methods}")
        for key in entry.grid:
            if grid.get(key) is None:  # a given list already had each bad entry reported
                problems.append(f"grid.{key}: required for scenario {scenario}")
        for name, (default, lo) in entry.params.items():
            params[name] = collect(_number, raw_params.get(name, default), f"scenario_params.{name}",
                                   integer=True, lo=lo)
        params.update(collect(entry.check, raw_params, pop, fed, axes) or {})
    # A sweep's Monte-Carlo strata are its k clients, and each needs a draw.
    if entry is not None and entry.rows is _mc_rows and fed is not None and n_test is not None and n_test < fed.k:
        problems.append(f"mc.n_test: {n_test} draws cannot cover {fed.k} clients; need at least clients.k")
    if fed is not None and axes["tau"] and fed.explicit:
        problems.append("grid.tau: only meaningful with bernoulli patterns")
    if fed is not None and not fed.explicit and not axes["tau"] and fed.tau is None:
        problems.append("clients.patterns.tau: required when grid.tau is absent")

    # A parse that stopped at a problem never read the keys after it, so unread keys count only when clean.
    problems = problems or list(raw.unread())
    if problems:
        return None, problems
    cfg = ExperimentConfig(
        scenario=scenario,
        population=pop,
        federation=fed,
        methods=methods,
        grid_n=axes["n"],
        grid_lam=axes["lam"] or (0.0,),
        grid_tau=axes["tau"],
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
    if fed.explicit:
        pats = fed.explicit
    else:
        t = tau if tau is not None else fed.tau
        pats = draw_bernoulli_patterns(fed.k, cfg.population.d, t, rng)
    clients = tuple(
        ClientSpec(id=i + 1, pattern=p, rho=r) for i, (p, r) in enumerate(zip(pats, fed.rho))
    )
    return validate_federation(clients)


@dataclass
class _Context:
    """One work item's fitting inputs, no row among them: the senders' ``Dataset.uploads``, ``n`` and m-hat.
    Methods are fitted on ``clients`` and their predictors served to ``served``, which every risk is taken over;
    ``moments`` (the one-shot protocol) and ``oracle_risk`` run once, on first use."""

    pop: PopulationSpec
    clients: tuple[ClientSpec, ...]
    served: tuple[ClientSpec, ...]
    uploads: dict
    n: int
    m_hat: float | None
    lam: float
    params: dict

    @cached_property
    def moments(self) -> ProtocolResult:
        return run_protocol(ProtocolSpec(kind="one_shot_moments"), self.uploads)

    @cached_property
    def oracle_risk(self) -> float:
        return oracle.oracle_global_risk(self.pop, self.served)


@dataclass(frozen=True)
class _Fit:
    """One method's predictor plus the values reported next to its risk."""

    predictor: ClientwisePredictor
    oracle_risk: float
    bound_value: float | None = None
    protocols: tuple[ProtocolResult, ...] = ()


def _comm_logs(fit: _Fit, ctx: _Context) -> list[CommLog]:
    """Every log a method's row sums: its protocols', then, when it fitted on the server, the delivery of its
    predictor to ``ctx.served``."""
    logs = [r.comm for r in fit.protocols]
    if fit.protocols:
        logs.append(serve_predictor(fit.predictor, ctx.served, ctx.uploads, [r.spec for r in fit.protocols]))
    return logs


def _debiased(art, clients) -> MomentPair:
    return debias_moments(art.pooled, co_observation([c.pattern for c in clients], [c.rho for c in clients]))


def _componentwise(art, clients) -> MomentPair:
    return cw_moments(art.pooled, art.counts)


# Moment-pair estimator behind each plug-in method.
_PLUGIN_PAIRS = {"plugin_debias": _debiased, "plugin_cw": _componentwise}


def _fit_plugin(pair_of, ctx: _Context) -> _Fit:
    predictor = build_clientwise_plugin(pair_of(ctx.moments.artifact, ctx.clients), ctx.served)
    return _Fit(predictor, ctx.oracle_risk, protocols=(ctx.moments,))


def _itr(imputer, ctx: _Context, certify=False, protocols=()) -> _Fit:
    """Closed-form ridge on the data completed by ``imputer``, folded back through it. The ridge joins the
    method's session: it sends only what ``protocols``, the method's earlier runs, did not. ``certify``
    reports ``oracle.itr_bound`` of ``imputer`` itself, which only a map fixed before sampling may ask for."""
    session = [p.spec for p in protocols]
    ridge = run_protocol(ProtocolSpec(kind="one_shot_ridge", lam=ctx.lam), ctx.uploads, imputer, session)
    predictor = itr_predictor(imputer, ridge.artifact, ctx.clients, trunc_m=ctx.m_hat)
    protocols = protocols + (ridge,)
    if not certify:
        return _Fit(predictor, ctx.oracle_risk, protocols=protocols)
    report = oracle.itr_bound(ctx.pop, ctx.clients, imputer, ctx.lam, ctx.n, ctx.m_hat)
    return _Fit(predictor, report.r_star_reference, report.bound_value, protocols)


def _fit_itr_zero(ctx: _Context) -> _Fit:
    return _itr(ImputationMap(), ctx, certify=True)


def _fit_itr_opt(ctx: _Context) -> _Fit:
    return _itr(ImputationMap(ctx.pop.sigma), ctx, certify=True)


def _fit_itr_cw(ctx: _Context) -> _Fit:
    imputer = ImputationMap(_componentwise(ctx.moments.artifact, ctx.clients).sigma)
    return _itr(imputer, ctx, protocols=(ctx.moments,))


def _fit_itr_ice(ctx: _Context) -> _Fit:
    ice = run_protocol(ProtocolSpec(kind="federated_ice", ice_rounds=ctx.params["ice_rounds"]), ctx.uploads)
    return _itr(ice.artifact, ctx, protocols=(ice,))


def _fit_fedavg(ctx: _Context) -> _Fit:
    imputer = ImputationMap()
    spec = ProtocolSpec(
        kind="fedavg_ridge", lam=ctx.lam, rounds=ctx.params["rounds"], local_steps=ctx.params["local_steps"]
    )
    res = run_protocol(spec, ctx.uploads, imputer)
    predictor = itr_predictor(imputer, res.artifact.theta, ctx.clients, trunc_m=ctx.m_hat)
    ip = oracle.imputed_population_covariance(ctx.pop, ctx.clients, imputer)
    return _Fit(predictor, oracle.imputed_oracle_risk(ctx.pop, ip), protocols=(res,))


def _fit_local(ctx: _Context) -> _Fit:
    predictor = local_learning(ctx.clients, ctx.uploads, ctx.lam, trunc_m=ctx.m_hat)
    bound = None
    if ctx.pop.m_bound is not None:
        bound = oracle.local_bound_terms(ctx.pop, ctx.clients, ctx.lam, ctx.n, ctx.pop.m_bound).upper_bound
    return _Fit(predictor, ctx.oracle_risk, bound)


# Every predictor-producing method, in the order configs list them.
_METHOD_FITS = {
    **{method: partial(_fit_plugin, pair_of) for method, pair_of in _PLUGIN_PAIRS.items()},
    "itr_zero": _fit_itr_zero,
    "itr_opt": _fit_itr_opt,
    "itr_cw": _fit_itr_cw,
    "itr_ice": _fit_itr_ice,
    "local": _fit_local,
    "fedavg": _fit_fedavg,
}


@dataclass(frozen=True)
class _WorkItem:
    rep: int
    gi: int
    n: int | None
    lam: float
    tau: float | None


def _mc_rows(cfg: ExperimentConfig, item: _WorkItem, clients, data_ss, mc_ss, served=None) -> list[dict]:
    """Fit every listed method on one sample and score all of them on one shared Monte-Carlo sample.

    The test sample comes from ``mc_ss`` alone, so a method's row does not
    depend on which other methods are listed or where it sits in the list.
    """
    pop = cfg.population
    data = sample_dataset(pop, clients, item.n, np.random.default_rng(data_ss))
    # The one read of the responses, once per item and only if a listed method clips (the plug-ins never do):
    # m-hat, in no message (ROADMAP item 17).
    m_hat = estimate_m(data) if set(cfg.methods) - _PLUGIN_PAIRS.keys() else None
    ctx = _Context(pop, clients, served or clients, data.uploads, data.n, m_hat, item.lam, cfg.params)
    del data  # no fit reads a row, so the sample is freed before the first one
    fits = [_METHOD_FITS[method](ctx) for method in cfg.methods]
    risks = oracle.monte_carlo_risk([f.predictor for f in fits], pop, ctx.served, cfg.n_test,
                                    np.random.default_rng(mc_ss))
    logs = [_comm_logs(fit, ctx) for fit in fits]
    return [{"method": method, "mc_risk": mc.risk, "mc_stderr": mc.stderr,
             "oracle_risk": fit.oracle_risk, "bound_value": fit.bound_value,
             "excess_risk": mc.risk - fit.oracle_risk,
             "comm_floats_up": sum(log.total_floats("up") for log in fit_logs),
             "comm_floats_down": sum(log.total_floats("down") for log in fit_logs)}
            for method, fit, fit_logs, mc in zip(cfg.methods, fits, logs, risks)]


def _new_client_rows(cfg: ExperimentConfig, item: _WorkItem, clients, data_ss, mc_ss) -> list[dict]:
    """The plug-ins served to one client with the unseen pattern, which the risk is taken over."""
    probe = ClientSpec(id=max(c.id for c in clients) + 1, pattern=cfg.params["new_pattern"], rho=1.0)
    return _mc_rows(cfg, item, clients, data_ss, mc_ss, served=(probe,))


def _typical_rows(cfg: ExperimentConfig, item: _WorkItem, clients, data_ss, mc_ss) -> list[dict]:
    """Zero-imputed optimum against the typical-case penalty-inflation bound; no sampling."""
    pop = cfg.population
    ip = oracle.imputed_population_covariance(pop, clients, ImputationMap())
    lhs = oracle.imputed_oracle_risk(pop, ip) + oracle.ridge_bias(ip.factor, ip.theta_prime, item.lam)
    lam_prime = oracle.typical_case_lambda_prime(item.lam, item.tau)
    rhs = pop.sigma2 + oracle.ridge_bias(pop.sigma_factor, pop.theta_star, lam_prime)
    return [{"method": "typical_zero_bias", "oracle_risk": lhs, "bound_value": rhs,
             "comm_floats_up": 0, "comm_floats_down": 0}]


def _audit_rows(cfg: ExperimentConfig, item: _WorkItem, clients, data_ss, mc_ss) -> list[dict]:
    """Run each listed protocol once and hold its logged totals to the closed-form schedule."""
    pop = cfg.population
    n = item.n if item.n is not None else 32
    uploads, imputer = sample_dataset(pop, clients, n, np.random.default_rng(data_ss)).uploads, ImputationMap()
    rows = []
    for kind in cfg.methods:
        spec = ProtocolSpec(kind=kind, lam=item.lam, ice_rounds=cfg.params["ice_rounds"], rounds=cfg.params["rounds"])
        res = run_protocol(spec, uploads, imputer)
        # FedAvg stops early on divergence; the schedule is that of the rounds the server ran.
        ran = replace(spec, rounds=res.artifact.rounds_run) if kind == "fedavg_ridge" else spec
        predicted = replay_comm_schedule(ran, [lm.pattern for lm in uploads.values()])
        got = (res.comm.total_floats("up"), res.comm.total_floats("down"), res.comm.total_bits())
        want = (predicted.up_floats, predicted.down_floats, predicted.registration_bits)
        if got != want:
            raise RuntimeError(f"comm audit mismatch for {kind}: logged (up, down, bits) {got}, predicted {want}")
        rows.append({"n": n, "method": kind, "comm_floats_up": got[0], "comm_floats_down": got[1]})
    return rows


def _check_new_client(raw_params, pop, fed, axes) -> dict:
    """The unseen pattern must name features that some client observes together."""
    value = raw_params.get("new_pattern")
    if not isinstance(value, list) or not value:
        raise _Invalid("scenario_params.new_pattern: required 1-based index list")
    if pop is None:
        return {}
    pattern = _pattern(value, pop.d, "scenario_params.new_pattern")
    if fed is not None and fed.explicit:
        covered = co_observation(fed.explicit, [1.0] * len(fed.explicit))
        if not covered[np.ix_(pattern.observed, pattern.observed)].all():
            raise _Invalid("scenario_params.new_pattern: holds a feature pair that no client observes together")
    return {"new_pattern": pattern}


def _check_typical(raw_params, pop, fed, axes) -> dict:
    if fed is not None and fed.explicit:
        raise _Invalid("clients.patterns: typical_case_sweep needs bernoulli patterns")
    if pop is not None and np.max(np.abs(np.diag(pop.sigma) - 1.0)) > 1e-12:
        raise _Invalid("population.sigma: typical_case_sweep needs unit diagonal")
    for tau in (t for t in axes["tau"] if 0.0 < t <= 1.0):
        for lam in axes["lam"]:
            try:
                oracle.typical_case_lambda_prime(lam, tau)
            except ValueError as exc:
                raise _Invalid(f"grid.tau: entry {tau}: {exc}") from exc
    return {}


@dataclass(frozen=True)
class _Scenario:
    """What one scenario accepts and how one of its work items becomes rows."""

    methods: tuple[str, ...]  # what ``methods`` may list
    defaults: tuple[str, ...]  # what runs when ``methods`` is absent
    grid: tuple[str, ...]  # grid keys that must be given
    params: dict[str, tuple[int, int]]  # integer scenario_params: name -> (default, minimum)
    rows: Callable[..., list[dict]]  # (cfg, item, clients, data_ss, mc_ss) -> rows without the base columns
    check: Callable[..., dict] = lambda *_: {}  # (raw_params, pop, fed, grid axes) -> further typed params


_SWEEP_PARAMS = {"ice_rounds": (3, 0), "rounds": (200, 0), "local_steps": (1, 1)}


def _sweep(defaults: tuple[str, ...], grid: tuple[str, ...]) -> _Scenario:
    return _Scenario(tuple(_METHOD_FITS), defaults, grid, _SWEEP_PARAMS, _mc_rows)


_SCENARIOS = {
    "consistency_sweep": _sweep(("plugin_debias", "plugin_cw"), ("n",)),
    "new_client_generalization": _Scenario(
        tuple(_PLUGIN_PAIRS), ("plugin_cw",), ("n",), {}, _new_client_rows, _check_new_client),
    "bound_verification": _sweep(("itr_zero", "itr_opt"), ("n", "lam")),
    "local_vs_federated": _sweep(("local", "itr_zero"), ("n", "lam")),
    "typical_case_sweep": _Scenario(
        ("typical_zero_bias",), ("typical_zero_bias",), ("tau", "lam"), {}, _typical_rows, _check_typical),
    "comm_audit": _Scenario(PROTOCOL_KINDS, PROTOCOL_KINDS, (), {"ice_rounds": (3, 0), "rounds": (5, 0)}, _audit_rows),
}


def _grid_points(cfg: ExperimentConfig) -> list[tuple[int | None, float, float | None]]:
    taus = cfg.grid_tau if cfg.grid_tau else (None,)
    ns = cfg.grid_n if cfg.grid_n else (None,)
    return [(n, lam, tau) for tau in taus for n in ns for lam in cfg.grid_lam]


def _run_item(cfg: ExperimentConfig, item: _WorkItem) -> list[dict]:
    ss = np.random.SeedSequence(cfg.root_seed, spawn_key=(item.rep, item.gi))
    pat_ss, data_ss, mc_ss = ss.spawn(3)
    clients = _build_clients(cfg, item.tau, np.random.default_rng(pat_ss))
    base = {
        "scenario": cfg.scenario,
        "seed": item.rep,
        "n": item.n,
        "d": cfg.population.d,
        "k": cfg.federation.k,
        "tau": item.tau,
        "lambda": item.lam,
    }
    rows = _SCENARIOS[cfg.scenario].rows(cfg, item, clients, data_ss, mc_ss)
    return [{**base, **row} for row in rows]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def run_experiment(raw: dict, out_dir: str, seed: int | None = None, threads: int = 1) -> tuple[str, str]:
    """Run one experiment config; returns (results_path, timings_path)."""
    cfg = parse_config(raw)
    try:
        _number(threads, "--threads", integer=True, lo=1)
        if seed is not None:
            cfg = replace(cfg, root_seed=_number(seed, "--seed", integer=True, lo=0))
    except _Invalid as exc:
        raise ConfigError([str(exc)]) from exc
    os.makedirs(out_dir, exist_ok=True)
    points = _grid_points(cfg)
    items = [
        _WorkItem(rep=rep, gi=gi, n=n, lam=lam, tau=tau)
        for rep in range(cfg.replicates)
        for gi, (n, lam, tau) in enumerate(points)
    ]

    keyed_rows = []
    timings = []
    with workers(threads):
        for item in items:
            t0 = time.perf_counter()
            for r in _run_item(cfg, item):
                keyed_rows.append(((r["method"], item.gi, item.rep), r))
            timings.append(((item.gi, item.rep), (time.perf_counter() - t0) * 1000.0))
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
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        numeric = {"numpy": np.__version__, "blas": {key: blas.get(key) for key in ("name", "version")},
                   **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
        json.dump({"config": raw, "root_seed": cfg.root_seed, "scenario": cfg.scenario, "numeric": numeric},
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
    p_run.add_argument("--threads", type=int, default=1, help="threads for array work inside a work item (sampling, per-client sums); items run in order (at least 1)")
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
            parse_config(load_config(args.config))
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
