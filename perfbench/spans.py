"""Span recorder that traces fedmismatch from outside its source tree.

``SpanRecorder.install()`` replaces every plain function named in a
fedmismatch module's ``__all__`` (plus ``_linalg.pinv``,
``Dataset.rows_of`` and ``Dataset.x_obs_of``) with a timing wrapper, in
every ``fedmismatch.*`` namespace that holds it: ``cli`` binds its helpers
with ``from .x import f``, so patching only the defining module would miss
those call sites. Classes are left alone so ``isinstance`` and
``dataclasses.replace`` keep working. ``cli`` itself is not wrapped; the
benchmark opens one ``cli.run`` root span around each ``cli.main`` call.

Spans are ``(span_id, parent_id, run_id, name, start, end)`` tuples kept in
memory. Parents come from a per-thread stack; a span opened on a worker
thread with an empty stack hangs off the current run's root span.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

ROOT = "cli.run"
LAYERS = ("_linalg", "model", "popgen", "moments", "plugin", "impute", "ridge", "oracle", "fedsim")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_rows(counts, args, kwargs, result):
    counts["popgen.rows"] += int(_arg(args, kwargs, 2, "n"))


def _count_draws(counts, args, kwargs, result):
    counts["oracle.draws"] += int(_arg(args, kwargs, 3, "n_mc"))


def _count_identified(counts, args, kwargs, result):
    attempted = len(tuple(_arg(args, kwargs, 1, "clients")))
    counts["plugin.attempted"] += attempted
    counts["plugin.identified"] += attempted - len(result.unidentifiable)


def _count_messages(counts, args, kwargs, result):
    counts["fedsim.messages"] += len(result.comm)
    counts["fedsim.rounds"] += len({e.round for e in result.comm.events})


def _count_patterns(counts, args, kwargs, result):
    distinct = len({c.pattern for c in result})
    counts["model.distinct_patterns"] = max(counts["model.distinct_patterns"], distinct)


def _protocol_span_name(args, kwargs) -> str:
    return "fedsim." + _arg(args, kwargs, 0, "spec").kind


# Counters recorded at the same boundaries as the spans, keyed by the
# original function's qualified name. Each runs only when the call returns.
COUNTERS = {
    "popgen.sample_dataset": _count_rows,
    "oracle.monte_carlo_risk": _count_draws,
    "plugin.build_clientwise_plugin": _count_identified,
    "fedsim.run_protocol": _count_messages,
    "model.validate_federation": _count_patterns,
}


class SpanRecorder:
    """Collects spans and per-run counters; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.run_counts: dict[int, defaultdict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run: tuple[int, int] | None = None  # (run_id, root span id)
        self._count_lock = threading.Lock()  # counters are read-modify-write
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, call):
        """Call ``call()`` inside a root ``cli.run`` span with a fresh run id."""
        run_id = span_id = next(self._ids)
        self.run_counts[run_id] = defaultdict(int)
        self._run = (run_id, span_id)
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            stack.pop()
            self._run = None
            self.spans.append((span_id, None, run_id, ROOT, start, end))

    def _wrap(self, fn, name, counter=None, name_of=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run = recorder._run
            if run is None:
                return fn(*args, **kwargs)
            run_id, root = run
            stack = recorder._stack()
            parent = stack[-1] if stack else root
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name_of(args, kwargs) if name_of else name
                recorder.spans.append((span_id, parent, run_id, label, start, end))
            if counter is not None:
                with recorder._count_lock:
                    counter(recorder.run_counts[run_id], args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Patch every traced callable; ``uninstall`` restores the originals."""
        mods = {n: m for n, m in sys.modules.items() if n == "fedmismatch" or n.startswith("fedmismatch.")}
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods[f"fedmismatch.{layer}"]
            names = list(getattr(mod, "__all__", ()))
            if layer == "_linalg":
                names = ["pinv"]
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                qual = f"{layer}.{attr}"
                name_of = _protocol_span_name if qual == "fedsim.run_protocol" else None
                replacements[id(fn)] = self._wrap(fn, qual, COUNTERS.get(qual), name_of)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        dataset = mods["fedmismatch.model"].Dataset
        for attr in ("rows_of", "x_obs_of"):
            fn = vars(dataset)[attr]
            self._patched.append((dataset, attr, fn))
            setattr(dataset, attr, self._wrap(fn, f"model.Dataset.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()


# -- analysis ---------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children on one thread nest without overlap; the root's children come
    from several worker threads and can overlap, hence the interval union.
    """
    children = defaultdict(list)
    for span_id, parent, _run, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _parent, _run, _name, start, end in spans
    }


def _group(name: str) -> str:
    """The per-layer metric prefix a span's self time and call count feed."""
    layer, _, func = name.partition(".")
    if name == ROOT:
        return "cli"
    if name in ("model.Dataset.rows_of", "model.Dataset.x_obs_of"):
        return "model.row_scans"
    if layer in ("moments", "ridge"):
        return layer
    if layer == "impute" and (func.startswith("fit_") or func == "optimal_block_map"):
        return "impute.fit"
    if layer == "oracle" and func != "monte_carlo_risk":
        return "oracle.closed_form"
    return name


def layer_metrics(recorder: SpanRecorder, traced_wall: float, cycles: int) -> dict[str, float]:
    """Per-layer values from the recorded spans and counters.

    Times and counts are per cycle of the traced sweep, so they do not
    grow with the number of cycles a run fits in; ratios and rates are
    taken over the whole sweep.
    """
    selfs = self_times(recorder.spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    for span_id, _parent, _run, name, start, end in recorder.spans:
        group = _group(name)
        self_s[group] += selfs[span_id]
        calls[group] += 1
        inclusive[name] += end - start
    counts: dict[str, int] = defaultdict(int)
    for run_counts in recorder.run_counts.values():
        for key, value in run_counts.items():
            counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    def per_cycle(value):
        return value / cycles

    return {
        "cli.self_s": per_cycle(self_s["cli"]),
        "popgen.sample_dataset.calls": per_cycle(calls["popgen.sample_dataset"]),
        "popgen.sample_dataset.self_s": per_cycle(self_s["popgen.sample_dataset"]),
        "popgen.rows_per_s": ratio(counts["popgen.rows"], inclusive["popgen.sample_dataset"]),
        "model.row_scans": per_cycle(calls["model.row_scans"]),
        "model.row_scans.self_s": per_cycle(self_s["model.row_scans"]),
        "moments.calls": per_cycle(calls["moments"]),
        "moments.self_s": per_cycle(self_s["moments"]),
        "plugin.build_clientwise_plugin.self_s": per_cycle(self_s["plugin.build_clientwise_plugin"]),
        "plugin.identified_ratio": ratio(counts["plugin.identified"], counts["plugin.attempted"]),
        "impute.apply_imputer.self_s": per_cycle(self_s["impute.apply_imputer"]),
        "impute.fit.self_s": per_cycle(self_s["impute.fit"]),
        "ridge.self_s": per_cycle(self_s["ridge"]),
        "oracle.monte_carlo_risk.self_s": per_cycle(self_s["oracle.monte_carlo_risk"]),
        "oracle.mc_draws_per_s": ratio(counts["oracle.draws"], inclusive["oracle.monte_carlo_risk"]),
        "oracle.closed_form.self_s": per_cycle(self_s["oracle.closed_form"]),
        "fedsim.one_shot_moments.self_s": per_cycle(self_s["fedsim.one_shot_moments"]),
        "fedsim.one_shot_ridge.self_s": per_cycle(self_s["fedsim.one_shot_ridge"]),
        "fedsim.federated_ice.self_s": per_cycle(self_s["fedsim.federated_ice"]),
        "fedsim.fedavg_ridge.self_share": ratio(self_s["fedsim.fedavg_ridge"], traced_wall),
        "fedsim.messages": per_cycle(counts["fedsim.messages"]),
        "fedsim.rounds": per_cycle(counts["fedsim.rounds"]),
        "linalg.pinv.calls": per_cycle(calls["_linalg.pinv"]),
        "linalg.pinv.self_s": per_cycle(self_s["_linalg.pinv"]),
    }


def write_spans(recorder: SpanRecorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span_id,parent_id,run_id,name,start_s,end_s\n")
        for span_id, parent, run_id, name, start, end in recorder.spans:
            fh.write(f"{span_id},{'' if parent is None else parent},{run_id},{name},{start!r},{end!r}\n")
