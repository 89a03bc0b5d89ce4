"""Correctness checks on the results CSVs the program writes.

Every CSV gets the structural checks: the documented header, the expected
row count, every method the config names, finite numbers where the method
reports them, and ``excess_risk == mc_risk - oracle_risk`` exactly. On the
reference seed the values are also compared with ``reference.json``:
``oracle_risk`` and ``bound_value`` to 1e-9 relative, and ``mc_risk`` within
four combined standard errors, so a change in Monte-Carlo draw order passes
while a wrong risk fails. Determinism is checked by the caller, which
compares CSV bytes.
"""
from __future__ import annotations

import csv
import io
import math

COLUMNS = ("scenario", "seed", "n", "d", "k", "tau", "lambda", "method", "mc_risk", "mc_stderr",
           "oracle_risk", "bound_value", "excess_risk", "comm_floats_up", "comm_floats_down")
KEY = ("method", "seed", "n", "tau", "lambda")
REL_TOL = 1e-9
MC_SIGMAS = 4.0
# Scenarios whose rows carry no Monte-Carlo risk.
NO_MC = ("typical_case_sweep", "comm_audit")


def parse(data: bytes) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def _float(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def row_problems(row: dict, raw: dict) -> list[str]:
    """Structural problems of one results row against its config."""
    problems = []
    try:
        values = {c: _float(row[c]) for c in ("mc_risk", "mc_stderr", "oracle_risk", "bound_value", "excess_risk")}
        up, down = int(row["comm_floats_up"]), int(row["comm_floats_down"])
    except (KeyError, ValueError) as exc:
        return [f"unparsable row {row}: {exc}"]
    if row["scenario"] != raw["scenario"]:
        problems.append(f"scenario {row['scenario']!r} != {raw['scenario']!r}")
    if "methods" in raw and row["method"] not in raw["methods"]:
        problems.append(f"unexpected method {row['method']!r}")
    if up < 0 or down < 0:
        problems.append("negative comm count")
    needed = ["oracle_risk"] if raw["scenario"] != "comm_audit" else []
    if raw["scenario"] not in NO_MC:
        needed += ["mc_risk", "mc_stderr", "excess_risk"]
    for col in needed:
        if values[col] is None or not math.isfinite(values[col]):
            problems.append(f"{row['method']}: {col} missing or not finite ({row[col]!r})")
    if values["mc_stderr"] is not None and not values["mc_stderr"] > 0:
        problems.append(f"{row['method']}: mc_stderr {values['mc_stderr']} is not positive")
    if values["excess_risk"] is not None and None not in (values["mc_risk"], values["oracle_risk"]):
        if values["excess_risk"] != values["mc_risk"] - values["oracle_risk"]:
            problems.append(f"{row['method']}: excess_risk != mc_risk - oracle_risk")
    return problems


def check_csv(data: bytes, raw: dict, expected_rows: int) -> tuple[int, list[str]]:
    """(failed rows, problems) for one results CSV."""
    header, rows = parse(data)
    if tuple(header) != COLUMNS:
        return expected_rows, [f"header {header} != documented columns"]
    problems = []
    failed = max(expected_rows - len(rows), 0)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows written, {expected_rows} expected")
    for row in rows:
        found = row_problems(row, raw)
        failed += bool(found)
        problems += found
    if "methods" in raw and {r["method"] for r in rows} != set(raw["methods"]):
        problems.append("not every configured method wrote rows")
    return min(failed, expected_rows), problems


def reference_rows(data: bytes) -> list[dict]:
    """The values the reference check compares, keyed as in ``KEY``."""
    _, rows = parse(data)
    return [{c: row[c] for c in KEY + ("mc_risk", "mc_stderr", "oracle_risk", "bound_value")} for row in rows]


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_reference(data: bytes, reference: list[dict]) -> tuple[int, list[str]]:
    """(failed rows, problems) of a CSV against its recorded reference rows."""
    got = {tuple(r[c] for c in KEY): r for r in reference_rows(data)}
    failed, problems = 0, []
    for ref in reference:
        key = tuple(ref[c] for c in KEY)
        row = got.get(key)
        if row is None:
            failed += 1
            problems.append(f"reference row {key} missing")
            continue
        bad = []
        for col in ("oracle_risk", "bound_value"):
            a, b = _float(row[col]), _float(ref[col])
            if (a is None) != (b is None) or (a is not None and not _rel_close(a, b)):
                bad.append(f"{col} {row[col]} != reference {ref[col]}")
        if ref["mc_risk"]:
            a, b = _float(row["mc_risk"]), _float(ref["mc_risk"])
            se = math.hypot(_float(row["mc_stderr"]) or 0.0, _float(ref["mc_stderr"]))
            if a is None or not abs(a - b) <= MC_SIGMAS * se:
                bad.append(f"mc_risk {row['mc_risk']} not within {MC_SIGMAS} SE of reference {ref['mc_risk']}")
        if bad:
            failed += 1
            problems += [f"{key}: {b}" for b in bad]
    return failed, problems
