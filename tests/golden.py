"""Golden outputs: the verdict contract as one comparator.

A verdict or scan must keep every string, bool and int, and every count
that it carries as a float (``EXACT_FLOAT_KEYS``); any other float must
agree within a relative ``REL_TOL``, or within the absolute ``ABS_FLOOR``
that covers rounding residues of values that are exactly 0 (such as
``weyl_normalization`` at 9.99e-16 and the synthetic fits' ``offset_hat``
at 1.2e-12).  The golden files live under ``tests/data``.  A change that
moves a value on purpose re-records the file with the command that made
it (``semiclab scenario run NAME --out tests/data/verdicts/NAME.json``) and
lists the moved values this module prints.
"""

import csv
import json
import math
import pathlib

DATA = pathlib.Path(__file__).resolve().parent / "data"
REL_TOL = 1e-10  # floats agree within this relative change...
ABS_FLOOR = 1e-11  # ... or within this absolute one
EXACT_FLOAT_KEYS = frozenset({"counts", "upsilon"})  # counts carried as floats
# residual_max of a scan is rounding noise across BLAS builds (1.7e-13 to
# 4.1e-13 in the quad-max scan); it agrees within this absolute change
RESIDUAL_NOISE = 1e-11


def _same(new, golden) -> bool:
    return type(new) is type(golden) and (
        new == golden or (isinstance(new, float) and math.isnan(new) and math.isnan(golden)))


def moved(new, golden, tolerances=None, path="$", key=""):
    """Every value of ``new`` that moved from ``golden``, one line each with
    its JSON path, both values and, for floats, the relative change.

    ``tolerances`` maps a key to its own (relative, absolute) tolerance.
    """
    tolerances = tolerances or {}
    if isinstance(golden, dict) and isinstance(new, dict):
        out = []
        for k in sorted(set(golden) | set(new)):
            at = f"{path}.{k}"
            if k not in new:
                out.append(f"{at}: {golden[k]!r} -> removed")
            elif k not in golden:
                out.append(f"{at}: added -> {new[k]!r}")
            else:
                out += moved(new[k], golden[k], tolerances, at, k)
        return out
    if isinstance(golden, list) and isinstance(new, list):
        if len(new) != len(golden):
            return [f"{path}: length {len(golden)} -> {len(new)}"]
        return [line for i, (a, b) in enumerate(zip(new, golden))
                for line in moved(a, b, tolerances, f"{path}[{i}]", key)]
    if _same(new, golden):
        return []
    if isinstance(new, float) and isinstance(golden, float) and key not in EXACT_FLOAT_KEYS:
        rel, floor = tolerances.get(key, (REL_TOL, ABS_FLOOR))
        if abs(new - golden) <= max(rel * abs(golden), floor):
            return []
        change = abs(new - golden) / abs(golden) if golden else math.inf
        return [f"{path}: {golden!r} -> {new!r} (relative change {change:.3g})"]
    return [f"{path}: {golden!r} -> {new!r}"]


def _value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def scan_table(text: str) -> dict:
    """A scan CSV as the comparator reads it: the ``# key=value`` lines, and
    each row by column with its numbers parsed."""
    lines = text.splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    rows = csv.DictReader(line for line in lines if not line.startswith("#"))
    return {"meta": meta, "rows": [{k: _value(v) for k, v in row.items()} for row in rows]}


def assert_matches(new, name: str, tolerances=None) -> None:
    """Compare ``new`` with the golden file ``tests/data/<name>``, a verdict
    JSON or a scan CSV; on a miss, fail with every moved value listed."""
    text = (DATA / name).read_text()
    golden = json.loads(text) if name.endswith(".json") else scan_table(text)
    lines = moved(new, golden, tolerances)
    assert not lines, f"{name}: {len(lines)} moved\n  " + "\n  ".join(lines)
