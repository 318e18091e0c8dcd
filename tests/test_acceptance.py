"""Acceptance gate: every scenario at its stated tolerance, one verdict each.

Each test drives one frozen scenario end to end and prints a single
PASS/FAIL line with the measured values (visible with ``pytest -s``, and
in the captured output of any failing test).  A failure here means a
measurement missed its numeric target, not that the pipeline broke; the
tolerances live in the scenario definitions and are not relaxed here.
Each run also spies on ``isolated_critical_point``: only a scenario that
claims a law at a critical point may call the hypothesis gate.  Each
verdict is compared with its golden file, ``tests/data/verdicts/NAME.json``,
under the contract of ``golden.moved``.
"""

import dataclasses
import json

import pytest

import semiclab.experiments
import semiclab.scenarios
from semiclab.model import isolated_critical_point
from semiclab.scenarios import run_scenario

from golden import ABS_FLOOR, REL_TOL, assert_matches, moved


def _short(v):
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


# The levels at which each scenario claims a law at a critical point; every
# other scenario, two-wells included, must never call the hypothesis gate.
GATE_CALLS = {"dirac-concentration-1d": {("quad-max", 0.0)},
              "pseudo-concentration-k3": {("pseudo-k3", 0.0)}}


def _run(name, monkeypatch):
    calls = set()

    def spy(model, energy):
        calls.add((model.name, energy))
        return isolated_critical_point(model, energy)

    for module in (semiclab.experiments, semiclab.scenarios):
        monkeypatch.setattr(module, "isolated_critical_point", spy)
    report = run_scenario(name)
    assert calls == GATE_CALLS.get(name, set())
    status = "PASS" if report.passed else "FAIL"
    parts = [f"{c.name}:{'ok' if c.passed else 'MISS'}={_short(c.value)}"
             for c in report.checks]
    line = f"[{status}] {name} | " + " | ".join(parts)
    print(line)
    # the verdict as `semiclab scenario run` writes it, then read back
    assert_matches(json.loads(json.dumps(dataclasses.asdict(report))), f"verdicts/{name}.json")
    return report, line


def test_harmonic_counts_and_levels(monkeypatch):
    report, line = _run("harmonic-weyl", monkeypatch)
    assert report.passed, line


def test_degenerate_maximum_count_exponent(monkeypatch):
    report, line = _run("critical-exponent-k2", monkeypatch)
    assert report.passed, line


def test_log_law_selection_and_curvature_ratio(monkeypatch):
    report, line = _run("log-law-k1", monkeypatch)
    assert report.passed, line


def test_separatrix_concentration_in_1d(monkeypatch):
    report, line = _run("dirac-concentration-1d", monkeypatch)
    assert report.passed, line


def test_radial_liouville_limit(monkeypatch):
    report, line = _run("liouville-limit-2d", monkeypatch)
    assert report.passed, line


def test_cubic_phase_concentration(monkeypatch):
    report, line = _run("pseudo-concentration-k3", monkeypatch)
    assert report.passed, line


def test_invariant_property_suite(monkeypatch):
    report, line = _run("property-suite", monkeypatch)
    assert report.passed, line


def test_property_suite_count_agreement_compares_counts(monkeypatch):
    # a certificate that disagrees by one state must fail the check, however
    # nonzero both counts are
    solve = semiclab.scenarios.solve_window

    def off_by_one(*args, **kwargs):
        win = solve(*args, **kwargs)
        return dataclasses.replace(win, count_check=win.count + 1)

    monkeypatch.setattr(semiclab.scenarios, "solve_window", off_by_one)
    checks = {c.name: c for c in run_scenario("property-suite").checks}
    assert not checks["count_agreement"].passed


def test_two_wells_split_is_reported(monkeypatch):
    report, line = _run("two-wells", monkeypatch)
    assert not report.gating
    assert report.passed, line
    assert report.data["rows"], line


def test_golden_comparator_applies_the_contract():
    golden = {"checks": [{"passed": True, "value": 0.5}], "counts": [11.0], "gap": 1e-15,
              "n": 3, "name": "a"}
    same = {"checks": [{"passed": True, "value": 0.5 * (1 + 0.5 * REL_TOL)}], "counts": [11.0],
            "gap": 1e-15 + 0.5 * ABS_FLOOR, "n": 3, "name": "a"}
    assert moved(same, golden) == []
    off = {"checks": [{"passed": 1, "value": 0.5 * (1 + 2 * REL_TOL)}],
           "counts": [11.0 + 1e-12], "gap": 2 * ABS_FLOOR, "name": "b", "extra": None}
    assert [line.split(":")[0] for line in moved(off, golden)] == [
        "$.checks[0].passed", "$.checks[0].value", "$.counts[0]", "$.extra", "$.gap",
        "$.n", "$.name"]
    assert "relative change 2e-10" in moved(off, golden)[1]
