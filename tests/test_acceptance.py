"""Acceptance gate: every scenario at its stated tolerance, one verdict each.

Each test drives one frozen scenario end to end and prints a single
PASS/FAIL line with the measured values (visible with ``pytest -s``, and
in the captured output of any failing test).  A failure here means a
measurement missed its numeric target, not that the pipeline broke; the
tolerances live in the scenario definitions and are not relaxed here.
Each run also spies on ``isolated_critical_point``: only a scenario that
claims a law at a critical point may call the hypothesis gate.
"""

import dataclasses

import pytest

import semiclab.experiments
import semiclab.scenarios
from semiclab.model import isolated_critical_point
from semiclab.scenarios import run_scenario


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
