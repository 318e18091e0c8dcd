"""End-to-end acceptance scenarios with machine-checkable verdicts.

Each scenario freezes a model, an h grid, and a tolerance set, drives the
measurement pipeline, and returns a :class:`ScenarioReport` whose checks
carry one pass/fail verdict each.  ``run_scenario`` is the single entry
point shared by the command line and the acceptance test suite, so both
always agree on what was measured and against which target.

The two-wells scenario is exploratory: its report keeps ``gating=False``
and ``passed=True`` no matter what the split data show, and the per-state
weights ride along in the data payload for offline inspection.

All scenarios are deterministic: fixed grids, no randomness, and plain
Python floats in every report so serialized verdicts are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .classical import classify_integrability, coarea_check, levelset_connected
# eigs_in_window is unused here; perfbench/test_perfbench.py::
# test_wrapper_reaches_from_import_aliases_and_restores expects this module to hold it
from .eig import eigs_in_window  # noqa: F401
from .errors import ConfigError
from .experiments import (
    ScanResult,
    ScanRow,
    _line_fit,
    _log_log_slope,
    _window_row,
    fit_log_coefficient,
    fit_scaling,
    log_decay_slope,
    ratio_limit,
    run_scan,
    singular_limit,
    solve_window,
    two_wells_experiment,
)
from .microlocal import (
    antiwick_averages,
    egorov_defect,
    microlocal_records,
    upsilon_a,
    weyl_averages,
    weyl_or_reference,
)
from .model import get_model, isolated_critical_point
from .observables import parse_observable
from .quantize import DENSE_CAP

GAUSS_1D = "exp(-x^2)"
GAUSS_PHASE = "exp(-x^2-xi^2)"


@dataclass(frozen=True)
class Check:
    """One named verdict: a measured value against a stated target."""

    name: str
    passed: bool
    value: float | int | str | bool
    target: str


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    gating: bool
    passed: bool
    checks: tuple[Check, ...]
    config: dict
    data: dict = field(default_factory=dict)


def _report(name: str, checks, config: dict, data: dict | None = None,
            gating: bool = True) -> ScenarioReport:
    passed = all(c.passed for c in checks) if gating else True
    return ScenarioReport(scenario=name, gating=gating, passed=passed,
                          checks=tuple(checks), config=dict(config),
                          data=dict(data or {}))


def _ratio_payload(rl) -> dict:
    return {
        "observable_id": rl.observable_id,
        "target": rl.target_kind,
        "target_value": float(rl.target_value),
        "gap_at_hmin": float(rl.gap_at_h_min),
        "trend_exponent": float(rl.trend_exponent),
        "extrapolated": float(rl.extrapolated),
        "converged": bool(rl.converged),
        "h": [float(v) for v in rl.h],
        "ratios": [float(v) for v in rl.ratios],
    }


def _fixed_h(value: float, target: float, hs, values, sl) -> dict:
    """A retired fixed-h check and the h at which its decay law meets it.

    A gap that closes only because the singular part c w(h) of the count,
    w(h) = h^alpha |log h|^beta, outgrows its regular part decays like
    1/w(h).  Fits 1/value = a + b w(h) on the rows of the singular-limit
    fit ``sl`` and solves for value = target (NaN when the fit does not
    decay).  Takes the laws of the concentration scenarios: |log h|
    (alpha = 0, beta = 1) and a pure power (beta = 0, alpha < 0).
    """
    fit_h = set(sl.h)
    pts = [(h, v) for h, v in zip(hs, values) if h in fit_h]
    w = np.array([h ** sl.alpha * abs(math.log(h)) ** sl.beta for h, _ in pts])
    inv = np.array([1.0 / v for _, v in pts])
    a, b = _line_fit(w, inv)
    w_target = (1.0 / target - a) / b if b > 0.0 else math.nan
    if not w_target > 0.0:
        h_at = math.nan
    elif sl.alpha == 0.0:
        h_at = math.exp(-w_target)
    else:
        h_at = w_target ** (1.0 / sl.alpha)
    decay = {"law": "1/value = a + b * h^alpha * |log h|^beta",
             "alpha": float(sl.alpha), "beta": int(sl.beta),
             "a": float(a), "b": float(b),
             "rms": float(np.sqrt(np.mean((a + b * w - inv) ** 2))),
             "h_at_target": float(h_at)}
    return {"value": float(value), "target": float(target), "gating": False,
            "decay": decay}


def scenario_harmonic_weyl() -> ScenarioReport:
    """Window counts and eigenvalues of the exactly solvable oscillator."""
    name, e_center, d, ppw = "harmonic", 1.0, 5.0, 160
    model = get_model(name)
    hs = (0.04, 0.02, 0.01, 0.005)
    counts: list[int] = []
    rel_worst = 0.0
    for h in hs:
        win = solve_window(model, h, e_center, d=d, ppw=ppw, vectors=False,
                           h_max=hs[0])
        counts.append(int(win.count))
        lam = np.asarray(win.eigenvalues, dtype=float)
        level = np.round((lam / h - 1.0) / 2.0)
        predicted = (2.0 * level + 1.0) * h
        rel_worst = max(rel_worst,
                        float(np.max(np.abs(lam - predicted) / predicted)))
    checks = (
        Check("window_count", all(4 <= c <= 6 for c in counts),
              ",".join(str(c) for c in counts), "5 +- 1 states at every h"),
        Check("eigenvalue_accuracy", rel_worst <= 1e-4, rel_worst,
              "relative error against (2j+1)h <= 1e-4"),
    )
    config = {"model": name, "e_center": e_center, "d": d, "ppw": ppw,
              "h_values": [float(h) for h in hs]}
    return _report("harmonic-weyl", checks, config,
                   {"counts": counts, "eigenvalue_rel_error": rel_worst})


def scenario_critical_exponent_k2() -> ScenarioReport:
    """Fractional count exponent at a fourth-order potential maximum."""
    name, e_center, d, ppw = "deg-max", 0.0, 5.0, 64
    h_from, h_to, h_steps = 1e-1, 1e-3, 16
    scan = run_scan(name, h_values=np.geomspace(h_from, h_to, h_steps),
                    e_center=e_center, d=d, ppw=ppw)
    fit = fit_scaling(scan)
    checks = (
        Check("alpha_hat", abs(fit.alpha_hat + 0.25) <= 0.05,
              float(fit.alpha_hat), "-0.25 +- 0.05"),
        Check("beta_hat", fit.beta_hat == 0, int(fit.beta_hat),
              "0 (no log factor)"),
    )
    config = {"model": name, "e_center": e_center, "d": d, "ppw": ppw,
              "h_from": h_from, "h_to": h_to, "h_steps": h_steps}
    data = {"fit": asdict(fit),
            "counts": [float(r.upsilon) for r in scan.valid_rows()],
            "h": [float(r.h) for r in scan.valid_rows()]}
    return _report("critical-exponent-k2", checks, config, data)


def scenario_log_law_k1() -> ScenarioReport:
    """Log-law selection at a quadratic maximum plus the curvature ratio."""
    models, e_center, d, ppw = ["quad-max", "quad-max-steep"], 0.0, 5.0, 64
    h_from, h_to, h_steps = 1e-1, 3e-5, 24
    hs = np.geomspace(h_from, h_to, h_steps)
    scan_main, scan_steep = (run_scan(m, h_values=hs, e_center=e_center, d=d, ppw=ppw)
                             for m in models)
    fit = fit_scaling(scan_main)
    offset_main, slope_main = fit_log_coefficient(scan_main)
    offset_steep, slope_steep = fit_log_coefficient(scan_steep)
    ratio = slope_main / slope_steep
    checks = (
        Check("beta_hat", fit.beta_hat == 1, int(fit.beta_hat),
              "1 (log factor selected)"),
        Check("alpha_hat", abs(fit.alpha_hat) <= 0.05, float(fit.alpha_hat),
              "0 +- 0.05"),
        Check("log_coefficient_ratio", abs(ratio - 2.0) <= 0.4, float(ratio),
              "2 +- 20% (inverse square-root curvature law)"),
    )
    config = {"models": models, "e_center": e_center, "d": d, "ppw": ppw,
              "h_from": h_from, "h_to": h_to, "h_steps": h_steps}
    data = {"fit": asdict(fit),
            "log_fit_main": {"offset": float(offset_main),
                             "slope": float(slope_main)},
            "log_fit_steep": {"offset": float(offset_steep),
                              "slope": float(slope_steep)}}
    return _report("log-law-k1", checks, config, data)


def scenario_dirac_concentration_1d() -> ScenarioReport:
    """Eigenstate concentration at a connected separatrix in 1D.

    The paper claims the window averages tend to a(0, 0) as h -> 0, with no
    rate: at a hyperbolic point the gap closes only like 1/|log h|.  The
    limit is therefore read off the singular parts of Upsilon and
    Upsilon_a (``singular_limit``), and the position spread
    Upsilon_{x^2}/Upsilon must fall like 1/|log h|.  The fixed-h values the
    scenario once gated on ride along in ``data["fixed_h"]`` with their
    fitted decay laws.
    """
    name, e_center, d, ppw = "quad-max", 0.0, 5.0, 64
    h_from, h_to, h_steps = 1e-1, 1e-3, 10
    model = get_model(name)
    gauss = parse_observable(GAUSS_PHASE)
    xsq = parse_observable("x^2")
    target = 1.0  # observable value at the unstable equilibrium
    connected, n_components = levelset_connected(model, e_center)
    hs = [float(v) for v in np.geomspace(h_from, h_to, h_steps)]
    gaps: list[float] = []
    moments: list[float] = []
    rows: list[ScanRow] = []
    for h in hs:
        win = solve_window(model, h, e_center, d=d, ppw=ppw, h_max=hs[0])
        nus, _method = weyl_or_reference(win, gauss)
        gaps.append(max(abs(float(nu) - target) for nu in nus))
        lam = np.asarray(win.eigenvalues, dtype=float)
        j_star = int(np.argmin(np.abs(lam)))
        psi = np.asarray(win.vectors[:, j_star], dtype=float)
        x = win.grid.nodes
        moments.append(float(np.sum(x * x * psi * psi)))
        rows.append(_window_row(win, (float(sum(nus)), upsilon_a(win, xsq))))
    scan = ScanResult(model=name, family=model.family, e_center=e_center,
                      d=d, ppw=ppw, observable_ids=(gauss.id, xsq.id), rows=tuple(rows))
    sl = singular_limit(scan, GAUSS_PHASE, target="dirac", tol=0.15)
    spread_slope = log_decay_slope(scan, xsq.id)
    trend = _log_log_slope(hs, gaps)
    checks = (
        Check("levelset_connected", bool(connected), int(n_components),
              "level set at the critical energy is one component"),
        Check("singular_limit", sl.passed, float(sl.gap),
              "|c_a/c - a(0,0)| <= 0.15, c_a/c the h -> 0 limit of "
              "upsilon_a/upsilon from the |log h| parts of both counts"),
        Check("convergence_trend", trend > 0.0, float(trend),
              "positive log-log decay of the gap in h"),
        Check("spread_decay", spread_slope > 0.0, float(spread_slope),
              "upsilon/upsilon_{x^2} grows like |log h|: positive slope"),
    )
    config = {"model": name, "e_center": e_center, "d": d, "ppw": ppw,
              "observable": GAUSS_PHASE, "h_from": h_from, "h_to": h_to,
              "h_steps": h_steps}
    data = {"h": hs, "gaps": [float(g) for g in gaps],
            "trend_exponent": float(trend),
            "singular_limit": asdict(sl),
            "spread": [float(r.ratios[1]) for r in rows],
            "spread_slope": float(spread_slope),
            "second_moments": moments,
            "nearest_eigenvalue": float(lam[j_star]),
            "fixed_h": {
                "nu_gap_at_hmin": _fixed_h(gaps[-1], 0.15, hs, gaps, sl),
                "second_moment": _fixed_h(moments[-1], 0.05, hs, moments, sl)}}
    return _report("dirac-concentration-1d", checks, config, data)


def scenario_liouville_limit_2d() -> ScenarioReport:
    """Observable ratio against the Liouville average in the radial model."""
    name, e_center, d, ppw = "radial-deg", 0.0, 5.0, 64
    h_from, h_to, h_steps = 1e-1, 1e-2, 10
    model = get_model(name)
    scan = run_scan(model, h_values=np.geomspace(h_from, h_to, h_steps),
                    observables=(GAUSS_1D,), e_center=e_center, d=d, ppw=ppw)
    rl = ratio_limit(scan, GAUSS_1D, target="liouville", tol=0.10)
    co = coarea_check(model, 0.05, 0.15)
    checks = (
        Check("ratio_gap_at_hmin", rl.gap_at_h_min <= 0.10,
              float(rl.gap_at_h_min),
              "|upsilon_a/upsilon - mu_average| <= 0.10 at h = 1e-2"),
        Check("convergence_trend", rl.trend_exponent > 0.0,
              float(rl.trend_exponent), "positive decay of the gap in h"),
        Check("coarea_validation", float(co["rel_diff"]) <= 0.01,
              float(co["rel_diff"]),
              "band integral matches lattice area within 1%"),
    )
    config = {"model": name, "e_center": e_center, "d": d, "ppw": ppw,
              "observable": GAUSS_1D, "h_from": h_from, "h_to": h_to,
              "h_steps": h_steps}
    return _report("liouville-limit-2d", checks, config,
                   {"ratio_limit": _ratio_payload(rl)})


def scenario_pseudo_concentration_k3() -> ScenarioReport:
    """Dirac-type concentration for a non-integrable cubic phase symbol.

    Upsilon = A + c h^(-1/3) with an O(1) regular part A, so the pointwise
    ratio approaches a(0, 0) only like h^(1/3).  The gate is the h -> 0
    limit c_a/c (``singular_limit``); the smallest-h gap and its fitted
    decay law ride along in ``data["fixed_h"]``.
    """
    name, e_center, d = "pseudo-k3", 0.0, 5.0
    h_from, h_to, h_steps = 1e-1, 1.25e-3, 16
    model = get_model(name)
    cp = isolated_critical_point(model, e_center)
    verdict = classify_integrability(cp, model)
    scan = run_scan(model, h_values=np.geomspace(h_from, h_to, h_steps),
                    observables=(GAUSS_PHASE,), e_center=e_center, d=d)
    fit = fit_scaling(scan)
    rl = ratio_limit(scan, GAUSS_PHASE, target="dirac", tol=0.15)
    sl = singular_limit(scan, GAUSS_PHASE, target="dirac", tol=0.15)
    n_max = max((r.n_grid for r in scan.valid_rows()), default=0)
    checks = (
        Check("classifier", verdict == "non_integrable", verdict,
              "cubic singularity exceeds the 2n integrability threshold"),
        Check("alpha_hat", abs(fit.alpha_hat + 1.0 / 3.0) <= 0.07,
              float(fit.alpha_hat), "-1/3 +- 0.07"),
        Check("singular_limit", sl.passed, float(sl.gap),
              "|c_a/c - a(0,0)| <= 0.15, c_a/c the h -> 0 limit of "
              "upsilon_a/upsilon from the h^(-1/3) parts of both counts"),
        Check("convergence_trend", rl.trend_exponent > 0.0,
              float(rl.trend_exponent), "positive decay of the gap in h"),
        Check("grid_cap", n_max <= DENSE_CAP, int(n_max),
              f"dense path stays within {DENSE_CAP} points"),
    )
    config = {"model": name, "e_center": e_center, "d": d,
              "observable": GAUSS_PHASE, "h_from": h_from, "h_to": h_to,
              "h_steps": h_steps}
    data = {"fit": asdict(fit), "ratio_limit": _ratio_payload(rl),
            "singular_limit": asdict(sl),
            "n_grid_max": int(n_max),
            "fixed_h": {"ratio_gap_at_hmin": _fixed_h(
                rl.gap_at_h_min, 0.15, rl.h, rl.gaps, sl)}}
    return _report("pseudo-concentration-k3", checks, config, data)


def scenario_property_suite() -> ScenarioReport:
    """Cross-cutting invariants: normalization, positivity, decay rates."""
    gauss = parse_observable(GAUSS_PHASE)
    unit = parse_observable("1")
    xsq = parse_observable("x^2")

    d, ppw = 5.0, 64
    harmonic, model_qm = get_model("harmonic"), get_model("quad-max")

    # (a) normalization and (f) count agreement on two reference windows.
    specs = ((harmonic, 0.02, 1.0), (model_qm, 0.01, 0.5))
    windows = [solve_window(m, h, e, d=d, ppw=ppw) for m, h, e in specs]
    norm_worst = 0.0
    counts_ok = True
    for win in windows:
        norm_worst = max(norm_worst, float(np.max(np.abs(weyl_averages(win, unit)[0] - 1.0))))
        counts_ok = counts_ok and bool(win.count_check == win.count)

    # (b) anti-Wick positivity for nonnegative observables, both in one batch.
    aw_min = float(np.min(antiwick_averages(windows[0], [gauss, xsq])[0]))

    # (c) Weyl vs anti-Wick gap decays linearly in h on a regular window.
    hs_gap = np.geomspace(0.1, 0.02, 5)
    gap_vals = []
    for h in hs_gap:
        win = solve_window(harmonic, float(h), 1.0, d=d, ppw=ppw, h_max=float(hs_gap[0]))
        recs = microlocal_records(win, gauss)
        gap_vals.append(max(r.gap for r in recs))
    gap_slope = _log_log_slope(hs_gap, gap_vals)

    # (d) flow invariance defect decays in h on a regular window.
    hs_eg, t_eg = np.geomspace(0.1, 0.02, 5), 0.5
    defects = []
    for h in hs_eg:
        win = solve_window(model_qm, float(h), 0.5, d=d, ppw=ppw, h_max=float(hs_eg[0]))
        defects.append(egorov_defect(model_qm, gauss, t_eg, win))
    egorov_slope = _log_log_slope(hs_eg, defects)

    # (e) coarea consistency on regular bands, 1D and radial.
    co_1d = coarea_check(harmonic, 0.8, 1.2)
    co_2d = coarea_check(get_model("radial-deg"), 0.05, 0.15)
    coarea_worst = max(float(co_1d["rel_diff"]), float(co_2d["rel_diff"]))

    # (g) exponent recovery on synthetic scaling data.
    hs_fit = np.geomspace(1e-1, 1e-3, 12)

    def synthetic(fn):
        return [(float(h), float(fn(h))) for h in hs_fit]

    fit_pow = fit_scaling(synthetic(lambda h: 3.7 * h ** -0.25))
    fit_log = fit_scaling(synthetic(lambda h: 2.0 * abs(math.log(h))))
    recovery_ok = (abs(fit_pow.alpha_hat + 0.25) <= 0.01
                   and fit_pow.beta_hat == 0
                   and abs(fit_log.alpha_hat) <= 0.01
                   and fit_log.beta_hat == 1)

    checks = (
        Check("weyl_normalization", norm_worst <= 1e-8, float(norm_worst),
              "nu(1) = 1 to 1e-8 on every eigenpair"),
        Check("antiwick_positivity", aw_min >= -1e-10, float(aw_min),
              "anti-Wick averages of a >= 0 stay nonnegative"),
        Check("quantization_gap_slope", gap_slope >= 0.8, float(gap_slope),
              "Weyl/anti-Wick gap decays with slope >= 0.8 in h"),
        Check("egorov_slope", egorov_slope >= 0.8, float(egorov_slope),
              "flow defect at t = 0.5 decays with slope >= 0.8 in h"),
        Check("coarea", coarea_worst <= 0.01, float(coarea_worst),
              "coarea consistency within 1% on regular bands"),
        Check("count_agreement", counts_ok, counts_ok,
              "bisection counts match extracted eigenvalue counts"),
        Check("fit_recovery", recovery_ok,
              f"alpha {fit_pow.alpha_hat:+.4f}/{fit_log.alpha_hat:+.4f}",
              "synthetic exponents recovered within 0.01"),
    )
    config = {"windows": [{"model": m.name, "h": h, "e_center": e} for m, h, e in specs],
              "gap_h": [float(v) for v in hs_gap],
              "egorov_h": [float(v) for v in hs_eg], "egorov_t": t_eg,
              "fit_h": [float(v) for v in hs_fit]}
    data = {"normalization_gap": float(norm_worst),
            "antiwick_min": float(aw_min),
            "gap_values": [float(v) for v in gap_vals],
            "gap_slope": float(gap_slope),
            "egorov_defects": [float(v) for v in defects],
            "egorov_slope": float(egorov_slope),
            "coarea_rel_diff": {"harmonic": float(co_1d["rel_diff"]),
                                "radial-deg": float(co_2d["rel_diff"])},
            "fit_recovery": {"power": asdict(fit_pow),
                             "log": asdict(fit_log)}}
    return _report("property-suite", checks, config, data)


def scenario_two_wells() -> ScenarioReport:
    """Exploratory split of near-degenerate pairs across two wells."""
    res = two_wells_experiment()
    asym = float(res.worst_asymmetry)
    checks = (
        Check("aggregate_symmetry", asym <= 1e-3, asym,
              "aggregate left/right split 0.5/0.5 within 1e-3 (non-gating)"),
    )
    config = {"model": res.model, "e_center": float(res.e_center),
              "h_values": [float(r.h) for r in res.rows]}
    data = {"x_crit": float(res.x_crit),
            "rows": [{"h": float(r.h), "count": int(r.count),
                      "left_fraction": float(r.left_fraction),
                      "pair_gaps": [float(g) for g in r.pair_gaps],
                      "state_splits": [{"eigenvalue": float(e),
                                        "left_share": float(s)}
                                       for e, s in r.state_splits]}
                     for r in res.rows]}
    return _report("two-wells", checks, config, data, gating=False)


SCENARIOS = {
    "harmonic-weyl": scenario_harmonic_weyl,
    "critical-exponent-k2": scenario_critical_exponent_k2,
    "log-law-k1": scenario_log_law_k1,
    "dirac-concentration-1d": scenario_dirac_concentration_1d,
    "liouville-limit-2d": scenario_liouville_limit_2d,
    "pseudo-concentration-k3": scenario_pseudo_concentration_k3,
    "property-suite": scenario_property_suite,
    "two-wells": scenario_two_wells,
}


def run_scenario(name: str) -> ScenarioReport:
    try:
        fn = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r}; known: {known}") from None
    return fn()
