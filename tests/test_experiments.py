"""Scan/fit layer: predicted laws, scan plumbing, fit recovery, ratios."""

import json
import math

import numpy as np
import pytest

from semiclab import experiments, microlocal
from semiclab.cli import main
from semiclab.eig import radial_channels
from semiclab.errors import ConfigError, HypothesisError, NumericalError
from semiclab.experiments import (
    ScanResult,
    ScanRow,
    _line_fit,
    _log_log_slope,
    default_h_values,
    fit_log_coefficient,
    fit_scaling,
    log_decay_slope,
    predict_scaling,
    ratio_limit,
    run_scan,
    scaling_branches,
    scan_from_csv,
    scan_to_csv,
    singular_limit,
    solve_window,
    two_wells_experiment,
)
from semiclab.model import PhasePolynomial, Polynomial1D, SymbolModel, get_model
from semiclab.observables import parse_observable
from semiclab.quantize import Grid1D


class TestPredictedLaws:
    def test_harmonic_regular(self):
        law = predict_scaling(get_model("harmonic"))
        assert law.origin == "regular_weyl"
        assert law.alpha == 0.0 and law.beta == 0

    def test_degenerate_max_quarter_exponent(self):
        law = predict_scaling(get_model("deg-max"), 0.0)
        assert law.origin == "schrodinger_critical"
        assert law.alpha == pytest.approx(-0.25)
        assert law.beta == 0

    def test_quadratic_max_log_branch_wins_tie(self):
        laws = scaling_branches(get_model("quad-max"), 0.0)
        alphas = sorted(l.alpha for l in laws)
        assert alphas == pytest.approx([0.0, 0.0])  # regular and critical tie
        law = predict_scaling(get_model("quad-max"), 0.0)
        assert law.beta == 1 and law.alpha == pytest.approx(0.0)
        assert law.origin == "schrodinger_critical"

    def test_radial_regular_dominates_critical(self):
        laws = scaling_branches(get_model("radial-deg"), 0.0)
        origins = {l.origin: l for l in laws}
        assert origins["schrodinger_critical"].alpha == pytest.approx(-0.5)
        law = predict_scaling(get_model("radial-deg"), 0.0)
        assert law.origin == "regular_weyl"
        assert law.alpha == pytest.approx(-1.0) and law.beta == 0

    def test_homogeneous_orders(self):
        k3 = predict_scaling(get_model("pseudo-k3"), 0.0)
        assert k3.origin == "homogeneous_critical"
        assert k3.alpha == pytest.approx(-1.0 / 3.0) and k3.beta == 0
        k4 = predict_scaling(get_model("pseudo-k4"), 0.0)
        assert k4.alpha == pytest.approx(-0.5) and k4.beta == 0

    def test_two_max_at_barrier_energy(self):
        # two barrier tops share the level: no isolated point to claim a law at
        with pytest.raises(HypothesisError, match="2 critical points on the level"):
            predict_scaling(get_model("two-max"), 4.0 / 27.0)

    @pytest.mark.parametrize("name, energy", [("harmonic", 0.0),
                                              ("pseudo-k3", -27.0 / 128.0)])
    def test_no_log_factor_at_a_minimum(self, name, energy):
        # the exponent ratio is 1 at both minima, but |log h| needs a point
        # that is not an extremum of p
        laws = scaling_branches(get_model(name), energy)
        assert [(l.alpha, l.beta) for l in laws] == [(0.0, 0), (0.0, 0)]
        law = predict_scaling(get_model(name), energy)
        assert (law.alpha, law.beta) == (0.0, 0)

    def test_critical_fit_at_the_harmonic_minimum(self, capsys, tmp_path):
        # the window [-5h, 5h] holds the levels h, 3h, 5h at every h
        csv_path = tmp_path / "scan.csv"
        assert main(["scan", "--model", "harmonic", "--h-from", "0.1", "--h-to", "1e-3",
                     "--h-steps", "8", "--ecenter", "0", "--out", str(csv_path)]) == 0
        assert {r.upsilon for r in scan_from_csv(csv_path.read_text()).rows} == {3.0}
        assert main(["fit", "--in", str(csv_path), "--law", "critical"]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert (fit["law"], fit["alpha_hat"], fit["beta_hat"]) == ("schrodinger_critical", 0.0, 0)
        assert fit["residual"] == 0.0 and fit["coeff_hat"] == pytest.approx(3.0)


class TestRunScan:
    def test_harmonic_counts_and_unit_ratio(self):
        scan = run_scan("harmonic", h_values=[0.05, 0.02, 0.01], observables=["1"])
        assert [r.h for r in scan.rows] == sorted([0.05, 0.02, 0.01], reverse=True)
        for r in scan.rows:
            assert r.ok
            assert r.upsilon == 5.0
            assert r.ratios[0] == pytest.approx(1.0, abs=1e-12)

    def test_radial_rejects_phase_space_observables(self):
        with pytest.raises(ConfigError):
            run_scan("radial-deg", h_values=[0.1, 0.05], observables=["xi^2"])

    def test_failed_row_recorded_scan_continues(self):
        scan = run_scan("pseudo-k3", h_values=[0.05, 1e-4])
        ok = {r.h: r.ok for r in scan.rows}
        assert ok[0.05] is True
        assert ok[1e-4] is False
        bad = [r for r in scan.rows if not r.ok][0]
        assert bad.error != "" and math.isnan(bad.upsilon)

    def test_coherent_frame_only_on_the_reference_route(self, monkeypatch):
        # mixed observables take the dense Weyl matrix up to DENSE_CAP points
        # and read no frame; past it, each takes the anti-Wick reference
        built = []
        frame = microlocal.build_coherent_frame
        monkeypatch.setattr(microlocal, "build_coherent_frame",
                            lambda *args: built.append(args) or frame(*args))
        obs = ["exp(-x^2-xi^2)", "x*xi"]
        assert run_scan("pseudo-k3", h_values=[0.05], observables=obs).rows[0].ok
        assert built == []
        monkeypatch.setattr(microlocal, "DENSE_CAP", 64)
        scan = run_scan("quad-max", h_values=[0.05], observables=obs)
        assert scan.rows[0].ok and scan.rows[0].n_grid > 64
        assert len(built) == 2

    def test_bad_h_grids(self):
        with pytest.raises(ConfigError):
            run_scan("harmonic", h_values=[])
        with pytest.raises(ConfigError):
            run_scan("harmonic", h_values=[0.1, -0.01])
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                run_scan("harmonic", h_values=[0.1, bad])

    def test_collapsed_window_rejected_up_front(self):
        # at E = 1, d*h = 5e-302 is below the floating-point spacing
        with pytest.raises(ConfigError, match="energy window"):
            run_scan("harmonic", h_values=[0.1, 0.05], d=1e-300)

    def test_grid_past_the_cap_is_a_row_error(self):
        # at E = 0 the window stays open, but its grid would need ~1e301 rows
        scan = run_scan("quad-max", h_values=[1e-300])
        assert scan.rows[0].error.startswith("grid needs")

    def test_defaults(self):
        fd = default_h_values("fd")
        assert len(fd) == 12 and fd[0] == pytest.approx(0.1)
        assert fd[-1] == pytest.approx(1e-3)
        assert all(a > b for a, b in zip(fd, fd[1:]))
        assert len(default_h_values("split")) == 8


class TestSolveWindow:
    """Scans, the spectrum command and the scenarios share one window builder."""

    @pytest.mark.parametrize("name,h", [("quad-max", 0.02), ("pseudo-k3", 0.05)])
    def test_scan_spectrum_and_scenario_windows_agree(self, capsys, name, h):
        model = get_model(name)
        win = solve_window(model, h, 0.0, vectors=False)
        assert win.count > 0
        (row,) = run_scan(name, h_values=[h], e_center=0.0).rows
        assert (row.n_grid, row.upsilon, row.tie) == (win.grid.n, win.count, win.has_ties)

        assert main(["spectrum", "--model", name, "--h", str(h), "--ecenter", "0"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert [l.split(",")[1] for l in lines[1:]] == [format(float(v), ".12g")
                                                        for v in win.eigenvalues]

        # scenario windows size every box from the largest h of their grid
        shared = solve_window(model, h, 0.0, h_max=0.1)
        row = run_scan(name, h_values=[0.1, h], e_center=0.0).rows[1]
        assert (row.n_grid, row.upsilon) == (shared.grid.n, shared.count)
        assert shared.grid.n >= win.grid.n
        assert shared.vectors.shape == (shared.grid.n, shared.count)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_radial_window_joins_the_channels(self, vectors):
        model, h = get_model("radial-deg"), 0.05
        win = solve_window(model, h, 0.0, vectors=vectors, values=vectors)
        chans = radial_channels(model.potential, h, -5.0 * h, 5.0 * h,
                                vectors=vectors, values=vectors)
        parts = [c.window for c in chans]
        assert len(chans) > 1 and win.count > 0
        assert np.array_equal(win.eigenvalues, np.concatenate([w.eigenvalues for w in parts]),
                              equal_nan=True)
        assert np.array_equal(win.edge_flags, np.concatenate([w.edge_flags for w in parts]))
        assert win.count_check == sum(w.count_check for w in parts)
        assert win.m.tolist() == [c.m for c in chans for _ in range(c.window.count)]
        assert win.grid == parts[0].grid
        assert microlocal.upsilon(win) == sum(c.weight * c.window.count for c in chans)
        if vectors:
            assert np.array_equal(win.vectors, np.hstack([w.vectors for w in parts]))
        else:
            assert win.vectors is None and np.isnan(win.eigenvalues).all()
        with pytest.raises(ConfigError, match="own grid"):
            solve_window(model, h, 0.0, grid=Grid1D(0.0, 1.0, 64, "dirichlet"))

    def test_routes_without_a_1d_window_are_config_errors(self):
        mixed = SymbolModel(name="mixed", family="phase1d", phase_poly=PhasePolynomial(
            ((2, 0, 1.0), (0, 2, 1.0), (1, 1, 0.5))))
        with pytest.raises(ConfigError):
            solve_window(mixed, 0.05, 1.0)
        (row,) = run_scan(mixed, h_values=[0.05], e_center=1.0).rows
        assert "mixed" in row.error

    def test_allowed_set_past_the_search_edge_is_refused(self):
        # the wells of -x^2 + 0.001 x^4 run out to |x| = 31.5 at the box
        # energy -9, past the search edge 12: the grid once boxed the barrier
        # between the innermost turning points and counted 2 states there
        wide = SymbolModel("wide", "schrodinger1d", potential=Polynomial1D((0, 0, -1, 0, 0.001)))
        with pytest.raises(NumericalError, match="search edge"):
            solve_window(wide, 0.02, -10.0)
        rows = run_scan(wide, [0.02, 0.01, 0.005], e_center=-10.0).rows
        assert len(rows) == 3
        assert all("search edge" in row.error and math.isnan(row.upsilon) for row in rows)

    @pytest.mark.parametrize("name", ["harmonic", "radial-deg"])
    @pytest.mark.parametrize("ppw", [0, -2])
    def test_ppw_below_one_refused(self, name, ppw):
        # ppw = 0 once divided by zero in resolution_dx before any refusal
        with pytest.raises(ConfigError, match="ppw"):
            solve_window(get_model(name), 0.05, 0.0, ppw=ppw, vectors=False)

    @pytest.mark.parametrize("name", ["harmonic", "radial-deg", "pseudo-k3"])
    @pytest.mark.parametrize("h_max", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_h_max_refused(self, name, h_max):
        with pytest.raises(ConfigError, match="h_max"):
            solve_window(get_model(name), 0.05, 0.0, h_max=h_max, vectors=False)


class TestCsvRoundTrip:
    def test_byte_identical(self):
        scan = run_scan("harmonic", h_values=[0.05, 0.02], observables=["exp(-x^2)"])
        text = scan_to_csv(scan)
        back = scan_from_csv(text)
        # every column but the ratios comes back byte for byte; the ratios are
        # derived from the 12-digit counts read back, so they may move in
        # their last printed digit, and a second round trip changes nothing
        again = scan_to_csv(back)
        ratio = lambda t: [line.split(",")[-1] for line in t.splitlines()[8:]]
        keep = lambda t: [line.rsplit(",", 1)[0] for line in t.splitlines()]
        assert keep(again) == keep(text)
        assert scan_to_csv(scan_from_csv(again)) == again
        for b, s in zip(ratio(again), ratio(text)):
            assert float(b) == pytest.approx(float(s), rel=1e-11)
        assert back.observable_ids == scan.observable_ids
        assert [r.h for r in back.rows] == [r.h for r in scan.rows]
        assert [r.upsilon for r in back.rows] == [r.upsilon for r in scan.rows]
        for b, s in zip(back.rows, scan.rows):
            assert b.upsilon_obs[0] == pytest.approx(s.upsilon_obs[0], rel=1e-11)

    def test_tampered_ratio_and_route_are_not_read(self):
        # once a ratio column edited to 7.0 came back as ratios[0] == 7.0, and
        # a route line contradicting the family was kept as is
        scan = run_scan("harmonic", h_values=[0.05, 0.02, 0.01], observables=["x^2"])
        text = scan_to_csv(scan)
        lines = text.splitlines()
        lines[8] = lines[8].rsplit(",", 1)[0] + ",7.0"
        tampered = "\n".join(lines).replace("# route=fd", "# route=radial") + "\n"
        honest, back = scan_from_csv(text), scan_from_csv(tampered)
        assert back.route == honest.route == "fd"
        assert back.rows[0].ratios == honest.rows[0].ratios != (7.0,)
        assert ratio_limit(back, "x^2") == ratio_limit(honest, "x^2")

    def test_missing_metadata_rejected(self):
        scan = run_scan("harmonic", h_values=[0.05, 0.02])
        text = scan_to_csv(scan)
        stripped = "\n".join(l for l in text.splitlines() if not l.startswith("# model"))
        with pytest.raises(ConfigError):
            scan_from_csv(stripped)


def _rows(hs, us):
    return list(zip(hs, us))


class TestFitScaling:
    hs = np.geomspace(0.1, 1e-3, 10)

    @pytest.mark.parametrize("us,alpha,beta", [
        (3.7 * np.geomspace(0.1, 1e-3, 10) ** -0.25, -0.25, 0),
        (2.0 * np.abs(np.log(np.geomspace(0.1, 1e-3, 10))), 0.0, 1),
        (1.2 + 3.7 * np.geomspace(0.1, 1e-3, 10) ** -0.25, -0.25, 0),
        (0.8 * np.geomspace(0.1, 1e-3, 10) ** -1.0, -1.0, 0),
        (0.5 + 1.3 * np.abs(np.log(np.geomspace(0.1, 1e-3, 10))), 0.0, 1),
    ])
    def test_synthetic_recovery(self, us, alpha, beta):
        fit = fit_scaling(_rows(self.hs, us))
        assert fit.alpha_hat == pytest.approx(alpha, abs=0.01)
        assert fit.beta_hat == beta

    def test_stable_under_dropping_any_row(self):
        us = 3.7 * self.hs**-0.25
        base = fit_scaling(_rows(self.hs, us)).alpha_hat
        for skip in range(len(self.hs)):
            rows = [(h, u) for i, (h, u) in enumerate(zip(self.hs, us)) if i != skip]
            assert abs(fit_scaling(rows).alpha_hat - base) < 0.05

    def test_too_few_rows(self):
        with pytest.raises(ConfigError):
            fit_scaling(_rows(self.hs[:4], 3.7 * self.hs[:4] ** -0.25))

    def test_too_narrow_range(self):
        hs = np.geomspace(0.1, 0.02, 8)
        with pytest.raises(ConfigError):
            fit_scaling(_rows(hs, 3.7 * hs**-0.25))

    def test_candidate_mode_picks_matching_branch(self):
        us = 3.7 * self.hs**-0.25
        cands = scaling_branches(get_model("deg-max"), 0.0)
        fit = fit_scaling(_rows(self.hs, us), candidates=cands)
        assert fit.law == "schrodinger_critical"
        assert fit.alpha_hat == pytest.approx(-0.25)
        assert fit.coeff_hat == pytest.approx(3.7, rel=1e-6)

    def test_burn_in_on_measured_scan(self):
        scan = run_scan("deg-max")  # default grid, 12 points over two decades
        fit = fit_scaling(scan)
        assert fit.burned >= 3  # rows with d*h beyond the well level 4/27
        assert fit.beta_hat == 0
        assert -0.35 < fit.alpha_hat < -0.18

    def test_log_coefficient_linear_recovery(self):
        us = 2.0 + 1.5 * np.abs(np.log(self.hs))
        a, b = fit_log_coefficient(_rows(self.hs, us))
        assert a == pytest.approx(2.0, abs=1e-9)
        assert b == pytest.approx(1.5, abs=1e-9)


    def test_model_outside_the_catalog_fits_without_burn_in(self):
        # deg-max has a second critical level at E = 4/27, which the three
        # rows with d*h > 4/27 reach; a scan read back under a name the
        # catalog does not know has no critical levels to burn in against
        hs = np.geomspace(0.1, 1e-3, 12)
        rows = tuple(ScanRow(h=float(h), n_grid=100, upsilon=float(3.7 * h ** -0.25),
                             upsilon_obs=(), residual_max=0.0, tie=False)
                     for h in hs)
        scan = ScanResult(model="deg-max", family="schrodinger1d", e_center=0.0, d=5.0,
                          ppw=64, observable_ids=(), rows=rows)
        assert fit_scaling(scan).burned == 3
        text = scan_to_csv(scan).replace("# model=deg-max", "# model=lab-made")
        fit = fit_scaling(scan_from_csv(text))
        assert fit.burned == 0 and fit.n_rows == 12
        assert fit.alpha_hat == pytest.approx(-0.25, abs=0.01)


class TestLineFit:
    def test_matches_polyfit_on_a_random_line(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(-3.0, 5.0, 20)
        y = 1.7 - 0.6 * w + rng.normal(scale=0.1, size=w.size)
        a, b = _line_fit(w, y)
        slope, intercept = np.polyfit(w, y, 1)
        assert a == pytest.approx(intercept, rel=1e-12)
        assert b == pytest.approx(slope, rel=1e-12)

    def test_fits_each_column_of_a_two_column_right_hand_side(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.0, 4.0, 15)
        y = np.column_stack([2.0 + 3.0 * w, -1.0 + 0.5 * w]) + rng.normal(
            scale=0.05, size=(w.size, 2))
        a, b = _line_fit(w, y)
        for k in range(2):
            slope, intercept = np.polyfit(w, y[:, k], 1)
            assert a[k] == pytest.approx(intercept, rel=1e-12)
            assert b[k] == pytest.approx(slope, rel=1e-12)

    def test_log_log_slope_leaves_out_values_without_a_logarithm(self):
        hs = np.geomspace(0.1, 1e-3, 6)
        vals = 4.0 * hs**0.75
        assert _log_log_slope(hs, vals) == pytest.approx(0.75, rel=1e-12)
        holed = vals.copy()
        holed[[1, 4]] = (0.0, math.nan)
        assert _log_log_slope(hs, holed) == pytest.approx(0.75, rel=1e-12)
        with pytest.raises(NumericalError, match="3 positive"):
            _log_log_slope(hs[:3], [1.0, 0.0, -1.0])


class TestRatioLimit:
    def _fake_scan(self, model, obs_id, hs, ratios, e_center=0.0):
        rows = tuple(
            ScanRow(h=float(h), n_grid=100, upsilon=10.0, upsilon_obs=(10.0 * q,),
                    residual_max=0.0, tie=False)
            for h, q in zip(hs, ratios))
        return ScanResult(model=model, family="any", e_center=e_center, d=5.0,
                          ppw=64, observable_ids=(obs_id,), rows=rows)

    def test_radial_liouville_target(self):
        scan = run_scan("radial-deg", h_values=np.geomspace(0.1, 0.01, 6),
                        observables=["exp(-x^2)"])
        lim = ratio_limit(scan, scan.observable_ids[0], target="liouville", tol=0.15)
        assert lim.target_value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
        assert lim.trend_exponent > 0
        assert lim.gap_at_h_min < 0.1
        assert lim.converged

    def test_divergent_target_rejected(self):
        obs = parse_observable("exp(-x^2 - xi^2)")
        scan = self._fake_scan("quad-max", obs.id, [0.1, 0.05, 0.02], [0.5, 0.6, 0.7])
        with pytest.raises(NumericalError):
            ratio_limit(scan, obs.id, target="liouville")

    def test_dirac_target_needs_critical_point(self):
        obs = parse_observable("exp(-x^2 - xi^2)")
        scan = self._fake_scan("harmonic", obs.id, [0.1, 0.05, 0.02],
                               [0.5, 0.6, 0.7], e_center=1.0)
        with pytest.raises(ConfigError):
            ratio_limit(scan, obs.id, target="dirac")

    def test_dirac_target_value_and_trend(self):
        obs = parse_observable("exp(-x^2 - xi^2)")
        scan = self._fake_scan("pseudo-k3", obs.id, [0.1, 0.05, 0.02],
                               [0.5, 0.75, 0.9])
        lim = ratio_limit(scan, obs.id, target="dirac")
        assert lim.target_value == pytest.approx(1.0)
        assert lim.trend_exponent > 0
        assert lim.gaps[-1] == pytest.approx(0.1)

    def test_unknown_observable(self):
        scan = run_scan("harmonic", h_values=[0.05, 0.02])
        with pytest.raises(ConfigError):
            ratio_limit(scan, "exp(-x^2)")


class TestSingularLimit:
    obs_id = parse_observable("exp(-x^2 - xi^2)").id
    # below d h = 0.105, the nearest other critical level of pseudo-k3, so
    # the burn-in keeps every row
    hs = np.geomspace(2e-2, 1e-3, 8)

    def _scan(self, us, uas, model="pseudo-k3"):
        rows = tuple(
            ScanRow(h=float(h), n_grid=100, upsilon=float(u), upsilon_obs=(float(ua),),
                    residual_max=0.0, tie=False)
            for h, u, ua in zip(self.hs, us, uas))
        return ScanResult(model=model, family="phase1d", e_center=0.0, d=5.0,
                          ppw=64, observable_ids=(self.obs_id,),
                          rows=rows)

    def test_recovers_coefficient_ratio(self):
        w = self.hs ** (-1.0 / 3.0)
        mu = 0.93
        scan = self._scan(6.6 + 1.6 * w, -2.0 + mu * 1.6 * w)
        lim = singular_limit(scan, self.obs_id, target="dirac", tol=0.15)
        assert (lim.alpha, lim.beta) == (pytest.approx(-1.0 / 3.0), 0)
        assert lim.coeff == pytest.approx(1.6, rel=1e-10)
        assert lim.offset_a == pytest.approx(-2.0, rel=1e-10)
        assert lim.limit == pytest.approx(mu, rel=1e-10)
        assert lim.gap == pytest.approx(1.0 - mu, rel=1e-8)
        assert lim.passed
        assert lim.burned == 0 and len(lim.h) == self.hs.size

    def test_limit_off_target_is_a_miss(self):
        w = self.hs ** (-1.0 / 3.0)
        scan = self._scan(6.6 + 1.6 * w, 1.0 + 0.6 * 1.6 * w)
        lim = singular_limit(scan, self.obs_id, target="dirac", tol=0.15)
        assert lim.limit == pytest.approx(0.6, rel=1e-10)
        assert lim.gap == pytest.approx(0.4, rel=1e-8)
        assert not lim.passed

    def test_gate_runs_once(self, monkeypatch):
        # the Dirac target and the predicted law read the same admitted point
        gate, calls = experiments.isolated_critical_point, []
        monkeypatch.setattr(experiments, "isolated_critical_point",
                            lambda *args: calls.append(args) or gate(*args))
        w = self.hs ** (-1.0 / 3.0)
        lim = singular_limit(self._scan(6.6 + 1.6 * w, -2.0 + 0.93 * 1.6 * w), self.obs_id)
        assert lim.passed and len(calls) == 1

    def test_count_without_singular_growth_is_refused(self):
        w = self.hs ** (-1.0 / 3.0)
        scan = self._scan(20.0 - 0.5 * w, 10.0 - 0.5 * w)
        lim = singular_limit(scan, self.obs_id, target="dirac", tol=0.15)
        assert lim.coeff < 0.0
        assert math.isnan(lim.limit) and math.isnan(lim.gap)
        assert not lim.passed

    def test_constant_count_law_rejected(self):
        obs = parse_observable("exp(-x^2)")
        rows = tuple(ScanRow(h=h, n_grid=100, upsilon=5.0, upsilon_obs=(2.0,),
                             residual_max=0.0, tie=False)
                     for h in (0.05, 0.02, 0.01))
        scan = ScanResult(model="harmonic", family="schrodinger1d", e_center=1.0,
                          d=5.0, ppw=64, observable_ids=(obs.id,),
                          rows=rows)
        with pytest.raises(ConfigError):
            singular_limit(scan, obs.id, target="liouville")

    def test_radial_limit_is_liouville_not_dirac(self):
        scan = run_scan("radial-deg", h_values=np.geomspace(0.1, 0.01, 10),
                        observables=["exp(-x^2)"])
        dirac = singular_limit(scan, "exp(-x^2)", target="dirac", tol=0.15)
        liouville = singular_limit(scan, "exp(-x^2)", target="liouville", tol=0.15)
        assert dirac.limit == pytest.approx(liouville.limit)
        assert dirac.gap > 0.3 and not dirac.passed
        assert liouville.gap < 0.05 and liouville.passed


class TestLogDecaySlope:
    def test_regular_energy_spread_does_not_decay(self):
        scan = run_scan("quad-max", h_values=np.geomspace(0.1, 1e-3, 10),
                        observables=["x^2"], e_center=0.5)
        assert log_decay_slope(scan, "x^2") <= 0.0

    def test_recovers_log_slope(self):
        obs = parse_observable("x^2")
        hs = np.geomspace(0.1, 1e-3, 8)
        spreads = 1.0 / (1.2 + 0.5 * np.abs(np.log(hs)))
        rows = tuple(ScanRow(h=float(h), n_grid=100, upsilon=10.0,
                             upsilon_obs=(10.0 * s,), residual_max=0.0, tie=False)
                     for h, s in zip(hs, spreads))
        scan = ScanResult(model="harmonic", family="schrodinger1d", e_center=1.0,
                          d=5.0, ppw=64, observable_ids=(obs.id,),
                          rows=rows)
        assert log_decay_slope(scan, obs.id) == pytest.approx(0.5, rel=1e-9)


class TestTwoWells:
    def test_parity_split_is_half(self):
        res = two_wells_experiment(h_values=(0.05, 0.03))
        assert res.model == "two-max"
        assert res.e_center == pytest.approx(4.0 / 27.0, abs=1e-9)
        assert res.x_crit == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert res.worst_asymmetry < 1e-3
        for row in res.rows:
            assert row.count > 0
            assert len(row.state_splits) == row.count
            for _, share in row.state_splits:
                assert 0.0 <= share <= 1.0
