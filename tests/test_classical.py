"""Liouville integrals, divergence probes, level-set topology, flows."""

import math
from dataclasses import replace

import numpy as np
import pytest

import semiclab.classical as classical
from semiclab.classical import (
    COAREA_RESOLUTION,
    FLOW_DRIFT_TOL,
    FLOW_PROBE,
    _band_box,
    _march,
    allowed_intervals,
    classify_integrability,
    coarea_area,
    coarea_check,
    flow_points,
    level_volume,
    levelset_components,
    levelset_connected,
    liouville_integral,
    mu_average,
)
from semiclab.eig import eigs_in_window
from semiclab.errors import ConfigError, NumericalError
from semiclab.microlocal import default_frame
from semiclab.model import (
    PhasePolynomial,
    Polynomial1D,
    SymbolModel,
    find_critical_points,
    get_model,
)
from semiclab.quantize import build_split, grid_for_split


def phase_model(terms):
    m = SymbolModel(name="tmp", family="phase1d",
                    phase_poly=PhasePolynomial(terms))
    return replace(m, critical_points=find_critical_points(m))


class TestSchrodinger1D:
    def test_harmonic_volume_is_pi(self):
        harm = get_model("harmonic")
        for e in (0.5, 1.0, 2.0):
            r = level_volume(harm, e)
            assert not r.divergent
            assert r.value == pytest.approx(math.pi, rel=1e-10)

    def test_position_average_by_symmetry(self):
        harm = get_model("harmonic")
        # x^2 and xi^2 split the energy shell evenly
        assert mu_average(harm, lambda x, xi: x**2, 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_gaussian_average_on_circle(self):
        # the symbol exp(-x^2 - xi^2) is constant on the E=1 shell
        harm = get_model("harmonic")
        got = mu_average(harm, lambda x, xi: np.exp(-(x**2) - xi**2), 1.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_quartic_volume_closed_form(self):
        # integral dx / sqrt(1 - x^4) = Gamma(1/4)^2 / (2 sqrt(2 pi))
        quart = SymbolModel(name="quartic", family="schrodinger1d",
                            potential=Polynomial1D((0, 0, 0, 0, 1.0)))
        exact = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(2.0 * math.pi))
        assert level_volume(quart, 1.0).value == pytest.approx(exact, rel=1e-10)

    def test_empty_level_set(self):
        harm = get_model("harmonic")
        r = level_volume(harm, -0.5)
        assert r.value == 0.0 and not r.divergent

    def test_allowed_intervals(self):
        harm = get_model("harmonic")
        (lo, hi), = allowed_intervals(harm.potential, 1.0)
        assert lo == pytest.approx(-1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)
        three = allowed_intervals(get_model("two-max").potential, 0.05)
        assert len(three) == 3


class TestDivergenceProbe:
    def test_quartic_maximum_diverges(self):
        r = level_volume(get_model("deg-max"), 0.0, allow_critical=True)
        assert r.divergent and r.value == math.inf
        # local shape -x^4: shell ratio converges to 2
        assert r.shell_ratios[-1] == pytest.approx(2.0, abs=0.05)

    def test_quadratic_maximum_log_diverges(self):
        r = level_volume(get_model("quad-max"), 0.0, allow_critical=True)
        assert r.divergent
        assert r.shell_ratios[-1] == pytest.approx(1.0, abs=0.02)

    def test_critical_energy_needs_opt_in(self):
        with pytest.raises(ConfigError):
            level_volume(get_model("deg-max"), 0.0)

    def test_finite_above_critical(self):
        r = level_volume(get_model("deg-max"), 0.1)
        assert not r.divergent and 0 < r.value < math.inf

    def test_average_refuses_divergent_shell(self):
        with pytest.raises(NumericalError):
            mu_average(get_model("deg-max"), lambda x, xi: x**2, 0.0)

    def test_probe_shortcut(self):
        assert level_volume(get_model("quad-max"), 0.0, allow_critical=True).divergent
        assert not level_volume(get_model("harmonic"), 1.0, allow_critical=True).divergent


class TestIntegrabilityClass:
    def test_potential_families(self):
        one_d = get_model("quad-max")
        cp = [c for c in one_d.critical_points if abs(c.critical_energy) < 1e-12][0]
        assert classify_integrability(cp, one_d) == "non_integrable"
        rad = get_model("radial-deg")
        cpr = [c for c in rad.critical_points if abs(c.critical_energy) < 1e-12][0]
        assert classify_integrability(cpr, rad) == "integrable"

    def test_phase_orders(self):
        k3 = get_model("pseudo-k3")
        cp3 = [c for c in k3.critical_points if abs(c.critical_energy) < 1e-12][0]
        assert classify_integrability(cp3, k3) == "non_integrable"
        circ = phase_model(((2, 0, 1.0), (0, 2, 1.0)))
        cp2 = circ.critical_points[0]
        assert classify_integrability(cp2, circ) == "logarithmic_borderline"

    def test_matches_numeric_probe(self):
        # closed-form class against the dyadic-shell measurement
        for name in ("quad-max", "deg-max", "pseudo-k3", "pseudo-k4"):
            m = get_model(name)
            cp = [c for c in m.critical_points if abs(c.critical_energy) < 1e-12][0]
            label = classify_integrability(cp, m)
            probed = level_volume(m, 0.0, allow_critical=True).divergent
            assert (label != "integrable") == probed


class TestRadial2D:
    def test_volume_at_critical_energy(self):
        # allowed disc 0 < r < 1: 2 pi^2 * integral r dr = pi^2
        rd = get_model("radial-deg")
        r = level_volume(rd, 0.0)
        assert not r.divergent  # planar area element tames the critical point
        assert r.value == pytest.approx(np.pi**2, rel=1e-9)

    def test_radial_average(self):
        rd = get_model("radial-deg")
        got = mu_average(rd, lambda r, s: np.exp(-(r**2)), 0.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)


class TestPhasePlane:
    def test_circle_volume(self):
        circ = phase_model(((2, 0, 1.0), (0, 2, 1.0)))
        r = level_volume(circ, 1.0)
        assert not r.divergent
        assert r.value == pytest.approx(math.pi, abs=5e-4)

    def test_cubic_crossing_diverges(self):
        r = level_volume(get_model("pseudo-k3"), 0.0, allow_critical=True)
        assert r.divergent
        assert r.shell_ratios[-1] == pytest.approx(2.0, abs=0.1)

    def test_quartic_crossing_diverges_faster(self):
        r = level_volume(get_model("pseudo-k4"), 0.0, allow_critical=True)
        assert r.divergent
        assert r.shell_ratios[-1] == pytest.approx(4.0, abs=0.2)

    def test_regular_energy_finite(self):
        r = level_volume(get_model("pseudo-k3"), 0.5)
        assert not r.divergent and r.value > 0

    def test_phase_average_matches_1d_route(self):
        # same symbol through the marching-squares route and the turning
        # point quadrature route
        circ = phase_model(((2, 0, 1.0), (0, 2, 1.0)))
        harm = get_model("harmonic")
        a = lambda x, xi: 1.0 + 0.3 * x**2
        v_phase = liouville_integral(circ, a, 1.0).value
        v_1d = liouville_integral(harm, a, 1.0).value
        assert v_phase == pytest.approx(v_1d, rel=2e-3)


class TestMarch:
    @pytest.mark.parametrize("sign, energy, pairs", [
        (1.0, 0.5, {(0, 2), (1, 3)}),  # code 10, centre inside
        (1.0, -0.5, {(0, 3), (1, 2)}),  # code 10, centre outside
        (-1.0, 0.5, {(0, 3), (1, 2)}),  # code 5, centre inside
        (-1.0, -0.5, {(0, 2), (1, 3)})])  # code 5, centre outside
    def test_saddle_cell_follows_centre(self, sign, energy, pairs):
        # one cell of p = +-x xi on [-1, 1]^2; edge ids: bottom 0, top 1,
        # left 2, right 3.  The two corners on the centre's side stay joined.
        m = phase_model(((1, 1, sign),))
        ends, _, _ = _march(m, energy, (-1.0, 1.0, -1.0, 1.0), 1)
        assert {tuple(sorted(e)) for e in ends.tolist()} == pairs


class TestComponents:
    def test_single_oval(self):
        assert levelset_components(get_model("harmonic"), 1.0) == 1

    def test_two_wells_below_barrier(self):
        assert levelset_components(get_model("deg-max"), -0.07) == 2

    def test_figure_eight_is_connected(self):
        # at the critical energy the two loops share the node at the origin
        assert levelset_components(get_model("deg-max"), 0.0) == 1

    def test_three_ovals(self):
        assert levelset_components(get_model("two-max"), 0.05) == 3

    def test_single_curve_above_barriers(self):
        assert levelset_components(get_model("two-max"), 0.2) == 1

    def test_empty(self):
        assert levelset_components(get_model("harmonic"), -1.0) == 0

    @pytest.mark.parametrize("name, energy", [
        ("pseudo-k3", 0.0), ("pseudo-k4", 0.0), ("two-max", 4 / 27)])
    def test_branches_joined_at_critical_point(self, name, energy):
        # the local branches through the critical point form one closed set
        assert levelset_components(get_model(name), energy) == 1

    def test_connected_wrapper(self):
        ok, count = levelset_connected(get_model("deg-max"), -0.07)
        assert not ok and count == 2
        ok, count = levelset_connected(get_model("harmonic"), 1.0)
        assert ok and count == 1


def meshgrid_band_area(model, e_lo, e_hi):
    """Reference band count: the symbol on full meshgrid arrays."""
    x0, x1, y0, y1 = _band_box(model, e_hi)
    xs = np.linspace(x0, x1, COAREA_RESOLUTION + 1)
    ys = np.linspace(y0, y1, COAREA_RESOLUTION + 1)
    xx, yy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]), indexing="ij")
    if model.family == "phase1d":
        p = model.phase_poly(xx, yy)
    else:
        p = yy**2 + model.potential(xx)
    band = (p >= e_lo) & (p <= e_hi)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    if model.family == "radial2d":
        return float(np.sum(4.0 * np.pi**2 * xx[band] * yy[band]) * cell)
    return float(np.count_nonzero(band)) * cell


class TestCoarea:
    @pytest.mark.parametrize("name, e_lo, e_hi", [
        ("harmonic", 0.8, 1.2), ("radial-deg", 0.05, 0.15), ("pseudo-k3", 0.1, 0.3)])
    def test_area_matches_meshgrid_reference(self, name, e_lo, e_hi):
        model = get_model(name)
        assert coarea_area(model, e_lo, e_hi) == meshgrid_band_area(model, e_lo, e_hi)

    @pytest.mark.parametrize("name", ["harmonic", "radial-deg", "pseudo-k3"])
    def test_empty_band_raises(self, name):
        with pytest.raises(NumericalError, match="empty band below E=-4"):
            coarea_area(get_model(name), -5.0, -4.0)

    def test_harmonic_band(self):
        # area of the annulus {0.5 <= x^2 + xi^2 <= 1} is pi/2
        rep = coarea_check(get_model("harmonic"), 0.5, 1.0)
        assert rep["band_integral"] == pytest.approx(math.pi / 2, rel=1e-6)
        assert rep["rel_diff"] < 0.01

    def test_radial_band(self):
        rep = coarea_check(get_model("radial-deg"), -0.1, -0.02)
        assert rep["rel_diff"] < 0.01


def egorov_lattice(h=0.05, energy=0.5):
    """The coherent lattice ``egorov_defect`` flows for quad-max's window."""
    qm = get_model("quad-max")
    xi_sq = Polynomial1D((0.0, 0.0, 1.0))
    grid = grid_for_split(qm.potential, xi_sq, h, energy, d=5.0)
    win = eigs_in_window(build_split(qm.potential, xi_sq, h, grid),
                         energy - 5 * h, energy + 5 * h)
    frame = default_frame(win)
    return qm, frame.x_centers[:, None], frame.xi_centers[None, :]


def halving_loop(model, x0, xi0, t):
    """flow_points without its probe: every attempt flows every point."""
    e0 = model.eval(x0, xi0)
    scale = 1.0 + float(np.max(np.abs(e0)))
    V_prime = model.potential.derivative()
    dt0 = 1e-3 * max(abs(t), 1.0)
    for attempt in range(7):
        x1, xi1 = classical._verlet(V_prime, x0, xi0, t, dt0 * 0.5**attempt)
        drift = float(np.max(np.abs(model.eval(x1, xi1) - e0)))
        if drift <= FLOW_DRIFT_TOL * scale:
            return x1, xi1, drift
    raise NumericalError("no step passed")


class TestFlows:
    def test_probe_keeps_the_result_bit_for_bit(self):
        qm, x, xi = egorov_lattice()
        xx, ss = np.broadcast_arrays(x, xi)
        ref_x, ref_xi, ref_drift = halving_loop(qm, xx.ravel(), ss.ravel(), 0.5)
        res = flow_points(qm, x, xi, 0.5)
        assert np.array_equal(res.x.ravel(), ref_x)
        assert np.array_equal(res.xi.ravel(), ref_xi)
        assert res.energy_drift == ref_drift

    def test_probe_rejects_steps_before_the_full_lattice_runs(self, monkeypatch):
        qm, x, xi = egorov_lattice()
        size = x.size * xi.size
        assert size > FLOW_PROBE
        verlet = classical._verlet
        seen = []

        def spy(V_prime, x0, xi0, t, dt):
            seen.append((np.size(x0), dt))
            return verlet(V_prime, x0, xi0, t, dt)

        monkeypatch.setattr(classical, "_verlet", spy)
        flow_points(qm, x, xi, 0.5)
        # without the probe the lattice is flowed at 1e-3, 5e-4 and 2.5e-4;
        # the probe's drift at 5e-4 is within 4x the tolerance, so 2.5e-4
        # goes to the lattice unprobed
        assert [dt for n, dt in seen if n == size] == [1e-3 * 0.5**2]
        assert [(n, dt) for n, dt in seen if n != size] == [(FLOW_PROBE, 1e-3),
                                                            (FLOW_PROBE, 5e-4)]

    def test_last_attempt_flows_every_point(self, monkeypatch):
        qm = get_model("quad-max")
        x, xi = np.linspace(-0.8, 0.8, 100), np.linspace(-0.5, 0.5, 100)
        verlet = classical._verlet
        sizes = []

        def spy(V_prime, x0, xi0, t, dt):
            sizes.append(np.size(x0))
            return verlet(V_prime, x0, xi0, t, dt)

        monkeypatch.setattr(classical, "_verlet", spy)
        monkeypatch.setattr(classical, "FLOW_DRIFT_TOL", 1e-30)
        with pytest.raises(NumericalError, match="after 6 step halvings"):
            flow_points(qm, x, xi, 0.1)
        assert sizes == [FLOW_PROBE] * 6 + [x.size]

    def test_harmonic_period(self):
        # dx/dt = 2 xi gives angular speed 2: the orbit closes at t = pi
        harm = get_model("harmonic")
        res = flow_points(harm, [1.0, 0.3], [0.0, -0.2], math.pi,
                          check_reversibility=True)
        assert np.max(np.abs(res.x - [1.0, 0.3])) < 1e-4
        assert np.max(np.abs(res.xi - [0.0, -0.2])) < 1e-4
        assert res.reversibility_error < 1e-9

    def test_energy_drift_bound(self):
        qm = get_model("quad-max")
        x = np.linspace(-0.8, 0.8, 9)
        xi = np.linspace(-0.5, 0.5, 9)
        res = flow_points(qm, x, xi, 2.0)
        e = qm.eval(x, xi)
        assert res.energy_drift <= 1e-6 * (1.0 + np.max(np.abs(e)))

    def test_rotation_in_closed_form(self):
        harm = get_model("harmonic")
        x0, xi0 = np.array([0.7]), np.array([-0.4])
        t = 0.37
        a = lambda x, xi: x**2 - xi
        res = flow_points(harm, x0, xi0, t)
        got = a(res.x, res.xi)
        c, s = math.cos(2 * t), math.sin(2 * t)
        xt, xit = x0 * c + xi0 * s, -x0 * s + xi0 * c
        assert got[0] == pytest.approx(float(a(xt, xit)[0]), abs=1e-5)

    def test_split_and_general_steppers_agree(self):
        qm = get_model("quad-max")
        pp = phase_model(((0, 2, 1.0), (2, 0, -1.0), (4, 0, 1.0)))
        r1 = flow_points(qm, [0.3], [0.1], 0.5)
        r2 = flow_points(pp, [0.3], [0.1], 0.5)
        assert abs(r1.x[0] - r2.x[0]) < 1e-6
        assert abs(r1.xi[0] - r2.xi[0]) < 1e-6

    def test_reversibility_on_anharmonic_orbit(self):
        dm = get_model("deg-max")
        res = flow_points(dm, [0.5], [0.1], 1.5, check_reversibility=True)
        assert res.reversibility_error < 1e-9
