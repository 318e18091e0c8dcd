"""Per-state measure routes, counting functions, flow invariance."""

import numpy as np
import pytest

from semiclab.eig import eigs_in_window, radial_channels
from semiclab.errors import NumericalError
from semiclab.microlocal import (
    antiwick_averages,
    default_frame,
    egorov_defect,
    microlocal_records,
    radial_state_averages,
    upsilon,
    upsilon_a,
    weyl_averages,
)
from semiclab.model import Polynomial1D, get_model
from semiclab.observables import parse_observable
from semiclab.quantize import build_schrodinger, grid_for_schrodinger, grid_for_split, build_split

XI_SQ = Polynomial1D((0.0, 0.0, 1.0))


def harmonic_window(h, ppw=160, d=5.0):
    V = get_model("harmonic").potential
    grid = grid_for_schrodinger(V, h, 1.0, d=d, ppw=ppw)
    op = build_schrodinger(V, h, grid)
    return eigs_in_window(op, 1.0 - d * h, 1.0 + d * h)


class TestWeylRoutes:
    def test_constant_symbol_averages_to_one(self):
        win = harmonic_window(0.05, ppw=64)
        vals, method = weyl_averages(win, parse_observable("1"))
        assert method == "diagonal"
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_odd_symbol_vanishes_by_parity(self):
        win = harmonic_window(0.05, ppw=64)
        vals, _ = weyl_averages(win, parse_observable("x"))
        assert np.max(np.abs(vals)) < 1e-6

    def test_virial_split_between_position_and_momentum(self):
        # on E = lambda: <x^2> = <xi^2> = lambda / 2 for the harmonic symbol;
        # the sum reproduces lambda up to the finite-difference symbol error
        win = harmonic_window(0.05)
        x2, mx = weyl_averages(win, parse_observable("x^2"))
        s2, ms = weyl_averages(win, parse_observable("xi^2"))
        assert mx == "diagonal" and ms == "multiplier"
        lam = win.eigenvalues
        assert np.max(np.abs(x2 + s2 - lam)) < 1e-4
        assert np.max(np.abs(x2 - lam / 2)) < 2e-3
        assert np.max(np.abs(s2 - lam / 2)) < 2e-3

    def test_split_route_is_exact_on_spectral_operator(self):
        h = 0.05
        f = Polynomial1D((0.0, 0.0, 1.0))
        grid = grid_for_split(f, XI_SQ, h, 1.0, d=5.0)
        op = build_split(f, XI_SQ, h, grid)
        win = eigs_in_window(op, 1.0 - 5 * h, 1.0 + 5 * h)
        vals, method = weyl_averages(win, parse_observable("x^2 + xi^2"))
        assert method == "split"
        assert np.max(np.abs(vals - win.eigenvalues)) < 1e-10

    def test_dense_route_agrees_with_split(self):
        # same split observable, forced through the dense Weyl assembly by a
        # periodic spectral operator of moderate size
        h = 0.1
        f = Polynomial1D((0.0, 0.0, 1.0))
        grid = grid_for_split(f, XI_SQ, h, 1.0, d=5.0)
        op = build_split(f, XI_SQ, h, grid)
        win = eigs_in_window(op, 0.5, 1.5)
        split_vals, m1 = weyl_averages(win, parse_observable("x^2 + xi^2"))
        dense_vals, m2 = weyl_averages(win, parse_observable("x^2 + xi^2 + 0*x*xi"))
        assert m1 == "split" and m2 == "weyl-dense"
        assert np.max(np.abs(split_vals - dense_vals)) < 1e-8


class TestAntiWick:
    def test_nonnegative_for_nonnegative_symbol(self):
        win = harmonic_window(0.05, ppw=64)
        vals, masses, _ = antiwick_averages(win, parse_observable("exp(-x^2 - xi^2)"))
        assert np.min(vals) >= -1e-10
        assert np.min(masses) > 0.99

    def test_gap_is_order_h(self):
        obs = parse_observable("exp(-x^2 - xi^2)")
        gaps = []
        for h in (0.1, 0.05):
            recs = microlocal_records(harmonic_window(h, ppw=64), obs)
            gaps.append(max(r.gap for r in recs))
        assert gaps[1] < 0.7 * gaps[0]
        assert gaps[0] < 0.1

    def test_records_carry_indices_and_abs_gap(self):
        recs = microlocal_records(harmonic_window(0.1, ppw=64),
                                  parse_observable("exp(-x^2 - xi^2)"))
        assert [r.j for r in recs] == list(range(len(recs)))
        assert all(r.gap >= 0.0 for r in recs)

    def test_starved_frame_raises(self):
        win = harmonic_window(0.1, ppw=64)
        frame = default_frame(win, xi_span=(-0.3, 0.3))
        with pytest.raises(NumericalError):
            microlocal_records(win, parse_observable("exp(-x^2 - xi^2)"), frame)

    def test_oversize_grid_substitutes_reference_route(self, monkeypatch):
        # mixed symbols on grids past the dense cap take the anti-Wick value
        # as the reference; the label records the substitution, and the
        # Weyl route itself is refused by the Weyl builder's cap
        monkeypatch.setattr("semiclab.microlocal.DENSE_CAP", 64)
        monkeypatch.setattr("semiclab.quantize.DENSE_CAP", 64)
        win = harmonic_window(0.1, ppw=64)
        obs = parse_observable("exp(-x^2 - xi^2)")
        recs = microlocal_records(win, obs)
        assert all(r.method == "antiwick-reference" for r in recs)
        assert all(r.gap == 0.0 for r in recs)
        with pytest.raises(NumericalError):
            weyl_averages(win, obs)


class TestNonFinite:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("route", [weyl_averages, antiwick_averages])
    def test_overflowing_observable_raises(self, route):
        win = harmonic_window(0.1, ppw=64)
        with pytest.raises(NumericalError, match="not finite"):
            route(win, parse_observable("exp(1000*x^2)"))


class TestCounting:
    def test_upsilon_a_of_one_equals_upsilon(self):
        win = harmonic_window(0.05, ppw=64)
        ua = upsilon_a(win, parse_observable("1"))
        assert ua == pytest.approx(upsilon(win), rel=1e-12)

    def test_upsilon_a_radial_matches_weighted_count(self):
        V = get_model("radial-deg").potential
        h = 0.05
        chans = radial_channels(V, h, -5 * h, 5 * h, h_max=h)
        ua = upsilon_a(chans, parse_observable("1"))
        weighted_count = sum(c.weight * c.window.count for c in chans)
        assert ua == pytest.approx(weighted_count, rel=1e-12)
        assert upsilon(chans) == weighted_count

    def test_radial_position_average_in_unit_disc(self):
        # states at E ~ 0 fill {V < 0}, a disc of radius 1; <r^2> averages
        # 1/2 against the planar Liouville density r dr on a flat well
        V = get_model("radial-deg").potential
        h = 0.02
        chans = radial_channels(V, h, -5 * h, 5 * h, h_max=h)
        rsq = parse_observable("x^2")
        per_state = np.concatenate(radial_state_averages(chans, rsq))
        assert per_state.size >= 2
        assert 0.2 < upsilon_a(chans, rsq) / upsilon(chans) < 0.8


class TestFlowInvariance:
    def test_rotation_invariant_symbol_has_tiny_defect(self):
        # the harmonic flow rotates phase space; a radial symbol pulls back
        # to itself, so the defect reduces to flow-integration error
        model = get_model("harmonic")
        win = harmonic_window(0.1, ppw=64)
        obs = parse_observable("exp(-x^2 - xi^2)")
        defect = egorov_defect(model, obs, 0.7, win)
        assert defect < 1e-4

    def test_generic_symbol_defect_decays_with_h(self):
        # regular window above the barrier: hyperbolic-point constants stay
        # out of the picture and the defect shrinks linearly in h
        model = get_model("quad-max")
        obs = parse_observable("exp(-x^2 - xi^2)")
        defects = []
        for h in (0.1, 0.05):
            grid = grid_for_split(model.potential, XI_SQ, h, 0.5, d=5.0)
            op = build_split(model.potential, XI_SQ, h, grid)
            win = eigs_in_window(op, 0.5 - 5 * h, 0.5 + 5 * h)
            defects.append(egorov_defect(model, obs, 0.5, win))
        assert defects[1] < 0.7 * defects[0]
