"""Per-state measure routes, counting functions, flow invariance."""

import numpy as np
import pytest

import semiclab.microlocal as microlocal
from semiclab import eig
from semiclab.classical import flow_points
from semiclab.eig import eigs_in_window
from semiclab.errors import ConfigError, NumericalError
from semiclab.experiments import solve_window
from semiclab.microlocal import (
    antiwick_averages,
    default_frame,
    egorov_defect,
    microlocal_records,
    upsilon,
    upsilon_a,
    weyl_averages,
)
from semiclab.model import Polynomial1D, get_model
from semiclab.observables import parse_observable
from semiclab.quantize import (
    Grid1D,
    build_schrodinger,
    build_split,
    build_weyl_observable,
    grid_for_schrodinger,
    grid_for_split,
)

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
        vals, masses = antiwick_averages(win, parse_observable("exp(-x^2 - xi^2)"))
        assert np.min(vals) >= -1e-10
        assert np.min(masses) > 0.99

    def test_constant_symbol_averages_to_the_mass(self):
        # a table of ones weighs every Husimi cell by 1: the captured mass
        win = harmonic_window(0.05, ppw=64)
        vals, masses = antiwick_averages(win, parse_observable("1"))
        assert np.max(np.abs(vals - masses)) < 1e-12

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

    def test_starved_frame_raises(self, monkeypatch):
        win = harmonic_window(0.1, ppw=64)
        frame = default_frame(win, xi_span=(-0.3, 0.3))
        monkeypatch.setattr(microlocal, "default_frame", lambda _window, _xi_span=None: frame)
        with pytest.raises(NumericalError, match="Husimi mass"):
            microlocal_records(win, parse_observable("exp(-x^2 - xi^2)"))

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

    def test_substituted_reference_is_mass_checked(self, monkeypatch):
        # the anti-Wick values that stand in for the Weyl route past the cap
        # must pass the same mass floor as the records built from them
        monkeypatch.setattr(microlocal, "DENSE_CAP", 64)
        monkeypatch.setattr(microlocal, "_auto_xi_span", lambda *args: (-0.3, 0.3))
        win = harmonic_window(0.1, ppw=64)
        assert win.grid.n > 64
        with pytest.raises(NumericalError, match="Husimi mass"):
            upsilon_a(win, parse_observable("exp(-x^2 - xi^2)"))

    def test_one_state_fft_per_records_call(self, monkeypatch):
        # the decimation and the frame's momentum span share one spectrum
        calls = []
        power = microlocal._state_power
        monkeypatch.setattr(microlocal, "_state_power", lambda w: calls.append(w) or power(w))
        win = harmonic_window(0.1, ppw=64)
        recs = microlocal_records(win, parse_observable("exp(-x^2 - xi^2)"))
        assert recs[0].method == "weyl-dense" and len(calls) == 1

    def test_one_antiwick_batch_past_the_cap(self, monkeypatch):
        # the reference values past the cap are the anti-Wick averages the
        # records report anyway: one batch serves both
        calls = []
        batch = microlocal.antiwick_batch
        monkeypatch.setattr(microlocal, "antiwick_batch",
                            lambda *args: calls.append(args) or batch(*args))
        monkeypatch.setattr(microlocal, "DENSE_CAP", 64)
        recs = microlocal_records(harmonic_window(0.1, ppw=64),
                                  parse_observable("exp(-x^2 - xi^2)"))
        assert all(r.method == "antiwick-reference" for r in recs)
        assert len(calls) == 1


GAUSS = parse_observable("exp(-x^2 - xi^2)")


@pytest.fixture(scope="module")
def dirac_window():
    # dirac-concentration-1d's fifth row: quad-max at E = 0, box of h = 0.1
    h = float(np.geomspace(0.1, 1e-3, 10)[4])
    return solve_window(get_model("quad-max"), h, 0.0, h_max=0.1)


@pytest.fixture(scope="module")
def k3_window():
    # a pseudo-concentration-k3 row: the box is sized for h = 0.1
    return solve_window(get_model("pseudo-k3"), 0.0022, 0.0, h_max=0.1)


def full_grid_weyl(win, obs):
    a = build_weyl_observable(lambda x, xi: obs(x, xi), win.h, win.grid).matrix
    return np.einsum("ij,ij->j", win.vectors.conj(), a @ win.vectors).real


class TestDecimatedWeyl:
    def test_dirac_window_matches_full_grid(self, dirac_window):
        assert dirac_window.grid.n == 3294
        assert microlocal._decimation(dirac_window) == 8
        vals, method = weyl_averages(dirac_window, GAUSS)
        assert method == "weyl-dense"
        assert np.max(np.abs(vals - full_grid_weyl(dirac_window, GAUSS))) < 1e-12

    def test_harmonic_window_matches_full_grid(self):
        win = solve_window(get_model("harmonic"), 0.02, 1.0, h_max=0.1)
        assert win.grid.n == 3271 and microlocal._decimation(win) > 1
        vals, _ = weyl_averages(win, GAUSS)
        assert np.max(np.abs(vals - full_grid_weyl(win, GAUSS))) < 1e-12

    def test_split_window_keeps_the_full_grid(self, k3_window):
        # split grids are sized at 1.25 times the classical momentum: nothing
        # to decimate; only the rows where the states live are built
        assert k3_window.grid.n == 2048 and k3_window.count > 0
        assert microlocal._decimation(k3_window) == 1
        vals, _ = weyl_averages(k3_window, GAUSS)
        assert np.max(np.abs(vals - full_grid_weyl(k3_window, GAUSS))) < 1e-12

    def test_block_holds_the_window_states(self, k3_window, monkeypatch):
        # the window states at E = 0 fill under half of the box sized for
        # the scan's top energy; the block build keeps their averages
        blocks = []
        build = microlocal.build_weyl_observable
        monkeypatch.setattr(microlocal, "build_weyl_observable",
                            lambda a, h, grid, rows: blocks.append(rows) or build(a, h, grid, rows))
        vals, _ = weyl_averages(k3_window, GAUSS)
        (i0, i1), = blocks
        assert 0 < i0 < i1 < k3_window.grid.n and i1 - i0 <= 0.5 * k3_window.grid.n
        full = full_grid_weyl(k3_window, GAUSS)
        assert np.max(np.abs(vals - full)) < 1e-12
        # a loose support rule drops mass the averages need: the test sees it
        monkeypatch.setattr(microlocal, "WEYL_LEAK", 1e-2)
        loose, _ = weyl_averages(k3_window, GAUSS)
        assert not np.max(np.abs(loose - full)) < 1e-12

    def test_no_full_grid_build(self, dirac_window, monkeypatch):
        sizes = []
        build = microlocal.build_weyl_observable
        monkeypatch.setattr(microlocal, "build_weyl_observable",
                            lambda a, h, grid, rows: sizes.append(grid.n) or build(a, h, grid, rows))
        weyl_averages(dirac_window, GAUSS)
        assert sizes and max(sizes) <= -(-3294 // 8)
        # with no leak bound the sub-grid floor of 16 points alone stops q
        monkeypatch.setattr(microlocal, "WEYL_LEAK", np.inf)
        weyl_averages(dirac_window, GAUSS)
        assert 16 <= sizes[-1] < 32

    @pytest.mark.parametrize("q", [1, 2, 8])
    def test_subgrid_nodes_are_every_qth_node(self, dirac_window, q):
        for grid in (dirac_window.grid, Grid1D(-2.0, 3.0, 256, "periodic")):
            sub = grid.every(q)
            assert sub.boundary == grid.boundary
            assert sub.dx == pytest.approx(q * grid.dx, rel=1e-12)
            assert np.allclose(sub.nodes, grid.nodes[::q], rtol=0, atol=1e-12)


@pytest.mark.parametrize("h, n", [(0.05, 850), (0.01, 4254)])
def test_gaussian_weyl_averages_match_mehler(h, n):
    # Mehler's formula: Op_h^w(exp(-x^2 - xi^2)) = sum_n w_n |phi_n><phi_n|,
    # w_n = ((1 - h) / (1 + h))^n / (1 + h), phi_n the Hermite functions of
    # -h^2 d^2 + x^2; terms past K weigh under 1e-17.  The second window is
    # past DENSE_CAP, where the Weyl route decimates
    win = solve_window(get_model("quad-max"), h, 0.0, h_max=0.1)
    assert win.grid.n == n and win.count > 0
    rho = (1.0 - h) / (1.0 + h)
    k = int(np.ceil(np.log(1e-17) / np.log(rho)))
    phi = eig._to_grid(np.eye(k), win.grid, h, 0.0, 0.0, 1.0)
    exact = (rho ** np.arange(k) / (1.0 + h)) @ np.abs(phi.conj().T @ win.vectors) ** 2
    vals, _ = weyl_averages(win, GAUSS)
    assert np.max(np.abs(vals - exact)) < 1e-12


@pytest.mark.parametrize("name, e, h", [
    ("quad-max", 0.0, 0.0129), ("quad-max", 0.0, 1e-3), ("quad-max", 0.0, 0.0359),
    ("pseudo-k3", 0.0, 0.05), ("pseudo-k3", 0.0, 0.01), ("harmonic", 1.0, 0.05),
    ("harmonic", 1.0, 0.01)])
def test_antiwick_averages_are_weyl_averages_of_the_smoothed_symbol(name, e, h):
    # Op_h^AW(a) = Op_h^W(a * G_h), G_h(z) = exp(-|z|^2 / h) / (pi h): smoothing
    # maps exp(-x^2 - xi^2) to exp(-(x^2 + xi^2) / (1 + h)) / (1 + h), again a
    # product symbol, and x^2 to x^2 + h / 2.  The frame lattice misses the
    # Husimi mass it does not capture: at most that mass for the Gaussian;
    # for x^2 the mass lost past the box ends, within the reach 6.5 sqrt(h)
    # of the frame's coherent states, weighs at most (|x|_max + 6.5 sqrt(h))^2
    win = solve_window(get_model(name), h, e)
    c = 1.0 / (1.0 + h)
    aw, masses = antiwick_averages(win, GAUSS)
    gauss_h = parse_observable(f"{c!r}*exp(-{c!r}*x^2 - {c!r}*xi^2)")
    assert gauss_h.product_parts() is not None
    smoothed, _ = weyl_averages(win, gauss_h)
    lost = 1.0 - masses
    assert np.all(np.abs(aw - smoothed) <= np.where(lost <= 1e-12, 1e-12, lost))
    aw, _ = antiwick_averages(win, parse_observable("x^2"))
    smoothed, method = weyl_averages(win, parse_observable(f"x^2 + {h / 2!r}"))
    reach = np.max(np.abs(default_frame(win).x_centers)) + 6.5 * np.sqrt(h)
    assert method == "diagonal"
    assert np.all(np.abs(aw - smoothed) <= 1e-12 + reach**2 * lost)


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
        h = 0.05
        win = solve_window(get_model("radial-deg"), h, 0.0, h_max=h)
        ua = upsilon_a(win, parse_observable("1"))
        # every state of a channel m >= 1 enters twice (+-m)
        weighted_count = win.count + np.count_nonzero(win.m)
        assert ua == pytest.approx(weighted_count, rel=1e-12)
        assert upsilon(win) == weighted_count

    def test_radial_position_average_in_unit_disc(self):
        # states at E ~ 0 fill {V < 0}, a disc of radius 1; <r^2> averages
        # 1/2 against the planar Liouville density r dr on a flat well
        h = 0.02
        win = solve_window(get_model("radial-deg"), h, 0.0, h_max=h)
        rsq = parse_observable("x^2")
        per_state, method = weyl_averages(win, rsq)
        assert method == "diagonal" and per_state.size >= 2
        assert 0.2 < upsilon_a(win, rsq) / upsilon(win) < 0.8

    @pytest.mark.parametrize("expr", ["xi^2", "x*xi"])
    def test_radial_weyl_route_takes_position_observables_only(self, expr):
        # a radial state holds sqrt(r dr) psi(r): no momentum lives on its grid
        win = solve_window(get_model("radial-deg"), 0.05, 0.0)
        with pytest.raises(ConfigError, match="position observables"):
            weyl_averages(win, parse_observable(expr))

    def test_radial_window_refuses_phase_space_routes(self):
        win = solve_window(get_model("radial-deg"), 0.05, 0.0)
        with pytest.raises(ValueError, match="position observables"):
            upsilon_a(win, parse_observable("xi^2"))
        with pytest.raises(ValueError, match="coherent frame"):
            microlocal_records(win, parse_observable("exp(-x^2)"))


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

    def test_starved_frame_raises(self, monkeypatch):
        # the defect comes from the anti-Wick route, and so does its mass check
        monkeypatch.setattr(microlocal, "_auto_xi_span", lambda *args: (-0.3, 0.3))
        obs = parse_observable("exp(-x^2 - xi^2)")
        with pytest.raises(NumericalError, match="Husimi mass"):
            egorov_defect(get_model("harmonic"), obs, 0.7, harmonic_window(0.1, ppw=64))

    def test_window_without_states_has_no_defect(self, monkeypatch):
        # no state, no frame: the 0/0 momentum span is never formed
        monkeypatch.setattr(microlocal, "default_frame", None)
        model = get_model("harmonic")
        win = solve_window(model, 0.05, 0.5, d=0.1)
        assert win.count == 0
        obs = parse_observable("exp(-x^2 - xi^2)")
        assert egorov_defect(model, obs, 0.5, win) == 0.0

    def test_one_batch_gives_both_tables_bit_for_bit(self):
        # egorov_defect applies a and a o flow_t to the same Husimi densities;
        # each table's averages equal those of its own batch
        model = get_model("harmonic")
        win = harmonic_window(0.1, ppw=64)
        obs = parse_observable("exp(-x^2 - xi^2) + 0.3*x*xi")
        frame = default_frame(win)
        x, xi = frame.x_centers[:, None], frame.xi_centers[None, :]
        flowed = flow_points(model, x, xi, 0.7)
        base, m0 = antiwick_averages(win, obs(x, xi), frame)
        moved, m1 = antiwick_averages(win, obs(flowed.x, flowed.xi), frame)
        both, masses = antiwick_averages(win, [obs(x, xi), obs(flowed.x, flowed.xi)], frame)
        assert np.array_equal(both, np.stack([base, moved]))
        assert np.array_equal(masses, m0) and np.array_equal(masses, m1)
        assert egorov_defect(model, obs, 0.7, win) == float(np.max(np.abs(base - moved)))
