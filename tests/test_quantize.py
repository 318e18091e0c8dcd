"""Quantization oracles: FD spectra, split/Weyl agreement, anti-Wick frames."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from semiclab.errors import NumericalError
from semiclab.model import Polynomial1D, get_model
from semiclab.quantize import (
    WEYL_BLOCK_BYTES,
    Grid1D,
    antiwick_batch,
    build_coherent_frame,
    build_schrodinger,
    build_split,
    build_weyl_observable,
    dense_matrix,
    grid_for_radial,
    grid_for_schrodinger,
    grid_for_split,
)

X2 = Polynomial1D((0.0, 0.0, 1.0))
ZERO = Polynomial1D((0.0,))
XI1 = Polynomial1D((0.0, 1.0))


def weyl_reference(a, h, grid):
    """Weyl assembly with a whole-matrix 0.5 (M + M^H) pass at the end."""
    n = grid.n
    xi = grid.xi_values(h)
    mat = np.empty((n, n), dtype=complex)
    for s in range(2 * n - 1):
        row = np.asarray(a(np.full(n, grid.nodes[0] + 0.5 * s * grid.dx), xi), dtype=float)
        c = np.fft.ifft(row)
        ii = np.arange(max(0, s - n + 1), min(n - 1, s) + 1)
        mat[ii, s - ii] = c[(2 * ii - s) % n]
    return 0.5 * (mat + mat.conj().T)


def low_levels(op, k):
    return eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, k - 1))[0]


class TestGrids:
    def test_dirichlet_nodes_exclude_walls(self):
        g = Grid1D(0.0, 1.0, 31, "dirichlet")
        assert g.dx == pytest.approx(1.0 / 32)
        assert g.nodes[0] == pytest.approx(g.dx)
        assert g.nodes[-1] == pytest.approx(1.0 - g.dx)

    def test_periodic_grid_power_of_two(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 100, "periodic")
        g = Grid1D(0.0, 1.0, 128, "periodic")
        assert g.nodes[-1] == pytest.approx(1.0 - g.dx)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 8, "dirichlet")

    def test_auto_grid_respects_resolution_policy(self):
        h = 0.01
        g = grid_for_schrodinger(X2, h, e_center=1.0, d=5.0, ppw=32)
        e_top = 1.0 + 5 * h
        k = np.sqrt(e_top - 0.0)
        assert g.dx <= 2 * np.pi * h / (32 * k) * (1 + 1e-12)
        # box covers the turning region of the padded energy with margin
        eps0 = max(1.0, 10.0 * 5.0 * h)
        assert g.x_max > np.sqrt(1.0 + eps0)

    def test_split_grid_momentum_coverage(self):
        h = 0.02
        g = grid_for_split(X2, X2, h, e_center=1.0, d=5.0)
        eps0 = 1.0
        xi_turn = np.sqrt(1.0 + eps0)  # g(xi) = xi^2 at the padded energy
        assert g.xi_max(h) >= 1.25 * xi_turn

    def test_radial_nodes_half_offset(self):
        g = grid_for_radial(X2, 0.05, 0.55, 0.85)
        dr = g.x_max / (g.n + 0.5)
        assert g.dx == pytest.approx(dr)
        assert g.nodes[0] == pytest.approx(0.5 * dr)
        # last node one spacing inside the Dirichlet wall at r_max
        assert g.nodes[-1] == pytest.approx(g.x_max - dr)

    @pytest.mark.parametrize("shared, sizes", [
        (False, [185, 232, 290, 364, 456, 573, 721, 925, 1194, 1543]),
        (True, [185, 239, 309, 399, 516, 666, 860, 1111, 1435, 1854])])
    def test_radial_grid_sizes(self, shared, sizes):
        # radial-deg at E = 0, d = 5, ppw = 64 on the h grid of liouville-limit-2d,
        # each box sized at its own h or, as in a scan, at the largest
        V = get_model("radial-deg").potential
        hs = [float(h) for h in np.geomspace(0.1, 0.01, 10)]
        assert [grid_for_radial(V, h, -5.0 * h, 5.0 * h, d=5.0,
                                h_max=hs[0] if shared else None, ppw=64).n
                for h in hs] == sizes


class TestSchrodingerFD:
    def test_harmonic_levels(self):
        h = 0.05
        g = grid_for_schrodinger(X2, h, e_center=1.0, d=5.0, ppw=160)
        op = build_schrodinger(X2, h, g)
        got = low_levels(op, 6)
        exact = (2 * np.arange(6) + 1) * h
        assert np.max(np.abs(got - exact) / exact) < 1e-4

    def test_flat_box_matches_closed_forms(self):
        # -d^2/dx^2 on (0, pi): continuum levels j^2, discrete levels
        # (4/dx^2) sin^2(j dx / 2); the builder must reproduce the discrete
        # formula exactly and the continuum one to leading order.
        n = 2000
        g = Grid1D(0.0, np.pi, n, "dirichlet")
        op = build_schrodinger(ZERO, 1.0, g)
        got = low_levels(op, 5)
        j = np.arange(1, 6)
        discrete = (2.0 - 2.0 * np.cos(j * np.pi / (n + 1))) / g.dx**2
        assert np.max(np.abs(got - discrete)) < 1e-10 * discrete[-1]
        assert np.max(np.abs(got - j**2) / j**2) < 1e-4

    def test_fd2_error_halving_ratio(self):
        h = 0.2
        exact = (2 * np.arange(4) + 1) * h
        errs = []
        for n in (256, 512):
            g = Grid1D(-3.0, 3.0, n, "dirichlet")
            op = build_schrodinger(X2, h, g)
            errs.append(np.abs(low_levels(op, 4) - exact))
        ratio = errs[0] / errs[1]
        assert np.all(ratio > 3.5) and np.all(ratio < 4.5)

    def test_resolution_policy_enforced(self):
        g = Grid1D(-3.0, 3.0, 64, "dirichlet")
        with pytest.raises(NumericalError):
            build_schrodinger(X2, 1e-3, g, window_top=1.0)


class TestSplit:
    def test_harmonic_levels_spectral(self):
        h = 0.05
        g = grid_for_split(X2, X2, h, e_center=1.0, d=5.0)
        op = build_split(X2, X2, h, g, window_top=1.25)
        m = dense_matrix(op)
        m = 0.5 * (m + m.conj().T)
        ev = np.linalg.eigvalsh(m)
        exact = (2 * np.arange(6) + 1) * h
        assert np.max(np.abs(ev[:6] - exact) / exact) < 1e-8

    def test_aliasing_guard(self):
        g = Grid1D(-3.0, 3.0, 64, "periodic")
        with pytest.raises(NumericalError):
            build_split(X2, X2, 0.01, g, window_top=4.0)

    def test_circulant_matrix_matches_fft_of_identity(self):
        f, gk = get_model("pseudo-k3").phase_poly.split_parts()
        h = 0.02
        op = build_split(f, gk, h, grid_for_split(f, gk, h, 0.0))
        m = dense_matrix(op)
        eye = np.eye(op.size, dtype=complex)
        ref = np.fft.ifft(op.mult_xi[:, None] * np.fft.fft(eye, axis=0), axis=0)
        ref += np.diag(op.mult_x)
        assert np.max(np.abs(m - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(m, m.conj().T)

    def test_dense_route_refuses_grids_past_cap(self, monkeypatch, capsys):
        from semiclab.cli import main

        monkeypatch.setattr("semiclab.quantize.DENSE_CAP", 64)
        op = build_split(X2, X2, 0.05, Grid1D(-3.0, 3.0, 128, "periodic"))
        with pytest.raises(NumericalError, match="128 > 64"):
            dense_matrix(op)
        argv = ["spectrum", "--model", "pseudo-k3", "--h", "0.05", "--n", "128", "--box=-3,3"]
        assert main(argv) == 3
        assert "128 > 64" in capsys.readouterr().err


class TestWeyl:
    def setup_method(self):
        self.h = 0.05
        self.grid = Grid1D(-3.0, 3.0, 256, "periodic")

    def test_constant_symbol_is_identity(self):
        op = build_weyl_observable(lambda x, xi: np.ones_like(x), self.h, self.grid)
        assert np.max(np.abs(op.matrix - np.eye(self.grid.n))) < 1e-13

    def test_position_symbol_is_diagonal(self):
        op = build_weyl_observable(lambda x, xi: x**2 - x, self.h, self.grid)
        expect = np.diag(self.grid.nodes**2 - self.grid.nodes)
        assert np.max(np.abs(op.matrix - expect)) < 1e-10

    def test_momentum_symbol_matches_multiplier(self):
        op = build_weyl_observable(lambda x, xi: xi**2, self.h, self.grid)
        mult = dense_matrix(build_split(ZERO, X2, self.h, self.grid))
        assert np.max(np.abs(op.matrix - mult)) < 1e-10

    def test_split_symbol_two_routes(self):
        # f(x) + g(xi) assembled as a Weyl kernel must equal the split form
        f = Polynomial1D((0.5, 0.0, 1.0))
        gp = Polynomial1D((0.0, 0.0, 2.0, 0.0, 1.0))
        w = build_weyl_observable(lambda x, xi: f(x) + gp(xi), self.h, self.grid)
        s = build_split(f, gp, self.h, self.grid)
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.standard_normal(self.grid.n) + 1j * rng.standard_normal(self.grid.n)
            wa, sa = w.matrix @ v, dense_matrix(s) @ v
            assert np.max(np.abs(wa - sa)) < 1e-6 * max(np.max(np.abs(sa)), 1e-30)

    def test_cross_symbol_is_symmetrized_product(self):
        op = build_weyl_observable(lambda x, xi: x * xi, self.h, self.grid)
        xmat = np.diag(self.grid.nodes)
        ximat = dense_matrix(build_split(ZERO, XI1, self.h, self.grid))
        sym = 0.5 * (xmat @ ximat + ximat @ xmat)
        assert np.max(np.abs(op.matrix - sym)) < 1e-10

    def test_hermitian_output(self):
        op = build_weyl_observable(
            lambda x, xi: np.exp(-(x**2) - xi**2) + 0.3 * x * xi, self.h, self.grid)
        m = op.matrix
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    @pytest.mark.parametrize("grid", [Grid1D(-3.0, 3.0, 64, "periodic"),
                                      Grid1D(-2.5, 3.5, 709, "dirichlet"),
                                      Grid1D(-2.5, 3.5, 1000, "dirichlet")],
                             ids=["periodic", "dirichlet-prime", "dirichlet"])
    def test_matches_per_diagonal_reference(self, grid):
        # the blocked real-FFT build rounds differently from one complex
        # ifft per anti-diagonal, so agreement is to a few ulps of max |a|
        def a(x, xi):
            return np.exp(-(x**2) - xi**2) + 0.3 * x * xi**3 + np.sin(x - 2.0 * xi)

        m = build_weyl_observable(a, self.h, grid).matrix
        a_max = np.max(np.abs(a(grid.nodes[:, None], grid.xi_values(self.h)[None, :])))
        assert np.max(np.abs(m - weyl_reference(a, self.h, grid))) <= 1e-15 * a_max
        assert np.array_equal(m, m.conj().T)

    def test_allocates_about_one_matrix(self):
        g = Grid1D(-3.0, 3.0, 512, "periodic")
        a = lambda x, xi: np.exp(-(x**2) - xi**2) + 0.3 * x * xi
        tracemalloc.start()
        try:
            op = build_weyl_observable(a, self.h, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * op.matrix.nbytes

    def test_large_build_allocates_the_matrix_and_one_block(self):
        g = Grid1D(-3.0, 3.0, 2048, "periodic")
        a = lambda x, xi: np.exp(-(x**2) - xi**2) + 0.3 * x * xi
        tracemalloc.start()
        try:
            op = build_weyl_observable(a, self.h, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= op.matrix.nbytes + WEYL_BLOCK_BYTES

    @pytest.mark.parametrize("grid", [Grid1D(-3.0, 3.0, 2048, "periodic"),
                                      Grid1D(-2.5, 3.5, 3271, "dirichlet"),
                                      Grid1D(-2.5, 3.5, 1000, "dirichlet")],
                             ids=["periodic", "dirichlet-prime", "dirichlet"])
    def test_row_range_is_the_block_of_the_full_matrix(self, grid):
        def a(x, xi):
            return np.exp(-(x**2) - xi**2) + 0.3 * x * xi**3 + np.sin(x - 2.0 * xi)

        n = grid.n
        full = build_weyl_observable(a, self.h, grid)
        assert np.array_equal(build_weyl_observable(a, self.h, grid, (0, n)).matrix, full.matrix)
        for i0, i1 in [(n // 3, n // 3 + 1), (0, n // 4), (n - 1, n), (n // 5, n // 2)]:
            block = build_weyl_observable(a, self.h, grid, (i0, i1))
            assert block.grid == grid
            assert np.array_equal(block.matrix, full.matrix[i0:i1, i0:i1])

    @pytest.mark.parametrize("rows", [(0, 0), (5, 5), (-1, 4), (4, 65)])
    def test_row_range_must_be_inside_the_grid(self, rows):
        with pytest.raises(ValueError, match="row range"):
            build_weyl_observable(lambda x, xi: x, self.h, Grid1D(-3.0, 3.0, 64, "periodic"), rows)

    def test_block_build_allocates_the_block_and_one_block_of_diagonals(self):
        g = Grid1D(-3.0, 3.0, 2048, "periodic")
        a = lambda x, xi: np.exp(-(x**2) - xi**2) + 0.3 * x * xi
        tracemalloc.start()
        try:
            op = build_weyl_observable(a, self.h, g, (600, 1400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matrix.shape == (800, 800)
        assert peak <= op.matrix.nbytes + WEYL_BLOCK_BYTES

    def test_dense_cap(self):
        g = Grid1D(0.0, 1.0, 8192, "periodic")
        with pytest.raises(NumericalError):
            build_weyl_observable(lambda x, xi: x, 0.01, g)


class TestAntiWick:
    def test_coherent_state_oracle(self):
        # anti-Wick average of exp(-x^2 - xi^2) in a coherent state at the
        # origin is exactly 1 / (1 + 2h)
        for h in (0.1, 0.05, 0.02):
            g = Grid1D(-3.0, 3.0, 2048, "periodic")
            frame = build_coherent_frame(g, h, (-2.0, 2.0))
            psi = frame.state(g, 0.0, 0.0)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-9)
            (val,), (mass,) = antiwick_batch(
                frame, g, psi[None, :], lambda x, xi: np.exp(-(x**2) - xi**2))
            assert mass >= 0.999
            assert mass == pytest.approx(1.0, abs=1e-6)
            assert val == pytest.approx(1.0 / (1.0 + 2.0 * h), rel=1e-8)

    def test_displaced_state_sees_symbol_value(self):
        # a slowly varying symbol evaluated through a coherent state at z0
        # returns roughly a(z0)
        h = 0.02
        g = Grid1D(-4.0, 4.0, 2048, "periodic")
        frame = build_coherent_frame(g, h, (-2.0, 2.0))
        psi = frame.state(g, 1.0, 0.5)
        (val,), (mass,) = antiwick_batch(
            frame, g, psi[None, :],
            lambda x, xi: np.exp(-((x - 1.0) ** 2) / 4 - (xi - 0.5) ** 2 / 4))
        assert mass >= 0.999
        # gaussian-vs-gaussian overlap integral in closed form
        assert val == pytest.approx(1.0 / (1.0 + 0.5 * h), rel=1e-6)

    def test_nonnegative_for_nonnegative_symbol(self):
        h = 0.05
        g = Grid1D(-3.0, 3.0, 1024, "periodic")
        frame = build_coherent_frame(g, h, (-1.5, 1.5))
        rng = np.random.default_rng(5)
        # smooth random band-limited states
        base = rng.standard_normal((4, g.n))
        spec = np.fft.fft(base, axis=1)
        cut = np.abs(np.fft.fftfreq(g.n, d=g.dx)) > 1.0 / (2 * np.pi * h) * 1.2
        spec[:, cut] = 0.0
        psis = np.fft.ifft(spec, axis=1)
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        vals, masses = antiwick_batch(frame, g, psis, lambda x, xi: x**2 + xi**2)
        assert np.all(vals >= 0.0)
        assert np.all(masses <= 1.0 + 1e-9)

    def test_low_mass_flag_on_undersized_frame(self):
        h = 0.05
        g = Grid1D(-3.0, 3.0, 1024, "periodic")
        frame = build_coherent_frame(g, h, (-0.1, 0.1))
        psi = frame.state(g, 0.0, 1.0)  # momentum far outside the frame
        _, (mass,) = antiwick_batch(frame, g, psi[None, :], lambda x, xi: np.ones_like(x))
        assert mass < 0.5

    def test_batch_matches_direct_overlaps(self):
        # independent route: explicit inner products on the full grid
        h = 0.05
        g = Grid1D(-3.0, 3.0, 512, "periodic")
        frame = build_coherent_frame(g, h, (-1.5, 1.5))
        s1 = frame.state(g, 0.4, -0.3)
        s2 = frame.state(g, -0.6, 0.5)
        psi = (s1 + s2) / np.linalg.norm(s1 + s2)

        def a(x, xi):
            return 1.0 + 0.5 * np.sin(x) * np.cos(xi)

        (val,), (mass,) = antiwick_batch(frame, g, psi[None, :], a)
        direct = 0.0
        dmass = 0.0
        pref = frame.cell_area() / (2 * np.pi * h)
        for xc in frame.x_centers:
            for xic in frame.xi_centers:
                ov = abs(np.vdot(frame.state(g, xc, xic), psi)) ** 2
                direct += pref * a(xc, xic) * ov
                dmass += pref * ov
        assert mass == pytest.approx(dmass, rel=1e-6)
        assert val == pytest.approx(direct, rel=1e-6)

    def test_tabulated_symbol_route(self):
        h = 0.05
        g = Grid1D(-3.0, 3.0, 1024, "periodic")
        frame = build_coherent_frame(g, h, (-1.5, 1.5))
        psi = frame.state(g, 0.2, 0.1)

        def a(x, xi):
            return np.exp(-(x**2) - xi**2)

        table = np.array([a(np.full_like(frame.xi_centers, xc), frame.xi_centers)
                          for xc in frame.x_centers])
        (v1,), _ = antiwick_batch(frame, g, psi[None, :], a)
        (v2,), _ = antiwick_batch(frame, g, psi[None, :], table)
        assert v1 == v2

    def test_scalar_symbol_broadcasts_to_the_lattice(self):
        h = 0.05
        g = Grid1D(-3.0, 3.0, 1024, "periodic")
        frame = build_coherent_frame(g, h, (-1.5, 1.5))
        psis = np.stack([frame.state(g, 0.2, 0.1), frame.state(g, -0.5, 0.4)])
        vals, masses = antiwick_batch(frame, g, psis, lambda x, xi: 1.0)
        assert np.max(np.abs(vals - masses)) < 1e-12
