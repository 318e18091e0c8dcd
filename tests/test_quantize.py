"""Quantization oracles: FD spectra, split/Weyl agreement, anti-Wick frames."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import semiclab.quantize as quantize
from semiclab.errors import ConfigError, NumericalError
from semiclab.experiments import run_scan, solve_window
from semiclab.microlocal import default_frame
from semiclab.model import Polynomial1D, get_model
from semiclab.observables import parse_observable
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


def antiwick_reference(frame, grid, psis, tables):
    """Anti-Wick batch by one (M, W) @ (W, P) product per lattice column.

    Returns the (T, P) values, the (P,) masses and the window length W.
    """
    h, xi_c = frame.h, frame.xi_centers
    xi_band = float(np.max(np.abs(xi_c))) + 6.0 * np.sqrt(h)
    q = max(1, int(np.pi * h / (2.4 * xi_band * grid.dx)))
    xs, step, half = grid.nodes[::q], q * grid.dx, 6.5 * np.sqrt(h)
    w_len = max(3, int(np.ceil(2 * half / step)) + 1)
    phase = np.exp(-1j * np.outer(xi_c, step * np.arange(w_len)) / h)
    norm = grid.dx / np.sqrt(np.pi * h) * (step / grid.dx) ** 2
    pref = frame.cell_area() / (2.0 * np.pi * h)
    values, masses = np.zeros((len(tables), len(psis))), np.zeros(len(psis))
    psis_dec = psis[:, ::q]
    for ci, xc in enumerate(frame.x_centers):
        i0 = int(np.searchsorted(xs, xc - half))
        i1 = min(psis_dec.shape[1], i0 + w_len)
        if i1 <= i0:
            continue
        env = np.exp(-((xs[i0:i1] - xc) ** 2) / (2.0 * h))
        amp = phase[:, : i1 - i0] @ (env * psis_dec[:, i0:i1]).T
        hus = norm * np.abs(amp) ** 2
        for table, vals in zip(tables, values):
            vals += pref * (table[ci] @ hus)
        masses += pref * np.sum(hus, axis=0)
    return values, masses, w_len


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

    # once: ppw = 0 divided by zero in resolution_dx and built 16 rows; a bad
    # h_max fell back to the margin floor (309 rows on radial-deg, not 340);
    # h = -0.05 built 16 rows, h = 0 leaked a divide-by-zero warning or a bare
    # ZeroDivisionError, h = nan was a NumericalError, and solve_window blamed
    # a negative h on the floating-point spacing
    @pytest.mark.parametrize("builder, kwargs, what", [
        pytest.param(b, kw, what, id=f"{b}-{next(iter(kw))}={next(iter(kw.values()))}")
        for b in ("schrodinger", "split", "radial", "solve_window", "run_scan")
        for kw, what in [({"h": 0.0}, "^h must"), ({"h": -0.05}, "^h must"),
                         ({"h": math.nan}, "^h must"),
                         ({"ppw": 0}, "ppw"), ({"ppw": -3}, "ppw"),
                         ({"h_max": -1.0}, "h_max"), ({"h_max": math.nan}, "h_max"),
                         ({"d": 0.0}, "half-width"), ({"d": -1.0}, "half-width"),
                         ({"d": math.inf}, "half-width"), ({"d": math.nan}, "half-width")]
        if not (b == "split" and "ppw" in kw)  # a split grid has no ppw
        and not (b == "run_scan" and "h_max" in kw)])  # a scan's h_max is its largest h
    def test_builders_refuse_bad_window_args(self, builder, kwargs, what):
        kwargs = dict(kwargs)
        h = kwargs.pop("h", 0.05)
        build = {
            "schrodinger": lambda: grid_for_schrodinger(X2, h, 1.0, **kwargs),
            "split": lambda: grid_for_split(X2, X2, h, 1.0, **kwargs),
            "radial": lambda: grid_for_radial(get_model("radial-deg").potential, h,
                                              -0.25, 0.25, **kwargs),
            "solve_window": lambda: solve_window(get_model("harmonic"), h, 1.0,
                                                 vectors=False, **kwargs),
            "run_scan": lambda: run_scan("harmonic", h_values=[0.1, h], **kwargs)}[builder]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=what):
                build()


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
        # the split window keeps only the Hermite band, so no dense path is
        # left on its route: the cap changes nothing there
        argv = ["spectrum", "--model", "pseudo-k3", "--h", "0.05", "--n", "128", "--box=-3,3"]
        assert main(argv) == 0
        capped = capsys.readouterr().out
        monkeypatch.undo()
        assert main(argv) == 0
        assert capped == capsys.readouterr().out


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

    @pytest.mark.parametrize("grid", [Grid1D(-3.0, 3.0, 2048, "periodic"),
                                      Grid1D(-2.5, 3.5, 3271, "dirichlet"),
                                      Grid1D(-2.5, 3.5, 1000, "dirichlet"),
                                      Grid1D(-2.5, 3.5, 999, "dirichlet")],
                             ids=["periodic", "dirichlet-prime", "dirichlet", "dirichlet-odd"])
    def test_product_symbol_takes_the_factored_build(self, grid):
        # f(x) g(xi) is built from f at the midpoints and one FFT of g; the
        # same symbol as an opaque callable takes the general build
        obs = parse_observable("(x+1)*xi*exp(-x^2-(xi-0.5)^2)")
        n = grid.n
        general = build_weyl_observable(lambda x, xi: obs(x, xi), self.h, grid).matrix
        full = build_weyl_observable(obs, self.h, grid).matrix
        assert np.max(np.abs(full - general)) <= 1e-15 * np.max(np.abs(general))
        assert np.array_equal(full, full.conj().T)
        for i0, i1 in [(0, n), (n // 3, n // 3 + 1), (0, n // 4), (n - 1, n), (n // 5, n // 2)]:
            tracemalloc.start()
            try:
                block = build_weyl_observable(obs, self.h, grid, (i0, i1)).matrix
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(block, full[i0:i1, i0:i1])
            # the block, O(n) vectors and numpy's fixed 256 KiB buffer for
            # strided operands: no m by m temporary
            assert peak <= block.nbytes + 256 * n + 2**18

    @pytest.mark.parametrize("src, grid", [
        # exp(xi^2) overflows on its own, exp(xi^2 - x^2) only where |x| is small
        ("exp(xi^2-x^2)", Grid1D(-3.0, 3.0, 256, "periodic")),
        # both factors stay finite (e^400 and e^404), their product does not
        ("exp(x^2+xi^2)", Grid1D(-20.0, 20.0, 256, "periodic"))])
    def test_overflowing_product_takes_the_general_build(self, src, grid):
        obs = parse_observable(src)
        assert grid.xi_max(1.0) ** 2 > 400.0
        with np.errstate(all="ignore"):
            general = build_weyl_observable(lambda x, xi: obs(x, xi), 1.0, grid).matrix
            built = build_weyl_observable(obs, 1.0, grid).matrix
        assert not np.all(np.isfinite(general))
        assert np.array_equal(built, general, equal_nan=True)

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


def coherent_state(grid, h, x0, xi0):
    """The coherent state at (x0, xi0) sampled on the grid, l2-normalized
    weights: the states of the anti-Wick lattice, written out."""
    x = grid.nodes
    psi = (np.pi * h) ** (-0.25) * np.exp(-((x - x0) ** 2) / (2.0 * h) + 1j * xi0 * x / h)
    return psi * np.sqrt(grid.dx)


class TestAntiWick:
    def test_coherent_state_oracle(self):
        # anti-Wick average of exp(-x^2 - xi^2) in a coherent state at the
        # origin is exactly 1 / (1 + 2h)
        for h in (0.1, 0.05, 0.02):
            g = Grid1D(-3.0, 3.0, 2048, "periodic")
            frame = build_coherent_frame(g, h, (-2.0, 2.0))
            psi = coherent_state(g, h, 0.0, 0.0)
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
        psi = coherent_state(g, h, 1.0, 0.5)
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
        psi = coherent_state(g, h, 0.0, 1.0)  # momentum far outside the frame
        _, (mass,) = antiwick_batch(frame, g, psi[None, :], lambda x, xi: np.ones_like(x))
        assert mass < 0.5

    def test_batch_matches_direct_overlaps(self):
        # independent route: explicit inner products on the full grid
        h = 0.05
        g = Grid1D(-3.0, 3.0, 512, "periodic")
        frame = build_coherent_frame(g, h, (-1.5, 1.5))
        s1 = coherent_state(g, h, 0.4, -0.3)
        s2 = coherent_state(g, h, -0.6, 0.5)
        psi = (s1 + s2) / np.linalg.norm(s1 + s2)

        def a(x, xi):
            return 1.0 + 0.5 * np.sin(x) * np.cos(xi)

        (val,), (mass,) = antiwick_batch(frame, g, psi[None, :], a)
        direct = 0.0
        dmass = 0.0
        pref = frame.cell_area() / (2 * np.pi * h)
        for xc in frame.x_centers:
            for xic in frame.xi_centers:
                ov = abs(np.vdot(coherent_state(g, h, xc, xic), psi)) ** 2
                direct += pref * a(xc, xic) * ov
                dmass += pref * ov
        assert mass == pytest.approx(dmass, rel=1e-6)
        assert val == pytest.approx(direct, rel=1e-6)

    def test_tabulated_symbol_route(self):
        h = 0.05
        g = Grid1D(-3.0, 3.0, 1024, "periodic")
        frame = build_coherent_frame(g, h, (-1.5, 1.5))
        psi = coherent_state(g, h, 0.2, 0.1)

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
        psis = np.stack([coherent_state(g, h, 0.2, 0.1), coherent_state(g, h, -0.5, 0.4)])
        vals, masses = antiwick_batch(frame, g, psis, lambda x, xi: 1.0)
        assert np.max(np.abs(vals - masses)) < 1e-12


def _gauss(x, xi):
    return np.exp(-(x**2) - xi**2)


def _quadratic(x, xi):
    return x**2 + xi**2


class TestAntiWickBlocks:
    """The blocked batch against the per-column reference, to 1e-13 relative."""

    @staticmethod
    def window_batch(name, h):
        win = solve_window(get_model(name), h, 0.0)
        return default_frame(win), win.grid, np.ascontiguousarray(win.vectors.T)

    @staticmethod
    def check(frame, grid, psis, symbols):
        x, xi = frame.x_centers[:, None], frame.xi_centers[None, :]
        tables = [np.broadcast_to(a(x, xi), (x.size, xi.size)) for a in symbols]
        vals, masses = antiwick_batch(frame, grid, psis, list(symbols))
        ref_vals, ref_masses, w_len = antiwick_reference(frame, grid, psis, tables)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(masses, ref_masses, rtol=1e-13, atol=0.0)
        return w_len

    def test_finite_difference_windows_past_the_grid_end(self):
        frame, grid, psis = self.window_batch("quad-max", 0.0129)
        assert psis.dtype == float and grid.boundary == "dirichlet"
        assert frame.x_centers[-1] + 6.5 * np.sqrt(frame.h) > grid.nodes[-1]
        self.check(frame, grid, psis, [_gauss, _quadratic])

    def test_columns_past_the_decimated_grid(self):
        frame, grid, psis = self.window_batch("quad-max", 0.0129)
        wide = dataclasses.replace(frame, x_centers=np.arange(
            grid.x_min, grid.x_max + 1.0, frame.spacing))
        assert wide.x_centers[-1] - 6.5 * np.sqrt(frame.h) > grid.nodes[-1]
        self.check(wide, grid, psis, [_gauss])

    def test_complex_split_states(self):
        frame, grid, psis = self.window_batch("pseudo-k3", 0.01)
        assert np.iscomplexobj(psis)
        self.check(frame, grid, psis, [_gauss, _quadratic])

    def test_one_state_two_tables_and_a_scalar(self):
        frame, grid, psis = self.window_batch("quad-max", 0.0129)
        self.check(frame, grid, psis[:1], [_gauss, _quadratic])
        (val,), (mass,) = antiwick_batch(frame, grid, psis[:1], lambda x, xi: 1.0)
        _, (ref_mass,), _ = antiwick_reference(frame, grid, psis[:1], [])
        assert val == pytest.approx(ref_mass, rel=1e-13)
        assert mass == pytest.approx(ref_mass, rel=1e-13)
        vals, masses = antiwick_batch(frame, grid, psis[:0], [_gauss, _quadratic])
        assert vals.shape == (2, 0) and masses.shape == (0,)

    @pytest.mark.parametrize("name, h", [("quad-max", 0.0129), ("pseudo-k3", 0.01)])
    def test_batch_spans_ragged_blocks(self, monkeypatch, name, h):
        frame, grid, psis = self.window_batch(name, h)
        _, _, w_len = antiwick_reference(frame, grid, psis[:1], [])
        rows = frame.xi_centers.size * (1 if np.iscomplexobj(psis) else 2)
        cols = frame.x_centers.size
        span = next(s for s in range(cols // 3, 1, -1) if cols % s)
        # span columns a block: the largest working array holds P * max(W, rows) per column
        monkeypatch.setattr(quantize, "ANTIWICK_BLOCK", span * len(psis) * max(w_len, rows))
        assert cols // span >= 3 and cols % span
        self.check(frame, grid, psis, [_gauss, _quadratic])
