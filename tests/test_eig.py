"""Windowed eigensolves: Sturm and inertia certificates, radial channels, oscillators."""

import numpy as np
import pytest
from scipy.linalg.lapack import zhetrf

import semiclab.eig
from semiclab.eig import (
    _inertia_count,
    count_in_window,
    eigs_in_window,
    radial_channels,
    radial_grid,
    sturm_count,
)
from semiclab.errors import NumericalError
from semiclab.microlocal import upsilon, weyl_averages
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

X2 = Polynomial1D((0.0, 0.0, 1.0))


def harmonic_op(h, ppw=160):
    g = grid_for_schrodinger(X2, h, 1.0, d=5.0, ppw=ppw)
    return build_schrodinger(X2, h, g)


class TestSturm:
    def test_matches_dense_counts(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            d = rng.standard_normal(n)
            e = rng.standard_normal(n - 1)
            ev = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            for x in rng.uniform(ev[0] - 1, ev[-1] + 1, size=5):
                assert sturm_count(d, e, float(x)) == int(np.sum(ev < x))

    def test_closed_window_count(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.zeros(3)
        assert count_in_window(d, e, 1.0, 4.0) == 4
        assert count_in_window(d, e, 1.5, 4.0) == 3
        assert count_in_window(d, e, 2.0, 3.0) == 2
        assert count_in_window(d, e, 2.1, 2.9) == 0

    def test_batched_queries(self):
        d = np.array([0.0, 1.0, 2.0])
        e = np.array([1e-3, 1e-3])
        out = sturm_count(d, e, [-1.0, 0.5, 1.5, 3.0])
        assert out.tolist() == [0, 1, 2, 3]


class TestInertia:
    @staticmethod
    def random_hermitian(rng, n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return 0.5 * (a + a.conj().T)

    def assert_counts_match(self, m, shifts):
        ev = np.linalg.eigvalsh(m)
        for s in shifts:
            assert _inertia_count(m, float(s)) == int(np.sum(ev < s))

    def test_matches_eigvalsh_counts(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 7, 40, 97):
            m = self.random_hermitian(rng, n)
            ev = np.linalg.eigvalsh(m)
            self.assert_counts_match(m, rng.uniform(ev[0] - 1, ev[-1] + 1, size=6))
            real = m.real.copy()
            evr = np.linalg.eigvalsh(real)
            self.assert_counts_match(real, rng.uniform(evr[0] - 1, evr[-1] + 1, size=6))

    def test_zero_diagonal_forces_two_by_two_pivots(self):
        rng = np.random.default_rng(23)
        m = self.random_hermitian(rng, 60)
        np.fill_diagonal(m, 0.0)
        _ldu, ipiv, _info = zhetrf(m.T.copy())
        assert np.any(ipiv < 0)
        ev = np.linalg.eigvalsh(m)
        self.assert_counts_match(m, np.concatenate([[0.0], 0.5 * (ev[1:] + ev[:-1])]))


def k3_window(h, vectors=True):
    f, g = get_model("pseudo-k3").phase_poly.split_parts()
    op = build_split(f, g, h, grid_for_split(f, g, h, 0.0), window_top=5.0 * h)
    return op, eigs_in_window(op, -5.0 * h, 5.0 * h, vectors=vectors)


class TestDenseCertificate:
    @pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
    def test_inertia_count_matches_window(self, h):
        _op, win = k3_window(h, vectors=False)
        assert win.count > 0 and not win.has_ties
        assert win.count_check == win.count

    def test_dropped_state_raises(self, monkeypatch):
        solve = semiclab.eig._window_solve

        def drop_one(*args, **kwargs):
            w, v = solve(*args, **kwargs)
            return w[1:], (None if v is None else v[:, 1:])

        monkeypatch.setattr("semiclab.eig._window_solve", drop_one)
        with pytest.raises(NumericalError, match="inertia"):
            k3_window(0.05, vectors=False)

    def test_weyl_averages_match_full_eigh(self):
        h = 0.02
        op, win = k3_window(h)
        obs = parse_observable("exp(-x^2-xi^2)")
        got, method = weyl_averages(win, obs)
        assert method == "weyl-dense"
        eye = np.eye(op.size, dtype=complex)
        m = np.fft.ifft(op.mult_xi[:, None] * np.fft.fft(eye, axis=0), axis=0)
        m += np.diag(op.mult_x)
        w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
        inside = (w >= win.lo) & (w <= win.hi)
        a = build_weyl_observable(lambda x, xi: obs(x, xi), h, op.grid).matrix
        ref = np.einsum("ij,ij->j", v[:, inside].conj(), a @ v[:, inside]).real
        assert np.max(np.abs(win.eigenvalues - w[inside])) < 1e-10
        assert np.max(np.abs(got - ref)) < 1e-10


class TestWindowSolve:
    def test_harmonic_window_with_certificates(self):
        op = harmonic_op(0.05)
        win = eigs_in_window(op, 0.34, 0.86)
        exact = 0.05 * (2 * np.arange(3, 9) + 1)  # 0.35 .. 0.85
        assert win.count == 6
        assert win.count_check == 6
        assert np.max(np.abs(win.eigenvalues - exact) / exact) < 1e-4
        assert win.residual_max < 1e-9
        assert not win.has_ties

    def test_empty_window(self):
        op = harmonic_op(0.05)
        win = eigs_in_window(op, 0.36, 0.44)
        assert win.count == 0 and win.count_check == 0

    def test_eigenvector_parity(self):
        op = harmonic_op(0.1)
        win = eigs_in_window(op, 0.05, 0.75)
        # symmetric box: eigenvectors alternate between even and odd
        for j in range(win.count):
            v = win.vectors[:, j]
            sign = 1.0 if j % 2 == 0 else -1.0
            assert np.max(np.abs(v[::-1] - sign * v)) < 1e-6

    def test_edge_tie_is_flagged(self):
        n = 800
        g = Grid1D(0.0, np.pi, n, "dirichlet")
        op = build_schrodinger(Polynomial1D((0.0,)), 1.0, g)
        lam = (2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / (n + 1))) / g.dx**2
        win = eigs_in_window(op, lam[0] - 0.1, float(lam[2]))
        assert win.count == 3
        assert bool(win.edge_flags[2])
        assert not win.edge_flags[0]

    def test_dense_route_matches_tridiagonal(self):
        h = 0.05
        gs = grid_for_split(X2, X2, h, 1.0, d=5.0)
        sop = build_split(X2, X2, h, gs, window_top=1.25)
        w = eigs_in_window(sop, 0.04, 0.66, vectors=False).eigenvalues
        exact = h * (2 * np.arange(7) + 1)
        assert w.size == 7
        assert np.max(np.abs(w - exact)) < 1e-8


class TestRadial:
    def test_grid_nodes_half_offset(self):
        g = radial_grid(3.0, 30)
        dr = 3.0 / 30.5
        assert g.dx == pytest.approx(dr)
        assert g.nodes[0] == pytest.approx(0.5 * dr)
        # last node one spacing inside the Dirichlet wall at r_max
        assert g.nodes[-1] == pytest.approx(3.0 - dr)

    def test_isotropic_oscillator_degeneracies(self):
        # -h^2 Lap + r^2 in 2D: levels 2h(N+1) with multiplicity N+1
        h = 0.1
        ch = radial_channels(X2, h, 0.55, 0.85, d=5.0, ppw=64, vectors=False)
        assert upsilon(ch) == 7.0  # three states at 0.6, four at 0.8
        for c in ch:
            for lam in c.window.eigenvalues:
                k = lam / (2 * h) - 1.0
                assert abs(k - round(k)) < 5e-3

    def test_oscillator_level_accuracy(self):
        h = 0.1
        ch = radial_channels(X2, h, 0.05, 1.05, d=5.0, ppw=96, vectors=False)
        c0 = next(c for c in ch if c.m == 0)
        exact = 2 * h * (2 * np.arange(3) + 1)  # 0.2, 0.6, 1.0
        assert np.max(np.abs(c0.window.eigenvalues - exact) / exact) < 1e-3

    def test_ground_state_radial_moment(self):
        # psi ~ exp(-r^2 / 2h): <r^2> = h exactly
        h = 0.1
        ch = radial_channels(X2, h, 0.15, 0.25, d=5.0, ppw=96)
        c0 = next(c for c in ch if c.m == 0)
        assert c0.window.count == 1
        phi = c0.window.vectors[:, 0]
        r = c0.window.grid.nodes
        assert np.sum(phi**2) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(r**2 * phi**2) == pytest.approx(h, rel=1e-2)

    def test_count_stable_under_refinement(self):
        Vr = Polynomial1D((0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0))
        h = 0.02
        a = upsilon(radial_channels(Vr, h, -0.1, 0.1, ppw=64, vectors=False))
        b = upsilon(radial_channels(Vr, h, -0.1, 0.1, ppw=96, vectors=False))
        assert a == b

    def test_channel_sweep_terminates(self):
        ch = radial_channels(X2, 0.1, 0.55, 0.85, vectors=False)
        tops = [c.m for c in ch]
        assert tops == list(range(len(tops)))
        assert len(ch) < 20
