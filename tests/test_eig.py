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
from semiclab.experiments import default_center, solve_window
from semiclab.microlocal import upsilon, weyl_averages
from semiclab.model import Polynomial1D, catalog, get_model
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


def random_tridiagonal(rng, n, zero_share=0.0):
    d = rng.standard_normal(n) * rng.choice([1.0, 50.0])
    e = rng.standard_normal(n - 1)
    e[rng.random(n - 1) < zero_share] = 0.0
    return d, e


def dense_counts(d, e, shifts):
    ev = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    return [int(np.sum(ev < x)) for x in shifts]


class TestChunkedSturm:
    """The chunked recurrence, forced onto small matrices, against eigvalsh
    and against the row-by-row recurrence it replaces above the cutoff."""

    @pytest.fixture(autouse=True)
    def chunked(self, monkeypatch):
        monkeypatch.setattr(semiclab.eig, "STURM_SCALAR_ROWS", 0)

    @staticmethod
    def check(d, e, shifts, expected=None):
        got = sturm_count(d, e, shifts).tolist()
        assert got == (dense_counts(d, e, shifts) if expected is None else expected)
        assert got == semiclab.eig._sturm_scalar(
            np.asarray(d, float), np.square(np.asarray(e, float)),
            np.asarray(shifts, float)).tolist()

    # 1 and 2 rows: one chunk, mostly padding; 97 and 1001 rows: the last
    # chunk is partial
    @pytest.mark.parametrize("n", [1, 2, 3, 97, 1001])
    def test_matches_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            d, e = random_tridiagonal(rng, n)
            self.check(d, e, rng.standard_normal(6) * 30.0)

    @pytest.mark.parametrize("zero_share", [0.3, 1.0])
    def test_decoupled_blocks(self, zero_share):
        rng = np.random.default_rng(7)
        for n in (2, 40, 333):
            d, e = random_tridiagonal(rng, n, zero_share)
            self.check(d, e, rng.standard_normal(6) * 30.0)

    def test_zero_pivot(self):
        # a shift equal to the entry of a row right after a zero coupling
        # makes that pivot exactly zero; sliding it along the rows puts it on
        # every chunk boundary, ahead of a decoupled row two rows on
        rng = np.random.default_rng(11)
        d, e = random_tridiagonal(rng, 200)
        for k in range(1, 60):
            ek = e.copy()
            ek[[k - 1, k + 2]] = 0.0
            self.check(d, ek, [d[k]])

    def test_zero_pivot_on_a_lone_row(self):
        # row k coupled to neither neighbour: its eigenvalue d[k] equals the
        # shift and, as in the row-by-row loop, counts as below it; the next
        # row restarts the recurrence after that zero pivot
        rng = np.random.default_rng(12)
        d, e = random_tridiagonal(rng, 200)
        for k in range(1, 60):
            ek = e.copy()
            ek[[k - 1, k]] = 0.0
            above = np.nextafter(d[k], np.inf)
            self.check(d, ek, [d[k]], dense_counts(d, ek, [above]))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales(self, scale):
        # b^2 reaches 1e+-300: the pivot floor must not count padding, and
        # pass 1's products must not sink into subnormals (shifts equal to
        # diagonal entries exposed that before the power-of-two rescaling)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            d, e = random_tridiagonal(rng, 100)
            shifts = np.concatenate([d[[0, 50, 99]], rng.standard_normal(3) * 30.0])
            expected = semiclab.eig._sturm_scalar(d, np.square(e), shifts).tolist()
            self.check(d * scale, e * scale, shifts * scale, expected)

    def test_scalar_in_int_out(self):
        out = sturm_count(np.array([0.0, 1.0, 2.0]), np.array([1e-3, 1e-3]), 1.5)
        assert isinstance(out, int) and out == 2

    def test_long_matrix_takes_the_chunked_route(self, monkeypatch):
        monkeypatch.undo()
        calls = []
        chunked = semiclab.eig._sturm_chunked
        monkeypatch.setattr(semiclab.eig, "_sturm_chunked",
                            lambda *a: calls.append(1) or chunked(*a))
        rng = np.random.default_rng(17)
        d, e = random_tridiagonal(rng, semiclab.eig.STURM_SCALAR_ROWS + 3)
        shifts = [-20.0, 0.0, 35.0]
        a, b2 = np.asarray(d), np.square(e)
        assert sturm_count(d, e, shifts).tolist() == semiclab.eig._sturm_scalar(
            a, b2, np.asarray(shifts)).tolist()
        assert calls


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
        # one lost state is caught on both routes: LDL^H inertia (split) and
        # Sturm (tridiagonal), with no edge ties to excuse it
        solve = semiclab.eig._window_solve

        def drop_one(*args, **kwargs):
            w, v = solve(*args, **kwargs)
            return w[1:], (None if v is None else v[:, 1:])

        monkeypatch.setattr("semiclab.eig._window_solve", drop_one)
        with pytest.raises(NumericalError, match="inertia"):
            k3_window(0.05, vectors=False)
        with pytest.raises(NumericalError, match="Sturm"):
            eigs_in_window(harmonic_op(0.05), 0.34, 0.86, vectors=False)
        with pytest.raises(NumericalError, match="Sturm"):
            eigs_in_window(harmonic_op(0.05), 0.34, 0.86, vectors=False, values=False)

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


FD_MODELS = [m for m in catalog() if get_model(m).family == "schrodinger1d"]


def window_decisions(win):
    return win.count, win.count_check, win.edge_flags.tolist()


class TestCountOnly:
    """values=False windows bisect coarsely but decide exactly."""

    @pytest.mark.parametrize("name", FD_MODELS)
    def test_decisions_match_full_precision(self, name):
        model = get_model(name)
        for e_center in (default_center(model), 0.5):
            for h in np.geomspace(1e-1, 1e-3, 5):
                full = solve_window(model, h, e_center, vectors=False)
                coarse = solve_window(model, h, e_center, vectors=False, values=False)
                assert window_decisions(coarse) == window_decisions(full)
                assert np.all(np.abs(coarse.eigenvalues - full.eigenvalues)
                              <= 0.5 * semiclab.eig.COUNT_TOL_FRACTION
                              * semiclab.eig.EDGE_FRACTION * 10.0 * h)

    def test_value_near_a_threshold_solves_again(self, monkeypatch):
        # put the discrete level near 7h = (2j+1)h, j = 3, exactly on
        # lo + edge_tol, the inner edge of the lower tie band
        h = 0.05
        op = harmonic_op(h)
        lam = eigs_in_window(op, 6.5 * h, 7.5 * h, vectors=False).eigenvalues
        assert lam.size == 1 and abs(lam[0] - 7 * h) < 1e-4 * h
        width = 10 * h
        lo = float(lam[0]) - semiclab.eig.EDGE_FRACTION * width
        hi = lo + width
        tols = []
        solve = semiclab.eig.eigh_tridiagonal
        monkeypatch.setattr(semiclab.eig, "eigh_tridiagonal",
                            lambda *a, **kw: tols.append(kw.get("tol", 0.0)) or solve(*a, **kw))
        coarse = eigs_in_window(op, lo, hi, vectors=False, values=False)
        assert len(tols) == 2 and tols[0] > 0.0 and tols[1] == 0.0
        full = eigs_in_window(op, lo, hi, vectors=False)
        assert window_decisions(coarse) == window_decisions(full)
        assert np.array_equal(coarse.eigenvalues, full.eigenvalues)

    def test_no_solve_again_away_from_thresholds(self, monkeypatch):
        tols = []
        solve = semiclab.eig.eigh_tridiagonal
        monkeypatch.setattr(semiclab.eig, "eigh_tridiagonal",
                            lambda *a, **kw: tols.append(kw.get("tol", 0.0)) or solve(*a, **kw))
        win = eigs_in_window(harmonic_op(0.05), 0.34, 0.86, vectors=False, values=False)
        assert win.count == 6 and not win.has_ties
        assert tols == [pytest.approx(semiclab.eig.COUNT_TOL_FRACTION * semiclab.eig.EDGE_FRACTION * 0.52)]

    @pytest.mark.parametrize("h", [0.05, 0.01])
    def test_radial_channels_decide_alike(self, h):
        V = get_model("radial-deg").potential
        args = (V, h, -5.0 * h, 5.0 * h)
        full = radial_channels(*args, vectors=False)
        coarse = radial_channels(*args, vectors=False, values=False)
        assert [c.m for c in coarse] == [c.m for c in full]
        assert ([window_decisions(c.window) for c in coarse]
                == [window_decisions(c.window) for c in full])

    def test_needs_vectors_off(self):
        with pytest.raises(ValueError, match="vectors=False"):
            eigs_in_window(harmonic_op(0.05), 0.34, 0.86, values=False)

    def test_dense_route_ignores_the_flag(self):
        _op, full = k3_window(0.05, vectors=False)
        f, g = get_model("pseudo-k3").phase_poly.split_parts()
        op = build_split(f, g, 0.05, grid_for_split(f, g, 0.05, 0.0), window_top=0.25)
        coarse = eigs_in_window(op, -0.25, 0.25, vectors=False, values=False)
        assert np.array_equal(coarse.eigenvalues, full.eigenvalues)


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
