"""Windowed eigensolves: Sturm and inertia certificates, radial channels, oscillators."""

import math

import numpy as np
import pytest

import semiclab.eig
from semiclab.eig import (
    _band_inertia,
    eigs_in_window,
    radial_channels,
    sturm_count,
)
from semiclab.errors import ConfigError, NumericalError
from semiclab.experiments import default_center, solve_window
from semiclab.microlocal import weyl_averages
from semiclab.model import Polynomial1D, catalog, get_model
from semiclab.observables import parse_observable
from semiclab.quantize import (
    DiscreteOperator,
    Grid1D,
    build_schrodinger,
    build_split,
    build_weyl_observable,
    dense_matrix,
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
        # levels on a window edge are in the window, on both routes; the
        # levels 1, 2, 3, 4 and 12 more above them fill a 16-row grid
        d = np.arange(1.0, 17.0)
        op = DiscreteOperator("tridiagonal", 1.0, Grid1D(0.0, 1.0, d.size, "dirichlet"),
                              diag=d, offdiag=np.zeros(d.size - 1))
        for lo, hi, count in ((1.0, 4.0, 4), (1.5, 4.0, 3), (2.0, 3.0, 2), (2.1, 2.9, 0)):
            for values in (True, False):
                win = eigs_in_window(op, lo, hi, vectors=False, values=values)
                assert win.count == win.count_check == count

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


def sturm_rows(a, b2, x):
    """The pivot recurrence row by row on Python floats: the oracle of the
    chunked count."""
    d, e2 = a.tolist(), b2.tolist()
    pivmin = 1e-290 * max(1.0, float(b2.max()) if b2.size else 0.0)
    out = np.empty(x.size, dtype=int)
    for j, s in enumerate(x.tolist()):
        q = d[0] - s
        if abs(q) < pivmin:
            q = -pivmin
        count = 1 if q < 0.0 else 0
        for i in range(1, len(d)):
            q = d[i] - s - e2[i - 1] / q
            if abs(q) < pivmin:
                q = -pivmin
            if q < 0.0:
                count += 1
        out[j] = count
    return out


def dense_counts(d, e, shifts):
    ev = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    return [int(np.sum(ev < x)) for x in shifts]


class TestChunkedSturm:
    """The chunked recurrence against eigvalsh and against the row-by-row
    recurrence, ``sturm_rows``."""

    @staticmethod
    def check(d, e, shifts, expected=None):
        got = sturm_count(d, e, shifts).tolist()
        assert got == (dense_counts(d, e, shifts) if expected is None else expected)
        assert got == sturm_rows(np.asarray(d, float), np.square(np.asarray(e, float)),
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
            expected = sturm_rows(d, np.square(e), shifts).tolist()
            self.check(d * scale, e * scale, shifts * scale, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 97, 1001, 5000, 20001])
    def test_every_shift_in_one_pass(self, n):
        # 1 to 6 shifts, the first one repeated, every other one a diagonal
        # entry (a level sitting on the shift where its row is decoupled),
        # and entries scaled far from one; the last chunk is padded unless L
        # divides n
        rng = np.random.default_rng(1000 + n)
        for zero_share in (0.0, 0.05, 1.0):
            d, e = random_tridiagonal(rng, n, zero_share)
            if n <= 1001:
                ev = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            gershgorin = float(np.min(d) - 2.0 * np.max(np.abs(e), initial=0.0))
            for size in range(1, 7):
                shifts = rng.standard_normal(size) * 30.0
                shifts[1::2] = d[rng.integers(0, n, shifts[1::2].size)]
                shifts[-1] = shifts[0]
                got = sturm_count(d, e, shifts).tolist()
                assert got == sturm_rows(d, np.square(e), shifts).tolist()
                if n <= 1001:
                    # a level exactly on a shift may count as below it
                    assert all(np.sum(ev < x) <= k <= np.sum(ev <= x)
                               for k, x in zip(got, shifts))
                elif not zero_share:
                    # dstebz counts (floor, x], its pivot guard deciding a
                    # level on x as ours does (it splits a decoupled matrix
                    # into blocks, each one a separate call: slow at this n)
                    floor = min(gershgorin, float(shifts.min())) - 1.0
                    assert got == [semiclab.eig._stebz_count(d, e, floor, x) for x in shifts]
                for scale in (1e150, 1e-150):
                    assert sturm_count(d * scale, e * scale, shifts * scale).tolist() == got

    def test_underflowing_chunk_map_is_carried_row_by_row(self):
        # a zero diagonal but for one entry of order one, couplings 1e-100 and
        # shifts near 1e-150: a step shrinks a chunk map about 1e-150-fold,
        # so eight steps sink it below the doubles and the pivot must be
        # carried through those chunks row by row
        for n in (50, 5000, 20001):
            d = np.zeros(n)
            d[0] = 1.0
            e = np.full(n - 1, 1e-100)
            shifts = np.array([1e-150, -1e-150, 3e-101, 0.5])
            self.check(d, e, shifts,
                       [semiclab.eig._stebz_count(d, e, -1.0, x) for x in shifts])

    def test_scalar_in_int_out(self):
        out = sturm_count(np.array([0.0, 1.0, 2.0]), np.array([1e-3, 1e-3]), 1.5)
        assert isinstance(out, int) and out == 2


def to_band(m, k):
    """LAPACK band storage of both halves of m: entry (i, j) at row k + i - j
    of column j."""
    n = m.shape[0]
    band = np.zeros((2 * k + 1, n), dtype=m.dtype)
    for t in range(-k, k + 1):
        j = np.arange(max(0, -t), n - max(0, t))
        band[k + t, j] = m[j + t, j]
    return band


def from_band(band):
    k, n = band.shape[0] // 2, band.shape[1]
    m = np.zeros((n, n), dtype=band.dtype)
    for t in range(-k, k + 1):
        j = np.arange(max(0, -t), n - max(0, t))
        m[j + t, j] = band[k + t, j]
    return m


class TestInertia:
    """The split route's certificate, block LDL^H on the band, against
    eigvalsh of the same matrix."""

    @staticmethod
    def random_hermitian(rng, n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return 0.5 * (a + a.conj().T)

    def random_band(self, rng, n, k):
        i, j = np.indices((n, n))
        return np.where(np.abs(i - j) <= k, self.random_hermitian(rng, n), 0.0)

    @staticmethod
    def assert_counts_match(m, k, shifts):
        ev = np.linalg.eigvalsh(m)
        got = _band_inertia(to_band(m, k), shifts)
        assert got.tolist() == [int(np.sum(ev < s)) for s in shifts]

    def test_matches_eigvalsh_counts(self):
        rng = np.random.default_rng(17)
        for k in range(1, 7):
            # sizes below k, at k and not a multiple of k pad the last block
            for n in (1, k, k + 1, 5 * k - 1, 40, 97):
                m = self.random_band(rng, n, k)
                for mat in (m, m.real.copy()):
                    ev = np.linalg.eigvalsh(mat)
                    self.assert_counts_match(mat, k, rng.uniform(ev[0] - 1, ev[-1] + 1, size=6))
        # a dense matrix with a zero diagonal, as one band of width n - 1
        m = self.random_hermitian(np.random.default_rng(23), 60)
        np.fill_diagonal(m, 0.0)
        ev = np.linalg.eigvalsh(m)
        self.assert_counts_match(m, 59, np.concatenate([[0.0], 0.5 * (ev[1:] + ev[:-1])]))

    def test_width_one_is_the_sturm_recurrence(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 97, 1001):
            d, e = random_tridiagonal(rng, n)
            band = np.stack([np.r_[0.0, e], d, np.r_[e, 0.0]])
            shifts = rng.standard_normal(6) * 30.0
            assert _band_inertia(band, shifts).tolist() == sturm_count(d, e, shifts).tolist()

    def test_shift_on_an_eigenvalue_of_the_leading_block(self):
        # B_1 - 3 I is exactly singular: the elimination cannot pass it, and
        # no count may come back
        k = 3
        m = self.random_band(np.random.default_rng(9), 12, k)
        m[:k, :k] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 5.0]]
        with pytest.raises(NumericalError, match="singular"):
            _band_inertia(to_band(m, k), [0.0, 3.0])

    @pytest.mark.parametrize("name", ["pseudo-k3", "pseudo-k4"])
    def test_shifts_hugging_window_eigenvalues(self, name):
        # shifts 1e-13, 1e-10 and 1e-7 either side of every window eigenvalue,
        # relative to the eigenvalue and to the operator scale; one that lies
        # within eigvalsh's rounding of an eigenvalue may count it either way
        h = 0.0125
        f, g = get_model(name).phase_poly.split_parts()
        op = build_split(f, g, h, grid_for_split(f, g, h, 0.0), window_top=5.0 * h)
        x0, xi0, s, n = semiclab.eig._hermite_basis(op, -5.0 * h, 5.0 * h)
        band = semiclab.eig._hermite_band(op, x0, xi0, s, n)
        ev = np.linalg.eigvalsh(from_band(band))
        scale = float(np.max(np.abs(ev)))
        win = ev[np.abs(ev) <= 5.0 * h]
        shifts = np.concatenate([win + sign * r * size for r in (1e-13, 1e-10, 1e-7)
                                 for sign in (-1.0, 1.0) for size in (np.abs(win), scale)])
        got = _band_inertia(band, shifts)
        tol = 16.0 * np.finfo(float).eps * scale
        below = np.searchsorted(ev, shifts - tol)
        upto = np.searchsorted(ev, shifts + tol)
        assert win.size > 10 and np.all((below <= got) & (got <= upto))
        assert np.count_nonzero(below == upto) > 0.5 * shifts.size


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
        # one lost state is caught on every route, with no edge ties to
        # excuse it, and the error names each side by its role there
        banded, tridiagonal = semiclab.eig.eig_banded, semiclab.eig.eigh_tridiagonal
        monkeypatch.setattr("semiclab.eig.eig_banded",
                            lambda *args, **kwargs: banded(*args, **kwargs)[1:])
        monkeypatch.setattr("semiclab.eig.eigh_tridiagonal",
                            lambda *args, **kwargs: tridiagonal(*args, **kwargs)[1:])
        with pytest.raises(NumericalError, match="LAPACK 8, LDL\\^H inertia 9"):
            k3_window(0.05, vectors=False)
        with pytest.raises(NumericalError, match="LAPACK 5, Sturm 6"):
            eigs_in_window(harmonic_op(0.05), 0.34, 0.86, vectors=False)
        # a count-only window decides by Sturm and loses the state there: its
        # top shift, the end of the kept range, counts one state fewer
        count = semiclab.eig.sturm_count

        def drop_top(diag, offdiag, values):
            below = count(diag, offdiag, values)
            return below - (np.asarray(values) == np.max(values))

        monkeypatch.setattr("semiclab.eig.sturm_count", drop_top)
        with pytest.raises(NumericalError, match="Sturm 5, LAPACK dstebz 6"):
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

    def test_residual_matches_the_column_by_column_product(self):
        op = harmonic_op(0.05)
        win = eigs_in_window(op, 0.34, 0.86)

        def apply(v):  # H v, one column at a time
            out = op.diag * v
            out[:-1] += op.offdiag * v[1:]
            out[1:] += op.offdiag * v[:-1]
            return out

        v = win.vectors[:, 0]
        assert np.max(np.abs(apply(v) - dense_matrix(op) @ v)) < 1e-12 * np.max(np.abs(op.diag))
        assert win.residual_max == max(float(np.linalg.norm(apply(v) - lam * v))
                                       for lam, v in zip(win.eigenvalues, win.vectors.T))

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


class TestHermiteRoute:
    """Split windows in the displaced Hermite basis: values from the band,
    the block LDL^H inertia certificate, the tail check, vectors on the grid."""

    @pytest.mark.parametrize("h", [0.1, 0.0125, 0.0022])
    def test_window_matches_split_grid_eigvalsh(self, h):
        op, win = k3_window(h, vectors=False)
        ev = np.linalg.eigvalsh(dense_matrix(op))
        inside = ev[(ev >= win.lo) & (ev <= win.hi)]
        assert win.count == win.count_check == inside.size > 0
        assert np.max(np.abs(win.eigenvalues - inside)) < 1e-10

    def test_dropped_state_raises_through_inertia(self, monkeypatch):
        solve = semiclab.eig.eig_banded

        def drop_centre(*args, **kwargs):
            w = solve(*args, **kwargs)
            return w[np.arange(w.size) != np.argmin(np.abs(w))]

        monkeypatch.setattr(semiclab.eig, "eig_banded", drop_centre)
        with pytest.raises(NumericalError, match="LAPACK 14, LDL\\^H inertia 15"):
            k3_window(0.01)

    def test_undersized_basis_trips_the_tail_check(self, monkeypatch):
        monkeypatch.setattr(semiclab.eig, "BASIS_WIDTHS", 0.0)
        monkeypatch.setattr(semiclab.eig, "BASIS_PAD", 0)
        with pytest.raises(NumericalError, match="too small"):
            k3_window(0.0125)

    @pytest.mark.parametrize("h", [0.1, 0.0125])
    def test_mapped_vectors_are_orthonormal_on_the_grid(self, h):
        op, win = k3_window(h)
        v = win.vectors
        assert v.shape == (op.size, win.count)
        assert np.max(np.abs(v.conj().T @ v - np.eye(win.count))) < 1e-10
        assert win.residual_max < 1e-12

    def test_hermite_table_survives_the_rescale(self):
        # at x = 60 the recurrence grows phi_j / phi_0 past 2^1100 by j = 400,
        # so without the 2^500 rescale the far nodes overflow to inf
        k = 400
        phi = semiclab.eig._to_grid(np.eye(k), Grid1D(-60.0, 60.0, 1500, "dirichlet"),
                                    1.0, 0.0, 0.0, 1.0)
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(k))) < 1e-12

    def test_k4_count_matches_the_split_grid_inertia(self):
        # degree 6: a band of width 6, never solved in this basis before
        h = 0.0125
        f, g = get_model("pseudo-k4").phase_poly.split_parts()
        op = build_split(f, g, h, grid_for_split(f, g, h, 0.0), window_top=5.0 * h)
        win = eigs_in_window(op, -5.0 * h, 5.0 * h)
        ev = np.linalg.eigvalsh(dense_matrix(op))
        dense = int(np.count_nonzero(np.abs(ev) <= 5.0 * h))
        assert win.count == win.count_check == dense == 18

    def test_empty_window_solves_nothing(self, monkeypatch):
        calls = []
        solve = semiclab.eig.solve_banded
        monkeypatch.setattr(semiclab.eig, "solve_banded",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        h = 0.05
        op = build_split(X2, X2, h, grid_for_split(X2, X2, h, 1.0, d=5.0), window_top=1.25)
        win = eigs_in_window(op, 0.36, 0.44)  # between the levels 7h and 9h
        assert win.count == win.count_check == 0
        assert win.vectors.shape == (op.size, 0)
        assert calls == []

    def test_shift_on_an_exact_eigenvalue(self):
        # the harmonic oscillator is diagonal in the basis: every computed
        # eigenvalue is exact, and the inverse iteration must step off it
        h = 0.05
        op = build_split(X2, X2, h, grid_for_split(X2, X2, h, 1.0, d=5.0), window_top=1.25)
        x0, xi0, s, n = semiclab.eig._hermite_basis(op, 0.04, 0.66)
        band = semiclab.eig._hermite_band(op, x0, xi0, s, n)
        assert np.count_nonzero(np.delete(band, band.shape[0] // 2, axis=0)) == 0
        win = eigs_in_window(op, 0.04, 0.66)
        assert win.count == win.count_check == 7
        assert np.max(np.abs(win.eigenvalues - h * (2 * np.arange(7) + 1))) <= 1e-12
        assert win.residual_max <= 1e-12

    def test_near_degenerate_pairs_come_back_orthonormal(self):
        # a symmetric double well below its barrier: tunnelling doublets
        # whose splitting is far below the window width
        h, e_center = 0.05, -0.7
        well = Polynomial1D((0.0, 0.0, -2.0, 0.0, 1.0))
        op = build_split(well, X2, h, grid_for_split(well, X2, h, e_center),
                         window_top=e_center + 5.0 * h)
        win = eigs_in_window(op, e_center - 5.0 * h, e_center + 5.0 * h)
        assert win.count == win.count_check == 6
        assert np.max(np.diff(win.eigenvalues)[::2]) < 1e-6
        v = win.vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-10
        assert win.residual_max <= 1e-12

    def test_repeated_solves_are_bitwise_identical(self):
        _op, first = k3_window(0.01)
        _op, second = k3_window(0.01)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.vectors, second.vectors)

    def test_non_polynomial_parts_are_refused(self):
        with pytest.raises(ConfigError, match="polynomial"):
            build_split(lambda x: x * x, X2, 0.05, Grid1D(-3.0, 3.0, 64, "periodic"))


FD_MODELS = [m for m in catalog() if get_model(m).family == "schrodinger1d"]


def window_decisions(win):
    return win.count, win.count_check, win.edge_flags.tolist()


def windows_with_a_level_on(threshold):
    """Windows [lo, lo + 0.5] of the oscillator in its eigenbasis whose
    threshold number ``threshold`` sits one ulp below, exactly on and one
    ulp above the level 7h.

    The levels (2j+1)h are the exact eigenvalues of a decoupled tridiagonal
    matrix, so a level can sit exactly on a threshold (a finite-difference
    level is known only to O(eps * ||H||), which is many ulps).  The
    thresholds are the six of ``eigs_in_window``: lo - eps_keep,
    hi + eps_keep, then lo and hi each -+ edge_tol.
    """
    h, width = 0.05, 0.5
    diag = h * (2 * np.arange(40) + 1.0)
    op = DiscreteOperator("tridiagonal", h, Grid1D(0.0, 1.0, diag.size, "dirichlet"),
                          diag=diag, offdiag=np.zeros(diag.size - 1))
    level = diag[3]
    # the operator scale max|diag| + 2 max|offdiag|, above 1 here
    eps_keep = 1e-12 * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(op.offdiag)))

    def at(lo):
        hi = lo + width
        edge_tol = semiclab.eig.EDGE_FRACTION * (hi - lo)
        return (lo - eps_keep, hi + eps_keep, lo - edge_tol, lo + edge_tol,
                hi - edge_tol, hi + edge_tol)[threshold]

    guess = level - (at(level) - level)
    for target in (np.nextafter(level, 0.0), level, np.nextafter(level, 1.0)):
        lo = guess + (target - level)
        lo = next(x for x in lo + np.spacing(lo) * np.arange(-64, 65) if at(x) == target)
        yield op, lo, lo + width


class TestCountOnly:
    """values=False windows decide from eigenvalue counts alone."""

    @pytest.mark.parametrize("name", FD_MODELS)
    def test_decisions_match_full_precision(self, name):
        model = get_model(name)
        for e_center in (default_center(model), 0.5):
            for h in np.geomspace(1e-1, 1e-3, 5):
                full = solve_window(model, h, e_center, vectors=False)
                counted = solve_window(model, h, e_center, vectors=False, values=False)
                assert window_decisions(counted) == window_decisions(full)
                assert np.isnan(counted.eigenvalues).all()

    def test_no_eigenvalue_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a count-only window solved for eigenvalues")

        monkeypatch.setattr(semiclab.eig, "eigh_tridiagonal", refuse)
        monkeypatch.setattr(semiclab.eig, "eig_banded", refuse)
        win = eigs_in_window(harmonic_op(0.05), 0.34, 0.86, vectors=False, values=False)
        assert win.count == 6 and win.count_check == 6 and not win.has_ties

    def test_one_count_decides_and_one_certifies(self, monkeypatch):
        # the route's passes over the matrix, counted: a count-only window
        # makes one Sturm count at all its thresholds and one LAPACK count;
        # a window with values one LAPACK solve and one Sturm count
        calls = []
        for name in ("sturm_count", "_stebz_count", "eigh_tridiagonal"):
            def spy(*args, _name=name, _f=getattr(semiclab.eig, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(semiclab.eig, name, spy)
        op = harmonic_op(0.01)
        assert op.size == 9225
        win = eigs_in_window(op, 0.9, 1.1, vectors=False, values=False)
        assert win.count == win.count_check == 10
        assert sorted(calls) == ["_stebz_count", "sturm_count"]
        calls.clear()
        win = eigs_in_window(op, 0.9, 1.1, vectors=False)
        assert win.count == win.count_check == 10
        assert sorted(calls) == ["eigh_tridiagonal", "sturm_count"]

    @pytest.mark.parametrize("threshold", range(6))
    def test_level_on_a_threshold(self, threshold):
        for op, lo, hi in windows_with_a_level_on(threshold):
            full = eigs_in_window(op, lo, hi, vectors=False)
            counted = eigs_in_window(op, lo, hi, vectors=False, values=False)
            assert window_decisions(counted) == window_decisions(full)

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_level_on_a_kept_range_end_is_certified(self, threshold):
        # every certificate counts the kept range [lo - eps_keep, hi + eps_keep],
        # so a level on either end counts on both sides of the check
        for op, lo, hi in windows_with_a_level_on(threshold):
            for values in (True, False):
                win = eigs_in_window(op, lo, hi, vectors=False, values=values)
                assert win.count_check == win.count > 0

    @pytest.mark.parametrize("h", [0.05, 0.01])
    def test_radial_channels_decide_alike(self, h):
        V = get_model("radial-deg").potential
        args = (V, h, -5.0 * h, 5.0 * h)
        full = radial_channels(*args, vectors=False)
        counted = radial_channels(*args, vectors=False, values=False)
        assert [c.m for c in counted] == [c.m for c in full]
        assert ([window_decisions(c.window) for c in counted]
                == [window_decisions(c.window) for c in full])

    def test_needs_vectors_off(self):
        with pytest.raises(ValueError, match="vectors=False"):
            eigs_in_window(harmonic_op(0.05), 0.34, 0.86, values=False)

    def test_dense_route_ignores_the_flag(self):
        _op, full = k3_window(0.05, vectors=False)
        f, g = get_model("pseudo-k3").phase_poly.split_parts()
        op = build_split(f, g, 0.05, grid_for_split(f, g, 0.05, 0.0), window_top=0.25)
        counted = eigs_in_window(op, -0.25, 0.25, vectors=False, values=False)
        assert np.array_equal(counted.eigenvalues, full.eigenvalues)


def weighted_count(channels):
    """Plane count of radial channels: channel m >= 1 enters twice (+-m)."""
    return sum(c.weight * c.window.count for c in channels)


class TestRadial:
    def test_isotropic_oscillator_degeneracies(self):
        # -h^2 Lap + r^2 in 2D: levels 2h(N+1) with multiplicity N+1
        h = 0.1
        ch = radial_channels(X2, h, 0.55, 0.85, d=5.0, ppw=64, vectors=False)
        assert weighted_count(ch) == 7.0  # three states at 0.6, four at 0.8
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
        a = weighted_count(radial_channels(Vr, h, -0.1, 0.1, ppw=64, vectors=False))
        b = weighted_count(radial_channels(Vr, h, -0.1, 0.1, ppw=96, vectors=False))
        assert a == b

    def test_channel_sweep_terminates(self):
        ch = radial_channels(X2, 0.1, 0.55, 0.85, vectors=False)
        tops = [c.m for c in ch]
        assert tops == list(range(len(tops)))
        assert len(ch) < 20
        assert [c.weight for c in ch] == [1.0] + [2.0] * (len(ch) - 1)

    @pytest.mark.parametrize("ppw", [0, -2])
    def test_ppw_below_one_refused(self, ppw):
        # ppw = 0 once divided by zero in resolution_dx and solved on 16 rows
        with pytest.raises(ConfigError, match="ppw"):
            radial_channels(X2, 0.05, -0.25, 0.25, ppw=ppw, vectors=False)

    @pytest.mark.parametrize("h_max", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_h_max_refused(self, h_max):
        # -1 and NaN once fell back to the margin floor without a word
        with pytest.raises(ConfigError, match="h_max"):
            radial_channels(X2, 0.05, -0.25, 0.25, h_max=h_max, vectors=False)
