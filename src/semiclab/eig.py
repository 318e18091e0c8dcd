"""Windowed eigensolves with independent counting certificates.

Eigenvalues in a closed energy window [lo, hi] are computed by solvers whose
cost follows the window population rather than the operator size, and every
count is cross-checked by a certificate that does not depend on the
eigensolver.  A disagreement that cannot be blamed on window-edge ties
raises ``NumericalError`` instead of being papered over.

Tridiagonal (finite-difference) operators are solved by LAPACK bisection
and inverse iteration (scipy ``eigh_tridiagonal`` with ``select='v'``) and
certified by a hand-rolled Sturm sequence.

Split operators f(x) + g(h D), f and g polynomials, are solved in the
displaced, squeezed Hermite basis psi_n(x) = (s sqrt h)^(-1/2) phi_n(y)
exp(i xi0 (x - x0) / h), y = (x - x0) / (s sqrt h), where

    X = x0 + s sqrt(h/2) (a + a^+),    P = xi0 + (i / s) sqrt(h/2) (a^+ - a)

are tridiagonal, so f(X) + g(P) is a banded Hermitian matrix of bandwidth
k = max(deg f, deg g).  Built on N + k functions and cut to N x N, it is
exactly the operator compressed to the first N.  The basis rule: (x0, xi0)
and (R_x, R_xi) are the centre and half-widths of the classical box
{f + g <= hi}, s = sqrt(R_x / R_xi), and psi_n lives near radius
sqrt((2n + 1) h) in the plane (x / s, s xi), so the basis reaches
``BASIS_WIDTHS`` widths sqrt(h) past the box corner rho = sqrt(2 R_x R_xi)
and ``BASIS_PAD`` functions more: N = ceil((rho / sqrt(h) + BASIS_WIDTHS)^2
/ 2) + BASIS_PAD.  The band is the route's only form of the operator.  The
values come from LAPACK ``zhbevx`` on it (``eig_banded``, select='v'); the
certificate is Sylvester's law of inertia block by block: a block LDL^H
elimination of the band counts below both window edges (``_band_inertia``,
O(N k^2)).  Vectors: two inverse iteration steps per eigenvalue on the band
(``solve_banded``) from fixed seeded starts, the shift nudged off the
eigenvalue so that an exact one never makes the solve singular, then QR and
a Rayleigh-Ritz step.  Their residuals are certified in the basis, since
the split grid's own discretization leaves grid residuals of 1e-9 to 6e-6
at h >= 0.0125.  Tail check: a window state with more than ``TAIL_MASS`` of
its mass in its last ``TAIL_ROWS`` coefficients raises ``NumericalError``;
N is never grown silently.  The vectors are mapped onto the split grid,
sqrt(dx) psi_n(x_j) by the Hermite recurrence, where Weyl averages use them.

States whose eigenvalue sits within ``EDGE_FRACTION`` of the window width of
a window edge are flagged so that callers can detect counting ties and
re-run with a perturbed window.

Count-only windows (``values=False``, tridiagonal route) compute no
eigenvalue.  A window reports its count and its edge flags, and each is a
threshold test on the eigenvalues: kept if in [lo - eps_keep, hi + eps_keep],
flagged if within edge_tol = ``EDGE_FRACTION`` * (hi - lo) of lo or of hi.
Eigenvalue counts in three closed ranges decide them: the kept range gives
the count, and the two edge bands give the number of flagged states at each
end of the sorted window.  Their ends are four distinct shifts (when
eps_keep < edge_tol), and one Sturm count (``sturm_count``) counts at all of
them in one pass over the matrix.  One LAPACK ``dstebz`` count of the kept
range certifies the result: its bisection stops at its first midpoint when
its tolerance is wider than the interval, so it is a Sturm count of its own,
made by code independent of ours.  The zero-slack rule is that of every
other window.  The eigenvalues of such a window are NaN.  The split route
always solves.

Every certificate (Sturm, ``dstebz``, block inertia) counts the kept range,
so ``count_check`` counts the states it certifies, a level exactly on an
end of that range included.

One BLAS thread: importing this module sets every OpenBLAS loaded in the
process to one thread (``_pin_openblas_threads``), whatever
``OPENBLAS_NUM_THREADS`` says.  After a BLAS call that goes threaded, the
idle pool keeps spinning on the other core and slows the numpy work that
follows.  The second thread does not pay for that: on two cores the pin
halved the benchmark's ``eigenfunction-measure`` CPU time (3.98 to 1.95 s)
and cut its wall time 13% (``BENCH_32.json``).  With one thread the bytes
no longer depend on the thread setting.

Where the pin cannot reach (no ``/proc/self/maps``, or a BLAS without an
OpenBLAS setter), one pool still does the threaded work: numpy and scipy
each ship an OpenBLAS with its own pool, so dense kernels go through
``numpy.linalg``, and ``scipy.linalg`` is kept only for the tridiagonal and
band routines numpy lacks (``eigh_tridiagonal``, ``dstebz``, ``eig_banded``,
``solve_banded``).
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import dstebz

from .errors import ConfigError, NumericalError
from .quantize import (
    WINDOW_D,
    WINDOW_PPW,
    DiscreteOperator,
    Grid1D,
    build_radial,
    grid_for_radial,
    schrodinger_box,
)

__all__ = [
    "EigenWindow",
    "RadialChannel",
    "sturm_count",
    "eigs_in_window",
    "radial_channels",
]

MAX_CHANNELS = 512
EDGE_FRACTION = 5e-3  # edge-tie band, as a fraction of the window width
RESIDUAL_TOL = 1e-9  # eigenpair residual bound, relative to the operator scale
BASIS_WIDTHS = 8.0  # the Hermite basis reaches this many sqrt(h) past the classical box
BASIS_PAD = 32  # ... and this many functions more
TAIL_MASS = 1e-18  # tail check: most mass a window state may keep in its last TAIL_ROWS
TAIL_ROWS = 8  # basis coefficients
# thread-count setters of the OpenBLAS builds numpy and scipy ship, newest first
OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                    "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_openblas_threads() -> None:
    """Set every OpenBLAS loaded in the process to one thread.

    Finds the loaded libraries in ``/proc/self/maps`` (Linux only) and calls
    the first of ``OPENBLAS_SETTERS`` each exports.  Anywhere the maps or a
    setter cannot be found it does nothing, and it never raises.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5] for parts in (line.rstrip("\n").split(maxsplit=5) for line in fh)
                     if len(parts) == 6 and "openblas" in os.path.basename(parts[5])}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in OPENBLAS_SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


_pin_openblas_threads()


def _multiplicity(m) -> np.ndarray:
    """The rule of :attr:`EigenWindow.weights` for the states of channel m."""
    return np.where(np.asarray(m) == 0, 1.0, 2.0)


@dataclass(frozen=True)
class EigenWindow:
    """Spectral slice of one operator over a closed energy window."""

    h: float
    lo: float
    hi: float
    eigenvalues: np.ndarray  # NaN on a count-only tridiagonal window (values=False)
    vectors: np.ndarray | None  # (n, count) columns, l2-normalized
    edge_flags: np.ndarray  # True where the eigenvalue is edge-ambiguous
    residual_max: float | None
    count_check: int  # a count of the kept range: Sturm, dstebz if count-only, LDL^H if split
    grid: Grid1D
    m: np.ndarray | None = None  # angular channel of each state on a radial window

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def weights(self) -> np.ndarray:
        """Angular multiplicity of each state: 2 for a radial channel m >= 1
        (it enters as +-m), else 1."""
        if self.m is None:
            return np.ones(self.count)
        return _multiplicity(self.m)

    @property
    def has_ties(self) -> bool:
        return bool(np.any(self.edge_flags))


def sturm_count(diag, offdiag, values):
    """Number of eigenvalues strictly below each query value.

    LDL^T sign count: T - x I has as many negative pivots
    q_i = a_i - x - b_{i-1}^2 / q_{i-1} as T has eigenvalues below x.  A pivot
    smaller than pivmin counts as -pivmin, so an eigenvalue exactly at x
    may count as below it (a closed range is counted from one ulp below its
    lower end).  It certifies the LAPACK window solves, and LAPACK's own
    count (``dstebz``) certifies it where it decides a count-only window, so
    every tridiagonal count meets code independent of the code that made
    it.  Every matrix is counted by ``_sturm_chunked``, every shift in one
    pass.
    """
    a = np.asarray(diag, dtype=float)
    b2 = np.square(np.asarray(offdiag, dtype=float))
    if b2.size != a.size - 1:
        raise ValueError("offdiag must have one fewer entry than diag")
    out = _sturm_chunked(a, b2, np.atleast_1d(np.asarray(values, dtype=float)))
    if np.ndim(values) == 0:
        return int(out[0])
    return out


_RENORM = 8  # pass 1 of the chunked Sturm count renormalizes its chunk maps this often
_MAP_FLOOR = 2.0 ** -500  # ... and carries row by row through a map that shrank below this


def _sturm_chunked(a: np.ndarray, b2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The pivot recurrence in K chunks of L rows, L about sqrt(n) / 4.

    The step q -> alpha - c / q, alpha = a - x, is the Moebius map
    [[alpha, -c], [1, 0]] acting on q = num / den.  Pass 1 multiplies out the
    map of every chunk, all chunks and shifts at once, one row per vector
    step.  A short scalar sweep then carries the pivot through the chunk
    maps, so each chunk learns the pivot it starts from.  Pass 2 runs the
    plain recurrence inside every chunk at once from those pivots and counts
    the negative ones.  Both passes take L vector steps over (S, K) arrays,
    shift-major so that every inner loop runs over the K chunks; alpha comes
    from one (L, K) table of the diagonal, a step at a time.

    Counts are invariant under positive scaling, so the entries are first
    scaled by a power of two (exact) to |a|, |x|, |b| < 1: then |alpha| <= 2
    and c = b^2 <= 1, a step grows the largest entry of a chunk map at most
    threefold, and pass 1 renormalizes every ``_RENORM`` steps (growth at
    most 3^8 in between).  A map whose largest entry fell below
    ``_MAP_FLOOR`` may have lost digits to underflow; the sweep then
    carries the pivot through that chunk row by row instead.

    A decoupled row (c = 0) forgets what came before: its pivot is alpha.
    Pass 1 restarts the chunk map there instead of multiplying through a
    rank-one factor, which would lose the map whenever the pivot before it
    is exactly zero.
    """
    top = max(float(np.max(np.abs(a))), float(np.max(np.abs(x))),
              float(np.sqrt(b2.max())) if b2.size else 0.0)
    if 0.0 < top < np.inf:
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        a, x, b2 = a * scale, x * scale, b2 * (scale * scale)
    pivmin = 1e-290 * max(1.0, float(b2.max()) if b2.size else 0.0)
    n, S = a.size, x.size
    L = max(8, int(np.sqrt(n)) // 4)
    K = -(-n // L)
    # row j of every chunk as one row of the (L, K) tables; padding rows at
    # the end are decoupled, with diagonal 1 and so alpha = 1 - x > 0
    diag = np.ones(K * L)
    diag[:n] = a
    diag = np.ascontiguousarray(diag.reshape(K, L).T)
    c = np.zeros(K * L)
    c[1:n] = b2  # coupling of each row to the row before it
    c = np.ascontiguousarray(c.reshape(K, L).T)
    decoupled = c == 0.0
    restart = decoupled.any(axis=1).tolist()
    shift = x[:, None]
    alpha, work = np.empty((S, K)), np.empty((S, K))

    # pass 1: chunk maps [[num0, num1], [den0, den1]], each entry (S, K)
    num, den, new = np.zeros((2, S, K)), np.zeros((2, S, K)), np.empty((2, S, K))
    num[0] = den[1] = 1.0
    lost = np.zeros((S, K), dtype=bool)
    for j in range(L):
        if restart[j]:
            r = decoupled[j]
            num[0][:, r], num[1][:, r] = 1.0, 0.0
        np.subtract(diag[j], shift, out=alpha)
        np.multiply(num, alpha, out=new)
        np.multiply(den, c[j], out=den)
        np.subtract(new, den, out=new)
        num, den, new = new, num, den
        if j % _RENORM == _RENORM - 1 or j == L - 1:
            big = np.maximum(np.abs(num).max(axis=0), np.abs(den).max(axis=0), out=work)
            lost |= big < _MAP_FLOOR
            np.maximum(big, _MAP_FLOOR, out=big)  # a lost map may be all zeros
            num /= big
            den /= big

    # carry: the pivot entering each chunk, guarded like every other pivot
    n0, n1, d0, d1 = num[0].tolist(), num[1].tolist(), den[0].tolist(), den[1].tolist()
    entry = []
    for s, xs in enumerate(x.tolist()):
        q, col = np.inf, []  # no row before the first chunk
        lost_k = set(np.flatnonzero(lost[s]).tolist())
        for k in range(K):
            col.append(q)
            if k in lost_k:
                for j in range(L):
                    q = float(diag[j, k]) - xs - float(c[j, k]) / q
                    if abs(q) < pivmin:
                        q = -pivmin
                continue
            if q == np.inf:
                u, v = n0[s][k], d0[s][k]
            else:
                u, v = n0[s][k] * q + n1[s][k], d0[s][k] * q + d1[s][k]
            q = u / v if v else np.inf
            if abs(q) < pivmin:
                q = -pivmin
        entry.append(col)

    # pass 2: the plain recurrence in every chunk at once
    q = np.array(entry)
    negative, count = np.empty((S, K), dtype=bool), np.zeros((S, K), dtype=np.int32)
    for j in range(L):
        np.divide(c[j], q, out=work)
        np.subtract(diag[j], shift, out=q)
        q -= work
        np.less(q, pivmin, out=negative)
        np.minimum(q, -pivmin, out=q, where=negative)
        count += negative
    return count.sum(axis=1)


def _band_inertia(band: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues of a Hermitian band matrix below each shift.

    ``band`` is LAPACK band storage of both halves, entry (i, j) at row
    k + i - j of column j; its lower half is read, zero outside the matrix.
    Block LDL^H on k x k blocks B_i coupled by C_i (rows of block i, columns
    of block i + 1): the Schur complements S_1 = B_1 - sigma and
    S_{i+1} = B_{i+1} - sigma - C_i^H S_i^-1 C_i have as many negative
    eigenvalues in all as the matrix has below sigma (Haynsworth's inertia
    additivity: Sylvester's law block by block).  The last block is padded
    with a diagonal above every shift.  With k = 1 this is the recurrence of
    :func:`sturm_count`.  All shifts run in one pass.  An exactly singular
    S_i raises ``NumericalError``; growth where one is nearly singular is
    caught by the caller's comparison with the eigensolver's count.
    """
    k, n = band.shape[0] // 2, band.shape[1]
    sigma = np.atleast_1d(np.asarray(shifts, dtype=float))
    lower = np.zeros((k + 1, -(-n // k) * k), dtype=band.dtype)  # whole blocks
    lower[:, :n] = band[k:]
    lower[0, n:] = sigma.max() + max(1.0, abs(sigma.max()))  # the padding
    rows, cols = np.indices((k, k))
    start = np.arange(0, lower.shape[1], k)[:, None, None] + cols
    # B_i from its lower triangle (row r - c), C_i^H upper triangular (row k + r - c)
    tri = np.where(rows >= cols, lower[np.maximum(rows - cols, 0), start], 0.0)
    blocks = tri + np.conj(np.swapaxes(np.tril(tri, -1), 1, 2))
    c_h = np.where(rows <= cols, lower[np.minimum(k + rows - cols, k), start[:-1]], 0.0)
    schur = blocks[:, None] - sigma[:, None, None] * np.eye(k)  # (block, shift, k, k)
    try:
        for i in range(1, len(schur)):
            rhs = np.broadcast_to(c_h[i - 1].conj().T, schur[i - 1].shape)
            schur[i] -= c_h[i - 1] @ np.linalg.solve(schur[i - 1], rhs)
        ev = np.linalg.eigvalsh(schur)
    except np.linalg.LinAlgError:  # an exactly singular S_i
        ev = None
    if ev is None or not np.all(np.isfinite(ev)) or np.any(ev == 0.0):
        raise NumericalError(f"band inertia: a singular pivot block at a shift in {sigma.tolist()}")
    return np.sum(ev < 0.0, axis=(0, 2))


def _band_matvec(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The band matrix times the columns of ``v``, one slice per diagonal."""
    k, n = band.shape[0] // 2, band.shape[1]
    out = np.zeros(v.shape, dtype=np.result_type(band, v))
    for t in range(-k, k + 1):  # diagonal i - j = t
        j0, j1 = max(0, -t), n - max(0, t)
        out[j0 + t:j1 + t] += band[k + t, j0:j1, None] * v[j0:j1]
    return out


def _hermite_basis(op: DiscreteOperator, lo: float,
                   hi: float) -> tuple[float, float, float, int]:
    """Centre (x0, xi0), squeeze s and size N of a split window's basis; a
    window below the symbol's minimum sizes it from the bottom of the well."""
    f, g = op.parts
    f_min, g_min = float(np.min(op.mult_x)), float(np.min(op.mult_xi))
    top = max(hi, f_min + g_min + (hi - lo))
    x_lo, x_hi = schrodinger_box(f, top - g_min, 0.0)
    xi_lo, xi_hi = schrodinger_box(g, top - f_min, 0.0)
    r_x, r_xi = 0.5 * (x_hi - x_lo), 0.5 * (xi_hi - xi_lo)
    radius = np.sqrt(2.0 * r_x * r_xi / op.h) + BASIS_WIDTHS
    return (0.5 * (x_lo + x_hi), 0.5 * (xi_lo + xi_hi), float(np.sqrt(r_x / r_xi)),
            int(np.ceil(0.5 * radius * radius)) + BASIS_PAD)


def _hermite_band(op: DiscreteOperator, x0: float, xi0: float, s: float,
                  n: int) -> np.ndarray:
    """f(X) + g(P) on the first n functions of the basis (x0, xi0, s), in
    LAPACK band storage of both halves (entry (i, j) at row k + i - j of
    column j).  Horner's rule on n + k functions: a product with the
    tridiagonal X or P mixes neighbouring diagonals of neighbouring columns."""
    f, g = op.parts
    k = max(f.degree, g.degree)
    ladder = np.sqrt(0.5 * op.h * np.arange(1, n + k))
    band = np.zeros((2 * k + 1, n + k), dtype=complex)
    for p, centre, sup in ((f, x0, s * ladder), (g, xi0, (-1j / s) * ladder)):
        power = np.zeros_like(band)
        for c in reversed(p.coefficients):
            power, old = centre * power, power
            power[:-1, 1:] += old[1:, :-1] * sup
            power[1:, :-1] += old[:-1, 1:] * np.conj(sup)
            power[k] += c
        band += power
    band = band[:, :n]
    band[k] = band[k].real
    for t in range(1, k + 1):  # the lower band mirrors the upper one
        band[k + t] = 0.0
        band[k + t, :n - t] = np.conj(band[k - t, t:])
    return band


def _basis_vectors(band: np.ndarray, w: np.ndarray, shift_pad: float) -> np.ndarray:
    """Orthonormal eigenvectors of the band matrix for its eigenvalues ``w``: two
    inverse iteration steps each from fixed seeded starts, the shift
    ``shift_pad`` off the eigenvalue so that an exact one leaves the solve
    regular; then QR and a Rayleigh-Ritz step through ``numpy.linalg``, whose
    BLAS pool is the one the matmuls around them use."""
    k = band.shape[0] // 2
    start = np.random.default_rng(0).standard_normal((2, band.shape[1], w.size))
    vecs = start[0] + 1j * start[1]
    for j, lam in enumerate(w):
        shifted = band.copy()
        shifted[k] -= lam + shift_pad
        for _ in range(2):
            vecs[:, j] = solve_banded((k, k), shifted, vecs[:, j])
            vecs[:, j] /= np.linalg.norm(vecs[:, j])
    q = np.linalg.qr(vecs)[0]
    return q @ np.linalg.eigh(q.conj().T @ _band_matvec(band, q))[1]


def _solve_range(lo: float, hi: float, eps_keep: float) -> tuple[float, float]:
    """The window widened for its solve; the caller filters the states back."""
    nudge = max(1e-13 * max(1.0, abs(lo), abs(hi)), 2.0 * eps_keep)
    return lo - nudge, hi + nudge


def _to_grid(coef: np.ndarray, grid: Grid1D, h: float, x0: float, xi0: float,
             s: float) -> np.ndarray:
    """Basis coefficients as l2 vectors sqrt(dx) psi(x_j) on the grid.  The
    Hermite functions come from phi_{j+1} = sqrt(2 / (j+1)) y phi_j - sqrt(j /
    (j+1)) phi_{j-1}, phi_0 = pi^(-1/4) exp(-y^2 / 2), each point carrying a
    power of two apart: far out, exp(-y^2 / 2) underflows where later phi_j
    are representable."""
    width = s * np.sqrt(h)
    dist = grid.nodes - x0
    y = dist / width
    t = 0.5 * y * y / np.log(2.0)  # exp(-y^2 / 2) = 2^-t
    exponent = -np.floor(t).astype(int)
    prev, cur = np.zeros_like(y), np.pi ** -0.25 * np.exp2(-t - exponent)
    phi = np.empty((y.size, coef.shape[0]))
    for j in range(coef.shape[0]):
        if j:
            prev, cur = cur, np.sqrt(2.0 / j) * y * cur - np.sqrt((j - 1) / j) * prev
            big = np.abs(cur) > 2.0 ** 500
            if big.any():
                cur[big] *= 2.0 ** -500
                prev[big] *= 2.0 ** -500
                exponent[big] += 500
        phi[:, j] = np.ldexp(cur, exponent)
    phase = np.sqrt(grid.dx / width) * np.exp(1j * xi0 * dist / h)
    return phase[:, None] * (phi @ coef.real + 1j * (phi @ coef.imag))


def _in_window(w: np.ndarray, v: np.ndarray | None, lo: float, hi: float,
               eps_keep: float, edge_tol: float):
    """The states kept in [lo - eps_keep, hi + eps_keep], and their edge flags.

    A state is flagged if it lies within edge_tol of lo or of hi.  Every test
    compares a value with one of six thresholds, the numbers
    :func:`_count_window` counts at, so both routes decide a tie alike.
    """
    keep = (w >= lo - eps_keep) & (w <= hi + eps_keep)
    w = w[keep]
    flags = (((w >= lo - edge_tol) & (w <= lo + edge_tol))
             | ((w >= hi - edge_tol) & (w <= hi + edge_tol)))
    return w, (None if v is None else v[:, keep]), flags


def _stebz_count(diag, offdiag, vl: float, vu: float) -> int:
    """Eigenvalue count of a symmetric tridiagonal matrix in the closed [vl, vu].

    LAPACK ``dstebz`` with range 'V' counts the half-open (vl, vu] by Sturm
    counts at its ends, so vl steps one ulp down.  A tolerance wider than the
    interval ends the bisection after its first midpoint: only the count
    ``m`` is read, never a value.
    """
    vl = float(np.nextafter(vl, -np.inf))
    m, _w, _block, _split, info = dstebz(diag, offdiag, 1, vl, vu, 1, 1, 2.0 * (vu - vl), "E")
    if info != 0:
        raise NumericalError(f"dstebz failed (info={info})")
    return int(m)


def _count_window(diag, offdiag, lo: float, hi: float, eps_keep: float, edge_tol: float):
    """What :func:`_in_window` decides, read off one Sturm count.

    The kept count is the count in [lo - eps_keep, hi + eps_keep]; the kept
    values are sorted, so the flagged ones are the first n_lo and the last
    n_hi, the counts in the two edge bands.  A closed [a, b] holds
    N(b) - N(a^-) eigenvalues, N = :func:`sturm_count` and a^- one ulp below
    a: the (a^-, b] of :func:`_stebz_count`, where the pivot guard counts a
    level exactly at b.  The six ends are four distinct shifts when
    eps_keep < edge_tol, and one call counts at all of them.  The values
    are NaN.
    """
    ranges = ((lo - eps_keep, hi + eps_keep),
              (lo - min(eps_keep, edge_tol), lo + edge_tol),
              (hi - edge_tol, hi + min(eps_keep, edge_tol)))
    ends = [(np.nextafter(a, -np.inf), b) for a, b in ranges]
    shifts, where = np.unique(ends, return_inverse=True)
    below = sturm_count(diag, offdiag, shifts)[where.reshape(3, 2)]
    count, n_lo, n_hi = (below[:, 1] - below[:, 0]).tolist()
    j = np.arange(count)
    return np.full(count, np.nan), None, (j < n_lo) | (j >= count - n_hi)


def _check_window(lo: float, hi: float) -> None:
    """ConfigError when the window [lo, hi] is empty, as when rounding
    collapses it: its half-width d h is below the floating-point spacing at
    its centre.  The window builders call it before they size a grid."""
    if not lo < hi:
        raise ConfigError(f"energy window [{lo:.17g}, {hi:.17g}] is empty; a half-width "
                          "d*h below the floating-point spacing at its centre collapses it")


def _tridiagonal_window(op: DiscreteOperator, lo: float, hi: float, edge_tol: float,
                        vectors: bool, values: bool):
    """LAPACK bisection and inverse iteration on [lo, hi], certified by a
    Sturm count of the kept range; a count-only window (``values=False``)
    reads one Sturm count at its thresholds, certified by a LAPACK
    ``dstebz`` count of the kept range."""
    diag, off = op.diag, op.offdiag
    scale = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    eps_keep = 1e-12 * max(scale, 1.0)
    kept_lo, kept_hi = lo - eps_keep, hi + eps_keep
    if not values:
        return (*_count_window(diag, off, lo, hi, eps_keep, edge_tol),
                _stebz_count(diag, off, kept_lo, kept_hi), None, scale, ("Sturm", "LAPACK dstebz"))
    below = sturm_count(diag, off, [np.nextafter(kept_lo, -np.inf), kept_hi])
    check = int(below[1] - below[0])
    span = _solve_range(lo, hi, eps_keep)
    out = eigh_tridiagonal(diag, off, select="v", select_range=span, eigvals_only=not vectors)
    w, v = out if vectors else (out, None)
    w, v, flags = _in_window(w, v, lo, hi, eps_keep, edge_tol)
    resid = None
    if v is not None and w.size:
        # H V for all states at once; each column's norm alone keeps the
        # summation order, and so the bits, of a state-by-state residual
        hv = diag[:, None] * v
        hv[:-1] += off[:, None] * v[1:]
        hv[1:] += off[:, None] * v[:-1]
        resid = max(float(np.linalg.norm(r)) for r in (hv - v * w).T)
    return w, v, flags, check, resid, scale, ("LAPACK", "Sturm")


def _split_window(op: DiscreteOperator, lo: float, hi: float, edge_tol: float,
                  vectors: bool, values: bool):
    """Values from the Hermite band, vectors by inverse iteration, certified
    by block LDL^H inertia on the same band; the tail check guards the basis
    size.  ``values`` is ignored: the split route always solves."""
    scale = float(np.max(np.abs(op.mult_x)) + np.max(np.abs(op.mult_xi)))
    eps_keep = 1e-12 * max(scale, 1.0)
    x0, xi0, s, n = _hermite_basis(op, lo, hi)
    band = _hermite_band(op, x0, xi0, s, n)
    # the kept range, its top stepped up as well: an exactly singular pivot raises
    below = _band_inertia(band, [np.nextafter(lo - eps_keep, -np.inf),
                                 np.nextafter(hi + eps_keep, np.inf)])
    check = int(below[1] - below[0])
    w = eig_banded(band[:band.shape[0] // 2 + 1], eigvals_only=True, select="v",
                   select_range=_solve_range(lo, hi, eps_keep))
    w, _, flags = _in_window(w, None, lo, hi, eps_keep, edge_tol)
    coef, resid = np.empty((n, 0), dtype=complex), None
    if w.size:
        coef = _basis_vectors(band, w, eps_keep)
        tail = float(np.max(np.sum(np.abs(coef[-TAIL_ROWS:]) ** 2, axis=0)))
        if tail > TAIL_MASS:
            raise NumericalError(
                f"Hermite basis of {n} functions too small at h={op.h:.3g}: a window "
                f"state keeps {tail:.1e} of its mass in the last {TAIL_ROWS} coefficients")
        resid = float(np.max(np.linalg.norm(_band_matvec(band, coef) - coef * w, axis=0)))
    v = _to_grid(coef, op.grid, op.h, x0, xi0, s) if vectors else None
    return w, v, flags, check, resid, scale, ("LAPACK", "LDL^H inertia")


# operator form -> window route; each returns the window's states, its
# certificate count, and the names of the counting and certifying sides
_ROUTES = {"tridiagonal": _tridiagonal_window, "split": _split_window}


def eigs_in_window(
    op: DiscreteOperator,
    lo: float,
    hi: float,
    vectors: bool = True,
    *,
    values: bool = True,
) -> EigenWindow:
    """All eigenpairs of a tridiagonal or split ``op`` with lo <= lambda <= hi.

    States within ``EDGE_FRACTION`` of the window width of an edge are
    flagged.  Computed eigenvalues carry O(eps * ||H||) rounding, so window
    membership is resolved up to 1e-12 times the operator scale and
    ``edge_flags`` carry the rest.  Residuals ||H psi - lambda psi|| are
    certified against ``RESIDUAL_TOL`` times the operator scale: on the grid
    when a tridiagonal window has vectors, in the Hermite basis on every
    split window.  ``values=False`` (which needs ``vectors=False``) promises
    that only the count, ``count_check`` and ``edge_flags`` are read: the
    tridiagonal route then reads them off eigenvalue counts at the decision
    thresholds and leaves the eigenvalues NaN (see the module docstring).
    """
    _check_window(lo, hi)
    if vectors and not values:
        raise ValueError("values=False reads counts only; it needs vectors=False")
    if op.form not in _ROUTES:
        raise ValueError(f"no window solve for {op.form} operators")
    w, v, flags, check, resid, scale, (counted_by, checked_by) = _ROUTES[op.form](
        op, lo, hi, EDGE_FRACTION * (hi - lo), vectors, values)
    # only edge-flagged states may account for a disagreement
    if abs(check - w.size) > int(np.sum(flags)):
        raise NumericalError(
            f"window count disagreement: {counted_by} {w.size}, {checked_by} {check} "
            f"on [{lo:.6g}, {hi:.6g}]")
    if resid is not None and resid > RESIDUAL_TOL * scale:
        raise NumericalError(
            f"eigenpair residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e} * scale {scale:.3e}")
    return EigenWindow(h=op.h, lo=lo, hi=hi, eigenvalues=w, vectors=v,
                       edge_flags=flags, residual_max=resid, count_check=check,
                       grid=op.grid)


# ---------------------------------------------------------------------------
# Radial 2D reduction


@dataclass(frozen=True)
class RadialChannel:
    m: int
    window: EigenWindow

    @property
    def weight(self) -> float:
        return float(_multiplicity(self.m))


def radial_channels(V, h: float, lo: float, hi: float, d: float = WINDOW_D,
                    h_max: float | None = None, ppw: int = WINDOW_PPW, vectors: bool = True,
                    *, values: bool = True) -> list[RadialChannel]:
    """Windowed spectra of all angular channels of -h^2 Lap + V(r) in 2D.

    Channels are enumerated from m = 0 upward and the loop stops at the
    first m whose effective potential floor clears the window top: higher
    channels only push the floor further up, so they are spectrally empty
    on [lo, hi].  ``values`` is passed to every channel's
    :func:`eigs_in_window`.
    """
    _check_window(lo, hi)
    grid = grid_for_radial(V, h, lo, hi, d=d, h_max=h_max, ppw=ppw)
    channels: list[RadialChannel] = []
    for m in range(MAX_CHANNELS):
        op = build_radial(V, h, grid, m, hi)
        if m >= 1 and float(np.min(op.mult_x)) > hi:
            return channels  # kinetic term is positive: no channel spectrum below min V_eff
        channels.append(RadialChannel(
            m=m, window=eigs_in_window(op, lo, hi, vectors=vectors, values=values)))
    raise NumericalError(f"radial channel sweep did not terminate below m={MAX_CHANNELS}")
