"""Windowed eigensolves with independent counting certificates.

Eigenvalues in a closed energy window [lo, hi] are computed by solvers whose
cost follows the window population rather than the matrix size: LAPACK's
bisection + inverse-iteration driver for tridiagonal operators (scipy
``eigh_tridiagonal`` with ``select='v'``), and the MRRR driver restricted to
the window (scipy ``eigh`` with ``subset_by_value``, ``driver='evr'``) for
split and dense operators.  Every count is cross-checked by a certificate
that does not depend on the eigensolver: a hand-rolled Sturm sequence for
tridiagonal operators, and Sylvester's law of inertia on an LDL^H
factorization of H - sigma I (LAPACK ``zhetrf``) at both window edges for
dense ones.  A disagreement that cannot be blamed on window-edge ties raises
``NumericalError`` instead of being papered over.

States whose eigenvalue sits within ``EDGE_FRACTION`` of the window width of
a window edge are flagged so that callers can detect counting ties and
re-run with a perturbed window.

Count-only windows (``values=False``, tridiagonal route) are priced by the
decisions they feed rather than by machine precision.  A window reports its
count and its edge flags, and both are threshold tests on each eigenvalue:
kept if it lies in [lo - eps_keep, hi + eps_keep], flagged if it lies
within edge_tol = ``EDGE_FRACTION`` * (hi - lo) of lo or of hi.  The
bisection therefore stops at the absolute tolerance
tau = ``COUNT_TOL_FRACTION`` * edge_tol, and LAPACK's ``stebz`` returns the
midpoint of an interval of width tau around each eigenvalue, so every coarse
value is within tau / 2 of the full-precision one.  The selected set is
fixed by exact Sturm counts at the range ends, independent of tau.  If no
coarse value lies within tau of one of the six thresholds (lo - eps_keep,
hi + eps_keep, lo +- edge_tol, hi +- edge_tol), each test comes out as it
would at full precision.  Otherwise the window is solved again at full
precision.  The Sturm certificate and the zero-slack rule are the same on
both paths.  The count and the flags are exact; the reported eigenvalues of
such a window are the coarse ones.  The split/dense route's ``evr`` driver
takes no tolerance, so it always solves at full precision.

2D radial models reduce to a family of half-line problems, one per angular
momentum channel m, sharing a single radial grid.  On nodes r_i = (i+1/2) dr
the operator -h^2 (psi'' + psi'/r) + (V + h^2 m^2 / r^2) psi is discretized
in conservative (finite-volume) form and symmetrized by the sqrt(r) weight:

    diag_i = 2 t + V(r_i) + h^2 m^2 / r_i^2,          t = h^2 / dr^2,
    off_i  = -t (i+1) / sqrt((i+1/2)(i+3/2)),

so the flux through r = 0 vanishes automatically and no singular -1/(4 r^2)
term ever appears; the outer wall at r_max is Dirichlet.  Eigenvectors are
the values sqrt(r_i dr) psi(r_i), so radial averages of a(r) are plain
l2 sums.  Channel m >= 1 enters twice (+-m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.lapack import zhetrf, zhetrf_lwork

from .errors import NumericalError
from .model import SEARCH_BOX
from .quantize import (
    DiscreteOperator,
    Grid1D,
    _box_margin,
    dense_matrix,
    resolution_dx,
    schrodinger_box,
)

__all__ = [
    "EigenWindow",
    "RadialChannel",
    "sturm_count",
    "count_in_window",
    "eigs_in_window",
    "radial_grid",
    "radial_channels",
]

MAX_CHANNELS = 512
EDGE_FRACTION = 5e-3  # edge-tie band, as a fraction of the window width
COUNT_TOL_FRACTION = 1e-2  # count-only bisection tolerance, as a fraction of the edge band
STURM_SCALAR_ROWS = 4096  # Sturm counts up to this size run row by row on Python floats
RESIDUAL_TOL = 1e-9  # eigenpair residual bound, relative to the operator scale


@dataclass(frozen=True)
class EigenWindow:
    """Spectral slice of one operator over a closed energy window."""

    h: float
    lo: float
    hi: float
    eigenvalues: np.ndarray  # within COUNT_TOL_FRACTION * edge band / 2 if values=False
    vectors: np.ndarray | None  # (n, count) columns, l2-normalized
    edge_flags: np.ndarray  # True where the eigenvalue is edge-ambiguous
    residual_max: float | None
    count_check: int  # independent count: Sturm, or LDL^H inertia if dense
    grid: Grid1D | None = None

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def has_ties(self) -> bool:
        return bool(np.any(self.edge_flags))


def sturm_count(diag, offdiag, values):
    """Number of eigenvalues strictly below each query value.

    LDL^T sign count: T - x I has as many negative pivots
    q_i = a_i - x - b_{i-1}^2 / q_{i-1} as T has eigenvalues below x.  A pivot
    smaller than ``pivmin`` counts as -pivmin, so an eigenvalue exactly at x
    may count as below it (``count_in_window`` steps one ulp outside its
    edges).  Used as an independent check on the LAPACK window solves.  Matrices of more than ``STURM_SCALAR_ROWS``
    rows are counted in chunks by ``_sturm_chunked``.
    """
    a = np.asarray(diag, dtype=float)
    b2 = np.square(np.asarray(offdiag, dtype=float))
    if b2.size != a.size - 1:
        raise ValueError("offdiag must have one fewer entry than diag")
    x = np.atleast_1d(np.asarray(values, dtype=float))
    if a.size <= STURM_SCALAR_ROWS:
        out = _sturm_scalar(a, b2, x)
    else:
        out = _sturm_chunked(a, b2, x)
    if np.ndim(values) == 0:
        return int(out[0])
    return out


def _pivmin(b2: np.ndarray) -> float:
    return 1e-290 * max(1.0, float(b2.max()) if b2.size else 0.0)


def _sturm_scalar(a: np.ndarray, b2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The pivot recurrence row by row on Python floats."""
    d, e2 = a.tolist(), b2.tolist()
    pivmin = _pivmin(b2)
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


def _sturm_chunked(a: np.ndarray, b2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The pivot recurrence in K chunks of L rows, L about sqrt(n) / 2.

    The step q -> alpha - c / q is the Moebius map [[alpha, -c], [1, 0]]
    acting on q = num / den.  Pass 1 multiplies out the map of every chunk,
    all chunks and shifts at once, one row per vector step, renormalized
    each step.  A short scalar sweep then carries the pivot through the
    chunk maps, so each chunk learns the pivot it starts from.  Pass 2 runs
    the plain recurrence inside every chunk at once from those pivots and
    counts the negative ones.  Both passes take L vector steps.

    A decoupled row (c = 0) forgets what came before: its pivot is alpha.
    Pass 1 restarts the chunk map there instead of multiplying through a
    rank-one factor, which would lose the map whenever the pivot before it
    is exactly zero.
    """
    # counts are invariant under positive scaling; a power of two is exact,
    # and entries of order one keep pass 1's products out of the subnormals
    top = max(float(np.max(np.abs(a))), float(np.max(np.abs(x))),
              float(np.sqrt(b2.max())) if b2.size else 0.0)
    if 0.0 < top < np.inf:
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        a, x, b2 = a * scale, x * scale, b2 * (scale * scale)
    pivmin = _pivmin(b2)
    n, S = a.size, x.size
    L = max(8, int(np.sqrt(n)) // 2)
    K = -(-n // L)
    # row j of every chunk as one (K, S) slice; padding rows at the end are
    # decoupled, with pivot 1, far above pivmin after the rescaling
    alpha = np.ones((K * L, S))
    np.subtract(a[:, None], x, out=alpha[:n])
    alpha = np.ascontiguousarray(alpha.reshape(K, L, S).transpose(1, 0, 2))
    c = np.zeros(K * L)
    c[1:n] = b2  # coupling of each row to the row before it
    c = np.ascontiguousarray(c.reshape(K, L).T)[:, :, None]
    decoupled = c[:, :, 0] == 0.0
    restart = decoupled.any(axis=1).tolist()

    # pass 1: chunk maps [[num0, num1], [den0, den1]]; big = max |num_i|
    num = np.zeros((2, K, S))
    num[0] = 1.0
    den = np.zeros((2, K, S))
    den[1] = 1.0
    big = np.ones((K, S))
    for j in range(L):
        if restart[j]:
            r = decoupled[j]
            num[0, r], num[1, r], big[r] = 1.0, 0.0, 1.0
        new = alpha[j] * num - c[j] * den
        new_big = np.abs(new).max(axis=0)
        norm = np.maximum(new_big, big)
        num, den, big = new / norm, num / norm, new_big / norm

    # carry: the pivot entering each chunk, guarded like every other pivot
    n0, n1 = num[0].T.tolist(), num[1].T.tolist()
    d0, d1 = den[0].T.tolist(), den[1].T.tolist()
    entry = []
    for s in range(S):
        q, col = np.inf, []  # no row before the first chunk
        for k in range(K):
            col.append(q)
            if q == np.inf:
                u, v = n0[s][k], d0[s][k]
            else:
                u, v = n0[s][k] * q + n1[s][k], d0[s][k] * q + d1[s][k]
            q = u / v if v else np.inf
            if abs(q) < pivmin:
                q = -pivmin
        entry.append(col)

    # pass 2: the plain recurrence in every chunk at once
    q = np.array(entry).T.copy()
    negative = np.zeros((K, S), dtype=int)
    for j in range(L):
        q = alpha[j] - c[j] / q
        q[np.abs(q) < pivmin] = -pivmin
        negative += q < 0.0
    return negative.sum(axis=0)


def count_in_window(diag, offdiag, lo: float, hi: float) -> int:
    """Eigenvalue count in the closed interval [lo, hi] via Sturm sequences.

    Both edges are nudged one ulp outward so exact ties land inside
    regardless of the zero-pivot convention.
    """
    c = sturm_count(diag, offdiag, [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    return int(c[1] - c[0])


def _inertia_count(m: np.ndarray, shift: float) -> int:
    """Number of eigenvalues of the Hermitian matrix ``m`` below ``shift``.

    Sylvester's law of inertia: m - shift I = L D L^H with D block diagonal
    (1x1 and 2x2 Bunch-Kaufman pivots, LAPACK ``zhetrf``) has as many
    negative eigenvalues as D.  The count shares no code with the
    eigensolver, so it certifies dense window counts the way
    ``sturm_count`` certifies tridiagonal ones.
    """
    n = m.shape[0]
    # m.T is m's memory read in Fortran order and, m being Hermitian, equals
    # conj(m), which has the same spectrum: a plain copy LAPACK can overwrite
    a = np.array(m.T, dtype=complex, order="F")
    idx = np.arange(n)
    a[idx, idx] -= shift
    # the default lwork runs the unblocked factorization, several times slower
    work, info = zhetrf_lwork(n)
    if info != 0:
        raise NumericalError(f"zhetrf workspace query failed (info={info})")
    ldu, ipiv, info = zhetrf(a, lwork=int(work.real), overwrite_a=1)
    if info < 0:
        raise NumericalError(f"zhetrf: illegal argument {-info}")
    d = ldu.diagonal().real
    count = int(np.sum(d[ipiv > 0] < 0.0))
    # a 2x2 pivot block marks both of its rows with ipiv < 0; upper storage
    # keeps its off-diagonal entry at (k, k + 1)
    k = np.flatnonzero(ipiv < 0)[::2]
    mid = 0.5 * (d[k] + d[k + 1])
    rad = np.hypot(0.5 * (d[k] - d[k + 1]), np.abs(ldu[k, k + 1]))
    return count + int(np.sum(mid - rad < 0.0) + np.sum(mid + rad < 0.0))


def _operator_scale(op: DiscreteOperator) -> float:
    if op.form == "tridiagonal":
        return float(np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.offdiag)))
    if op.form == "split":
        return float(np.max(np.abs(op.mult_x)) + np.max(np.abs(op.mult_xi)))
    return float(np.max(np.abs(op.matrix)) * op.size ** 0.5)


def _window_solve(op: DiscreteOperator, m: np.ndarray | None, lo: float, hi: float,
                  want_vectors: bool, pad: float, tol: float = 0.0):
    """Raw LAPACK call over a slightly widened range.

    ``m`` is the dense matrix of a split or dense operator (None when
    tridiagonal); only the eigenpairs inside the range are computed, and
    the caller filters them to the window.  ``tol`` is the absolute
    bisection tolerance of a tridiagonal eigenvalue solve (0: full precision).
    """
    nudge = max(1e-13 * max(1.0, abs(lo), abs(hi)), pad)
    vl, vu = lo - nudge, hi + nudge
    if op.form == "tridiagonal":
        if want_vectors:
            w, v = eigh_tridiagonal(op.diag, op.offdiag, select="v", select_range=(vl, vu))
        else:
            w = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                                 select_range=(vl, vu), eigvals_only=True, tol=tol)
            v = None
        return w, v
    if want_vectors:
        return eigh(m, subset_by_value=(vl, vu), driver="evr")
    return eigh(m, subset_by_value=(vl, vu), driver="evr", eigvals_only=True), None


def eigs_in_window(
    op: DiscreteOperator,
    lo: float,
    hi: float,
    vectors: bool = True,
    *,
    values: bool = True,
) -> EigenWindow:
    """All eigenpairs of ``op`` with lo <= lambda <= hi.

    States within ``EDGE_FRACTION`` of the window width of an edge are
    flagged.  Residuals ||H psi - lambda psi|| are certified against
    ``RESIDUAL_TOL`` times the operator scale when vectors are requested.
    ``values=False`` (which needs ``vectors=False``) promises that only the
    count, ``count_check`` and ``edge_flags`` are read: the tridiagonal
    route then bisects to a tolerance tied to the edge band and keeps each
    of those exact (see the module docstring).
    """
    if hi <= lo:
        raise ValueError("empty window")
    if vectors and not values:
        raise ValueError("values=False reads counts only; it needs vectors=False")
    edge_tol = EDGE_FRACTION * (hi - lo)
    scale = _operator_scale(op)
    # computed eigenvalues carry O(eps * ||H||) rounding; resolve window
    # membership only up to that certainty and let edge_flags carry the rest
    eps_keep = 1e-12 * max(scale, 1.0)
    m = None if op.form == "tridiagonal" else dense_matrix(op)
    tol = COUNT_TOL_FRACTION * edge_tol if not values and m is None else 0.0
    w, v = _window_solve(op, m, lo, hi, vectors, pad=2.0 * eps_keep, tol=tol)
    if tol > 0.0:
        # a coarse value within tol of a decision threshold could sit on the
        # other side of it at full precision
        thresholds = np.array([lo - eps_keep, hi + eps_keep, lo - edge_tol,
                               lo + edge_tol, hi - edge_tol, hi + edge_tol])
        if np.any(np.abs(w[:, None] - thresholds) <= tol):
            w, v = _window_solve(op, m, lo, hi, vectors, pad=2.0 * eps_keep)
    keep = (w >= lo - eps_keep) & (w <= hi + eps_keep)
    w = w[keep]
    if v is not None:
        v = v[:, keep]
    flags = (np.abs(w - lo) <= edge_tol) | (np.abs(w - hi) <= edge_tol)

    # only edge-flagged states may account for a disagreement
    if op.form == "tridiagonal":
        check, method = count_in_window(op.diag, op.offdiag, lo, hi), "Sturm"
    else:
        check = (_inertia_count(m, np.nextafter(hi, np.inf))
                 - _inertia_count(m, np.nextafter(lo, -np.inf)))
        method = "LDL^H inertia"
    if abs(check - w.size) > int(np.sum(flags)):
        raise NumericalError(
            f"window count disagreement: LAPACK {w.size}, {method} {check} "
            f"on [{lo:.6g}, {hi:.6g}]")

    resid = None
    if v is not None and w.size:
        resid = 0.0
        for i in range(w.size):
            col = v[:, i]
            r = op.apply(col.astype(complex) if op.form == "split" else col)
            resid = max(resid, float(np.linalg.norm(r - w[i] * col)))
        if resid > RESIDUAL_TOL * scale:
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
    weight: float  # angular multiplicity: 1 for m=0, else 2
    window: EigenWindow
    v_centrifugal: float  # coefficient of 1/r^2, i.e. h^2 m^2


def radial_grid(r_max: float, n: int) -> Grid1D:
    """Half-line grid with nodes at (i + 1/2) dr, outer wall at r_max.

    The half-step offset puts the first cell edge exactly at r = 0, where
    the radial flux vanishes by symmetry, so no boundary condition has to
    be imposed there.
    """
    dr = r_max / (n + 0.5)
    return Grid1D(-0.5 * dr, r_max, n, "dirichlet")


def radial_channels(
    V,
    h: float,
    lo: float,
    hi: float,
    d: float = 5.0,
    h_max: float | None = None,
    ppw: int = 64,
    vectors: bool = True,
    *,
    values: bool = True,
) -> list[RadialChannel]:
    """Windowed spectra of all angular channels of -h^2 Lap + V(r) in 2D.

    Channels are enumerated from m = 0 upward and the loop stops at the
    first m whose effective potential floor clears the window top: higher
    channels only push the floor further up, so they are spectrally empty
    on [lo, hi].  ``values`` is passed to every channel's
    :func:`eigs_in_window`.
    """
    e_center = 0.5 * (lo + hi)
    _, r_turn = schrodinger_box(V, e_center + _box_margin(d, h, h_max), 0.0,
                                search=(0.0, SEARCH_BOX[1]))
    r_max = 1.25 * max(r_turn, 1e-2)
    probe = np.linspace(1e-6, r_max, 4097)
    pot_min = float(np.min(V(probe)))
    dr_max = resolution_dx(h, hi, pot_min, ppw)
    n = max(int(np.ceil(r_max / dr_max - 0.5)), 16)
    grid = radial_grid(r_max, n)
    r = grid.nodes
    v_base = np.asarray(V(r), dtype=float)
    t = h * h / (grid.dx * grid.dx)

    idx = np.arange(grid.n - 1, dtype=float)
    off = -t * (idx + 1.0) / np.sqrt((idx + 0.5) * (idx + 1.5))

    channels: list[RadialChannel] = []
    for m in range(MAX_CHANNELS + 1):
        if m == MAX_CHANNELS:
            raise NumericalError(f"radial channel sweep did not terminate below m={MAX_CHANNELS}")
        cent = h * h * m * m
        v_eff = v_base + cent / (r * r)
        if m >= 1 and float(np.min(v_eff)) > hi:
            break  # kinetic term is positive: no channel spectrum below min V_eff
        diag = 2.0 * t + v_eff
        op = DiscreteOperator("tridiagonal", h, grid, diag=diag, offdiag=off)
        win = eigs_in_window(op, lo, hi, vectors=vectors, values=values)
        channels.append(RadialChannel(m=m, weight=1.0 if m == 0 else 2.0,
                                      window=win, v_centrifugal=cent))
    return channels

