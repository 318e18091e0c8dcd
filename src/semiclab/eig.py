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

States whose eigenvalue sits within ``edge_tol`` of a window edge are flagged
so that callers can detect counting ties and re-run with a perturbed window.

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
from .quantize import DiscreteOperator, Grid1D, dense_matrix, resolution_dx, schrodinger_box

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


@dataclass(frozen=True)
class EigenWindow:
    """Spectral slice of one operator over a closed energy window."""

    h: float
    lo: float
    hi: float
    eigenvalues: np.ndarray
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

    Plain LDL^T sign-count recursion with an underflow pivot guard; used as
    an independent check on the LAPACK window solves.
    """
    d = np.asarray(diag, dtype=float).tolist()
    e2 = np.square(np.asarray(offdiag, dtype=float)).tolist()
    n = len(d)
    if len(e2) != n - 1:
        raise ValueError("offdiag must have one fewer entry than diag")
    pivmin = 1e-290 * max(1.0, max(e2) if e2 else 0.0)
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    out = np.empty(arr.size, dtype=int)
    for j, x in enumerate(arr.tolist()):
        q = d[0] - x
        if abs(q) < pivmin:
            q = -pivmin
        count = 1 if q < 0.0 else 0
        for i in range(1, n):
            q = d[i] - x - e2[i - 1] / q
            if abs(q) < pivmin:
                q = -pivmin
            if q < 0.0:
                count += 1
        out[j] = count
    if np.isscalar(values) or np.asarray(values).ndim == 0:
        return int(out[0])
    return out


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
                  want_vectors: bool, pad: float):
    """Raw LAPACK call over a slightly widened half-open range.

    ``m`` is the dense matrix of a split or dense operator (None when
    tridiagonal); only the eigenpairs inside the range are computed.
    """
    nudge = max(1e-13 * max(1.0, abs(lo), abs(hi)), pad)
    vl, vu = lo - nudge, hi + nudge
    if op.form == "tridiagonal":
        if want_vectors:
            w, v = eigh_tridiagonal(op.diag, op.offdiag, select="v", select_range=(vl, vu))
        else:
            w = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                                 select_range=(vl, vu), eigvals_only=True)
            v = None
        return w, v
    if want_vectors:
        w, v = eigh(m, subset_by_value=(vl, vu), driver="evr")
    else:
        w = eigh(m, subset_by_value=(vl, vu), driver="evr", eigvals_only=True)
        v = None
    keep = (w >= vl) & (w <= vu)
    return w[keep], (v[:, keep] if v is not None else None)


def eigs_in_window(
    op: DiscreteOperator,
    lo: float,
    hi: float,
    vectors: bool = True,
    edge_tol: float | None = None,
    residual_tol: float = 1e-9,
) -> EigenWindow:
    """All eigenpairs of ``op`` with lo <= lambda <= hi.

    edge_tol defaults to 0.5 percent of the window width.  Residuals
    ||H psi - lambda psi|| are certified against ``residual_tol`` times the
    operator scale when vectors are requested.
    """
    if hi <= lo:
        raise ValueError("empty window")
    if edge_tol is None:
        edge_tol = 5e-3 * (hi - lo)
    scale = _operator_scale(op)
    # computed eigenvalues carry O(eps * ||H||) rounding; resolve window
    # membership only up to that certainty and let edge_flags carry the rest
    eps_keep = 1e-12 * max(scale, 1.0)
    m = None if op.form == "tridiagonal" else dense_matrix(op)
    w, v = _window_solve(op, m, lo, hi, vectors, pad=2.0 * eps_keep)
    keep = (w >= lo - eps_keep) & (w <= hi + eps_keep)
    w = w[keep]
    if v is not None:
        v = v[:, keep]
    flags = (np.abs(w - lo) <= edge_tol) | (np.abs(w - hi) <= edge_tol)

    # the Sturm pass allows two unflagged misses; the inertia count of an
    # exactly Hermitian matrix allows none
    if op.form == "tridiagonal":
        check, slack, method = count_in_window(op.diag, op.offdiag, lo, hi), 2, "Sturm"
    else:
        check = (_inertia_count(m, np.nextafter(hi, np.inf))
                 - _inertia_count(m, np.nextafter(lo, -np.inf)))
        slack, method = 0, "LDL^H inertia"
    if abs(check - w.size) > int(np.sum(flags)) + slack:
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
        if resid > residual_tol * scale:
            raise NumericalError(
                f"eigenpair residual {resid:.3e} exceeds {residual_tol:.1e} * scale {scale:.3e}")

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
    r_cap: float = 12.0,
) -> list[RadialChannel]:
    """Windowed spectra of all angular channels of -h^2 Lap + V(r) in 2D.

    Channels are enumerated from m = 0 upward and the loop stops at the
    first m whose effective potential floor clears the window top: higher
    channels only push the floor further up, so they are spectrally empty
    on [lo, hi].
    """
    eps0 = max(1.0, 10.0 * d * (h_max if h_max is not None else h))
    e_center = 0.5 * (lo + hi)
    _, r_turn = schrodinger_box(V, e_center + eps0, pad=0.0, search=(0.0, r_cap))
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
        win = eigs_in_window(op, lo, hi, vectors=vectors)
        channels.append(RadialChannel(m=m, weight=1.0 if m == 0 else 2.0,
                                      window=win, v_centrifugal=cent))
    return channels

