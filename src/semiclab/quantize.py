"""Discrete quantizations: finite-difference, Fourier-multiplier and Weyl.

Grids carry their boundary convention explicitly.  Operators come in three
storage forms:

* ``tridiagonal``  -- real symmetric, second-order finite differences;
* ``split``        -- f(x) + g(h D) on a periodic grid, applied by FFT;
* ``dense``        -- full Hermitian matrix (Weyl-quantized observables).

Eigensolves that need a split operator as a matrix take it from
``dense_matrix``, which assembles it as a diagonal plus a circulant.

The Weyl matrix of a(x, xi) on an N-point grid uses the discrete kernel

    A[i, j] = (1/N) sum_k a((x_i + x_j)/2, xi_k) exp(2 pi 1j k (i - j) / N)

with xi_k the FFT frequencies scaled by 2 pi h / (N dx).  For a == 1 this is
exactly the identity, for a = a(x) a diagonal matrix, and for a = g(xi) the
usual Fourier multiplier, so the split and Weyl routes coincide on split
symbols.  Each anti-diagonal kernel is averaged with its conjugate
reflection before it is scattered, so the matrix is exactly Hermitian by
construction.

The anti-Wick side quantizes against a lattice of Gaussian coherent states
of width sqrt(h/2) with lattice spacing sqrt(h)/4 in both variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import circulant

from .errors import NumericalError
from .model import SEARCH_BOX, Polynomial1D, _poly_roots_in

__all__ = [
    "Grid1D",
    "DiscreteOperator",
    "CoherentFrame",
    "schrodinger_box",
    "grid_for_schrodinger",
    "grid_for_split",
    "build_schrodinger",
    "build_split",
    "build_weyl_observable",
    "build_coherent_frame",
    "antiwick_batch",
    "dense_matrix",
    "resolution_dx",
    "PPW_FLOOR",
]

PPW_FLOOR = 16  # grid points per shortest de Broglie wavelength, minimum
DENSE_CAP = 4096
FD_BOX_PAD = 0.25  # finite-difference box: padding of the allowed interval
SPLIT_BOX_PAD = 0.5  # split box: padding of the allowed interval
SPLIT_XI_COVERAGE = 1.25  # split grid: xi_max over the classical momentum


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid; nodes exclude Dirichlet endpoints."""

    x_min: float
    x_max: float
    n: int
    boundary: str  # "dirichlet" | "periodic"

    def __post_init__(self) -> None:
        if self.n < 16:
            raise ValueError(f"grid needs at least 16 points, got {self.n}")
        if self.x_max <= self.x_min:
            raise ValueError("empty grid interval")
        if self.boundary not in ("dirichlet", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.boundary == "periodic" and self.n & (self.n - 1):
            raise ValueError("periodic grids require a power-of-two size")

    @property
    def dx(self) -> float:
        denom = self.n if self.boundary == "periodic" else self.n + 1
        return (self.x_max - self.x_min) / denom

    @property
    def nodes(self) -> np.ndarray:
        if self.boundary == "periodic":
            return self.x_min + self.dx * np.arange(self.n)
        return self.x_min + self.dx * (1.0 + np.arange(self.n))

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def xi_values(self, h: float) -> np.ndarray:
        """FFT frequencies as momenta: 2 pi h k / (N dx), FFT ordering."""
        return 2.0 * np.pi * h * np.fft.fftfreq(self.n, d=self.dx)

    def xi_max(self, h: float) -> float:
        return np.pi * h / self.dx


@dataclass(frozen=True)
class DiscreteOperator:
    form: str  # "tridiagonal" | "split" | "dense"
    h: float
    grid: Grid1D
    diag: np.ndarray | None = None
    offdiag: np.ndarray | None = None
    mult_x: np.ndarray | None = None
    mult_xi: np.ndarray | None = None
    matrix: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.grid.n

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product in the operator's natural representation."""
        if self.form == "tridiagonal":
            out = self.diag * v
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
            return out
        if self.form == "split":
            return self.mult_x * v + np.fft.ifft(self.mult_xi * np.fft.fft(v))
        return self.matrix @ v


def resolution_dx(h: float, e_window_top: float, pot_min: float, ppw: int = PPW_FLOOR) -> float:
    """Largest admissible grid step for resolving the window dynamics."""
    k = np.sqrt(max(e_window_top - pot_min, 1.0))
    return 2.0 * np.pi * h / (ppw * k)


def _box_margin(d: float, h: float, h_max: float | None) -> float:
    """Energy above the window centre that sizes a box shared by a scan.

    ``h_max`` is the largest h of the surrounding scan (``None``: this h).
    """
    return max(1.0, 10.0 * d * (h_max if h_max is not None else h))


def _outer_turning(V, e_top: float, search: tuple[float, float] = SEARCH_BOX) -> tuple[float, float]:
    if isinstance(V, Polynomial1D):
        shifted = Polynomial1D((V.coefficients[0] - e_top,) + V.coefficients[1:])
        roots = _poly_roots_in(shifted, search[0], search[1])
    else:
        xs = np.linspace(search[0], search[1], 8193)
        vals = np.asarray(V(xs)) - e_top
        roots = [float(xs[i]) for i in range(len(xs) - 1)
                 if (vals[i] <= 0) != (vals[i + 1] <= 0)]
    if not roots:
        raise NumericalError(f"no classical turning points at energy {e_top:.6g}")
    return min(roots), max(roots)


def schrodinger_box(V, e_top: float, pad: float,
                    search: tuple[float, float] = SEARCH_BOX) -> tuple[float, float]:
    """Classically allowed interval at e_top, padded on both sides."""
    lo, hi = _outer_turning(V, e_top, search)
    c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
    w = max(w, 1e-3)
    return c - (1.0 + pad) * w, c + (1.0 + pad) * w


def grid_for_schrodinger(
    V,
    h: float,
    e_center: float,
    d: float = 5.0,
    h_max: float | None = None,
    ppw: int = PPW_FLOOR,
) -> Grid1D:
    """Auto grid: box from the confinement region, dx from the window policy.

    ``h_max`` is the largest h of the surrounding scan; the box is chosen once
    per scan so rows share geometry.
    """
    lo, hi = schrodinger_box(V, e_center + _box_margin(d, h, h_max), FD_BOX_PAD)
    xs = np.linspace(lo, hi, 4097)
    pot_min = float(np.min(V(xs)))
    dx_max = resolution_dx(h, e_center + d * h, pot_min, ppw)
    n = int(np.ceil((hi - lo) / dx_max)) - 1
    n = max(n, 16)
    return Grid1D(lo, hi, n, "dirichlet")


def _next_pow2(n: int) -> int:
    p = 16
    while p < n:
        p *= 2
    return p


def grid_for_split(
    f: Polynomial1D,
    g: Polynomial1D,
    h: float,
    e_center: float,
    d: float = 5.0,
    h_max: float | None = None,
) -> Grid1D:
    """Periodic grid whose momentum range covers the classical window."""
    e_top = e_center + _box_margin(d, h, h_max)
    probe = np.linspace(*SEARCH_BOX, 8193)
    g_min = float(np.min(g(probe)))
    f_min = float(np.min(f(probe)))
    lo, hi = schrodinger_box(f, e_top - g_min, SPLIT_BOX_PAD)
    xi_lo, xi_hi = _outer_turning(g, e_top - f_min)
    xi_need = SPLIT_XI_COVERAGE * max(abs(xi_lo), abs(xi_hi))
    length = hi - lo
    n = _next_pow2(int(np.ceil(length * xi_need / (np.pi * h))))
    if n > DENSE_CAP:
        raise NumericalError(
            f"split grid needs {n} > {DENSE_CAP} points at h={h:.3g}; shrink the scan")
    return Grid1D(lo, hi, n, "periodic")


def build_schrodinger(
    V,
    h: float,
    grid: Grid1D,
    window_top: float | None = None,
) -> DiscreteOperator:
    """Second-order finite-difference -h^2 d^2/dx^2 + V with Dirichlet walls.

    With ``window_top`` given, grids coarser than the resolution policy are
    rejected.
    """
    if grid.boundary != "dirichlet":
        raise ValueError("finite-difference operators use dirichlet grids")
    x = grid.nodes
    v = np.asarray(V(x), dtype=float)
    if window_top is not None:
        dx_max = resolution_dx(h, window_top, float(np.min(v)))
        if grid.dx > dx_max * (1 + 1e-12):
            raise NumericalError(
                f"grid step {grid.dx:.3e} violates resolution policy {dx_max:.3e}")
    t = h * h / (grid.dx * grid.dx)
    diag = 2.0 * t + v
    off = np.full(grid.n - 1, -t)
    return DiscreteOperator("tridiagonal", h, grid, diag=diag, offdiag=off)


def build_split(
    f,
    g,
    h: float,
    grid: Grid1D,
    window_top: float | None = None,
) -> DiscreteOperator:
    """Fourier-multiplier operator f(x) + g(h D) on a periodic grid."""
    if grid.boundary != "periodic":
        raise ValueError("split operators require periodic grids")
    x = grid.nodes
    xi = grid.xi_values(h)
    mult_x = np.asarray(f(x), dtype=float)
    mult_xi = np.asarray(g(xi), dtype=float)
    if window_top is not None and isinstance(g, Polynomial1D):
        # aliasing guard: classical momenta at the window top must fit
        f_min = float(np.min(mult_x))
        try:
            xi_lo, xi_hi = _outer_turning(g, window_top - f_min)
        except NumericalError:
            xi_lo = xi_hi = 0.0
        if max(abs(xi_lo), abs(xi_hi)) > grid.xi_max(h):
            raise NumericalError(
                f"classical momentum {max(abs(xi_lo), abs(xi_hi)):.3g} exceeds grid "
                f"xi_max {grid.xi_max(h):.3g} (aliasing)")
    return DiscreteOperator("split", h, grid, mult_x=mult_x, mult_xi=mult_xi)


def dense_matrix(op: DiscreteOperator) -> np.ndarray:
    """The operator as a full matrix, exactly Hermitian for split operators.

    Grids past ``DENSE_CAP`` points are refused before anything is
    allocated.  A split operator f(x) + g(h D) is diag(f) + C with C the
    circulant C[i, j] = c[(i - j) % n], c = ifft(g); c is made exactly
    Hermitian-symmetric, c[n - k] = conj(c[k]), so C is exactly Hermitian.
    """
    if op.form == "dense":
        return op.matrix
    n = op.size
    if n > DENSE_CAP:
        raise NumericalError(
            f"dense matrix needs {n} > {DENSE_CAP} points at h={op.h:.3g}; use a coarser grid")
    if op.form == "tridiagonal":
        m = np.diag(op.diag)
        m += np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
        return m
    c = np.fft.ifft(op.mult_xi)
    c[0] = c[0].real
    c[n // 2] = c[n // 2].real
    c[n // 2 + 1:] = np.conj(c[1:n // 2][::-1])
    m = circulant(c)
    idx = np.arange(n)
    m[idx, idx] += op.mult_x
    return m


def build_weyl_observable(a, h: float, grid: Grid1D) -> DiscreteOperator:
    """Dense Weyl matrix of a(x, xi) on the grid (see module docstring).

    ``a`` is any callable of two array arguments.  Assembly runs along
    anti-diagonals i + j = s, one inverse FFT per midpoint.  Entry (i, j)
    of anti-diagonal s is c[(i - j) % n], so replacing c by
    (c[k] + conj(c[-k])) / 2 before the scatter makes the matrix exactly
    Hermitian; no pass over the whole matrix follows.  Grids past
    ``DENSE_CAP`` points are refused before anything is allocated.
    """
    n = grid.n
    if n > DENSE_CAP:
        raise NumericalError(f"dense Weyl assembly capped at {DENSE_CAP} points, got {n}")
    x = grid.nodes
    xi = grid.xi_values(h)
    mat = np.empty((n, n), dtype=complex)
    x0 = x[0]
    dx = grid.dx
    reflect = (-np.arange(n)) % n
    for s in range(2 * n - 1):
        mid = x0 + 0.5 * s * dx
        row = np.asarray(a(np.full(n, mid), xi), dtype=float)
        c = np.fft.ifft(row)
        c = 0.5 * (c + np.conj(c[reflect]))
        i_lo = max(0, s - n + 1)
        i_hi = min(n - 1, s)
        ii = np.arange(i_lo, i_hi + 1)
        mat[ii, s - ii] = c[(2 * ii - s) % n]
    return DiscreteOperator("dense", h, grid, matrix=mat)


# ---------------------------------------------------------------------------
# Anti-Wick / coherent state side


@dataclass(frozen=True)
class CoherentFrame:
    """Lattice of Gaussian coherent states for anti-Wick averaging."""

    h: float
    x_centers: np.ndarray
    xi_centers: np.ndarray
    spacing: float

    @property
    def width(self) -> float:
        return float(np.sqrt(self.h / 2.0))

    def cell_area(self) -> float:
        return self.spacing * self.spacing

    def state(self, grid: Grid1D, x0: float, xi0: float) -> np.ndarray:
        """The coherent state sampled on the grid, l2-normalized weights."""
        x = grid.nodes
        psi = (np.pi * self.h) ** (-0.25) * np.exp(
            -((x - x0) ** 2) / (2.0 * self.h) + 1j * xi0 * x / self.h)
        return psi * np.sqrt(grid.dx)


def build_coherent_frame(grid: Grid1D, h: float, xi_span: tuple[float, float]) -> CoherentFrame:
    """Lattice of spacing sqrt(h)/4 over the grid box and ``xi_span``."""
    spacing = float(np.sqrt(h)) / 4.0
    xc = np.arange(grid.x_min, grid.x_max + 0.5 * spacing, spacing)
    xilo, xihi = xi_span
    xic = np.arange(xilo, xihi + 0.5 * spacing, spacing)
    return CoherentFrame(h=h, x_centers=xc, xi_centers=xic, spacing=spacing)


def antiwick_batch(
    frame: CoherentFrame,
    grid: Grid1D,
    psis: np.ndarray,
    a_values,
) -> tuple[np.ndarray, np.ndarray]:
    """Anti-Wick averages of many states at once.

    Parameters
    ----------
    psis : (P, N) array of l2-normalized states.
    a_values : callable a(x, xi) or precomputed array of shape
        (len(x_centers), len(xi_centers)).

    Returns
    -------
    values : (P,) anti-Wick averages (2 pi h)^-1 sum a * husimi * cell.
    masses : (P,) the same sums with a == 1 (captured Husimi mass); the
        caller judges whether the frame captured enough of it.
    """
    h = frame.h
    psis = np.atleast_2d(psis)
    p_count = psis.shape[0]
    x = grid.nodes
    dx = grid.dx
    xi_c = frame.xi_centers
    # Decimate: the overlap integrand is band-limited by the classical
    # momenta plus the Gaussian envelope, far below the grid Nyquist.
    xi_band = float(np.max(np.abs(xi_c))) + 6.0 * np.sqrt(h)
    q = max(1, int(np.pi * h / (2.4 * xi_band * dx)))
    xs = x[::q]
    step = q * dx
    half = 6.5 * np.sqrt(h)
    w_len = max(3, int(np.ceil(2 * half / step)) + 1)
    # fixed complex phase table over window offsets, shared by every column
    offs = step * np.arange(w_len)
    phase = np.exp(-1j * np.outer(xi_c, offs) / h)  # (M, W)
    norm = dx / np.sqrt(np.pi * h) * (step / dx) ** 2
    pref = frame.cell_area() / (2.0 * np.pi * h)
    callable_a = callable(a_values)

    values = np.zeros(p_count)
    masses = np.zeros(p_count)
    psis_dec = psis[:, ::q]  # (P, Nd)
    nd = psis_dec.shape[1]
    for ci, xc in enumerate(frame.x_centers):
        i0 = int(np.searchsorted(xs, xc - half))
        i1 = min(nd, i0 + w_len)
        if i1 <= i0:
            continue
        seg_x = xs[i0:i1]
        env = np.exp(-((seg_x - xc) ** 2) / (2.0 * h))
        block = env[None, :] * psis_dec[:, i0:i1]  # (P, W')
        amp = phase[:, : i1 - i0] @ block.T  # (M, P)
        hus = norm * (amp.real**2 + amp.imag**2)
        if callable_a:
            a_col = np.asarray(a_values(np.full_like(xi_c, xc), xi_c), dtype=float)
        else:
            a_col = np.asarray(a_values[ci], dtype=float)
        values += pref * (a_col @ hus)
        masses += pref * np.sum(hus, axis=0)
    return values, masses

