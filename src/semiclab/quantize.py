"""Discrete quantizations: finite-difference, Fourier-multiplier and Weyl.

Grids carry their boundary convention explicitly.  Operators come in three
storage forms:

* ``tridiagonal``  -- real symmetric, second-order finite differences;
* ``split``        -- f(x) + g(h D) on a periodic grid, kept as its parts;
* ``dense``        -- full Hermitian matrix (Weyl-quantized observables).

A split operator keeps its polynomial parts (f, g), which the window solve
reads in a Hermite basis; ``dense_matrix`` assembles its grid matrix as a
diagonal plus a circulant.

The Weyl matrix of a(x, xi) on an N-point grid uses the discrete kernel

    A[i, j] = (1/N) sum_k a((x_i + x_j)/2, xi_k) exp(2 pi 1j k (i - j) / N)

with xi_k the FFT frequencies scaled by 2 pi h / (N dx).  For a == 1 this is
exactly the identity, for a = a(x) a diagonal matrix, and for a = g(xi) the
usual Fourier multiplier, so the split and Weyl routes coincide on split
symbols.  The row a((x_i + x_j)/2, .) is real, so the kernel of each
anti-diagonal i + j comes from a real FFT of the symbol, its other half
filled by conjugate symmetry: the matrix is exactly Hermitian by
construction.  Anti-diagonals are assembled in blocks, one symbol
evaluation and one real FFT per block, and each anti-diagonal is written
as one slice.  A row range [i0, i1) builds only the block A[i0:i1, i0:i1],
from the anti-diagonals that cross it and the same n-point FFTs, bitwise
equal to the slice of the full matrix.  A parsed observable that factors as
f(x) g(xi) (``Observable.product_parts``, e.g. the Gaussian
exp(-x^2 - xi^2)) takes the factored build instead: the kernel is
f((x_i + x_j)/2) c[(i - j) % N] with c from one real FFT of g, so the block
is f at its 2 m - 1 midpoints times a Toeplitz view of c, again exactly
Hermitian and bitwise equal across row ranges.  Plain callables, symbols
that do not factor, and products not surely finite on the lattice (so
that an overflow is reported as before) keep the general build.

The anti-Wick side quantizes against a lattice of Gaussian coherent states
of width sqrt(h/2) with lattice spacing sqrt(h)/4 in both variables; a batch
of states gets its Husimi densities from one matrix product per block of
lattice columns (``antiwick_batch``).

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

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import circulant

from .errors import ConfigError, NumericalError
from .model import SEARCH_BOX, Polynomial1D, allowed_intervals
from .observables import Observable, ObservableExpr

__all__ = [
    "Grid1D",
    "DiscreteOperator",
    "CoherentFrame",
    "schrodinger_box",
    "grid_for_schrodinger",
    "grid_for_split",
    "grid_for_radial",
    "build_schrodinger",
    "build_split",
    "build_radial",
    "build_weyl_observable",
    "build_coherent_frame",
    "antiwick_batch",
    "dense_matrix",
    "WINDOW_D",
    "WINDOW_PPW",
]

PPW_FLOOR = 16  # grid points per shortest de Broglie wavelength, minimum
# default window [E_c - d h, E_c + d h] half-width d and its grid resolution
WINDOW_D = 5.0
WINDOW_PPW = 64
DENSE_CAP = 4096
# rows of any grid; the largest the scenarios build is 3,796,137 (quad-max-steep, h = 3e-5)
GRID_CAP = 2**22
WEYL_BLOCK_BYTES = 8 * 2**20  # working memory of one block of Weyl anti-diagonals, at most
ANTIWICK_BLOCK = 2**18  # elements of the largest working array of one anti-Wick block, at most
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
        if self.n > GRID_CAP:
            raise ValueError(f"grid of {self.n} points is past the cap of {GRID_CAP}")
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

    def xi_values(self, h: float) -> np.ndarray:
        """FFT frequencies as momenta: 2 pi h k / (N dx), FFT ordering."""
        return 2.0 * np.pi * h * np.fft.fftfreq(self.n, d=self.dx)

    def xi_max(self, h: float) -> float:
        return np.pi * h / self.dx

    def every(self, q: int) -> Grid1D:
        """The grid of every q-th node: same boundary, step q dx, nodes
        ``nodes[::q]`` (up to rounding)."""
        if q == 1:
            return self
        m = -(-self.n // q)
        step = q * self.dx
        x_min = self.x_min if self.boundary == "periodic" else self.x_min + self.dx - step
        x_max = x_min + (m if self.boundary == "periodic" else m + 1) * step
        return Grid1D(x_min, x_max, m, self.boundary)


@dataclass(frozen=True)
class DiscreteOperator:
    form: str  # "tridiagonal" | "split" | "dense"
    h: float
    grid: Grid1D
    diag: np.ndarray | None = None
    offdiag: np.ndarray | None = None
    mult_x: np.ndarray | None = None  # potential part: f(x) split, V + h^2 m^2 / r^2 radial
    mult_xi: np.ndarray | None = None
    matrix: np.ndarray | None = None
    parts: tuple[Polynomial1D, Polynomial1D] | None = None  # split: (f, g)

    @property
    def size(self) -> int:
        return self.grid.n


def resolution_dx(h: float, e_window_top: float, pot_min: float, ppw: int = PPW_FLOOR) -> float:
    """Largest admissible grid step for resolving the window dynamics."""
    k = np.sqrt(max(e_window_top - pot_min, 1.0))
    return 2.0 * np.pi * h / (ppw * k)


def _auto_rows(cells: float, h: float) -> int:
    """Row count of an automatic grid, at least 16; past ``GRID_CAP`` (or
    not finite) it raises ``NumericalError`` before anything is allocated."""
    if not cells <= GRID_CAP:
        raise NumericalError(f"grid needs {cells:.3g} > {GRID_CAP} points at h={h:.3g}")
    return max(int(cells), 16)


def _box_margin(d: float, h: float, h_max: float | None) -> float:
    """Energy above the window centre that sizes a box shared by a scan.

    ``h_max`` is the largest h of the surrounding scan (``None``: this h).
    """
    return max(1.0, 10.0 * d * (h_max if h_max is not None else h))


def _outer_turning(V: Polynomial1D, e_top: float,
                   search: tuple[float, float] = SEARCH_BOX) -> tuple[float, float]:
    """The outermost ends of the allowed set {V < e_top}, as
    :func:`allowed_intervals` finds it (``NumericalError`` where that set
    reaches the search edge); the origin of a radial search is no end."""
    ends = [x for iv in allowed_intervals(V, e_top, search) for x in iv if x not in search]
    if not ends:
        raise NumericalError(f"no classical turning points at energy {e_top:.6g}")
    return min(ends), max(ends)


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
    d: float = WINDOW_D,
    h_max: float | None = None,
    ppw: int = WINDOW_PPW,
) -> Grid1D:
    """Auto grid: box from the confinement region, dx from the window policy.

    ``h_max`` is the largest h of the surrounding scan; the box is chosen once
    per scan so rows share geometry.
    """
    _check_window_args(h, d, ppw, h_max)
    lo, hi = schrodinger_box(V, e_center + _box_margin(d, h, h_max), FD_BOX_PAD)
    xs = np.linspace(lo, hi, 4097)
    pot_min = float(np.min(V(xs)))
    dx_max = resolution_dx(h, e_center + d * h, pot_min, ppw)
    n = _auto_rows(np.ceil((hi - lo) / dx_max) - 1, h)
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
    d: float = WINDOW_D,
    h_max: float | None = None,
) -> Grid1D:
    """Periodic grid whose momentum range covers the classical window."""
    _check_window_args(h, d, None, h_max)
    e_top = e_center + _box_margin(d, h, h_max)
    probe = np.linspace(*SEARCH_BOX, 8193)
    g_min = float(np.min(g(probe)))
    f_min = float(np.min(f(probe)))
    lo, hi = schrodinger_box(f, e_top - g_min, SPLIT_BOX_PAD)
    xi_lo, xi_hi = _outer_turning(g, e_top - f_min)
    xi_need = SPLIT_XI_COVERAGE * max(abs(xi_lo), abs(xi_hi))
    length = hi - lo
    n = _next_pow2(_auto_rows(np.ceil(length * xi_need / (np.pi * h)), h))
    _check_dense_cap(n, "split grid", h)
    return Grid1D(lo, hi, n, "periodic")


def grid_for_radial(V, h: float, lo: float, hi: float, d: float = WINDOW_D,
                    h_max: float | None = None, ppw: int = WINDOW_PPW) -> Grid1D:
    """Half-line grid of the radial channels of the window [lo, hi]: outer
    wall at 1.25 times the outer turning radius at the box energy, dr from
    the window policy at hi, nodes at (i + 1/2) dr.  The half-step offset
    puts the first cell edge exactly at r = 0, where the radial flux
    vanishes by symmetry, so no boundary condition has to be imposed there.
    """
    _check_window_args(h, d, ppw, h_max)
    _, r_turn = schrodinger_box(V, 0.5 * (lo + hi) + _box_margin(d, h, h_max), 0.0,
                                search=(0.0, SEARCH_BOX[1]))
    r_max = 1.25 * max(r_turn, 1e-2)
    probe = np.linspace(1e-6, r_max, 4097)
    pot_min = float(np.min(V(probe)))
    dr_max = resolution_dx(h, hi, pot_min, ppw)
    n = _auto_rows(np.ceil(r_max / dr_max - 0.5), h)
    dr = r_max / (n + 0.5)
    return Grid1D(-0.5 * dr, r_max, n, "dirichlet")


def _check_finite(*parts, grid: Grid1D) -> None:
    """``NumericalError`` unless every part of an operator is finite."""
    if not all(np.all(np.isfinite(p)) for p in parts):
        raise NumericalError(
            f"operator is not finite on the grid [{grid.x_min:.3g}, {grid.x_max:.3g}] "
            f"of {grid.n} points (dx = {grid.dx:.3g})")


def build_schrodinger(
    V,
    h: float,
    grid: Grid1D,
    window_top: float | None = None,
) -> DiscreteOperator:
    """Second-order finite-difference -h^2 d^2/dx^2 + V with Dirichlet walls.

    With ``window_top`` given, grids coarser than the resolution policy are
    rejected, and so are grids where the operator is not finite (h^2/dx^2 overflows).
    """
    if grid.boundary != "dirichlet":
        raise ValueError("finite-difference operators use dirichlet grids")
    x = grid.nodes
    with np.errstate(all="ignore"):
        v = np.asarray(V(x), dtype=float)
        t = h * h / np.square(grid.dx)
        diag = 2.0 * t + v
    if window_top is not None:
        dx_max = resolution_dx(h, window_top, float(np.min(v)))
        if grid.dx > dx_max * (1 + 1e-12):
            raise NumericalError(
                f"grid step {grid.dx:.3e} violates resolution policy {dx_max:.3e}")
    _check_finite(diag, t, grid=grid)
    off = np.full(grid.n - 1, -t)
    return DiscreteOperator("tridiagonal", h, grid, diag=diag, offdiag=off)


def build_radial(V, h: float, grid: Grid1D, m: int, window_top: float) -> DiscreteOperator:
    """Channel m of -h^2 Lap + V(r) on a :func:`grid_for_radial` grid (module
    docstring): :func:`build_schrodinger` of the effective potential, kept as
    ``mult_x``, with its checks at ``window_top``, and the sqrt(r) coupling."""
    r = grid.nodes
    with np.errstate(all="ignore"):
        v_eff = np.asarray(V(r), dtype=float) + h * h * m * m / (r * r)
    op = build_schrodinger(lambda _r: v_eff, h, grid, window_top)
    idx = np.arange(grid.n - 1, dtype=float)
    off = op.offdiag * (idx + 1.0) / np.sqrt((idx + 0.5) * (idx + 1.5))  # -t (i+1) / ...
    return replace(op, offdiag=off, mult_x=v_eff)


def build_split(
    f,
    g,
    h: float,
    grid: Grid1D,
    window_top: float | None = None,
) -> DiscreteOperator:
    """Fourier-multiplier operator f(x) + g(h D) on a periodic grid, f and g
    polynomials (``ConfigError`` otherwise), on a grid where both are finite."""
    if grid.boundary != "periodic":
        raise ValueError("split operators require periodic grids")
    if not (isinstance(f, Polynomial1D) and isinstance(g, Polynomial1D)):
        raise ConfigError("split operators need polynomial parts f(x) and g(xi)")
    x = grid.nodes
    xi = grid.xi_values(h)
    with np.errstate(all="ignore"):
        mult_x = np.asarray(f(x), dtype=float)
        mult_xi = np.asarray(g(xi), dtype=float)
    _check_finite(mult_x, mult_xi, grid=grid)
    if window_top is not None:
        # aliasing guard: classical momenta at the window top must fit; an
        # empty allowed set has none, one cut at the search edge raises
        f_min = float(np.min(mult_x))
        xi_top = max((abs(x) for iv in allowed_intervals(g, window_top - f_min) for x in iv),
                     default=0.0)
        if xi_top > grid.xi_max(h):
            raise NumericalError(
                f"classical momentum {xi_top:.3g} exceeds grid "
                f"xi_max {grid.xi_max(h):.3g} (aliasing)")
    return DiscreteOperator("split", h, grid, mult_x=mult_x, mult_xi=mult_xi, parts=(f, g))


def _check_window_args(h: float | None, d: float, ppw: int | None,
                       h_max: float | None = None) -> None:
    """ConfigError unless h, d and h_max (the largest h of a scan) are finite
    and positive and ppw is at least 1.  ``None`` skips h (no single h), ppw
    (a grid without one) or h_max (this h); every window builder calls it."""
    for name, v in (("h", h), ("window half-width d", d), ("h_max", h_max)):
        if v is not None and not (np.isfinite(v) and v > 0):
            raise ConfigError(f"{name} must be finite and positive, got {v!r}")
    if ppw is not None and not ppw >= 1:
        raise ConfigError(f"ppw must be at least 1, got {ppw!r}")


def _check_dense_cap(n: int, what: str, h: float) -> None:
    """``NumericalError`` before ``what``, an array of n rows, passes ``DENSE_CAP``."""
    if n > DENSE_CAP:
        raise NumericalError(
            f"{what} needs {n} > {DENSE_CAP} points at h={h:.3g}; use a coarser grid")


def dense_matrix(op: DiscreteOperator) -> np.ndarray:
    """The operator as a full matrix, exactly Hermitian for split operators.

    Grids past ``DENSE_CAP`` points are refused before anything is
    allocated.  A split operator f(x) + g(h D) is diag(f) + C with C the
    circulant C[i, j] = c[(i - j) % n], c = ifft(g); c is made exactly
    Hermitian-symmetric, c[n - k] = conj(c[k]), so C is exactly Hermitian.
    """
    n = op.size
    _check_dense_cap(n, "dense matrix", op.h)
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


def build_weyl_observable(a, h: float, grid: Grid1D,
                          rows: tuple[int, int] | None = None) -> DiscreteOperator:
    """Dense Weyl matrix of a(x, xi) on the grid (see module docstring).

    ``a`` is any callable of two broadcasting array arguments.  Entry
    (i, j) lies on the anti-diagonal s = i + j, at the midpoint
    x_0 + s dx / 2, and equals c_s[(i - j) % n], where c_s is the inverse
    FFT of the real row a(x_0 + s dx / 2, xi).  ``rows = (i0, i1)`` builds
    only the block A[i0:i1, i0:i1]: just the anti-diagonals
    2 i0 <= s <= 2 i1 - 2 are evaluated, each through the same n-point
    FFT, so every entry is bitwise the one of the full matrix, which is
    the range (0, n) and the default.  The returned operator keeps the
    whole grid; its ``matrix`` is the block.
    Anti-diagonals are assembled in blocks of consecutive s: the symbol is
    evaluated on the block's midpoints at once, and one real FFT per block
    gives their half spectra.  The other half is filled as
    c[n - k] = conj(c[k]); the real FFT returns c[0] and c[n / 2] with zero
    imaginary part, so the matrix is exactly Hermitian by construction.
    Each anti-diagonal is one slice of the flattened block, step m - 1.
    A block's working arrays stay within ``WEYL_BLOCK_BYTES`` and within
    an eighth of the full n by n matrix, so a full build allocates about
    one matrix and a row range its block plus one block of anti-diagonals.
    Grids past ``DENSE_CAP`` points are refused before anything is allocated.
    An :class:`Observable` whose ``product_parts`` are (f, g) takes the
    factored build of :func:`_weyl_product` when its block is surely
    finite; any other ``a``, or a product that may overflow, the blocks above.
    """
    n = grid.n
    _check_dense_cap(n, "dense Weyl matrix", h)
    i0, i1 = (0, n) if rows is None else rows
    if not 0 <= i0 < i1 <= n:
        raise ValueError(f"row range {rows} is empty or outside the {n} grid rows")
    m = i1 - i0
    xi = grid.xi_values(h)
    parts = a.product_parts() if isinstance(a, Observable) else None
    if parts is not None:
        mid = grid.nodes[0] + 0.5 * grid.dx * np.arange(2 * i0, 2 * i1 - 1)
        mat = _weyl_product(*parts, mid, xi, m)
        if mat is not None:
            return DiscreteOperator("dense", h, grid, matrix=mat)
    mat = np.empty((m, m), dtype=complex)
    flat = mat.reshape(-1)
    # per anti-diagonal: the symbol row and its temporaries (8 bytes per
    # entry each, about four), the half spectrum and the doubled kernel
    chunk = min(m, max(1, min(WEYL_BLOCK_BYTES, 2 * n * n) // (96 * n)))
    # ext[b, n + k] = c_{s0 + b}[k % n] for -n <= k < n, so entry (i, j) of
    # a block is ext[s - s0, n + 2 i - s], s = i + j, both counted from the
    # corner (i0, i0); it sits at flat[s + i (m - 1)]
    ext = np.empty((chunk, 2 * n), dtype=complex)
    x0 = grid.nodes[0]
    for s0 in range(0, 2 * m - 1, chunk):
        s1 = min(s0 + chunk, 2 * m - 1)
        mid = x0 + 0.5 * grid.dx * np.arange(2 * i0 + s0, 2 * i0 + s1)
        sym = np.broadcast_to(np.asarray(a(mid[:, None], xi[None, :]), dtype=float),
                              (s1 - s0, n))
        spec = np.fft.rfft(sym, axis=1, norm="forward")
        del sym  # each block's temporaries go before the next block's evaluation
        c = ext[:s1 - s0, n:]
        _kernel_of_real_rows(spec, c)
        del spec
        ext[:s1 - s0, :n] = c
        for s in range(s0, s1):
            # rows i_a..i_b keep j = s - i inside [0, m)
            i_a, i_b = max(0, s - m + 1), min(m - 1, s)
            flat[s + i_a * (m - 1):s + i_b * (m - 1) + 1:max(m - 1, 1)] = \
                ext[s - s0, n - s + 2 * i_a:n - s + 2 * i_b + 1:2]
    return DiscreteOperator("dense", h, grid, matrix=mat)


def _kernel_of_real_rows(spec: np.ndarray, out: np.ndarray) -> None:
    """The inverse FFT of real rows from their forward-normalized ``rfft``
    ``spec``: out[..., k] = conj(spec[..., k]) for k <= n / 2 and
    out[..., n - k] = spec[..., k].  The real FFT returns its k = 0 (and
    k = n / 2) terms with zero imaginary part, so out[..., n - k] =
    conj(out[..., k]) holds exactly."""
    half, n = spec.shape[-1], out.shape[-1]
    np.conjugate(spec, out=out[..., :half])
    out[..., half:] = spec[..., n - half:0:-1]


def _weyl_product(f: ObservableExpr, g: ObservableExpr, mid: np.ndarray, xi: np.ndarray,
                  m: int) -> np.ndarray | None:
    """The m by m Weyl block of f(x) g(xi) from f at its 2 m - 1 midpoints
    ``mid`` and one real FFT of g at the momenta ``xi``, or None when the
    general build must report an overflow.

    Entry (i, j) is f(mid[i + j]) c[(i - j) % n], c the kernel of g as
    :func:`build_weyl_observable` takes each row: a Hankel view of f times
    a Toeplitz view of c, written into the one output, so nothing else of
    size m by m is allocated.  Real f times c[n - k] = conj(c[k]) keeps the
    block exactly Hermitian.  The general build overflows where some
    f(mid) g(xi) does, and no entry here passes max |f| max |c| <= max |f|
    max |g|; so when max |f| max(max |g|, max |c|) is not finite this
    returns None and the caller takes the general build.
    """
    with np.errstate(all="ignore"):
        fv = np.asarray(f.eval(mid, 0.0), dtype=float)
        gv = np.asarray(g.eval(0.0, xi), dtype=float)
        c = np.empty(xi.size, dtype=complex)
        _kernel_of_real_rows(np.fft.rfft(gv, norm="forward"), c)
        peak = np.max(np.abs(fv)) * max(np.max(np.abs(gv)), np.max(np.abs(c)))
    if not np.isfinite(peak):
        return None
    # e[t] = c[(m - 1 - t) % n], so row i of the Toeplitz view, e[m - 1 - i:][:m],
    # holds c[(i - j) % n] for j = 0 .. m - 1
    e = c[(m - 1 - np.arange(2 * m - 1)) % c.size]
    mat = np.empty((m, m), dtype=complex)
    np.multiply(sliding_window_view(fv.astype(complex), m), sliding_window_view(e, m)[::-1],
                out=mat)
    return mat


# ---------------------------------------------------------------------------
# Anti-Wick / coherent state side


@dataclass(frozen=True)
class CoherentFrame:
    """Lattice of Gaussian coherent states for anti-Wick averaging."""

    h: float
    x_centers: np.ndarray
    xi_centers: np.ndarray
    spacing: float

    def cell_area(self) -> float:
        return self.spacing * self.spacing


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

    The states are decimated to the band of the frame's momenta.  Each
    lattice column x_c sees a window of w_len decimated nodes, weighted by
    the Gaussian envelope; a fixed (M, w_len) phase table over the window
    offsets gives the M overlaps of each column, whose squared moduli are
    the Husimi densities.  Lattice columns are taken in blocks, their
    windowed states side by side as the columns of one matrix product with
    the phase table, so the table is read once per block rather than once
    per column; a block's largest working array holds at most
    ``ANTIWICK_BLOCK`` elements.  Real states (finite-difference windows)
    take the real table [Re phase; Im phase], complex ones (split windows)
    the complex table.  Windows that run past the grid end read zeros
    there, so a truncated or empty window adds exactly its in-grid part.

    Parameters
    ----------
    psis : (P, N) array of l2-normalized states.
    a_values : callable a(x, xi) or precomputed array of shape
        (len(x_centers), len(xi_centers)), or a list of them.  A callable is
        tabulated once per batch, as a(x_centers[:, None], xi_centers[None, :]);
        a scalar value broadcasts to the lattice.  Every table of a list is
        applied to the same Husimi densities, each by its own product, so a
        table's averages do not depend on the other tables of the list.

    Returns
    -------
    values : (P,) anti-Wick averages (2 pi h)^-1 sum a * husimi * cell;
        (T, P), one row per table, for a list of T symbols.
    masses : (P,) the same sums with a == 1 (captured Husimi mass); the
        caller judges whether the frame captured enough of it.
    """
    h = frame.h
    psis = np.atleast_2d(psis)
    p_count = psis.shape[0]
    x = grid.nodes
    dx = grid.dx
    xc = frame.x_centers
    xi_c = frame.xi_centers
    # Decimate: the overlap integrand is band-limited by the classical
    # momenta plus the Gaussian envelope, far below the grid Nyquist.
    xi_band = float(np.max(np.abs(xi_c))) + 6.0 * np.sqrt(h)
    q = max(1, int(np.pi * h / (2.4 * xi_band * dx)))
    xs = x[::q]
    step = q * dx
    half = 6.5 * np.sqrt(h)
    w_len = max(3, int(np.ceil(2 * half / step)) + 1)
    # fixed phase table over window offsets, shared by every column
    offs = step * np.arange(w_len)
    phase = np.exp(-1j * np.outer(xi_c, offs) / h)  # (M, W)
    norm = dx / np.sqrt(np.pi * h) * (step / dx) ** 2
    pref = frame.cell_area() / (2.0 * np.pi * h)
    stacked = isinstance(a_values, list)
    tables = []
    for a in (a_values if stacked else [a_values]):
        if callable(a):
            a = a(xc[:, None], xi_c[None, :])
        # contiguous rows: a broadcast row of stride 0 takes numpy's own dot
        # product instead of BLAS and rounds differently
        tables.append(np.ascontiguousarray(np.broadcast_to(
            np.asarray(a, dtype=float), (xc.size, xi_c.size))))

    m = xi_c.size
    real = not np.iscomplexobj(psis)
    lhs = np.concatenate([phase.real, phase.imag]) if real else phase
    # column c reads the decimated nodes starts[c] .. starts[c] + w_len - 1;
    # zeros past the grid end (nodes continued at the same step) make a
    # truncated or empty window contribute exactly 0
    psis_dec = psis[:, ::q]
    nd = psis_dec.shape[1]
    padded = np.zeros((p_count, nd + w_len), dtype=psis_dec.dtype)
    padded[:, :nd] = psis_dec
    windows = sliding_window_view(padded, w_len, axis=1).transpose(1, 0, 2)  # (Nd + 1, P, W)
    xs_pad = np.concatenate([xs, xs[-1] + step * np.arange(1, w_len + 1)])
    starts = np.searchsorted(xs, xc - half)
    span = max(1, ANTIWICK_BLOCK // (max(p_count, 1) * max(w_len, lhs.shape[0])))
    values = np.zeros((len(tables), p_count))
    masses = np.zeros(p_count)
    for c0 in range(0, xc.size, span):
        cols = slice(c0, c0 + span)
        seg_x = xs_pad[starts[cols, None] + np.arange(w_len)]  # (C, W)
        env = np.exp(-((seg_x - xc[cols, None]) ** 2) / (2.0 * h))
        block = windows[starts[cols]]  # (C, P, W)
        block *= env[:, None, :]
        amp = lhs @ block.reshape(-1, w_len).T  # (2M or M, C * P)
        if real:
            np.square(amp, out=amp)
            hus = amp[:m] + amp[m:]
        else:
            hus = amp.real**2 + amp.imag**2
        # rows (m, c) of one block, the order of the transposed table slice
        hus = hus.reshape(m * len(block), p_count)
        for table, vals in zip(tables, values):
            vals += table[cols].T.ravel() @ hus
        masses += np.sum(hus, axis=0)
    scale = pref * norm
    return (values if stacked else values[0]) * scale, masses * scale
