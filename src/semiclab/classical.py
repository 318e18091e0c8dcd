"""Classical side: Liouville averages, level-set topology, Hamiltonian flows.

The Liouville measure of a level set {p = E} is the surface measure divided
by |grad p|.  In one dimension with p = xi^2 + V(x) this collapses to

    integral over allowed x of [a(x, s) + a(x, -s)] / (2 s) dx,
    s = sqrt(E - V(x)),

with inverse square-root singularities at simple turning points, handled by
Gauss-Chebyshev quadrature.  When a turning point is degenerate (V' also
vanishes there) the integral may diverge; dyadic shells around the point
estimate the local growth rate and set a ``divergent`` flag instead of
returning a garbage number.

Radial 2D symbols |xi|^2 + V(r) integrate exactly in the angular variables,

    integral of a(r, sqrt(E - V(r))) * 2 pi^2 * r dr over {V < E},

which stays finite even at critical energies: the planar volume element
kills the singularity.  General planar polynomial symbols go through
marching squares with per-segment contributions a / |grad p| times segment
length, plus the same dyadic-shell divergence probe around any critical
point lying on the level set.

Connectivity of planar level sets is decided by a union-find over the
cell-edge crossings of the marching-squares graph; components meeting at a
critical point on the level (curve nodes, e.g. the waist of a figure-eight)
are merged, since the level set is a closed curve there even though the
local branches separate numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import SEARCH_BOX, CriticalPoint, Polynomial1D, SymbolModel, _poly_roots_in

__all__ = [
    "LiouvilleResult",
    "FlowResult",
    "liouville_integral",
    "level_volume",
    "mu_average",
    "classify_integrability",
    "allowed_intervals",
    "levelset_components",
    "levelset_connected",
    "coarea_area",
    "coarea_check",
    "flow_points",
]

# A non-integrable tail keeps shell sums from shrinking: borderline (log) decay
# has ratio exactly 1, a convergent square-root tail has 2^(-1/2) ~ 0.71.
# Divergent iff the last four successive ratios average >= 0.99 * 1.
DIVERGENCE_RATIO = 0.99
SHELL_COUNT = 14
DEGENERATE_SLOPE_TOL = 1e-7
LIOUVILLE_RTOL = 1e-8  # node-doubling tolerance of the 1D and radial quadratures
LEVELSET_RESOLUTION = 512  # marching-squares cells per side for level-set topology
COAREA_RESOLUTION = 3000  # lattice cells per side of the coarea band count
COAREA_QUAD_NODES = 24  # Gauss-Legendre nodes of the energy integral
FLOW_DRIFT_TOL = 1e-6  # energy drift allowed per unit of 1 + max|E|


@dataclass(frozen=True)
class LiouvilleResult:
    value: float
    divergent: bool
    energy: float = 0.0
    error_estimate: float = 0.0
    shell_ratios: tuple[float, ...] = ()
    detail: str = ""


def _as_symbol_callable(a):
    if a is None:
        return lambda x, xi: np.ones_like(np.asarray(x, dtype=float))
    return a


def allowed_intervals(V: Polynomial1D, energy: float,
                      search: tuple[float, float] = SEARCH_BOX) -> list[tuple[float, float]]:
    """Maximal intervals with V < energy inside the search range."""
    shifted = Polynomial1D((V.coefficients[0] - energy,) + V.coefficients[1:])
    roots = sorted(_poly_roots_in(shifted, search[0], search[1]))
    edges = [search[0]] + roots + [search[1]]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-12:
            continue
        mid = 0.5 * (lo + hi)
        if V(mid) < energy:
            out.append((lo, hi))
    return out


def _gauss_chebyshev(f, lo: float, hi: float, n: int) -> float:
    """integral of f(x) / sqrt((x - lo)(hi - x)) dx on Chebyshev nodes."""
    c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    x = c + w * np.cos(theta)
    return float(np.pi / n * np.sum(f(x)))


def _interval_integral(V, a, energy: float, lo: float, hi: float) -> tuple[float, float]:
    """One allowed interval with simple turning points at both ends.

    Returns (value, error estimate); the estimate is the last node-doubling
    increment, which bounds the remaining tail for geometrically converging
    Gauss-Chebyshev sums.
    """

    def f(x):
        ew = np.maximum(energy - V(x), 0.0)
        s = np.sqrt(ew)
        # (E - V) with the boundary zeros divided out; the ratio stays O(1)
        # all the way into the endpoints
        g = ew / ((x - lo) * (hi - x))
        vals = 0.5 * (np.asarray(a(x, s)) + np.asarray(a(x, -s)))
        return vals / np.sqrt(g)

    prev = None
    n = 64
    delta = math.inf
    while n <= 8192:
        cur = _gauss_chebyshev(f, lo, hi, n)
        if prev is not None:
            delta = abs(cur - prev)
            if delta <= LIOUVILLE_RTOL * (abs(cur) + 1e-300):
                return cur, delta
        prev = cur
        n *= 2
    return prev, delta


def _shell_ratios_1d(V, energy: float, x_d: float, side: float, radius: float) -> list[float]:
    """Dyadic-shell integrals of (E - V)^(-1/2) approaching x_d from one side."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(32)
    vals = []
    for j in range(SHELL_COUNT):
        r_hi = radius * 2.0 ** (-j)
        lo = x_d + side * 0.5 * r_hi
        hi = x_d + side * r_hi
        if side < 0:
            lo, hi = hi, lo
        c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = c + w * nodes
        ew = energy - V(x)
        good = ew > 0
        if not np.any(good):
            vals.append(0.0)
            continue
        vals.append(float(w * np.sum(weights[good] / np.sqrt(ew[good]))))
    return [cur / prev for prev, cur in zip(vals[:-1], vals[1:]) if prev > 0 and cur > 0]


def _tail_divergent(ratios: list[float]) -> bool:
    if len(ratios) < 4:
        return False
    return float(np.mean(ratios[-4:])) >= DIVERGENCE_RATIO


def _liouville_schrodinger(V: Polynomial1D, a, energy: float,
                           allow_critical: bool) -> LiouvilleResult:
    a = _as_symbol_callable(a)
    dV = V.derivative()
    intervals = allowed_intervals(V, energy)
    if not intervals:
        return LiouvilleResult(0.0, False, energy=energy, detail="empty level set")
    slope_scale = max(V.scale(), 1.0)

    all_ratios: list[float] = []
    for lo, hi in intervals:
        for x_t, side in ((lo, +1.0), (hi, -1.0)):
            if x_t in SEARCH_BOX:
                continue  # box edge, not a turning point
            if abs(dV(x_t)) > DEGENERATE_SLOPE_TOL * slope_scale:
                continue
            if not allow_critical:
                raise ConfigError(
                    f"E={energy:.6g} has a degenerate turning point at "
                    f"x={x_t:.6g}; pass allow_critical=True to probe it")
            ratios = _shell_ratios_1d(V, energy, x_t, side, 0.25 * (hi - lo))
            all_ratios.extend(ratios[-4:])
            if _tail_divergent(ratios):
                return LiouvilleResult(math.inf, True, energy=energy,
                                       shell_ratios=tuple(np.round(ratios, 4)),
                                       detail=f"degenerate turning point at x={x_t:.6g}")

    total = 0.0
    err = 0.0
    for lo, hi in intervals:
        val, delta = _interval_integral(V, a, energy, lo, hi)
        total += val
        err += delta
    return LiouvilleResult(total, False, energy=energy, error_estimate=err,
                           shell_ratios=tuple(np.round(all_ratios, 4)))


def _liouville_radial(V: Polynomial1D, a, energy: float) -> LiouvilleResult:
    from scipy.integrate import quad
    a = _as_symbol_callable(a)
    intervals = allowed_intervals(V, energy, (0.0, SEARCH_BOX[1]))
    if not intervals:
        return LiouvilleResult(0.0, False, energy=energy, detail="empty level set")
    total = 0.0
    err = 0.0
    for lo, hi in intervals:
        def integrand(r):
            s = math.sqrt(max(energy - float(V(r)), 0.0))
            return float(a(r, s)) * 2.0 * np.pi**2 * r
        val, abserr = quad(integrand, lo, hi, epsrel=max(LIOUVILLE_RTOL, 1e-12), limit=200)
        total += val
        err += abserr
    return LiouvilleResult(total, False, energy=energy, error_estimate=err)


# ---------------------------------------------------------------------------
# Marching squares for planar polynomial symbols

# corner bits: 1=(i,j)  2=(i+1,j)  4=(i+1,j+1)  8=(i,j+1), set when p < E;
# edges: 0 bottom, 1 right, 2 top, 3 left
_EDGE_TABLE = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)],
    7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)], 11: [(2, 1)], 12: [(1, 3)],
    13: [(1, 0)], 14: [(0, 3)],
}


def _cell_segments(code: int, center_inside: bool):
    if code in _EDGE_TABLE:
        return _EDGE_TABLE[code]
    if code == 5:  # opposite corners inside: saddle cell, centre decides
        return [(3, 2), (1, 0)] if center_inside else [(3, 0), (1, 2)]
    if code == 10:
        return [(0, 3), (2, 1)] if center_inside else [(0, 1), (2, 3)]
    return []


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, k):
        p = self.parent.setdefault(k, k)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[k] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


@dataclass(frozen=True)
class _Segment:
    key_a: tuple
    key_b: tuple
    mid: tuple[float, float]
    length: float


def _march(p_func, energy: float, box: tuple[float, float, float, float], n: int):
    """Marching-squares crossing graph of {p = energy} in the box.

    Returns (segments, union_find); keys are grid-edge identifiers, so the
    connectivity is exact cell topology rather than coordinate rounding.
    """
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(p_func(xx, yy), dtype=float) - energy
    inside = vals < 0.0

    code = (inside[:-1, :-1].astype(int)
            + 2 * inside[1:, :-1].astype(int)
            + 4 * inside[1:, 1:].astype(int)
            + 8 * inside[:-1, 1:].astype(int))
    active = np.argwhere((code != 0) & (code != 15))

    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    uf = _UnionFind()
    segments: list[_Segment] = []

    def edge_point(i, j, e):
        if e == 0:
            va, vb = vals[i, j], vals[i + 1, j]
            t = va / (va - vb)
            return (xs[i] + t * dx, ys[j]), ("h", i, j)
        if e == 1:
            va, vb = vals[i + 1, j], vals[i + 1, j + 1]
            t = va / (va - vb)
            return (xs[i + 1], ys[j] + t * dy), ("v", i + 1, j)
        if e == 2:
            va, vb = vals[i, j + 1], vals[i + 1, j + 1]
            t = va / (va - vb)
            return (xs[i] + t * dx, ys[j + 1]), ("h", i, j + 1)
        va, vb = vals[i, j], vals[i, j + 1]
        t = va / (va - vb)
        return (xs[i], ys[j] + t * dy), ("v", i, j)

    for i, j in active:
        c = int(code[i, j])
        if c in (5, 10):
            centre = p_func(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])) - energy
            segs = _cell_segments(c, bool(centre < 0))
        else:
            segs = _cell_segments(c, True)
        for ea, eb in segs:
            pa, ka = edge_point(i, j, ea)
            pb, kb = edge_point(i, j, eb)
            uf.union(ka, kb)
            segments.append(_Segment(
                key_a=ka, key_b=kb,
                mid=(0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1])),
                length=math.hypot(pb[0] - pa[0], pb[1] - pa[1])))
    return segments, uf


def _march_integral(p_func, a_func, grad_func, energy, box, n) -> float:
    total = 0.0
    segments, _uf = _march(p_func, energy, box, n)
    for seg in segments:
        if seg.length == 0.0:
            continue
        gx, gy = grad_func(seg.mid[0], seg.mid[1])
        gn = math.hypot(float(gx), float(gy))
        if gn > 0.0:
            total += float(a_func(seg.mid[0], seg.mid[1])) / gn * seg.length
    return total


def _phase_box(p_func, energy: float, margin: float = 1.0) -> tuple[float, float, float, float]:
    xs = np.linspace(-6.0, 6.0, 257)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    mask = np.asarray(p_func(xx, yy), dtype=float) <= energy + margin
    if not np.any(mask):
        return (-1.0, 1.0, -1.0, 1.0)
    gx = xs[np.any(mask, axis=1)]
    gy = xs[np.any(mask, axis=0)]
    pad = 0.2 * max(gx[-1] - gx[0], gy[-1] - gy[0], 0.5)
    return (float(gx[0] - pad), float(gx[-1] + pad), float(gy[0] - pad), float(gy[-1] + pad))


def _shell_ratios_2d(p_func, grad_func, energy: float, z0: tuple[float, float],
                     radius: float) -> list[float]:
    vals = []
    for j in range(10):
        r_hi = radius * 2.0 ** (-j)
        r_lo = 0.5 * r_hi
        box = (z0[0] - r_hi, z0[0] + r_hi, z0[1] - r_hi, z0[1] + r_hi)
        segments, _uf = _march(p_func, energy, box, 192)
        acc = 0.0
        for seg in segments:
            d = math.hypot(seg.mid[0] - z0[0], seg.mid[1] - z0[1])
            if r_lo <= d <= r_hi and seg.length > 0:
                gx, gy = grad_func(seg.mid[0], seg.mid[1])
                gn = math.hypot(float(gx), float(gy))
                if gn > 0.0:
                    acc += seg.length / gn
        vals.append(acc)
    return [cur / prev for prev, cur in zip(vals[:-1], vals[1:]) if prev > 0 and cur > 0]


def _liouville_phase(model: SymbolModel, a, energy: float,
                     resolution: int, allow_critical: bool) -> LiouvilleResult:
    a = _as_symbol_callable(a)
    p = model.phase_poly
    p_func = lambda x, xi: p(x, xi)
    grad_func = p.gradient

    all_ratios: list[float] = []
    for cp in model.critical_points_at(energy):
        if not allow_critical:
            raise ConfigError(
                f"E={energy:.6g} passes through the critical point at "
                f"{cp.z0}; pass allow_critical=True to probe it")
        ratios = _shell_ratios_2d(p_func, grad_func, energy, (cp.z0[0], cp.z0[1]), 0.5)
        all_ratios.extend(ratios[-4:])
        if _tail_divergent(ratios):
            return LiouvilleResult(math.inf, True, energy=energy,
                                   shell_ratios=tuple(np.round(ratios, 4)),
                                   detail=f"critical point on level set at {cp.z0}")

    box = _phase_box(p_func, energy)
    a_scalar = lambda x, y: float(np.asarray(a(np.asarray(x), np.asarray(y))))
    prev = None
    delta = math.inf
    n = max(resolution // 2, 128)
    while n <= 2 * resolution:
        total = _march_integral(p_func, a_scalar, grad_func, energy, box, n)
        if prev is not None:
            delta = abs(total - prev)
            if delta <= 2e-3 * (abs(total) + 1e-300):
                return LiouvilleResult(total, False, energy=energy, error_estimate=delta,
                                       shell_ratios=tuple(np.round(all_ratios, 4)))
        prev = total
        n *= 2
    return LiouvilleResult(prev, False, energy=energy, error_estimate=delta,
                           shell_ratios=tuple(np.round(all_ratios, 4)),
                           detail="marching squares at max resolution")


def liouville_integral(model: SymbolModel, a, energy: float, resolution: int = 2048,
                       allow_critical: bool = False) -> LiouvilleResult:
    """Liouville-measure integral of a over the level set {symbol = energy}.

    ``a`` is a callable of (x, xi); for radial models the arguments are
    (r, |xi|).  ``a = None`` integrates 1 (the level-set volume).

    An energy sitting on a degenerate turning point or a planar critical
    point is rejected unless ``allow_critical`` is set; with the flag, the
    dyadic-shell probe runs and a non-summable local tail comes back as
    ``divergent=True`` with value +inf instead of a garbage number.
    """
    if model.family == "schrodinger1d":
        return _liouville_schrodinger(model.potential, a, energy, allow_critical)
    if model.family == "radial2d":
        return _liouville_radial(model.potential, a, energy)
    if model.family == "phase1d":
        return _liouville_phase(model, a, energy, resolution, allow_critical)
    raise ValueError(f"unknown family {model.family}")


def level_volume(model: SymbolModel, energy: float, **kw) -> LiouvilleResult:
    return liouville_integral(model, None, energy, **kw)


def mu_average(model: SymbolModel, a, energy: float, **kw) -> float:
    """Normalized Liouville average of a on {symbol = energy}."""
    kw.setdefault("allow_critical", True)
    vol = level_volume(model, energy, **kw)
    if vol.divergent:
        raise NumericalError(
            f"Liouville volume divergent at E={energy:.6g}: {vol.detail}")
    if vol.value <= 0.0:
        raise NumericalError(f"empty level set at E={energy:.6g}")
    num = liouville_integral(model, a, energy, **kw)
    return num.value / vol.value


def classify_integrability(cp: CriticalPoint, model: SymbolModel) -> str:
    """Closed-form tail class of the Liouville density at a critical energy.

    Near a critical point of local order k the level-set density scales like
    the (2n - 1)-sphere area over the gradient size; summing dyadic shells
    gives a finite total iff k < 2n, a logarithmic tail iff k = 2n, and a
    power divergence for k > 2n.  Potential wells piggyback on the momentum
    dimension: a 1D barrier top always diverges (log for quadratic, power
    beyond), while in the radial plane the extra volume factor makes every
    polynomial critical level integrable.

    Returns one of "integrable", "non_integrable", "logarithmic_borderline";
    the dyadic-shell probe of ``level_volume(..., allow_critical=True)`` is
    the numerical cross-check of the same trichotomy.
    """
    if model.family == "schrodinger1d":
        return "non_integrable"
    if model.family == "radial2d":
        return "integrable"
    if model.family == "phase1d":
        k = cp.order
        two_n = 2 * model.n
        if k < two_n:
            return "integrable"
        if k == two_n:
            return "logarithmic_borderline"
        return "non_integrable"
    raise ValueError(f"unknown family {model.family}")


def levelset_components(model: SymbolModel, energy: float) -> int:
    """Number of connected components of {symbol = energy} in the plane.

    Components meeting at a critical point on the level set are counted as
    one: the level set is a single closed set through such a node even
    though marching squares separates the local branches.
    """
    if model.family == "schrodinger1d":
        V = model.potential
        dV = V.derivative()
        p_func = lambda x, xi: xi**2 + V(x)
        grad_func = lambda x, xi: (dV(x), 2.0 * xi)
    elif model.family == "phase1d":
        p = model.phase_poly
        p_func = lambda x, xi: p(x, xi)
        grad_func = p.gradient
    else:
        raise ValueError("component counting is planar only")
    box = _phase_box(p_func, energy)
    n = LEVELSET_RESOLUTION
    segments, uf = _march(p_func, energy, box, n)
    if not segments:
        return 0
    cell_diag = math.hypot((box[1] - box[0]) / n, (box[3] - box[2]) / n)
    for cp in model.critical_points_at(energy):
        z0 = cp.z0
        anchor = ("node", z0)
        for seg in segments:
            if math.hypot(seg.mid[0] - z0[0], seg.mid[1] - z0[1]) <= 3.0 * cell_diag:
                uf.union(seg.key_a, anchor)
    return len({uf.find(s.key_a) for s in segments})


def levelset_connected(model: SymbolModel, energy: float) -> tuple[bool, int]:
    """(is connected, component count) for the planar level set {p = energy}."""
    count = levelset_components(model, energy)
    return count == 1, count


# ---------------------------------------------------------------------------
# Coarea consistency: integral of the level volume over an energy band must
# reproduce the phase-space area of the band, giving an independent check of
# the quadrature and the marching-squares routes at once.


def _band_box(model: SymbolModel, e_hi: float) -> tuple[float, float, float, float]:
    if model.family == "phase1d":
        p = model.phase_poly
        return _phase_box(lambda x, xi: p(x, xi), e_hi, margin=0.0)
    V = model.potential
    intervals = allowed_intervals(V, e_hi)
    if not intervals:
        raise NumericalError(f"empty band below E={e_hi:.6g}")
    x_lo = min(lo for lo, _ in intervals)
    x_hi = max(hi for _, hi in intervals)
    v_min = float(np.min(V(np.linspace(x_lo, x_hi, 4001))))
    s_hi = math.sqrt(max(e_hi - v_min, 0.0))
    pad_x = 0.05 * (x_hi - x_lo + 1.0)
    pad_s = 0.05 * (s_hi + 1.0)
    return (x_lo - pad_x, x_hi + pad_x, -s_hi - pad_s, s_hi + pad_s)


def coarea_area(model: SymbolModel, e_lo: float, e_hi: float) -> float:
    """Phase-space measure of {e_lo <= p <= e_hi} by cell counting.

    Planar families count lattice cells directly; the radial family counts
    in the (r, s) half-plane with the weight 4 pi^2 r s of the two angular
    variables integrated out.
    """
    if model.family == "radial2d":
        V = model.potential
        intervals = allowed_intervals(V, e_hi, (0.0, SEARCH_BOX[1]))
        if not intervals:
            return 0.0
        r_hi = max(hi for _, hi in intervals)
        v_min = float(np.min(V(np.linspace(0.0, r_hi, 4001))))
        s_hi = math.sqrt(max(e_hi - v_min, 0.0)) * 1.05
        r = np.linspace(0.0, r_hi * 1.05, COAREA_RESOLUTION + 1)
        s = np.linspace(0.0, s_hi, COAREA_RESOLUTION + 1)
        rc = 0.5 * (r[:-1] + r[1:])
        sc = 0.5 * (s[:-1] + s[1:])
        rr, ss = np.meshgrid(rc, sc, indexing="ij")
        p = ss**2 + np.asarray(V(rr), dtype=float)
        band = (p >= e_lo) & (p <= e_hi)
        cell = (r[1] - r[0]) * (s[1] - s[0])
        return float(np.sum(4.0 * np.pi**2 * rr[band] * ss[band]) * cell)

    if model.family == "schrodinger1d":
        V = model.potential
        p_func = lambda x, xi: xi**2 + np.asarray(V(x), dtype=float)
    else:
        poly = model.phase_poly
        p_func = lambda x, xi: np.asarray(poly(x, xi), dtype=float)
    x0, x1, y0, y1 = _band_box(model, e_hi)
    xs = np.linspace(x0, x1, COAREA_RESOLUTION + 1)
    ys = np.linspace(y0, y1, COAREA_RESOLUTION + 1)
    xc = 0.5 * (xs[:-1] + xs[1:])
    yc = 0.5 * (ys[:-1] + ys[1:])
    xx, yy = np.meshgrid(xc, yc, indexing="ij")
    p = p_func(xx, yy)
    band = (p >= e_lo) & (p <= e_hi)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return float(np.count_nonzero(band)) * cell


def coarea_check(model: SymbolModel, e_lo: float, e_hi: float) -> dict:
    """Compare the energy integral of the level volume with the band area.

    The coarea identity makes integral of V(E) dE over [e_lo, e_hi] equal to
    the area of the band {e_lo <= p <= e_hi}; the two sides come from fully
    independent code paths (turning-point quadrature vs cell counting), so
    agreement validates both.  Returns the two values and their relative
    difference.
    """
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(COAREA_QUAD_NODES)
    c, w = 0.5 * (e_lo + e_hi), 0.5 * (e_hi - e_lo)
    integral = 0.0
    for u, wt in zip(nodes, weights):
        vol = level_volume(model, float(c + w * u))
        if vol.divergent:
            raise NumericalError("divergent level volume inside the band")
        integral += wt * vol.value
    integral *= w
    area = coarea_area(model, e_lo, e_hi)
    denom = max(abs(area), abs(integral), 1e-300)
    return {
        "band_integral": integral,
        "lattice_area": area,
        "rel_diff": abs(integral - area) / denom,
    }


# ---------------------------------------------------------------------------
# Hamiltonian flows


@dataclass(frozen=True)
class FlowResult:
    x: np.ndarray
    xi: np.ndarray
    t: float
    dt: float
    energy_drift: float
    stepper: str = ""
    reversibility_error: float | None = None


def _verlet(V_prime, x, xi, t: float, dt: float):
    """Leapfrog for p = xi^2 + V: dx/dt = 2 xi, dxi/dt = -V'(x)."""
    n = max(1, int(round(abs(t) / dt)))
    step = t / n
    x = np.array(x, dtype=float, copy=True)
    xi = np.array(xi, dtype=float, copy=True)
    xi = xi - 0.5 * step * np.asarray(V_prime(x), dtype=float)
    for k in range(n):
        x = x + 2.0 * step * xi
        if k < n - 1:
            xi = xi - step * np.asarray(V_prime(x), dtype=float)
    xi = xi - 0.5 * step * np.asarray(V_prime(x), dtype=float)
    return x, xi


def _rk4(grad, x, xi, t: float, dt: float):
    """Classic Runge-Kutta for dz/dt = (d_xi p, -d_x p)."""
    n = max(1, int(round(abs(t) / dt)))
    step = t / n
    x = np.array(x, dtype=float, copy=True)
    xi = np.array(xi, dtype=float, copy=True)

    def rhs(xc, xic):
        px, pxi = grad(xc, xic)
        return np.asarray(pxi, dtype=float), -np.asarray(px, dtype=float)

    for _ in range(n):
        k1x, k1s = rhs(x, xi)
        k2x, k2s = rhs(x + 0.5 * step * k1x, xi + 0.5 * step * k1s)
        k3x, k3s = rhs(x + 0.5 * step * k2x, xi + 0.5 * step * k2s)
        k4x, k4s = rhs(x + step * k3x, xi + step * k3s)
        x = x + step / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        xi = xi + step / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
    return x, xi


def flow_points(model: SymbolModel, x0, xi0, t: float,
                check_reversibility: bool = False) -> FlowResult:
    """Hamiltonian flow of the model symbol from (x0, xi0) for time t.

    Split symbols use Verlet (symplectic), general planar ones classic RK4.
    The step starts at t/1000 and is halved until the energy drift passes
    ``FLOW_DRIFT_TOL * (1 + max|E|)``; persistent failure raises
    ``NumericalError``.  Inputs broadcast to arrays of phase points.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    e0 = np.asarray(model.eval(x0, xi0), dtype=float)
    scale = 1.0 + float(np.max(np.abs(e0)))

    if model.family in ("schrodinger1d", "radial2d"):
        V_prime = model.potential.derivative()
        forward = lambda d: _verlet(V_prime, x0, xi0, t, d)
        backward = lambda x, xi, d: _verlet(V_prime, x, xi, -t, d)
        stepper = "verlet"
    elif model.family == "phase1d":
        grad = model.phase_poly.gradient
        forward = lambda d: _rk4(grad, x0, xi0, t, d)
        backward = lambda x, xi, d: _rk4(grad, x, xi, -t, d)
        stepper = "rk4"
    else:
        raise ValueError(f"no flow for family {model.family}")

    dt0 = 1e-3 * max(abs(t), 1.0)
    last_drift = math.inf
    for attempt in range(7):
        cur_dt = dt0 * 0.5**attempt
        x1, xi1 = forward(cur_dt)
        drift = float(np.max(np.abs(np.asarray(model.eval(x1, xi1), dtype=float) - e0)))
        last_drift = drift
        if drift <= FLOW_DRIFT_TOL * scale:
            rev = None
            if check_reversibility:
                xb, xib = backward(x1, xi1, cur_dt)
                rev = float(np.max(np.hypot(xb - x0, xib - xi0)))
            return FlowResult(x=x1, xi=xi1, t=t, dt=cur_dt, energy_drift=drift,
                              stepper=stepper, reversibility_error=rev)
    raise NumericalError(
        f"energy drift {last_drift:.3e} still above {FLOW_DRIFT_TOL:.1e} * {scale:.3g} "
        f"after 6 step halvings")

