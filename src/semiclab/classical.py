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

Connectivity of planar level sets is read from the connected components of
the crossing graph, whose nodes are the cell edges the level crosses and
whose links are the marching-squares segments; components meeting at a
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
    "normalizing_volume",
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
LIOUVILLE_RESOLUTION = 2048  # planar Liouville integrals march at 1/2, 1 and 2 times it
LEVELSET_RESOLUTION = 512  # marching-squares cells per side for level-set topology
COAREA_RESOLUTION = 3000  # lattice cells per side of the coarea band count
COAREA_QUAD_NODES = 24  # Gauss-Legendre nodes of the energy integral
COAREA_BLOCK_BYTES = 4 * 2**20  # working memory of one block of coarea lattice rows, at most
FLOW_DRIFT_TOL = 1e-6  # energy drift allowed per unit of 1 + max|E|
FLOW_PROBE = 64  # points of largest |p| flowed alone to reject a step size early


@dataclass(frozen=True)
class LiouvilleResult:
    value: float
    divergent: bool
    error_estimate: float = 0.0
    shell_ratios: tuple[float, ...] = ()
    detail: str = ""


def _as_symbol_callable(a):
    if a is None:
        return lambda x, xi: np.ones_like(np.asarray(x, dtype=float))
    return a


def allowed_intervals(V: Polynomial1D, energy: float,
                      search: tuple[float, float] = SEARCH_BOX) -> list[tuple[float, float]]:
    """Maximal intervals with V < energy inside the search range.

    An interval that reaches an edge of the range, other than the origin
    r = 0 of a radial search, leaves the range: its level set would be cut
    there, so it raises ``NumericalError``.
    """
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
    for edge in search:
        if edge != 0.0 and any(edge in iv for iv in out):
            raise NumericalError(
                f"the level set at E={energy:.6g} reaches the search edge {edge:g}; "
                f"only [{search[0]:g}, {search[1]:g}] is searched")
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
        return LiouvilleResult(0.0, False, detail="empty level set")
    slope_scale = max(V.scale(), 1.0)

    all_ratios: list[float] = []
    for lo, hi in intervals:
        for x_t, side in ((lo, +1.0), (hi, -1.0)):
            if abs(dV(x_t)) > DEGENERATE_SLOPE_TOL * slope_scale:
                continue
            if not allow_critical:
                raise ConfigError(
                    f"E={energy:.6g} has a degenerate turning point at "
                    f"x={x_t:.6g}; pass allow_critical=True to probe it")
            ratios = _shell_ratios_1d(V, energy, x_t, side, 0.25 * (hi - lo))
            all_ratios.extend(ratios[-4:])
            if _tail_divergent(ratios):
                return LiouvilleResult(math.inf, True,
                                       shell_ratios=tuple(np.round(ratios, 4)),
                                       detail=f"degenerate turning point at x={x_t:.6g}")

    total = 0.0
    err = 0.0
    for lo, hi in intervals:
        val, delta = _interval_integral(V, a, energy, lo, hi)
        total += val
        err += delta
    return LiouvilleResult(total, False, error_estimate=err,
                           shell_ratios=tuple(np.round(all_ratios, 4)))


def _liouville_radial(V: Polynomial1D, a, energy: float) -> LiouvilleResult:
    from scipy.integrate import quad
    a = _as_symbol_callable(a)
    intervals = allowed_intervals(V, energy, (0.0, SEARCH_BOX[1]))
    if not intervals:
        return LiouvilleResult(0.0, False, detail="empty level set")
    total = 0.0
    err = 0.0
    for lo, hi in intervals:
        def integrand(r):
            s = math.sqrt(max(energy - float(V(r)), 0.0))
            return float(a(r, s)) * 2.0 * np.pi**2 * r
        val, abserr = quad(integrand, lo, hi, epsrel=max(LIOUVILLE_RTOL, 1e-12), limit=200)
        total += val
        err += abserr
    return LiouvilleResult(total, False, error_estimate=err)


# ---------------------------------------------------------------------------
# Marching squares for planar polynomial symbols


def _crossing_table() -> np.ndarray:
    """Segments of a cell as local edge pairs, indexed [code, centre inside].

    Corner bits: 1=(i,j)  2=(i+1,j)  4=(i+1,j+1)  8=(i,j+1), set when p < E;
    edges: 0 bottom, 1 right, 2 top, 3 left.  A cell has at most two
    segments; -1 pads the unused one.  Only the saddle codes 5 and 10 (two
    opposite corners inside) read the centre.
    """
    table = np.full((16, 2, 2, 2), -1)
    single = {1: (3, 0), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2), 7: (3, 2),
              8: (2, 3), 9: (0, 2), 11: (2, 1), 12: (1, 3), 13: (1, 0), 14: (0, 3)}
    for code, pair in single.items():
        table[code, :, 0] = pair
    table[5] = ((3, 0), (1, 2)), ((3, 2), (1, 0))
    table[10] = ((0, 1), (2, 3)), ((0, 3), (2, 1))
    return table


_CROSSINGS = _crossing_table()


def _march(model: SymbolModel, energy: float, box: tuple[float, float, float, float], n: int):
    """Marching-squares crossing graph of {p = energy} in the box.

    Returns (ends, mid, length) with one entry per segment: ``ends`` (m, 2)
    holds the ids of the grid edges at its two ends, so connectivity is exact
    cell topology rather than coordinate rounding; ``mid`` (2, m) holds the
    midpoints and ``length`` (m,) the lengths.  Horizontal edge (i, j) joins
    nodes (i, j), (i+1, j) and has id i (n+1) + j; vertical edge (i, j) joins
    (i, j), (i, j+1) and has id n (n+1) + i n + j.
    """
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    vals = np.asarray(model.eval(xs[:, None], ys[None, :]), dtype=float) - energy
    inside = (vals < 0.0).astype(np.uint8)
    code = inside[:-1, :-1] + 2 * inside[1:, :-1] + 4 * inside[1:, 1:] + 8 * inside[:-1, 1:]
    i, j = np.nonzero((code != 0) & (code != 15))
    code = code[i, j]

    saddle = (code == 5) | (code == 10)
    si, sj = i[saddle], j[saddle]
    centre_inside = np.zeros(len(code), dtype=np.intp)
    centre_inside[saddle] = np.asarray(
        model.eval(0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1]))) - energy < 0
    edges = _CROSSINGS[code, centre_inside].reshape(-1, 2)
    cell = np.repeat(np.arange(len(code)), 2)
    kept = edges[:, 0] >= 0
    edges, cell = edges[kept], cell[kept]

    # (ia, ja) is the first node of an end's edge and (ia + 1, ja) or
    # (ia, ja + 1) the second; the crossing sits at t = va / (va - vb) along it
    horiz = edges % 2 == 0
    ia = i[cell, None] + (edges == 1)
    ja = j[cell, None] + (edges == 2)
    va = vals[ia, ja]
    vb = vals[ia + horiz, ja + ~horiz]
    t = va / (va - vb)
    px = np.where(horiz, xs[ia] + t * (xs[1] - xs[0]), xs[ia])
    py = np.where(horiz, ys[ja], ys[ja] + t * (ys[1] - ys[0]))
    ends = np.where(horiz, ia * (n + 1) + ja, n * (n + 1) + ia * n + ja)
    mid = 0.5 * np.stack([px[:, 0] + px[:, 1], py[:, 0] + py[:, 1]])
    length = np.hypot(px[:, 1] - px[:, 0], py[:, 1] - py[:, 0])
    return ends, mid, length


def _march_integral(model: SymbolModel, a, energy, box, n) -> float:
    _, mid, length = _march(model, energy, box, n)
    gn = np.hypot(*model.phase_poly.gradient(*mid))
    kept = (length > 0.0) & (gn > 0.0)
    x, xi = mid[:, kept]
    return float(np.sum(np.asarray(a(x, xi), dtype=float) / gn[kept] * length[kept]))


def _phase_box(model: SymbolModel, energy: float, margin: float = 1.0,
               empty=(-1.0, 1.0, -1.0, 1.0)) -> tuple[float, float, float, float]:
    """Padded box around the probed set {p <= energy + margin}, or ``empty``
    when no probe point lies in it.

    The probe covers (-6, 6)^2 only.  A level set that the box would cut, p <=
    energy somewhere on its boundary (sampled at the nodes of the finest
    Liouville march), raises ``NumericalError``.
    """
    xs = np.linspace(-6.0, 6.0, 257)
    mask = np.asarray(model.eval(xs[:, None], xs[None, :]), dtype=float) <= energy + margin
    if not np.any(mask):
        return empty
    gx = xs[np.any(mask, axis=1)]
    gy = xs[np.any(mask, axis=0)]
    pad = 0.2 * max(gx[-1] - gx[0], gy[-1] - gy[0], 0.5)
    box = (float(gx[0] - pad), float(gx[-1] + pad), float(gy[0] - pad), float(gy[-1] + pad))
    x0, x1, y0, y1 = box
    bx = np.linspace(x0, x1, 2 * LIOUVILLE_RESOLUTION + 1)[:, None]
    by = np.linspace(y0, y1, 2 * LIOUVILLE_RESOLUTION + 1)[None, :]
    if (np.any(model.eval(bx, by[:, [0, -1]]) <= energy)
            or np.any(model.eval(bx[[0, -1]], by) <= energy)):
        raise NumericalError(
            f"the level set at E={energy:.6g} reaches the edge of its box "
            f"[{x0:.6g}, {x1:.6g}] x [{y0:.6g}, {y1:.6g}]")
    return box


def _shell_ratios_2d(model: SymbolModel, energy: float, z0: tuple[float, float],
                     radius: float) -> list[float]:
    vals = []
    for j in range(10):
        r_hi = radius * 2.0 ** (-j)
        box = (z0[0] - r_hi, z0[0] + r_hi, z0[1] - r_hi, z0[1] + r_hi)
        _, mid, length = _march(model, energy, box, 192)
        d = np.hypot(mid[0] - z0[0], mid[1] - z0[1])
        gn = np.hypot(*model.phase_poly.gradient(*mid))
        kept = (0.5 * r_hi <= d) & (d <= r_hi) & (length > 0.0) & (gn > 0.0)
        vals.append(float(np.sum(length[kept] / gn[kept])))
    return [cur / prev for prev, cur in zip(vals[:-1], vals[1:]) if prev > 0 and cur > 0]


def _liouville_phase(model: SymbolModel, a, energy: float,
                     allow_critical: bool) -> LiouvilleResult:
    a = _as_symbol_callable(a)
    all_ratios: list[float] = []
    for cp in model.critical_points_at(energy):
        if not allow_critical:
            raise ConfigError(
                f"E={energy:.6g} passes through the critical point at "
                f"{cp.z0}; pass allow_critical=True to probe it")
        ratios = _shell_ratios_2d(model, energy, (cp.z0[0], cp.z0[1]), 0.5)
        all_ratios.extend(ratios[-4:])
        if _tail_divergent(ratios):
            return LiouvilleResult(math.inf, True,
                                   shell_ratios=tuple(np.round(ratios, 4)),
                                   detail=f"critical point on level set at {cp.z0}")

    box = _phase_box(model, energy)
    prev = None
    delta = math.inf
    n = LIOUVILLE_RESOLUTION // 2
    while n <= 2 * LIOUVILLE_RESOLUTION:
        total = _march_integral(model, a, energy, box, n)
        if prev is not None:
            delta = abs(total - prev)
            if delta <= 2e-3 * (abs(total) + 1e-300):
                return LiouvilleResult(total, False, error_estimate=delta,
                                       shell_ratios=tuple(np.round(all_ratios, 4)))
        prev = total
        n *= 2
    return LiouvilleResult(prev, False, error_estimate=delta,
                           shell_ratios=tuple(np.round(all_ratios, 4)),
                           detail="marching squares at max resolution")


def liouville_integral(model: SymbolModel, a, energy: float,
                       allow_critical: bool = False) -> LiouvilleResult:
    """Liouville-measure integral of a over the level set {symbol = energy}.

    ``a`` is a callable of (x, xi); for radial models the arguments are
    (r, |xi|).  ``a = None`` integrates 1 (the level-set volume).

    An energy sitting on a degenerate turning point or a planar critical
    point is rejected unless ``allow_critical`` is set; with the flag, the
    dyadic-shell probe runs and a non-summable local tail comes back as
    ``divergent=True`` with value +inf instead of a garbage number.  Any
    other non-finite result (an overflowing observable) raises
    ``NumericalError``, numpy's floating-point warnings silenced.
    """
    with np.errstate(all="ignore"):
        if model.family == "schrodinger1d":
            res = _liouville_schrodinger(model.potential, a, energy, allow_critical)
        elif model.family == "radial2d":
            res = _liouville_radial(model.potential, a, energy)
        else:
            res = _liouville_phase(model, a, energy, allow_critical)
    if not (res.divergent or np.isfinite([res.value, res.error_estimate]).all()):
        raise NumericalError(f"Liouville integral at E={energy:.6g} is not finite "
                             "(the observable overflows)")
    return res


def level_volume(model: SymbolModel, energy: float,
                 allow_critical: bool = False) -> LiouvilleResult:
    return liouville_integral(model, None, energy, allow_critical)


def normalizing_volume(model: SymbolModel, energy: float) -> float:
    """Level-set volume that normalizes a Liouville average.

    A critical energy is probed, not refused (``allow_critical=True``).  A
    divergent or empty level set has no normalized average: both raise
    ``NumericalError``.
    """
    vol = level_volume(model, energy, allow_critical=True)
    if vol.divergent:
        raise NumericalError(
            f"Liouville volume divergent at E={energy:.6g}: {vol.detail}")
    if vol.value <= 0.0:
        raise NumericalError(f"empty level set at E={energy:.6g}")
    return vol.value


def mu_average(model: SymbolModel, a, energy: float) -> float:
    """Normalized Liouville average of a on {symbol = energy}, a critical
    energy probed as in :func:`normalizing_volume`."""
    vol = normalizing_volume(model, energy)
    return liouville_integral(model, a, energy, allow_critical=True).value / vol


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
    k, two_n = cp.order, 2 * model.n
    if k < two_n:
        return "integrable"
    if k == two_n:
        return "logarithmic_borderline"
    return "non_integrable"


def levelset_components(model: SymbolModel, energy: float) -> int:
    """Number of connected components of {symbol = energy} in the plane.

    Components meeting at a critical point on the level set are counted as
    one: the level set is a single closed set through such a node even
    though marching squares separates the local branches.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if model.family not in ("schrodinger1d", "phase1d"):
        raise ValueError("component counting is planar only")
    box = _phase_box(model, energy)
    n = LEVELSET_RESOLUTION
    ends, mid, _ = _march(model, energy, box, n)
    if not len(ends):
        return 0
    # node ids: grid edges first, then one node per critical point, joined to
    # every segment within three cell diagonals of it
    links = [ends]
    node = 2 * n * (n + 1)
    cell_diag = math.hypot((box[1] - box[0]) / n, (box[3] - box[2]) / n)
    for cp in model.critical_points_at(energy):
        near = ends[np.hypot(mid[0] - cp.z0[0], mid[1] - cp.z0[1]) <= 3.0 * cell_diag, 0]
        links.append(np.column_stack([near, np.full(len(near), node)]))
        node += 1
    u, v = np.concatenate(links).T
    graph = coo_matrix((np.ones(len(u)), (u, v)), shape=(node, node))
    _, label = connected_components(graph, directed=False)
    return len(np.unique(label[ends[:, 0]]))


def levelset_connected(model: SymbolModel, energy: float) -> tuple[bool, int]:
    """(is connected, component count) for the planar level set {p = energy}."""
    count = levelset_components(model, energy)
    return count == 1, count


# ---------------------------------------------------------------------------
# Coarea consistency: integral of the level volume over an energy band must
# reproduce the phase-space area of the band, giving an independent check of
# the quadrature and the marching-squares routes at once.


def _band_box(model: SymbolModel, e_hi: float) -> tuple[float, float, float, float]:
    """Lattice box holding the band below e_hi.

    An (x, xi) box for the planar families; for the radial family the (r, s)
    quadrant r, s >= 0, s = |xi|.
    """
    if model.family == "phase1d":
        box = _phase_box(model, e_hi, margin=0.0, empty=None)
        if box is None:
            raise NumericalError(f"empty band below E={e_hi:.6g}")
        return box
    V = model.potential
    radial = model.family == "radial2d"
    intervals = allowed_intervals(V, e_hi, (0.0, SEARCH_BOX[1]) if radial else SEARCH_BOX)
    if not intervals:
        raise NumericalError(f"empty band below E={e_hi:.6g}")
    x_lo = 0.0 if radial else min(lo for lo, _ in intervals)
    x_hi = max(hi for _, hi in intervals)
    v_min = float(np.min(V(np.linspace(x_lo, x_hi, 4001))))
    s_hi = math.sqrt(max(e_hi - v_min, 0.0))
    if radial:
        return (0.0, x_hi * 1.05, 0.0, s_hi * 1.05)
    pad_x = 0.05 * (x_hi - x_lo + 1.0)
    pad_s = 0.05 * (s_hi + 1.0)
    return (x_lo - pad_x, x_hi + pad_x, -s_hi - pad_s, s_hi + pad_s)


def _check_band(e_lo: float, e_hi: float) -> None:
    """ConfigError unless [e_lo, e_hi] is a band: finite edges, e_lo < e_hi."""
    if not (math.isfinite(e_lo) and math.isfinite(e_hi) and e_lo < e_hi):
        raise ConfigError(f"energy band [{e_lo!r}, {e_hi!r}] needs finite edges "
                          "with e_lo < e_hi")


def coarea_area(model: SymbolModel, e_lo: float, e_hi: float) -> float:
    """Phase-space measure of {e_lo <= p <= e_hi} by cell counting.

    Planar families count lattice cells directly; the radial family counts
    in the (r, s) quadrant with the weight 4 pi^2 r s of the two angular
    variables integrated out.  A band with no allowed region below e_hi
    raises ``NumericalError`` in every family, and one that is not a band
    (edges not finite, or e_lo >= e_hi) raises ``ConfigError``.

    Memory: the lattice is evaluated in blocks of rows whose symbol table,
    band mask and temporaries stay within ``COAREA_BLOCK_BYTES``, so the
    whole lattice is never built.  Planar counts are integers and add
    exactly block by block.  The radial weights are floats, whose sum
    depends on its order and grouping, so they are written into one array
    in the lattice's row-major order and added by one ``np.sum``: the same
    sum, bit for bit, as over the band of the whole lattice at once.  That
    array, 8 bytes per band cell, is the only allocation that grows with
    the band; a first pass counts each block's cells to size it, and a
    second pass fills it.
    """
    _check_band(e_lo, e_hi)
    x0, x1, y0, y1 = _band_box(model, e_hi)
    xs = np.linspace(x0, x1, COAREA_RESOLUTION + 1)
    ys = np.linspace(y0, y1, COAREA_RESOLUTION + 1)
    xc = 0.5 * (xs[:-1] + xs[1:])[:, None]
    yc = 0.5 * (ys[:-1] + ys[1:])[None, :]
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    # per lattice cell: the symbol, a temporary and the gathered r, s (8 bytes each)
    rows = max(1, COAREA_BLOCK_BYTES // (32 * COAREA_RESOLUTION))
    starts = range(0, COAREA_RESOLUTION, rows)

    def band(i: int) -> np.ndarray:
        p = model.eval(xc[i:i + rows], yc)
        return (p >= e_lo) & (p <= e_hi)

    counts = [np.count_nonzero(band(i)) for i in starts]
    if model.family != "radial2d":
        return float(sum(counts)) * cell
    terms = np.empty(sum(counts))
    k = 0
    for i, n in zip(starts, counts):
        b = band(i)
        r = np.broadcast_to(xc[i:i + rows], b.shape)[b]
        s = np.broadcast_to(yc, b.shape)[b]
        terms[k:k + n] = 4.0 * np.pi**2 * r * s
        k += n
    return float(np.sum(terms) * cell)


def coarea_check(model: SymbolModel, e_lo: float, e_hi: float) -> dict:
    """Compare the energy integral of the level volume with the band area.

    The coarea identity makes integral of V(E) dE over [e_lo, e_hi] equal to
    the area of the band {e_lo <= p <= e_hi}; the two sides come from fully
    independent code paths (turning-point quadrature vs cell counting), so
    agreement validates both.  Returns the two values and their relative
    difference.  A band that is not one (edges not finite, or
    e_lo >= e_hi) raises ``ConfigError`` before either side runs.
    """
    _check_band(e_lo, e_hi)
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
    energy_drift: float
    reversibility_error: float | None = None


def _horner_into(c, x, f):
    """f = sum c[k] x^k in place, in the operation order of Polynomial1D.__call__.

    Zero coefficients below the leading one are not added: x + 0.0 differs
    from x only in the sign of an exact zero.
    """
    if len(c) == 1:
        f.fill(c[0])
        return
    np.multiply(x, c[-1], out=f)
    for k in range(len(c) - 2, -1, -1):
        if c[k] != 0.0:
            f += c[k]
        if k:
            f *= x


def _verlet(V_prime, x, xi, t: float, dt: float):
    """Leapfrog for p = xi^2 + V: dx/dt = 2 xi, dxi/dt = -V'(x).

    Steps in place on C-order copies of x and xi (which share one shape),
    with one scratch array for V'(x).  ``flow_points`` passes the lattice
    x[:, None] against xi[None, :] as broadcast views, which a plain copy
    turns into one C-order and one Fortran-order array, and in-place ufuncs
    mixing the two orders take nearly twice as long as on one order.
    """
    n = max(1, int(round(abs(t) / dt)))
    step = t / n
    x = np.array(x, dtype=float, order="C")
    xi = np.array(xi, dtype=float, order="C")
    f = np.empty_like(x)
    c = V_prime.coefficients
    half, drift = 0.5 * step, 2.0 * step
    _horner_into(c, x, f)
    f *= half
    xi -= f
    for k in range(n):
        np.multiply(xi, drift, out=f)
        x += f
        _horner_into(c, x, f)
        f *= step if k < n - 1 else half
        xi -= f
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

    The xi^2 + V families (schrodinger1d, radial2d) use Verlet (symplectic),
    every phase1d symbol classic RK4, split ones such as pseudo-k3 included.
    The step starts at 1e-3 * max(|t|, 1) and is halved, at most six times,
    until the energy drift passes ``FLOW_DRIFT_TOL * (1 + max|E|)``;
    persistent failure raises ``NumericalError``.  Inputs broadcast to
    arrays of phase points.

    Before every attempt but the last, the ``FLOW_PROBE`` points of largest
    |p| are flowed alone, and a step whose drift already fails on them is
    skipped.  The full drift is a maximum over a superset, and elementwise
    arithmetic gives each point the same bits in any array, so the accepted
    step and the result are those of flowing every point at every step.
    Halving the step divides the drift by about 4 (Verlet) or 16 (RK4), so
    once a probe's drift is within 4 times the tolerance the next step goes
    to every point unprobed: its probe would almost surely pass and save
    nothing.  The last attempt always flows every point, so the error
    reports the full drift.
    """
    x0, xi0 = np.broadcast_arrays(np.atleast_1d(np.asarray(x0, dtype=float)),
                                  np.atleast_1d(np.asarray(xi0, dtype=float)))
    e0 = np.asarray(model.eval(x0, xi0), dtype=float)
    scale = 1.0 + float(np.max(np.abs(e0)))
    tol = FLOW_DRIFT_TOL * scale

    if model.family in ("schrodinger1d", "radial2d"):
        V_prime = model.potential.derivative()
        integrate = lambda x, xi, s, d: _verlet(V_prime, x, xi, s, d)
    else:
        grad = model.phase_poly.gradient
        integrate = lambda x, xi, s, d: _rk4(grad, x, xi, s, d)

    def drift(x, xi, e):
        return float(np.max(np.abs(np.asarray(model.eval(x, xi), dtype=float) - e)))

    probe = np.argsort(np.abs(e0), axis=None)[-FLOW_PROBE:] if e0.size > FLOW_PROBE else None
    probe_drift = math.inf
    dt0 = 1e-3 * max(abs(t), 1.0)
    for attempt in range(7):
        cur_dt = dt0 * 0.5**attempt
        if probe is not None and attempt < 6 and probe_drift > 4.0 * tol:
            xp, xip = integrate(x0.flat[probe], xi0.flat[probe], t, cur_dt)
            probe_drift = drift(xp, xip, e0.flat[probe])
            if probe_drift > tol:
                continue
        x1, xi1 = integrate(x0, xi0, t, cur_dt)
        full = drift(x1, xi1, e0)
        if full <= tol:
            rev = None
            if check_reversibility:
                xb, xib = integrate(x1, xi1, -t, cur_dt)
                rev = float(np.max(np.hypot(xb - x0, xib - xi0)))
            return FlowResult(x=x1, xi=xi1, energy_drift=full,
                              reversibility_error=rev)
    raise NumericalError(
        f"energy drift {full:.3e} still above {FLOW_DRIFT_TOL:.1e} * {scale:.3g} "
        f"after 6 step halvings")

