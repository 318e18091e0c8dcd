"""Symbol models: polynomial Hamiltonians and their critical-point structure.

A model is one of three families on a 2n-dimensional phase space:

* ``schrodinger1d``  -- p(x, xi) = xi^2 + V(x), n = 1, V a real polynomial;
* ``radial2d``       -- p(x, xi) = |xi|^2 + V(|x|), n = 2, V polynomial in r;
* ``phase1d``        -- p(x, xi) a polynomial in both variables, n = 1.

The module locates critical points of p and classifies them by the first
nonvanishing homogeneous form of the local Taylor expansion.
``isolated_critical_point`` is the one gate of the paper's hypotheses at a
critical level: a single critical point on it, an extremum of V on the
potential families, a principal-type leading form where it is homogeneous,
and no critical circle of a radial profile.  Every call that claims a law
at a critical point takes its point from there.  Confinement is not checked
here: a level set that reaches the search range is refused where turning
points and grids are sought.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError

__all__ = [
    "Polynomial1D",
    "PhasePolynomial",
    "CriticalPoint",
    "SymbolModel",
    "HypothesisError",
    "find_critical_points",
    "isolated_critical_point",
    "catalog",
    "get_model",
]

GRAD_TOL = 1e-12
# Newton stops closer than this on one level are one critical point
MERGE_RADIUS = 1e-2
# x range searched for turning points and allowed intervals of potentials;
# radial searches run over [0, SEARCH_BOX[1]]
SEARCH_BOX = (-12.0, 12.0)
# critical-point search range of V' roots, in x or in r
_POTENTIAL_BOX = {"schrodinger1d": (-4.0, 4.0), "radial2d": (0.0, 4.0)}
# critical-point search range of phase symbols, in x and in xi alike
_PHASE_BOX = (-4.0, 4.0)
# radial roots below this radius are the origin, larger ones critical circles
_R_AXIS = 1e-9

# Taylor coefficients below this fraction of the largest one are treated as
# zero when the order of a critical point is read off.
_ORDER_TOL = 1e-9


def _level_tol(energy: float) -> float:
    """How far a critical value may lie from ``energy`` and still be on its
    level: a relative 1e-9."""
    return 1e-9 * max(1.0, abs(energy))


@dataclass(frozen=True)
class Polynomial1D:
    """Real polynomial with coefficients indexed by degree (c[k] * x^k)."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) == 0:
            object.__setattr__(self, "coefficients", (0.0,))

    @property
    def degree(self) -> int:
        for k in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[k] != 0.0:
                return k
        return 0

    def __call__(self, x):
        # Horner's rule, the operation sequence of numpy's polyval without its
        # per-call coefficient array; the float64 seed keeps the result dtype
        c = self.coefficients
        x = np.asarray(x)
        out = np.float64(c[-1]) + x * 0
        for ck in c[-2::-1]:
            out = ck + out * x
        return out

    def derivative(self) -> "Polynomial1D":
        c = np.polynomial.polynomial.polyder(self.coefficients)
        return Polynomial1D(tuple(c) if len(c) else (0.0,))

    def taylor_at(self, x0: float) -> tuple[float, ...]:
        """Coefficients of p(x0 + u) in powers of u (exact binomial shift)."""
        n = len(self.coefficients)
        out = [0.0] * n
        for m, c in enumerate(self.coefficients):
            if c == 0.0:
                continue
            for j in range(m + 1):
                out[j] += c * math.comb(m, j) * x0 ** (m - j)
        return tuple(out)

    def scale(self) -> float:
        return max(abs(c) for c in self.coefficients) or 1.0


@dataclass(frozen=True)
class PhasePolynomial:
    """Polynomial in (x, xi) stored as a tuple of (deg_x, deg_xi, coeff) terms."""

    terms: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        merged: dict[tuple[int, int], float] = {}
        for dx, dxi, c in self.terms:
            key = (int(dx), int(dxi))
            merged[key] = merged.get(key, 0.0) + float(c)
        cleaned = tuple(
            (dx, dxi, c) for (dx, dxi), c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "terms", cleaned or ((0, 0, 0.0),))

    def __call__(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(np.broadcast(x, xi).shape)
        for dx, dxi, c in self.terms:
            out += c * x**dx * xi**dxi
        if out.shape == ():
            return float(out)
        return out

    def partial(self, var: str) -> "PhasePolynomial":
        terms = []
        for dx, dxi, c in self.terms:
            if var == "x" and dx > 0:
                terms.append((dx - 1, dxi, c * dx))
            elif var == "xi" and dxi > 0:
                terms.append((dx, dxi - 1, c * dxi))
        return PhasePolynomial(tuple(terms) or ((0, 0, 0.0),))

    def gradient(self, x, xi):
        return self.partial("x")(x, xi), self.partial("xi")(x, xi)

    def shifted(self, x0: float, xi0: float) -> "PhasePolynomial":
        """Expansion about (x0, xi0): returns q with q(u, v) = p(x0+u, xi0+v)."""
        acc: dict[tuple[int, int], float] = {}
        for dx, dxi, c in self.terms:
            for j1 in range(dx + 1):
                b1 = math.comb(dx, j1) * x0 ** (dx - j1)
                for j2 in range(dxi + 1):
                    b2 = math.comb(dxi, j2) * xi0 ** (dxi - j2)
                    acc[(j1, j2)] = acc.get((j1, j2), 0.0) + c * b1 * b2
        return PhasePolynomial(tuple((a, b, v) for (a, b), v in acc.items()))

    def homogeneous_part(self, k: int) -> "PhasePolynomial":
        terms = tuple((dx, dxi, c) for dx, dxi, c in self.terms if dx + dxi == k)
        return PhasePolynomial(terms or ((0, 0, 0.0),))

    def total_degree(self) -> int:
        return max(dx + dxi for dx, dxi, c in self.terms)

    def is_split(self) -> bool:
        """True when every term is pure in x or pure in xi."""
        return all(dx == 0 or dxi == 0 for dx, dxi, _ in self.terms)

    def split_parts(self) -> tuple[Polynomial1D, Polynomial1D]:
        if not self.is_split():
            raise ValueError("polynomial has mixed x*xi terms, no split form")
        nx = max(dx for dx, _, _ in self.terms) + 1
        nxi = max(dxi for _, dxi, _ in self.terms) + 1
        fx = [0.0] * nx
        gxi = [0.0] * nxi
        for dx, dxi, c in self.terms:
            if dxi == 0:
                fx[dx] += c
            else:
                gxi[dxi] += c
        return Polynomial1D(tuple(fx)), Polynomial1D(tuple(gxi))

    def scale(self) -> float:
        return max(abs(c) for _, _, c in self.terms) or 1.0


@dataclass(frozen=True)
class CriticalPoint:
    """Isolated zero of the symbol gradient with its local classification.

    ``order`` is the degree of the first nonvanishing homogeneous form of the
    local expansion (even for extrema, any integer >= 2 for homogeneous
    leading parts).  ``leading_form`` holds that form; for Schrodinger and
    radial families it is the 1D form of the potential alone.
    """

    z0: tuple[float, ...]
    kind: str  # "max" | "min" | "saddle" | "non-extremal-homogeneous"
    order: int
    leading_form: Polynomial1D | PhasePolynomial
    critical_energy: float

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min", "saddle", "non-extremal-homogeneous"):
            raise ValueError(f"unknown critical point kind {self.kind!r}")


@dataclass(frozen=True)
class SymbolModel:
    """A named symbol p and its critical points, which are derived, never
    passed: :func:`find_critical_points` locates them when the model is
    built, and a symbol whose points it cannot locate or classify is refused."""

    name: str
    family: str  # "schrodinger1d" | "radial2d" | "phase1d"
    potential: Polynomial1D | None = None
    phase_poly: PhasePolynomial | None = None
    critical_points: tuple[CriticalPoint, ...] = field(init=False)
    # radial profiles: the critical circles r > 0, as points (r, 0) of the profile
    critical_circles: tuple[CriticalPoint, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.family not in ("schrodinger1d", "radial2d", "phase1d"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("schrodinger1d", "radial2d") and self.potential is None:
            raise ValueError(f"{self.family} model requires a potential")
        if self.family == "phase1d" and self.phase_poly is None:
            raise ValueError("phase1d model requires a phase polynomial")
        found = find_critical_points(self)
        object.__setattr__(self, "critical_points",
                           tuple(c for c in found if not _is_circle(self, c)))
        object.__setattr__(self, "critical_circles",
                           tuple(c for c in found if _is_circle(self, c)))

    @property
    def n(self) -> int:
        """Configuration-space dimension: 2 for radial2d models, else 1."""
        return 2 if self.family == "radial2d" else 1

    def eval(self, x, xi):
        """Symbol value p(x, xi); for radial2d, x and xi are radial moduli."""
        if self.family == "phase1d":
            return self.phase_poly(x, xi)
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return xi**2 + self.potential(x)

    def critical_points_at(self, energy: float) -> tuple[CriticalPoint, ...]:
        """The critical points on the level {p = energy}, to :func:`_level_tol`."""
        return _on_level(self.critical_points, energy)


def _is_circle(model: SymbolModel, c: CriticalPoint) -> bool:
    return model.family == "radial2d" and c.z0[0] > 0.0


def _on_level(points: tuple[CriticalPoint, ...], energy: float) -> tuple[CriticalPoint, ...]:
    tol = _level_tol(energy)
    return tuple(c for c in points if abs(c.critical_energy - energy) <= tol)


def _bisect_root(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _poly_roots_in(poly: Polynomial1D, lo: float, hi: float) -> list[float]:
    """Real roots of poly on [lo, hi] via sign-bracketing plus bisection.

    Odd-multiplicity roots are caught by sign changes; grid points that land
    on a root directly are kept as well.  Roots closer than 1e-9 are merged.
    """
    xs = np.linspace(lo, hi, 4097)  # 4096 cells
    vals = poly(xs)
    scale = max(poly.scale(), 1.0)
    neg = vals < 0
    roots = [float(xs[i]) for i in np.flatnonzero(vals == 0.0)]
    roots += [_bisect_root(poly, float(xs[i]), float(xs[i + 1]))
              for i in np.flatnonzero((vals[:-1] != 0.0) & (neg[:-1] != neg[1:]))]
    # Even-multiplicity roots: local minima of |poly| that dip to zero
    # without a sign change.
    mag = np.abs(vals)
    mid = mag[1:-1]
    dips = 1 + np.flatnonzero((mid <= mag[:-2]) & (mid <= mag[2:]) & (mid < 1e-8 * scale))
    d = poly.derivative()
    for i, da, db in zip(dips, d(xs[dips - 1]), d(xs[dips + 1])):
        x_ref = float(xs[i])
        if (da < 0) != (db < 0):
            x_ref = _bisect_root(d, float(xs[i - 1]), float(xs[i + 1]))
        if abs(poly(x_ref)) < 1e-10 * scale:
            roots.append(x_ref)
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-9 * max(1.0, abs(r)):
            merged.append(r)
    return merged


def _order_from_taylor(coeffs: tuple[float, ...]) -> tuple[int, float]:
    """First index >= 1 with a nonnegligible coefficient, and that coefficient."""
    scale = max(abs(c) for c in coeffs) or 1.0
    for k in range(1, len(coeffs)):
        if abs(coeffs[k]) > _ORDER_TOL * scale:
            return k, coeffs[k]
    raise ValueError("polynomial is constant near the expansion point")


def _classify_potential_point(V: Polynomial1D, x0: float) -> CriticalPoint:
    tay = V.taylor_at(x0)
    order, lead = _order_from_taylor(tay)
    form = Polynomial1D((0.0,) * order + (lead,))
    if order % 2 == 1:
        kind = "saddle"
    else:
        kind = "min" if lead > 0 else "max"
    return CriticalPoint(
        z0=(x0, 0.0), kind=kind, order=order, leading_form=form,
        critical_energy=float(tay[0]),
    )


def _circle_min_max(form: PhasePolynomial) -> tuple[float, float]:
    th = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
    v = form(np.cos(th), np.sin(th))
    return float(np.min(v)), float(np.max(v))


def _classify_phase_point(p: PhasePolynomial, x0: float, xi0: float) -> CriticalPoint:
    local = p.shifted(x0, xi0)
    e_c = local(0.0, 0.0)
    scale = local.scale() or 1.0
    order = None
    for k in range(1, local.total_degree() + 1):
        part = local.homogeneous_part(k)
        if max(abs(c) for _, _, c in part.terms) > _ORDER_TOL * scale:
            order = k
            form = part
            break
    if order is None:
        raise ValueError("symbol is constant near the critical point")
    lo, hi = _circle_min_max(form)
    mag = max(abs(lo), abs(hi))
    if lo > 1e-9 * mag:
        kind = "min"
    elif hi < -1e-9 * mag:
        kind = "max"
    else:
        kind = "non-extremal-homogeneous"
    return CriticalPoint(
        z0=(x0, xi0), kind=kind, order=order, leading_form=form,
        critical_energy=float(e_c),
    )


def find_critical_points(model: SymbolModel) -> tuple[CriticalPoint, ...]:
    """Locate and classify all critical points of the symbol in its search range.

    For the Schrodinger and radial families the gradient vanishes exactly
    where V' does (with xi = 0), so the search reduces to root isolation for
    V'.  On a radial profile only r = 0 is an isolated critical point of
    |xi|^2 + V(|x|); a root r > 0 is a critical circle, returned as the point
    (r, 0) of the profile, and :class:`SymbolModel` keeps the circles apart
    in ``critical_circles``.  Phase-space polynomials with split structure
    f(x) + g(xi) factor the same way; genuinely mixed polynomials fall back
    to a lattice search for minima of |grad p|^2 polished by Newton steps.
    """
    if model.family in ("schrodinger1d", "radial2d"):
        lo, hi = _POTENTIAL_BOX[model.family]
        dV = model.potential.derivative()
        pts = []
        for r in _poly_roots_in(dV, lo, hi):
            if model.family == "radial2d" and r < _R_AXIS:
                r = 0.0
            pts.append(_classify_potential_point(model.potential, r))
        scale = max(dV.scale(), 1.0)
        for p in pts:
            if abs(dV(p.z0[0])) > GRAD_TOL * scale:
                raise ValueError(f"root polish failed at {p.z0}")
        return tuple(pts)

    p = model.phase_poly
    lo, hi = _PHASE_BOX
    px, pxi = p.partial("x"), p.partial("xi")
    scale = max(p.scale(), 1.0)
    if p.is_split():
        fx, gxi = p.split_parts()
        rxis = _poly_roots_in(gxi.derivative(), lo, hi)
        points = [(rx, rxi) for rx in _poly_roots_in(fx.derivative(), lo, hi)
                  for rxi in rxis]
    else:
        hxx_p, hxxi_p, hxixi_p = px.partial("x"), px.partial("xi"), pxi.partial("xi")
        xs = np.linspace(lo, hi, 257)
        X, XI = np.meshgrid(xs, xs, indexing="ij")
        G = px(X, XI) ** 2 + pxi(X, XI) ** 2
        scale2 = (p.scale() or 1.0) ** 2
        cand = np.argwhere(G < 1e-4 * scale2)
        stops: list[tuple[float, float, float, float]] = []  # x, xi, |grad p|, p
        for i, j in cand:
            x, xi = float(X[i, j]), float(XI[i, j])
            for _ in range(60):
                gx, gxi_ = px(x, xi), pxi(x, xi)
                # Newton on the gradient map
                hxx, hxxi, hxixi = hxx_p(x, xi), hxxi_p(x, xi), hxixi_p(x, xi)
                det = hxx * hxixi - hxxi * hxxi
                if abs(det) < 1e-14:
                    break
                x -= (hxixi * gx - hxxi * gxi_) / det
                xi -= (-hxxi * gx + hxx * gxi_) / det
            gx, gxi_ = px(x, xi), pxi(x, xi)
            if abs(gx) >= GRAD_TOL or abs(gxi_) >= GRAD_TOL:
                continue
            # Near a degenerate point the gradient is flat, so Newton stops
            # anywhere its norm passes GRAD_TOL: about GRAD_TOL**(1/5) ~ 4e-3
            # from a sixth-order point.  A stop within MERGE_RADIUS of a kept
            # stop on the same level is that point; the stop with the
            # smaller gradient stays.  The radius is below the 1/32 spacing
            # of the default search lattice.
            g, e = math.hypot(gx, gxi_), float(p(x, xi))
            for k, (a, b, g_k, e_k) in enumerate(stops):
                if math.hypot(x - a, xi - b) <= MERGE_RADIUS and abs(e - e_k) <= 1e-12 * scale:
                    if g < g_k:
                        stops[k] = (x, xi, g, e)
                    break
            else:
                stops.append((x, xi, g, e))
        points = [(x, xi) for x, xi, _, _ in stops]
    out = []
    for x, xi in points:
        if abs(px(x, xi)) > GRAD_TOL * scale or abs(pxi(x, xi)) > GRAD_TOL * scale:
            raise ValueError(f"gradient not annihilated at ({x}, {xi})")
        out.append(_classify_phase_point(p, x, xi))
    return tuple(out)


def _principal_type_ok(form: PhasePolynomial) -> tuple[bool, str]:
    """No zero of the leading form on the unit circle may kill its gradient.

    By homogeneity the radial derivative vanishes on the zero set, so the
    condition is equivalent to every circle zero being a simple sign change
    with a nonzero tangential derivative, sought among 8192 angles.
    """
    th = np.linspace(0.0, 2 * np.pi, 8192, endpoint=False)
    v = form(np.cos(th), np.sin(th))
    mag = np.abs(v)
    scale = float(np.max(mag)) or 1.0
    fx, fxi = form.partial("x"), form.partial("xi")

    def val(t):
        return form(math.cos(t), math.sin(t))

    step = th[1]
    neg = v < 0
    after = np.roll(neg, -1)
    zeros = [float(th[i]) if v[i] == 0.0 else _bisect_root(val, float(th[i]), float(th[i]) + step)
             for i in np.flatnonzero((v == 0.0) | (neg != after))]
    # touching zeros: |form| dips near zero with no sign change
    touch = np.flatnonzero((mag < 1e-10 * scale) & (np.roll(neg, 1) == after)
                           & (mag <= np.roll(mag, 1)) & (mag <= np.roll(mag, -1)))
    near = np.abs(th[touch, None] - np.asarray(zeros)) < step * 2
    lone = touch[~near.any(axis=1)]
    if lone.size:
        return False, f"leading form has a degenerate zero near angle {th[lone[0]]:.6f}"
    for z in zeros:
        cx, sx = math.cos(z), math.sin(z)
        gnorm = math.hypot(fx(cx, sx), fxi(cx, sx))
        if gnorm < 1e-6 * scale:
            return False, f"gradient of leading form vanishes at angle {z:.6f}"
    return True, ""


def isolated_critical_point(model: SymbolModel, energy: float) -> CriticalPoint | None:
    """The critical point a law at ``energy`` is claimed at; None on a regular level.

    A level is regular when no critical point lies within :func:`_level_tol`
    of ``energy`` and, for radial profiles, no critical circle does either.
    A critical level must carry exactly one critical point, of admissible
    shape: an even order (an extremum of V) on the potential families, and
    the principal-type condition for a homogeneous leading form.  Otherwise
    :class:`HypothesisError` names each failed hypothesis and the level.
    """
    cps = model.critical_points_at(energy)
    failures: list[tuple[str, str]] = []
    rings = _on_level(model.critical_circles, energy)
    if rings:
        failures.append(("isolated-critical-point", f"critical circle at r={rings[0].z0[0]:.6g}"))
    if not cps and not failures:
        return None
    if len(cps) > 1:
        failures.append(("isolated-critical-point", f"{len(cps)} critical points on the level"))
    for cp in cps:
        if cp.kind == "saddle":
            failures.append(("extremum", f"odd leading order {cp.order} at x={cp.z0[0]:.6g}"))
        elif cp.kind == "non-extremal-homogeneous":
            ok, why = _principal_type_ok(cp.leading_form)
            if not ok:
                failures.append(("principal-type", why))
    if failures:
        what = "; ".join(f"{h}: {d}" for h, d in failures)
        raise HypothesisError(f"model {model.name} at E={energy:.6g}: {what}")
    return cps[0]


def catalog() -> dict[str, SymbolModel]:
    """Built-in models, keyed by name."""
    entries = [
        SymbolModel("harmonic", "schrodinger1d", potential=Polynomial1D((0, 0, 1))),
        SymbolModel("deg-max", "schrodinger1d", potential=Polynomial1D((0, 0, 0, 0, -1, 0, 1))),
        SymbolModel("quad-max", "schrodinger1d", potential=Polynomial1D((0, 0, -1, 0, 1))),
        SymbolModel("quad-max-steep", "schrodinger1d", potential=Polynomial1D((0, 0, -4, 0, 1))),
        SymbolModel("two-max", "schrodinger1d", potential=Polynomial1D((0, 0, 1, 0, -2, 0, 1))),
        SymbolModel("radial-deg", "radial2d", potential=Polynomial1D((0, 0, 0, 0, -1, 0, 1))),
        SymbolModel(
            "pseudo-k3", "phase1d",
            phase_poly=PhasePolynomial(((3, 0, 1.0), (4, 0, 1.0), (0, 3, -1.0), (0, 4, 1.0))),
        ),
        SymbolModel(
            "pseudo-k4", "phase1d",
            phase_poly=PhasePolynomial(((4, 0, 1.0), (6, 0, 1.0), (0, 4, -1.0), (0, 6, 1.0))),
        ),
    ]
    return {m.name: m for m in entries}


_CATALOG: dict[str, SymbolModel] | None = None


def get_model(name: str) -> SymbolModel:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = catalog()
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {', '.join(sorted(_CATALOG))}")

