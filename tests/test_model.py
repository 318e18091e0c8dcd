import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiclab.model import (
    PhasePolynomial,
    Polynomial1D,
    SymbolModel,
    _make_model,
    _poly_roots_in,
    catalog,
    check_hypotheses,
    find_critical_points,
    get_model,
)

# Closed-form anchors used throughout: V = -x^4 + x^6 has critical points at
# x = 0 (fourth-order maximum, V = 0) and x = +-sqrt(2/3) (minima at -4/27).
SQRT23 = math.sqrt(2.0 / 3.0)
WELL_DEPTH = -4.0 / 27.0


def test_polynomial_eval_and_derivative():
    p = Polynomial1D((1.0, -2.0, 0.0, 3.0))  # 1 - 2x + 3x^3
    assert p(0.0) == 1.0
    assert p(2.0) == 1.0 - 4.0 + 24.0
    d = p.derivative()
    assert d.coefficients == (-2.0, 0.0, 9.0)
    assert p.degree == 3


@pytest.mark.parametrize("x", [0.3, 2, np.float32(1.5), np.linspace(-3.0, 3.0, 64),
                               np.array([np.inf, -np.inf, np.nan, 1e200, 0.0]),
                               np.arange(-5, 5), np.linspace(-1.0, 1.0, 12).reshape(3, 4)],
                         ids=["float", "int", "float32", "grid", "nonfinite", "int-array", "2d"])
def test_polynomial_eval_is_numpy_polyval(x):
    p = Polynomial1D((0.5, -2.0, 0.0, 3.0, 1e300))
    with np.errstate(all="ignore"):
        got, want = p(x), np.polynomial.polynomial.polyval(x, p.coefficients)
    assert type(got) is type(want) and np.asarray(got).dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=7),
    x0=st.floats(-2, 2),
    u=st.floats(-1, 1),
)
def test_taylor_shift_reproduces_values(coeffs, x0, u):
    p = Polynomial1D(tuple(coeffs))
    tay = p.taylor_at(x0)
    direct = p(x0 + u)
    shifted = sum(c * u**k for k, c in enumerate(tay))
    scale = max(1.0, max(abs(c) for c in coeffs)) * max(1.0, abs(x0) + abs(u)) ** 7
    assert abs(direct - shifted) < 1e-9 * scale


def test_phase_polynomial_eval_and_split():
    p = PhasePolynomial(((3, 0, 1.0), (4, 0, 1.0), (0, 3, -1.0), (0, 4, 1.0)))
    assert p(1.0, 1.0) == pytest.approx(2.0)
    assert p(0.0, 0.0) == 0.0
    assert p.is_split()
    fx, g = p.split_parts()
    assert fx(2.0) == pytest.approx(8.0 + 16.0)
    assert g(2.0) == pytest.approx(-8.0 + 16.0)
    mixed = PhasePolynomial(((1, 1, 1.0),))
    assert not mixed.is_split()


def test_phase_polynomial_shift_exact():
    p = PhasePolynomial(((2, 1, 1.5), (0, 3, -2.0)))
    q = p.shifted(0.7, -0.4)
    for x, xi in [(0.0, 0.0), (0.3, 0.9), (-1.1, 0.2)]:
        assert q(x, xi) == pytest.approx(p(0.7 + x, -0.4 + xi), abs=1e-12)


def test_eval_symbol_schrodinger():
    m = get_model("deg-max")
    assert m.eval(1.0, 0.0) == pytest.approx(0.0)
    assert m.eval(0.0, 0.5) == pytest.approx(0.25)
    vals = m.eval(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert vals == pytest.approx([0.0, 1.0])


def test_deg_max_critical_points():
    pts = find_critical_points(get_model("deg-max"))
    by_x = {round(p.z0[0], 9): p for p in pts}
    assert set(by_x) == {0.0, round(SQRT23, 9), round(-SQRT23, 9)}
    top = by_x[0.0]
    assert top.kind == "max"
    assert top.order == 4
    assert top.critical_energy == pytest.approx(0.0, abs=1e-12)
    for s in (1, -1):
        well = by_x[round(s * SQRT23, 9)]
        assert well.kind == "min"
        assert well.order == 2
        assert well.critical_energy == pytest.approx(WELL_DEPTH, abs=1e-12)


def test_gradient_annihilated_at_critical_points():
    for name in ("harmonic", "deg-max", "quad-max", "two-max", "pseudo-k3", "pseudo-k4"):
        m = get_model(name)
        for p in m.critical_points:
            if m.family == "phase1d":
                gx, gxi = m.phase_poly.gradient(*p.z0)
                assert math.hypot(gx, gxi) <= 1e-12
            else:
                assert abs(m.potential.derivative()(p.z0[0])) <= 1e-12


def test_two_max_shares_energy():
    m = get_model("two-max")
    tops = [p for p in m.critical_points if p.kind == "max"]
    assert len(tops) == 2
    for p in tops:
        assert p.critical_energy == pytest.approx(4.0 / 27.0, abs=1e-12)
        assert p.order == 2


def test_pseudo_k3_window_point():
    m = get_model("pseudo-k3")
    (p,) = m.critical_points_at(0.0)
    assert p.z0 == pytest.approx((0.0, 0.0), abs=1e-12)
    assert p.order == 3
    assert p.kind == "non-extremal-homogeneous"
    # leading form is x^3 - xi^3
    assert p.leading_form(2.0, 1.0) == pytest.approx(7.0)


def test_pseudo_k4_window_point():
    (p,) = get_model("pseudo-k4").critical_points_at(0.0)
    assert p.order == 4
    assert p.kind == "non-extremal-homogeneous"
    assert p.leading_form(1.0, 1.0) == pytest.approx(0.0)


def test_hypotheses_pass_for_deg_max():
    m = get_model("deg-max")
    rep = check_hypotheses(m, e_center=0.0, epsilon0=1.0, box=(-2.0, 2.0))
    assert rep.passed, rep.failures


def test_hypotheses_pass_for_pseudo_models():
    for name in ("pseudo-k3", "pseudo-k4"):
        m = get_model(name)
        rep = check_hypotheses(m, e_center=0.0, epsilon0=1.0, box=(-3.0, 3.0, -3.0, 3.0))
        assert rep.passed, (name, rep.failures)


class TestPolyRootsIn:
    def test_sign_change(self):
        (r,) = _poly_roots_in(Polynomial1D((-0.3, 1.0)), -1.0, 1.0)
        assert r == pytest.approx(0.3, abs=1e-14)

    def test_root_on_a_sample(self):
        # x = 0 is sample 2048 of [-1, 1]; the bracket that ends there finds it too
        (r,) = _poly_roots_in(Polynomial1D((0.0, 1.0)), -1.0, 1.0)
        assert abs(r) <= 1e-15

    def test_double_root_without_sign_change(self):
        # on [0, 1] a sample sits 4.9e-5 from 0.3, close enough for |p| < 1e-8
        (r,) = _poly_roots_in(Polynomial1D((0.09, -0.6, 1.0)), 0.0, 1.0)
        assert r == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("c1, end", [(-2.0, 1.0), (2.0, -1.0)])
    def test_double_root_at_an_end(self, c1, end):
        # (x -+ 1)^2 neither changes sign nor dips inside [-1, 1]
        assert _poly_roots_in(Polynomial1D((1.0, c1, 1.0)), -1.0, 1.0) == [end]

    def test_close_roots_merge(self):
        # x^2 - 4e-20: roots +-2e-10 straddle the sample x = 0
        (r,) = _poly_roots_in(Polynomial1D((-4e-20, 0.0, 1.0)), -1.0, 1.0)
        assert r == pytest.approx(-2e-10, rel=1e-4)

    def test_no_root(self):
        assert _poly_roots_in(Polynomial1D((1.0, 0.0, 1.0)), -1.0, 1.0) == []
        assert _poly_roots_in(Polynomial1D((-5.0, 1.0)), -1.0, 1.0) == []


def test_unknown_family_refused_at_construction():
    # the classical routines dispatch on three families and have no fallback
    with pytest.raises(ValueError, match="unknown family"):
        SymbolModel(name="cubic3d", family="radial3d", potential=Polynomial1D((0.0, 1.0)))


def test_confinement_fails_for_unbounded_well():
    # V = -(x^2-1)^2 tends to -infinity, so the boundary check must trip.
    V = Polynomial1D((-1.0, 0.0, 2.0, 0.0, -1.0))
    m = SymbolModel(name="inverted", family="schrodinger1d", potential=V)
    m = replace(m, critical_points=find_critical_points(m, (-2.5, 2.5)))
    rep = check_hypotheses(m, e_center=0.0, epsilon0=1.0, box=(-2.5, 2.5))
    assert not rep.passed
    assert any(h == "confinement" for h, _ in rep.failures)


def test_two_maxima_break_isolation():
    m = get_model("two-max")
    rep = check_hypotheses(m, e_center=4.0 / 27.0, epsilon0=1.0, box=(-2.0, 2.0))
    assert not rep.passed
    assert any(h == "isolated-critical-point" for h, _ in rep.failures)


def test_critical_circle_breaks_isolation():
    # V = r^4 - 2 r^2 has its critical circle r = 1 on the level -1
    m = SymbolModel(name="ring", family="radial2d", potential=Polynomial1D((0, 0, -2, 0, 1)))
    rep = check_hypotheses(m, e_center=-1.0, epsilon0=1.0, box=(0.0, 2.0))
    assert ("isolated-critical-point", "critical circle at r=1 on the energy surface") in rep.failures


def test_lifted_barrier_top_is_found_at_a_relative_tolerance():
    # quad-max lifted by 1000: at E = 1000 + 1e-7 the barrier top lies within
    # the relative 1e-9 of E that critical_points_at reads, and the
    # hypothesis check must see the same point
    m = _make_model("quad-max-lifted", "schrodinger1d",
                    potential=Polynomial1D((1000.0, 0.0, -1.0, 0.0, 1.0)))
    e = 1000.0 + 1e-7
    assert [c.z0 for c in m.critical_points_at(e)] == [(0.0, 0.0)]
    rep = check_hypotheses(m, e_center=e, epsilon0=1.0)
    assert rep.passed, rep.failures


def test_odd_order_point_is_not_an_extremum():
    # V = x^3 + x^4: V' = x^2 (3 + 4x), a third-order point at x = 0 on the level 0
    m = SymbolModel(name="cubic", family="schrodinger1d", potential=Polynomial1D((0, 0, 0, 1, 1)))
    rep = check_hypotheses(m, e_center=0.0, epsilon0=1.0, box=(-2.0, 2.0))
    assert rep.failures == (("extremum", "odd leading order 3 at x=0"),)


# (x^2 - xi^2)^2 + x^6 + xi^6: the degree-4 leading form has degenerate
# circle zeros, and along x = +-xi the gradient is only about 6 x^5
DEGENERATE_QUARTIC = PhasePolynomial(
    ((4, 0, 1.0), (2, 2, -2.0), (0, 4, 1.0), (6, 0, 1.0), (0, 6, 1.0)))


def test_principal_type_violation_detected():
    m = SymbolModel(name="degenerate", family="phase1d", phase_poly=DEGENERATE_QUARTIC)
    m = replace(m, critical_points=find_critical_points(m, (-2.0, 2.0, -2.0, 2.0)))
    rep = check_hypotheses(m, e_center=0.0, epsilon0=0.5, box=(-2.0, 2.0, -2.0, 2.0))
    assert [h for h, _ in rep.failures] == ["principal-type"]


def test_degenerate_point_found_once():
    # Newton stops up to ~1.6e-3 from the origin pass the gradient tolerance
    m = SymbolModel(name="degenerate", family="phase1d", phase_poly=DEGENERATE_QUARTIC)
    (p,) = find_critical_points(m)
    assert p.z0 == pytest.approx((0.0, 0.0), abs=1e-12)
    assert p.order == 4 and p.critical_energy == pytest.approx(0.0, abs=1e-15)


def test_mixed_cubic_points_found_once():
    # x^3 - 3 x xi^2 + x^4 + xi^4 + x^2 xi^2: a third-order point at the
    # origin and a minimum at (-3/4, 0); stops within 2e-8 of the origin
    # pass the gradient tolerance
    cubic = PhasePolynomial(((3, 0, 1.0), (1, 2, -3.0), (4, 0, 1.0), (0, 4, 1.0), (2, 2, 1.0)))
    m = SymbolModel(name="monkey", family="phase1d", phase_poly=cubic)
    pts = sorted(find_critical_points(m), key=lambda p: p.z0)
    assert [(p.kind, p.order) for p in pts] == [("min", 2), ("non-extremal-homogeneous", 3)]
    assert pts[0].z0 == pytest.approx((-0.75, 0.0), abs=1e-12)
    assert pts[1].z0 == pytest.approx((0.0, 0.0), abs=1e-12)


def test_radial_model_critical_point():
    m = get_model("radial-deg")
    assert m.n == 2
    assert len(m.critical_points) == 1
    p = m.critical_points[0]
    assert p.z0[0] == 0.0
    assert p.kind == "max"
    assert p.order == 4
    rep = check_hypotheses(m, e_center=0.0, epsilon0=1.0, box=(0.0, 2.0))
    assert rep.passed, rep.failures


def test_catalog_names_stable():
    names = set(catalog())
    assert {
        "harmonic", "deg-max", "quad-max", "quad-max-steep",
        "two-max", "radial-deg", "pseudo-k3", "pseudo-k4",
    } <= names


def test_models_are_immutable():
    m = get_model("harmonic")
    with pytest.raises(Exception):
        m.name = "other"
    with pytest.raises(Exception):
        m.potential.coefficients = (1.0,)
