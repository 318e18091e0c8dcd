import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiclab.classical import allowed_intervals
from semiclab.errors import HypothesisError, NumericalError
from semiclab.experiments import predict_scaling

from semiclab.model import (
    PhasePolynomial,
    Polynomial1D,
    SymbolModel,
    _poly_roots_in,
    catalog,
    find_critical_points,
    get_model,
    isolated_critical_point,
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


# Every critical level of the catalog, plus a regular one: the point the gate
# admits as (kind, order), None, or the hypothesis its message names.
GATE_TABLE = [
    ("harmonic", 1.0, None),
    ("harmonic", 0.0, ("min", 2)),
    ("deg-max", 0.0, ("max", 4)),
    ("deg-max", WELL_DEPTH, "isolated-critical-point"),
    ("quad-max", 0.0, ("max", 2)),
    ("quad-max", -0.25, "isolated-critical-point"),
    ("quad-max-steep", 0.0, ("max", 2)),
    ("quad-max-steep", -4.0, "isolated-critical-point"),
    ("two-max", 4.0 / 27.0, "isolated-critical-point"),  # two tops
    ("two-max", 0.0, "isolated-critical-point"),  # three minima
    ("radial-deg", 0.0, ("max", 4)),
    ("pseudo-k3", 0.0, ("non-extremal-homogeneous", 3)),
    ("pseudo-k3", -27.0 / 128.0, ("min", 2)),
    ("pseudo-k3", -27.0 / 256.0, "principal-type"),
    ("pseudo-k4", 0.0, ("non-extremal-homogeneous", 4)),
    ("pseudo-k4", WELL_DEPTH, "principal-type"),
]


@pytest.mark.parametrize("name, energy, expected", GATE_TABLE,
                         ids=[f"{n}@{e:.4g}" for n, e, _ in GATE_TABLE])
def test_isolated_critical_point_table(name, energy, expected):
    m = get_model(name)
    if isinstance(expected, str):
        with pytest.raises(HypothesisError, match=expected):
            isolated_critical_point(m, energy)
        return
    cp = isolated_critical_point(m, energy)
    if expected is None:
        assert cp is None
    else:
        assert (cp.kind, cp.order) == expected
        assert cp in m.critical_points_at(energy)


def test_table_covers_every_catalog_level():
    levels = {(name, round(c.critical_energy, 9))
              for name, m in catalog().items() for c in m.critical_points}
    assert levels == {(n, round(e, 9)) for n, e, x in GATE_TABLE if x is not None}


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


def test_inverted_well_refused_by_allowed_intervals():
    # V = -(x^2-1)^2 tends to -infinity: the level set is unbounded, and the
    # turning-point search refuses it at its edge
    V = Polynomial1D((-1.0, 0.0, 2.0, 0.0, -1.0))
    with pytest.raises(NumericalError, match="search edge -12"):
        allowed_intervals(V, 0.0)


def test_two_maxima_break_isolation():
    # the message names the failed hypothesis, the model and the level
    with pytest.raises(HypothesisError) as exc:
        isolated_critical_point(get_model("two-max"), 4.0 / 27.0)
    assert str(exc.value) == ("model two-max at E=0.148148: "
                              "isolated-critical-point: 2 critical points on the level")


def test_critical_circle_breaks_isolation():
    # V = r^2 (r^2 - 1)^2: the minimum at r = 0 and the critical circle r = 1
    # share the level 0; the circle r = 1/sqrt(3) alone sits on 4/27
    m = SymbolModel("ring", "radial2d", potential=Polynomial1D((0, 0, 1, 0, -2, 0, 1)))
    assert [c.z0 for c in m.critical_points] == [(0.0, 0.0)]
    with pytest.raises(HypothesisError, match="isolated-critical-point: critical circle at r=1$"):
        isolated_critical_point(m, 0.0)
    with pytest.raises(HypothesisError, match="critical circle at r=0.57735"):
        isolated_critical_point(m, 4.0 / 27.0)
    assert isolated_critical_point(m, 1.0) is None


def test_critical_circles_are_found_once(monkeypatch):
    # the model keeps its circles from the build, so the gate makes no root search
    m = get_model("radial-deg")
    assert [c.z0 for c in m.critical_points] == [(0.0, 0.0)]
    assert [c.z0[0] for c in m.critical_circles] == pytest.approx([SQRT23])
    assert m.critical_circles[0].critical_energy == pytest.approx(WELL_DEPTH, abs=1e-15)

    def no_search(*args):
        raise AssertionError("root search in the gate")

    monkeypatch.setattr("semiclab.model._poly_roots_in", no_search)
    with pytest.raises(HypothesisError, match="critical circle at r=0.816497$"):
        isolated_critical_point(m, WELL_DEPTH)
    assert isolated_critical_point(m, 0.0).z0 == (0.0, 0.0)
    assert isolated_critical_point(m, 0.5) is None
    assert get_model("harmonic").critical_circles == ()


def test_lifted_barrier_top_is_found_at_a_relative_tolerance():
    # quad-max lifted by 1000: at E = 1000 + 1e-7 the barrier top lies within
    # the relative 1e-9 of E that critical_points_at reads, and the gate must
    # admit the same point
    m = SymbolModel("quad-max-lifted", "schrodinger1d",
                    potential=Polynomial1D((1000.0, 0.0, -1.0, 0.0, 1.0)))
    e = 1000.0 + 1e-7
    assert [c.z0 for c in m.critical_points_at(e)] == [(0.0, 0.0)]
    assert isolated_critical_point(m, e).z0 == (0.0, 0.0)
    assert isolated_critical_point(m, 1000.0 + 1e-5) is None


def test_odd_order_point_is_not_an_extremum():
    # V = x^3 + x^4: V' = x^2 (3 + 4x), a third-order point at x = 0 on the level 0
    m = SymbolModel("cubic", "schrodinger1d", potential=Polynomial1D((0, 0, 0, 1, 1)))
    with pytest.raises(HypothesisError) as exc:
        isolated_critical_point(m, 0.0)
    assert str(exc.value) == "model cubic at E=0: extremum: odd leading order 3 at x=0"


# (x^2 - xi^2)^2 + x^6 + xi^6: the degree-4 leading form has degenerate
# circle zeros, and along x = +-xi the gradient is only about 6 x^5
DEGENERATE_QUARTIC = PhasePolynomial(
    ((4, 0, 1.0), (2, 2, -2.0), (0, 4, 1.0), (6, 0, 1.0), (0, 6, 1.0)))


def test_principal_type_violation_detected():
    m = SymbolModel("degenerate", "phase1d", phase_poly=DEGENERATE_QUARTIC)
    with pytest.raises(HypothesisError) as exc:
        isolated_critical_point(m, 0.0)
    what = str(exc.value).split(": ", 1)[1]
    assert what.startswith("principal-type: ") and ";" not in what


def test_degenerate_point_found_once():
    # Newton stops up to ~1.6e-3 from the origin pass the gradient tolerance
    m = SymbolModel(name="degenerate", family="phase1d", phase_poly=DEGENERATE_QUARTIC)
    (p,) = m.critical_points
    assert p.z0 == pytest.approx((0.0, 0.0), abs=1e-12)
    assert p.order == 4 and p.critical_energy == pytest.approx(0.0, abs=1e-15)


def test_mixed_cubic_points_found_once():
    # x^3 - 3 x xi^2 + x^4 + xi^4 + x^2 xi^2: a third-order point at the
    # origin and a minimum at (-3/4, 0); stops within 2e-8 of the origin
    # pass the gradient tolerance
    cubic = PhasePolynomial(((3, 0, 1.0), (1, 2, -3.0), (4, 0, 1.0), (0, 4, 1.0), (2, 2, 1.0)))
    m = SymbolModel(name="monkey", family="phase1d", phase_poly=cubic)
    pts = sorted(m.critical_points, key=lambda p: p.z0)
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
    assert isolated_critical_point(m, 0.0) == p


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


@pytest.mark.parametrize("name", sorted(catalog()))
def test_built_model_derives_catalog_points(name):
    # critical_points is derived when a model is built, so a model built from
    # the same symbol carries the catalog's points
    ref = get_model(name)
    m = SymbolModel(name, ref.family, potential=ref.potential, phase_poly=ref.phase_poly)
    assert m.critical_points == ref.critical_points


def test_hand_built_barrier_top_gives_log_law():
    # x^4 - x^2 built without the catalog: the barrier top at E = 0 is found,
    # and the count law there is h^0 |log h|, not the regular h^0
    qm = SymbolModel("qm", "schrodinger1d", potential=Polynomial1D((0, 0, -1, 0, 1)))
    law = predict_scaling(qm, 0.0)
    assert (law.alpha, law.beta) == (0, 1)


def test_critical_points_cannot_be_passed():
    with pytest.raises(TypeError):
        SymbolModel("qm", "schrodinger1d", potential=Polynomial1D((0, 0, 1)), critical_points=())


def test_unclassifiable_symbol_refused_at_construction():
    # a constant potential has V' = 0 everywhere: no point has an order
    with pytest.raises(ValueError, match="constant"):
        SymbolModel("flat", "schrodinger1d", potential=Polynomial1D((1.0,)))
