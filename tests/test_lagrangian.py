"""Lagrangian mapping, variation, and Euler-Lagrange residual tests."""

import dataclasses
import re

import numpy as np
import pytest

from multiform import fields as f
from multiform import lagrangian
from multiform import sta
from multiform.fields import (
    BladeExp,
    Const,
    GradeError,
    Rev,
    ScalarMap,
    coordinate,
    del_expr_kind,
    position,
    prod,
    scale,
)
from multiform.gauge import GaugeBackground, identity_background, rotor_gauge, spinor_grad_expr
from multiform.lagrangian import (
    DerivMode,
    I_SIGMA3,
    LagrangianSpec,
    decomposition_check,
    ele_residual_flat,
    ele_residual_gauge,
    ele_residual_spinor,
    ele_residual_two_paths,
    make_builtin,
    residual_norms,
    variation,
)
from multiform.sampling import (
    random_even_field,
    random_field,
    random_omega,
    random_points,
    random_rotor,
)
from multiform.gauge import ExtensorField
from multiform.sta import GAMMA, Multivector, ONE


def plane_wave():
    """A = g2 cos(k.x) with null k = g0 + g1, orthogonal to the polarization."""
    k = Multivector.vector([1.0, 1.0, 0.0, 0.0])
    return prod(Const(GAMMA[2]), ScalarMap(coordinate(k), "cos"), "gp")


def free_spinor(m, c, hbar):
    return BladeExp(GAMMA[1] ^ GAMMA[2], scale(m * c / hbar, coordinate(GAMMA[0])))


# (family, product kind of the aggregate, dual kind) of every mode
DERIV_MODES = {
    DerivMode.FLAT_DIV: ("flat", "lc", "op"),
    DerivMode.FLAT_CURL: ("flat", "op", "lc"),
    DerivMode.FLAT_GRAD: ("flat", "gp", "gp"),
    DerivMode.GAUGE_DIV: ("gauge", "lc", "op"),
    DerivMode.GAUGE_CURL: ("gauge", "op", "lc"),
    DerivMode.GAUGE_GRAD: ("gauge", "gp", "gp"),
    DerivMode.SPINOR: ("spinor", "gp", "gp"),
}


@pytest.mark.parametrize("mode", list(DerivMode), ids=lambda m: m.name)
def test_deriv_mode_family_star_dual(mode):
    assert (mode.family, mode.star, mode.dual) == DERIV_MODES[mode]


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        make_builtin("maxwell_flat", params={"mu0": 0.0})
    with pytest.raises(ValueError):
        make_builtin("dirac_flat", params={"m": -1.0})
    with pytest.raises(ValueError):
        make_builtin("yang_mills")


@pytest.mark.parametrize("name", ["maxwell_flat", "dirac_flat"])
@pytest.mark.parametrize("param", ["mu0", "hbar", "c", "m", "e"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "1"])
def test_builtin_refuses_non_finite_parameters(name, param, value):
    # NaN fails every comparison, so a test of p <= 0 alone lets it through;
    # a bool or a string is no real number, though True compares as 1
    with pytest.raises(ValueError, match="finite"):
        make_builtin(name, params={param: value})


@pytest.mark.parametrize(
    "name, kwargs, error, match",
    [
        ("dirac_flat", {"params": {"mass": 5.0}}, ValueError, "mass"),
        ("maxwell_flat", {"params": {"mu0": 1.0, "Mu0": 2.0}}, ValueError, "Mu0"),
        ("maxwell_flat", {"sources": {"j": Const(GAMMA[0])}}, ValueError, "'j'"),
        ("dirac_flat", {"sources": {"A": Const(GAMMA[0])}}, ValueError, "'A'"),
        ("maxwell_flat", {"sources": {"J": 3}}, GradeError, "J"),
        ("maxwell_flat", {"sources": {"J": Const(GAMMA[0] + ONE)}}, GradeError, "J"),
        ("dirac_flat", {"sources": {"A_ext": Const(GAMMA[0] ^ GAMMA[1])}}, GradeError, "A_ext"),
        ("maxwell_gauge", {"sources": {"J": prod(position(), position(), "gp")}}, GradeError, "J"),
    ],
    ids=[
        "unknown-param", "misspelt-param", "unknown-source", "A-for-A_ext",
        "scalar-current", "mixed-current", "bivector-potential", "gauge-scalar-current",
    ],
)
def test_builtin_refuses_input_it_would_ignore(name, kwargs, error, match):
    """An unknown key used to build the defaults (m = 1 for "mass", no source
    for "j"), and a scalar J added nothing: A.J keeps only J's 1-form part."""
    with pytest.raises(error, match=match):
        make_builtin(name, **kwargs)


def test_maxwell_density_values():
    L = make_builtin("maxwell_flat")
    zero = np.zeros((1, 16))
    assert L.density(zero, zero, np.zeros((1, 4)))[0] == 0.0
    # the null plane wave has identically zero density: (k^g2).(k^g2) = 0
    A = plane_wave()
    rng = np.random.default_rng(0)
    k = Multivector.vector([1.0, 1.0, 0.0, 0.0])
    blade = k ^ GAMMA[2]
    assert blade.sp(blade) == pytest.approx(
        k.sp(k) * GAMMA[2].sp(GAMMA[2]) - k.sp(GAMMA[2]) ** 2, abs=1e-14
    )
    for _ in range(5):
        pt = rng.uniform(-1, 1, (1, 4))
        dens = L.density(A.sample(pt), del_expr_kind(A, "op").sample(pt), pt)[0]
        assert abs(dens) <= 1e-14


def test_dirac_density_of_unit_spinor():
    params = {"m": 1.3, "hbar": 0.7, "c": 1.1, "e": 0.8}
    L = make_builtin("dirac_flat", params=params)
    x = np.array([[0.2, -0.4, 0.1, 0.9]])
    dens = L.density(ONE.comps.reshape(1, 16), np.zeros((1, 16)), x)[0]
    assert dens == pytest.approx(-params["m"] * params["c"], abs=1e-14)


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------


def test_variation_zero_direction():
    L = make_builtin("maxwell_flat")
    rng = np.random.default_rng(1)
    X = random_field(rng, {1})
    assert variation(L, X, f.ZERO, rng.uniform(-1, 1, 4)) == 0.0


def test_variation_of_quadratic_density():
    """l = X.X has no derivative dependence: the variation is 2 X.A."""
    L = LagrangianSpec(
        name="square",
        mode=DerivMode.FLAT_CURL,
        density=lambda Xc, dc, xs: sta.sp(Xc, Xc),
        field_grades=frozenset({1}),
        poly_degree=2,
    )
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = random_field(rng, {1})
        A = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        got = variation(L, X, A, x)
        want = 2.0 * X.at(x).sp(A.at(x))
        assert got == pytest.approx(want, abs=1e-12)


def test_variation_matches_lambda_fd():
    L = make_builtin("maxwell_flat")
    rng = np.random.default_rng(3)
    X = random_field(rng, {1})
    A = prod(Const(GAMMA[2]), ScalarMap(coordinate(GAMMA[0]), "cos"), "gp")
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        got = variation(L, X, A, x)
        h = 1e-5

        def action_density(lam):
            Xl = f.add(X, scale(lam, A))
            p = x.reshape(1, 4)
            return L.density(Xl.sample(p), del_expr_kind(Xl, "op").sample(p), p)[0]

        fd = (action_density(h) - action_density(-h)) / (2 * h)
        assert abs(got - fd) <= 1e-8


def test_variation_grade_contract():
    L = make_builtin("maxwell_flat")
    rng = np.random.default_rng(4)
    X = random_field(rng, {1})
    bad = random_field(rng, {2})
    with pytest.raises(GradeError):
        variation(L, X, bad, np.zeros(4))


# ---------------------------------------------------------------------------
# flat residuals
# ---------------------------------------------------------------------------


def test_maxwell_plane_wave_is_a_solution():
    L = make_builtin("maxwell_flat")
    A = plane_wave()
    rng = np.random.default_rng(5)
    worst = max(
        ele_residual_flat(L, A, rng.uniform(-1, 1, 4)).norm() for _ in range(10)
    )
    assert worst <= 1e-9


def test_maxwell_quadratic_potential_residual():
    """A = g2 (x.g0)^2 is not a solution; the residual is div(curl A)/mu0."""
    mu0 = 2.0
    L = make_builtin("maxwell_flat", params={"mu0": mu0})
    A = prod(Const(GAMMA[2]), f.PolyMap(coordinate(GAMMA[0]), [0, 0, 1.0]), "gp")
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        res = ele_residual_flat(L, A, x)
        F_expr = del_expr_kind(A, "op")
        indep = del_expr_kind(F_expr, "lc").at(x) * (1.0 / mu0)
        assert (res - indep).norm() <= 1e-12
        assert res.norm() > 0.1  # genuinely nonzero


def test_dirac_candidate_by_substitution_then_residual():
    params = {"m": 1.3, "hbar": 0.7, "c": 1.1, "e": 0.8}
    L = make_builtin("dirac_flat", params=params)
    psi = free_spinor(params["m"], params["c"], params["hbar"])
    mc = params["m"] * params["c"]
    rng = np.random.default_rng(7)
    pts = random_points(rng, 10)
    # first: the candidate satisfies the first-order equation pointwise
    for i in range(10):
        eq = (del_expr_kind(psi, "gp").at(pts[i]) * I_SIGMA3) * params["hbar"] - (
            psi.at(pts[i]) * GAMMA[0]
        ) * mc
        assert eq.norm() <= 1e-12
    # then: the Euler-Lagrange residual of the density vanishes on it
    worst = max(ele_residual_flat(L, psi, pts[i]).norm() for i in range(10))
    assert worst <= 1e-8


def test_residual_two_code_paths_agree():
    rng = np.random.default_rng(8)
    L = make_builtin(
        "maxwell_flat", sources={"J": Const(Multivector.vector([0.2, 0.1, 0, -0.3]))}
    )
    for _ in range(5):
        A = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        r1, r2 = ele_residual_two_paths(L, A, x)
        assert (r1 - r2).norm() <= 1e-7 * max(1.0, r1.norm())


def test_residual_mode_mismatch_and_grades():
    L = make_builtin("maxwell_flat")
    A = plane_wave()
    with pytest.raises(ValueError, match="has mode FLAT_CURL, not gauge"):
        ele_residual_gauge(L, A, np.zeros(4), identity_background())
    rng = np.random.default_rng(9)
    for _ in range(3):
        A = random_field(rng, {1})
        res = ele_residual_flat(L, A, rng.uniform(-1, 1, 4))
        assert res.grade_set(0.0) <= {1}
    Ld = make_builtin("dirac_flat")
    psi = random_even_field(rng)
    res = ele_residual_flat(Ld, psi, np.zeros(4))
    assert res.grade_set(0.0) <= {0, 2, 4}


def test_scaling_covariance():
    L = make_builtin("maxwell_flat")
    c = 3.7
    Ls = dataclasses.replace(
        L,
        name="scaled",
        density=lambda Xv, dv, xc: c * L.density(Xv, dv, xc),
        grad_x=lambda Xe, de: scale(c, L.grad_x(Xe, de)),
        grad_d=lambda Xe, de: scale(c, L.grad_d(Xe, de)),
    )
    rng = np.random.default_rng(10)
    A = random_field(rng, {1})
    V = random_field(rng, {1})
    x = rng.uniform(-1, 1, 4)
    assert (
        ele_residual_flat(Ls, A, x) - c * ele_residual_flat(L, A, x)
    ).norm() <= 1e-12
    assert variation(Ls, A, V, x) == pytest.approx(
        c * variation(L, A, V, x), abs=1e-12
    )


# ---------------------------------------------------------------------------
# gauge and spinor residuals
# ---------------------------------------------------------------------------


def test_gauge_residual_reduces_to_flat_on_identity_background():
    Lg = make_builtin("maxwell_gauge")
    Lf = make_builtin("maxwell_flat")
    idbg = identity_background()
    rng = np.random.default_rng(11)
    for _ in range(3):
        A = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        assert (
            ele_residual_gauge(Lg, A, x, idbg) - ele_residual_flat(Lf, A, x)
        ).norm() <= 1e-10


def test_gauge_maxwell_transported_solution():
    rng = np.random.default_rng(12)
    bg = rotor_gauge(random_rotor(rng))
    L = make_builtin("maxwell_gauge")
    A_g = bg.h.apply_expr(plane_wave(), "direct")
    pts = random_points(rng, 5)
    # the omega and the pushforward construction on the same h
    for label, background in (("omega", bg), ("pushforward", GaugeBackground(bg.h))):
        worst = max(
            ele_residual_gauge(L, A_g, pts[i], background).norm()
            for i in range(5)
        )
        assert worst <= 1e-6, label


def test_gauge_maxwell_two_paths():
    rng = np.random.default_rng(13)
    bg = rotor_gauge(random_rotor(rng))
    L = make_builtin("maxwell_gauge")
    for _ in range(3):
        A = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        r1, r2 = ele_residual_two_paths(L, A, x, bg)
        assert (r1 - r2).norm() <= 1e-8 * max(1.0, r1.norm())


def test_spinor_residual_constant_field_constant_connection():
    """m = 0, A_ext = 0, constant psi and Omega: closed form from the
    (1/2) Omega terms, cross-checked against the independent path."""
    params = {"m": 0.0, "hbar": 1.0, "c": 1.0, "e": 1.0}
    L = make_builtin("dirac_gauge", params=params)
    rng = np.random.default_rng(14)
    om = random_omega(rng)
    bg = GaugeBackground(ExtensorField.identity(), om)
    psi0 = Multivector(rng.uniform(-1, 1, 16)).restrict({0, 2, 4})
    psi = Const(psi0)
    x = rng.uniform(-1, 1, 4)
    got, ref = ele_residual_two_paths(L, psi, x, bg)
    assert (got - ref).norm() <= 1e-8 * max(1.0, got.norm())


def test_gauge_dirac_transported_solution():
    params = {"m": 1.3, "hbar": 0.7, "c": 1.1, "e": 0.8}
    L = make_builtin("dirac_gauge", params=params)
    rng = np.random.default_rng(15)
    R = random_rotor(rng)
    bg = rotor_gauge(R)
    psi_g = prod(R, free_spinor(params["m"], params["c"], params["hbar"]), "gp")
    pts = random_points(rng, 6)
    worst = max(ele_residual_spinor(L, psi_g, pts[i], bg).norm() for i in range(6))
    assert worst <= 1e-6
    # it satisfies the first-order covariant equation as well
    mc = params["m"] * params["c"]
    for i in range(3):
        eq = (spinor_grad_expr(psi_g, bg).at(pts[i]) * I_SIGMA3) * params["hbar"] - (
            psi_g.at(pts[i]) * GAMMA[0]
        ) * mc
        assert eq.norm() <= 1e-9


def test_spinor_residual_rejects_odd_fields():
    L = make_builtin("dirac_gauge")
    bg = identity_background()
    with pytest.raises(GradeError):
        ele_residual_spinor(L, position(), np.zeros(4), bg)


def _family_operations(L, X, A, pts, bg):
    """Every Euler-Lagrange operation of L's family, as calls on X (and A)."""
    bg = None if L.mode.family == "flat" else bg
    typed = {
        "flat": lambda: ele_residual_flat(L, X, pts),
        "gauge": lambda: ele_residual_gauge(L, X, pts, bg),
        "spinor": lambda: ele_residual_spinor(L, X, pts, bg),
    }[L.mode.family]
    return (
        typed,
        lambda: ele_residual_two_paths(L, X, pts, bg),
        lambda: variation(L, X, A, pts, bg),
        lambda: decomposition_check(L, X, A, pts, bg),
    )


def _refuse_aggregates(monkeypatch):
    def refuse(*args):
        raise AssertionError("an aggregate was built")

    monkeypatch.setattr(lagrangian, "_aggregate", refuse)


@pytest.mark.parametrize("name", ["maxwell_flat", "maxwell_gauge", "dirac_flat", "dirac_gauge"])
def test_off_grade_fields_are_refused_before_building_a_tree(name, monkeypatch):
    """Every operation of every built-in raises GradeError for a field
    outside L.field_grades before any aggregate is built."""
    rng = np.random.default_rng(33)
    bg = rotor_gauge(random_rotor(rng))
    L = make_builtin(name)
    off = {2} if name.startswith("maxwell") else {1, 3}
    X, A = random_field(rng, off), random_field(rng, L.field_grades)
    pts = random_points(rng, 2)
    _refuse_aggregates(monkeypatch)
    for call in _family_operations(L, X, A, pts, bg):
        with pytest.raises(GradeError, match=re.escape(f"grades {sorted(L.field_grades)}")):
            call()


def test_a_field_of_wide_bound_and_the_right_grades_is_accepted(monkeypatch):
    """R a R~ has the grade bound {1, 3} but is a 1-form to rounding: the
    probe sample lets it through to the aggregates under maxwell_flat."""
    rng = np.random.default_rng(34)
    R = random_rotor(rng)
    X = prod(prod(R, random_field(rng, {1}), "gp"), Rev(R), "gp")
    assert X.grades == {1, 3}
    L = make_builtin("maxwell_flat")
    A = random_field(rng, {1})
    _refuse_aggregates(monkeypatch)
    for call in _family_operations(L, X, A, random_points(rng, 2), None):
        with pytest.raises(AssertionError, match="an aggregate was built"):
            call()


# ---------------------------------------------------------------------------
# decomposition checks
# ---------------------------------------------------------------------------


def test_decomposition_zero_direction():
    L = make_builtin("maxwell_flat")
    rng = np.random.default_rng(16)
    A = random_field(rng, {1})
    assert decomposition_check(L, A, f.ZERO, rng.uniform(-1, 1, 4))[1] <= 1e-15


@pytest.mark.parametrize("name", ["maxwell_flat", "dirac_flat"])
def test_flat_decompositions(name):
    rng = np.random.default_rng(17)
    L = make_builtin(name)
    grades = {1} if name.startswith("maxwell") else {0, 2, 4}
    worst = 0.0
    for _ in range(6):
        X = random_field(rng, grades)
        A = random_field(rng, grades)
        for _ in range(3):
            x = rng.uniform(-1, 1, 4)
            worst = max(worst, decomposition_check(L, X, A, x)[1])
    assert worst <= 1e-7


@pytest.mark.parametrize("name", ["maxwell_gauge", "dirac_gauge"])
def test_gauge_decompositions(name):
    rng = np.random.default_rng(18)
    bg = rotor_gauge(random_rotor(rng))
    L = make_builtin(name)
    grades = {1} if name.startswith("maxwell") else {0, 2, 4}
    worst = 0.0
    for _ in range(4):
        X = random_field(rng, grades)
        A = random_field(rng, grades)
        for _ in range(2):
            x = rng.uniform(-1, 1, 4)
            worst = max(worst, decomposition_check(L, X, A, x, bg)[1])
    assert worst <= 1e-7


def _div_mode_spec(mode):
    """l(X, d) = d.d + X.X with d the (covariant) divergence of a 1-form X."""
    return LagrangianSpec(
        name="div-quadratic",
        mode=mode,
        density=lambda Xc, dc, xs: sta.sp(dc, dc) + sta.sp(Xc, Xc),
        field_grades=frozenset({1}),
        poly_degree=2,
        grad_x=lambda Xe, de: scale(2.0, Xe),
        grad_d=lambda Xe, de: scale(2.0, de),
    )


def test_divergence_mode_flat_residual():
    """Case with the contraction aggregate: residual = 2X - curl(2 div X)."""
    L = _div_mode_spec(DerivMode.FLAT_DIV)
    rng = np.random.default_rng(20)
    for _ in range(4):
        X = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        res = ele_residual_flat(L, X, x)
        want = (
            2.0 * X.at(x)
            - del_expr_kind(scale(2.0, del_expr_kind(X, "lc")), "op").at(x)
        ).restrict({1})
        assert (res - want).norm() <= 1e-12
        # fully numeric two-path agreement (no closed forms)
        bare = dataclasses.replace(L, grad_x=None, grad_d=None)
        res2 = ele_residual_flat(bare, X, x)
        assert (res - res2).norm() <= 1e-7 * max(1.0, res.norm())
        assert decomposition_check(L, X, random_field(rng, {1}), x)[1] <= 1e-8


def test_divergence_mode_gauge_residual():
    L = _div_mode_spec(DerivMode.GAUGE_DIV)
    rng = np.random.default_rng(21)
    bg = rotor_gauge(random_rotor(rng))
    from multiform.gauge import gauge_del_expr

    for _ in range(3):
        X = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        res = ele_residual_gauge(L, X, x, bg)
        d_expr = gauge_del_expr(X, "lc", bg)
        want = (
            2.0 * X.at(x)
            - gauge_del_expr(scale(2.0, d_expr), "op", bg).at(x)
        ).restrict({1})
        assert (res - want).norm() <= 1e-10
        ref = ele_residual_two_paths(L, X, x, bg)[1]
        assert (res - ref).norm() <= 1e-7 * max(1.0, res.norm())
        assert decomposition_check(L, X, random_field(rng, {1}), x, bg)[1] <= 1e-7


def test_maxwell_with_current_source():
    rng = np.random.default_rng(22)
    j_expr = random_field(rng, {1})
    L = make_builtin("maxwell_flat", params={"mu0": 1.7}, sources={"J": j_expr})
    for _ in range(4):
        A = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        r1, r2 = ele_residual_two_paths(L, A, x)
        assert (r1 - r2).norm() <= 1e-7 * max(1.0, r1.norm())
        # residual = -J + div(curl A)/mu0
        indep = del_expr_kind(del_expr_kind(A, "op"), "lc").at(x) * (1 / 1.7) - j_expr.at(x)
        assert (r1 - indep.restrict({1})).norm() <= 1e-11
        assert decomposition_check(L, A, random_field(rng, {1}), x)[1] <= 1e-8


def test_dirac_with_external_potential():
    rng = np.random.default_rng(23)
    a_ext = random_field(rng, {1})
    L = make_builtin(
        "dirac_flat",
        params={"m": 0.9, "hbar": 1.2, "c": 1.0, "e": 0.6},
        sources={"A_ext": a_ext},
    )
    for _ in range(4):
        psi = random_even_field(rng)
        x = rng.uniform(-1, 1, 4)
        r1, r2 = ele_residual_two_paths(L, psi, x)
        assert (r1 - r2).norm() <= 1e-7 * max(1.0, r1.norm())
        assert decomposition_check(L, psi, random_even_field(rng), x)[1] <= 1e-7


def test_nonpolynomial_density_paths():
    """Richardson fallbacks: density sin(X.X) has variation cos(X.X) 2X.A."""
    L = LagrangianSpec(
        name="sine",
        mode=DerivMode.FLAT_CURL,
        density=lambda Xc, dc, xs: np.sin(sta.sp(Xc, Xc)),
        field_grades=frozenset({1}),
        poly_degree=None,
    )
    rng = np.random.default_rng(24)
    for _ in range(4):
        X = random_field(rng, {1})
        A = random_field(rng, {1})
        x = rng.uniform(-1, 1, 4)
        got = variation(L, X, A, x)
        s = X.at(x).sp(X.at(x))
        want = np.cos(s) * 2.0 * X.at(x).sp(A.at(x))
        assert got == pytest.approx(want, abs=1e-8)
        res = ele_residual_flat(L, X, x)
        want_res = (np.cos(s) * 2.0 * X.at(x)).restrict({1})
        assert (res - want_res).norm() <= 1e-6


def singular(X):
    """X recip(x.g0): finite for x0 != 0, NaN residuals at x0 = 0."""
    return prod(X, ScalarMap(coordinate(GAMMA[0]), "recip"), "gp")


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------


def _single_values(fn, pts):
    out = [fn(x) for x in pts]
    return np.array([v.comps if isinstance(v, Multivector) else v for v in out])


def _on(bg, construction):
    """The background of a case: bg, or for "pushforward" bg's h alone."""
    return GaugeBackground(bg.h) if construction == "pushforward" else bg


# each case's closed residual, called through its family's typed operator; the
# gauge cases' construction is that of the background _on gives them
_RESIDUAL_CASES = [
    pytest.param(
        "maxwell_flat", None, lambda L, X, x, bg: ele_residual_flat(L, X, x),
        id="maxwell_flat-None",
    ),
    pytest.param(
        "dirac_flat", None, lambda L, X, x, bg: ele_residual_flat(L, X, x),
        id="dirac_flat-None",
    ),
    pytest.param(
        "maxwell_gauge", "omega", lambda L, X, x, bg: ele_residual_gauge(L, X, x, bg),
        id="maxwell_gauge-omega",
    ),
    pytest.param(
        "maxwell_gauge", "pushforward", lambda L, X, x, bg: ele_residual_gauge(L, X, x, bg),
        id="maxwell_gauge-pushforward",
    ),
    pytest.param(
        "dirac_gauge", None, lambda L, X, x, bg: ele_residual_spinor(L, X, x, bg),
        id="dirac_gauge-None",
    ),
]


@pytest.mark.parametrize(
    "name, construction, residual",
    _RESIDUAL_CASES + [
        pytest.param(
            "generic", None, lambda L, X, x, bg: ele_residual_flat(L, X, x),
            id="generic-None",
        ),
        pytest.param(
            "generic_dirac", None, lambda L, X, x, bg: ele_residual_flat(L, X, x),
            id="generic_dirac-None",
        ),
    ],
)
def test_batch_matches_single_points(name, construction, residual):
    """One (P, 4) call equals P single-point calls bit for bit, NaN rows
    included, and the variation decomposition_check returns is variation's.

    The generic cases have no closed slot gradients: their residuals take the
    per-blade batch gradient and the coordinate stencils of the whole batch."""
    rng = np.random.default_rng(27)
    bg = rotor_gauge(random_rotor(rng)) if name.endswith("gauge") else None
    bg = _on(bg, construction)
    if name == "generic":
        L = make_builtin("maxwell_flat", sources={"J": random_field(rng, {1})})
        L = dataclasses.replace(L, grad_x=None, grad_d=None)
    elif name == "generic_dirac":
        L = make_builtin("dirac_flat", sources={"A_ext": random_field(rng, {1})})
        L = dataclasses.replace(L, grad_x=None, grad_d=None)
    else:
        L = make_builtin(name)
    grades = {1} if L.field_grades == {1} else {0, 2, 4}
    A = random_field(rng, grades)
    pts = random_points(rng, 4)
    pts[2, 0] = 0.0  # the singular point of singular()
    X0 = random_field(rng, grades)
    for X, has_nan in ((X0, False), (singular(X0), True)):
        ops = [
            lambda x: residual(L, X, x, bg),
            lambda x: variation(L, X, A, x, bg),
        ]
        if not name.startswith("generic"):
            # the (variation, residual) pair, one row per point
            ops.append(lambda x: np.transpose(decomposition_check(L, X, A, x, bg)))
        with np.errstate(divide="ignore", invalid="ignore"):
            batches = [op(pts) for op in ops]
            for op, batch in zip(ops, batches):
                assert np.array_equal(batch, _single_values(op, pts), equal_nan=True)
            if len(batches) == 3:
                # decomposition_check's variation is variation's, bit for bit
                assert np.array_equal(batches[2][:, 0], batches[1], equal_nan=True)
                one = decomposition_check(L, X, A, pts[0], bg)
                assert [type(v) for v in one] == [float, float]
            norms = [residual(L, X, x, bg).norm() for x in pts]
            assert np.array_equal(residual_norms(batches[0]), norms, equal_nan=True)
        assert np.isnan(norms).tolist() == [False, False, has_nan, False]
        assert np.isnan(batches[1]).tolist() == [False, False, has_nan, False]
    if name.startswith("generic"):
        with pytest.raises(ValueError):
            decomposition_check(L, A, A, pts, bg)


def _reference_case(name, seed):
    """A built-in Lagrangian, a random field of its grades, a background for
    the gauge families, and three points."""
    rng = np.random.default_rng(seed)
    bg = rotor_gauge(random_rotor(rng)) if name.endswith("gauge") else None
    L = make_builtin(name)
    X = random_field(rng, {1}) if L.field_grades == {1} else random_even_field(rng)
    return L, X, bg, random_points(rng, 3)


@pytest.mark.parametrize("name, construction, residual", _RESIDUAL_CASES)
def test_reference_batch_matches_single_points(name, construction, residual):
    """The reference residual of a (P, 4) batch equals P single-point calls bit for bit."""
    L, X, bg, pts = _reference_case(name, 28)
    bg = _on(bg, construction)
    ref = lambda x: ele_residual_two_paths(L, X, x, bg)[1]
    batch = ref(pts)
    assert batch.shape == (3, 16)
    assert isinstance(ref(pts[0]), Multivector)
    assert np.array_equal(batch, _single_values(ref, pts))
    closed = residual(L, X, pts, bg)
    assert np.abs(batch - closed).max() <= 1e-8 * max(1.0, np.abs(closed).max())


@pytest.mark.parametrize("name", ["maxwell_flat", "dirac_flat", "maxwell_gauge", "dirac_gauge"])
def test_reference_batch_stays_independent(name, monkeypatch):
    """The batched reference path reads neither the per-blade batch gradient
    nor a closed grad_x (nor, for flat modes, a closed grad_d)."""
    L, X, bg, pts = _reference_case(name, 30)
    want = ele_residual_two_paths(L, X, pts, bg)[1]

    def refuse(*args):
        raise AssertionError("blade_gradient on the reference path")

    monkeypatch.setattr(lagrangian, "blade_gradient", refuse)
    poisoned = {"grad_x": lambda Xe, de: scale(np.nan, Xe)}
    if L.mode.family == "flat":
        poisoned["grad_d"] = lambda Xe, de: scale(np.nan, de)
    L = dataclasses.replace(L, **poisoned)
    assert np.array_equal(ele_residual_two_paths(L, X, pts, bg)[1], want)


@pytest.mark.parametrize("name, construction, residual", _RESIDUAL_CASES)
def test_two_paths_closed_residual_is_the_family_residual(
    name, construction, residual, monkeypatch
):
    """The closed half of ele_residual_two_paths is its family's residual
    operator bit for bit, at one point and at a batch, and one call builds
    one plan for both paths."""
    L, X, bg, pts = _reference_case(name, 29)
    bg = _on(bg, construction)
    want = residual(L, X, pts, bg)
    want_single = residual(L, X, pts[0], bg)
    plan, plans = lagrangian._plan, []

    def counted(*args):
        plans.append(args)
        return plan(*args)

    monkeypatch.setattr(lagrangian, "_plan", counted)
    assert np.array_equal(ele_residual_two_paths(L, X, pts, bg)[0], want)
    assert len(plans) == 1
    closed, reference = ele_residual_two_paths(L, X, pts[0], bg)
    assert len(plans) == 2
    assert isinstance(reference, Multivector)
    assert np.array_equal(closed.comps, want_single.comps)
    if L.mode is DerivMode.SPINOR:
        # the spinor family's even-grade check holds on both paths
        with pytest.raises(GradeError, match="even-grade"):
            ele_residual_two_paths(L, Const(GAMMA[1]), pts, bg)
