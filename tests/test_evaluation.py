"""Evaluation contracts: single-point entry points, the per-node value cache,
and the lifetime of fields passed through the residual and identity checks."""

import gc
import weakref

import numpy as np
import pytest

from multiform import fields as f
from multiform.extensor import SingularExtensorError
from multiform.fields import (
    BladeExp,
    Const,
    ExtApply,
    Graded,
    PolyMap,
    Rev,
    ScalarMap,
    add,
    coordinate,
    del_expr_kind,
    position,
    prod,
    scale,
)
from multiform.gauge import (
    ExtensorField,
    GaugeBackground,
    boundary_current_gauge,
    check_identity_gauge,
    check_identity_spinor,
    check_pushforward_vs_omega,
    gauge_del_expr,
    rotor_gauge,
    spinor_grad_expr,
)
from multiform.lagrangian import (
    decomposition_check,
    ele_residual_flat,
    ele_residual_gauge,
    ele_residual_spinor,
    ele_residual_two_paths,
    make_builtin,
)
from multiform.sampling import (
    random_even_field,
    random_field,
    random_invertible_h,
    random_omega,
    random_points,
    random_rotor,
)
from multiform.scenarios import SCENARIOS, ScenarioConfig, _Runner
from multiform.sta import GAMMA, Multivector


_X = random_field(np.random.default_rng(40), {1})
_H = random_invertible_h(np.random.default_rng(42))

SINGLE_POINT_CALLS = {
    "FieldExpr.at": lambda x: _X.at(x),
    "ExtensorField.at": lambda x: _H.at(x),
}


@pytest.mark.parametrize("name", sorted(SINGLE_POINT_CALLS))
def test_single_point_entry_points_reject_a_batch(name):
    call = SINGLE_POINT_CALLS[name]
    pts = random_points(np.random.default_rng(43), 3)
    call(pts[0])  # one point works
    with pytest.raises(ValueError, match=r"\(3, 4\)"):
        call(pts)


def _trees(seed: int) -> list:
    """Trees over every node kind on a gauge background, built from one seed."""
    rng = np.random.default_rng(seed)
    h = random_invertible_h(rng)
    bg = GaugeBackground(h, random_omega(rng))
    X = random_field(rng, {0, 1, 2, 3, 4})
    V = random_field(rng, {1, 2})
    psi = random_even_field(rng)
    s = coordinate(GAMMA[3])
    a, b = GAMMA[0], GAMMA[2]
    applied = [h.apply_expr(V, variant) for variant in ("direct", "adjoint", "inverse", "star")]
    m = h.matrix()
    tangent = [ExtApply(m, V, (m.deriv(a),), adj) for adj in (False, True)]
    two_tangents = [
        ExtApply(m, X, (m.deriv(a), m.deriv(b).deriv(a)), adj) for adj in (False, True)
    ]
    return [
        Const(Multivector.vector([0.1, 0.2, 0.3, 0.4])),
        position(),
        X,
        add(X, scale(-1.0, V)),
        Rev(X),
        Graded(X, {1, 2}),
        prod(X, V, "gp"),
        prod(X, V, "op"),
        prod(V, X, "lc"),
        prod(X, V, "sp"),
        prod(X, V, "cross"),
        PolyMap(s, [0.5, -1.0, 0.25]),
        ScalarMap(scale(0.5, s), "sin"),
        ScalarMap(scale(0.5, s), "cos"),
        ScalarMap(scale(0.5, s), "exp"),
        ScalarMap(PolyMap(s, [2.0, 0.5]), "recip"),
        BladeExp(GAMMA[1] ^ GAMMA[2], scale(0.6, s)),
        BladeExp(GAMMA[0] ^ GAMMA[1], scale(0.4, s)),
        del_expr_kind(X, "gp"),
        del_expr_kind(V, "lc"),
        *applied,
        *tangent,
        *two_tangents,
        *(t.deriv(a).deriv(b) for t in applied),
        h.det_expr(),
        gauge_del_expr(V, "op", bg),
        gauge_del_expr(V, "gp", GaugeBackground(h)),
        spinor_grad_expr(psi, bg),
        boundary_current_gauge(X, V, "lc", bg),
    ]


def test_value_cache_matches_fresh_trees():
    pts = random_points(np.random.default_rng(44), 24)
    moved = pts.copy()
    cached = _trees(45)
    point_sets = [pts, pts[:10], moved, pts[3], pts]
    for xs in point_sets:
        fresh = _trees(45)
        for tree, oracle in zip(cached, fresh):
            assert np.array_equal(tree.sample(xs), oracle.sample(xs))
    moved[5] += 0.25  # changed in place: the cache must miss
    fresh = _trees(45)
    for tree, oracle in zip(cached, fresh):
        assert np.array_equal(tree.sample(moved), oracle.sample(moved))
    for tree in cached:
        value = tree.sample(pts)
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0] = 1.0


def test_singular_extensor_raises_again_on_reevaluation():
    # h = diag(x0, 1, 1, 1) is singular on the hyperplane x0 = 0
    x0 = coordinate(GAMMA[0])
    h = ExtensorField([[x0 if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)])
    tree = h.apply_expr(position(), "inverse")
    good = random_points(np.random.default_rng(46), 5) + np.array([2.0, 0.0, 0.0, 0.0])
    bad = good.copy()
    bad[2, 0] = 0.0
    first = tree.sample(good).copy()
    for _ in range(2):
        with pytest.raises(SingularExtensorError):
            tree.sample(bad)
    assert np.array_equal(tree.sample(good), first)
    with pytest.raises(SingularExtensorError):
        tree.sample(bad)


def test_checks_do_not_keep_fields_alive():
    rng = np.random.default_rng(47)
    bg = rotor_gauge(random_rotor(rng))
    L = make_builtin("maxwell_gauge")
    pts = random_points(rng, 4)
    X = random_field(rng, {1})
    A = random_field(rng, {1})
    Y = random_field(rng, {0, 1, 2, 3, 4})
    ele_residual_gauge(L, X, pts, bg)
    decomposition_check(L, X, A, pts, bg)
    check_identity_gauge(X, Y, "lc", bg, pts)
    # the shared leaves keep neither derivative directions nor backgrounds
    for _ in range(50):
        position().deriv(rng.normal(size=4))
    other = rotor_gauge(random_rotor(rng))
    gauge_del_expr(position(), "lc", other).at(pts[0])
    decomposition_check(L, X, f.ZERO, pts, other)
    assert len(position()._dcache) == 0 and len(f.ZERO._dcache) == 0
    refs = [weakref.ref(obj) for obj in (X, A, Y, other)]
    del X, A, Y, other
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None, None]
    # the background and the Lagrangian are still in use
    assert bg.h.det_expr().at(pts[0]).comps[0] == pytest.approx(1.0, abs=1e-10)
    assert L.mode.family == "gauge"


@pytest.fixture
def gc_disabled():
    """No automatic collection; a test collects what pytest left before it starts."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_checks_free_fields_without_a_collection(gc_disabled):
    """Trees point only down, toward what they were built from, so a field is
    freed by reference counting the moment its last holder lets go."""
    gc.collect()
    rng = np.random.default_rng(47)
    bg = rotor_gauge(random_rotor(rng))
    pts = random_points(rng, 4)
    X = random_field(rng, {1})
    A = random_field(rng, {1})
    Y = random_field(rng, {0, 1, 2, 3, 4})
    psi, phi = random_even_field(rng), random_even_field(rng)
    s = coordinate(GAMMA[1])
    E = ScalarMap(scale(0.3, s), "exp")
    R = ScalarMap(PolyMap(s, [2.0, 0.0, 1.0]), "recip")
    B = BladeExp(GAMMA[1] ^ GAMMA[2], scale(0.5, s))
    h = ExtensorField([[s if i == j == 1 else float(i == j) for j in range(4)] for i in range(4)])
    inverse = h.apply_expr(X, "inverse")
    L = make_builtin("maxwell_gauge")
    ele_residual_gauge(L, X, pts, bg)
    decomposition_check(L, X, A, pts, bg)
    check_identity_gauge(X, Y, "lc", bg, pts)
    check_pushforward_vs_omega(Y, bg, pts)
    check_identity_spinor(psi, phi, bg, pts)
    ele_residual_spinor(make_builtin("dirac_gauge"), psi, pts, bg)
    ele_residual_flat(make_builtin("maxwell_flat"), X, pts)
    ele_residual_two_paths(make_builtin("dirac_flat"), psi, pts[0])
    for tree in (E, R, B, inverse):
        del_expr_kind(del_expr_kind(tree, "gp"), "gp").sample(pts + 2.0)
    del tree
    refs = [weakref.ref(obj) for obj in (X, A, Y, psi, phi, E, R, B, h, inverse, s)]
    del X, A, Y, psi, phi, E, R, B, h, inverse, s
    assert [ref() for ref in refs] == [None] * len(refs)
    assert bg.h.det_expr().at(pts[0]).comps[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_leave_no_reference_cycles(name, gc_disabled):
    """Everything a scenario builds is freed when its body returns, without
    a garbage collection."""
    gc.collect()
    cfg = ScenarioConfig(scenario=name, points=10)
    runner = _Runner(cfg)
    runner.start()
    SCENARIOS[name][1](cfg, runner)
    assert runner.records
    assert gc.collect() == 0


def test_reciprocal_det_factor_keeps_the_gate():
    """The factor -(1/det h)^2 of a derivative of 1/det h is read from a twin
    node, which refuses a singular point set as 1/det h itself does."""
    x0 = coordinate(GAMMA[0])
    h = ExtensorField([[x0 if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)])
    recip = h._recip_det()
    tree = h.apply_expr(position(), "inverse").deriv(GAMMA[0])
    good = random_points(np.random.default_rng(48), 5) + np.array([2.0, 0.0, 0.0, 0.0])
    bad = good.copy()
    bad[3, 0] = 0.0
    with pytest.raises(SingularExtensorError):
        tree.sample(bad)
    assert recip._value == (None, None)  # kept, and empty: the twin raised before 1/det h was read
    factor = recip.deriv(GAMMA[0]).left
    with pytest.raises(SingularExtensorError):
        factor.sample(bad)
    r = 1.0 / good[:, 0]
    assert np.array_equal(factor.sample(good)[:, 0], -(r * r))
