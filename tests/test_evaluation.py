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
    PolyMap,
    ScalarMap,
    coordinate,
    del_expr,
    position,
    prod,
    scale,
)
from multiform.gauge import (
    ExtensorField,
    GaugeBackground,
    boundary_current_gauge,
    check_identity_gauge,
    covariant_directional,
    gauge_del,
    gauge_del_expr,
    rotor_gauge,
    spinor_directional,
    spinor_grad,
    spinor_grad_expr,
)
from multiform.lagrangian import (
    decomposition_check,
    ele_residual_gauge,
    ele_residual_reference,
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
from multiform.sta import GAMMA, Multivector


def _simple_rotor_background():
    rotor = BladeExp(GAMMA[1] ^ GAMMA[2], scale(0.5, coordinate(GAMMA[0])))
    return rotor_gauge(rotor)


_X = random_field(np.random.default_rng(40), {1})
_PSI = random_even_field(np.random.default_rng(41))
_BG = _simple_rotor_background()
_H = random_invertible_h(np.random.default_rng(42))

SINGLE_POINT_CALLS = {
    "FieldExpr.at": lambda x: _X.at(x),
    "ExtensorField.matrix_at": lambda x: _H.matrix_at(x, "star"),
    "ExtensorField.at": lambda x: _H.at(x),
    "ExtensorField.det_at": lambda x: _H.det_at(x),
    "OmegaField.at": lambda x: _BG.omega.at(x, GAMMA[0]),
    "directional_derivative": lambda x: f.directional_derivative(_X, GAMMA[1], x),
    "apply_del": lambda x: f.apply_del(_X, "curl", x),
    "gradient": lambda x: f.gradient(_X, x),
    "divergence": lambda x: f.divergence(_X, x),
    "curl": lambda x: f.curl(_X, x),
    "covariant_directional": lambda x: covariant_directional(_X, GAMMA[2], x, _BG),
    "spinor_directional": lambda x: spinor_directional(_PSI, GAMMA[2], x, _BG),
    "gauge_del": lambda x: gauge_del(_X, "divergence", x, _BG),
    "spinor_grad": lambda x: spinor_grad(_PSI, x, _BG),
    "ele_residual_reference": lambda x: ele_residual_reference(
        make_builtin("maxwell_flat"), _X, x
    ),
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
    bg = GaugeBackground(h, random_omega(rng), compatible=False)
    X = random_field(rng, {0, 1, 2, 3, 4})
    V = random_field(rng, {1, 2})
    psi = random_even_field(rng)
    s = coordinate(GAMMA[3])
    a, b = GAMMA[0], GAMMA[2]
    variants = ("direct", "adjoint", "inverse", "star")
    applied = [h.apply_expr(V, variant) for variant in variants]
    mats = [h.matrix(variant) for variant in variants]  # MFromEntries, MAdj, MInv
    tangent = [ExtApply(m, V, (m.deriv(a),)) for m in mats]  # MMul, MNeg
    two_tangents = [ExtApply(m, X, (m.deriv(a), m.deriv(b).deriv(a))) for m in mats]  # MAdd
    return [
        Const(Multivector.vector([0.1, 0.2, 0.3, 0.4])),
        position(),
        X,
        X - V,
        X.reverse(),
        X.restrict({1, 2}),
        X * V,
        X ^ V,
        V << X,
        X.sp(V),
        prod(X, V, "cross"),
        PolyMap(s, [0.5, -1.0, 0.25]),
        ScalarMap(scale(0.5, s), "sin"),
        ScalarMap(scale(0.5, s), "cos"),
        ScalarMap(scale(0.5, s), "exp"),
        ScalarMap(PolyMap(s, [2.0, 0.5]), "recip"),
        BladeExp(GAMMA[1] ^ GAMMA[2], scale(0.6, s)),
        BladeExp(GAMMA[0] ^ GAMMA[1], scale(0.4, s)),
        del_expr(X, "gradient"),
        del_expr(V, "divergence"),
        *applied,
        *tangent,
        *two_tangents,
        *(t.deriv(a).deriv(b) for t in applied),
        h.det_expr(),
        gauge_del_expr(V, "curl", bg, "omega"),
        gauge_del_expr(V, "gradient", bg, "pushforward"),
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
    refs = [weakref.ref(field) for field in (X, A, Y)]
    del X, A, Y
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    # the background and the Lagrangian are still in use
    assert bg.h.det_at(pts[0]) == pytest.approx(1.0, abs=1e-10)
    assert L.mode.family == "gauge"
