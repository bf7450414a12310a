"""Field-expression calculus tests; finite differences appear only as the
independent oracle for the structural derivatives."""

import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from multiform import fields as f
from multiform import sta
from multiform.fields import (
    BladeExp,
    Const,
    GradeError,
    Graded,
    PolyMap,
    Rev,
    ScalarMap,
    Tabulated,
    add,
    boundary_current_flat,
    check_identity_flat,
    coordinate,
    del_expr_kind,
    gauss_check,
    multivector_derivative,
    position,
    prod,
    scale,
)
from multiform.gauge import _RecipDet
from multiform.sampling import random_field, random_points, random_vector
from multiform.sta import GAMMA, GAMMA_UP, Multivector, ONE, PSEUDOSCALAR


def fd_derivative(expr, a, x, h=1e-3):
    """Richardson-extrapolated central difference along a."""
    av = a.vector_coords()
    x = np.asarray(x, float)

    def delta(step):
        up = expr.sample((x + step * av).reshape(1, 4))[0]
        dn = expr.sample((x - step * av).reshape(1, 4))[0]
        return (up - dn) / (2 * step)

    d1 = delta(h)
    d2 = delta(h / 2)
    return (4.0 * d2 - d1) / 3.0


def test_position_field_derivative_is_direction():
    a = Multivector.vector([1.0, 2.0, 3.0, 4.0])
    x = Multivector.vector([0.3, -0.2, 0.5, 0.1])
    assert position().deriv(a).at(x).isclose(a)


def test_square_coordinate_spec_values():
    # X(x) = (x.k)^2 with k = g0: derivative along g0 is 2(x.k)(k.g0)
    expr = PolyMap(coordinate(GAMMA[0]), [0.0, 0.0, 1.0])
    at_origin = expr.deriv(GAMMA[0]).at(np.zeros(4))
    assert at_origin.norm() <= 1e-15
    at_g0 = expr.deriv(GAMMA[0]).at(np.array([1.0, 0, 0, 0]))
    assert at_g0.isclose(Multivector.scalar(2.0), tol=1e-14)
    # analytic chain-rule oracle at a generic point and direction
    rng = np.random.default_rng(0)
    k = random_vector(rng)
    expr = PolyMap(coordinate(k), [0.0, 0.0, 1.0])
    x = rng.uniform(-1, 1, 4)
    a = random_vector(rng)
    want = 2.0 * Multivector.vector(x).sp(k) * k.sp(a)
    got = expr.deriv(a).at(x)
    assert got.comps[0] == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_structural_derivative_matches_fd_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    expr = random_field(rng, {0, 1, 2, 3, 4}, degree=3)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        a = random_vector(rng)
        got = expr.deriv(a).at(x).comps
        want = fd_derivative(expr, a, x)
        denom = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() / denom <= 1e-6


def test_every_node_kind_derivative_against_fd():
    rng = np.random.default_rng(7)
    pos = position()
    s = coordinate(random_vector(rng))
    hline = [
        Const(Multivector(rng.uniform(-1, 1, 16))),
        pos,
        scale(1.3, prod(pos, Const(Multivector.blade(0b0110)), "gp")),
        prod(pos, pos, "op"),
        prod(Const(Multivector.blade(0b0011)), pos, "lc"),
        prod(pos, pos, "sp"),
        prod(Const(Multivector.blade(0b0101)), pos, "cross"),
        PolyMap(s, rng.uniform(-1, 1, 4)),
        ScalarMap(scale(0.4, s), "sin"),
        ScalarMap(scale(0.4, s), "cos"),
        ScalarMap(scale(0.4, s), "exp"),
        ScalarMap(f.add(Const(Multivector.scalar(2.0)), scale(0.2, s)), "recip"),
        BladeExp(GAMMA[1] ^ GAMMA[2], scale(0.5, s)),  # negative square
        BladeExp(GAMMA[0] ^ GAMMA[1], scale(0.5, s)),  # positive square
        Rev(random_field(rng, {1, 2})),
        Graded(random_field(rng, {0, 1, 2, 3, 4}), {1, 3}),
        del_expr_kind(random_field(rng, {1, 2}), "op"),
    ]
    for expr in hline:
        x = rng.uniform(-0.8, 0.8, 4)
        a = random_vector(rng)
        got = expr.deriv(a).at(x).comps
        want = fd_derivative(expr, a, x)
        denom = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() / denom <= 1e-6, type(expr).__name__


def test_blade_exp_requires_scalar_square():
    non_blade = Multivector.blade(0b0110) + Multivector.blade(0b1001)
    with pytest.raises(ValueError):
        BladeExp(non_blade, coordinate(GAMMA[0]))
    with pytest.raises(GradeError):
        ScalarMap(position(), "sin")
    with pytest.raises(GradeError):
        position().deriv(PSEUDOSCALAR)


def test_del_operators_on_position():
    # gamma^mu gamma_mu summation oracle
    summed = sum((GAMMA_UP[mu] * GAMMA[mu] for mu in range(4)), Multivector.zero())
    assert summed == Multivector.scalar(4.0)
    x = np.array([0.4, 0.1, -0.7, 0.2])
    assert del_expr_kind(position(), "gp").at(x).isclose(Multivector.scalar(4.0), tol=1e-14)
    assert del_expr_kind(position(), "lc").at(x).isclose(Multivector.scalar(4.0), tol=1e-14)
    assert del_expr_kind(position(), "op").at(x).norm() <= 1e-15


def test_gradient_of_coordinate_is_the_direction():
    rng = np.random.default_rng(1)
    k = random_vector(rng)
    x = rng.uniform(-1, 1, 4)
    assert del_expr_kind(coordinate(k), "gp").at(x).isclose(k, tol=1e-13)


def test_gradient_splits_into_divergence_plus_curl():
    rng = np.random.default_rng(2)
    pts = random_points(rng, 20)
    for _ in range(10):
        X = random_field(rng, {0, 1, 2, 3, 4})
        g = del_expr_kind(X, "gp").sample(pts)
        d = del_expr_kind(X, "lc").sample(pts)
        c = del_expr_kind(X, "op").sample(pts)
        assert np.abs(g - d - c).max() <= 1e-10
    with pytest.raises(ValueError):
        del_expr_kind(X, "laplacian")


def test_multivector_derivative_rules():
    # square rule d/dX (X.X) = 2X, at the point 3 g0
    got = multivector_derivative(lambda W: W.sp(W), 3.0 * GAMMA[0], {1}, poly_degree=2)
    assert got.isclose(6.0 * GAMMA[0], tol=1e-12)
    # rule 2: d/dX (X.Y) keeps the grades of X
    Y = GAMMA[0] + Multivector.blade(0b0011)
    got = multivector_derivative(lambda W: W.sp(Y), GAMMA[2], {1}, poly_degree=1)
    assert got.isclose(GAMMA[0], tol=1e-13)
    # rule 3 with the reversion pair, against per-blade numerics
    rng = np.random.default_rng(3)
    for _ in range(25):
        X0 = Multivector(rng.uniform(-1, 1, 16)).restrict({0, 2, 4})
        Yv = Multivector(rng.uniform(-1, 1, 16))
        Zv = Multivector(rng.uniform(-1, 1, 16))
        got = multivector_derivative(
            lambda W: ((Yv * W) * Zv).sp(W), X0, {0, 2, 4}, poly_degree=2
        )
        want = ((Yv * X0) * Zv + (Yv.reverse() * X0) * Zv.reverse()).restrict({0, 2, 4})
        assert (got - want).norm() <= 1e-6 * max(1.0, want.norm())


def test_multivector_derivative_nonpolynomial():
    """Richardson path: d/dX sin(X.Y) = cos(X.Y) <Y>_G."""
    rng = np.random.default_rng(8)
    for _ in range(10):
        X0 = Multivector(rng.uniform(-1, 1, 16)).restrict({1, 2})
        Y = Multivector(rng.uniform(-1, 1, 16))
        got = multivector_derivative(lambda W: np.sin(W.sp(Y)), X0, {1, 2})
        want = np.cos(X0.sp(Y)) * Y.restrict({1, 2})
        assert (got - want).norm() <= 1e-6 * max(1.0, want.norm())


def test_multivector_derivative_grade_mismatch():
    with pytest.raises(GradeError):
        multivector_derivative(lambda W: W.sp(W), GAMMA[0] + ONE, {1})


def test_richardson_offsets_are_the_derivative_step():
    """_richardson finds its values by offset, so its offsets must be the
    points scalar_derivative_at_zero samples; a second copy of the step that
    drifted would raise KeyError here."""

    def g(lam):
        return np.array([np.sin(3.0 * lam), np.exp(lam), lam**3 - 2.0 * lam])

    got = f._richardson([g(lam) for lam in f._RICHARDSON_OFFSETS])
    assert np.array_equal(got, f.scalar_derivative_at_zero(g))


def test_boundary_current_trivial_cases():
    pts = random_points(np.random.default_rng(4), 10)
    # a . scalar = 0 for every direction
    v = boundary_current_flat(Const(Multivector.scalar(3.0)), position(), "lc")
    assert np.abs(v.sample(pts)).max() == 0.0
    # grade mismatch in the scalar product kills the wedge current of (x, x)
    v = boundary_current_flat(position(), position(), "op")
    assert np.abs(v.sample(pts)).max() <= 1e-15


def test_flat_identities():
    rng = np.random.default_rng(5)
    pts = random_points(rng, 50)
    # constants: everything vanishes exactly
    X = Const(Multivector(rng.uniform(-1, 1, 16)))
    Y = Const(Multivector(rng.uniform(-1, 1, 16)))
    for kind in ("lc", "op", "gp"):
        assert check_identity_flat(X, Y, kind, pts) == 0.0
    # the position field against itself
    assert check_identity_flat(position(), position(), "lc", pts) <= 1e-10
    # random smooth mixed-grade fields
    for kind in ("lc", "op", "gp"):
        worst = 0.0
        for _ in range(8):
            X = random_field(rng, {0, 1, 2, 3, 4})
            Y = random_field(rng, {0, 1, 2, 3, 4})
            worst = max(worst, check_identity_flat(X, Y, kind, pts))
        assert worst <= 1e-8, kind


def test_gauss_check_linear_field():
    # div x = 4 oracle: both sides equal 4 * box volume
    box = (np.array([0.0, -0.5, 0.2, 1.0]), np.array([1.0, 0.5, 1.2, 3.0]))
    volume = float(np.prod(box[1] - box[0]))
    vol_int, flux = gauss_check(position(), box, 4)
    assert vol_int == pytest.approx(4.0 * volume, rel=1e-12)
    assert flux == pytest.approx(4.0 * volume, rel=1e-12)


def test_gauss_check_constant_field():
    rng = np.random.default_rng(6)
    v = Const(Multivector.vector(rng.uniform(-1, 1, 4)))
    vol_int, flux = gauss_check(v, (np.zeros(4), np.ones(4)), 3)
    assert abs(vol_int) <= 1e-14
    assert abs(flux) <= 1e-12


def test_gauss_check_convergence_rate():
    # midpoint rule: the volume/flux discrepancy shrinks at second order
    v = prod(Const(GAMMA[1]), ScalarMap(coordinate(GAMMA[1] + GAMMA[0]), "sin"), "gp")
    box = (np.zeros(4), np.ones(4))
    d8 = abs(np.subtract(*gauss_check(v, box, 8)))
    d16 = abs(np.subtract(*gauss_check(v, box, 16)))
    assert d8 / d16 == pytest.approx(4.0, abs=0.8)
    with pytest.raises(ValueError):
        gauss_check(v, box, 1)


@pytest.mark.parametrize(
    "n, box",
    [
        (2.5, (np.zeros(4), np.ones(4))),
        (True, (np.zeros(4), np.ones(4))),
        (np.float64(4.0), (np.zeros(4), np.ones(4))),
        ("4", (np.zeros(4), np.ones(4))),
        (4, (np.ones(4), np.zeros(4))),
        (4, (np.zeros(4), np.array([1.0, 1.0, 0.0, 1.0]))),
        (4, (np.zeros(4), np.array([1.0, np.inf, 1.0, 1.0]))),
        (4, (np.array([0.0, 0.0, np.nan, 0.0]), np.ones(4))),
        (4, (np.zeros(5), np.ones(5))),
        (4, (np.zeros(3), np.ones(3))),
        (4, (np.zeros(4), 1.0)),
    ],
    ids=[
        "fractional-n", "bool-n", "float-n", "string-n", "hi-below-lo",
        "empty-axis", "infinite-corner", "nan-corner", "five-axes", "three-axes",
        "scalar-corner",
    ],
)
def test_gauss_check_refuses_a_bad_n_or_box(n, box):
    """n = 2.5 gave (8.29, 6.91) for div x over the unit box, against (4, 4);
    5-coordinate corners gave (2, 4)."""
    with pytest.raises(ValueError):
        gauss_check(position(), box, n)


def test_gauss_check_takes_a_numpy_integer_n():
    got = gauss_check(position(), (np.zeros(4), np.ones(4)), np.int64(2))
    assert got == pytest.approx((4.0, 4.0), rel=1e-12)


def test_gauss_check_working_set_is_bounded():
    """65,536 sampled points in blocks: the peak is a few (P, 16) arrays, not
    one per tree node."""
    v = prod(Const(GAMMA[1]), ScalarMap(coordinate(GAMMA[1] + GAMMA[0]), "sin"), "gp")
    box = (np.zeros(4), np.ones(4))
    gauss_check(v, box, 4)
    tracemalloc.start()
    try:
        gauss_check(v, box, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16**4 * 16 * 8


def test_tabulated_tree_samples_within_one_block_only():
    """The leaf holds its whole point set; one evaluate call over that set is its entry point."""
    pts = random_points(np.random.default_rng(41), f.SAMPLE_BLOCK + 1)
    comps = np.zeros((pts.shape[0], 16))
    comps[:, 1] = pts[:, 0]
    tree = prod(Tabulated(comps, {1}, pts), Const(GAMMA[2]), "op")
    assert np.array_equal(f.evaluate([tree], pts)[0], sta.op(comps, GAMMA[2].comps))
    with pytest.raises(ValueError, match="tabulated values exist only"):
        tree.sample(pts)


def test_tabulated_leaf_lives_on_its_point_set_only():
    pts = random_points(np.random.default_rng(40), 3)
    comps = np.zeros((3, 16))
    comps[:, 1] = [1.0, 2.0, 3.0]
    leaf = Tabulated(comps, {1}, pts)
    assert leaf.grades == {1}
    tree = prod(leaf, Const(GAMMA[2]), "op")
    assert np.array_equal(tree.sample(pts), sta.op(comps, GAMMA[2].comps))
    with pytest.raises(ValueError):
        leaf.sample(pts[:2])
    with pytest.raises(ValueError):
        tree.sample(pts + 1.0)
    with pytest.raises(ValueError):
        leaf.deriv(GAMMA[0])
    with pytest.raises(ValueError):
        del_expr_kind(leaf, "op").sample(pts)


def test_nan_component_counts_in_the_grade_set():
    """NaN > tol is False: a NaN blade must not drop its grade."""
    comps = np.zeros(16)
    comps[0] = np.nan
    assert Multivector(comps).grade_set() == {0}
    assert Multivector(comps).grade_set(1e-12) == {0}
    assert Const(Multivector(comps)).grades == {0}
    comps[0], comps[3] = np.inf, 1.0
    assert Multivector(comps).grade_set() == {0, 2}


def test_blade_exp_rejects_a_nan_blade():
    comps = np.zeros(16)
    comps[0b0011] = np.nan
    with pytest.raises(ValueError):
        BladeExp(Multivector(comps), coordinate(GAMMA[0]))


# ---------------------------------------------------------------------------
# chain-rule factors shared by the partials of a node
# ---------------------------------------------------------------------------

# every component non-zero, so all four partials of x . K are non-zero constants
K = Multivector.vector([0.7, -1.3, 0.4, 2.1])


def _reciprocal_factor(X):
    return scale(-1.0, prod(X, X, "gp"))


# name -> (node over the scalar s, the factor the old per-direction formula built)
SHARED_FACTOR_CASES = {
    "sin": (lambda s: ScalarMap(s, "sin"), lambda X: ScalarMap(X.child, "cos")),
    "cos": (lambda s: ScalarMap(s, "cos"), lambda X: scale(-1.0, ScalarMap(X.child, "sin"))),
    "exp": (lambda s: ScalarMap(s, "exp"), lambda X: X),
    "recip": (lambda s: ScalarMap(PolyMap(s, [2.0, 0.0, 1.0]), "recip"), _reciprocal_factor),
    "recip-det": (lambda s: _RecipDet(PolyMap(s, [2.0, 0.0, 1.0])), _reciprocal_factor),
    "poly": (
        lambda s: PolyMap(s, [0.5, -1.0, 0.25, 2.0]),
        lambda X: PolyMap(X.child, [-1.0, 0.5, 6.0]),
    ),
    "blade-exp": (lambda s: BladeExp(GAMMA[1] ^ GAMMA[2], s), None),
}


def _unshared_deriv(name, X, a):
    """The first derivative as the per-direction formula built it, factor and all."""
    if name == "blade-exp":
        inner = prod(X.child.deriv(a), X, "gp")
        return prod(Const(Multivector(X.b_comps)), inner, "gp")
    return prod(SHARED_FACTOR_CASES[name][1](X), X.child.deriv(a), "gp")


@pytest.mark.parametrize("name", sorted(SHARED_FACTOR_CASES))
def test_partials_share_one_chain_rule_factor(name):
    X = SHARED_FACTOR_CASES[name][0](coordinate(K))
    partials = [X.deriv(g) for g in GAMMA]
    assert all(isinstance(d, f.Prod) for d in partials)
    assert all(d.left is partials[0].left for d in partials), name


@pytest.mark.parametrize("name", sorted(SHARED_FACTOR_CASES))
def test_shared_factors_equal_the_per_direction_formula_bit_for_bit(name):
    build = SHARED_FACTOR_CASES[name][0]
    X = build(coordinate(K))
    pts = random_points(np.random.default_rng(49), 5)
    for a in GAMMA:
        old = _unshared_deriv(name, build(coordinate(K)), a)
        assert np.array_equal(X.deriv(a).sample(pts), old.sample(pts)), (name, a)
        for b in GAMMA:
            want = old.deriv(b).sample(pts)
            assert np.array_equal(X.deriv(a).deriv(b).sample(pts), want), (name, a, b)


def test_double_gradient_evaluates_each_factor_once_per_point_set(evaluated):
    grad = del_expr_kind(ScalarMap(coordinate(K), "sin"), "gp")
    hess = del_expr_kind(grad, "gp")
    rng = np.random.default_rng(50)
    for n in (1, 2):
        pts = random_points(rng, 4)
        grad.sample(pts)
        hess.sample(pts)
        maps = Counter(node.kind for node in evaluated if isinstance(node, ScalarMap))
        # cos s in the four first partials, -sin s in the sixteen second ones
        assert maps == {"cos": n, "sin": n}


def _kept(node) -> bool:
    return node._value is not None


def test_a_node_read_by_one_parent_keeps_no_value(evaluated):
    """Only kept nodes keep a value between calls: the leaves and the trees
    handed out for reuse, here the four partials of Y that its aggregate
    reads.  A root the caller built, and every node under it, keeps nothing;
    so does a derivative built inside a tree from a node that is not kept:
    each partial of X, read only by the matching partial of Y = 2 X."""
    X = random_field(np.random.default_rng(52), {1, 2})
    X.sample(random_points(np.random.default_rng(53), 3))
    assert evaluated and not _kept(X)  # a root keeps no value after its call ...
    Y = scale(2.0, X)
    assert X._uses == 1 and not _kept(X)  # ... and none once a parent reads it
    root = del_expr_kind(Y, "gp")
    pts = random_points(np.random.default_rng(54), 5)
    evaluated.clear()
    got = root.sample(pts)
    partials = [Y.deriv(g) for g in GAMMA]
    assert all(d._value[0] == pts.tobytes() and d in evaluated for d in partials)
    plain = [
        node for node in evaluated
        if not isinstance(node, (Const, f.Position)) and all(node is not d for d in partials)
    ]
    assert len(plain) > 20
    assert all(not _kept(node) for node in plain)
    assert not _kept(root) and not got.flags.writeable
    internal = [X._deriv(g.comps) for g in GAMMA]
    assert all(d in evaluated and d._uses == 1 and not _kept(d) for d in internal)


def test_a_partial_shared_by_two_aggregates_is_evaluated_once_per_point_set(evaluated):
    """The lc and op aggregates of one X read the same four partials; the
    partials are kept, so a partial read by one aggregate keeps its value
    for a caller that asks for it again in another call."""
    X, Y = (random_field(np.random.default_rng(seed), {1}) for seed in (55, 57))
    div, curl, grad = del_expr_kind(X, "lc"), del_expr_kind(X, "op"), del_expr_kind(Y, "gp")
    partials = [Z.deriv(g) for Z in (X, Y) for g in GAMMA]
    rng = np.random.default_rng(56)
    for n in (1, 2):
        pts = random_points(rng, 4)
        for tree in [div, curl, grad] + partials:
            tree.sample(pts)
        assert [sum(node is d for node in evaluated) for d in partials] == [n] * 8


def test_a_late_second_reader_shares_one_evaluation_in_one_call(evaluated):
    """A node that gains its second reader after it was evaluated is evaluated
    once when both readers are roots of one call; when the call returns, no
    value of it is left but the roots' and the kept nodes'."""
    rng = np.random.default_rng(58)
    X = random_field(rng, {1, 2})
    first = scale(2.0, X)
    pts = random_points(rng, 4)
    want = first.sample(pts)
    second = prod(X, Const(GAMMA[1]), "gp")  # X's second reader, built after an evaluation
    evaluated.clear()
    a, b = f.evaluate([first, second], pts)
    assert sum(node is X for node in evaluated) == 1
    assert np.array_equal(a, want)
    assert np.array_equal(b, sta.gp(X.sample(pts), GAMMA[1].comps))
    live = {id(node) for node, ref in zip(evaluated, evaluated.values) if ref() is not None}
    kept = {id(node) for node in evaluated if _kept(node)}
    assert len(evaluated) > 20 and live == {id(first), id(second)} | kept


def test_constant_leaf_is_a_read_only_stride_zero_view():
    c = Const(GAMMA[1] + 2.0 * PSEUDOSCALAR)
    vals = c.sample(random_points(np.random.default_rng(51), 3))
    assert vals.shape == (3, 16) and vals.strides[0] == 0
    assert not vals.flags.writeable
    assert np.array_equal(vals, np.tile(c.value.comps, (3, 1)))
    with pytest.raises(ValueError):
        vals[0, 0] = 1.0
    assert c.sample(np.zeros((0, 4))).shape == (0, 16)
