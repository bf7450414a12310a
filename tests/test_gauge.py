"""Gauge background and covariant-derivative tests."""

import warnings
from itertools import permutations

import numpy as np
import pytest

from multiform import sta
from multiform.fields import (
    ZERO,
    BladeExp,
    Const,
    GradeError,
    Prod,
    Rev,
    ScalarMap,
    coordinate,
    del_expr_kind,
    evaluate,
    position,
    prod,
    add,
    scalar_derivative_at_zero,
    scale,
)
from multiform.gauge import (
    ExtensorField,
    GaugeBackground,
    RotorError,
    RotorField,
    check_identity_gauge,
    check_identity_spinor,
    check_pushforward_vs_omega,
    check_spinor_gradient_split,
    covariant_directional_expr,
    gauge_del_expr,
    identity_background,
    rotor_gauge,
    spinor_directional_expr,
    spinor_grad_expr,
)
from multiform.extensor import SingularExtensorError, adjoint_mats, outermorphism_matrix
from multiform.sampling import (
    random_even_field,
    random_field,
    random_invertible_h,
    random_omega,
    random_points,
    random_rotor,
    random_rotor_background,
    random_vector,
)
from multiform.sta import GAMMA, Multivector, ONE, PSEUDOSCALAR


def simple_rotor():
    """R(x) = exp(e12 (x.g0)/2): a single-blade rotor, unit by construction."""
    return BladeExp(GAMMA[1] ^ GAMMA[2], scale(0.5, coordinate(GAMMA[0])))


def test_trivial_rotor_gives_flat_background():
    bg = rotor_gauge(Const(ONE))
    x = np.array([0.3, 0.1, -0.2, 0.5])
    assert np.allclose(bg.h.at(x).m, np.eye(4), atol=1e-14)
    # a rotor background carries its Omega, so it takes the omega construction
    assert bg.omega is not None
    assert bg.omega.expr(GAMMA[0]).at(x).norm() <= 1e-14


def test_rotor_background_properties():
    bg = rotor_gauge(simple_rotor())
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        # unit determinant and orthogonality h_adj = h^-1
        assert bg.h.det_expr().at(x).comps[0] == pytest.approx(1.0, abs=1e-10)
        m = bg.h.at(x).m
        madj = bg.h.at(x, "adjoint").m
        assert np.allclose(madj @ m, np.eye(4), atol=1e-10)
        # the connection is bivector valued
        a = random_vector(rng)
        om = bg.omega.expr(a).at(x)
        assert om.grade_set(1e-12) <= {2}


def permutation_determinant(entries):
    """det of a 4x4 grid of scalar fields expanded over the 24 permutations: the oracle."""
    rows = [list(row) for row in entries]
    acc = ZERO
    for perm in permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        term = rows[0][perm[0]]
        for r in range(1, 4):
            term = prod(term, rows[r][perm[r]], "gp")
        acc = add(acc, scale((-1.0) ** inversions, term))
    return acc


@pytest.mark.parametrize(
    "make_h",
    [random_invertible_h, lambda rng: random_rotor_background(rng).h],
    ids=["invertible-h", "rotor"],
)
def test_det_expr_matches_permutation_expansion(make_h):
    """det h as the pseudoscalar image agrees with the permutation expansion,
    with its first and second directional derivatives."""
    rng = np.random.default_rng(17)
    h = make_h(rng)
    det, oracle = h.det_expr(), permutation_determinant(h.matrix().entries)
    assert det.grades == {0}
    pts = random_points(rng, 12)
    a, b = random_vector(rng), random_vector(rng)
    pairs = [
        (det, oracle),
        (det.deriv(a), oracle.deriv(a)),
        (det.deriv(b), oracle.deriv(b)),
        (det.deriv(a).deriv(b), oracle.deriv(a).deriv(b)),
    ]
    for got, want in pairs:
        g, w = got.sample(pts), want.sample(pts)
        assert not np.any(g[:, 1:])
        assert np.all(np.abs(g[:, 0] - w[:, 0]) <= 1e-12 * np.maximum(1.0, np.abs(w[:, 0])))


def test_det_expr_is_zero_where_h_is_singular():
    """h = diag(x^0, 1, 1, 1) is singular at x^0 = 0: det is 0 there, and its
    derivative along g_0 is 1, while the inverse refuses the point."""
    entries = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    entries[0][0] = coordinate(GAMMA[0])
    h = ExtensorField(entries)
    x = np.array([0.0, 0.3, -0.2, 0.1])
    assert h.det_expr().at(x).comps[0] == 0.0
    assert h.det_expr().deriv(GAMMA[0]).at(x).comps[0] == 1.0
    with pytest.raises(SingularExtensorError):
        h.at(x, "inverse")


def _outermorphism_oracle(h, X, variant):
    """Points -> variant(h) underbar X, from the outermorphism of each point's
    4x4 matrix of h, inverted and adjoined as the variant needs."""

    def at(pts):
        m = evaluate([h.matrix()], pts)[0]
        if variant in ("inverse", "star"):
            m = np.linalg.inv(m)
        if variant in ("adjoint", "star"):
            m = adjoint_mats(m)
        return np.einsum("pij,pj->pi", outermorphism_matrix(m), X.sample(pts))

    return at


@pytest.mark.parametrize("variant", ["direct", "adjoint", "inverse", "star"])
@pytest.mark.parametrize(
    "make_h",
    [random_invertible_h, lambda rng: random_rotor_background(rng).h],
    ids=["invertible-h", "rotor"],
)
def test_inverse_and_star_match_inverted_matrix(make_h, variant):
    """h, its adjoint (h's outermorphism transposed), and h^-1 and h* (the duals
    of the two) agree with the outermorphism of the adjoined or inverted
    matrix, with their first and second directional derivatives."""
    rng = np.random.default_rng(19)
    h = make_h(rng)
    X = random_field(rng, {0, 1, 2, 3, 4})
    pts = random_points(rng, 10)
    a, b = random_vector(rng).vector_coords(), random_vector(rng).vector_coords()
    oracle = _outermorphism_oracle(h, X, variant)
    tree = h.apply_expr(X, variant)
    want = oracle(pts)
    bound = 1e-12 * np.maximum(1.0, np.abs(want).max(axis=1))
    assert np.all(np.abs(tree.sample(pts) - want).max(axis=1) <= bound)

    def along_a(p):
        return scalar_derivative_at_zero(lambda lam: oracle(p + lam * a))

    first = along_a(pts)
    second = scalar_derivative_at_zero(lambda mu: along_a(pts + mu * b))
    for got, fd in ((tree.deriv(a), first), (tree.deriv(a).deriv(b), second)):
        denom = np.maximum(1.0, np.abs(fd).max(axis=1))
        assert np.all(np.abs(got.sample(pts) - fd).max(axis=1) <= 1e-6 * denom)


def test_adjoint_shares_the_outermorphism_of_h():
    """h and its adjoint read one outermorphism node per tangent set."""
    rng = np.random.default_rng(21)
    h = random_invertible_h(rng)
    X, Y = random_field(rng, {1, 2}), random_field(rng, {0, 3})
    a = random_vector(rng)
    direct, adjoint = h.apply_expr(Y, "direct"), h.apply_expr(X, "adjoint")
    assert adjoint.outer is direct.outer
    assert adjoint.deriv(a).left.outer is direct.deriv(a).left.outer


def test_a_connection_column_is_evaluated_once_per_point_set(evaluated):
    """The columns of Omega are kept, as h's trees are: two evaluation calls
    at the same points, of two trees that read one column, evaluate it once."""
    rng = np.random.default_rng(22)
    bg = random_rotor_background(rng)
    column, X = bg.omega.column(1), random_field(rng, {1})
    assert not column.is_zero
    pts = random_points(rng, 3)
    for tree in (prod(column, X, "gp"), prod(X, column, "cross")):
        tree.sample(pts)
    assert sum(node is column for node in evaluated) == 1


def test_rotor_frames_and_spinor_reversions_are_evaluated_once(evaluated):
    """h's 16 entries g^nu . (R g_mu R~) read four frame trees, one per mu, and
    the spinor identity reads one reversion of psi and one of phi."""
    rng = np.random.default_rng(23)
    R = random_rotor(rng)
    bg, pts = rotor_gauge(R), random_points(rng, 3)
    evaluate((bg.h.matrix(),), pts)
    frames = [n for n in evaluated if isinstance(n, Prod) and isinstance(n.right, Rev)]
    assert len(frames) == 4 and all(n.right.child is R for n in frames)
    evaluated.clear()
    psi, phi = random_even_field(rng), random_even_field(rng)
    assert check_identity_spinor(psi, phi, bg, pts) <= 1e-7
    for spinor in (psi, phi):
        assert sum(isinstance(n, Rev) and n.child is spinor for n in evaluated) == 1


def test_singular_h_raises_without_warning():
    """h = diag(x^0, 1, 1, 1) at x^0 = 0: the pushforward aggregates and the
    inverse and star applications refuse the point before dividing by det h."""
    entries = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    entries[0][0] = coordinate(GAMMA[0])
    bg = GaugeBackground(ExtensorField(entries))
    X = random_field(np.random.default_rng(23), {1, 2})
    x = np.array([0.0, 0.3, -0.2, 0.1])
    calls = [
        lambda kind=kind: gauge_del_expr(X, kind, bg).at(x)
        for kind in ("lc", "op", "gp")
    ]
    calls += [lambda v=v: bg.h.apply_expr(X, v).at(x) for v in ("inverse", "star")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(SingularExtensorError):
                call()


def test_rotor_compatibility_oracle():
    """D_a(h(C)) = h(a.dC) for constant C: the closed form behind Omega."""
    bg = rotor_gauge(simple_rotor())
    rng = np.random.default_rng(1)
    for _ in range(5):
        C = Multivector(rng.uniform(-1, 1, 16))
        transported = bg.h.apply_expr(Const(C), "direct")
        x = rng.uniform(-1, 1, 4)
        a = random_vector(rng)
        got = covariant_directional_expr(transported, a, bg).at(x)
        # a.dC = 0 for constant C, so the covariant derivative must vanish
        assert got.norm() <= 1e-10


def test_rotor_transport_of_nonconstant_field():
    rng = np.random.default_rng(2)
    R = random_rotor(rng)
    bg = rotor_gauge(R)
    C = random_field(rng, {1, 2})
    transported = bg.h.apply_expr(C, "direct")
    for _ in range(4):
        x = rng.uniform(-1, 1, 4)
        a = random_vector(rng)
        got = covariant_directional_expr(transported, a, bg).at(x)
        want = bg.h.apply_expr(C.deriv(a), "direct").at(x)
        assert (got - want).norm() <= 1e-9


def test_non_unit_rotor_rejected():
    grower = prod(
        Const(ONE + Multivector.blade(0b0110, 0.0)),
        ScalarMap(coordinate(GAMMA[0]), "exp"),
        "gp",
    )
    with pytest.raises(RotorError):
        rotor_gauge(grower)
    with pytest.raises(GradeError):
        RotorField(position())


def test_rotor_validation_fails_on_nan():
    """R = x0 / x0 is 1 except at x0 = 0, where it is NaN: NaN > tol is False."""
    x0 = coordinate(GAMMA[0])
    R = RotorField(prod(x0, ScalarMap(x0, "recip"), "gp"))
    assert R.validate(np.array([[0.5, 0.1, 0.2, 0.3]])) == 0.0
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(RotorError):
        R.validate(np.array([[0.0, 0.1, 0.2, 0.3], [0.5, 0.1, 0.2, 0.3]]))


def test_covariant_directional_reductions():
    idbg = identity_background()
    rng = np.random.default_rng(3)
    X = random_field(rng, {1, 2})
    x = rng.uniform(-1, 1, 4)
    a = random_vector(rng)
    got = covariant_directional_expr(X, a, idbg).at(x)
    assert (got - X.deriv(a).at(x)).norm() <= 1e-14
    # constant scalar field: scalars are central, so Omega x X = 0
    bg = rotor_gauge(simple_rotor())
    const_scalar = Const(Multivector.scalar(2.5))
    assert covariant_directional_expr(const_scalar, a, bg).at(x).norm() <= 1e-14
    # directions are normalised as by FieldExpr.deriv
    four = covariant_directional_expr(X, a.vector_coords(), bg).at(x)
    assert np.array_equal(four.comps, covariant_directional_expr(X, a, bg).at(x).comps)
    with pytest.raises(GradeError):
        covariant_directional_expr(X, PSEUDOSCALAR, bg)


def test_spinor_directional():
    rng = np.random.default_rng(4)
    idbg = identity_background()
    psi = random_even_field(rng)
    x = rng.uniform(-1, 1, 4)
    a = random_vector(rng)
    got = spinor_directional_expr(psi, a, idbg).at(x)
    assert (got - psi.deriv(a).at(x)).norm() <= 1e-14
    # constant spinor with a nonzero connection: only the (1/2) Omega psi term
    om = random_omega(rng)
    bg = GaugeBackground(ExtensorField.identity(), om)
    psi0 = Multivector(rng.uniform(-1, 1, 16)).restrict({0, 2, 4})
    got = spinor_directional_expr(Const(psi0), a, bg).at(x)
    want = 0.5 * (om.expr(a).at(x) * psi0)
    assert (got - want).norm() <= 1e-13
    # directions are normalised as by FieldExpr.deriv
    four = spinor_directional_expr(Const(psi0), a.vector_coords(), bg).at(x)
    assert np.array_equal(four.comps, got.comps)
    with pytest.raises(GradeError):
        spinor_directional_expr(psi, PSEUDOSCALAR, bg)


@pytest.mark.parametrize("kind", ["divergence", "curl", "gradient", "sp", "bogus"])
def test_aggregates_refuse_names_that_are_not_kinds(kind):
    """Mode names and non-aggregate products raise, for a zero field too."""
    X = random_field(np.random.default_rng(4), {0, 1, 2})
    for child in (X, ZERO):
        with pytest.raises(ValueError, match="kind must be one of"):
            del_expr_kind(child, kind)
    # the omega and the pushforward construction on the same h
    for bg in (identity_background(), GaugeBackground(ExtensorField.identity())):
        with pytest.raises(ValueError, match="kind must be one of"):
            gauge_del_expr(X, kind, bg)


def test_gauge_del_flat_limit():
    idbg = identity_background()
    rng = np.random.default_rng(5)
    X = random_field(rng, {0, 1, 2})
    x = rng.uniform(-1, 1, 4)
    for kind in ("gp", "lc", "op"):
        flat = del_expr_kind(X, kind).at(x)
        for bg in (idbg, GaugeBackground(idbg.h)):
            got = gauge_del_expr(X, kind, bg).at(x)
            assert (got - flat).norm() <= 1e-12


def test_gauge_del_constructions_agree_on_rotor_background():
    rng = np.random.default_rng(6)
    bg = rotor_gauge(random_rotor(rng))
    pts = random_points(rng, 30)
    for _ in range(3):
        X = random_field(rng, {0, 1, 2, 3, 4})
        assert check_pushforward_vs_omega(X, bg, pts) <= 1e-8


def test_pushforward_curl_of_scaled_position():
    # constant h = 2 id: D ^ x = h*[d ^ (2x)] = 0, the curl of a linear
    # isotropic field
    h2 = ExtensorField.from_matrix(2.0 * np.eye(4))
    bg = GaugeBackground(h2)
    x = np.array([0.7, -0.1, 0.4, 0.2])
    got = gauge_del_expr(position(), "op", bg).at(x)
    assert got.norm() <= 1e-13


def test_gauge_del_singular_h_rejected():
    entries = [[Const(Multivector.scalar(0.0)) for _ in range(4)] for _ in range(4)]
    bad = GaugeBackground(ExtensorField(entries))
    with pytest.raises(SingularExtensorError):
        gauge_del_expr(position(), "op", bad).at(np.zeros(4))


def test_gauge_identity_flat_limit():
    rng = np.random.default_rng(7)
    pts = random_points(rng, 30)
    idbg = identity_background()
    X = random_field(rng, {0, 1, 2, 3, 4})
    Y = random_field(rng, {0, 1, 2, 3, 4})
    for kind in ("lc", "op", "gp"):
        assert check_identity_gauge(X, Y, kind, idbg, pts) <= 1e-8


def test_gauge_identities_rotor_and_pushforward():
    rng = np.random.default_rng(8)
    pts = random_points(rng, 40)
    rotor_bg = rotor_gauge(random_rotor(rng))
    free_bg = GaugeBackground(random_invertible_h(rng))
    # constant non-orthogonal h is also fine for the pushforward construction
    const_h = GaugeBackground(
        ExtensorField.from_matrix(np.eye(4) + 0.2 * np.arange(16).reshape(4, 4) / 16)
    )
    for kind in ("lc", "op", "gp"):
        for _ in range(2):
            X = random_field(rng, {0, 1, 2, 3, 4})
            Y = random_field(rng, {0, 1, 2, 3, 4})
            assert check_identity_gauge(X, Y, kind, rotor_bg, pts) <= 1e-7
            assert check_identity_gauge(X, Y, kind, free_bg, pts) <= 1e-7
            assert check_identity_gauge(X, Y, kind, const_h, pts) <= 1e-7


def test_spinor_identities():
    rng = np.random.default_rng(9)
    pts = random_points(rng, 30)
    bg = rotor_gauge(random_rotor(rng))
    for _ in range(3):
        psi = random_even_field(rng)
        phi = random_even_field(rng)
        assert check_identity_spinor(psi, phi, bg, pts) <= 1e-7
    # the derivative form holds for arbitrary, incompatible connections
    wild = GaugeBackground(random_invertible_h(rng), random_omega(rng))
    for _ in range(3):
        psi = random_even_field(rng)
        phi = random_even_field(rng)
        assert check_identity_spinor(psi, phi, wild, pts) <= 1e-7
    with pytest.raises(GradeError):
        check_identity_spinor(position(), phi, bg, pts)


def test_spinor_identity_constant_equal_spinors():
    """The grade-2 cancellation mechanism at psi = phi = const."""
    rng = np.random.default_rng(10)
    om = random_omega(rng)
    bg = GaugeBackground(ExtensorField.identity(), om)
    psi0 = Multivector(rng.uniform(-1, 1, 16)).restrict({0, 2, 4})
    pts = random_points(rng, 20)
    psi = Const(psi0)
    assert check_identity_spinor(psi, psi, bg, pts) <= 1e-12
    # directly: sum_mu h*(g^mu) . <psi Omega(g_mu) psi~>_2 = 0 by grade
    worst = 0.0
    for mu in range(4):
        w = (psi0 * om.column(mu).at(pts[0])) * psi0.reverse()
        worst = max(worst, abs(sta.GAMMA_UP[mu].sp(w)))
    assert worst <= 1e-13


def test_spinor_identity_needs_a_connection():
    rng = np.random.default_rng(13)
    bg = GaugeBackground(random_invertible_h(rng))
    psi, phi = random_even_field(rng), random_even_field(rng)
    with pytest.raises(ValueError, match="spinor derivatives need a connection field"):
        check_identity_spinor(psi, phi, bg, random_points(rng, 5))


def test_everything_that_reads_omega_refuses_a_background_without_one():
    """No operation that reads Omega falls back to Omega = 0 on a bare h."""
    rng = np.random.default_rng(17)
    bg = GaugeBackground(random_invertible_h(rng))
    X, psi, pts = random_field(rng, {1, 2}), random_even_field(rng), random_points(rng, 5)
    calls = [
        lambda: covariant_directional_expr(X, GAMMA[0], bg),
        lambda: spinor_directional_expr(psi, GAMMA[0], bg),
        lambda: spinor_grad_expr(psi, bg),
        lambda: check_identity_spinor(psi, psi, bg, pts),
        lambda: check_spinor_gradient_split(psi, bg, pts),
        lambda: check_pushforward_vs_omega(X, bg, pts),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need a connection field"):
            call()


def test_the_background_decides_the_construction():
    """h = 1 with a nonzero Omega: the background's Omega enters the
    aggregate, and GaugeBackground(bg.h) is the pushforward, the flat one."""
    rng = np.random.default_rng(18)
    bg = GaugeBackground(ExtensorField.identity(), random_omega(rng))
    X = random_field(rng, {0, 1, 2})
    pts = random_points(rng, 10)
    with_omega, pushed, flat = evaluate(
        (gauge_del_expr(X, "gp", bg), gauge_del_expr(X, "gp", GaugeBackground(bg.h)),
         del_expr_kind(X, "gp")),
        pts,
    )
    assert np.abs(with_omega - flat).max() > 1e-3
    assert np.abs(pushed - flat).max() <= 1e-12


def test_construction_agreement_fails_on_an_incompatible_connection():
    """Omega unrelated to h: the two constructions disagree, so the check can fail."""
    rng = np.random.default_rng(5)
    bg = GaugeBackground(random_invertible_h(rng), random_omega(rng))
    pts = random_points(rng, 10)
    assert check_pushforward_vs_omega(random_field(rng, {0, 1, 2, 3, 4}), bg, pts) > 1e-3


@pytest.mark.parametrize("singular_first", [True, False])
def test_spinor_identity_fails_on_a_spinor_that_is_not_finite(singular_first):
    """Omega = 0 prunes every connection term, so no residual term reads psi
    or phi; a spinor that is infinite at one point must still fail."""
    rng = np.random.default_rng(14)
    pts = random_points(rng, 10)
    pts[3, 0] = 0.0
    singular = prod(ScalarMap(coordinate(GAMMA[0]), "recip"), random_even_field(rng), "gp")
    pair = (singular, random_even_field(rng))
    psi, phi = pair if singular_first else pair[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = check_identity_spinor(psi, phi, identity_background(), pts)
    assert not residual <= 1e-7


def test_spinor_identity_fails_without_the_reverse(monkeypatch):
    """With Rev the identity, w = phi Omega psi + psi Omega phi keeps grade-0
    and grade-4 parts, which the non-grade-2 residual reads: the check fails
    on finite spinors too."""
    from multiform import gauge

    rng = np.random.default_rng(16)
    bg, pts = random_rotor_background(rng), random_points(rng, 10)
    psi, phi = random_even_field(rng), random_even_field(rng)
    assert check_identity_spinor(psi, phi, bg, pts) <= 1e-7
    monkeypatch.setattr(gauge, "Rev", lambda X: X)
    assert check_identity_spinor(psi, phi, bg, pts) > 1e-7


def test_spinor_gradient_pairings_with_an_even_field_are_zero():
    """Why check_identity_spinor compares no aggregate pairing: D^s psi and
    D psi have grades {1, 3}, an even phi has {0, 2, 4}, and sta.sp pairs
    each blade with itself, so both pairings are exactly 0.0 at every point,
    on a rotor background and on an incompatible one."""
    rng = np.random.default_rng(15)
    pts = random_points(rng, 20)
    for bg in (
        rotor_gauge(random_rotor(rng)),
        GaugeBackground(random_invertible_h(rng), random_omega(rng)),
    ):
        for _ in range(2):
            psi, phi = random_even_field(rng), random_even_field(rng)
            ds_psi, d_psi, phiv = evaluate(
                (spinor_grad_expr(psi, bg), gauge_del_expr(psi, "gp", bg), phi), pts
            )
            for grad in (ds_psi, d_psi):
                assert np.abs(grad).max() > 0.1  # zero by grade, not by value
                assert np.all(sta.sp(grad, phiv) == 0.0)


def test_spinor_gradient_split_identity():
    rng = np.random.default_rng(11)
    pts = random_points(rng, 25)
    for bg in (
        rotor_gauge(random_rotor(rng)),
        GaugeBackground(random_invertible_h(rng), random_omega(rng)),
    ):
        for _ in range(2):
            psi = random_even_field(rng)
            assert check_spinor_gradient_split(psi, bg, pts) <= 1e-9
    with pytest.raises(GradeError):
        check_spinor_gradient_split(position(), bg, pts)


def test_spinor_grad_flat_reduction():
    idbg = identity_background()
    rng = np.random.default_rng(12)
    psi = random_even_field(rng)
    x = rng.uniform(-1, 1, 4)
    got = spinor_grad_expr(psi, idbg).at(x)
    want = del_expr_kind(psi, "gp").at(x)
    assert (got - want).norm() <= 1e-13
