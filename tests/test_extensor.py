"""Extensor and outermorphism tests; oracles are matrix algebra and the
adjoint-defining relation."""

import numpy as np
import pytest

from multiform.extensor import (
    Extensor11,
    SingularExtensorError,
    adjoint,
    determinant,
    extend,
    gauge_star,
    invert,
    outermorphism_matrix,
)
from multiform.sta import GAMMA, Multivector, ONE, PSEUDOSCALAR


def random_invertible(rng, min_det=0.1) -> Extensor11:
    while True:
        m = rng.uniform(-1, 1, (4, 4)) + np.eye(4)
        if abs(np.linalg.det(m)) > min_det:
            return Extensor11(m)


def from_images(images) -> Extensor11:
    """The extensor with t(g_mu) = images[mu]: column mu holds its coordinates."""
    return Extensor11(np.stack([img.vector_coords() for img in images], axis=1))


def test_apply_basics():
    ident = Extensor11.identity()
    a = Multivector.vector([0.3, -1.2, 0.4, 2.0])
    assert ident(a) == a
    assert Extensor11(2.0 * np.eye(4))(GAMMA[1]) == 2.0 * GAMMA[1]
    shear = from_images([GAMMA[0] + GAMMA[1], GAMMA[1], GAMMA[2], GAMMA[3]])
    assert shear(GAMMA[0]) == GAMMA[0] + GAMMA[1]
    assert shear(GAMMA[2]) == GAMMA[2]


def test_adjoint_defining_relation_exhaustive():
    shear = from_images([GAMMA[0] + GAMMA[1], GAMMA[1], GAMMA[2], GAMMA[3]])
    shear_adj = adjoint(shear)
    for mu in range(4):
        for nu in range(4):
            assert shear(GAMMA[mu]).sp(GAMMA[nu]) == pytest.approx(
                GAMMA[mu].sp(shear_adj(GAMMA[nu])), abs=1e-14
            )
    assert np.allclose(adjoint(shear_adj).m, shear.m)
    assert np.allclose(adjoint(Extensor11.identity()).m, np.eye(4))
    lam = Extensor11(-0.7 * np.eye(4))
    assert np.allclose(adjoint(lam).m, lam.m)


def test_adjoint_matrix_formula():
    rng = np.random.default_rng(0)
    eta = np.diag([1.0, -1, -1, -1])
    for _ in range(20):
        t = random_invertible(rng)
        assert np.allclose(adjoint(t).m, eta @ t.m.T @ eta)


def test_extension_basics():
    rng = np.random.default_rng(1)
    x = Multivector(rng.uniform(-1, 1, 16))
    assert extend(Extensor11.identity(), x).isclose(x, tol=1e-14)
    t = random_invertible(rng)
    want = t(GAMMA[1]) ^ t(GAMMA[2])
    got = extend(t, GAMMA[1] ^ GAMMA[2])
    assert np.allclose(got.comps, want.comps, atol=1e-13)
    assert extend(Extensor11(2.0 * np.eye(4)), PSEUDOSCALAR) == 16.0 * PSEUDOSCALAR
    assert extend(t, ONE) == ONE
    assert extend(t, GAMMA[3]).isclose(t(GAMMA[3]), tol=1e-14)
    assert extend(t, PSEUDOSCALAR).isclose(
        determinant(t) * PSEUDOSCALAR, tol=1e-12 * abs(determinant(t))
    )


def test_extension_outermorphism_property_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_invertible(rng)
        A = Multivector(rng.uniform(-1, 1, 16)).restrict({0, 1, 2})
        B = Multivector(rng.uniform(-1, 1, 16)).restrict({1, 3})
        lhs = extend(t, A ^ B)
        rhs = extend(t, A) ^ extend(t, B)
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


def test_contraction_transport_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = random_invertible(rng)
        tadj = adjoint(t)
        for mu in range(4):
            a = GAMMA[mu]
            for bm in range(16):
                B = Multivector.blade(bm)
                lhs = a << extend(t, B)
                rhs = extend(t, tadj(a) << B)
                assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


def test_adjoint_extension_pairing():
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = random_invertible(rng)
        r = int(rng.integers(0, 5))
        A = Multivector(rng.uniform(-1, 1, 16)).restrict({r})
        B = Multivector(rng.uniform(-1, 1, 16)).restrict({r})
        assert extend(t, A).sp(B) == pytest.approx(
            A.sp(extend(adjoint(t), B)), abs=1e-10
        )


def test_determinant():
    assert determinant(Extensor11.identity()) == 1.0
    # extension-to-pseudoscalar oracle for the uniform scaling
    big = outermorphism_matrix(2.0 * np.eye(4))
    assert big[15, 15] == 16.0
    assert determinant(Extensor11(2.0 * np.eye(4))) == 16.0
    rng = np.random.default_rng(5)
    for _ in range(30):
        t = random_invertible(rng)
        s = random_invertible(rng)
        d = determinant(t)
        # matrix-determinant oracle and multiplicativity
        assert d == pytest.approx(np.linalg.det(t.m), rel=1e-12)
        assert determinant(invert(t)) == pytest.approx(1.0 / d, rel=1e-9)
        assert determinant(t.compose(s)) == pytest.approx(
            d * determinant(s), rel=1e-10
        )
        assert determinant(adjoint(t)) == pytest.approx(d, rel=1e-10)


def test_invert_and_gauge_star():
    assert np.allclose(gauge_star(Extensor11.identity()).m, np.eye(4))
    lam = 2.5
    assert np.allclose(gauge_star(Extensor11(lam * np.eye(4))).m, np.eye(4) / lam)
    rng = np.random.default_rng(6)
    for _ in range(30):
        h = random_invertible(rng)
        hi = invert(h)
        assert np.allclose(hi.m @ h.m, np.eye(4), atol=1e-10)
        star = gauge_star(h)
        assert determinant(star) * determinant(h) == pytest.approx(1.0, rel=1e-9)


def test_singular_rejection():
    singular = from_images([Multivector.zero(), GAMMA[1], GAMMA[2], GAMMA[3]])
    with pytest.raises(SingularExtensorError):
        invert(singular)
    with pytest.raises(SingularExtensorError):
        gauge_star(singular)


NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("fn", [invert, determinant, gauge_star], ids=lambda fn: fn.__name__)
def test_non_finite_matrix_is_refused(fn, value):
    """A NaN passes the determinant cross-check and the singularity gate, and
    an infinity inverts to a 0 on the diagonal: both are refused by name."""
    for m in (np.full((4, 4), value), np.diag([value, 1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            fn(Extensor11(m))


def test_extensors_compare_by_value_and_are_unhashable():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    assert Extensor11(np.eye(4)) == Extensor11(np.eye(4))
    assert Extensor11(m) == Extensor11(m.copy())
    bumped = m.copy()
    bumped[1, 2] = np.nextafter(bumped[1, 2], np.inf)
    assert Extensor11(m) != Extensor11(bumped)
    assert Extensor11(np.eye(4)) != ONE
    nan = Extensor11(np.full((4, 4), np.nan))
    assert nan != nan  # array_equal: NaN equals nothing, itself included
    with pytest.raises(TypeError):
        hash(Extensor11(m))
