"""Cl(1,3) kernel tests against a brute-force reordering oracle."""

import numpy as np
import pytest

from multiform.sta import (
    GAMMA,
    GAMMA_UP,
    Multivector,
    ONE,
    PSEUDOSCALAR,
    commutator_product,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def blade_product_oracle(a_mask: int, b_mask: int) -> tuple[int, float]:
    """Multiply basis blades by explicit bubble sorting of generator lists.

    Independent of the table construction: sorts the concatenated factor
    list with adjacent transpositions (each flipping the sign), then
    contracts adjacent equal generators with their metric square.
    """
    seq = [k for k in range(4) if a_mask & (1 << k)] + [
        k for k in range(4) if b_mask & (1 << k)
    ]
    sign = 1.0
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] == seq[i + 1]:
                sign *= ETA[seq[i], seq[i]]
                del seq[i : i + 2]
                i = max(i - 1, 0)
                changed = True
            elif seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign *= -1.0
                changed = True
                i += 1
            else:
                i += 1
    mask = 0
    for k in seq:
        mask |= 1 << k
    return mask, sign


def test_geometric_product_matches_oracle_exhaustively():
    for a in range(16):
        for b in range(16):
            mask, sign = blade_product_oracle(a, b)
            got = Multivector.blade(a) * Multivector.blade(b)
            want = Multivector.blade(mask, sign)
            assert got == want, (a, b)


def test_generator_anticommutation_exact():
    for mu in range(4):
        for nu in range(4):
            lhs = GAMMA[mu] * GAMMA[nu] + GAMMA[nu] * GAMMA[mu]
            assert lhs == Multivector.scalar(2.0 * ETA[mu, nu])


def test_spec_product_examples():
    # g0 g0 = 1, orthogonal generators wedge to the bivector blade
    assert GAMMA[0] * GAMMA[0] == ONE
    assert GAMMA[1] * GAMMA[2] == Multivector.blade(0b0110)
    # pseudoscalar squared via the reordering oracle
    mask, sign = blade_product_oracle(0b1111, 0b1111)
    assert (mask, sign) == (0, -1.0)
    assert PSEUDOSCALAR * PSEUDOSCALAR == Multivector.scalar(-1.0)


def test_outer_product_cases():
    assert (GAMMA[1] ^ GAMMA[2]) == Multivector.blade(0b0110)
    assert (GAMMA[1] ^ GAMMA[1]) == Multivector.zero()
    assert (PSEUDOSCALAR ^ GAMMA[0]) == Multivector.zero()  # grade overflow
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = Multivector(rng.uniform(-1, 1, 16))
        y = Multivector(rng.uniform(-1, 1, 16))
        # graded parts: <X>_r ^ <Y>_s = <<X>_r <Y>_s>_{r+s}
        for r in range(5):
            for s in range(5):
                want = (
                    (x.grade(r) * y.grade(s)).grade(r + s)
                    if r + s <= 4
                    else Multivector.zero()
                )
                got = x.grade(r) ^ y.grade(s)
                assert np.allclose(got.comps, want.comps, atol=1e-14)


def test_left_contraction_cases():
    e01 = GAMMA[0] * GAMMA[1]
    # grade-projection-of-product oracle
    want = (GAMMA[0] * e01).grade(1)
    assert (GAMMA[0] << e01) == want == GAMMA[1]
    # r > s vanishes
    assert (GAMMA[2] << ONE) == Multivector.zero()
    # a . (b ^ c) = (a.b) c - (a.c) b, brute force over all basis triples
    for i in range(4):
        for j in range(4):
            for k in range(4):
                a, b, c = GAMMA[i], GAMMA[j], GAMMA[k]
                got = a << (b ^ c)
                want = c * a.sp(b) - b * a.sp(c)
                assert np.allclose(got.comps, want.comps, atol=1e-14)


def test_scalar_product_reciprocal_basis():
    for mu in range(4):
        for nu in range(4):
            assert GAMMA_UP[mu].sp(GAMMA[nu]) == (1.0 if mu == nu else 0.0)
            assert GAMMA[mu].sp(GAMMA[nu]) == ETA[mu, nu]
    # <i reverse(i)>_0 by direct multiplication
    direct = (PSEUDOSCALAR * PSEUDOSCALAR.reverse()).grade(0)
    assert PSEUDOSCALAR.sp(PSEUDOSCALAR) == direct.comps[0] == -1.0
    # distinct blades are orthogonal
    assert Multivector.blade(0b0011).sp(Multivector.blade(0b1100)) == 0.0


def test_scalar_product_from_reversion_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = Multivector(rng.uniform(-1, 1, 16))
        y = Multivector(rng.uniform(-1, 1, 16))
        assert x.sp(y) == pytest.approx((x * y.reverse()).comps[0], abs=1e-13)


def test_reversion():
    assert GAMMA[0].reverse() == GAMMA[0]
    assert Multivector.blade(0b0011).reverse() == Multivector.blade(0b0011, -1.0)
    assert PSEUDOSCALAR.reverse() == PSEUDOSCALAR
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = Multivector(rng.uniform(-1, 1, 16))
        y = Multivector(rng.uniform(-1, 1, 16))
        assert x.reverse().reverse() == x
        lhs = (x * y).reverse()
        rhs = y.reverse() * x.reverse()
        assert np.allclose(lhs.comps, rhs.comps, atol=1e-13)


def test_grade_operations():
    x = ONE + GAMMA[0] + Multivector.blade(0b0011)
    assert x.grade(1) == GAMMA[0]
    for bad in (5, 1.5):
        with pytest.raises(ValueError):
            x.grade(bad)
    rng = np.random.default_rng(3)
    y = Multivector(rng.uniform(-1, 1, 16))
    total = sum((y.grade(r) for r in range(5)), Multivector.zero())
    assert total == y
    mixed = GAMMA[0] + Multivector.blade(0b0011) + PSEUDOSCALAR
    kept = mixed.restrict({0, 2, 4})
    assert kept == Multivector.blade(0b0011) + PSEUDOSCALAR
    assert mixed.grade_set() == {1, 2, 4}


def test_commutator_product():
    e12 = GAMMA[1] * GAMMA[2]
    # direct product oracle: (e12 g1 - g1 e12)/2
    want = (e12 * GAMMA[1] - GAMMA[1] * e12) * 0.5
    assert commutator_product(e12, GAMMA[1]) == want == GAMMA[2]
    rng = np.random.default_rng(4)
    x = Multivector(rng.uniform(-1, 1, 16))
    assert commutator_product(x, x) == Multivector.zero()
    assert commutator_product(Multivector.scalar(2.5), x) == Multivector.zero()
    # bivector commutator is grade preserving on homogeneous arguments
    b = Multivector(rng.uniform(-1, 1, 16)).restrict({2})
    for r in range(5):
        xr = Multivector(rng.uniform(-1, 1, 16)).restrict({r})
        assert commutator_product(b, xr).grade_set(1e-13) <= {r}


def test_contraction_duality_exhaustive():
    """(a . B) . C = B . (a ^ C) over all basis combinations, exactly."""
    for mu in range(4):
        a = GAMMA[mu]
        for bm in range(16):
            B = Multivector.blade(bm)
            for cm in range(16):
                C = Multivector.blade(cm)
                assert (a << B).sp(C) == B.sp(a ^ C)


def test_vector_product_decomposition_exhaustive():
    for vm in (1, 2, 4, 8):
        a = Multivector.blade(vm)
        for ym in range(16):
            y = Multivector.blade(ym)
            assert (a * y) == ((a << y) + (a ^ y))


def test_associativity_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y, z = (Multivector(rng.uniform(-1, 1, 16)) for _ in range(3))
        scale = max(x.norm() * y.norm() * z.norm(), 1e-30)
        err = (((x * y) * z) - (x * (y * z))).norm() / scale
        assert err <= 1e-12


def test_pseudoscalar_commutes_with_even_elements():
    rng = np.random.default_rng(6)
    for _ in range(20):
        even = Multivector(rng.uniform(-1, 1, 16)).restrict({0, 2, 4})
        assert np.allclose(
            (PSEUDOSCALAR * even).comps, (even * PSEUDOSCALAR).comps, atol=1e-15
        )


def test_multivector_immutability_and_repr():
    x = GAMMA[0] + Multivector.blade(0b0110, 2.0)
    with pytest.raises(AttributeError):
        x.comps = np.zeros(16)
    assert "e0" in repr(x) and "e12" in repr(x)
    assert repr(Multivector.zero()) == "0"
