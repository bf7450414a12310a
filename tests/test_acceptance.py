"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line with the measured figure and its
bound; runtime budgets are part of the criteria and asserted as well.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from multiform import sta
from multiform.extensor import (
    Extensor11,
    adjoint,
    determinant,
    gauge_star,
    outermorphism_matrix,
)
from multiform.fields import (
    BladeExp,
    Const,
    ScalarMap,
    check_identity_flat,
    coordinate,
    del_expr_kind,
    multivector_derivative,
    prod,
    scale,
)
from multiform.gauge import (
    GaugeBackground,
    check_identity_gauge,
    check_identity_spinor,
    check_pushforward_vs_omega,
    check_spinor_gradient_split,
    rotor_gauge,
    spinor_grad_expr,
)
from multiform.lagrangian import (
    I_SIGMA3,
    decomposition_check,
    ele_residual_flat,
    ele_residual_gauge,
    ele_residual_spinor,
    make_builtin,
)
from multiform.lattice import (
    Lattice,
    LatticeField,
    action_gradient,
    discrete_ele_residual,
    discrete_gauss,
    discretize,
    maxwell_operator,
    solve_maxwell,
)
from multiform.sampling import (
    random_even_field,
    random_field,
    random_invertible_h,
    random_multivector,
    random_omega,
    random_points,
    random_rotor,
)
from multiform.sta import GAMMA, Multivector

ALL_GRADES = {0, 1, 2, 3, 4}


def _report(num, label, value, bound, elapsed, budget):
    ok = value <= bound and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    print(
        f"[criterion {num}] {status}: {label}: measured {value:.3e} "
        f"(bound {bound:.1e}), runtime {elapsed:.2f}s (budget {budget:.0f}s)"
    )
    assert value <= bound, f"criterion {num}: {label}: {value:.3e} > {bound:.1e}"
    assert elapsed <= budget, f"criterion {num}: runtime {elapsed:.2f}s > {budget}s"


def test_criterion_1_algebraic_suite():
    t0 = time.perf_counter()
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            lhs = GAMMA[mu] * GAMMA[nu] + GAMMA[nu] * GAMMA[mu]
            worst = max(worst, (lhs - Multivector.scalar(2 * eta[mu, nu])).norm())
    for mu in range(4):
        a = GAMMA[mu]
        for bm in range(16):
            B = Multivector.blade(bm)
            for cm in range(16):
                C = Multivector.blade(cm)
                worst = max(worst, abs((a << B).sp(C) - B.sp(a ^ C)))
    assert worst == 0.0  # the exact parts are exact
    rng = np.random.default_rng(101)
    assoc = 0.0
    for _ in range(200):
        x, y, z = (random_multivector(rng, ALL_GRADES) for _ in range(3))
        scale_ = max(x.norm() * y.norm() * z.norm(), 1e-30)
        assoc = max(assoc, (((x * y) * z) - (x * (y * z))).norm() / scale_)
    _report(1, "algebraic suite", max(worst, assoc), 1e-12, time.perf_counter() - t0, 1.0)


def test_criterion_2_extensor_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    eye16 = np.eye(16)
    worst = 0.0
    count = 0
    while count < 100:
        m = rng.uniform(-1, 1, (4, 4)) + np.eye(4)
        if abs(np.linalg.det(m)) < 0.1:
            continue
        count += 1
        t = Extensor11(m)
        big = outermorphism_matrix(m)
        A = random_multivector(rng, {0, 1, 2})
        B = random_multivector(rng, {1, 2, 3})
        lhs = Multivector(big @ (A ^ B).comps)
        rhs = Multivector(big @ A.comps) ^ Multivector(big @ B.comps)
        worst = max(worst, (lhs - rhs).norm() / max(1.0, lhs.norm()))
        tadj = adjoint(t)
        for mu in range(4):
            lhs_rows = sta.lc(GAMMA[mu].comps, big.T)
            rhs_rows = sta.lc(tadj(GAMMA[mu]).comps, eye16) @ big.T
            worst = max(worst, float(np.abs(lhs_rows - rhs_rows).max()))
        d = determinant(t)
        worst = max(worst, abs(d - np.linalg.det(m)) / max(1.0, abs(d)))
        worst = max(worst, abs(determinant(gauge_star(t)) * d - 1.0))
    _report(2, "extensor suite", worst, 1e-9, time.perf_counter() - t0, 1.0)


def test_criterion_3_flat_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    pts = random_points(rng, 100)
    worst = 0.0
    pair_counts = {"lc": 17, "op": 17, "gp": 16}  # 50 field pairs in total
    for kind, npairs in pair_counts.items():
        for _ in range(npairs):
            X = random_field(rng, ALL_GRADES)
            Y = random_field(rng, ALL_GRADES)
            worst = max(worst, check_identity_flat(X, Y, kind, pts))
    split = 0.0
    for _ in range(10):
        X = random_field(rng, ALL_GRADES)
        g = del_expr_kind(X, "gp").sample(pts)
        parts = del_expr_kind(X, "lc").sample(pts) + del_expr_kind(X, "op").sample(pts)
        split = max(split, float(np.abs(g - parts).max()))
    elapsed = time.perf_counter() - t0
    assert split <= 1e-10, f"gradient split {split:.3e} > 1e-10"
    _report(3, "flat identity suite", worst, 1e-8, elapsed, 10.0)


def test_criterion_4_multivector_derivative_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        grades = frozenset(
            rng.choice([0, 1, 2, 3, 4], size=rng.integers(1, 4), replace=False).tolist()
        )
        X0 = random_multivector(rng, grades)
        got = multivector_derivative(lambda W: W.sp(W), X0, grades, poly_degree=2)
        want = 2.0 * X0
        worst = max(worst, (got - want).norm() / max(1.0, want.norm()))

        Y = random_multivector(rng, ALL_GRADES)
        got = multivector_derivative(lambda W: W.sp(Y), X0, grades, poly_degree=1)
        want = Y.restrict(grades)
        worst = max(worst, (got - want).norm() / max(1.0, want.norm()))

        Xe = random_multivector(rng, {0, 2, 4})
        Yv = random_multivector(rng, ALL_GRADES)
        Zv = random_multivector(rng, ALL_GRADES)
        got = multivector_derivative(
            lambda W: ((Yv * W) * Zv).sp(W), Xe, {0, 2, 4}, poly_degree=2
        )
        want = ((Yv * Xe) * Zv + (Yv.reverse() * Xe) * Zv.reverse()).restrict({0, 2, 4})
        worst = max(worst, (got - want).norm() / max(1.0, want.norm()))
    _report(4, "multivector-derivative suite", worst, 1e-6, time.perf_counter() - t0, 5.0)


def test_criterion_5_gauge_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    pts = random_points(rng, 100)
    bg = rotor_gauge(random_rotor(rng))

    worst = 0.0
    pair_counts = {"lc": 9, "op": 8, "gp": 8}  # 50 fields on the rotor background
    for kind, npairs in pair_counts.items():
        for _ in range(npairs):
            X = random_field(rng, ALL_GRADES)
            Y = random_field(rng, ALL_GRADES)
            worst = max(worst, check_identity_gauge(X, Y, kind, bg, pts))

    hbg = GaugeBackground(random_invertible_h(rng))
    for kind in ("lc", "op", "gp"):
        for _ in range(3):
            X = random_field(rng, ALL_GRADES)
            Y = random_field(rng, ALL_GRADES)
            worst = max(worst, check_identity_gauge(X, Y, kind, hbg, pts))

    # spinor identities on the rotor background, and the derivative form for
    # an arbitrary incompatible bivector connection
    for _ in range(5):
        psi = random_even_field(rng)
        phi = random_even_field(rng)
        worst = max(worst, check_identity_spinor(psi, phi, bg, pts))
    wild = GaugeBackground(random_invertible_h(rng), random_omega(rng))
    for _ in range(5):
        psi = random_even_field(rng)
        phi = random_even_field(rng)
        worst = max(worst, check_identity_spinor(psi, phi, wild, pts))

    # covariant-vs-pushforward agreement and the gradient split
    for _ in range(4):
        X = random_field(rng, ALL_GRADES)
        worst = max(worst, check_pushforward_vs_omega(X, bg, pts))
    split = 0.0
    for background in (bg, wild):
        for _ in range(3):
            psi = random_even_field(rng)
            split = max(split, check_spinor_gradient_split(psi, background, pts))
    elapsed = time.perf_counter() - t0
    assert split <= 1e-9, f"spinor gradient split {split:.3e} > 1e-9"
    _report(5, "gauge identity suite", worst, 1e-7, elapsed, 30.0)


def test_criterion_6_ele_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    pts = random_points(rng, 20)

    # (i) flat Maxwell: null plane wave with transverse polarization
    L = make_builtin("maxwell_flat")
    k = Multivector.vector([1.0, 1.0, 0.0, 0.0])
    assert k.sp(k) == 0.0 and k.sp(GAMMA[2]) == 0.0
    A = prod(Const(GAMMA[2]), ScalarMap(coordinate(k), "cos"), "gp")
    maxwell_worst = max(
        ele_residual_flat(L, A, pts[i]).norm() for i in range(pts.shape[0])
    )

    # (ii) flat Dirac: candidate validated by substitution, then the residual
    params = {"m": 1.3, "hbar": 0.7, "c": 1.1, "e": 0.8}
    Ld = make_builtin("dirac_flat", params=params)
    mc = params["m"] * params["c"]
    psi = BladeExp(
        GAMMA[1] ^ GAMMA[2], scale(mc / params["hbar"], coordinate(GAMMA[0]))
    )
    substitution = max(
        (
            (del_expr_kind(psi, "gp").at(pts[i]) * I_SIGMA3) * params["hbar"]
            - (psi.at(pts[i]) * GAMMA[0]) * mc
        ).norm()
        for i in range(pts.shape[0])
    )
    assert substitution <= 1e-10, "candidate fails the first-order equation"
    dirac_worst = max(
        ele_residual_flat(Ld, psi, pts[i]).norm() for i in range(pts.shape[0])
    )

    # (iii) gauge-transported solutions on a rotor background
    R = random_rotor(rng)
    bg = rotor_gauge(R)
    Lg = make_builtin("maxwell_gauge")
    A_g = bg.h.apply_expr(A, "direct")
    gauge_worst = 0.0
    # the omega and the pushforward construction on the same h
    for background in (bg, GaugeBackground(bg.h)):
        gauge_worst = max(
            gauge_worst,
            max(
                ele_residual_gauge(Lg, A_g, pts[i], background).norm()
                for i in range(8)
            ),
        )
    Lgd = make_builtin("dirac_gauge", params=params)
    psi_g = prod(R, psi, "gp")
    gauge_worst = max(
        gauge_worst,
        max(ele_residual_spinor(Lgd, psi_g, pts[i], bg).norm() for i in range(8)),
    )
    first_order = max(
        (
            (spinor_grad_expr(psi_g, bg).at(pts[i]) * I_SIGMA3) * params["hbar"]
            - (psi_g.at(pts[i]) * GAMMA[0]) * mc
        ).norm()
        for i in range(8)
    )
    elapsed = time.perf_counter() - t0

    assert maxwell_worst <= 1e-9, f"flat Maxwell residual {maxwell_worst:.3e}"
    assert dirac_worst <= 1e-8, f"flat Dirac residual {dirac_worst:.3e}"
    assert first_order <= 1e-6, f"transported first-order residual {first_order:.3e}"
    _report(
        6,
        "field-equation reproduction (gauge part)",
        gauge_worst,
        1e-6,
        elapsed,
        10.0,
    )


def test_criterion_7_decomposition_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    bg = rotor_gauge(random_rotor(rng))
    worst = 0.0
    cases = [
        ("maxwell_flat", {1}, None, 15),
        ("dirac_flat", {0, 2, 4}, None, 15),
        ("maxwell_gauge", {1}, bg, 10),
        ("dirac_gauge", {0, 2, 4}, bg, 10),
    ]
    for name, grades, background, nfields in cases:
        L = make_builtin(name)
        for _ in range(nfields):
            X = random_field(rng, grades)
            A = random_field(rng, grades)
            for _ in range(2):
                x = rng.uniform(-1, 1, 4)
                worst = max(worst, decomposition_check(L, X, A, x, background)[1])
    _report(7, "variation decomposition", worst, 1e-7, time.perf_counter() - t0, 20.0)


def test_criterion_8_lattice_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    L = make_builtin("maxwell_flat")

    duality = 0.0
    for bc in ("periodic", "dirichlet"):
        lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 8, bc=bc)
        comps = rng.uniform(-1, 1, lat.shape + (16,)) * sta.grade_mask({1})
        F = LatticeField(lat, frozenset({1}), comps)
        grad = action_gradient(L, F)
        res = discrete_ele_residual(L, F)
        dev = np.abs(grad.comps - lat.cell_volume * res.comps)[lat.interior_mask()]
        duality = max(duality, float(dev.max()))
    assert duality <= 1e-10, f"duality deviation {duality:.3e}"

    gauss = 0.0
    for bc in ("periodic", "dirichlet"):
        lat = Lattice(np.zeros(4), 3.0 * np.ones(4), 8, bc=bc)
        v = LatticeField(
            lat,
            frozenset({1}),
            rng.uniform(-1, 1, lat.shape + (16,)) * sta.grade_mask({1}),
        )
        vol, flux = discrete_gauss(v)
        gauss = max(gauss, abs(vol - flux))
    assert gauss <= 1e-12, f"discrete Gauss deviation {gauss:.3e}"

    def rms_residual(n):
        lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, bc="periodic")
        k1 = Multivector.vector([0.0, 1.0, 0.0, 0.0])
        cosfield = prod(Const(GAMMA[2]), ScalarMap(coordinate(k1), "cos"), "gp")
        Lsrc = make_builtin("maxwell_flat", sources={"J": cosfield})
        F = discretize(cosfield, lat, {1})
        resid = discrete_ele_residual(Lsrc, F).comps
        return float(np.linalg.norm(resid) / np.sqrt(lat.n_sites))

    order = float(np.log(rms_residual(6) / rms_residual(12)) / np.log(2.0))
    assert 1.8 <= order <= 2.2, f"convergence order {order:.3f} outside [1.8, 2.2]"

    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 8, bc="periodic")
    xs = lat.coords()
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.cos(xs[..., 1])
    op = maxwell_operator(lat)
    jc = op(astar)
    A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), jc), tol=1e-8)
    rel = float(np.linalg.norm(A.comps - astar) / np.linalg.norm(astar))
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 8] duality {duality:.2e}, gauss {gauss:.2e}, "
        f"order {order:.3f}, solve error {rel:.2e}"
    )
    _report(8, "lattice suite (solve error)", rel, 1e-6, elapsed, 120.0)
