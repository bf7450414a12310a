"""Named verification scenarios and their machine-readable reports.

Each scenario runs a battery of checks at configurable seed / point count /
lattice size and records one (name, max residual, tolerance, pass, wall
time) row per check.  A scenario body hands each check the list of all its
residuals; ``_Runner.check`` alone reduces them to the maximum, with
``fields.worst_of``'s rule that a NaN ranks above every number, so a NaN
residual always fails its check.  Reports are deterministic for a fixed
configuration up to the wall-time fields.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import __version__, sta
from .extensor import (
    Extensor11,
    adjoint,
    determinant,
    gauge_star,
    invert,
    outermorphism_matrix,
)
from .fields import (
    BladeExp,
    Const,
    Graded,
    PolyMap,
    Rev,
    ScalarMap,
    _RICHARDSON_OFFSETS,
    _richardson,
    add,
    check_identity_flat,
    coordinate,
    del_expr_kind,
    evaluate,
    gauss_check,
    multivector_derivative,
    position,
    prod,
    scale,
    worst_of,
)
from .gauge import (
    GaugeBackground,
    check_identity_gauge,
    check_identity_spinor,
    check_pushforward_vs_omega,
    check_spinor_gradient_split,
    gauge_del_expr,
    identity_background,
    rotor_gauge,
    spinor_grad_expr,
)
from .lagrangian import (
    decomposition_check,
    ele_residual_flat,
    ele_residual_gauge,
    ele_residual_spinor,
    ele_residual_two_paths,
    I_SIGMA3,
    make_builtin,
    residual_norms,
)
from .lattice import (
    Lattice,
    LatticeField,
    action_gradient,
    discrete_action,
    discrete_ele_residual,
    discrete_gauss,
    discretize,
    maxwell_operator,
    solve_maxwell,
)
from .sampling import (
    random_even_field,
    random_field,
    random_invertible_h,
    random_multivector,
    random_omega,
    random_points,
    random_rotor,
    random_rotor_background,
    random_vector,
)
from .sta import GAMMA, Multivector, PSEUDOSCALAR


class ConfigError(ValueError):
    """A tolerance override that names no check of the scenario; no report is written."""


@dataclass
class ScenarioConfig:
    """Configuration for one scenario run."""

    scenario: str
    seed: int = 0
    points: int = 100
    lattice_n: int = 8
    out: str | None = None
    tolerances: dict = dataclass_field(default_factory=dict)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise KeyError(f"unknown scenario {self.scenario!r}")
        for name in ("seed", "points", "lattice_n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.points < 1:
            raise ValueError("point count must be at least 1")
        if self.lattice_n < 4:
            raise ValueError("lattice size must be at least 4")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ValueError(f"out must be a non-empty path string or null, got {self.out!r}")
        if not isinstance(self.tolerances, Mapping):
            raise ValueError(
                f"tolerances must map check names to numbers, got {self.tolerances!r}"
            )
        for name, tol in self.tolerances.items():
            real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
            if not (real and math.isfinite(tol) and tol > 0):
                raise ValueError(
                    f"tolerance for {name!r} must be a finite positive number, got {tol!r}"
                )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": int(self.seed),
            "points": int(self.points),
            "lattice_n": int(self.lattice_n),
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "out": self.out,
        }


@dataclass
class CheckRecord:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    seconds: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "seconds": float(self.seconds),
        }


@dataclass
class Report:
    config: ScenarioConfig
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
            "version": __version__,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


class _Runner:
    """Collects check records, applying per-check tolerance overrides."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.records: list[CheckRecord] = []

    def check(self, name: str, residuals: list[float], default_tol: float) -> None:
        """Record the worst of one check's residuals; a NaN among them fails it."""
        residual = worst_of(0.0, *residuals)
        tol = float(self.cfg.tolerances.get(name, default_tol))
        elapsed = time.perf_counter() - self._t0
        self.records.append(CheckRecord(name, residual, tol, residual <= tol, elapsed))
        self._t0 = time.perf_counter()

    def start(self) -> None:
        self._t0 = time.perf_counter()


# ---------------------------------------------------------------------------
# scenario bodies
# ---------------------------------------------------------------------------


def _scenario_algebra(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])

    run.check(
        "anticommutation",
        [
            (GAMMA[mu] * GAMMA[nu] + GAMMA[nu] * GAMMA[mu]
             - Multivector.scalar(2 * eta[mu, nu])).norm()
            for mu in range(4)
            for nu in range(4)
        ],
        0.0,
    )

    blades = [Multivector.blade(m) for m in range(16)]
    run.check(
        "contraction-duality",
        [abs((a << B).sp(C) - B.sp(a ^ C)) for a in GAMMA for B in blades for C in blades],
        0.0,
    )

    residuals = []
    for _ in range(200):
        x, y, z = (random_multivector(rng, {0, 1, 2, 3, 4}) for _ in range(3))
        scale_ = max(x.norm() * y.norm() * z.norm(), 1e-30)
        residuals.append((((x * y) * z) - (x * (y * z))).norm() / scale_)
    run.check("associativity", residuals, 1e-12)

    residuals = []
    for _ in range(50):
        x, y = (random_multivector(rng, {0, 1, 2, 3, 4}) for _ in range(2))
        s = max(x.norm() * y.norm(), 1e-30)
        residuals.append(((x * y).reverse() - y.reverse() * x.reverse()).norm() / s)
        residuals.append(abs(x.sp(y) - (x * y.reverse()).grade(0).comps[0]) / s)
    run.check("reversion-and-scalar-product", residuals, 1e-13)

    residuals = [((a * y) - ((a << y) + (a ^ y))).norm() for a in GAMMA for y in blades]
    x = random_multivector(rng, {0, 1, 2, 3, 4})
    residuals.append((sum((x.grade(r) for r in range(5)), Multivector.zero()) - x).norm())
    even = random_multivector(rng, {0, 2, 4})
    residuals.append((PSEUDOSCALAR * even - even * PSEUDOSCALAR).norm())
    run.check("product-decomposition", residuals, 0.0)

    # extensor invariants over random invertible maps
    outer, transport, adj, det = [], [], [], []
    eye16 = np.eye(16)
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
        outer.append((lhs - rhs).norm() / max(1.0, lhs.norm()))
        tadj = adjoint(t)
        for mu in range(4):
            a, ta = GAMMA[mu], tadj(GAMMA[mu])
            lhs_rows = sta.lc(a.comps, big.T)  # rows: a . extend(blade_j)
            rhs_rows = sta.lc(ta.comps, eye16) @ big.T
            transport.append(float(np.abs(lhs_rows - rhs_rows).max()))
        r = int(rng.integers(0, 5))
        A, B = random_multivector(rng, {r}), random_multivector(rng, {r})
        adj.append(
            abs(
                float(sta.sp(big @ A.comps, B.comps))
                - float(sta.sp(A.comps, outermorphism_matrix(tadj.m) @ B.comps))
            )
        )
        d = determinant(t)
        det.append(abs(d - np.linalg.det(m)) / max(1.0, abs(d)))
        star = gauge_star(t)
        det.append(abs(determinant(star) * d - 1.0))
        det.append((invert(t).compose(t)(GAMMA[0]) - GAMMA[0]).norm())
    run.check("outermorphism-multiplicativity", outer, 1e-10)
    run.check("contraction-transport", transport, 1e-9)
    run.check("adjoint-extension", adj, 1e-10)
    run.check("determinant-consistency", det, 1e-9)


def _scenario_identities_flat(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    pts = random_points(rng, cfg.points)
    all_grades = {0, 1, 2, 3, 4}

    pair_counts = {"lc": 17, "op": 17, "gp": 16}
    for kind, npairs in pair_counts.items():
        residuals = [
            check_identity_flat(
                random_field(rng, all_grades), random_field(rng, all_grades), kind, pts
            )
            for _ in range(npairs)
        ]
        run.check(f"identity-flat-{kind}", residuals, 1e-8)

    residuals = []
    for _ in range(10):
        X = random_field(rng, all_grades)
        grad, lc, op = evaluate([del_expr_kind(X, kind) for kind in ("gp", "lc", "op")], pts)
        residuals.append(float(np.abs(grad - (lc + op)).max()))
    run.check("gradient-splits", residuals, 1e-10)

    # midpoint Gauss checks: exact closure for v = x, then trig convergence
    vol, flux = gauss_check(position(), (np.zeros(4), np.ones(4)), 4)
    run.check("gauss-linear", [abs(vol - 4.0), abs(flux - 4.0)], 1e-12)
    v = prod(Const(GAMMA[1]), ScalarMap(coordinate(random_vector(rng)), "sin"), "gp")
    d8 = abs(np.subtract(*gauss_check(v, (np.zeros(4), np.ones(4)), 8)))
    d16 = abs(np.subtract(*gauss_check(v, (np.zeros(4), np.ones(4)), 16)))
    ratio = d8 / max(d16, 1e-300)
    run.check("gauss-quadratic-convergence", [abs(ratio - 4.0)], 0.8)


def _scenario_identities_gauge(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    pts = random_points(rng, cfg.points)
    all_grades = {0, 1, 2, 3, 4}

    # each background is drawn when the loop reaches it, after the fields before it
    bg = random_rotor_background(rng)
    for label, draw, counts in (
        ("rotor", lambda: bg, (6, 6, 5)),
        ("pushforward", lambda: GaugeBackground(random_invertible_h(rng)), (3, 3, 3)),
    ):
        background = draw()
        for kind, npairs in zip(("lc", "op", "gp"), counts):
            residuals = [
                check_identity_gauge(
                    random_field(rng, all_grades), random_field(rng, all_grades), kind,
                    background, pts,
                )
                for _ in range(npairs)
            ]
            run.check(f"identity-gauge-{label}-{kind}", residuals, 1e-7)

    residuals = [
        check_pushforward_vs_omega(random_field(rng, all_grades), bg, pts) for _ in range(5)
    ]
    run.check("construction-agreement", residuals, 1e-7)

    for name, draw in (
        ("spinor-identities-rotor", lambda: bg),
        (
            "spinor-identity-arbitrary-omega",
            lambda: GaugeBackground(random_invertible_h(rng), random_omega(rng)),
        ),
    ):
        background = draw()
        residuals = [
            check_identity_spinor(random_even_field(rng), random_even_field(rng), background, pts)
            for _ in range(5)
        ]
        run.check(name, residuals, 1e-7)
    incompatible = background  # the last one drawn: an h with an arbitrary Omega

    residuals = [
        check_spinor_gradient_split(random_even_field(rng), background, pts)
        for background in (bg, incompatible)
        for _ in range(3)
    ]
    run.check("spinor-gradient-split", residuals, 1e-9)

    residuals = []
    X = random_field(rng, all_grades)
    flat_bg = identity_background()
    for kind in ("gp", "lc", "op"):
        want = del_expr_kind(X, kind).sample(pts[:10])
        for background in (flat_bg, GaugeBackground(flat_bg.h)):
            got = gauge_del_expr(X, kind, background).sample(pts[:10])
            residuals.extend(residual_norms(got - want))
    run.check("flat-limit", residuals, 1e-12)


def _scenario_derivatives(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.points

    square, pairing, sandwich = [], [], []
    for _ in range(n):
        grades = frozenset(rng.choice([0, 1, 2, 3, 4], size=rng.integers(1, 4), replace=False).tolist())
        X0 = random_multivector(rng, grades)
        got = multivector_derivative(lambda W: W.sp(W), X0, grades, poly_degree=2)
        want = 2.0 * X0
        square.append((got - want).norm() / max(1.0, want.norm()))

        Y = random_multivector(rng, {0, 1, 2, 3, 4})
        got = multivector_derivative(lambda W: W.sp(Y), X0, grades, poly_degree=1)
        want = Y.restrict(grades)
        pairing.append((got - want).norm() / max(1.0, want.norm()))

        Xe = random_multivector(rng, {0, 2, 4})
        Yv = random_multivector(rng, {0, 1, 2, 3, 4})
        Zv = random_multivector(rng, {0, 1, 2, 3, 4})
        got = multivector_derivative(
            lambda W: ((Yv * W) * Zv).sp(W), Xe, {0, 2, 4}, poly_degree=2
        )
        want = ((Yv * Xe) * Zv + (Yv.reverse() * Xe) * Zv.reverse()).restrict({0, 2, 4})
        sandwich.append((got - want).norm() / max(1.0, want.norm()))
    run.check("mvderiv-square", square, 1e-6)
    run.check("mvderiv-pairing", pairing, 1e-6)
    run.check("mvderiv-sandwich", sandwich, 1e-6)

    # structural derivatives vs a central-difference oracle on every node kind
    pts = random_points(rng, 10)
    exprs = []
    pos = position()
    k1, k2 = random_vector(rng), random_vector(rng)
    s1 = coordinate(k1)
    exprs.append(Const(random_multivector(rng, {1, 3})))
    exprs.append(pos)
    exprs.append(scale(1.7, prod(pos, Const(random_multivector(rng, {2})), "gp")))
    exprs.append(prod(pos, pos, "op"))
    exprs.append(prod(Const(random_multivector(rng, {2})), pos, "lc"))
    exprs.append(prod(pos, pos, "sp"))
    exprs.append(prod(Const(random_multivector(rng, {2})), pos, "cross"))
    exprs.append(PolyMap(s1, rng.uniform(-1, 1, 4)))
    for kind in ("sin", "cos", "exp"):
        exprs.append(ScalarMap(scale(0.5, s1), kind))
    exprs.append(BladeExp(GAMMA[1] ^ GAMMA[2], scale(0.6, coordinate(k2))))
    exprs.append(BladeExp(GAMMA[0] ^ GAMMA[1], scale(0.4, coordinate(k2))))
    exprs.append(Rev(random_field(rng, {0, 1, 2, 3, 4})))
    exprs.append(Graded(random_field(rng, {0, 1, 2, 3, 4}), {1, 2}))
    exprs.append(del_expr_kind(random_field(rng, {1, 2}), "op"))
    hfield = random_invertible_h(rng)
    inner = random_field(rng, {1, 2})
    for variant in ("direct", "adjoint", "inverse", "star"):
        exprs.append(hfield.apply_expr(inner, variant))
    exprs.append(hfield.det_expr())
    dirs = [[random_vector(rng) for _ in range(3)] for _ in exprs]
    # every derivative at a point in one call, so shared nodes are evaluated once
    got = [evaluate([e.deriv(ds[i]) for e, ds in zip(exprs, dirs)], pts[i]) for i in range(3)]
    residuals = []
    for k, (expr, ds) in enumerate(zip(exprs, dirs)):
        # the three points' stencils, one (12, 4) sample: point, offset, coordinate
        stencil = np.array(
            [[x + lam * a.vector_coords() for lam in _RICHARDSON_OFFSETS]
             for x, a in zip(pts, ds)]
        )
        values = expr.sample(stencil.reshape(-1, 4)).reshape(3, 4, -1)
        for i in range(3):
            fd = _richardson(values[i])
            denom = max(1.0, float(np.abs(fd).max()))
            residuals.append(float(np.abs(got[i][k][0] - fd).max()) / denom)
    run.check("structural-vs-finite-difference", residuals, 1e-6)


def _cos_wave(k):
    """cos(x.k) g_2 for the vector k, given by its four coordinates."""
    return prod(Const(GAMMA[2]), ScalarMap(coordinate(Multivector.vector(k)), "cos"), "gp")


def _free_spinor(m: float, c: float, hbar: float):
    return BladeExp(GAMMA[1] ^ GAMMA[2], scale(m * c / hbar, coordinate(GAMMA[0])))


def _first_order_residuals(dpsi, psi, params) -> list[float]:
    """Row norms of hbar (D psi) I s3 - m c psi g0, the first-order Dirac-Hestenes form."""
    mc = params["m"] * params["c"]
    eq = sta.gp(dpsi, I_SIGMA3.comps) * params["hbar"] - sta.gp(psi, GAMMA[0].comps) * mc
    return residual_norms(eq)


def _decomposition(run: _Runner, rng, L, count: int, pts, *background) -> None:
    """The variation decomposition at pts for count random fields of L's grades,
    each with a random direction of the same grades."""
    residuals = []
    for _ in range(count):
        X, A = random_field(rng, L.field_grades), random_field(rng, L.field_grades)
        residuals.extend(decomposition_check(L, X, A, pts, *background)[1])
    run.check("decomposition", residuals, 1e-7)


def _two_paths(run: _Runner, rng, L, count: int, pts, *background) -> None:
    """The closed residual against the reference path at pts, per point, for
    count random fields of L's grades."""
    residuals = []
    for _ in range(count):
        X = random_field(rng, L.field_grades)
        closed, reference = ele_residual_two_paths(L, X, pts, *background)
        residuals.extend(
            np.linalg.norm(r1 - r2) / max(1.0, np.linalg.norm(r1))
            for r1, r2 in zip(closed, reference)
        )
    run.check("residual-two-paths", residuals, 1e-8)


def _flat_degeneration(run: _Runner, rng, L, Lflat, residual, pts) -> None:
    """The gauge residual (ele_residual_gauge or ele_residual_spinor) of L on
    the identity background against the flat residual of Lflat, for three
    random fields of L's grades."""
    idbg = identity_background()
    residuals = []
    for _ in range(3):
        X = random_field(rng, L.field_grades)
        rg = residual(L, X, pts, idbg)
        residuals.extend(residual_norms(rg - ele_residual_flat(Lflat, X, pts)))
    run.check("flat-degeneration", residuals, 1e-10)


def _scenario_maxwell_flat(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    pts = random_points(rng, min(cfg.points, 40))
    L = make_builtin("maxwell_flat")

    A = _cos_wave([1.0, 1.0, 0.0, 0.0])
    run.check("plane-wave-residual", residual_norms(ele_residual_flat(L, A, pts)), 1e-9)

    _two_paths(run, rng, L, 5, pts[:3])

    var, dec = [], []
    for _ in range(10):
        Ar = random_field(rng, {1})
        Av = random_field(rng, {1})
        got, res = decomposition_check(L, Ar, Av, pts[:3])
        dec.extend(res)
        h, p = 1e-5, pts[:3]
        plus, minus = (add(Ar, scale(lam, Av)) for lam in (h, -h))
        roots = (plus, del_expr_kind(plus, "op"), minus, del_expr_kind(minus, "op"))
        Xp, dXp, Xm, dXm = evaluate(roots, p)
        fd = (L.density(Xp, dXp, p) - L.density(Xm, dXm, p)) / (2 * h)
        var.extend(np.abs(got - fd))
    run.check("variation-vs-fd", var, 1e-8)
    run.check("decomposition", dec, 1e-7)


def _scenario_dirac_flat(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    pts = random_points(rng, min(cfg.points, 40))
    params = {"m": 1.3, "hbar": 0.7, "c": 1.1, "e": 0.8}
    L = make_builtin("dirac_flat", params=params)
    psi = _free_spinor(params["m"], params["c"], params["hbar"])

    # validate the candidate by substitution into the first-order equation
    dpsi = del_expr_kind(psi, "gp").sample(pts)
    run.check(
        "candidate-substitution", _first_order_residuals(dpsi, psi.sample(pts), params), 1e-10
    )

    run.check("free-spinor-residual", residual_norms(ele_residual_flat(L, psi, pts)), 1e-8)

    _decomposition(run, rng, L, 10, pts[:3])

    one = Const(Multivector.scalar(1.0))
    dens = L.density(one.sample(pts[:1]), np.zeros((1, 16)), pts[:1])[0]
    run.check("unit-spinor-density", [abs(dens + params["m"] * params["c"])], 1e-12)


def _scenario_maxwell_gauge(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    pts = random_points(rng, min(cfg.points, 20))
    L = make_builtin("maxwell_gauge")
    bg = random_rotor_background(rng)

    A_g = bg.h.apply_expr(_cos_wave([1.0, 1.0, 0.0, 0.0]), "direct")
    residuals = []
    for background in (bg, GaugeBackground(bg.h)):
        residuals.extend(residual_norms(ele_residual_gauge(L, A_g, pts[:6], background)))
    run.check("transported-plane-wave-residual", residuals, 1e-6)

    _flat_degeneration(run, rng, L, make_builtin("maxwell_flat"), ele_residual_gauge, pts[:3])

    _two_paths(run, rng, L, 3, pts[:2], bg)
    _decomposition(run, rng, L, 5, pts[:2], bg)


def _scenario_dirac_gauge(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    pts = random_points(rng, min(cfg.points, 20))
    params = {"m": 1.3, "hbar": 0.7, "c": 1.1, "e": 0.8}
    L = make_builtin("dirac_gauge", params=params)
    Lflat = make_builtin("dirac_flat", params=params)

    # transport the free solution with the rotor that induces the background
    R = random_rotor(rng)
    bg = rotor_gauge(R)
    psi_flat = _free_spinor(params["m"], params["c"], params["hbar"])
    psi_g = prod(R, psi_flat, "gp")
    run.check(
        "transported-spinor-residual",
        residual_norms(ele_residual_spinor(L, psi_g, pts[:8], bg)),
        1e-6,
    )

    # first-order form of the transported solution
    dpsi = spinor_grad_expr(psi_g, bg).sample(pts[:6])
    run.check(
        "transported-first-order-equation",
        _first_order_residuals(dpsi, psi_g.sample(pts[:6]), params),
        1e-9,
    )

    _flat_degeneration(run, rng, L, Lflat, ele_residual_spinor, pts[:2])
    _decomposition(run, rng, L, 4, pts[:2], bg)


def _scenario_lattice_maxwell(cfg: ScenarioConfig, run: _Runner) -> None:
    rng = np.random.default_rng(cfg.seed)
    L = make_builtin("maxwell_flat")

    def one_form(lat: Lattice) -> LatticeField:
        comps = rng.uniform(-1, 1, lat.shape + (16,)) * sta.grade_mask({1})
        return LatticeField(lat, frozenset({1}), comps)

    # gradient-residual duality, both boundary conditions
    residuals = []
    for bc in ("periodic", "dirichlet"):
        lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, bc)
        F = one_form(lat)
        grad = action_gradient(L, F)
        res = discrete_ele_residual(L, F)
        dev = np.abs(grad.comps - lat.cell_volume * res.comps)[lat.interior_mask()].max()
        residuals.append(float(dev))
    run.check("gradient-residual-duality", residuals, 1e-10)

    # gradient pairing against a finite difference of the action
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, "periodic")
    F, dF = one_form(lat), one_form(lat)
    h = 1e-6
    fp = discrete_action(L, LatticeField(lat, frozenset({1}), F.comps + h * dF.comps))
    fm = discrete_action(L, LatticeField(lat, frozenset({1}), F.comps - h * dF.comps))
    fd = (fp - fm) / (2 * h)
    pairing = action_gradient(L, F).pair(dF)
    run.check("gradient-vs-fd", [abs(fd - pairing) / max(1.0, abs(fd))], 1e-6)

    # discrete Gauss identity
    residuals = []
    for bc in ("periodic", "dirichlet"):
        lat = Lattice(np.zeros(4), 3.0 * np.ones(4), 7, bc)
        vol, flux = discrete_gauss(one_form(lat))
        residuals.append(abs(vol - flux))
    run.check("discrete-gauss", residuals, 1e-12)
    del F, dF, grad, res  # the N=12 residual below needs none of them

    # sampled continuum solution: residual order between N = 6 and N = 12
    def sampled_residual_rms(n: int) -> float:
        lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, "periodic")
        wave = _cos_wave([0.0, 1.0, 0.0, 0.0])
        Lm = make_builtin("maxwell_flat", sources={"J": wave})
        F = discretize(wave, lat, {1})
        resid = discrete_ele_residual(Lm, F).comps
        return float(np.linalg.norm(resid) / np.sqrt(lat.n_sites))

    r6 = sampled_residual_rms(6)
    r12 = sampled_residual_rms(12)
    order = float(np.log(r6 / r12) / np.log(2.0))
    run.check("residual-convergence-order", [abs(order - 2.0)], 0.2)

    # manufactured periodic solve at the configured size
    n = cfg.lattice_n
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, "periodic")

    def manufactured() -> np.ndarray:  # A* = cos(x^1) g_2
        astar = np.zeros(lat.shape + (16,))
        astar[..., 4] = np.cos(lat.coords()[..., 1])
        return astar

    op = maxwell_operator(lat)
    J = LatticeField(lat, frozenset({1}), op(manufactured()))
    A = solve_maxwell(lat, J, tol=1e-8)
    astar = manufactured()  # built again, so that the solver runs without it
    # each difference is formed in a buffer the run no longer needs, and at
    # most two 16-wide arrays (8 MiB each at N=16) are alive at once
    scale = np.linalg.norm(astar)
    rel = float(np.linalg.norm(np.subtract(A.comps, astar, out=astar)) / scale)
    del astar
    run.check("manufactured-solution", [rel], 1e-6)
    norm_j = np.linalg.norm(J.comps)
    comps = A.comps
    del A
    res = op(comps)
    del comps
    op_res = float(np.linalg.norm(np.subtract(res, J.comps, out=res)) / norm_j)
    del J, res  # the last three checks need none of them
    run.check("solver-relative-residual", [op_res], 1e-8)

    # zero current with fixed zero boundary has the trivial solution
    lat0 = Lattice(np.zeros(4), np.ones(4), 6, "dirichlet")
    A0 = solve_maxwell(lat0, LatticeField.zeros(lat0, {1}))
    run.check("dirichlet-trivial-solution", [float(np.abs(A0.comps).max())], 0.0)

    # residual at F = 0 under a uniform current is exactly -J
    latj = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, "periodic")
    Lj = make_builtin("maxwell_flat", sources={"J": Const(GAMMA[0])})
    res = discrete_ele_residual(Lj, LatticeField.zeros(latj, {1}))
    run.check(
        "uniform-current-residual",
        [float(np.abs(res.comps + Const(GAMMA[0]).at(np.zeros(4)).comps).max())],
        0.0,
    )


SCENARIOS = {
    "algebra": ("Cl(1,3) kernel and extensor invariants", _scenario_algebra),
    "identities-flat": ("flat divergence-form identities", _scenario_identities_flat),
    "identities-gauge": ("gauge and spinor identities", _scenario_identities_gauge),
    "derivatives": ("multivector and structural derivatives", _scenario_derivatives),
    "maxwell-flat": ("flat Maxwell residuals and decomposition", _scenario_maxwell_flat),
    "dirac-flat": ("flat Dirac-Hestenes residuals", _scenario_dirac_flat),
    "maxwell-gauge": ("gauge Maxwell residuals", _scenario_maxwell_gauge),
    "dirac-gauge": ("gauge Dirac-Hestenes residuals", _scenario_dirac_gauge),
    "lattice-maxwell": ("lattice action, duality, and stationary solve", _scenario_lattice_maxwell),
}


def list_scenarios() -> list[tuple[str, str]]:
    return [(name, desc) for name, (desc, _) in SCENARIOS.items()]


def run_scenario(cfg: ScenarioConfig) -> Report:
    """Execute a named scenario, write its report if an output path is set."""
    cfg.validate()
    _, body = SCENARIOS[cfg.scenario]
    runner = _Runner(cfg)
    runner.start()
    body(cfg, runner)
    unknown = sorted(set(cfg.tolerances) - {c.name for c in runner.records})
    if unknown:
        raise ConfigError(
            f"tolerances name no check of {cfg.scenario!r}: {', '.join(unknown)}"
        )
    report = Report(config=cfg, checks=runner.records)
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(report.to_json())
    return report
