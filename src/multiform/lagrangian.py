"""Lagrangian mappings, variations, and Euler-Lagrange residual operators.

A :class:`LagrangianSpec` names a scalar density l(X, d, x) of a field value,
its declared derivative aggregate d (flat or covariant divergence / curl /
gradient, or the spinor gradient), and physical parameters; gauge and spinor
densities carry the det(h) weight.  The residual operators evaluate the
literal left side of the stationarity equations

    grad_X l  -  (dual derivative) grad_d l  =  0,

with slot gradients grade-restricted to the field's grade set, so a field is
a solution exactly when the residual vanishes.  ``decomposition_check``
verifies pointwise that the variation splits into the residual pairing plus
the divergence of the matching boundary current, which is the mechanism the
stationarity proofs rest on.

Points are batched: the residual operators, ``variation`` and
``decomposition_check`` take one point or a (P, 4) array.  Each field is
planned once per (field, background, construction): the plan holds the
aggregate d and the closed slot gradients, including the dual aggregate of
grad_d, as expression trees, and a point set is one evaluation of those
trees.  A single point gives a :class:`Multivector` (or a float), a batch
gives (P, 16) components (or (P,) values), equal row for row to the single
point results.

Slot gradients use closed forms when the LagrangianSpec provides them (all
built-ins do); the generic fallback differentiates the density per blade and
per point with degree-exact stencils.  The same per-point path backs
:func:`ele_residual_reference`, the independent cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from . import sta
from .fields import (
    AGGREGATES,
    Const,
    FieldExpr,
    GradeError,
    Graded,
    ZERO,
    _as_coords,
    _lift,
    _prod_grades,
    add,
    del_expr_kind,
    boundary_current_flat,
    multivector_derivative,
    prod,
    scalar_derivative_at_zero,
    scale,
    worst_of,
)
from .gauge import (
    GaugeBackground,
    boundary_current_gauge,
    gauge_del_expr,
    require_even,
    spinor_grad_expr,
)
from .sta import EVEN_GRADES, GAMMA, GAMMA_UP, Multivector, PSEUDOSCALAR

SIGMA3 = sta.geometric_product(GAMMA[3], GAMMA[0])
I_SIGMA3 = sta.geometric_product(PSEUDOSCALAR, SIGMA3)
I_GAMMA3 = sta.geometric_product(PSEUDOSCALAR, GAMMA[3])


class DerivMode(enum.Enum):
    """Derivative aggregate declared by a Lagrangian mapping."""

    FLAT_DIV = "flat-div"
    FLAT_CURL = "flat-curl"
    FLAT_GRAD = "flat-grad"
    GAUGE_DIV = "gauge-div"
    GAUGE_CURL = "gauge-curl"
    GAUGE_GRAD = "gauge-grad"
    SPINOR = "spinor"

    @property
    def family(self) -> str:
        return self.value.split("-")[0] if self is not DerivMode.SPINOR else "spinor"

    @property
    def star(self) -> str:
        if self is DerivMode.SPINOR:
            return "gp"
        short = self.value.split("-")[1]
        return next(kind for kind, (_, s, _) in AGGREGATES.items() if s == short)

    @property
    def dual(self) -> str:
        return AGGREGATES[self.star][2]

    @property
    def weighted(self) -> bool:
        """Gauge and spinor densities carry the det(h) weight."""
        return self.family in ("gauge", "spinor")


@dataclass
class LagrangianSpec:
    """A named scalar density with its derivative mode and parameters.

    ``density(Xv, dv, x)`` evaluates the unweighted density l at multivector
    slot values and a coordinate 4-array; ``density_batch`` is the optional
    vectorized form on (..., 16) component stacks.  ``grad_x`` / ``grad_d``
    build the slot-gradient fields from the field expression and its
    aggregate expression.  ``poly_degree`` declares the polynomial degree of
    the density in the slots jointly, enabling exact stencil derivatives.
    """

    name: str
    mode: DerivMode
    density: Callable[[Multivector, Multivector, np.ndarray], float]
    field_grades: frozenset
    poly_degree: int | None = None
    params: dict = dataclass_field(default_factory=dict)
    source_j: FieldExpr = ZERO
    source_a: FieldExpr = ZERO
    grad_x: Callable[[FieldExpr, FieldExpr], FieldExpr] | None = None
    grad_d: Callable[[FieldExpr, FieldExpr], FieldExpr] | None = None
    density_batch: Callable | None = None
    slot_grads_batch: Callable | None = None

    def __post_init__(self):
        self.field_grades = frozenset(self.field_grades)
        self._plans: dict = {}

    @property
    def weighted(self) -> bool:
        return self.mode.weighted

    def d_grades(self) -> frozenset:
        """Grade bound of the derivative aggregate for this mode."""
        return _prod_grades(frozenset({1}), self.field_grades, self.mode.star)


def _aggregate(
    L: LagrangianSpec,
    Y: FieldExpr,
    kind: str,
    bg: GaugeBackground | None,
    construction: str | None,
) -> FieldExpr:
    """The aggregate of Y with product ``kind`` in the derivative family of L."""
    fam = L.mode.family
    if fam == "flat":
        return del_expr_kind(Y, kind)
    if bg is None:
        raise ValueError(f"{L.mode.value} Lagrangians need a gauge background")
    if fam == "gauge":
        return gauge_del_expr(Y, AGGREGATES[kind][0], bg, construction)
    return spinor_grad_expr(Y, bg)


def _plan(
    L: LagrangianSpec,
    X: FieldExpr,
    bg: GaugeBackground | None,
    construction: str | None,
) -> dict:
    # the plan holds X and bg: id() keys are only unique while they are alive
    key = (id(X), id(bg) if bg is not None else None, construction)
    hit = L._plans.get(key)
    if hit is None:
        d_expr = _aggregate(L, X, L.mode.star, bg, construction)
        gd = L.grad_d(X, d_expr) if L.grad_d is not None else None
        hit = {
            "field": X,
            "bg": bg,
            "d": d_expr,
            "gx": L.grad_x(X, d_expr) if L.grad_x is not None else None,
            "gd": gd,
            "dual_gd": None if gd is None else _aggregate(L, gd, L.mode.dual, bg, construction),
        }
        L._plans[key] = hit
    return hit


def _weights(L: LagrangianSpec, bg: GaugeBackground | None, pts: np.ndarray, memo: dict):
    """The density weight at each point: det(h) for weighted modes, else 1."""
    if not L.weighted:
        return 1.0
    if bg is None:
        raise ValueError("weighted Lagrangians need a gauge background")
    return bg.h.det_expr().ev(pts, memo)[:, 0]


def _field_gradient(L: LagrangianSpec, Xc: np.ndarray, dc: np.ndarray, xc) -> Multivector:
    """grad_X l at one point from the slot components, per blade from the density itself."""
    dv = Multivector(dc)
    return multivector_derivative(
        lambda W: L.density(W, dv, xc), Multivector(Xc), L.field_grades, L.poly_degree
    )


def variation(
    L: LagrangianSpec,
    X: FieldExpr,
    A: FieldExpr,
    x,
    bg: GaugeBackground | None = None,
    construction: str | None = None,
):
    """d/dl of the (weighted) density along X + l A at l = 0.

    The composite in l is polynomial for polynomial densities, so the
    stencil differentiation in :func:`scalar_derivative_at_zero` is exact.
    Returns a float for one point and a (P,) array for a (P, 4) batch.
    """
    pts, single = _as_coords(x)
    memo: dict = {}
    Av = A.ev(pts, memo)
    if not A.grades <= X.grades:
        actual = Multivector(np.abs(Av).max(axis=0)).grade_set(1e-14)
        if not actual <= X.grades:
            raise GradeError(
                f"variation direction carries grades {sorted(actual)} outside the "
                f"field's grade set {sorted(X.grades)}"
            )
    # only the aggregates are needed: a plan would also build the slot gradients
    dX = _aggregate(L, X, L.mode.star, bg, construction).ev(pts, memo)
    dA = _aggregate(L, A, L.mode.star, bg, construction).ev(pts, memo)
    Xv = X.ev(pts, memo)
    w = np.broadcast_to(_weights(L, bg, pts, memo), pts.shape[:1])
    out = np.empty(pts.shape[0])
    for i, xc in enumerate(pts):
        Xi, Ai, dXi, dAi = (Multivector(v[i]) for v in (Xv, Av, dX, dA))
        out[i] = scalar_derivative_at_zero(
            lambda lam: w[i] * float(L.density(Xi + lam * Ai, dXi + lam * dAi, xc)),
            L.poly_degree,
        )
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------


def _residual(
    L: LagrangianSpec,
    X: FieldExpr,
    x,
    bg: GaugeBackground | None,
    construction: str | None,
):
    pts, single = _as_coords(x)
    plan = _plan(L, X, bg, construction)
    memo: dict = {}
    if plan["gx"] is not None:
        t1 = plan["gx"].ev(pts, memo)
    else:
        rows = zip(X.ev(pts, memo), plan["d"].ev(pts, memo), pts)
        t1 = np.array([_field_gradient(L, *row).comps for row in rows])
    if plan["dual_gd"] is not None:
        t2 = plan["dual_gd"].ev(pts, memo)
    else:
        t2 = np.array(
            [_dual_of_numeric_slot_gradient(L, X, xc, bg, construction).comps for xc in pts]
        )
    res = sta.restrict(t1 - t2, L.field_grades)
    return Multivector(res[0]) if single else res


def residual_norms(res) -> list[float]:
    """Euclidean norm of each residual row, one ``np.linalg.norm`` per row.

    A single call with ``axis=1`` rounds differently in the last bit.
    """
    return [float(np.linalg.norm(row)) for row in res]


def _numeric_slot_gradient(
    L: LagrangianSpec,
    X: FieldExpr,
    y,
    bg: GaugeBackground | None,
    construction: str | None,
) -> Multivector:
    """grad_d l at the point y, per blade from the density itself."""
    plan = _plan(L, X, bg, construction)
    yc = _as_coords(y)[0][0]
    Xv = X.at(y)
    dv = plan["d"].at(y).restrict(L.d_grades())
    return multivector_derivative(
        lambda W: L.density(Xv, W, yc), dv, L.d_grades(), L.poly_degree
    )


def _dual_of_numeric_slot_gradient(
    L: LagrangianSpec,
    X: FieldExpr,
    x,
    bg: GaugeBackground | None,
    construction: str | None,
) -> Multivector:
    """Dual derivative of the pointwise slot-gradient field, by coordinate stencils.

    This is the generic (and deliberately independent) path: the slot
    gradient is sampled along coordinate lines and differentiated with
    Richardson extrapolation, then contracted like the matching dual
    operator.  Only meaningful for flat modes; gauge modes require closed
    slot gradients.
    """
    if L.mode.family != "flat":
        raise ValueError(
            f"Lagrangian {L.name!r} needs closed-form slot gradients for mode {L.mode.value}"
        )
    xc = _as_coords(x)[0][0]
    kernel = sta.PRODUCT_KERNELS[L.mode.dual]
    out = np.zeros(sta.DIM)
    h = 1e-3
    for mu in range(4):
        def p(s: float) -> np.ndarray:
            shifted = xc.copy()
            shifted[mu] += s
            return _numeric_slot_gradient(L, X, shifted, bg, construction).comps

        d1 = (p(h) - p(-h)) / (2.0 * h)
        d2 = (p(h / 2.0) - p(-h / 2.0)) / h
        dmu = (4.0 * d2 - d1) / 3.0
        out += kernel(GAMMA_UP[mu].comps, dmu)
    return Multivector(out)


def ele_residual_flat(L: LagrangianSpec, X: FieldExpr, x):
    """grad_X l - (dual flat derivative) grad_d l at x, grade-restricted."""
    if L.mode.family != "flat":
        raise ValueError(f"Lagrangian {L.name!r} has mode {L.mode.value}, not flat")
    return _residual(L, X, x, None, None)


def ele_residual_gauge(
    L: LagrangianSpec,
    X: FieldExpr,
    x,
    bg: GaugeBackground,
    construction: str | None = None,
):
    """grad_X l - (dual covariant derivative) grad_d l at x."""
    if L.mode.family != "gauge":
        raise ValueError(f"Lagrangian {L.name!r} has mode {L.mode.value}, not gauge")
    return _residual(L, X, x, bg, construction)


def ele_residual_spinor(L: LagrangianSpec, psi: FieldExpr, x, bg: GaugeBackground):
    """grad_psi l - D^s grad_{D^s psi} l at x, for even-grade psi."""
    if L.mode is not DerivMode.SPINOR:
        raise ValueError(f"Lagrangian {L.name!r} has mode {L.mode.value}, not spinor")
    require_even(psi, x)
    return _residual(L, psi, x, bg, None)


def ele_residual(
    L: LagrangianSpec,
    X: FieldExpr,
    x,
    bg: GaugeBackground | None = None,
    construction: str | None = None,
):
    """Mode-dispatching wrapper over the three residual operators.

    One point gives a :class:`Multivector`, a (P, 4) batch gives (P, 16)
    components.
    """
    fam = L.mode.family
    if fam == "flat":
        return ele_residual_flat(L, X, x)
    if fam == "gauge":
        return ele_residual_gauge(L, X, x, bg, construction)
    return ele_residual_spinor(L, X, x, bg)


def ele_residual_reference(
    L: LagrangianSpec,
    X: FieldExpr,
    x,
    bg: GaugeBackground | None = None,
    construction: str | None = None,
) -> Multivector:
    """Residual at one point via per-blade numeric slot gradients: the independent path.

    For gauge and spinor modes the dual derivative is still applied to the
    closed slot-gradient field, but the grad_X term is recomputed per blade
    from the density, so the two code paths share no gradient formulas for
    that term; flat modes recompute both terms numerically.
    """
    plan = _plan(L, X, bg, construction)
    xc = _as_coords(x)[0][0]
    t1 = _field_gradient(L, X.at(x).comps, plan["d"].at(x).comps, xc)
    if L.mode.family == "flat":
        t2 = _dual_of_numeric_slot_gradient(L, X, x, bg, construction)
    else:
        p_val = _numeric_slot_gradient(L, X, x, bg, construction)
        if plan["gd"] is None:
            raise ValueError("gauge/spinor reference path needs closed slot gradients")
        # cross-check the closed gradient against the per-blade one first
        if (plan["gd"].at(x) - p_val).norm() > 1e-6 * max(1.0, p_val.norm()):
            raise AssertionError("closed-form slot gradient disagrees with per-blade values")
        t2 = plan["dual_gd"].at(x)
    return (t1 - t2).restrict(L.field_grades)


# ---------------------------------------------------------------------------
# variation decomposition
# ---------------------------------------------------------------------------


def decomposition_check(
    L: LagrangianSpec,
    X: FieldExpr,
    A: FieldExpr,
    x,
    bg: GaugeBackground | None = None,
    construction: str | None = None,
):
    """|variation - weight A.residual - div(current)| at x.

    The current is the boundary current of the matching divergence-form
    identity, applied to the variation direction and the slot-gradient
    field; a vanishing residual is the pointwise content of the
    stationarity argument.  Returns a float for one point and a (P,) array
    for a (P, 4) batch.
    """
    pts, single = _as_coords(x)
    plan = _plan(L, X, bg, construction)
    if plan["gd"] is None:
        raise ValueError("decomposition check needs a closed-form grad_d")
    delta = variation(L, X, A, pts, bg, construction)
    res = ele_residual(L, X, pts, bg, construction)
    memo: dict = {}
    w = _weights(L, bg, pts, memo)
    if L.mode.family == "flat":
        current = boundary_current_flat(A, plan["gd"], L.mode.star)
    else:
        current = boundary_current_gauge(A, plan["gd"], L.mode.star, bg)
    div = del_expr_kind(current, "lc").ev(pts, memo)[:, 0]
    out = np.abs(delta - w * sta.sp(A.ev(pts, memo), res) - div)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# built-in Lagrangians
# ---------------------------------------------------------------------------

_BUILTIN_NAMES = ("maxwell_flat", "dirac_flat", "maxwell_gauge", "dirac_gauge")

_DEFAULT_PARAMS = {"mu0": 1.0, "hbar": 1.0, "c": 1.0, "m": 1.0, "e": 1.0}


def make_builtin(name: str, params: dict | None = None, sources: dict | None = None) -> LagrangianSpec:
    """The four built-in densities.

    maxwell_*:  -(1/2 mu0) (d ^ A).(d ^ A) - A.J     (flat d or covariant D)
    dirac_*:    hbar (d psi i g3).psi - e (A psi g0).psi - m c psi.psi
                (flat gradient or spinor derivative; gauge forms carry det h)

    Sources: ``J`` (1-form current) and ``A_ext`` (external potential), as
    field expressions; both default to zero and are never varied.
    """
    if name not in _BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; choose from {_BUILTIN_NAMES}")
    p = dict(_DEFAULT_PARAMS)
    p.update(params or {})
    if p["mu0"] <= 0 or p["hbar"] <= 0 or p["c"] <= 0 or p["m"] < 0:
        raise ValueError("need mu0, hbar, c > 0 and m >= 0")
    sources = sources or {}
    j_expr = _lift(sources.get("J", ZERO))
    a_expr = _lift(sources.get("A_ext", ZERO))

    if name.startswith("maxwell"):
        mu0 = p["mu0"]

        def density(Av, Fv, xc):
            return -0.5 / mu0 * Fv.sp(Fv) - Av.sp(Multivector(j_expr.sample(xc.reshape(1, 4))[0]))

        def density_batch(Ac, Fc, xs):
            return -0.5 / mu0 * sta.sp(Fc, Fc) - sta.sp(Ac, j_expr.sample(xs))

        def grad_x(Xe, de):
            return scale(-1.0, Graded(j_expr, {1}))

        def grad_d(Xe, de):
            return scale(-1.0 / mu0, de)

        def slot_grads_batch(Ac, Fc, xs):
            gx = -sta.restrict(j_expr.sample(xs), {1})
            gd = -Fc / mu0
            return gx, gd

        mode = DerivMode.FLAT_CURL if name == "maxwell_flat" else DerivMode.GAUGE_CURL
        return LagrangianSpec(
            name=name,
            mode=mode,
            density=density,
            field_grades=frozenset({1}),
            poly_degree=2,
            params=p,
            source_j=j_expr,
            source_a=a_expr,
            grad_x=grad_x,
            grad_d=grad_d,
            density_batch=density_batch,
            slot_grads_batch=slot_grads_batch,
        )

    hbar, e, m, c = p["hbar"], p["e"], p["m"], p["c"]
    c3 = I_GAMMA3
    g0 = GAMMA[0]

    def density(psiv, dv, xc):
        av = Multivector(a_expr.sample(xc.reshape(1, 4))[0])
        return (
            hbar * (dv * c3).sp(psiv)
            - e * ((av * psiv) * g0).sp(psiv)
            - m * c * psiv.sp(psiv)
        )

    def density_batch(psic, dc, xs):
        avc = a_expr.sample(xs)
        return (
            hbar * sta.sp(sta.gp(dc, c3.comps), psic)
            - e * sta.sp(sta.gp(sta.gp(avc, psic), g0.comps), psic)
            - m * c * sta.sp(psic, psic)
        )

    def grad_x(psie, de):
        terms = scale(hbar, prod(de, Const(c3), "gp"))
        terms = add(terms, scale(-2.0 * e, prod(prod(a_expr, psie, "gp"), Const(g0), "gp")))
        terms = add(terms, scale(-2.0 * m * c, psie))
        return Graded(terms, EVEN_GRADES)

    def grad_d(psie, de):
        return scale(-hbar, prod(psie, Const(c3), "gp"))

    mode = DerivMode.FLAT_GRAD if name == "dirac_flat" else DerivMode.SPINOR
    return LagrangianSpec(
        name=name,
        mode=mode,
        density=density,
        field_grades=EVEN_GRADES,
        poly_degree=2,
        params=p,
        source_j=j_expr,
        source_a=a_expr,
        grad_x=grad_x,
        grad_d=grad_d,
        density_batch=density_batch,
        slot_grads_batch=None,
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


@dataclass
class EleReport:
    """Residual summary for a field against a Lagrangian over sample points."""

    mode: str
    field_name: str
    residual_norms: list[float]
    max_residual: float
    mean_residual: float
    decomposition_residual: float | None
    metadata: dict

    @classmethod
    def evaluate(
        cls,
        L: LagrangianSpec,
        X: FieldExpr,
        points,
        bg: GaugeBackground | None = None,
        A: FieldExpr | None = None,
        field_name: str = "field",
        construction: str | None = None,
        metadata: dict | None = None,
    ) -> "EleReport":
        pts, _ = _as_coords(points)
        norms = residual_norms(ele_residual(L, X, pts, bg, construction))
        deco = None
        if A is not None:
            deco = worst_of(*decomposition_check(L, X, A, pts, bg, construction))
        return cls(
            mode=L.mode.value,
            field_name=field_name,
            residual_norms=norms,
            max_residual=worst_of(*norms),
            mean_residual=float(np.mean(norms)),
            decomposition_residual=deco,
            metadata=metadata or {},
        )
