"""Lagrangian mappings, variations, and Euler-Lagrange residual operators.

A :class:`LagrangianSpec` names one scalar density l(X, d, x) of a field
value and its declared derivative aggregate d (flat or covariant divergence
/ curl / gradient, or the spinor gradient), evaluated on whole batches of
component rows; gauge and spinor densities carry the det(h) weight.  The
residual operators evaluate the literal left side of the stationarity
equations

    grad_X l  -  (dual derivative) grad_d l  =  0,

with slot gradients grade-restricted to the field's grade set, so a field is
a solution exactly when the residual vanishes.  ``decomposition_check``
verifies pointwise that the variation splits into the residual pairing plus
the divergence of the matching boundary current, which is the mechanism the
stationarity proofs rest on.

Points are batched: the residual operators, ``variation`` and
``decomposition_check`` take one point or a (P, 4) array.  Each call
plans the field once: a plan holds the aggregate d and the closed slot
gradients, including the dual aggregate of grad_d, as expression trees, a
point set is one evaluation of those trees, and the plan is freed when the
call returns.  A single point gives a :class:`Multivector` (or a float), a
batch gives (P, 16) components (or (P,) values), equal row for row to the
single point results.

Slot gradients use closed forms when the LagrangianSpec provides them (all
built-ins do).  Without ``grad_x``, :func:`blade_gradient` differentiates
the density per blade over the whole batch with degree-exact stencils; the
lattice uses it for either slot.  Without ``grad_d``, flat residuals take
the dual derivative of the pointwise slot gradient along coordinate lines.
:func:`ele_residual_reference`, the independent cross-check, takes a point
or a batch as well.  These oracle paths also evaluate their trees once per
call, over the point set or over all its coordinate-stencil points; only
the density differentiation, :func:`multivector_derivative` per blade,
runs row by row.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sta
from .fields import (
    AGGREGATES,
    Const,
    FieldExpr,
    GradeError,
    Graded,
    RICHARDSON_STEP,
    ZERO,
    _as_coords,
    _lift,
    _prod_grades,
    add,
    del_expr_kind,
    boundary_current_flat,
    evaluate,
    multivector_derivative,
    prod,
    scalar_derivative_at_zero,
    scale,
)
from .gauge import (
    GaugeBackground,
    boundary_current_gauge,
    gauge_del_expr,
    require_even,
    spinor_grad_expr,
)
from .sta import DIM, EVEN_GRADES, GAMMA, GAMMA_UP, GRADES, Multivector, PSEUDOSCALAR, SP_DIAG

SIGMA3 = GAMMA[3] * GAMMA[0]
I_SIGMA3 = PSEUDOSCALAR * SIGMA3
I_GAMMA3 = PSEUDOSCALAR * GAMMA[3]


class DerivMode(enum.Enum):
    """Derivative aggregate declared by a Lagrangian mapping: (family, product kind)."""

    FLAT_DIV = ("flat", "lc")
    FLAT_CURL = ("flat", "op")
    FLAT_GRAD = ("flat", "gp")
    GAUGE_DIV = ("gauge", "lc")
    GAUGE_CURL = ("gauge", "op")
    GAUGE_GRAD = ("gauge", "gp")
    SPINOR = ("spinor", "gp")

    @property
    def family(self) -> str:
        return self.value[0]

    @property
    def star(self) -> str:
        return self.value[1]

    @property
    def dual(self) -> str:
        return AGGREGATES[self.star]

    @property
    def weighted(self) -> bool:
        """Gauge and spinor densities carry the det(h) weight."""
        return self.family in ("gauge", "spinor")


@dataclass
class LagrangianSpec:
    """A named scalar density with its derivative mode.

    ``density(Xc, dc, xs)`` evaluates the unweighted density l row by row
    from (P, 16) field components, (P, 16) aggregate components and (P, 4)
    coordinates, and returns (P,) values.  ``grad_x`` / ``grad_d`` build the
    closed slot-gradient fields from the field expression and its aggregate
    expression; without them the slot gradients come from the density
    itself.  ``poly_degree`` declares the polynomial degree of the density
    in the slots jointly, enabling exact stencil derivatives.
    """

    name: str
    mode: DerivMode
    density: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    field_grades: frozenset
    poly_degree: int | None = None
    grad_x: Callable[[FieldExpr, FieldExpr], FieldExpr] | None = None
    grad_d: Callable[[FieldExpr, FieldExpr], FieldExpr] | None = None

    def __post_init__(self):
        self.field_grades = frozenset(self.field_grades)

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
        raise ValueError(f"{L.mode.name} Lagrangians need a gauge background")
    if fam == "gauge":
        return gauge_del_expr(Y, kind, bg, construction)
    return spinor_grad_expr(Y, bg)


def _plan(
    L: LagrangianSpec,
    X: FieldExpr,
    bg: GaugeBackground | None,
    construction: str | None,
) -> dict:
    """The residual trees of X under L; a public call builds one and passes it down."""
    d_expr = _aggregate(L, X, L.mode.star, bg, construction)
    gd = L.grad_d(X, d_expr) if L.grad_d is not None else None
    return {
        "d": d_expr,
        "gx": L.grad_x(X, d_expr) if L.grad_x is not None else None,
        "gd": gd,
        "dual_gd": None if gd is None else _aggregate(L, gd, L.mode.dual, bg, construction),
    }


def _weights(L: LagrangianSpec, bg: GaugeBackground | None, pts: np.ndarray):
    """The density weight at each point: det(h) for weighted modes, else 1."""
    if not L.mode.weighted:
        return 1.0
    if bg is None:
        raise ValueError("weighted Lagrangians need a gauge background")
    return evaluate((bg.h.det_expr(),), pts)[0][:, 0]


def blade_gradient(L: LagrangianSpec, slots: tuple, xs: np.ndarray, k: int) -> np.ndarray:
    """The density's gradient in slot k (0: field, 1: aggregate) at every row.

    ``slots`` holds the (P, 16) field and aggregate components at the (P, 4)
    points xs.  The gradient is sum_J e^J d/dl l(.. slot + l e_J ..) over
    the blades J of the slot's grades, one stencil per blade for the whole
    batch, degree-exact for a declared polynomial.
    """
    grades = L.field_grades if k == 0 else L.d_grades()
    out = np.zeros(np.shape(slots[k]))
    for mask in range(DIM):
        if GRADES[mask] not in grades:
            continue
        e = np.zeros(DIM)
        e[mask] = 1.0

        def g(lam: float) -> np.ndarray:
            moved = list(slots)
            moved[k] = slots[k] + lam * e
            return L.density(*moved, xs)

        out[:, mask] = SP_DIAG[mask] * scalar_derivative_at_zero(g, L.poly_degree)
    return out


def _point_gradient(L: LagrangianSpec, slots: tuple, xc: np.ndarray, k: int) -> Multivector:
    """The density's gradient in slot k at one point from (16,) slot components,
    per blade with :func:`multivector_derivative`, independent of :func:`blade_gradient`."""

    def at(W: Multivector) -> float:
        moved = [v.reshape(1, DIM) for v in slots]
        moved[k] = W.comps.reshape(1, DIM)
        return float(L.density(*moved, xc.reshape(1, 4))[0])

    grades = L.field_grades if k == 0 else L.d_grades()
    return multivector_derivative(at, Multivector(slots[k]), grades, L.poly_degree)


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
    # only the aggregates are needed: a plan would also build the slot gradients
    dX, dA = (_aggregate(L, Y, L.mode.star, bg, construction) for Y in (X, A))
    out = _variation(L, X, A, evaluate((X, dX, A, dA), pts), _weights(L, bg, pts), pts)
    return float(out[0]) if single else out


def _variation(
    L: LagrangianSpec, X: FieldExpr, A: FieldExpr, values, w, pts: np.ndarray
) -> np.ndarray:
    """The variation at the (P, 4) points from the values of X, its aggregate,
    A and its aggregate there, and the density weights w."""
    Xv, dX, Av, dA = values
    if not A.grades <= X.grades:
        actual = Multivector(np.abs(Av).max(axis=0)).grade_set(1e-14)
        if not actual <= X.grades:
            raise GradeError(
                f"variation direction carries grades {sorted(actual)} outside the "
                f"field's grade set {sorted(X.grades)}"
            )
    return scalar_derivative_at_zero(
        lambda lam: w * L.density(Xv + lam * Av, dX + lam * dA, pts), L.poly_degree
    )


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------


def _residual_trees(X: FieldExpr, plan: dict) -> tuple:
    """The trees :func:`_residual` reads: grad_X l, or X and d for its
    stencils, then the dual aggregate of grad_d l when it is closed."""
    trees = (X, plan["d"]) if plan["gx"] is None else (plan["gx"],)
    return trees if plan["dual_gd"] is None else trees + (plan["dual_gd"],)


def _residual(L: LagrangianSpec, X: FieldExpr, pts: np.ndarray, plan: dict, values: dict):
    """The (P, 16) residual at the points, from ``values``, which maps each
    of the :func:`_residual_trees` to its value there."""
    gx, dual_gd = plan["gx"], plan["dual_gd"]
    t1 = blade_gradient(L, (values[X], values[plan["d"]]), pts, 0) if gx is None else values[gx]
    t2 = _dual_of_numeric_slot_gradient(L, X, pts, plan) if dual_gd is None else values[dual_gd]
    return sta.restrict(t1 - t2, L.field_grades)


def _ele_residual(L: LagrangianSpec, X: FieldExpr, x, plan: dict):
    pts, single = _as_coords(x)
    trees = _residual_trees(X, plan)
    res = _residual(L, X, pts, plan, dict(zip(trees, evaluate(trees, pts))))
    return Multivector(res[0]) if single else res


def residual_norms(res) -> list[float]:
    """Euclidean norm of each residual row, one ``np.linalg.norm`` per row.

    A single call with ``axis=1`` rounds differently in the last bit.
    """
    return [float(np.linalg.norm(row)) for row in res]


# the points at which scalar_derivative_at_zero samples a function of no
# declared degree: h and h / 2 either side of zero
_RICHARDSON_OFFSETS = (
    RICHARDSON_STEP, -RICHARDSON_STEP, RICHARDSON_STEP / 2.0, -RICHARDSON_STEP / 2.0
)


def _richardson(values) -> np.ndarray:
    """scalar_derivative_at_zero of g from g's values at _RICHARDSON_OFFSETS, in that order."""
    return scalar_derivative_at_zero(dict(zip(_RICHARDSON_OFFSETS, values)).__getitem__)


def _point_gradients(L: LagrangianSpec, slots: tuple, pts: np.ndarray, k: int) -> np.ndarray:
    """:func:`_point_gradient` at each row of the (P, 16) slots and (P, 4) points."""
    out = np.empty((len(pts), DIM))
    for row, xv, dv, xc in zip(out, *slots, pts):
        row[:] = _point_gradient(L, (xv, dv), xc, k).comps
    return out


def _numeric_slot_gradients(L: LagrangianSpec, Xv, dv, pts: np.ndarray) -> np.ndarray:
    """grad_d l at each of the (P, 4) points, per row and blade from the density
    itself, given the values of the field and of its aggregate there."""
    return _point_gradients(L, (Xv, sta.restrict(dv, L.d_grades())), pts, 1)


def _dual_of_numeric_slot_gradient(
    L: LagrangianSpec, X: FieldExpr, pts: np.ndarray, plan: dict
) -> np.ndarray:
    """Dual derivative of the pointwise slot-gradient field, by coordinate stencils.

    This is the generic (and deliberately independent) path: the slot
    gradient is sampled along coordinate lines and differentiated with
    Richardson extrapolation, then contracted like the matching dual
    operator.  The stencil points of the whole (P, 4) set are one sample of
    the field trees; each gives one row of (P, 16).  Only meaningful for
    flat modes; gauge modes require closed slot gradients.
    """
    if L.mode.family != "flat":
        raise ValueError(
            f"Lagrangian {L.name!r} needs closed-form slot gradients for mode {L.mode.name}"
        )
    # 16 stencil points per point: point, axis mu, offset along mu, coordinate
    stencil = np.repeat(pts, 16, axis=0).reshape(-1, 4, 4, 4)
    for mu in range(4):
        stencil[:, mu, :, mu] += _RICHARDSON_OFFSETS
    stencil = stencil.reshape(-1, 4)
    grads = _numeric_slot_gradients(L, *evaluate((X, plan["d"]), stencil), stencil)
    grads = grads.reshape(-1, 4, 4, DIM)
    kernel = sta.PRODUCT_KERNELS[L.mode.dual]
    out = np.zeros((len(pts), DIM))
    for mu in range(4):
        for row, deriv in zip(out, _richardson(grads[:, mu].swapaxes(0, 1))):
            row += kernel(GAMMA_UP[mu].comps, deriv)
    return out


def ele_residual_flat(L: LagrangianSpec, X: FieldExpr, x):
    """grad_X l - (dual flat derivative) grad_d l at x, grade-restricted."""
    if L.mode.family != "flat":
        raise ValueError(f"Lagrangian {L.name!r} has mode {L.mode.name}, not flat")
    return _ele_residual(L, X, x, _plan(L, X, None, None))


def ele_residual_gauge(
    L: LagrangianSpec,
    X: FieldExpr,
    x,
    bg: GaugeBackground,
    construction: str | None = None,
):
    """grad_X l - (dual covariant derivative) grad_d l at x."""
    if L.mode.family != "gauge":
        raise ValueError(f"Lagrangian {L.name!r} has mode {L.mode.name}, not gauge")
    return _ele_residual(L, X, x, _plan(L, X, bg, construction))


def ele_residual_spinor(L: LagrangianSpec, psi: FieldExpr, x, bg: GaugeBackground):
    """grad_psi l - D^s grad_{D^s psi} l at x, for even-grade psi."""
    if L.mode is not DerivMode.SPINOR:
        raise ValueError(f"Lagrangian {L.name!r} has mode {L.mode.name}, not spinor")
    require_even(psi, x)
    return _ele_residual(L, psi, x, _plan(L, psi, bg, None))


def ele_residual_reference(
    L: LagrangianSpec,
    X: FieldExpr,
    x,
    bg: GaugeBackground | None = None,
    construction: str | None = None,
):
    """Residual via per-blade numeric slot gradients: the independent path.

    For gauge and spinor modes the dual derivative is still applied to the
    closed slot-gradient field, but the grad_X term is recomputed per blade
    from the density, so the two code paths share no gradient formulas for
    that term; flat modes recompute both terms numerically.  The field trees
    are evaluated once over the point set (and once over all its stencil
    points); only the density differentiation runs row by row.  One point
    gives a :class:`Multivector`, a (P, 4) batch gives (P, 16) components.
    """
    pts, single = _as_coords(x)
    plan = _plan(L, X, bg, construction)
    flat = L.mode.family == "flat"
    if not flat and plan["gd"] is None:
        raise ValueError("gauge/spinor reference path needs closed slot gradients")
    values = evaluate((X, plan["d"]) if flat else (X, plan["d"], plan["gd"], plan["dual_gd"]), pts)
    t1 = _point_gradients(L, values[:2], pts, 0)
    if flat:
        t2 = _dual_of_numeric_slot_gradient(L, X, pts, plan)
    else:
        # cross-check the closed gradient against the per-blade one first
        per_blade = _numeric_slot_gradients(L, *values[:2], pts)
        for closed, blades in zip(values[2], per_blade):
            if np.linalg.norm(closed - blades) > 1e-6 * max(1.0, np.linalg.norm(blades)):
                raise AssertionError("closed-form slot gradient disagrees with per-blade values")
        t2 = values[3]
    res = sta.restrict(t1 - t2, L.field_grades)
    return Multivector(res[0]) if single else res


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
    if L.mode.family == "flat":
        current = boundary_current_flat(A, plan["gd"], L.mode.star)
    else:
        current = boundary_current_gauge(A, plan["gd"], L.mode.star, bg)
    varied = (X, plan["d"], A, _aggregate(L, A, L.mode.star, bg, construction))
    div = del_expr_kind(current, "lc")
    trees = varied + (div,) + _residual_trees(X, plan)
    values = dict(zip(trees, evaluate(trees, pts)))
    w = _weights(L, bg, pts)
    delta = _variation(L, X, A, [values[t] for t in varied], w, pts)
    if L.mode is DerivMode.SPINOR:
        require_even(X, pts)
    res = _residual(L, X, pts, plan, values)
    out = np.abs(delta - w * sta.sp(values[A], res) - values[div][:, 0])
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# built-in Lagrangians
# ---------------------------------------------------------------------------

_BUILTIN_NAMES = ("maxwell_flat", "dirac_flat", "maxwell_gauge", "dirac_gauge")

_DEFAULT_PARAMS = {"mu0": 1.0, "hbar": 1.0, "c": 1.0, "m": 1.0, "e": 1.0}

_SOURCE_NAMES = ("J", "A_ext")


def make_builtin(name: str, params: dict | None = None, sources: dict | None = None) -> LagrangianSpec:
    """The four built-in densities.

    maxwell_*:  -(1/2 mu0) (d ^ A).(d ^ A) - A.J     (flat d or covariant D)
    dirac_*:    hbar (d psi i g3).psi - e (A psi g0).psi - m c psi.psi
                (flat gradient or spinor derivative; gauge forms carry det h)

    Sources: ``J`` (1-form current) and ``A_ext`` (external potential), as
    field expressions; both default to zero and are never varied.  A key
    outside these names or ``_DEFAULT_PARAMS`` raises ValueError, and a
    source with a grade other than 1 raises GradeError.
    """
    if name not in _BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; choose from {_BUILTIN_NAMES}")
    params, sources = params or {}, sources or {}
    for given, known in ((params, _DEFAULT_PARAMS), (sources, _SOURCE_NAMES)):
        unknown = sorted(set(given) - set(known), key=str)
        if unknown:
            raise ValueError(f"unknown key(s) {unknown}; choose from {sorted(known)}")
    p = dict(_DEFAULT_PARAMS)
    p.update(params)
    for key, value in p.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise ValueError(f"{key} must be a finite real number, got {value!r}")
    if not (p["mu0"] > 0 and p["hbar"] > 0 and p["c"] > 0 and p["m"] >= 0):
        raise ValueError("need mu0, hbar, c > 0 and m >= 0")
    j_expr, a_expr = (_lift(sources.get(key, ZERO)) for key in _SOURCE_NAMES)
    for key, expr in zip(_SOURCE_NAMES, (j_expr, a_expr)):
        if not expr.grades <= {1}:
            raise GradeError(f"source {key} must be a 1-form, got grades {sorted(expr.grades)}")

    if name.startswith("maxwell"):
        mu0 = p["mu0"]

        def density(Ac, Fc, xs):
            return -0.5 / mu0 * sta.sp(Fc, Fc) - sta.sp(Ac, j_expr.sample(xs))

        def grad_x(Xe, de):
            return scale(-1.0, j_expr)

        def grad_d(Xe, de):
            return scale(-1.0 / mu0, de)

        mode = DerivMode.FLAT_CURL if name == "maxwell_flat" else DerivMode.GAUGE_CURL
        return LagrangianSpec(
            name=name,
            mode=mode,
            density=density,
            field_grades=frozenset({1}),
            poly_degree=2,
            grad_x=grad_x,
            grad_d=grad_d,
        )

    hbar, e, m, c = p["hbar"], p["e"], p["m"], p["c"]
    c3 = I_GAMMA3
    g0 = GAMMA[0]

    def density(psic, dc, xs):
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
        grad_x=grad_x,
        grad_d=grad_d,
    )
