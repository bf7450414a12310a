"""Gauge backgrounds (h, Omega) and covariant derivative machinery.

A background pairs an invertible position-dependent (1,1)-extensor field h
(the gauge metric) with a connection Omega mapping 1-forms to bivectors.
The covariant directional derivative is D_a X = a.dX + Omega(a) x X, the
spinor variant is D^s_a psi = a.d psi + (1/2) Omega(a) psi, and the covariant
divergence / curl / gradient contract h*(g^mu) against D_{g_mu} with the
matching product.

Two constructions of the covariant aggregates are provided:

* ``omega``      -- the literal sum over h*(g^mu) * D_{g_mu}X, requiring an
                    Omega field (rotor-induced backgrounds are the compatible
                    case);
* ``pushforward``-- divergence and curl transported through the extension of
                    h and its adjoint/star, defined for any smooth invertible
                    h without reference to Omega.

Everything is assembled from field expressions, so the covariant aggregates
are themselves differentiable fields and can be nested (for second-order
operators like the covariant wave operator) without losing exactness.
"""

from __future__ import annotations

import math

import numpy as np

from . import sta
from .extensor import DET_GATE, Extensor11, SingularExtensorError, adjoint, invert
from .fields import (
    GAMMA_NODES,
    GAMMA_UP_NODES,
    Const,
    ExtApply,
    FieldExpr,
    GradeError,
    Graded,
    MatExpr,
    Rev,
    ScalarMap,
    ZERO,
    _as_coords,
    _as_direction,
    _boundary_current,
    _check_kind,
    _lift,
    _one_point,
    _keep,
    add,
    del_expr_kind,
    evaluate,
    prod,
    scale,
    worst_of,
)
from .sta import EVEN_GRADES, GAMMA, PSEUDOSCALAR, Multivector

_VARIANTS = ("direct", "adjoint", "inverse", "star")

# the pseudoscalar I; I^-1 = -I and sp(A, I) = <A I>, so <A I^-1> = -sp(A, I)
_I = Const(PSEUDOSCALAR)


class RotorError(ValueError):
    """Raised when a field fails the unit-rotor gate R R~ = 1."""


class _RecipDet(ScalarMap):
    """1/det h, refusing a point set on which |det h| <= DET_GATE.

    Its derivative is the reciprocal's, -(1/det h)^2 d det h, with 1/det h
    read from a twin that keeps the gate.
    """

    __slots__ = ()

    def __init__(self, det: FieldExpr):
        super().__init__(det, "recip")

    def _twin(self) -> "_RecipDet":
        return _RecipDet(self.child)

    def _eval(self, xs, child):
        worst = np.abs(child[:, 0]).min()
        if worst <= DET_GATE:
            raise SingularExtensorError(
                f"extensor field is singular at a sample point (|det| = {worst:.3e})"
            )
        return super()._eval(xs, child)


class ExtensorField:
    """Position-dependent (1,1)-extensor with scalar field-expression entries.

    Column mu of the matrix holds the components of h(g_mu); ``matrix()``
    gives that node, the one matrix node of the field.  Everything else is a
    tree derived on it, built once per extensor field and shared by every
    tree that uses it; the matrix node and these trees are kept, so each is
    evaluated once per point set however many evaluation calls read it.  h
    and its adjoint apply one outermorphism per tangent set, the adjoint as
    its transpose under the scalar product; det h is the pseudoscalar image
    of that outermorphism, with a gated reciprocal.  No matrix is inverted: the
    inverse and the gauge star are the duals

        h^-1(X) = adj h(X I) I^-1 / det h,    h*(X) = h(X I) I^-1 / det h,

    which raise ``SingularExtensorError`` where h is singular.
    """

    def __init__(self, entries):
        self._mat = _keep(MatExpr([[_lift(e) for e in row] for row in entries]))
        # det, 1/det and the star basis: trees over the matrix node, kept
        # here rather than on it, since each of them points at it
        self._trees: dict = {}

    def _tree(self, key, build):
        hit = self._trees.get(key)
        if hit is None:
            hit = self._trees[key] = _keep(build())
        return hit

    @classmethod
    def from_matrix(cls, m) -> "ExtensorField":
        m = np.asarray(m, dtype=float).reshape(4, 4)
        return cls([[Const(Multivector.scalar(m[i, j])) for j in range(4)] for i in range(4)])

    @classmethod
    def identity(cls) -> "ExtensorField":
        return cls.from_matrix(np.eye(4))

    def matrix(self) -> MatExpr:
        return self._mat

    def apply_expr(self, child, variant: str = "direct") -> FieldExpr:
        """The field x -> variant(h)_x underbar applied to child(x)."""
        child = _lift(child)
        if variant == "inverse":
            return prod(self._recip_det(), self._dual(child, "adjoint"), "gp")
        if variant == "star":  # h* = (h^-1) adjoint
            return prod(self._recip_det(), self._dual(child, "direct"), "gp")
        if variant in ("direct", "adjoint"):
            return ExtApply(self._mat, child, adjoint=variant == "adjoint")
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")

    def _dual(self, child: FieldExpr, variant: str) -> FieldExpr:
        """variant(h)(child I) I^-1: det h times the inverse of the other variant."""
        applied = self.apply_expr(prod(child, _I, "gp"), variant)
        return scale(-1.0, prod(applied, _I, "gp"))

    def det_expr(self) -> FieldExpr:
        """det h = <h(I) I^-1>, the factor by which the outermorphism scales I.

        Its derivatives are the tangent slots of the outermorphism, and it
        stays defined (zero) where h is singular.
        """
        return self._tree(
            "det", lambda: scale(-1.0, prod(ExtApply(self._mat, _I), _I, "sp"))
        )

    def _recip_det(self) -> FieldExpr:
        return self._tree("recip_det", lambda: _RecipDet(self.det_expr()))

    def star_basis(self, mu: int, upper: bool) -> FieldExpr:
        """h*(g^mu) (upper) or h*(g_mu) as a field."""
        base = (GAMMA_UP_NODES if upper else GAMMA_NODES)[mu]
        return self._tree(("star", base), lambda: self.apply_expr(base, "star"))

    def at(self, x, variant: str = "direct") -> Extensor11:
        """variant(h) at one point by matrix inversion, an oracle for the dual formulas."""
        t = Extensor11(evaluate((self._mat,), _one_point(x))[0][0])
        if variant == "direct":
            return t
        if variant == "adjoint":
            return adjoint(t)
        if variant == "inverse":
            return invert(t)
        if variant == "star":
            return adjoint(invert(t))
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


class OmegaField:
    """Bivector-valued connection: columns are Omega(g_mu) as field expressions.

    Columns are grade-2 projected on construction, which makes the purity
    invariant hold identically.
    """

    def __init__(self, columns):
        cols = [_lift(c) for c in columns]
        if len(cols) != 4:
            raise ValueError("need one bivector column per basis direction")
        self._columns = tuple(
            ZERO if c.is_zero else Graded(c, {2}) for c in cols
        )

    @classmethod
    def zero(cls) -> "OmegaField":
        return cls([ZERO, ZERO, ZERO, ZERO])

    def column(self, mu: int) -> FieldExpr:
        return self._columns[mu]

    def expr(self, a: Multivector) -> FieldExpr:
        """Omega(a) for a constant 1-form a, by linearity over the columns."""
        acc: FieldExpr = ZERO
        coeffs = a.vector_coords()
        for mu in range(4):
            acc = add(acc, scale(float(coeffs[mu]), self._columns[mu]))
        return acc

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self._columns)


class RotorField:
    """Even field R with R R~ = 1, generator of compatible backgrounds."""

    def __init__(self, expr: FieldExpr):
        if not expr.grades <= EVEN_GRADES:
            raise GradeError("a rotor field must be even-grade")
        self.expr = expr

    def validate(self, points, tol: float = 1e-10) -> float:
        pts, _ = _as_coords(points)
        vals = self.expr.sample(pts)
        resid = sta.gp(vals, sta.rev(vals)) - sta.ONE.comps
        worst = float(np.abs(resid).max())
        if not worst <= tol:  # a NaN deviation fails too
            raise RotorError(f"R R~ deviates from 1 by {worst:.3e} (> {tol:g})")
        return worst


class GaugeBackground:
    """A gauge pair (h, Omega); ``compatible`` marks rotor-induced pairs."""

    def __init__(
        self,
        h: ExtensorField,
        omega: OmegaField | None = None,
        compatible: bool = False,
    ):
        self.h = h
        self.omega = omega
        self.compatible = compatible

    def pick_construction(self, construction: str | None) -> str:
        if construction is not None:
            if construction not in ("omega", "pushforward"):
                raise ValueError(f"unknown construction {construction!r}")
            if construction == "omega" and self.omega is None:
                raise ValueError("omega construction needs a connection field")
            return construction
        if self.omega is not None and self.compatible:
            return "omega"
        return "pushforward"


def identity_background() -> GaugeBackground:
    """Flat background: h = identity, Omega = 0 (rotor-induced by R = 1)."""
    return GaugeBackground(ExtensorField.identity(), OmegaField.zero(), compatible=True)


_PROBE = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.4, -0.3, 0.2, -0.1],
        [-0.5, 0.1, -0.4, 0.3],
        [0.2, 0.5, 0.1, -0.4],
        [-0.1, -0.2, 0.5, 0.2],
    ]
)


def rotor_gauge(R, points=None) -> GaugeBackground:
    """Background induced by a unit rotor: h(a) = R a R~, Omega(a) = -2 (a.dR) R~."""
    rotor = R if isinstance(R, RotorField) else RotorField(_lift(R))
    rotor.validate(_PROBE if points is None else points)
    expr = rotor.expr
    rev_r = Rev(expr)
    entries = [
        [
            prod(
                GAMMA_UP_NODES[nu],
                prod(prod(expr, GAMMA_NODES[mu], "gp"), rev_r, "gp"),
                "sp",
            )
            for mu in range(4)
        ]
        for nu in range(4)
    ]
    columns = [
        scale(-2.0, prod(expr.deriv(GAMMA[mu]), rev_r, "gp")) for mu in range(4)
    ]
    return GaugeBackground(ExtensorField(entries), OmegaField(columns), compatible=True)


# ---------------------------------------------------------------------------
# covariant derivatives
# ---------------------------------------------------------------------------


def covariant_directional_expr(X: FieldExpr, a, bg: GaugeBackground) -> FieldExpr:
    """D_a X = a.dX + Omega(a) x X as a field, for a constant grade-1 direction a."""
    a = Multivector(_as_direction(a))
    omega = bg.omega if bg.omega is not None else OmegaField.zero()
    return add(X.deriv(a), prod(omega.expr(a), X, "cross"))


_PROBE_EVEN = np.array(
    [
        [0.37, -0.21, 0.11, -0.43],
        [-0.52, 0.33, -0.18, 0.27],
        [0.14, 0.46, -0.39, 0.08],
    ]
)


def require_even(psi: FieldExpr, x=None) -> None:
    """Reject fields that are not even-grade.

    Fields whose conservative grade bound is even pass immediately; others
    are sampled at a probe set (plus the point of use) so an odd field
    cannot slip through by vanishing at a single point.
    """
    if psi.grades <= EVEN_GRADES:
        return
    probes = [_PROBE_EVEN]
    if x is not None:
        probes.append(_as_coords(x)[0])
    vals = psi.sample(np.vstack(probes))
    odd = sta.GRADES % 2 == 1
    if float(np.abs(vals[:, odd]).max()) <= 1e-12:
        return
    raise GradeError("spinor operations take even-grade fields")


def spinor_directional_expr(psi: FieldExpr, a, bg: GaugeBackground) -> FieldExpr:
    """D^s_a psi = a.d psi + (1/2) Omega(a) psi as a field, for a constant grade-1 direction a."""
    a = Multivector(_as_direction(a))
    omega = bg.omega if bg.omega is not None else OmegaField.zero()
    return add(psi.deriv(a), scale(0.5, prod(omega.expr(a), psi, "gp")))


def _star_contraction(X: FieldExpr, kind: str, bg: GaugeBackground, directional) -> FieldExpr:
    """sum_mu h*(g^mu) * D_{g_mu} X, with D the given directional derivative expression."""
    acc: FieldExpr = ZERO
    for mu in range(4):
        da = directional(X, GAMMA[mu], bg)
        acc = add(acc, prod(bg.h.star_basis(mu, upper=True), da, kind))
    return acc


def gauge_del_expr(
    X: FieldExpr, kind: str, bg: GaugeBackground, construction: str | None = None
) -> FieldExpr:
    """Covariant aggregate sum_mu h*(g^mu) * D_{g_mu} X as a differentiable field.

    ``kind`` is the product *: lc (divergence), op (curl) or gp (gradient).
    Each call builds a new tree over X, which keeps no value between
    evaluation calls: a caller evaluates it with the trees it is compared
    with, in one ``evaluate`` call.
    """
    _check_kind(kind)
    construction = bg.pick_construction(construction)
    if construction == "omega":
        return _star_contraction(X, kind, bg, covariant_directional_expr)
    if kind == "lc":
        # det h h^-1(X) = adj h(X I) I^-1 needs no inverse
        inner = bg.h._dual(X, "adjoint")
        return prod(
            bg.h._recip_det(),
            bg.h.apply_expr(del_expr_kind(inner, "lc"), "direct"),
            "gp",
        )
    if kind == "op":
        return bg.h.apply_expr(del_expr_kind(bg.h.apply_expr(X, "adjoint"), "op"), "star")
    return add(
        gauge_del_expr(X, "lc", bg, construction),
        gauge_del_expr(X, "op", bg, construction),
    )


def spinor_grad_expr(psi: FieldExpr, bg: GaugeBackground) -> FieldExpr:
    """D^s psi = sum_mu h*(g^mu) D^s_{g_mu} psi as a differentiable field, a new tree per call.

    Defined for any multiform argument, since the Euler-Lagrange machinery
    also applies it to odd slot gradients; evenness is enforced where fields
    enter the spinor machinery, by ``ele_residual_spinor`` and
    ``check_spinor_gradient_split``.
    """
    if bg.omega is None:
        raise ValueError("spinor derivatives need a connection field")
    return _star_contraction(psi, "gp", bg, spinor_directional_expr)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def boundary_current_gauge(
    X: FieldExpr, Y: FieldExpr, kind: str, bg: GaugeBackground
) -> FieldExpr:
    """det(h) sum_mu g^mu [(h*(g_mu) * X) . Y], the gauge boundary current."""
    frames = [bg.h.star_basis(mu, upper=False) for mu in range(4)]
    return prod(bg.h.det_expr(), _boundary_current(frames, X, Y, kind), "gp")


def check_identity_gauge(
    X: FieldExpr,
    Y: FieldExpr,
    kind: str,
    bg: GaugeBackground,
    points,
    construction: str | None = None,
) -> float:
    """Max residual of the covariant divergence-form identity.

    kind is the product applied to X (lc, op, or gp); the dual product is
    applied to Y and the right side is det(h^-1) times the flat divergence of
    the det(h)-weighted gauge current.
    """
    dual = _check_kind(kind)
    dx = gauge_del_expr(X, kind, bg, construction)
    dy = gauge_del_expr(Y, dual, bg, construction)
    # the flat divergence of the gauge boundary current: det(h) times the covariant one
    div = del_expr_kind(boundary_current_gauge(X, Y, kind, bg), "lc")
    # one call, so that the trees share the background's values and X's and Y's
    dxv, Yv, Xv, dyv, divv, det = evaluate((dx, Y, X, dy, div, bg.h.det_expr()), points)
    lhs = sta.sp(dxv, Yv) + sta.sp(Xv, dyv)
    return float(np.abs(np.atleast_1d(lhs - divv[:, 0] / det[:, 0])).max())


def check_identity_spinor(
    psi: FieldExpr, phi: FieldExpr, bg: GaugeBackground, points
) -> float:
    """Max residual of the grade-2 cancellation behind the spinor pairing identity.

    For each mu, the symmetrized connection term phi Omega(g_mu) psi~ +
    psi Omega(g_mu) phi~ must be pure grade 2, and its pairing against the
    1-form h*(g^mu) must vanish; returns the largest residual, NaN where psi
    or phi is not finite.  The aggregate pairing (D^s psi).phi + psi.(D^s phi)
    is not compared: D^s psi has grades {1, 3}, phi has {0, 2, 4}, and the
    scalar product is diagonal in the blade basis, so both of its sides, and
    its divergence form's boundary current, read exactly 0.0 at every point.
    The directional form d_mu (psi.phi) = (D^s_mu psi).phi + psi.(D^s_mu phi)
    is one that is not vacuous.
    """
    require_even(psi, _PROBE[0])
    require_even(phi, _PROBE[0])
    if bg.omega is None:
        raise ValueError("spinor derivatives need a connection field")
    trees = [psi, phi]
    for mu in range(4):
        w = add(
            prod(prod(phi, bg.omega.column(mu), "gp"), Rev(psi), "gp"),
            prod(prod(psi, bg.omega.column(mu), "gp"), Rev(phi), "gp"),
        )
        trees += [w, bg.h.star_basis(mu, upper=True)]
    psiv, phiv, *rest = evaluate(trees, points)
    # with Omega = 0 no term below reads psi or phi, so a value of theirs
    # that is not finite reads NaN here
    out = 0.0 if np.isfinite(psiv).all() and np.isfinite(phiv).all() else math.nan
    for wv, star in zip(rest[0::2], rest[1::2]):
        nong2 = wv * (1.0 - sta.grade_mask({2}))
        out = worst_of(out, float(np.abs(nong2).max()))
        pairing = sta.sp(star, wv)
        out = worst_of(out, float(np.abs(np.atleast_1d(pairing)).max()))
    return out


def check_pushforward_vs_omega(
    X: FieldExpr, bg: GaugeBackground, points
) -> float:
    """Max disagreement between the two covariant-aggregate constructions."""
    kinds = ("lc", "op", "gp")
    trees = [gauge_del_expr(X, k, bg, c) for k in kinds for c in ("omega", "pushforward")]
    values = evaluate(trees, points)
    worst = 0.0
    for via_omega, via_push in zip(values[0::2], values[1::2]):
        worst = worst_of(worst, float(np.abs(via_omega - via_push).max()))
    return worst


def check_spinor_gradient_split(
    psi: FieldExpr, bg: GaugeBackground, points
) -> float:
    """Max residual of D psi = D^s psi - (1/2) sum_mu h*(g^mu) psi Omega(g_mu)."""
    if bg.omega is None:
        raise ValueError("the gradient split needs a connection field")
    require_even(psi, _PROBE[0])
    correction: FieldExpr = ZERO
    for mu in range(4):
        term = prod(
            prod(bg.h.star_basis(mu, upper=True), psi, "gp"),
            bg.omega.column(mu),
            "gp",
        )
        correction = add(correction, term)
    d_psi, ds_psi, corr = evaluate(
        (gauge_del_expr(psi, "gp", bg, "omega"), spinor_grad_expr(psi, bg), correction), points
    )
    return float(np.abs(d_psi - ds_psi + 0.5 * corr).max())
