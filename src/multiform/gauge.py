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

import numpy as np

from . import sta
from .extensor import Extensor11
from .fields import (
    AGGREGATES,
    Const,
    ExtApply,
    FieldExpr,
    GradeError,
    MAdj,
    MatExpr,
    MFromEntries,
    MInv,
    Rev,
    ScalarMap,
    ZERO,
    _as_coords,
    _lift,
    add,
    aggregate_kind,
    del_expr_kind,
    determinant_expr,
    prod,
    scale,
    worst_of,
)
from .sta import EVEN_GRADES, GAMMA, GAMMA_UP, Multivector

_VARIANTS = ("direct", "adjoint", "inverse", "star")


class RotorError(ValueError):
    """Raised when a field fails the unit-rotor gate R R~ = 1."""


class ExtensorField:
    """Position-dependent (1,1)-extensor with scalar field-expression entries.

    Column mu of the matrix holds the components of h(g_mu).  Matrix variants
    (adjoint, inverse, gauge star) and the determinant are derived lazily and
    shared, so repeated use inside one expression tree evaluates them once
    per point batch.
    """

    def __init__(self, entries):
        rows = [[_lift(e) for e in row] for row in entries]
        self._entries = rows
        self._mat = MFromEntries(rows)
        self._variants: dict[str, MatExpr] = {"direct": self._mat}
        self._det: FieldExpr | None = None

    @classmethod
    def from_matrix(cls, m) -> "ExtensorField":
        m = np.asarray(m, dtype=float).reshape(4, 4)
        return cls([[Const(Multivector.scalar(m[i, j])) for j in range(4)] for i in range(4)])

    @classmethod
    def identity(cls) -> "ExtensorField":
        return cls.from_matrix(np.eye(4))

    def matrix(self, variant: str = "direct") -> MatExpr:
        if variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
        hit = self._variants.get(variant)
        if hit is None:
            if variant == "adjoint":
                hit = MAdj(self._mat)
            elif variant == "inverse":
                hit = MInv(self._mat)
            else:  # star = (h^-1) adjoint
                hit = MAdj(MInv(self._mat))
            self._variants[variant] = hit
        return hit

    def apply_expr(self, child, variant: str = "direct") -> FieldExpr:
        """The field x -> variant(h)_x underbar applied to child(x)."""
        return ExtApply(self.matrix(variant), _lift(child))

    def det_expr(self) -> FieldExpr:
        if self._det is None:
            self._det = determinant_expr(self._entries)
        return self._det

    def matrix_at(self, x, variant: str = "direct") -> np.ndarray:
        pts, _ = _as_coords(x)
        return self.matrix(variant).ev(pts, {})[0]

    def at(self, x, variant: str = "direct") -> Extensor11:
        return Extensor11(self.matrix_at(x, variant))

    def det_at(self, x) -> float:
        return float(self.det_expr().at(x).comps[0])


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
            ZERO if c.is_zero else c.restrict({2}) for c in cols
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

    def at(self, x, a: Multivector) -> Multivector:
        return self.expr(a).at(x)

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
        if worst > tol:
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
        self._agg_cache: dict[tuple, FieldExpr] = {}

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
                Const(GAMMA_UP[nu]),
                prod(prod(expr, Const(GAMMA[mu]), "gp"), rev_r, "gp"),
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


def covariant_directional_expr(X: FieldExpr, a: Multivector, bg: GaugeBackground) -> FieldExpr:
    omega = bg.omega if bg.omega is not None else OmegaField.zero()
    return add(X.deriv(a), prod(omega.expr(a), X, "cross"))


def covariant_directional(X: FieldExpr, a, x, bg: GaugeBackground) -> Multivector:
    """D_a X = a.dX + Omega(a) x X at the point x."""
    from .fields import _as_direction

    a = Multivector(_as_direction(a))
    return covariant_directional_expr(X, a, bg).at(x)


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


def spinor_directional_expr(psi: FieldExpr, a: Multivector, bg: GaugeBackground) -> FieldExpr:
    omega = bg.omega if bg.omega is not None else OmegaField.zero()
    return add(psi.deriv(a), scale(0.5, prod(omega.expr(a), psi, "gp")))


def spinor_directional(psi: FieldExpr, a, x, bg: GaugeBackground) -> Multivector:
    """D^s_a psi = a.d psi + (1/2) Omega(a) psi at the point x."""
    from .fields import _as_direction

    require_even(psi, x)
    a = Multivector(_as_direction(a))
    return spinor_directional_expr(psi, a, bg).at(x)


def _hstar_basis(bg: GaugeBackground, mu: int, upper: bool) -> FieldExpr:
    base = GAMMA_UP[mu] if upper else GAMMA[mu]
    return bg.h.apply_expr(Const(base), "star")


def gauge_del_expr(
    X: FieldExpr, mode: str, bg: GaugeBackground, construction: str | None = None
) -> FieldExpr:
    """Covariant divergence/curl/gradient of X as a differentiable field."""
    kind = aggregate_kind(mode)
    construction = bg.pick_construction(construction)
    # the cache holds X itself: id() keys are only unique while X is alive
    key = (id(X), kind, construction)
    hit = bg._agg_cache.get(key)
    if hit is not None:
        return hit[1]

    if construction == "omega":
        acc: FieldExpr = ZERO
        for mu in range(4):
            da = add(
                X.deriv(GAMMA[mu]),
                prod(bg.omega.column(mu), X, "cross"),
            )
            acc = add(acc, prod(_hstar_basis(bg, mu, upper=True), da, kind))
        out = acc
    else:
        if kind == "lc":
            det = bg.h.det_expr()
            inner = prod(det, bg.h.apply_expr(X, "inverse"), "gp")
            out = prod(
                ScalarMap(det, "recip"),
                bg.h.apply_expr(del_expr_kind(inner, "lc"), "direct"),
                "gp",
            )
        elif kind == "op":
            out = bg.h.apply_expr(
                del_expr_kind(bg.h.apply_expr(X, "adjoint"), "op"), "star"
            )
        else:
            out = add(
                gauge_del_expr(X, "divergence", bg, construction),
                gauge_del_expr(X, "curl", bg, construction),
            )
    bg._agg_cache[key] = (X, out)
    return out


def gauge_del(
    X: FieldExpr, mode: str, x, bg: GaugeBackground, construction: str | None = None
) -> Multivector:
    return gauge_del_expr(X, mode, bg, construction).at(x)


def spinor_grad_expr(psi: FieldExpr, bg: GaugeBackground) -> FieldExpr:
    """D^s psi = sum_mu h*(g^mu) D^s_{g_mu} psi as a differentiable field.

    Defined for any multiform argument; the evenness contract is enforced by
    the public spinor entry points, while the Euler-Lagrange machinery also
    applies the operator to odd slot gradients.
    """
    if bg.omega is None:
        raise ValueError("spinor derivatives need a connection field")
    acc: FieldExpr = ZERO
    for mu in range(4):
        da = add(
            psi.deriv(GAMMA[mu]),
            scale(0.5, prod(bg.omega.column(mu), psi, "gp")),
        )
        acc = add(acc, prod(_hstar_basis(bg, mu, upper=True), da, "gp"))
    return acc


def spinor_grad(psi: FieldExpr, x, bg: GaugeBackground) -> Multivector:
    require_even(psi, x)
    return spinor_grad_expr(psi, bg).at(x)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def boundary_current_gauge(
    X: FieldExpr, Y: FieldExpr, kind: str, bg: GaugeBackground
) -> FieldExpr:
    """det(h) sum_mu g^mu [(h*(g_mu) * X) . Y], the gauge boundary current."""
    acc: FieldExpr = ZERO
    for mu in range(4):
        s = prod(prod(_hstar_basis(bg, mu, upper=False), X, kind), Y, "sp")
        acc = add(acc, prod(Const(GAMMA_UP[mu]), s, "gp"))
    return prod(bg.h.det_expr(), acc, "gp")


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
    pts, _ = _as_coords(points)
    mode, _, dual = AGGREGATES[kind]
    memo: dict = {}
    dx = gauge_del_expr(X, mode, bg, construction)
    dy = gauge_del_expr(Y, AGGREGATES[dual][0], bg, construction)
    lhs = sta.sp(dx.ev(pts, memo), Y.ev(pts, memo)) + sta.sp(
        X.ev(pts, memo), dy.ev(pts, memo)
    )
    current = boundary_current_gauge(X, Y, kind, bg)
    det_vals = bg.h.det_expr().ev(pts, memo)[:, 0]
    rhs = del_expr_kind(current, "lc").ev(pts, memo)[:, 0] / det_vals
    return float(np.abs(np.atleast_1d(lhs - rhs)).max())


def check_identity_spinor(
    psi: FieldExpr,
    phi: FieldExpr,
    bg: GaugeBackground,
    points,
    which: str = "both",
) -> float:
    """Max residual of the spinor pairing identities.

    ``derivative`` checks (D^s psi).phi + psi.(D^s phi) against the covariant
    gradients (valid for any bivector connection); ``divergence`` checks the
    det-weighted divergence form (needs a compatible background); ``both``
    returns the larger of the two.
    """
    if which not in ("both", "derivative", "divergence"):
        raise ValueError(f"bad which {which!r}")
    require_even(psi, _PROBE[0])
    require_even(phi, _PROBE[0])
    pts, _ = _as_coords(points)
    memo: dict = {}
    ds_psi = spinor_grad_expr(psi, bg)
    ds_phi = spinor_grad_expr(phi, bg)
    lhs = sta.sp(ds_psi.ev(pts, memo), phi.ev(pts, memo)) + sta.sp(
        psi.ev(pts, memo), ds_phi.ev(pts, memo)
    )
    out = 0.0
    if which in ("both", "derivative"):
        d_psi = gauge_del_expr(psi, "gradient", bg, "omega")
        d_phi = gauge_del_expr(phi, "gradient", bg, "omega")
        rhs = sta.sp(d_psi.ev(pts, memo), phi.ev(pts, memo)) + sta.sp(
            psi.ev(pts, memo), d_phi.ev(pts, memo)
        )
        out = worst_of(out, float(np.abs(np.atleast_1d(lhs - rhs)).max()))
        # the cancellation mechanism behind the identity: the symmetrized
        # correction phi Omega(a) psi~ + psi Omega(a) phi~ is pure grade 2,
        # so its pairing against the 1-form h*(g^mu) vanishes
        for mu in range(4):
            w = add(
                prod(prod(phi, bg.omega.column(mu), "gp"), Rev(psi), "gp"),
                prod(prod(psi, bg.omega.column(mu), "gp"), Rev(phi), "gp"),
            )
            wv = w.ev(pts, memo)
            nong2 = wv * (1.0 - sta.grade_mask({2}))
            out = worst_of(out, float(np.abs(nong2).max()))
            pairing = sta.sp(_hstar_basis(bg, mu, upper=True).ev(pts, memo), wv)
            out = worst_of(out, float(np.abs(np.atleast_1d(pairing)).max()))
    if which in ("both", "divergence"):
        current = boundary_current_gauge(psi, phi, "gp", bg)
        det_vals = bg.h.det_expr().ev(pts, memo)[:, 0]
        rhs = del_expr_kind(current, "lc").ev(pts, memo)[:, 0] / det_vals
        out = worst_of(out, float(np.abs(np.atleast_1d(lhs - rhs)).max()))
    return out


def check_pushforward_vs_omega(
    X: FieldExpr, bg: GaugeBackground, points
) -> float:
    """Max disagreement between the two covariant-aggregate constructions."""
    pts, _ = _as_coords(points)
    memo: dict = {}
    worst = 0.0
    for mode in ("divergence", "curl", "gradient"):
        via_omega = gauge_del_expr(X, mode, bg, "omega").ev(pts, memo)
        via_push = gauge_del_expr(X, mode, bg, "pushforward").ev(pts, memo)
        worst = worst_of(worst, float(np.abs(via_omega - via_push).max()))
    return worst


def check_spinor_gradient_split(
    psi: FieldExpr, bg: GaugeBackground, points
) -> float:
    """Max residual of D psi = D^s psi - (1/2) sum_mu h*(g^mu) psi Omega(g_mu)."""
    if bg.omega is None:
        raise ValueError("the gradient split needs a connection field")
    require_even(psi, _PROBE[0])
    pts, _ = _as_coords(points)
    memo: dict = {}
    correction: FieldExpr = ZERO
    for mu in range(4):
        term = prod(
            prod(_hstar_basis(bg, mu, upper=True), psi, "gp"),
            bg.omega.column(mu),
            "gp",
        )
        correction = add(correction, term)
    d_psi = gauge_del_expr(psi, "gradient", bg, "omega").ev(pts, memo)
    ds_psi = spinor_grad_expr(psi, bg).ev(pts, memo)
    corr = correction.ev(pts, memo)
    return float(np.abs(d_psi - ds_psi + 0.5 * corr).max())
