"""Multiform fields as differentiable expression trees over the position 1-form.

A :class:`FieldExpr` maps a position 1-form x = x^mu g_mu to a multivector.
Trees are built from constants, the position field, coordinate projections,
pointwise sums and products, scalar maps (sin/cos/exp/reciprocal/polynomial),
exponentials of fixed blades, and applications of (position-dependent)
extensors.  Every node carries an exact structural directional derivative
that is again a tree, so derivatives nest to any order; finite differences
appear in this package only as independent test oracles.

Evaluation is batched: ``expr.sample(xs)`` takes an (P, 4) array of
coordinates and returns (P, 16) component arrays, memoizing shared subtrees
per call.  ``expr.at(x)`` is the single-point wrapper returning a
:class:`Multivector`.

Trees are immutable after construction and evaluation is pure (derivative
trees are cached lazily but idempotently), so point batches may be
processed from concurrent contexts without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as _permutations
from typing import Callable, Iterable

import numpy as np

from . import sta
from .extensor import (
    DET_GATE,
    SingularExtensorError,
    adjoint_mats,
    outermorphism_matrix,
    outermorphism_matrix_derivative,
)
from .sta import (
    ALL_GRADES,
    DIM,
    GAMMA,
    GAMMA_UP_ARR,
    GRADES,
    Multivector,
    SP_DIAG,
    VECTOR_IDX,
)


class GradeError(ValueError):
    """Raised when a field or variation direction violates a grade contract."""


# ---------------------------------------------------------------------------
# coordinate plumbing
# ---------------------------------------------------------------------------


def position_form(coords) -> Multivector:
    """The position 1-form x = x^mu g_mu with the given affine coordinates."""
    return Multivector.vector(coords)


def _as_coords(x) -> tuple[np.ndarray, bool]:
    """Normalize a point argument to ((P, 4) coords, was_single_point)."""
    if isinstance(x, Multivector):
        return x.vector_coords().reshape(1, 4), True
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (4,):
            raise ValueError(f"a point needs 4 coordinates, got shape {arr.shape}")
        return arr.reshape(1, 4), True
    if arr.ndim == 2 and arr.shape[1] == 4:
        return arr, False
    raise ValueError(f"points must have shape (4,) or (P, 4), got {arr.shape}")


def _as_direction(a) -> np.ndarray:
    """Normalize a direction to grade-1 (16,) components."""
    if isinstance(a, Multivector):
        comps = a.comps
    else:
        arr = np.asarray(a, dtype=float)
        if arr.shape == (4,):
            comps = np.zeros(DIM)
            comps[VECTOR_IDX] = arr
        elif arr.shape == (DIM,):
            comps = arr.astype(float)
        else:
            raise ValueError(f"bad direction shape {arr.shape}")
    if np.any(comps[GRADES != 1] != 0.0):
        raise GradeError("directional derivatives take grade-1 directions")
    return comps.copy()


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


def _prod_grades(ga: frozenset, gb: frozenset, kind: str) -> frozenset:
    out: set[int] = set()
    for r in ga:
        for s in gb:
            if kind == "op":
                if r + s <= 4:
                    out.add(r + s)
            elif kind == "lc":
                if s - r >= 0:
                    out.add(s - r)
            elif kind == "sp":
                out.add(0)
            else:  # gp, cross
                top = min(r + s, 8 - r - s)
                out.update(range(abs(r - s), top + 1, 2))
    return frozenset(out)


class FieldExpr:
    """Base node: a multiform-valued function of the position 1-form."""

    __slots__ = ("grades", "_dcache")

    def __init__(self, grades: Iterable[int]):
        self.grades = frozenset(grades)
        self._dcache: dict[bytes, FieldExpr] = {}

    # subclasses implement _eval(xs, memo) -> (P, 16) and _build_deriv(a)

    def _eval(self, xs: np.ndarray, memo: dict) -> np.ndarray:
        raise NotImplementedError

    def _build_deriv(self, a: np.ndarray) -> "FieldExpr":
        raise NotImplementedError

    def ev(self, xs: np.ndarray, memo: dict) -> np.ndarray:
        # the memo entry keeps self alive so the id() key stays unique for
        # the memo's whole lifetime, even if callers build trees lazily
        key = id(self)
        hit = memo.get(key)
        if hit is None:
            hit = (self, self._eval(xs, memo))
            memo[key] = hit
        return hit[1]

    def deriv(self, a) -> "FieldExpr":
        """Structural derivative in the constant grade-1 direction a."""
        comps = _as_direction(a)
        key = comps.tobytes()
        hit = self._dcache.get(key)
        if hit is None:
            hit = self._build_deriv(comps)
            self._dcache[key] = hit
        return hit

    def sample(self, xs) -> np.ndarray:
        pts, _ = _as_coords(xs)
        return self.ev(pts, {})

    def at(self, x) -> Multivector:
        pts, _ = _as_coords(x)
        return Multivector(self.ev(pts, {})[0])

    @property
    def is_zero(self) -> bool:
        return False

    # -- sugar ----------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return add(self, scale(-1.0, _lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), scale(-1.0, self))

    def __neg__(self):
        return scale(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(float(other), self)
        return prod(self, _lift(other), "gp")

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scale(float(other), self)
        return prod(_lift(other), self, "gp")

    def __xor__(self, other):
        return prod(self, _lift(other), "op")

    def __lshift__(self, other):
        return prod(self, _lift(other), "lc")

    def sp(self, other) -> "FieldExpr":
        return prod(self, _lift(other), "sp")

    def reverse(self) -> "FieldExpr":
        return Rev(self)

    def restrict(self, grades: Iterable[int]) -> "FieldExpr":
        return Graded(self, grades)


def _lift(value) -> FieldExpr:
    if isinstance(value, FieldExpr):
        return value
    if isinstance(value, Multivector):
        return Const(value)
    if isinstance(value, (int, float)):
        return Const(Multivector.scalar(float(value)))
    raise TypeError(f"cannot use {type(value).__name__} in a field expression")


class Const(FieldExpr):
    __slots__ = ("value",)

    def __init__(self, value: Multivector):
        super().__init__(value.grade_set())
        self.value = value

    def _eval(self, xs, memo):
        return np.broadcast_to(self.value.comps, (xs.shape[0], DIM))

    def _build_deriv(self, a):
        return ZERO

    @property
    def is_zero(self):
        return not np.any(self.value.comps)


ZERO = Const(Multivector.zero())


class Position(FieldExpr):
    __slots__ = ()

    def __init__(self):
        super().__init__({1})

    def _eval(self, xs, memo):
        out = np.zeros((xs.shape[0], DIM))
        out[:, VECTOR_IDX] = xs
        return out

    def _build_deriv(self, a):
        return Const(Multivector(a))


_POSITION = Position()


def position() -> FieldExpr:
    """The identity field x -> x (shared node, safe to reuse)."""
    return _POSITION


def const(value) -> FieldExpr:
    return _lift(value)


def coordinate(k) -> FieldExpr:
    """The scalar field x -> x . k for a constant 1-form k."""
    return prod(_POSITION, _lift(k), "sp")


class Add(FieldExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: FieldExpr, right: FieldExpr):
        super().__init__(left.grades | right.grades)
        self.left = left
        self.right = right

    def _eval(self, xs, memo):
        return self.left.ev(xs, memo) + self.right.ev(xs, memo)

    def _build_deriv(self, a):
        return add(self.left.deriv(a), self.right.deriv(a))


class Scale(FieldExpr):
    __slots__ = ("factor", "child")

    def __init__(self, factor: float, child: FieldExpr):
        super().__init__(child.grades)
        self.factor = float(factor)
        self.child = child

    def _eval(self, xs, memo):
        return self.factor * self.child.ev(xs, memo)

    def _build_deriv(self, a):
        return scale(self.factor, self.child.deriv(a))


class Prod(FieldExpr):
    """Pointwise product; kind is one of gp, op, lc, sp, cross."""

    __slots__ = ("left", "right", "kind")

    def __init__(self, left: FieldExpr, right: FieldExpr, kind: str):
        super().__init__(_prod_grades(left.grades, right.grades, kind))
        self.left = left
        self.right = right
        self.kind = kind

    def _eval(self, xs, memo):
        lv = self.left.ev(xs, memo)
        rv = self.right.ev(xs, memo)
        if self.kind == "sp":
            out = np.zeros((xs.shape[0], DIM))
            out[:, 0] = sta.sp(lv, rv)
            return out
        return sta.PRODUCT_KERNELS[self.kind](lv, rv)

    def _build_deriv(self, a):
        return add(
            prod(self.left.deriv(a), self.right, self.kind),
            prod(self.left, self.right.deriv(a), self.kind),
        )


class Rev(FieldExpr):
    __slots__ = ("child",)

    def __init__(self, child: FieldExpr):
        super().__init__(child.grades)
        self.child = child

    def _eval(self, xs, memo):
        return self.child.ev(xs, memo) * sta.REV_SIGNS

    def _build_deriv(self, a):
        return Rev(self.child.deriv(a))


class Graded(FieldExpr):
    __slots__ = ("child", "keep", "mask")

    def __init__(self, child: FieldExpr, grades: Iterable[int]):
        keep = frozenset(grades)
        super().__init__(child.grades & keep)
        self.child = child
        self.keep = keep
        self.mask = sta.grade_mask(keep)

    def _eval(self, xs, memo):
        return self.child.ev(xs, memo) * self.mask

    def _build_deriv(self, a):
        # projection commutes with the derivative; keep the original mask
        out = Graded(self.child.deriv(a), self.keep)
        return ZERO if not out.grades else out


_SCALAR_FNS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "recip": lambda s: 1.0 / s,
}


class ScalarMap(FieldExpr):
    """Pointwise scalar function of a scalar-valued subexpression."""

    __slots__ = ("child", "kind")

    def __init__(self, child: FieldExpr, kind: str):
        if not child.grades <= {0}:
            raise GradeError(f"{kind} needs a scalar-valued argument")
        if kind not in _SCALAR_FNS:
            raise ValueError(f"unknown scalar map {kind!r}")
        super().__init__({0})
        self.child = child
        self.kind = kind

    def _eval(self, xs, memo):
        s = self.child.ev(xs, memo)[:, 0]
        out = np.zeros((xs.shape[0], DIM))
        out[:, 0] = _SCALAR_FNS[self.kind](s)
        return out

    def _build_deriv(self, a):
        if self.kind == "sin":
            outer: FieldExpr = ScalarMap(self.child, "cos")
        elif self.kind == "cos":
            outer = scale(-1.0, ScalarMap(self.child, "sin"))
        elif self.kind == "exp":
            outer = self
        else:  # recip: d(1/s) = -(1/s)^2 ds
            outer = scale(-1.0, prod(self, self, "gp"))
        return prod(outer, self.child.deriv(a), "gp")


class PolyMap(FieldExpr):
    """Polynomial sum_k coeffs[k] s^k of a scalar-valued subexpression."""

    __slots__ = ("child", "coeffs")

    def __init__(self, child: FieldExpr, coeffs):
        if not child.grades <= {0}:
            raise GradeError("polynomial needs a scalar-valued argument")
        super().__init__({0})
        self.child = child
        self.coeffs = np.asarray(coeffs, dtype=float)

    def _eval(self, xs, memo):
        s = self.child.ev(xs, memo)[:, 0]
        acc = np.zeros_like(s)
        for c in self.coeffs[::-1]:
            acc = acc * s + c
        out = np.zeros((xs.shape[0], DIM))
        out[:, 0] = acc
        return out

    def _build_deriv(self, a):
        if len(self.coeffs) <= 1:
            return ZERO
        dcoeffs = self.coeffs[1:] * np.arange(1, len(self.coeffs))
        return prod(PolyMap(self.child, dcoeffs), self.child.deriv(a), "gp")


class BladeExp(FieldExpr):
    """exp(B s(x)) for a fixed blade B with scalar square and scalar field s."""

    __slots__ = ("b_comps", "beta", "child")

    def __init__(self, blade: Multivector, child: FieldExpr):
        if not child.grades <= {0}:
            raise GradeError("blade exponential needs a scalar-valued argument")
        square = sta.gp(blade.comps, blade.comps)
        beta = square[0]
        if np.abs(square - beta * sta.ONE.comps).max() > 1e-12:
            raise ValueError("blade exponential needs a blade with scalar square")
        super().__init__(frozenset({0}) | blade.grade_set())
        self.b_comps = blade.comps
        self.beta = float(beta)
        self.child = child

    def _eval(self, xs, memo):
        s = self.child.ev(xs, memo)[:, 0]
        if self.beta < -1e-12:
            w = np.sqrt(-self.beta)
            c, k = np.cos(w * s), np.sin(w * s) / w
        elif self.beta > 1e-12:
            w = np.sqrt(self.beta)
            c, k = np.cosh(w * s), np.sinh(w * s) / w
        else:
            c, k = np.ones_like(s), s
        out = np.outer(k, self.b_comps)
        out[:, 0] += c
        return out

    def _build_deriv(self, a):
        # d exp(B s) = B (ds) exp(B s); ds is scalar and B commutes with the series
        inner = prod(self.child.deriv(a), self, "gp")
        return prod(Const(Multivector(self.b_comps)), inner, "gp")


_DEL_KINDS = {"gradient": "gp", "divergence": "lc", "curl": "op"}
_DUAL_KIND = {"gp": "gp", "lc": "op", "op": "lc"}


class DelExpr(FieldExpr):
    """Flat derivative aggregate sum_mu g^mu * (d_mu child) as a field."""

    __slots__ = ("child", "kind")

    def __init__(self, child: FieldExpr, kind: str):
        if kind not in ("gp", "op", "lc"):
            raise ValueError(f"bad derivative kind {kind!r}")
        super().__init__(_prod_grades(frozenset({1}), child.grades, kind))
        self.child = child
        self.kind = kind

    def _eval(self, xs, memo):
        kernel = sta.PRODUCT_KERNELS[self.kind]
        acc = np.zeros((xs.shape[0], DIM))
        for mu in range(4):
            dmu = self.child.deriv(GAMMA[mu]).ev(xs, memo)
            acc += kernel(GAMMA_UP_ARR[mu], dmu)
        return acc

    def _build_deriv(self, a):
        # partials commute on smooth trees
        return del_expr_kind(self.child.deriv(a), self.kind)


# -- smart constructors (prune zero branches of derivative trees) ---------


def add(left: FieldExpr, right: FieldExpr) -> FieldExpr:
    if left.is_zero:
        return right
    if right.is_zero:
        return left
    return Add(left, right)


def scale(factor: float, child: FieldExpr) -> FieldExpr:
    if factor == 0.0 or child.is_zero:
        return ZERO
    if factor == 1.0:
        return child
    if isinstance(child, Scale):
        return scale(factor * child.factor, child.child)
    return Scale(factor, child)


def prod(left: FieldExpr, right: FieldExpr, kind: str) -> FieldExpr:
    if left.is_zero or right.is_zero:
        return ZERO
    return Prod(left, right, kind)


def del_expr_kind(child: FieldExpr, kind: str) -> FieldExpr:
    if child.is_zero:
        return ZERO
    return DelExpr(child, kind)


def del_expr(child: FieldExpr, mode: str) -> FieldExpr:
    """Derivative aggregate as a field; mode is gradient/divergence/curl."""
    return del_expr_kind(child, _DEL_KINDS[mode])


# ---------------------------------------------------------------------------
# matrix expressions: position-dependent 4x4 maps with exact derivatives
# ---------------------------------------------------------------------------


class MatExpr:
    """A (..., 4, 4) matrix-valued function of position, differentiable."""

    __slots__ = ("_dcache",)

    def __init__(self):
        self._dcache: dict[bytes, MatExpr] = {}

    def _eval(self, xs: np.ndarray, memo: dict) -> np.ndarray:
        raise NotImplementedError

    def _build_deriv(self, a: np.ndarray) -> "MatExpr":
        raise NotImplementedError

    def ev(self, xs, memo):
        key = id(self)
        hit = memo.get(key)
        if hit is None:
            hit = (self, self._eval(xs, memo))
            memo[key] = hit
        return hit[1]

    def deriv(self, a) -> "MatExpr":
        comps = _as_direction(a)
        key = comps.tobytes()
        hit = self._dcache.get(key)
        if hit is None:
            hit = self._build_deriv(comps)
            self._dcache[key] = hit
        return hit

    @property
    def is_zero(self) -> bool:
        return False


class MFromEntries(MatExpr):
    __slots__ = ("entries",)

    def __init__(self, entries):
        super().__init__()
        rows = [list(row) for row in entries]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("entries must be 4x4")
        for row in rows:
            for e in row:
                if not e.grades <= {0}:
                    raise GradeError("extensor entries must be scalar-valued fields")
        self.entries = tuple(tuple(row) for row in rows)

    def _eval(self, xs, memo):
        out = np.empty((xs.shape[0], 4, 4))
        for i in range(4):
            for j in range(4):
                out[:, i, j] = self.entries[i][j].ev(xs, memo)[:, 0]
        return out

    def _build_deriv(self, a):
        return MFromEntries(
            [[e.deriv(Multivector(a)) for e in row] for row in self.entries]
        )

    @property
    def is_zero(self):
        return all(e.is_zero for row in self.entries for e in row)


class MAdj(MatExpr):
    __slots__ = ("sub",)

    def __init__(self, sub: MatExpr):
        super().__init__()
        self.sub = sub

    def _eval(self, xs, memo):
        return adjoint_mats(self.sub.ev(xs, memo))

    def _build_deriv(self, a):
        return MAdj(self.sub.deriv(Multivector(a)))

    @property
    def is_zero(self):
        return self.sub.is_zero


class MInv(MatExpr):
    __slots__ = ("sub",)

    def __init__(self, sub: MatExpr):
        super().__init__()
        self.sub = sub

    def _eval(self, xs, memo):
        ms = self.sub.ev(xs, memo)
        dets = np.linalg.det(ms)
        if np.abs(dets).min() <= DET_GATE:
            raise SingularExtensorError(
                f"extensor field is singular at a sample point (|det| = {np.abs(dets).min():.3e})"
            )
        return np.linalg.inv(ms)

    def _build_deriv(self, a):
        da = self.sub.deriv(Multivector(a))
        return MNeg(MMul(MMul(self, da), self))


class MMul(MatExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: MatExpr, right: MatExpr):
        super().__init__()
        self.left = left
        self.right = right

    def _eval(self, xs, memo):
        return self.left.ev(xs, memo) @ self.right.ev(xs, memo)

    def _build_deriv(self, a):
        am = Multivector(a)
        return MAdd(
            MMul(self.left.deriv(am), self.right),
            MMul(self.left, self.right.deriv(am)),
        )

    @property
    def is_zero(self):
        return self.left.is_zero or self.right.is_zero


class MAdd(MatExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: MatExpr, right: MatExpr):
        super().__init__()
        self.left = left
        self.right = right

    def _eval(self, xs, memo):
        return self.left.ev(xs, memo) + self.right.ev(xs, memo)

    def _build_deriv(self, a):
        am = Multivector(a)
        return MAdd(self.left.deriv(am), self.right.deriv(am))

    @property
    def is_zero(self):
        return self.left.is_zero and self.right.is_zero


class MNeg(MatExpr):
    __slots__ = ("sub",)

    def __init__(self, sub: MatExpr):
        super().__init__()
        self.sub = sub

    def _eval(self, xs, memo):
        return -self.sub.ev(xs, memo)

    def _build_deriv(self, a):
        return MNeg(self.sub.deriv(Multivector(a)))

    @property
    def is_zero(self):
        return self.sub.is_zero


class ExtApply(FieldExpr):
    """Outermorphism application t(child), with tangent slots for derivatives.

    With tangent matrix expressions (n_1..n_k) attached, the node computes
    the k-th multilinear derivative of the blade-wise extension, applied to
    the child value.  Differentiation appends the base derivative as a new
    tangent, differentiates each existing tangent, and recurses into the
    child -- so the node set is closed under derivatives of any order.
    """

    __slots__ = ("mat", "tangents", "child")

    def __init__(self, mat: MatExpr, child: FieldExpr, tangents: tuple = ()):
        super().__init__(child.grades)
        self.mat = mat
        self.tangents = tangents
        self.child = child

    def _eval(self, xs, memo):
        m = self.mat.ev(xs, memo)
        key = ("om", id(self.mat), tuple(id(t) for t in self.tangents))
        hit = memo.get(key)
        if hit is None:
            if self.tangents:
                ns = tuple(t.ev(xs, memo) for t in self.tangents)
                big = outermorphism_matrix_derivative(m, ns)
            else:
                big = outermorphism_matrix(m)
            hit = (self.mat, self.tangents, big)
            memo[key] = hit
        cv = self.child.ev(xs, memo)
        return np.einsum("pij,pj->pi", hit[2], cv)

    def _build_deriv(self, a):
        am = Multivector(a)
        terms: list[FieldExpr] = []
        dmat = self.mat.deriv(am)
        if not dmat.is_zero:
            terms.append(ExtApply(self.mat, self.child, self.tangents + (dmat,)))
        for i, t in enumerate(self.tangents):
            dt = t.deriv(am)
            if not dt.is_zero:
                tg = self.tangents[:i] + (dt,) + self.tangents[i + 1 :]
                terms.append(ExtApply(self.mat, self.child, tg))
        dchild = self.child.deriv(am)
        if not dchild.is_zero:
            terms.append(ExtApply(self.mat, dchild, self.tangents))
        if not terms:
            return ZERO
        acc = terms[0]
        for t in terms[1:]:
            acc = Add(acc, t)
        return acc


def determinant_expr(entries) -> FieldExpr:
    """det of a 4x4 grid of scalar fields, as an explicit polynomial tree."""
    rows = [list(row) for row in entries]
    acc: FieldExpr = ZERO
    for perm in _permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        term: FieldExpr = rows[0][perm[0]]
        for r in range(1, 4):
            term = prod(term, rows[r][perm[r]], "gp")
        acc = add(acc, scale((-1.0) ** inversions, term))
    return acc


# ---------------------------------------------------------------------------
# derivative operators (pointwise evaluation)
# ---------------------------------------------------------------------------


def directional_derivative(X: FieldExpr, a, x) -> Multivector:
    """Exact structural a-directional derivative of X at x."""
    return X.deriv(a).at(x)


def _del_values(X: FieldExpr, kind: str, xs: np.ndarray, memo: dict) -> np.ndarray:
    kernel = sta.PRODUCT_KERNELS[kind]
    acc = np.zeros((xs.shape[0], DIM))
    for mu in range(4):
        acc += kernel(GAMMA_UP_ARR[mu], X.deriv(GAMMA[mu]).ev(xs, memo))
    return acc


def apply_del(X: FieldExpr, mode: str, x) -> Multivector:
    """gradient / divergence / curl of X at x (g^mu summed derivative)."""
    if mode not in _DEL_KINDS:
        raise ValueError(f"mode must be one of {sorted(_DEL_KINDS)}, got {mode!r}")
    pts, _ = _as_coords(x)
    return Multivector(_del_values(X, _DEL_KINDS[mode], pts, {})[0])


def gradient(X: FieldExpr, x) -> Multivector:
    return apply_del(X, "gradient", x)


def divergence(X: FieldExpr, x) -> Multivector:
    return apply_del(X, "divergence", x)


def curl(X: FieldExpr, x) -> Multivector:
    return apply_del(X, "curl", x)


# ---------------------------------------------------------------------------
# multivector (slot) derivatives of scalar functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFn:
    """Scalar-valued function of one or two multivector slots.

    ``poly_degree`` declares the total polynomial degree in the slots when
    the function is polynomial; slot derivatives are then computed with
    degree-exact symmetric stencils instead of limits.
    """

    fn: Callable[..., float]
    arity: int = 1
    grades: tuple = (ALL_GRADES,)
    poly_degree: int | None = None

    def __call__(self, *args) -> float:
        return float(self.fn(*args))


def scalar_derivative_at_zero(
    g: Callable[[float], float], poly_degree: int | None = None, step: float = 1e-3
) -> float:
    """d/dl g(l) at l = 0.

    For declared polynomial degree <= 4 the symmetric stencils below are
    algebraically exact; otherwise two-level Richardson extrapolation of the
    central difference is used.
    """
    if poly_degree is not None and poly_degree <= 2:
        return 0.5 * (g(1.0) - g(-1.0))
    if poly_degree is not None and poly_degree <= 4:
        return (-g(2.0) + 8.0 * g(1.0) - 8.0 * g(-1.0) + g(-2.0)) / 12.0
    h = step
    d1 = (g(h) - g(-h)) / (2.0 * h)
    d2 = (g(h / 2.0) - g(-h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def multivector_derivative(
    F,
    X0: Multivector,
    grades: Iterable[int],
    poly_degree: int | None = None,
    step: float = 1e-3,
) -> Multivector:
    """Slot derivative of a scalar function: sum_J e^J d/dl F(X0 + l e_J).

    The sum runs over basis blades with grade in ``grades``; e^J is the
    reciprocal blade, which in this metric is just a sign flip.
    """
    grades = frozenset(grades)
    tol = 1e-12 * max(1.0, float(np.abs(X0.comps).max()))
    actual = X0.grade_set(tol)
    if not actual <= grades:
        raise GradeError(
            f"X0 has grades {sorted(actual)} outside {sorted(grades)}"
        )
    if isinstance(F, ScalarFn):
        if poly_degree is None:
            poly_degree = F.poly_degree
        fn = F.fn
    else:
        fn = F
    out = np.zeros(DIM)
    for mask in range(DIM):
        if GRADES[mask] not in grades:
            continue
        blade = Multivector.blade(mask)

        def g(lam: float, _b=blade) -> float:
            return float(fn(X0 + lam * _b))

        out[mask] = SP_DIAG[mask] * scalar_derivative_at_zero(g, poly_degree, step)
    return Multivector(out)


# ---------------------------------------------------------------------------
# flat boundary currents and the divergence-form identities
# ---------------------------------------------------------------------------

_PAIR_KINDS = ("lc", "op", "gp")


def boundary_current_flat(X: FieldExpr, Y: FieldExpr, kind: str) -> FieldExpr:
    """The 1-form current v = sum_mu g^mu [(g_mu * X) . Y] for * in {lc, op, gp}."""
    if kind not in _PAIR_KINDS:
        raise ValueError(f"kind must be one of {_PAIR_KINDS}, got {kind!r}")
    acc: FieldExpr = ZERO
    for mu in range(4):
        s = prod(prod(Const(GAMMA[mu]), X, kind), Y, "sp")
        acc = add(acc, prod(Const(sta.GAMMA_UP[mu]), s, "gp"))
    return acc


def worst_of(*residuals: float) -> float:
    """The largest residual, ranking NaN above +inf so that a NaN is never dropped.

    ``max(0.0, nan)`` is ``0.0``: the builtin lets a NaN that follows a
    finite residual vanish, and the check it feeds would pass.
    """
    return float(max(residuals, key=lambda r: (math.isnan(r), r)))


def check_identity_flat(X: FieldExpr, Y: FieldExpr, kind: str, points) -> float:
    """Max pointwise residual of the flat divergence-form identity.

    kind selects the product applied to X: lc pairs (div X, curl Y), op pairs
    (curl X, div Y), gp pairs both gradients; in every case the right side is
    the divergence of :func:`boundary_current_flat`.
    """
    pts, _ = _as_coords(points)
    memo: dict = {}
    lhs = sta.sp(_del_values(X, kind, pts, memo), Y.ev(pts, memo)) + sta.sp(
        X.ev(pts, memo), _del_values(Y, _DUAL_KIND[kind], pts, memo)
    )
    current = boundary_current_flat(X, Y, kind)
    rhs = _del_values(current, "lc", pts, memo)[:, 0]
    return float(np.abs(np.atleast_1d(lhs - rhs)).max())


def gauss_check(
    v: FieldExpr, box: tuple, n: int
) -> tuple[float, float]:
    """Midpoint volume integral of div v over a 4-box vs the outward face flux.

    Faces are sampled at midpoints of the transverse grid; d3S_mu carries the
    product of the three transverse extents with outward orientation.
    """
    if n < 2:
        raise ValueError("need at least 2 subdivisions per axis")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    h = (hi - lo) / n
    axes = [lo[k] + (np.arange(n) + 0.5) * h[k] for k in range(4)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    div_vals = _del_values(v, "lc", grid, {})[:, 0]
    volume = float(div_vals.sum() * np.prod(h))

    flux = 0.0
    for mu in range(4):
        t_axes = [axes[k] for k in range(4) if k != mu]
        tgrid = np.stack(np.meshgrid(*t_axes, indexing="ij"), axis=-1).reshape(-1, 3)
        area = float(np.prod([h[k] for k in range(4) if k != mu]))
        for side, sign in ((hi[mu], 1.0), (lo[mu], -1.0)):
            pts = np.empty((tgrid.shape[0], 4))
            pts[:, mu] = side
            cols = [k for k in range(4) if k != mu]
            for c, k in enumerate(cols):
                pts[:, k] = tgrid[:, c]
            vals = v.sample(pts)[:, 1 << mu]
            flux += sign * float(vals.sum()) * area
    return volume, flux
