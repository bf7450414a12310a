"""Multiform fields as differentiable expression trees over the position 1-form.

A :class:`FieldExpr` maps a position 1-form x = x^mu g_mu to a multivector.
Trees are built from constants, the position field, coordinate projections,
pointwise sums and products, scalar maps (sin/cos/exp/reciprocal/polynomial),
exponentials of fixed blades, and applications of (position-dependent)
extensors.  Every node carries an exact structural directional derivative
that is again a tree, so derivatives nest to any order; finite differences
appear in this package only as independent test oracles.

Evaluation is batched: ``expr.sample(xs)`` takes an (P, 4) array of
coordinates and returns (P, 16) component arrays.  A point set larger than
``SAMPLE_BLOCK`` rows is evaluated one block of rows at a time into one
output; no row's value depends on the rows evaluated with it, so the
output equals one whole-set evaluation bit for bit, and no value holds more
than a block of rows.  So does every walk over a grid, via ``_grid_blocks``.
``expr.at(x)`` is the single-point form returning a :class:`Multivector`;
it refuses a batch.
Derivatives have no pointwise entry points of their own: ``X.deriv(a)``
and ``del_expr_kind(X, kind)`` are trees, evaluated like any other field,
as in ``X.deriv(a).at(x)`` or ``del_expr_kind(X, "op").sample(xs)``.  A
derivative aggregate sum_mu g^mu * (d_mu X) is named by its product kind
*: "lc" for the divergence, "op" for the curl, "gp" for the gradient.
Each leaf has one spelling: a constant is ``Const(value)``, the position
field is ``position()``, and a point is a 4-array or the 1-form
``Multivector.vector(coords)``.  So does each combination of trees, which
have no operators: ``add(l, r)``, ``scale(c, child)``, ``prod(l, r, kind)``
with kind "gp", "op", "lc", "sp" or "cross", ``Rev(child)`` and
``Graded(child, grades)``.  Slot derivatives of a scalar function,
:func:`multivector_derivative`, take a plain callable; without a declared
polynomial degree they extrapolate central differences of step
``RICHARDSON_STEP``, the one copy of that step in the package.

Trees are evaluated by one entry, ``evaluate(roots, pts)``, which returns
the values of the trees ``roots`` at one point set; ``sample``, ``at`` and
every library function pass it all the roots they read.  Values live for the
call: each node's ``_eval`` receives its children's values, and a memo holds
the value of each root and of each node read by more than one parent until
the call returns.  Only kept nodes keep a value between calls, in a slot
``(point-set key, value)`` keyed by the float64 bytes of the (P, 4)
coordinates (an equal array built anew hits it, one changed in place misses
it): the leaves ``Const`` and ``position()``, the trees handed out for reuse
(a ``deriv`` result, the four partials of an aggregate, an extensor field's
matrix and trees, a connection's columns, an outermorphism) and every tree
``derived`` builds from a kept node.  So the extensor field and connection
of a gauge background are evaluated once per point set.  A nine-scenario
pass at seed 3 makes 63,833 evaluations and keeps 10,771 values between
calls.  Returned and kept values are read-only.  Trees are immutable after
construction, but for reader counts and kept slots; each call has its own
memo and a slot is replaced as one tuple, so point batches may be evaluated
from concurrent contexts, which may recompute a value another has just
kept.  A slot lives as long as its node.
A node owns its derivatives and chain-rule factors; aggregates and residual
plans are built per call and owned by their caller.  Every tree is acyclic:
nothing a node owns points back at it, so reference counting frees a field
nothing holds, with its trees and their values, at once.  The derivatives of
e^s, 1/s and exp(B s) contain the node's own value; they read it from a
twin, a node of the same kind over the same child, which computes the same
bits.  An outermorphism is shared through a weak-valued map on its matrix.

The chain rule d_a f(s) = f'(s) d_a s has a factor that does not depend on
the direction a.  ScalarMap, PolyMap and BladeExp build it once per node
(cos s, -sin s, e^s, -(1/s)^2, p'(s), the constant blade B) through the
node's own ``derived("outer", ...)`` entry, so the four partials of a node,
and their own derivatives, share one factor node, evaluated once per call,
and one derivative cache.  Full hash-consing (one live node per structure,
found in a global weak table) was measured and not adopted: it removed 14.6%
of the node evaluations of a nine-scenario pass, but its key building and
table traffic cost as much time as that saved, and almost all of its hits
were these factors (ScalarMap 2,151, PolyMap 2,074, Scale 1,215, against
Prod 1,050 of 34k and Add 40 of 13.7k).  Sharing the factor alone removes
10.9% with no table.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from typing import Callable, Iterable

import numpy as np

from . import sta
from .extensor import outermorphism_matrix, outermorphism_matrix_derivative
from .sta import (
    DIM,
    GAMMA,
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


def _one_point(x) -> np.ndarray:
    """A single-point argument as (1, 4) coordinates; any other point count is refused."""
    pts, _ = _as_coords(x)
    if pts.shape[0] != 1:
        raise ValueError(f"a single-point call takes one point, got shape {pts.shape}")
    return pts


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


_SCALAR = frozenset({0})


@functools.lru_cache(maxsize=None)  # at most 32 * 32 * 5 keys
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


# rows of a point set that FieldExpr.sample evaluates at once: every value
# of a sample holds at most this many rows, whatever the point count
SAMPLE_BLOCK = 4096


class _Node:
    """Base of field and matrix nodes: the nodes it reads, the trees derived
    from it, and, if it is kept, one value slot."""

    __slots__ = ("_kids", "_dcache", "_value", "_uses", "__weakref__")

    def __init__(self, children: tuple = ()):  # the nodes whose values it reads
        self._kids = children
        self._dcache: dict = {}
        self._value = None  # (point-set key, value) once the node is kept
        self._uses = 0
        for child in children:
            child._uses += 1

    # subclasses implement _eval(xs, *child_values) -> array

    def derived(self, key, build: Callable[[], "_Node"]) -> "_Node":
        """The tree ``build`` makes from this node, built once per key and owned
        here; kept when this node is kept."""
        hit = self._dcache.get(key)
        if hit is None:
            hit = self._dcache[key] = build()
            if self._value is not None:
                _keep(hit)
        return hit


def _keep(node: _Node) -> _Node:
    """``node``, marked to keep its value between evaluation calls."""
    if node._value is None:
        node._value = (None, None)
    return node


_ROOT = object()  # the memo entry of a call root not yet evaluated


def evaluate(roots, pts) -> list:
    """The values of the trees ``roots`` at the (P, 4) points ``pts``, in one call.

    A node read by more than one parent, or given as a root, is evaluated
    once per call; a kept node is evaluated once per point set.
    """
    pts, _ = _as_coords(pts)
    key = pts.tobytes()
    memo = dict.fromkeys(roots, _ROOT)
    get = memo.get

    def value(node):
        slot = node._value
        if slot is None:  # not kept: the memo holds what this call reads again
            got = get(node)
            if got is not None and got is not _ROOT:
                return got
            out = node._eval(pts, *map(value, node._kids))
            if got is _ROOT or node._uses != 1:
                out.flags.writeable = False
                memo[node] = out
            return out
        if slot[0] == key:
            return slot[1]
        out = node._eval(pts, *map(value, node._kids))
        out.flags.writeable = False
        node._value = (key, out)
        return out

    try:
        return [value(root) for root in roots]
    finally:
        value = None  # the closure reads itself: drop it, so the memo is freed now


class FieldExpr(_Node):
    """Base node: a multiform-valued function of the position 1-form."""

    __slots__ = ("grades",)

    def __init__(self, grades: Iterable[int], children: tuple = ()):
        _Node.__init__(self, children)  # not super(): this runs for every node built
        self.grades = frozenset(grades)

    # subclasses implement _eval(xs, *child_values) -> (P, 16) and _build_deriv(a),
    # where a is a validated (16,) grade-1 direction; _build_deriv recurses
    # through _deriv, so a direction is checked once, at the public deriv

    def _build_deriv(self, a: np.ndarray) -> "FieldExpr":
        raise NotImplementedError

    def deriv(self, a) -> "FieldExpr":
        """Structural derivative in the constant grade-1 direction a."""
        return _keep(self._deriv(_as_direction(a)))

    def _deriv(self, a: np.ndarray) -> "FieldExpr":
        return self.derived(a.tobytes(), lambda: self._build_deriv(a))

    def sample(self, xs) -> np.ndarray:
        """(P, 16) values at the (P, 4) points xs, SAMPLE_BLOCK rows at a time."""
        pts, _ = _as_coords(xs)
        if pts.shape[0] <= SAMPLE_BLOCK:
            return evaluate((self,), pts)[0]
        out = np.empty((pts.shape[0], DIM))
        for lo in range(0, pts.shape[0], SAMPLE_BLOCK):
            out[lo : lo + SAMPLE_BLOCK] = evaluate((self,), pts[lo : lo + SAMPLE_BLOCK])[0]
        return out

    def at(self, x) -> Multivector:
        return Multivector(evaluate((self,), _one_point(x))[0][0])

    @property
    def is_zero(self) -> bool:
        return False


def _lift(value) -> FieldExpr:
    if isinstance(value, FieldExpr):
        return value
    if isinstance(value, Multivector):
        return Const(value)
    if isinstance(value, (int, float)):
        return Const(Multivector.scalar(float(value)))
    raise TypeError(f"cannot use {type(value).__name__} in a field expression")


class Const(FieldExpr):
    __slots__ = ("value", "is_zero")

    def __init__(self, value: Multivector):
        super().__init__(value.grade_set())
        self.value = value
        self.is_zero = not np.any(value.comps)
        _keep(self)

    def _eval(self, xs):
        # a stride-0 view of the constant; sta._prod keys its one-matrix path on the row stride
        c = self.value.comps
        return np.ndarray((xs.shape[0], DIM), c.dtype, c, 0, (0, c.itemsize))

    def _build_deriv(self, a):
        return ZERO

    def derived(self, key, build):
        # rebuilt on demand: a shared leaf (ZERO, position(), the basis nodes)
        # would otherwise keep a tree for every direction and background it meets
        return build()


ZERO = Const(Multivector.zero())

# the basis 1-forms g_mu and g^mu as shared constant nodes
GAMMA_NODES = tuple(Const(g) for g in GAMMA)
GAMMA_UP_NODES = tuple(Const(g) for g in sta.GAMMA_UP)


class Position(FieldExpr):
    __slots__ = ()

    def __init__(self):
        super().__init__({1})
        _keep(self)

    def _eval(self, xs):
        out = np.zeros((xs.shape[0], DIM))
        out[:, VECTOR_IDX] = xs
        return out

    def _build_deriv(self, a):
        return Const(Multivector(a))

    derived = Const.derived


_POSITION = Position()


def position() -> FieldExpr:
    """The identity field x -> x (shared node, safe to reuse)."""
    return _POSITION


class Tabulated(FieldExpr):
    """(P, 16) components, vanishing outside ``grades``, given at the (P, 4)
    points ``pts``: a leaf that lets trees evaluate on values computed
    elsewhere.  Any other point set and any derivative raise ``ValueError``.

    A tree with this leaf is evaluated on the whole point set with
    ``evaluate([tree], pts)``; ``sample`` over more than ``SAMPLE_BLOCK``
    points evaluates each block on its own and raises."""

    __slots__ = ("comps", "pts")

    def __init__(self, comps: np.ndarray, grades: Iterable[int], pts: np.ndarray):
        super().__init__(grades)
        self.comps = comps
        self.pts = pts

    def _eval(self, xs):
        if not np.array_equal(xs, self.pts):
            raise ValueError("tabulated values exist only at the point set they were given on")
        return self.comps

    def _build_deriv(self, a):
        raise ValueError("tabulated values have no derivative")


def coordinate(k) -> FieldExpr:
    """The scalar field x -> x . k for a constant 1-form k."""
    return prod(_POSITION, _lift(k), "sp")


class Add(FieldExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: FieldExpr, right: FieldExpr):
        super().__init__(left.grades | right.grades, (left, right))
        self.left = left
        self.right = right

    def _eval(self, xs, left, right):
        return left + right

    def _build_deriv(self, a):
        return add(self.left._deriv(a), self.right._deriv(a))


class Scale(FieldExpr):
    __slots__ = ("factor", "child")

    def __init__(self, factor: float, child: FieldExpr):
        super().__init__(child.grades, (child,))
        self.factor = float(factor)
        self.child = child

    def _eval(self, xs, child):
        return self.factor * child

    def _build_deriv(self, a):
        return scale(self.factor, self.child._deriv(a))


class Prod(FieldExpr):
    """Pointwise product; kind is one of gp, op, lc, sp, cross."""

    __slots__ = ("left", "right", "kind")

    def __init__(self, left: FieldExpr, right: FieldExpr, kind: str):
        super().__init__(_prod_grades(left.grades, right.grades, kind), (left, right))
        self.left = left
        self.right = right
        self.kind = kind

    def _eval(self, xs, lv, rv):
        kind = self.kind
        if kind == "sp":
            out = np.zeros((xs.shape[0], DIM))
            out[:, 0] = sta.sp(lv, rv)
            return out
        # A scalar-grade factor s scales every component: the multiplication
        # matrix of s has one nonzero per column, so s X computed as a
        # broadcast multiply is the dense product bit for bit.  Values vanish
        # outside a node's grades, so the grade set decides; X << s and the
        # commutator are not plain scalings.
        if self.left.grades <= _SCALAR and kind in ("gp", "op", "lc"):
            return lv[:, :1] * rv
        if self.right.grades <= _SCALAR and kind in ("gp", "op"):
            return lv * rv[:, :1]
        return sta.PRODUCT_KERNELS[kind](lv, rv)

    def _build_deriv(self, a):
        return add(
            prod(self.left._deriv(a), self.right, self.kind),
            prod(self.left, self.right._deriv(a), self.kind),
        )


class Rev(FieldExpr):
    __slots__ = ("child",)

    def __init__(self, child: FieldExpr):
        super().__init__(child.grades, (child,))
        self.child = child

    def _eval(self, xs, child):
        return child * sta.REV_SIGNS

    def _build_deriv(self, a):
        return Rev(self.child._deriv(a))


class Graded(FieldExpr):
    __slots__ = ("child", "keep", "mask")

    def __init__(self, child: FieldExpr, grades: Iterable[int]):
        keep = frozenset(grades)
        super().__init__(child.grades & keep, (child,))
        self.child = child
        self.keep = keep
        self.mask = sta.grade_mask(keep)

    def _eval(self, xs, child):
        return child * self.mask

    def _build_deriv(self, a):
        # projection commutes with the derivative; keep the original mask
        out = Graded(self.child._deriv(a), self.keep)
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
        super().__init__({0}, (child,))
        self.child = child
        self.kind = kind

    def _eval(self, xs, child):
        out = np.zeros((xs.shape[0], DIM))
        out[:, 0] = _SCALAR_FNS[self.kind](child[:, 0])
        return out

    def _twin(self) -> "ScalarMap":
        """A new node of the same kind over the same child."""
        return ScalarMap(self.child, self.kind)

    def _build_outer(self) -> FieldExpr:
        if self.kind == "sin":
            return ScalarMap(self.child, "cos")
        if self.kind == "cos":
            return scale(-1.0, ScalarMap(self.child, "sin"))
        # the factors of e^s and 1/s contain the node's value: a twin supplies
        # it, so the factor cached here does not point back at the node
        twin = self._twin()
        if self.kind == "exp":
            return twin
        return scale(-1.0, prod(twin, twin, "gp"))  # recip: d(1/s) = -(1/s)^2 ds

    def _build_deriv(self, a):
        # f'(s) does not depend on a: one factor node serves every direction
        return prod(self.derived("outer", self._build_outer), self.child._deriv(a), "gp")


class PolyMap(FieldExpr):
    """Polynomial sum_k coeffs[k] s^k of a scalar-valued subexpression."""

    __slots__ = ("child", "coeffs")

    def __init__(self, child: FieldExpr, coeffs):
        if not child.grades <= {0}:
            raise GradeError("polynomial needs a scalar-valued argument")
        super().__init__({0}, (child,))
        self.child = child
        self.coeffs = np.asarray(coeffs, dtype=float)

    def _eval(self, xs, child):
        s = child[:, 0]
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
        outer = self.derived("outer", lambda: PolyMap(self.child, dcoeffs))
        return prod(outer, self.child._deriv(a), "gp")


class BladeExp(FieldExpr):
    """exp(B s(x)) for a fixed blade B with scalar square and scalar field s."""

    __slots__ = ("b_comps", "beta", "child")

    def __init__(self, blade: Multivector, child: FieldExpr):
        if not child.grades <= {0}:
            raise GradeError("blade exponential needs a scalar-valued argument")
        square = sta.gp(blade.comps, blade.comps)
        beta = square[0]
        if not np.abs(square - beta * sta.ONE.comps).max() <= 1e-12:
            raise ValueError("blade exponential needs a blade with scalar square")
        super().__init__(frozenset({0}) | blade.grade_set(), (child,))
        self.b_comps = blade.comps
        self.beta = float(beta)
        self.child = child

    def _eval(self, xs, child):
        s = child[:, 0]
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
        # d exp(B s) = B (ds) exp(B s); ds is scalar and B commutes with the series.
        # exp(B s) is read from a twin, so the derivative does not point back here
        twin = self.derived("twin", lambda: BladeExp(Multivector(self.b_comps), self.child))
        inner = prod(self.child._deriv(a), twin, "gp")
        blade = self.derived("outer", lambda: Const(Multivector(self.b_comps)))
        return prod(blade, inner, "gp")


# The derivative aggregates sum_mu g^mu * (d_mu X), one per product kind *,
# mapped to their dual kind: the product whose aggregate pairs with * in the
# divergence-form identities and in the Euler-Lagrange residuals.
AGGREGATES = {"lc": "op", "op": "lc", "gp": "gp"}


def _check_kind(kind: str) -> str:
    """The dual kind of the derivative aggregate kind ``kind``; ValueError for any other."""
    if kind not in AGGREGATES:
        raise ValueError(f"kind must be one of {tuple(AGGREGATES)}, got {kind!r}")
    return AGGREGATES[kind]


class DelExpr(FieldExpr):
    """Flat derivative aggregate sum_mu g^mu * (d_mu child) as a field."""

    __slots__ = ("child", "kind", "parts")

    def __init__(self, child: FieldExpr, kind: str):
        _check_kind(kind)
        # kept: every aggregate of child, and its derivatives, read these partials
        parts = tuple(_keep(child._deriv(g.comps)) for g in GAMMA)
        super().__init__(_prod_grades(frozenset({1}), child.grades, kind), parts)
        self.child = child
        self.kind = kind
        self.parts = parts

    def _eval(self, xs, *parts):
        grades = frozenset().union(*(d.grades for d in self.parts))
        return sta._frame_sum(
            self.kind,
            grades,
            lambda mu, blades: parts[mu][:, blades],
            np.zeros((xs.shape[0], DIM)),
        )

    def _build_deriv(self, a):
        # partials commute on smooth trees
        return del_expr_kind(self.child._deriv(a), self.kind)


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
    if isinstance(left, Const) and isinstance(right, Const):
        # folded once, with the kernel every row of the batched product uses
        lv, rv = left.value.comps, right.value.comps
        if kind == "sp":
            return Const(Multivector.scalar(sta.sp(lv, rv)))
        return Const(Multivector(sta.PRODUCT_KERNELS[kind](lv, rv)))
    return Prod(left, right, kind)


def del_expr_kind(child: FieldExpr, kind: str) -> FieldExpr:
    """The flat derivative aggregate of ``child`` with product kind lc, op or gp as a field."""
    _check_kind(kind)
    if child.is_zero:
        return ZERO
    return DelExpr(child, kind)


# ---------------------------------------------------------------------------
# matrix expressions: position-dependent 4x4 maps with exact derivatives
# ---------------------------------------------------------------------------


class MatExpr(_Node):
    """A (P, 4, 4) matrix of scalar fields of position, with exact derivatives."""

    __slots__ = ("entries", "_outers")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("entries must be 4x4")
        for row in rows:
            for e in row:
                if not e.grades <= {0}:
                    raise GradeError("extensor entries must be scalar-valued fields")
        super().__init__(tuple(e for row in rows for e in row))
        # the Outermorphism of each tangent set, alive while an application reads it
        self._outers: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self.entries = tuple(tuple(row) for row in rows)

    def _eval(self, xs, *entries):
        return np.stack([e[:, 0] for e in entries], axis=-1).reshape(-1, 4, 4)

    def deriv(self, a) -> "MatExpr":
        """The entry-wise structural derivative in the constant grade-1 direction a."""
        return _keep(self._deriv(_as_direction(a)))

    def _deriv(self, a: np.ndarray) -> "MatExpr":
        return self.derived(
            a.tobytes(), lambda: MatExpr([[e._deriv(a) for e in row] for row in self.entries])
        )

    def outermorphism(self, tangents: tuple) -> "Outermorphism":
        """The one live outermorphism node of this matrix along ``tangents``."""
        outer = self._outers.get(tangents)
        if outer is None:
            outer = self._outers[tangents] = _keep(Outermorphism(self, tangents))
        return outer

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)


class Outermorphism(_Node):
    """The (P, 16, 16) outermorphism matrix of mat, or its multilinear
    derivative along the tangent matrices; one live node per (mat, tangents)."""

    __slots__ = ("mat", "tangents")

    def __init__(self, mat: MatExpr, tangents: tuple):
        super().__init__((mat,) + tangents)
        self.mat = mat
        self.tangents = tangents

    def _eval(self, xs, m, *ns):
        if ns:
            return outermorphism_matrix_derivative(m, ns)
        return outermorphism_matrix(m)


class ExtApply(FieldExpr):
    """Outermorphism application t(child), or its adjoint, with tangent slots
    for derivatives.

    With tangent matrix expressions (n_1..n_k) attached, the node computes
    the k-th multilinear derivative of the blade-wise extension, applied to
    the child value.  Differentiation appends the base derivative as a new
    tangent, differentiates each existing tangent, and recurses into the
    child -- so the node set is closed under derivatives of any order.
    With ``adjoint`` set the node applies the adjoint extension S O^T S,
    where O is the extension (or its derivative) and S = ``SP_DIAG``: the
    extension of the adjoint is the adjoint of the extension, and adjoining
    is linear, so derivatives keep the tangents of t itself.  Applications
    sharing (mat, tangents) share one :class:`Outermorphism`, adjoint or not.
    """

    __slots__ = ("mat", "tangents", "child", "adjoint", "outer")

    def __init__(
        self, mat: MatExpr, child: FieldExpr, tangents: tuple = (), adjoint: bool = False
    ):
        outer = mat.outermorphism(tangents)
        super().__init__(child.grades, (child, outer))
        self.mat = mat
        self.tangents = tangents
        self.child = child
        self.adjoint = adjoint
        self.outer = outer

    def _eval(self, xs, child, big):
        if self.adjoint:
            return SP_DIAG * np.einsum("pji,pj->pi", big, SP_DIAG * child)
        return np.einsum("pij,pj->pi", big, child)

    def _build_deriv(self, a):
        def apply(child, tangents):
            return ExtApply(self.mat, child, tangents, self.adjoint)

        terms: list[FieldExpr] = []
        dmat = self.mat._deriv(a)
        if not dmat.is_zero:
            terms.append(apply(self.child, self.tangents + (dmat,)))
        for i, t in enumerate(self.tangents):
            dt = t._deriv(a)
            if not dt.is_zero:
                tg = self.tangents[:i] + (dt,) + self.tangents[i + 1 :]
                terms.append(apply(self.child, tg))
        dchild = self.child._deriv(a)
        if not dchild.is_zero:
            terms.append(apply(dchild, self.tangents))
        if not terms:
            return ZERO
        acc = terms[0]
        for t in terms[1:]:
            acc = Add(acc, t)
        return acc


# ---------------------------------------------------------------------------
# multivector (slot) derivatives of scalar functions
# ---------------------------------------------------------------------------


# central-difference step of scalar_derivative_at_zero for a function of no
# declared degree, and the points at which it samples: h and h / 2 either side
# of zero
RICHARDSON_STEP = 1e-3
_RICHARDSON_OFFSETS = (
    RICHARDSON_STEP, -RICHARDSON_STEP, RICHARDSON_STEP / 2.0, -RICHARDSON_STEP / 2.0
)


def scalar_derivative_at_zero(
    g: Callable[[float], float], poly_degree: int | None = None
) -> float:
    """d/dl g(l) at l = 0 (elementwise when g returns an array).

    For declared polynomial degree <= 4 the symmetric stencils below are
    algebraically exact; otherwise two-level Richardson extrapolation of the
    central difference is used.
    """
    if poly_degree is not None and poly_degree <= 2:
        return 0.5 * (g(1.0) - g(-1.0))
    if poly_degree is not None and poly_degree <= 4:
        return (-g(2.0) + 8.0 * g(1.0) - 8.0 * g(-1.0) + g(-2.0)) / 12.0
    h = RICHARDSON_STEP
    d1 = (g(h) - g(-h)) / (2.0 * h)
    d2 = (g(h / 2.0) - g(-h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def _richardson(values) -> np.ndarray:
    """scalar_derivative_at_zero of g from g's values at _RICHARDSON_OFFSETS, in that order."""
    return scalar_derivative_at_zero(dict(zip(_RICHARDSON_OFFSETS, values)).__getitem__)


def multivector_derivative(
    F,
    X0: Multivector,
    grades: Iterable[int],
    poly_degree: int | None = None,
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
    out = np.zeros(DIM)
    for mask in range(DIM):
        if GRADES[mask] not in grades:
            continue
        blade = Multivector.blade(mask)

        def g(lam: float, _b=blade) -> float:
            return float(F(X0 + lam * _b))

        out[mask] = SP_DIAG[mask] * scalar_derivative_at_zero(g, poly_degree)
    return Multivector(out)


# ---------------------------------------------------------------------------
# flat boundary currents and the divergence-form identities
# ---------------------------------------------------------------------------

def _boundary_current(frames, X: FieldExpr, Y: FieldExpr, kind: str) -> FieldExpr:
    """sum_mu g^mu [(frames[mu] * X) . Y] over four frame 1-form fields."""
    acc: FieldExpr = ZERO
    for mu in range(4):
        s = prod(prod(frames[mu], X, kind), Y, "sp")
        acc = add(acc, prod(GAMMA_UP_NODES[mu], s, "gp"))
    return acc


def boundary_current_flat(X: FieldExpr, Y: FieldExpr, kind: str) -> FieldExpr:
    """The 1-form current v = sum_mu g^mu [(g_mu * X) . Y] for * in {lc, op, gp}."""
    _check_kind(kind)
    return _boundary_current(GAMMA_NODES, X, Y, kind)


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
    dual = _check_kind(kind)
    dX, dY = del_expr_kind(X, kind), del_expr_kind(Y, dual)
    div = del_expr_kind(boundary_current_flat(X, Y, kind), "lc")
    dXv, Yv, Xv, dYv, divv = evaluate((dX, Y, X, dY, div), points)
    lhs = sta.sp(dXv, Yv) + sta.sp(Xv, dYv)
    return float(np.abs(np.atleast_1d(lhs - divv[:, 0])).max())


def _grid_blocks(axes: list[np.ndarray]):
    """Yield ``(rows, points)`` per SAMPLE_BLOCK slice of the "ij" grid on ``axes``,
    in row-major order: a slice of the flat grid index and its (rows, 4) points."""
    shape = tuple(len(axis) for axis in axes)
    size = math.prod(shape)
    for lo in range(0, size, SAMPLE_BLOCK):
        index = np.unravel_index(np.arange(lo, min(lo + SAMPLE_BLOCK, size)), shape)
        points = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
        del index  # not held while the caller works on the block
        yield slice(lo, lo + SAMPLE_BLOCK), points


def gauss_check(
    v: FieldExpr, box: tuple, n: int
) -> tuple[float, float]:
    """Midpoint volume integral of div v over a 4-box vs the outward face flux.

    Faces are sampled at midpoints of the transverse grid; d3S_mu carries the
    product of the three transverse extents with outward orientation.  ``n``
    is an integer >= 2 and ``box`` is (lo, hi), two finite 4-arrays with
    hi > lo on every axis; anything else raises ValueError.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"need an integer n of at least 2 subdivisions per axis, got {n!r}")
    n = int(n)
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != (4,) or hi.shape != (4,):
        raise ValueError(f"box corners need 4 coordinates each, got {box!r}")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (hi > lo).all()):
        raise ValueError(f"box corners must be finite with hi > lo on every axis, got {box!r}")
    h = (hi - lo) / n
    axes = [lo[k] + (np.arange(n) + 0.5) * h[k] for k in range(4)]

    def grid_sum(expr: FieldExpr, blade: int, grid: list[np.ndarray]):
        """One blade of expr summed over the grid, assembled a block at a time."""
        vals = np.empty(math.prod(len(axis) for axis in grid))
        for rows, pts in _grid_blocks(grid):
            vals[rows] = expr.sample(pts)[:, blade]
        return vals.sum()

    volume = float(grid_sum(del_expr_kind(v, "lc"), 0, axes) * np.prod(h))
    flux = 0.0
    for mu in range(4):
        area = float(np.prod([h[k] for k in range(4) if k != mu]))
        for side, sign in ((hi[mu], 1.0), (lo[mu], -1.0)):
            face = axes[:mu] + [np.array([side])] + axes[mu + 1 :]  # one point on axis mu
            flux += sign * float(grid_sum(v, 1 << mu, face)) * area
    return volume, flux
