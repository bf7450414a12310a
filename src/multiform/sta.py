"""Dense computational kernel for the spacetime algebra Cl(1,3).

Basis blades are indexed by 4-bit masks over the generators g0..g3 with
metric diag(+1, -1, -1, -1): bit k set means generator gk is present,
factors ordered by increasing index.  A multivector is a length-16 vector
of double-precision components in that blade basis.

Two layers live here:

* raw array kernels (``gp``, ``op``, ``lc``, ``sp``, ``cross``, ...) that
  broadcast over leading axes of ``(..., 16)`` arrays -- used by the field
  and lattice machinery, where everything is evaluated in batches;
* the immutable :class:`Multivector` value type wrapping a single 16-vector,
  which is the unit of currency of the public API.  Each operation on it has
  one spelling: ``*`` (geometric product), ``^`` (outer product), ``<<``
  (left contraction), ``.sp`` (scalar product), ``.reverse()``,
  ``.grade(r)``, ``.restrict(grades)`` and ``.grade_set(tol)``; only the
  commutator product, which has no operator, is the function
  :func:`commutator_product`.

All products are table-driven: the Cayley data (sign and target blade per
blade pair) is built once at import from the canonical reordering rule plus
metric contraction of repeated generators.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

DIM = 16
N_GEN = 4
METRIC = np.array([1.0, -1.0, -1.0, -1.0])

# grade (popcount) of each blade mask, and index lists per grade
GRADES = np.array([bin(m).count("1") for m in range(DIM)])
GRADE_MASKS = {r: (GRADES == r) for r in range(N_GEN + 1)}
VECTOR_IDX = np.array([1, 2, 4, 8])  # masks of the four grade-1 blades


def _reorder_swaps(a: int, b: int) -> int:
    """Transpositions needed to interleave sorted blade a with sorted blade b."""
    swaps = 0
    for k in range(N_GEN):
        if b & (1 << k):
            swaps += bin(a >> (k + 1)).count("1")
    return swaps


def _blade_product(a: int, b: int) -> tuple[int, float]:
    """Geometric product of basis blades: (target mask, signed metric factor)."""
    sign = -1.0 if _reorder_swaps(a, b) % 2 else 1.0
    common = a & b
    for k in range(N_GEN):
        if common & (1 << k):
            sign *= METRIC[k]
    return a ^ b, sign


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gp_t = np.zeros((DIM, DIM, DIM))
    op_t = np.zeros((DIM, DIM, DIM))
    lc_t = np.zeros((DIM, DIM, DIM))
    for a in range(DIM):
        for b in range(DIM):
            tgt, s = _blade_product(a, b)
            gp_t[a, b, tgt] = s
            if a & b == 0:  # no common generators: outer product survives
                op_t[a, b, tgt] = s
            if a & ~b == 0:  # a inside b: grade drops by exactly grade(a)
                lc_t[a, b, tgt] = s
    return gp_t, op_t, lc_t


_GP_TABLE, _OP_TABLE, _LC_TABLE = _build_tables()

# reversion sign per blade and the diagonal of the scalar product X.Y = <X Y~>_0
REV_SIGNS = np.array([(-1.0) ** (r * (r - 1) // 2) for r in GRADES])
SP_DIAG = np.array([REV_SIGNS[m] * _GP_TABLE[m, m, 0] for m in range(DIM)])


# the Cayley tables flattened to (16, 256): row i holds blade i's products with every blade
_GP_FLAT, _OP_FLAT, _LC_FLAT = (
    t.reshape(DIM, DIM * DIM) for t in (_GP_TABLE, _OP_TABLE, _LC_TABLE)
)


def _prod(x: np.ndarray, y: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Bilinear blade product of (...,16) component arrays via a flattened Cayley table.

    Every path forms the left multiplication matrix ``A = x @ flat`` (exact:
    each entry has one non-zero term) and sums ``A[j, k] * y[j]`` over ``j``
    in order, so the result does not depend on which path the operand shapes
    select.  A constant left operand (1-D, or a view broadcast with stride 0)
    gets one 16x16 matrix instead of one per row; einsum broadcasts the
    rest, so no operand is materialized at the broadcast shape.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1 or (x.shape == y.shape and x.size and not any(x.strides[:-1])):
        a = (x[(0,) * (x.ndim - 1)] @ flat).reshape(DIM, DIM)
        if y.ndim == 1:
            return (a * y[:, None]).sum(axis=0)
        return np.einsum("jk,...j->...k", a, y)
    a = (x.reshape(-1, DIM) @ flat).reshape(x.shape[:-1] + (DIM, DIM))
    return np.einsum("...jk,...j->...k", a, y)


def gp(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geometric (Clifford) product on component arrays."""
    return _prod(x, y, _GP_FLAT)


def op(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Outer (wedge) product on component arrays."""
    return _prod(x, y, _OP_FLAT)


def lc(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Left contraction on component arrays."""
    return _prod(x, y, _LC_FLAT)


def sp(x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """Scalar product <X Y~>_0; returns a scalar or (...,) array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = ((x * SP_DIAG) * y).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Commutator product (XY - YX)/2 on component arrays."""
    return 0.5 * (gp(x, y) - gp(y, x))


PRODUCT_KERNELS = {"gp": gp, "op": op, "lc": lc, "cross": cross}


def rev(x: np.ndarray) -> np.ndarray:
    """Reversion on component arrays."""
    return np.asarray(x, dtype=float) * REV_SIGNS


def project(x: np.ndarray, r: int) -> np.ndarray:
    if not 0 <= r <= N_GEN:
        raise ValueError(f"grade must be in 0..4, got {r}")
    return np.asarray(x, dtype=float) * GRADE_MASKS[r]


def restrict(x: np.ndarray, grades: Iterable[int]) -> np.ndarray:
    return np.asarray(x, dtype=float) * grade_mask(grades)


def grade_mask(grades: Iterable[int]) -> np.ndarray:
    grades = frozenset(grades)
    bad = grades - {0, 1, 2, 3, 4}
    if bad:
        raise ValueError(f"grades must be in 0..4, got {sorted(bad)}")
    mask = np.zeros(DIM)
    for r in grades:
        mask += GRADE_MASKS[r]
    return mask


_BLADE_NAMES = ["1"] + [
    "e" + "".join(str(k) for k in range(N_GEN) if m & (1 << k))
    for m in range(1, DIM)
]


class Multivector:
    """Immutable element of Cl(1,3), stored as 16 blade components.

    Operators: ``+ - *`` (geometric product / scalar scaling), ``^`` (outer
    product), ``<<`` (left contraction).  The scalar product is the ``sp``
    method.  Note the usual caveat that ``^`` and ``<<`` bind looser than
    arithmetic operators, so parenthesize.
    """

    __slots__ = ("comps",)

    def __init__(self, comps):
        arr = np.array(comps, dtype=float).reshape(DIM)
        arr.flags.writeable = False
        object.__setattr__(self, "comps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Multivector":
        return cls(np.zeros(DIM))

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        arr = np.zeros(DIM)
        arr[0] = value
        return cls(arr)

    @classmethod
    def vector(cls, coords) -> "Multivector":
        """1-form with the given coordinates relative to the g_mu basis."""
        arr = np.zeros(DIM)
        arr[VECTOR_IDX] = np.asarray(coords, dtype=float)
        return cls(arr)

    @classmethod
    def blade(cls, mask: int, coeff: float = 1.0) -> "Multivector":
        arr = np.zeros(DIM)
        arr[mask] = coeff
        return cls(arr)

    # -- structure ----------------------------------------------------

    def grade(self, r: int) -> "Multivector":
        return Multivector(project(self.comps, r))

    def restrict(self, grades: Iterable[int]) -> "Multivector":
        return Multivector(restrict(self.comps, grades))

    def grade_set(self, tol: float = 0.0) -> frozenset[int]:
        # a non-finite component counts as present: NaN <= tol is False
        return frozenset(GRADES[~(np.abs(self.comps) <= tol)].tolist())

    def vector_coords(self) -> np.ndarray:
        return self.comps[VECTOR_IDX].copy()

    def reverse(self) -> "Multivector":
        return Multivector(rev(self.comps))

    def sp(self, other: "Multivector") -> float:
        return float(sp(self.comps, other.comps))

    def norm(self) -> float:
        """Euclidean norm of the component vector (residual measure)."""
        return float(np.linalg.norm(self.comps))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            return Multivector(self.comps + other.comps)
        if isinstance(other, (int, float)):
            return self + Multivector.scalar(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            return Multivector(self.comps - other.comps)
        if isinstance(other, (int, float)):
            return self - Multivector.scalar(other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(-self.comps)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return Multivector(gp(self.comps, other.comps))
        if isinstance(other, (int, float)):
            return Multivector(self.comps * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.comps * other)
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return Multivector(op(self.comps, other.comps))
        return NotImplemented

    def __lshift__(self, other):
        if isinstance(other, Multivector):
            return Multivector(lc(self.comps, other.comps))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return bool(np.array_equal(self.comps, other.comps))
        return NotImplemented

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return bool(np.allclose(self.comps, other.comps, rtol=0.0, atol=tol))

    def __repr__(self):
        terms = [
            f"{self.comps[m]:g}*{_BLADE_NAMES[m]}" if m else f"{self.comps[m]:g}"
            for m in range(DIM)
            if self.comps[m] != 0.0
        ]
        return " + ".join(terms) if terms else "0"


# -- canonical elements ------------------------------------------------

GAMMA = tuple(Multivector.blade(1 << mu) for mu in range(N_GEN))
# reciprocal basis by index raising: g^0 = g_0, g^k = -g_k
GAMMA_UP = tuple(Multivector.blade(1 << mu, METRIC[mu]) for mu in range(N_GEN))
GAMMA_UP_ARR = np.stack([g.comps for g in GAMMA_UP])
ONE = Multivector.scalar(1.0)
PSEUDOSCALAR = Multivector.blade(0b1111)

EVEN_GRADES = frozenset({0, 2, 4})
ALL_GRADES = frozenset({0, 1, 2, 3, 4})


@lru_cache(maxsize=3 * 2**5)  # every (kind, grade set) pair
def _frame_blocks(kind: str, grades: frozenset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(input blades, output blades, (4, n_in, n_out) blocks): the rows of the
    multiplication matrices of g^mu * . on the blades of ``grades``, and the
    columns those rows reach.  The arrays are shared and read-only."""
    flat = {"gp": _GP_FLAT, "op": _OP_FLAT, "lc": _LC_FLAT}[kind]
    rows = np.flatnonzero(grade_mask(grades))
    mats = (GAMMA_UP_ARR @ flat).reshape(N_GEN, DIM, DIM)[:, rows]
    cols = np.flatnonzero(mats.any(axis=(0, 1)))
    out = rows, cols, np.ascontiguousarray(mats[:, :, cols])
    for arr in out:
        arr.flags.writeable = False
    return out


def _frame_sum(
    kind: str,
    grades: Iterable[int],
    term: Callable[[int, np.ndarray], np.ndarray],
    acc: np.ndarray,
) -> np.ndarray:
    """acc += sum_mu g^mu * X_mu in place, mu in order; returns acc.

    ``term(mu, blades)`` gives the components ``blades`` (those of
    ``grades``) of X_mu, which must vanish outside ``grades``.  g^mu * . has
    one nonzero, +-1, per column of its multiplication matrix, so a product
    restricted to these blades equals the dense kernel bit for bit (up to
    the sign of a zero), and a linear stencil applied to the restricted
    components commutes with it exactly.
    """
    rows, cols, blocks = _frame_blocks(kind, frozenset(grades))
    if not rows.size:
        return acc
    part = acc[..., cols]
    for mu in range(N_GEN):
        x = term(mu, rows)
        part += (x.reshape(-1, rows.size) @ blocks[mu]).reshape(part.shape)
    acc[..., cols] = part
    return acc


# -- the one product without a Multivector operator ----------------------


def commutator_product(x: Multivector, y: Multivector) -> Multivector:
    return Multivector(cross(x.comps, y.comps))
