"""(1,1)-extensors on 1-forms and their outermorphism extension.

An extensor is stored as a 4x4 matrix in the g_mu basis: column mu holds the
coordinates of t(g_mu).  The extension to all of Cl(1,3) acts blade-wise,
t(e_J) = t(g_j1) ^ ... ^ t(g_jr), realized as a 16x16 matrix with one block
per grade; by construction it fixes scalars, agrees with t on grade 1, and
multiplies the pseudoscalar by det(t).  An extensor applies to a 1-form as
``t(a)``; :func:`extend` is the one spelling of the extension, ``extend(t,
X)``, and ``outermorphism_matrix(t.m)`` is its matrix.

Batched helpers (on stacks of matrices) back the position-dependent extensor
fields used by the gauge machinery.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import sta
from .sta import DIM, METRIC, Multivector, N_GEN, VECTOR_IDX

DET_GATE = 1e-9

_ETA = np.diag(METRIC)

# generator index lists per blade mask, e.g. mask 0b0101 -> (0, 2)
_BLADE_BITS = tuple(
    tuple(k for k in range(N_GEN) if m & (1 << k)) for m in range(DIM)
)


class SingularExtensorError(ValueError):
    """Raised when an operation needs an invertible extensor and |det| is below the gate."""


class Extensor11:
    """Linear map on grade-1 multiforms, matrix-backed and immutable."""

    __slots__ = ("m",)

    def __init__(self, m):
        arr = np.array(m, dtype=float).reshape(N_GEN, N_GEN)
        arr.flags.writeable = False
        object.__setattr__(self, "m", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Extensor11 is immutable")

    @classmethod
    def identity(cls) -> "Extensor11":
        return cls(np.eye(N_GEN))

    def __call__(self, a: Multivector) -> Multivector:
        return Multivector.vector(self.m @ a.vector_coords())

    def compose(self, other: "Extensor11") -> "Extensor11":
        return Extensor11(self.m @ other.m)

    def __eq__(self, other):
        if isinstance(other, Extensor11):
            return bool(np.array_equal(self.m, other.m))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Extensor11({self.m.tolist()})"


def adjoint(t: Extensor11) -> Extensor11:
    """Adjoint under the Minkowski scalar product: t(a).b = a.t_adj(b)."""
    return Extensor11(adjoint_mats(t.m))


def extend(t: Extensor11, x: Multivector) -> Multivector:
    """The outermorphism extension of t applied to x."""
    return Multivector(outermorphism_matrix(t.m) @ x.comps)


def _require_finite(t: Extensor11, what: str) -> None:
    """Refuse a matrix with a NaN or infinite entry: NaN passes every
    tolerance comparison, and an infinity turns into a silent 0 or NaN."""
    if not np.isfinite(t.m).all():
        raise ValueError(f"{what} needs a finite extensor matrix, got {t.m.tolist()}")


def determinant(t: Extensor11) -> float:
    """det via the pseudoscalar image, cross-checked against the matrix determinant."""
    _require_finite(t, "determinant")
    pseudo = outermorphism_matrix(t.m)[15, 15]
    direct = float(np.linalg.det(t.m))
    scale = max(1.0, abs(direct))
    if abs(pseudo - direct) > 1e-9 * scale:
        raise AssertionError(
            f"determinant cross-check failed: pseudoscalar {pseudo} vs matrix {direct}"
        )
    return pseudo


def invert(t: Extensor11) -> Extensor11:
    _require_finite(t, "invert")
    d = float(np.linalg.det(t.m))
    if abs(d) <= DET_GATE:
        raise SingularExtensorError(f"extensor is singular (|det| = {abs(d):.3e})")
    return Extensor11(np.linalg.inv(t.m))


def gauge_star(h: Extensor11) -> Extensor11:
    """h* = (h^-1)_adj, cross-checked against (h_adj)^-1."""
    _require_finite(h, "gauge_star")
    first = adjoint(invert(h))
    second = invert(adjoint(h))
    if not np.allclose(first.m, second.m, rtol=0.0, atol=1e-10):
        raise AssertionError("gauge star: (h^-1)_adj and (h_adj)^-1 disagree")
    return first


# -- batched matrix helpers ---------------------------------------------


def adjoint_mats(ms: np.ndarray) -> np.ndarray:
    """eta m^T eta on a (..., 4, 4) stack."""
    return _ETA @ np.swapaxes(np.asarray(ms, dtype=float), -1, -2) @ _ETA


def _wedge_columns(cols: list[np.ndarray]) -> np.ndarray:
    """Wedge of grade-1 component arrays (..., 16); empty list gives the scalar 1."""
    if not cols:
        base = np.zeros(DIM)
        base[0] = 1.0
        return base
    acc = cols[0]
    for c in cols[1:]:
        acc = sta.op(acc, c)
    return acc


def _columns_as_mv(ms: np.ndarray) -> list[np.ndarray]:
    """Columns of a (..., 4, 4) stack as grade-1 (..., 16) component arrays."""
    ms = np.asarray(ms, dtype=float)
    cols = []
    for mu in range(N_GEN):
        arr = np.zeros(ms.shape[:-2] + (DIM,))
        arr[..., VECTOR_IDX] = ms[..., :, mu]
        cols.append(arr)
    return cols


def outermorphism_matrix(ms: np.ndarray) -> np.ndarray:
    """Blade-wise outermorphism matrix, (..., 16, 16) from (..., 4, 4): the
    derivative of order zero."""
    return outermorphism_matrix_derivative(ms, ())


def outermorphism_matrix_derivative(
    ms: np.ndarray, tangents: tuple[np.ndarray, ...]
) -> np.ndarray:
    """k-th multilinear derivative of the outermorphism matrix.

    Each blade image is multilinear in the matrix columns, so the derivative
    with tangent matrices n_1..n_k is the Leibniz sum over injective
    assignments of tangents to factor positions; blades of grade < k vanish.
    """
    ms = np.asarray(ms, dtype=float)
    cols = _columns_as_mv(ms)
    tcols = [_columns_as_mv(n) for n in tangents]
    k = len(tangents)
    out = np.zeros(ms.shape[:-2] + (DIM, DIM))
    for mask in range(DIM):
        bits = _BLADE_BITS[mask]
        r = len(bits)
        if r < k:
            continue
        acc = None
        for positions in permutations(range(r), k):
            factors = [cols[b] for b in bits]
            for t, pos in enumerate(positions):
                factors[pos] = tcols[t][bits[pos]]
            term = _wedge_columns(factors)
            acc = term if acc is None else acc + term
        if acc is not None:
            out[..., :, mask] = acc
    return out
