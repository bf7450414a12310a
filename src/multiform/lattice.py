"""Lattice realization of the action principle for flat Lagrangians.

Fields are sampled at the centers of a uniform 4D grid.  Axis derivatives
are dense (N x N) one-dimensional stencil matrices -- second-order central
rows, one-sided second-order rows on the dirichlet shell, wraparound for
periodic -- applied along each axis.  The discrete action sums the density
over sites times the cell volume; its exact gradient is assembled by
transposing those axis matrices (adjoint accumulation), and the discrete
Euler-Lagrange residual applies the adjoint-consistent dual stencil
(-D^T, which for periodic central differences is D itself).  With either
boundary condition the two therefore satisfy

    action_gradient = (cell volume) * discrete_ele_residual

exactly at interior sites, which is the discrete form of the variation
decomposition with the boundary term annihilated.

The operators work on compact component-leading arrays, (n_blades, N, N,
N, N) over the blades of one grade set.  A stencil along an axis is one
matmul on a reshaped view, and each +-1 entry of g^mu * . is one signed add
of a stencilled blade, in mu order; the results equal those of 16-wide
site-major arrays under np.tensordot stencils bit for bit (up to the sign
of a zero; the oracle is in tests/test_kernel_oracle.py).  Site-major
16-wide arrays appear only where fields leave or enter: LatticeField.comps,
allocated once where a field leaves this module, and the density and
slot-gradient trees, which evaluate 16 components SAMPLE_BLOCK sites at a
time.

The stationary Maxwell operator is that residual for the source-free flat
Maxwell density.  Its system is symmetric indefinite once signed by the
metric, and singular: pure-gauge potentials lie in its kernel.  On a
periodic lattice it is circulant, so a 4D FFT solves it directly, one 4x4
block per wavevector, and returns the minimum-norm potential; on a
Dirichlet lattice MINRES solves the masked system.  Either way the returned
potential is certified against the true discrete operator.  scipy supplies
MINRES and nothing else, so it is imported by the first Dirichlet solve with
a nonzero current, not with this module.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sta
from .fields import SAMPLE_BLOCK, FieldExpr, GradeError, Tabulated, worst_of
from .lagrangian import LagrangianSpec, blade_gradient
from .sta import DIM, GRADES, SP_DIAG, VECTOR_IDX

_BCS = ("dirichlet", "periodic")


class SolverError(RuntimeError):
    """Raised when the stationary solve fails to converge."""


@dataclass(eq=False)
class Lattice:
    """Uniform 4D grid: N sites per axis over the given extents.

    Lattices compare and hash by value (origin, extent, sites, bc), so a
    field defined on one lattice is accepted on an equal one.
    """

    origin: np.ndarray
    extent: np.ndarray
    sites: int
    bc: str = "periodic"

    def __post_init__(self):
        if isinstance(self.sites, bool) or not isinstance(self.sites, numbers.Integral):
            raise ValueError(f"sites must be an integer, got {self.sites!r}")
        self.sites = int(self.sites)
        if self.sites < 4:
            raise ValueError("need at least 4 sites per axis")
        self.origin = np.asarray(self.origin, dtype=float).reshape(4)
        self.extent = np.asarray(self.extent, dtype=float).reshape(4)
        if not (np.isfinite(self.origin).all() and np.isfinite(self.extent).all()):
            raise ValueError("origin and extents must be finite")
        if np.any(self.extent <= 0):
            raise ValueError("extents must be positive")
        if self.bc not in _BCS:
            raise ValueError(f"bc must be one of {_BCS}")
        self._coords: np.ndarray | None = None

    def _key(self) -> tuple:
        return (tuple(self.origin.tolist()), tuple(self.extent.tolist()), self.sites, self.bc)

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def spacing(self) -> np.ndarray:
        return self.extent / self.sites

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.sites,) * 4

    @property
    def n_sites(self) -> int:
        return self.sites**4

    def coords(self) -> np.ndarray:
        """Site-center coordinates, shape (N, N, N, N, 4)."""
        if self._coords is None:
            n = self.sites
            axes = [
                self.origin[k] + (np.arange(n) + 0.5) * self.spacing[k]
                for k in range(4)
            ]
            self._coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return self._coords

    def interior_mask(self) -> np.ndarray:
        """Boolean site mask; under dirichlet the outer shell is frozen."""
        mask = np.ones(self.shape, dtype=bool)
        if self.bc == "dirichlet":
            for axis in range(4):
                idx: list = [slice(None)] * 4
                idx[axis] = 0
                mask[tuple(idx)] = False
                idx[axis] = -1
                mask[tuple(idx)] = False
        return mask


@dataclass(eq=False)
class LatticeField:
    """Per-site multivector values restricted to a declared grade set.

    Fields compare by value (lattice, grades, components) and are unhashable.
    """

    lattice: Lattice
    grades: frozenset
    comps: np.ndarray

    def __post_init__(self):
        self.grades = frozenset(self.grades)
        self.comps = _on_grades(
            np.asarray(self.comps, dtype=float).reshape(self.lattice.shape + (DIM,)), self.grades
        )

    def __eq__(self, other):
        if not isinstance(other, LatticeField):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.grades == other.grades
            and np.array_equal(self.comps, other.comps)
        )

    __hash__ = None

    @classmethod
    def zeros(cls, lattice: Lattice, grades) -> "LatticeField":
        return _field(lattice, grades, np.zeros((len(_blade_masks(grades)),) + lattice.shape))

    def pair(self, other: "LatticeField") -> float:
        """Sum over sites of the algebra scalar product of the two values."""
        return float((self.comps * SP_DIAG * other.comps).sum())


def _on_grades(comps: np.ndarray, grades: frozenset, out: np.ndarray | None = None) -> np.ndarray:
    """``comps * grade_mask(grades)``, into ``out`` when given; ``GradeError``
    when a component outside the grades is larger than 1e-12 or NaN."""
    mask = sta.grade_mask(grades)
    # selected, not masked: NaN * 0 is NaN, and a NaN is never small;
    # one blade at a time, so the check copies no more than one blade
    outside = worst_of(0.0, *(np.abs(comps[..., m]).max() for m in np.flatnonzero(mask == 0.0)))
    if not outside <= 1e-12:
        raise GradeError(
            f"field has components of size {outside:.3e} outside grades {sorted(grades)}"
        )
    return np.multiply(comps, mask, out=out)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def axis_derivative_matrix(n: int, h: float, bc: str) -> np.ndarray:
    """Dense 1D first-derivative stencil matrix for one axis (read-only, shared)."""
    d = np.zeros((n, n))
    for i in range(n):
        d[i, (i + 1) % n] += 1.0 / (2 * h)
        d[i, (i - 1) % n] -= 1.0 / (2 * h)
    if bc == "dirichlet":
        d[0, :] = 0.0
        d[0, 0], d[0, 1], d[0, 2] = -3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h)
        d[-1, :] = 0.0
        d[-1, -1], d[-1, -2], d[-1, -3] = 3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h)
    d.flags.writeable = False
    return d


def _blade_masks(grades) -> list[int]:
    """The stored components of a field with the given grades, in storage order."""
    return [m for m in range(DIM) if GRADES[m] in grades]


def _stencils(lat: Lattice, transpose: bool = False) -> list[np.ndarray]:
    """The axis stencils D_mu, or their transposes."""
    mats = [axis_derivative_matrix(lat.sites, h, lat.bc) for h in lat.spacing]
    return [d.T for d in mats] if transpose else mats


def _apply_stencil(arr: np.ndarray, d: np.ndarray, mu: int) -> np.ndarray:
    """d applied along site axis mu of a compact (n_blades, N, N, N, N) array.

    A matmul on a reshaped view, with no transposed copy: ``d @`` the
    (rest, N, rest) view for the leading axes, ``@ d.T`` for the last.  Each
    entry is the dot product np.tensordot forms, summed in the same order.
    """
    n = d.shape[0]
    if mu == 3:
        return (arr.reshape(-1, n) @ d.T).reshape(arr.shape)
    return (d @ arr.reshape(-1, n, n ** (3 - mu))).reshape(arr.shape)


def _compact(comps: np.ndarray, grades) -> np.ndarray:
    """The blades of ``grades`` of a site-major (N, N, N, N, 16) array, as a
    compact component-leading (n_blades, N, N, N, N) array."""
    return np.ascontiguousarray(np.moveaxis(comps, -1, 0)[_blade_masks(grades)])


def _widen(arr: np.ndarray, grades) -> np.ndarray:
    """The site-major (N, N, N, N, 16) array holding the compact ``arr`` on the
    blades of ``grades`` and 0 on every other blade."""
    out = np.zeros(arr.shape[1:] + (DIM,))
    out[..., _blade_masks(grades)] = np.moveaxis(arr, 0, -1)
    return out


def _field(lat: Lattice, grades, arr: np.ndarray) -> LatticeField:
    """The field holding the compact ``arr``, in its one 16-wide allocation.

    No copy and no grade check: ``_widen`` writes exact zeros off the
    grades, so the public constructor's guard and its ``comps * mask``
    would only copy the same bits."""
    F = LatticeField.__new__(LatticeField)
    F.lattice, F.grades, F.comps = lat, frozenset(grades), _widen(arr, grades)
    return F


@functools.lru_cache(maxsize=3 * 2**10)  # every (kind, grade set, grade set) triple
def _frame_pairs(kind: str, grades: frozenset, out_grades: frozenset) -> tuple:
    """Per mu, the (input position, output position, +1 or -1) of every entry
    of g^mu * . from the blades of ``grades`` to those of ``out_grades``,
    positions on the component axis of compact arrays."""
    rows, cols, blocks = sta._frame_blocks(kind, grades)
    pos = {int(b): k for k, b in enumerate(_blade_masks(out_grades))}
    return tuple(
        tuple(
            (int(i), pos[int(cols[j])], float(blocks[mu, i, j]))
            for i, j in zip(*np.nonzero(blocks[mu]))
            if int(cols[j]) in pos
        )
        for mu in range(4)
    )


def _frame_sum(
    kind: str,
    arr: np.ndarray,
    grades,
    acc: np.ndarray,
    out_grades,
    mats: list[np.ndarray],
    sign: float = 1.0,
) -> np.ndarray:
    """acc += sign * sum_mu g^mu * (mats[mu] along axis mu of arr), in place.

    ``arr`` and ``acc`` are compact, on the blades of ``grades`` and of
    ``out_grades``; terms that land on other blades are dropped.  g^mu * .
    has one +-1 per column, so each of its entries is one signed add of a
    stencilled blade, done in mu order: every output blade sees the
    additions of the 16-wide frame sum in the same order, so the result has
    its bits, up to the sign of a zero.
    """
    arr = np.ascontiguousarray(arr)
    for mu, pairs in enumerate(_frame_pairs(kind, frozenset(grades), frozenset(out_grades))):
        if not pairs:
            continue
        x = _apply_stencil(arr, mats[mu], mu)
        for i, o, s in pairs:
            if s * sign > 0:
                acc[o] += x[i]
            else:
                acc[o] -= x[i]
        del x  # freed before the next axis's is made
    return acc


def _zero_boundary(lat: Lattice, arr: np.ndarray) -> np.ndarray:
    """A compact array with the dirichlet shell set to 0."""
    if lat.bc == "dirichlet":
        arr = arr * lat.interior_mask()
    return arr


# ---------------------------------------------------------------------------
# sampling and the discrete action
# ---------------------------------------------------------------------------


def discretize(X: FieldExpr, lat: Lattice, grades) -> LatticeField:
    """Sample a field expression at the site centers; values outside ``grades``
    raise ``GradeError`` from the :class:`LatticeField` guard."""
    vals = X.sample(lat.coords().reshape(-1, 4)).reshape(lat.shape + (DIM,))
    if not vals.flags.writeable:  # at most one block, a value a tree slot may hold
        vals = vals.copy()
    # masked in place, so that the field holds the one 16-wide array
    F = LatticeField.__new__(LatticeField)
    F.lattice, F.grades = lat, frozenset(grades)
    F.comps = _on_grades(vals, F.grades, out=vals)
    return F


def _require_operands(L: LagrangianSpec, F: LatticeField) -> None:
    """A flat-mode Lagrangian and a field within its grades."""
    if L.mode.family != "flat":
        raise ValueError(
            f"lattice operations take flat-mode Lagrangians, not {L.mode.name}"
        )
    if not F.grades <= L.field_grades:
        raise GradeError(f"field grades {sorted(F.grades)} outside {sorted(L.field_grades)}")


def _aggregate(lat: Lattice, kind: str, comps: np.ndarray, grades, out_grades) -> np.ndarray:
    """The discrete derivative aggregate sum_mu g^mu * D_mu comps at every site,
    for site-major comps that vanish outside grades, compact on the blades of
    ``out_grades``, which hold the aggregate's grades."""
    d = np.zeros((len(_blade_masks(out_grades)),) + lat.shape)
    return _frame_sum(kind, _compact(comps, grades), grades, d, out_grades, _stencils(lat))


def _slot_gradients(
    L: LagrangianSpec, F: LatticeField, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site slot gradients (grad_X l, grad_d l) as compact arrays on the
    blades of the field grades and of the aggregate grades, for the
    aggregate ``d`` of F compact on the blades of ``L.d_grades()``.

    Sites are taken ``SAMPLE_BLOCK`` rows at a time, as ``FieldExpr.sample``
    takes points, so no node's value slot holds more than a block.  Per
    block, the spec's closed slot-gradient trees are built on two leaves
    that hold the block's values of F and of its aggregate d, widened to 16
    components, under the block's coordinate key; a slot without a closed
    form takes the per-blade stencils of :func:`blade_gradient`.
    """
    xs = F.lattice.coords().reshape(-1, 4)
    comps, d = F.comps.reshape(-1, DIM), d.reshape(d.shape[0], -1)
    masks = (_blade_masks(L.field_grades), _blade_masks(L.d_grades()))
    grads = tuple(np.empty((len(m), len(xs))) for m in masks)
    for lo in range(0, len(xs), SAMPLE_BLOCK):
        rows = slice(lo, lo + SAMPLE_BLOCK)
        pts, block = xs[rows], (comps[rows], _widen(d[:, rows], L.d_grades()))
        key = pts.tobytes()
        leaves = (Tabulated(block[0], F.grades, key), Tabulated(block[1], L.d_grades(), key))
        for k, build in enumerate((L.grad_x, L.grad_d)):
            value = (
                blade_gradient(L, block, pts, k) if build is None else build(*leaves).ev(pts, key)
            )
            grads[k][:, rows] = value.T[masks[k]]
        del block, leaves, value  # freed before the next block's are made
    return tuple(g.reshape((len(g),) + F.lattice.shape) for g in grads)


def discrete_action(L: LagrangianSpec, F: LatticeField) -> float:
    """Sum over sites of the density times the cell volume."""
    _require_operands(L, F)
    dg = L.d_grades()
    d = _widen(_aggregate(F.lattice, L.mode.star, F.comps, F.grades, dg), dg)
    xs = F.lattice.coords().reshape(-1, 4)
    dens = L.density(F.comps.reshape(-1, DIM), d.reshape(-1, DIM), xs)
    return float(dens.sum() * F.lattice.cell_volume)


def _residual(L: LagrangianSpec, F: LatticeField) -> np.ndarray:
    """grad_X l + sum_mu g^mu *' D_mu^T grad_d l on the field's blades, 0 on the
    dirichlet shell, compact: the slot gradients scattered back through the
    transposed stencils."""
    _require_operands(L, F)
    lat = F.lattice
    gx, gd = _slot_gradients(
        L, F, _aggregate(lat, L.mode.star, F.comps, F.grades, L.d_grades())
    )
    _frame_sum(L.mode.dual, gd, L.d_grades(), gx, L.field_grades, _stencils(lat, transpose=True))
    return _zero_boundary(lat, gx)


def action_gradient(L: LagrangianSpec, F: LatticeField) -> LatticeField:
    """Exact gradient of the discrete action over interior site components.

    Assembled by scattering the slot gradients back through the transposed
    difference stencils.  The pairing convention is the algebra scalar
    product: for any interior perturbation ``delta``,
    ``gradient.pair(delta)`` equals d/dl of the action along F + l delta.
    """
    return _field(F.lattice, L.field_grades, _residual(L, F) * F.lattice.cell_volume)


def discrete_ele_residual(L: LagrangianSpec, F: LatticeField) -> LatticeField:
    """grad_X l - sum_mu g^mu *' Dhat_mu grad_d l with the adjoint-consistent dual.

    Dhat is -D^T of the forward stencil (on a periodic lattice the plain
    wraparound central difference D itself, bit for bit), which makes the
    gradient-residual duality exact rather than a truncation-order
    statement: the residual is the action gradient's sum before the cell
    volume.
    """
    return _field(F.lattice, L.field_grades, _residual(L, F))


def discrete_gauss(v: LatticeField) -> tuple[float, float]:
    """Volume sum of the discrete divergence vs the stencil boundary flux.

    The flux functional pairs the field with the column sums of the axis
    stencils (supported near the boundary; identically zero for periodic),
    so the identity volume = flux is the transpose consistency of the
    implementation, holding to roundoff for any lattice 1-form field.
    """
    if not v.grades <= {1}:
        raise GradeError("the divergence theorem check takes 1-form fields")
    lat = v.lattice
    vol = 0.0
    for mu, d in enumerate(_stencils(lat)):
        # summed in tensordot's (axis mu first) layout, the order the check reports
        vol += np.tensordot(d, v.comps[..., 1 << mu], axes=([1], [mu])).sum()
    flux = 0.0
    for mu, d in enumerate(_stencils(lat)):
        weights = d.sum(axis=0)
        shape = [1, 1, 1, 1]
        shape[mu] = lat.sites
        flux += (v.comps[..., 1 << mu] * weights.reshape(shape)).sum()
    return vol * lat.cell_volume, flux * lat.cell_volume


# ---------------------------------------------------------------------------
# stationary Maxwell solve
# ---------------------------------------------------------------------------


def _maxwell(lat: Lattice, a: np.ndarray) -> np.ndarray:
    """div(curl a) on compact grade-1 arrays (4, N, N, N, N): the dual
    aggregate -sum_mu g^mu . D_mu^T of curl a, 0 on the dirichlet shell."""
    curl = _frame_sum("op", a, {1}, np.zeros((6,) + lat.shape), {2}, _stencils(lat))
    out = np.zeros((4,) + lat.shape)
    _frame_sum("lc", curl, {2}, out, {1}, _stencils(lat, transpose=True), sign=-1.0)
    return _zero_boundary(lat, out)


def maxwell_operator(lat: Lattice) -> Callable[[np.ndarray], np.ndarray]:
    """The discrete div(curl(.)) map on grade-1 component arrays.

    This is the discrete Euler-Lagrange residual of the source-free flat
    Maxwell density with mu0 = 1, whose d-slot gradient is -(curl A).
    """

    def apply(comps: np.ndarray) -> np.ndarray:
        return _widen(_maxwell(lat, _compact(comps, {1})), {1})

    return apply


def _projected_operator(lat: Lattice) -> Callable[[np.ndarray], np.ndarray]:
    """The matvec MINRES solves with: the Maxwell operator with the boundary
    sites masked on input as on output, signed by the metric so that the
    system is symmetric.  Vectors are site-major, four components per site."""
    eps = SP_DIAG[VECTOR_IDX]  # metric signs of the four vector components

    def matvec(u: np.ndarray) -> np.ndarray:
        a = _zero_boundary(lat, np.moveaxis(u.reshape(lat.shape + (4,)), -1, 0))
        return (np.moveaxis(_maxwell(lat, a), 0, -1) * eps).reshape(-1)

    return matvec


def _wavenumbers(lat: Lattice) -> np.ndarray:
    """s_mu = sin(2 pi m_mu / N) / h_mu on the rfftn grid, shape
    (N, N, N, N // 2 + 1, 4), with rounding-level values (sin(pi) = 1.2e-16)
    set to exactly 0."""
    n = lat.sites
    ms = [np.fft.fftfreq(n, 1.0 / n)] * 3 + [np.fft.rfftfreq(n, 1.0 / n)]
    s = [np.sin(2 * np.pi * m / n) / h for m, h in zip(ms, lat.spacing)]
    smax = max(np.abs(v).max() for v in s)
    s = [np.where(np.abs(v) < 1e-12 * smax, 0.0, v) for v in s]
    return np.stack(np.meshgrid(*s, indexing="ij"), axis=-1)


def _fft_solve(lat: Lattice, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm potential of the periodic system M a = rhs, one 4x4
    block M(k) = -(s.s) I + eta s s^T per wavevector (s.s = sum eta_mu s_mu^2).

    Regular blocks solve in the gauge sum eta_mu s_mu a_mu = 0, MINRES's own;
    a null block (s.s = 0 to rounding, s != 0) is taken as exactly the
    rank-one eta s s^T, since a pseudo-inverse of the rounded block would
    turn FFT noise into the operator's lightlike kernel modes; s = 0 gives 0.
    A current outside the range, whose block residuals exceed 1e-9 of it in
    norm (a constant current reads 1), raises ``ValueError``.
    """
    eta = SP_DIAG[VECTOR_IDX]
    axes = (0, 1, 2, 3)
    j = np.fft.rfftn(rhs, axes=axes)
    s = _wavenumbers(lat)
    ss = (eta * s * s).sum(axis=-1, keepdims=True)
    s2 = (s * s).sum(axis=-1, keepdims=True)
    regular = np.abs(ss) > 1e-12 * s2
    ss = np.where(regular, ss, 0.0)  # a null block is exactly rank one
    s2_safe = np.where(s2 > 0.0, s2, 1.0)
    pj = (eta * s * j).sum(axis=-1, keepdims=True) / s2_safe  # (eta s . j) / |s|^2
    # the null-block solution s pj / |s|^2 is 0 where s = 0
    a = np.where(regular, -(j - eta * s * pj) / np.where(regular, ss, 1.0), s * pj / s2_safe)
    resid = -ss * a + eta * s * (s * a).sum(axis=-1, keepdims=True) - j
    incompatible = np.linalg.norm(resid) / np.linalg.norm(j)
    if not incompatible <= 1e-9:
        raise ValueError(
            f"periodic solve needs a compatible current (relative residual "
            f"{incompatible:.3e} outside the operator's range)"
        )
    return np.fft.irfftn(a, s=lat.shape, axes=axes)


def solve_maxwell(
    lat: Lattice,
    J: LatticeField,
    tol: float = 1e-8,
    maxiter: int | None = None,
) -> LatticeField:
    """Solve the discrete stationarity system div(curl A) = J, at mu0 = 1.

    Periodic: a direct solve by 4D FFT, one 4x4 symbol block per
    wavevector, returning the minimum-norm potential (see
    :func:`_fft_solve`).  Dirichlet: MINRES (``maxiter`` iterations at most,
    40 N^2 when ``None``) on the signed component system with the boundary
    sites masked on input as on output.  Either way the potential is
    certified against :func:`maxwell_operator` at the relative residual
    ``tol``.  A ``tol`` that is not finite and positive, a ``maxiter`` that
    is neither ``None`` nor a positive integer, and a current that is not
    finite raise ``ValueError`` before any solve.
    """
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    if maxiter is not None and (
        isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral) or maxiter < 1
    ):
        raise ValueError(f"maxiter must be None or a positive integer, got {maxiter!r}")
    if not J.grades <= {1}:
        raise GradeError("the current must be a 1-form field")
    if J.lattice is not lat and J.lattice != lat:
        raise ValueError("current lives on a different lattice")

    rhs = _zero_boundary(lat, _compact(J.comps, {1}))
    if not np.isfinite(rhs).all():
        raise ValueError("the current has non-finite components")
    if not rhs.any():
        return LatticeField.zeros(lat, {1})

    # the FFT and MINRES take site-major vectors, four components per site
    if lat.bc == "periodic":
        a = _fft_solve(lat, np.moveaxis(rhs, 0, -1))
    else:
        import scipy.sparse.linalg as spla  # the only use of scipy; see the module docstring

        nvec = 4 * lat.n_sites
        linop = spla.LinearOperator((nvec, nvec), matvec=_projected_operator(lat))
        b = (np.moveaxis(rhs, 0, -1) * SP_DIAG[VECTOR_IDX]).reshape(-1)
        if maxiter is None:
            maxiter = 40 * lat.sites**2
        u, info = spla.minres(linop, b, rtol=min(tol, 1e-12), maxiter=maxiter)
        if info != 0:
            raise SolverError(f"MINRES did not converge (info={info})")
        a = u.reshape(lat.shape + (4,))
    a = _zero_boundary(lat, np.moveaxis(a, -1, 0))

    rel = np.linalg.norm(_maxwell(lat, a) - rhs) / np.linalg.norm(rhs)
    if not rel <= tol:
        raise SolverError(f"solution residual {rel:.3e} exceeds tolerance {tol:g}")
    return _field(lat, {1}, a)


# ---------------------------------------------------------------------------
# binary export
# ---------------------------------------------------------------------------

_HEADER_MAGIC = "multiform-lattice-field v1"
_SIDECAR_KEYS = ("sites", "origin", "extent", "spacing", "bc", "grades", "blades")


def export_field(F: LatticeField, basepath: str) -> tuple[str, str]:
    """Write <basepath>.bin (little-endian float64, site-major, component-minor)
    and the <basepath>.txt sidecar header."""
    blades = _blade_masks(F.grades)
    data = F.comps[..., blades].astype("<f8")
    bin_path = basepath + ".bin"
    txt_path = basepath + ".txt"
    data.tofile(bin_path)
    lat = F.lattice
    lines = [
        _HEADER_MAGIC,
        "sites: " + " ".join(str(lat.sites) for _ in range(4)),
        "origin: " + " ".join(repr(float(v)) for v in lat.origin),
        "extent: " + " ".join(repr(float(v)) for v in lat.extent),
        "spacing: " + " ".join(repr(float(v)) for v in lat.spacing),
        f"bc: {lat.bc}",
        "grades: " + " ".join(str(g) for g in sorted(F.grades)),
        "blades: " + " ".join(str(b) for b in blades),
        "dtype: float64 little-endian",
        "layout: site-major component-minor",
    ]
    with open(txt_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return bin_path, txt_path


def load_field(basepath: str) -> LatticeField:
    """Read a field written by :func:`export_field`; a sidecar that is
    incomplete, contradicts itself or the ``.bin`` size raises ``ValueError``."""
    with open(basepath + ".txt") as fh:
        lines = [ln.strip() for ln in fh.readlines() if ln.strip()]
    head = lines[0] if lines else ""
    if head != _HEADER_MAGIC:
        raise ValueError(f"not a lattice field header: {head!r}")
    fields = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(":")
        fields[key.strip()] = rest.strip()
    missing = [key for key in _SIDECAR_KEYS if key not in fields]
    if missing:
        raise ValueError(f"sidecar lacks {', '.join(missing)}")
    sites = fields["sites"].split()
    if len(sites) != 4 or len(set(sites)) != 1 or not sites[0].isdigit():
        raise ValueError(f"sites must be one integer repeated 4 times, got {fields['sites']!r}")
    lat = Lattice(
        origin=np.array([float(v) for v in fields["origin"].split()]),
        extent=np.array([float(v) for v in fields["extent"].split()]),
        sites=int(sites[0]),
        bc=fields["bc"],
    )
    spacing = [float(v) for v in fields["spacing"].split()]
    if spacing != lat.spacing.tolist():
        raise ValueError(f"spacing {spacing} differs from extent / sites = {lat.spacing.tolist()}")
    grades = frozenset(int(g) for g in fields["grades"].split())
    blades = [int(b) for b in fields["blades"].split()]
    masks = _blade_masks(grades)
    if blades != masks:
        raise ValueError(f"blades {blades} are not the masks of grades {sorted(grades)}: {masks}")
    raw = np.fromfile(basepath + ".bin", dtype="<f8")
    n = lat.n_sites * len(blades)
    if raw.size != n:
        raise ValueError(f"{basepath}.bin holds {raw.size} floats, the sidecar implies {n}")
    data = raw.reshape(lat.shape + (len(blades),))
    comps = np.zeros(lat.shape + (DIM,))
    comps[..., blades] = data
    return LatticeField(lat, grades, comps)
