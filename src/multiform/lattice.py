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
of a zero; the oracle is in tests/test_kernel_oracle.py).  A LatticeField
stores one such array.  Site-major 16-wide arrays appear only where values
leave or enter: each read of LatticeField.comps, the public constructor's
argument and pair, and the density and slot-gradient inputs, which hold one
block of sites: every walk over the sites takes them from fields._grid_blocks.

The stationary Maxwell operator is that residual for the source-free flat
Maxwell density: the residual's scatter of its slot gradient grad_d l =
-curl A, with no grad_X l term.  Its system is symmetric indefinite once
signed by the metric, and singular: pure-gauge potentials lie in its kernel.
On a periodic lattice it is circulant, so a 4D FFT solves it directly, one
4x4 block per wavevector, and returns the minimum-norm potential; on a
Dirichlet lattice MINRES solves the masked system, its vectors the compact
arrays flattened.  Either way the returned potential is certified against
the true discrete operator.  scipy supplies MINRES and nothing else, so it
is imported by the first Dirichlet solve with a nonzero current, not with
this module.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sta
from .fields import FieldExpr, GradeError, Tabulated, _grid_blocks, evaluate, worst_of
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

    def _axes(self) -> list[np.ndarray]:
        return [self.origin[k] + (np.arange(self.sites) + 0.5) * self.spacing[k] for k in range(4)]

    def coords(self) -> np.ndarray:
        """Site-center coordinates, a new array of shape (N, N, N, N, 4)."""
        return np.stack(np.meshgrid(*self._axes(), indexing="ij"), axis=-1)

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


class LatticeField:
    """Per-site multivector values restricted to a declared grade set.

    The constructor takes site-major (N, N, N, N, 16) ``comps`` and stores the
    blades of ``grades`` only, compact (n_blades, N, N, N, N); one outside them
    above 1e-12 or NaN raises ``GradeError``.  ``comps`` is a new read-only
    16-wide array at each read.  Fields compare by value and are unhashable.
    """

    __slots__ = ("lattice", "grades", "_blades")
    __hash__ = None

    def __init__(self, lattice: Lattice, grades, comps):
        self.lattice, self.grades = lattice, frozenset(grades)
        comps = np.asarray(comps, dtype=float).reshape(lattice.shape + (DIM,))
        _guard(_off_grade(comps, self.grades), self.grades)
        self._blades = _compact(comps, self.grades)

    @property
    def comps(self) -> np.ndarray:
        out = _widen(self._blades, self.grades)
        out.flags.writeable = False
        return out

    def __eq__(self, other):
        if not isinstance(other, LatticeField):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.grades == other.grades
            and np.array_equal(self._blades, other._blades)
        )

    @classmethod
    def zeros(cls, lattice: Lattice, grades) -> "LatticeField":
        return _field(lattice, grades, np.zeros((len(_blade_masks(grades)),) + lattice.shape))

    def pair(self, other: "LatticeField") -> float:
        """Sum over sites of the algebra scalar product of two fields on equal lattices."""
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise ValueError("the fields live on different lattices")
        return float((self.comps * SP_DIAG * other.comps).sum())


def _off_grade(comps: np.ndarray, grades: frozenset) -> float:
    """The largest component outside ``grades`` of the site-major ``comps``, NaN over all."""
    # selected, not masked: NaN * 0 is NaN, and a NaN is never small;
    # one blade at a time, so the check copies no more than one blade
    off = (m for m in range(DIM) if GRADES[m] not in grades)
    return worst_of(0.0, *(np.abs(comps[..., m]).max() for m in off))


def _guard(outside: float, grades: frozenset) -> None:
    """``GradeError`` if ``outside``, a largest off-grade component, is above 1e-12 or NaN."""
    if not outside <= 1e-12:
        raise GradeError(
            f"field has components of size {outside:.3e} outside grades {sorted(grades)}"
        )


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
    """d applied along site axis mu of one (N, N, N, N) blade.

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
    """The field holding the C-contiguous compact ``arr`` itself: no copy, no check."""
    F = LatticeField.__new__(LatticeField)
    F.lattice, F.grades, F._blades = lat, frozenset(grades), arr
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
) -> np.ndarray:
    """acc += sum_mu g^mu * (mats[mu] along axis mu of arr), in place.

    ``arr`` and ``acc`` are compact, on the blades of ``grades`` and of
    ``out_grades``; terms that land on other blades are dropped.  g^mu * .
    has one +-1 per column, so each of its entries is one signed add of one
    blade of arr stencilled along axis mu, done in mu order: only the blades
    it reads are stencilled, and every output blade sees the additions of
    the 16-wide frame sum in the same order, so the result has its bits, up
    to the sign of a zero.
    """
    for mu, pairs in enumerate(_frame_pairs(kind, frozenset(grades), frozenset(out_grades))):
        for i, o, s in pairs:
            x = _apply_stencil(arr[i], mats[mu], mu)
            if s > 0:
                acc[o] += x
            else:
                acc[o] -= x
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
    """Sample a field expression at the site centers a block of sites at a time
    into the field's compact array; values outside ``grades`` raise the guard's
    ``GradeError`` of :class:`LatticeField`, with the largest on the lattice."""
    grades = frozenset(grades)
    blades = _blade_masks(grades)
    arr, outside = np.empty((len(blades), lat.n_sites)), 0.0
    for rows, pts in _grid_blocks(lat._axes()):
        vals = X.sample(pts)
        arr[:, rows] = vals[:, blades].T
        outside = worst_of(outside, _off_grade(vals, grades))
    _guard(outside, grades)
    return _field(lat, grades, arr.reshape((len(blades),) + lat.shape))


def _require_operands(L: LagrangianSpec, F: LatticeField) -> None:
    """A flat-mode Lagrangian and a field within its grades."""
    if L.mode.family != "flat":
        raise ValueError(
            f"lattice operations take flat-mode Lagrangians, not {L.mode.name}"
        )
    if not F.grades <= L.field_grades:
        raise GradeError(f"field grades {sorted(F.grades)} outside {sorted(L.field_grades)}")


def _aggregate(lat: Lattice, kind: str, arr: np.ndarray, grades, out_grades) -> np.ndarray:
    """The discrete derivative aggregate sum_mu g^mu * D_mu arr at every site,
    for arr compact on the blades of grades, compact on the blades of
    ``out_grades``, which hold the aggregate's grades."""
    d = np.zeros((len(_blade_masks(out_grades)),) + lat.shape)
    return _frame_sum(kind, arr, grades, d, out_grades, _stencils(lat))


def _scatter(
    lat: Lattice, kind: str, g: np.ndarray, grades, acc: np.ndarray, out_grades
) -> np.ndarray:
    """acc += sum_mu g^mu * D_mu^T g in place, g and acc compact on the blades
    of ``grades`` and ``out_grades``; returned with the dirichlet shell at 0."""
    acc = _frame_sum(kind, g, grades, acc, out_grades, _stencils(lat, transpose=True))
    return _zero_boundary(lat, acc)


def _site_blocks(L: LagrangianSpec, F: LatticeField):
    """Yield ``(rows, points, (f, d))`` per block of ``_grid_blocks``: the
    block's values of F and of its aggregate d, widened to (rows, 16)."""
    lat, dg = F.lattice, L.d_grades()
    arr = F._blades.reshape(-1, lat.n_sites)
    d = _aggregate(lat, L.mode.star, F._blades, F.grades, dg).reshape(-1, lat.n_sites)
    for rows, pts in _grid_blocks(lat._axes()):
        yield rows, pts, (_widen(arr[:, rows], F.grades), _widen(d[:, rows], dg))


def _slot_gradients(L: LagrangianSpec, F: LatticeField) -> tuple[np.ndarray, np.ndarray]:
    """Per-site slot gradients (grad_X l, grad_d l) as compact arrays on the
    blades of the field grades and of the aggregate grades ``L.d_grades()``.

    Per block of :func:`_site_blocks`, so that no value of an evaluation holds
    more than a block, the spec's closed slot-gradient trees are built on two
    leaves holding the block's F and aggregate at its coordinates; a slot
    without a closed form takes the per-blade stencils of :func:`blade_gradient`.
    """
    lat = F.lattice
    masks = (_blade_masks(L.field_grades), _blade_masks(L.d_grades()))
    grads = tuple(np.empty((len(m), lat.n_sites)) for m in masks)
    for rows, pts, block in _site_blocks(L, F):
        leaves = (Tabulated(block[0], F.grades, pts), Tabulated(block[1], L.d_grades(), pts))
        for k, build in enumerate((L.grad_x, L.grad_d)):
            tree = None if build is None else build(*leaves)
            value = blade_gradient(L, block, pts, k) if tree is None else evaluate([tree], pts)[0]
            grads[k][:, rows] = value.T[masks[k]]
        del block, leaves, tree, value  # freed before the next block's are made
    return tuple(g.reshape((len(g),) + lat.shape) for g in grads)


def discrete_action(L: LagrangianSpec, F: LatticeField) -> float:
    """Sum over sites of the density, assembled a block at a time, times the cell volume."""
    _require_operands(L, F)
    dens = np.empty(F.lattice.n_sites)
    for rows, pts, (f, d) in _site_blocks(L, F):
        dens[rows] = L.density(f, d, pts)
    return float(dens.sum() * F.lattice.cell_volume)


def _residual(L: LagrangianSpec, F: LatticeField) -> np.ndarray:
    """grad_X l + sum_mu g^mu *' D_mu^T grad_d l on the field's blades, 0 on the
    dirichlet shell, compact: the slot gradients scattered back through the
    transposed stencils."""
    _require_operands(L, F)
    gx, gd = _slot_gradients(L, F)
    return _scatter(F.lattice, L.mode.dual, gd, L.d_grades(), gx, L.field_grades)


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
    arr = v._blades if v.grades else np.zeros((4,) + lat.shape)  # g_mu is blade mu
    vol = flux = 0.0
    for mu, d in enumerate(_stencils(lat)):
        # summed in tensordot's (axis mu first) layout, the order the check reports
        vol += np.tensordot(d, arr[mu], axes=([1], [mu])).sum()
        weights = d.sum(axis=0).reshape([lat.sites if k == mu else 1 for k in range(4)])
        flux += (arr[mu] * weights).sum()
    return vol * lat.cell_volume, flux * lat.cell_volume


# ---------------------------------------------------------------------------
# stationary Maxwell solve
# ---------------------------------------------------------------------------


def _maxwell(lat: Lattice, a: np.ndarray) -> np.ndarray:
    """div(curl a) on compact grade-1 arrays (4, N, N, N, N): the residual's
    scatter of grad_d l = -curl a, 0 on the dirichlet shell."""
    # allocated before curl and the stencilled blades, so that once those are
    # freed they leave one free block above it, where the 16-wide result of
    # maxwell_operator then fits
    out = np.zeros((4,) + lat.shape)
    grad_d = _aggregate(lat, "op", a, {1}, {2})
    np.negative(grad_d, out=grad_d)  # in place: a copy would raise the N=16 peak
    return _scatter(lat, "lc", grad_d, {2}, out, {1})


def maxwell_operator(lat: Lattice) -> Callable[[np.ndarray], np.ndarray]:
    """The discrete div(curl(.)) map on grade-1 component arrays.

    This is the discrete Euler-Lagrange residual of the source-free flat
    Maxwell density with mu0 = 1: the residual's scatter of the d-slot
    gradient grad_d l = -(curl A) through the transposed stencils.
    """

    def apply(comps: np.ndarray) -> np.ndarray:
        return _widen(_maxwell(lat, _compact(comps, {1})), {1})

    return apply


# metric signs of the four vector components, on axis 0 of a compact array
_VECTOR_SIGNS = SP_DIAG[VECTOR_IDX].reshape(4, 1, 1, 1, 1)


def _projected_operator(lat: Lattice) -> Callable[[np.ndarray], np.ndarray]:
    """The matvec MINRES solves with: the Maxwell operator with the boundary
    sites masked on input as on output, signed by the metric so that the
    system is symmetric.  Vectors are compact (4, N, N, N, N) arrays,
    flattened: component-major, as the operator stores them."""

    def matvec(u: np.ndarray) -> np.ndarray:
        a = _zero_boundary(lat, u.reshape((4,) + lat.shape))
        return (_maxwell(lat, a) * _VECTOR_SIGNS).reshape(-1)

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

    ``rhs`` and the result are compact (4, N, N, N, N).  Two complex
    (N, N, N, N // 2 + 1, 4) buffers are live: rfftn's passes run in numpy's
    order into j, and the blocks are solved into a, in place, with the null
    blocks assigned by index.  ||j|| is taken before the range-gate residual
    is formed in j's buffer.  j is then freed, the inverse c2c passes run in
    place on a over axes 0, 1, 2 (irfftn's order), and the last irfft
    writes into the compact result.
    """
    eta = SP_DIAG[VECTOR_IDX]
    s = _wavenumbers(lat)
    j = np.empty(s.shape, dtype=complex)
    np.fft.rfftn(np.moveaxis(rhs, 0, -1), axes=(0, 1, 2, 3), out=j)
    ss = (eta * s * s).sum(axis=-1, keepdims=True)
    s2 = (s * s).sum(axis=-1, keepdims=True)
    regular = np.abs(ss) > 1e-12 * s2
    ss[~regular] = 0.0  # a null block is exactly rank one
    s2[s2 == 0.0] = 1.0  # s = 0 only; s2 is a sum of squares
    es = eta * s
    a = es * j
    pj = a.sum(axis=-1, keepdims=True)
    pj /= s2  # (eta s . j) / |s|^2
    np.multiply(es, pj, out=a)
    np.subtract(j, a, out=a)
    np.negative(a, out=a)
    a /= np.where(regular, ss, 1.0)
    # the null-block solution s pj / |s|^2, 0 where s = 0
    null = ~regular[..., 0]
    a[null] = s[null] * pj[null] / s2[null]
    norm_j = np.linalg.norm(j)
    sa = sum(s[..., k] * a[..., k] for k in range(4))
    for k in range(4):  # -ss a + eta s (s . a) - j, one component at a time
        j[..., k] = -ss[..., 0] * a[..., k] + es[..., k] * sa - j[..., k]
    incompatible = np.linalg.norm(j) / norm_j
    if not incompatible <= 1e-9:
        raise ValueError(
            f"periodic solve needs a compatible current (relative residual "
            f"{incompatible:.3e} outside the operator's range)"
        )
    del j, s, es, sa
    for axis in (0, 1, 2):
        np.fft.ifft(a, axis=axis, out=a)
    out = np.empty((4,) + lat.shape)
    np.fft.irfft(a, lat.sites, axis=3, out=np.moveaxis(out, 0, -1))
    return out


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
    sites masked on input as on output, its vectors compact (4, N, N, N, N)
    arrays flattened.  Either way the potential is certified against
    :func:`maxwell_operator` at the relative residual ``tol``.  Both work on
    J's stored blades and return a compact (4, N, N, N, N) potential, which
    the last inverse FFT writes directly; the certificate's difference is
    formed in place in the operator's output, so no 16-wide array is made.
    A ``tol`` that is not finite and positive, a ``maxiter`` that is neither
    ``None`` nor a positive integer, and a current that is not finite raise
    ``ValueError`` before any solve.
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

    rhs = _zero_boundary(lat, J._blades)
    if not np.isfinite(rhs).all():
        raise ValueError("the current has non-finite components")
    if not rhs.any():
        return LatticeField.zeros(lat, {1})

    if lat.bc == "periodic":
        a = _fft_solve(lat, rhs)
    else:
        import scipy.sparse.linalg as spla  # the only use of scipy; see the module docstring

        nvec = 4 * lat.n_sites
        linop = spla.LinearOperator((nvec, nvec), matvec=_projected_operator(lat))
        b = (rhs * _VECTOR_SIGNS).reshape(-1)
        if maxiter is None:
            maxiter = 40 * lat.sites**2
        u, info = spla.minres(linop, b, rtol=min(tol, 1e-12), maxiter=maxiter)
        if info != 0:
            raise SolverError(f"MINRES did not converge (info={info})")
        a = _zero_boundary(lat, u.reshape((4,) + lat.shape))

    res = _maxwell(lat, a)
    rel = np.linalg.norm(np.subtract(res, rhs, out=res)) / np.linalg.norm(rhs)
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
    data = np.ascontiguousarray(np.moveaxis(F._blades, 0, -1), dtype="<f8")
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
    return _field(lat, grades, np.ascontiguousarray(np.moveaxis(data, -1, 0)))
