"""The product kernel and its grade-aware fast paths against the dense-table reference.

``reference_prod`` is the kernel as it was before shape dispatch: it
broadcasts both operands to the full batch shape and forms one
multiplication matrix per row.  The kernel must give bit-identical results,
with the same shape, for every operand layout it dispatches on.

The tree layer skips the kernel where grades allow: a product with a
scalar-grade factor is a broadcast multiply, a product of two constants is
folded when the tree is built, and the g^mu * aggregates multiply only the
blades of their operand's grades.  Each fast path must equal the dense
reference bit for bit, and each rests on the invariant that a node's values
vanish exactly outside its grade set, which is checked on random trees.
Non-finite values are the exception: inf times a structural zero is NaN,
so there the fast paths may place NaN differently, but a check must still
fail.
"""

import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from multiform import fields, lattice, sta
from multiform.fields import (
    AGGREGATES,
    Add,
    BladeExp,
    Const,
    DelExpr,
    ExtApply,
    FieldExpr,
    Graded,
    PolyMap,
    Prod,
    Rev,
    Scale,
    ScalarMap,
    add,
    check_identity_flat,
    coordinate,
    del_expr_kind,
    gauss_check,
    position,
    prod,
    scalar_derivative_at_zero,
    worst_of,
)
from multiform.lagrangian import ele_residual_flat, make_builtin
from multiform.sampling import (
    random_field,
    random_invertible_h,
    random_multivector,
    random_points,
    random_vector,
)
from multiform.sta import ALL_GRADES, DIM, GAMMA, GAMMA_UP_ARR, Multivector


def reference_prod(x: np.ndarray, y: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Bilinear blade product of (...,16) component arrays via a Cayley table."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    flat = table.reshape(DIM, DIM * DIM)
    if x.ndim == 1 and y.ndim == 1:
        return ((x @ flat).reshape(DIM, DIM) * y[:, None]).sum(axis=0)
    bshape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    xf = np.broadcast_to(x, bshape + (DIM,)).reshape(-1, DIM)
    yf = np.broadcast_to(y, bshape + (DIM,)).reshape(-1, DIM)
    a = (xf @ flat).reshape(-1, DIM, DIM)
    out = np.einsum("pjk,pj->pk", a, yf)
    return out.reshape(bshape + (DIM,))


def reference_cross(x, y):
    return 0.5 * (
        reference_prod(x, y, sta._GP_TABLE) - reference_prod(y, x, sta._GP_TABLE)
    )


REFERENCE = {
    "gp": lambda x, y: reference_prod(x, y, sta._GP_TABLE),
    "op": lambda x, y: reference_prod(x, y, sta._OP_TABLE),
    "lc": lambda x, y: reference_prod(x, y, sta._LC_TABLE),
    "cross": reference_cross,
}

def _arr(rng, shape):
    """Random components over sixteen decades, so that summation order shows in the bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def _noncontiguous(rng, rows):
    """A (rows, 16) view that is not C-contiguous: every other row, or a transpose."""
    if rng.integers(2):
        return _arr(rng, (2 * rows, DIM + 3))[::2, 1 : DIM + 1]
    return _arr(rng, (DIM, rows)).T


@st.composite
def operands(draw):
    """An operand pair in one of the layouts the kernel dispatches on."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = draw(st.integers(min_value=1, max_value=5))
    case = draw(st.sampled_from([
        "1d-1d", "equal", "equal-3d", "1d-left", "1d-right", "stride0-left",
        "stride0-right", "stride0-3d", "mixed", "zero-rows", "zero-rows-1d",
        "zero-rows-stride0", "noncontiguous", "noncontiguous-1d",
    ]))
    vec = _arr(rng, (DIM,))
    batch = _arr(rng, (rows, DIM))
    if case == "1d-1d":
        x, y = vec, _arr(rng, (DIM,))
    elif case == "equal":
        x, y = batch, _arr(rng, (rows, DIM))
    elif case == "equal-3d":
        x, y = _arr(rng, (2, rows, DIM)), _arr(rng, (2, rows, DIM))
    elif case in ("1d-left", "1d-right"):
        x, y = vec, batch
    elif case in ("stride0-left", "stride0-right"):
        x, y = np.broadcast_to(vec, (rows, DIM)), batch
    elif case == "stride0-3d":
        x, y = np.broadcast_to(vec, (2, rows, DIM)), _arr(rng, (2, rows, DIM))
    elif case == "mixed":
        x, y = _arr(rng, (rows, 1, DIM)), _arr(rng, (1, 4, DIM))
    elif case == "zero-rows":
        x, y = np.zeros((0, DIM)), np.zeros((0, DIM))
    elif case == "zero-rows-1d":
        x, y = vec, np.zeros((0, DIM))
    elif case == "zero-rows-stride0":
        x, y = np.broadcast_to(vec, (0, DIM)), np.zeros((0, DIM))
    elif case == "noncontiguous":
        x, y = _noncontiguous(rng, rows), _noncontiguous(rng, rows)
    else:  # noncontiguous-1d
        x, y = vec, _noncontiguous(rng, rows)
    if case.endswith("-right") or draw(st.booleans()):
        x, y = y, x
    return case, x, y


@pytest.mark.parametrize("kind", sorted(REFERENCE))
@settings(max_examples=60, deadline=None)
@given(pair=operands())
def test_kernel_bit_identical_to_dense_reference(kind, pair):
    case, x, y = pair
    want = REFERENCE[kind](x, y)
    got = sta.PRODUCT_KERNELS[kind](x, y)
    assert got.shape == want.shape, case
    assert np.array_equal(got, want), case


def reference_grade_set(comps: np.ndarray, tol: float) -> frozenset:
    """The grade set as it was defined per grade: grade r is present unless
    its largest component is at most tol in size (so NaN counts as present)."""
    return frozenset(
        r for r in range(5)
        if not np.abs(comps[sta.GRADE_MASKS[r]]).max(initial=0.0) <= tol
    )


COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.sampled_from([1e-15, -1e-14, 5e-14, 1e-12, -1e-12, 2e-12]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.mark.parametrize("tol", [0.0, 1e-14, 1e-12, np.nan])
@settings(max_examples=150, deadline=None)
@given(
    comps=st.lists(COMPONENTS, min_size=DIM, max_size=DIM),
    zeroed=st.sets(st.integers(min_value=0, max_value=4)),
)
def test_grade_set_equals_per_grade_reference(tol, comps, zeroed):
    comps = np.array(comps)
    comps[sta.grade_mask(zeroed) == 1.0] = 0.0  # some whole grades exactly zero
    got = Multivector(comps).grade_set(tol)
    assert got == reference_grade_set(comps, tol)
    assert all(type(r) is int for r in got)


# ---------------------------------------------------------------------------
# grade-aware fast paths of the tree layer
# ---------------------------------------------------------------------------

GRADE_SETS = [frozenset({r}) for r in range(5)] + [
    frozenset({0, 2}), frozenset({1, 3}), frozenset({0, 2, 4}), frozenset({1, 2}),
    frozenset({0, 1, 4}), ALL_GRADES,
]
TABLES = {"gp": sta._GP_TABLE, "op": sta._OP_TABLE, "lc": sta._LC_TABLE}
_H = random_invertible_h(np.random.default_rng(90))


def _grades(rng) -> frozenset:
    return GRADE_SETS[rng.integers(len(GRADE_SETS))]


def _scalar_tree(rng, depth: int) -> FieldExpr:
    """A scalar-grade tree whose values stay finite and moderate on the unit box."""
    pick = rng.integers(5 if depth else 2)
    if pick == 0:
        return coordinate(random_vector(rng))
    if pick == 1:
        return Const(Multivector.scalar(rng.uniform(-2.0, 2.0)))
    inner = _scalar_tree(rng, depth - 1)
    if pick == 2:
        return ScalarMap(inner, str(rng.choice(["sin", "cos"])))
    if pick == 3:  # 1 / (1 + s^2) and exp(sin s) are finite for every s
        if rng.integers(2):
            return ScalarMap(PolyMap(inner, [1.0, 0.0, 1.0]), "recip")
        return ScalarMap(ScalarMap(inner, "sin"), "exp")
    return PolyMap(ScalarMap(inner, "sin"), rng.uniform(-1.0, 1.0, 3))


ROOT_KINDS = (
    "add", "scale", "scalar-factor-product", "product", "reverse", "graded",
    "reciprocal", "blade-exp", "aggregate", "ext-apply", "derivative",
)


def _tree(rng, depth: int, pick: int | None = None) -> FieldExpr:
    """A random tree with structural zeros; pick chooses the root's kind."""
    if depth == 0:
        pick = rng.integers(4)
        if pick == 0:
            return Const(random_multivector(rng, _grades(rng)))
        if pick == 1:
            return position()
        if pick == 2:
            return _scalar_tree(rng, 1)
        return random_field(rng, _grades(rng), terms=1)
    if pick is None:
        pick = rng.integers(len(ROOT_KINDS))
    a = _tree(rng, depth - 1)
    if pick == 0:
        return Add(a, _tree(rng, depth - 1))
    if pick == 1:
        return Scale(rng.uniform(-2.0, 2.0), a)
    if pick in (2, 3):  # products, often with a scalar-grade or constant factor
        b = _scalar_tree(rng, depth - 1) if pick == 2 else _tree(rng, depth - 1)
        if rng.integers(2):
            a, b = b, a
        kind = str(rng.choice(["gp", "op", "lc", "sp", "cross"]))
        return prod(a, b, kind) if rng.integers(2) else Prod(a, b, kind)
    if pick == 4:
        return Rev(a)
    if pick == 5:
        out = Graded(a, _grades(rng))
        return out if out.grades else a
    if pick == 6:
        return ScalarMap(PolyMap(_scalar_tree(rng, depth - 1), [2.0, 0.0, 1.0]), "recip")
    if pick == 7:
        return BladeExp(GAMMA[rng.integers(4)] ^ GAMMA[0], _scalar_tree(rng, depth - 1))
    if pick == 8:
        return DelExpr(a, str(rng.choice(sorted(AGGREGATES))))
    if pick == 9:
        m = _H.matrix()
        tangents = tuple(m.deriv(GAMMA[rng.integers(4)]) for _ in range(rng.integers(3)))
        return ExtApply(m, a, tangents, bool(rng.integers(2)))
    return a.deriv(random_vector(rng))


def _field_nodes(root: FieldExpr) -> list:
    """Every field node reachable from root, including derived trees."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        for name in ("left", "right", "child"):
            sub = getattr(node, name, None)
            if isinstance(sub, FieldExpr):
                stack.append(sub)
        stack.extend(v for v in node._dcache.values() if isinstance(v, FieldExpr))
    return out


@pytest.mark.parametrize("root", range(len(ROOT_KINDS)), ids=ROOT_KINDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_values_vanish_outside_the_grade_set(root, seed):
    rng = np.random.default_rng(seed)
    tree = _tree(rng, int(rng.integers(1, 4)), root)
    pts = random_points(rng, 3)
    tree.sample(pts)
    tree.deriv(random_vector(rng)).sample(pts)
    for node in _field_nodes(tree):
        vals = node.sample(pts)
        assert np.isfinite(vals).all(), type(node).__name__
        outside = vals * (1.0 - sta.grade_mask(node.grades))
        assert not outside.any(), (type(node).__name__, sorted(node.grades))


@pytest.mark.parametrize("root", range(len(ROOT_KINDS)), ids=ROOT_KINDS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_blocked_sample_equals_one_whole_set_evaluation(root, seed):
    """sample over 2.5 blocks of rows gives the bits of one evaluate call over the whole set.

    The block is cut to 64 rows here: a whole-set evaluation of an extensor
    tree holds hundreds of (P, 16) values, about 50 kB a row.  The module's
    own block is checked below on the trees of the Gauss check.
    """
    rng = np.random.default_rng(seed)
    tree = _tree(rng, int(rng.integers(1, 4)), root)
    with mock.patch.object(fields, "SAMPLE_BLOCK", 64):
        pts = random_points(rng, 160)
        whole = fields.evaluate([tree], pts)[0]
        assert np.array_equal(tree.sample(pts), whole)


def test_blocked_sample_at_the_module_block():
    rng = np.random.default_rng(17)
    pts = random_points(rng, 5 * fields.SAMPLE_BLOCK // 2)
    for tree in (random_field(rng, ALL_GRADES), DelExpr(random_field(rng, {1}), "lc")):
        whole = fields.evaluate([tree], pts)[0]
        assert np.array_equal(tree.sample(pts), whole)


def oracle_gauss_check(v, box, n):
    """gauss_check over whole grids: the (n^4, 4) midpoint grid and each face's
    (n^3, 4) points copied column by column from a meshgrid of its three
    transverse axes."""
    lo, hi = (np.asarray(c, dtype=float) for c in box)
    h = (hi - lo) / n
    axes = [lo[k] + (np.arange(n) + 0.5) * h[k] for k in range(4)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    volume = float(del_expr_kind(v, "lc").sample(grid)[:, 0].sum() * np.prod(h))
    flux = 0.0
    for mu in range(4):
        cols = [k for k in range(4) if k != mu]
        tgrid = np.stack(np.meshgrid(*[axes[k] for k in cols], indexing="ij"), axis=-1).reshape(-1, 3)
        area = float(np.prod([h[k] for k in cols]))
        for side, sign in ((hi[mu], 1.0), (lo[mu], -1.0)):
            pts = np.empty((tgrid.shape[0], 4))
            pts[:, mu] = side
            for c, k in enumerate(cols):
                pts[:, k] = tgrid[:, c]
            flux += sign * float(v.sample(pts)[:, 1 << mu].sum()) * area
    return volume, flux


@pytest.mark.parametrize("n", [5, 8, 9, 16, 17])
def test_blocked_gauss_check_equals_the_whole_grid_oracle(n):
    """Bit for bit.  At n = 9 the volume's 6,561 points end in a partial
    block, and at n = 17 so do each face's 4,913."""
    v = prod(Const(GAMMA[1]), ScalarMap(coordinate(GAMMA[1] + GAMMA[0]), "sin"), "gp")
    v = add(v, prod(position(), PolyMap(coordinate(GAMMA[3]), [0.3, -1.1, 0.7]), "gp"))
    box = (np.array([0.0, -0.5, 0.2, 1.0]), np.array([1.0, 0.5, 1.2, 3.0]))
    got, want = gauss_check(v, box, n), oracle_gauss_check(v, box, n)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("root", range(len(ROOT_KINDS)), ids=ROOT_KINDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_structural_derivative_matches_finite_difference(root, seed):
    """deriv(a) against a Richardson central difference of the tree's own values.

    The reciprocals in ``_tree`` are 1 / (1 + s^2) and 1 / (2 + s^2), so no
    draw comes near a pole.
    """
    rng = np.random.default_rng(seed)
    tree = _tree(rng, int(rng.integers(1, 4)), root)
    pts = random_points(rng, 3)
    a = random_vector(rng)
    got = tree.deriv(a).sample(pts)
    fd = scalar_derivative_at_zero(lambda lam: tree.sample(pts + lam * a.vector_coords()))
    scale = np.maximum(1.0, np.abs(fd).max(axis=1, keepdims=True))
    assert (np.abs(got - fd) / scale).max() <= 1e-6


@pytest.mark.parametrize("kind", ["gp", "op", "lc"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scalar_factor_product_equals_dense_reference(kind, seed):
    rng = np.random.default_rng(seed)
    s = _scalar_tree(rng, 2)
    X = random_field(rng, _grades(rng), terms=1)
    pts = random_points(rng, 5)
    pts[0] = 0.0  # sin and the coordinates vanish there: zeros in the scalar factor
    for left, right in ((s, X), (X, s)):
        got = Prod(left, right, kind).sample(pts)
        want = reference_prod(left.sample(pts), right.sample(pts), TABLES[kind])
        assert np.array_equal(got, want), (kind, sorted(left.grades), sorted(right.grades))


@pytest.mark.parametrize("kind", ["gp", "op", "lc", "sp", "cross"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_folded_constant_equals_batched_product(kind, seed):
    rng = np.random.default_rng(seed)
    a, b = (Const(Multivector(_arr(rng, (DIM,)) * sta.grade_mask(_grades(rng)))) for _ in "ab")
    folded = prod(a, b, kind)
    assert isinstance(folded, Const)
    pts = random_points(rng, 4)
    unfolded = Prod(a, b, kind).sample(pts)
    assert np.array_equal(folded.sample(pts), unfolded)
    if kind in TABLES:
        want = reference_prod(a.value.comps, b.value.comps, TABLES[kind])
    elif kind == "cross":
        want = reference_cross(a.value.comps, b.value.comps)
    else:
        want = np.zeros(DIM)
        want[0] = (a.value.comps * sta.SP_DIAG * b.value.comps).sum()
    assert np.array_equal(folded.value.comps, want)
    assert folded.is_zero == (not want.any())


def _dense_frame_sum(kind, terms, acc):
    for mu in range(4):
        acc += sta.PRODUCT_KERNELS[kind](GAMMA_UP_ARR[mu], terms[mu])
    return acc


@pytest.mark.parametrize("grades", GRADE_SETS, ids=lambda g: "".join(map(str, sorted(g))))
@pytest.mark.parametrize("kind", sorted(AGGREGATES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_frame_sum_equals_dense_kernel(kind, grades, seed):
    rng = np.random.default_rng(seed)
    mask = sta.grade_mask(grades)
    shape = (3, 2, DIM) if rng.integers(2) else (5, DIM)
    terms = [_arr(rng, shape) * mask for _ in range(4)]
    start = _arr(rng, shape)
    want = _dense_frame_sum(kind, terms, start.copy())
    got = sta._frame_sum(kind, grades, lambda mu, blades: terms[mu][..., blades], start.copy())
    assert np.array_equal(got, want)


# -- the lattice operators on 16-wide site arrays: np.tensordot stencils and
# sta._frame_sum, the oracle of lattice's compact frame sums


def _oracle_diff(lat, arr, axis, transpose=False):
    d = lattice.axis_derivative_matrix(lat.sites, lat.spacing[axis], lat.bc)
    out = np.tensordot(d.T if transpose else d, arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _oracle_adjoint_diff(lat, arr, axis):
    return _oracle_diff(lat, arr, axis, transpose=True)


def _oracle_dual_diff(lat, arr, axis):
    """Dhat = -D^T, which is D for the circulant periodic stencil."""
    if lat.bc == "periodic":
        return _oracle_diff(lat, arr, axis)
    return -_oracle_adjoint_diff(lat, arr, axis)


def _oracle_zero_boundary(lat, arr):
    if lat.bc == "dirichlet":
        arr = arr * lat.interior_mask()[..., None]
    return arr


def oracle_aggregate(lat, kind, comps, grades):
    """sum_mu g^mu * D_mu comps."""
    return sta._frame_sum(
        kind, grades, lambda mu, blades: _oracle_diff(lat, comps[..., blades], mu),
        np.zeros(comps.shape),
    )


def oracle_scatter(lat, kind, arr, arr_grades, acc, grades, stencil):
    """acc + sum_mu g^mu * stencil_mu arr on grades, 0 on the dirichlet shell."""
    sta._frame_sum(kind, arr_grades, lambda mu, blades: stencil(lat, arr[..., blades], mu), acc)
    return _oracle_zero_boundary(lat, acc * sta.grade_mask(grades))


def oracle_maxwell(lat, comps):
    curl = oracle_aggregate(lat, "op", comps, {1})
    return oracle_scatter(lat, "lc", curl, {2}, np.zeros(comps.shape), {1}, _oracle_dual_diff)


def oracle_dirichlet_potential(lat, jc, tol):
    """MINRES on the signed, masked 16-wide system, as solve_maxwell ran it:
    its vectors hold the four vector components of every site component-major,
    the order of the flattened compact (4, N, N, N, N) arrays."""
    vec, eps = sta.VECTOR_IDX, sta.SP_DIAG[sta.VECTOR_IDX]

    def widen(u):
        comps = np.zeros(lat.shape + (DIM,))
        comps[..., vec] = np.moveaxis(u.reshape((4,) + lat.shape), 0, -1)
        return comps

    def flatten(comps):
        return np.moveaxis(comps[..., vec] * eps, -1, 0).reshape(-1)

    def matvec(u):
        return flatten(oracle_maxwell(lat, _oracle_zero_boundary(lat, widen(u))))

    nvec = 4 * lat.n_sites
    b = flatten(_oracle_zero_boundary(lat, jc))
    linop = spla.LinearOperator((nvec, nvec), matvec=matvec)
    u, info = spla.minres(linop, b, rtol=min(tol, 1e-12), maxiter=40 * lat.sites**2)
    assert info == 0
    return _oracle_zero_boundary(lat, widen(u))


def _aggregate(lat, kind, comps, grades):
    """lattice's aggregate of the 16-wide comps, compacted first, on the blades
    of every grade, returned 16 wide."""
    arr = lattice._compact(comps, grades)
    return lattice._widen(lattice._aggregate(lat, kind, arr, grades, ALL_GRADES), ALL_GRADES)


def _scatter(lat, kind, arr, grades, acc, out_grades, transpose, sign):
    """lattice's compact frame sum of sign * arr on 16-wide operands, returned
    16 wide; negating arr is exact."""
    out = lattice._compact(acc, out_grades)
    lattice._frame_sum(
        kind, sign * lattice._compact(arr, grades), grades, out, out_grades,
        lattice._stencils(lat, transpose),
    )
    return lattice._widen(lattice._zero_boundary(lat, out), out_grades)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("kind", sorted(AGGREGATES))
def test_lattice_aggregates_equal_dense_kernel(kind, bc):
    lat = lattice.Lattice(np.zeros(4), np.array([1.0, 2.0, 1.5, 1.0]), 4, bc)
    rng = np.random.default_rng(91)
    for grades in GRADE_SETS:
        comps = _arr(rng, lat.shape + (DIM,)) * sta.grade_mask(grades)
        want = _dense_frame_sum(
            kind, [_oracle_diff(lat, comps, mu) for mu in range(4)], np.zeros(comps.shape)
        )
        assert np.array_equal(_aggregate(lat, kind, comps, grades), want)
        acc = _arr(rng, comps.shape)
        # g^mu * moves grade r to r - 1 and r + 1; keeping one side tests the mask
        out_grades = {r - 1 for r in grades if r > 0} or {1}
        want = _dense_frame_sum(
            kind, [_oracle_dual_diff(lat, comps, mu) for mu in range(4)], acc.copy()
        )
        want = _oracle_zero_boundary(lat, want * sta.grade_mask(out_grades))
        got = _scatter(lat, kind, comps, grades, acc, out_grades, True, -1.0)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("n", range(4, 9))
def test_compact_lattice_frame_sums_equal_the_16_wide_path(n, bc):
    """Forward, dual and transpose aggregates for every kind on grades {1}, {2}
    and all, and the Maxwell operator, bit for bit."""
    lat = lattice.Lattice(np.zeros(4), np.array([1.0, 2.0, 1.5, 2 * np.pi]), n, bc)
    rng = np.random.default_rng(n)
    for kind in sorted(AGGREGATES):
        for grades in (frozenset({1}), frozenset({2}), ALL_GRADES):
            comps = _arr(rng, lat.shape + (DIM,)) * sta.grade_mask(grades)
            got = _aggregate(lat, kind, comps, grades)
            assert np.array_equal(got, oracle_aggregate(lat, kind, comps, grades))
            acc = _arr(rng, comps.shape)
            out_grades = {r - 1 for r in grades if r > 0} | {4}
            dual = oracle_scatter(
                lat, kind, comps, grades, acc.copy(), out_grades, _oracle_dual_diff
            )
            got = _scatter(lat, kind, comps, grades, acc, out_grades, True, -1.0)
            assert np.array_equal(got, dual)
            adjoint = oracle_scatter(
                lat, kind, comps, grades, acc.copy(), out_grades, _oracle_adjoint_diff
            )
            got = _scatter(lat, kind, comps, grades, acc, out_grades, True, 1.0)
            assert np.array_equal(got, adjoint)
    a = _arr(rng, lat.shape + (DIM,)) * sta.grade_mask({1})
    assert np.array_equal(lattice.maxwell_operator(lat)(a), oracle_maxwell(lat, a))


def oracle_discrete_action(L, F):
    """The density over whole-lattice coordinates, F and aggregate, summed once."""
    dg = L.d_grades()
    d = lattice._widen(lattice._aggregate(F.lattice, L.mode.star, F._blades, F.grades, dg), dg)
    xs = F.lattice.coords().reshape(-1, 4)
    dens = L.density(F.comps.reshape(-1, DIM), d.reshape(-1, DIM), xs)
    return float(dens.sum() * F.lattice.cell_volume)


@pytest.mark.parametrize("n, block", [(9, None), (5, 64)], ids=["two-blocks", "block-64"])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_blocked_discrete_action_equals_the_whole_lattice_sum(bc, n, block):
    """Bit for bit, for a sourced maxwell_flat and for dirac_flat: at N=9 the
    6,561 sites take two blocks, and with the block cut to 64 rows the 625
    sites of N=5 end in a partial one."""
    rng = np.random.default_rng(n)
    lat = lattice.Lattice(np.zeros(4), np.array([1.0, 2.0, 1.5, 2 * np.pi]), n, bc)
    specs = [
        make_builtin("maxwell_flat", sources={"J": random_field(rng, {1})}),
        make_builtin("dirac_flat", sources={"A_ext": random_field(rng, {1})}),
    ]
    for L in specs:
        comps = rng.uniform(-1, 1, lat.shape + (DIM,)) * sta.grade_mask(L.field_grades)
        F = lattice.LatticeField(lat, L.field_grades, comps)
        with mock.patch.object(fields, "SAMPLE_BLOCK", block or fields.SAMPLE_BLOCK):
            got = lattice.discrete_action(L, F)
        assert got.hex() == oracle_discrete_action(L, F).hex()


def oracle_fft_solve(lat, rhs):
    """The periodic solve on whole arrays: rfftn and irfftn with fresh
    outputs, both block solutions formed everywhere and chosen by np.where.
    ``rhs`` and the result are site-major (N, N, N, N, 4)."""
    eta = sta.SP_DIAG[sta.VECTOR_IDX]
    axes = (0, 1, 2, 3)
    j = np.fft.rfftn(rhs, axes=axes)
    s = lattice._wavenumbers(lat)
    ss = (eta * s * s).sum(axis=-1, keepdims=True)
    s2 = (s * s).sum(axis=-1, keepdims=True)
    regular = np.abs(ss) > 1e-12 * s2
    ss = np.where(regular, ss, 0.0)
    s2_safe = np.where(s2 > 0.0, s2, 1.0)
    pj = (eta * s * j).sum(axis=-1, keepdims=True) / s2_safe
    a = np.where(regular, -(j - eta * s * pj) / np.where(regular, ss, 1.0), s * pj / s2_safe)
    resid = -ss * a + eta * s * (s * a).sum(axis=-1, keepdims=True) - j
    incompatible = np.linalg.norm(resid) / np.linalg.norm(j)
    if not incompatible <= 1e-9:
        raise ValueError(
            f"periodic solve needs a compatible current (relative residual "
            f"{incompatible:.3e} outside the operator's range)"
        )
    return np.fft.irfftn(a, s=lat.shape, axes=axes)


def _periodic_currents(lat):
    """Currents of the cos(x1) g2 potential and of two random potentials, compact."""
    astar = np.zeros(lat.shape + (DIM,))
    astar[..., 4] = np.cos(lat.coords()[..., 1])
    yield lattice._compact(lattice.maxwell_operator(lat)(astar), {1})
    rng = np.random.default_rng(lat.sites)
    for _ in range(2):
        astar = rng.standard_normal(lat.shape + (DIM,)) * sta.grade_mask({1})
        yield lattice._compact(lattice.maxwell_operator(lat)(astar), {1})


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_in_place_fft_solve_equals_the_whole_array_solve(n):
    """Bit for bit, signs of zeros included; odd N checks irfft's length."""
    for extent in (2 * np.pi * np.ones(4), np.array([1.0, 2.0, 1.5, 2 * np.pi])):
        lat = lattice.Lattice(np.zeros(4), extent, n, "periodic")
        for rhs in _periodic_currents(lat):
            got = lattice._fft_solve(lat, rhs)
            assert got.shape == (4,) + lat.shape and got.flags.c_contiguous
            want = oracle_fft_solve(lat, np.moveaxis(rhs, 0, -1))
            want = np.ascontiguousarray(np.moveaxis(want, -1, 0))
            assert got.tobytes() == want.tobytes()
        rhs = np.ones((4,) + lat.shape)  # a constant current is outside the range
        with pytest.raises(ValueError) as want:
            oracle_fft_solve(lat, np.moveaxis(rhs, 0, -1))
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            lattice._fft_solve(lat, rhs)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_dirichlet_potential_equals_the_16_wide_minres(n):
    lat = lattice.Lattice(np.zeros(4), np.ones(4), n, "dirichlet")
    xs = lat.coords()
    astar = np.zeros(lat.shape + (DIM,))
    astar[..., 4] = np.prod(np.sin(np.pi * xs), axis=-1) * lat.interior_mask()
    jc = oracle_maxwell(lat, astar)
    A = lattice.solve_maxwell(lat, lattice.LatticeField(lat, {1}, jc), tol=1e-8)
    assert np.array_equal(A.comps, oracle_dirichlet_potential(lat, jc, 1e-8))


# ---------------------------------------------------------------------------
# non-finite scalar factors on the fast paths
# ---------------------------------------------------------------------------


# scalar-grade factors that overflow at one coordinate x0 and are finite on the unit box
NONFINITE_FACTORS = {
    "recip": (lambda x0: ScalarMap(x0, "recip"), 0.0),
    "poly": (lambda x0: PolyMap(x0, [0.0, 0.0, 1e300]), 1e5),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("factor", sorted(NONFINITE_FACTORS))
def test_nonfinite_scalar_factor_fails_the_check(factor, side):
    build, bad_x0 = NONFINITE_FACTORS[factor]
    s = build(coordinate(GAMMA[0]))
    rng = np.random.default_rng(92)
    V = random_field(rng, {1})
    Y = random_field(rng, {0, 1, 2, 3, 4})
    X = prod(s, V, "gp") if side == "left" else prod(V, s, "gp")
    assert isinstance(X, Prod)
    pts = random_points(rng, 6)
    pts[2, 0] = bad_x0
    with np.errstate(all="ignore"):
        _check_fails_at(X, Y, pts, bad=2)


def _check_fails_at(X, Y, pts, bad):
    vals = X.sample(pts)
    assert not np.isfinite(vals[bad]).all()
    assert np.isfinite(np.delete(vals, bad, axis=0)).all()
    dense = reference_prod(X.left.sample(pts), X.right.sample(pts), sta._GP_TABLE)
    assert not np.isfinite(dense[bad]).all()
    L = make_builtin("maxwell_flat")
    for where in (pts, pts[bad]):  # a batch, and the bad point alone
        for kind in sorted(AGGREGATES):
            r = worst_of(0.0, check_identity_flat(X, Y, kind, where))
            assert not r <= 1e-9, (kind, r)
        res = ele_residual_flat(L, X, where)
        comps = res.comps if isinstance(res, Multivector) else res
        r = worst_of(0.0, float(np.abs(comps).max()))
        assert not r <= 1e-9, r
