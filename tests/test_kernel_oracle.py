"""The shape-dispatching product kernel against the dense-table reference.

``reference_prod`` is the kernel as it was before shape dispatch: it
broadcasts both operands to the full batch shape and forms one
multiplication matrix per row.  The kernel must give bit-identical results,
with the same shape, for every operand layout it dispatches on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiform import sta
from multiform.sta import DIM


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

