"""Lattice discretization, duality, Gauss identity, and stationary solve."""

import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from multiform import fields, lattice, sta
from multiform.fields import (
    ZERO,
    Const,
    GradeError,
    ScalarMap,
    add,
    coordinate,
    position,
    prod,
    scalar_derivative_at_zero,
)
from multiform.sampling import random_field
from multiform.scenarios import ScenarioConfig, run_scenario
from multiform.lagrangian import DerivMode, LagrangianSpec, make_builtin
from multiform.lattice import (
    Lattice,
    LatticeField,
    _projected_operator,
    _wavenumbers,
    action_gradient,
    axis_derivative_matrix,
    discrete_action,
    discrete_ele_residual,
    discrete_gauss,
    discretize,
    export_field,
    load_field,
    maxwell_operator,
    solve_maxwell,
)
from multiform.sta import GAMMA, Multivector


def random_grade1_field(lat, rng, interior_only=False):
    comps = rng.uniform(-1, 1, lat.shape + (16,)) * sta.grade_mask({1})
    if interior_only:
        comps = comps * lat.interior_mask()[..., None]
    return LatticeField(lat, frozenset({1}), comps)


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(np.zeros(4), np.ones(4), 3)
    with pytest.raises(ValueError):
        Lattice(np.zeros(4), -np.ones(4), 6)
    with pytest.raises(ValueError):
        Lattice(np.zeros(4), np.ones(4), 6, bc="absorbing")
    with pytest.raises(ValueError):
        Lattice(np.array([0.0, np.nan, 0.0, 0.0]), np.ones(4), 6)
    with pytest.raises(ValueError):
        Lattice(np.zeros(4), np.array([1.0, np.inf, 1.0, 1.0]), 6)
    lat = Lattice(np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]), 8)
    assert np.allclose(lat.spacing, [0.125, 0.25, 0.375, 0.5])
    assert lat.cell_volume == pytest.approx(np.prod(lat.spacing))


@pytest.mark.parametrize("sites", [6.5, 6.0, np.float64(6.0), "6", True, None], ids=repr)
def test_lattice_refuses_a_site_count_that_is_not_an_integer(sites):
    with pytest.raises(ValueError, match="sites must be an integer"):
        Lattice(np.zeros(4), np.ones(4), sites)


def test_lattice_accepts_a_numpy_integer_site_count():
    lat = Lattice(np.zeros(4), np.ones(4), np.int64(6))
    assert type(lat.sites) is int
    assert lat == Lattice(np.zeros(4), np.ones(4), 6)
    assert lat.coords().shape == (6, 6, 6, 6, 4)


def test_lattice_equality_is_by_value():
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 4, "periodic")
    twin = Lattice([0.0] * 4, [2 * np.pi] * 4, 4, "periodic")
    assert lat == twin and twin is not lat and hash(lat) == hash(twin)
    assert lat != Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 4, "dirichlet")
    assert lat != Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 5, "periodic")
    assert lat != Lattice(np.ones(4), 2 * np.pi * np.ones(4), 4, "periodic")
    assert lat != "lattice"
    # a current on an equal but distinct lattice is accepted by the solver
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.cos(lat.coords()[..., 1])
    J = LatticeField(twin, frozenset({1}), maxwell_operator(twin)(astar))
    A = solve_maxwell(lat, J, tol=1e-8)
    assert np.linalg.norm(A.comps - astar) / np.linalg.norm(astar) <= 1e-6
    with pytest.raises(ValueError, match="different lattice"):
        solve_maxwell(Lattice(np.zeros(4), np.ones(4), 4, "periodic"), J)


def test_lattice_field_equality_is_by_value():
    lat = Lattice(np.zeros(4), np.ones(4), 4, "periodic")
    assert LatticeField.zeros(lat, {1}) == LatticeField.zeros(lat, {1})
    F = random_grade1_field(lat, np.random.default_rng(48))
    twin = Lattice([0.0] * 4, [1.0] * 4, 4, "periodic")
    assert F == LatticeField(twin, frozenset({1}), F.comps.copy())
    assert F != LatticeField.zeros(lat, {1})
    assert F != LatticeField(lat, frozenset({1, 2}), F.comps)
    assert F != LatticeField(Lattice(np.zeros(4), np.ones(4), 4, "dirichlet"), {1}, F.comps)
    assert F != "field" and F != None  # noqa: E711
    with pytest.raises(TypeError):
        hash(F)


def test_pair_refuses_a_field_on_another_lattice():
    """Fields pair on equal lattices only: with equal site counts the sum
    would be a number, and with unequal ones numpy's broadcast error."""
    lat = Lattice(np.zeros(4), np.ones(4), 4, "periodic")
    F = random_grade1_field(lat, np.random.default_rng(49))
    twin = Lattice([0.0] * 4, [1.0] * 4, 4, "periodic")
    assert F.pair(LatticeField(twin, {1}, F.comps)) == F.pair(F)
    for other in (
        Lattice(np.zeros(4), 2 * np.ones(4), 4, "dirichlet"),
        Lattice(np.zeros(4), np.ones(4), 5, "periodic"),
    ):
        rng = np.random.default_rng(50)
        for G in (LatticeField.zeros(other, {1}), random_grade1_field(other, rng)):
            with pytest.raises(ValueError, match="different lattices"):
                F.pair(G)
            with pytest.raises(ValueError, match="different lattices"):
                G.pair(F)


def test_lattice_field_stores_only_the_blades_of_its_grades():
    """A field holds one compact (n_blades, N, N, N, N) array.  Each read of
    comps is a new read-only 16-wide array, bit for bit the input times the
    grade mask, a 1e-14 off-grade value read as exact 0; pair keeps the bits
    of the 16-wide formula."""
    lat = Lattice(np.zeros(4), np.ones(4), 5, "periodic")
    rng = np.random.default_rng(61)
    grades = frozenset({1, 2})
    mask = sta.grade_mask(grades)
    given = np.where(mask == 1.0, rng.uniform(-1, 1, lat.shape + (16,)), 0.0)
    given[..., 0] = 1e-14
    F = LatticeField(lat, grades, given)
    assert F._blades.shape == (10,) + lat.shape and F._blades.flags.c_contiguous
    got = F.comps
    assert got.shape == lat.shape + (16,) and got.tobytes() == (given * mask).tobytes()
    assert not got.flags.writeable and not np.shares_memory(got, F.comps)
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0, 0, 0, 1] = 1.0
    with pytest.raises(AttributeError):
        F.comps = given * mask
    bad = given.copy()
    bad[1, 2, 3, 4, 0] = np.nan
    with pytest.raises(GradeError, match="nan"):
        LatticeField(lat, grades, bad)
    assert F == LatticeField(lat, grades, given * mask) == LatticeField(lat, grades, got)
    G = LatticeField(lat, grades, rng.uniform(-1, 1, lat.shape + (16,)) * mask)
    assert F.pair(G) == float(((given * mask) * sta.SP_DIAG * G.comps).sum())
    # a field on no grades stores no blade, and every operation reads it as 0
    E = LatticeField.zeros(lat, [])
    assert E._blades.shape == (0,) + lat.shape
    assert E == LatticeField(lat, [], np.zeros(lat.shape + (16,)))
    assert not discrete_ele_residual(make_builtin("maxwell_flat"), E).comps.any()
    assert discrete_gauss(E) == (0.0, 0.0) and E.pair(E) == 0.0


def test_discretize_constant_and_linear():
    lat = Lattice(np.zeros(4), np.ones(4), 4, bc="dirichlet")
    c = Multivector.vector([0.5, -0.2, 0.1, 0.9])
    F = discretize(Const(c), lat, {1})
    assert np.allclose(F.comps, c.comps)
    # the position field samples to an arithmetic progression per axis
    F = discretize(position(), lat, {1})
    col = F.comps[:, 0, 0, 0, 1]  # g0 component along axis 0
    assert np.allclose(np.diff(col), lat.spacing[0])
    # sampling reproduces the field at a site exactly
    xs = lat.coords()[2, 1, 3, 0]
    assert np.allclose(F.comps[2, 1, 3, 0], position().at(xs).comps)
    with pytest.raises(GradeError):
        discretize(position(), lat, {2})


def test_stencil_matrices_transpose_and_consistency():
    for bc in ("periodic", "dirichlet"):
        d = axis_derivative_matrix(8, 0.3, bc)
        # rows sum to zero: constants are annihilated
        assert np.abs(d.sum(axis=1)).max() <= 1e-13
        if bc == "periodic":
            assert np.allclose(d.T, -d)
    # second-order accuracy on a cubic polynomial (exact for central rows)
    n, h = 8, 0.25
    xs = (np.arange(n) + 0.5) * h
    vals = xs**2
    d = axis_derivative_matrix(n, h, "dirichlet")
    got = d @ vals
    assert np.allclose(got, 2 * xs, atol=1e-12)  # one-sided rows are 2nd order too


def test_discrete_action_values():
    L = make_builtin("maxwell_flat")
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, bc="periodic")
    assert discrete_action(L, LatticeField.zeros(lat, {1})) == 0.0
    const = LatticeField(
        lat, frozenset({1}), np.broadcast_to(GAMMA[2].comps, lat.shape + (16,)).copy()
    )
    assert abs(discrete_action(L, const)) <= 1e-14
    # sampled null plane wave: the density vanishes pointwise
    k = Multivector.vector([1.0, 1.0, 0.0, 0.0])
    wave = prod(Const(GAMMA[2]), ScalarMap(coordinate(k), "cos"), "gp")
    F = discretize(wave, lat, {1})
    assert abs(discrete_action(L, F)) <= 1e-10
    with pytest.raises(ValueError):
        discrete_action(make_builtin("maxwell_gauge"), F)


@pytest.mark.parametrize(
    "bc, name",
    [
        pytest.param("periodic", "maxwell_flat", id="periodic"),
        pytest.param("dirichlet", "maxwell_flat", id="dirichlet"),
        pytest.param("periodic", "dirac_flat", id="dirac_flat-periodic"),
        pytest.param("dirichlet", "dirac_flat", id="dirac_flat-dirichlet"),
    ],
)
def test_gradient_residual_duality(bc, name):
    rng = np.random.default_rng(0)
    L = make_builtin(name)
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, bc=bc)
    comps = rng.uniform(-1, 1, lat.shape + (16,)) * sta.grade_mask(L.field_grades)
    F = LatticeField(lat, L.field_grades, comps)
    grad = action_gradient(L, F)
    res = discrete_ele_residual(L, F)
    dev = np.abs(grad.comps - lat.cell_volume * res.comps)[lat.interior_mask()]
    assert dev.max() <= 1e-10
    if bc == "dirichlet":
        shell = ~lat.interior_mask()
        assert np.abs(grad.comps[shell]).max() == 0.0


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_action_gradient_matches_fd(bc):
    rng = np.random.default_rng(1)
    L = make_builtin(
        "maxwell_flat", sources={"J": Const(Multivector.vector([0.1, -0.2, 0.3, 0.05]))}
    )
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 5, bc=bc)
    F = random_grade1_field(lat, rng)
    delta = random_grade1_field(lat, rng, interior_only=(bc == "dirichlet"))
    grad = action_gradient(L, F)
    h = 1e-6
    sp_ = discrete_action(L, LatticeField(lat, frozenset({1}), F.comps + h * delta.comps))
    sm_ = discrete_action(L, LatticeField(lat, frozenset({1}), F.comps - h * delta.comps))
    fd = (sp_ - sm_) / (2 * h)
    assert abs(grad.pair(delta) - fd) <= 1e-6 * max(1.0, abs(fd))


_K = Multivector.vector([0.3, -0.2, 0.5, 0.1])


def _cubic_density(Ac, Fc, xs):
    sp = sta.sp
    return -0.5 * sp(Fc, Fc) * (1.0 + sp(Ac, _K.comps)) + sp(Ac, Ac) * sp(Ac, GAMMA[1].comps)


@pytest.mark.parametrize("bc, n", [("periodic", 4), ("dirichlet", 5)])
def test_generic_slot_gradients_are_degree_exact(bc, n):
    """A declared cubic density with no closed slot gradients: the per-blade
    slot gradients take the degree-exact stencil, so the gradient pairing
    equals the exact derivative of the cubic l -> action(F + l delta)."""
    L = LagrangianSpec("cubic_flat", DerivMode.FLAT_CURL, _cubic_density, {1}, poly_degree=3)
    rng = np.random.default_rng(6)
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, bc=bc)
    F = random_grade1_field(lat, rng)
    delta = random_grade1_field(lat, rng, interior_only=(bc == "dirichlet"))
    exact = scalar_derivative_at_zero(
        lambda lam: discrete_action(
            L, LatticeField(lat, frozenset({1}), F.comps + lam * delta.comps)
        ),
        poly_degree=3,
    )
    assert abs(action_gradient(L, F).pair(delta) - exact) <= 1e-12 * abs(exact)


def test_residual_zero_field_cases():
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, bc="periodic")
    L0 = make_builtin("maxwell_flat")
    res = discrete_ele_residual(L0, LatticeField.zeros(lat, {1}))
    assert np.abs(res.comps).max() == 0.0
    # uniform current: residual is exactly -J at every site
    Lj = make_builtin("maxwell_flat", sources={"J": Const(GAMMA[0])})
    res = discrete_ele_residual(Lj, LatticeField.zeros(lat, {1}))
    assert np.allclose(res.comps[..., 1], -1.0)
    other = [m for m in range(16) if m != 1]
    assert np.abs(res.comps[..., other]).max() == 0.0


def test_residual_convergence_order():
    def rms_residual(n):
        lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, bc="periodic")
        k1 = Multivector.vector([0.0, 1.0, 0.0, 0.0])
        cosfield = prod(Const(GAMMA[2]), ScalarMap(coordinate(k1), "cos"), "gp")
        L = make_builtin("maxwell_flat", sources={"J": cosfield})
        F = discretize(cosfield, lat, {1})
        resid = discrete_ele_residual(L, F).comps
        return float(np.linalg.norm(resid) / np.sqrt(lat.n_sites))

    r6, r12 = rms_residual(6), rms_residual(12)
    order = np.log(r6 / r12) / np.log(2.0)
    assert 1.8 <= order <= 2.2
    # halving the spacing shrinks the residual by roughly 4
    assert r6 / r12 == pytest.approx(4.0, rel=0.2)


def test_discrete_gauss_identity():
    rng = np.random.default_rng(2)
    for bc in ("periodic", "dirichlet"):
        lat = Lattice(np.zeros(4), 3.0 * np.ones(4), 7, bc=bc)
        v = random_grade1_field(lat, rng)
        vol, flux = discrete_gauss(v)
        assert abs(vol - flux) <= 1e-12
        if bc == "periodic":
            assert abs(flux) <= 1e-12  # no boundary on the torus
    with pytest.raises(GradeError):
        discrete_gauss(
            LatticeField(
                lat,
                frozenset({2}),
                rng.uniform(-1, 1, lat.shape + (16,)) * sta.grade_mask({2}),
            )
        )


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("n", [5, 6])
def test_maxwell_operator_is_the_flat_maxwell_residual(n, bc):
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, bc=bc)
    F = random_grade1_field(lat, np.random.default_rng(n))
    res = discrete_ele_residual(make_builtin("maxwell_flat"), F)
    assert np.array_equal(maxwell_operator(lat)(F.comps), res.comps)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_solver_system_is_symmetric(bc):
    """MINRES needs a symmetric system; on Dirichlet the input is masked like the output."""
    lat = Lattice(np.zeros(4), np.ones(4), 6, bc=bc)
    matvec = _projected_operator(lat)
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal((2, 4 * lat.n_sites))
    vau, uav = v @ matvec(u), u @ matvec(v)
    assert abs(vau - uav) / max(abs(vau), abs(uav)) <= 1e-12


def test_manufactured_solution_solve():
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 8, bc="periodic")
    xs = lat.coords()
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.cos(xs[..., 1])  # g2 cos(x1), spacelike, divergence free
    op = maxwell_operator(lat)
    jc = op(astar)
    J = LatticeField(lat, frozenset({1}), jc)
    A = solve_maxwell(lat, J, tol=1e-8)
    rel = np.linalg.norm(A.comps - astar) / np.linalg.norm(astar)
    assert rel <= 1e-6
    # the solution satisfies the discrete equation to the solver tolerance
    assert np.linalg.norm(op(A.comps) - jc) / np.linalg.norm(jc) <= 1e-8


def test_dirichlet_manufactured_solution_solve():
    """A nonzero current on a Dirichlet lattice: at N = 4 the current of a smooth
    potential that vanishes on the shell is solved, and the potential recovered."""
    lat = Lattice(np.zeros(4), np.ones(4), 4, bc="dirichlet")
    xs = lat.coords()
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.prod(np.sin(np.pi * xs), axis=-1) * lat.interior_mask()
    op = maxwell_operator(lat)
    jc = op(astar)
    A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), jc), tol=1e-8)
    assert np.linalg.norm(op(A.comps) - jc) / np.linalg.norm(jc) <= 1e-8
    assert np.all(A.comps[~lat.interior_mask()] == 0.0)
    assert np.linalg.norm(A.comps - astar) / np.linalg.norm(astar) <= 1e-10


def test_solution_is_stationary_point():
    """The solved potential zeroes the action gradient with the same source."""
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, bc="periodic")
    kap_eff = np.sin(lat.spacing[1]) / lat.spacing[1]
    k1 = Multivector.vector([0.0, 1.0, 0.0, 0.0])
    j_expr = prod(
        Const(kap_eff**2 * GAMMA[2]), ScalarMap(coordinate(k1), "cos"), "gp"
    )
    L = make_builtin("maxwell_flat", sources={"J": j_expr})
    J = discretize(j_expr, lat, {1})
    A = solve_maxwell(lat, J, tol=1e-10)
    grad = action_gradient(L, A)
    scale = max(1.0, float(np.abs(A.comps).max()))
    assert np.abs(grad.comps).max() <= 1e-6 * scale


def test_dense_cross_check_small_lattice():
    """Dense assembly at N = 4: symmetry of the system and lstsq agreement."""
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 4, bc="periodic")
    op = maxwell_operator(lat)
    nsite = lat.n_sites
    eps = sta.SP_DIAG[sta.VECTOR_IDX]

    def apply_flat(u):
        comps = np.zeros(lat.shape + (16,))
        comps[..., sta.VECTOR_IDX] = u.reshape(lat.shape + (4,))
        out = op(comps)[..., sta.VECTOR_IDX] * eps
        return out.reshape(-1)

    n = 4 * nsite
    dense = np.empty((n, n))
    probe = np.zeros(n)
    for j in range(n):
        probe[:] = 0.0
        probe[j] = 1.0
        dense[:, j] = apply_flat(probe)
    assert np.abs(dense - dense.T).max() <= 1e-12

    xs = lat.coords()
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.cos(xs[..., 1])
    jc = op(astar)
    b = (jc[..., sta.VECTOR_IDX] * eps).reshape(-1)
    u, *_ = np.linalg.lstsq(dense, b, rcond=None)
    A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), jc), tol=1e-9)
    u_fft = (A.comps[..., sta.VECTOR_IDX]).reshape(-1)
    # both solve the same singular system; compare through the operator image
    assert np.abs(dense @ u - dense @ u_fft).max() <= 1e-8
    # and both return its minimum-norm solution
    assert np.abs(u - u_fft).max() <= 1e-10 * np.abs(u).max()


def test_solver_guards():
    lat = Lattice(np.zeros(4), np.ones(4), 6, bc="dirichlet")
    A0 = solve_maxwell(lat, LatticeField.zeros(lat, {1}))
    assert np.abs(A0.comps).max() == 0.0
    # incompatible periodic current is rejected
    latp = Lattice(np.zeros(4), np.ones(4), 4, bc="periodic")
    bad = LatticeField(
        latp,
        frozenset({1}),
        np.broadcast_to(GAMMA[0].comps, latp.shape + (16,)).copy(),
    )
    with pytest.raises(ValueError):
        solve_maxwell(latp, bad)
    rng = np.random.default_rng(3)
    with pytest.raises(GradeError):
        solve_maxwell(
            latp,
            LatticeField(
                latp,
                frozenset({2}),
                rng.uniform(-1, 1, latp.shape + (16,)) * sta.grade_mask({2}),
            ),
        )


def _random_potential_current(lat, seed):
    """A normal draw per vector component (zero on a Dirichlet shell) and its current."""
    astar = np.zeros(lat.shape + (16,))
    draw = np.random.default_rng(seed).standard_normal(lat.shape + (4,))
    astar[..., sta.VECTOR_IDX] = draw * lat.interior_mask()[..., None]
    return astar, maxwell_operator(lat)(astar)


@pytest.mark.parametrize("n", [5, 8])
def test_fft_symbol_matches_the_operator_on_plane_waves(n):
    """Each wavevector's block -(s.s) I + eta s s^T, with s from the solver's
    wavenumbers, is what maxwell_operator does to that plane wave."""
    lat = Lattice(np.zeros(4), np.array([1.0, 2.0, 3.0, 2 * np.pi]), n, "periodic")
    op = maxwell_operator(lat)
    eta = sta.SP_DIAG[sta.VECTOR_IDX]
    svec = _wavenumbers(lat)
    assert svec.shape == (n, n, n, n // 2 + 1, 4)
    rng = np.random.default_rng(n)
    waves = [(0, 0, 0, 0), (n // 2, 0, 0, n // 2)]
    waves += [tuple(rng.integers(0, n, 3)) + (int(rng.integers(0, n // 2 + 1)),) for _ in range(4)]
    xs = lat.coords()
    scale = np.max(1.0 / lat.spacing) ** 2  # the size of the operator's entries
    for m in waves:
        s = svec[m]
        ss = (eta * s * s).sum()
        block = -ss * np.eye(4) + np.outer(eta * s, s)
        phase = np.exp(2j * np.pi * (xs - lat.origin) @ (np.array(m) / lat.extent))
        for nu in range(4):
            parts = []
            for wave in (phase.real, phase.imag):
                comps = np.zeros(lat.shape + (16,))
                comps[..., sta.VECTOR_IDX[nu]] = wave
                parts.append(op(comps)[..., sta.VECTOR_IDX])
            got = parts[0] + 1j * parts[1]
            want = block[:, nu] * phase[..., None]
            assert np.abs(got - want).max() <= 1e-13 * scale


def test_fft_potential_is_the_minres_minimum_norm_solution():
    """MINRES from zero on the signed system stays in the operator's range, so it
    returns the minimum-norm potential; the FFT solve returns the same one."""
    import scipy.sparse.linalg as spla

    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 8, "periodic")
    astar, jc = _random_potential_current(lat, 8)
    op = maxwell_operator(lat)
    eta = sta.SP_DIAG[sta.VECTOR_IDX]

    def matvec(u):
        comps = np.zeros(lat.shape + (16,))
        comps[..., sta.VECTOR_IDX] = u.reshape(lat.shape + (4,))
        return (op(comps)[..., sta.VECTOR_IDX] * eta).reshape(-1)

    nvec = 4 * lat.n_sites
    b = (jc[..., sta.VECTOR_IDX] * eta).reshape(-1)
    u, info = spla.minres(spla.LinearOperator((nvec, nvec), matvec=matvec), b, rtol=1e-12)
    assert info == 0
    A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), jc), tol=1e-8)
    got = A.comps[..., sta.VECTOR_IDX].reshape(-1)
    assert np.linalg.norm(got - u) <= 1e-9 * np.linalg.norm(u)
    # a pure-gauge part was dropped: the random potential is not minimum-norm
    assert np.linalg.norm(got) < np.linalg.norm(astar)


def test_random_potential_current_certifies_at_n16():
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 16, "periodic")
    _, jc = _random_potential_current(lat, 16)
    A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), jc), tol=1e-8)
    op = maxwell_operator(lat)
    assert np.linalg.norm(op(A.comps) - jc) <= 1e-12 * np.linalg.norm(jc)


def test_one_mode_potential_at_n16_is_exact():
    """N = 16 has null blocks (s.s = 0, s != 0); treating them as exactly rank one
    keeps FFT rounding out of the operator's lightlike kernel modes."""
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 16, "periodic")
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.cos(lat.coords()[..., 1])
    jc = maxwell_operator(lat)(astar)
    A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), jc), tol=1e-8)
    assert np.linalg.norm(A.comps - astar) <= 1e-12 * np.linalg.norm(astar)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_current_is_refused_before_solving(bc, bad, monkeypatch):
    lat = Lattice(np.zeros(4), np.ones(4), 4, bc)
    comps = np.zeros(lat.shape + (16,))
    comps[1, 2, 1, 2, 2] = bad
    J = LatticeField(lat, frozenset({1}), comps)

    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran on a non-finite current")

    monkeypatch.setattr(lattice.np.fft, "rfftn", refuse)
    # solve_maxwell imports scipy.sparse.linalg in its Dirichlet branch and
    # looks minres up on the module there, so this patch reaches it
    monkeypatch.setattr("scipy.sparse.linalg.minres", refuse)
    with pytest.raises(ValueError, match="non-finite"):
        solve_maxwell(lat, J)


def _smooth_current(lat):
    """The current of a smooth potential (zero on a Dirichlet shell)."""
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.prod(np.sin(np.pi * lat.coords()), axis=-1) * lat.interior_mask()
    return LatticeField(lat, frozenset({1}), maxwell_operator(lat)(astar))


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": np.nan},
        {"tol": np.inf},
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": True},
        {"tol": "1e-8"},
        {"tol": None},
        {"maxiter": 0},
        {"maxiter": -3},
        {"maxiter": True},
        {"maxiter": 2.0},
        {"maxiter": "10"},
    ],
    ids=repr,
)
def test_solver_arguments_are_checked_before_any_work(bc, kwargs, monkeypatch):
    lat = Lattice(np.zeros(4), np.ones(4), 5, bc)
    J = _smooth_current(lat)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_maxwell worked before checking its arguments")

    monkeypatch.setattr(lattice, "_zero_boundary", refuse)
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        solve_maxwell(lat, J, **kwargs)


def test_maxiter_bounds_the_minres_iterations():
    """One iteration does not reach the certificate; an integer maxiter is taken
    as given, numpy integers included, and None means 40 N^2."""
    lat = Lattice(np.zeros(4), np.ones(4), 5, bc="dirichlet")
    J = _smooth_current(lat)
    with pytest.raises(lattice.SolverError, match="did not converge"):
        solve_maxwell(lat, J, maxiter=1)
    A = solve_maxwell(lat, J, maxiter=np.int64(40 * 5**2))
    assert A == solve_maxwell(lat, J, maxiter=None)


_COLD_START = """
import sys

import numpy as np

import multiform
from multiform import cli
from multiform.lattice import Lattice, LatticeField, maxwell_operator, solve_maxwell

assert "scipy" not in sys.modules, "import multiform loaded scipy"
assert cli.main(["verify", "lattice-maxwell", "--json"]) == 0
assert "scipy" not in sys.modules, "the lattice-maxwell scenario loaded scipy"
lat = Lattice(np.zeros(4), np.ones(4), 5, bc="dirichlet")
astar = np.zeros(lat.shape + (16,))
astar[..., 4] = np.prod(np.sin(np.pi * lat.coords()), axis=-1) * lat.interior_mask()
A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), maxwell_operator(lat)(astar)), tol=1e-8)
assert "scipy.sparse.linalg" in sys.modules, "a Dirichlet solve ran without MINRES"
np.save(sys.argv[1], A.comps)
"""


def test_scipy_is_loaded_only_by_a_dirichlet_solve(tmp_path):
    """In a fresh interpreter (this one has scipy loaded already), importing
    multiform and running lattice-maxwell leave scipy unloaded; a Dirichlet
    solve with a nonzero current loads it, certifies at tol 1e-8 and returns
    the potential this process computes for the same current."""
    import multiform

    src = os.path.dirname(os.path.dirname(os.path.abspath(multiform.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = tmp_path / "potential.npy"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lat = Lattice(np.zeros(4), np.ones(4), 5, bc="dirichlet")
    J = _smooth_current(lat)
    assert np.array_equal(np.load(out), solve_maxwell(lat, J, tol=1e-8).comps)


@pytest.mark.parametrize(
    "n, kind", [(6, "smooth"), (5, "random")]
)
def test_dirichlet_solve_certifies(n, kind):
    """MINRES at rtol 1e-12 certifies these at tol 1e-8; at 1e-9 the certificate refused them."""
    lat = Lattice(np.zeros(4), np.ones(4), n, bc="dirichlet")
    if kind == "smooth":
        jc = _smooth_current(lat).comps
    else:
        _, jc = _random_potential_current(lat, n)
    A = solve_maxwell(lat, LatticeField(lat, frozenset({1}), jc), tol=1e-8)
    op = maxwell_operator(lat)
    assert np.linalg.norm(op(A.comps) - jc) <= 1e-8 * np.linalg.norm(jc)
    assert np.all(A.comps[~lat.interior_mask()] == 0.0)


def test_export_and_load_roundtrip(tmp_path):
    lat = Lattice(np.zeros(4), np.array([1.0, 2.0, 1.5, 3.0]), 4, bc="dirichlet")
    rng = np.random.default_rng(4)
    F = random_grade1_field(lat, rng)
    base = os.path.join(tmp_path, "field")
    bin_path, txt_path = export_field(F, base)
    # header carries the geometry and the component layout
    with open(txt_path) as fh:
        header = fh.read()
    assert "sites: 4 4 4 4" in header
    assert "blades: 1 2 4 8" in header
    assert "grades: 1" in header
    assert "bc: dirichlet" in header
    assert "little-endian" in header
    # raw bytes: little-endian float64, site-major with components innermost
    raw = np.fromfile(bin_path, dtype="<f8")
    assert raw.size == lat.n_sites * 4
    assert raw[0] == F.comps[0, 0, 0, 0, 1]
    assert raw[1] == F.comps[0, 0, 0, 0, 2]
    assert raw[4] == F.comps[0, 0, 0, 1, 1]
    back = load_field(base)
    assert np.array_equal(back.comps, F.comps)
    assert back.lattice.bc == lat.bc
    assert np.allclose(back.lattice.extent, lat.extent)


@pytest.mark.parametrize(
    "line, new_line, drop, match",
    [
        (None, None, 1, "holds 1023 floats"),
        ("sites: 4 4 4 4", "sites: 4 4 4 5", 0, "sites must be one integer"),
        ("spacing: 0.25 ", "spacing: 0.5 ", 0, "spacing .* differs from extent / sites"),
        ("", "", 0, "not a lattice field header"),
        ("bc: dirichlet\n", "", 0, "sidecar lacks bc"),
        ("grades: 1\n", "", 0, "sidecar lacks grades"),
        ("blades: 1 2 4 8", "blades: 1 2 4 16", 0, "blades .* are not the masks of grades"),
        ("grades: 1", "grades: 2", 0, "blades .* are not the masks of grades"),
    ],
    ids=[
        "bin-size",
        "unequal-sites",
        "spacing",
        "empty-sidecar",
        "missing-bc",
        "missing-grades",
        "blade-mask-16",
        "grades-contradict-blades",
    ],
)
def test_load_field_rejects_malformed_pair(tmp_path, line, new_line, drop, match):
    lat = Lattice(np.zeros(4), np.array([1.0, 2.0, 1.5, 3.0]), 4, bc="dirichlet")
    base = os.path.join(tmp_path, "field")
    bin_path, txt_path = export_field(random_grade1_field(lat, np.random.default_rng(5)), base)
    if drop:
        np.fromfile(bin_path, dtype="<f8")[:-drop].tofile(bin_path)
    if line is not None:
        with open(txt_path) as fh:
            header = fh.read()
        assert line in header
        with open(txt_path, "w") as fh:  # an empty line stands for the whole sidecar
            fh.write(header.replace(line, new_line) if line else new_line)
    with pytest.raises(ValueError, match=match):
        load_field(base)


def test_lattice_field_grade_guard():
    lat = Lattice(np.zeros(4), np.ones(4), 4)
    bad = np.ones(lat.shape + (16,))
    with pytest.raises(GradeError):
        LatticeField(lat, frozenset({1}), bad)


def test_lattice_operations_refuse_grades_outside_the_lagrangian():
    """A {1, 2} field under maxwell_flat would enter the action but not its gradient."""
    L = make_builtin("maxwell_flat")
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 4, bc="periodic")
    comps = np.random.default_rng(9).uniform(-1, 1, lat.shape + (16,))
    F = LatticeField(lat, frozenset({1, 2}), comps * sta.grade_mask({1, 2}))
    for op in (discrete_action, action_gradient, discrete_ele_residual):
        with pytest.raises(GradeError, match=r"\[1, 2\] outside \[1\]"):
            op(L, F)


def test_grade_guards_reject_nan_outside_the_grades():
    """NaN > 1e-12 is False, and a mask keeps a NaN (NaN * 0 is NaN)."""
    lat = Lattice(np.zeros(4), np.ones(4), 4)
    for value in (5.0, np.inf, np.nan):
        bad = np.zeros(lat.shape + (16,))
        bad[1, 2, 3, 0, 0] = value
        with pytest.raises(GradeError):
            LatticeField(lat, frozenset({1}), bad)
        # inside the declared grades the value is kept as given
        inside = np.zeros(lat.shape + (16,))
        inside[1, 2, 3, 0, 1] = value
        kept = LatticeField(lat, frozenset({1}), inside).comps
        assert np.array_equal(kept, inside, equal_nan=True)
    nan_scalar = add(Const(Multivector.scalar(np.nan)), position())
    with pytest.raises(GradeError):
        discretize(nan_scalar, lat, {1})


def test_discretize_holds_one_compact_array(monkeypatch):
    """discretize samples SAMPLE_BLOCK sites at a time and writes their blades
    into the one compact array the field holds; the field equals the public
    constructor's, and the grade guard reports the largest component outside
    the grades over the whole lattice."""
    rows = []
    sample = fields.FieldExpr.sample

    def recording_sample(expr, xs):
        rows.append(len(xs))
        return sample(expr, xs)

    monkeypatch.setattr(fields.FieldExpr, "sample", recording_sample)
    # a scalar far below the guard's 1e-12 is dropped
    wave = add(
        prod(Const(GAMMA[2]), ScalarMap(coordinate(GAMMA[1]), "cos"), "gp"),
        Const(Multivector.scalar(1e-14)),
    )
    for n in (9, 8):  # 6561 sites in two blocks, 4096 in one
        lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, "periodic")
        rows.clear()
        F = discretize(wave, lat, {1})
        assert max(rows) <= fields.SAMPLE_BLOCK and sum(rows) == lat.n_sites
        assert F._blades.shape == (4,) + lat.shape and F._blades.flags.c_contiguous
        want = LatticeField(lat, frozenset({1}), sample(wave, lat.coords().reshape(-1, 4)))
        assert F == want and not np.any(F.comps[..., 0])
        # the scalar x^0 is largest at the last site, in the last block
        largest = float(lat.coords()[..., 0].max())
        with pytest.raises(GradeError, match=re.escape(f"size {largest:.3e} outside")):
            discretize(add(coordinate(GAMMA[0]), position()), lat, {1})
        nan_scalar = add(Const(Multivector.scalar(np.nan)), position())
        with pytest.raises(GradeError):
            discretize(nan_scalar, lat, {1})


@pytest.mark.parametrize("with_j", [False, True], ids=["no-source", "source"])
@pytest.mark.parametrize("bc, n", [("periodic", 4), ("dirichlet", 6), ("periodic", 6)])
def test_maxwell_slot_gradients_are_the_closed_form(bc, n, with_j):
    """The spec's trees, evaluated on the site leaves, give -<J>_1 and -d bit for
    bit, as compact arrays on the field's and the aggregate's blades."""
    rng = np.random.default_rng(7)
    J = random_field(rng, {1}) if with_j else ZERO
    L = make_builtin("maxwell_flat", sources={"J": J})
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, bc=bc)
    F = random_grade1_field(lat, rng)
    d = lattice._aggregate(lat, "op", F._blades, F.grades, L.d_grades())
    gx, gd = lattice._slot_gradients(L, F)
    xs = lat.coords().reshape(-1, 4)
    want_x = -sta.restrict(J.sample(xs), {1}).reshape(F.comps.shape)
    assert np.array_equal(gx, lattice._compact(want_x, L.field_grades))
    assert np.array_equal(gd, -d)


@pytest.mark.parametrize("bc, n", [("periodic", 4), ("dirichlet", 5)])
def test_dirac_closed_slot_gradients_match_the_blade_stencils(bc, n):
    params = {"m": 1.3, "hbar": 0.7, "c": 1.1, "e": 0.8}
    rng = np.random.default_rng(8)
    L = make_builtin("dirac_flat", params=params, sources={"A_ext": random_field(rng, {1})})
    generic = dataclasses.replace(L, grad_x=None, grad_d=None)
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, bc=bc)
    comps = rng.uniform(-1, 1, lat.shape + (16,)) * sta.grade_mask(L.field_grades)
    F = LatticeField(lat, L.field_grades, comps)
    for closed, blades in zip(lattice._slot_gradients(L, F), lattice._slot_gradients(generic, F)):
        assert np.abs(closed - blades).max() <= 1e-13 * max(1.0, np.abs(blades).max())
    for op in (action_gradient, discrete_ele_residual):
        want = op(generic, F).comps
        assert np.abs(op(L, F).comps - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    # the leaves carry the grades their arrays really have
    seen = []

    def grad_x(Xe, de):
        seen.append((Xe.grades, de.grades))
        return L.grad_x(Xe, de)

    lattice._slot_gradients(dataclasses.replace(L, grad_x=grad_x), F)
    assert seen == [({0, 2, 4}, {1, 3})]


def _traced_peak_mib(run) -> float:
    """The tracemalloc peak of ``run()`` above what was traced before it, in MiB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


# a 16-wide N=16 field is 8 MiB and its grade-1 blades 2 MiB; 21.5 MiB is
# about 3% over the 20.9 MiB read at seed 1 with the FFT passes in place and
# at most two 16-wide arrays alive at once (20.1 MiB after the scenario bound
# tests, as CI runs it), and under the 22.9 MiB (22.1 MiB) before
LATTICE_N16_PEAK_BOUND_MIB = 21.5


@pytest.mark.filterwarnings("default:tracemalloc peak")
def test_lattice_maxwell_at_n16_peaks_below_five_wide_fields():
    """Below five 16-wide N=16 fields (40 MiB), and below 21.5 MiB: each
    field stores its blades only, the scenario forms its check differences in
    place and holds at most two 16-wide arrays at once (it peaked at 50.6 MiB
    with a 16-wide copy per field and a fresh array per difference)."""
    def run():
        assert run_scenario(ScenarioConfig("lattice-maxwell", seed=1, lattice_n=16)).passed

    peak = _traced_peak_mib(run)
    bound = LATTICE_N16_PEAK_BOUND_MIB
    warnings.warn(f"tracemalloc peak of lattice-maxwell at N=16: {peak:.1f} MiB (bound {bound} MiB)")
    assert peak <= bound


# one complex (N, N, N, N // 2 + 1, 4) FFT buffer is 2.25 MiB at N=16 and a
# compact grade-1 array 2 MiB; 11 MiB is 10% over the 10.0 MiB read with the
# FFT passes in place (the certificate's operator application sets it), and
# under the 13.8 MiB of the whole-array solve
PERIODIC_SOLVE_N16_PEAK_BOUND_MIB = 11.0


@pytest.mark.filterwarnings("default:tracemalloc peak")
def test_periodic_solve_at_n16_peaks_below_the_whole_array_solve():
    """One periodic N=16 solve of the manufactured cos(x1) g2 current,
    certificate included, stays below 11 MiB."""
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 16, "periodic")
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.cos(lat.coords()[..., 1])
    J = LatticeField(lat, frozenset({1}), maxwell_operator(lat)(astar))
    del astar
    peak = _traced_peak_mib(lambda: solve_maxwell(lat, J, tol=1e-8))
    bound = PERIODIC_SOLVE_N16_PEAK_BOUND_MIB
    warnings.warn(f"tracemalloc peak of a periodic solve at N=16: {peak:.1f} MiB (bound {bound} MiB)")
    assert peak <= bound


# one operator application at N=16 holds its 2 MiB grade-1 result, the 3 MiB
# curl and at most two 0.5 MiB stencilled blades: 6.0 MiB.  7.0 MiB is under
# the 8.0 MiB read when every blade of each operand was stencilled per axis
MAXWELL_N16_PEAK_BOUND_MIB = 7.0


@pytest.mark.filterwarnings("default:tracemalloc peak")
def test_maxwell_operator_at_n16_peaks_below_whole_operand_stencils():
    """One compact div(curl(.)) application to a random N=16 potential
    stencils only the blades its frame sums read, and stays below 7 MiB."""
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 16, "periodic")
    a = np.random.default_rng(16).standard_normal((4,) + lat.shape)
    peak = _traced_peak_mib(lambda: lattice._maxwell(lat, a))
    bound = MAXWELL_N16_PEAK_BOUND_MIB
    warnings.warn(f"tracemalloc peak of one maxwell operator at N=16: {peak:.1f} MiB (bound {bound} MiB)")
    assert peak <= bound


# the density is taken a block of sites at a time: the 4 MiB compact aggregate,
# one block's 16-wide F and aggregate and the products the density forms on
# them.  18.0 MiB is about 20% over the 14.9 MiB read, and under the 170.6 MiB
# of a density over whole-lattice coordinates, F and aggregate
DIRAC_ACTION_N16_PEAK_BOUND_MIB = 18.0


@pytest.mark.filterwarnings("default:tracemalloc peak")
def test_dirac_discrete_action_at_n16_peaks_below_whole_lattice_arrays():
    """discrete_action of a random even-grade field on an N=16 lattice under
    dirac_flat stays below 18 MiB."""
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 16, "periodic")
    L = make_builtin("dirac_flat")
    comps = np.random.default_rng(16).uniform(-1, 1, lat.shape + (16,))
    F = LatticeField(lat, L.field_grades, comps * sta.grade_mask(L.field_grades))
    del comps
    peak = _traced_peak_mib(lambda: discrete_action(L, F))
    bound = DIRAC_ACTION_N16_PEAK_BOUND_MIB
    warnings.warn(f"tracemalloc peak of a dirac discrete_action at N=16: {peak:.1f} MiB (bound {bound} MiB)")
    assert peak <= bound


def _sourced_residual_on_12_sites(evaluated):
    """The source tree of a sourced discrete_ele_residual on a 12^4 lattice
    (20,736 sites), after the residual ran; ``evaluated`` holds what it evaluated."""
    lat = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 12, "periodic")
    j_expr = prod(Const(GAMMA[2]), ScalarMap(coordinate(GAMMA[1]), "cos"), "gp")
    L = make_builtin("maxwell_flat", sources={"J": j_expr})
    F = discretize(j_expr, lat, {1})
    evaluated.clear()
    discrete_ele_residual(L, F)
    return j_expr


def test_lattice_slot_gradients_keep_the_sample_block_bound(evaluated):
    """No node evaluated for the slot gradients of a sourced residual, the
    source tree and the shared position leaf included, keeps a value of more
    than SAMPLE_BLOCK rows."""
    _sourced_residual_on_12_sites(evaluated)
    assert any(node is position() for node in evaluated)
    rows = [len(node._value[1]) for node in evaluated if node._value and node._value[0]]
    assert rows and max(rows) <= fields.SAMPLE_BLOCK


def test_sourced_residual_leaves_no_value_in_the_source_tree(evaluated):
    """The slot-gradient trees are built anew per block on the source tree,
    which is not kept: after the residual, no node of it but a constant or
    the position leaf holds a value."""
    j_expr = _sourced_residual_on_12_sites(evaluated)
    nodes, stack = [], [j_expr]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node._kids)
    assert position() in nodes and j_expr in evaluated
    held = [node for node in nodes if node._value is not None and node._value[0] is not None]
    assert all(isinstance(node, (Const, fields.Position)) for node in held)


def test_returned_fields_equal_the_public_constructor_and_own_their_arrays():
    """solve_maxwell (both boundary conditions), action_gradient and
    discrete_ele_residual build their field from the compact result, with no
    copy and no grade check: it is the field the public constructor makes,
    and its stored array shares memory with none of its inputs' nor with
    another returned field's."""
    rng = np.random.default_rng(23)
    periodic = Lattice(np.zeros(4), 2 * np.pi * np.ones(4), 6, "periodic")
    L = make_builtin("maxwell_flat", sources={"J": random_field(rng, {1})})
    F = random_grade1_field(periodic, rng)
    cases = [(op(L, F), (F._blades,)) for op in (action_gradient, discrete_ele_residual)]
    for lat in (periodic, Lattice(np.zeros(4), np.ones(4), 5, "dirichlet")):
        J = _smooth_current(lat)
        cases.append((solve_maxwell(lat, J), (J._blades,)))
    for G, inputs in cases:
        assert G == LatticeField(G.lattice, G.grades, G.comps.copy())
        assert not any(np.shares_memory(G._blades, arr) for arr in inputs)
    for i, (G, _) in enumerate(cases):
        assert not any(np.shares_memory(G._blades, H._blades) for H, _ in cases[i + 1 :])
    zero = LatticeField.zeros(periodic, [2])
    assert zero == LatticeField(periodic, frozenset({2}), np.zeros(periodic.shape + (16,)))
