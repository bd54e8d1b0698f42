"""Tests for flux functions, the nonlocal operator and the operators built on it."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nldiff
from nldiff.errors import InvalidExponent, InvalidParameter, MissingValues, WeightOutOfRange
from nldiff.flux import (
    NonlocalOperator,
    custom_flux,
    divergence,
    neumann_n1,
    neumann_n2,
    p_laplacian_flux,
    pairing_identity,
    weighted_flux,
)
from nldiff.space import from_kernel_grid, from_weighted_graph, m_closure

RNG_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_space(rng, n, density=0.7):
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    for i in range(n - 1):
        if w[i].sum() == 0 or w[i + 1, i] == 0:
            w[i, i + 1] = w[i + 1, i] = max(w[i, i + 1], 0.5)
    if w[n - 1].sum() == 0:
        w[n - 1, n - 2] = w[n - 2, n - 1] = 0.5
    return from_weighted_graph(w)


TRIANGLE = from_weighted_graph(np.ones((3, 3)) - np.eye(3))
PATH3 = from_weighted_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


# -- flux constructors --------------------------------------------------------

def test_p_laplacian_values():
    flux = p_laplacian_flux(3.0)
    assert flux.evaluate(0, 1, 2.0) == pytest.approx(4.0)
    assert flux.evaluate(0, 1, -2.0) == pytest.approx(-4.0)
    assert p_laplacian_flux(1.5).evaluate(0, 0, 4.0) == pytest.approx(2.0)
    with pytest.raises(InvalidExponent):
        p_laplacian_flux(1.0)


def test_slope_is_floored_for_degenerate_p():
    flux = p_laplacian_flux(1.5)
    s = flux.slope(0, 1, 0.0)
    assert np.isfinite(s) and s > 0
    assert p_laplacian_flux(3.0).slope(0, 1, 2.0) == pytest.approx(4.0)


def test_weighted_flux_pair_average():
    flux = weighted_flux(2.0, [1.0, 2.0, 3.0])
    assert flux.evaluate(0, 2, 1.5) == pytest.approx(2.0 * 1.5)
    assert flux.c_p == 1.0 and flux.C_p == 3.0
    with pytest.raises(WeightOutOfRange):
        weighted_flux(2.0, [1.0, 0.0])
    with pytest.raises(WeightOutOfRange):
        weighted_flux(2.0, [1.0, -2.0])


def test_custom_flux_validation():
    good = custom_flux(2.0, lambda x, y, r: 2.0 * r, c_p=2.0, C_p=2.0)
    assert good.evaluate(0, 1, 3.0) == pytest.approx(6.0)
    with pytest.raises(InvalidParameter):
        custom_flux(2.0, lambda x, y, r: 2.0 * r + 1.0, c_p=1.0, C_p=3.0)
    with pytest.raises(InvalidParameter):
        custom_flux(2.0, lambda x, y, r: np.asarray(r) * 0.0, c_p=1.0, C_p=1.0)


# -- divergence ---------------------------------------------------------------

def test_divergence_triangle_frozen():
    u = np.array([0.0, 1.0, 2.0])
    div = divergence(TRIANGLE, p_laplacian_flux(3.0), u)
    assert np.allclose(div, [2.5, 0.0, -2.5])


def test_divergence_restricts_to_omega():
    u = np.array([0.0, 1.0, 2.0])
    div = divergence(TRIANGLE, p_laplacian_flux(3.0), u, Omega=[0, 1])
    # only the 0-1 interaction remains
    assert np.allclose(div, [0.5, -0.5])


def test_divergence_checks_input():
    with pytest.raises(MissingValues):
        divergence(TRIANGLE, p_laplacian_flux(2.0), np.ones(4))
    with pytest.raises(MissingValues):
        divergence(TRIANGLE, p_laplacian_flux(2.0), np.array([1.0, np.nan, 0.0]))


@settings(max_examples=50, deadline=None)
@given(seed=RNG_SEEDS, p=st.sampled_from([1.5, 2.0, 3.0]),
       c=st.floats(min_value=0.01, max_value=100.0))
def test_divergence_p_homogeneity(seed, p, c):
    rng = np.random.default_rng(seed)
    space = random_space(rng, 6)
    u = rng.standard_normal(6)
    flux = p_laplacian_flux(p)
    lhs = divergence(space, flux, c * u)
    rhs = c ** (p - 1.0) * divergence(space, flux, u)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12 * max(1.0, c ** (p - 1)))


@settings(max_examples=50, deadline=None)
@given(seed=RNG_SEEDS, p=st.sampled_from([1.5, 2.0, 2.7]))
def test_divergence_is_mass_neutral(seed, p):
    rng = np.random.default_rng(seed)
    space = random_space(rng, 7)
    size = int(rng.integers(2, 8))
    omega = space.node_set(rng.choice(7, size=size, replace=False))
    u = rng.standard_normal(7)
    div = divergence(space, p_laplacian_flux(p), u, Omega=omega)
    total = float((space.nu[omega] * div).sum())
    scale = float(np.abs(space.nu[omega] * div).sum()) + 1.0
    assert abs(total) <= 1e-12 * scale


# -- Neumann operators --------------------------------------------------------

def test_neumann_path_frozen():
    u = np.array([0.0, 1.0, 5.0])
    flux = p_laplacian_flux(2.0)
    n1 = neumann_n1(PATH3, flux, u, [0])
    n2 = neumann_n2(PATH3, flux, u, [0])
    assert np.allclose(n1, [0.5])
    assert np.allclose(n2, [0.5])


def test_neumann_operators_differ_on_boundary_edges():
    u = np.array([0.0, 1.0, 2.0])
    flux = p_laplacian_flux(2.0)
    n1 = neumann_n1(TRIANGLE, flux, u, [0])  # boundary {1, 2}
    n2 = neumann_n2(TRIANGLE, flux, u, [0])
    assert np.allclose(n1, [0.0, 1.5])
    assert np.allclose(n2, [0.5, 1.0])


def test_neumann_empty_boundary():
    flux = p_laplacian_flux(2.0)
    out = neumann_n1(TRIANGLE, flux, np.zeros(3), [0, 1, 2])
    assert out.size == 0


def test_constant_function_has_zero_flux():
    flux = p_laplacian_flux(2.5)
    u = np.full(3, 7.0)
    assert np.allclose(neumann_n1(PATH3, flux, u, [1]), 0.0)
    assert np.allclose(divergence(PATH3, flux, u), 0.0)


# -- summation by parts -------------------------------------------------------

def test_pairing_identity_two_node_square():
    space = from_weighted_graph([[0, 1], [1, 0]])
    u = np.array([0.25, 1.25])
    lhs, rhs = pairing_identity(space, p_laplacian_flux(2.0), u, u,
                                [0, 1], "Q1")
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_pairing_identity_constant_w_is_mass_neutrality():
    rng = np.random.default_rng(3)
    space = random_space(rng, 6)
    u = rng.standard_normal(6)
    omega = space.node_set(range(6))
    lhs, rhs = pairing_identity(space, p_laplacian_flux(3.0), u,
                                np.ones(6), omega, "Q1")
    assert rhs == 0.0
    assert lhs == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=RNG_SEEDS, p=st.sampled_from([1.5, 2.0, 3.0]),
       use_q2=st.booleans())
def test_pairing_identity_random(seed, p, use_q2):
    rng = np.random.default_rng(seed)
    space = random_space(rng, 7)
    size = int(rng.integers(2, 8))
    omega = space.node_set(rng.choice(7, size=size, replace=False))
    if use_q2 and omega.size >= 2:
        cut = int(rng.integers(1, omega.size))
        iset = ("Q2", omega[cut:])
    else:
        iset = "Q1"
    u = rng.standard_normal(7)
    w = rng.standard_normal(7)
    lhs, rhs = pairing_identity(space, p_laplacian_flux(p), u, w, omega, iset)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# -- the operator's Jacobian --------------------------------------------------

JACOBIAN_FLUXES = {
    "p1.5": p_laplacian_flux(1.5),
    "p2": p_laplacian_flux(2.0),
    "p3": p_laplacian_flux(3.0),
    "weighted": weighted_flux(2.5, np.resize([1.0, 2.0, 0.5, 1.5, 3.0, 1.0, 2.5], 36)),
    "custom": custom_flux(
        2.0,
        lambda x, y, r: (2.0 + np.sin(x + y)) * r + r ** 3 / (1.0 + r ** 2),
        c_p=1.0,
        C_p=4.0,
    ),
}


def grid_space(side):
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    return from_kernel_grid(points, 1.0, {"type": "indicator", "radius": 1.5})


@pytest.mark.parametrize("name", sorted(JACOBIAN_FLUXES))
@pytest.mark.parametrize(
    "block", ["Q1", "Q2", "closure", "grid-Q1", "grid-Q2", "grid-closure"]
)
def test_operator_jacobian_matches_finite_differences(name, block):
    rng = np.random.default_rng(11)
    # the random space's blocks are at least half full, the grid's are
    # sparse; both keep only their nonzero pairs
    grid, _, block = block.rpartition("-")
    space = grid_space(6) if grid else random_space(rng, 7)
    if block == "closure":
        rows = space.node_set(range(12) if grid else [1, 4])
        cols = m_closure(space, rows)
        assert cols.size > rows.size
        op = NonlocalOperator(space, JACOBIAN_FLUXES[name], rows, cols)
    else:
        rows = space.node_set(range(space.node_count))
        iset = "Q1" if block == "Q1" else ("Q2", space.node_set([0, 3, 5]))
        op = NonlocalOperator(space, JACOBIAN_FLUXES[name], rows, rows, iset)
    # node values at least 1e-3 apart, so the slope floor never applies
    u = rng.permutation(op.nodes.size) * 0.05 + rng.random(op.nodes.size) * 0.01
    h = 1e-6
    fd = np.empty((rows.size, rows.size))
    for k, pos in enumerate(np.searchsorted(op.nodes, rows)):
        step = np.zeros(op.nodes.size)
        step[pos] = h
        fd[:, k] = (op.apply(u + step) - op.apply(u - step)) / (2.0 * h)
    jac = op.jacobian(u)
    assert jac.shape == (rows.size, rows.size)
    assert np.allclose(jac, fd, rtol=1e-5, atol=1e-6 * float(np.max(np.abs(fd))))


# -- dependencies -------------------------------------------------------------

def test_importing_nldiff_loads_no_scipy():
    """nldiff runs on numpy alone.  Importing scipy.sparse.linalg raises the
    peak resident memory of a Python process by about 32 MB (scipy 1.17,
    x86-64), eight times the 10 % peak-memory bound of the 40 MB
    free-boundary benchmark workload, so the Newton linear solves, dense
    and matrix-free, are numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nldiff.__file__)))
    code = (
        "import sys, nldiff, nldiff.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
