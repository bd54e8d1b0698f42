"""Tests for the stationary inclusion solver and its reports."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    U_UNIQUE_GRAPHS,
    evolution_instance,
    forward_instance,
    phi_for_target,
    random_space,
    scaled_instance,
    sibling_phi,
    target_pair,
)
from nldiff import space as space_module
from nldiff import evolution as evolution_module
from nldiff import stationary
from nldiff.errors import NotConnected, RangeInfeasible, SolverDiverged
from nldiff.evolution import dtn_apply, mild_solve
from nldiff.flux import LerayLionsFlux, NonlocalOperator, p_laplacian_flux
from nldiff.monotone import (
    make_hele_shaw,
    make_identity,
    make_obstacle,
    make_power,
    make_stefan,
)
from nldiff.space import (
    DomainPartition,
    estimate_poincare_constant,
    from_kernel_grid,
    from_weighted_graph,
)
from nldiff.stationary import (
    DEFAULT_TOL,
    _resolvent_system,
    StationaryProblem,
    check_range,
    contraction_gap,
    energy_report,
    solve_approximate,
    solve_gp,
    verify_solution,
)

TWO_NODE = from_weighted_graph([[0, 1], [1, 0]])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def two_node_problem(gamma=None, beta=None, phi=(1.0, 0.0), lam=1.0, p=2.0):
    return StationaryProblem(
        space=TWO_NODE,
        partition=DomainPartition([0], [1]),
        flux=p_laplacian_flux(p),
        gamma=gamma or make_identity(),
        beta=beta or make_identity(),
        phi=np.asarray(phi, dtype=float),
        lambda_scale=lam,
    )


# -- frozen solves ------------------------------------------------------------

def test_two_node_identity_frozen():
    pair = solve_gp(two_node_problem(), tol=1e-11)
    assert np.allclose(pair.u, [2 / 3, 1 / 3], atol=1e-9)
    assert np.allclose(pair.v, [2 / 3, 1 / 3], atol=1e-9)
    assert pair.residual_inf <= 1e-11 * 2


def test_two_node_lambda_scaling():
    pair = solve_gp(two_node_problem(lam=0.5), tol=1e-11)
    assert np.allclose(pair.u, [0.75, 0.25], atol=1e-9)


def test_stefan_mushy_region_frozen():
    problem = two_node_problem(
        gamma=make_stefan(1.0), beta=make_stefan(1.0), phi=(0.5, 0.25)
    )
    pair = solve_gp(problem, tol=1e-10)
    # both data values sit inside the jump: u collapses to 0 and v = phi
    assert np.allclose(pair.u, [0.0, 0.0], atol=1e-8)
    assert np.allclose(pair.v, [0.5, 0.25], atol=1e-8)


def test_hele_shaw_saturation_bounds():
    problem = two_node_problem(
        gamma=make_hele_shaw(), beta=make_hele_shaw(), phi=(0.9, 0.3)
    )
    pair = solve_gp(problem, tol=1e-9)
    assert np.all(pair.v >= 0.0) and np.all(pair.v <= 1.0)
    report = verify_solution(problem, pair, 1e-8)
    assert report.passed, report.failures


def test_obstacle_keeps_state_in_the_interval():
    obs = make_obstacle(-0.5, 0.5, make_identity())
    problem = two_node_problem(gamma=obs, beta=obs, phi=(2.0, -1.5))
    pair = solve_gp(problem, tol=1e-9)
    assert np.all(pair.u >= -0.5 - 1e-12) and np.all(pair.u <= 0.5 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_resolvent_newton_jacobian_matches_finite_differences(seed):
    problem, _, _ = forward_instance(
        seed, graph_names=("stefan", "hele_shaw", "obstacle", "power2"),
        p_choices=(2.0, 3.0), min_nodes=5)
    res = problem._resolvent
    op = res.op
    fj = _resolvent_system(res, problem.phi, problem.lambda_scale, 1.0)
    u = np.random.default_rng(seed).uniform(-0.8, 0.8, op.rows.size)
    jac = fj(u)[1]().matrix
    h = 1e-7
    fd = np.column_stack([
        (fj(u + h * e)[0] - fj(u - h * e)[0]) / (2.0 * h)
        for e in np.eye(u.size)
    ])
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6)


def test_stalled_resolvent_newton_restarts_from_the_mass_balanced_point(monkeypatch):
    """Hele-Shaw data on which the resolvent Newton stalls from zero, and
    from some of 200 random starts; the restart solves every one of them."""
    problem, _, _ = forward_instance(54)
    problem = dataclasses.replace(problem, phi=sibling_phi(problem, 10_054))
    res = problem._resolvent
    restarts = []
    mass_balanced = stationary._mass_balanced

    def recording(*args):
        restarts.append(args)
        return mass_balanced(*args)

    monkeypatch.setattr(stationary, "_mass_balanced", recording)
    pair = stationary._solve(res, problem.phi, problem.lambda_scale, None, DEFAULT_TOL)
    assert len(restarts) == 1
    assert verify_solution(problem, pair, DEFAULT_TOL).passed
    rng = np.random.default_rng(0)
    for _ in range(200):
        start = rng.uniform(-3.0, 3.0, res.op.rows.size)
        pair = stationary._solve(res, problem.phi, problem.lambda_scale, start,
                                 DEFAULT_TOL)
        assert verify_solution(problem, pair, DEFAULT_TOL).passed


@pytest.mark.parametrize("scale, p, seed", [
    (1.0, 1.5, 2006), (1.0, 3.0, 2006), (1.0, 5.0, 2005), (1.0, 5.0, 2006),
    (1e-3, 1.5, 2005),
])
def test_newton_drifting_along_constants_restarts_onto_the_mass(scale, p, seed):
    """Hele-Shaw bulk, lambda = 1e4: from zero every node sits on a flat
    piece, the Newton matrix is singular along constants, and Newton drifts
    to |u| ~ 1e7 and stalls.  The restart from the mass-balanced point
    solves each case and finds the planted pair."""
    problem, u, v = scaled_instance(seed, scale, p, 1e4, max_nodes=20)
    pair = solve_gp(problem)
    assert verify_solution(problem, pair, DEFAULT_TOL).passed
    omega = problem.partition.omega
    assert np.allclose(pair.u[omega], u[omega], rtol=1e-6, atol=1e-9)
    assert np.allclose(pair.v[omega], v[omega], rtol=1e-6, atol=1e-6)


def test_mass_balanced_shift_puts_the_mass_into_the_graph_values():
    problem, _, _ = forward_instance(54)
    res = problem._resolvent
    op = res.op
    nu = op.nu
    mass = float(nu @ problem.phi[op.rows])
    u = np.random.default_rng(1).uniform(-1.0, 1.0, op.rows.size) + 5.0e6
    shifted = stationary._mass_balanced(res, problem.phi, u)
    c = shifted - u
    assert np.allclose(c, c[0], rtol=0.0, atol=1e-8)
    lo = hi = 0.0
    for g, mask in res.parts:
        a, b = g.interval(shifted[mask])
        lo, hi = lo + float(nu[mask] @ a), hi + float(nu[mask] @ b)
    assert lo - 1e-9 * abs(mass) <= mass <= hi + 1e-9 * abs(mass)


def test_defect_a_solves_and_recovers_the_planted_u():
    """Two laws strictly increasing onto the line, p = 5, lambda = 1e4.

    The direct Newton path, now deleted, stopped at 1e-12*(1 + max|phi|)
    and left that residual in v = phi + lambda*div u, which failed the
    inclusion check, so the solve raised SolverDiverged.
    """
    problem, u_star, _ = forward_instance(
        1002, max_nodes=12, p_choices=(5.0,), lambda_scale=1e4
    )
    pair = solve_gp(problem)
    assert verify_solution(problem, pair, DEFAULT_TOL).passed
    omega = problem.partition.omega
    bound = 1e-9 * (1.0 + np.max(np.abs(u_star[omega])))
    assert np.max(np.abs(pair.u[omega] - u_star[omega])) <= bound


def test_solution_is_zero_off_the_partition():
    space = from_weighted_graph(np.ones((4, 4)) - np.eye(4))
    problem = StationaryProblem(
        space=space,
        partition=DomainPartition([1], [2]),
        flux=p_laplacian_flux(2.0),
        gamma=make_identity(),
        beta=make_identity(),
        phi=np.array([9.0, 1.0, 0.0, 9.0]),  # off-partition entries ignored
    )
    pair = solve_gp(problem, tol=1e-10)
    assert pair.u[0] == 0.0 and pair.u[3] == 0.0
    assert pair.v[0] == 0.0 and pair.v[3] == 0.0
    report = verify_solution(problem, pair, 1e-9)
    assert report.passed


# -- range condition ----------------------------------------------------------

def test_check_range_strict_interior():
    problem = two_node_problem(gamma=make_hele_shaw(), beta=make_hele_shaw(),
                               phi=(0.5, 0.5))
    report = check_range(problem)
    assert report.feasible
    assert report.r_minus == 0.0 and report.r_plus == 2.0
    assert report.integral_phi == pytest.approx(1.0)


def test_check_range_rejects_boundary_and_outside():
    hs = make_hele_shaw()
    outside = check_range(two_node_problem(gamma=hs, beta=hs, phi=(2.0, 2.0)))
    assert not outside.feasible and outside.margin < 0
    exact = check_range(two_node_problem(gamma=hs, beta=hs, phi=(1.0, 1.0)))
    assert not exact.feasible
    assert exact.margin == pytest.approx(0.0, abs=1e-15)


def test_solve_gp_raises_with_report():
    problem = two_node_problem(gamma=make_hele_shaw(), beta=make_hele_shaw(),
                               phi=(2.0, 2.0))
    with pytest.raises(RangeInfeasible) as exc:
        solve_gp(problem)
    assert exc.value.report.integral_phi == pytest.approx(4.0)


def test_disconnected_domain_rejected():
    w = np.zeros((4, 4))
    for i, j in [(0, 1), (2, 3)]:
        w[i, j] = w[j, i] = 1.0
    space = from_weighted_graph(w)
    problem = StationaryProblem(
        space=space,
        partition=DomainPartition([0], [2]),
        flux=p_laplacian_flux(2.0),
        gamma=make_identity(),
        beta=make_identity(),
        phi=np.zeros(4),
    )
    with pytest.raises(NotConnected):
        solve_gp(problem)
    # the problem keeps the answer, and the energy report still refuses
    pair = stationary.SolutionPair(u=np.zeros(4), v=np.zeros(4),
                                   residual_inf=0.0, iterations=0)
    with pytest.raises(NotConnected):
        energy_report(problem, pair)


# -- solver vs forward-constructed targets -----------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=SEEDS)
def test_solver_verifies_on_random_instances(seed):
    problem, _, v_star = forward_instance(seed, max_nodes=10)
    pair = solve_gp(problem, tol=1e-9)
    report = verify_solution(problem, pair, 1e-7)
    assert report.passed, report.failures
    # v is unique, so the solver must recover the planted values
    omega = problem.partition.omega
    assert np.allclose(pair.v[omega], v_star[omega], atol=5e-7)


@pytest.mark.parametrize("seed", range(6))
def test_solve_gp_result_carries_its_verification(seed):
    """The pair's report is the one verify_solution gives on the same pair."""
    problem, _, _ = forward_instance(seed, max_nodes=10)
    for tol in (1e-9, 1e-7):
        pair = solve_gp(problem, tol)
        assert pair.verification.passed
        assert pair.verification == verify_solution(problem, pair, tol)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_solver_recovers_unique_u(seed):
    problem, u_star, _ = forward_instance(
        seed, max_nodes=8, graph_names=U_UNIQUE_GRAPHS
    )
    pair = solve_gp(problem, tol=1e-10)
    omega = problem.partition.omega
    assert np.allclose(pair.u[omega], u_star[omega], atol=1e-6)


def test_q2_integration_set_solves_and_conserves():
    space = from_weighted_graph(np.ones((5, 5)) - np.eye(5))
    problem = StationaryProblem(
        space=space,
        partition=DomainPartition([0, 1, 2], [3, 4]),
        flux=p_laplacian_flux(2.0),
        gamma=make_identity(),
        beta=make_identity(),
        phi=np.array([1.0, -0.5, 0.25, 0.0, 0.5]),
        integration_set="Q2",
    )
    pair = solve_gp(problem, tol=1e-10)
    report = verify_solution(problem, pair, 1e-9)
    assert report.passed, report.failures


# -- contraction --------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
@example(seed=13036)
def test_t_contraction_in_the_data(seed):
    problem1, _, _ = forward_instance(seed, max_nodes=8)
    rng = np.random.default_rng(seed + 10**9)
    bump = np.zeros(problem1.space.node_count)
    omega = problem1.partition.omega
    bump[omega] = rng.random(omega.size) * 0.1
    # keep the bumped data feasible: spend at most half the upper margin
    report = check_range(problem1)
    room = 0.5 * (report.r_plus - report.integral_phi)
    mass = float((problem1.space.nu[omega] * bump[omega]).sum())
    if mass > room:
        bump *= room / mass
    problem2 = StationaryProblem(
        space=problem1.space,
        partition=problem1.partition,
        flux=problem1.flux,
        gamma=problem1.gamma,
        beta=problem1.beta,
        phi=problem1.phi + bump,
        lambda_scale=problem1.lambda_scale,
    )
    pair1 = solve_gp(problem1, tol=1e-10)
    pair2 = solve_gp(problem2, tol=1e-10)
    v_gap, phi_gap = contraction_gap(problem1, problem2, pair1, pair2)
    assert v_gap <= phi_gap + 1e-8
    # problem2 dominates problem1, so comparison gives ordered states
    assert np.all(pair1.v[omega] <= pair2.v[omega] + 1e-8)


# -- stress sweep -------------------------------------------------------------

STRESS_P = (1.2, 1.5, 3.0, 5.0)
STRESS_LAMBDA = (1e-4, 1.0, 1e4)
STRESS_SEEDS = range(2000, 2006)


def _no_restart(*args):
    raise AssertionError("the first resolvent Newton failed")


@pytest.fixture
def evaluations(monkeypatch):
    """Residual evaluations of the resolvent system, one entry per call:
    the point evaluated."""
    calls = []
    system = stationary._resolvent_system

    def counting(*args):
        f_and_jac = system(*args)

        def counted(u):
            calls.append(u)
            return f_and_jac(u)

        return counted

    monkeypatch.setattr(stationary, "_resolvent_system", counting)
    return calls


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e-3, 1.0])
def test_stress_sweep_solves_on_one_path(scale, evaluations, monkeypatch):
    """Targets scaled by 1e-300 to 1, every p and lambda: the first Newton
    solves and verifies each case, within 4,000 residual evaluations.  All
    but five need under 600; the most, 1,931 and 1,627, go to p = 5,
    lambda = 1e4, seed 2001 at 1 and p = 1.5, lambda = 1e4, seed 2003 at
    1e-3.  The sweeps take 3,560 evaluations at 1 and 6,090 at 1e-3, and
    132 to 144 at 1e-100 and below, where the start u = 0 already meets
    Newton's absolute stop and only the last step runs; there F @ F
    underflows, and an unscaled 2-norm of F divided by zero on 12, 24 and
    24 of the 72 cases."""
    monkeypatch.setattr(stationary, "_mass_balanced", _no_restart)
    for p in STRESS_P:
        for lam in STRESS_LAMBDA:
            for seed in STRESS_SEEDS:
                problem, _, v = scaled_instance(seed, scale, p, lam)
                evaluations.clear()
                pair = solve_gp(problem)
                assert len(evaluations) <= 4000, (p, lam, seed, len(evaluations))
                assert verify_solution(problem, pair, DEFAULT_TOL).passed
                omega = problem.partition.omega
                assert np.allclose(pair.v[omega], v[omega], rtol=1e-6, atol=1e-6)


def _exact_mass(nu, x):
    """sum nu*x in exact rational arithmetic."""
    return sum(Fraction(a) * Fraction(b) for a, b in zip(nu, x))


def test_stress_sweep_large_targets_verify_or_raise_in_bounded_work(evaluations):
    """Targets scaled by 1e3: each case verifies or raises SolverDiverged,
    within 20,000 residual evaluations.  62 of the 72 verify; the other ten
    have p = 5 and data from 3e11 to 4e16, where the rounding scale of the
    pair exceeds the verification tolerances.  The most work, 15,346
    evaluations, goes to p = 5, lambda = 1, seed 2003, which stalls twice.
    Each verified pair conserves mass within the verification tolerance
    1e-9*max(1, |sum nu*phi|) with both sums taken exactly, not only in the
    float sums of the check; the largest exact gap is 0.40 of it."""
    solved = 0
    for p in STRESS_P:
        for lam in STRESS_LAMBDA:
            for seed in STRESS_SEEDS:
                problem, _, _ = scaled_instance(seed, 1e3, p, lam)
                evaluations.clear()
                try:
                    pair = solve_gp(problem)
                except SolverDiverged:
                    pass
                else:
                    assert verify_solution(problem, pair, DEFAULT_TOL).passed
                    omega = problem.partition.omega
                    nu = problem.space.nu[omega]
                    mass_phi = _exact_mass(nu, problem.phi[omega])
                    gap = abs(_exact_mass(nu, pair.v[omega]) - mass_phi)
                    tol = DEFAULT_TOL * max(1.0, abs(float(mass_phi)))
                    assert gap <= tol, (p, lam, seed, float(gap), tol)
                    solved += 1
                assert len(evaluations) <= 20000, (p, lam, seed, len(evaluations))
    assert solved >= 62


@pytest.mark.parametrize("scale", [1e-100, 1e-200, 1e-300])
def test_two_node_step_at_underflowing_scales(scale):
    """Identity laws, p = 2 and phi = (scale, 0): the pair is
    scale*(2/3, 1/3) at every scale, also where F @ F underflows."""
    problem = two_node_problem(phi=(scale, 0.0))
    pair = solve_gp(problem)
    assert pair.verification.passed
    expected = scale * np.array([2.0, 1.0]) / 3.0
    assert np.allclose(pair.u, expected, rtol=1e-12, atol=0.0)
    assert np.allclose(pair.v, expected, rtol=1e-12, atol=0.0)


def test_solvers_never_call_the_regularized_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_approximate called")

    monkeypatch.setattr(stationary, "solve_approximate", forbidden)
    monkeypatch.setattr(stationary, "_approx_system", forbidden)
    for seed in range(3):
        problem, _, _ = forward_instance(seed, max_nodes=8)
        solve_gp(problem)
    problem, _, _ = forward_instance(54)
    solve_gp(dataclasses.replace(problem, phi=sibling_phi(problem, 10_054)))
    trajectory, steps = evolution_instance(1)
    mild_solve(trajectory, steps)


# -- the Newton step: direct on small or dense operators, else matrix-free ----

INDICATOR = {"type": "indicator", "radius": 1.5}


def grid_problem(side, gamma, beta, p, lam, seed=3):
    """A side x side indicator grid, bulk inside the outer ring, with data
    built forward from a planted pair; returns (problem, u*)."""
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    space = from_kernel_grid(points, 1.0, INDICATOR)
    ring = ((xs == 0) | (ys == 0) | (xs == side - 1) | (ys == side - 1)).ravel()
    partition = DomainPartition(np.where(~ring)[0], np.where(ring)[0])
    flux = p_laplacian_flux(p)
    n = space.node_count
    u, v = target_pair(np.random.default_rng(seed), partition, gamma, beta, n)
    problem = StationaryProblem(
        space=space, partition=partition, flux=flux, gamma=gamma, beta=beta,
        phi=phi_for_target(space, partition, flux, u, v, lam), lambda_scale=lam,
    )
    return problem, u


def chain_problem(n, gamma, beta, p, lam, seed):
    """An n-node indicator chain, both ends as the boundary, with data
    built forward from a planted pair; returns (problem, u*)."""
    space = from_kernel_grid(np.arange(float(n)), 1.0, INDICATOR)
    partition = DomainPartition(np.arange(1, n - 1), np.array([0, n - 1]))
    flux = p_laplacian_flux(p)
    u, v = target_pair(np.random.default_rng(seed), partition, gamma, beta, n)
    problem = StationaryProblem(
        space=space, partition=partition, flux=flux, gamma=gamma, beta=beta,
        phi=phi_for_target(space, partition, flux, u, v, lam), lambda_scale=lam,
    )
    return problem, u


def newton_systems(caller, p, lam, monkeypatch):
    """(f_and_jac, u, shift sign) of one caller of _damped_newton, on a grid
    operator of 144 rows, sparse, so that its Newton matrix is a pair form."""
    rng = np.random.default_rng(5)
    if caller == "dtn":
        # the lift across the 12 x 12 interior of a 14 x 14 grid
        problem, _ = grid_problem(14, make_identity(), make_identity(), p, 1.0)
        captured = []

        def capture(f_and_jac, start, tol):
            captured.append((f_and_jac, start))
            return start, 0.0, 0

        monkeypatch.setattr(evolution_module, "_damped_newton", capture)
        dtn_apply(problem.space, problem.partition.omega1, problem.flux,
                  rng.standard_normal(problem.partition.omega2.size))
        monkeypatch.undo()
        (fj, start), = captured
        return fj, start + rng.uniform(-0.5, 0.5, start.size), -1.0
    gamma = make_stefan(1.0) if caller == "resolvent, Stefan" else make_power(2.0)
    problem, _ = grid_problem(12, gamma, make_identity(), p, lam)
    res = problem._resolvent
    op = res.op
    if caller == "approximate":
        fj = stationary._approx_system(res, problem.phi, lam, 10, 10, 1e6)
        return fj, rng.uniform(-1.0, 1.0, op.rows.size), 1.0
    fj = _resolvent_system(res, problem.phi, lam, min(1.0, 1.0 / lam))
    # half the nodes start at 0, most of them on Stefan's jump, where the
    # resolvent is flat
    u = rng.uniform(-1.0, 1.0, op.rows.size) * (rng.random(op.rows.size) < 0.5)
    return fj, u, 1.0


NEWTON_CASES = [
    (caller, p, lam)
    for caller in ("resolvent, power", "resolvent, Stefan", "approximate")
    for lam in (1e-2, 1.0, 1e2)
    for p in (1.5, 3.0)
] + [("dtn", p, 1.0) for p in (1.5, 3.0)]


@pytest.mark.parametrize("caller, p, lam", NEWTON_CASES)
def test_matrix_free_step_matches_the_dense_solve(caller, p, lam, monkeypatch):
    """The pair form's PCG step against np.linalg.solve on the Jacobian the
    same closure assembles densely, unshifted and shifted.  The lift's
    Jacobian is -L, and its pair form takes the shift on L's side."""
    fj, u, sign = newton_systems(caller, p, lam, monkeypatch)
    f, jac = fj(u)
    pair_matrix = jac()
    assert isinstance(pair_matrix, stationary._NewtonMatrix)
    assert pair_matrix.matrix is None
    if caller == "resolvent, Stefan":
        assert np.any(pair_matrix.b == 0.0) and np.any(pair_matrix.b > 0.0)
    monkeypatch.setattr(NonlocalOperator, "direct", True)
    f_dense, jac = fj(u)
    dense = jac()
    monkeypatch.undo()
    assert np.array_equal(f, f_dense)
    assert np.allclose(pair_matrix.diagonal, dense.diagonal, rtol=1e-12, atol=0.0)
    for shift in (None, 1e-3 * (1.0 + np.max(np.abs(dense.diagonal)))):
        jac = dense.matrix.copy()
        if shift is not None:
            jac[np.diag_indices_from(jac)] += sign * shift
        expected = np.linalg.solve(jac, f)
        step = pair_matrix.solve(f, shift)
        # the residual, against the scale at which J @ step rounds
        scale = np.linalg.norm(f) + np.linalg.norm(np.abs(jac) @ np.abs(step))
        assert np.linalg.norm(jac @ step - f) <= 1e-11 * scale
        assert np.allclose(step, expected, rtol=1e-7, atol=1e-9 * np.max(np.abs(expected)))


def test_grid_solve_forms_no_dense_matrix(monkeypatch):
    """On a 30 x 30 grid, solve_gp passes the flux no more values than the
    operator stores pairs, never forms the dense Jacobian or calls
    np.linalg.solve, and allocates less than one rows x rows array."""
    problem, _ = grid_problem(30, make_power(2.0), make_identity(), 3.0, 1.0)
    n = problem.partition.omega.size
    pairs = problem._resolvent.op.weights.size
    assert pairs < 10 * n
    flux_sizes, solve_sizes = [], []

    def recording(method, sizes, size_of):
        def recorded(*args):
            sizes.append(size_of(*args))
            return method(*args)
        return recorded

    for name in ("evaluate", "slope"):
        method = getattr(LerayLionsFlux, name)
        monkeypatch.setattr(
            LerayLionsFlux, name,
            recording(method, flux_sizes, lambda self, x, y, r: np.size(r)),
        )
    monkeypatch.setattr(
        np.linalg, "solve",
        recording(np.linalg.solve, solve_sizes, lambda a, b: a.shape[0]),
    )

    def no_jacobian(self, u):
        raise AssertionError("dense Jacobian formed")

    monkeypatch.setattr(NonlocalOperator, "jacobian", no_jacobian)
    tracemalloc.start()
    try:
        pair = solve_gp(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert verify_solution(problem, pair, DEFAULT_TOL).passed
    assert flux_sizes and max(flux_sizes) <= pairs
    assert solve_sizes == []
    # measured: 1.3 MB against 6.5 MB for one 900 x 900 array
    assert peak < 8 * n * n


@pytest.mark.parametrize("gamma", ["power2", "stefan"])
def test_cg_iterations_stay_bounded(gamma, monkeypatch):
    """Every PCG solve of 30 x 30 grid solves, lambda from 1e-2 to 1e4 and
    p in {1.5, 3}, converges within 240 iterations; the most measured is
    123, at lambda = 1e4."""
    counts = []
    solve = stationary._NewtonMatrix.solve

    def counting(self, *args):
        try:
            return solve(self, *args)
        finally:
            counts.append(self.iterations)

    monkeypatch.setattr(stationary._NewtonMatrix, "solve", counting)
    law = {"power2": make_power(2.0), "stefan": make_stefan(1.0)}[gamma]
    for lam in (1e-2, 1.0, 1e2, 1e4):
        for p in (1.5, 3.0):
            problem, u_star = grid_problem(30, law, make_identity(), p, lam, seed=7)
            counts.clear()
            pair = solve_gp(problem)
            assert counts and max(counts) <= 240, (lam, p, max(counts))
            assert verify_solution(problem, pair, DEFAULT_TOL).passed
            assert np.max(np.abs(pair.u - u_star)) <= 1e-9


@pytest.mark.parametrize("lam, cg_budget", [(1e2, 12_000), (1e4, 30_000)])
def test_long_chain_solves_within_a_cg_budget(lam, cg_budget, monkeypatch):
    """A 400-node chain, Hele-Shaw bulk, Stefan boundary, p = 3: the
    resolvent Newton verifies within a budget of total CG iterations.
    Measured: 6,690 at lambda = 1e2 and 14,585 at 1e4, over 30 and 40
    Newton iterations.  With forcing terms capped at 0.01 and the last
    step solved to 1e-12 relative, they were 216,897 over 131 and 97,872
    over 182."""
    problem, _ = chain_problem(400, make_hele_shaw(), make_stefan(1.0), 3.0, lam, 7)
    assert not problem._resolvent.op.direct
    counts = []
    solve = stationary._NewtonMatrix.solve

    def counting(self, *args):
        try:
            return solve(self, *args)
        finally:
            counts.append(self.iterations)

    monkeypatch.setattr(stationary._NewtonMatrix, "solve", counting)
    monkeypatch.setattr(stationary, "_mass_balanced", _no_restart)
    pair = solve_gp(problem)
    assert verify_solution(problem, pair, DEFAULT_TOL).passed
    assert sum(counts) <= cg_budget, sum(counts)


def test_cg_at_its_cap_hands_over_to_the_shift_escalation(monkeypatch):
    """With a CG cap of one iteration per row, unshifted Newton solves on a
    200-node chain at lambda = 3e3 reach the cap and raise; Newton
    re-solves with a growing diagonal shift, which CG solves within the
    cap, and reaches the planted pair.  The last step, solved to F's
    rounding, reaches the cap too, and keeps the u it was given."""
    n = 200
    problem, u_star = chain_problem(n, make_identity(), make_identity(), 3.0, 3e3, 3)
    assert not problem._resolvent.op.direct
    cap = n
    outcomes, last_steps = [], []
    solve, last_step = stationary._NewtonMatrix.solve, stationary._last_step

    def recording_solve(self, f, shift=None, rtol=stationary.CG_TIGHT):
        try:
            step = solve(self, f, shift, rtol)
        except np.linalg.LinAlgError:
            outcomes.append((shift, self.iterations))
            raise
        outcomes.append((shift, None))
        return step

    def recording_last_step(f_and_jac, u, f, jac, res, floor):
        kept = last_step(f_and_jac, u, f, jac, res, floor)
        last_steps.append(kept[0] is u and kept[1] == res)
        return kept

    monkeypatch.setattr(stationary, "CG_ITERATIONS_PER_ROW", 1)
    monkeypatch.setattr(stationary._NewtonMatrix, "solve", recording_solve)
    monkeypatch.setattr(stationary, "_last_step", recording_last_step)
    monkeypatch.setattr(stationary, "_mass_balanced", _no_restart)
    pair = solve_gp(problem)
    assert verify_solution(problem, pair, DEFAULT_TOL).passed
    assert np.max(np.abs(pair.u - u_star)) <= 1e-9
    # a solve at the cap, then one with a larger shift that CG solves
    assert any(
        at == cap and ok is None and then > shift
        for (shift, at), (then, ok) in zip(outcomes, outcomes[1:])
        if shift is not None and then is not None
    )
    assert last_steps == [True]


def test_cg_breaks_off_on_nonpositive_curvature():
    """An indefinite pair-form matrix (a diagonal of -1e3 under a
    Laplacian) gives a direction of negative curvature at once: CG breaks
    off on its first iteration and raises, well before its cap."""
    problem, _ = grid_problem(12, make_stefan(1.0), make_identity(), 3.0, 1.0)
    op = problem._resolvent.op
    assert not op.direct
    rng = np.random.default_rng(2)
    u = rng.uniform(-1.0, 1.0, op.rows.size)
    matrix = stationary._NewtonMatrix(op, u, np.full(op.rows.size, -1e3), 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        matrix.solve(rng.standard_normal(op.rows.size), 0.0, 1e-8)
    assert matrix.iterations == 0


def test_newton_evaluates_no_point_twice_in_a_row(evaluations, monkeypatch):
    """An accepted trial point becomes the iterate with the residual and
    slopes of its one evaluation, so no two consecutive residual
    evaluations take the same u: on dense and pair-form operators, with
    and without backtracking."""
    monkeypatch.setattr(stationary, "_mass_balanced", _no_restart)
    problems = [scaled_instance(seed, 1.0, p, lam)[0] for seed, p, lam in
                ((2000, 1.5, 1.0), (2001, 3.0, 1e-4), (2003, 1.5, 1e4))]
    problems.append(grid_problem(12, make_stefan(1.0), make_identity(), 1.5, 1e2)[0])
    for problem in problems:
        evaluations.clear()
        solve_gp(problem)
        assert len(evaluations) > 3
        assert not any(np.array_equal(a, b) for a, b in zip(evaluations, evaluations[1:]))


DENSE_SPACES = {
    "7x7 grid": lambda: grid_problem(7, make_stefan(1.0), make_power(2.0), 1.5, 1.0)[0],
    "dense graph": lambda: StationaryProblem(
        space=random_space(np.random.default_rng(5), 160),
        partition=DomainPartition(np.arange(120), np.arange(120, 160)),
        flux=p_laplacian_flux(3.0), gamma=make_stefan(1.0), beta=make_power(2.0),
        phi=np.random.default_rng(6).uniform(-2.0, 2.0, 160), lambda_scale=1e2,
    ),
}


@pytest.mark.parametrize("name", sorted(DENSE_SPACES))
def test_dense_newton_matrix_is_the_assembly_bit_for_bit(name):
    """A small or dense operator's Newton matrix is the dense assembly of
    each caller's form, bit for bit: the rows of op.jacobian(u) scaled by
    -b and c added to the diagonal."""
    problem = DENSE_SPACES[name]()
    res = problem._resolvent
    op = res.op
    assert op.direct
    rng = np.random.default_rng(9)
    u = rng.uniform(-1.0, 1.0, op.rows.size) * (rng.random(op.rows.size) < 0.5)
    lam = problem.lambda_scale
    mu = min(1.0, 1.0 / lam)
    # the resolvent form: I - D*(I + mu*lam*op.jacobian(u))
    jac = _resolvent_system(res, problem.phi, lam, mu)(u)[1]()
    s = u + mu * (problem.phi[op.rows] + lam * op.apply(u))
    d = np.empty_like(u)
    for g, mask in res.parts:
        d[mask] = g.resolvent_slope(mu, s[mask])[1]
    expected = op.jacobian(u)
    expected *= (-mu * lam) * d[:, None]
    expected[np.diag_indices_from(expected)] += 1.0 - d
    assert expected.tobytes() == jac.matrix.tobytes()
    # the regularized form, diag(slopes) - lam*op.jacobian(u), and the lift's
    slopes = rng.uniform(0.0, 2.0, op.rows.size)
    expected = op.jacobian(u)
    expected *= -lam
    expected[np.diag_indices_from(expected)] += slopes
    matrix = stationary._NewtonMatrix(op, u, slopes, lam).matrix
    assert expected.tobytes() == matrix.tobytes()
    matrix = stationary._NewtonMatrix(op, u, 0.0, -1.0).matrix
    assert op.jacobian(u).tobytes() == matrix.tobytes()


# -- approximate problems ------------------------------------------------------

def test_one_node_approximate_frozen():
    space = from_weighted_graph([[1.0]])  # a single self-loop node
    problem = StationaryProblem(
        space=space,
        partition=DomainPartition([0], []),
        flux=p_laplacian_flux(2.0),
        gamma=make_identity(),
        beta=make_identity(),
        phi=np.array([0.6]),
    )
    u = solve_approximate(problem, 1, 1)
    assert u[0] == pytest.approx(0.4, abs=1e-9)


def test_approximate_monotone_in_truncation_indices():
    problem, _, _ = forward_instance(7, max_nodes=5, min_nodes=5,
                                     graph_names=("stefan", "hele_shaw"))
    levels = [1, 4, 16]
    by_n = [solve_approximate(problem, n, 4) for n in levels]
    for small, big in zip(by_n, by_n[1:]):
        assert np.all(small <= big + 1e-9)
    by_k = [solve_approximate(problem, 4, k) for k in levels]
    for small, big in zip(by_k, by_k[1:]):
        assert np.all(small >= big - 1e-9)


# -- diagnostics ---------------------------------------------------------------

def test_energy_report_shape():
    problem, _, _ = forward_instance(3, max_nodes=6)
    pair = solve_gp(problem, tol=1e-9)
    energy, bound = energy_report(problem, pair)
    assert energy >= 0.0 and np.isfinite(energy)
    assert bound > 0.0 and np.isfinite(bound)
    # probe seeding is fixed, so the report is reproducible
    assert (energy, bound) == energy_report(problem, pair)



def test_a_problem_builds_its_operator_once(monkeypatch):
    """solve_gp, verify_solution and energy_report on one problem share its
    operator, as a CLI stationary op runs them; a replaced problem builds
    its own."""
    problem, _, _ = forward_instance(3, max_nodes=6)
    built = []
    init = NonlocalOperator.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(NonlocalOperator, "__init__", counting)
    pair = solve_gp(problem)
    assert verify_solution(problem, pair, DEFAULT_TOL).passed
    energy_report(problem, pair)
    assert len(built) == 1 and built[0] is problem._resolvent.op
    sibling = dataclasses.replace(problem, phi=sibling_phi(problem, 7))
    assert sibling._resolvent.op is not built[0]

@pytest.mark.parametrize("integration_set", ["Q1", "Q2"])
def test_energy_report_shares_one_probe_set(monkeypatch, integration_set):
    """The two Poincare estimates of energy_report equal two public calls
    bit for bit, while each probe's gradient is scored once for both, and
    the gradient energy is its definition on the problem's pair set, up to
    the order in which its nonnegative terms are summed."""
    side = 8
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    space = from_kernel_grid(points, 1.0, {"type": "indicator", "radius": 1.5})
    ring = ((xs == 0) | (ys == 0) | (xs == side - 1) | (ys == side - 1)).ravel()
    phi = np.random.default_rng(4).uniform(-1.0, 1.0, space.node_count)
    problem = StationaryProblem(
        space=space,
        partition=DomainPartition(np.where(~ring)[0], np.where(ring)[0]),
        flux=p_laplacian_flux(3.0), gamma=make_stefan(1.0), beta=make_identity(),
        phi=phi, integration_set=integration_set,
    )
    pair = solve_gp(problem)
    estimates = []
    gradients = []
    shared = stationary._poincare_estimates
    gradient_energy = space_module._gradient_energy

    def recording(*args, **kwargs):
        estimates.append((args, shared(*args, **kwargs)))
        return estimates[-1][1]

    def counting(*args):
        gradients.append(args)
        return gradient_energy(*args)

    monkeypatch.setattr(stationary, "_poincare_estimates", recording)
    monkeypatch.setattr(space_module, "_gradient_energy", counting)
    energy, _ = energy_report(problem, pair)
    assert len(estimates) == 1 and len(gradients) == 8
    monkeypatch.undo()
    (_, omega, _, p, levels), values = estimates[0]
    assert values == [
        estimate_poincare_constant(space, omega, problem._resolvent.mask_spec, p, l, 8, seed=0)
        for l in levels
    ]
    i, j, m = space.block_pairs(omega, omega, problem._resolvent.mask_spec)
    u = pair.u[omega]
    terms = space.nu[omega][i] * m * np.abs(u[j] - u[i]) ** 3.0
    exact = math.fsum(terms) ** (2.0 / 3.0)
    # any order of summing n nonnegative terms errs by at most (n - 1)*eps/2
    # relative to the exact sum; the 2/3 power shrinks that and adds one rounding
    eps = np.finfo(float).eps
    summed = np.count_nonzero(terms)
    assert abs(energy - exact) <= ((summed - 1) * eps / 2 + eps) * exact


def test_verify_solution_flags_bad_pairs():
    problem = two_node_problem()
    pair = solve_gp(problem, tol=1e-10)
    broken = type(pair)(
        u=pair.u + 0.5, v=pair.v + 0.5,
        residual_inf=pair.residual_inf, iterations=pair.iterations,
    )
    report = verify_solution(problem, broken, 1e-8)
    assert not report.passed
    assert report.failures


def test_a_solve_forms_the_graph_bounds_once(monkeypatch):
    """_recover_pair hands the bounds it clamps v onto to the verification,
    so a solve that verifies on its first Newton forms them once per graph
    part, and the report equals the public verify_solution's."""
    problem, _, _ = forward_instance(3, graph_names=("stefan", "hele_shaw"))
    calls = []
    values_near = stationary._values_near

    def counting(*args):
        calls.append(args)
        return values_near(*args)

    monkeypatch.setattr(stationary, "_values_near", counting)
    monkeypatch.setattr(stationary, "_mass_balanced", _no_restart)
    pair = solve_gp(problem)
    assert len(calls) == len(problem._resolvent.parts) == 2
    calls.clear()
    assert verify_solution(problem, pair, DEFAULT_TOL) == pair.verification
    assert len(calls) == 2
