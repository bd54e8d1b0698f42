"""Tests for the implicit-Euler evolution solver and the boundary map."""

import dataclasses
import time

import numpy as np
import pytest

from conftest import evolution_instance, random_space
from nldiff import evolution
from nldiff.errors import CompatibilityViolated, InvalidParameter
from nldiff.evolution import (
    CompatibilityReport,
    EvolutionProblem,
    compatibility_check,
    dtn_apply,
    dtn_evolve,
    mild_solve,
    refine_and_compare,
    resolvent_dynamical,
    resolvent_static_boundary,
    strong_residual,
)
from nldiff.flux import p_laplacian_flux
from nldiff.monotone import (
    make_hele_shaw,
    make_identity,
    make_obstacle,
    make_power,
    make_stefan,
)
from nldiff.oracle import DenseInstance, linear_evolution_oracle, schur_dtn_oracle
from nldiff.space import (
    DomainPartition,
    from_kernel_grid,
    from_weighted_graph,
    m_boundary,
)
from nldiff.stationary import DEFAULT_TOL, verify_solution

TWO_NODE = from_weighted_graph([[0, 1], [1, 0]])
LOOP = from_weighted_graph([[1.0]])  # single node with a self-loop
P2 = p_laplacian_flux(2.0)


def dynamical(space, omega1, omega2, v0, w0=None, f=None, g=None,
              horizon=1.0, gamma=None, beta=None, p=2.0):
    return EvolutionProblem(
        space=space,
        partition=DomainPartition(omega1, omega2),
        flux=p_laplacian_flux(p),
        gamma=gamma or make_identity(),
        beta=beta or make_identity(),
        mode="dynamical",
        v0=np.asarray(v0, dtype=float),
        w0=None if w0 is None else np.asarray(w0, dtype=float),
        f=f,
        g=g,
        horizon=horizon,
    )


# -- problem validation --------------------------------------------------------

def test_mode_and_horizon_validation():
    with pytest.raises(InvalidParameter):
        dynamical(TWO_NODE, [0, 1], [], [0.0, 0.0], horizon=-1.0)
    with pytest.raises(InvalidParameter):
        EvolutionProblem(
            space=TWO_NODE, partition=DomainPartition([0], [1]),
            flux=P2, gamma=make_identity(), beta=make_identity(),
            mode="sideways", v0=np.zeros(1), w0=np.zeros(1),
        )


def test_dynamical_needs_w0_when_boundary_nonempty():
    with pytest.raises(InvalidParameter):
        dynamical(TWO_NODE, [0], [1], [0.0])
    # empty boundary: w0 defaults to the empty vector
    problem = dynamical(TWO_NODE, [0, 1], [], [0.0, 0.0])
    assert problem.w0.size == 0


def test_static_mode_rejects_w0_and_g():
    with pytest.raises(InvalidParameter):
        EvolutionProblem(
            space=TWO_NODE, partition=DomainPartition([0], [1]),
            flux=P2, gamma=make_identity(), beta=make_identity(),
            mode="static_boundary", v0=np.zeros(1), w0=np.zeros(1),
        )
    with pytest.raises(InvalidParameter):
        EvolutionProblem(
            space=TWO_NODE, partition=DomainPartition([0, 1], []),
            flux=P2, gamma=make_identity(), beta=make_identity(),
            mode="static_boundary", v0=np.zeros(2),
        )


def test_initial_state_must_respect_range():
    with pytest.raises(InvalidParameter):
        dynamical(LOOP, [0], [], [1.5], gamma=make_hele_shaw())


def test_table_source_must_cover_horizon():
    f = (np.array([0.0, 0.5]), np.array([[1.0]]))
    with pytest.raises(InvalidParameter):
        dynamical(LOOP, [0], [], [0.0], f=f, horizon=1.0)


# -- trivial trajectories ------------------------------------------------------

def test_constant_state_stays_put():
    problem = dynamical(TWO_NODE, [0, 1], [], [0.7, 0.7])
    sol = mild_solve(problem, 8)
    assert np.allclose(sol.v, 0.7, atol=1e-12)
    assert np.max(sol.residuals) <= 1e-12


def test_forced_single_node_integrates_the_source():
    problem = dynamical(LOOP, [0], [], [0.25], f=np.array([2.0]), horizon=0.5)
    sol = mild_solve(problem, 4)
    assert sol.v[-1, 0] == pytest.approx(1.25, abs=1e-10)


def test_callable_source_uses_exact_quadrature_for_cubics():
    problem = dynamical(LOOP, [0], [], [0.0],
                        f=lambda t: np.array([t ** 3]), horizon=1.0)
    sol = mild_solve(problem, 1)
    assert sol.v[-1, 0] == pytest.approx(0.25, abs=1e-12)


def test_table_source_overlap_weights_are_exact():
    edges = np.array([0.0, 0.3, 1.0])
    rows = np.array([[1.0], [3.0]])
    problem = dynamical(LOOP, [0], [], [0.0], f=(edges, rows), horizon=1.0)
    sol = mild_solve(problem, 2)
    # first step covers [0, 0.5): 0.3 at rate 1 plus 0.2 at rate 3
    assert sol.f_averages[0, 0] == pytest.approx(1.8, abs=1e-13)
    assert sol.f_averages[1, 0] == pytest.approx(3.0, abs=1e-13)
    assert sol.v[1, 0] == pytest.approx(0.9, abs=1e-10)
    assert sol.v[2, 0] == pytest.approx(2.4, abs=1e-10)


def test_two_node_heat_decay_tracks_the_closed_form():
    problem = dynamical(TWO_NODE, [0, 1], [], [1.0, 0.0], horizon=0.5)
    sol = mild_solve(problem, 64)
    t = sol.times[-1]
    exact = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
    assert np.allclose(sol.v[-1], exact, atol=5e-3)


def test_linear_oracle_agreement_improves_with_steps():
    problem = dynamical(TWO_NODE, [0, 1], [], [1.0, 0.0], horizon=0.5)
    instance = DenseInstance.from_space(TWO_NODE)
    errs = []
    for n in (16, 32, 64):
        sol = mild_solve(problem, n)
        ref = linear_evolution_oracle(instance, problem, sol.times)
        errs.append(float(np.max(np.abs(sol.v - ref[:, :2]))))
    assert errs[2] < errs[0]
    ratio = errs[2] / errs[1]
    assert 0.3 < ratio < 0.7  # first-order stepping halves the error


def test_refine_and_compare_table_shrinks():
    problem = dynamical(TWO_NODE, [0, 1], [], [1.0, 0.0], horizon=0.5)
    table = refine_and_compare(problem, 8, 3)
    steps = [n for n, _ in table]
    gaps = [d for _, d in table]
    assert steps == [8, 16, 32]  # one row per coarse/fine pair
    assert gaps[-1] < gaps[0]


# -- mass accounting -----------------------------------------------------------

def test_dynamical_mass_ledger():
    rng = np.random.default_rng(0)
    space = random_space(rng, 5)
    v0 = rng.random(3)
    w0 = rng.random(2)
    f = (np.array([0.0, 0.4, 1.0]), rng.random((2, 3)))
    problem = dynamical(space, [0, 1, 2], [3, 4], v0, w0=w0, f=f)
    sol = mild_solve(problem, 16)
    nu = space.nu
    tau = problem.horizon / 16
    for i in range(16):
        source = tau * float(nu @ sol.f_averages[i])
        drift = sol.mass_series[i + 1] - sol.mass_series[i] - source
        assert abs(drift) <= 1e-9 * (1.0 + abs(sol.mass_series[i + 1]))


def test_static_mass_moves_to_the_boundary():
    problem = EvolutionProblem(
        space=TWO_NODE, partition=DomainPartition([0], [1]),
        flux=P2, gamma=make_identity(), beta=make_identity(),
        mode="static_boundary", v0=np.array([1.0]), horizon=1.0,
    )
    sol = mild_solve(problem, 8)
    tau = 1.0 / 8
    absorbed = tau * float(np.sum(sol.w[1:], axis=0) @ TWO_NODE.nu[[1]])
    assert sol.v[-1, 0] + absorbed == pytest.approx(1.0, abs=1e-10)
    assert np.all(sol.w[1:] > 0)  # mass flows outward the whole way


def test_static_single_step_frozen():
    problem = EvolutionProblem(
        space=TWO_NODE, partition=DomainPartition([0], [1]),
        flux=P2, gamma=make_identity(), beta=make_identity(),
        mode="static_boundary", v0=np.array([1.0]), horizon=1.0,
    )
    sol = mild_solve(problem, 1)
    assert sol.v[1, 0] == pytest.approx(2 / 3, abs=1e-9)
    assert sol.w[1, 0] == pytest.approx(1 / 3, abs=1e-9)
    assert sol.u[0, 0] == pytest.approx(2 / 3, abs=1e-9)
    assert sol.u[0, 1] == pytest.approx(1 / 3, abs=1e-9)


def test_static_resolvent_frozen():
    problem = EvolutionProblem(
        space=TWO_NODE, partition=DomainPartition([0], [1]),
        flux=P2, gamma=make_identity(), beta=make_identity(),
        mode="static_boundary", v0=np.array([1.0]), horizon=1.0,
    )
    v, u, w = resolvent_static_boundary(problem, 1.0, np.array([1.0]))
    assert v[0] == pytest.approx(2 / 3, abs=1e-10)
    assert np.allclose(u, [2 / 3, 1 / 3], atol=1e-9)
    assert w[0] == pytest.approx(1 / 3, abs=1e-10)



@pytest.mark.parametrize("mode", ["dynamical", "static_boundary"])
def test_exported_resolvents_are_the_first_implicit_step(mode):
    """resolvent_dynamical and resolvent_static_boundary at the step tau,
    applied to the initial states, give the first step of mild_solve
    without sources, bit for bit."""
    steps = 4
    for seed in range(40):
        problem, _ = evolution_instance(seed, mode, allow_forcing=False)
        sol = mild_solve(problem, steps)
        tau = problem.horizon / steps
        o1, o2 = problem.partition.omega1, problem.partition.omega2
        if mode == "dynamical":
            psi = np.zeros(problem.space.node_count)
            psi[o1], psi[o2] = problem.v0, problem.w0
            pair = resolvent_dynamical(problem, tau, psi)
            v, u, w = pair.v[o1], pair.u, pair.v[o2]
        else:
            v, u, w = resolvent_static_boundary(problem, tau, problem.v0)
        assert v.tobytes() == sol.v[1].tobytes(), seed
        assert u.tobytes() == sol.u[0].tobytes(), seed
        assert w.tobytes() == sol.w[1].tobytes(), seed


@pytest.mark.parametrize("lam", [0.0, -0.5])
def test_exported_resolvents_reject_a_nonpositive_step(lam):
    problem, _ = evolution_instance(0, "dynamical", allow_forcing=False)
    with pytest.raises(InvalidParameter):
        resolvent_dynamical(problem, lam, np.zeros(problem.space.node_count))
    problem, _ = evolution_instance(0, "static_boundary", allow_forcing=False)
    with pytest.raises(InvalidParameter):
        resolvent_static_boundary(problem, lam, problem.v0)


# -- compatibility -------------------------------------------------------------

def test_compatibility_detects_mass_escape():
    problem = dynamical(LOOP, [0], [], [0.5], f=np.array([1.0]),
                        gamma=make_hele_shaw(), horizon=1.0)
    report = compatibility_check(problem, 16)
    assert not report.passed
    assert report.r_plus == pytest.approx(1.0)
    assert report.violation_time is not None
    with pytest.raises(CompatibilityViolated):
        mild_solve(problem, 16)


def test_compatibility_strict_at_exact_boundary():
    # unforced state sitting exactly on the top of the range fails at t=0
    problem = dynamical(LOOP, [0], [], [1.0], gamma=make_hele_shaw())
    report = compatibility_check(problem, 8)
    assert not report.passed
    assert report.violation_time == 0.0


def test_compatibility_passes_inside():
    problem = dynamical(LOOP, [0], [], [0.5], gamma=make_hele_shaw())
    report = compatibility_check(problem, 8)
    assert report.passed
    sol = mild_solve(problem, 4)
    assert np.allclose(sol.v, 0.5)


def test_static_compatibility_vacuous_when_absorption_unbounded():
    problem = EvolutionProblem(
        space=TWO_NODE, partition=DomainPartition([0], [1]),
        flux=P2, gamma=make_identity(), beta=make_identity(),
        mode="static_boundary", v0=np.array([0.0]),
        f=np.array([50.0]), horizon=1.0,
    )
    assert compatibility_check(problem, 8).passed


def test_static_compatibility_nonstrict_window_budget():
    # bounded absorption: nu(omega2)*sup = 1; equality must pass,
    # anything above must fail
    def problem_with(rate):
        return EvolutionProblem(
            space=TWO_NODE, partition=DomainPartition([0], [1]),
            flux=P2, gamma=make_hele_shaw(), beta=make_hele_shaw(),
            mode="static_boundary", v0=np.array([0.5]),
            f=np.array([rate]), horizon=1.0,
        )
    assert compatibility_check(problem_with(1.0), 4).passed
    report = compatibility_check(problem_with(1.01), 4)
    assert not report.passed


def ledger_problem():
    rng = np.random.default_rng(0)
    space = random_space(rng, 5)
    f = (np.array([0.0, 0.4, 1.0]), 0.2 * rng.random((2, 3)))
    return dynamical(space, [0, 1, 2], [3, 4], [0.2, 0.4, 0.3],
                     w0=rng.random(2), f=f, gamma=make_hele_shaw())


def absorbing_problem():
    return EvolutionProblem(
        space=TWO_NODE, partition=DomainPartition([0], [1]),
        flux=P2, gamma=make_hele_shaw(), beta=make_hele_shaw(),
        mode="static_boundary", v0=np.array([0.5]),
        f=np.array([0.5]), horizon=1.0,
    )


def dtn_problem():
    space = random_space(np.random.default_rng(2), 6)
    w0 = np.random.default_rng(3).random(m_boundary(space, [2, 3]).size)
    return evolution._dtn_problem(space, [2, 3], P2, None, w0, 0.5)


@pytest.mark.parametrize("make_problem, solve", [
    (ledger_problem, mild_solve),
    (absorbing_problem, mild_solve),
    (dtn_problem, lambda problem, n: dtn_evolve(
        problem.space, problem.partition.omega1, problem.flux, problem.g,
        problem.w0, problem.horizon, n)),
], ids=["dynamical", "static", "dtn"])
def test_trajectory_carries_its_compatibility_report(make_problem, solve):
    """The solution holds the report compatibility_check gives at its step
    count, field by field."""
    problem = make_problem()
    got = solve(problem, 8).compatibility
    expected = compatibility_check(problem, 8)
    assert expected.passed
    for field in dataclasses.fields(CompatibilityReport):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b


# -- energy ledger -------------------------------------------------------------

def test_strong_residual_heat_flow():
    problem = dynamical(TWO_NODE, [0, 1], [], [1.0, 0.0], horizon=0.5)
    sol = mild_solve(problem, 16)
    report = strong_residual(problem, sol)
    assert report.passed
    assert np.max(report.step_residuals) <= 1e-9
    assert report.jstar_final <= report.jstar_initial + 1e-12
    assert report.boundary_work == 0.0


def test_stefan_dissipates_conjugate_energy():
    rng = np.random.default_rng(4)
    space = random_space(rng, 4)
    stefan = make_stefan(1.0)
    v0 = np.array([1.4, 0.6, -0.3, 0.9])
    problem = dynamical(space, [0, 1, 2, 3], [], v0, gamma=stefan, horizon=1.0)
    sol = mild_solve(problem, 12)
    report = strong_residual(problem, sol)
    assert report.passed
    series = [
        sum(space.nu[x] * stefan.conjugate(sol.v[i, x]) for x in range(4))
        for i in range(13)
    ]
    for earlier, later in zip(series, series[1:]):
        assert later <= earlier + 1e-10


def test_ledger_rejects_a_state_outside_the_conjugate_domain():
    problem = dynamical(TWO_NODE, [0, 1], [], [0.2, 0.7],
                        gamma=make_hele_shaw(), horizon=0.5)
    sol = mild_solve(problem, 4)
    v = sol.v.copy()
    v[-1, 1] = 1.5  # Hele-Shaw values lie in [0, 1]
    with pytest.raises(InvalidParameter, match=r"v\(T\) .* at value 1\.5"):
        strong_residual(problem, dataclasses.replace(sol, v=v))


def test_static_ledger_counts_boundary_work():
    problem = EvolutionProblem(
        space=TWO_NODE, partition=DomainPartition([0], [1]),
        flux=P2, gamma=make_identity(), beta=make_identity(),
        mode="static_boundary", v0=np.array([1.0]), horizon=1.0,
    )
    sol = mild_solve(problem, 8)
    report = strong_residual(problem, sol)
    assert report.passed
    assert report.boundary_work > 0.0


# -- Dirichlet-to-Neumann ------------------------------------------------------

def test_dtn_constant_boundary_data_lifts_to_zero_flux():
    rng = np.random.default_rng(9)
    space = random_space(rng, 6)
    w_nodes = space.node_set([1, 2])
    bd = m_boundary(space, w_nodes)
    out = dtn_apply(space, w_nodes, P2, np.full(bd.size, 3.0))
    assert np.allclose(out, 0.0, atol=1e-11)


def test_dtn_output_is_mass_neutral():
    rng = np.random.default_rng(13)
    space = random_space(rng, 7)
    w_nodes = space.node_set([2, 3, 4])
    bd = m_boundary(space, w_nodes)
    fb = rng.standard_normal(bd.size)
    out = dtn_apply(space, w_nodes, p_laplacian_flux(2.5), fb)
    total = float(space.nu[bd] @ out)
    assert abs(total) <= 1e-10 * (1.0 + float(np.abs(out).max()))


def test_dtn_matches_schur_complement():
    rng = np.random.default_rng(21)
    space = random_space(rng, 6)
    w_nodes = space.node_set([1, 4])
    bd = m_boundary(space, w_nodes)
    fb = rng.standard_normal(bd.size)
    out = dtn_apply(space, w_nodes, P2, fb)
    schur = schur_dtn_oracle(DenseInstance.from_space(space), w_nodes)
    # the oracle matrix acts on measure-weighted coordinates
    expected = (schur @ fb) / space.nu[bd]
    assert np.allclose(out, expected, atol=1e-10)


def test_dtn_evolution_conserves_boundary_mass():
    rng = np.random.default_rng(2)
    space = random_space(rng, 6)
    w_nodes = space.node_set([2, 3])
    bd = m_boundary(space, w_nodes)
    w0 = rng.random(bd.size)
    sol = dtn_evolve(space, w_nodes, P2, None, w0, 0.5, 8)
    nu_bd = space.nu[bd]
    start = float(nu_bd @ w0)
    for i in range(9):
        assert float(nu_bd @ sol.w[i]) == pytest.approx(start, abs=1e-9)


def test_dtn_evolve_needs_a_boundary():
    with pytest.raises(InvalidParameter):
        dtn_evolve(TWO_NODE, [0, 1], P2, None, np.zeros(0), 1.0, 2)


# -- free-boundary trajectories on a kernel grid -------------------------------

def _grid(side):
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    ring = ((xs == 0) | (ys == 0) | (xs == side - 1) | (ys == side - 1)).ravel()
    space = from_kernel_grid(points, 1.0, {"type": "indicator", "radius": 1.5})
    return space, DomainPartition(np.where(~ring)[0], np.where(ring)[0])


GRID, RING = _grid(7)
# law, and the span its initial states are spread over
GRID_LAWS = {
    "stefan": (lambda: make_stefan(1.0), (-1.0, 2.0)),
    "hele_shaw": (make_hele_shaw, (-0.5, 1.5)),
    "obstacle": (lambda: make_obstacle(-1.0, 1.0, make_identity()), (-2.0, 2.0)),
    "power2": (lambda: make_power(2.0), (-1.0, 1.0)),
}


def grid_problem(seed, law):
    """Dynamical trajectory with the same law on both parts of the 7x7 grid.

    Initial states take one value per equal slice of the law's span, so
    every trajectory starts with nodes on both sides of the jumps.
    Constant sources are added when the law's range is the whole line.
    """
    rng = np.random.default_rng(seed)
    make, (lo, hi) = GRID_LAWS[law]
    graph = make()

    def draw(n):
        v = lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
        return np.clip(v, graph.range_inf, graph.range_sup)

    o1, o2 = RING.omega1, RING.omega2
    v0, w0 = draw(o1.size), draw(o2.size)
    f = g = None
    if np.isinf(graph.range_inf) and np.isinf(graph.range_sup):
        f = rng.uniform(-0.5, 0.5, o1.size)
        g = rng.uniform(-0.5, 0.5, o2.size)
    return EvolutionProblem(
        space=GRID, partition=RING, flux=P2, gamma=graph, beta=graph,
        mode="dynamical", v0=v0, w0=w0, f=f, g=g, horizon=0.5,
    )


@pytest.fixture
def step_pairs(monkeypatch):
    """(problem, pair) of every step that mild_solve solves in the test."""
    seen = []
    solve = evolution._solve

    def recording(problem, op, start, tol):
        pair = solve(problem, op, start, tol)
        seen.append((problem, pair))
        return pair

    monkeypatch.setattr(evolution, "_solve", recording)
    return seen


@pytest.mark.parametrize(
    "law, steps", [("stefan", 4), ("hele_shaw", 8), ("power2", 8)]
)
def test_free_boundary_grid_steps_take_no_schedule_level(step_pairs, law, steps):
    """Every warm-started step of the free-boundary grid trajectories
    verifies.  The name is from when a step could fall back to the
    regularization schedule, now deleted; these steps never did."""
    for seed in range(6):
        mild_solve(grid_problem(seed, law), steps)
    assert len(step_pairs) == 6 * steps
    for problem, pair in step_pairs:
        assert verify_solution(problem, pair, DEFAULT_TOL).passed


def test_obstacle_grid_trajectories_verify_every_step(step_pairs):
    """Seed 3 is a feasible trajectory on which the regularization schedule,
    since deleted, ran all 41 levels (44 s) and then raised SolverDiverged."""
    for seed in range(8):
        start = time.perf_counter()
        sol = mild_solve(grid_problem(seed, "obstacle"), 8)
        assert time.perf_counter() - start < 10.0, "seed %d too slow" % seed
        assert np.all(np.abs(sol.u[:, RING.omega]) <= 1.0)
    assert len(step_pairs) == 64
    for problem, pair in step_pairs:
        assert verify_solution(problem, pair, DEFAULT_TOL).passed


# -- T-contraction ---------------------------------------------------------------

def _one_sided_distance(problem, sol1, sol2):
    """sum nu*(v1 - v2)+ at every time, plus sum nu*(w1 - w2)+ in the
    dynamical mode, where w is a state too."""
    nu = problem.space.nu
    dist = np.maximum(sol1.v - sol2.v, 0.0) @ nu[problem.partition.omega1]
    if problem.mode == "dynamical":
        dist += np.maximum(sol1.w - sol2.w, 0.0) @ nu[problem.partition.omega2]
    return dist


def _dtn_solve(problem, steps):
    return dtn_evolve(problem.space, problem.partition.omega1, problem.flux,
                      problem.g, problem.w0, problem.horizon, steps)


def _contraction_pairs():
    """(problem, partner, solve): trajectories that differ only in their
    initial states, and the solver that marches them."""
    for law in ("stefan", "obstacle", "power2"):
        for seed in range(3):
            problem, other = grid_problem(seed, law), grid_problem(seed + 10, law)
            partner = dataclasses.replace(problem, v0=other.v0, w0=other.w0)
            yield problem, partner, mild_solve
        static = dataclasses.replace(problem, mode="static_boundary", w0=None, g=None)
        yield static, dataclasses.replace(static, v0=other.v0), mild_solve
    width = RING.omega2.size
    for seed in range(3):
        rng = np.random.default_rng(seed)
        g, w0 = rng.uniform(-0.5, 0.5, width), rng.uniform(-1.0, 1.0, width)
        dtn = evolution._dtn_problem(GRID, RING.omega1, P2, g, w0, 0.5)
        partner = dataclasses.replace(dtn, w0=rng.uniform(-1.0, 1.0, width))
        yield dtn, partner, _dtn_solve


def test_trajectories_are_t_contractions():
    """Two trajectories of the same problem from different initial states:
    the one-sided distance sum nu*(state1 - state2)+, either way round,
    never grows by more than the two trajectories' residual allowance per
    step, 2*DEFAULT_TOL*(1 + max|psi|)*nu(Omega), the allowance of the
    benchmark's contraction check.  Covers the dynamical mode (Stefan,
    obstacle and power-2 laws), the static-boundary mode and dtn_evolve."""
    steps = 4
    for problem, partner, solve in _contraction_pairs():
        sols = [solve(p, steps) for p in (problem, partner)]
        states = [s.v for s in sols]
        if problem.mode == "dynamical":
            states += [s.w for s in sols]
        tau = problem.horizon / steps
        psi = max(float(np.max(np.abs(x), initial=0.0)) for x in states)
        psi += tau * max(float(np.max(np.abs(s.f_averages))) for s in sols)
        nu_omega = float(problem.space.nu[problem.partition.omega].sum())
        allowance = 2.0 * DEFAULT_TOL * (1.0 + psi) * nu_omega
        for first, second in (sols, sols[::-1]):
            dist = _one_sided_distance(problem, first, second)
            assert np.all(np.diff(dist) <= allowance), (problem.mode, dist)
