"""Implicit-Euler evolution built on the stationary resolvent.

Two operators drive the dynamics.  In dynamical mode the state evolves on
the whole partition: a bulk state ``v`` tied to ``gamma`` on omega1 and a
boundary state ``w`` tied to ``beta`` on omega2, both fed by time sources.
In static-boundary mode only the bulk state evolves; omega2 carries the
stationary constraint ``w - div u = 0`` with ``w`` in ``beta(u)`` at every
instant.  Each time step solves one stationary problem with the step size
as divergence scaling, so the trajectory inherits the resolvent's
contraction and conservation properties step by step.

The Dirichlet-to-Neumann pieces at the end reuse the same machinery: the
stationary lifting solves the flux balance on the interior with pinned
boundary values, and the evolving variant is dynamical mode with the zero
graph on the interior and the identity on the boundary.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CompatibilityViolated,
    InvalidParameter,
    RangeInfeasible,
)
from .flux import LerayLionsFlux, NonlocalOperator, neumann_n1
from .monotone import MonotoneGraph, make_identity, make_zero
from .space import DomainPartition, FiniteRandomWalkSpace, m_boundary
from .stationary import (
    DEFAULT_TOL,
    SolutionPair,
    StationaryProblem,
    _check_domain,
    _check_feasible,
    _damped_newton,
    _NewtonMatrix,
    _solve,
    _weighted_bound,
    solve_gp,
)

# 4-point Gauss-Legendre rule on [-1, 1]; weights sum to 2.
_GAUSS_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GAUSS_WEIGHTS = np.array(
    [0.34785484513745385, 0.6521451548625461, 0.6521451548625461, 0.34785484513745385]
)

_MODES = ("dynamical", "static_boundary")


# ---------------------------------------------------------------------------
# time sources
# ---------------------------------------------------------------------------

def _as_source(source, width, horizon, name):
    """Classify a forcing term into (kind, payload) and validate it.

    Accepted forms: None (no forcing), a constant node vector, a
    piecewise-constant table ``(edges, rows)`` whose intervals cover
    ``[0, horizon]``, or a callable ``t -> node vector``.
    """
    if source is None:
        return ("zero", None)
    if callable(source):
        return ("callable", source)
    if isinstance(source, tuple):
        if len(source) != 2:
            raise InvalidParameter("%s table must be an (edges, rows) pair" % name)
        edges = np.asarray(source[0], dtype=float)
        rows = np.asarray(source[1], dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges)):
            raise InvalidParameter("%s table needs at least two finite edges" % name)
        if np.any(np.diff(edges) <= 0):
            raise InvalidParameter("%s table edges must be strictly increasing" % name)
        if rows.shape != (edges.size - 1, width):
            raise InvalidParameter(
                "%s table rows must have shape (%d, %d)" % (name, edges.size - 1, width)
            )
        if not np.all(np.isfinite(rows)):
            raise InvalidParameter("%s table rows must be finite" % name)
        if edges[0] > 0.0 or edges[-1] < horizon:
            raise InvalidParameter(
                "%s table must cover [0, %g]" % (name, horizon)
            )
        return ("table", (edges, rows))
    arr = np.asarray(source, dtype=float)
    if arr.shape != (width,):
        raise InvalidParameter("%s must be a length-%d vector" % (name, width))
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter("%s must be finite" % name)
    return ("const", arr.copy())


def _call_source(fn, t, width, name):
    out = np.asarray(fn(t), dtype=float)
    if out.shape != (width,):
        raise InvalidParameter(
            "%s(t=%g) must return a length-%d vector" % (name, t, width)
        )
    if not np.all(np.isfinite(out)):
        raise InvalidParameter("%s(t=%g) returned non-finite values" % (name, t))
    return out


def _source_average(kind, payload, t0, t1, width, name):
    """Average of the source over (t0, t1]; exact except for callables."""
    if kind == "zero":
        return np.zeros(width)
    if kind == "const":
        return payload.copy()
    if kind == "table":
        edges, rows = payload
        lo = np.maximum(edges[:-1], t0)
        hi = np.minimum(edges[1:], t1)
        weight = np.maximum(hi - lo, 0.0)
        return (weight @ rows) / (t1 - t0)
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    acc = np.zeros(width)
    for node, wgt in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        acc += wgt * _call_source(payload, mid + half * node, width, name)
    return 0.5 * acc


def _source_peak(kind, payload, horizon, width, name, samples=33):
    """Sup-norm of the source on [0, horizon]; sampled for callables."""
    if kind == "zero" or width == 0:
        return 0.0
    if kind == "const":
        return float(np.max(np.abs(payload)))
    if kind == "table":
        edges, rows = payload
        hit = (edges[1:] > 0.0) & (edges[:-1] < horizon)
        return float(np.max(np.abs(rows[hit]))) if np.any(hit) else 0.0
    peak = 0.0
    for t in np.linspace(0.0, horizon, samples):
        peak = max(peak, float(np.max(np.abs(_call_source(payload, t, width, name)))))
    return peak


# ---------------------------------------------------------------------------
# problem and trajectory containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionProblem:
    """One evolution scenario on a partitioned space.

    Attributes
    ----------
    space, partition, flux, gamma, beta
        As in StationaryProblem.
    mode : str
        "dynamical" evolves states on both parts; "static_boundary"
        evolves the bulk only and keeps omega2 in stationary balance.
    v0 : ndarray
        Initial bulk state over omega1, inside the closed range of gamma.
    w0 : ndarray, optional
        Initial boundary state over omega2 (dynamical mode only), inside
        the closed range of beta.
    f, g
        Time sources over omega1 and omega2 (g in dynamical mode only):
        None, a constant vector, an ``(edges, rows)`` piecewise-constant
        table covering the horizon, or a callable of time.
    horizon : float
        Final time, strictly positive.
    """

    space: FiniteRandomWalkSpace
    partition: DomainPartition
    flux: LerayLionsFlux
    gamma: MonotoneGraph
    beta: MonotoneGraph
    mode: str
    v0: np.ndarray
    w0: np.ndarray = None
    f: object = None
    g: object = None
    horizon: float = 1.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InvalidParameter("mode must be one of %s" % (_MODES,))
        horizon = float(self.horizon)
        if not np.isfinite(horizon) or horizon <= 0.0:
            raise InvalidParameter("horizon must be a positive finite time")
        object.__setattr__(self, "horizon", horizon)
        n1 = self.partition.omega1.size
        n2 = self.partition.omega2.size
        v0 = np.asarray(self.v0, dtype=float)
        if v0.shape != (n1,) or not np.all(np.isfinite(v0)):
            raise InvalidParameter("v0 must be a finite length-%d vector" % n1)
        lo, hi = self.gamma.range_bounds()
        if np.any(v0 < lo) or np.any(v0 > hi):
            raise InvalidParameter("v0 must lie in the closed range of gamma")
        object.__setattr__(self, "v0", v0.copy())
        if self.mode == "dynamical":
            w0 = self.w0
            if w0 is None and n2 == 0:
                w0 = np.zeros(0)
            w0 = np.asarray(w0, dtype=float) if w0 is not None else None
            if w0 is None or w0.shape != (n2,) or not np.all(np.isfinite(w0)):
                raise InvalidParameter("w0 must be a finite length-%d vector" % n2)
            blo, bhi = self.beta.range_bounds()
            if np.any(w0 < blo) or np.any(w0 > bhi):
                raise InvalidParameter("w0 must lie in the closed range of beta")
            object.__setattr__(self, "w0", w0.copy())
        else:
            if n2 == 0:
                raise InvalidParameter("static boundary mode needs a nonempty omega2")
            if self.w0 is not None:
                raise InvalidParameter("w0 is only meaningful in dynamical mode")
            if self.g is not None:
                raise InvalidParameter("g is only meaningful in dynamical mode")
        _as_source(self.f, n1, horizon, "f")
        if self.mode == "dynamical":
            _as_source(self.g, n2, horizon, "g")

    @cached_property
    def _shared_operator(self):
        """The operator over Omega, taken on first use and shared by every
        trajectory of the problem (refinements included) and its strong
        residual."""
        omega = self.partition.omega
        return NonlocalOperator(self.space, self.flux, omega, omega)


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of the range-compatibility probe for an evolution problem.

    ``r_minus``/``r_plus`` are the bounds the probe values are held
    against: projected-mass bounds in dynamical mode, boundary absorption
    bounds in static mode.  ``probe_values`` carries the projected masses
    (dynamical) or the bulk source integrals per probe window (static).
    """

    mode: str
    passed: bool
    r_minus: float
    r_plus: float
    margin: float
    probe_times: np.ndarray
    probe_values: np.ndarray
    violation_time: float = None
    detail: str = ""


@dataclass(frozen=True)
class MildSolution:
    """Implicit-Euler trajectory with its forcing averages and mass ledger.

    Row i of ``v`` (and ``w``) is the state at ``times[i]``; row 0 holds the
    initial data.  In static-boundary mode the boundary trace exists only
    from the first step on, so ``w[0]`` is NaN padding there.  ``u[i]`` is
    the full-length potential of step i+1.  ``f_averages`` stores the
    per-step forcing averages scattered to full node vectors, and
    ``mass_series`` the nu-weighted total of the evolving state.
    ``compatibility`` is the passed probe report the trajectory ran under.
    """

    mode: str
    step_count: int
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    f_averages: np.ndarray
    mass_series: np.ndarray
    residuals: np.ndarray
    compatibility: CompatibilityReport = None


@dataclass(frozen=True)
class StrongResidualReport:
    """Per-step equation residuals and the conjugate-energy ledger."""

    step_residuals: np.ndarray
    jstar_initial: float
    jstar_final: float
    pairing_sum: float
    boundary_work: float
    source_work: float
    energy_gap: float
    passed: bool


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------

def _step_problem(problem, beta, phi, lam):
    """The stationary problem of one implicit step of size ``lam``."""
    return StationaryProblem(
        space=problem.space, partition=problem.partition, flux=problem.flux,
        gamma=problem.gamma, beta=beta, phi=phi, lambda_scale=lam,
    )


def resolvent_dynamical(problem, lam, psi) -> SolutionPair:
    """Solve v - lam * div u = psi with the problem's graphs on both parts.

    ``psi`` is a full-length node vector; entries off the partition are
    ignored.  Raises RangeInfeasible or SolverDiverged like solve_gp.
    """
    lam = float(lam)
    if not lam > 0:
        raise InvalidParameter("lam must be positive")
    return solve_gp(_step_problem(problem, problem.beta, psi, lam))


def resolvent_static_boundary(problem, lam, psi):
    """One backward step of the static-boundary operator.

    Solves v - lam * div u = psi on omega1 with v in gamma(u) while
    omega2 stays in stationary balance: w - div u = 0 with w in beta(u).
    ``psi`` is a vector over omega1.  Returns (v over omega1, u over all
    nodes, w over omega2).
    """
    lam = float(lam)
    if not lam > 0:
        raise InvalidParameter("lam must be positive")
    o1 = problem.partition.omega1
    o2 = problem.partition.omega2
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (o1.size,) or not np.all(np.isfinite(psi)):
        raise InvalidParameter("psi must be a finite length-%d vector" % o1.size)
    phi = np.zeros(problem.space.node_count)
    phi[o1] = psi
    pair = solve_gp(_step_problem(problem, problem.beta.scale_values(lam), phi, lam))
    return pair.v[o1], pair.u, pair.v[o2] / lam


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------

def compatibility_check(problem, n_probe) -> CompatibilityReport:
    """Probe the range condition the implicit steps will rely on.

    Dynamical mode projects the state mass forward along the source
    integral and requires it to stay strictly inside the range bounds
    with margin 2 * (horizon / n_probe) * peak-source * nu(omega).
    Static mode checks, on each probe window, that the bulk source
    integral does not exceed what the boundary graph can absorb; the
    check passes vacuously when the range bounds are infinite.
    """
    n_probe = int(n_probe)
    if n_probe < 1:
        raise InvalidParameter("n_probe must be a positive integer")
    space = problem.space
    o1 = problem.partition.omega1
    o2 = problem.partition.omega2
    nu1 = space.nu[o1]
    nu2 = space.nu[o2]
    horizon = problem.horizon
    glo, ghi = problem.gamma.range_bounds()
    blo, bhi = problem.beta.range_bounds()
    times = np.linspace(0.0, horizon, n_probe + 1)
    fk, fp = _as_source(problem.f, o1.size, horizon, "f")

    if problem.mode == "dynamical":
        gk, gp = _as_source(problem.g, o2.size, horizon, "g")
        r_minus = _weighted_bound(float(nu1.sum()), glo) + _weighted_bound(
            float(nu2.sum()), blo
        )
        r_plus = _weighted_bound(float(nu1.sum()), ghi) + _weighted_bound(
            float(nu2.sum()), bhi
        )
        peak = max(
            _source_peak(fk, fp, horizon, o1.size, "f"),
            _source_peak(gk, gp, horizon, o2.size, "g"),
        )
        margin = 2.0 * (horizon / n_probe) * peak * float(nu1.sum() + nu2.sum())
        values = np.empty(n_probe + 1)
        values[0] = float(nu1 @ problem.v0) + float(nu2 @ problem.w0)
        for i in range(1, n_probe + 1):
            t0, t1 = times[i - 1], times[i]
            step = (t1 - t0) * (
                float(nu1 @ _source_average(fk, fp, t0, t1, o1.size, "f"))
                + float(nu2 @ _source_average(gk, gp, t0, t1, o2.size, "g"))
            )
            values[i] = values[i - 1] + step
        low_ok = (r_minus == -np.inf) | (values > r_minus + margin)
        high_ok = (r_plus == np.inf) | (values < r_plus - margin)
        bad = ~(low_ok & high_ok)
        detail = "projected mass %.17g leaves (%g, %g) at t=%g" + (
            " (margin %g)" % margin
        )
    else:
        # static boundary: the bulk source must be absorbable by the boundary
        nu2_total = float(nu2.sum())
        plus_open = (o1.size and ghi == np.inf) or (o2.size and bhi == np.inf)
        minus_open = (o1.size and glo == -np.inf) or (o2.size and blo == -np.inf)
        r_plus = np.inf if plus_open else _weighted_bound(nu2_total, bhi)
        r_minus = -np.inf if minus_open else _weighted_bound(nu2_total, blo)
        margin = 0.0
        values = np.array([
            float(nu1 @ _source_average(fk, fp, t0, t1, o1.size, "f"))
            for t0, t1 in zip(times[:-1], times[1:])
        ])
        times = times[1:]
        bad = (values > r_plus) | (values < r_minus)
        detail = (
            "bulk source integral %.17g leaves [%g, %g] on the window ending at t=%g"
        )
    violation = {}
    hits = np.flatnonzero(bad)
    if hits.size:
        i = hits[0]
        violation = dict(
            violation_time=float(times[i]),
            detail=detail % (values[i], r_minus, r_plus, times[i]),
        )
    return CompatibilityReport(
        mode=problem.mode,
        passed=not hits.size,
        r_minus=r_minus,
        r_plus=r_plus,
        margin=margin,
        probe_times=times,
        probe_values=values,
        **violation,
    )


# ---------------------------------------------------------------------------
# mild solving
# ---------------------------------------------------------------------------

def mild_solve(problem, n_steps) -> MildSolution:
    """March the implicit-Euler scheme over the horizon.

    Each step solves one stationary problem with the step size as the
    divergence scaling and the forcing folded into the data, so the
    per-step conservation identity telescopes into the mass ledger.  The
    domain is checked once per trajectory, every step runs on the
    problem's shared operator, the range condition is checked on every
    step, and each step's resolvent Newton starts from the previous
    step's potential, for every pair of graphs.  Raises
    CompatibilityViolated when the probe fails up front or a step loses
    range feasibility, and SolverDiverged from the inner solver.  The
    solution carries the passed CompatibilityReport of the probe.
    """
    n = int(n_steps)
    if n != n_steps or n < 1:
        raise InvalidParameter("n_steps must be a positive integer")
    report = compatibility_check(problem, n)
    if not report.passed:
        raise CompatibilityViolated(
            "compatibility probe failed: " + report.detail, report=report
        )
    space = problem.space
    o1 = problem.partition.omega1
    o2 = problem.partition.omega2
    nu1 = space.nu[o1]
    nu2 = space.nu[o2]
    nn = space.node_count
    tau = problem.horizon / n
    times = np.linspace(0.0, problem.horizon, n + 1)
    fk, fp = _as_source(problem.f, o1.size, problem.horizon, "f")
    dynamical = problem.mode == "dynamical"
    if dynamical:
        gk, gp = _as_source(problem.g, o2.size, problem.horizon, "g")
        w_first = problem.w0.copy()
    else:
        beta_tau = problem.beta.scale_values(tau)
        w_first = np.full(o2.size, np.nan)

    u_rows = np.empty((n, nn))
    v_rows = np.empty((n + 1, o1.size))
    w_rows = np.empty((n + 1, o2.size))
    forcing_rows = np.zeros((n, nn))
    mass = np.empty(n + 1)
    residuals = np.empty(n)
    v_rows[0] = problem.v0
    w_rows[0] = w_first
    mass[0] = float(nu1 @ problem.v0) + (
        float(nu2 @ problem.w0) if dynamical else 0.0
    )

    state = np.zeros(nn)
    state[o1] = problem.v0
    if dynamical:
        state[o2] = problem.w0
    op = problem._shared_operator
    u_start = None
    for i in range(1, n + 1):
        t0, t1 = times[i - 1], times[i]
        forcing = np.zeros(nn)
        forcing[o1] = _source_average(fk, fp, t0, t1, o1.size, "f")
        if dynamical:
            forcing[o2] = _source_average(gk, gp, t0, t1, o2.size, "g")
        psi = state + tau * forcing
        stat = _step_problem(problem, problem.beta if dynamical else beta_tau, psi, tau)
        if i == 1:
            _check_domain(stat)
        try:
            _check_feasible(stat)
        except RangeInfeasible as exc:
            raise CompatibilityViolated(
                "range condition failed at step %d (t=%.6g); the "
                "compatibility margin was insufficient" % (i, times[i]),
                report=exc.report,
            ) from exc
        pair = _solve(stat, op, u_start, DEFAULT_TOL)
        u_start = pair.u[op.rows]
        u_rows[i - 1] = pair.u
        v_rows[i] = pair.v[o1]
        w_rows[i] = pair.v[o2] if dynamical else pair.v[o2] / tau
        forcing_rows[i - 1] = forcing
        residuals[i - 1] = pair.residual_inf
        state = np.zeros(nn)
        state[o1] = v_rows[i]
        if dynamical:
            state[o2] = w_rows[i]
        mass[i] = float(nu1 @ v_rows[i]) + (
            float(nu2 @ w_rows[i]) if dynamical else 0.0
        )
    return MildSolution(
        mode=problem.mode,
        step_count=n,
        times=times,
        u=u_rows,
        v=v_rows,
        w=w_rows,
        f_averages=forcing_rows,
        mass_series=mass,
        residuals=residuals,
        compatibility=report,
    )


def refine_and_compare(problem, n_start, doublings):
    """Cauchy diagnostics for the time discretization.

    Solves with n_start, 2*n_start, ... steps and returns a list of
    (n, sup-over-time L1(nu) distance between the n-step and 2n-step
    trajectories), comparing the step functions on the finer grid.
    """
    n_start = int(n_start)
    if n_start < 1:
        raise InvalidParameter("n_start and doublings must be positive")
    return _refine(problem, mild_solve(problem, n_start), doublings)


def _refine(problem, base, doublings):
    """``refine_and_compare`` from ``base``, the trajectory already solved
    with its first step count."""
    doublings = int(doublings)
    if doublings < 1:
        raise InvalidParameter("n_start and doublings must be positive")
    nu1 = problem.space.nu[problem.partition.omega1]
    nu2 = problem.space.nu[problem.partition.omega2]
    dynamical = problem.mode == "dynamical"
    solutions = [base] + [
        mild_solve(problem, base.step_count << k) for k in range(1, doublings + 1)
    ]
    out = []
    for coarse, fine in zip(solutions, solutions[1:]):
        n = coarse.step_count
        worst = 0.0
        for j in range(2 * n + 1):
            ci = (j + 1) // 2
            dist = float(nu1 @ np.abs(coarse.v[ci] - fine.v[j]))
            if dynamical and nu2.size:
                dist += float(nu2 @ np.abs(coarse.w[ci] - fine.w[j]))
            worst = max(worst, dist)
        out.append((n, worst))
    return out


# ---------------------------------------------------------------------------
# strong residuals and the energy ledger
# ---------------------------------------------------------------------------

def _conjugate_sum(graph, values, nu, what):
    terms = graph.conjugate(values)
    infinite = terms == np.inf
    if np.any(infinite):
        raise InvalidParameter(
            "%s has infinite conjugate energy at value %g"
            % (what, values[infinite][0])
        )
    return float(nu @ terms)


def strong_residual(problem, solution) -> StrongResidualReport:
    """Check the trajectory as a strong discrete solution.

    Reports the per-step sup-norm of (state change)/tau - div u - forcing
    and the conjugate-energy ledger: final energy plus accumulated
    dissipation (plus boundary work in static mode) must not exceed the
    initial energy plus source work.  Initial data outside the conjugate
    domain is rejected.
    """
    space = problem.space
    o1 = problem.partition.omega1
    o2 = problem.partition.omega2
    nu1 = space.nu[o1]
    nu2 = space.nu[o2]
    omega = problem.partition.omega
    boundary = problem.partition.boundary_mask
    n = solution.step_count
    tau = problem.horizon / n
    dynamical = problem.mode == "dynamical"
    op = problem._shared_operator

    jstar_initial = _conjugate_sum(problem.gamma, solution.v[0], nu1, "v0")
    jstar_final = _conjugate_sum(problem.gamma, solution.v[n], nu1, "v(T)")
    if dynamical and o2.size:
        jstar_initial += _conjugate_sum(problem.beta, solution.w[0], nu2, "w0")
        jstar_final += _conjugate_sum(problem.beta, solution.w[n], nu2, "w(T)")

    step_residuals = np.empty(n)
    pairing_sum = 0.0
    boundary_work = 0.0
    source_work = 0.0
    for i in range(1, n + 1):
        u = solution.u[i - 1]
        u_omega = u[omega]
        div = op.apply(u_omega)
        forcing = solution.f_averages[i - 1]
        rate = (solution.v[i] - solution.v[i - 1]) / tau
        res = rate - div[~boundary] - forcing[o1]
        if dynamical and o2.size:
            rate_w = (solution.w[i] - solution.w[i - 1]) / tau
            res = np.concatenate([res, rate_w - div[boundary] - forcing[o2]])
        step_residuals[i - 1] = float(np.max(np.abs(res))) if res.size else 0.0
        pairing_sum += tau * op.pairing(u_omega, u_omega)
        source_work += tau * float((space.nu * forcing) @ u)
        if not dynamical:
            boundary_work += tau * float(nu2 @ (solution.w[i] * u[o2]))
    rhs = jstar_initial + source_work
    lhs = jstar_final + pairing_sum + boundary_work
    gap = rhs - lhs
    tol = 1e-8 * (
        1.0
        + abs(jstar_initial)
        + abs(jstar_final)
        + pairing_sum
        + abs(source_work)
        + abs(boundary_work)
    )
    return StrongResidualReport(
        step_residuals=step_residuals,
        jstar_initial=jstar_initial,
        jstar_final=jstar_final,
        pairing_sum=pairing_sum,
        boundary_work=boundary_work,
        source_work=source_work,
        energy_gap=gap,
        passed=bool(gap >= -tol),
    )


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann
# ---------------------------------------------------------------------------

def dtn_apply(space, W, flux, f_boundary):
    """Lift boundary values across W by flux balance and return the
    inward boundary flux of the lifting on the m-boundary of W.

    Solves div u = 0 at every node of W with u pinned to ``f_boundary``
    on the m-boundary, then evaluates the closure-facing boundary flux.
    """
    w_nodes = space.node_set(W)
    bd = m_boundary(space, W)
    f_boundary = np.asarray(f_boundary, dtype=float)
    if f_boundary.shape != (bd.size,) or not np.all(np.isfinite(f_boundary)):
        raise InvalidParameter(
            "f_boundary must be a finite length-%d vector" % bd.size
        )
    if bd.size == 0:
        return np.zeros(0)
    cl = np.union1d(w_nodes, bd)
    u_template = np.zeros(space.node_count)
    u_template[bd] = f_boundary
    if w_nodes.size:
        op = NonlocalOperator(space, flux, w_nodes, cl)
        w_cols = np.searchsorted(cl, w_nodes)

        def f_and_jac(z):
            u = u_template[cl]
            u[w_cols] = z
            return op.apply(u), lambda: _NewtonMatrix(op, u, 0.0, -1.0)

        scale = 1.0 + float(np.max(np.abs(f_boundary)))
        start = np.full(w_nodes.size, float(f_boundary.mean()))
        z, _, _ = _damped_newton(f_and_jac, start, 1e-12 * scale)
        u_template[w_nodes] = z
    return neumann_n1(space, flux, u_template, w_nodes)


def dtn_evolve(space, W, flux, g, w0, T, n_steps) -> MildSolution:
    """Evolve boundary data under the Dirichlet-to-Neumann operator.

    Realized as dynamical mode on the partition (W, m-boundary of W)
    with the zero graph inside W and the identity on the boundary: the
    interior stays an instantaneous lifting while the boundary state
    follows its flux plus the source ``g``.
    """
    return mild_solve(_dtn_problem(space, W, flux, g, w0, T), n_steps)


def _dtn_problem(space, W, flux, g, w0, T):
    """The EvolutionProblem that ``dtn_evolve`` marches."""
    w_nodes = space.node_set(W)
    bd = m_boundary(space, w_nodes)
    if bd.size == 0:
        raise InvalidParameter("W has no m-boundary to evolve")
    return EvolutionProblem(
        space=space,
        partition=DomainPartition(w_nodes, bd),
        flux=flux,
        gamma=make_zero(),
        beta=make_identity(),
        mode="dynamical",
        v0=np.zeros(w_nodes.size),
        w0=w0,
        f=None,
        g=g,
        horizon=T,
    )
