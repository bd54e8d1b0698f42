"""Stationary doubly nonlinear solver on a finite random walk space.

The problem posed on a node set Omega split into a bulk part and a boundary
part: find u and v with v in the bulk graph of u on omega1, v in the
boundary graph of u on omega2, and v - lambda*div u = phi on all of Omega.

One path solves it: for mu > 0, v lies in the graph at u exactly when
u = J_mu(u + mu*v), with J_mu the graph's resolvent, so semismooth Newton
runs on F(u) = u - J_mu(u + mu*(phi + lambda*div u)) with the elementwise
derivative of J_mu (the primal-dual active-set method), at the step
mu = min(1, 1/lambda).  v is then recovered from the equation and the pair
verified.  When every node sits on a flat piece of its graph, the Newton
matrix is singular along constants and Newton cannot place them, so a
Newton that stalls or fails verification restarts once from the point it
reached, shifted by the constant that balances the data's mass against
the graphs' values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameter,
    NotConnected,
    RangeInfeasible,
    SolverDiverged,
)
from .flux import LerayLionsFlux, NonlocalOperator
from .monotone import MonotoneGraph
from .space import (
    DomainPartition,
    FiniteRandomWalkSpace,
    _poincare_estimates,
    estimate_poincare_constant,  # noqa: F401  (nldiff_bench/tracing.py patches it here)
    is_m_connected,
)

DEFAULT_TOL = 1e-9
RANGE_EPS_BASE = 1e-10
NEWTON_ITERATION_CAP = 420
# the PCG of a matrix-free Newton step: its loosest and tightest relative
# residual, and its iteration cap per row (exact CG needs one per row, and
# rounding delays it: up to 1.9 on a 400-node chain at lambda = 1e4).  A
# forcing cap of 0.5 took up to three times the Newton iterations of 0.1,
# and more CG iterations in all, on 30x30 and 40x40 grids at lambda = 1e4.
FORCING_MAX = 0.1
CG_TIGHT = 1e-12
CG_ITERATIONS_PER_ROW = 4


@dataclass(frozen=True)
class StationaryProblem:
    """One stationary scenario: space, partition, flux, graphs, and data.

    Attributes
    ----------
    space : FiniteRandomWalkSpace
    partition : DomainPartition
        Bulk nodes (omega1) and boundary nodes (omega2).
    flux : LerayLionsFlux
    gamma, beta : MonotoneGraph
        State graphs on the bulk and boundary parts.
    phi : ndarray
        Data as a full-length node vector; entries off the partition are
        ignored.
    integration_set : str
        "Q1" couples every pair in Omega, "Q2" drops boundary-boundary
        pairs.
    lambda_scale : float
        Factor multiplying the divergence term (time step in evolution use).
    """

    space: FiniteRandomWalkSpace
    partition: DomainPartition
    flux: LerayLionsFlux
    gamma: MonotoneGraph
    beta: MonotoneGraph
    phi: np.ndarray
    integration_set: str = "Q1"
    lambda_scale: float = 1.0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != (self.space.node_count,):
            raise InvalidParameter(
                "phi must be a length-%d node vector" % self.space.node_count
            )
        omega = self.partition.omega
        if not np.all(np.isfinite(phi[omega])):
            raise InvalidParameter("phi must be finite on the partition")
        object.__setattr__(self, "phi", phi.copy())
        if self.integration_set not in ("Q1", "Q2"):
            raise InvalidParameter("integration_set must be 'Q1' or 'Q2'")
        if not self.lambda_scale > 0:
            raise InvalidParameter("lambda_scale must be positive")

    @property
    def _mask_spec(self):
        if self.integration_set == "Q2":
            return ("Q2", self.partition.omega2)
        return "Q1"

    def _operator(self):
        """The problem's operator, built on first use and shared by its
        solve, verification and energy report."""
        return self._shared_operator

    @cached_property
    def _shared_operator(self):
        omega = self.partition.omega
        return NonlocalOperator(self.space, self.flux, omega, omega, self._mask_spec)

    @cached_property
    def _connected(self):
        """Whether omega is m-connected, searched once per problem: by
        its solve's domain check, then read by its energy report."""
        return is_m_connected(self.space, self.partition.omega)

    @cached_property
    def _graph_parts(self):
        """(graph, mask over Omega) of the parts present, formed once."""
        boundary = self.partition.boundary_mask
        parts = ((self.gamma, ~boundary), (self.beta, boundary))
        return [(g, mask) for g, mask in parts if np.any(mask)]


@dataclass(frozen=True)
class RangeReport:
    r_minus: float
    r_plus: float
    integral_phi: float
    feasible: bool
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    inclusion_gap: float
    equation_residual: float
    conservation_gap: float
    passed: bool
    failures: tuple = ()


@dataclass(frozen=True)
class SolutionPair:
    """A solution pair.  ``verification`` is the VerificationReport that
    accepted it, None for a pair not built by the solver.
    ``schedule_trace`` is always (); it stays for the readers of the CLI
    report."""

    u: np.ndarray
    v: np.ndarray
    residual_inf: float
    iterations: int
    schedule_trace: tuple = ()
    verification: VerificationReport = None


def check_range(problem: StationaryProblem) -> RangeReport:
    """Mass bounds from the graph ranges against the data integral."""
    part = problem.partition
    nu = problem.space.nu
    nu1 = float(nu[part.omega1].sum())
    nu2 = float(nu[part.omega2].sum())
    r_minus = _weighted_bound(nu1, problem.gamma.range_inf) + _weighted_bound(
        nu2, problem.beta.range_inf
    )
    r_plus = _weighted_bound(nu1, problem.gamma.range_sup) + _weighted_bound(
        nu2, problem.beta.range_sup
    )
    omega = part.omega
    integral = float((nu[omega] * problem.phi[omega]).sum())
    margin = min(integral - r_minus, r_plus - integral)
    eps = RANGE_EPS_BASE * (1.0 + abs(integral))
    return RangeReport(
        r_minus=r_minus,
        r_plus=r_plus,
        integral_phi=integral,
        feasible=bool(margin >= eps),
        margin=margin,
    )


def _weighted_bound(mass, bound):
    if mass == 0.0:
        return 0.0
    return mass * bound


# ---------------------------------------------------------------------------
# shared damped Newton driver
# ---------------------------------------------------------------------------

def _damped_newton(f_and_jac, u0, tol, rounding=None):
    """Semismooth Newton with Armijo backtracking and a diagonal shift.

    ``f_and_jac(u)`` evaluates the system once at u and returns (F, jac):
    jac() builds the ``_NewtonMatrix`` at u from the slopes that evaluation
    took, diag(c) + diag(b)*L, L the weighted graph Laplacian of the
    operator's pair slopes: c = 1 - D, b = mu*lam*D on the resolvent form,
    c the graph and penalty slopes, b = lam on the regularized form, and
    c = 0, b = -1 on the Dirichlet-to-Neumann lift.  Each point is
    evaluated once: an accepted trial point becomes the iterate with its
    F, and only then is its matrix built.
    On a direct operator (a block at least half full, or fewer than
    DIRECT_SOLVE_ROWS rows) J is formed and solved by np.linalg.solve; on
    the others it stays in pair form, solved by Jacobi-PCG to a relative
    residual eta that follows the residual's decrease, 0.9*(|F|/|F_last|)**2
    (Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996), between CG_TIGHT
    and FORCING_MAX, and no tighter than a tenth of what ``tol`` asks for.
    When the plain Newton step fails the line search, or its CG reaches the
    iteration cap, the system is re-solved with a growing shift on the
    diagonal, which keeps the step useful when kink slopes make the
    Jacobian nearly singular (p < 2 fluxes floor their slope at huge values
    near zero differences).  Once the residual is within ``tol``, one last
    full Newton step is kept if it lowers the residual, so callers that
    read a quantity off the residual (v from the equation) get it to
    rounding level rather than to the stopping tolerance.  Its CG solves to
    CG_TIGHT, or only to ``rounding(u)``, F's rounding at a typical node at
    u, where that is looser: a 2-norm residual below it leaves no node's
    residual above it, and a smaller one is lost in F's own rounding.

    Both solves are safe on every J its callers form.  L has off-diagonal
    entries -m*a' <= 0 and a diagonal of their row sums, and D lies in
    [0, 1], so J is weakly row diagonally dominant with or without the
    shift: LU pivoting raises np.linalg.LinAlgError only on a singular J,
    which the shift handles.  The pair form fixes the rows with b = 0 and
    scales the others by nu/b, which leaves diag(nu*(c + shift)/b) +
    diag(nu)*L: symmetric, as nu*m is (reversibility) and a' is even, and
    positive definite with the shift on, as CG needs.
    Returns (u, residual_inf, iterations); raises SolverDiverged.
    """
    u = np.array(u0, dtype=float)
    f, jac = f_and_jac(u)
    jac = jac()
    res = float(np.max(np.abs(f)))
    best = res
    mu = 0.0
    eta, norm = FORCING_MAX, None
    for it in range(NEWTON_ITERATION_CAP):
        if res <= tol:
            floor = 0.0 if rounding is None else rounding(u)
            return _last_step(f_and_jac, u, f, jac, res, floor) + (it,)
        merit = 0.5 * float(f @ f)
        if norm is not None:
            eta = 0.9 * 2.0 * merit / (norm * norm)
        norm = math.sqrt(2.0 * merit)
        eta = min(FORCING_MAX, max(eta, 0.1 * tol / norm, CG_TIGHT))
        jac_scale = 1.0 + float(np.max(np.abs(jac.diagonal)))
        accepted = False
        for _ in range(14):
            try:
                step = jac.solve(f, 1e-12 + mu * jac_scale, eta)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                alpha = 1.0
                while alpha > 1e-12:
                    trial = u - alpha * step
                    ft, jac_t = f_and_jac(trial)
                    if np.all(np.isfinite(ft)):
                        merit_t = 0.5 * float(ft @ ft)
                        if merit_t <= merit * (1.0 - 1e-4 * alpha) + 1e-300:
                            u, f, jac = trial, ft, jac_t()
                            res = float(np.max(np.abs(f)))
                            best = min(best, res)
                            accepted = True
                            break
                    alpha *= 0.5
            if accepted:
                mu = 0.0 if mu < 1e-13 else mu / 8.0
                break
            mu = max(mu * 10.0, 1e-8)
        if not accepted:
            break
    raise SolverDiverged(
        "nonlinear solve stalled at residual %g (tolerance %g)" % (best, tol),
        residual=best,
    )


class _NewtonMatrix:
    """diag(c) + diag(b)*L at u, L = -op.jacobian(u) the weighted graph
    Laplacian of the operator's pair slopes.

    On a direct (``NonlocalOperator.direct``) operator it is formed as
    ``matrix``: op.jacobian(u) with its rows scaled by -b and c added to its
    diagonal through the flat stride, and ``solve`` writes the shift onto
    its diagonal (none for shift None) and calls np.linalg.solve, ignoring
    ``rtol``.  Otherwise
    ``matrix`` is None and L stays in pair form (``laplacian``): ``solve(f,
    shift, rtol)`` is (J + shift*I)^-1 f by Jacobi-PCG to a residual of at
    most rtol*|f|_2, raising np.linalg.LinAlgError on a direction of
    nonpositive curvature or at the iteration cap; a negative scalar b takes
    the shift with its sign, so that the system stays definite.
    ``iterations`` counts the last solve's CG iterations.
    """

    def __init__(self, op, u, c, b):
        self.nu, self.c, self.iterations = op.nu, c, 0
        self.b = np.asarray(b, dtype=float)  # a scalar b too has ~(b != 0)
        self.matrix = None
        if op.direct:
            self.matrix = op.jacobian(u)
            self.matrix *= -b if np.ndim(b) == 0 else (-b)[:, None]
            diagonal = self.matrix.reshape(-1)[:: self.matrix.shape[0] + 1]
            diagonal += c
            self.diagonal = diagonal.copy()
        else:
            self.degree, self.dot = op.laplacian(u)
            self.diagonal = c + b * self.degree

    def solve(self, f, shift=None, rtol=CG_TIGHT):
        if self.matrix is not None:
            if shift is not None:
                np.fill_diagonal(self.matrix, self.diagonal + shift)
            return np.linalg.solve(self.matrix, f)
        c, b, zero = self.c, self.b, np.zeros_like(f)
        shift = 0.0 if shift is None else shift
        free = b != 0.0
        x = np.divide(f, c + shift, out=zero.copy(), where=~free)
        # the free rows times nu/b: a + diag(nu)*L, and 0 on the fixed rows
        scale = np.divide(self.nu, b, out=zero.copy(), where=free)
        a = scale * (c + np.where(b < 0.0, -shift, shift))
        nu_free = np.where(free, self.nu, 0.0)
        r = scale * (f - b * self.dot(x))
        inverse = np.divide(1.0, a + nu_free * self.degree, out=zero.copy(),
                            where=free)
        unscale = np.divide(b, self.nu, out=zero.copy(), where=free)
        stop = rtol * math.sqrt(float(f @ f))
        z = inverse * r
        p, rz = z.copy(), float(r @ z)
        for self.iterations in range(CG_ITERATIONS_PER_ROW * f.size + 1):
            ro = r * unscale
            if math.sqrt(float(ro @ ro)) <= stop:
                return x
            q = a * p + nu_free * self.dot(p)
            pq = float(p @ q)
            if not pq > 0.0:
                break
            x += (rz / pq) * p
            r -= (rz / pq) * q
            z = inverse * r
            rz, rz_last = float(r @ z), rz
            p *= rz / rz_last
            p += z
        raise np.linalg.LinAlgError("PCG did not reach its tolerance")


def _last_step(f_and_jac, u, f, jac, res, floor):
    """(u, residual_inf) after one full Newton step, if that lowers it; the
    step is solved to a residual of floor, or of CG_TIGHT*|F|_2 if larger."""
    if res == 0.0:
        return u, res
    try:
        trial = u - jac.solve(f, None, max(CG_TIGHT, floor / math.sqrt(float(f @ f))))
    except np.linalg.LinAlgError:
        return u, res
    ft, _ = f_and_jac(trial)
    res_t = float(np.max(np.abs(ft)))
    return (trial, res_t) if res_t < res else (u, res)


# ---------------------------------------------------------------------------
# approximate (regularized) problem
# ---------------------------------------------------------------------------

def _phi_inf(problem):
    omega = problem.partition.omega
    return float(np.max(np.abs(problem.phi[omega]))) if omega.size else 0.0


def default_truncation(problem, n, k):
    """Truncation level making the guards inactive at the solution."""
    norm = _phi_inf(problem)
    p = problem.flux.p
    m_bound = ((k + n) * norm) ** (1.0 / (p - 1.0)) if norm > 0 else 1.0
    level = max(m_bound, 1.0)
    for g in (problem.gamma, problem.beta):
        for split, lam in ((g.split_plus(), k), (g.split_minus(), n)):
            for s in (m_bound, -m_bound):
                level = max(level, abs(split.yosida(lam, s)))
    return 2.0 * level


def _approx_system(problem, op, n, k, K):
    """Residual/Jacobian closure for the regularized system on Omega."""
    phi = problem.phi[op.rows]
    lam = problem.lambda_scale
    p = problem.flux.p
    inv_n, inv_k = 1.0 / n, 1.0 / k
    parts = [
        (mask, g.split_plus(), g.split_minus())
        for g, mask in problem._graph_parts
    ]

    def f_and_jac(u):
        graph_val = np.empty_like(u)
        graph_slope = np.empty_like(u)
        for mask, gp, gm in parts:
            vp, sp = gp.yosida_slope(k, u[mask])
            vm, sm = gm.yosida_slope(n, u[mask])
            sp = np.where(np.abs(vp) >= K, 0.0, sp)
            sm = np.where(np.abs(vm) >= K, 0.0, sm)
            graph_slope[mask] = sp + sm
            graph_val[mask] = np.clip(vp, -K, K) + np.clip(vm, -K, K)
        up = np.maximum(u, 0.0)
        um = np.maximum(-u, 0.0)
        pen = inv_n * up ** (p - 1.0) - inv_k * um ** (p - 1.0)
        f = graph_val + pen - lam * op.apply(u) - phi

        def jac():
            base = np.maximum(np.abs(u), 1e-12) ** (p - 2.0)
            pen_slope = (p - 1.0) * base * np.where(u >= 0.0, inv_n, inv_k)
            return _NewtonMatrix(op, u, graph_slope + pen_slope, lam)

        return f, jac

    return f_and_jac


def solve_approximate(problem, n, k, K=None):
    """Solve the index-(n, k) regularized system; returns the u vector.

    The equation at each node adds the regularized split graphs (plus part
    at index k, minus part at index n), the odd-power penalty, and the
    divergence term, equal to the data. Residual is driven below
    1e-11*(1+max|phi|).
    """
    if n < 1 or k < 1:
        raise InvalidParameter("indices n, k must be at least 1")
    if K is None:
        K = default_truncation(problem, n, k)
    op = problem._operator()
    tol = 1e-11 * (1.0 + _phi_inf(problem))
    fj = _approx_system(problem, op, n, k, K)
    u, _, _ = _damped_newton(fj, np.zeros(op.rows.size), tol)
    full = np.zeros(problem.space.node_count)
    full[op.rows] = u
    return full


# ---------------------------------------------------------------------------
# limit solve
# ---------------------------------------------------------------------------

def _clamp_near(v, lo, hi, gap_tol):
    """v moved onto [lo, hi] where it misses it by at most gap_tol."""
    v = np.where((v < lo) & (lo - v <= gap_tol), lo, v)
    return np.where((v > hi) & (v - hi <= gap_tol), hi, v)


def _equation_terms(problem, op, u):
    """(lam*div u, 1 + |phi| + lam*sum_j m*|a(u_j - u_i)|) at the row nodes.

    The second vector is the size of the equation's terms at each node,
    the scale of the rounding in any residual formed from them.
    """
    terms = op._terms(u)
    lam = problem.lambda_scale
    size = 1.0 + np.abs(problem.phi[op.rows]) + lam * op._row_sums(np.abs(terms))
    return lam * op._row_sums(terms), size


def _values_near(g, u, delta):
    """Bounds of the graph's values over [u - delta, u + delta] in its domain."""
    lo, hi = g.interval(np.clip(np.array([u - delta, u + delta]), *g.domain))
    return lo[0], hi[1]


def _graph_bounds(problem, u, delta):
    """(lo, hi) over Omega: ``_values_near`` of each node's graph part."""
    lo, hi = np.empty_like(u), np.empty_like(u)
    for g, mask in problem._graph_parts:
        lo[mask], hi[mask] = _values_near(g, u[mask], delta[mask])
    return lo, hi


def _recover_pair(problem, u_sub, op, tol, iterations):
    """Equation-exact v with within-tolerance clamping, then verification.

    v is clamped onto the values verification accepts at u, the graph's
    over u +- tol*(1 + |u|), where it misses them by at most tol times the
    size of the equation's terms at the node, its rounding scale.  Returns
    the pair carrying its VerificationReport; raises SolverDiverged when
    the pair fails verification.
    """
    omega = op.rows
    lam_div, size = _equation_terms(problem, op, u_sub)
    v = problem.phi[omega] + lam_div
    gap_tol = tol * (size + np.abs(v))
    bounds = _graph_bounds(problem, u_sub, tol * (1.0 + np.abs(u_sub)))
    v = _clamp_near(v, *bounds, gap_tol)
    report = _verify(problem, u_sub, v, tol, lam_div, bounds)
    if not report.passed:
        raise SolverDiverged(
            "resolvent Newton pair fails verification: " + "; ".join(report.failures)
        )
    u_full = np.zeros(problem.space.node_count)
    v_full = np.zeros(problem.space.node_count)
    u_full[omega] = u_sub
    v_full[omega] = v
    return SolutionPair(
        u=u_full,
        v=v_full,
        residual_inf=report.equation_residual,
        iterations=iterations,
        verification=report,
    )


def _resolvent_system(problem, op, mu):
    """Residual/Jacobian closure for F(u) = u - J(u + mu*(phi + lam*div u)).

    J applies each node's graph resolvent at step mu, and D is its
    derivative, so the Jacobian is I - D*(I + mu*lam*op.jacobian(u)):
    diag(1 - D) + diag(mu*lam*D)*L in the form of ``_NewtonMatrix``.
    """
    phi = problem.phi[op.rows]
    lam = problem.lambda_scale
    parts = problem._graph_parts

    def f_and_jac(u):
        s = u + mu * (phi + lam * op.apply(u))
        r = np.empty_like(u)
        d = np.empty_like(u)
        for g, mask in parts:
            r[mask], d[mask] = g.resolvent_slope(mu, s[mask])
        return u - r, lambda: _NewtonMatrix(op, u, 1.0 - d, (mu * lam) * d)

    return f_and_jac


def _resolvent_newton(problem, op, start, tol, reached):
    """Verified pair from the resolvent Newton at ``start``.

    The step is mu = min(1, 1/lambda).  Off the graphs' jumps F is mu
    times the equation's residual, so Newton stops at 1e-12*mu times the
    largest size of the equation's terms at ``start``.  F rounds at about
    eps*(|u| + mu*size) at each node, with ``size`` the size of the
    equation's terms at u, which bounds mu*(phi + lam*div u); its root
    mean square is the floor of Newton's last step.  ``reached[0]`` is
    set to each point whose Newton matrix is built, the points Newton
    moves to.  Raises SolverDiverged when Newton stalls or its pair fails
    verification.
    """
    mu = min(1.0, 1.0 / problem.lambda_scale)
    _, size = _equation_terms(problem, op, start)
    fj = _resolvent_system(problem, op, mu)

    def f_and_jac(u):
        f, jac = fj(u)

        def reached_jac():
            reached[0] = u
            return jac()

        return f, reached_jac

    def rounding(u):
        terms = np.abs(u) + mu * _equation_terms(problem, op, u)[1]
        return np.finfo(float).eps * math.sqrt(float(terms @ terms) / terms.size)

    # a direct operator's dense solve has no tolerance to set
    u, _, its = _damped_newton(
        f_and_jac, start, 1e-12 * mu * float(np.max(size)),
        None if op.direct else rounding,
    )
    # u is within the stopping tolerance of the resolvent image, which lies
    # in the graph's domain; clip it there instead of moving u onto the
    # image, which can shift v = phi + lam*div u by far more than the
    # tolerance when p < 2 and neighbouring values nearly agree
    for g, mask in problem._graph_parts:
        u[mask] = np.clip(u[mask], *g.domain)
    return _recover_pair(problem, u, op, tol, its)


def _mass_balanced(problem, op, u):
    """u + c, with c a constant at which the graphs' values hold the data's mass.

    Adding a constant leaves div u unchanged, so along constants the
    problem's convex energy changes only by sum nu*(j(u + c) - phi*c), with
    j the graphs' primitives, and it is least where sum nu*phi lies in
    sum nu*graph(u + c).  When every node sits on a flat piece of its graph,
    the resolvent Newton matrix is singular along constants and Newton drifts
    along them instead of bringing a node onto a jump.  c is bracketed by
    doubling and found by bisection; u comes back unchanged without a
    bracket.
    """
    nu = op.nu
    mass = float(nu @ problem.phi[op.rows])
    parts = problem._graph_parts

    def excess(c):
        # how far the nu-weighted graph values at u + c miss the mass
        lo = hi = 0.0
        for g, mask in parts:
            a, b = g.interval(np.clip(u[mask] + c, *g.domain))
            lo += float(nu[mask] @ a)
            hi += float(nu[mask] @ b)
        return max(lo - mass, 0.0) + min(hi - mass, 0.0)

    below = -1.0 - float(np.max(np.abs(u), initial=0.0))
    above = -below
    for _ in range(64):
        if excess(below) <= 0.0 <= excess(above):
            break
        below, above = 2.0 * below, 2.0 * above
    else:
        return u
    for _ in range(200):
        c = 0.5 * (below + above)
        gap = excess(c)
        if gap == 0.0 or c in (below, above):
            break
        if gap < 0.0:
            below = c
        else:
            above = c
    return u + c


def _check_domain(problem):
    """Raise NotConnected unless the problem's domain hypotheses hold."""
    if not problem._connected:
        raise NotConnected("the problem domain is not m-connected")
    if problem.integration_set == "Q2":
        _check_q2_hypothesis(problem)


def _check_feasible(problem):
    """Raise RangeInfeasible unless the data integral is inside the range."""
    report = check_range(problem)
    if not report.feasible:
        raise RangeInfeasible(
            "data integral %g outside the admissible range (%g, %g)"
            % (report.integral_phi, report.r_minus, report.r_plus),
            report=report,
        )


def solve_gp(problem: StationaryProblem, tol: float = DEFAULT_TOL) -> SolutionPair:
    """Solve the stationary inclusion problem.

    Raises RangeInfeasible when the data integral is not strictly inside
    the range bounds, NotConnected for a disconnected domain, and
    SolverDiverged when the resolvent Newton, from zero and once more from
    the mass-balanced point it reached, yields no verified pair.  The pair
    carries the VerificationReport that accepted it.
    """
    _check_domain(problem)
    _check_feasible(problem)
    return _solve(problem, problem._operator(), None, tol)


def _solve(problem, op, start, tol):
    """Solve a checked problem with its operator ``op``; returns the pair.

    ``start`` is a guess for u over Omega, or None for zero.  The resolvent
    Newton runs from it at the step mu = min(1, 1/lambda).  When that
    stalls or its pair fails verification, it runs once more from the
    point it reached, shifted onto the data's mass by ``_mass_balanced``,
    and the second failure raises SolverDiverged.
    """
    u0 = np.zeros(op.rows.size) if start is None else start
    reached = [u0]
    try:
        return _resolvent_newton(problem, op, u0, tol, reached)
    except SolverDiverged:
        restart = _mass_balanced(problem, op, reached[0])
    return _resolvent_newton(problem, op, restart, tol, reached)


def _check_q2_hypothesis(problem):
    """Boundary nodes must each see the bulk, and the bulk must hang together."""
    part = problem.partition
    if part.omega1.size == 0:
        raise NotConnected("the Q2 variant needs a nonempty bulk part")
    if not is_m_connected(problem.space, part.omega1):
        raise NotConnected("the Q2 variant needs an m-connected bulk part")
    seen, _, _ = problem.space.block_pairs(part.omega2, part.omega1)
    if np.unique(seen).size < part.omega2.size:
        raise NotConnected("every boundary node must interact with the bulk under Q2")


# ---------------------------------------------------------------------------
# verification and reports
# ---------------------------------------------------------------------------

def verify_solution(problem, pair, tol) -> VerificationReport:
    """Inclusion, equation, and conservation checks for a candidate pair."""
    omega = problem.partition.omega
    u = np.asarray(pair.u, float)[omega]
    v = np.asarray(pair.v, float)[omega]
    lam_div = problem.lambda_scale * problem._operator().apply(u)
    return _verify(problem, u, v, tol, lam_div)


def _verify(problem, u, v, tol, lam_div, bounds=None):
    """``verify_solution`` on u and v over Omega, with lam*div u at hand,
    and the ``_graph_bounds`` at u if formed.  A node more than its
    tolerance outside its graph's domain makes the inclusion gap inf; the
    other nodes' gaps are measured against the bounds."""
    omega = problem.partition.omega
    inclusion = 0.0
    delta = tol * (1.0 + np.abs(u))
    lo, hi = _graph_bounds(problem, u, delta) if bounds is None else bounds
    gap = np.where(v > hi, v - hi, np.where(v < lo, lo - v, 0.0))
    for g, mask in problem._graph_parts:
        dlo, dhi = g.domain
        if math.isfinite(dlo) or math.isfinite(dhi):
            part = np.flatnonzero(mask)
            outside = (u[part] < dlo - delta[part]) | (u[part] > dhi + delta[part])
            if np.any(outside):
                inclusion = float("inf")
                gap[part[outside]] = 0.0
    inclusion = max(inclusion, float(np.max(gap, initial=0.0)))
    eq = float(np.max(np.abs(v - lam_div - problem.phi[omega])))
    nu = problem.space.nu[omega]
    mass_v = float((nu * v).sum())
    mass_phi = float((nu * problem.phi[omega]).sum())
    cons = abs(mass_v - mass_phi)
    scale = 1.0 + _phi_inf(problem)
    failures = []
    if inclusion > tol * (1.0 + float(np.max(np.abs(u), initial=0.0))):
        failures.append("inclusion gap %g" % inclusion)
    if eq > tol * scale:
        failures.append("equation residual %g" % eq)
    if cons > tol * max(1.0, abs(mass_phi)):
        failures.append("conservation gap %g" % cons)
    return VerificationReport(
        inclusion_gap=inclusion,
        equation_residual=eq,
        conservation_gap=cons,
        passed=not failures,
        failures=tuple(failures),
    )


def contraction_gap(problem1, problem2, pair1, pair2):
    """One-sided gaps (sum nu*(v1-v2)+, sum nu*(phi1-phi2)+)."""
    omega = problem1.partition.omega
    nu = problem1.space.nu[omega]
    dv = np.asarray(pair1.v, float)[omega] - np.asarray(pair2.v, float)[omega]
    dphi = problem1.phi[omega] - problem2.phi[omega]
    return (
        float((nu * np.maximum(dv, 0.0)).sum()),
        float((nu * np.maximum(dphi, 0.0)).sum()),
    )


def energy_report(problem, pair):
    """Gradient energy of u against a probe-based data bound (diagnostic).

    The bound takes the Poincare probe estimates at anchor measures
    nu(Omega) and nu(Omega)/2 (8 probes, seed 0); both score the same
    probes on the pairs of the problem operator's masked kernel block.
    """
    omega = problem.partition.omega
    op = problem._operator()
    u = np.asarray(pair.u, float)[omega]
    nu = op.nu
    p = problem.flux.p
    q = p / (p - 1.0)
    du = np.abs(op._differences(u))
    energy = float((nu[op.pair_rows] * op.weights * du ** p).sum()) ** (1.0 / q)
    nu_total = float(nu.sum())
    if not problem._connected:
        raise NotConnected("omega must be m-connected for the probe estimate")
    lam1, lam2 = _poincare_estimates(
        problem.space, omega, op.pairs, p, (nu_total, 0.5 * nu_total),
        probe_count=8, seed=0,
    )
    phi = problem.phi[omega]
    norm_q = float((nu * np.abs(phi) ** q).sum()) ** (1.0 / q)
    norm_1 = float((nu * np.abs(phi)).sum())
    bound = (2.0 / problem.flux.c_p) * (
        lam1 * norm_q + ((lam1 + lam2) / nu_total ** (1.0 / p)) * norm_1
    )
    return energy, bound
