"""Stationary doubly nonlinear solver on a finite random walk space.

The problem posed on a node set Omega split into a bulk part and a boundary
part: find u and v with v in the bulk graph of u on omega1, v in the
boundary graph of u on omega2, and v - lambda*div u = phi on all of Omega.

The solver follows the regularization route: split each graph into its
nonnegative and nonpositive parts, replace them by regularized single-valued
approximations with a truncation guard, add a small odd-power penalty, and
drive the index schedule until an active-set polish reproduces an exact
solution of the limit inclusion.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    estimate_poincare_constant,
    is_m_connected,
)

DEFAULT_TOL = 1e-9
MAX_SCHEDULE_LEVEL = 40
RANGE_EPS_BASE = 1e-10


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
        omega = self.partition.omega
        return NonlocalOperator(self.space, self.flux, omega, omega, self._mask_spec)


@dataclass(frozen=True)
class SolutionPair:
    u: np.ndarray
    v: np.ndarray
    residual_inf: float
    iterations: int
    schedule_trace: tuple = ()


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

def _damped_newton(f_and_jac, u0, tol, total_cap=420):
    """Semismooth Newton with Armijo backtracking and a diagonal shift.

    ``f_and_jac(u, want_jac)`` returns (F, J) with J None when not wanted.
    When the plain Newton step fails the line search, the system is
    re-solved with a growing shift on the diagonal, which keeps the step
    useful when kink slopes make the Jacobian nearly singular (p < 2
    fluxes floor their slope at huge values near zero differences).
    Returns (u, residual_inf, iterations); raises SolverDiverged.
    """
    u = np.array(u0, dtype=float)
    f, jac = f_and_jac(u, True)
    res = float(np.max(np.abs(f)))
    best = res
    mu = 0.0
    eye = np.eye(u.size)
    for it in range(total_cap):
        if res <= tol:
            return u, res, it
        merit = 0.5 * float(f @ f)
        jac_scale = 1.0 + float(np.max(np.abs(np.diag(jac))))
        accepted = False
        for _ in range(14):
            try:
                step = np.linalg.solve(jac + (1e-12 + mu * jac_scale) * eye, f)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                alpha = 1.0
                while alpha > 1e-12:
                    trial = u - alpha * step
                    ft, _ = f_and_jac(trial, False)
                    if np.all(np.isfinite(ft)):
                        merit_t = 0.5 * float(ft @ ft)
                        if merit_t <= merit * (1.0 - 1e-4 * alpha) + 1e-300:
                            u = trial
                            f, jac = f_and_jac(u, True)
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


def _jacobian(op, lam, u, graph_slope):
    """diag(graph_slope) - lam * op.jacobian(u), assembled in place."""
    jac = op.jacobian(u)
    jac *= -lam
    jac[np.diag_indices_from(jac)] += graph_slope
    return jac


def _approx_system(problem, n, k, K):
    """Residual/Jacobian closure for the regularized system on Omega."""
    part = problem.partition
    omega = part.omega
    pos = {int(x): i for i, x in enumerate(omega)}
    idx1 = np.array([pos[int(x)] for x in part.omega1], dtype=int)
    idx2 = np.array([pos[int(x)] for x in part.omega2], dtype=int)
    op = problem._operator()
    phi = problem.phi[omega]
    lam = problem.lambda_scale
    p = problem.flux.p
    inv_n, inv_k = 1.0 / n, 1.0 / k
    splits = {
        "gamma": (problem.gamma.split_plus(), problem.gamma.split_minus()),
        "beta": (problem.beta.split_plus(), problem.beta.split_minus()),
    }

    def f_and_jac(u, want_jac):
        graph_val = np.empty_like(u)
        graph_slope = np.empty_like(u) if want_jac else None
        for idx, (gp, gm) in ((idx1, splits["gamma"]), (idx2, splits["beta"])):
            if idx.size == 0:
                continue
            if want_jac:
                vp, sp = gp.yosida_slope(k, u[idx])
                vm, sm = gm.yosida_slope(n, u[idx])
                sp = np.where(np.abs(vp) >= K, 0.0, sp)
                sm = np.where(np.abs(vm) >= K, 0.0, sm)
                graph_slope[idx] = sp + sm
            else:
                vp = gp.yosida(k, u[idx])
                vm = gm.yosida(n, u[idx])
            graph_val[idx] = np.clip(vp, -K, K) + np.clip(vm, -K, K)
        up = np.maximum(u, 0.0)
        um = np.maximum(-u, 0.0)
        pen = inv_n * up ** (p - 1.0) - inv_k * um ** (p - 1.0)
        f = graph_val + pen - lam * op.apply(u) - phi
        if not want_jac:
            return f, None
        base = np.maximum(np.abs(u), 1e-12) ** (p - 2.0)
        pen_slope = (p - 1.0) * base * np.where(u >= 0.0, inv_n, inv_k)
        return f, _jacobian(op, lam, u, graph_slope + pen_slope)

    return f_and_jac


def solve_approximate(problem, n, k, K=None, start=None):
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
    omega = problem.partition.omega
    u0 = np.zeros(omega.size) if start is None else np.asarray(start, float)[omega]
    tol = 1e-11 * (1.0 + _phi_inf(problem))
    fj = _approx_system(problem, n, k, K)
    u, _, _ = _damped_newton(fj, u0, tol)
    full = np.zeros(problem.space.node_count)
    full[omega] = u
    return full


# ---------------------------------------------------------------------------
# limit solve
# ---------------------------------------------------------------------------

def _node_graph(problem):
    """Per-node graph assignment over sorted Omega."""
    part = problem.partition
    omega = part.omega
    boundary = np.isin(omega, part.omega2)
    return [problem.beta if b else problem.gamma for b in boundary]


def _recover_pair(problem, u_sub, op, tol, iterations, trace):
    """Equation-exact v with within-tolerance clamping, then verification."""
    omega = op.rows
    graphs = _node_graph(problem)
    div = op.apply(u_sub)
    v = problem.phi[omega] + problem.lambda_scale * div
    for i, g in enumerate(graphs):
        dlo, dhi = g.domain
        if u_sub[i] < dlo or u_sub[i] > dhi:
            return None
        lo, hi = g.interval(u_sub[i])
        gap_tol = tol * (1.0 + abs(v[i]))
        if v[i] < lo and lo - v[i] <= gap_tol:
            v[i] = lo
        elif v[i] > hi and v[i] - hi <= gap_tol:
            v[i] = hi
        lo_r, hi_r = g.range_inf, g.range_sup
        if v[i] < lo_r and lo_r - v[i] <= gap_tol:
            v[i] = lo_r
        elif v[i] > hi_r and v[i] - hi_r <= gap_tol:
            v[i] = hi_r
    u_full = np.zeros(problem.space.node_count)
    v_full = np.zeros(problem.space.node_count)
    u_full[omega] = u_sub
    v_full[omega] = v
    eq_res = float(
        np.max(np.abs(v - problem.lambda_scale * div - problem.phi[omega]))
    )
    pair = SolutionPair(
        u=u_full,
        v=v_full,
        residual_inf=eq_res,
        iterations=iterations,
        schedule_trace=tuple(trace),
    )
    report = verify_solution(problem, pair, tol)
    return pair if report.passed else None


def _direct_system(problem, op):
    omega = op.rows
    phi = problem.phi[omega]
    lam = problem.lambda_scale
    boundary = np.isin(omega, problem.partition.omega2)

    def f_and_jac(u, want_jac):
        val = np.empty_like(u)
        slope = np.empty_like(u)
        for g, mask in ((problem.gamma, ~boundary), (problem.beta, boundary)):
            if not np.any(mask):
                continue
            val[mask], slope[mask] = g.value_slope(u[mask])
        f = val - lam * op.apply(u) - phi
        if not want_jac:
            return f, None
        return f, _jacobian(op, lam, u, slope)

    return f_and_jac


def _classify(problem, u_sub, v_est, pin_radius):
    """Per-node active element: ("pin", knot, v0, v1) or ("piece", element)."""
    graphs = _node_graph(problem)
    labels = []
    for i, g in enumerate(graphs):
        u_i = u_sub[i]
        chosen = None
        for t, (v0, v1) in sorted(g.jumps.items()):
            if abs(u_i - t) <= pin_radius * (1.0 + abs(t)):
                slack = 0.1 * (1.0 + abs(v_est[i]))
                lo_ok = not np.isfinite(v0) or v_est[i] >= v0 - slack
                hi_ok = not np.isfinite(v1) or v_est[i] <= v1 + slack
                if lo_ok and hi_ok:
                    chosen = ("pin", t, v0, v1)
                    break
        if chosen is None:
            best = None
            for el in g.elements:
                if el.kind == "vertical":
                    continue
                if el.r0 - 1e-12 <= u_i <= el.r1 + 1e-12 or (
                    el.r0 <= u_i + pin_radius and u_i - pin_radius <= el.r1
                ):
                    r_clip = min(max(u_i, el.r0), el.r1)
                    val = MonotoneGraph._piece_at(el, r_clip)
                    score = abs(v_est[i] - val)
                    if best is None or score < best[0]:
                        best = (score, el)
            if best is None:
                return None
            chosen = ("piece", best[1])
        labels.append(chosen)
    return labels


def _polish(problem, u_sub, op, tol, pin_radius, iterations, trace):
    """Solve the smooth system restricted to the classified active set."""
    lam = problem.lambda_scale
    phi = problem.phi[op.rows]
    for _ in range(3):
        labels = _classify(problem, u_sub, phi + lam * op.apply(u_sub), pin_radius)
        if labels is None:
            return None
        u_work = u_sub.copy()
        pinned = np.zeros(u_sub.size, dtype=bool)
        for i, lab in enumerate(labels):
            if lab[0] == "pin":
                pinned[i] = True
                u_work[i] = lab[1]
        free = ~pinned
        if not np.any(free):
            u_new = u_work
        else:
            free_idx = np.where(free)[0]

            def f_and_jac(uf, want_jac):
                full = u_work.copy()
                full[free_idx] = uf
                div_f = op.apply(full)
                f = np.empty(free_idx.size)
                slope = np.empty(free_idx.size)
                for j, i in enumerate(free_idx):
                    el = labels[i][1]
                    if el.kind == "affine":
                        f[j] = el.p + el.q * full[i]
                        slope[j] = el.q
                    else:
                        f[j] = el.p * np.sign(full[i]) * abs(full[i]) ** el.q
                        with np.errstate(divide="ignore"):
                            slope[j] = min(
                                el.p * el.q
                                * max(abs(full[i]), 1e-300) ** (el.q - 1.0),
                                1e300,
                            )
                    f[j] += -lam * div_f[i] - phi[i]
                if not want_jac:
                    return f, None
                jac = -lam * op.jacobian(full)[free_idx][:, free_idx]
                jac[np.diag_indices_from(jac)] += slope
                return f, jac

            scale = 1.0 + _phi_inf(problem)
            try:
                uf, _, its = _damped_newton(
                    f_and_jac, u_work[free_idx], 1e-12 * scale, total_cap=200
                )
            except SolverDiverged:
                return None
            iterations += its
            u_new = u_work.copy()
            u_new[free_idx] = uf
        # membership check: free nodes must stay on their element
        ok = True
        for i, lab in enumerate(labels):
            if lab[0] == "piece":
                el = lab[1]
                slack = 1e-9 * (1.0 + abs(u_new[i]))
                if u_new[i] < el.r0 - slack or u_new[i] > el.r1 + slack:
                    ok = False
                    break
        if ok:
            pair = _recover_pair(problem, u_new, op, tol, iterations, trace)
            if pair is not None:
                return pair
        u_sub = u_new
    return None


def solve_gp(problem: StationaryProblem, tol: float = DEFAULT_TOL) -> SolutionPair:
    """Solve the stationary inclusion problem.

    Raises RangeInfeasible when the data integral is not strictly inside
    the range bounds, NotConnected for a disconnected domain, and
    SolverDiverged when the schedule is exhausted.
    """
    part = problem.partition
    omega = part.omega
    if not is_m_connected(problem.space, omega):
        raise NotConnected("the problem domain is not m-connected")
    if problem.integration_set == "Q2":
        _check_q2_hypothesis(problem)
    report = check_range(problem)
    if not report.feasible:
        raise RangeInfeasible(
            "data integral %g outside the admissible range (%g, %g)"
            % (report.integral_phi, report.r_minus, report.r_plus),
            report=report,
        )
    op = problem._operator()

    if (
        problem.gamma.is_strictly_increasing_surjective()
        and problem.beta.is_strictly_increasing_surjective()
    ):
        scale = 1.0 + _phi_inf(problem)
        fj = _direct_system(problem, op)
        u_sub, _, its = _damped_newton(fj, np.zeros(omega.size), 1e-12 * scale)
        pair = _recover_pair(problem, u_sub, op, tol, its, trace=())
        if pair is None:
            raise SolverDiverged("direct solve failed verification")
        return pair

    u_prev = None
    u_start = None
    trace = []
    iterations = 0
    for level in range(MAX_SCHEDULE_LEVEL + 1):
        nk = 2 ** level
        try:
            u_full = solve_approximate(problem, nk, nk, start=u_start)
        except SolverDiverged:
            u_start = None
            continue
        u_sub = u_full[omega]
        u_start = u_full
        change = (
            float(np.max(np.abs(u_sub - u_prev))) if u_prev is not None
            else float("inf")
        )
        trace.append((nk, nk, change))
        iterations += 1
        if u_prev is not None:
            pin_radius = max(4.0 * change, 1e-11)
        else:
            pin_radius = 1e-2
        pair = _polish(
            problem, u_sub.copy(), op, tol, pin_radius, iterations, trace
        )
        if pair is not None:
            return pair
        if u_prev is not None and change <= tol * (1.0 + np.max(np.abs(u_sub))):
            pair = _recover_pair(problem, u_sub, op, tol, iterations, trace)
            if pair is not None:
                return pair
        u_prev = u_sub
    raise SolverDiverged(
        "index schedule exhausted without a verified solution; last change %g"
        % (trace[-1][2] if trace else float("nan"))
    )


def _check_q2_hypothesis(problem):
    """Boundary nodes must each see the bulk, and the bulk must hang together."""
    part = problem.partition
    if part.omega1.size == 0:
        raise NotConnected("the Q2 variant needs a nonempty bulk part")
    if not is_m_connected(problem.space, part.omega1):
        raise NotConnected("the Q2 variant needs an m-connected bulk part")
    if part.omega2.size:
        reach = problem.space.kernel[np.ix_(part.omega2, part.omega1)].sum(axis=1)
        if np.any(reach <= 0.0):
            raise NotConnected(
                "every boundary node must interact with the bulk under Q2"
            )


# ---------------------------------------------------------------------------
# verification and reports
# ---------------------------------------------------------------------------

def verify_solution(problem, pair, tol) -> VerificationReport:
    """Inclusion, equation, and conservation checks for a candidate pair."""
    part = problem.partition
    omega = part.omega
    u = np.asarray(pair.u, float)[omega]
    v = np.asarray(pair.v, float)[omega]
    graphs = _node_graph(problem)
    inclusion = 0.0
    for i, g in enumerate(graphs):
        dlo, dhi = g.domain
        delta = tol * (1.0 + abs(u[i]))
        if u[i] < dlo - delta or u[i] > dhi + delta:
            inclusion = float("inf")
            continue
        lo = g.interval(min(max(u[i] - delta, dlo), dhi))[0]
        hi = g.interval(min(max(u[i] + delta, dlo), dhi))[1]
        if v[i] > hi:
            inclusion = max(inclusion, v[i] - hi)
        elif v[i] < lo:
            inclusion = max(inclusion, lo - v[i])
    div = problem._operator().apply(u)
    eq = float(np.max(np.abs(v - problem.lambda_scale * div - problem.phi[omega])))
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
    """Gradient energy of u against a probe-based data bound (diagnostic)."""
    omega = problem.partition.omega
    u = np.asarray(pair.u, float)[omega]
    nu = problem.space.nu[omega]
    kern = problem._operator().kernel
    p = problem.flux.p
    q = p / (p - 1.0)
    du = np.abs(u[None, :] - u[:, None])
    energy = float((nu[:, None] * kern * du ** p).sum()) ** (1.0 / q)
    mask_spec = problem._mask_spec
    nu_total = float(nu.sum())
    lam1 = estimate_poincare_constant(
        problem.space, omega, mask_spec, p, nu_total, probe_count=8, seed=0
    )
    lam2 = estimate_poincare_constant(
        problem.space, omega, mask_spec, p, 0.5 * nu_total, probe_count=8, seed=0
    )
    phi = problem.phi[omega]
    norm_q = float((nu * np.abs(phi) ** q).sum()) ** (1.0 / q)
    norm_1 = float((nu * np.abs(phi)).sum())
    bound = (2.0 / problem.flux.c_p) * (
        lam1 * norm_q + ((lam1 + lam2) / nu_total ** (1.0 / p)) * norm_1
    )
    return energy, bound
