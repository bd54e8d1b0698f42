"""Shared instance generators for the test suite.

Instances are built forward: sample a target pair on the graph, evaluate
the equation, and use the result as data. That guarantees feasibility with
a quantifiable range margin and gives every test a known solution to aim
for without touching any solver code.
"""

import dataclasses

import numpy as np

from nldiff.evolution import EvolutionProblem
from nldiff.flux import divergence, p_laplacian_flux
from nldiff.monotone import (
    make_hele_shaw,
    make_identity,
    make_obstacle,
    make_power,
    make_stefan,
)
from nldiff.space import DomainPartition, from_weighted_graph
from nldiff.stationary import StationaryProblem, check_range

GRAPH_FAMILY = {
    "identity": make_identity,
    "stefan": lambda: make_stefan(1.0),
    "hele_shaw": make_hele_shaw,
    "power2": lambda: make_power(2.0),
    "obstacle": lambda: make_obstacle(-1.0, 1.0, make_identity()),
}

# graphs whose inverse is single-valued off the jump plateaus, so the
# bulk state u is pinned by v; used where tests compare u across solvers
U_UNIQUE_GRAPHS = ("identity", "stefan", "power2")

P_CHOICES = (1.5, 2.0, 3.0)


def random_space(rng, n, density=0.7):
    """Reversible space from a random symmetric weight matrix, no isolates."""
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    for i in range(n - 1):
        if w[i].sum() == 0 or w[i + 1, i] == 0:
            w[i, i + 1] = w[i + 1, i] = max(w[i, i + 1], 0.5)
    if w[n - 1].sum() == 0:
        w[n - 1, n - 2] = w[n - 2, n - 1] = 0.5
    return from_weighted_graph(w)


def random_partition(rng, n, allow_empty_boundary=True):
    """Partition covering all nodes, with a random boundary share."""
    nodes = rng.permutation(n)
    if allow_empty_boundary and rng.random() < 0.25:
        cut = n
    else:
        cut = int(rng.integers(1, n))
    return DomainPartition(nodes[:cut], nodes[cut:])


def target_pair(rng, partition, gamma, beta, n):
    """Sample (u*, v*) on the graphs, v* strictly inside the value range.

    When a part's graph has a bounded value range, the first node of that
    part is anchored at u* = 0 with v* strictly interior, which keeps the
    data integral strictly inside the range bounds even when every other
    node saturates at a range endpoint. Unbounded-range parts are left
    unanchored: pinning u* exactly onto the kink at 0 would plant a
    degenerate slope manifold that no generic instance exhibits.
    """
    u = np.zeros(n)
    t = np.zeros(n)
    parts = ((partition.omega1, gamma), (partition.omega2, beta))
    anchors = set()
    for part, g in parts:
        if part.size and (np.isfinite(g.range_inf) or np.isfinite(g.range_sup)):
            anchors.add(part[0])
    bulk = set(partition.omega1.tolist())
    for node in partition.omega:
        g = gamma if node in bulk else beta
        if node not in anchors:
            dlo, dhi = g.domain
            lo_u = max(dlo, -1.0)
            hi_u = min(dhi, 1.0)
            u[node] = lo_u + rng.random() * (hi_u - lo_u)
        t[node] = 0.05 + 0.9 * rng.random()
    # one interval call per graph part, after the per-node draws
    v = np.zeros(n)
    for part, g in parts:
        if part.size:
            vlo, vhi = g.interval(u[part])
            vlo = np.maximum(vlo, -2.0)
            vhi = np.minimum(vhi, 2.0)
            v[part] = vlo + t[part] * (vhi - vlo)
    return u, v


def phi_for_target(space, partition, flux, u, v, lambda_scale):
    """Data vector that makes (u, v) solve the stationary equation."""
    div = divergence(space, flux, u, Omega=partition.omega)
    phi = np.zeros(space.node_count)
    phi[partition.omega] = v[partition.omega] - lambda_scale * div
    return phi


def forward_instance(seed, max_nodes=20, graph_names=None, p_choices=P_CHOICES,
                     lambda_scale=1.0, min_nodes=2):
    """Seeded stationary instance with a known target pair baked into phi."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_nodes, max_nodes + 1))
    space = random_space(rng, n)
    partition = random_partition(rng, n)
    names = sorted(graph_names or GRAPH_FAMILY)
    gamma = GRAPH_FAMILY[str(rng.choice(names))]()
    beta = GRAPH_FAMILY[str(rng.choice(names))]()
    flux = p_laplacian_flux(float(rng.choice(p_choices)))
    u_star, v_star = target_pair(rng, partition, gamma, beta, n)
    phi = phi_for_target(space, partition, flux, u_star, v_star, lambda_scale)
    problem = StationaryProblem(
        space=space,
        partition=partition,
        flux=flux,
        gamma=gamma,
        beta=beta,
        phi=phi,
        lambda_scale=lambda_scale,
    )
    return problem, u_star, v_star


def scaled_instance(seed, scale, p, lambda_scale, max_nodes=12):
    """``forward_instance`` with its target scaled by ``scale``, rebuilt forward.

    u = clip(scale*u*, domain); v = scale*v* where that lies strictly
    inside the graph's interval at u, else v* moved onto that interval,
    which keeps the anchors of bounded-range parts strictly interior;
    phi = v - lambda*div u.  Returns (problem, u, v).
    """
    problem, u_star, v_star = forward_instance(
        seed, max_nodes=max_nodes, p_choices=(p,), lambda_scale=lambda_scale
    )
    part = problem.partition
    u = np.zeros_like(u_star)
    v = np.zeros_like(v_star)
    for nodes, g in ((part.omega1, problem.gamma), (part.omega2, problem.beta)):
        u[nodes] = np.clip(scale * u_star[nodes], *g.domain)
        lo, hi = g.interval(u[nodes])
        sv = scale * v_star[nodes]
        v[nodes] = np.where((lo < sv) & (sv < hi), sv, np.clip(v_star[nodes], lo, hi))
    phi = phi_for_target(problem.space, part, problem.flux, u, v, lambda_scale)
    return dataclasses.replace(problem, phi=phi), u, v


def sibling_phi(problem, seed):
    """Second feasible data vector on the same problem, independent target."""
    rng = np.random.default_rng(seed)
    u2, v2 = target_pair(rng, problem.partition, problem.gamma, problem.beta,
                         problem.space.node_count)
    return phi_for_target(problem.space, problem.partition, problem.flux,
                          u2, v2, problem.lambda_scale)


def ordered_sibling(problem, seed):
    """Problem with data >= problem.phi, still strictly range-feasible.

    The bump is scaled into the headroom left below the upper range bound,
    so ordering holds componentwise and the new data stays solvable.
    """
    rng = np.random.default_rng(seed)
    omega = problem.partition.omega
    raw = rng.random(omega.size) * (rng.random(omega.size) < 0.6)
    if not raw.any():
        raw[int(rng.integers(omega.size))] = 1.0
    report = check_range(problem)
    if np.isfinite(report.r_plus):
        headroom = report.r_plus - report.integral_phi
        mass = float(problem.space.nu[omega] @ raw)
        raw *= 0.4 * headroom / mass
    bump = np.zeros_like(problem.phi)
    bump[omega] = raw
    return dataclasses.replace(problem, phi=problem.phi + bump)


def evolution_instance(seed, mode="dynamical", graph_names=None, max_nodes=8,
                       steps=6, horizon=0.5, allow_forcing=True):
    """Seeded evolution instance whose initial state sits inside the ranges.

    Forcing is only added when both graphs have unbounded value ranges, so
    the mass trajectory can never leave the feasible band.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    space = random_space(rng, n)
    if mode == "dynamical":
        partition = random_partition(rng, n)
    else:
        nodes = rng.permutation(n)
        cut = int(rng.integers(1, n))
        partition = DomainPartition(nodes[:cut], nodes[cut:])
    names = sorted(graph_names or GRAPH_FAMILY)
    gamma = GRAPH_FAMILY[str(rng.choice(names))]()
    beta = GRAPH_FAMILY[str(rng.choice(names))]()
    _, state = target_pair(rng, partition, gamma, beta, n)
    f = None
    unbounded = not any(np.isfinite(b) for g in (gamma, beta)
                        for b in (g.range_inf, g.range_sup))
    if allow_forcing and unbounded and rng.random() < 0.5:
        f = rng.uniform(-0.5, 0.5, partition.omega1.size)
    problem = EvolutionProblem(
        space=space,
        partition=partition,
        flux=p_laplacian_flux(float(rng.choice(P_CHOICES))),
        gamma=gamma,
        beta=beta,
        mode=mode,
        v0=state[partition.omega1],
        w0=state[partition.omega2] if mode == "dynamical" else None,
        f=f,
        horizon=horizon,
    )
    return problem, steps
