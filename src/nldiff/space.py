"""Finite metric random walk spaces.

A space is a finite node set together with a row-stochastic jump kernel
and a node measure that is reversible for it.  Everything downstream
(divergence operators, solvers, time stepping) consumes these objects
read-only, so they validate once at construction and are immutable
afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricWeights,
    EmptyStencil,
    EmptyZ,
    InvalidParameter,
    IsolatedNode,
    MissingValues,
    NotConnected,
)

ROW_SUM_TOL = 1e-12
REVERSIBILITY_TOL = 1e-12


class FiniteRandomWalkSpace:
    """A finite node set with a jump kernel and reversible node measure.

    Parameters
    ----------
    kernel : (n, n) array_like
        Row x is the jump distribution of node x; each row must sum to 1
        within 1e-12.
    nu : (n,) array_like
        Strictly positive node measure, reversible for the kernel:
        nu[x] * kernel[x, y] == nu[y] * kernel[y, x] within 1e-12 of the
        measure scale.

    Raises
    ------
    InvalidParameter
        If shapes are inconsistent or an invariant fails.
    """

    def __init__(self, kernel, nu):
        kernel = np.array(kernel, dtype=float)
        nu = np.array(nu, dtype=float)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise InvalidParameter("kernel must be a square matrix")
        n = kernel.shape[0]
        if nu.shape != (n,):
            raise InvalidParameter("nu must have one entry per node")
        if n == 0:
            raise InvalidParameter("space needs at least one node")
        if not np.all(np.isfinite(kernel)) or not np.all(np.isfinite(nu)):
            raise InvalidParameter("kernel and nu must be finite")
        if np.any(kernel < 0):
            raise InvalidParameter("kernel entries must be nonnegative")
        if np.any(nu <= 0):
            raise InvalidParameter("nu must be strictly positive")
        row_sums = kernel.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise InvalidParameter(
                "kernel rows must sum to 1 within %g (worst %.3e)"
                % (ROW_SUM_TOL, float(np.max(np.abs(row_sums - 1.0))))
            )
        weighted = nu[:, None] * kernel
        gap = float(np.max(np.abs(weighted - weighted.T)))
        if gap > REVERSIBILITY_TOL * float(np.max(nu)):
            raise InvalidParameter(
                "nu is not reversible for the kernel (gap %.3e)" % gap
            )
        kernel.setflags(write=False)
        nu.setflags(write=False)
        self.kernel = kernel
        self.nu = nu
        self.node_count = n

    def node_set(self, nodes) -> np.ndarray:
        """Normalize ``nodes`` to a sorted unique index array, validating range."""
        arr = np.unique(np.asarray(list(nodes), dtype=int)) if not isinstance(
            nodes, np.ndarray
        ) else np.unique(nodes.astype(int))
        if arr.size and (arr[0] < 0 or arr[-1] >= self.node_count):
            raise InvalidParameter("node index out of range")
        return arr

    def measure(self, nodes) -> float:
        """Total nu-measure of a node set."""
        return float(self.nu[self.node_set(nodes)].sum())

    def __repr__(self):
        return "FiniteRandomWalkSpace(n=%d, nu_total=%g)" % (
            self.node_count,
            float(self.nu.sum()),
        )


@dataclass(frozen=True)
class DomainPartition:
    """Disjoint split of the working domain into a bulk and a boundary region.

    Either part may be empty, but not both.  Stored as sorted index arrays.
    """

    omega1: np.ndarray
    omega2: np.ndarray

    def __post_init__(self):
        o1 = np.unique(np.asarray(self.omega1, dtype=int))
        o2 = np.unique(np.asarray(self.omega2, dtype=int))
        if o1.size + o2.size == 0:
            raise InvalidParameter("partition must cover at least one node")
        if np.intersect1d(o1, o2).size:
            raise InvalidParameter("omega1 and omega2 must be disjoint")
        object.__setattr__(self, "omega1", o1)
        object.__setattr__(self, "omega2", o2)

    @property
    def omega(self) -> np.ndarray:
        return np.union1d(self.omega1, self.omega2)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_weighted_graph(weights) -> FiniteRandomWalkSpace:
    """Build a space from a symmetric nonnegative weight matrix.

    Kernel row x is w[x, :] / degree(x) and nu is the weighted degree,
    which makes reversibility exact.

    Raises
    ------
    AsymmetricWeights
        If the matrix is not symmetric.
    IsolatedNode
        If some node has zero weighted degree.
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidParameter("weights must be a square matrix")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InvalidParameter("weights must be finite and nonnegative")
    if not np.array_equal(w, w.T):
        gap = float(np.max(np.abs(w - w.T)))
        if gap > 1e-12 * max(1.0, float(np.max(np.abs(w)))):
            raise AsymmetricWeights("weight matrix is not symmetric (gap %.3e)" % gap)
        w = 0.5 * (w + w.T)
    degree = w.sum(axis=1)
    if np.any(degree <= 0):
        bad = int(np.argmin(degree))
        raise IsolatedNode("node %d has zero weighted degree" % bad)
    kernel = w / degree[:, None]
    return FiniteRandomWalkSpace(kernel, degree)


def profile_from_config(cfg) -> "callable":
    """Build a radial kernel profile from a config mapping.

    Supported types: ``indicator`` (fields radius, optional height),
    ``gaussian`` (sigma, optional cutoff), ``table`` (radii, values; linear
    interpolation, zero beyond the last radius).
    """
    kind = cfg.get("type")
    if kind == "indicator":
        radius = float(cfg["radius"])
        height = float(cfg.get("height", 1.0))
        if radius <= 0 or height <= 0:
            raise InvalidParameter("indicator profile needs positive radius/height")
        return lambda d: np.where(np.asarray(d, dtype=float) <= radius, height, 0.0)
    if kind == "gaussian":
        sigma = float(cfg["sigma"])
        cutoff = float(cfg.get("cutoff", np.inf))
        if sigma <= 0:
            raise InvalidParameter("gaussian profile needs positive sigma")

        def gauss(d):
            d = np.asarray(d, dtype=float)
            val = np.exp(-(d * d) / (2.0 * sigma * sigma))
            return np.where(d <= cutoff, val, 0.0)

        return gauss
    if kind == "table":
        radii = np.asarray(cfg["radii"], dtype=float)
        values = np.asarray(cfg["values"], dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size == 0:
            raise InvalidParameter("table profile needs matching radii/values")
        if np.any(np.diff(radii) <= 0):
            raise InvalidParameter("table radii must be strictly increasing")
        if np.any(values < 0):
            raise InvalidParameter("table values must be nonnegative")
        return lambda d: np.interp(
            np.asarray(d, dtype=float), radii, values, left=values[0], right=0.0
        )
    raise InvalidParameter("unknown profile type %r" % (kind,))


def from_kernel_grid(points, spacing, kernel_profile) -> FiniteRandomWalkSpace:
    """Build a space from sampled points and a radial kernel profile.

    Raw weights are profile(|x - y|) * spacing**dim for x != y; rows are
    then normalized to sum to exactly 1 and nu is the raw weighted degree,
    so reversibility holds bit-exactly despite the truncation of the
    profile to the sampled stencil.

    Parameters
    ----------
    points : (n, d) array_like
        Sample coordinates (scalars are treated as 1-d coordinates).
    spacing : float
        Grid spacing; scales the raw weights by spacing**d.
    kernel_profile : callable or mapping
        Radial profile J(distance) >= 0, or a config mapping accepted by
        :func:`profile_from_config`.

    Raises
    ------
    EmptyStencil
        If some point sees zero total kernel mass.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidParameter("points must be a nonempty list of coordinates")
    if spacing <= 0:
        raise InvalidParameter("spacing must be positive")
    if isinstance(kernel_profile, dict):
        kernel_profile = profile_from_config(kernel_profile)
    dim = pts.shape[1]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    w = np.asarray(kernel_profile(dist), dtype=float) * spacing**dim
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InvalidParameter("kernel profile must be finite and nonnegative")
    np.fill_diagonal(w, 0.0)
    w = 0.5 * (w + w.T)  # guard against tiny asymmetry from the distance matrix
    degree = w.sum(axis=1)
    if np.any(degree <= 0):
        bad = int(np.argmin(degree))
        raise EmptyStencil("point %d sees zero kernel mass" % bad)
    return FiniteRandomWalkSpace(w / degree[:, None], degree)


# ---------------------------------------------------------------------------
# boundaries, interaction, connectivity
# ---------------------------------------------------------------------------

def m_boundary(space: FiniteRandomWalkSpace, W) -> np.ndarray:
    """Nodes outside W that jump into W with positive probability."""
    W = space.node_set(W)
    if W.size == 0:
        return W
    inside = np.zeros(space.node_count, dtype=bool)
    inside[W] = True
    mass_into_W = space.kernel[:, W].sum(axis=1)
    return np.where(~inside & (mass_into_W > 0))[0]


def m_closure(space: FiniteRandomWalkSpace, W) -> np.ndarray:
    """W together with its m-boundary."""
    W = space.node_set(W)
    return np.union1d(W, m_boundary(space, W))


def interaction(space: FiniteRandomWalkSpace, A, B) -> float:
    """Total jump flux sum_{x in A} nu_x * m_x(B); symmetric in (A, B)."""
    A = space.node_set(A)
    B = space.node_set(B)
    if A.size == 0 or B.size == 0:
        return 0.0
    block = space.kernel[np.ix_(A, B)]
    return float((space.nu[A] * block.sum(axis=1)).sum())


def is_m_connected(space: FiniteRandomWalkSpace, omega) -> bool:
    """Whether every nontrivial split of omega has positive interaction.

    On a finite space this is plain connectivity of the support graph
    restricted to omega, with kernel links taken in both directions. It is
    checked here by a breadth-first search that grows the reached set one
    whole frontier at a time; the exhaustive bipartition characterization
    is exercised in tests.
    """
    omega = space.node_set(omega)
    if omega.size == 0:
        raise InvalidParameter("omega must be nonempty")
    linked = space.kernel[np.ix_(omega, omega)] > 0
    linked = linked | linked.T
    reached = np.zeros(omega.size, dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = linked[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


# ---------------------------------------------------------------------------
# Poincaré diagnostics
# ---------------------------------------------------------------------------

def pair_mask(space, omega, integration_set):
    """Boolean mask over omega x omega for the requested interaction set.

    ``integration_set`` is "Q1" (all pairs) or a tuple ("Q2", omega2)
    which removes pairs with both endpoints in omega2.
    """
    n = omega.size
    mask = np.ones((n, n), dtype=bool)
    if integration_set == "Q1":
        return mask
    if (
        isinstance(integration_set, tuple)
        and len(integration_set) == 2
        and integration_set[0] == "Q2"
    ):
        omega2 = space.node_set(integration_set[1])
        in2 = np.isin(omega, omega2)
        mask[np.ix_(in2, in2)] = False
        return mask
    raise InvalidParameter("integration_set must be 'Q1' or ('Q2', omega2)")


def poincare_ratio(space, omega, integration_set, u, Z, p) -> float:
    """Ratio of the L^p norm of u to its gradient energy plus mean anchor.

    Returns ``inf`` when the denominator vanishes while u does not, and 0
    for u identically zero on omega.
    """
    omega = space.node_set(omega)
    if omega.size == 0:
        raise InvalidParameter("omega must be nonempty")
    Z = space.node_set(Z)
    if Z.size == 0 or space.measure(Z) <= 0:
        raise EmptyZ("Z must have positive measure")
    if np.setdiff1d(Z, omega).size:
        raise InvalidParameter("Z must be a subset of omega")
    if p <= 1:
        raise InvalidParameter("p must exceed 1")
    u = np.asarray(u, dtype=float)
    if u.shape != (space.node_count,):
        raise MissingValues(
            "expected a length-%d node vector, got shape %s"
            % (space.node_count, u.shape)
        )
    uo = u[omega]
    nu_o = space.nu[omega]
    num = float((nu_o * np.abs(uo) ** p).sum()) ** (1.0 / p)
    mask = pair_mask(space, omega, integration_set)
    du = uo[None, :] - uo[:, None]
    kern = space.kernel[np.ix_(omega, omega)] * mask
    grad = float((nu_o[:, None] * kern * np.abs(du) ** p).sum()) ** (1.0 / p)
    anchor = abs(float((space.nu[Z] * u[Z]).sum()))
    return _ratio(num, grad + anchor)


def _ratio(num, denom):
    """num / denom, with 0 for a zero vector and inf for a vanishing denom."""
    if num == 0.0:
        return 0.0
    if denom == 0.0:
        return float("inf")
    return num / denom


def estimate_poincare_constant(
    space, omega, integration_set, p, l, probe_count, seed
) -> float:
    """Probe-based lower bound for the best constant in the inequality.

    Maximizes :func:`poincare_ratio` over ``probe_count`` random unit-norm
    vectors and random anchor sets Z of measure at least ``l``, plus
    deterministic probes (the constant vector and each coordinate vector,
    anchored by all of omega).  Deterministic for a fixed seed.  This is a
    lower bound only; the true constant for general p is not computed.

    The deterministic probes are scored in closed form, with no pass of
    :func:`poincare_ratio`: the constant vector has no gradient, and the
    gradient energy of the coordinate vector e_x is the x-th row plus the
    x-th column sum of nu*k over the masked kernel block without its
    diagonal (a self-loop adds nothing to a gradient), which by
    reversibility is 2*nu_x*sum_{j != x} k_xj.  So the ratio of e_x is
    nu_x^(1/p) / ((2*nu_x*sum_{j != x} k_xj)^(1/p) + nu_x).  The block is
    sliced and masked once, and each random probe costs one pass over it,
    so the estimate costs O(probe_count * n^2) on n nodes of omega.
    """
    omega = space.node_set(omega)
    kern = space.kernel[np.ix_(omega, omega)] * pair_mask(space, omega, integration_set)
    return _poincare_estimates(space, omega, kern, p, (l,), probe_count, seed)[0]


def _gradient_energy(weighted, u, p):
    """sum_ij weighted_ij * |u_j - u_i|^p: one pass over a kernel block."""
    return float((weighted * np.abs(u[None, :] - u[:, None]) ** p).sum())


def _coordinate_ratios(nu, weighted, p):
    """:func:`poincare_ratio` of every coordinate vector e_x, anchored by omega.

    ``weighted`` is nu*k over the masked block, without its diagonal.  The
    gradient energy of e_x is its x-th row plus its x-th column sum, its
    L^p norm nu_x^(1/p) and its anchor nu_x.
    """
    grads = (weighted.sum(axis=1) + weighted.sum(axis=0)) ** (1.0 / p)
    return nu ** (1.0 / p) / (grads + nu)


def _poincare_estimates(space, omega, kern, p, levels, probe_count, seed):
    """:func:`estimate_poincare_constant` at each anchor measure in ``levels``.

    ``kern`` is the kernel block over the sorted node array ``omega``
    times its pair mask.  The random probes depend on the seed alone, so
    every level scores the same probe vectors and gradients, and only the
    anchor sets differ; each value equals a separate public call.
    """
    if not is_m_connected(space, omega):
        raise NotConnected("omega must be m-connected for the probe estimate")
    total = space.measure(omega)
    if not all(0 < l <= total for l in levels):
        raise InvalidParameter("need 0 < l <= nu(omega)")
    if p <= 1:
        raise InvalidParameter("p must exceed 1")
    nu = space.nu[omega]
    weighted = nu[:, None] * kern
    np.fill_diagonal(weighted, 0.0)  # a self-loop adds nothing to a gradient
    # the constant vector has no gradient and is anchored by all of omega
    best = max(_ratio(total ** (1.0 / p), total),
               float(np.max(_coordinate_ratios(nu, weighted, p))))
    bests = [best] * len(levels)
    rng = np.random.default_rng(seed)
    for _ in range(int(probe_count)):
        raw = rng.standard_normal(omega.size)
        norm = float((nu * np.abs(raw) ** p).sum()) ** (1.0 / p)
        if norm == 0.0:
            continue
        u = raw / norm
        # the shuffle of omega's positions is the shuffle of omega itself
        perm = rng.permutation(omega.size)
        num = float((nu * np.abs(u) ** p).sum()) ** (1.0 / p)
        grad = _gradient_energy(weighted, u, p) ** (1.0 / p)
        reached = np.cumsum(nu[perm])
        for i, l in enumerate(levels):
            # Z: the shortest prefix of the shuffle whose measure reaches l
            Z = np.sort(perm[: int(np.searchsorted(reached, l)) + 1])
            anchor = abs(float((nu[Z] * u[Z]).sum()))
            bests[i] = max(bests[i], _ratio(num, grad + anchor))
    return bests
