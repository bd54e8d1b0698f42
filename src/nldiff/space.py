"""Finite metric random walk spaces.

A space is a finite node set together with a row-stochastic jump kernel
and a node measure that is reversible for it.  Everything downstream
(divergence operators, solvers, time stepping) consumes these objects
read-only, so they validate once at construction and are immutable
afterwards.

A space keeps its kernel's pairs nonzero in either direction, a symmetric
support, and every sum over the walk takes its block of them from
:meth:`FiniteRandomWalkSpace.block_pairs`.  :func:`breadth_first_levels`
serves connectivity.
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
        measure scale.  ``reversibility_gap`` keeps the largest
        |nu[x] * kernel[x, y] - nu[y] * kernel[y, x]| found.

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
        # the pairs nonzero in either direction (rounding can leave one at
        # 0), in row order; every entry off them is 0
        support = kernel != 0.0
        support |= support.T
        rows, cols = np.nonzero(support)
        self._set_pairs(rows, cols, kernel[support], kernel[cols, rows], nu,
                        kernel.sum(axis=1))
        kernel.setflags(write=False)
        self._kernel = kernel

    @classmethod
    def _from_pairs(cls, rows, cols, weights, mirror, nu, row_sums):
        """A space from its pairs alone, checked as the constructor checks
        a dense kernel; the dense kernel is formed on first read."""
        space = cls.__new__(cls)
        space._set_pairs(rows, cols, weights, mirror, nu, row_sums)
        space._kernel = None
        return space

    def _set_pairs(self, rows, cols, weights, mirror, nu, row_sums):
        """Check and keep the kernel's pairs (rows, cols, weights) in row
        order, whose support is symmetric, with each pair's mirror entry
        kernel[col, row], the measure nu and the kernel's row sums.  The
        entries off the pairs are 0, so the pairs carry every check: finite
        and nonnegative entries, a positive measure, rows summing to 1
        within ROW_SUM_TOL and the largest reversibility gap
        |nu[x]*kernel[x, y] - nu[y]*kernel[y, x]|, which is 0 off them."""
        if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(nu)):
            raise InvalidParameter("kernel and nu must be finite")
        if np.any(weights < 0):
            raise InvalidParameter("kernel entries must be nonnegative")
        if np.any(nu <= 0):
            raise InvalidParameter("nu must be strictly positive")
        worst = float(np.max(np.abs(row_sums - 1.0)))
        if worst > ROW_SUM_TOL:
            raise InvalidParameter(
                "kernel rows must sum to 1 within %g (worst %.3e)" % (ROW_SUM_TOL, worst)
            )
        gap = float(np.max(np.abs(nu[rows] * weights - nu[cols] * mirror)))
        if gap > REVERSIBILITY_TOL * float(np.max(nu)):
            raise InvalidParameter(
                "nu is not reversible for the kernel (gap %.3e)" % gap
            )
        nu.setflags(write=False)
        self.nu = nu
        self.node_count = nu.size
        self.reversibility_gap = gap
        self._pair_rows, self._pair_cols = rows.astype(np.int32), cols.astype(np.int32)
        self._pair_weights = weights

    @property
    def kernel(self):
        """The dense (n, n) jump kernel, read-only; a space built from its
        pairs forms it on the first read."""
        if self._kernel is None:
            kernel = np.zeros((self.node_count, self.node_count))
            kernel[self._pair_rows, self._pair_cols] = self._pair_weights
            kernel.setflags(write=False)
            self._kernel = kernel
        return self._kernel

    def block_pairs(self, rows, cols, integration_set="Q1"):
        """(i, j, m): the pairs of the block at sorted node arrays ``rows``
        x ``cols`` with m = kernel[rows[i], cols[j]] > 0 or its mirror entry
        > 0, in the order of ``np.nonzero``.  ``integration_set`` "Q1" keeps
        them all, ("Q2", omega2) drops those with both nodes in omega2.
        """
        i = np.full(self.node_count, -1)
        j = np.full(self.node_count, -1)
        i[rows], j[cols] = np.arange(rows.size), np.arange(cols.size)
        i, j = i[self._pair_rows], j[self._pair_cols]
        keep = (i >= 0) & (j >= 0)
        if integration_set != "Q1":
            if not (isinstance(integration_set, tuple) and len(integration_set) == 2
                    and integration_set[0] == "Q2"):
                raise InvalidParameter("integration_set must be 'Q1' or ('Q2', omega2)")
            in2 = np.zeros(self.node_count, dtype=bool)
            in2[self.node_set(integration_set[1])] = True
            keep &= ~(in2[self._pair_rows] & in2[self._pair_cols])
        return i[keep], j[keep], self._pair_weights[keep]

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


def breadth_first_levels(n, i, j):
    """Breadth-first levels of the row-sorted pairs (i, j) on positions 0..n-1.

    The pattern is symmetric, as the space stores its pairs.  Each
    component is searched from an unreached position of least degree (the
    Cuthill-McKee level structure), each level grown from the one before
    through the row starts of the pairs, so every pair joins one level or
    two neighbouring ones.  Returns (level of each position, numbered on
    across components; size of each level; number of components).
    """
    degree = np.bincount(i, minlength=n)
    row_starts = np.cumsum(degree) - degree
    level, sizes, components = np.full(n, -1), [], 0
    unreached = np.arange(n)
    while unreached.size:
        frontier = unreached[[np.argmin(degree[unreached])]]
        components += 1
        while frontier.size:
            level[frontier] = len(sizes)
            sizes.append(frontier.size)
            # the neighbours: the frontier's row ranges of j, concatenated
            counts = degree[frontier]
            ends = np.cumsum(counts)
            offsets = np.repeat(row_starts[frontier] - ends + counts, counts)
            reached = np.zeros(n, dtype=bool)
            reached[j[np.arange(ends[-1]) + offsets]] = True
            frontier = np.flatnonzero(reached & (level < 0))
        unreached = np.flatnonzero(level < 0)
    return level, sizes, components


@dataclass(frozen=True)
class DomainPartition:
    """Disjoint split of the working domain into a bulk and a boundary region.

    Either part may be empty, but not both.  Stored as sorted index arrays,
    with ``omega`` their union and ``boundary_mask`` marking omega2 over it;
    all four are computed once and read-only.
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
        omega = np.union1d(o1, o2)
        for name, value in (("omega1", o1), ("omega2", o2), ("omega", omega),
                            ("boundary_mask", np.isin(omega, o2))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


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
    profile to the sampled stencil: x - y is -(y - x) exactly, so the
    distances, and a profile's values on them, are symmetric bit for bit.
    The weights are formed in blocks of rows of about 2**18 entries and
    kept as pairs, so no n x n array is formed.  A profile whose values
    depend on the block it is given can break that symmetry: a pair with
    weight in one direction only raises InvalidParameter, and unequal
    mirror weights are held to the constructor's reversibility check.

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
    InvalidParameter
        If the profile's values are negative or not finite, or not
        symmetric (see above).
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
    n, dim = pts.shape
    step = max(1, (1 << 18) // n)
    degree, row_sums = np.empty(n), np.empty(n)
    rows, cols, weights = [], [], []
    for start in range(0, n, step):
        block = slice(start, min(n, start + step))
        diff = pts[block, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        w = np.asarray(kernel_profile(dist), dtype=float) * spacing**dim
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidParameter("kernel profile must be finite and nonnegative")
        local = np.arange(w.shape[0])
        w[local, start + local] = 0.0
        degree[block] = w.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            row_sums[block] = (w / degree[block, None]).sum(axis=1)
        i, j = np.nonzero(w)
        rows.append(i + start)
        cols.append(j)
        weights.append(w[i, j])
    if np.any(degree <= 0):
        bad = int(np.argmin(degree))
        raise EmptyStencil("point %d sees zero kernel mass" % bad)
    rows, cols, w = (np.concatenate(a) for a in (rows, cols, weights))
    # on a symmetric support the pairs in (col, row) order are the mirrors
    # of the pairs in (row, col) order
    mirror = np.lexsort((rows, cols))
    if not (np.array_equal(rows[mirror], cols) and np.array_equal(cols[mirror], rows)):
        raise InvalidParameter(
            "kernel profile must be a function of the distance alone: "
            "a pair has weight in one direction only")
    m = w / degree[rows]
    mirror = m[mirror]
    # the kernel's pairs: those whose entry or mirror entry stays nonzero
    keep = (m != 0.0) | (mirror != 0.0)
    return FiniteRandomWalkSpace._from_pairs(rows[keep], cols[keep], m[keep],
                                             mirror[keep], degree, row_sums)


# ---------------------------------------------------------------------------
# boundaries, interaction, connectivity
# ---------------------------------------------------------------------------

def m_boundary(space: FiniteRandomWalkSpace, W) -> np.ndarray:
    """Nodes outside W that jump into W with positive probability."""
    W = space.node_set(W)
    jumpers, _, m = space.block_pairs(np.arange(space.node_count), W)
    return np.setdiff1d(jumpers[m > 0.0], W)


def m_closure(space: FiniteRandomWalkSpace, W) -> np.ndarray:
    """W together with its m-boundary."""
    W = space.node_set(W)
    return np.union1d(W, m_boundary(space, W))


def interaction(space: FiniteRandomWalkSpace, A, B) -> float:
    """Total jump flux sum_{x in A} nu_x * m_x(B); symmetric in (A, B)."""
    A = space.node_set(A)
    B = space.node_set(B)
    i, _, m = space.block_pairs(A, B)
    return float((space.nu[A] * np.bincount(i, weights=m, minlength=A.size)).sum())


def is_m_connected(space: FiniteRandomWalkSpace, omega) -> bool:
    """Whether every nontrivial split of omega has positive interaction.

    On a finite space this is one component of :func:`breadth_first_levels`
    on the kernel's support restricted to omega; the exhaustive bipartition
    characterization is exercised in tests.
    """
    omega = space.node_set(omega)
    if omega.size == 0:
        raise InvalidParameter("omega must be nonempty")
    i, j, _ = space.block_pairs(omega, omega)
    return breadth_first_levels(omega.size, i, j)[2] == 1


# ---------------------------------------------------------------------------
# Poincaré diagnostics
# ---------------------------------------------------------------------------

def poincare_ratio(space, omega, integration_set, u, Z, p) -> float:
    """Ratio of the L^p norm of u to its gradient energy plus mean anchor.

    ``integration_set`` is as :meth:`FiniteRandomWalkSpace.block_pairs`
    takes it.  Returns ``inf`` when the denominator vanishes while u does
    not, and 0 for u identically zero on omega.
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
    i, j, m = space.block_pairs(omega, omega, integration_set)
    grad = _gradient_energy((i, j, nu_o[i] * m), uo, p) ** (1.0 / p)
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
    gradient energy of the coordinate vector e_x is the sum of nu*k over
    the masked pairs that hold x, with (x, x) weighing zero (a self-loop
    adds nothing to a gradient), which by reversibility is
    2*nu_x*sum_{j != x} k_xj.  So the ratio of e_x is
    nu_x^(1/p) / ((2*nu_x*sum_{j != x} k_xj)^(1/p) + nu_x).  The block's
    pairs are taken once, and each random probe costs one pass over them,
    so the estimate costs O(probe_count * pairs) on the pairs of omega.
    """
    omega = space.node_set(omega)
    pairs = space.block_pairs(omega, omega, integration_set)
    if not is_m_connected(space, omega):
        raise NotConnected("omega must be m-connected for the probe estimate")
    return _poincare_estimates(space, omega, pairs, p, (l,), probe_count, seed)[0]


def _gradient_energy(pairs, u, p):
    """sum_k w_k * |u_(j_k) - u_(i_k)|^p over weighted pairs (i, j, w)."""
    i, j, w = pairs
    return float((w * np.abs(u[j] - u[i]) ** p).sum())


def _coordinate_ratios(nu, pairs, p):
    """:func:`poincare_ratio` of every coordinate vector e_x, anchored by omega.

    ``pairs`` are the weighted pairs (i, j, nu_i*k_ij) of the masked block,
    with the pairs (x, x) weighing zero.  The gradient energy of e_x is the
    sum of their weights over the pairs that hold x, its L^p norm
    nu_x^(1/p) and its anchor nu_x.
    """
    i, j, w = pairs
    grads = np.bincount(i, w, nu.size) + np.bincount(j, w, nu.size)
    return nu ** (1.0 / p) / (grads ** (1.0 / p) + nu)


def _poincare_estimates(space, omega, pairs, p, levels, probe_count, seed):
    """:func:`estimate_poincare_constant` at each anchor measure in ``levels``.

    ``pairs`` are :meth:`FiniteRandomWalkSpace.block_pairs` of the masked
    block over the sorted node array ``omega``, which the caller has found
    m-connected.  The random probes depend on the seed alone, so every
    level scores the same probe vectors and gradients, and only the anchor
    sets differ; each value equals a separate public call.
    """
    total = space.measure(omega)
    if not all(0 < l <= total for l in levels):
        raise InvalidParameter("need 0 < l <= nu(omega)")
    if p <= 1:
        raise InvalidParameter("p must exceed 1")
    nu = space.nu[omega]
    i, j, m = pairs
    # a self-loop adds nothing to a gradient: its pairs weigh zero
    weighted = (i, j, np.where(i == j, 0.0, nu[i] * m))
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
