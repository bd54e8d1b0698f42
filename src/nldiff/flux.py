"""Odd monotone flux functions and the nonlocal operators built on them.

A flux assigns to every node pair and every difference r an antisymmetric,
strictly monotone value with power-type growth and coercivity. The
operators here are plain weighted sums against the walk kernel, all applied
by one NonlocalOperator: divergence over a node set and the two flavors of
Neumann boundary derivative.

The operator keeps the nonzero pairs (i, j, m_ij) of its kernel block, as
the space gives them, and evaluates, sums and differentiates over them
alone, so a compactly supported kernel costs work in proportion to its
stencil.  Its derivative is minus a graph Laplacian of the pair slopes:
Newton solves it directly as the dense ``jacobian`` of a small or dense
(``direct``) operator, and matrix-free, unformed (``laplacian``), on the
others.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidExponent,
    InvalidParameter,
    MissingValues,
    WeightOutOfRange,
)
from .space import m_boundary, m_closure

_VALIDATION_TRIPLES = 1000
_VALIDATION_SEED = 424243
# slope() takes the derivative at |r| of at least this, finite for p < 2
SLOPE_FLOOR = 1e-12
# Newton solves an operator with fewer rows directly, on its dense Jacobian
DIRECT_SOLVE_ROWS = 128


@dataclass(frozen=True)
class LerayLionsFlux:
    """Flux function a(x, y, r) with growth and coercivity constants.

    Attributes
    ----------
    p : float
        Growth exponent, strictly above 1.
    kind : str
        One of "p_laplacian", "weighted", "custom".
    c_p, C_p : float
        Coercivity and growth constants: a(x,y,r)·r >= c_p·|r|**p and
        |a(x,y,r)| <= C_p·(1+|r|**(p-1)).
    phi : ndarray or None
        Node weights for the weighted kind.
    evaluator : callable or None
        Custom evaluator with signature (x, y, r) -> value, broadcastable.
    """

    p: float
    kind: str
    c_p: float
    C_p: float
    phi: np.ndarray | None = None
    evaluator: object = None

    def evaluate(self, x, y, r):
        """a(x, y, r) with numpy broadcasting over all three arguments."""
        r = np.asarray(r, dtype=float)
        if self.kind == "p_laplacian":
            return _odd_power(r, self.p - 1.0)
        if self.kind == "weighted":
            w = 0.5 * (self.phi[np.asarray(x)] + self.phi[np.asarray(y)])
            return w * _odd_power(r, self.p - 1.0)
        return np.asarray(self.evaluator(x, y, r), dtype=float)

    def slope(self, x, y, r):
        """Derivative of r -> a(x, y, r), floored away from 0 for p < 2."""
        r = np.asarray(r, dtype=float)
        base = np.maximum(np.abs(r), SLOPE_FLOOR)
        if self.kind == "p_laplacian":
            return (self.p - 1.0) * base ** (self.p - 2.0)
        if self.kind == "weighted":
            w = 0.5 * (self.phi[np.asarray(x)] + self.phi[np.asarray(y)])
            return w * (self.p - 1.0) * base ** (self.p - 2.0)
        h = 1e-7 * (1.0 + np.abs(r))
        return (self.evaluate(x, y, r + h) - self.evaluate(x, y, r - h)) / (2.0 * h)


def _odd_power(r, e):
    return np.sign(r) * np.abs(r) ** e


def p_laplacian_flux(p) -> LerayLionsFlux:
    """Flux a(x,y,r) = |r|**(p-2)·r with unit constants."""
    p = float(p)
    if not p > 1.0:
        raise InvalidExponent("flux exponent must exceed 1, got %g" % p)
    return LerayLionsFlux(p=p, kind="p_laplacian", c_p=1.0, C_p=1.0)


def weighted_flux(p, phi) -> LerayLionsFlux:
    """Flux ((phi_x + phi_y)/2)·|r|**(p-2)·r for positive bounded weights."""
    p = float(p)
    if not p > 1.0:
        raise InvalidExponent("flux exponent must exceed 1, got %g" % p)
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise WeightOutOfRange("weights must form a nonempty node vector")
    if not np.all(np.isfinite(phi)) or np.min(phi) <= 0.0:
        raise WeightOutOfRange("weights must be finite and strictly positive")
    return LerayLionsFlux(
        p=p,
        kind="weighted",
        c_p=float(np.min(phi)),
        C_p=float(np.max(phi)),
        phi=phi.copy(),
    )


def custom_flux(p, evaluator, c_p, C_p, node_hint=8) -> LerayLionsFlux:
    """Wrap a user evaluator after checking the structural conditions.

    The evaluator is probed on sampled (x, y, r) triples for antisymmetry,
    strict monotonicity, growth against C_p, coercivity against c_p, and
    the sign condition; construction fails on any violation.
    """
    p = float(p)
    if not p > 1.0:
        raise InvalidExponent("flux exponent must exceed 1, got %g" % p)
    if not (c_p > 0 and C_p > 0):
        raise InvalidParameter("constants c_p, C_p must be positive")
    rng = np.random.default_rng(_VALIDATION_SEED)
    xs = rng.integers(0, node_hint, _VALIDATION_TRIPLES)
    ys = rng.integers(0, node_hint, _VALIDATION_TRIPLES)
    rs = rng.standard_normal(_VALIDATION_TRIPLES) * 10.0 ** rng.integers(
        -4, 4, _VALIDATION_TRIPLES
    )
    a = np.asarray(evaluator(xs, ys, rs), dtype=float)
    a_flip = np.asarray(evaluator(ys, xs, -rs), dtype=float)
    tol = 1e-10 * (1.0 + np.abs(a))
    if not np.all(np.abs(a + a_flip) <= tol):
        raise InvalidParameter("custom flux is not antisymmetric on samples")
    ss = rs * rng.uniform(0.2, 0.8, rs.shape) + rng.standard_normal(rs.shape)
    b = np.asarray(evaluator(xs, ys, ss), dtype=float)
    gap = (a - b) * (rs - ss)
    if not np.all(gap[rs != ss] > 0.0):
        raise InvalidParameter("custom flux is not strictly monotone on samples")
    if not np.all(np.abs(a) <= C_p * (1.0 + np.abs(rs) ** (p - 1.0)) * (1 + 1e-10)):
        raise InvalidParameter("custom flux violates the stated growth bound")
    if not np.all(a * rs >= c_p * np.abs(rs) ** p * (1 - 1e-10)):
        raise InvalidParameter("custom flux violates the stated coercivity bound")
    zero = np.asarray(evaluator(xs[:1], ys[:1], np.zeros(1)), dtype=float)
    if not np.all(zero == 0.0):
        raise InvalidParameter("custom flux must vanish at r = 0")
    return LerayLionsFlux(
        p=p, kind="custom", c_p=float(c_p), C_p=float(C_p), evaluator=evaluator
    )


# ---------------------------------------------------------------------------
# nonlocal operators
# ---------------------------------------------------------------------------

class NonlocalOperator:
    """The nonlocal Leray-Lions operator of a flux on one block of node pairs.

    Row i stands for node ``rows[i]`` and column j for node ``cols[j]``:

        apply(u)[i] = sum_j m[x_i, y_j] * a(x_i, y_j, u(y_j) - u(x_i))

    over the pairs the integration set keeps ("Q1" or ("Q2", omega2)).
    Node vectors are indexed over ``nodes``, the sorted union of rows and
    columns.  The block's pairs are taken from the space once, here, and
    kept as ``pairs``.  ``pair_rows``, ``pair_cols`` and ``weights`` hold
    them (i, j, m[x_i, y_j]), the stored ones sorted by row, whose row sums
    np.add.reduceat takes; every method runs over them alone, on dense and
    sparse blocks alike.  The flux is evaluated through ``flux`` on those
    pairs at every application.  The differences of the last u, and its
    flux terms once formed, are kept, so that a Newton step's residual and
    Jacobian at one u, and the equation's terms at the point it stops,
    form them once; they are read-only because every later call with the
    same u shares them.
    """

    def __init__(self, space, flux, rows, cols, integration_set="Q1"):
        self.flux = flux
        self.rows = rows
        self.cols = cols
        self.nodes = np.union1d(rows, cols)
        self.pairs = space.block_pairs(rows, cols, integration_set)
        i, j, self.weights = self.pairs
        starts = np.flatnonzero(np.diff(i, prepend=-1))
        self._sum_rows, self._sum_starts = i[starts], starts
        self.pair_rows, self.pair_cols = i, j
        self.nu = space.nu[rows]
        # each pair's row and column position in ``nodes``
        self._ui = _positions(self.nodes, rows, i)
        self._uj = _positions(self.nodes, cols, j)
        self._last_u = self._last_du = self._last_terms = None

    @property
    def direct(self):
        """Whether Newton solves on the dense ``jacobian``: a block at least
        half full, or fewer than DIRECT_SOLVE_ROWS rows."""
        return (2 * self.weights.size >= self.rows.size * self.cols.size
                or self.rows.size < DIRECT_SOLVE_ROWS)

    @cached_property
    def _jacobian_pairs(self):
        """(k, flat): the pairs k whose column node is a row node, and the
        flat index i*rows + j of their row i and column j in the rows x rows
        Jacobian."""
        node_row = np.full(self.nodes.size, -1)
        node_row[np.searchsorted(self.nodes, self.rows)] = np.arange(self.rows.size)
        col_row = node_row[self._uj]
        pairs = np.flatnonzero(col_row >= 0)
        return pairs, self.pair_rows[pairs] * self.rows.size + col_row[pairs]

    @cached_property
    def _laplacian_pairs(self):
        """(k, starts, heads, j, between): the pairs k of ``_jacobian_pairs``
        between two different row nodes, at columns j, whose rows ``heads``
        begin at ``starts``, and the mask of the pairs between two different
        nodes."""
        pairs, flat = self._jacobian_pairs
        i, j = np.divmod(flat, self.rows.size)
        off = i != j
        starts = np.flatnonzero(np.diff(i[off], prepend=-1))
        return pairs[off], starts, i[off][starts], j[off], self._ui != self._uj

    @cached_property
    def _pair_nodes(self):
        """(x, y), the row and column node of each pair, which the flux
        reads; the p-Laplacian flux reads neither, and gets None."""
        if self.flux.kind == "p_laplacian":
            return None, None
        return self.rows[self.pair_rows], self.cols[self.pair_cols]

    def _differences(self, u):
        last = self._last_u
        if last is None or last.shape != u.shape or not (last == u).all():
            du = u[self._uj]
            du -= u[self._ui]  # in place: one pair-length temporary fewer
            du.flags.writeable = False
            self._last_u, self._last_du, self._last_terms = u.copy(), du, None
        return self._last_du

    def _row_sums(self, values):
        """Sums of per-pair values along each row."""
        out = np.zeros(self.rows.size)
        if values.size:
            out[self._sum_rows] = np.add.reduceat(values, self._sum_starts)
        return out

    def apply(self, u):
        """The operator at every row node, for u indexed over ``nodes``."""
        return self._row_sums(self._terms(u))

    def _terms(self, u):
        """The kernel-weighted flux values of the pairs, which ``apply`` sums."""
        du = self._differences(u)
        if self._last_terms is None:
            terms = self.weights * self.flux.evaluate(*self._pair_nodes, du)
            terms.flags.writeable = False
            self._last_terms = terms
        return self._last_terms

    def slopes(self, u):
        """The kernel-weighted floored flux slopes m*a' of the pairs."""
        return self.weights * self.flux.slope(*self._pair_nodes, self._differences(u))

    def jacobian(self, u):
        """Derivative of ``apply`` with respect to u at the row nodes.

        Rows must lie among the columns.  Uses the floored flux slope.  The
        pair slopes are scattered into a dense rows x rows matrix.
        """
        w = self.slopes(u)
        n = self.rows.size
        pairs, flat = self._jacobian_pairs
        jac = np.zeros(n * n)
        jac[flat] = w if pairs.size == w.size else w[pairs]
        jac[:: n + 1] -= self._row_sums(w)
        return jac.reshape(n, n)

    def laplacian(self, u):
        """(degree, dot): -jacobian(u) = diag(degree) - W, never formed.
        W holds the slopes of the pairs between two different row nodes,
        and degree sums each row's slopes over all pairs between two
        different nodes; dot(x) = (diag(degree) - W) @ x gathers and sums
        rows once over the pairs.  Weighted by nu, W is symmetric."""
        w = self.slopes(u)
        pairs, starts, heads, j, between = self._laplacian_pairs
        degree = self._row_sums(np.where(between, w, 0.0))
        w = w[pairs]

        def dot(x):
            out = degree * x
            out[heads] -= np.add.reduceat(w * x[j], starts)
            return out

        return degree, dot

    def pairing(self, u, w):
        """Half the nu-weighted double sum of a(u-differences)·(w-differences)."""
        vals = self.flux.evaluate(*self._pair_nodes, self._differences(u))
        return 0.5 * float(
            np.sum(self.nu[self.pair_rows] * self.weights * vals * self._differences(w))
        )


def _positions(nodes, block, k):
    """The positions in the sorted ``nodes`` of block[k]: k itself when
    ``block`` is ``nodes``."""
    if np.array_equal(block, nodes):
        return k
    return np.searchsorted(nodes, block)[k]


def _checked_vector(space, u, nodes, what="u"):
    u = np.asarray(u, dtype=float)
    if u.shape != (space.node_count,):
        raise MissingValues(
            "%s must be a length-%d node vector, got shape %s"
            % (what, space.node_count, u.shape)
        )
    if not np.all(np.isfinite(u[nodes])):
        raise MissingValues("%s has non-finite entries on the requested nodes" % what)
    return u


def divergence(space, flux, u, Omega=None):
    """Weighted flux balance at each node of Omega, summed over Omega.

    Returns the vector ((div u)(x))_{x in sorted(Omega)} with
    (div u)(x) = sum_y m[x, y] * a(x, y, u[y] - u[x]) over y in Omega.
    """
    omega = (
        np.arange(space.node_count)
        if Omega is None
        else space.node_set(Omega)
    )
    u = _checked_vector(space, u, omega)
    return NonlocalOperator(space, flux, omega, omega).apply(u[omega])


def neumann_n1(space, flux, u, W):
    """Boundary flux against the whole closure of W, on the m-boundary."""
    bd = m_boundary(space, W)
    cl = m_closure(space, W)
    u = _checked_vector(space, u, cl)
    if bd.size == 0:
        return np.zeros(0)
    return -NonlocalOperator(space, flux, bd, cl).apply(u[cl])


def neumann_n2(space, flux, u, W):
    """Boundary flux against W only, on the m-boundary."""
    bd = m_boundary(space, W)
    cl = m_closure(space, W)
    u = _checked_vector(space, u, cl)
    if bd.size == 0:
        return np.zeros(0)
    return -NonlocalOperator(space, flux, bd, space.node_set(W)).apply(u[cl])


def pairing_identity(space, flux, u, w, Omega, integration_set):
    """Both sides of the summation-by-parts identity on the chosen pair set.

    Returns (lhs, rhs) where lhs pairs w against the divergence and rhs is
    half the double sum of flux values against differences of w.
    """
    omega = space.node_set(Omega)
    u = _checked_vector(space, u, omega)[omega]
    w = _checked_vector(space, w, omega, what="w")[omega]
    op = NonlocalOperator(space, flux, omega, omega, integration_set)
    lhs = -float(np.sum(op.nu * w * op.apply(u)))
    return lhs, op.pairing(u, w)
