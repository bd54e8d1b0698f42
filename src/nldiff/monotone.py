"""Maximal monotone graphs on the real line with 0 in the graph at 0.

A graph is stored as an ordered path of elements, each covering a closed
box in the (r, v) plane:

* ``affine``   v = a + b*r with b >= 0 on an r-interval,
* ``power``    v = c*sign(r)*|r|**e with c, e > 0 on an r-interval,
* ``vertical`` a jump or ray: fixed r, v running over an interval.

Consecutive elements share a corner, the first corner sits at r or v equal
to -inf and the last at +inf, which is exactly maximality.  Corner values
are stored explicitly so that constructions (inverses, splits, obstacles)
stay bit-consistent.

Resolvents and regularized evaluations never subtract nearly equal
quantities: each element has a closed form, or a root search (Newton kept
inside a shrinking bracket) whose accuracy is independent of the
regularization parameter.  The regularized (Yosida) value is read off the
resolvent: lam*(s - r) clipped into the graph at r = J_{1/lam}(s), which off
vertical elements is the piece's value at r; its slope g'/(1 + g'/lam) comes
from the graph's slope g' at r.

``resolvent``, ``resolvent_slope`` and ``interval`` run in table form: the
constructor lays the elements out as arrays, and a query finds each point's
element with one searchsorted and evaluates it with gathers, with no loop
over the elements; only power pieces with e != 2 take the bracketed Newton,
each on its own points.  The results are those of evaluating the elements
one by one, bit for bit: a vertical element gives its knot exactly, a clip
keeps a value equal to a bound as np.clip does with scalar bounds, a flat
piece is its constant (a + 0*r is NaN at +-inf), and a power piece takes
numpy's power at its own scalar exponent.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameter

_INF = float("inf")


class El(NamedTuple):
    kind: str  # "affine" | "power" | "vertical"
    r0: float
    r1: float
    v0: float
    v1: float
    p: float  # affine: a;  power: c;  vertical: unused (0.0)
    q: float  # affine: b;  power: e;  vertical: unused (0.0)


def _affine(r0, r1, a, b):
    return El("affine", float(r0), float(r1), _aff_val(a, b, r0), _aff_val(a, b, r1),
              float(a), float(b))


def _aff_val(a, b, r):
    if math.isinf(r):
        if b == 0.0:
            return float(a)
        return _INF if r > 0 else -_INF
    return float(a) + float(b) * float(r)


def _pow_val(c, e, r):
    if r == 0.0:
        return 0.0
    if math.isinf(r):
        return _INF if r > 0 else -_INF
    return float(c) * math.copysign(abs(float(r)) ** float(e), float(r))


def _power(r0, r1, c, e):
    return El("power", float(r0), float(r1), _pow_val(c, e, r0), _pow_val(c, e, r1),
              float(c), float(e))


def _vertical(t, v0, v1):
    return El("vertical", float(t), float(t), float(v0), float(v1), 0.0, 0.0)


class MonotoneGraph:
    """Piecewise representation of a maximal monotone graph.

    Most callers build instances through the ``make_*`` helpers or
    :func:`from_config` rather than from raw elements.
    """

    __slots__ = (
        "elements",
        "domain",
        "range_inf",
        "range_sup",
        "breakpoints",
        "jumps",
        "_corner_r",
        "_corner_v",
        "_ends",
        "_values",
        "_power",
        "_exponents",
        "_newton",
        "_run",
        "_at_mu",
        "_plus",
        "_minus",
        "_inv",
    )

    def __init__(self, elements):
        els = []
        for el in elements:
            el = El(*el)
            if el.kind == "power" and el.q == 1.0:
                el = El("affine", el.r0, el.r1, el.v0, el.v1, 0.0, el.p)
            els.append(el)
        if not els:
            raise InvalidParameter("graph needs at least one element")
        for el in els:
            if el.kind == "vertical":
                if not math.isfinite(el.r0) or el.r0 != el.r1:
                    raise InvalidParameter("vertical element needs a finite knot")
                if not el.v0 < el.v1:
                    raise InvalidParameter("vertical element needs v0 < v1")
            elif el.kind == "affine":
                if not el.r0 < el.r1:
                    raise InvalidParameter("affine element needs r0 < r1")
                if not (math.isfinite(el.p) and math.isfinite(el.q) and el.q >= 0):
                    raise InvalidParameter("affine element needs finite a, b >= 0")
            elif el.kind == "power":
                if not el.r0 < el.r1:
                    raise InvalidParameter("power element needs r0 < r1")
                if not (el.p > 0 and math.isfinite(el.p) and el.q > 0
                        and math.isfinite(el.q)):
                    raise InvalidParameter("power element needs c, e > 0")
            else:
                raise InvalidParameter("unknown element kind %r" % (el.kind,))
        for left, right in zip(els, els[1:]):
            if not (left.r1 == right.r0 and left.v1 == right.v0):
                raise InvalidParameter(
                    "elements do not chain: %s then %s" % (left, right)
                )
        first, last = els[0], els[-1]
        if not (math.isinf(first.r0) or math.isinf(first.v0)):
            raise InvalidParameter("graph is not maximal at the lower end")
        if not (math.isinf(last.r1) or math.isinf(last.v1)):
            raise InvalidParameter("graph is not maximal at the upper end")
        self.elements = tuple(els)
        self.domain = (first.r0, last.r1)
        self.range_inf = first.v0
        self.range_sup = last.v1
        self.breakpoints = tuple(
            el.r0 for el in els if el.kind == "vertical" and math.isfinite(el.v0)
            and math.isfinite(el.v1)
        )
        self.jumps = {
            el.r0: (el.v0, el.v1)
            for el in els
            if el.kind == "vertical"
        }
        self._corner_r = np.array([first.r0] + [el.r1 for el in els])
        self._corner_v = np.array([first.v0] + [el.v1 for el in els])
        self._build_table(els)
        self._plus = None
        self._minus = None
        self._inv = None
        lo, hi = self.interval(0.0) if self.domain[0] <= 0.0 <= self.domain[1] else (1, 1)
        if not (lo <= 0.0 <= hi):
            raise InvalidParameter("graph must contain (0, 0)")

    def _build_table(self, els):
        """The per-element rows, in path order, that the queries gather:
        ``_ends`` r0, r1; ``_values`` affine a, b (0 elsewhere), v0, v1 and
        the graph slope (b, inf on a vertical element); ``_power`` c, e and
        c*e (0 elsewhere), None without power elements.  ``_newton`` lists
        the power elements with e != 2, and ``_run`` is the most elements
        that hold one r, at a knot."""
        def column(kind, value):
            return [value(el) if el.kind == kind else 0.0 for el in els]

        a, b = column("affine", lambda el: el.p), column("affine", lambda el: el.q)
        slope = [_INF if el.kind == "vertical" else q for el, q in zip(els, b)]
        self._ends = np.array([[el.r0 for el in els], [el.r1 for el in els]])
        self._values = np.array([a, b, [el.v0 for el in els],
                                 [el.v1 for el in els], slope])
        self._exponents = tuple(sorted({el.q for el in els if el.kind == "power"}))
        self._power = None
        if self._exponents:
            self._power = np.array([column("power", lambda el: el.p),
                                    column("power", lambda el: el.q),
                                    column("power", lambda el: el.p * el.q)])
        self._newton = tuple(i for i, el in enumerate(els)
                             if el.kind == "power" and el.q != 2.0)
        first, last = self._run_ends(self._corner_r)
        self._run = int(np.max(last - first)) + 1
        self._at_mu = None

    def _run_ends(self, r):
        """The first and last element holding each r: the elements with
        r1 >= r and r0 <= r, consecutive in path order.  A NaN r has
        last < first."""
        return (np.searchsorted(self._ends[1], r, side="left"),
                np.searchsorted(self._ends[0], r, side="right") - 1)

    # -- basic queries ------------------------------------------------------

    def interval(self, r):
        """Closed value interval at r; raises outside the domain.

        An array r gives a pair of arrays of its shape, a scalar r a pair
        of floats.  Off the knots one element holds r, and the interval is
        its bounds there; at a knot the bounds of the elements holding it
        are folded in path order with np.minimum and np.maximum, which
        settles the sign of a zero as an element-by-element fold would.
        A scalar r takes numpy's scalar power on a power piece.
        """
        r = np.asarray(r, dtype=float)
        if self.domain[0] > -_INF or self.domain[1] < _INF:
            outside = (r < self.domain[0]) | (r > self.domain[1])
            if np.count_nonzero(outside):
                raise InvalidParameter(
                    "r=%g outside domain %s" % (r[outside].flat[0], self.domain)
                )
        scalar = r.ndim == 0
        x = r.reshape(-1)
        first, last = self._run_ends(x)
        lo, hi = self._bounds(np.minimum(first, last), x, scalar)
        more = last - first
        if more.any():
            # no element holds NaN
            lo[more < 0], hi[more < 0] = _INF, -_INF
            k = np.flatnonzero(more > 0)
            for step in range(1, self._run):
                k = k[first[k] + step <= last[k]]
                if not k.size:
                    break
                bot, top = self._bounds(first[k] + step, x[k], scalar)
                lo[k] = np.minimum(lo[k], bot)
                hi[k] = np.maximum(hi[k], top)
        if scalar:
            return float(lo[0]), float(hi[0])
        return lo.reshape(r.shape), hi.reshape(r.shape)

    def _bounds(self, j, x, scalar):
        """(bottom, top) of element j[i]'s values at x[i]: a vertical
        element's ends, another's value clipped to its value range.  With
        ``scalar`` x holds one point, whose power runs on a 0-d array."""
        a, b, v0, v1, slope = self._values[:, j]
        with np.errstate(invalid="ignore", over="ignore"):
            # a flat piece is a, where a + 0*x would be NaN at x = +-inf
            val = np.where(b == 0.0, a, a + b * x)
            if self._power is not None:
                c, e_at, _ = self._power[:, j]
                for e in self._exponents:
                    on = e_at == e
                    if on.any():
                        xe = x[on].reshape(()) if scalar else x[on]
                        # c*|x|**e is +-inf at x = +-inf; + 0.0 turns -0.0 into 0.0
                        val[on] = c[on] * np.copysign(np.abs(xe) ** e, xe) + 0.0
        val = np.minimum(np.maximum(val, v0), v1)
        vertical = slope == _INF
        return np.where(vertical, v0, val), np.where(vertical, v1, val)

    def minimal_section(self, s) -> float:
        s = float(s)
        if s < self.domain[0]:
            return -_INF
        if s > self.domain[1]:
            return _INF
        lo, hi = self.interval(s)
        if lo > 0.0:
            return lo
        if hi < 0.0:
            return hi
        return 0.0

    def range_bounds(self) -> tuple[float, float]:
        return self.range_inf, self.range_sup

    # -- resolvent and regularized evaluation --------------------------------

    def _regions(self, mu):
        with np.errstate(invalid="ignore"):
            sc = self._corner_r + mu * self._corner_v
        # corners are monotone in both coordinates, so sc is sorted
        return sc

    def _scaled(self, mu):
        """The inner region corners at step mu, and the element rows mu*a,
        1 + mu*b, r0, r1, the graph slope g' and the resolvent's slope
        1/(1 + mu*g') off power pieces; kept for the last mu asked."""
        if self._at_mu is None or self._at_mu[0] != mu:
            a, b, _, _, slope = self._values
            rows = np.array([mu * a, 1.0 + mu * b, *self._ends, slope,
                             1.0 / (1.0 + mu * slope)])
            self._at_mu = (mu, self._regions(mu)[1:-1], rows)
        return self._at_mu[1:]

    def resolvent(self, mu, s):
        """Solve s in r + mu*graph(r) for r; nonexpansive in s."""
        return self._resolvent_impl(mu, s, want_slope=False)[0]

    def resolvent_slope(self, mu, s):
        """Resolvent together with its derivative in s.

        The derivative is 0 where s maps onto a vertical element,
        1/(1 + mu*b) on an affine piece and 1/(1 + mu*c*e*|r|**(e-1)) at
        r on a power piece.
        """
        return self._resolvent_impl(mu, s, want_slope=True)[:2]

    def _resolvent_impl(self, mu, s, want_slope):
        """J_mu(s), and with want_slope its derivative and the graph's slope
        at J_mu(s), which is inf on vertical elements.

        One searchsorted over the region corners picks each s's element.
        An affine element's resolvent is (s - mu*a)/(1 + mu*b) clipped into
        [r0, r1] as np.clip clips to scalar bounds, which keeps a value
        equal to a bound, sign of zero and all; a vertical element gives
        its knot; an e = 2 power piece the closed form of ``_power2_root``;
        other power pieces the bracketed Newton, each on its own points.
        """
        if mu <= 0:
            raise InvalidParameter("mu must be positive")
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        if scalar:
            s = s.reshape(1)
        corners, rows = self._scaled(mu)
        j = np.searchsorted(corners, s, side="right")
        shift, scale, r0, r1, gslope, slope = rows[:, j]
        # np.minimum and np.maximum return their second operand on a tie,
        # which keeps a value equal to a bound
        out = np.minimum(r1, np.maximum(r0, (s - shift) / scale))
        out = np.where(gslope == _INF, r0, out)
        if self._power is not None:
            c, e_at, ce = self._power[:, j]
            on = e_at == 2.0
            if on.any():
                out[on] = np.minimum(r1[on], np.maximum(
                    r0[on], _power2_root(mu * c[on], s[on])))
        for k in self._newton:
            on = j == k
            if on.any():
                out[on] = _resolvent_power(self.elements[k], mu, s[on])
        if not want_slope:
            return (float(out[0]) if scalar else out), None, None
        with np.errstate(divide="ignore", over="ignore"):
            for e in self._exponents:
                on = e_at == e
                if on.any():
                    gslope[on] = ce[on] * np.abs(out[on]) ** (e - 1.0)
                    slope[on] = 1.0 / (1.0 + mu * gslope[on])
        if scalar:
            return float(out[0]), float(slope[0]), None
        return out, slope, gslope

    def yosida(self, lam, s):
        return self._yosida_impl(lam, s, want_slope=False)[0]

    def yosida_slope(self, lam, s):
        """Regularized value together with a one-sided derivative in s."""
        return self._yosida_impl(lam, s, want_slope=True)

    def _yosida_impl(self, lam, s, want_slope):
        """lam*(s - r) clipped into the graph at r = J_{1/lam}(s), and its
        derivative g'/(1 + g'/lam) in the graph's slope g' at r, which is
        lam*(1 - dr/ds) without the cancellation.  Off vertical elements the
        graph at r is the piece's value there, so the subtraction decides
        only on them."""
        if lam <= 0:
            raise InvalidParameter("lambda must be positive")
        mu = 1.0 / lam
        # a scalar s runs as a 1-element array, so a power piece's value at
        # r rounds as in the array form
        s1 = np.atleast_1d(np.asarray(s, dtype=float))
        r, _, gslope = self._resolvent_impl(mu, s1, want_slope)
        lo, hi = self.interval(r)
        out = np.clip(lam * (s1 - r), lo, hi)
        slope = None
        if want_slope:
            # g' is inf on vertical elements and past 1e300 near 0 on a
            # power piece with e < 1; the slope there is lam
            with np.errstate(invalid="ignore", over="ignore"):
                slope = np.where(gslope > 1e300, lam, gslope / (1.0 + mu * gslope))
        if np.ndim(s) == 0:
            return (float(out[0]), float(slope[0]) if want_slope else None)
        return out, slope

    # -- integration ----------------------------------------------------------

    def primitive(self, r):
        """Integral of the minimal section from 0 to r; +inf outside the domain.

        An array r gives an array of its shape, a scalar r a float.
        """
        r = np.asarray(r, dtype=float)
        if np.any(np.isnan(r)):
            raise InvalidParameter("r must not be NaN")
        lo, hi = np.minimum(r, 0.0), np.maximum(r, 0.0)
        total = np.zeros(r.shape)
        for el in self.elements:
            if el.kind == "vertical":
                continue
            a = np.maximum(el.r0, lo)
            b = np.minimum(el.r1, hi)
            total += np.where(a < b, _piece_integral(el, a, b), 0.0)
        total = np.where(r < 0.0, -total, total)
        total[(r < self.domain[0]) | (r > self.domain[1])] = _INF
        return float(total) if r.ndim == 0 else total

    def inverse(self) -> "MonotoneGraph":
        if self._inv is None:
            els = []
            for el in self.elements:
                if el.kind == "vertical":
                    els.append(El("affine", el.v0, el.v1, el.r0, el.r1, el.r0, 0.0))
                elif el.kind == "affine":
                    if el.q == 0.0:
                        els.append(El("vertical", el.p, el.p, el.r0, el.r1, 0.0, 0.0))
                    else:
                        els.append(
                            El("affine", el.v0, el.v1, el.r0, el.r1,
                               -el.p / el.q, 1.0 / el.q)
                        )
                else:
                    els.append(
                        El("power", el.v0, el.v1, el.r0, el.r1,
                           el.p ** (-1.0 / el.q), 1.0 / el.q)
                    )
            self._inv = MonotoneGraph(els)
        return self._inv

    def conjugate(self, v):
        """Convex conjugate of the primitive, as the inverse graph's primitive."""
        return self.inverse().primitive(v)

    # -- derived graphs --------------------------------------------------------

    def split_plus(self) -> "MonotoneGraph":
        if self._plus is None:
            top = self.interval(0.0)[1]
            els = [_affine(-_INF, 0.0, 0.0, 0.0)]
            if top > 0.0:
                els.append(_vertical(0.0, 0.0, top))
            els.extend(_path_from(self.elements, 0.0, top))
            self._plus = MonotoneGraph(els)
        return self._plus

    def split_minus(self) -> "MonotoneGraph":
        """The reflection r -> -g(-r) of the reflected graph's split_plus."""
        if self._minus is None:
            plus = MonotoneGraph(_reflect(self.elements)).split_plus()
            self._minus = MonotoneGraph(_reflect(plus.elements))
        return self._minus

    def scale_values(self, factor) -> "MonotoneGraph":
        """Vertical scaling r -> factor * graph(r) for factor > 0."""
        factor = float(factor)
        if not factor > 0:
            raise InvalidParameter("scale factor must be positive")
        els = []
        for el in self.elements:
            if el.kind == "affine":
                els.append(El("affine", el.r0, el.r1, factor * el.v0,
                              factor * el.v1, factor * el.p, factor * el.q))
            elif el.kind == "power":
                els.append(El("power", el.r0, el.r1, factor * el.v0,
                              factor * el.v1, factor * el.p, el.q))
            else:
                els.append(El("vertical", el.r0, el.r1, factor * el.v0,
                              factor * el.v1, 0.0, 0.0))
        return MonotoneGraph(els)

    def __repr__(self):
        return "MonotoneGraph(domain=%s, range=(%g, %g), jumps=%d)" % (
            self.domain,
            self.range_inf,
            self.range_sup,
            len(self.jumps),
        )


# ---------------------------------------------------------------------------
# element helpers
# ---------------------------------------------------------------------------

def _clip_el(el: El, r0, r1, v0, v1) -> El:
    return El(el.kind, r0, r1, v0, v1, el.p, el.q)


def _path_from(elements, r_cut, v_cut):
    """The part of the path strictly after the corner (r_cut, v_cut)."""
    out = []
    for el in elements:
        if el.r1 < r_cut or (el.r1 == r_cut and el.kind != "vertical"):
            continue
        if el.kind == "vertical":
            if el.r0 < r_cut or el.v1 <= v_cut:
                continue
            if el.r0 == r_cut and el.v0 < v_cut:
                el = _clip_el(el, el.r0, el.r1, v_cut, el.v1)
        elif el.r0 < r_cut:
            val = float(_piece_values(el, np.asarray(r_cut)))
            el = _clip_el(el, r_cut, el.r1, val, el.v1)
        out.append(el)
    return out


def _path_to(elements, r_cut, v_cut):
    """The part of the path strictly before the corner (r_cut, v_cut)."""
    return _reflect(_path_from(_reflect(elements), -r_cut, -v_cut))


def _reflect(elements):
    """The path of r -> -graph(-r); power pieces are odd, so they keep c, e."""
    return [
        El(el.kind, -el.r1, -el.r0, -el.v1, -el.v0,
           -el.p if el.kind == "affine" else el.p, el.q)
        for el in reversed(elements)
    ]


def _piece_values(el: El, r):
    """Values of a non-vertical element at r, clipped to its value range.

    A 0-d r stays 0-d, so a power piece takes numpy's scalar power, which
    is the C library's; arrays take numpy's vectorized power.
    """
    with np.errstate(over="ignore"):
        if el.kind == "power":
            # c*|r|**e is +-inf at r = +-inf; + 0.0 turns -0.0 into 0.0
            val = el.p * np.copysign(np.abs(r) ** el.q, r) + 0.0
        elif el.q == 0.0:
            val = np.full_like(r, el.p)  # a + 0*r would be NaN at +-inf
        else:
            val = el.p + el.q * r
    return np.minimum(np.maximum(val, el.v0), el.v1)


def _piece_integral(el: El, a, b):
    """Integral of the piece value over [a, b], elementwise where a < b."""
    with np.errstate(invalid="ignore", over="ignore"):
        if el.kind == "affine":
            val = el.p * (b - a) + 0.5 * el.q * (b * b - a * a)
        else:
            ep1 = el.q + 1.0
            val = el.p * (np.abs(b) ** ep1 - np.abs(a) ** ep1) / ep1
    if el.kind == "affine" and el.p == 0.0 and el.q == 0.0:
        edge = 0.0
    else:
        # the overlap sits on one side of 0, where the sign is constant
        edge = np.where(b == _INF, _INF, -_INF)
    return np.where(np.isinf(a) | np.isinf(b), edge, val)


def _resolvent_power(el: El, mu, s):
    """Root of r + mu*piece(r) = s on a power piece.

    The root is odd in s, so Newton runs on a = |s| inside a bracket that
    shrinks with the sign of every residual; a step that leaves the bracket
    is replaced by its midpoint.  The start bracket is tight: the root r
    has r <= a and mu*c*r**e <= a, and the larger of the two terms is at
    least a/2.  The power bounds are widened by a factor of two, since
    x**(1/e) is not the exact inverse of r**e in floating point (e = 0.1
    is not a tenth).  Newton starts at the end from which it converges
    monotonically (the upper end for e > 1, where the residual is convex,
    the lower one for e < 1) and stops once a step is within a few ulp of
    r, relative to r, so exponents below one keep their accuracy near the
    origin.  An e = 2 piece takes ``_power2_root`` instead.
    """
    a = np.abs(s)
    cm = mu * el.p
    e = el.q
    with np.errstate(divide="ignore", over="ignore"):
        lo = 0.5 * np.minimum(0.5 * a, (0.5 * a / cm) ** (1.0 / e))
        hi = np.minimum(a, 2.0 * (a / cm) ** (1.0 / e))
    r = hi if e > 1.0 else lo
    # rounding in the residual moves r by about eps*r/min(1, e)
    ulps = 4.0 * max(1.0, 1.0 / e)
    done = np.zeros(a.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(110):
            h = r + cm * r ** e - a
            lo = np.where(h < 0.0, r, lo)
            hi = np.where(h > 0.0, r, hi)
            new = r - h / (1.0 + cm * e * r ** (e - 1.0))
            converged = np.abs(new - r) <= ulps * np.spacing(r)
            new = np.where(
                converged | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi)
            )
            r = np.where(done, r, new)
            done |= converged
            if done.all():
                break
    return np.clip(np.copysign(r, s), el.r0, el.r1)


def _power2_root(cm, s):
    """Root of r + cm*sign(r)*r**2 = s, elementwise in cm = mu*c and s: the
    closed form 2a/(1 + sqrt(1 + 4*cm*a)) at a = |s|, free of cancellation,
    or sqrt(a/cm) where 4*cm*a overflows."""
    a = np.abs(s)
    with np.errstate(divide="ignore", over="ignore"):
        root = np.sqrt(1.0 + 4.0 * cm * a)
        r = np.where(np.isfinite(root), a / (0.5 + 0.5 * root), np.sqrt(a / cm))
    return np.copysign(r, s)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def make_identity() -> MonotoneGraph:
    return MonotoneGraph([_affine(-_INF, _INF, 0.0, 1.0)])


def make_zero() -> MonotoneGraph:
    """The graph of the zero map: every r maps to 0."""
    return MonotoneGraph([_affine(-_INF, _INF, 0.0, 0.0)])


def make_stefan(latent) -> MonotoneGraph:
    """Identity below 0, a jump of height ``latent`` at 0, shifted identity above."""
    latent = float(latent)
    if not latent > 0:
        raise InvalidParameter("latent must be positive")
    return MonotoneGraph(
        [
            _affine(-_INF, 0.0, 0.0, 1.0),
            _vertical(0.0, 0.0, latent),
            _affine(0.0, _INF, latent, 1.0),
        ]
    )


def make_hele_shaw() -> MonotoneGraph:
    """Zero below 0, the full unit jump at 0, one above."""
    return MonotoneGraph(
        [
            _affine(-_INF, 0.0, 0.0, 0.0),
            _vertical(0.0, 0.0, 1.0),
            _affine(0.0, _INF, 1.0, 0.0),
        ]
    )


def make_power(s) -> MonotoneGraph:
    """Odd power map r -> |r|**(s-1) * r."""
    s = float(s)
    if not s > 0:
        raise InvalidParameter("exponent must be positive")
    if s == 1.0:
        return make_identity()
    return MonotoneGraph([_power(-_INF, _INF, 1.0, s)])


def make_obstacle(lo, hi, inner: MonotoneGraph) -> MonotoneGraph:
    """Restrict ``inner`` to [lo, hi] and complete with vertical rays."""
    lo, hi = float(lo), float(hi)
    if not (lo <= 0.0 <= hi):
        raise InvalidParameter("obstacle interval must contain 0")
    if lo == hi:
        return MonotoneGraph([_vertical(0.0, -_INF, _INF)])
    dlo, dhi = inner.domain
    if lo < dlo or hi > dhi:
        raise InvalidParameter("inner graph must cover the obstacle interval")
    els = []
    if math.isfinite(lo):
        top_at_lo = inner.interval(lo)[1]
        els.append(_vertical(lo, -_INF, top_at_lo))
        els.extend(el for el in _path_from(inner.elements, lo, top_at_lo)
                   if el.r0 < hi or (el.kind == "vertical" and el.r0 <= hi))
    else:
        els.extend(el for el in inner.elements)
    if math.isfinite(hi):
        bot_at_hi = inner.interval(hi)[0]
        els = list(_path_to(els, hi, bot_at_hi))
        els.append(_vertical(hi, bot_at_hi, _INF))
    return MonotoneGraph(els)


def from_config(cfg) -> MonotoneGraph:
    """Build a graph from a config mapping (see README for the schema)."""
    kind = cfg.get("type")
    if kind == "identity":
        return make_identity()
    if kind == "zero":
        return make_zero()
    if kind == "stefan":
        return make_stefan(cfg.get("latent", 1.0))
    if kind == "hele_shaw":
        return make_hele_shaw()
    if kind == "power":
        return make_power(cfg["exponent"])
    if kind == "obstacle":
        inner = from_config(cfg.get("inner", {"type": "identity"}))
        return make_obstacle(_ext(cfg.get("lo", -_INF)), _ext(cfg.get("hi", _INF)),
                             inner)
    if kind == "piecewise":
        els = []
        for piece in cfg["elements"]:
            pk = piece["kind"]
            if pk == "affine":
                els.append(_affine(_ext(piece["lo"]), _ext(piece["hi"]),
                                   piece["a"], piece["b"]))
            elif pk == "power":
                els.append(_power(_ext(piece["lo"]), _ext(piece["hi"]),
                                  piece["c"], piece["e"]))
            elif pk == "vertical":
                els.append(_vertical(piece["at"], _ext(piece["lo"]),
                                     _ext(piece["hi"])))
            else:
                raise InvalidParameter("unknown piece kind %r" % (pk,))
        return MonotoneGraph(els)
    raise InvalidParameter("unknown graph type %r" % (kind,))


def _ext(x) -> float:
    if isinstance(x, str):
        if x in ("inf", "+inf", "Infinity"):
            return _INF
        if x in ("-inf", "-Infinity"):
            return -_INF
        raise InvalidParameter("cannot parse extended real %r" % (x,))
    return float(x)
