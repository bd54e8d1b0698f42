"""Tests for maximal monotone graphs: resolvents, regularization, duality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldiff.errors import InvalidParameter
from nldiff.monotone import (
    MonotoneGraph,
    _resolvent_power,
    from_config,
    make_hele_shaw,
    make_identity,
    make_obstacle,
    make_power,
    make_stefan,
    make_zero,
)
from nldiff.oracle import _interval_fn

BUILTINS = {
    "identity": make_identity(),
    "zero": make_zero(),
    "stefan": make_stefan(1.0),
    "hele_shaw": make_hele_shaw(),
    "power2": make_power(2.0),
    "sqrt": make_power(0.5),
    "obstacle": make_obstacle(-1.0, 1.0, make_identity()),
}

POINTS = st.floats(min_value=-50.0, max_value=50.0)
LAMBDAS = st.floats(min_value=1e-3, max_value=1e3)
GRAPH_NAMES = st.sampled_from(sorted(BUILTINS))


# -- construction and validation ---------------------------------------------

def test_elements_must_chain():
    cfg = {"type": "piecewise", "elements": [
        {"kind": "affine", "lo": "-inf", "hi": 0.0, "a": 0.0, "b": 1.0},
        {"kind": "affine", "lo": 0.0, "hi": "inf", "a": 1.0, "b": 1.0},
    ]}
    with pytest.raises(InvalidParameter):
        from_config(cfg)


def test_graph_must_contain_origin():
    cfg = {"type": "piecewise", "elements": [
        {"kind": "affine", "lo": "-inf", "hi": "inf", "a": 1.0, "b": 1.0},
    ]}
    with pytest.raises(InvalidParameter):
        from_config(cfg)


def test_graph_must_be_maximal_at_the_ends():
    cfg = {"type": "piecewise", "elements": [
        {"kind": "affine", "lo": -1.0, "hi": 1.0, "a": 0.0, "b": 1.0},
    ]}
    with pytest.raises(InvalidParameter):
        from_config(cfg)


def test_negative_slope_rejected():
    cfg = {"type": "piecewise", "elements": [
        {"kind": "affine", "lo": "-inf", "hi": "inf", "a": 0.0, "b": -1.0},
    ]}
    with pytest.raises(InvalidParameter):
        from_config(cfg)


def test_from_config_builtins_and_ext_parsing():
    assert from_config({"type": "stefan", "latent": 2.0}).jumps[0.0] == (0.0, 2.0)
    assert from_config({"type": "power", "exponent": 3.0}).interval(2.0) == (8.0, 8.0)
    obs = from_config({"type": "obstacle", "lo": -1, "hi": 1,
                       "inner": {"type": "identity"}})
    assert obs.domain == (-1.0, 1.0)
    with pytest.raises(InvalidParameter):
        from_config({"type": "nope"})
    with pytest.raises(InvalidParameter):
        from_config({"type": "obstacle", "lo": "minus infinity"})


def test_obstacle_must_contain_zero():
    with pytest.raises(InvalidParameter):
        make_obstacle(0.5, 2.0, make_identity())


# -- frozen point values ------------------------------------------------------

def test_stefan_interval_and_minimal_section():
    g = make_stefan(2.0)
    assert g.interval(-1.0) == (-1.0, -1.0)
    assert g.interval(0.0) == (0.0, 2.0)
    assert g.interval(1.0) == (3.0, 3.0)
    assert g.minimal_section(0.0) == 0.0
    assert g.minimal_section(-1.0) == -1.0
    assert g.minimal_section(1.0) == 3.0


def test_obstacle_interval_and_sections_outside_domain():
    g = BUILTINS["obstacle"]
    assert g.interval(1.0) == (1.0, math.inf)
    assert g.interval(-1.0) == (-math.inf, -1.0)
    assert g.minimal_section(2.0) == math.inf
    assert g.minimal_section(-2.0) == -math.inf
    with pytest.raises(InvalidParameter):
        g.interval(1.5)


def test_range_bounds():
    assert BUILTINS["identity"].range_bounds() == (-math.inf, math.inf)
    assert BUILTINS["hele_shaw"].range_bounds() == (0.0, 1.0)
    assert BUILTINS["zero"].range_bounds() == (0.0, 0.0)
    assert BUILTINS["obstacle"].range_bounds() == (-math.inf, math.inf)


def test_identity_resolvent_and_yosida_closed_form():
    g = BUILTINS["identity"]
    assert g.resolvent(0.5, 3.0) == pytest.approx(2.0)
    lam, s = 2.0, 3.0
    assert g.yosida(lam, s) == pytest.approx(lam * s / (1.0 + lam))


def test_stefan_yosida_frozen():
    g = BUILTINS["stefan"]
    # below the jump budget the regularization is linear in s
    assert g.yosida(2.0, 0.25) == pytest.approx(0.5)
    # past it the resolvent leaves the jump: lam*(s+1)/(lam+1)
    assert g.yosida(2.0, 1.0) == pytest.approx(4.0 / 3.0)
    assert g.resolvent(0.5, 0.25) == 0.0


def test_hele_shaw_yosida_saturates():
    g = BUILTINS["hele_shaw"]
    assert g.yosida(4.0, -3.0) == 0.0
    assert g.yosida(4.0, 0.1) == pytest.approx(0.4)
    assert g.yosida(4.0, 0.5) == pytest.approx(1.0)
    assert g.yosida(4.0, 50.0) == pytest.approx(1.0)


# -- regularization properties -----------------------------------------------

# one ray at each end of a finite domain, an affine and a power piece
PIECEWISE = from_config({"type": "piecewise", "elements": [
    {"kind": "vertical", "at": -1.0, "lo": "-inf", "hi": -0.5},
    {"kind": "affine", "lo": -1.0, "hi": 0.0, "a": 0.0, "b": 0.5},
    {"kind": "power", "lo": 0.0, "hi": 2.0, "c": 0.3, "e": 1.7},
    {"kind": "vertical", "at": 2.0, "lo": 0.3 * 2.0 ** 1.7, "hi": "inf"},
]})


@pytest.mark.parametrize("name", [
    "stefan", "hele_shaw", "obstacle", "power2", "sqrt", "zero", "piecewise"])
def test_resolvent_slope_matches_central_differences(name):
    g = PIECEWISE if name == "piecewise" else BUILTINS[name]
    rng = np.random.default_rng(11)
    h = 1e-6
    for mu in (0.1, 1.0, 10.0):
        s = rng.uniform(-4.0, 4.0, 400)
        # away from the region corners, where the derivative jumps, and
        # from s = 0, where a power piece's curvature is unbounded
        corners = g._regions(mu)
        corners = corners[np.isfinite(corners)]
        gap = np.min(np.abs(s[:, None] - corners[None, :]), axis=1,
                     initial=np.inf)
        s = s[(gap > 1e-3) & (np.abs(s) > 0.1)]
        r, d = g.resolvent_slope(mu, s)
        assert np.array_equal(r, g.resolvent(mu, s))
        fd = (g.resolvent(mu, s + h) - g.resolvent(mu, s - h)) / (2.0 * h)
        np.testing.assert_allclose(d, fd, rtol=1e-6, atol=1e-9,
                                   err_msg="%s at mu=%g" % (name, mu))
        # the Yosida approximation at lam = 1/mu has the same corners
        lam = 1.0 / mu
        w, dw = g.yosida_slope(lam, s)
        assert np.array_equal(w, g.yosida(lam, s))
        fd = (g.yosida(lam, s + h) - g.yosida(lam, s - h)) / (2.0 * h)
        np.testing.assert_allclose(dw, fd, rtol=1e-6, atol=1e-9 * lam,
                                   err_msg="%s at lam=%g" % (name, lam))
    assert g.resolvent_slope(1.0, 0.5)[1] == pytest.approx(
        float(g.resolvent_slope(1.0, np.array([0.5]))[1][0]))
    assert g.yosida_slope(1.0, 0.5) == pytest.approx(
        [float(a[0]) for a in g.yosida_slope(1.0, np.array([0.5]))])


@pytest.mark.parametrize("name", ["identity", "zero", "stefan", "power2", "sqrt"])
def test_yosida_slope_keeps_its_accuracy_for_large_lambda(name):
    # g'/(1 + g'/lam) at the resolvent point r against exact rational
    # arithmetic; lam*(1 - dr/ds) would lose eps*lam/g' to cancellation
    g = BUILTINS[name]
    s = np.array([-2.5, -0.3, 0.2, 1.7])
    for lam in 10.0 ** np.arange(-3, 13):
        _, dw = g.yosida_slope(lam, s)
        r = g.resolvent(1.0 / lam, s)
        gprime = np.where(r == 0.0, np.inf, 1.0)  # stefan: s maps onto the jump
        if name == "zero":
            gprime = 0.0 * r
        elif name == "power2":
            gprime = 2.0 * np.abs(r)
        elif name == "sqrt":
            gprime = 0.5 * np.abs(r) ** -0.5
        want = [lam if np.isinf(t) else
                float(Fraction(t) / (1 + Fraction(t) / Fraction(lam)))
                for t in gprime]
        np.testing.assert_allclose(dw, want, rtol=4e-16, atol=0,
                                   err_msg="%s at lam=%g" % (name, lam))
        if name == "identity":
            assert np.all(dw <= 1.0)


def _bisect_power_resolvent(e, mu, s):
    """Root of r + mu*sign(r)*|r|**e = s by 110 plain bisection steps."""
    lo, hi = np.minimum(0.0, s), np.maximum(0.0, s)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        above = mid + mu * np.sign(mid) * np.abs(mid) ** e > s
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("e", [0.5, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
def test_power_resolvent_is_accurate_to_a_few_ulp(e, mu):
    # 10**-12 with e = 0.5 and mu = 1e3 puts the root near 1e-30, where a
    # bracket stopped early loses the root's relative accuracy
    mag = 10.0 ** np.arange(-12, 9)
    s = np.concatenate([-mag, [0.0], mag])
    r = make_power(e).resolvent(mu, s)
    ulps = 4.0
    back = r + mu * np.sign(r) * np.abs(r) ** e
    assert np.all(np.abs(back - s) <= ulps * np.spacing(np.abs(s)))
    ref = _bisect_power_resolvent(e, mu, s)
    assert np.all(np.abs(r - ref) <= ulps * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("e", [0.5, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_power_yosida_is_accurate_to_a_few_ulp(e, lam):
    # the value is the piece at the resolvent point, so the root's relative
    # error is multiplied by the exponent
    mag = 10.0 ** np.arange(-12, 9)
    s = np.concatenate([-mag, [0.0], mag])
    w = make_power(e).yosida(lam, s)
    r = _bisect_power_resolvent(e, 1.0 / lam, s)
    ref = np.sign(r) * np.abs(r) ** e
    ulps = 4.0 * max(1.0, e)
    assert np.all(np.abs(w - ref) <= ulps * np.spacing(np.abs(ref)))


INTERVAL_GRAPHS = dict(
    BUILTINS,
    piecewise=PIECEWISE,
    stefan_inverse=make_stefan(2.0).inverse(),
    cube_root=make_power(3.0).inverse(),
    obstacle_sqrt=make_obstacle(-2.0, 0.7, make_power(0.5)),
)


@pytest.mark.parametrize("name", sorted(INTERVAL_GRAPHS))
def test_interval_array_form_matches_scalar_form(name):
    # the reference is the oracle's independent per-point closure; at an
    # infinite end of the domain, where a flat piece makes it NaN, the
    # reference is the range's limit
    g = INTERVAL_GRAPHS[name]
    at, dlo, dhi, _ = _interval_fn(g)
    knots = g._corner_r[np.isfinite(g._corner_r)]
    rng = np.random.default_rng(3)
    r = np.concatenate([
        knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        [dlo, dhi, 0.0], rng.uniform(-3.0, 3.0, 200),
        rng.uniform(-1e-3, 1e-3, 20),
    ])
    r = r[(r >= dlo) & (r <= dhi)]
    assert np.any(np.isinf(r)) == (np.isinf(dlo) or np.isinf(dhi))
    lo, hi = g.interval(r.reshape(-1, 1))
    assert lo.shape == hi.shape == (r.size, 1)
    want_lo, want_hi = np.array([
        at(x) if np.isfinite(x)
        else (g.range_sup,) * 2 if x > 0 else (g.range_inf,) * 2
        for x in r
    ]).T
    assert all(type(v) is float for v in g.interval(r[0]))
    got_lo, got_hi = np.array([g.interval(x) for x in r]).T
    # numpy's vectorized pow may round a power piece one ulp away from the
    # scalar pow; everything else agrees exactly
    for got, want in ((lo[:, 0], want_lo), (hi[:, 0], want_hi),
                      (got_lo, want_lo), (got_hi, want_hi)):
        with np.errstate(invalid="ignore"):
            close = np.abs(got - want) <= 2.0 * np.spacing(np.abs(want))
        assert np.all((got == want) | close), r[~((got == want) | close)]
    if np.isfinite(dhi):
        with pytest.raises(InvalidParameter):
            g.interval(np.array([0.0, dhi + 1.0]))


@settings(max_examples=120, deadline=None)
@given(name=GRAPH_NAMES, lam=LAMBDAS, s=POINTS, t=POINTS)
def test_yosida_is_two_lambda_lipschitz(name, lam, s, t):
    g = BUILTINS[name]
    gap = abs(g.yosida(lam, s) - g.yosida(lam, t))
    assert gap <= 2.0 * lam * abs(s - t) + 1e-9 * (1.0 + gap)


@settings(max_examples=120, deadline=None)
@given(name=GRAPH_NAMES, mu=LAMBDAS, s=POINTS, t=POINTS)
def test_resolvent_is_nonexpansive(name, mu, s, t):
    g = BUILTINS[name]
    gap = abs(g.resolvent(mu, s) - g.resolvent(mu, t))
    assert gap <= abs(s - t) + 1e-12


@settings(max_examples=120, deadline=None)
@given(name=GRAPH_NAMES, lam=LAMBDAS, s=POINTS)
def test_yosida_agrees_with_resolvent_identity(name, lam, s):
    g = BUILTINS[name]
    r = g.resolvent(1.0 / lam, s)
    assert g.yosida(lam, s) == pytest.approx(lam * (s - r), abs=1e-9 * lam)


@settings(max_examples=120, deadline=None)
@given(name=GRAPH_NAMES, lam=LAMBDAS, s=POINTS)
def test_yosida_value_lies_in_graph_at_resolvent_point(name, lam, s):
    g = BUILTINS[name]
    r = g.resolvent(1.0 / lam, s)
    lo, hi = g.interval(r)
    v = g.yosida(lam, s)
    slack = 1e-8 * (1.0 + abs(v)) * max(1.0, lam)
    assert lo - slack <= v <= hi + slack


@settings(max_examples=80, deadline=None)
@given(name=GRAPH_NAMES, s=POINTS)
def test_yosida_magnitude_monotone_in_lambda(name, s):
    g = BUILTINS[name]
    dlo, dhi = g.domain
    s = min(max(s, dlo), dhi)
    lams = [0.25, 1.0, 4.0, 16.0, 256.0]
    mags = [abs(g.yosida(lam, s)) for lam in lams]
    for small, big in zip(mags, mags[1:]):
        assert small <= big + 1e-10 * (1.0 + big)
    theta0 = abs(g.minimal_section(s))
    assert mags[-1] <= theta0 + 1e-9 * (1.0 + mags[-1])


def test_yosida_converges_to_minimal_section():
    for name, g in BUILTINS.items():
        dlo, dhi = g.domain
        for s in (-0.75, 0.0, 0.6):
            s = min(max(s, dlo), dhi)
            target = g.minimal_section(s)
            got = g.yosida(1e9, s)
            assert got == pytest.approx(target, abs=1e-6), name


def test_bounded_domain_tail_identity():
    # for sup-domain r* with minimal value m* the regularization is exactly
    # lam*(r - r*) once r > r* + m*/lam
    g = BUILTINS["obstacle"]
    r_star = g.domain[1]
    m_star = g.interval(r_star)[0]
    for lam in (0.5, 2.0, 37.0):
        for bump in (1e-6, 0.5, 4.0):
            r = r_star + m_star / lam + bump
            assert abs(g.yosida(lam, r) - lam * (r - r_star)) <= 1e-12 * lam * r


# -- primitives and duality ---------------------------------------------------

def _check_array_form(fn, points, outside):
    """fn on an array equals fn per point, +inf outside the domain, raises
    on NaN, and gives a float for a 0-d input."""
    got = fn(np.array(points).reshape(-1, 1))
    assert got.shape == (len(points), 1)
    assert np.array_equal(got[:, 0], [fn(x) for x in points])
    assert np.all(got[[points.index(x) for x in outside], 0] == math.inf)
    with pytest.raises(InvalidParameter):
        fn(np.array([0.5, math.nan]))
    assert type(fn(np.float64(points[0]))) is float
    assert type(fn(np.array(points[0]))) is float


def test_primitive_frozen_values():
    g = make_stefan(1.0)
    assert g.primitive(-2.0) == pytest.approx(2.0)
    assert g.primitive(2.0) == pytest.approx(4.0)  # r + r^2/2
    hs = BUILTINS["hele_shaw"]
    assert hs.primitive(-5.0) == 0.0
    assert hs.primitive(3.0) == pytest.approx(3.0)
    obs = BUILTINS["obstacle"]
    assert obs.primitive(2.0) == math.inf
    points = [-2.0, -0.5, 0.0, 0.7, 1.0, 2.0]
    for graph, outside in ((g, []), (hs, []), (obs, [-2.0, 2.0])):
        _check_array_form(graph.primitive, points, outside)


def test_conjugate_frozen_values():
    g = make_stefan(1.0)
    assert g.conjugate(-2.0) == pytest.approx(2.0)
    assert g.conjugate(0.5) == 0.0
    assert g.conjugate(3.0) == pytest.approx(2.0)
    hs = BUILTINS["hele_shaw"]
    assert hs.conjugate(0.5) == 0.0
    assert hs.conjugate(-0.1) == math.inf
    assert hs.conjugate(1.5) == math.inf
    points = [-2.0, -0.1, 0.0, 0.5, 1.0, 1.5, 3.0]
    for graph, outside in ((g, []), (hs, [-2.0, -0.1, 1.5, 3.0])):
        _check_array_form(graph.conjugate, points, outside)


@settings(max_examples=100, deadline=None)
@given(name=GRAPH_NAMES, r=POINTS, v=POINTS)
def test_fenchel_young_inequality(name, r, v):
    g = BUILTINS[name]
    total = g.primitive(r) + g.conjugate(v)
    assert total >= r * v - 1e-9 * (1.0 + abs(r * v))


@settings(max_examples=100, deadline=None)
@given(name=GRAPH_NAMES, r=POINTS, frac=st.floats(min_value=0.0, max_value=1.0))
def test_fenchel_young_equality_on_the_graph(name, r, frac):
    g = BUILTINS[name]
    dlo, dhi = g.domain
    r = min(max(r, dlo), dhi)
    lo, hi = g.interval(r)
    lo, hi = max(lo, -1e6), min(hi, 1e6)
    v = lo + frac * (hi - lo)
    total = g.primitive(r) + g.conjugate(v)
    assert total == pytest.approx(r * v, abs=1e-9 * (1.0 + abs(r * v)))


# -- splits and scaling -------------------------------------------------------

def test_splits_reconstruct_the_graph_off_zero():
    for name, g in BUILTINS.items():
        plus, minus = g.split_plus(), g.split_minus()
        for s in (-3.0, -0.5, 0.5, 3.0):
            dlo, dhi = g.domain
            if not (dlo <= s <= dhi):
                continue
            whole = g.interval(s)
            got = (plus.interval(s)[0] + minus.interval(s)[0],
                   plus.interval(s)[1] + minus.interval(s)[1])
            assert got == pytest.approx(whole), name
        # each split pins zero on its inactive side
        if g.domain[0] <= -1.0:
            assert plus.interval(-1.0) == (0.0, 0.0), name
        if g.domain[1] >= 1.0:
            assert minus.interval(1.0) == (0.0, 0.0), name


def test_split_signs():
    g = make_stefan(1.0)
    plus, minus = g.split_plus(), g.split_minus()
    assert plus.interval(-2.0) == (0.0, 0.0)
    assert plus.interval(0.0) == (0.0, 1.0)
    assert plus.interval(1.0) == (2.0, 2.0)
    assert minus.interval(2.0) == (0.0, 0.0)
    assert minus.interval(0.0) == (0.0, 0.0)
    assert minus.interval(-2.0) == (-2.0, -2.0)


def test_scale_values():
    g = make_stefan(1.0).scale_values(0.25)
    assert g.interval(0.0) == (0.0, 0.25)
    assert g.interval(2.0) == (0.75, 0.75)
    ident2 = make_identity().scale_values(2.0)
    assert ident2.resolvent(1.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        make_identity().scale_values(-1.0)


def test_scale_values_commutes_with_interval():
    for name, g in BUILTINS.items():
        scaled = g.scale_values(3.0)
        for s in (-2.0, 0.0, 0.5):
            dlo, dhi = g.domain
            if not (dlo <= s <= dhi):
                continue
            lo, hi = g.interval(s)
            slo, shi = scaled.interval(s)
            assert slo == pytest.approx(3.0 * lo), name
            assert shi == pytest.approx(3.0 * hi), name


# -- the table form against the element loop ----------------------------------

def _loop_piece_values(el, r):
    """A non-vertical element's values at r, clipped to its value range."""
    with np.errstate(over="ignore"):
        if el.kind == "power":
            val = el.p * np.copysign(np.abs(r) ** el.q, r) + 0.0
        elif el.q == 0.0:
            val = np.full_like(r, el.p)
        else:
            val = el.p + el.q * r
    return np.minimum(np.maximum(val, el.v0), el.v1)


def loop_interval(g, r):
    """The interval as a pass over the elements folds it: the bounds of
    each element holding r, in path order, by np.minimum and np.maximum."""
    r = np.asarray(r, dtype=float)
    lo = np.full(r.shape, np.inf)
    hi = np.full(r.shape, -np.inf)
    for el in g.elements:
        m = (el.r0 <= r) & (r <= el.r1)
        if not np.count_nonzero(m):
            continue
        if el.kind == "vertical":
            bot, top = el.v0, el.v1
        else:
            bot = top = _loop_piece_values(el, r)
        np.minimum(lo, bot, out=lo, where=m)
        np.maximum(hi, top, out=hi, where=m)
    if r.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def loop_resolvent_slope(g, mu, s):
    """J_mu(s) and its derivative, element by element: the region of s
    picks the element, whose own formula then runs on its points."""
    els = g.elements
    s = np.atleast_1d(np.asarray(s, dtype=float))
    corner_r = np.array([els[0].r0] + [el.r1 for el in els])
    corner_v = np.array([els[0].v0] + [el.v1 for el in els])
    with np.errstate(invalid="ignore"):
        regions = corner_r + mu * corner_v
    idx = np.clip(np.searchsorted(regions[1:-1], s, side="right"), 0, len(els) - 1)
    out = np.empty_like(s)
    gslope = np.empty_like(s)
    for i, el in enumerate(els):
        m = idx == i
        if not np.any(m):
            continue
        sm = s[m]
        if el.kind == "vertical":
            out[m] = el.r0
            gslope[m] = np.inf
        elif el.kind == "affine":
            out[m] = np.clip((sm - mu * el.p) / (1.0 + mu * el.q), el.r0, el.r1)
            gslope[m] = el.q
        else:
            if el.q == 2.0:
                a, cm = np.abs(sm), mu * el.p
                with np.errstate(divide="ignore", over="ignore"):
                    root = np.sqrt(1.0 + 4.0 * cm * a)
                    r = np.where(np.isfinite(root), a / (0.5 + 0.5 * root),
                                 np.sqrt(a / cm))
                r = np.clip(np.copysign(r, sm), el.r0, el.r1)
            else:
                r = _resolvent_power(el, mu, sm)
            out[m] = r
            with np.errstate(divide="ignore", over="ignore"):
                gslope[m] = el.p * el.q * np.abs(r) ** (el.q - 1.0)
    return out, 1.0 / (1.0 + mu * gslope)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# several jumps, a vertical ray at each end, flat and power pieces
MULTI_JUMP = from_config({"type": "piecewise", "elements": [
    {"kind": "vertical", "at": -2.0, "lo": "-inf", "hi": -3.0},
    {"kind": "affine", "lo": -2.0, "hi": -1.0, "a": -1.0, "b": 1.0},
    {"kind": "vertical", "at": -1.0, "lo": -2.0, "hi": -0.5},
    {"kind": "affine", "lo": -1.0, "hi": 0.0, "a": -0.5, "b": 0.0},
    {"kind": "vertical", "at": 0.0, "lo": -0.5, "hi": 0.0},
    {"kind": "power", "lo": 0.0, "hi": 1.5, "c": 0.4, "e": 3.0},
    {"kind": "vertical", "at": 1.5, "lo": 0.4 * 1.5 ** 3.0, "hi": 2.0},
    {"kind": "affine", "lo": 1.5, "hi": 3.0, "a": 2.0, "b": 0.0},
    {"kind": "vertical", "at": 3.0, "lo": 2.0, "hi": "inf"},
]})

TABLE_BASE = {
    "stefan": make_stefan(1.0),
    "hele_shaw": make_hele_shaw(),
    "zero": make_zero(),
    "identity": make_identity(),
    "obstacle": make_obstacle(-1.0, 1.0, make_identity()),
    "obstacle_power3": make_obstacle(-0.7, 1.3, make_power(3.0)),
    "multi_jump": MULTI_JUMP,
    "power2": make_power(2.0),
    "power3": make_power(3.0),
}
# the splits reflect their pieces, which gives coefficients and knots of -0.0
TABLE_GRAPHS = dict(
    TABLE_BASE,
    **{name + "+": g.split_plus() for name, g in TABLE_BASE.items()},
    **{name + "-": g.split_minus() for name, g in TABLE_BASE.items()},
    stefan_inverse=make_stefan(2.0).inverse(),
)


def _special_points(g, mu):
    """Knots and region corners, their neighbours, +-0.0 and +-inf."""
    knots = np.array([el.r0 for el in g.elements] + [el.r1 for el in g.elements])
    corners = np.array([el.r0 + mu * el.v0 for el in g.elements if
                        np.isfinite(el.r0) and np.isfinite(el.v0)])
    edges = np.concatenate([knots, corners])
    edges = edges[np.isfinite(edges)]
    return np.concatenate([edges, np.nextafter(edges, np.inf),
                           np.nextafter(edges, -np.inf), -edges,
                           [0.0, -0.0, np.inf, -np.inf]])


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(TABLE_GRAPHS)), mu=LAMBDAS,
       points=st.lists(st.floats(allow_nan=False, width=64), max_size=20),
       spread=st.lists(POINTS, max_size=20))
def test_table_form_is_the_element_loop_bit_for_bit(name, mu, points, spread):
    """resolvent, resolvent_slope and interval agree with the element loop
    in every bit, the sign of zero included, as arrays and one point at a
    time, at knots and region corners, next to them, at +-0.0, at +-inf
    (where a flat piece's value is its constant) and at random points."""
    g = TABLE_GRAPHS[name]
    # a power piece's value rounds differently under numpy's array and
    # scalar power at about one point in twenty
    drawn = np.random.default_rng(7).uniform(-4.0, 4.0, 48)
    s = np.concatenate([_special_points(g, mu), points, spread, drawn])
    with np.errstate(all="ignore"):
        r, d = g.resolvent_slope(mu, s)
        want_r, want_d = loop_resolvent_slope(g, mu, s)
        assert _bits(r) == _bits(want_r) and _bits(d) == _bits(want_d)
        assert _bits(g.resolvent(mu, s)) == _bits(want_r)
        for x, rx, dx in zip(s, want_r, want_d):
            got = g.resolvent_slope(mu, x)
            assert _bits(got) == _bits((rx, dx)), x
    dlo, dhi = g.domain
    r = s[(s >= dlo) & (s <= dhi)]
    shaped = r.reshape(-1, 2) if r.size % 2 == 0 else r
    assert _bits(g.interval(shaped)) == _bits(loop_interval(g, shaped))
    for x in r:
        assert _bits(g.interval(x)) == _bits(loop_interval(g, x)), x
