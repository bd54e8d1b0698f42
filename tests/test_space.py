"""Tests for the metric random walk space container and set operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldiff import space as space_module
from nldiff.errors import EmptyZ, InvalidParameter, NotConnected
from nldiff.space import (
    DomainPartition,
    FiniteRandomWalkSpace,
    estimate_poincare_constant,
    from_kernel_grid,
    from_weighted_graph,
    interaction,
    is_m_connected,
    m_boundary,
    m_closure,
    poincare_ratio,
    profile_from_config,
)

RNG_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_space(rng, n, density=0.7):
    """Connected-ish reversible space from a random symmetric weight matrix."""
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    # guarantee every node has a neighbor: chain fallback
    for i in range(n - 1):
        if w[i].sum() == 0 or w[i + 1, i] == 0:
            w[i, i + 1] = w[i + 1, i] = max(w[i, i + 1], 0.5)
    if w[n - 1].sum() == 0:
        w[n - 1, n - 2] = w[n - 2, n - 1] = 0.5
    return from_weighted_graph(w)


# -- construction -----------------------------------------------------------

def test_rejects_non_stochastic_kernel():
    with pytest.raises(InvalidParameter):
        FiniteRandomWalkSpace([[0.5, 0.4], [0.5, 0.5]], [1.0, 1.0])


def test_rejects_nonreversible_pair():
    kernel = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(InvalidParameter):
        FiniteRandomWalkSpace(kernel, [1.0, 3.0])


def test_rejects_nonpositive_measure():
    kernel = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(InvalidParameter):
        FiniteRandomWalkSpace(kernel, [1.0, 0.0])


def test_kernel_is_read_only():
    space = from_weighted_graph([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        space.kernel[0, 0] = 1.0


def test_from_weighted_graph_path():
    # weights 1 and 2 along a path: degrees (1, 3, 2)
    space = from_weighted_graph([[0, 1, 0], [1, 0, 2], [0, 2, 0]])
    assert np.allclose(space.nu, [1.0, 3.0, 2.0])
    assert np.allclose(space.kernel[1], [1 / 3, 0.0, 2 / 3])
    weighted = space.nu[:, None] * space.kernel
    assert np.allclose(weighted, weighted.T)


def test_from_weighted_graph_rejects_isolated_node():
    with pytest.raises(InvalidParameter):
        from_weighted_graph([[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_node_set_sorts_and_validates():
    space = from_weighted_graph([[0, 1], [1, 0]])
    assert space.node_set([1, 0]).tolist() == [0, 1]
    assert space.node_set([1, 1]).tolist() == [1]
    with pytest.raises(InvalidParameter):
        space.node_set([2])
    with pytest.raises(InvalidParameter):
        space.node_set([-1])


def test_measure_adds_nu():
    space = from_weighted_graph([[0, 1, 0], [1, 0, 2], [0, 2, 0]])
    assert space.measure([0, 2]) == pytest.approx(3.0)
    assert space.measure([]) == 0.0


# -- partitions -------------------------------------------------------------

def test_partition_requires_disjoint_nonempty():
    DomainPartition([0], [1])
    DomainPartition([0, 1], [])
    with pytest.raises(InvalidParameter):
        DomainPartition([], [])
    with pytest.raises(InvalidParameter):
        DomainPartition([0, 1], [1])


def test_partition_omega_union():
    part = DomainPartition([2, 0], [1])
    assert part.omega.tolist() == [0, 1, 2]
    assert part.omega1.tolist() == [0, 2]


# -- grid construction and profiles -----------------------------------------

def test_profile_indicator_and_table():
    ind = profile_from_config({"type": "indicator", "radius": 2.0, "height": 3.0})
    assert ind(1.0) == 3.0 and ind(2.5) == 0.0
    tab = profile_from_config(
        {"type": "table", "radii": [1.0, 2.0], "values": [5.0, 1.0]}
    )
    assert tab(1.0) == 5.0 and tab(2.0) == 1.0 and tab(3.0) == 0.0
    with pytest.raises(InvalidParameter):
        profile_from_config({"type": "mystery"})


def test_kernel_grid_uniform_interior():
    profile = profile_from_config({"type": "indicator", "radius": 1.5, "height": 1.0})
    space = from_kernel_grid(np.arange(5.0), 1.0, profile)
    assert space.node_count == 5
    # interior node 2 talks to 1 and 3 with equal rates, never to 0
    assert space.kernel[2, 1] == pytest.approx(space.kernel[2, 3])
    assert space.kernel[2, 0] == 0.0
    weighted = space.nu[:, None] * space.kernel
    assert np.allclose(weighted, weighted.T, atol=1e-14)


def test_kernel_grid_gaussian_profile():
    profile = profile_from_config({"type": "gaussian", "sigma": 1.0, "cutoff": 2.5})
    space = from_kernel_grid(np.arange(7.0), 1.0, profile)
    assert is_m_connected(space, np.arange(7))


def test_kernel_grid_gap_is_measured_on_the_stored_entries():
    """The reversibility gap the space keeps is max |nu_x k_xy - nu_y k_yx|
    over the dense kernel it stores, taken again here, bit for bit."""
    xs, ys = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()])
    points = points + 0.1 * np.sin(np.arange(288.0)).reshape(144, 2)
    profile = {"type": "gaussian", "sigma": 1.3, "cutoff": 3.0}
    space = from_kernel_grid(points, 0.37, profile)
    flow = space.nu[:, None] * space.kernel
    assert space.reversibility_gap == float(np.max(np.abs(flow - flow.T)))
    assert space.reversibility_gap > 0.0


def test_kernel_grid_holds_a_block_dependent_profile_to_symmetry():
    """A profile whose values depend on the array it is given sees the
    build's row blocks (600 points make two), so its weights can differ
    across the blocks' seam.  A pair with weight in one direction only
    raises, and so do mirror weights further apart than the reversibility
    tolerance; mirror weights 2**-44 apart pass, with that gap measured on
    the stored entries."""
    n = 600
    block = (1 << 18) // n
    points = np.arange(float(n))

    def seam(height, reach):
        def profile(d):
            first = d.shape[0] == block
            return np.where(d <= (1.5 if first else reach),
                            1.0 if first else height, 0.0)
        return profile

    with pytest.raises(InvalidParameter, match="one direction"):
        from_kernel_grid(points, 1.0, seam(1.0, 2.5))
    with pytest.raises(InvalidParameter, match="reversible"):
        from_kernel_grid(points, 1.0, seam(1.0 + 1e-3, 1.5))
    space = from_kernel_grid(points, 1.0, seam(1.0 + 2.0**-44, 1.5))
    flow = space.nu[:, None] * space.kernel
    assert space.reversibility_gap == float(np.max(np.abs(flow - flow.T)))
    assert 2.0**-45 < space.reversibility_gap < 1e-12 * float(space.nu.max())


# -- boundary, closure, interaction -----------------------------------------

def test_boundary_and_closure_path():
    space = from_weighted_graph([[0, 1, 0], [1, 0, 2], [0, 2, 0]])
    w = space.node_set([1])
    assert m_boundary(space, w).tolist() == [0, 2]
    assert m_closure(space, w).tolist() == [0, 1, 2]
    ends = space.node_set([0, 2])
    assert m_boundary(space, ends).tolist() == [1]


def test_interaction_is_symmetric():
    rng = np.random.default_rng(5)
    space = random_space(rng, 6)
    a = space.node_set([0, 1])
    b = space.node_set([4, 5])
    assert interaction(space, a, b) == pytest.approx(interaction(space, b, a))


def exhaustive_connectivity(space, omega):
    """Reference check: every proper bipartition of omega must interact."""
    omega = list(omega)
    n = len(omega)
    if n <= 1:
        return True
    for code in range(1, 2 ** (n - 1)):
        a = [omega[i] for i in range(n) if (code >> i) & 1]
        b = [x for x in omega if x not in a]
        if interaction(space, np.array(a), np.array(b)) == 0.0:
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(seed=RNG_SEEDS)
def test_connectivity_matches_exhaustive_bipartitions(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, 7, density=0.3)
    size = int(rng.integers(1, 8))
    omega = space.node_set(rng.choice(7, size=size, replace=False))
    assert is_m_connected(space, omega) == exhaustive_connectivity(space, omega)


def test_disconnected_subset_detected():
    # two triangles joined at nothing
    w = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[i, j] = w[j, i] = 1.0
    space = from_weighted_graph(w)
    assert not is_m_connected(space, space.node_set([0, 3]))
    assert is_m_connected(space, space.node_set([0, 1, 2]))


# -- pair masks and the Poincaré probe --------------------------------------

def test_block_pairs_q2_drops_boundary_pairs():
    space = from_weighted_graph(np.ones((4, 4)))
    omega = space.node_set([0, 1, 2, 3])
    i, j, _ = space.block_pairs(omega, omega, ("Q2", space.node_set([2, 3])))
    kept = set(zip(i.tolist(), j.tolist()))
    assert {(0, 2), (2, 0), (0, 1), (0, 0)} <= kept
    assert not {(2, 3), (3, 2), (2, 2)} & kept
    with pytest.raises(InvalidParameter):
        space.block_pairs(omega, omega, "Q7")


def grid_space(side):
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    ring = ((xs == 0) | (ys == 0) | (xs == side - 1) | (ys == side - 1)).ravel()
    space = from_kernel_grid(points, 1.0, {"type": "indicator", "radius": 1.5})
    return space, np.flatnonzero(ring)


def self_loop_space():
    rng = np.random.default_rng(13)
    w = rng.random((12, 12)) * (rng.random((12, 12)) < 0.4)
    w = w + w.T + np.diag(rng.uniform(0.1, 2.0, 12))
    return from_weighted_graph(w)


def _block_cases():
    grid, ring = grid_space(30)
    everyone = np.arange(grid.node_count)
    W = np.setdiff1d(everyone, ring)[::3]
    loops = self_loop_space()
    dense = random_space(np.random.default_rng(5), 160)
    return {
        "grid-Q1": (grid, everyone, everyone, "Q1"),
        "grid-Q2": (grid, everyone, everyone, ("Q2", ring)),
        "grid-boundary-closure": (grid, m_boundary(grid, W), m_closure(grid, W), "Q1"),
        "dense-160": (dense, np.arange(160), np.arange(160), "Q1"),
        "self-loops-Q1": (loops, np.arange(12), np.arange(12), "Q1"),
        "self-loops-Q2": (loops, np.arange(12), np.arange(12), ("Q2", [1, 4, 5, 9])),
        "self-loops-rows": (loops, np.array([0, 3, 4, 11]), np.arange(2, 9), "Q1"),
    }


BLOCK_CASES = _block_cases()


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_pairs_are_the_masked_dense_slice_bit_for_bit(name):
    """block_pairs equals the dense kernel block, times its Q2 mask, read
    off by np.nonzero: the same positions in the same order, and the same
    bits in every weight."""
    space, rows, cols, integration_set = BLOCK_CASES[name]
    block = space.kernel[np.ix_(rows, cols)]
    if integration_set != "Q1":
        omega2 = np.asarray(integration_set[1])
        mask = ~(np.isin(rows, omega2)[:, None] & np.isin(cols, omega2)[None, :])
        block = block * mask
    i_ref, j_ref = np.nonzero(block)
    i, j, m = space.block_pairs(rows, cols, integration_set)
    assert i.size > 0
    assert np.array_equal(i, i_ref) and np.array_equal(j, j_ref)
    assert m.dtype == block.dtype and m.tobytes() == block[i_ref, j_ref].tobytes()


def test_every_stored_pair_has_its_mirror():
    """A pair is stored when either direction is nonzero.  On a 30 x 30
    Gaussian grid with sigma = 0.7 and no cutoff, 384 far pairs round to 0
    in one direction only: their weights underflow to subnormals, which
    the two rows divide by unequal degrees.  Those are stored with m = 0;
    m_boundary still counts only positive jumps."""
    xs, ys = np.meshgrid(np.arange(30), np.arange(30), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    space = from_kernel_grid(points, 1.0, {"type": "gaussian", "sigma": 0.7})
    everyone = np.arange(space.node_count)
    i, j, m = space.block_pairs(everyone, everyone)
    n = space.node_count
    assert np.array_equal(np.sort(i * n + j), np.sort(j * n + i))
    zero = m == 0.0
    assert np.count_nonzero(zero) == 384
    assert np.all(space.kernel[j[zero], i[zero]] > 0.0)
    # a node that only the other side of a one-sided pair links to W
    x, y = i[m == 0.0][0], j[m == 0.0][0]
    assert x not in m_boundary(space, [y])
    assert y in m_boundary(space, [x])


def test_poincare_ratio_guards():
    space = from_weighted_graph([[0, 1], [1, 0]])
    omega = space.node_set([0, 1])
    with pytest.raises(EmptyZ):
        poincare_ratio(space, omega, "Q1", np.ones(2), np.array([], dtype=int), 2.0)
    # constant vector: gradient vanishes, anchor does not
    r = poincare_ratio(space, omega, "Q1", np.ones(2), omega, 2.0)
    assert np.isfinite(r) and r > 0


def test_poincare_estimate_dominates_deterministic_probes():
    rng = np.random.default_rng(11)
    space = random_space(rng, 6)
    omega = space.node_set(range(6))
    est = estimate_poincare_constant(space, omega, "Q1", 2.0,
                                     space.measure(omega), 16, seed=3)
    assert est > 0
    # the constant and coordinate vectors are always in the probe set
    const = np.ones(6)
    assert est >= poincare_ratio(space, omega, "Q1", const, omega, 2.0) - 1e-12
    for x in range(6):
        e = np.zeros(6)
        e[x] = 1.0
        assert est >= poincare_ratio(space, omega, "Q1", e, omega, 2.0) - 1e-12


def coordinate_ratios(monkeypatch, space, omega, integration_set, p):
    """The closed-form coordinate ratios that the public estimate computes."""
    seen = []
    closed_form = space_module._coordinate_ratios

    def recording(*args):
        seen.append(closed_form(*args))
        return seen[-1]

    monkeypatch.setattr(space_module, "_coordinate_ratios", recording)
    estimate_poincare_constant(space, omega, integration_set, p,
                               space.measure(omega), 0, seed=0)
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("q2", [False, True])
@pytest.mark.parametrize("self_loops", [False, True])
def test_coordinate_probes_match_the_definition(monkeypatch, p, q2, self_loops):
    """Each coordinate vector's closed-form ratio is poincare_ratio's, to a
    few ulp, under Q1 and Q2 and with self-loops in the weights."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        space = random_space(rng, n)
        if self_loops:
            w = space.nu[:, None] * space.kernel
            w = w + np.diag(rng.uniform(0.1, 2.0, n))
            space = from_weighted_graph(w)
            assert np.all(np.diag(space.kernel) > 0)
        omega = space.node_set(range(n))
        integration_set = ("Q2", rng.choice(n, n // 2, replace=False)) if q2 else "Q1"
        closed = coordinate_ratios(monkeypatch, space, omega, integration_set, p)
        direct = []
        for x in omega:
            e = np.zeros(n)
            e[x] = 1.0
            direct.append(poincare_ratio(space, omega, integration_set, e, omega, p))
        np.testing.assert_array_max_ulp(closed, np.array(direct), maxulp=4)


def test_poincare_estimate_work_does_not_grow_with_n(monkeypatch):
    """One masked block of pairs, one pass for all coordinate probes and one
    pass per random probe, on a 10x10 and a 20x20 grid alike; no
    poincare_ratio calls.  The only other block taken is connectivity's."""
    counted = ("poincare_ratio", "_coordinate_ratios", "_gradient_energy")
    by_side = {}
    for side in (10, 20):
        xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        space = from_kernel_grid(points, 1.0, {"type": "indicator", "radius": 1.5})
        omega = space.node_set(range(space.node_count))
        calls = dict.fromkeys(counted, 0)
        for name in counted:
            def counting(*args, _name=name, _fn=getattr(space_module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(space_module, name, counting)
        blocks = []

        def taking(space, rows, cols, integration_set="Q1",
                   _fn=FiniteRandomWalkSpace.block_pairs):
            blocks.append(integration_set if integration_set == "Q1"
                          else integration_set[0])
            return _fn(space, rows, cols, integration_set)

        monkeypatch.setattr(FiniteRandomWalkSpace, "block_pairs", taking)
        est = estimate_poincare_constant(space, omega, ("Q2", omega[:side]), 2.0,
                                         space.measure(omega), 8, seed=0)
        monkeypatch.undo()
        assert est > 0
        calls["blocks"] = sorted(blocks)
        by_side[side] = calls
    assert by_side[10] == by_side[20] == {
        "poincare_ratio": 0, "_coordinate_ratios": 1, "_gradient_energy": 8,
        "blocks": ["Q1", "Q2"],
    }


def test_poincare_estimate_requires_connected_omega():
    w = np.zeros((4, 4))
    for i, j in [(0, 1), (2, 3)]:
        w[i, j] = w[j, i] = 1.0
    space = from_weighted_graph(w)
    with pytest.raises(NotConnected):
        estimate_poincare_constant(
            space, space.node_set([0, 2]), "Q1", 2.0, 1.0, 4, seed=0
        )


def test_poincare_estimate_deterministic_in_seed():
    rng = np.random.default_rng(2)
    space = random_space(rng, 5)
    omega = space.node_set(range(5))
    a = estimate_poincare_constant(space, omega, "Q1", 3.0, 2.0, 12, seed=9)
    b = estimate_poincare_constant(space, omega, "Q1", 3.0, 2.0, 12, seed=9)
    assert a == b
