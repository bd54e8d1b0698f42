"""The space owns the kernel's storage: no reader needs the dense matrix.

``FiniteRandomWalkSpace.kernel`` stays the validated public input, but
every sum over the walk takes its pairs from ``block_pairs``; a space
built from a kernel grid forms the dense kernel only when it is read.  One
test runs the library with reads of the dense kernel trapped; another
scans the sources, so that code paths the first does not run stay off it
too.
"""

import ast
import json
import pathlib

import numpy as np
import pytest

import nldiff
from nldiff.cli import main
from nldiff.evolution import EvolutionProblem, dtn_apply, mild_solve
from nldiff.flux import p_laplacian_flux
from nldiff.monotone import make_identity, make_stefan
from nldiff.space import (
    DomainPartition,
    FiniteRandomWalkSpace,
    estimate_poincare_constant,
    from_kernel_grid,
    interaction,
    is_m_connected,
    m_boundary,
)
from nldiff.stationary import StationaryProblem, energy_report, solve_gp

# oracle.py is the dense reference the tests compare against
DENSE_READERS = {"oracle.py"}
SIDE = 6
INDICATOR = {"type": "indicator", "radius": 1.5}


def grid():
    xs, ys = np.meshgrid(np.arange(SIDE), np.arange(SIDE), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    ring = ((xs == 0) | (ys == 0) | (xs == SIDE - 1) | (ys == SIDE - 1)).ravel()
    return points, np.flatnonzero(~ring), np.flatnonzero(ring)


@pytest.fixture
def kernel_trap(monkeypatch):
    """Any read of ``space.kernel`` fails, also on spaces built before.
    The property is the only way to the dense kernel: a space built from
    a dense kernel keeps it as ``_kernel``, and one built from its pairs
    forms it there on the first read, which the trap replaces."""

    def read(space):
        raise AssertionError("the dense kernel was read after construction")

    monkeypatch.setattr(FiniteRandomWalkSpace, "kernel", property(read),
                        raising=False)


def test_no_reader_touches_the_dense_kernel(kernel_trap, tmp_path, capsys):
    points, bulk, ring = grid()
    space = from_kernel_grid(points, 1.0, INDICATOR)
    with pytest.raises(AssertionError):
        space.kernel
    n = space.node_count
    partition = DomainPartition(bulk, ring)
    flux = p_laplacian_flux(3.0)
    phi = np.random.default_rng(4).uniform(-1.0, 1.0, n)
    for integration_set in ("Q1", "Q2"):
        problem = StationaryProblem(
            space=space, partition=partition, flux=flux, gamma=make_stefan(1.0),
            beta=make_identity(), phi=phi, integration_set=integration_set,
        )
        pair = solve_gp(problem)
        assert pair.verification.passed
        energy, bound = energy_report(problem, pair)
        assert 0.0 < energy and 0.0 < bound
    evolution = EvolutionProblem(
        space=space, partition=partition, flux=flux, gamma=make_identity(),
        beta=make_identity(), mode="dynamical", v0=phi[bulk], w0=phi[ring],
        horizon=0.5,
    )
    assert mild_solve(evolution, 4).step_count == 4
    W = space.node_set(bulk)
    boundary = m_boundary(space, W)
    assert np.array_equal(boundary, ring)
    assert dtn_apply(space, W, flux, phi[boundary]).shape == (boundary.size,)
    assert interaction(space, W, boundary) > 0.0
    assert is_m_connected(space, np.arange(n))
    assert estimate_poincare_constant(
        space, np.arange(n), ("Q2", ring), 2.0, space.measure(bulk), 4, seed=0
    ) > 0.0
    # the CLI builds its spaces under the trap, checks and solves on them
    space_cfg = {"type": "kernel_grid", "points": points.tolist(), "spacing": 1.0,
                 "profile": INDICATOR}
    parts = {"omega1": bulk.tolist(), "omega2": ring.tolist()}
    configs = {
        "check": {"kind": "check", "space": space_cfg, "partition": parts},
        "stationary": {"kind": "stationary", "space": space_cfg, "partition": parts,
                       "flux": {"type": "p_laplacian", "p": 3.0},
                       "gamma": {"type": "identity"}, "phi": phi.tolist(),
                       "integration_set": "Q2"},
        "evolve": {"kind": "evolve-dynamical", "space": space_cfg, "partition": parts,
                   "flux": {"type": "p_laplacian", "p": 2.0},
                   "gamma": {"type": "identity"}, "v0": phi[bulk].tolist(),
                   "w0": phi[ring].tolist(), "horizon": 0.5, "n_steps": 4,
                   "refine_doublings": 1},
        "dtn": {"kind": "dtn", "space": space_cfg, "W": bulk.tolist(),
                "flux": {"type": "p_laplacian", "p": 2.0},
                "w0": phi[ring].tolist(), "horizon": 0.5, "n_steps": 4},
    }
    for command, cfg in configs.items():
        path = tmp_path / (command + ".json")
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 0, capsys.readouterr()
    check = json.loads((tmp_path / "check_check.json").read_text())
    assert check["passed"] and [c["name"] for c in check["checks"]] == [
        "reversibility", "connectivity", "poincare_probe"]
    # the grid space never formed its dense kernel
    assert space._kernel is None


def test_only_the_dense_reference_reads_the_kernel_attribute():
    """No library module but oracle.py reads an attribute named ``kernel``
    or ``_kernel``; space.py reads ``_kernel`` only in the ``kernel``
    property, which forms it."""
    package = pathlib.Path(nldiff.__file__).parent
    readers = {}
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        owner = set()
        if source.name == "space.py":
            owner = {
                id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "kernel"
                for node in ast.walk(fn)
            }
        lines = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("kernel", "_kernel")
            and not isinstance(node.ctx, ast.Store) and id(node) not in owner
        ]
        if lines and source.name not in DENSE_READERS:
            readers[source.name] = lines
    assert readers == {}
