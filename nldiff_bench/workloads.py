"""The three benchmark workloads: inputs, ops and their independent checks.

Each workload builds a fixed list of ops from the seed.  An op is one call
into nldiff whose outputs the workload then checks with ``checks`` (plain
numpy on the benchmark's own data).  The program only ever sees the
generated inputs.  Calls go through module attributes (``stationary.
solve_gp``, ``cli.main``) so that the traced run's wrappers see them.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from collections import defaultdict

import numpy as np

import checks
from conftest import forward_instance, phi_for_target, random_space, target_pair
from nldiff import cli, evolution, space, stationary
from nldiff.errors import NldiffError
from nldiff.flux import p_laplacian_flux
from nldiff.monotone import (
    make_hele_shaw,
    make_identity,
    make_power,
    make_stefan,
)

GRAPHS = {
    "identity": make_identity,
    "power2": lambda: make_power(2.0),
    "stefan": lambda: make_stefan(1.0),
    "hele_shaw": make_hele_shaw,
}

# the config blocks that select the laws of the CLI scenarios
LAW_CONFIGS = {
    "identity": {"type": "identity"},
    "power2": {"type": "power", "exponent": 2.0},
}

RADIUS = 1.5  # indicator kernel: the 8 grid neighbours


class OpFailed(Exception):
    """The program reported a failure for an op (counted, not a wrong result)."""


def grid(side):
    """Points of a side x side unit grid, and its outer ring as a mask."""
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    ring = (xs == 0) | (ys == 0) | (xs == side - 1) | (ys == side - 1)
    return points, ring.ravel()


def ring_partition(ring):
    return space.DomainPartition(np.where(~ring)[0], np.where(ring)[0])


class Workload:
    """A fixed list of ops; ``counts`` holds the workload's own counters.

    ``PASS_SECONDS`` is the nominal time of one pass over the ops, from the
    reference figures in the README.  A run of S seconds makes
    round(S / PASS_SECONDS) passes (at least one), so the ops a run attempts
    depend on S alone, never on how fast the machine happens to be.
    """

    PASS_SECONDS = None

    def __init__(self):
        self.ops = []
        self.counts = defaultdict(float)

    def begin_pass(self):
        pass

    def end_pass(self):
        return []

    def close(self):
        pass


# ---------------------------------------------------------------------------
# grid-stationary
# ---------------------------------------------------------------------------

class GridStationary(Workload):
    """Verified stationary solves on one 30x30 indicator-kernel grid.

    Bulk law power 2, boundary law identity: both strictly increasing onto
    the line, so every solve takes the direct Newton path and the planted
    u* is the unique solution.  p alternates 1.5, 3, 1.5, ...; an odd
    count keeps the median op inside the p = 1.5 group.
    """

    SIDE = 30
    P_CYCLE = (1.5, 3.0, 1.5, 3.0, 1.5)
    LAWS = ("power2", "identity")
    PASS_SECONDS = 6.0

    def __init__(self, seed, workdir):
        super().__init__()
        rng = np.random.default_rng(seed)
        points, ring = grid(self.SIDE)
        self.space = space.from_kernel_grid(
            points, 1.0, {"type": "indicator", "radius": RADIUS})
        self.partition = ring_partition(ring)
        self.weights = checks.grid_weights(points, RADIUS)
        gamma, beta = (GRAPHS[name]() for name in self.LAWS)
        n = self.space.node_count
        for p in self.P_CYCLE:
            flux = p_laplacian_flux(p)
            u_star, v_star = target_pair(rng, self.partition, gamma, beta, n)
            phi = phi_for_target(self.space, self.partition, flux, u_star,
                                 v_star, 1.0)
            problem = stationary.StationaryProblem(
                space=self.space, partition=self.partition, flux=flux,
                gamma=gamma, beta=beta, phi=phi)
            self.ops.append(("solve_gp p=%g" % p, problem, u_star))

    def run_op(self, i):
        try:
            return stationary.solve_gp(self.ops[i][1])
        except NldiffError as exc:
            raise OpFailed("%s: %s" % (type(exc).__name__, exc)) from exc

    def check_op(self, i, pair):
        _, problem, u_star = self.ops[i]
        part = problem.partition
        errors = checks.stationary_errors(
            self.weights, part.omega1, part.omega2, self.LAWS, problem.flux.p,
            problem.lambda_scale, problem.phi, pair.u, pair.v)
        omega = part.omega
        miss = float(np.max(np.abs(pair.u[omega] - u_star[omega])))
        if not miss <= checks.TOL * (1.0 + float(np.max(np.abs(u_star)))):
            errors.append("u misses the planted u* by %.3g" % miss)
        return errors


# ---------------------------------------------------------------------------
# free-boundary-evolve
# ---------------------------------------------------------------------------

# Initial states are spread across each law's jump, so every trajectory has
# a mushy region from its first step.  The draw is stratified (one value
# per equal slice of the span, placed on a random node) so that every
# trajectory has the same share of nodes in each regime; a plain uniform
# draw made the cost of one trajectory vary up to fivefold between seeds.
INITIAL_SPAN = {"stefan": (-1.0, 2.0), "hele_shaw": (-0.5, 1.5)}


def draw_state(rng, law, size):
    lo, hi = INITIAL_SPAN[law]
    v = lo + (hi - lo) * (rng.permutation(size) + rng.random(size)) / size
    return np.clip(v, 0.0, 1.0) if law == "hele_shaw" else v


class FreeBoundaryEvolve(Workload):
    """Dynamical-boundary Euler trajectories on a 7x7 grid.

    Each (bulk law, boundary law, steps) combo runs as a pair of
    trajectories with the same laws and sources and different initial
    states, so that L1 contraction can be checked between them.  Steps
    are sized so that every combo costs about the same.  Sources are
    constant and only given where both ranges are unbounded, which keeps
    the mass inside the attainable range.
    """

    SIDE = 7
    HORIZON = 0.5
    P = 2.0
    COMBOS = (
        ("stefan", "stefan", 4),
        ("hele_shaw", "hele_shaw", 8),
    )
    REPEAT = 6
    PASS_SECONDS = 15.0

    def __init__(self, seed, workdir):
        super().__init__()
        rng = np.random.default_rng(seed)
        points, ring = grid(self.SIDE)
        self.space = space.from_kernel_grid(
            points, 1.0, {"type": "indicator", "radius": RADIUS})
        self.partition = ring_partition(ring)
        self.weights = checks.grid_weights(points, RADIUS)
        self.nu, _ = checks.walk(self.weights)
        o1, o2 = self.partition.omega1, self.partition.omega2
        flux = p_laplacian_flux(self.P)
        for k in range(self.REPEAT):
            for bulk, bound, steps in self.COMBOS:
                f = g = None
                if "hele_shaw" not in (bulk, bound):
                    f = rng.uniform(-0.5, 0.5, o1.size)
                    g = rng.uniform(-0.5, 0.5, o2.size)
                for member in range(2):
                    problem = evolution.EvolutionProblem(
                        space=self.space, partition=self.partition, flux=flux,
                        gamma=GRAPHS[bulk](), beta=GRAPHS[bound](),
                        mode="dynamical",
                        v0=draw_state(rng, bulk, o1.size),
                        w0=draw_state(rng, bound, o2.size),
                        f=f, g=g, horizon=self.HORIZON)
                    label = "%s/%s x%d pair%d.%d" % (bulk, bound, steps, k,
                                                      member)
                    self.ops.append((label, problem, (bulk, bound), steps))
        self._partner = None

    def run_op(self, i):
        _, problem, _, steps = self.ops[i]
        try:
            return evolution.mild_solve(problem, steps)
        except NldiffError as exc:
            raise OpFailed("%s: %s" % (type(exc).__name__, exc)) from exc

    def states(self, solution):
        """Rows of full node vectors: v on the bulk, w on the boundary."""
        out = np.zeros((solution.step_count + 1, self.space.node_count))
        out[:, self.partition.omega1] = solution.v
        out[:, self.partition.omega2] = solution.w
        return out

    def check_op(self, i, solution):
        _, problem, laws, steps = self.ops[i]
        o1, o2 = self.partition.omega1, self.partition.omega2
        forcing = np.zeros(self.space.node_count)
        if problem.f is not None:
            forcing[o1] = problem.f
            forcing[o2] = problem.g
        states = self.states(solution)
        errors = checks.trajectory_errors(
            self.weights, o1, o2, laws, self.P, self.HORIZON / steps, states,
            solution.u, [forcing] * steps)
        mass = states @ self.nu
        gap = np.abs(np.asarray(solution.mass_series) - mass)
        if not np.all(gap <= checks.TOL * np.maximum(1.0, np.abs(mass))):
            errors.append("reported mass series off by %.3g" % gap.max())
        if i % 2 == 0:
            self._partner = states
        elif self._partner is not None:
            psi_scale = max(np.max(np.abs(self._partner)),
                            np.max(np.abs(states))) + np.max(np.abs(forcing))
            errors += checks.contraction_errors(self.nu, self._partner, states,
                                                psi_scale)
            self._partner = None
        return errors


# ---------------------------------------------------------------------------
# cli-scenarios
# ---------------------------------------------------------------------------

def _law_name(graph):
    for name, make in GRAPHS.items():
        if make().elements == graph.elements:
            return name
    raise ValueError("no closed form for %r" % (graph,))


def _step_table(rng, width, horizon):
    edges = [0.0, 0.5 * horizon, horizon]
    rows = rng.uniform(-0.5, 0.5, (2, width))
    return {"edges": edges, "rows": rows.tolist()}


def _table_averages(table, horizon, steps):
    """Per-step averages of a step-table source, computed independently."""
    edges = np.asarray(table["edges"])
    rows = np.asarray(table["rows"])
    times = np.linspace(0.0, horizon, steps + 1)
    out = []
    for t0, t1 in zip(times[:-1], times[1:]):
        overlap = np.maximum(np.minimum(edges[1:], t1) - np.maximum(edges[:-1], t0),
                             0.0)
        out.append(overlap @ rows / (t1 - t0))
    return out


def _write_weights(path, weights):
    with open(path, "w") as fh:
        for row in weights:
            fh.write(",".join("%.17g" % x for x in row) + "\n")


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def _num(cell):
    return float(cell) if cell != "" else np.nan


class CliScenarios(Workload):
    """Generated JSON configs run through ``nldiff.cli.main`` in process.

    One pass runs every config once, all into a fresh output directory.
    The last config is the defect-A instance: while the direct Newton path
    rejects it, it fails on every pass and counts as a failed op.
    """

    GRID_SIDE = 14
    EVOLVE_SIDE = 8
    DTN_SIDE = 14
    STATIC_GRAPH_NODES = 120
    STATIONARY_GRAPH_NODES = 160
    COPIES = 2
    PASS_SECONDS = 6.0

    def __init__(self, seed, workdir):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.root = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.config_dir = os.path.join(self.root, "configs")
        os.makedirs(self.config_dir)
        self.expect = {}
        for k in range(self.COPIES):
            self._add_stationary_grid(rng, "s_grid%d" % k)
            self._add_stationary_graph(rng, "s_graph%d" % k)
            self._add_evolve_dynamical(rng, "e_dyn%d" % k)
            self._add_evolve_static(rng, "e_static%d" % k)
            self._add_dtn(rng, "dtn%d" % k)
        self.ops.append(("check e_dyn0", "check", "e_dyn0", "check"))
        self._add_defect_a()
        self.first_outputs = {}
        self.pass_dir = None

    # -- config generation ---------------------------------------------------

    def _write(self, stem, cfg, command, check):
        with open(os.path.join(self.config_dir, stem + ".json"), "w") as fh:
            json.dump(cfg, fh)
        self.ops.append(("%s %s" % (command, stem), command, stem, check))
        self.expect[stem] = cfg

    def _grid_cfg(self, side):
        points, ring = grid(side)
        cfg = {"type": "kernel_grid", "points": points.tolist(), "spacing": 1.0,
               "profile": {"type": "indicator", "radius": RADIUS}}
        built = space.from_kernel_grid(points, 1.0, cfg["profile"])
        return cfg, built, checks.grid_weights(points, RADIUS), ring

    def _graph_cfg(self, rng, stem, n):
        base = random_space(rng, n)
        weights = base.nu[:, None] * base.kernel
        path = os.path.join(self.config_dir, stem + ".csv")
        _write_weights(path, weights)
        # the checks and the forward-built data use the weights exactly as
        # the program will read them back from the file
        weights = np.loadtxt(path, delimiter=",")
        built = space.from_weighted_graph(weights)
        return {"type": "weighted_graph", "file": stem + ".csv"}, built, weights

    def _stationary_cfg(self, rng, stem, space_cfg, built, weights, partition,
                        laws, p, lam):
        gamma, beta = (GRAPHS[name]() for name in laws)
        flux = p_laplacian_flux(p)
        u, v = target_pair(rng, partition, gamma, beta, built.node_count)
        phi = phi_for_target(built, partition, flux, u, v, lam)
        cfg = {"kind": "stationary", "space": space_cfg,
               "partition": {"omega1": partition.omega1.tolist(),
                             "omega2": partition.omega2.tolist()},
               "flux": {"type": "p_laplacian", "p": p},
               "gamma": LAW_CONFIGS[laws[0]],
               "beta": LAW_CONFIGS[laws[1]],
               "phi": phi.tolist(), "lambda": lam}
        self._write(stem, cfg, "stationary", ("stationary", weights, laws))

    def _add_stationary_grid(self, rng, stem):
        space_cfg, built, weights, ring = self._grid_cfg(self.GRID_SIDE)
        self._stationary_cfg(rng, stem, space_cfg, built, weights,
                             ring_partition(ring), ("power2", "identity"), 1.5,
                             1.0)

    def _add_stationary_graph(self, rng, stem):
        n = self.STATIONARY_GRAPH_NODES
        space_cfg, built, weights = self._graph_cfg(rng, stem, n)
        nodes = rng.permutation(n)
        cut = (3 * n) // 4
        partition = space.DomainPartition(nodes[:cut], nodes[cut:])
        self._stationary_cfg(rng, stem, space_cfg, built, weights,
                             partition, ("identity", "power2"), 3.0, 1.0)

    def _evolve_cfg(self, stem, kind, space_cfg, partition, laws, v0, w0, f,
                    steps, extra=None):
        cfg = {"kind": kind, "space": space_cfg,
               "partition": {"omega1": partition.omega1.tolist(),
                             "omega2": partition.omega2.tolist()},
               "flux": {"type": "p_laplacian", "p": 2.0},
               "gamma": LAW_CONFIGS[laws[0]],
               "beta": LAW_CONFIGS[laws[1]],
               "v0": v0.tolist(), "horizon": 0.5, "n_steps": steps}
        if w0 is not None:
            cfg["w0"] = w0.tolist()
        if f is not None:
            cfg["f"] = f
        cfg.update(extra or {})
        return cfg

    def _add_evolve_dynamical(self, rng, stem):
        space_cfg, built, weights, ring = self._grid_cfg(self.EVOLVE_SIDE)
        partition = ring_partition(ring)
        laws = ("power2", "identity")
        o1, o2 = partition.omega1, partition.omega2
        cfg = self._evolve_cfg(
            stem, "evolve-dynamical", space_cfg, partition, laws,
            rng.uniform(-1.0, 1.0, o1.size), rng.uniform(-1.0, 1.0, o2.size),
            _step_table(rng, o1.size, 0.5), 16, {"refine_doublings": 1})
        self._write(stem, cfg, "evolve", ("evolve", weights, laws))

    def _add_evolve_static(self, rng, stem):
        n = self.STATIC_GRAPH_NODES
        space_cfg, built, weights = self._graph_cfg(rng, stem, n)
        nodes = rng.permutation(n)
        partition = space.DomainPartition(nodes[: n // 2], nodes[n // 2:])
        laws = ("identity", "power2")
        cfg = self._evolve_cfg(
            stem, "evolve-static", space_cfg, partition, laws,
            rng.uniform(-1.0, 1.0, partition.omega1.size), None,
            rng.uniform(-0.5, 0.5, partition.omega1.size).tolist(), 16)
        self._write(stem, cfg, "evolve", ("evolve", weights, laws))

    def _add_dtn(self, rng, stem):
        space_cfg, built, weights, ring = self._grid_cfg(self.DTN_SIDE)
        inner = np.where(~ring)[0]
        boundary = np.where(ring)[0]
        partition = space.DomainPartition(inner, boundary)
        g = _step_table(rng, boundary.size, 0.5)
        cfg = {"kind": "dtn", "space": space_cfg, "W": inner.tolist(),
               "flux": {"type": "p_laplacian", "p": 2.0},
               "w0": rng.uniform(-1.0, 1.0, boundary.size).tolist(),
               "g": g, "horizon": 0.5, "n_steps": 24}
        self._write(stem, cfg, "dtn", ("dtn", weights, ("zero", "identity"),
                                        partition))

    def _add_defect_a(self):
        # a feasible forward-built instance the direct Newton path rejects
        problem, _, _ = forward_instance(1002, max_nodes=12, p_choices=(5.0,),
                                         lambda_scale=1e4)
        weights = problem.space.nu[:, None] * problem.space.kernel
        stem = "defect_a"
        cfg = {"kind": "stationary",
               "space": {"type": "weighted_graph", "weights": weights.tolist()},
               "partition": {"omega1": problem.partition.omega1.tolist(),
                             "omega2": problem.partition.omega2.tolist()},
               "flux": {"type": "p_laplacian", "p": problem.flux.p},
               "gamma": LAW_CONFIGS[_law_name(problem.gamma)],
               "beta": LAW_CONFIGS[_law_name(problem.beta)],
               "phi": problem.phi.tolist(), "lambda": problem.lambda_scale}
        laws = (_law_name(problem.gamma), _law_name(problem.beta))
        self._write(stem, cfg, "stationary",
                    ("stationary", np.asarray(weights), laws))

    # -- running ---------------------------------------------------------------

    def begin_pass(self):
        self.pass_dir = tempfile.mkdtemp(prefix="pass-", dir=self.root)

    def run_op(self, i):
        _, command, stem, _ = self.ops[i]
        config = os.path.join(self.config_dir, stem + ".json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", config, "--out", self.pass_dir])
        summary = json.loads(out.getvalue().strip().splitlines()[-1])
        if code != 0:
            raise OpFailed("exit %d: %s" % (code, err.getvalue().strip()))
        outputs = summary["outputs"]
        self.counts["cli.output_bytes"] += sum(os.path.getsize(p) for p in outputs)
        return outputs

    def check_op(self, i, outputs):
        label, command, stem, check = self.ops[i]
        contents = {}
        for path in outputs:
            with open(path, "rb") as fh:
                contents[os.path.basename(path)] = fh.read()
        errors = []
        first = self.first_outputs.setdefault(i, contents)
        if first != contents:
            errors.append("%s: outputs differ from the first pass" % label)
        if check == "check":
            report = json.loads(contents[stem + "_check.json"])
            names = [c["name"] for c in report["checks"]]
            if not report["passed"] or names != [
                    "reversibility", "connectivity", "compatibility",
                    "poincare_probe"]:
                errors.append("%s: unexpected check report %s" % (label, names))
            return errors
        cfg = self.expect[stem]
        kind, weights, laws = check[:3]
        if kind == "stationary":
            errors += self._check_stationary(cfg, weights, laws, outputs[0])
        else:
            partition = check[3] if kind == "dtn" else space.DomainPartition(
                cfg["partition"]["omega1"], cfg["partition"]["omega2"])
            errors += self._check_evolution(cfg, weights, laws, partition,
                                            outputs[0], outputs[1])
        return ["%s: %s" % (label, e) for e in errors]

    def _check_stationary(self, cfg, weights, laws, solution_csv):
        n = weights.shape[0]
        u = np.zeros(n)
        v = np.zeros(n)
        header, rows = _read_csv(solution_csv)
        if header != ["node", "u", "v"]:
            return ["solution header %s" % header]
        for node, ui, vi in rows:
            u[int(node)], v[int(node)] = float(ui), float(vi)
        o1 = np.asarray(cfg["partition"]["omega1"], dtype=int)
        o2 = np.asarray(cfg["partition"]["omega2"], dtype=int)
        if sorted(int(r[0]) for r in rows) != sorted(np.union1d(o1, o2).tolist()):
            return ["solution rows do not cover the partition"]
        return checks.stationary_errors(
            weights, o1, o2, laws, cfg["flux"]["p"], cfg["lambda"],
            np.asarray(cfg["phi"]), u, v)

    def _check_evolution(self, cfg, weights, laws, partition, trajectory_csv,
                         mass_csv):
        o1, o2 = partition.omega1, partition.omega2
        n = weights.shape[0]
        steps = cfg["n_steps"]
        horizon = cfg["horizon"]
        tau = horizon / steps
        static = cfg["kind"] == "evolve-static"
        header, rows = _read_csv(trajectory_csv)
        if header != ["t", "node", "u", "v", "w"]:
            return ["trajectory header %s" % header]
        times = sorted({float(r[0]) for r in rows})
        if len(times) != steps + 1:
            return ["trajectory has %d times, not %d" % (len(times), steps + 1)]
        index = {t: i for i, t in enumerate(times)}
        bulk_nodes = set(o1.tolist())
        states = np.zeros((steps + 1, n))
        u_rows = np.zeros((steps, n))
        for t, node, u, v, w in rows:
            i, node = index[float(t)], int(node)
            states[i, node] = _num(v) if node in bulk_nodes else _num(w)
            if i:
                u_rows[i - 1, node] = _num(u)
        forcing = [np.zeros(n) for _ in range(steps)]
        for key, nodes in (("f", o1), ("g", o2)):
            source = cfg.get(key)
            if source is None:
                continue
            if isinstance(source, dict):
                averages = _table_averages(source, horizon, steps)
            else:
                averages = [np.asarray(source)] * steps
            for row, avg in zip(forcing, averages):
                row[nodes] = avg
        start = np.zeros(n)
        start[o1] = cfg.get("v0", 0.0)
        if not static:
            start[o2] = cfg["w0"]
        if static:
            states[0, o2] = 0.0
        errors = []
        if not np.array_equal(states[0], start):
            errors.append("first row is not the initial state")
        states[0] = start
        errors += checks.trajectory_errors(weights, o1, o2, laws, 2.0, tau,
                                           states, u_rows, forcing, static)
        nu, _ = checks.walk(weights)
        initial = float(nu @ start)
        header, mass_rows = _read_csv(mass_csv)
        mass = np.array([[float(x) for x in r] for r in mass_rows])
        errors += checks.ledger_errors(mass, initial)
        bulk = states[:, o1] @ nu[o1]
        source = np.concatenate([[0.0], np.cumsum([tau * float(nu @ f)
                                                   for f in forcing])])
        for column, mine, what in ((1, bulk, "bulk mass"), (3, source, "source")):
            gap = np.abs(mass[:, column] - mine)
            if not np.all(gap <= checks.TOL * np.maximum(1.0, np.abs(mine))):
                errors.append("%s column off by %.3g" % (what, gap.max()))
        return errors

    def end_pass(self):
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir = None
        return []

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {
    "grid-stationary": GridStationary,
    "free-boundary-evolve": FreeBoundaryEvolve,
    "cli-scenarios": CliScenarios,
}
