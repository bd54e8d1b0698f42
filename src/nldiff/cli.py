"""Configuration-driven scenario runner.

Each JSON config describes one scenario: a space, a partition, a flux, the
state graphs, data, and solver parameters, under a "kind" that picks the
problem family.  ``run`` executes one config and returns the exit code the
console command will use: 0 on success, 2 when the data is infeasible
(range or compatibility), 3 when the solver gives up, 1 for anything wrong
with the config itself.  Results land next to the config (or in --out) as
CSV and JSON files written atomically; a one-line JSON summary goes to
standard output and human-readable diagnostics to standard error.
"""

import argparse
import dataclasses
import glob
import json
import multiprocessing
import os
import sys

import numpy as np

from .errors import (
    CompatibilityViolated,
    InvalidParameter,
    NldiffError,
    NumericalFailure,
    RangeInfeasible,
    SolverDiverged,
)
from .evolution import (
    EvolutionProblem,
    _dtn_problem,
    _refine,
    compatibility_check,
    mild_solve,
    strong_residual,
)
from .flux import p_laplacian_flux, weighted_flux
from .monotone import from_config as graph_from_config
from .space import (
    DomainPartition,
    _poincare_estimates,
    from_kernel_grid,
    from_weighted_graph,
    is_m_connected,
    profile_from_config,
)
from .stationary import StationaryProblem, check_range, energy_report, solve_gp

# not called here, but nldiff_bench/tracing.py patches these names here
from .evolution import refine_and_compare  # noqa: F401
from .space import estimate_poincare_constant  # noqa: F401
from .stationary import verify_solution  # noqa: F401

_KINDS = ("stationary", "evolve-dynamical", "evolve-static", "dtn", "check")


def _cells(values) -> list:
    """Each value written "%.17g", in row-major order: one column's cells."""
    return ["%.17g" % x for x in np.ravel(values).tolist()]


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, default=_json_default)


def _report_dict(report):
    return json.loads(_dump_json(dataclasses.asdict(report)))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidParameter("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameter("config %s is not valid JSON: %s" % (path, exc)) from exc


def _require(cfg, key, kind):
    if key not in cfg:
        raise InvalidParameter("config kind %r needs field %r" % (kind, key))
    return cfg[key]


def _build_space(cfg, base_dir):
    if not isinstance(cfg, dict):
        raise InvalidParameter("space spec must be a mapping")
    kind = cfg.get("type")
    if kind == "weighted_graph":
        if "file" in cfg:
            path = os.path.join(base_dir, cfg["file"])
            if not os.path.exists(path):
                raise InvalidParameter("graph file %s does not exist" % path)
            if path.endswith(".json"):
                with open(path) as fh:
                    weights = json.load(fh)
            else:
                weights = np.loadtxt(
                    path, delimiter="," if path.endswith(".csv") else None
                )
        else:
            weights = _require(cfg, "weights", "weighted_graph")
        return from_weighted_graph(np.asarray(weights, dtype=float))
    if kind == "kernel_grid":
        profile = profile_from_config(_require(cfg, "profile", "kernel_grid"))
        return from_kernel_grid(
            _require(cfg, "points", "kernel_grid"),
            float(_require(cfg, "spacing", "kernel_grid")),
            profile,
        )
    raise InvalidParameter("unknown space type %r" % (kind,))


def _build_flux(cfg):
    if not isinstance(cfg, dict):
        raise InvalidParameter("flux spec must be a mapping")
    kind = cfg.get("type", "p_laplacian")
    if kind == "p_laplacian":
        return p_laplacian_flux(float(_require(cfg, "p", "p_laplacian")))
    if kind == "weighted":
        return weighted_flux(
            float(_require(cfg, "p", "weighted")),
            np.asarray(_require(cfg, "phi", "weighted"), dtype=float),
        )
    raise InvalidParameter(
        "unknown flux type %r (custom fluxes are library-only)" % (kind,)
    )


def _build_partition(cfg):
    if not isinstance(cfg, dict):
        raise InvalidParameter("partition spec must be a mapping")
    return DomainPartition(cfg.get("omega1", []), cfg.get("omega2", []))


def _build_source(cfg, name):
    if cfg is None:
        return None
    if isinstance(cfg, dict):
        edges = _require(cfg, "edges", name + " table")
        rows = _require(cfg, "rows", name + " table")
        return (np.asarray(edges, dtype=float), np.asarray(rows, dtype=float))
    return np.asarray(cfg, dtype=float)


def _stationary_problem(cfg, base_dir):
    return StationaryProblem(
        space=_build_space(_require(cfg, "space", "stationary"), base_dir),
        partition=_build_partition(_require(cfg, "partition", "stationary")),
        flux=_build_flux(_require(cfg, "flux", "stationary")),
        gamma=graph_from_config(_require(cfg, "gamma", "stationary")),
        beta=graph_from_config(cfg.get("beta", {"type": "identity"})),
        phi=np.asarray(_require(cfg, "phi", "stationary"), dtype=float),
        integration_set=cfg.get("integration_set", "Q1"),
        lambda_scale=float(cfg.get("lambda", 1.0)),
    )


def _evolution_problem(cfg, base_dir, kind):
    if kind == "dtn":
        return _dtn_problem(
            _build_space(_require(cfg, "space", kind), base_dir),
            _require(cfg, "W", kind),
            _build_flux(_require(cfg, "flux", kind)),
            _build_source(cfg.get("g"), "g"),
            np.asarray(_require(cfg, "w0", kind), dtype=float),
            float(_require(cfg, "horizon", kind)),
        )
    mode = "dynamical" if kind == "evolve-dynamical" else "static_boundary"
    partition = _build_partition(_require(cfg, "partition", kind))
    w0 = cfg.get("w0")
    return EvolutionProblem(
        space=_build_space(_require(cfg, "space", kind), base_dir),
        partition=partition,
        flux=_build_flux(_require(cfg, "flux", kind)),
        gamma=graph_from_config(_require(cfg, "gamma", kind)),
        beta=graph_from_config(cfg.get("beta", {"type": "identity"})),
        mode=mode,
        v0=np.asarray(_require(cfg, "v0", kind), dtype=float),
        w0=None if w0 is None else np.asarray(w0, dtype=float),
        f=_build_source(cfg.get("f"), "f"),
        g=_build_source(cfg.get("g"), "g"),
        horizon=float(_require(cfg, "horizon", kind)),
    )


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _write_csv(path, header, columns):
    """A CSV file of equally long columns of cells."""
    lines = [header] + [",".join(row) for row in zip(*columns)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _nodes(nodes) -> list:
    return [str(node) for node in nodes.tolist()]


def _write_solution_csv(path, problem, pair):
    omega = problem.partition.omega
    _write_csv(path, "node,u,v",
               (_nodes(omega), _cells(pair.u[omega]), _cells(pair.v[omega])))


def _write_trajectory_csv(path, problem, solution):
    """One row per time and node of Omega: u from the first step on, v on
    the bulk, w on the boundary where it is not NaN, empty cells
    elsewhere."""
    omega = problem.partition.omega
    mask = problem.partition.boundary_mask
    rows = solution.times.size
    state = np.empty((rows, omega.size))
    state[:, ~mask] = solution.v
    state[:, mask] = solution.w
    cells = _cells(state)
    boundary = np.tile(mask, rows)
    no_w = (~boundary | np.isnan(state).ravel()).tolist()
    _write_csv(path, "t,node,u,v,w", (
        [t for t in _cells(solution.times) for _ in range(omega.size)],
        _nodes(omega) * rows,
        [""] * omega.size + _cells(solution.u[:, omega]),
        ["" if b else c for c, b in zip(cells, boundary.tolist())],
        ["" if skip else c for c, skip in zip(cells, no_w)],
    ))


def _mass_table(problem, solution):
    """Rows (t, mass_omega1, mass_omega2, source_integral); the boundary
    column is the accumulated absorption in static mode so that the first
    two columns always sum to the initial mass plus the source column."""
    space = problem.space
    o1 = problem.partition.omega1
    o2 = problem.partition.omega2
    nu1 = space.nu[o1]
    nu2 = space.nu[o2]
    n = solution.step_count
    tau = problem.horizon / n
    dynamical = solution.mode == "dynamical"
    rows = []
    absorbed = 0.0
    source = 0.0
    for i in range(n + 1):
        if i > 0:
            source += tau * float(space.nu @ solution.f_averages[i - 1])
            if not dynamical:
                absorbed += tau * float(nu2 @ solution.w[i])
        mass1 = float(nu1 @ solution.v[i])
        if dynamical:
            mass2 = float(nu2 @ solution.w[i]) if o2.size else 0.0
        else:
            mass2 = absorbed
        rows.append((float(solution.times[i]), mass1, mass2, source))
    return rows


def _write_mass_csv(path, mass_rows):
    _write_csv(path, "t,mass_omega1,mass_omega2,source_integral",
               [_cells(column) for column in zip(*mass_rows)])


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

def _run_stationary(cfg, base_dir, out_dir, stem):
    problem = _stationary_problem(cfg, base_dir)
    tol = float(cfg.get("tol", 1e-9))
    pair = solve_gp(problem, tol)
    energy, bound = energy_report(problem, pair)
    solution_path = os.path.join(out_dir, stem + "_solution.csv")
    report_path = os.path.join(out_dir, stem + "_report.json")
    _write_solution_csv(solution_path, problem, pair)
    report = {
        "kind": "stationary",
        "residual_inf": pair.residual_inf,
        "iterations": pair.iterations,
        "schedule_trace": list(pair.schedule_trace),
        "verification": _report_dict(pair.verification),
        "range_report": _report_dict(check_range(problem)),
        "energy": {"gradient_energy": energy, "bound": bound},
    }
    _atomic_write(report_path, _dump_json(report) + "\n")
    return {
        "kind": "stationary",
        "residual_inf": pair.residual_inf,
        "verified": pair.verification.passed,
        "outputs": [solution_path, report_path],
    }


def _run_evolution(cfg, base_dir, out_dir, stem, kind):
    problem = _evolution_problem(cfg, base_dir, kind)
    n_steps = int(_require(cfg, "n_steps", kind))
    solution = mild_solve(problem, n_steps)
    doublings = int(cfg.get("refine_doublings", 0))
    table = _refine(problem, solution, doublings) if doublings else []
    try:
        ledger = _report_dict(strong_residual(problem, solution))
    except InvalidParameter:
        ledger = None
    trajectory_path = os.path.join(out_dir, stem + "_trajectory.csv")
    mass_path = os.path.join(out_dir, stem + "_mass.csv")
    report_path = os.path.join(out_dir, stem + "_report.json")
    _write_trajectory_csv(trajectory_path, problem, solution)
    mass_rows = _mass_table(problem, solution)
    _write_mass_csv(mass_path, mass_rows)
    report = {
        "kind": kind,
        "mode": solution.mode,
        "step_count": solution.step_count,
        "residuals": solution.residuals.tolist(),
        "mass_series": solution.mass_series.tolist(),
        "compatibility": _report_dict(solution.compatibility),
        "energy_ledger": ledger,
        "refinement_table": [[int(n), float(d)] for n, d in table],
    }
    _atomic_write(report_path, _dump_json(report) + "\n")
    return {
        "kind": kind,
        "step_count": solution.step_count,
        "max_residual": float(solution.residuals.max()),
        "final_mass": mass_rows[-1][1] + mass_rows[-1][2],
        "outputs": [trajectory_path, mass_path, report_path],
    }


def _run_check(cfg, base_dir, out_dir, stem):
    kind = cfg.get("kind", "check")
    seed = int(cfg.get("seed", 0))
    checks = []

    def add(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    if kind in ("evolve-dynamical", "evolve-static", "dtn"):
        problem = _evolution_problem(cfg, base_dir, kind)
    elif kind == "stationary":
        problem = _stationary_problem(cfg, base_dir)
    else:
        space = _build_space(_require(cfg, "space", "check"), base_dir)
        partition = _build_partition(_require(cfg, "partition", "check"))
        problem = None
    if problem is not None:
        space = problem.space
        partition = problem.partition

    # the space's constructor measured this gap and rejects a larger one
    add("reversibility", True, {"gap": space.reversibility_gap})

    omega = partition.omega
    connected = is_m_connected(space, omega)
    add("connectivity", connected, {"nodes": int(omega.size)})

    if isinstance(problem, StationaryProblem):
        report = check_range(problem)
        add("range", report.feasible, _report_dict(report))
    elif isinstance(problem, EvolutionProblem):
        n_probe = int(cfg.get("n_probe", 16))
        report = compatibility_check(problem, n_probe)
        add("compatibility", report.passed, _report_dict(report))

    if connected:
        # the probe estimate of estimate_poincare_constant, scored on the
        # block's pairs without a second connectivity search
        p = problem.flux.p if problem is not None else float(cfg.get("p", 2.0))
        iset = cfg.get("integration_set", "Q1")
        mask_spec = ("Q2", partition.omega2) if iset == "Q2" else "Q1"
        probes = int(cfg.get("poincare_probes", 8))
        (lam1,) = _poincare_estimates(
            space, omega, space.block_pairs(omega, omega, mask_spec), p,
            (float(space.nu[omega].sum()),), probes, seed,
        )
        add("poincare_probe", True, {"lambda_lower_bound": lam1, "p": p})

    passed = all(entry["passed"] for entry in checks)
    report_path = os.path.join(out_dir, stem + "_check.json")
    _atomic_write(
        report_path,
        _dump_json({"kind": kind, "passed": passed, "checks": checks}) + "\n",
    )
    return passed, {
        "kind": "check",
        "passed": passed,
        "checks": {entry["name"]: entry["passed"] for entry in checks},
        "outputs": [report_path],
    }


def _emit(summary, code):
    summary = dict(summary)
    summary["exit"] = code
    summary["status"] = {0: "ok", 1: "config-error", 2: "infeasible", 3: "failed"}[
        code
    ]
    print(_dump_json(summary), flush=True)
    return code


def run(config_path, out_dir=None, expect=None) -> int:
    """Execute one scenario config and return the process exit code.

    ``expect`` optionally names the subcommand the config must match
    ("stationary", "evolve", "dtn", or "check"; check accepts any kind).
    """
    try:
        cfg = _load_config(config_path)
        kind = cfg.get("kind")
        if kind not in _KINDS:
            raise InvalidParameter(
                "config kind must be one of %s, got %r" % (_KINDS, kind)
            )
        if expect is not None and expect != "check":
            matches = {
                "stationary": ("stationary",),
                "evolve": ("evolve-dynamical", "evolve-static"),
                "dtn": ("dtn",),
            }.get(expect, ())
            if kind not in matches:
                raise InvalidParameter(
                    "subcommand %r cannot run a %r config" % (expect, kind)
                )
        base_dir = os.path.dirname(os.path.abspath(config_path))
        target = out_dir if out_dir is not None else base_dir
        os.makedirs(target, exist_ok=True)
        stem = os.path.splitext(os.path.basename(config_path))[0]
        if expect == "check" or kind == "check":
            passed, summary = _run_check(cfg, base_dir, target, stem)
            return _emit(summary, 0 if passed else 2)
        if kind == "stationary":
            return _emit(_run_stationary(cfg, base_dir, target, stem), 0)
        return _emit(_run_evolution(cfg, base_dir, target, stem, kind), 0)
    except (RangeInfeasible, CompatibilityViolated) as exc:
        print(str(exc), file=sys.stderr)
        summary = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "report", None) is not None:
            summary["report"] = _report_dict(exc.report)
        return _emit(summary, 2)
    except (SolverDiverged, NumericalFailure) as exc:
        print(str(exc), file=sys.stderr)
        return _emit({"error": type(exc).__name__, "message": str(exc)}, 3)
    except NldiffError as exc:
        print(str(exc), file=sys.stderr)
        return _emit({"error": type(exc).__name__, "message": str(exc)}, 1)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return _emit({"error": type(exc).__name__, "message": str(exc)}, 1)


def check(config_path, out_dir=None) -> int:
    """Run the non-solving checks for a config (any kind)."""
    return run(config_path, out_dir=out_dir, expect="check")


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------

def _batch_entry(item):
    expect, path, out_dir = item
    return run(path, out_dir=out_dir, expect=expect)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nldiff",
        description="Nonlocal doubly nonlinear diffusion scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("stationary", "solve a stationary scenario"),
        ("evolve", "run an implicit-Euler evolution"),
        ("dtn", "evolve boundary data under the Dirichlet-to-Neumann map"),
        ("check", "validate a scenario without solving"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True,
                         help="scenario JSON, or a directory of *.json")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="parallel workers for config directories")
    args = parser.parse_args(argv)

    if os.path.isdir(args.config):
        paths = sorted(glob.glob(os.path.join(args.config, "*.json")))
        if not paths:
            print("no *.json configs in %s" % args.config, file=sys.stderr)
            return 1
    else:
        paths = [args.config]
    items = [(args.command, path, args.out) for path in paths]
    if args.jobs > 1 and len(items) > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            codes = pool.map(_batch_entry, items)
    else:
        codes = [_batch_entry(item) for item in items]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
