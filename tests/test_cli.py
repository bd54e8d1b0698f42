"""End-to-end tests for the scenario runner."""

import csv
import json

import pytest

from nldiff import cli
from nldiff import space as space_module
from nldiff.cli import check, main, run
from nldiff.errors import SolverDiverged
from nldiff.evolution import compatibility_check, refine_and_compare
from nldiff.flux import NonlocalOperator
from nldiff.stationary import check_range, solve_gp, verify_solution

TWO_NODE_SPACE = {"type": "weighted_graph", "weights": [[0.0, 1.0], [1.0, 0.0]]}


def stationary_payload(**overrides):
    payload = {
        "kind": "stationary",
        "space": TWO_NODE_SPACE,
        "partition": {"omega1": [0], "omega2": [1]},
        "flux": {"type": "p_laplacian", "p": 2.0},
        "gamma": {"type": "identity"},
        "phi": [1.0, 0.0],
    }
    payload.update(overrides)
    return payload


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def last_summary(capsys):
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_stationary_run_writes_solution_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "basic.json", stationary_payload())
    code = main(["stationary", "--config", str(cfg)])
    assert code == 0
    summary = last_summary(capsys)
    assert summary["status"] == "ok"
    rows = read_csv(tmp_path / "basic_solution.csv")
    assert [row["node"] for row in rows] == ["0", "1"]
    assert float(rows[0]["u"]) == pytest.approx(2 / 3, abs=1e-9)
    assert float(rows[1]["v"]) == pytest.approx(1 / 3, abs=1e-9)
    report = json.loads((tmp_path / "basic_report.json").read_text())
    assert report["kind"] == "stationary"
    assert report["verification"]["passed"] is True


def test_lambda_scale_reaches_the_solver(tmp_path, capsys):
    cfg = write_config(tmp_path, "scaled.json",
                       stationary_payload(**{"lambda": 0.5}))
    assert main(["stationary", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "scaled_solution.csv")
    assert float(rows[0]["u"]) == pytest.approx(0.75, abs=1e-9)
    assert float(rows[1]["u"]) == pytest.approx(0.25, abs=1e-9)


def test_graph_loaded_from_file_next_to_config(tmp_path, capsys):
    (tmp_path / "edges.csv").write_text("0,1\n1,0\n")
    payload = stationary_payload(
        space={"type": "weighted_graph", "file": "edges.csv"})
    cfg = write_config(tmp_path, "fromfile.json", payload)
    assert main(["stationary", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "fromfile_solution.csv").exists()


def test_missing_graph_file_is_a_config_error(tmp_path, capsys):
    payload = stationary_payload(
        space={"type": "weighted_graph", "file": "nowhere.csv"})
    cfg = write_config(tmp_path, "lost.json", payload)
    assert main(["stationary", "--config", str(cfg)]) == 1
    assert last_summary(capsys)["status"] == "config-error"


def test_malformed_json_exits_one(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run(str(cfg)) == 1
    assert last_summary(capsys)["status"] == "config-error"


def test_unknown_kind_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "odd.json", stationary_payload(kind="mystery"))
    assert run(str(cfg)) == 1
    assert last_summary(capsys)["exit"] == 1


def test_subcommand_kind_mismatch_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "stat.json", stationary_payload())
    assert main(["evolve", "--config", str(cfg)]) == 1
    assert last_summary(capsys)["status"] == "config-error"


def test_missing_config_exits_one(tmp_path, capsys):
    assert run(str(tmp_path / "absent.json")) == 1
    summary = last_summary(capsys)
    assert summary["status"] == "config-error"
    assert summary["error"] == "InvalidParameter"


def test_unwritable_output_exits_one(tmp_path, capsys):
    """An output directory that is a file fails in the operating system,
    which the runner reports as a config error."""
    cfg = write_config(tmp_path, "basic.json", stationary_payload())
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run(str(cfg), out_dir=str(blocker)) == 1
    summary = last_summary(capsys)
    assert summary["status"] == "config-error"
    assert summary["error"] == "FileExistsError"


def test_diverged_solver_exits_three(tmp_path, capsys, monkeypatch):
    def diverging(problem, tol):
        raise SolverDiverged("stalled at residual 1", residual=1.0)

    monkeypatch.setattr(cli, "solve_gp", diverging)
    cfg = write_config(tmp_path, "stuck.json", stationary_payload())
    assert main(["stationary", "--config", str(cfg)]) == 3
    summary = last_summary(capsys)
    assert summary["status"] == "failed"
    assert summary["error"] == "SolverDiverged"
    assert not (tmp_path / "stuck_solution.csv").exists()


def test_infeasible_mass_exits_two(tmp_path, capsys):
    payload = stationary_payload(
        gamma={"type": "hele_shaw"}, beta={"type": "hele_shaw"},
        phi=[3.0, 3.0])
    cfg = write_config(tmp_path, "toohot.json", payload)
    assert main(["stationary", "--config", str(cfg)]) == 2
    summary = last_summary(capsys)
    assert summary["status"] == "infeasible"
    assert summary["report"]["feasible"] is False


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "fixed.json", stationary_payload())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(str(cfg), out_dir=str(out1)) == 0
    assert run(str(cfg), out_dir=str(out2)) == 0
    capsys.readouterr()
    for name in ("fixed_solution.csv", "fixed_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def as_json(report):
    """A report as the CLI writes it into ``_report.json``."""
    return json.loads(cli._dump_json(cli._report_dict(report)))


GRID_SPACE = {
    "type": "kernel_grid",
    "points": [[x, y] for x in range(5) for y in range(5)],
    "spacing": 1.0,
    "profile": {"type": "indicator", "radius": 1.5},
}


@pytest.mark.parametrize("payload", [
    stationary_payload(),
    stationary_payload(
        space=GRID_SPACE,
        partition={"omega1": list(range(5, 20)),
                   "omega2": list(range(5)) + list(range(20, 25))},
        flux={"type": "p_laplacian", "p": 3.0},
        gamma={"type": "stefan"}, integration_set="Q2", tol=1e-10,
        phi=[((7 * i) % 11) / 5.0 - 1.0 for i in range(25)]),
])
def test_stationary_report_holds_the_public_checks(tmp_path, capsys, payload):
    """The verification and range entries are what verify_solution and
    check_range report on the same pair."""
    cfg = write_config(tmp_path, "checked.json", payload)
    assert main(["stationary", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "checked_report.json").read_text())
    problem = cli._stationary_problem(payload, str(tmp_path))
    tol = payload.get("tol", 1e-9)
    pair = solve_gp(problem, tol=tol)
    assert report["verification"] == as_json(verify_solution(problem, pair, tol))
    assert report["range_report"] == as_json(check_range(problem))


def test_evolution_report_holds_the_public_diagnostics(tmp_path, capsys):
    """The refinement table and the compatibility entry are what
    refine_and_compare and compatibility_check give."""
    payload = evolve_payload(refine_doublings=2, n_steps=4,
                             f=[0.25, -0.5], horizon=0.75)
    cfg = write_config(tmp_path, "diag.json", payload)
    assert main(["evolve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "diag_report.json").read_text())
    problem = cli._evolution_problem(payload, str(tmp_path), "evolve-dynamical")
    table = refine_and_compare(problem, 4, 2)
    assert report["refinement_table"] == [[n, d] for n, d in table]
    assert report["compatibility"] == as_json(compatibility_check(problem, 4))


def evolve_payload(**overrides):
    payload = {
        "kind": "evolve-dynamical",
        "space": TWO_NODE_SPACE,
        "partition": {"omega1": [0, 1], "omega2": []},
        "flux": {"type": "p_laplacian", "p": 2.0},
        "gamma": {"type": "identity"},
        "v0": [1.0, 0.0],
        "horizon": 0.5,
        "n_steps": 8,
    }
    payload.update(overrides)
    return payload


def test_evolution_run_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "heat.json", evolve_payload())
    assert main(["evolve", "--config", str(cfg)]) == 0
    summary = last_summary(capsys)
    assert summary["status"] == "ok"
    rows = read_csv(tmp_path / "heat_trajectory.csv")
    assert len(rows) == 9 * 2  # both nodes at each of n+1 times
    assert rows[0]["u"] == ""  # no bulk state before the first step
    mass = read_csv(tmp_path / "heat_mass.csv")
    totals = [float(row["mass_omega1"]) for row in mass]
    assert all(t == pytest.approx(1.0, abs=1e-9) for t in totals)
    report = json.loads((tmp_path / "heat_report.json").read_text())
    assert report["mode"] == "dynamical"
    assert report["compatibility"]["passed"] is True


def test_evolution_refinement_table_in_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "refine.json",
                       evolve_payload(refine_doublings=2, n_steps=4))
    assert main(["evolve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "refine_report.json").read_text())
    table = report["refinement_table"]
    assert [row[0] for row in table] == [4, 8]


def test_evolution_compatibility_violation_exits_two(tmp_path, capsys):
    payload = evolve_payload(
        space={"type": "weighted_graph", "weights": [[1.0]]},
        partition={"omega1": [0], "omega2": []},
        gamma={"type": "hele_shaw"}, v0=[0.5], f=[2.0], horizon=1.0)
    cfg = write_config(tmp_path, "runaway.json", payload)
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert last_summary(capsys)["status"] == "infeasible"


def test_static_boundary_mode_runs(tmp_path, capsys):
    payload = evolve_payload(
        kind="evolve-static",
        partition={"omega1": [0], "omega2": [1]},
        v0=[1.0], horizon=1.0)
    cfg = write_config(tmp_path, "drain.json", payload)
    assert main(["evolve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "drain_report.json").read_text())
    assert report["mode"] == "static_boundary"
    mass = read_csv(tmp_path / "drain_mass.csv")
    final = mass[-1]
    combined = float(final["mass_omega1"]) + float(final["mass_omega2"])
    assert combined == pytest.approx(1.0, abs=1e-9)


def test_dtn_run(tmp_path, capsys):
    payload = {
        "kind": "dtn",
        "space": {"type": "weighted_graph", "weights": [
            [0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]]},
        "W": [1, 2, 3],
        "flux": {"type": "p_laplacian", "p": 2.0},
        "w0": [1.0, -1.0],
        "horizon": 0.5,
        "n_steps": 8,
    }
    cfg = write_config(tmp_path, "bdry.json", payload)
    assert main(["dtn", "--config", str(cfg)]) == 0
    summary = last_summary(capsys)
    assert summary["status"] == "ok"
    mass = read_csv(tmp_path / "bdry_mass.csv")
    # antisymmetric data on a symmetric path: the boundary mass stays zero
    assert all(abs(float(row["mass_omega2"])) <= 1e-9 for row in mass)


def test_an_op_builds_one_operator_and_searches_connectivity_once(
        tmp_path, capsys, monkeypatch):
    """A stationary op searches its omega's connectivity once, for the
    solve, and its energy report reuses the answer; an evolution op builds
    one operator over omega, which its trajectory, the refinement's
    trajectories and the strong residual share, and searches omega once
    per trajectory; a check op builds no operator and searches omega once,
    for its connectivity check and its Poincare probes."""
    built, searched = [], []
    init, levels = NonlocalOperator.__init__, space_module.breadth_first_levels

    def building(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def searching(*args):
        searched.append(args)
        return levels(*args)

    monkeypatch.setattr(NonlocalOperator, "__init__", building)
    monkeypatch.setattr(space_module, "breadth_first_levels", searching)
    configs = {
        "stationary": stationary_payload(),
        "evolve": evolve_payload(refine_doublings=2, n_steps=4),
        "dtn": {"kind": "dtn", "space": TWO_NODE_SPACE, "W": [0],
                "flux": {"type": "p_laplacian", "p": 2.0}, "w0": [1.0],
                "horizon": 0.5, "n_steps": 4},
    }
    configs["check"] = configs["stationary"]
    expected = {"stationary": (1, 1), "evolve": (1, 3), "dtn": (1, 1),
                "check": (0, 1)}
    for command, payload in configs.items():
        built.clear()
        searched.clear()
        cfg = write_config(tmp_path, command + ".json", payload)
        assert main([command, "--config", str(cfg)]) == 0, capsys.readouterr()
        assert (len(built), len(searched)) == expected[command], command
    capsys.readouterr()


def test_check_subcommand_accepts_any_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, "fine.json", stationary_payload())
    assert main(["check", "--config", str(cfg)]) == 0
    summary = last_summary(capsys)
    assert summary["kind"] == "check"
    assert summary["checks"]["range"] is True
    report = json.loads((tmp_path / "fine_check.json").read_text())
    names = [entry["name"] for entry in report["checks"]]
    assert names == ["reversibility", "connectivity", "range",
                     "poincare_probe"]


def test_check_flags_infeasible_data(tmp_path, capsys):
    payload = stationary_payload(
        gamma={"type": "hele_shaw"}, beta={"type": "hele_shaw"},
        phi=[3.0, 3.0])
    cfg = write_config(tmp_path, "bad.json", payload)
    assert check(str(cfg)) == 2
    summary = last_summary(capsys)
    assert summary["passed"] is False
    assert summary["checks"]["range"] is False


def test_check_reports_evolution_compatibility(tmp_path, capsys):
    cfg = write_config(tmp_path, "flow.json", evolve_payload())
    assert main(["check", "--config", str(cfg)]) == 0
    summary = last_summary(capsys)
    assert summary["checks"]["compatibility"] is True


def test_batch_directory_returns_worst_code(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_config(batch, "a_good.json", stationary_payload())
    write_config(batch, "b_bad.json", stationary_payload(
        gamma={"type": "hele_shaw"}, beta={"type": "hele_shaw"},
        phi=[3.0, 3.0]))
    code = main(["stationary", "--config", str(batch),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()
             if ln.strip()]
    assert [entry["exit"] for entry in lines] == [0, 2]
    assert (tmp_path / "out" / "a_good_solution.csv").exists()


def test_parallel_batch_matches_the_serial_run(tmp_path, capsys):
    """--jobs 2 returns the serial run's exit code and writes the same bytes."""
    batch = tmp_path / "batch"
    batch.mkdir()
    write_config(batch, "a_grid.json", stationary_payload(
        space=GRID_SPACE,
        partition={"omega1": list(range(5, 20)),
                   "omega2": list(range(5)) + list(range(20, 25))},
        flux={"type": "p_laplacian", "p": 3.0}, gamma={"type": "stefan"},
        phi=[((7 * i) % 11) / 5.0 - 1.0 for i in range(25)]))
    write_config(batch, "b_bad.json", stationary_payload(
        gamma={"type": "hele_shaw"}, beta={"type": "hele_shaw"},
        phi=[3.0, 3.0]))
    codes = [
        main(["stationary", "--config", str(batch), "--jobs", jobs,
              "--out", str(tmp_path / ("jobs" + jobs))])
        for jobs in ("1", "2")
    ]
    capsys.readouterr()
    assert codes == [2, 2]
    serial = sorted((tmp_path / "jobs1").iterdir())
    parallel = sorted((tmp_path / "jobs2").iterdir())
    assert [p.name for p in serial] == ["a_grid_report.json", "a_grid_solution.csv"]
    assert [p.name for p in parallel] == [p.name for p in serial]
    for a, b in zip(serial, parallel):
        assert a.read_bytes() == b.read_bytes()


def test_runner_calls_the_public_solvers(tmp_path, capsys, monkeypatch):
    """The runner reaches solve_gp and mild_solve by the names a tracer
    wraps in this module."""
    calls = []
    for name in ("solve_gp", "mild_solve"):
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    stationary = write_config(tmp_path, "s.json", stationary_payload())
    evolve = write_config(tmp_path, "e.json", evolve_payload())
    assert main(["stationary", "--config", str(stationary)]) == 0
    assert main(["evolve", "--config", str(evolve)]) == 0
    capsys.readouterr()
    assert calls == ["solve_gp", "mild_solve"]


def test_empty_batch_directory_exits_one(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["stationary", "--config", str(empty)]) == 1
