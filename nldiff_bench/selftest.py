"""Self-test of the benchmark's ops and checks.

    python3 nldiff_bench/selftest.py

Runs one op of each workload and requires its checks to pass, then feeds
each check a deliberately corrupted result (a perturbed u, an edited CSV
row, a broken mass ledger, a growing L1 distance) and requires it to be
rejected.  Exits 0 when every case behaves, 1 otherwise.
"""

import dataclasses
import os
import shutil
import sys
import tempfile

import run

run.prepare_imports()

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _edit_csv(path, row, column, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[column] = "%.17g" % (float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def case_grid(workdir):
    wl = workloads.GridStationary(SEED, workdir)
    pair = wl.run_op(0)
    yield "grid op passes", not wl.check_op(0, pair)
    u = pair.u.copy()
    u[wl.partition.omega1[0]] += 1e-6
    yield "grid rejects a perturbed u", bool(
        wl.check_op(0, dataclasses.replace(pair, u=u)))
    v = pair.v.copy()
    v[wl.partition.omega2[0]] += 1e-6
    yield "grid rejects a perturbed v", bool(
        wl.check_op(0, dataclasses.replace(pair, v=v)))


def case_free_boundary(workdir):
    wl = workloads.FreeBoundaryEvolve(SEED, workdir)
    first = wl.run_op(0)
    yield "free-boundary op passes", not wl.check_op(0, first)
    second = wl.run_op(1)
    yield "free-boundary pair passes", not wl.check_op(1, second)
    mass = first.mass_series.copy()
    mass[-1] += 1e-6
    yield "free-boundary rejects a broken reported ledger", bool(
        wl.check_op(0, dataclasses.replace(first, mass_series=mass)))
    v = first.v.copy()
    v[1, 0] += 1e-6
    yield "free-boundary rejects a state that leaks mass", bool(
        wl.check_op(0, dataclasses.replace(first, v=v)))
    states = wl.states(first)
    apart = states.copy()
    apart[-1] += 1e-3
    yield "contraction check rejects a growing distance", bool(
        checks.contraction_errors(wl.nu, states, apart, 1.0))


def case_cli(workdir):
    wl = workloads.CliScenarios(SEED, workdir)
    labels = [op[0] for op in wl.ops]
    wl.begin_pass()
    try:
        i_stat = labels.index("stationary s_grid0")
        outputs = wl.run_op(i_stat)
        yield "cli stationary op passes", not wl.check_op(i_stat, outputs)
        i_evo = labels.index("evolve e_dyn0")
        evo_outputs = wl.run_op(i_evo)
        yield "cli evolve op passes", not wl.check_op(i_evo, evo_outputs)
        i_check = labels.index("check e_dyn0")
        yield "cli check op passes", not wl.check_op(i_check, wl.run_op(i_check))
        try:
            wl.run_op(labels.index("stationary defect_a"))
            yield "cli defect A fails with exit 3", False
        except workloads.OpFailed as exc:
            yield "cli defect A fails with exit 3", str(exc).startswith("exit 3")

        _edit_csv(outputs[0], 3, 1, 1e-6)
        errors = wl.check_op(i_stat, outputs)
        yield "cli rejects an edited solution row", any(
            "residual" in e for e in errors)
        yield "cli rejects outputs that differ from the first pass", any(
            "first pass" in e for e in errors)
        _edit_csv(evo_outputs[1], 4, 1, 1e-6)
        errors = wl.check_op(i_evo, evo_outputs)
        yield "cli rejects a broken mass ledger", any("ledger" in e for e in errors)
    finally:
        wl.end_pass()
        wl.close()


def main():
    os.makedirs(run.RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    failed = 0
    try:
        for case in (case_grid, case_free_boundary, case_cli):
            for name, ok in case(workdir):
                print("%s  %s" % ("ok  " if ok else "FAIL", name))
                failed += not ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d failed" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
