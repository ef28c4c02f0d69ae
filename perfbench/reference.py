"""On-demand reference report: regenerates ROADMAP's "Measured baseline" rows.

    python3 perfbench/reference.py        # ~7 min on 2 CPUs

Not a workload and never part of the repeated loop. Every number comes from
a public call: the acceptance criteria are imported from
``tests/test_acceptance.py`` (read, not changed) and called one by one; the
desk ``return-test`` runs through ``kdvtorus.cli.run``; ``b4`` is timed at
support 16 and 32 with t = 0 and t != 0; the 3 x 10,000-step sweep is timed
through ``epsilon_sweep`` (the program's thread pool) and as the same three
``near_linearity_report`` calls made one after another. Prints a table and
writes ``perfbench/results/reference.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from time import perf_counter

import run


def _timed(fn):
    start = perf_counter()
    value = fn()
    return perf_counter() - start, value


def gate() -> list[dict]:
    path = run.ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("reference_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rows = []
    for name in sorted(n for n in dir(module) if n.startswith("test_criterion_")):
        number = int(name.split("_")[2])
        out = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out):
                getattr(module, name)()
            ok = True
        except AssertionError:
            ok = False
        wall = perf_counter() - start
        rows.append({"layer": f"criterion {number}", "wall_s": wall, "pass": ok,
                     "detail": out.getvalue().strip()})
    rows.append({"layer": "acceptance gate (all criteria)",
                 "wall_s": sum(r["wall_s"] for r in rows),
                 "pass": all(r["pass"] for r in rows)})
    return rows


def return_test() -> list[dict]:
    from kdvtorus import cli

    outdir = run.WORK / "reference-return"
    try:
        with redirect_stdout(io.StringIO()):
            wall, code = _timed(lambda: cli.run(["return-test", "--out", str(outdir)]))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return [{"layer": "return-test, desk profile (628k steps)", "wall_s": wall,
             "pass": code == 0}]


def b4_rows(repeats: int = 3) -> list[dict]:
    from kdvtorus.fields import random_real_field
    from kdvtorus.normal_form import b4

    rows = []
    for support in (16, 32):
        v = random_real_field(0, support, cutoff=4 * support)
        for t in (0.0, 0.37):
            walls = [_timed(lambda: b4(v, t))[0] for _ in range(repeats)]
            rows.append({"layer": f"b4 support {support}, t = {t:g}",
                         "wall_s": statistics.median(walls), "repeats": repeats})
    return rows


def sweep_rows() -> list[dict]:
    from kdvtorus.experiments import (HermiteSpec, epsilon_sweep, hermite_initial,
                                      near_linearity_report)
    from kdvtorus.fields import l2_norm
    from kdvtorus.integrator import desk_params

    widths, t_final = (0.4, 0.2, 0.1), 0.1
    p = desk_params(t_final=t_final)

    def serial():
        errors = []
        for eps in widths:
            phi = hermite_initial(HermiteSpec(eps), p.m)
            phi = (1.0 / l2_norm(phi)) * phi
            errors.append(near_linearity_report(phi, p, [0.0, t_final]).errors[-1])
        return tuple(errors)

    wall_threaded, result = _timed(lambda: epsilon_sweep(widths, p, t_final))
    wall_serial, errors = _timed(serial)
    same = errors == result.errors_at_t
    return [
        {"layer": "epsilon_sweep 3 widths x 10k steps, serial", "wall_s": wall_serial,
         "pass": same},
        {"layer": "epsilon_sweep 3 widths x 10k steps, ThreadPoolExecutor",
         "wall_s": wall_threaded, "pass": same},
    ]


def main() -> int:
    try:
        run.import_program()
    except run.BenchError as exc:
        print(f"reference error: {exc}", file=sys.stderr)
        return 2

    record = run.run_record(
        argparse.Namespace(seed=None, seconds=None, trace=0, smoke=False),
        argparse.Namespace(name="reference", why="ROADMAP baseline rows"),
    )
    rows = gate() + return_test() + b4_rows() + sweep_rows()
    print("| layer | measurement |")
    print("|---|---|")
    for row in rows:
        flag = "" if row.get("pass", True) else " (FAILED)"
        wall = row["wall_s"]
        shown = f"{wall * 1e3:.1f} ms" if wall < 1 else f"{wall:.2f} s"
        print(f"| {row['layer']} | {shown}{flag} |")
    record["rows"] = rows
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    (run.RESULTS / "reference.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return 0 if all(r.get("pass", True) for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
