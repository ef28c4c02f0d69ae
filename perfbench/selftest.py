"""Benchmark self-test at smoke sizes (m = 64, a few hundred steps, support 4).

    python3 perfbench/selftest.py

Runs every workload through ``run.py --smoke`` with tracing off and on and
checks the result line against ``BENCHMARK.json``; shows that a corrupted
result, a raising pass and a sweep without a momentum value are each
counted as failed, not retried; and shows that a copy holding only
``BENCHMARK.json`` and ``perfbench/`` exits non-zero without a result. Prints one line per case and exits 0 when all
hold. Takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

SMOKE_SECONDS = 1.0


def _names(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def case_cli(workload: str, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
         "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0, result
    expected = _names("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (got, expected)
    return f"{result['attempted']} passes"


def _corrupt_second(workload: str):
    """Corrupt the second pass's result the way a wrong program would."""
    calls = {"n": 0}

    def corrupt(r: dict) -> dict:
        calls["n"] += 1
        if calls["n"] != 2:
            return r
        if workload == "sweep-rk4":
            return dict(r, errors=list(reversed(r["errors"])))
        if workload == "simulate-leapfrog":
            return dict(r, energy_drift=1e-3)
        return dict(r, census=dict(r["census"], r1=float("inf")))

    return corrupt


def _raise_always(r: dict) -> dict:
    raise RuntimeError("injected failure")


def _no_momentum(r: dict) -> dict:
    """As if the sweep's trajectories no longer came from experiments.evolve."""
    return dict(r, momenta=[])


def case_failures(workload: str, corrupt, expect_all: bool) -> str:
    args = argparse.Namespace(workload=workload, seed=7, seconds=SMOKE_SECONDS,
                              trace=0, smoke=True)
    try:
        result, record = run.measure(args, corrupt=corrupt)
    finally:
        shutil.rmtree(run.WORK / workload, ignore_errors=True)
    n, failed = result["attempted"], result["failed"]
    frac = result["metrics"]["pass_frac"]["value"]
    expected = n if expect_all else 1
    assert failed == expected and not result["correct"], result
    assert frac == (n - failed) / n, result
    assert len(record["passes"]) == n  # no pass was retried
    return f"{failed} of {n} failed, pass_frac {frac:.3f}"


def case_bare() -> str:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "normal-form",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    return f"exit code {proc.returncode}, no result"


def main() -> int:
    cases = []
    for workload in ("sweep-rk4", "simulate-leapfrog", "normal-form"):
        for trace in (0, 1):
            cases.append((f"{workload} trace {trace}",
                          lambda w=workload, t=trace: case_cli(w, t)))
        cases.append((f"{workload} corrupted second pass",
                      lambda w=workload: case_failures(w, _corrupt_second(w), False)))
    cases.append(("normal-form raising pass",
                  lambda: case_failures("normal-form", _raise_always, True)))
    cases.append(("sweep-rk4 no momentum value",
                  lambda: case_failures("sweep-rk4", _no_momentum, True)))
    cases.append(("bare checkout", case_bare))
    bad = 0
    for name, fn in cases:
        try:
            print(f"ok    {name}: {fn()}", flush=True)
        except AssertionError as exc:
            bad += 1
            print(f"FAIL  {name}: {str(exc)[:2000]}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
