"""kdvtorus benchmark: one workload, timed passes, checked outputs, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-rk4 --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``. A run makes one warm-up pass and
as many timed passes as fit in ``--seconds`` (at least three), all in this
process and on the inputs ``--seed`` draws. Every pass is checked; a pass
that raises or fails a check counts as failed and is not retried. Before
every pass the run times the set-up of one fresh process (``probe.py``; at
least ``SETUP_PROBES`` in all) and the speed reference of ``speed.py``; the
reported times are scaled to the reference's nominal speed, and the raw
times are in the run record. Peak memory is that of one more fresh process
running a whole pass.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` half of the time runs untraced and half traced
(``tracing.py``), with no probes; the last line carries the per-layer
metrics, and the spans go to ``perfbench/results/trace-<workload>-seed<n>.json``.
Each run also writes its run record to ``perfbench/results/``. ``--smoke``
shrinks every workload to seconds (m = 64, a few hundred steps, support 4).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import NOMINAL_CPU_S, reference_cpu_s
from tracing import LAYER_METRICS, Recorder, install, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_PROBES = 21
WARMUP_PASSES = 1
MIN_PASSES = 3

#: name -> (unit, better); the benchmark's end-to-end metrics.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("ratio", "higher"),
}

#: the traced run's metrics: the layers' plus the cost of tracing itself
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": ("s", "lower")}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import kdvtorus from this checkout's ``src`` and nowhere else."""
    package = SRC / "kdvtorus"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no kdvtorus sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kdvtorus

    if Path(kdvtorus.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported kdvtorus from {kdvtorus.__file__}, not {package}")
    return kdvtorus


def summarize(values) -> dict:
    """Median, quartiles, n, and the highest percentile with >= 10 samples above."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def probe(mode: str, args, outdir: Path) -> float:
    """Run ``probe.py`` in ``mode`` in a fresh process. ``setup``: seconds from
    start to the pass's first step or operator call; ``rss``: peak MB of a
    whole pass."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed),
         "1" if args.smoke else "0", str(outdir), mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
    )
    words = proc.stdout.split()
    if len(words) != 2 or words[0] != {"setup": "ready", "rss": "rss"}[mode]:
        raise BenchError(f"{mode} probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(words[1]) - start if mode == "setup" else float(words[1])


def run_passes(wl, rng, seconds: float, outdir: Path, *, warmup: int = 0,
               recorder=None, corrupt=None, setup=None) -> list[dict]:
    """Warm-up passes, then passes until ``seconds`` have gone (at least
    MIN_PASSES). ``corrupt`` edits each result before its check (self-test);
    ``setup()``, if given, is timed before each pass. The speed reference is
    timed between passes, so each pass has one just before and one just after."""
    passes = []
    measure_start = None
    while True:
        timed = len(passes) >= warmup
        if timed and measure_start is None:
            measure_start = perf_counter()
        n_timed = len(passes) - warmup
        if timed and n_timed >= MIN_PASSES and perf_counter() - measure_start >= seconds:
            after = [p["ref_before_s"] for p in passes[1:]] + [reference_cpu_s()]
            for entry, ref_after_s in zip(passes, after):
                entry["ref_after_s"] = ref_after_s
            return passes
        setup_s = setup() if setup else None
        ref_before_s = reference_cpu_s()
        inputs = wl.draw(rng, outdir)
        root = recorder.open("bench.pass") if recorder else None
        start = perf_counter()
        try:
            results = wl.run(inputs)
            wall = perf_counter() - start
            problems = wl.check(corrupt(results) if corrupt else results)
        except Exception as exc:  # a raise is a failed pass, never retried
            wall = perf_counter() - start
            results, problems = {}, [f"{type(exc).__name__}: {exc}"]
        entry = {"argv": inputs["argv"], "wall_s": wall, "ref_before_s": ref_before_s,
                 "setup_s": setup_s, "timed": timed, "problems": problems,
                 "digest": results.get("digest")}
        if recorder:
            recorder.close(root)
            entry["layer"] = layer_metrics(recorder.spans, root.id)
            entry["spans"] = [s.as_dict() for s in recorder.spans]
            recorder.spans.clear()
        passes.append(entry)


def run_record(args, wl) -> dict:
    import kdvtorus

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "argv": sys.argv, "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "kdvtorus": kdvtorus.__version__, "git_sha": None, "git_dirty": None,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k in ("PYTHONHASHSEED", "PYTHONPATH")},
    }
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        record["git_sha"] = git("rev-parse", "HEAD")
        record["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return record


def measure(args, corrupt=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    import_program()
    wl = WORKLOADS[args.workload](args.smoke)
    record = run_record(args, wl)
    outdir = WORK / wl.name
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    if args.trace:
        plain = run_passes(wl, rng, args.seconds / 2, outdir,
                           warmup=WARMUP_PASSES, corrupt=corrupt)
        recorder = Recorder()
        install(recorder)
        try:
            traced = run_passes(wl, rng, args.seconds / 2, outdir,
                                recorder=recorder, corrupt=corrupt)
        finally:
            recorder.restore()
        passes = plain + traced
    else:
        def setup_probe():
            return probe("setup", args, outdir / "probe")

        passes = run_passes(wl, rng, args.seconds, outdir, warmup=WARMUP_PASSES,
                            corrupt=corrupt, setup=setup_probe)
        traced = []
        # each probe paired with the speed reference timed right after it
        setup = [(p["setup_s"], p["ref_before_s"]) for p in passes]
        setup += [(setup_probe(), reference_cpu_s())
                  for _ in range(SETUP_PROBES - len(setup))]

    attempted = len(passes)
    failed = sum(1 for p in passes if p["problems"])
    plain = [p for p in passes if p["timed"] and "layer" not in p]
    raw_wall = summarize(p["wall_s"] for p in plain)
    scales = [2 * NOMINAL_CPU_S / (p["ref_before_s"] + p["ref_after_s"]) for p in plain]
    wall = summarize(p["wall_s"] * k for p, k in zip(plain, scales))
    if args.trace:
        values = {name: statistics.median(p["layer"][name] for p in traced)
                  for name in LAYER_METRICS}
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - raw_wall["median"])
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
    else:
        setup_s = summarize(t * NOMINAL_CPU_S / ref for t, ref in setup)
        values = {
            "wall_s": wall["median"],
            "work_per_s": wl.work / wall["median"],
            "setup_s": setup_s["median"],
            "peak_rss_mb": probe("rss", args, outdir / "probe"),
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}

    record.update({
        "loadavg_after": os.getloadavg(),
        "work_per_pass": wl.work,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "setup_s": None if args.trace else setup_s,
        "raw_setup_s": None if args.trace else summarize(t for t, _ in setup),
        "reference_cpu_s": summarize(p["ref_before_s"] for p in passes),
        "speed_scale": summarize(scales),
        "first_digest": passes[0]["digest"],
        "passes": [{k: p[k] for k in ("argv", "wall_s", "ref_before_s", "ref_after_s",
                                      "setup_s", "timed", "problems", "digest")}
                   for p in passes],
        "metrics": metrics,
    })
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"
    if traced:
        spans = [{"pass": i, "spans": p["spans"]} for i, p in enumerate(traced)]
        (RESULTS / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes for the self-test")
    args = parser.parse_args(argv)
    try:
        result, record = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    print(f"workload {record['workload']} seed {args.seed}: "
          f"{len(record['passes'])} passes, work {record['work_per_pass']} per pass")
    for name in ("wall_s", "raw_wall_s", "setup_s", "raw_setup_s",
                 "reference_cpu_s", "speed_scale"):
        if record[name]:
            print(f"{name} " + "  ".join(f"{k}={v:.6g}" for k, v in record[name].items()))
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for i, p in enumerate(record["passes"]):
        if p["problems"]:
            print(f"  pass {i} FAILED: {'; '.join(p['problems'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
