"""The three benchmark workloads: inputs drawn from a seed, one pass, checks.

A pass drives kdvtorus in process through ``kdvtorus.cli.run`` (plus, for
``normal-form``, direct operator calls), reads back the artifacts the CLI
wrote, and returns the numbers the checks need. ``check`` returns the list
of violated conditions; an empty list means the pass is correct. The
tolerances are the program's own and must not be loosened:

* identity defect <= 1e-12 (``experiments._IDENTITY_TOLERANCE``)
* |momentum| <= 1e-14 (``experiments._MOMENTUM_TOLERANCE``)
* energy drift < 1e-8 (acceptance criterion 7)
* sweep errors strictly decreasing, log-log slope >= 0.8 (criterion 3)
* ``normalform-check`` exit code 0: order window 2 +/- 0.5 and small-dt
  residual < 1e-6 (the CLI's own gate)
* homogeneity defect < 1e-12 and finite census maxima (criterion 8)
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

IDENTITY_TOL = 1e-12
MOMENTUM_TOL = 1e-14
ENERGY_DRIFT_TOL = 1e-8
MIN_SLOPE = 0.8
HOMOGENEITY_TOL = 1e-12


def _cli(argv: list[str]) -> int:
    """Run one CLI invocation, keeping its report lines off our stdout."""
    from kdvtorus import cli

    with redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextmanager
def _momenta(values: list):
    """Append ``max_momentum()`` of every trajectory ``experiments.evolve``
    returns while the block runs: the sweep's manifest has no momentum."""
    from kdvtorus import experiments

    evolve = experiments.evolve

    def observed(*args, **kwargs):
        record = evolve(*args, **kwargs)
        values.append(record.max_momentum())
        return record

    experiments.evolve = observed
    try:
        yield
    finally:
        experiments.evolve = evolve


class SweepRk4:
    """``sweep``: three widths stepped by IF-RK4 in the program's thread pool."""

    name = "sweep-rk4"
    why = ("IF-RK4 stepping at its heaviest (4 FFT pairs per step, 2 samples "
           "per run) inside epsilon_sweep's thread pool")

    def __init__(self, smoke: bool = False):
        # at m = 64 the scaling law needs a longer horizon to show
        self.m = 64 if smoke else 512
        self.dt = 1e-4 if smoke else 1e-5
        self.t_final = 0.03 if smoke else 0.01
        self.steps = round(self.t_final / self.dt)
        self.fields = 3
        self.work = self.fields * self.steps  # field-steps per pass

    def draw(self, rng, outdir: Path) -> dict:
        # widths jittered below the 0.4 / 0.2 / 0.1 ladder: no tail aliasing
        eps = [round(e * rng.uniform(0.85, 1.0), 4) for e in (0.4, 0.2, 0.1)]
        argv = ["sweep", "--m", str(self.m), "--dt", repr(self.dt),
                "--t-final", repr(self.t_final),
                "--epsilons", ",".join(repr(e) for e in eps), "--out", str(outdir)]
        return {"argv": argv, "outdir": outdir}

    def run(self, inputs: dict) -> dict:
        momenta = []
        with _momenta(momenta):
            code = _cli(inputs["argv"])
        outdir = inputs["outdir"]
        res = _manifest(outdir)["results"]
        with open(outdir / "sweep.csv", newline="") as fh:
            drifts = [float(row["energy_drift"]) for row in csv.DictReader(fh)]
        return {"exit_code": code, "errors": res["errors_at_t"],
                "slope": res["fitted_slope"], "degenerate": res["degenerate"],
                "identity_defect": res["identity_defect_max"],
                "energy_drift": max(drifts), "momenta": momenta,
                "digest": _digest(outdir / "sweep.csv")}

    def check(self, r: dict) -> list[str]:
        bad = []
        if r["exit_code"] != 0:
            bad.append(f"exit code {r['exit_code']}")
        errs = r["errors"]
        if not all(a > b for a, b in zip(errs, errs[1:])):
            bad.append(f"errors not strictly decreasing: {errs}")
        if r["degenerate"] or not r["slope"] >= MIN_SLOPE:
            bad.append(f"slope {r['slope']} < {MIN_SLOPE}")
        if not r["identity_defect"] <= IDENTITY_TOL:
            bad.append(f"identity defect {r['identity_defect']}")
        if not r["energy_drift"] < ENERGY_DRIFT_TOL:
            bad.append(f"energy drift {r['energy_drift']}")
        if not r["momenta"]:
            bad.append("no momentum: no trajectory came from experiments.evolve")
        elif not max(r["momenta"]) <= MOMENTUM_TOL:
            bad.append(f"momentum {max(r['momenta'])}")
        return bad


class SimulateLeapfrog:
    """``simulate``: leapfrog stepping with a sample and audit every 10 steps."""

    name = "simulate-leapfrog"
    why = ("leapfrog stepping (1 FFT pair per step) with dense sampling, the "
           "identity audit and CSV/SVG writing: cli, fields and svgplot")

    def __init__(self, smoke: bool = False):
        self.m = 64 if smoke else 512
        self.dt = 1e-6
        self.t_final = 0.0003 if smoke else 0.01
        self.steps = round(self.t_final / self.dt)
        self.samples = self.steps // 10 + 1
        self.work = self.steps

    def draw(self, rng, outdir: Path) -> dict:
        eps = round(rng.uniform(0.18, 0.25), 4)
        amp = round(rng.uniform(0.9, 1.1), 4)
        argv = ["simulate", "--scheme", "fornberg-whitham", "--m", str(self.m),
                "--dt", repr(self.dt), "--t-final", repr(self.t_final),
                "--samples", str(self.samples), "--epsilon", repr(eps),
                "--amplitude", repr(amp), "--out", str(outdir)]
        return {"argv": argv, "outdir": outdir}

    def run(self, inputs: dict) -> dict:
        code = _cli(inputs["argv"])
        outdir = inputs["outdir"]
        res = _manifest(outdir)["results"]
        with open(outdir / "trajectory.csv", newline="") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
        return {"exit_code": code, "rows": rows,
                "deviation": res["terminal_deviation"],
                "identity_defect": res["identity_defect_max"],
                "energy_drift": res["energy_drift"],
                "momentum": res["max_momentum"],
                "digest": _digest(outdir / "trajectory.csv")}

    def check(self, r: dict) -> list[str]:
        bad = []
        if r["exit_code"] != 0:
            bad.append(f"exit code {r['exit_code']}")
        if r["rows"] != self.samples:
            bad.append(f"{r['rows']} trajectory rows, expected {self.samples}")
        if not math.isfinite(r["deviation"]):
            bad.append(f"deviation {r['deviation']}")
        if not r["identity_defect"] <= IDENTITY_TOL:
            bad.append(f"identity defect {r['identity_defect']}")
        if not r["momentum"] <= MOMENTUM_TOL:
            bad.append(f"momentum {r['momentum']}")
        if not r["energy_drift"] < ENERGY_DRIFT_TOL:
            bad.append(f"energy drift {r['energy_drift']}")
        return bad


class NormalForm:
    """``normalform-check`` plus the degree-2/3/4 homogeneity of b2/b3/b4."""

    name = "normal-form"
    why = ("normal_form alone: t = 0 census kernels against b4 at t != 0, "
           "no stepping")

    def __init__(self, smoke: bool = False):
        self.census_count = 2 if smoke else 10
        self.census_support = 4 if smoke else 32
        self.fields = 2 if smoke else 3
        self.support = 4 if smoke else 16
        # operator evaluations per pass: 4 residuals x (8 rhs_v + 2 b2 +
        # 2 b3 + 1 b4), 3 per census field, 2 x 3 per homogeneity field
        self.work = 4 * 13 + 3 * self.census_count + 6 * self.fields

    def draw(self, rng, outdir: Path) -> dict:
        argv = ["normalform-check", "--seed", str(int(rng.integers(2**31))),
                "--census-count", str(self.census_count),
                "--census-support", str(self.census_support), "--out", str(outdir)]
        fields = [(int(rng.integers(2**31)), float(rng.uniform(0.3, 2.5)),
                   1.0 - float(rng.random())) for _ in range(self.fields)]
        return {"argv": argv, "outdir": outdir, "fields": fields}

    def run(self, inputs: dict) -> dict:
        from kdvtorus import normal_form
        from kdvtorus.fields import l2_norm, random_real_field

        code = _cli(inputs["argv"])
        outdir = inputs["outdir"]
        res = _manifest(outdir)["results"]
        worst = 0.0
        for seed, s, t in inputs["fields"]:
            v = random_real_field(seed, self.support, cutoff=4 * self.support)
            for op, deg in (("b2", 2), ("b3", 3), ("b4", 4)):
                fn = getattr(normal_form, op)  # looked up so tracing sees it
                ref = (s**deg) * fn(v, t)
                defect = l2_norm(fn(s * v, t) - ref) / max(1.0, l2_norm(ref))
                worst = max(worst, defect)
        return {"exit_code": code, "census": res["census_maxima"],
                "homogeneity_defect": worst,
                "digest": _digest(outdir / "normalform_report.json")}

    def check(self, r: dict) -> list[str]:
        bad = []
        if r["exit_code"] != 0:
            bad.append(f"normalform-check exit code {r['exit_code']}")
        if not r["homogeneity_defect"] < HOMOGENEITY_TOL:
            bad.append(f"homogeneity defect {r['homogeneity_defect']}")
        census = r["census"]
        if len(census) != 5 or not all(math.isfinite(x) for x in census.values()):
            bad.append(f"census maxima {census}")
        return bad


WORKLOADS = {w.name: w for w in (SweepRk4, SimulateLeapfrog, NormalForm)}
