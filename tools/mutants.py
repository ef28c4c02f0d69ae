#!/usr/bin/env python3
"""Run the fast test loop against each one-line mutant of ``src/`` in a fixed list.

    python3 tools/mutants.py

For each entry of ``MUTANTS`` the checkout this file lives in is copied,
without ``.git``, to a temporary directory; the entry's old text (which must
occur exactly once in its file) is replaced there by its new text, and
``python -m pytest -m "not gate" -x -q`` runs in the copy with the copy's
``src`` first on ``PYTHONPATH``, leaving out ``tests/test_mutants.py``, whose
check that each old text occurs once would kill every mutant. One line per
mutant says ``survived`` or ``killed by <test> - <message>``, with the first
line of the killing failure as pytest's summary prints it (``COLUMNS`` is set
wide so that pytest does not cut it short). The checkout itself is never
edited.

A mutant that survives is either a gap in the tests, closed by a fast-loop
test that kills it, or equivalent to the original, which its ``equivalent``
note says in one line. The exit status is 1 when a mutant survives without
such a note, and 0 otherwise. A mutant that only the gate kills counts as
surviving: the fast loop is what runs on every push.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-m", "not gate", "-x", "-q",
          "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    file: str  # relative to the checkout's root
    old: str
    new: str
    reason: str
    equivalent: str | None = None  # why no test can tell it from the original


MUTANTS = [
    Mutant("src/kdvtorus/cli.py", "all(1.5 <= o <= 2.5 for o in orders)",
           "all(1.0 <= o <= 3.0 for o in orders)",
           "normalform-check's order window 1.5..2.5 widened to 1.0..3.0"),
    Mutant("src/kdvtorus/cli.py", "small < 1.0e-6", "small < 1.0e-3",
           "normalform-check's small-dt bound 1e-6 loosened to 1e-3"),
    Mutant("src/kdvtorus/cli.py", "return {**defaults, **given}", "return {**given, **defaults}",
           "_resolve lets the subcommand's defaults win over the given flags"),
    Mutant("src/kdvtorus/experiments.py", "TAIL_TOLERANCE = 1.0e-12", "TAIL_TOLERANCE = 1.0e-10",
           "the Hermite tail warning's threshold 1e-12 loosened to 1e-10"),
    Mutant("src/kdvtorus/experiments.py", "_DEGENERATE_ERROR = 1.0e-13",
           "_DEGENERATE_ERROR = 1.0e-11",
           "the sweep's degenerate-error floor 1e-13 raised to 1e-11"),
    Mutant("src/kdvtorus/normal_form.py", "norm_hm**0.9 * norm_l2**3.1",
           "norm_hm**1.0 * norm_l2**3.0",
           "apriori_ratios' r3 exponents 0.9 / 3.1 moved to 1.0 / 3.0"),
    Mutant("src/kdvtorus/fields.py", "REALITY_TOL = 1e-12", "REALITY_TOL = 1e-8",
           "the conjugate-symmetry tolerance 1e-12 loosened to 1e-8"),
    Mutant("src/kdvtorus/integrator.py", "tol = 1e-9 * max(1.0, abs(t_final))",
           "tol = 1e-6 * max(1.0, abs(t_final))",
           "evolve's sample-time tolerance 1e-9 loosened to 1e-6"),
    Mutant("src/kdvtorus/svgplot.py", "math.ldexp(v, -e)", "v",
           "svgplot's linear map unscaled instead of by the larger end's power of two"),
    Mutant("src/kdvtorus/svgplot.py", "math.floor(hi / step) + 1)", "math.floor(hi / step))",
           "svgplot's linear tick range without its last multiple"),
    Mutant("src/kdvtorus/svgplot.py", "(0.5 * hi - 0.5 * lo) / 2.5", "(0.5 * hi - 0.5 * lo) / 2.0",
           "svgplot's raw tick step span/5 moved to span/4"),
    Mutant("src/kdvtorus/normal_form.py",
           "if 4 * int(np.max(np.abs(ks), initial=0)) > v.cutoff:",
           "if 4 * int(np.max(np.abs(ks), initial=0)) > v.cutoff + 1:",
           "the residual probe's quarter rule 4*max|k| > K loosened to > K + 1"),
    Mutant("src/kdvtorus/experiments.py", "_MOMENTUM_TOLERANCE = 1.0e-14",
           "_MOMENTUM_TOLERANCE = 1.0e-10",
           "the momentum check's tolerance 1e-14 loosened to 1e-10"),
    Mutant("src/kdvtorus/experiments.py", "_IDENTITY_TOLERANCE = 1.0e-12",
           "_IDENTITY_TOLERANCE = 1.0e-6",
           "the deviation audit's tolerance 1e-12 loosened to 1e-6"),
    Mutant("src/kdvtorus/experiments.py", "SNAPSHOT_TIME = 0.2", "SNAPSHOT_TIME = 0.25",
           "the return test's snapshot time 0.2 moved to 0.25"),
    Mutant("src/kdvtorus/shallow_water.py", "l / (c0 * alpha)", "l / c0",
           "dimensionless' time horizon l/(c0*alpha) without alpha"),
    Mutant("src/kdvtorus/shallow_water.py", "if not a < h0:", "if not a <= h0:",
           "dimensionless' refusal a < h0 loosened to a <= h0"),
    Mutant("src/kdvtorus/integrator.py", "(2 * p.cutoff) // 3", "(2 * p.cutoff + 1) // 3",
           "evolve's dealiasing mask (2K)//3 moved to (2K+1)//3"),
    Mutant("src/kdvtorus/normal_form.py", "_linear_phase(v.wavenumbers(), 1.0)(-t)",
           "_linear_phase(v.wavenumbers(), 1.0)(t)",
           "_at_time's diagonal phase with its sign flipped"),
    Mutant("src/kdvtorus/normal_form.py", "(1.0 / 6.0) * b2(w, tau)",
           "(1.0 / 5.0) * b2(w, tau)",
           "the residual chain's B2 coefficient 1/6 moved to 1/5"),
    Mutant("src/kdvtorus/normal_form.py", "(1.0 / 18.0) * b3(w, tau)",
           "(1.0 / 17.0) * b3(w, tau)",
           "the residual chain's B3 coefficient 1/18 moved to 1/17"),
    Mutant("src/kdvtorus/normal_form.py", "(1.0j / 18.0) * b4(v, t)", "(1.0j / 17.0) * b4(v, t)",
           "the residual chain's B4 coefficient i/18 moved to i/17"),
    Mutant("src/kdvtorus/integrator.py", "incr = na + 2.0 * (self.Ec",
           "incr = na + 2.5 * (self.Ec",
           "the RK4 weight 2 on the middle stages moved to 2.5"),
    Mutant("src/kdvtorus/integrator.py", "+ 2.0 * self.dt * self.nl(A_cur)",
           "+ self.dt * self.nl(A_cur)",
           "leapfrog's step 2*dt halved to dt"),
    Mutant("src/kdvtorus/normal_form.py", "!= 3 * (k1 + k2) * k1 * k2",
           "!= 3 * (k1 - k2) * k1 * k2",
           "one broken term in check_identities' cube identity"),
    Mutant("src/kdvtorus/normal_form.py", "!= (k1 + mu) * (k1 + lam)",
           "!= (k1 + mu) * (k1 - lam)",
           "one broken term in check_identities' factorization identity"),
    Mutant("src/kdvtorus/normal_form.py", "_mirrored(_b3_rows, 1.0, w)",
           "_mirrored(_b3_rows, -1.0, w)",
           "B3's mirror sign +1 flipped to -1"),
    Mutant("src/kdvtorus/normal_form.py", "_mirrored(_b4_rows, -1.0, w)",
           "_mirrored(_b4_rows, 1.0, w)",
           "B4's mirror sign -1 flipped to +1"),
    Mutant("src/kdvtorus/normal_form.py", "+ 0.5 * beta * _row_spectrum",
           "+ 0.25 * beta * _row_spectrum",
           "_b4_rows' half weight on the beta * beta * W(s) term moved to a quarter"),
    Mutant("src/kdvtorus/normal_form.py", "    pair[2 * reach] = 0.0\n", "",
           "_b4_rows keeps W(0), the resonant channel k3 + k4 = 0"),
    Mutant("src/kdvtorus/normal_form.py", "np.abs(v.coeffs[nz]) ** 2",
           "np.abs(v.coeffs[nz]) ** 3",
           "resonant_term's |v_k|^2 raised to |v_k|^3"),
    Mutant("src/kdvtorus/normal_form.py", "pos[0] = 0.5 * (pos[0] + neg[0])", "pos[0] = pos[0]",
           "_mirrored's row 0 takes the K >= 0 reading alone, not the mean of both"),
]


def occurrences(root: Path, mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file under ``root``."""
    return (root / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _first_failure(output: str) -> str:
    """Pytest's first FAILED or ERROR summary line: the test, then its failure's first line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1]
    return "an error outside any test (see pytest's output)"


def run_mutant(mutant: Mutant) -> str | None:
    """Run the fast loop on a mutated copy; the first failing test, or None if all pass."""
    with tempfile.TemporaryDirectory(prefix="kdvtorus-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = copy / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
        env = {**os.environ, "COLUMNS": "1000", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else _first_failure(proc.stdout + proc.stderr)


def main() -> int:
    misplaced = [m for m in MUTANTS if occurrences(ROOT, m) != 1]
    for m in misplaced:
        print(f"{m.file}: {m.old!r} occurs {occurrences(ROOT, m)} times, not once")
    if misplaced:
        return 2
    killed = open_survivors = 0
    for i, m in enumerate(MUTANTS, start=1):
        started = time.perf_counter()
        failure = run_mutant(m)
        took = f"{time.perf_counter() - started:.1f} s"
        if failure is not None:
            killed += 1
            verdict = f"killed by {failure} ({took})"
        elif m.equivalent:
            verdict = f"survived, equivalent: {m.equivalent} ({took})"
        else:
            open_survivors += 1
            verdict = f"survived ({took})"
        print(f"[{i}/{len(MUTANTS)}] {m.file}: {m.reason}: {verdict}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed; "
          f"{open_survivors} survived without an equivalence note")
    return 1 if open_survivors else 0


if __name__ == "__main__":
    sys.exit(main())
