#!/usr/bin/env python3
"""Run each one-line mutant of ``src/`` in a fixed list against its stored killer first.

    python3 tools/mutants.py

For each entry of ``MUTANTS`` the checkout this file lives in is copied,
without ``.git``, to a temporary directory, and the entry's old text (which
must occur exactly once in its file) is replaced there by its new text. In
the copy, with the copy's ``src`` first on ``PYTHONPATH``, pytest runs as
``python -m pytest -m "not gate" -x -q``:

1. on the entry's stored ``killer`` alone, a fast-loop test node id;
2. if that test passes, on the whole fast loop, leaving out
   ``tests/test_mutants.py`` (its check that each old text occurs once would
   kill every mutant); a kill found there is printed with a note that the
   killer moved, so that the list can be brought up to date;
3. on the killing test alone once more: a kill that does not repeat is
   reported as ``unstable``, not as killed.

One line per mutant says ``survived``, ``unstable: <test> - <message>`` or
``killed by <test> - <message>``, with the first line of the killing failure
as pytest's summary prints it (``COLUMNS`` is set wide so that pytest does
not cut it short); a summary that ends at ``AssertionError: ``, because the
message starts on a new line as NumPy's testing messages do, is completed by
the message's first line from the test's failure section. The checkout itself
is never edited.

A mutant that survives is either a gap in the tests, closed by a fast-loop
test that kills it, or equivalent to the original, which its ``equivalent``
note says in one line. The exit status is 1 when a mutant survives without
such a note or its kill is unstable, 2 when an old text does not occur
exactly once, and 0 otherwise. A mutant that only the gate kills counts as
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
PYTEST = [sys.executable, "-m", "pytest", "-m", "not gate", "-x", "-q"]
FAST_LOOP = ["--ignore=tests/test_mutants.py"]
OUTSIDE = "an error outside any test (see pytest's output)"


class Mutant(NamedTuple):
    file: str  # relative to the checkout's root
    old: str
    new: str
    reason: str
    killer: str | None = None  # the node id of the fast-loop test that kills it
    equivalent: str | None = None  # why no test can tell it from the original


MUTANTS = [
    Mutant("src/kdvtorus/cli.py", "all(1.5 <= o <= 2.5 for o in orders)",
           "all(1.0 <= o <= 3.0 for o in orders)",
           "normalform-check's order window 1.5..2.5 widened to 1.0..3.0",
           killer="tests/test_cli.py::TestNormalFormCheck::test_verdict_bounds[1.45-1e-08-FAIL]"),
    Mutant("src/kdvtorus/cli.py", "small < 1.0e-6", "small < 1.0e-3",
           "normalform-check's small-dt bound 1e-6 loosened to 1e-3",
           killer="tests/test_cli.py::TestNormalFormCheck::test_verdict_bounds[2.0-2e-06-FAIL]"),
    Mutant("src/kdvtorus/cli.py", "return {**defaults, **given}", "return {**given, **defaults}",
           "_resolve lets the subcommand's defaults win over the given flags",
           killer="tests/test_cli.py::TestIdentities::test_writes_report_and_manifest"),
    Mutant("src/kdvtorus/experiments.py", "TAIL_TOLERANCE = 1.0e-12", "TAIL_TOLERANCE = 1.0e-10",
           "the Hermite tail warning's threshold 1e-12 loosened to 1e-10",
           killer="tests/test_experiments.py::TestHermiteInitial::test_tail_tolerance_sits_between_widths_0_40_and_0_41"),
    Mutant("src/kdvtorus/experiments.py", "_DEGENERATE_ERROR = 1.0e-13",
           "_DEGENERATE_ERROR = 1.0e-11",
           "the sweep's degenerate-error floor 1e-13 raised to 1e-11",
           killer="tests/test_experiments.py::TestEpsilonSweep::test_a_faint_nonlinearity_is_still_fitted"),
    Mutant("src/kdvtorus/normal_form.py", "norm_hm**0.9 * norm_l2**3.1",
           "norm_hm**1.0 * norm_l2**3.0",
           "apriori_ratios' r3 exponents 0.9 / 3.1 moved to 1.0 / 3.0",
           killer="tests/test_normal_form.py::TestAprioriRatios::test_census_maxima_equal_their_frozen_values"),
    Mutant("src/kdvtorus/fields.py", "REALITY_TOL = 1e-12", "REALITY_TOL = 1e-8",
           "the conjugate-symmetry tolerance 1e-12 loosened to 1e-8",
           killer="tests/test_fields.py::TestFourierField::test_reality_tolerance_is_1e_12_of_a_unit_scale"),
    Mutant("src/kdvtorus/integrator.py", "tol = 1e-9 * max(1.0, abs(t_final))",
           "tol = 1e-6 * max(1.0, abs(t_final))",
           "evolve's sample-time tolerance 1e-9 loosened to 1e-6",
           killer="tests/test_integrator.py::TestEvolveBookkeeping::test_a_sample_just_past_t_final_is_refused"),
    Mutant("src/kdvtorus/svgplot.py", "math.ldexp(v, -e)", "v",
           "svgplot's linear map unscaled instead of by the larger end's power of two",
           killer="tests/test_svgplot.py::TestRenderLinePlot::test_labels_and_ranges_at_the_ends_of_double_precision[linear-span-overflows]"),
    Mutant("src/kdvtorus/svgplot.py", "math.floor(hi / step) + 1)", "math.floor(hi / step))",
           "svgplot's linear tick range without its last multiple",
           killer="tests/test_svgplot.py::TestRenderLinePlot::test_all_nan_series_renders_on_the_default_range[linear]"),
    Mutant("src/kdvtorus/svgplot.py", "(0.5 * hi - 0.5 * lo) / 2.5", "(0.5 * hi - 0.5 * lo) / 2.0",
           "svgplot's raw tick step span/5 moved to span/4",
           killer="tests/test_svgplot.py::TestRenderLinePlot::test_all_nan_series_renders_on_the_default_range[linear]"),
    Mutant("src/kdvtorus/normal_form.py",
           "if 4 * int(np.max(np.abs(ks), initial=0)) > v.cutoff:",
           "if 4 * int(np.max(np.abs(ks), initial=0)) > v.cutoff + 1:",
           "the residual probe's quarter rule 4*max|k| > K loosened to > K + 1",
           killer="tests/test_normal_form.py::TestResidual::test_guard_rails"),
    Mutant("src/kdvtorus/experiments.py", "_MOMENTUM_TOLERANCE = 1.0e-14",
           "_MOMENTUM_TOLERANCE = 1.0e-10",
           "the momentum check's tolerance 1e-14 loosened to 1e-10",
           killer="tests/test_experiments.py::TestNearLinearity::test_momentum_off_its_structural_zero_fails_the_check"),
    Mutant("src/kdvtorus/experiments.py", "_IDENTITY_TOLERANCE = 1.0e-12",
           "_IDENTITY_TOLERANCE = 1.0e-6",
           "the deviation audit's tolerance 1e-12 loosened to 1e-6",
           killer="tests/test_cli.py::TestOneCommitPoint::test_a_broken_invariant_propagates_and_leaves_nothing"),
    Mutant("src/kdvtorus/experiments.py", "SNAPSHOT_TIME = 0.2", "SNAPSHOT_TIME = 0.25",
           "the return test's snapshot time 0.2 moved to 0.25",
           killer="tests/test_experiments.py::TestReturnExperiment::test_full_period_run"),
    Mutant("src/kdvtorus/shallow_water.py", "l / (c0 * alpha)", "l / c0",
           "dimensionless' time horizon l/(c0*alpha) without alpha",
           killer="tests/test_shallow_water.py::TestDimensionless::test_reference_configuration"),
    Mutant("src/kdvtorus/shallow_water.py", "if not a < h0:", "if not a <= h0:",
           "dimensionless' refusal a < h0 loosened to a <= h0",
           killer="tests/test_shallow_water.py::TestDimensionless::test_amplitude_must_stay_below_depth"),
    Mutant("src/kdvtorus/integrator.py", "(2 * p.cutoff) // 3", "(2 * p.cutoff + 1) // 3",
           "evolve's dealiasing mask (2K)//3 moved to (2K+1)//3",
           killer="tests/test_integrator.py::TestEvolveBatch::test_one_unstable_field_stops_the_batch[Scheme.INTEGRATING_FACTOR_RK4]"),
    Mutant("src/kdvtorus/normal_form.py", "_linear_phase(v.wavenumbers(), 1.0)(-t)",
           "_linear_phase(v.wavenumbers(), 1.0)(t)",
           "_at_time's diagonal phase with its sign flipped",
           killer="tests/test_normal_form.py::TestOperatorStructure::"
                  "test_time_dependent_b2_b3_match_per_term_phases"),
    Mutant("src/kdvtorus/normal_form.py", "(1.0 / 6.0) * b2(w, tau)",
           "(1.0 / 5.0) * b2(w, tau)",
           "the residual chain's B2 coefficient 1/6 moved to 1/5",
           killer="tests/test_normal_form.py::TestResidual::test_residual_shrinks_at_second_order"),
    Mutant("src/kdvtorus/normal_form.py", "(1.0 / 18.0) * b3(w, tau)",
           "(1.0 / 17.0) * b3(w, tau)",
           "the residual chain's B3 coefficient 1/18 moved to 1/17",
           killer="tests/test_normal_form.py::TestResidual::test_residual_shrinks_at_second_order"),
    Mutant("src/kdvtorus/normal_form.py", "(1.0j / 18.0) * b4(v, t)", "(1.0j / 17.0) * b4(v, t)",
           "the residual chain's B4 coefficient i/18 moved to i/17",
           killer="tests/test_normal_form.py::TestResidual::test_residual_shrinks_at_second_order"),
    Mutant("src/kdvtorus/integrator.py", "incr = na + 2.0 * (self.Ec",
           "incr = na + 2.5 * (self.Ec",
           "the RK4 weight 2 on the middle stages moved to 2.5",
           killer="tests/test_normal_form.py::TestResidual::"
                  "test_probe_step_matches_the_exact_sum_step[0.001-4]"),
    Mutant("src/kdvtorus/integrator.py", "+ 2.0 * self.dt * self.nl(A_cur)",
           "+ self.dt * self.nl(A_cur)",
           "leapfrog's step 2*dt halved to dt",
           killer="tests/test_integrator.py::TestEvolveNonlinear::test_leapfrog_converges_at_second_order"),
    Mutant("src/kdvtorus/normal_form.py", "!= 3 * (k1 + k2) * k1 * k2",
           "!= 3 * (k1 - k2) * k1 * k2",
           "one broken term in check_identities' cube identity",
           killer="tests/test_normal_form.py::TestPhases::test_both_identities_hold"),
    Mutant("src/kdvtorus/normal_form.py", "!= (k1 + mu) * (k1 + lam)",
           "!= (k1 + mu) * (k1 - lam)",
           "one broken term in check_identities' factorization identity",
           killer="tests/test_normal_form.py::TestPhases::test_both_identities_hold"),
    Mutant("src/kdvtorus/normal_form.py", "_mirrored(_b3_rows, 1.0, w)",
           "_mirrored(_b3_rows, -1.0, w)",
           "B3's mirror sign +1 flipped to -1",
           killer="tests/test_normal_form.py::TestKernelsAgainstOracles::test_random_fields[4-0.0-b3]"),
    Mutant("src/kdvtorus/normal_form.py", "_mirrored(_b4_rows, -1.0, w)",
           "_mirrored(_b4_rows, 1.0, w)",
           "B4's mirror sign -1 flipped to +1",
           killer="tests/test_normal_form.py::TestKernelsAgainstOracles::test_random_fields[4-0.0-b4]"),
    Mutant("src/kdvtorus/normal_form.py", "+ 0.5 * beta * gamma",
           "+ 0.25 * beta * gamma",
           "_b4_rows' half weight on the beta * beta * W(s) term moved to a quarter",
           killer="tests/test_normal_form.py::TestKernelsAgainstOracles::test_random_fields[4-0.0-b4]"),
    Mutant("src/kdvtorus/normal_form.py", "    pair[2 * reach] = 0.0\n", "",
           "_b4_rows keeps W(0), the resonant channel k3 + k4 = 0",
           killer="tests/test_normal_form.py::TestKernelsAgainstOracles::test_random_fields[4-0.0-b4]"),
    Mutant("src/kdvtorus/normal_form.py", "np.abs(v.coeffs[nz]) ** 2",
           "np.abs(v.coeffs[nz]) ** 3",
           "resonant_term's |v_k|^2 raised to |v_k|^3",
           killer="tests/test_normal_form.py::TestClosedForms::test_resonant_term_closed_form"),
    Mutant("src/kdvtorus/normal_form.py", "pos[0] = 0.5 * (pos[0] + neg[0])", "pos[0] = pos[0]",
           "_mirrored's row 0 takes the K >= 0 reading alone, not the mean of both",
           killer="tests/test_normal_form.py::TestMirror::test_real_input_gives_exactly_real_output[0.0]"),
    Mutant("src/kdvtorus/experiments.py", "/ np.dot(x, x))", "/ np.dot(x, np.log(errors)))",
           "the sweep's least-squares slope over x.y instead of x.x",
           killer="tests/test_experiments.py::TestEpsilonSweep::"
                  "test_the_slope_is_the_least_squares_line_through_the_log_log_points[widths0]"),
    Mutant("src/kdvtorus/integrator.py", "* dt_eff >= 0.5 * math.pi:", "* dt_eff >= math.pi:",
           "the blow-up message's root-collision bound pi/2 moved to pi",
           killer="tests/test_integrator.py::TestEvolveNonlinear::"
                  "test_a_leapfrog_blow_up_past_the_root_collision_bound_names_it"),
    Mutant("src/kdvtorus/normal_form.py", "w = _dense_support(v)[2]",
           "w = _dense_support(v)[1]",
           "B2 reads the bare amplitudes instead of their 1/k weights",
           killer="tests/test_normal_form.py::TestKernelsAgainstOracles::test_random_fields[1-0.0-b2]"),
    Mutant("src/kdvtorus/normal_form.py", "_row_spectrum(top, reach, n, True, w) * beta * beta",
           "_row_spectrum(top, reach, n, True, vals) * beta * beta",
           "B3's alpha = beta/k spectrum built from the bare amplitudes",
           killer="tests/test_normal_form.py::TestKernelsAgainstOracles::test_random_fields[4-0.0-b3]"),
    Mutant("src/kdvtorus/fields.py", "repr(float(c))", 'f"{float(c):.15g}"',
           "the CSV's floats written to 15 significant digits instead of by repr",
           killer="tests/test_fields.py::TestSerialization::"
                  "test_the_csv_gives_back_every_bit_of_the_coefficients"),
    Mutant("src/kdvtorus/integrator.py", "2.0 * np.sum(np.abs(A[..., 1:]) ** 2, axis=-1)",
           "np.sum(np.abs(A[..., 1:]) ** 2, axis=-1)",
           "the energy counts each mode k >= 1 once instead of with its mirror -k",
           killer="tests/test_integrator.py::TestRecordedInvariants::"
                  "test_energy_is_the_squared_l2_norm_of_each_snapshot"
                  "[Scheme.INTEGRATING_FACTOR_RK4-1e-05]"),
    Mutant("src/kdvtorus/integrator.py", "math.ceil(t_final / p.dt - 1e-12)",
           "math.ceil(t_final / p.dt)",
           "evolve's step count without its slack for a ratio one rounding past an integer",
           killer="tests/test_integrator.py::TestEvolveBookkeeping::"
                  "test_a_step_count_one_rounding_past_an_integer_is_that_integer"),
    Mutant("src/kdvtorus/integrator.py", "BLOWUP_FACTOR = 1.0e6", "BLOWUP_FACTOR = 1.0e9",
           "the blow-up guard's factor 1e6 raised to 1e9",
           killer="tests/test_integrator.py::TestEvolveBatch::"
                  "test_one_unstable_field_stops_the_batch[Scheme.INTEGRATING_FACTOR_RK4]"),
    Mutant("src/kdvtorus/integrator.py", "divmod(i, span)", "divmod(i + 1, span)",
           "_phase_table reads step i + 1's phase at step i",
           killer="tests/test_integrator.py::TestStepWorkspace::"
                  "test_table_phases_match_the_direct_phase[1.0-1000]"),
    Mutant("src/kdvtorus/integrator.py",
           "A_prev, A = A, ws.phase(dt_eff) * ws.rk4_v_step(A, ws.phase(0.0))",
           "A_prev, A = A, ws.rk4_v_step(A, ws.phase(0.0))",
           "the leapfrog bootstrap keeps v and leaves out the phase that turns it into u",
           killer="tests/test_integrator.py::TestEvolveNonlinear::"
                  "test_one_step_is_the_same_under_both_schemes"),
    Mutant("src/kdvtorus/experiments.py", "np.conj(phase[:cutoff:-1], out=phase[:cutoff])",
           "np.copyto(phase[:cutoff], phase[:cutoff:-1])",
           "the audit mirrors its phase onto k < 0 without the conjugate",
           killer="tests/test_experiments.py::TestNearLinearity::"
                  "test_linear_flow_shows_no_deviation"),
    Mutant("src/kdvtorus/experiments.py", "np.abs(x) < 40.0 * eps", "np.abs(x) < 4.0 * eps",
           "hermite_initial's window 40 eps, where the Gaussian underflows, cut to 4 eps",
           killer="tests/test_experiments.py::TestHermiteInitial::"
                  "test_wide_profile_warns_about_periodization"),
    Mutant("src/kdvtorus/normal_form.py", "if 4 * int(np.max(np.abs(ks), initial=0))",
           "if 3 * int(np.max(np.abs(ks), initial=0))",
           "the residual probe's quarter rule 4*max|k| > K tightened to 3*max|k| > K",
           killer="tests/test_normal_form.py::TestResidual::test_guard_rails"),
]


def occurrences(root: Path, mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file under ``root``."""
    return (root / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _first_failure(output: str) -> str:
    """Pytest's first FAILED or ERROR summary line: the test, then its failure's first line.

    A message that starts on a new line, as NumPy's testing messages do, leaves
    the summary line at ``AssertionError: ``; its first non-empty line is then
    read from that test's failure section.
    """
    lines = output.splitlines()
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            failure = line.split(" ", 1)[1]
            if failure.endswith(": "):
                failure += _message_line(lines, *failure.split(" - ", 1))
            return failure
    return OUTSIDE


def _message_line(lines: list[str], node: str, summary: str) -> str:
    """The first non-empty ``E`` line past ``summary`` in the failure section of ``node``."""
    head = f" {node.split('::', 1)[-1].replace('::', '.')} "
    start = next((i for i, line in enumerate(lines) if line.startswith("_") and head in line),
                 len(lines))
    for line in lines[start + 1:]:
        if line.startswith(("__", "==")):  # the next section; "_ _ _" separates frames
            break
        text = line[1:].strip() if line.startswith("E ") else ""
        if text and text != summary.strip():
            return text
    return ""


def _rerun(failure: str) -> list[str]:
    """The pytest selection that reruns a failure: its node id, or the whole fast loop."""
    return FAST_LOOP if failure == OUTSIDE else [failure.split(" - ", 1)[0]]


def _pytest(copy: Path, selection: list[str]) -> str | None:
    """Run the fast loop, or the given node ids of it, in ``copy``; the first failure or None.

    A selection that runs no test (pytest's exit status 4 or 5: a node id the suite
    no longer has, or a gate test) fails nothing.
    """
    env = {**os.environ, "COLUMNS": "1000", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(PYTEST + selection, cwd=copy, env=env, capture_output=True, text=True)
    return None if proc.returncode in (0, 4, 5) else _first_failure(proc.stdout + proc.stderr)


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """Run a mutated copy, its stored killer first; the outcome and its one-line detail.

    The outcome is ``killed``, ``unstable`` (the killing test passed when run
    alone a second time) or ``survived``.
    """
    with tempfile.TemporaryDirectory(prefix="kdvtorus-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = copy / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
        failure = _pytest(copy, [mutant.killer]) if mutant.killer else None
        moved = ""
        if failure is None:
            failure = _pytest(copy, FAST_LOOP)
            if failure is not None and mutant.killer:
                moved = f"; the killer moved: {mutant.killer} passed"
        if failure is None:
            return "survived", ""
        if _pytest(copy, _rerun(failure)) is None:
            return "unstable", f"{failure}; it failed once, then passed alone{moved}"
    return "killed", f"{failure}{moved}"


def main() -> int:
    misplaced = [m for m in MUTANTS if occurrences(ROOT, m) != 1]
    for m in misplaced:
        print(f"{m.file}: {m.old!r} occurs {occurrences(ROOT, m)} times, not once")
    if misplaced:
        return 2
    counts = {"killed": 0, "unstable": 0, "open": 0}
    for i, m in enumerate(MUTANTS, start=1):
        started = time.perf_counter()
        outcome, detail = run_mutant(m)
        took = f"{time.perf_counter() - started:.1f} s"
        if outcome == "killed":
            counts["killed"] += 1
            verdict = f"killed by {detail} ({took})"
        elif outcome == "unstable":
            counts["unstable"] += 1
            verdict = f"unstable: {detail} ({took})"
        elif m.equivalent:
            verdict = f"survived, equivalent: {m.equivalent} ({took})"
        else:
            counts["open"] += 1
            verdict = f"survived ({took})"
        print(f"[{i}/{len(MUTANTS)}] {m.file}: {m.reason}: {verdict}", flush=True)
    print(f"{counts['killed']} of {len(MUTANTS)} mutants killed; {counts['unstable']} "
          f"unstable; {counts['open']} survived without an equivalence note")
    return 1 if counts["open"] or counts["unstable"] else 0


if __name__ == "__main__":
    sys.exit(main())
