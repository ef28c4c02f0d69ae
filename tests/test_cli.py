"""Command-line entry points: flags over defaults, artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdvtorus
from kdvtorus import __version__, cli
from kdvtorus.cli import (
    _DEFAULTS,
    _KEYS,
    ENV_OUTPUT_ROOT,
    _parse_float_list,
    _write_json,
    run,
)
from kdvtorus.experiments import HermiteSpec, hermite_initial, near_linearity_report
from kdvtorus.integrator import KdvParams, _linear_phase
from test_fields import parse_spectrum_csv
from test_normal_form import assert_same_bits


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


def assert_refused(rc, captured, outdir):
    """Exit 1 with a single ``error:`` line on stderr, nothing printed, no directory."""
    assert rc == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""
    assert not outdir.exists()
    return lines[0]


class TestArgHandling:
    def test_no_arguments_prints_usage(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert run(["identities", "--bogus"]) == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert run(["frobnicate"]) == 2


def cube_identity_fails(limit):
    """Stands in for ``check_identities`` with a cube identity that does not hold."""
    return {"limit": limit, "cube_identity": False, "factorization_identity": True}


class TestIdentities:
    def test_writes_report_and_manifest(self, tmp_path, capsys):
        rc = run(["identities", "--limit", "8", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        payload = json.loads((tmp_path / "identities.json").read_text())
        assert payload == {
            "limit": 8,
            "cube_identity": True,
            "factorization_identity": True,
        }
        manifest = read_manifest(tmp_path)
        assert manifest["command"] == "identities"
        assert manifest["version"] == __version__
        assert manifest["artifacts"] == ["identities.json"]
        assert manifest["wall_time_s"] >= 0.0

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_a_config_error(self, tmp_path, capsys, limit):
        """A limit below 1 checks no index, so it cannot report PASS."""
        rc = run(["identities", "--limit", limit, "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: identity limit must be at least 1" in captured.err
        assert "PASS" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_identity_is_a_verdict_not_a_refusal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_identities", cube_identity_fails)
        rc = run(["identities", "--limit", "3", "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error:" not in captured.err
        assert captured.out.splitlines() == [
            "cube identity, all |k| <= 3: FAIL",
            "factorization identity, all |k| <= 3: PASS",
            "FAIL",
        ]
        payload = json.loads((tmp_path / "identities.json").read_text())
        assert payload == cube_identity_fails(3)
        assert read_manifest(tmp_path)["artifacts"] == ["identities.json"]


class TestShallowWater:
    def test_default_run_reports_the_regime(self, tmp_path, capsys):
        rc = run(["shallow-water", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mismatch" in out and "0.262864" in out
        regime = json.loads((tmp_path / "regime.json").read_text())
        assert regime["mismatch"] == pytest.approx(0.2628639, abs=1e-6)
        assert regime["valid"] is True

    def test_dimensional_block_requires_all_three_scales(self, tmp_path, capsys):
        rc = run(["shallow-water", "--a-phys", "1.0", "--out", str(tmp_path)])
        assert rc == 1
        assert "a_phys, h0, l" in capsys.readouterr().err

    def test_dimensional_reference_values(self, tmp_path, capsys):
        rc = run([
            "shallow-water", "--a-phys", "1", "--h0", "100", "--l", "1000",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        regime = json.loads((tmp_path / "regime.json").read_text())
        dims = regime["dimensional"]
        assert dims["alpha"] == 0.01
        assert dims["beta"] == 0.01
        assert dims["c0"] == pytest.approx(31.3209, abs=1e-4)

    def test_domain_error_exits_one(self, tmp_path, capsys):
        rc = run(["shallow-water", "--delta", "-0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_threshold_must_be_finite_and_positive(self, tmp_path, capsys, threshold):
        rc = run(["shallow-water", "--threshold", threshold, "--out", str(tmp_path)])
        assert rc == 1
        assert "error: threshold must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("g", ["nan", "inf", "0", "-1"])
    def test_gravity_must_be_finite_and_positive(self, tmp_path, capsys, g):
        """Checked even when no dimensional scales are given and g goes unused."""
        rc = run(["shallow-water", "--g", g, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: g must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon", "1e-100"],
            ["--a-phys", "1", "--h0", "1e200", "--l", "1"],
            ["--a-phys", "1e-300", "--h0", "1e10", "--l", "1e-200"],
            ["--delta", "1e300", "--epsilon", "1e-10"],
        ],
        ids=["mismatch-overflows", "beta-overflows", "denominator-underflows",
             "beta-eps-inf"],
    )
    def test_ratios_that_are_not_finite_are_refused(self, tmp_path, capsys, flags):
        """Refused before the report prints, instead of a traceback or an inf."""
        outdir = tmp_path / "out"
        rc = run(["shallow-water", *flags, "--out", str(outdir)])
        line = assert_refused(rc, capsys.readouterr(), outdir)
        assert "not finite in double precision" in line

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_artifacts_refuse_non_finite_numbers(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(tmp_path / "report.json", {"g": value})


# Names that are not keys: (subcommand, base flags, name, value). eps and
# identity_limit were second names of epsilon and limit; return-test has no
# a, and --a must not pass for an abbreviation of --amplitude. No subcommand
# takes a profile preset or a config file: flags are a run's only settings.
# Stepping subcommands get a small grid and step, so that a tree which still
# takes the flag fails in seconds rather than stepping the default run.
SMALL_RUN = ["--m", "32", "--dt", "1e-2"]
NOT_KEYS = [
    ("shallow-water", [], "eps", "0.4"),
    ("normalform-check", [], "identity_limit", "3"),
    ("return-test", SMALL_RUN, "a", "1"),
    *((command, SMALL_RUN if "dt" in keys else [], name, value)
      for name, value in (("profile", "paper"), ("config", "run.cfg"))
      for command, keys in _DEFAULTS.items()),
]
NOT_KEY_IDS = [f"{command}-{key}" for command, _, key, _ in NOT_KEYS]


class TestOneKeyPerQuantity:
    @pytest.mark.parametrize("command, base, key, value", NOT_KEYS, ids=NOT_KEY_IDS)
    def test_flag_is_a_usage_error(self, tmp_path, capsys, command, base, key, value):
        outdir = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        assert run([command, *base, flag, value, "--out", str(outdir)]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_every_key_belongs_to_a_subcommand(self):
        assert set(_KEYS) == {key for defaults in _DEFAULTS.values() for key in defaults}

    def test_schemas_lists_each_subcommands_keys(self):
        rows = (Path(__file__).resolve().parents[1] / "SCHEMAS.md").read_text(
            encoding="utf-8").splitlines()
        for command, defaults in _DEFAULTS.items():
            assert f"| `{command}` | " + ", ".join(f"`{k}`" for k in defaults) + " |" in rows


# Every key of every subcommand, each with a small run's non-default value.
KEY_VALUES = {
    "simulate": {
        "epsilon": 0.3, "amplitude": 0.5, "a": 0.5, "b": 0.5,
        "m": 64, "t_final": 0.01, "dt": 1e-3, "scheme": "if-rk4", "dealias": False,
        "samples": 2,
    },
    "return-test": {
        "epsilon": 0.3, "amplitude": 0.5, "b": 0.5,
        "m": 32, "dt": 2e-3, "scheme": "fornberg-whitham", "dealias": False,
    },
    "pullback": {
        "epsilon": 0.3, "amplitude": 0.5, "a": 0.5, "b": 1.0,
        "m": 64, "t_final": 0.01, "dt": 1e-3, "scheme": "fornberg-whitham",
        "dealias": True,
    },
    "sweep": {
        "epsilons": (0.4, 0.3, 0.2), "a": 0.5, "b": 0.5,
        "m": 64, "t_final": 0.01, "dt": 1e-3, "scheme": "if-rk4", "dealias": False,
    },
    "normalform-check": {
        "support": 3, "cutoff": 12, "seed": 1, "t": 0.2,
        "dts": (1e-3, 5e-4, 2.5e-4), "small_dt": 2e-5,
        "census_count": 2, "census_support": 8, "limit": 6,
    },
    "identities": {"limit": 6},
    "shallow-water": {
        "delta": 0.02, "epsilon": 0.5, "threshold": 0.2,
        "a_phys": 1.0, "h0": 100.0, "l": 1000.0, "g": 9.8,
    },
}


def as_flags(values):
    argv = []
    for key, value in values.items():
        flag = key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(f"--{flag}" if value else f"--no-{flag}")
        elif isinstance(value, tuple):
            argv += [f"--{flag}", ",".join(repr(v) for v in value)]
        else:
            argv += [f"--{flag}", str(value)]
    return argv


class TestKeySources:
    @pytest.mark.parametrize("command", sorted(KEY_VALUES))
    def test_every_key_lands_in_the_manifest(self, command, tmp_path):
        """Each flag's parsed value, not its default, is the manifest's parameter."""
        values = KEY_VALUES[command]
        assert run([command, "--out", str(tmp_path / "out"), *as_flags(values)]) == 0
        params = read_manifest(tmp_path / "out")["parameters"]
        assert params == {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @pytest.mark.parametrize("command", sorted(KEY_VALUES))
    def test_a_flag_overrides_only_its_own_key(self, command):
        """No flag resolves to the defaults; one flag changes its key and no other."""
        parser = cli.build_parser()
        assert cli._resolve(command, parser.parse_args([command])) == _DEFAULTS[command]
        for key, value in KEY_VALUES[command].items():
            args = parser.parse_args([command, *as_flags({key: value})])
            assert cli._resolve(command, args) == {**_DEFAULTS[command], key: value}, key

    @pytest.mark.parametrize("command", sorted(KEY_VALUES))
    def test_manifest_lists_exactly_the_files_written(self, command, tmp_path):
        """artifacts plus manifest.json is the directory; every CSV line ends in \\n.

        Only normalform-check draws random data, so only it records seeds.
        """
        outdir = tmp_path / "out"
        assert run([command, "--out", str(outdir), *as_flags(KEY_VALUES[command])]) == 0
        written = {p.name for p in outdir.iterdir()}
        manifest = read_manifest(outdir)
        assert set(manifest["artifacts"]) | {"manifest.json"} == written
        seeds = {"normalform-check": {"ratio_census": 1729, "residual_probe": 1}}
        assert manifest["seeds"] == seeds.get(command, {})
        for name in written:
            if name.endswith(".csv"):
                assert b"\r" not in (outdir / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["simulate", "return-test", "pullback", "sweep"])
    def test_stepping_runs_report_their_diagnostics(self, command, tmp_path):
        """Every stepping command writes the audited run's diagnostics block."""
        outdir = tmp_path / "out"
        assert run([command, "--out", str(outdir), *as_flags(KEY_VALUES[command])]) == 0
        results = read_manifest(outdir)["results"]
        assert results["identity_defect_max"] <= 1e-12
        assert results["max_momentum"] <= 1e-14
        assert 0.0 <= results["energy_drift"] < 1e-2

    def test_return_test_runs_one_linear_period(self, tmp_path):
        """The CLI states no period: return-test's deviation series ends at t = 2 pi."""
        outdir = tmp_path / "out"
        assert run(["return-test", "--m", "32", "--dt", "2e-3", "--out", str(outdir)]) == 0
        rows = (outdir / "deviation.csv").read_text().splitlines()
        assert rows[0] == "t,deviation"
        assert float(rows[-1].split(",")[0]) == pytest.approx(2 * math.pi, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--scheme", "euler"], "argument --scheme: invalid choice: 'euler'"),
            (["simulate", "--m", "1e3"], "argument --m: invalid int value: '1e3'"),
            (["sweep", "--epsilons", "0.4,abc"],
             "argument --epsilons: cannot parse '0.4,abc' as a comma-separated float list"),
        ],
        ids=["scheme", "m", "epsilons"],
    )
    def test_bad_values_are_rejected(self, argv, message, tmp_path, capsys):
        """A value its flag cannot parse is a usage error naming the flag."""
        outdir = tmp_path / "out"
        assert run([*argv, "--out", str(outdir)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not outdir.exists()


class TestSimulate:
    def test_small_run_produces_the_full_artifact_set(self, tmp_path):
        rc = run([
            "simulate", "--m", "64", "--dt", "1e-3", "--t-final", "0.1",
            "--samples", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = read_manifest(tmp_path)
        for name in manifest["artifacts"]:
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,energy,momentum,deviation"
        assert manifest["results"]["terminal_deviation"] > 0.0
        assert manifest["results"]["max_momentum"] == 0.0

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["simulate", "--m", "64", "--dt", "1e-3", "--t-final", "0.1",
                "--samples", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "spectrum_initial.csv", "spectrum_final.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_final_spectrum_csv_holds_every_bit_at_the_default_grid(self, tmp_path):
        """At m = 512, spectrum_final.csv read by ``float`` is the report's last snapshot."""
        rc = run(["simulate", "--t-final", "1e-3", "--samples", "2", "--out", str(tmp_path)])
        assert rc == 0
        defaults = _DEFAULTS["simulate"]
        phi = hermite_initial(HermiteSpec(defaults["epsilon"], defaults["amplitude"]), 512)
        report = near_linearity_report(phi, KdvParams(t_final=1e-3), np.array([0.0, 1e-3]))
        want = report.record.snapshot(-1)
        ks, re, im = parse_spectrum_csv(tmp_path / "spectrum_final.csv")
        assert ks == list(range(-255, 256))
        assert_same_bits(re, want.coeffs.real)
        assert_same_bits(im, want.coeffs.imag)

    def test_initial_spectrum_csv_holds_every_bit_at_the_default_grid(self, tmp_path):
        """At m = 512, spectrum_initial.csv read by ``float`` is the Hermite data itself."""
        rc = run(["simulate", "--t-final", "1e-5", "--samples", "2", "--out", str(tmp_path)])
        assert rc == 0
        defaults = _DEFAULTS["simulate"]
        phi = hermite_initial(HermiteSpec(defaults["epsilon"], defaults["amplitude"]), 512)
        ks, re, im = parse_spectrum_csv(tmp_path / "spectrum_initial.csv")
        assert ks == list(range(-255, 256))
        assert_same_bits(re, phi.coeffs.real)
        assert_same_bits(im, phi.coeffs.imag)

    def test_identity_audit_bound_scales_with_the_data(self, tmp_path):
        """The exact linear flow at amplitude 1e5: the audit's rounding grows with |phi|."""
        rc = run([
            "simulate", "--amplitude", "1e5", "--b", "0", "--m", "64", "--dt", "1e-3",
            "--t-final", "0.5", "--samples", "11", "--out", str(tmp_path),
        ])
        assert rc == 0
        results = read_manifest(tmp_path)["results"]
        assert 1e-12 < results["identity_defect_max"] <= 1e-12 * 1e5

    def test_final_time_below_the_tick_resolution(self, tmp_path):
        """t_final = 5e-324: the deviation plot's time axis spans one subnormal."""
        rc = run(["simulate", "--m", "64", "--dt", "1e-3", "--t-final", "5e-324",
                  "--samples", "2", "--out", str(tmp_path)])
        assert rc == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert written == set(read_manifest(tmp_path)["artifacts"]) | {"manifest.json"}
        assert len(written) == 7
        svg = (tmp_path / "deviation_vs_t.svg").read_text(encoding="utf-8")
        assert 'points="72.00,205.00 622.00,205.00"' in svg  # the axis's two ends, not mid-axis

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_is_a_config_error(self, tmp_path, capsys, samples):
        rc = run([
            "simulate", "--m", "32", "--dt", "1e-3", "--t-final", "0.01",
            "--samples", samples, "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "error: samples must be at least 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # rejected before any stepping


class TestNormalFormCheck:
    def test_small_probe_passes(self, tmp_path, capsys):
        rc = run([
            "normalform-check", "--support", "3", "--cutoff", "12",
            "--seed", "1", "--census-count", "2", "--census-support", "8",
            "--limit", "6", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads((tmp_path / "normalform_report.json").read_text())
        assert payload["identity_checks"]["cube_identity"] is True
        orders = payload["residual_probe"]["observed_orders"]
        assert all(1.5 <= o <= 2.5 for o in orders)
        census = payload["ratio_census"]
        assert set(census["maxima"]) == {"r1", "r2", "r3", "r4", "r5"}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dts", "1e-3"], "dts must hold at least two distinct steps"),
            (["--dts", "1e-3,1e-3"], "dts must hold at least two distinct steps"),
            (["--dts", "1e-3,5e-4,1e-3"], "dts must hold at least two distinct steps"),
            (["--dts", "1e-3,0"], "dt must be positive and finite"),
            (["--dts", "1e-3,-5e-4"], "dt must be positive and finite"),
            (["--small-dt", "0"], "dt must be positive and finite"),
            (["--small-dt", "inf"], "dt must be positive and finite"),
            (["--dts", "1e-3,nan"], "dt must be positive and finite"),
            (["--t", "nan"], "t must be finite"),
            (["--t", "inf"], "t must be finite"),
            (["--census-count", "0"], "census count must be at least 1"),
            (["--limit", "0"], "identity limit must be at least 1"),
            (["--limit", "-2"], "identity limit must be at least 1"),
            (["--cutoff", "8"], "support max |k| = 3 exceeds a quarter of the storage range 8"),
            (["--support", "13"], "support must lie in 1..cutoff"),
        ],
        ids=["one-step", "repeated", "repeated-apart", "zero", "negative",
             "zero-small-dt", "inf-small-dt", "nan-step", "nan-t", "inf-t", "no-census",
             "zero-identity-limit", "negative-identity-limit", "support-past-a-quarter",
             "support-past-the-cutoff"],
    )
    def test_bad_steps_and_census_are_config_errors(self, tmp_path, capsys, flags, message):
        rc = run(["normalform-check", "--support", "3", "--cutoff", "12",
                  "--census-count", "2", "--census-support", "8",
                  "--limit", "6", *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # refused before the report is written


    @pytest.mark.parametrize(
        "order, small, verdict",
        [(1.45, 1e-8, "FAIL"), (1.55, 1e-8, "PASS"), (2.45, 1e-8, "PASS"),
         (2.55, 1e-8, "FAIL"), (2.0, 2e-6, "FAIL"), (2.0, 5e-7, "PASS")],
    )
    def test_verdict_bounds(self, tmp_path, capsys, monkeypatch, order, small, verdict):
        """Orders must lie in 1.5..2.5 and the small-dt residual below 1e-6."""
        def residual(v, t, dt):
            return small if dt == 1e-5 else dt**order

        monkeypatch.setattr(cli, "normal_form_residual", residual)
        rc = run(["normalform-check", "--dts", "2e-3,1e-3", "--small-dt", "1e-5",
                  "--census-count", "2", "--census-support", "8", "--limit", "3",
                  "--out", str(tmp_path)])
        assert rc == (0 if verdict == "PASS" else 1)
        assert capsys.readouterr().out.splitlines()[-1] == verdict

    def test_a_failed_identity_fails_the_verdict(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_identities", cube_identity_fails)
        rc = run(["normalform-check", "--support", "3", "--cutoff", "12",
                  "--census-count", "2", "--census-support", "8", "--limit", "3",
                  "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error:" not in captured.err
        lines = captured.out.splitlines()
        assert "identity checks (|k| <= 3): cube FAIL, factorization PASS" in lines
        assert lines[-1] == "FAIL"
        payload = json.loads((tmp_path / "normalform_report.json").read_text())
        assert payload["identity_checks"] == cube_identity_fails(3)


class TestUnresolvedWidth:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--epsilon", "1e-200", "--m", "64", "--dt", "1e-3",
             "--t-final", "0.01", "--samples", "2"],
            ["pullback", "--epsilon", "1e-10", "--m", "64", "--dt", "1e-3",
             "--t-final", "0.01"],
            ["return-test", "--epsilon", "1e-10", "--m", "64", "--dt", "1e-2"],
            ["sweep", "--epsilons", "0.4,0.2,1e-10", "--m", "64", "--dt", "1e-3",
             "--t-final", "0.01"],
            ["simulate", "--epsilon", "1e-10", "--m", "64", "--dt", "1e-3",
             "--t-final", "0.01", "--samples", "2"],
        ],
        ids=["simulate-eps-squared-underflows", "pullback", "return-test", "sweep",
             "simulate"],
    )
    def test_width_the_grid_cannot_resolve_is_refused(self, tmp_path, capsys, argv):
        """An all-zero profile is refused by hermite_initial, naming epsilon and m."""
        outdir = tmp_path / "out"
        line = assert_refused(run([*argv, "--out", str(outdir)]), capsys.readouterr(), outdir)
        assert "m = 64" in line and ("epsilon = 1e-10" in line or "epsilon = 1e-200" in line)


SMALL_RUN = ["--m", "64", "--dt", "1e-3", "--t-final", "0.01"]


class TestBeyondDoublePrecision:
    @pytest.mark.parametrize(
        "argv, where",
        [
            (["simulate", "--amplitude", "1e150", *SMALL_RUN, "--samples", "2"], "field 0"),
            (["return-test", "--amplitude", "1e150", "--m", "64", "--dt", "1e-3"], "field 0"),
            (["pullback", "--amplitude", "1e150", *SMALL_RUN], "field 0"),
            (["simulate", "--amplitude", "1e200", *SMALL_RUN, "--samples", "2"], "1e+200"),
            (["simulate", "--amplitude", "1e307", *SMALL_RUN, "--samples", "2"], "1e+307"),
        ],
        ids=["simulate", "return-test", "pullback", "simulate-1e200", "simulate-1e307"],
    )
    def test_amplitude_whose_norm_overflows_is_refused(self, tmp_path, capsys, argv, where):
        """The blow-up limit (1e150) or the data's norm (1e200, 1e307) is not finite."""
        outdir = tmp_path / "out"
        line = assert_refused(run([*argv, "--out", str(outdir)]), capsys.readouterr(), outdir)
        assert "too large for double precision" in line and where in line

    @pytest.mark.parametrize("command", ["simulate", "return-test", "pullback", "sweep"])
    def test_step_count_that_cannot_be_counted_is_refused(self, tmp_path, capsys, command):
        """t_final / 5e-324 is inf: refused before any table of phases is built."""
        outdir = tmp_path / "out"
        argv = [command, "--m", "64", "--dt", "5e-324", "--out", str(outdir)]
        line = assert_refused(run(argv), capsys.readouterr(), outdir)
        assert "t_final = " in line and "dt = 5e-324" in line and "2^53" in line

    @pytest.mark.parametrize("scheme", ["if-rk4", "fornberg-whitham"])
    @pytest.mark.parametrize("b", ["1e150", "1e300"])
    def test_nonlinearity_that_overflows_the_state_is_refused(self, tmp_path, capsys, b, scheme):
        """The first steps overflow: one error naming the overflow, no dt advice, no warning."""
        outdir = tmp_path / "out"
        argv = ["simulate", "--b", b, "--scheme", scheme, *SMALL_RUN, "--samples", "2",
                "--out", str(outdir)]
        line = assert_refused(run(argv), capsys.readouterr(), outdir)
        assert "field 0 overflowed double precision" in line and "reduce dt" not in line

    @pytest.mark.parametrize(
        "flags",
        [["--t", "1e300"], ["--t", "1e150"], ["--small-dt", "1e300"], ["--small-dt", "1e150"],
         ["--small-dt", "1e-300"], ["--small-dt", "5e-324"]],
        ids=lambda flags: "".join(flags),
    )
    def test_probe_times_with_no_digits_left_are_refused(self, tmp_path, capsys, flags):
        """No FAIL verdict and no NaN in the report: the residual probe refuses the times."""
        outdir = tmp_path / "out"
        argv = ["normalform-check", "--census-count", "2", "--census-support", "8",
                "--limit", "3", *flags, "--out", str(outdir)]
        line = assert_refused(run(argv), capsys.readouterr(), outdir)
        assert "leave no digits to difference" in line and "(K = 16)" in line

    @pytest.mark.parametrize("small_dt", ["1e-300", "5e-324"])
    def test_probe_step_too_small_to_move_the_field_is_refused(self, tmp_path, capsys, small_dt):
        """At t = 0 the digits of t +- dt survive, but the step leaves v's modes as they were."""
        outdir = tmp_path / "out"
        argv = ["normalform-check", "--t", "0", "--small-dt", small_dt, "--census-count", "2",
                "--out", str(outdir)]
        line = assert_refused(run(argv), capsys.readouterr(), outdir)
        assert f"dt = {float(small_dt)} is too small to move the field at t = 0.0" in line


def _cli_env() -> dict:
    src = str(Path(kdvtorus.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _limit_address_space() -> None:
    """Cap a child at 3 GB, so an allocation of terabytes fails at once and never pages."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


BIG = str(2**40)


class TestOneCommitPoint:
    """A run's files reach --out only when it finishes; a failed run leaves nothing."""

    def test_failure_after_the_first_write_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        def broken_plot(path, *args, **kwargs):
            raise OSError(f"cannot write {Path(path).name}")

        monkeypatch.setattr("kdvtorus.cli.write_line_plot", broken_plot)
        argv = ["simulate", *SMALL_RUN, "--samples", "2", "--out"]
        outdir = tmp_path / "out"
        assert "deviation_vs_t.svg" in assert_refused(run([*argv, str(outdir)]),
                                                      capsys.readouterr(), outdir)
        outdir.mkdir()
        (outdir / "sentinel.txt").write_text("kept\n")
        assert run([*argv, str(outdir)]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert [p.name for p in outdir.iterdir()] == ["sentinel.txt"]
        assert (outdir / "sentinel.txt").read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no stage is left behind

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("kdvtorus.cli.hermite_initial", no_memory)
        outdir = tmp_path / "out"
        argv = ["simulate", *SMALL_RUN, "--samples", "2", "--out", str(outdir)]
        assert assert_refused(run(argv), capsys.readouterr(), outdir) == "error: MemoryError"

    def test_a_broken_invariant_propagates_and_leaves_nothing(self, tmp_path, monkeypatch):
        """Neither a refusal nor a blow-up: the audit's RuntimeError leaves run as a traceback."""
        def scaled_phase(ks, a):
            phase = _linear_phase(ks, a)
            return lambda t: phase(t) * np.where(ks > 0, 1.001, 1.0)

        monkeypatch.setattr("kdvtorus.experiments._linear_phase", scaled_phase)
        outdir = tmp_path / "out"
        argv = ["simulate", "--epsilon", "0.3", "--m", "128", "--dt", "1e-3",
                "--t-final", "0.1", "--samples", "3", "--out", str(outdir)]
        with pytest.raises(RuntimeError, match="identity violated at t = 0.05:") as exc:
            run(argv)
        assert type(exc.value) is RuntimeError
        assert list(tmp_path.iterdir()) == []  # no output directory, no stage

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", *SMALL_RUN, "--m", BIG, "--samples", "2"],
            ["return-test", "--m", BIG, "--dt", "1e-2"],
            ["pullback", *SMALL_RUN, "--m", BIG],
            ["sweep", *SMALL_RUN, "--m", BIG],
            ["simulate", *SMALL_RUN, "--samples", BIG],
            ["normalform-check", "--cutoff", BIG, "--census-count", "2"],
            ["normalform-check", "--census-support", BIG, "--census-count", "2"],
            # b4's FFT length, 101,250, lies 1,249 candidates past its span
            ["normalform-check", "--census-support", "12500", "--census-count", "1"],
        ],
        ids=["simulate-m", "return-test-m", "pullback-m", "sweep-m", "simulate-samples",
             "normalform-check-cutoff", "normalform-check-census-support",
             "normalform-check-census-fft-length"],
    )
    def test_size_beyond_memory_is_one_error_line(self, tmp_path, argv):
        """2^40 modes or samples, in a child process under an address-space cap."""
        outdir = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "kdvtorus.cli", *argv, "--out", str(outdir)],
                              capture_output=True, text=True, env=_cli_env(), timeout=60,
                              preexec_fn=_limit_address_space)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert list(tmp_path.iterdir()) == []


# Extreme values for the error contract: every float key takes each float,
# every int key each int, and a float list each float as its second entry.
# Choice and boolean keys have no extremes; TestKeySources covers them.
EXTREME_FLOATS = ("0", "-1", "nan", "inf", "1e300", "1e150", "1e-10", "1e-300", "5e-324")
EXTREME_INTS = ("0", "-1", "1", "3", BIG)
EXTREME_BASE = {
    "simulate": ["--m", "32", "--dt", "1e-3", "--t-final", "0.01", "--samples", "2"],
    "return-test": ["--m", "32", "--dt", "1e-2"],
    "pullback": ["--m", "32", "--dt", "1e-3", "--t-final", "0.01"],
    "sweep": ["--m", "32", "--dt", "1e-3", "--t-final", "0.01"],
    "normalform-check": ["--census-count", "2", "--limit", "3"],
    "identities": ["--limit", "3"],
    "shallow-water": [],
}
# Valid but long runs, left out of the table.
LONG_RUNS = {
    **{(command, "dt", "1e-10"): "a real run of 1e8 steps (6e10 over return-test's period)"
       for command in ("simulate", "return-test", "pullback", "sweep")},
    ("identities", "limit", BIG): "a real check of every |k| <= 2^40",
    ("normalform-check", "limit", BIG): "a real check of every |k| <= 2^40",
    ("normalform-check", "census_count", BIG): "a real census of 2^40 fields",
}
# Valid runs whose verdict is FAIL: exit 1 with every artifact and no error line.
VERDICTS = {
    ("normalform-check", "dts", "1e-10"): "the residual at dt = 1e-10 is rounding (9e-7), "
                                          "so the observed order reads 0.27",
}


def _extreme_cases():
    for command in EXTREME_BASE:
        for key in _DEFAULTS[command]:
            kind = _KEYS[key][0]
            values = EXTREME_FLOATS if kind in (float, _parse_float_list) else (
                EXTREME_INTS if kind is int else ())
            for value in values:
                if (command, key, value) not in LONG_RUNS:
                    yield command, key, value


EXTREME_CASES = list(_extreme_cases())

# Runs each argv in turn through cli.run and prints one JSON line per run.
_RUN_CASES = """
import contextlib, io, json, sys, warnings
from pathlib import Path
from kdvtorus.cli import run
warnings.simplefilter("always")
for i, argv in enumerate(json.loads(sys.stdin.read())):
    out = Path(sys.argv[1]) / str(i)
    err, printed = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(printed):
        code = run([*argv, "--out", str(out)])
    manifest = out / "manifest.json"
    print(json.dumps({"code": code, "err": err.getvalue(), "out": printed.getvalue(),
                      "dir": out.exists(),
                      "results": json.loads(manifest.read_text())["results"]
                      if manifest.exists() else None}), flush=True)
"""


@pytest.fixture(scope="module")
def extreme_outcomes(tmp_path_factory):
    """Every case's outcome, one child process per subcommand (RLIMIT_AS 3 GB, 60 s)."""
    outcomes = {}
    for command, base in EXTREME_BASE.items():
        cases = [case for case in EXTREME_CASES if case[0] == command]
        argvs = [[command, *base, "--" + key.replace("_", "-"),
                  {"dts": "1e-3,", "epsilons": "0.4,"}.get(key, "") + value]
                 for _, key, value in cases]
        proc = subprocess.run([sys.executable, "-c", _RUN_CASES,
                               str(tmp_path_factory.mktemp(command))],
                              input=json.dumps(argvs), capture_output=True, text=True,
                              env=_cli_env(), timeout=60, preexec_fn=_limit_address_space)
        assert proc.returncode == 0, proc.stderr
        outcomes.update(zip(cases, map(json.loads, proc.stdout.splitlines())))
    return outcomes


class TestExtremeValues:
    @pytest.mark.parametrize("case", EXTREME_CASES, ids="-".join)
    def test_every_key_keeps_the_error_contract(self, case, extreme_outcomes):
        """Exit 0 with a manifest, or exit 1 with one error line and no directory."""
        got = extreme_outcomes[case]
        if case in VERDICTS:
            assert (got["code"], got["err"], got["results"]["pass"]) == (1, "", False)
            assert got["out"].endswith("FAIL\n")
        elif got["code"] == 0:
            assert got["results"] is not None and got["err"] == ""
        else:
            assert got["code"] == 1
            assert len(got["err"].splitlines()) == 1 and got["err"].startswith("error: ")
            assert got["out"] == "" and not got["dir"]


class TestEntryPoint:
    def test_module_runs_as_a_program(self, tmp_path):
        """``python -m kdvtorus.cli`` goes through main(): exit codes, stderr, no traceback."""
        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "kdvtorus.cli", *argv],
                                  capture_output=True, text=True, env=_cli_env(), cwd=tmp_path)

        ok = cli("identities", "--limit", "3", "--out", str(tmp_path / "ok"))
        assert ok.returncode == 0, ok.stderr
        assert read_manifest(tmp_path / "ok")["command"] == "identities"
        bad = cli("identities", "--limit", "0", "--out", str(tmp_path / "bad"))
        assert bad.returncode == 1
        assert bad.stderr.startswith("error: identity limit must be at least 1")
        assert "Traceback" not in bad.stderr
        assert not (tmp_path / "bad").exists()


class TestOutputRoot:
    def test_environment_variable_sets_the_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
        rc = run(["identities", "--limit", "6"])
        assert rc == 0
        assert (tmp_path / "identities" / "manifest.json").exists()

    def test_explicit_out_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path / "env-root"))
        explicit = tmp_path / "explicit"
        rc = run(["identities", "--limit", "6", "--out", str(explicit)])
        assert rc == 0
        assert (explicit / "manifest.json").exists()
        assert not (tmp_path / "env-root").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--limit", "0"],
            ["simulate", "--samples", "1"],
            ["shallow-water", "--threshold", "-1"],
            ["return-test", "--epsilon", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rejected_run_creates_no_directory(self, tmp_path, capsys, argv):
        rc = run([*argv, "--out", str(tmp_path / "new" / "out")])
        assert_refused(rc, capsys.readouterr(), tmp_path / "new")
