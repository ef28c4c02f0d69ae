"""Command-line entry points: config resolution, artifacts, exit codes."""

import json

import pytest

from kdvtorus import __version__
from kdvtorus.cli import ENV_OUTPUT_ROOT, _write_json, load_config, run
from kdvtorus.errors import ConfigError


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


class TestArgHandling:
    def test_no_arguments_prints_usage(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert run(["identities", "--bogus"]) == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert run(["frobnicate"]) == 2


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
        assert "error: limit must be at least 1" in captured.err
        assert "PASS" not in captured.out
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_artifacts_refuse_non_finite_numbers(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(tmp_path / "report.json", {"g": value})


class TestConfigFile:
    def test_file_values_overridden_by_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ndelta = 0.02\neps = 0.5\n")
        outdir = tmp_path / "out"
        rc = run([
            "shallow-water", "--config", str(cfg), "--eps", "0.4",
            "--out", str(outdir),
        ])
        assert rc == 0
        manifest = read_manifest(outdir)
        assert manifest["parameters"]["delta"] == 0.02  # from file
        assert manifest["parameters"]["eps"] == 0.4  # flag wins

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 3\n")
        rc = run(["shallow-water", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown config key: bogus" in capsys.readouterr().err

    def test_profile_key_switches_the_scheme(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("profile = paper\n")
        outdir = tmp_path / "out"
        rc = run([
            "simulate", "--config", str(cfg), "--m", "64", "--dt", "1e-3",
            "--t-final", "0.05", "--samples", "2", "--out", str(outdir),
        ])
        assert rc == 0
        params = read_manifest(outdir)["parameters"]
        assert params["profile"] == "paper"
        assert params["scheme"] == "fornberg-whitham"

    def test_malformed_line_is_reported(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta 0.02\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            load_config(cfg, allowed={"delta": 0.01})


# Every key of every subcommand, each with a small run's non-default value.
KEY_VALUES = {
    "simulate": {
        "profile": "paper", "epsilon": 0.3, "amplitude": 0.5, "a": 0.5, "b": 0.5,
        "m": 64, "t_final": 0.01, "dt": 1e-3, "scheme": "if-rk4", "dealias": False,
        "samples": 2,
    },
    "return-test": {
        "profile": "desk", "epsilon": 0.3, "amplitude": 0.5, "a": 1.0, "b": 0.5,
        "m": 32, "dt": 2e-3, "scheme": "fornberg-whitham", "dealias": False,
    },
    "pullback": {
        "profile": "paper", "epsilon": 0.3, "amplitude": 0.5, "a": 0.5, "b": 1.0,
        "m": 64, "t_final": 0.01, "dt": 1e-3, "scheme": "fornberg-whitham",
        "dealias": True,
    },
    "sweep": {
        "profile": "paper", "epsilons": (0.4, 0.3, 0.2), "a": 0.5, "b": 0.5,
        "m": 64, "t_final": 0.01, "dt": 1e-3, "scheme": "if-rk4", "dealias": False,
    },
    "normalform-check": {
        "support": 3, "cutoff": 12, "seed": 1, "t": 0.2,
        "dts": (1e-3, 5e-4, 2.5e-4), "small_dt": 2e-5,
        "census_count": 2, "census_support": 8, "identity_limit": 6,
    },
    "identities": {"limit": 6},
    "shallow-water": {
        "delta": 0.02, "eps": 0.5, "threshold": 0.2,
        "a_phys": 1.0, "h0": 100.0, "l": 1000.0, "g": 9.8, "emit_json": False,
    },
}


def as_text(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def as_flags(values):
    argv = []
    for key, value in values.items():
        flag = key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(f"--{flag}" if value else f"--no-{flag}")
        else:
            argv += [f"--{flag}", as_text(value)]
    return argv


class TestKeySources:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", sorted(KEY_VALUES))
    def test_every_key_lands_in_the_manifest(self, command, source, tmp_path):
        """A key set by flag or by config file is parsed the same way."""
        values = KEY_VALUES[command]
        argv = [command, "--out", str(tmp_path / "out")]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {as_text(v)}\n" for k, v in values.items()))
            argv += ["--config", str(cfg)]
        else:
            argv += as_flags(values)
        assert run(argv) == 0
        params = read_manifest(tmp_path / "out")["parameters"]
        assert params == {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @pytest.mark.parametrize("command", sorted(KEY_VALUES))
    def test_manifest_lists_exactly_the_files_written(self, command, tmp_path):
        """artifacts plus manifest.json is the directory; every CSV line ends in \\n."""
        outdir = tmp_path / "out"
        assert run([command, "--out", str(outdir), *as_flags(KEY_VALUES[command])]) == 0
        written = {p.name for p in outdir.iterdir()}
        assert set(read_manifest(outdir)["artifacts"]) | {"manifest.json"} == written
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

    @pytest.mark.parametrize("command", ["identities", "normalform-check", "shallow-water"])
    def test_profile_is_unknown_without_profiles(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("profile = paper\n")
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "unknown config key: profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("scheme = euler", "config key scheme: 'euler' is not one of"),
            ("profile = nonsense", "config key profile: 'nonsense' is not one of"),
            ("dealias = maybe", "config key dealias: cannot parse 'maybe' as a boolean"),
            ("m = 1e3", "config key m:"),
        ],
        ids=["scheme", "profile", "dealias", "m"],
    )
    def test_bad_values_are_rejected(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


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
            "--identity-limit", "6", "--out", str(tmp_path),
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
            (["--dts", "1e-3,0"], "steps must be positive"),
            (["--dts", "1e-3,-5e-4"], "steps must be positive"),
            (["--small-dt", "0"], "steps must be positive"),
            (["--small-dt", "inf"], "steps must be positive"),
            (["--dts", "1e-3,nan"], "steps must be positive"),
            (["--t", "nan"], "t must be finite"),
            (["--t", "inf"], "t must be finite"),
            (["--census-count", "0"], "census_count must be at least 1"),
            (["--identity-limit", "0"], "identity_limit must be at least 1"),
            (["--identity-limit", "-2"], "identity_limit must be at least 1"),
        ],
        ids=["one-step", "repeated", "repeated-apart", "zero", "negative",
             "zero-small-dt", "inf-small-dt", "nan-step", "nan-t", "inf-t", "no-census",
             "zero-identity-limit", "negative-identity-limit"],
    )
    def test_bad_steps_and_census_are_config_errors(self, tmp_path, capsys, flags, message):
        rc = run(["normalform-check", "--support", "3", "--cutoff", "12",
                  "--census-count", "2", "--census-support", "8",
                  "--identity-limit", "6", *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # rejected before any residual


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
            ["return-test", "--a", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rejected_run_creates_no_directory(self, tmp_path, capsys, argv):
        rc = run([*argv, "--out", str(tmp_path / "new" / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
