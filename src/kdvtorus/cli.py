"""Command-line driver: subcommands, config files, and artifact emission.

Every key is declared once, in ``_KEYS`` (parser or choices, help); its flag
is ``--`` plus the key with dashes, and config-file values go through the
same parser. Precedence for every key: built-in defaults < profile < config
file < explicit flags. Artifacts (CSV/JSON/SVG plus a manifest) land in
--out, or under $KDVTORUS_OUTPUT_ROOT/<subcommand> when --out is absent.
CSV payloads are byte-identical across reruns of the same configuration;
the manifest additionally records wall time and version.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, KdvTorusError
from .experiments import (
    HermiteSpec,
    epsilon_sweep,
    hermite_initial,
    near_linearity_report,
    pullback_comparison,
    return_experiment,
)
from .fields import Grid, _write_csv, l2_norm, random_real_field, synthesize, write_field_csv
from .integrator import KdvParams, Scheme, desk_params, paper_params
from .normal_form import (
    CENSUS_SEED,
    check_cube_identity,
    check_factorization_identity,
    normal_form_residual,
    ratio_census,
)
from .shallow_water import GRAVITY, PhysicalParams, dimensionless, validate_regime
from .svgplot import LineSeries, write_line_plot

__all__ = ["run", "main", "load_config", "ENV_OUTPUT_ROOT", "PROFILES"]

ENV_OUTPUT_ROOT = "KDVTORUS_OUTPUT_ROOT"

#: Scheme/step presets; "paper" reproduces the reference runs (slow).
PROFILES = {
    name: {"scheme": p.scheme.value, "dt": p.dt}
    for name, p in (("desk", desk_params()), ("paper", paper_params()))
}


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {text!r} as a comma-separated float list") from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse {text!r} as a boolean")


# Every key once: (parser, or tuple of choices; help). _parse_bool keys
# become --key/--no-key flags.
_KEYS: dict[str, tuple] = {
    "profile": (tuple(sorted(PROFILES)), "scheme/step preset"),
    "epsilon": (float, "odd-Gaussian width, in (0, 1]"),
    "amplitude": (float, "odd-Gaussian amplitude"),
    "epsilons": (_parse_float_list, "comma-separated widths, e.g. 0.4,0.2,0.1"),
    "a": (float, "dispersion coefficient"),
    "b": (float, "nonlinearity coefficient"),
    "m": (int, "grid size (power of two)"),
    "t_final": (float, "final time"),
    "dt": (float, "time step (overrides profile)"),
    "scheme": (tuple(s.value for s in Scheme), "time stepper (overrides profile)"),
    "dealias": (_parse_bool, "2/3-rule dealiasing of the quadratic term"),
    "samples": (int, "number of sample times"),
    "support": (int, "residual-probe field support"),
    "cutoff": (int, "residual-probe field cutoff"),
    "seed": (int, "residual-probe field seed"),
    "t": (float, "residual-probe time"),
    "dts": (_parse_float_list, "comma-separated residual-probe steps"),
    "small_dt": (float, "step of the small-step residual"),
    "census_count": (int, "ratio-census field count"),
    "census_support": (int, "ratio-census field support"),
    "identity_limit": (int, "identity checks cover |k| <= this"),
    "limit": (int, "identity checks cover |k| <= this"),
    "delta": (float, "balanced smallness parameter"),
    "eps": (float, "width parameter, in (0, 1]"),
    "threshold": (float, "upper bound on alpha_eps and beta_eps"),
    "a_phys": (float, "amplitude (m)"),
    "h0": (float, "rest depth (m)"),
    "l": (float, "wavelength (m)"),
    "g": (float, "gravity (m/s^2)"),
    "emit_json": (_parse_bool, "write regime.json"),
}

# Per-subcommand keys and defaults; dt/scheme come from the profile.
_DEFAULTS: dict[str, dict] = {
    "simulate": {
        "profile": "desk", "epsilon": 0.4, "amplitude": 1.0, "a": 1.0, "b": 1.0,
        "m": 512, "t_final": 1.0, "dt": None, "scheme": None, "dealias": True,
        "samples": 9,
    },
    "return-test": {
        "profile": "desk", "epsilon": 0.1, "amplitude": 1.0, "a": 1.0, "b": 1.0,
        "m": 512, "dt": None, "scheme": None, "dealias": True,
    },
    # defaults reproduce the shallow-water-normalized figure pair
    "pullback": {
        "profile": "desk", "epsilon": 0.4, "amplitude": 4.5, "a": 1.0 / 6.0,
        "b": 1.5, "m": 512, "t_final": 1.0, "dt": None, "scheme": None,
        "dealias": True,
    },
    "sweep": {
        "profile": "desk", "epsilons": (0.4, 0.2, 0.1), "a": 1.0, "b": 1.0,
        "m": 512, "t_final": 1.0, "dt": None, "scheme": None, "dealias": True,
    },
    "normalform-check": {
        "support": 4, "cutoff": 16, "seed": 7, "t": 0.37,
        "dts": (1.0e-3, 5.0e-4, 2.5e-4), "small_dt": 1.0e-5,
        "census_count": 100, "census_support": 32, "identity_limit": 12,
    },
    "identities": {"limit": 20},
    "shallow-water": {
        "delta": 0.01, "eps": 0.4, "threshold": 0.1,
        "a_phys": None, "h0": None, "l": None, "g": GRAVITY, "emit_json": True,
    },
}


def _parse_value(key: str, raw: str):
    """Parse a config-file value the way its flag is parsed."""
    kind = _KEYS[key][0]
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"config key {key}: {raw!r} is not one of {list(kind)}")
        return raw
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def load_config(path, allowed) -> dict:
    """Parse a flat key=value config file (# comments, blank lines allowed).

    `allowed` holds the subcommand's key names: unknown keys raise
    ConfigError naming the key, and each value is parsed like its flag.
    """
    cfg: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key}")
        cfg[key] = _parse_value(key, raw)
    return cfg


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, profile, config file, and explicit flags."""
    defaults = _DEFAULTS[command]
    file_cfg = load_config(args.config, allowed=defaults) if args.config else {}
    flag_cfg = {
        key: value
        for key, value in vars(args).items()
        if key in defaults and value is not None
    }
    cfg = dict(defaults)
    if "profile" in defaults:
        profile = flag_cfg.get("profile") or file_cfg.get("profile") or cfg["profile"]
        cfg.update(PROFILES[profile])
    cfg.update(file_cfg)
    cfg.update(flag_cfg)
    return cfg


class _Outdir:
    """A run's output directory; ``outdir / name`` records ``name`` as an artifact.

    The directory is created on the first write, so a rejected run leaves none.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.names: set[str] = set()

    def __truediv__(self, name: str) -> Path:
        self.names.add(name)
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path / name


def _outdir(args: argparse.Namespace, command: str) -> _Outdir:
    if args.out:
        return _Outdir(Path(args.out))
    root = os.environ.get(ENV_OUTPUT_ROOT, "kdvtorus-runs")
    return _Outdir(Path(root) / command)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def _manifest(outdir: _Outdir, command: str, cfg: dict, seeds: dict,
              wall: float, results: dict) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "parameters": {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())},
        "seeds": seeds,
        "results": results,
        "artifacts": sorted(outdir.names),
        "wall_time_s": round(wall, 3),
    }
    outdir.path.mkdir(parents=True, exist_ok=True)
    _write_json(outdir.path / "manifest.json", payload)


def _kdv_params(cfg: dict, t_final: float) -> KdvParams:
    return KdvParams(
        a=cfg["a"], b=cfg["b"], dt=cfg["dt"], t_final=t_final,
        m=cfg["m"], scheme=cfg["scheme"], dealias=cfg["dealias"],
    )


def _plot_fields(path: Path, fields, title: str, m: int | None = None) -> None:
    """Plot (label, field) pairs: profiles u(x) on an m-point grid, or |u_k| without m."""
    if m is None:
        series = [
            LineSeries(label, tuple(np.arange(1.0, fld.cutoff + 1)),
                       tuple(np.abs(fld.coeffs[fld.cutoff + 1:])))
            for label, fld in fields
        ]
        write_line_plot(path, series, title=title, xlabel="k", ylabel="|u_k|", logy=True)
    else:
        xs = tuple(Grid(m).points)
        series = [LineSeries(label, xs, tuple(synthesize(fld, m))) for label, fld in fields]
        write_line_plot(path, series, title=title, xlabel="x", ylabel="u(x)")


def _run_results(run) -> dict:
    """The diagnostics of a stepping run's audit; energy_drift is the worst over a batch."""
    return {
        "identity_defect_max": run.identity_defect_max,
        "energy_drift": float(np.max(run.record.energy_drift())),
        "max_momentum": run.record.max_momentum(),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, seeds, results)
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict, outdir: _Outdir):
    if cfg["samples"] < 2:
        raise ConfigError(
            f"samples must be at least 2 (t = 0 and t_final), got {cfg['samples']}"
        )
    spec = HermiteSpec(epsilon=cfg["epsilon"], amplitude=cfg["amplitude"])
    params = _kdv_params(cfg, cfg["t_final"])
    phi = hermite_initial(spec, cfg["m"])
    times = np.linspace(0.0, cfg["t_final"], int(cfg["samples"]))
    report = near_linearity_report(phi, params, times)
    record = report.record
    rows = zip(record.times, record.energy_series, record.momentum_series, report.errors)
    _write_csv(outdir / "trajectory.csv", ["t", "energy", "momentum", "deviation"], rows)
    write_field_csv(report.initial, outdir / "spectrum_initial.csv")
    final = record.snapshot(-1)
    write_field_csv(final, outdir / "spectrum_final.csv")
    write_line_plot(
        outdir / "deviation_vs_t.svg",
        [LineSeries("|v(t) - v(0)|", tuple(record.times), report.errors)],
        title="Deviation from the free flow",
        xlabel="t", ylabel="l2 deviation",
    )
    pair = [("initial", report.initial), (f"t = {record.times[-1]:.4g}", final)]
    _plot_fields(outdir / "physical.svg", pair, "Physical-space profiles", cfg["m"])
    _plot_fields(outdir / "spectrum.svg", pair, "Mode amplitudes")
    results = {"terminal_deviation": report.errors[-1], **_run_results(report)}
    print(f"terminal deviation from the free flow: {report.errors[-1]:.6e}")
    print(f"energy drift: {results['energy_drift']:.3e}  "
          f"max momentum: {results['max_momentum']:.3e}")
    return 0, {}, results


def _cmd_return_test(cfg: dict, outdir: _Outdir):
    spec = HermiteSpec(epsilon=cfg["epsilon"], amplitude=cfg["amplitude"])
    params = _kdv_params(cfg, 2.0 * math.pi)
    report = return_experiment(spec, params)
    run = report.run
    times = tuple(run.record.times)
    _write_csv(outdir / "deviation.csv", ["t", "deviation"], zip(times, run.errors))
    write_field_csv(run.initial, outdir / "spectrum_initial.csv")
    write_field_csv(report.final, outdir / "spectrum_final.csv")
    write_field_csv(report.snapshot, outdir / "spectrum_snapshot.csv")
    pair = [("initial", run.initial), ("after one period", report.final)]
    _plot_fields(outdir / "spectrum_pair.svg", pair, "Mode amplitudes: initial vs one period")
    _plot_fields(outdir / "physical_pair.svg", pair, "Return after one linear period", cfg["m"])
    _plot_fields(outdir / "physical_snapshot.svg",
                 [pair[0], (f"t = {report.snapshot_time:.4g}", report.snapshot)],
                 "Short-time dispersion", cfg["m"])
    write_line_plot(
        outdir / "deviation_vs_t.svg",
        [LineSeries("|v(t) - v(0)|", times, run.errors)],
        title="Deviation from the free flow", xlabel="t", ylabel="l2 deviation",
    )
    results = {
        "return_error_rel": report.return_error_rel,
        "snapshot_time": report.snapshot_time,
        "snapshot_sup_ratio": report.snapshot_sup_ratio,
        "initial_physical_energy": report.initial_physical_energy,
        **_run_results(run),
    }
    print(f"relative return error after one period: {report.return_error_rel:.6e}")
    print(f"snapshot sup-norm ratio at t = {report.snapshot_time:.4g}: "
          f"{report.snapshot_sup_ratio:.4f}")
    return 0, {}, results


def _cmd_pullback(cfg: dict, outdir: _Outdir):
    spec = HermiteSpec(epsilon=cfg["epsilon"], amplitude=cfg["amplitude"])
    params = _kdv_params(cfg, cfg["t_final"])
    report = pullback_comparison(spec, params, cfg["t_final"])
    t_final = report.run.record.times[-1]
    write_field_csv(report.run.initial, outdir / "spectrum_initial.csv")
    write_field_csv(report.evolved, outdir / "spectrum_evolved.csv")
    write_field_csv(report.pulled_back, outdir / "spectrum_pulled_back.csv")
    pair = [("initial", report.run.initial), ("pulled back", report.pulled_back)]
    _plot_fields(outdir / "physical_pullback.svg",
                 pair + [(f"evolved (t = {t_final:.4g})", report.evolved)],
                 "Reverse-linear pullback", cfg["m"])
    _plot_fields(outdir / "spectrum_pullback.svg", pair, "Mode amplitudes: initial vs pulled back")
    results = {
        "discrepancy_rel": report.discrepancy_rel,
        "t_final": t_final,
        **_run_results(report.run),
    }
    print(f"relative pullback discrepancy at T = {t_final:.4g}: "
          f"{report.discrepancy_rel:.6e}")
    return 0, {}, results


def _cmd_sweep(cfg: dict, outdir: _Outdir):
    params = _kdv_params(cfg, cfg["t_final"])
    result = epsilon_sweep(cfg["epsilons"], params, cfg["t_final"])
    drifts = result.run.record.energy_drift()
    rows = zip(result.epsilons, result.hm_norms, result.errors_at_t, drifts)
    _write_csv(outdir / "sweep.csv",
               ["epsilon", "hm_half_norm", "deviation_at_t", "energy_drift"], rows)
    if not result.degenerate:
        write_line_plot(
            outdir / "sweep_loglog.svg",
            [LineSeries("deviation at T", result.hm_norms, result.errors_at_t)],
            title="Deviation scaling vs H^{-1/2} size",
            xlabel="|phi| in H^{-1/2}", ylabel="deviation at T",
            logx=True, logy=True,
        )
    results = {
        "epsilons": list(result.epsilons),
        "errors_at_t": list(result.errors_at_t),
        "fitted_slope": None if result.degenerate else result.fitted_slope,
        "degenerate": result.degenerate,
        **_run_results(result.run),
    }
    slope_text = "undefined" if result.degenerate else f"{result.fitted_slope:.4f}"
    print(f"fitted log-log slope: {slope_text}")
    for eps, err in zip(result.epsilons, result.errors_at_t):
        print(f"  epsilon = {eps:<5g} deviation at T = {err:.6e}")
    return 0, {}, results


def _identity_checks(limit: int) -> dict:
    return {
        "limit": limit,
        "cube_identity": check_cube_identity(limit),
        "factorization_identity": check_factorization_identity(limit),
    }


def _cmd_normalform_check(cfg: dict, outdir: _Outdir):
    dts = tuple(cfg["dts"])
    if len(dts) < 2 or len(set(dts)) != len(dts):
        raise ConfigError(f"dts must hold at least two distinct steps, got {list(dts)}")
    if not all(0.0 < d < math.inf for d in dts + (cfg["small_dt"],)):
        raise ConfigError(
            f"steps must be positive and finite, got dts = {list(dts)}, "
            f"small_dt = {cfg['small_dt']}"
        )
    if not math.isfinite(cfg["t"]):
        raise ConfigError(f"t must be finite, got {cfg['t']}")
    if cfg["census_count"] < 1:
        raise ConfigError(f"census_count must be at least 1, got {cfg['census_count']}")
    if cfg["identity_limit"] < 1:
        raise ConfigError(f"identity_limit must be at least 1, got {cfg['identity_limit']}")
    rng = np.random.default_rng(int(cfg["seed"]))
    v = random_real_field(rng, int(cfg["support"]), cutoff=int(cfg["cutoff"]))
    v = (1.0 / l2_norm(v)) * v
    t = float(cfg["t"])
    residuals = [normal_form_residual(v, t, dt) for dt in dts]
    orders = [
        math.log(residuals[i] / residuals[i + 1]) / math.log(dts[i] / dts[i + 1])
        for i in range(len(dts) - 1)
        if residuals[i + 1] > 0.0
    ]
    small = normal_form_residual(v, t, float(cfg["small_dt"]))
    census = ratio_census(count=int(cfg["census_count"]),
                          support=int(cfg["census_support"]))
    limit = int(cfg["identity_limit"])
    identities = _identity_checks(limit)
    orders_ok = all(1.5 <= o <= 2.5 for o in orders) and bool(orders)
    payload = {
        "residual_probe": {
            "support": int(cfg["support"]), "cutoff": int(cfg["cutoff"]),
            "seed": int(cfg["seed"]), "t": t,
            "series": [{"dt": d, "residual": r} for d, r in zip(dts, residuals)],
            "observed_orders": orders,
            "small_dt": float(cfg["small_dt"]),
            "small_dt_residual": small,
        },
        "ratio_census": {
            "count": int(cfg["census_count"]),
            "support": int(cfg["census_support"]),
            "seed": CENSUS_SEED,
            "maxima": census,
        },
        "identity_checks": identities,
    }
    _write_json(outdir / "normalform_report.json", payload)
    cube_ok, fact_ok = identities["cube_identity"], identities["factorization_identity"]
    ok = orders_ok and small < 1.0e-6 and cube_ok and fact_ok
    for d, r in zip(dts, residuals):
        print(f"residual at dt = {d:g}: {r:.6e}")
    print(f"observed orders: {['%.3f' % o for o in orders]}")
    # three digits: the centred difference divides operator rounding by 2*dt
    print(f"residual at dt = {cfg['small_dt']:g}: {small:.2e}")
    print(f"census maxima: "
          + "  ".join(f"{k} = {val:.4f}" for k, val in sorted(census.items())))
    print(f"identity checks (|k| <= {limit}): "
          f"cube {'PASS' if cube_ok else 'FAIL'}, "
          f"factorization {'PASS' if fact_ok else 'FAIL'}")
    print("PASS" if ok else "FAIL")
    seeds = {"residual_probe": int(cfg["seed"]), "ratio_census": CENSUS_SEED}
    results = {
        "orders": orders,
        "small_dt_residual": small,
        "census_maxima": census,
        "pass": ok,
    }
    return (0 if ok else 1), seeds, results


def _cmd_identities(cfg: dict, outdir: _Outdir):
    limit = int(cfg["limit"])
    if limit < 1:
        raise ConfigError(f"limit must be at least 1, got {limit}")
    payload = _identity_checks(limit)
    cube_ok, fact_ok = payload["cube_identity"], payload["factorization_identity"]
    _write_json(outdir / "identities.json", payload)
    print(f"cube identity, all |k| <= {limit}: {'PASS' if cube_ok else 'FAIL'}")
    print(f"factorization identity, all |k| <= {limit}: {'PASS' if fact_ok else 'FAIL'}")
    print("PASS" if cube_ok and fact_ok else "FAIL")
    return (0 if cube_ok and fact_ok else 1), {}, payload


def _cmd_shallow_water(cfg: dict, outdir: _Outdir):
    if not 0.0 < cfg["g"] < math.inf:  # NaN fails every comparison
        raise ConfigError(f"g must be finite and positive, got {cfg['g']}")
    report = validate_regime(cfg["delta"], cfg["eps"], cfg["threshold"])
    lines = [
        f"delta        {cfg['delta']:.6g}",
        f"eps          {cfg['eps']:.6g}",
        f"alpha_eps    {report.alpha_eps:.6g}",
        f"beta_eps     {report.beta_eps:.6g}",
        f"mismatch     {report.mismatch:.6g}",
        f"threshold    {report.threshold:.6g}",
        f"regime valid {'yes' if report.valid else 'no'}",
    ]
    results = report.as_dict()
    dims = (cfg["a_phys"], cfg["h0"], cfg["l"])
    if any(d is not None for d in dims):
        if any(d is None for d in dims):
            raise ConfigError("dimensional input needs all three of a_phys, h0, l")
        regime = dimensionless(PhysicalParams(a=dims[0], h0=dims[1], l=dims[2], g=cfg["g"]))
        lines += [
            f"alpha        {regime.alpha:.6g}",
            f"beta         {regime.beta:.6g}",
            f"c0           {regime.c0:.6g} m/s",
            f"t_scale      {regime.t_phys_scale:.6g} s",
        ]
        results["dimensional"] = dataclasses.asdict(regime)
    print("\n".join(lines))
    if cfg["emit_json"]:
        _write_json(outdir / "regime.json", results)
    return 0, {}, results


_COMMANDS = {
    "simulate": (_cmd_simulate, "evolve odd-Gaussian data, track the deviation"),
    "return-test": (_cmd_return_test, "one full linear period, return error"),
    "pullback": (_cmd_pullback, "reverse-linear pullback comparison"),
    "sweep": (_cmd_sweep, "deviation scaling across profile widths"),
    "normalform-check": (_cmd_normalform_check, "operator identity diagnostics"),
    "identities": (_cmd_identities, "exhaustive integer identity checks"),
    "shallow-water": (_cmd_shallow_water, "physical-to-KdV regime report"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; its flags are generated from _DEFAULTS and _KEYS."""
    parser = argparse.ArgumentParser(
        prog="kdvtorus",
        description="Spectral simulation and verification toolkit for periodic KdV.",
    )
    parser.add_argument("--version", action="version", version=f"kdvtorus {__version__}")
    subs = parser.add_subparsers(dest="command")
    for command, (_, command_help) in _COMMANDS.items():
        sub = subs.add_parser(command, help=command_help)
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument("--out", "-o", help="output directory (default: "
                         f"${ENV_OUTPUT_ROOT}/<subcommand>)")
        for key in _DEFAULTS[command]:
            kind, key_help = _KEYS[key]
            if kind is _parse_bool:
                option = {"action": argparse.BooleanOptionalAction}
            elif isinstance(kind, tuple):
                option = {"choices": kind}
            else:
                option = {"type": kind}
            sub.add_argument("--" + key.replace("_", "-"), help=key_help, **option)
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    argv = list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve(args.command, args)
        outdir = _outdir(args, args.command)
        started = time.perf_counter()
        code, seeds, results = _COMMANDS[args.command][0](cfg, outdir)
        wall = time.perf_counter() - started
        _manifest(outdir, args.command, cfg, seeds, wall, results)
        return code
    except (KdvTorusError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
