"""Command-line driver: subcommands, their flags, and artifact emission.

Every key is declared once, in ``_KEYS`` (parser or choices, help); its flag
is ``--`` plus the key with dashes. A run's settings are its subcommand's
defaults with the given flags on top. Artifacts (CSV/JSON/SVG plus a
manifest) land in --out, or under $KDVTORUS_OUTPUT_ROOT/<subcommand> when
--out is absent; a run writes into a stage beside it, moved in only once the
run finishes. CSV payloads are byte-identical across reruns of the same
configuration; the manifest additionally records wall time and version.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    HermiteSpec,
    epsilon_sweep,
    hermite_initial,
    near_linearity_report,
    pullback_comparison,
    return_experiment,
)
from .fields import _write_csv, grid_points, l2_norm, random_real_field, synthesize, write_field_csv
from .integrator import InstabilityError, KdvParams, Scheme
from .normal_form import (
    CENSUS_SEED,
    check_identities,
    normal_form_residual,
    ratio_census,
)
from .shallow_water import GRAVITY, dimensionless, validate_regime
from .svgplot import LineSeries, write_line_plot

__all__ = ["run", "main", "ENV_OUTPUT_ROOT"]

ENV_OUTPUT_ROOT = "KDVTORUS_OUTPUT_ROOT"


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r} as a comma-separated float list") from exc


# Every key once: (parser, or tuple of choices; help). bool keys become
# --key/--no-key flags.
_KEYS: dict[str, tuple] = {
    "epsilon": (float, "width epsilon, in (0, 1]"),
    "amplitude": (float, "odd-Gaussian amplitude"),
    "epsilons": (_parse_float_list, "comma-separated widths, e.g. 0.4,0.2,0.1"),
    "a": (float, "dispersion coefficient"),
    "b": (float, "nonlinearity coefficient"),
    "m": (int, "grid size (power of two)"),
    "t_final": (float, "final time"),
    "dt": (float, "time step"),
    "scheme": (tuple(s.value for s in Scheme), "time stepper"),
    "dealias": (bool, "2/3-rule dealiasing of the quadratic term"),
    "samples": (int, "number of sample times"),
    "support": (int, "residual-probe field support"),
    "cutoff": (int, "residual-probe field cutoff"),
    "seed": (int, "residual-probe field seed"),
    "t": (float, "residual-probe time"),
    "dts": (_parse_float_list, "comma-separated residual-probe steps"),
    "small_dt": (float, "step of the small-step residual"),
    "census_count": (int, "ratio-census field count"),
    "census_support": (int, "ratio-census field support"),
    "limit": (int, "identity checks cover |k| <= this"),
    "delta": (float, "balanced smallness parameter"),
    "threshold": (float, "upper bound on alpha_eps and beta_eps"),
    "a_phys": (float, "amplitude (m)"),
    "h0": (float, "rest depth (m)"),
    "l": (float, "wavelength (m)"),
    "g": (float, "gravity (m/s^2)"),
}

# The keys every stepping subcommand shares, at KdvParams' defaults.
_RUN = {"b": KdvParams.b, "m": KdvParams.m, "dt": KdvParams.dt,
        "scheme": KdvParams.scheme.value, "dealias": KdvParams.dealias}

# Per-subcommand keys and defaults.
_DEFAULTS: dict[str, dict] = {
    "simulate": {**_RUN, "a": KdvParams.a, "epsilon": 0.4, "amplitude": 1.0,
                 "t_final": KdvParams.t_final, "samples": 9},
    "return-test": {**_RUN, "epsilon": 0.1, "amplitude": 1.0},
    # defaults reproduce the shallow-water-normalized figure pair
    "pullback": {**_RUN, "a": 1.0 / 6.0, "b": 1.5, "epsilon": 0.4, "amplitude": 4.5,
                 "t_final": KdvParams.t_final},
    "sweep": {**_RUN, "a": KdvParams.a, "epsilons": (0.4, 0.2, 0.1),
              "t_final": KdvParams.t_final},
    "normalform-check": {
        "support": 4, "cutoff": 16, "seed": 7, "t": 0.37,
        "dts": (1.0e-3, 5.0e-4, 2.5e-4), "small_dt": 1.0e-5,
        "census_count": 100, "census_support": 32, "limit": 12,
    },
    "identities": {"limit": 20},
    "shallow-water": {
        "delta": 0.01, "epsilon": 0.4, "threshold": 0.1,
        "a_phys": None, "h0": None, "l": None, "g": GRAVITY,
    },
}


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """The subcommand's defaults with the given flags on top."""
    defaults = _DEFAULTS[command]
    given = {key: value for key, value in vars(args).items()
             if key in defaults and value is not None}
    return {**defaults, **given}


def _outdir(args: argparse.Namespace, command: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(ENV_OUTPUT_ROOT, "kdvtorus-runs")) / command


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def _manifest(stage: Path, command: str, cfg: dict, seeds: dict,
              wall: float, results: dict) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "parameters": cfg,
        "seeds": seeds,
        "results": results,
        "artifacts": sorted(p.name for p in stage.iterdir()),
        "wall_time_s": round(wall, 3),
    }
    _write_json(stage / "manifest.json", payload)


def _kdv_params(cfg: dict) -> KdvParams:
    """The run's ``KdvParams``, from the cfg keys named like its fields."""
    names = {f.name for f in dataclasses.fields(KdvParams)}
    return KdvParams(**{key: value for key, value in cfg.items() if key in names})


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
        xs = tuple(grid_points(m))
        series = [LineSeries(label, xs, tuple(synthesize(fld, m))) for label, fld in fields]
        write_line_plot(path, series, title=title, xlabel="x", ylabel="u(x)")


def _plot_deviation(path: Path, run) -> None:
    """An audited run's deviation |v(t) - v(0)| against t."""
    series = [LineSeries("|v(t) - v(0)|", tuple(run.record.times), run.errors)]
    write_line_plot(path, series, title="Deviation from the free flow", xlabel="t",
                    ylabel="l2 deviation")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, seeds, results)
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict, outdir: Path):
    if cfg["samples"] < 2:
        raise ValueError(
            f"samples must be at least 2 (t = 0 and t_final), got {cfg['samples']}"
        )
    spec = HermiteSpec(epsilon=cfg["epsilon"], amplitude=cfg["amplitude"])
    params = _kdv_params(cfg)
    phi = hermite_initial(spec, cfg["m"])
    times = np.linspace(0.0, cfg["t_final"], cfg["samples"])
    report = near_linearity_report(phi, params, times)
    record = report.record
    rows = zip(record.times.tolist(), record.energy_series.tolist(),
               record.momentum_series.tolist(), report.errors)
    _write_csv(outdir / "trajectory.csv", ["t", "energy", "momentum", "deviation"], rows)
    write_field_csv(record.initial, outdir / "spectrum_initial.csv")
    final = record.snapshot(-1)
    write_field_csv(final, outdir / "spectrum_final.csv")
    _plot_deviation(outdir / "deviation_vs_t.svg", report)
    pair = [("initial", record.initial), (f"t = {record.times[-1]:.4g}", final)]
    _plot_fields(outdir / "physical.svg", pair, "Physical-space profiles", cfg["m"])
    _plot_fields(outdir / "spectrum.svg", pair, "Mode amplitudes")
    results = {"terminal_deviation": report.errors[-1], **report.diagnostics()}
    print(f"terminal deviation from the free flow: {report.errors[-1]:.6e}")
    print(f"energy drift: {results['energy_drift']:.3e}  "
          f"max momentum: {results['max_momentum']:.3e}")
    return 0, {}, results


def _cmd_return_test(cfg: dict, outdir: Path):
    spec = HermiteSpec(epsilon=cfg["epsilon"], amplitude=cfg["amplitude"])
    params = _kdv_params(cfg)
    report = return_experiment(spec, params)
    run = report.run
    final = run.record.snapshot(-1)
    _write_csv(outdir / "deviation.csv", ["t", "deviation"], zip(run.record.times, run.errors))
    write_field_csv(run.record.initial, outdir / "spectrum_initial.csv")
    write_field_csv(final, outdir / "spectrum_final.csv")
    write_field_csv(report.snapshot, outdir / "spectrum_snapshot.csv")
    pair = [("initial", run.record.initial), ("after one period", final)]
    _plot_fields(outdir / "spectrum_pair.svg", pair, "Mode amplitudes: initial vs one period")
    _plot_fields(outdir / "physical_pair.svg", pair, "Return after one linear period", cfg["m"])
    _plot_fields(outdir / "physical_snapshot.svg",
                 [pair[0], (f"t = {report.snapshot_time:.4g}", report.snapshot)],
                 "Short-time dispersion", cfg["m"])
    _plot_deviation(outdir / "deviation_vs_t.svg", run)
    results = {
        "return_error_rel": report.return_error_rel,
        "snapshot_time": report.snapshot_time,
        "snapshot_sup_ratio": report.snapshot_sup_ratio,
        "initial_physical_energy": report.initial_physical_energy,
        **run.diagnostics(),
    }
    print(f"relative return error after one period: {report.return_error_rel:.6e}")
    print(f"snapshot sup-norm ratio at t = {report.snapshot_time:.4g}: "
          f"{report.snapshot_sup_ratio:.4f}")
    return 0, {}, results


def _cmd_pullback(cfg: dict, outdir: Path):
    spec = HermiteSpec(epsilon=cfg["epsilon"], amplitude=cfg["amplitude"])
    params = _kdv_params(cfg)
    report = pullback_comparison(spec, params)
    t_final = report.run.record.times[-1]
    evolved = report.run.record.snapshot(-1)
    write_field_csv(report.run.record.initial, outdir / "spectrum_initial.csv")
    write_field_csv(evolved, outdir / "spectrum_evolved.csv")
    write_field_csv(report.pulled_back, outdir / "spectrum_pulled_back.csv")
    pair = [("initial", report.run.record.initial), ("pulled back", report.pulled_back)]
    _plot_fields(outdir / "physical_pullback.svg",
                 pair + [(f"evolved (t = {t_final:.4g})", evolved)],
                 "Reverse-linear pullback", cfg["m"])
    _plot_fields(outdir / "spectrum_pullback.svg", pair, "Mode amplitudes: initial vs pulled back")
    results = {
        "discrepancy_rel": report.discrepancy_rel,
        "t_final": t_final,
        **report.run.diagnostics(),
    }
    print(f"relative pullback discrepancy at T = {t_final:.4g}: "
          f"{report.discrepancy_rel:.6e}")
    return 0, {}, results


def _cmd_sweep(cfg: dict, outdir: Path):
    params = _kdv_params(cfg)
    result = epsilon_sweep(cfg["epsilons"], params, cfg["t_final"])
    degenerate = math.isnan(result.fitted_slope)
    drifts = result.run.record.energy_drift()
    rows = zip(result.epsilons, result.hm_norms, result.errors_at_t, drifts)
    _write_csv(outdir / "sweep.csv",
               ["epsilon", "hm_half_norm", "deviation_at_t", "energy_drift"], rows)
    if not degenerate:
        write_line_plot(
            outdir / "sweep_loglog.svg",
            [LineSeries("deviation at T", result.hm_norms, result.errors_at_t)],
            title="Deviation scaling vs H^{-1/2} size",
            xlabel="|phi| in H^{-1/2}", ylabel="deviation at T",
            logx=True, logy=True,
        )
    results = {
        "epsilons": result.epsilons,
        "errors_at_t": result.errors_at_t,
        "fitted_slope": None if degenerate else result.fitted_slope,
        "degenerate": degenerate,
        **result.run.diagnostics(),
    }
    slope_text = "undefined" if degenerate else f"{result.fitted_slope:.4f}"
    print(f"fitted log-log slope: {slope_text}")
    for eps, err in zip(result.epsilons, result.errors_at_t):
        print(f"  epsilon = {eps:<5g} deviation at T = {err:.6e}")
    return 0, {}, results


def _cmd_normalform_check(cfg: dict, outdir: Path):
    dts = cfg["dts"]
    if len(dts) < 2 or len(set(dts)) != len(dts):
        raise ValueError(f"dts must hold at least two distinct steps, got {list(dts)}")
    rng = np.random.default_rng(cfg["seed"])
    v = random_real_field(rng, cfg["support"], cutoff=cfg["cutoff"])
    v = (1.0 / l2_norm(v)) * v
    t = cfg["t"]
    residuals = [normal_form_residual(v, t, dt) for dt in dts]
    orders = [
        math.log(residuals[i] / residuals[i + 1]) / math.log(dts[i] / dts[i + 1])
        for i in range(len(dts) - 1)
        if residuals[i + 1] > 0.0
    ]
    small = normal_form_residual(v, t, cfg["small_dt"])
    limit = cfg["limit"]
    identities = check_identities(limit)
    census = ratio_census(count=cfg["census_count"], support=cfg["census_support"])
    orders_ok = all(1.5 <= o <= 2.5 for o in orders) and bool(orders)
    payload = {
        "residual_probe": {
            "support": cfg["support"], "cutoff": cfg["cutoff"],
            "seed": cfg["seed"], "t": t,
            "series": [{"dt": d, "residual": r} for d, r in zip(dts, residuals)],
            "observed_orders": orders,
            "small_dt": cfg["small_dt"],
            "small_dt_residual": small,
        },
        "ratio_census": {
            "count": cfg["census_count"],
            "support": cfg["census_support"],
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
    seeds = {"residual_probe": cfg["seed"], "ratio_census": CENSUS_SEED}
    results = {
        "orders": orders,
        "small_dt_residual": small,
        "census_maxima": census,
        "pass": ok,
    }
    return (0 if ok else 1), seeds, results


def _cmd_identities(cfg: dict, outdir: Path):
    limit = cfg["limit"]
    payload = check_identities(limit)
    cube_ok, fact_ok = payload["cube_identity"], payload["factorization_identity"]
    _write_json(outdir / "identities.json", payload)
    print(f"cube identity, all |k| <= {limit}: {'PASS' if cube_ok else 'FAIL'}")
    print(f"factorization identity, all |k| <= {limit}: {'PASS' if fact_ok else 'FAIL'}")
    print("PASS" if cube_ok and fact_ok else "FAIL")
    return (0 if cube_ok and fact_ok else 1), {}, payload


def _cmd_shallow_water(cfg: dict, outdir: Path):
    if not 0.0 < cfg["g"] < math.inf:  # NaN fails every comparison
        raise ValueError(f"g must be finite and positive, got {cfg['g']}")
    report = validate_regime(cfg["delta"], cfg["epsilon"], cfg["threshold"])
    lines = [
        f"delta        {cfg['delta']:.6g}",
        f"eps          {cfg['epsilon']:.6g}",
        f"alpha_eps    {report.alpha_eps:.6g}",
        f"beta_eps     {report.beta_eps:.6g}",
        f"mismatch     {report.mismatch:.6g}",
        f"threshold    {report.threshold:.6g}",
        f"regime valid {'yes' if report.valid else 'no'}",
    ]
    results = dataclasses.asdict(report)
    dims = (cfg["a_phys"], cfg["h0"], cfg["l"])
    if any(d is not None for d in dims):
        if any(d is None for d in dims):
            raise ValueError("dimensional input needs all three of a_phys, h0, l")
        regime = dimensionless(a=dims[0], h0=dims[1], l=dims[2], g=cfg["g"])
        lines += [
            f"alpha        {regime.alpha:.6g}",
            f"beta         {regime.beta:.6g}",
            f"c0           {regime.c0:.6g} m/s",
            f"t_scale      {regime.t_phys_scale:.6g} s",
        ]
        results["dimensional"] = dataclasses.asdict(regime)
    print("\n".join(lines))
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
        sub = subs.add_parser(command, help=command_help, allow_abbrev=False)
        sub.add_argument("--out", "-o", help="output directory (default: "
                         f"${ENV_OUTPUT_ROOT}/<subcommand>)")
        for key in _DEFAULTS[command]:
            kind, key_help = _KEYS[key]
            if kind is bool:
                option = {"action": argparse.BooleanOptionalAction}
            elif isinstance(kind, tuple):
                option = {"choices": kind}
            else:
                option = {"type": kind}
            sub.add_argument("--" + key.replace("_", "-"), help=key_help, **option)
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code.

    A refused input (``ValueError``, ``OSError``, ``MemoryError``) or a run
    that blew up (``InstabilityError``) prints one ``error:`` line and
    returns 1; any other exception is a broken invariant and propagates.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve(args.command, args)
        out = _outdir(args, args.command)
        near = next(d for d in (out, *out.parents) if d.is_dir())
        with tempfile.TemporaryDirectory(prefix=".kdvtorus-", dir=near) as tmp:
            stage = Path(tmp)
            started = time.perf_counter()
            code, seeds, results = _COMMANDS[args.command][0](cfg, stage)
            wall = time.perf_counter() - started
            _manifest(stage, args.command, cfg, seeds, wall, results)
            out.mkdir(parents=True, exist_ok=True)
            for staged in stage.iterdir():
                os.replace(staged, out / staged.name)
        return code
    except (ValueError, InstabilityError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
