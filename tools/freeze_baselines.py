#!/usr/bin/env python3
"""Compute and freeze the regression baselines.

Run once (or after an intentional numerical change), commit the resulting
``tests/baselines.json``. Each entry stores the measured value together
with the exact configuration it was measured under; the acceptance gate
(``tests/test_acceptance.py``) reads the table beside it and asserts later
runs stay within its relative window ``REL_WINDOW``.

Takes a couple of minutes: the full-period desk-profile return run
dominates.
"""

import json
import time
from pathlib import Path

from kdvtorus.experiments import HermiteSpec, pullback_comparison, return_experiment
from kdvtorus.integrator import KdvParams, desk_params
from kdvtorus.normal_form import CENSUS_SEED, ratio_census

OUT = Path(__file__).resolve().parents[1] / "tests" / "baselines.json"


def main() -> None:
    entries = {}

    started = time.perf_counter()
    report = return_experiment(HermiteSpec(epsilon=0.1), desk_params())
    print(f"return run done in {time.perf_counter() - started:.1f} s: "
          f"error = {report.return_error_rel:.6e}")
    config = {
        "epsilon": 0.1, "amplitude": 1.0, "a": 1.0, "b": 1.0, "m": 512,
        "scheme": "if-rk4", "dt": 1.0e-5, "t_final": "2*pi", "dealias": True,
    }
    entries["return_error_eps0.1_desk"] = {
        "value": report.return_error_rel, "config": config,
    }
    entries["snapshot_sup_ratio_eps0.1_desk"] = {
        "value": report.snapshot_sup_ratio,
        "config": {**config, "snapshot_time": report.snapshot_time},
    }

    for eps in (0.4, 0.2):
        params = KdvParams(a=1.0 / 6.0, b=1.5, dt=1.0e-4, t_final=1.0, m=512)
        result = pullback_comparison(HermiteSpec(epsilon=eps, amplitude=4.5), params)
        key = f"pullback_eps{eps:g}_T1_shallow"
        entries[key] = {
            "value": result.discrepancy_rel,
            "config": {
                "epsilon": eps, "amplitude": 4.5, "a": "1/6", "b": 1.5,
                "m": 512, "scheme": "if-rk4", "dt": 1.0e-4, "t_final": 1.0,
            },
        }
        print(f"{key}: {result.discrepancy_rel:.6e}")

    maxima = ratio_census(count=100, support=32)
    for name, value in sorted(maxima.items()):
        entries[f"census_{name}"] = {
            "value": value,
            "config": {"count": 100, "support": 32, "seed": CENSUS_SEED, "t": 0.0},
        }
        print(f"census_{name}: {value:.6f}")

    OUT.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
