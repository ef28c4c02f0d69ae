"""Frozen regression baselines for experiment outcomes.

The reference figures are qualitative, so the quantitative anchors are the
first validated runs: their measured errors are frozen into
``data/baselines.json`` (written once by ``tools/freeze_baselines.py``) and
later runs must land within a relative window of the stored value. Each
entry records the full configuration it was measured under; a baseline is
only comparable to a run with the same configuration.
"""

from __future__ import annotations

import json
from importlib import resources

__all__ = ["REL_WINDOW", "load_baselines", "baseline_value", "within_window"]

#: Relative agreement window for regression comparisons.
REL_WINDOW = 0.20


def load_baselines() -> dict:
    """Load the packaged baseline table (key -> {value, config, ...})."""
    path = resources.files("kdvtorus").joinpath("data/baselines.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def baseline_value(key: str) -> float:
    """Stored value for one baseline key; KeyError names the missing key."""
    table = load_baselines()
    if key not in table:
        raise KeyError(
            f"no frozen baseline named {key!r}; run tools/freeze_baselines.py"
        )
    return float(table[key]["value"])


def within_window(key: str, measured: float) -> bool:
    """Whether a measured value lies within ``REL_WINDOW`` of a baseline."""
    stored = baseline_value(key)
    return abs(measured - stored) <= REL_WINDOW * abs(stored)
