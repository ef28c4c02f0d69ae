#!/usr/bin/env python3
"""Run one fixed list of CLI commands on two source trees and diff every output.

    python3 tools/artifact_diff.py OLD_TREE NEW_TREE [--work DIR]

Each command runs in a fresh process with ``PYTHONPATH=<tree>/src`` and its
``--out`` under a scratch directory (a temporary one unless ``--work`` names
it). For every command the exit code, stdout, stderr and each artifact are
compared, one line per file:

- ``identical`` when the bytes agree;
- for a CSV with the same header and row count, the largest relative move
  per numeric column, or, when every value is equal (a ``-0.0`` for a
  ``0.0``), the first line that differs;
- for JSON, the leaves whose text differs (``-0.0`` against ``0.0``, ``1``
  against ``1.0``), key by key and item by item through lists. In
  ``manifest.json`` ``wall_time_s`` is ignored and keys only the new tree
  writes are listed as added without counting as a difference;
- otherwise the first line that differs.

A command that exits non-zero on the old tree counts as a difference
("nothing compared"): a run that fails writes no artifacts to compare. The
exit status is 1 if anything differs (added manifest keys excepted) and 0
otherwise. Bits can differ across NumPy builds, so compare two trees on one
machine rather than against stored hashes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    ["simulate", "--scheme", "fornberg-whitham", "--m", "512", "--dt", "1e-6",
     "--t-final", "0.01", "--samples", "1001", "--epsilon", "0.2"],
    ["simulate", "--t-final", "0.02", "--samples", "11"],
    ["simulate", "--m", "64", "--dt", "1e-3", "--t-final", "0.1", "--samples", "3",
     "--no-dealias"],
    ["simulate", "--m", "64", "--scheme", "fornberg-whitham", "--dt", "1e-4",
     "--t-final", "0.01", "--samples", "5", "--no-dealias"],
    ["return-test", "--m", "64", "--dt", "1e-3", "--epsilon", "0.3"],
    ["return-test", "--m", "64", "--dt", "1e-3", "--epsilon", "0.3",
     "--scheme", "fornberg-whitham"],
    ["pullback", "--t-final", "0.05"],
    ["pullback", "--t-final", "0.05", "--scheme", "fornberg-whitham", "--dt", "1e-6"],
    ["sweep", "--m", "512", "--dt", "1e-5", "--t-final", "0.005",
     "--epsilons", "0.37,0.19,0.09"],
    ["sweep", "--scheme", "fornberg-whitham", "--dt", "1e-6", "--t-final", "0.002",
     "--epsilons", "0.37,0.19,0.09"],
    ["sweep", "--b", "0", "--dt", "1e-4", "--t-final", "0.1"],
    ["normalform-check"],
    ["identities"],
    ["shallow-water", "--a-phys", "1", "--h0", "100", "--l", "1000"],
]

_RUN = "import sys; from kdvtorus.cli import run; sys.exit(run(sys.argv[1:]))"


def run_tree(tree: Path, work: Path) -> list[dict]:
    """Run every command on one tree; returns exit code, stdout, stderr and out dir."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    results = []
    for i, args in enumerate(COMMANDS):
        out = work / f"{i:02d}-{args[0]}"
        proc = subprocess.run(
            [sys.executable, "-c", _RUN, *args, "--out", str(out)],
            cwd=work, env=env, capture_output=True, text=True,
        )
        results.append({"exit code": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr, "out": out})
    return results


def _first_line_diff(old: str, new: str) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for n, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"differs from line {n}"
    return f"differs: {len(old_lines)} against {len(new_lines)} lines"


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _csv_diff(old: str, new: str) -> str:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if not old_rows or old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        return _first_line_diff(old, new)
    moves = {}
    for col, name in enumerate(old_rows[0]):
        try:
            moves[name] = max(
                (_relative(float(a[col]), float(b[col]))
                 for a, b in zip(old_rows[1:], new_rows[1:])),
                default=0.0,
            )
        except ValueError:  # a non-numeric column: compare as text
            if any(a[col] != b[col] for a, b in zip(old_rows[1:], new_rows[1:])):
                moves[name] = math.inf
    if not any(moves.values()):  # equal values in other text, such as -0.0 for 0.0
        return "no numeric move; " + _first_line_diff(old, new)
    return "largest relative move: " + ", ".join(f"{k} {v:.2g}" for k, v in moves.items())


def _flatten(value, prefix: str = "") -> dict:
    """Leaves keyed by path (``a.b``, ``a[0]``) as JSON text: -0.0 differs from 0.0.

    A list also gives its length (``a[]``), so a grown list counts as changed.
    """
    if isinstance(value, dict):
        items = [(f"{prefix}.{key}" if prefix else key, item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{prefix}[{i}]", item) for i, item in enumerate(value)]
        items.append((f"{prefix}[]", len(value)))
    else:
        return {prefix: json.dumps(value)}
    flat = {}
    for key, item in items:
        flat.update(_flatten(item, key))
    return flat


def _json_diff(old: str, new: str, manifest: bool) -> tuple[bool, str]:
    """(differs, report) comparing two JSON documents key by key."""
    old_flat, new_flat = _flatten(json.loads(old)), _flatten(json.loads(new))
    if manifest:
        old_flat.pop("wall_time_s", None)
        new_flat.pop("wall_time_s", None)
    changed = sorted(k for k in old_flat.keys() & new_flat.keys()
                     if old_flat[k] != new_flat[k])
    removed = sorted(old_flat.keys() - new_flat.keys())
    added = sorted(new_flat.keys() - old_flat.keys())
    notes = [f"{label}: {', '.join(keys)}"
             for label, keys in (("changed", changed), ("removed", removed), ("added", added))
             if keys]
    if manifest and not (changed or removed):
        notes.insert(0, "identical apart from wall_time_s")
    differs = bool(changed or removed or (added and not manifest))
    return differs, "; ".join(notes) or "identical"


def compare_file(name: str, old: str, new: str) -> tuple[bool, str]:
    """(differs, report) for one output file or stream."""
    if name.endswith(".json"):
        return _json_diff(old, new, manifest=name.endswith("manifest.json"))
    if old == new:
        return False, "identical"
    if name.endswith(".csv"):
        return True, _csv_diff(old, new)
    return True, _first_line_diff(old, new)


def compare(old_runs: list[dict], new_runs: list[dict]) -> int:
    """Print one line per compared file; returns the number that differ."""
    differing = 0
    for args, old, new in zip(COMMANDS, old_runs, new_runs):
        label = old["out"].name
        print(f"# {label}: kdvtorus {' '.join(args)}")
        lines = [(stream, *compare_file(stream, str(old[stream]), str(new[stream])))
                 for stream in ("exit code", "stdout", "stderr")]
        if old["exit code"]:
            # a failed run writes nothing, so equal streams alone prove nothing
            lines[0] = ("exit code", True, f"{old['exit code']} on the old tree: nothing compared")
        old_files = {p.name for p in old["out"].iterdir()} if old["out"].is_dir() else set()
        new_files = {p.name for p in new["out"].iterdir()} if new["out"].is_dir() else set()
        for name in sorted(old_files | new_files):
            if name not in new_files or name not in old_files:
                side = "old" if name in old_files else "new"
                lines.append((name, True, f"only in the {side} tree"))
                continue
            lines.append((name, *compare_file(
                name,
                (old["out"] / name).read_text(encoding="utf-8"),
                (new["out"] / name).read_text(encoding="utf-8"),
            )))
        for name, differs, report in lines:
            differing += differs
            print(f"{label}/{name}: {report}")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--work", type=Path,
                        help="keep outputs under this directory (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        work = (args.work or Path(tmp)).resolve()
        runs = []
        for side, tree in (("old", args.old_tree), ("new", args.new_tree)):
            (work / side).mkdir(parents=True, exist_ok=True)
            runs.append(run_tree(tree, work / side))
        differing = compare(*runs)
    print(f"{differing} difference(s) over {len(COMMANDS)} commands")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
