"""The two-tree output comparison in tools/artifact_diff.py."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
_SPEC = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)
compare_file = artifact_diff.compare_file


def _manifest(**results):
    return json.dumps({"command": "sweep", "results": results, "wall_time_s": 1.5})


class TestCompareFile:
    def test_manifests_ignore_wall_time_and_list_added_keys(self):
        old = _manifest(energy_drift=1e-9)
        new = json.loads(_manifest(energy_drift=1e-9, nf_remainder=0.003))
        new["wall_time_s"] = 2.5
        differs, report = compare_file("manifest.json", old, json.dumps(new))
        assert not differs
        assert report == "identical apart from wall_time_s; added: results.nf_remainder"

    def test_a_changed_or_removed_manifest_value_differs(self):
        old = _manifest(energy_drift=1e-9, max_momentum=0.0)
        differs, report = compare_file("manifest.json", old, _manifest(energy_drift=2e-9))
        assert differs
        assert report == "changed: results.energy_drift; removed: results.max_momentum"

    def test_other_json_counts_added_keys(self):
        differs, report = compare_file("regime.json", '{"a": 1}', '{"a": 1, "b": 2}')
        assert differs and report == "added: b"

    def test_csv_reports_the_largest_relative_move_per_column(self):
        old = "t,energy\n0.0,1.0\n0.5,2.0\n"
        new = "t,energy\n0.0,1.0\n0.5,2.000000002\n"
        differs, report = compare_file("trajectory.csv", old, new)
        assert differs
        assert report == "largest relative move: t 0, energy 1e-09"

    def test_text_reports_the_first_differing_line(self):
        assert compare_file("stdout", "a\nb\n", "a\nb\n") == (False, "identical")
        assert compare_file("stdout", "a\nb\nc\n", "a\nB\nc\n") == (True, "differs from line 2")
        assert compare_file("stdout", "a\n", "a\nb\n") == (True, "differs: 1 against 2 lines")


class TestCompare:
    def test_a_command_failing_on_the_old_tree_compares_nothing(self, tmp_path, capsys):
        """Identical streams from a run that wrote no artifacts are not agreement."""
        failed = {"exit code": 1, "stdout": "", "stderr": "blow-up\n", "out": tmp_path / "00"}
        assert artifact_diff.compare([failed], [dict(failed)]) == 1
        assert "00/exit code: 1 on the old tree: nothing compared" in capsys.readouterr().out
