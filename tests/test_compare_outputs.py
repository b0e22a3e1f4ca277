"""Smoke test of ``tools/compare_outputs.py``, the output comparison of two source trees."""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "compare_outputs.py"


def _load():
    spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_matches_itself(monkeypatch, capsys):
    tool = _load()
    monkeypatch.setattr(tool, "CASES", {"oracle": {"case": "discrete-oracle"}})
    monkeypatch.setattr(tool, "SEEDS", (1,))
    src = str(_ROOT / "src")
    assert tool.main([src, src, "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "oracle seed 1: exit 0 | 0 (same)" in out
    assert "  report.json: same bytes" in out
    assert out.splitlines()[-1] == "1 of 1 runs wrote the same bytes with the same exit code in both trees"


def test_differences_per_column_and_in_the_report(tmp_path):
    tool = _load()
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("a,b,c\n1.0,0.0,10.0\n2.0,nan,1e-9\n")
    new.write_text("a,b,c\n1.0,0.0,10.0\n2.5,nan,2e-9\n")
    # per value / relative to the column's largest |value|: c's tail value
    # doubles, but moves by 1e-10 of the column's peak
    assert tool._csv_difference(old, new) == "a 0.2 / 0.2, b 0 / 0, c 0.5 / 1e-10"
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"x": [1.0, True], "ok": True}))
    new.write_text(json.dumps({"x": [1.0 + 1e-12, True], "ok": False}))
    assert tool._json_difference(old, new) == "numbers 1e-12, 1 of 2 true/false values differ"
