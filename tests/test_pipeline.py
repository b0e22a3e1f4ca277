"""``run`` and ``run_case`` are one pipeline: the same report, and files
only from ``run`` with ``out_dir`` set."""

import json

import pytest
from test_writer_process import forks  # noqa: F401  (a fixture)

from probsens.cli import main
from probsens.runner import RunConfig, run, run_case


@pytest.mark.parametrize(
    "settings",
    [
        {"case": "identity", "n_samples": 2000},
        {"case": "beam", "n_samples": 1000, "perturbation_scale": 0.2},
        {"case": "discrete-oracle"},
    ],
)
def test_run_is_run_case_with_its_files(tmp_path, monkeypatch, forks, settings):  # noqa: F811
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    report, code = run(RunConfig(**settings, out_dir=str(out)))
    sampled = settings["case"] != "discrete-oracle"
    assert len(forks) == sampled
    assert sorted(p.name for p in out.iterdir()) == (["curve.csv", "density.csv"] if sampled else []) + ["report.json"]

    # run_case on the same config writes nothing, makes no directory and forks nothing
    forks.clear()
    unwritten = tmp_path / "unwritten"
    full = run_case(RunConfig(**settings, out_dir=str(unwritten)))
    assert not unwritten.exists() and forks == []
    assert any(key.startswith("_") for key in full) == sampled
    public = {key: value for key, value in full.items() if not key.startswith("_")}
    assert json.dumps(report, sort_keys=True) == json.dumps(public, sort_keys=True)
    assert code == (0 if full["all_bounds_satisfied"] else 1)
    assert (out / "report.json").read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    # run without out_dir: the same report, no directory, no fork
    again, again_code = run(RunConfig(**settings))
    assert json.dumps(again, sort_keys=True) == json.dumps(report, sort_keys=True) and again_code == code
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"] and forks == []


def test_verify_takes_no_out(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
