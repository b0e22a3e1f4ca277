"""The writer process of ``runner.run``: all or nothing, and no process left."""

import os

import pytest

import probsens as ps
from probsens import _floatfmt, runner
from probsens.cli import main
from probsens.runner import RunConfig, run

_OLD = {"curve.csv": b"old curve\n", "density.csv": b"old density\n", "notes.txt": b"kept\n"}


def _listing(directory) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def test_a_run_that_fails_after_the_writer_started_leaves_out_dir_as_it_was(tmp_path, monkeypatch, forks):
    for name, data in _OLD.items():
        (tmp_path / name).write_bytes(data)
    calls = []
    real_evaluate = runner.evaluate_outputs

    def failing_evaluate(h, draws):
        # the base batch's map succeeds; the first shifted batch's fails
        calls.append(len(draws))
        if len(calls) == 2:
            raise ps.EvaluationError("shifted forward map failed")
        return real_evaluate(h, draws)

    monkeypatch.setattr(runner, "evaluate_outputs", failing_evaluate)
    with pytest.raises(ps.EvaluationError, match="shifted forward map failed"):
        run(RunConfig(case="identity", n_samples=2000, out_dir=str(tmp_path)))
    assert len(forks) == 1 and len(calls) == 2
    assert _listing(tmp_path) == _OLD
    _no_child_left()
    # a directory the run made is gone again
    calls.clear()
    made = tmp_path / "made" / "out"
    with pytest.raises(ps.EvaluationError):
        run(RunConfig(case="identity", n_samples=2000, out_dir=str(made)))
    assert not (tmp_path / "made").exists()
    _no_child_left()


@pytest.mark.parametrize("in_process", [False, True])
def test_a_writer_that_fails_raises_oserror_and_writes_nothing(tmp_path, monkeypatch, capsys, forks, in_process):
    if in_process:
        monkeypatch.delattr(os, "fork")
    for name, data in _OLD.items():
        (tmp_path / name).write_bytes(data)

    def broken_lines(*args, **kwargs):
        raise RuntimeError("formatter broke")

    monkeypatch.setattr(_floatfmt, "lines", broken_lines)
    config = RunConfig(case="identity", n_samples=2000, out_dir=str(tmp_path))
    with pytest.raises(OSError, match="RuntimeError: formatter broke"):
        run(config)
    assert len(forks) == (0 if in_process else 1)
    assert _listing(tmp_path) == _OLD
    _no_child_left()
    # through the command line: exit 2, one error line, no traceback
    with pytest.raises(SystemExit) as exc:
        main(["run", "--case", "identity", "--samples", "2000", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert line.endswith("writing the CSV files failed: RuntimeError: formatter broke")
    assert "Traceback" not in err
    assert _listing(tmp_path) == _OLD
    _no_child_left()


@pytest.mark.parametrize(
    "settings",
    [
        {"case": "identity", "n_samples": 2000},
        {"case": "beam", "n_samples": 1000, "perturbation_scale": 0.2, "percentiles": [10.0, 50.0, 90.0]},
    ],
)
def test_the_writer_in_this_process_writes_the_same_bytes(tmp_path, monkeypatch, forks, settings):
    forked, here = tmp_path / "forked", tmp_path / "here"
    report, code = run(RunConfig(**settings, out_dir=str(forked)))
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    assert run(RunConfig(**settings, out_dir=str(here))) == (report, code)
    assert sorted(_listing(forked)) == ["curve.csv", "density.csv", "report.json"]
    assert _listing(here) == _listing(forked)


def test_the_oracle_forks_nothing(tmp_path, forks):
    report, code = run(RunConfig(case="discrete-oracle", out_dir=str(tmp_path)))
    assert code == 0 and forks == []
    assert sorted(_listing(tmp_path)) == ["report.json"]
