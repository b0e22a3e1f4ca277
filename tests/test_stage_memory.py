"""Smoke test of ``tools/stage_memory.py``, the per-stage memory tracer."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from probsens import runner

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "stage_memory.py"


def _load():
    spec = importlib.util.spec_from_file_location("stage_memory", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_memory_traces_every_runner_call():
    tool = _load()
    assert set(tool.workloads()) == {"identity", "beam", "oracle"}
    originals, fork = dict(vars(runner)), os.fork
    config = runner.RunConfig(case="identity", n_samples=2000, bandwidth=[0.04])
    tracer = tool.trace_run(config)
    assert all(vars(runner)[name] is fn for name, fn in originals.items()) and os.fork is fork

    names = [call["name"] for call in tracer.calls]
    # run's call tree: its stages in their order, the CSV writer between
    # them, in this process, then the report's in-memory entries removed
    assert [c["name"] for c in tracer.calls if c["depth"] == 0] == ["_run", "_pop_private"]
    assert [c["name"] for c in tracer.calls if c["depth"] == 1] == [
        "_base_stage", "_tables", "_start", "_perturbation_stage", "_pop_private"
    ]
    writer = names.index("_write_tables")
    assert [(c["name"], c["depth"]) for c in tracer.calls[writer - 2 : writer + 3]] == [
        ("_start", 1), ("_attempt", 2), ("_write_tables", 3), ("_write_csv", 4), ("_write_csv", 4)
    ]
    for name in ("sample", "evaluate_outputs", "sensitivity_curve", "estimate_output_density", "estimate_kl"):
        assert name in names
    fd = names.index("estimate_gradient_fd")
    assert names[fd - 1] == "_fd_check" and tracer.calls[fd]["depth"] == tracer.calls[fd - 1]["depth"] + 1
    # a call's peak and its minor faults count toward every open caller and toward the run
    for i, call in enumerate(tracer.calls):
        assert call["peak"] >= max(call["before"], call["after"])
        assert isinstance(call["faults"], int) and call["faults"] >= 0
        nested = 0
        for inner in tracer.calls[i + 1 :]:
            if inner["depth"] <= call["depth"]:
                break
            assert call["peak"] >= inner["peak"]
            nested += inner["faults"] if inner["depth"] == call["depth"] + 1 else 0
        assert call["faults"] >= nested
    assert tracer.run_peak >= max(c["peak"] for c in tracer.calls)
    assert tracer.run_faults >= sum(c["faults"] for c in tracer.calls if c["depth"] == 0)

    oracle = tool.trace_run(runner.RunConfig(case="discrete-oracle"))
    assert [(c["name"], c["depth"]) for c in oracle.calls] == [
        ("_run", 0),
        ("_run_discrete_oracle", 1),
        ("binomial_family", 2),
        *[("discrete_simplex_oracle", 2)] * 3,
        ("_tables", 1),
        ("_pop_private", 1),
        ("_pop_private", 0),
    ]


def test_stage_memory_restores_the_runner_when_a_stage_raises(monkeypatch):
    tool = _load()

    def failing_stage(*args):
        raise RuntimeError("perturbation stage failed")

    monkeypatch.setattr(runner, "_perturbation_stage", failing_stage)
    originals, fork = dict(vars(runner)), os.fork
    with pytest.raises(RuntimeError, match="perturbation stage failed"):
        tool.trace_run(runner.RunConfig(case="identity", n_samples=2000))
    assert all(vars(runner)[name] is fn for name, fn in originals.items()) and os.fork is fork
    assert not tracemalloc.is_tracing()


def test_stage_memory_prints_each_call_of_a_fresh_run():
    # a fresh process, as the tool is run: a process that has already run
    # cases may reuse every page the run writes and take no fault
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(_TOOL), "identity", "--seed", "1", "--samples", "2000"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0].split()[:5] == ["call", "before", "peak", "after", "faults"]
    # _run, then _base_stage, then _fd_check
    fd_line = next(line for line in out if line.startswith("      estimate_gradient_fd"))
    # three traced MB figures, then a whole number of faults
    *mbs, faults = fd_line.split()[1:]
    assert len(mbs) == 3 and all(float(v) >= 0.0 for v in mbs) and int(faults) >= 0
    # _run, _start, _attempt, _write_tables: the writer ran in this process
    assert sum(line.startswith("        _write_csv ") for line in out) == 2
    peak, faults = out[-1].split(", ")
    assert peak.startswith("run peak ") and peak.endswith(" MB")
    assert faults.endswith(" minor faults") and int(faults.split()[0]) > 0
