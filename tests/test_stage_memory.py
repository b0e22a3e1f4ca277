"""Smoke test of ``tools/stage_memory.py``, the per-stage memory tracer."""

import importlib.util
from pathlib import Path

from probsens import runner

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_memory.py"


def _load():
    spec = importlib.util.spec_from_file_location("stage_memory", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_memory_traces_every_runner_call(capsys):
    tool = _load()
    assert set(tool.workloads()) == {"identity", "beam", "oracle"}
    originals = dict(vars(runner))
    config = runner.RunConfig(case="identity", n_samples=2000, bandwidth=[0.04])
    tracer = tool.trace_run(config)
    assert all(vars(runner)[name] is fn for name, fn in originals.items())

    names = [call["name"] for call in tracer.calls]
    for name in ("run_case", "sample", "evaluate_outputs", "sensitivity_curve", "estimate_output_density"):
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

    assert tool.main(["identity", "--seed", "1", "--samples", "2000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:5] == ["call", "before", "peak", "after", "faults"]
    fd_line = next(line for line in out if line.startswith("    estimate_gradient_fd"))
    # three traced MB figures, then a whole number of faults
    *mbs, faults = fd_line.split()[1:]
    assert len(mbs) == 3 and all(float(v) >= 0.0 for v in mbs) and int(faults) >= 0
    peak, faults = out[-1].split(", ")
    assert peak.startswith("run peak ") and peak.endswith(" MB")
    assert faults.endswith(" minor faults") and int(faults.split()[0]) > 0
