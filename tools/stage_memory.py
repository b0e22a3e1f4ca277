"""Traced memory of each stage of one perfbench workload run.

Usage: python3 tools/stage_memory.py WORKLOAD [--seed N] [--samples N]

Runs the stages of ``probsens.runner.run`` once, in this process, on the
configuration of a perfbench workload (``WORKLOADS`` in
``perfbench/worker.py``, read, not edited): the base stage, the CSV
writer into a temporary directory, then the perturbation stage; the oracle
is one ``run_case``.  ``run`` itself hands the CSV files to a forked writer
process, whose figures would leave with it, so the tool calls the same
writer here instead and writes no report.json.  The stages, and every
function that they and ``_fd_check`` look up by name in
``probsens.runner``, are wrapped first, so the stages run unmodified and
call the wrappers.  Under ``tracemalloc`` each call prints, indented by
its nesting depth, the traced memory before it, at its peak and after it,
in MB, and the minor page faults the process took during it
(``ru_minflt`` of ``getrusage(RUSAGE_SELF)``, nested calls included): each
is one new page written, which a fresh process pays for and a warm one may
not.  The last line is the whole run's peak and faults.  tracemalloc's own
tables add pages of their own, so both figures compare two checkouts run
alike and are not those of an untraced run.  Import ``probsens`` from the
checkout to measure, e.g. ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import inspect
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

from probsens import runner

_WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
# the stages the tool calls, wrapped with every function they look up
_STAGES = ("run_case", "_base_stage", "_write_tables", "_perturbation_stage")
_CALLERS = (*_STAGES, "_fd_check")


def workloads(path: Path = _WORKER) -> dict:
    """The perfbench workload configurations, by name."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class StageTracer:
    """Per-call traced memory and minor page faults of the wrapped functions.

    tracemalloc keeps one peak; every wrapped call's entry and exit folds
    it into each open call and into the run's peak, then resets it, so
    nested calls each see their own peak.
    """

    def __init__(self):
        self.calls: list[dict] = []
        self.run_peak = 0
        self.run_faults = 0
        self._open: list[dict] = []

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for call in self._open:
            call["peak"] = max(call["peak"], peak)
        self.run_peak = max(self.run_peak, peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self._fold()
            call = {"name": name, "depth": len(self._open), "before": before, "peak": before}
            self.calls.append(call)
            self._open.append(call)
            faults = _minor_faults()
            try:
                return fn(*args, **kwargs)
            finally:
                call["faults"] = _minor_faults() - faults
                call["after"] = self._fold()
                self._open.pop()

        return traced

    def install(self, module) -> dict:
        """Wrap the stages and every module-level function the callers look
        up; returns the wrapped functions by name."""
        originals = {
            name: vars(module)[name]
            for caller in _CALLERS
            for name in (caller, *getattr(module, caller).__code__.co_names)
            if inspect.isfunction(vars(module).get(name))
        }
        for name, fn in originals.items():
            setattr(module, name, self.wrap(name, fn))
        return originals


def _run_stages(config: runner.RunConfig, out_dir: Path) -> None:
    """The stages of one ``runner.run``, in its order, in this process."""
    if config.case == "discrete-oracle":
        runner.run_case(config)
        return
    report, base = runner._base_stage(config)
    tables = runner._tables(report)
    runner._write_tables(tables, {name: out_dir / name for name in tables})
    del tables
    runner._perturbation_stage(config, report, base)


def trace_run(config: runner.RunConfig) -> StageTracer:
    """The stages of one run of ``config`` under the tracer, the CSV files
    written to a temporary directory; the runner's names are restored
    afterwards."""
    tracer = StageTracer()
    originals = tracer.install(runner)
    tracemalloc.start()
    faults = _minor_faults()
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            _run_stages(config, Path(out_dir))
        tracer.run_faults = _minor_faults() - faults
        tracer._fold()
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(runner, name, fn)
    return tracer


def main(argv=None) -> int:
    known = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(known))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--samples", type=int, help="override the workload's sample count")
    args = parser.parse_args(argv)
    settings = dict(known[args.workload], seed=args.seed)
    if args.samples is not None:
        settings["n_samples"] = args.samples
    tracer = trace_run(runner.RunConfig.from_dict(settings))
    mb = 1e-6
    print(f"{'call':<40} {'before':>8} {'peak':>8} {'after':>8} {'faults':>8}   (traced MB, minor faults)")
    for call in tracer.calls:
        name = "  " * call["depth"] + call["name"]
        mbs = " ".join(f"{call[key] * mb:8.2f}" for key in ("before", "peak", "after"))
        print(f"{name:<40} {mbs} {call['faults']:8d}")
    print(f"run peak {tracer.run_peak * mb:.2f} MB, {tracer.run_faults} minor faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
