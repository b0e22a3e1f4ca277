"""probsens benchmark: time `probsens run` of a shipped case, layer by layer.

Usage, from the root of a probsens checkout:

    python3 perfbench/run.py --workload identity --seed 1 --seconds 30 --trace 0

Every operation is one run of the workload's case in a process of its
own, forked from a worker interpreter that has imported probsens and
runs with one BLAS thread (``perfbench/worker.py``).  It writes its report
files to a scratch directory, and its outputs are then checked apart from
the program (``perfbench/checks.py``).  Operations repeat in whole rounds
until ``--seconds`` have passed.  Set-up time is measured in fresh
interpreters that only import probsens and build the config.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics: the mean ``run_s`` and the median set-up time and peak memory.
With ``--trace 1`` each round is one untraced and one traced operation,
and the last line reports the per-layer metrics of the traced ones plus
the tracing overhead.  Raw per-operation figures go to
``perfbench/results/``, spans to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from worker import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# Fixed so that a run uses one core for BLAS and its figures repeat; the
# default OpenBLAS pool makes wall and CPU time swing by 10% on 2 cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Each run starts one fresh interpreter that only imports probsens and
# builds the config before the operations' worker and one after it, so
# that set-up is sampled at both ends of the run; their set-up times join
# the worker's.  The median absorbs the one slow start of a fresh checkout,
# which compiles byte code.  More probes would not steady it: set-up
# drifts with the machine's speed over minutes, and every probe lengthens
# the run.
# A probe that runs longer than PROBE_TIMEOUT_S is killed, and so is the
# operations' worker once the probe after it could no longer end within
# RUN_LIMIT_S of the start, so that a run ends within three minutes.
PROBE_TIMEOUT_S = 20
RUN_LIMIT_S = 170


def _worker(workload, seed, out_dir, env, timeout, *flags) -> dict | None:
    """Run worker.py in its own process group; kill the group on timeout."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir), *flags]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out after {timeout} s: {cmd}", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None or proc.returncode != 0:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
    sys.stderr.write(err)
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="probsens benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "probsens" / "__init__.py").is_file():
        print(f"perfbench: no probsens sources under {ROOT / 'src'}; run from a probsens checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must lie in [0, 2^64)", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    scratch = BENCH / "results" / f"{args.workload}-{os.getpid()}"
    out_dir = scratch / "out"
    started = time.perf_counter()
    try:
        setups = []

        def probe() -> bool:
            res = _worker(args.workload, args.seed, out_dir, env, PROBE_TIMEOUT_S, "--setup-only")
            if res is not None:
                setups.append(res["setup_s"])
            return res is not None

        if not probe():
            return 1
        flags = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
        worker_limit = RUN_LIMIT_S - PROBE_TIMEOUT_S - (time.perf_counter() - started)
        res = _worker(args.workload, args.seed, out_dir, env, worker_limit, *flags)
        if res is None:
            return 1
        setups.append(res["setup_s"])
        ops = res["ops"]
        if not probe():
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ran = [op for op in ops if not op.get("crashed")]
    done = [op for op in ran if op["exit_code"] == 0]
    failures = [msg for op in done for msg in op["check_failures"]]
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    untraced = [op for op in ran if not op["traced"]]
    traced = [op for op in ran if op["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    # run_s is the mean over the run's operations: the machine's speed
    # drifts in phases of tens of seconds, and the mean weighs the whole
    # run where the median takes the time of one operation in one phase.
    def mean_run_s(sel):
        return statistics.fmean(op["run_s"] for op in sel)

    if args.trace:
        metrics = {
            name: _metric(statistics.median(op["layers"][name] for op in traced), unit)
            for name, unit, _ in spans.METRICS
        }
        metrics["bench.trace_overhead_s"] = _metric(mean_run_s(traced) - mean_run_s(untraced), "s")
        metrics["bench.absent_names"] = _metric(len(traced[0]["absent"]), "count")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "run_s": _metric(mean_run_s(untraced), "s"),
            "peak_rss_mb": _metric(statistics.median(op["peak_rss_mb"] for op in untraced), "MB"),
        }
    result = {"correct": not failures, "attempted": len(ops), "failed": len(ops) - len(done), "metrics": metrics}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": WORKLOADS[args.workload],
        "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "setup_s": setups,
        "ops": [{k: v for k, v in op.items() if k not in ("spans", "layers")} for op in ops],
        "absent": traced[0]["absent"] if traced else [],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / name).write_text(json.dumps(dict(info, result=result), indent=1) + "\n")
    if traced:
        (BENCH / "traces").mkdir(exist_ok=True)
        trace_file = BENCH / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([{"op": i, "spans": op["spans"]} for i, op in enumerate(traced)]) + "\n")
    print(json.dumps({k: v for k, v in info.items() if k != "ops"}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
