"""Benchmark operations: probsens runs of one workload, each in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR
       (--setup-only | --seconds S [--trace])

The worker imports probsens and builds the run config once; that is its
set-up time, and with ``--setup-only`` it prints only that.  Otherwise it
forks one child per operation, in whole rounds until S seconds have
passed.  Each child has imported probsens but never run a case, as a
``probsens run`` process is after its set-up: it times
``probsens.runner.run`` until the report files are written, reads its
peak resident memory, checks the written files and sends the result back
through a pipe.  A round is one untraced operation, or with ``--trace``
one untraced and one traced operation; a traced child wraps the runner's
layers first.  The last line of standard output is one JSON object with
the set-up time and every operation's result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

# probsens run configurations, without seed and output directory.  The
# identity kernel width and the beam perturbation scale differ from the
# defaults so that every bound passes on every seed (see README.md).
WORKLOADS = {
    "identity": {"case": "identity", "bandwidth": [0.04]},
    "beam": {"case": "beam", "n_samples": 2000, "perturbation_scale": 0.2},
    "oracle": {"case": "discrete-oracle", "oracle": {"n_trials": 9}},
}

# Rows of the beam batch whose forward map is recomputed by the direct sum.
BEAM_CHECK_ROWS = (0, 1, 2, -1)


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _check(workload: str, config, out_dir: str) -> list[str]:
    import checks
    from probsens import runner
    from probsens.distributions import sample

    with open(os.path.join(out_dir, "report.json")) as fh:
        written = json.load(fh)
    if workload == "oracle":
        return checks.check_oracle(written)
    curve = checks.read_curve(os.path.join(out_dir, "curve.csv"))
    if workload == "identity":
        return checks.check_identity(curve, written)
    case = runner.build_case(config)
    draws = sample(case.model, config.n_samples, config.seed).draws[list(BEAM_CHECK_ROWS)]
    return checks.check_bound_chain(curve, written) + checks.check_beam_forward(draws, case.h(draws))


def _operation(workload: str, config, traced: bool) -> dict:
    """One run in this (forked) process, then the checks of its files."""
    from probsens import runner

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install(runner)
    t1 = time.perf_counter()
    _, code = runner.run(config)
    result = {"run_s": time.perf_counter() - t1}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = _os_threads()
    result["exit_code"] = code
    if tracer is not None:
        import spans

        layers = tracer.layer_metrics()
        result["layers"] = {name: read(layers) for name, _, read in spans.METRICS}
        result["absent"] = tracer.absent
        result["spans"] = [dict(s, start=s["start"] - t1, end=s["end"] - t1) for s in tracer.spans]
    result["check_failures"] = _check(workload, config, config.out_dir) if code == 0 else []
    return result


def _forked_operation(workload: str, config, traced: bool) -> dict:
    # Forking is safe here: with one BLAS thread the worker runs no other
    # thread (each operation records its process's thread count).
    shutil.rmtree(config.out_dir, ignore_errors=True)
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(_operation(workload, config, traced)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        except BaseException:  # the child must never return into the worker's loop
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        print(f"perfbench: operation process ended with status {status}", file=sys.stderr)
        return {"crashed": True}
    return json.loads(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from probsens import runner

    config = runner.RunConfig.from_dict(
        dict(WORKLOADS[args.workload], seed=args.seed, out_dir=args.out)
    )
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = []
    rounds = (False, True) if args.trace else (False,)
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in rounds:
            ops.append(dict(_forked_operation(args.workload, config, traced), traced=traced))
        if time.perf_counter() >= deadline:
            break
    shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "ops": ops}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
