"""Compare the output files of two source trees of probsens, run for run.

Usage: python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--jobs N]

OLD_SRC and NEW_SRC are directories that hold the ``probsens`` package,
such as the ``src`` directory of two checkouts.  For each tree,
``probsens run`` runs in a subprocess of its own for every case of
``CASES`` (the shipped case studies at their defaults and at the
perfbench workloads' settings) and at each seed of ``SEEDS``, writing
its files to a temporary directory.

For each run it prints both exit codes and, for each file, whether the two
trees wrote the same bytes.  For a CSV file that differs it prints two
figures for each column: the largest relative difference per value,
|a - b| / max(|a|, |b|), and the largest |a - b| relative to the column's
largest |value| in either file, which stays small where values near zero
move by a large share of themselves.  For report.json it prints the
largest relative difference among its numbers and how many of its
true/false values (each certified bound's verdict) differ.  The last line
counts the runs whose files and exit codes all match; the exit status is 0
when all do and 1 otherwise.

Every subprocess runs with one BLAS thread; ``--jobs`` runs that many
subprocesses at once (default 1).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CASES = {
    "identity": {"case": "identity"},
    "identity-h0.04": {"case": "identity", "bandwidth": [0.04]},
    "sho": {"case": "sho"},
    "beam-2000": {"case": "beam", "n_samples": 2000, "perturbation_scale": 0.2},
    "beam": {"case": "beam"},
    "oracle": {"case": "discrete-oracle"},
    "oracle-9": {"case": "discrete-oracle", "oracle": {"n_trials": 9}},
}
SEEDS = (1, 7, 5150)
FILES = ("curve.csv", "density.csv", "report.json")


def _run(src: Path, case: str, seed: int, out: Path) -> int:
    """One ``probsens run`` of ``case`` from the tree ``src``; its exit code."""
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(CASES[case]))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "probsens.cli", "run", "--config", str(config)]
    argv += ["--seed", str(seed), "--out", str(out)]
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |a - b| / max(|a|, |b|); 0 where both are equal, NaN included."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.where(same, 0.0, rel), initial=0.0))


def _peak_relative(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |a - b| over the largest |value| in a or b; 0 where both are equal, NaN included."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.max(np.where(same, 0.0, np.abs(a - b)), initial=0.0)
    return float(diff / np.max(np.abs(np.nan_to_num(np.concatenate([a, b]))))) if diff else 0.0


def _csv_difference(old: Path, new: Path) -> str:
    header = old.read_text().split("\n", 1)[0].split(",")
    a = np.loadtxt(old, delimiter=",", skiprows=1, ndmin=2)
    b = np.loadtxt(new, delimiter=",", skiprows=1, ndmin=2)
    if a.shape != b.shape:
        return f"shapes {a.shape} and {b.shape}"
    return ", ".join(
        f"{name} {_relative(a[:, j], b[:, j]):.3g} / {_peak_relative(a[:, j], b[:, j]):.3g}" for j, name in enumerate(header)
    )


def _leaves(value):
    """The numbers and the true/false values of a JSON document, in order."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, (bool, int, float)):
        yield value


def _json_difference(old: Path, new: Path) -> str:
    a, b = (list(_leaves(json.loads(p.read_text()))) for p in (old, new))
    if len(a) != len(b):
        return f"{len(a)} and {len(b)} values"
    flags = [(x, y) for x, y in zip(a, b) if isinstance(x, bool) or isinstance(y, bool)]
    numbers = np.array([(x, y) for x, y in zip(a, b) if not (isinstance(x, bool) or isinstance(y, bool))], dtype=float)
    rel = _relative(numbers[:, 0], numbers[:, 1]) if numbers.size else 0.0
    return f"numbers {rel:.3g}, {sum(x != y for x, y in flags)} of {len(flags)} true/false values differ"


def _differing_files(a: Path, b: Path) -> list[str]:
    """The names of the files that only one of two output directories has, or that differ."""
    return [
        name
        for name in FILES
        if (a / name).exists() != (b / name).exists()
        or (a / name).exists() and (a / name).read_bytes() != (b / name).read_bytes()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for tree in trees.values():
        if not (tree / "probsens" / "__init__.py").is_file():
            parser.error(f"{tree} holds no probsens package")
    runs = list(itertools.product(CASES, SEEDS))

    with tempfile.TemporaryDirectory() as tmp:

        def out(tree, case, seed):
            return Path(tmp) / tree / f"{case}-s{seed}"

        with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
            futures = {
                (tree, *run): pool.submit(_run, src, *run, out(tree, *run))
                for tree, src in trees.items()
                for run in runs
            }
            codes = {key: future.result() for key, future in futures.items()}

        matching = 0
        for case, seed in runs:
            old, new = out("old", case, seed), out("new", case, seed)
            code_old, code_new = codes["old", case, seed], codes["new", case, seed]
            differ = _differing_files(old, new)
            matching += code_old == code_new and not differ
            same = "same" if code_old == code_new else "DIFFER"
            print(f"{case} seed {seed}: exit {code_old} | {code_new} ({same})")
            for name in FILES:
                if not (old / name).exists() and not (new / name).exists():
                    continue
                if name not in differ:
                    print(f"  {name}: same bytes")
                elif not ((old / name).exists() and (new / name).exists()):
                    print(f"  {name}: written by one tree only")
                elif name.endswith(".csv"):
                    columns = _csv_difference(old / name, new / name)
                    print(f"  {name}: bytes differ; largest difference per column, relative per value / to its peak: {columns}")
                else:
                    print(f"  {name}: bytes differ; {_json_difference(old / name, new / name)}")
    print(f"{matching} of {len(runs)} runs wrote the same bytes with the same exit code in both trees")
    return 0 if matching == len(runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
