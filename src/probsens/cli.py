"""Command-line entry point: run, verify, print-config."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .runner import CASES, RunConfig, run, verify


def _load_config(args) -> RunConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    if args.case:
        data["case"] = args.case
    if args.seed is not None:
        data["seed"] = args.seed
    if args.samples is not None:
        data["n_samples"] = args.samples
    if args.out is not None:
        data["out_dir"] = args.out
    if args.workers is not None:
        data["workers"] = args.workers
    return RunConfig.from_dict(data)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON configuration file")
    p.add_argument("--case", choices=CASES, help="case study to run")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--samples", type=int, metavar="N")
    p.add_argument("--out", metavar="DIR", help="output directory for csv/json files")
    p.add_argument("--workers", type=int, metavar="N")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="probsens",
        description="Failure-probability sensitivities with certified information bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a case study end to end and certify all bounds")
    _add_common(p_run)

    p_verify = sub.add_parser("verify", help="run the reduced-scale invariant suite")
    _add_common(p_verify)

    p_print = sub.add_parser("print-config", help="dump the default configuration for a case")
    _add_common(p_print)

    args = parser.parse_args(argv)

    try:
        if args.command == "print-config":
            print(json.dumps(_load_config(args).to_dict(), indent=2, sort_keys=True))
            return 0

        if args.command == "verify":
            cfg = _load_config(args)
            n = args.samples or 20000
            if args.case or args.config:
                # theorem/oracle suites always run; for discrete-oracle they
                # are the whole job and no sampled case is needed
                cases = () if cfg.case == "discrete-oracle" else (cfg.case,)
            else:
                cases = ("identity", "sho")
            return verify(n_samples=n, seed=cfg.seed, cases=cases)

        cfg = _load_config(args)
        report, code = run(cfg)
        n_thresh = len(report.get("rows", []))
        print(
            f"case={report['case']} bounds_satisfied={report['all_bounds_satisfied']}"
            + (f" thresholds={n_thresh}" if n_thresh else "")
            + (f" tr_fy={report['tr_fy']:.6g} tr_fx={report['tr_fx']:.6g}" if "tr_fy" in report else "")
        )
        if cfg.out_dir:
            print(f"outputs written to {cfg.out_dir}")
        if code != 0:
            print("BOUND VIOLATION: see report.json for details", file=sys.stderr)
        return code
    except ConfigError as exc:
        parser.error(str(exc))  # exits 2
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
