"""Command-line entry point: run, verify, print-config."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, ProbsensError
from .runner import CASES, RunConfig, run, verify


def _load_config(args, **defaults) -> RunConfig:
    """The config file's values over ``defaults``, then the flags over both."""
    data = {}
    if args.config:
        with open(args.config, "rb") as fh:
            raw = fh.read()
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    data = {**defaults, **data}
    if args.case:
        data["case"] = args.case
    if args.seed is not None:
        data["seed"] = args.seed
    if args.samples is not None:
        data["n_samples"] = args.samples
    if args.out is not None:
        data["out_dir"] = args.out
    return RunConfig.from_dict(data)


def _violations(report: dict) -> list[str]:
    """One line per violated bound of a run's report, from the fields it holds."""
    if report["case"] == "discrete-oracle":
        return [
            f"discrete simplex oracle: {report['violations']} of {report['instances']} instances violated, "
            f"worst margin {report['worst_margin']:.6g}"
        ]
    lines = [
        f"|grad|^2 <= tr(F_y) at percentile {row['percentile']:g} (z={row['z']:.6g}): margin {row['margin']:.6g}"
        for row in report["rows"]
        if not row["norm_le_tr_fy"]
    ]
    info = report["info_processing"]
    if not info["satisfied"]:
        lines.append(f"tr(F_y) <= tr(F_x): {info['lhs']:.6g} > {info['rhs']:.6g}, margin {info['margin']:.6g}")
    for pert in report["perturbations"]:
        if pert["violations_fx"] or pert["violations_fy"]:
            db = " ".join(f"{name}={v:+.6g}" for name, v in zip(report["param_names"], pert["db"]) if v)
            lines.append(
                f"|dP_f|^2 <= db^T F db at db {db}: {pert['violations_fx']} threshold(s) violated against F_x, "
                f"{pert['violations_fy']} against F_y, worst margin {pert['worst_margin']:.6g}"
            )
    return lines


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON configuration file")
    p.add_argument("--case", choices=CASES, help="case study to run")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--samples", type=int, metavar="N")
    p.add_argument("--out", metavar="DIR", help="output directory for csv/json files")


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
            # the reduced-scale suite runs at 2e4 samples unless the file or --samples says otherwise
            cfg = _load_config(args, n_samples=20000)
            cases = (cfg.case,) if args.case or args.config else ("identity", "sho")
            return verify(cfg, cases=cases)

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
            for line in _violations(report):
                print(f"BOUND VIOLATION: {line}", file=sys.stderr)
        return code
    except (ProbsensError, OSError) as exc:
        # exit 1 means a violated bound and nothing else
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
