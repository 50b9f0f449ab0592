"""Command-line entry point: run scenarios, refinement studies, list models."""

import argparse
import json
import sys

from .errors import ConfigError, SimulationError
from .sim_harness import ScenarioConfig, convergence_study, list_scenarios, run_scenario


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gstrand",
        description="Strand PDE simulation harness: SO(3) chiral/spin-chain "
        "models and the peakon system, with residual diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one scenario and write its outputs")
    run_p.add_argument("--config", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None, help="override the configured output directory")

    conv_p = sub.add_parser("converge", help="joint (ds, dt) refinement study")
    conv_p.add_argument("--config", required=True, help="path to a scenario JSON file")
    conv_p.add_argument(
        "--levels", required=True, type=int, help="number of refinement levels (at least 3)"
    )

    sub.add_parser("list-scenarios", help="print the registered models")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = ScenarioConfig.from_file(args.config)
            report = run_scenario(cfg, out_dir=args.out, keep_snapshots=False)
            summary = report.summary()
            print(
                f"model {summary['model']}: {summary['status']} "
                f"after {summary['n_steps']} steps"
            )
            for name, entry in summary["diagnostics"].items():
                print(f"  {name}: max {entry['max']:.6e}")
            for key, val in summary.get("reference_error", {}).items():
                print(f"  {key}: {val:.6e}")
            target = args.out if args.out is not None else cfg.directory
            if target is not None:
                print(f"wrote {target}")
        elif args.command == "converge":
            cfg = ScenarioConfig.from_file(args.config)
            study = convergence_study(cfg, args.levels)
            print(json.dumps(study, indent=2, sort_keys=True))
        else:
            for name, description in list_scenarios():
                print(f"{name}: {description}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
