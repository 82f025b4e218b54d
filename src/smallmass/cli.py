"""Command line entry points.

Every subcommand but `selftest` takes --config/--seed/--out/--paths/--jobs,
validates the configuration strictly (exit 2), and writes its artifacts under
the output directory, which the first artifact written makes: a run that fails
at set-up leaves none.  Failures exit nonzero with a JSON error on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import runner
from .config import ConfigError, config_hash, load_config, validate_config
from .selftest import format_results, run_selftest

_SUBCOMMANDS = {
    "simulate-wave": runner.run_simulate_wave,
    "simulate-limit": runner.run_simulate_limit,
    "converge": runner.run_converge,
    "drift-ablation": runner.run_drift_ablation,
    "resolvent-audit": runner.run_resolvent_audit,
    "scaling-audit": runner.run_scaling_audit,
    "lyapunov": runner.run_lyapunov,
    "fd-converge": runner.run_fd_converge,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallmass",
        description="Small-mass limit studies for damped stochastic wave equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("selftest")
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--paths", type=int, default=None, help="override the path count")
        p.add_argument("--jobs", type=int, default=None, help="worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            checks = run_selftest()
            print(format_results(checks))
            return 0 if all(ok for _, ok, _ in checks) else 1
        flags = {"seed": args.seed, "paths": args.paths, "jobs": args.jobs}
        overrides = {key: value for key, value in flags.items() if value is not None}
        cfg = load_config(args.config, overrides) if args.config else validate_config(overrides)
        out_dir = args.out
        result = _SUBCOMMANDS[args.command](cfg, out_dir)
        print(
            json.dumps(
                {
                    "command": args.command,
                    "ok": result["ok"],
                    "config_sha256": config_hash(cfg),
                    "out": str(out_dir),
                },
                indent=2,
            )
        )
        return 0 if result["ok"] else 1
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        _emit_error(type(exc).__name__, exc)
        return 1


def _emit_error(kind: str, exc: Exception) -> None:
    json.dump({"error": {"type": kind, "message": str(exc)}}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
