"""Command-line entry point.

Subcommands:
  run <config>      advance a configured problem and write CSV artifacts
  preset --list     list the built-in problem presets
  preset <name>     print the full key = value form of a preset
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, config_from_dict, parse_config_raw, serialize_config
from .driver import run as run_problem
from .presets import list_presets, preset

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kepes",
        description="1-D compressible-flow laboratory with kinetic-energy "
                    "preserving and entropy-stable fluxes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a problem from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--output-dir", default="out",
                       help="directory for snapshots, budget.csv, metrics.txt")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p_preset = sub.add_parser("preset", help="inspect the built-in presets")
    p_preset.add_argument("name", nargs="?", help="preset to print")
    p_preset.add_argument("--list", action="store_true", dest="list_all",
                          help="list available preset names")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_config_raw(fh.read())
        for item in args.override:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"override needs KEY=VALUE, got {item!r}")
            raw[key.strip()] = value.strip()
        config = config_from_dict(raw)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = run_problem(config, args.output_dir)
    print(f"{config.name}: {result.message} "
          f"(t={result.final_time:.6g}, steps={result.steps}, "
          f"reason={result.reason})")
    if result.status == 0:
        print(f"artifacts in {result.output_dir}")
    else:
        print(f"error: {result.message}", file=sys.stderr)
    return result.status


def _cmd_preset(args) -> int:
    if args.list_all or args.name is None:
        for name in list_presets():
            print(name)
        return 0
    try:
        print(serialize_config(preset(args.name)), end="")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_preset(args)


if __name__ == "__main__":
    sys.exit(main())
