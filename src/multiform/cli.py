"""Command-line scenario runner.

    multiform verify <scenario> [--config PATH] [--seed U64] [--points N]
                                [--lattice N] [--out PATH] [--json]
    multiform list [--json]

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error (including
an unknown scenario), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .scenarios import ConfigError, ScenarioConfig, list_scenarios, run_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiform",
        description="verification scenarios for the multiform calculus library",
    )
    parser.add_argument("--version", action="version", version=f"multiform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one named verification scenario")
    verify.add_argument("scenario", help="scenario name (see `multiform list`)")
    verify.add_argument("--config", help="JSON config file; flags override its fields")
    verify.add_argument("--seed", type=int, help=f"RNG seed (default {ScenarioConfig.seed})")
    verify.add_argument(
        "--points", type=int, help=f"sample point count (default {ScenarioConfig.points})"
    )
    verify.add_argument(
        "--lattice", type=int, help=f"lattice sites per axis (default {ScenarioConfig.lattice_n})"
    )
    verify.add_argument("--out", help="write the JSON report to this path")
    verify.add_argument("--json", action="store_true", help="print the JSON report to stdout")

    lst = sub.add_parser("list", help="list scenarios")
    lst.add_argument("--json", action="store_true", help="machine-readable listing")
    return parser


# the scenario is named on the command line only
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "scenario")


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        allowed = ", ".join(_CONFIG_KEYS)
        raise ValueError(f"unknown key(s) {', '.join(unknown)}; allowed: {allowed}")
    return data


def _make_config(args: argparse.Namespace) -> ScenarioConfig:
    raw = _load_config_file(args.config) if args.config else {}
    flags = {"seed": args.seed, "points": args.points, "lattice_n": args.lattice, "out": args.out}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    return ScenarioConfig(args.scenario, **raw)


def _cmd_list(args: argparse.Namespace) -> int:
    rows = list_scenarios()
    if args.json:
        payload = [{"name": n, "description": d} for n, d in rows]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        width = max(len(n) for n, _ in rows)
        for name, desc in rows:
            print(f"{name:<{width}}  {desc}")
    return EXIT_PASS


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = _make_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg.validate()
    except KeyError:
        names = ", ".join(name for name, _ in list_scenarios())
        print(
            f"error: unknown scenario {cfg.scenario!r}; choose from: {names}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run_scenario(cfg)
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.json:
        sys.stdout.write(report.to_json())
    else:
        for c in report.checks:
            mark = "PASS" if c.passed else "FAIL"
            print(
                f"{mark}  {c.name:<36} max={c.max_residual:.3e}  "
                f"tol={c.tolerance:.1e}  ({c.seconds:.2f}s)"
            )
        n_ok = sum(1 for c in report.checks if c.passed)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status}: {n_ok}/{len(report.checks)} checks "
            f"(scenario={cfg.scenario}, seed={cfg.seed})"
        )
    return EXIT_PASS if report.passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors
        return int(exc.code or 0)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
