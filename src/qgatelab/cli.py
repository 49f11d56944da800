"""Command-line driver: run verification suites and write deterministic reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 configuration
problem (bad flags, unreadable or invalid config file, q values or psi grids
whose brackets or amplitude products overflow double precision, psi grids whose
amplitude products underflow it, a cutoff whose matrices do not fit in memory),
3 output I/O failure.  `qgatelab diff A B` compares two reports instead (qgatelab.reportdiff):
0 when they are the same, 1 when they differ, 2 on unreadable or invalid input.
The QGATELAB_OUT_DIR environment variable redirects the report into that
directory (keeping the configured file name).
"""

import argparse
import functools
import gc
import json
import os
import sys

from .qdeform import OperatorConvention
from .report import serialize_report
from .schwinger import ExponentConvention
from .suites import RunConfig, run_suites

# A command-line process is short-lived, and every object tracked by now (numpy's, the
# standard library's and the package's import-time objects) lives until exit.  Moving them
# into the permanent generation keeps later collections, and the ones the interpreter runs
# at exit, from scanning them again.  `import qgatelab` alone keeps a normal collector.
gc.freeze()

__all__ = ["build_parser", "main"]

ENV_OUT_DIR = "QGATELAB_OUT_DIR"

# command -> (suite it runs, help text)
_COMMANDS = {
    "verify-algebra": ("algebra", "check the deformed ladder-operator relations"),
    "verify-gates": ("gates", "check gate tables, involutions and deformed closures"),
    "discover": ("constraints", "sweep psi grids and score the claimed parameter constraints"),
    "limit-study": ("limits", "study the q -> 1 classical limit"),
    "all": ("all", "run every suite"),
}

# the subcommand picks the suite, so a config file sets every other RunConfig field
_CONFIG_KEYS = set(RunConfig.__slots__) - {"suite"}

_OPERATOR_TOKENS = tuple(convention.value for convention in OperatorConvention)
_EXPONENT_TOKENS = tuple(convention.value for convention in ExponentConvention)


class ConfigError(Exception):
    pass


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags override its keys")
    parser.add_argument("--q", metavar="LIST", help="comma-separated q values, e.g. 0.5,2")
    parser.add_argument("--cutoff", metavar="N", help="mode truncation for algebra and limit checks")
    parser.add_argument("--psi", metavar="LIST", help="comma-separated psi grid for the constraint sweep")
    parser.add_argument(
        "--convention",
        metavar="TOKENS",
        help=f"comma-separated tokens from {'|'.join(_OPERATOR_TOKENS)} and {'|'.join(_EXPONENT_TOKENS)}",
    )
    parser.add_argument("--out", metavar="PATH", help="report path (default report.<format>)")
    parser.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
    parser.add_argument("--threshold", metavar="X", help="identity-check threshold (default 1e-12)")
    parser.add_argument(
        "--limit-threshold", metavar="X", help="limit-comparison threshold (default 1e-6)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgatelab",
        description="Verify deformed oscillator relations and the qubit gates built from them.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (_, text) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=text, description=text)
        _add_common_flags(sub)
    text = "list what changed between two reports, check by check"
    sub = subparsers.add_parser("diff", help=text, description=text)
    sub.add_argument("first", metavar="A", help="the report to compare from (JSON or CSV)")
    sub.add_argument("second", metavar="B", help="the report to compare with (JSON or CSV)")
    sub.add_argument("--tolerance", metavar="X", default="0", help="list float deltas above X only (default 0)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads every argv with, built once per process."""
    return build_parser()


def _parse_floats(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}") from None
    if not values:
        raise ConfigError(f"{flag} expects at least one number")
    return values


def _parse_float(text: str, flag: str) -> float:
    values = _parse_floats(text, flag)
    if len(values) != 1:
        raise ConfigError(f"{flag} expects one number, got {text!r}")
    return values[0]


def _parse_convention(text: str) -> dict:
    settings = {}
    for token in (part.strip() for part in text.split(",")):
        if not token:
            continue
        if token in _OPERATOR_TOKENS:
            settings["operator"] = token
        elif token in _EXPONENT_TOKENS:
            settings["exponent"] = token
        else:
            raise ConfigError(
                f"unknown convention token {token!r}; expected one of "
                f"{', '.join(_OPERATOR_TOKENS + _EXPONENT_TOKENS)}"
            )
    return settings


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {', '.join(sorted(unknown))}")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, then flags into a validated RunConfig."""
    settings = {"suite": _COMMANDS[args.command][0]}
    if args.config:
        settings.update(_load_config_file(args.config))
    if args.q is not None:
        settings["q_values"] = _parse_floats(args.q, "--q")
    if args.cutoff is not None:
        try:
            settings["cutoff"] = int(args.cutoff)
        except ValueError:
            raise ConfigError(f"--cutoff expects an integer, got {args.cutoff!r}") from None
    if args.psi is not None:
        settings["psi_grid"] = _parse_floats(args.psi, "--psi")
    if args.convention is not None:
        settings.update(_parse_convention(args.convention))
    if args.out is not None:
        settings["out"] = args.out
    if args.format is not None:
        settings["format"] = args.format
    if args.threshold is not None:
        settings["identity_threshold"] = _parse_float(args.threshold, "--threshold")
    if args.limit_threshold is not None:
        settings["limit_threshold"] = _parse_float(args.limit_threshold, "--limit-threshold")
    try:
        return RunConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _value_list(values) -> str:
    return ",".join(repr(value) for value in values)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "diff":
        from .reportdiff import diff_main

        return diff_main(args.first, args.second, args.tolerance)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"qgatelab: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_suites(cfg)
    except OverflowError as exc:
        culprits, advice = [], ["q values closer to 1"]
        if cfg.suite != "limits":
            culprits.append(f"q values {_value_list(cfg.q_values)}")
        if cfg.suite in ("constraints", "all"):
            culprits.append(f"psi grid {_value_list(cfg.psi_grid)}")
            advice.append("smaller psi values")
        if cfg.suite in ("limits", "all"):
            culprits.append(f"limit q values {_value_list(cfg.limit_q)}")
        if cfg.suite in ("algebra", "limits", "all"):
            # the ladder suites also raise fixed q values, such as the number shift's e**2, to the cutoff
            culprits.append(f"cutoff {cfg.cutoff}")
            advice.append("a smaller cutoff")
        reason = exc.args[-1] if exc.args else "overflow"
        print(
            f"qgatelab: configuration error: {' or '.join(culprits)} overflow "
            f"double-precision arithmetic ({reason}); use {' or '.join(advice)}",
            file=sys.stderr,
        )
        return 2
    except FloatingPointError as exc:
        print(
            f"qgatelab: configuration error: psi grid {_value_list(cfg.psi_grid)} underflows "
            f"double-precision arithmetic ({exc}); use larger psi values",
            file=sys.stderr,
        )
        return 2
    except MemoryError:
        print(
            f"qgatelab: configuration error: cutoff {cfg.cutoff} needs more memory than is "
            "available for its dense mode matrices; use a smaller cutoff",
            file=sys.stderr,
        )
        return 2
    payload = serialize_report(report, cfg.format)

    out_path = cfg.out if cfg.out else f"report.{cfg.format}"
    env_dir = os.environ.get(ENV_OUT_DIR)
    if env_dir:
        out_path = os.path.join(env_dir, os.path.basename(out_path))
    try:
        with open(out_path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"qgatelab: cannot write report to {out_path}: {exc}", file=sys.stderr)
        return 3

    summary = report.summary()
    print(f"{summary['passed']}/{summary['total']} checks passed -> {out_path}")
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
