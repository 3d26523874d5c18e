"""Command-line entry point: one subcommand per experiment kind.

Exit codes: 0 success, 2 configuration validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# One BLAS thread unless the environment sets a count: the CLI's parallelism is
# --workers.  OpenBLAS reads these when numpy loads, and `cvsym` loads no numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .config import EXPERIMENT_KINDS, load_config  # noqa: E402
from .errors import ConfigError  # noqa: E402
from .report import emit  # noqa: E402
from .runner import run  # noqa: E402


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cvsym",
        description="Monte Carlo experiments on phase-space symmetrized QKD data")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        cmd = sub.add_parser(kind, help=f"run a {kind} experiment")
        cmd.add_argument("--config", required=True, help="path to the JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config's master seed")
        cmd.add_argument("--out", default=None, help="override the config's output directory")
        cmd.add_argument("--workers", type=int, default=1, help="worker threads (results identical for any count)")
        cmd.add_argument("--format", choices=("json", "csv", "both"), default="both",
                         help="which report files to write")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = args.out
        if config.kind != args.command:
            raise ConfigError([("kind", f"config is {config.kind!r} but the "
                                        f"{args.command!r} subcommand was invoked")])
        config.validate()
        if args.workers < 1:
            raise ConfigError([("workers", "must be >= 1")])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config, workers=args.workers)
        formats = ("json", "csv") if args.format == "both" else (args.format,)
        written = emit(report, config.out_dir, formats=formats)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
