"""Command-line interface: run suites, explain recorded checks, list suites."""

import argparse
import os
import sys
from pathlib import Path

from .harness import ConfigError, explain, list_suites, load_config, run


def _default_out_dir():
    return os.environ.get("EXTSOURCE_OUT_DIR", "extsource-results")


def _results_path(option):
    """The --results path, else results.ndjson in the default output
    directory; an empty path names no file and raises ConfigError."""
    if option is None:
        out_dir = _default_out_dir()
        if not out_dir:
            raise ConfigError("results: an empty $EXTSOURCE_OUT_DIR names no directory")
        return str(Path(out_dir) / "results.ndjson")
    if not option:
        raise ConfigError("results: an empty --results names no file")
    return option


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="extsource",
        description="Verification suites for external-source matrix models "
                    "and their series-ladder identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute configured suites")
    p_run.add_argument("--config", default="quick",
                       help="config file path or bundled name (quick, full)")
    p_run.add_argument("--out-dir", default=None,
                       help="output directory (default $EXTSOURCE_OUT_DIR "
                            "or ./extsource-results)")
    p_run.add_argument("--workers", type=int, choices=[1],
                       help="must be 1: records run in order on the calling thread")
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed override")
    p_run.add_argument("--mutate", action="store_true",
                       help="inject one-sided corruptions (checker sensitivity "
                            "demonstration): every identity, z-ratio and exact "
                            "record should then fail; hirota-sensitivity passes "
                            "by design, and mc records that cannot resolve a 5%% "
                            "error still pass")

    p_exp = sub.add_parser("explain", help="describe one recorded check")
    p_exp.add_argument("check_id")
    p_exp.add_argument("--results", default=None,
                       help="results.ndjson path (default: in the output dir)")

    sub.add_parser("list-suites", help="available suites")

    args = parser.parse_args(argv)

    if args.command == "list-suites":
        for name, desc in list_suites().items():
            print(f"{name:<16} {desc}")
        return 0

    if args.command == "explain":
        try:
            print(explain(_results_path(args.results), args.check_id), end="")
        except (ConfigError, KeyError) as exc:
            msg = exc.args[0] if exc.args else exc
            print(f"error: {msg}", file=sys.stderr)
            return 2
        return 0

    try:
        cfg = load_config(args.config)
        out_dir = next(v for v in (args.out_dir, cfg.out_dir, _default_out_dir()) if v is not None)
        if not out_dir:
            raise ConfigError("out_dir: an empty --out-dir or $EXTSOURCE_OUT_DIR names no "
                              "directory")
        code, summary = run(cfg, out_dir, seed=args.seed, mutate=args.mutate)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(summary, end="")
    print(f"results written to {out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
