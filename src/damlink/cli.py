"""Command-line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .channel import ConfigError
from .delay_design import InfeasibleError
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    ParseError,
    parse_config,
    run_experiment,
    write_ccdf_csv,
    write_json_sidecar,
    write_table_csv,
)

_KIND_HELP = {
    "se_vs_power_doubleside": "spectral efficiency vs power for double/single-side delay alignment (integer delays)",
    "se_vs_power_bsside": "spectral efficiency vs power for BS-side schemes and OFDM (integer delays)",
    "se_vs_power_fractional": "spectral efficiency vs power under fractional delays",
    "papr_ccdf": "PAPR CCDF comparison (single-carrier vs OFDM vs strongest path)",
}


@functools.cache  # built on first use, then shared: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="damlink",
        description="Link-level simulator for multi-user delay alignment modulation.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=_KIND_HELP[kind])
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config with 'system' and 'experiment' sections")
        p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trials per sweep point, or waveform blocks "
                            "for papr_ccdf (default 100)")
        p.add_argument("--out", type=Path, default=None,
                       help="output path prefix (default results/<kind>)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            spec = parse_config(args.config, kind=args.kind)
        else:
            spec = ExperimentSpec(kind=args.kind)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        if args.trials is not None:
            spec = dataclasses.replace(spec, trials=args.trials)
        if args.out is not None:
            spec = dataclasses.replace(spec, out=str(args.out))

        table = run_experiment(spec)

        prefix = Path(spec.out) if spec.out else Path("results") / spec.kind
        prefix.parent.mkdir(parents=True, exist_ok=True)
        # appended, not swapped in, so a prefix such as run.v2 keeps its dot
        csv_path = prefix.parent / (prefix.name + ".csv")
        write_table_csv(table, csv_path)
        write_json_sidecar(table, prefix.parent / (prefix.name + ".json"))
        if table.ccdf is not None:
            write_ccdf_csv(table, prefix.parent / (prefix.name + "_ccdf.csv"))
        feasible = [r for r in table.rows if not r.infeasible]
        if not feasible:
            print("error: every row infeasible for the configured dimensions", file=sys.stderr)
            return 1
        print(f"wrote {csv_path} ({len(table.rows)} rows)")
        return 0
    except (ParseError, ConfigError, InfeasibleError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
