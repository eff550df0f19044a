"""Workload definitions and the per-sweep CLI inputs they generate.

Every workload drives ``damlink.cli.main`` with generated ``--config`` files,
one sweep (one CLI call) at a time. A workload seed expands into a pool of
sweeps, each with its own CLI seed; a run cycles through the pool until its
time is up, so a faster program repeats identical inputs instead of running
out of them. NOTES.md records why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The reference SimConfig, written out so that the workloads stay pinned even
# if the library's defaults move.
REFERENCE_SYSTEM = {
    "M_t": 128, "M_r": 2, "K": 2, "L": 3, "M": 512,
    "rho_window": 200, "oversample": 4, "P_dbm": 30.0,
}

SE_GRID = (10.0, 25.0, 40.0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                        # CLI subcommand
    trials: int                      # trials per power point, or blocks per call for papr
    pool: int                        # distinct sweeps per workload seed
    fixed_cli_seed: int | None = None  # same channel draws for every workload seed
    system: tuple = tuple(REFERENCE_SYSTEM.items())

    @property
    def is_papr(self) -> bool:
        return self.kind == "papr_ccdf"

    @property
    def grid(self) -> tuple[float, ...]:
        return (dict(self.system)["P_dbm"],) if self.is_papr else SE_GRID

    @property
    def ops_per_sweep(self) -> int:
        """An op is one trial at one power (SE kinds) or one block of all schemes (papr)."""
        return self.trials if self.is_papr else self.trials * len(self.grid)

    def cli_seed(self, seed: int, index: int) -> int:
        if self.fixed_cli_seed is not None:
            return self.fixed_cli_seed
        return seed * 1000 + index


WORKLOADS = {
    w.name: w
    for w in (
        # ISI-ZF needs 13-200 iterations per draw here, so a handful of random
        # draws per run would make throughput depend on the seed by +-30%;
        # the draws are therefore the CLI's default seed for every run.
        Workload("fractional", "se_vs_power_fractional", trials=1, pool=1, fixed_cli_seed=0),
        Workload("bsside", "se_vs_power_bsside", trials=2, pool=12),
        Workload("doubleside", "se_vs_power_doubleside", trials=4, pool=12),
        Workload("papr", "papr_ccdf", trials=64, pool=12),
    )
}


@dataclass(frozen=True)
class Sweep:
    index: int
    cli_seed: int
    config: Path
    out: Path          # output prefix: <out>.csv, <out>.json, <out>_ccdf.csv

    def argv(self, workload: Workload) -> list[str]:
        return [workload.kind, "--config", str(self.config)]

    def clear_outputs(self) -> None:
        """Remove the previous sweep's files, so the gate can only read this sweep's."""
        for path in (self.out.with_suffix(".csv"), self.out.with_suffix(".json"),
                     self.out.parent / (self.out.name + "_ccdf.csv")):
            path.unlink(missing_ok=True)


def prepare(workload: Workload, seed: int, workdir: Path) -> list[Sweep]:
    """Write one config file per pool entry; return the sweeps in run order."""
    folder = workdir / workload.name
    folder.mkdir(parents=True, exist_ok=True)
    out = folder / "out"
    sweeps = []
    for index in range(workload.pool):
        cli_seed = workload.cli_seed(seed, index)
        experiment = {"trials": workload.trials, "seed": cli_seed, "out": str(out)}
        if not workload.is_papr:
            experiment["grid"] = list(workload.grid)
        path = folder / f"sweep_{index:03d}.json"
        path.write_text(json.dumps({"system": dict(workload.system), "experiment": experiment}))
        sweeps.append(Sweep(index=index, cli_seed=cli_seed, config=path, out=out))
    return sweeps
