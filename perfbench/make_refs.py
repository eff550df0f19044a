"""Regenerate the reference outputs in refs/ that the correctness gate compares with.

    python3 perfbench/make_refs.py [--workload NAME ...]

Runs every sweep of each workload's pool once per reference seed (the
default seed and one held-out seed; once for workloads whose inputs ignore
the seed), applies the seed-independent checks, and stores the per-trial
outputs. Rerun it only for a change that is meant to alter results, and say
so in that change.
"""

from __future__ import annotations

import run  # first: pins the BLAS thread variables before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_outputs(workload, seed: int) -> list[dict]:
    cli_main, sweeps = run.setup(workload, seed, run.OUT / "refs_work")
    entries = []
    for sweep in sweeps:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(sweep.argv(workload))
        check = gate.check_sweep(workload, sweep, rc, None)
        if check.failed:
            raise SystemExit(f"{workload.name} seed {seed}: " + "; ".join(check.problems))
        entries.append(check.outputs)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    run.REF_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds = (run.DEFAULT_SEED,) if workload.fixed_cli_seed is not None else run.REFERENCE_SEEDS
        doc = {run.reference_key(workload, seed): reference_outputs(workload, seed) for seed in seeds}
        (run.REF_DIR / f"{name}.json").write_text(json.dumps(doc, indent=0) + "\n")
        print(f"wrote refs/{name}.json ({', '.join(doc)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
