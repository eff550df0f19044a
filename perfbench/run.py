"""Sweep benchmark for damlink's four experiment kinds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fractional --seed 1 --seconds 33 --trace 0

One process runs one workload in a closed loop: one CLI sweep at a time
through ``damlink.cli.main`` with generated ``--config`` files, the CLI's
default ``--threads 1``, for about ``--seconds`` (at least one sweep).
Every sweep's CSV/JSON outputs are read back by the correctness gate.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps damlink's
public functions (see tracing.py) and prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
environment stamp included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import stamp

# must precede every numpy import, including the ones in gate and tracing
INHERITED_BLAS_ENV = stamp.pin_blas_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, prepare  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REF_DIR = BENCH_DIR / "refs"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
FIXED_INPUTS_KEY = "fixed"     # reference key of workloads whose inputs ignore the seed
SETUP_PROBES = 3

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def reference_key(workload: Workload, seed: int) -> str:
    return FIXED_INPUTS_KEY if workload.fixed_cli_seed is not None else str(seed)


def load_references(workload: Workload, seed: int) -> list | None:
    path = REF_DIR / f"{workload.name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(reference_key(workload, seed))


def setup(workload: Workload, seed: int, workdir: Path):
    """Import the entry point and write the workload's inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from damlink.cli import main as cli_main

    return cli_main, prepare(workload, seed, workdir)


def time_fresh_setups(workload: Workload, seed: int) -> list[float]:
    """Wall time of fresh interpreters that only import and prepare."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def ops_rate(run: dict, workload: Workload) -> float:
    """Ops that passed the gate per second of a median sweep.

    Every sweep of a workload has the same op count, so the median sweep
    time discounts a sweep slowed by a burst on the shared host; the first
    sweep, which pays lazy set-up, counts as one sample among the others.
    """
    passed = 1.0 - run["failed"] / run["attempted"]
    return passed * workload.ops_per_sweep / statistics.median(run["sweep_s"])


def run_sweeps(cli_main, workload: Workload, sweeps, references, seconds: float,
               tracer: tracing.Tracer | None = None) -> dict:
    """Closed loop over the sweep pool for about ``seconds``.

    A further sweep starts only if it would end nearer the deadline than
    stopping now does, judged by the previous sweep; at least one runs.
    """
    attempted = failed = nonstrict_rows = 0
    sweep_s: list[float] = []
    problems: list[str] = []
    count = 0
    start = time.perf_counter()
    while count == 0 or time.perf_counter() - start + 0.5 * sweep_s[-1] < seconds:
        sweep = sweeps[count % len(sweeps)]
        sweep.clear_outputs()
        sink = io.StringIO()
        if tracer is not None:
            tracer.op = count
            root_span = tracer.begin(tracing.ROOT_SPAN)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = cli_main(sweep.argv(workload))
            except Exception:  # a crashing sweep fails its ops; the run goes on
                rc = "raised\n" + traceback.format_exc()
        sweep_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(root_span)
        if rc != 0:
            rc = f"{rc}\n{sink.getvalue()}"   # keep the CLI's own error message
        ref = references[sweep.index] if references is not None else None
        check = gate.check_sweep(workload, sweep, rc, ref)
        attempted += check.ops
        failed += check.failed
        nonstrict_rows += check.nonstrict_rows
        problems.extend(check.problems)
        count += 1
    return {
        "sweeps": count, "attempted": attempted, "failed": failed,
        "timed_s": sum(sweep_s), "sweep_s": sweep_s,
        "nonstrict_rows": nonstrict_rows, "problems": problems,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the entry point, write the inputs and exit (set-up timing)")
    return parser.parse_args(argv)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out: Path,
            setup_times: list[float]) -> tuple[dict, dict]:
    """Run the workload; return (final result line, full record)."""
    cli_main, sweeps = setup(workload, seed, out / "work")
    references = load_references(workload, seed)
    if references is not None and len(references) != len(sweeps):
        raise SystemExit(f"perfbench: references for {workload.name} do not match its pool")
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        run = run_sweeps(cli_main, workload, sweeps, references, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    sidecars = run["sweeps"]

    shares = {}
    if tracer is not None:
        metrics = tracing.per_layer_metrics(
            tracer, run["attempted"], run["failed"], run["nonstrict_rows"], sidecars, run["timed_s"],
            ops_rate(run, workload))
        shares = {name: t["self"] / run["timed_s"] for name, t in tracer.layer_totals().items()}
        tracer.write(out / f"spans_{workload.name}_seed{seed}.jsonl")
    else:
        values = {
            "ops_per_s": ops_rate(run, workload),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    if workload.fixed_cli_seed is not None:
        reference_note = "inputs do not depend on the seed; full reference check"
    elif references is not None:
        reference_note = f"seed {seed} has references; full reference check"
    else:
        reference_note = f"no references for seed {seed}; seed-independent checks only"
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "env": stamp.environment_stamp(ROOT, seed, INHERITED_BLAS_ENV),
        "references": reference_note,
        "sweeps": run["sweeps"], "ops_per_sweep": workload.ops_per_sweep,
        "timed_s": run["timed_s"], "sweep_s": run["sweep_s"], "setup_times_s": setup_times,
        "fail_ratio": run["failed"] / run["attempted"],
        "experiments.nonstrict_json_rows": run["nonstrict_rows"] / sidecars,
        "problems": run["problems"][:50],
        "absent": tracer.absent if tracer is not None else [],
        "self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        **result,
    }
    return result, record


def report(result: dict, record: dict) -> None:
    print(f"perfbench workload={record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"references: {record['references']}")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(f"sweeps: {record['sweeps']} x {record['ops_per_sweep']} ops in {record['timed_s']:.3f} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        print(f"fail_ratio {record['fail_ratio']:.6g} share "
              f"({result['failed']} of {result['attempted']} ops failed)")
        print(f"experiments.nonstrict_json_rows {record['experiments.nonstrict_json_rows']:.6g} 1/file")
    if record["absent"]:
        print("absent: " + " ".join(record["absent"]))
    for problem in record["problems"][:10]:
        print(f"problem: {problem}")
    if record["self_time_shares"]:
        top = list(record["self_time_shares"].items())[:8]
        print("self time, share of timed sweeps: " + ", ".join(f"{n} {s:.1%}" for n, s in top))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "damlink" / "cli.py").is_file():
        print(f"perfbench: no damlink sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup(workload, args.seed, OUT / "work")
        return 0
    # set-up time is an end-to-end metric; the traced run does not report it
    setup_times = [] if args.trace else time_fresh_setups(workload, args.seed)
    result, record = measure(workload, args.seed, args.seconds, bool(args.trace), OUT, setup_times)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result_{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
