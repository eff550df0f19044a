"""Toy-size self-check of the benchmark harness; runs in seconds.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny configuration (M_t=16, M=32, a few blocks),
untraced and traced, and checks that the result lines carry exactly the
metrics BENCHMARK.json names, that the known-defect counters read, that a
missing trace target is reported absent, and that the gate rejects outputs
that disagree with a reference. Exits non-zero on the first failure.
"""

from __future__ import annotations

import run  # first: pins the BLAS thread variables before numpy loads

import contextlib  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOY_SYSTEM = {
    "M_t": 16, "M_r": 2, "K": 2, "L": 3, "M": 32, "rho_window": 20, "oversample": 2,
    "delay_span_samples": 10, "G_cp": 16, "G_gi": 20, "P_dbm": 30.0,
}


def toy(workload):
    return dataclasses.replace(
        workload,
        system=tuple({**dict(workload.system), **TOY_SYSTEM}.items()),
        name=f"toy-{workload.name}",
        trials=4 if workload.is_papr else 1,
        pool=2,
    )


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {what}")


def check_metrics(result: dict, spec: list, what: str) -> None:
    names = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    expect(set(got) == set(names), f"{what}: metrics {sorted(set(got) ^ set(names))} differ from BENCHMARK.json")
    for name, m in got.items():
        expect(m["unit"] == names[name], f"{what}: {name} unit {m['unit']} != {names[name]}")
        expect(isinstance(m["value"], float) and math.isfinite(m["value"]), f"{what}: {name} = {m['value']}")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: gate failed")


def check_gate_rejects(workload) -> None:
    """A perturbed reference must fail ops; an ISI-ZF result above its reference must not."""
    cli_main, sweeps = run.setup(workload, 0, run.OUT / "selfcheck")
    sweep = sweeps[0]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(sweep.argv(workload))
    clean = gate.check_sweep(workload, sweep, rc, None)
    expect(clean.failed == 0, f"{workload.name}: clean sweep failed: {clean.problems}")
    if workload.is_papr:
        ref = copy.deepcopy(clean.outputs)
        ref["points"]["dam"] += 0.01
        expect(gate.check_sweep(workload, sweep, rc, ref).failed == workload.ops_per_sweep,
               "papr: moved 1e-2 point accepted")
        return
    key = next(k for k in clean.outputs["samples"] if k.endswith("|ofdm-eigen"))
    ref = copy.deepcopy(clean.outputs)
    ref["samples"][key][0] *= 1.0 + 1e-4
    expect(gate.check_sweep(workload, sweep, rc, ref).failed == 1, f"{workload.name}: perturbed closed form accepted")
    if workload.kind != "se_vs_power_doubleside":
        zf = next(k for k in clean.outputs["samples"] if k.endswith("|dam-isizf"))
        ref_below, ref_above = copy.deepcopy(clean.outputs), copy.deepcopy(clean.outputs)
        ref_below["samples"][zf][0] *= 1.0 - 1e-3
        ref_above["samples"][zf][0] *= 1.0 + 1e-3
        expect(gate.check_sweep(workload, sweep, rc, ref_below).failed == 0,
               f"{workload.name}: ISI-ZF above its reference rejected")
        expect(gate.check_sweep(workload, sweep, rc, ref_above).failed == 1,
               f"{workload.name}: ISI-ZF below its reference accepted")
    expect(gate.check_sweep(workload, sweep, 1, None).failed == workload.ops_per_sweep,
           f"{workload.name}: failed CLI call accepted")


def check_defect_counters(out) -> None:
    """The known-defect counters count what they claim, on synthetic inputs."""
    sidecar = out / "nonstrict.json"
    sidecar.write_text('{"rows": [{"mean": NaN, "stderr": NaN}, {"mean": 1.0, "stderr": 0.0}]}')
    expect(gate._load_sidecar(sidecar)[1] == 1, "bare NaN row not counted")

    def solver(tol=1e-6, max_iter=3):
        return None

    class State:
        iterations = 3
        trace = [1.0, 1.5, 2.0, 2.5]

    note = tracing._isi_zf_note(solver, (), {}, (State(),))
    expect(note == {"iterations": 3, "converged": False}, f"cut-off solve not counted: {note}")
    State.trace = [1.0, 2.0, 2.0, 2.0]
    expect(tracing._isi_zf_note(solver, (), {}, (State(),))["converged"], "converged solve counted")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(spec["paths"]) == {run.BENCH_DIR.name}, "BENCHMARK.json paths")
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "BENCHMARK.json names an unknown workload")
    expect([m["name"] for m in spec["per_layer"]] == [m for m, _, _ in tracing.PER_LAYER],
           "BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    out = run.OUT / "selfcheck"
    for workload in WORKLOADS.values():
        small = toy(workload)
        result, _ = run.measure(small, 0, 0.0, False, out, [0.0])
        check_metrics(result, spec["end_to_end"], f"{small.name} untraced")
        result, record = run.measure(small, 0, 0.0, True, out, [0.0])
        check_metrics(result, spec["per_layer"], f"{small.name} traced")
        expect(not record["absent"], f"{small.name}: absent trace targets {record['absent']}")
        check_gate_rejects(small)
        print(f"selfcheck {small.name}: ok ({result['attempted']} ops)")

    tracer = tracing.Tracer(targets=tracing.TARGETS + ("beamforming.no_such_function", "no_such_module.f"))
    tracer.install()
    tracer.uninstall()
    expect(tracer.absent == ["beamforming.no_such_function", "no_such_module.f"], "absent names not reported")
    expect(gate.implied_infeasible("se_vs_power_doubleside", TOY_SYSTEM) == {"dam-eigen-ue"}, "infeasible rule")
    check_defect_counters(out)

    times = run.time_fresh_setups(WORKLOADS["papr"], 0)
    expect(len(times) == run.SETUP_PROBES and all(t > 0 for t in times), "set-up probes")
    print("selfcheck: all ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
