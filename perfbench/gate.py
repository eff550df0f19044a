"""Correctness gate: reads a sweep's CSV/JSON outputs back and counts failed ops.

Seed-independent checks run on every sweep. Where a reference exists for the
workload seed, per-trial outputs are also compared with it:

* closed-form schemes (``dam-eigen*``, ``ofdm-eigen``, ``ofdm-zf-wf``) must
  match within ``REL_TOL`` relative;
* ``dam-isizf`` may not fall below its reference by more than ``REL_TOL``
  relative, so better convergence passes;
* the PAPR CCDF's 1e-2 point must match within ``PAPR_DB_TOL`` dB.

The gate reads outputs with its own code and never calls into damlink.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import Sweep, Workload

REL_TOL = 1e-6
PAPR_DB_TOL = 1e-6
MEAN_REL_TOL = 1e-9

SE_SCHEMES = {
    "se_vs_power_doubleside": ("dam-eigen-auto", "dam-eigen-bs", "dam-eigen-ue", "ofdm-eigen"),
    "se_vs_power_bsside": ("dam-eigen", "dam-isizf", "ofdm-eigen", "ofdm-zf-wf"),
    "se_vs_power_fractional": ("dam-eigen", "dam-isizf", "ofdm-eigen", "ofdm-zf-wf"),
}
ITERATIVE_SCHEMES = {"dam-isizf"}
PAPR_SCHEMES = ("dam", "ofdm", "strongest-path")
PAPR_THRESHOLDS_DB = np.round(np.arange(0.0, 14.0 + 1e-9, 0.1), 3)
PAPR_LEVEL = 1e-2


@dataclass
class SweepCheck:
    ops: int
    failed: int = 0
    nonstrict_rows: int = 0          # sidecar rows holding a bare NaN/Infinity
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # what a reference stores


def implied_infeasible(kind: str, system: dict) -> set[str]:
    """Schemes the configuration rules out, by the feasibility conditions of each design."""
    M_t, M_r, K, L = system["M_t"], system["M_r"], system["K"], system["L"]
    out = set()
    if kind == "se_vs_power_doubleside":
        if M_t + M_r < L + 1:          # no I + R = L + 1 split fits the arrays
            out.add("dam-eigen-auto")
        if L > M_t:                    # BS-side: I = L streams
            out.add("dam-eigen-bs")
        if L > M_r:                    # UE-side: R = L branches
            out.add("dam-eigen-ue")
    else:
        if M_t < M_r * (K * L - 1) + 1:    # ISI zero-forcing null spaces
            out.add("dam-isizf")
        if M_t < (K - 1) * M_r + 1:        # OFDM zero-forcing
            out.add("ofdm-zf-wf")
    return out


def _load_sidecar(path) -> tuple[dict, int]:
    """Parse the JSON sidecar, counting rows that strict JSON would reject."""
    bare = []

    def constant(name):
        bare.append(name)
        return float(name.replace("Infinity", "inf"))

    doc = json.loads(path.read_text(), parse_constant=constant)
    nonstrict = 0
    if bare:
        nonstrict = sum(
            1 for row in doc.get("rows", [])
            if any(isinstance(v, float) and not math.isfinite(v) for v in row.values())
        )
    return doc, nonstrict


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_sweep(workload: Workload, sweep: Sweep, rc, ref: dict | None) -> SweepCheck:
    check = SweepCheck(ops=workload.ops_per_sweep)
    try:
        if rc != 0:
            raise ValueError(f"CLI exit code {rc}")
        if workload.is_papr:
            _check_papr(workload, sweep, ref, check)
        else:
            _check_se(workload, sweep, ref, check)
    except (OSError, ValueError, KeyError, TypeError) as err:
        check.problems.append(f"sweep {sweep.index}: {type(err).__name__}: {err}")
        check.failed = check.ops
    return check


def _check_se(workload: Workload, sweep: Sweep, ref: dict | None, check: SweepCheck) -> None:
    system = dict(workload.system)
    schemes = SE_SCHEMES[workload.kind]
    infeasible = implied_infeasible(workload.kind, system)
    grid = workload.grid
    n = workload.trials
    bad = set()   # failed ops as (power index, trial)

    def fail(j, trials, why):
        check.problems.append(f"sweep {sweep.index} P={grid[j]}: {why}")
        bad.update((j, t) for t in trials)

    rows = {(float(r["sweep_value"]), r["scheme"]): r for r in _read_csv(sweep.out.with_suffix(".csv"))}
    expected = {(p, s) for p in grid for s in schemes}
    if set(rows) != expected:
        raise ValueError(f"CSV cells {sorted(set(rows) ^ expected)} unexpected or missing")
    doc, check.nonstrict_rows = _load_sidecar(sweep.out.with_suffix(".json"))
    if doc["kind"] != workload.kind or doc["seed"] != sweep.cli_seed:
        raise ValueError(f"sidecar describes {doc['kind']} seed {doc['seed']}")
    samples = doc["samples"]
    ref_samples = ref["samples"] if ref is not None else None
    check.outputs = {"cli_seed": sweep.cli_seed, "samples": {}}

    for j, p in enumerate(grid):
        for scheme in schemes:
            key = f"{p}|{scheme}"
            row = rows[(p, scheme)]
            values = samples.get(key)
            if not isinstance(values, list) or len(values) != n:
                fail(j, range(n), f"{scheme}: expected {n} samples")
                continue
            check.outputs["samples"][key] = values
            if scheme in infeasible:
                if row["mean"] != "infeasible" or any(v is not None for v in values):
                    fail(j, range(n), f"{scheme}: should be infeasible")
                continue
            if row["mean"] == "infeasible":
                fail(j, range(n), f"{scheme}: marked infeasible")
                continue
            finite = [v for v in values if isinstance(v, float) and math.isfinite(v) and v > 0.0]
            for t, v in enumerate(values):
                if not (isinstance(v, float) and math.isfinite(v) and v > 0.0):
                    fail(j, [t], f"{scheme} trial {t}: value {v!r}")
            if finite and (int(row["trials"]) != len(finite)
                           or not _close(float(row["mean"]), sum(finite) / len(finite), MEAN_REL_TOL)):
                fail(j, range(n), f"{scheme}: CSV mean/trials disagree with the sidecar")
            if ref_samples is None:
                continue
            for t, (v, r) in enumerate(zip(values, ref_samples[key])):
                if not isinstance(v, float):
                    continue
                if scheme in ITERATIVE_SCHEMES:
                    ok = v >= r - REL_TOL * abs(r)
                else:
                    ok = _close(v, r, REL_TOL)
                if not ok:
                    fail(j, [t], f"{scheme} trial {t}: {v!r} vs reference {r!r}")
    check.failed = len(bad)


def _papr_point(ccdf: np.ndarray) -> float:
    """PAPR (dB) where the CCDF first reaches PAPR_LEVEL, linearly interpolated."""
    below = np.nonzero(ccdf <= PAPR_LEVEL)[0]
    if below.size == 0:
        return float(PAPR_THRESHOLDS_DB[-1])
    i = int(below[0])
    if i == 0:
        return float(PAPR_THRESHOLDS_DB[0])
    c0, c1 = ccdf[i - 1], ccdf[i]
    t0, t1 = PAPR_THRESHOLDS_DB[i - 1], PAPR_THRESHOLDS_DB[i]
    if c0 == c1:
        return float(t1)
    return float(t0 + (t1 - t0) * (c0 - PAPR_LEVEL) / (c0 - c1))


def _check_papr(workload: Workload, sweep: Sweep, ref: dict | None, check: SweepCheck) -> None:
    system = dict(workload.system)
    rows = {r["scheme"]: r for r in _read_csv(sweep.out.with_suffix(".csv"))}
    if set(rows) != set(PAPR_SCHEMES):
        raise ValueError(f"CSV schemes {sorted(rows)}")
    ccdf_rows = _read_csv(sweep.out.parent / (sweep.out.name + "_ccdf.csv"))
    thresholds = np.array([float(r["threshold_db"]) for r in ccdf_rows])
    if thresholds.shape != PAPR_THRESHOLDS_DB.shape or np.any(np.abs(thresholds - PAPR_THRESHOLDS_DB) > 1e-9):
        raise ValueError("CCDF thresholds differ from 0.0:0.1:14.0 dB")
    columns = {"dam": "ccdf_dam", "ofdm": "ccdf_ofdm", "strongest-path": "ccdf_strongest"}
    doc, check.nonstrict_rows = _load_sidecar(sweep.out.with_suffix(".json"))
    if doc["seed"] != sweep.cli_seed:
        raise ValueError(f"sidecar seed {doc['seed']}")
    check.outputs = {"cli_seed": sweep.cli_seed, "points": {}}
    for scheme in PAPR_SCHEMES:
        row = rows[scheme]
        ccdf = np.array([float(r[columns[scheme]]) for r in ccdf_rows])
        if np.any(ccdf < 0.0) or np.any(ccdf > 1.0) or np.any(np.diff(ccdf) > 0.0):
            raise ValueError(f"{scheme}: CCDF not non-increasing in [0, 1]")
        if int(row["trials"]) != workload.trials or float(row["sweep_value"]) != system["P_dbm"]:
            raise ValueError(f"{scheme}: CSV row {row}")
        point = float(row["mean"])
        if abs(point - _papr_point(ccdf)) > 1e-9:
            raise ValueError(f"{scheme}: 1e-2 point {point} disagrees with its CCDF")
        papr_db = np.asarray(doc["samples"][f"{system['P_dbm']}|{scheme}"], dtype=float)
        if papr_db.size != workload.trials * system["M_t"]:
            raise ValueError(f"{scheme}: {papr_db.size} block PAPRs, expected blocks x M_t")
        recomputed = (papr_db[None, :] > PAPR_THRESHOLDS_DB[:, None]).mean(axis=1)
        if np.any(np.abs(recomputed - ccdf) > 1e-12):
            raise ValueError(f"{scheme}: CCDF disagrees with the sidecar's block PAPRs")
        check.outputs["points"][scheme] = point
        if ref is not None and abs(point - ref["points"][scheme]) > PAPR_DB_TOL:
            raise ValueError(f"{scheme}: 1e-2 point {point!r} vs reference {ref['points'][scheme]!r}")
