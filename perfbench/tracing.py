"""Traced runs: spans around damlink's public functions, installed by name.

Each entry of ``TARGETS`` names a module-level function as
``<module>.<function>``. ``Tracer.install`` wraps the function and rebinds
every name in a loaded ``damlink`` module that refers to it, so calls through
``from .x import f`` imports are seen too. A name that no longer exists is
reported absent and its metrics read 0; it is never an error.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the run ends. A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

PACKAGE = "damlink"
ROOT_SPAN = "cli.main"

TARGETS = (
    "channel.generate_channel_set",
    "channel.frequency_response",
    "pulse.build_rho_table",
    "delay_design.solve_compensation_delays",
    "beamforming.assemble_effective_channels",
    "beamforming.eigen_beamform_doubleside",
    "beamforming.bs_side_rho_tables",
    "beamforming.assemble_bs_side",
    "beamforming.eigen_beamform_bs_side",
    "beamforming.power_terms",
    "beamforming.null_space_projection",
    "beamforming.mmse_receive_update",
    "beamforming.mmse_transmit_update",
    "beamforming.isi_zf_alternating",
    "ofdm.ofdm_eigen",
    "ofdm.ofdm_zf_waterfill",
    "numerics.water_fill",
    "waveform.synthesize_dam_waveform",
    "waveform.synthesize_ofdm_waveform",
    "waveform.synthesize_strongest_path_waveform",
    "waveform.papr_blocks",
    "waveform.ccdf_from_paprs",
    "experiments.write_table_csv",
    "experiments.write_json_sidecar",
    "experiments.write_ccdf_csv",
)

SYNTH = (
    "waveform.synthesize_dam_waveform",
    "waveform.synthesize_ofdm_waveform",
    "waveform.synthesize_strongest_path_waveform",
)
WRITERS = (
    "experiments.write_table_csv",
    "experiments.write_json_sidecar",
    "experiments.write_ccdf_csv",
)

# (metric, unit, better); every one is reported on every workload
PER_LAYER = (
    ("beamforming.isi_zf_alternating.incl_s", "s/op", "lower"),
    ("beamforming.isi_zf_alternating.calls", "1/op", "lower"),
    ("beamforming.isi_zf_alternating.iterations", "iter/call", "lower"),
    ("beamforming.isi_zf_alternating.ms_per_iter", "ms/iter", "lower"),
    ("beamforming.isi_zf_alternating.unconverged", "1/call", "lower"),
    ("beamforming.mmse_receive_update.self_s", "s/op", "lower"),
    ("beamforming.mmse_receive_update.ms_p50", "ms", "lower"),
    ("beamforming.mmse_transmit_update.self_s", "s/op", "lower"),
    ("beamforming.mmse_transmit_update.ms_p50", "ms", "lower"),
    ("beamforming.null_space_projection.self_s", "s/op", "lower"),
    ("ofdm.ofdm_eigen.self_s", "s/op", "lower"),
    ("ofdm.ofdm_eigen.ms_p50", "ms", "lower"),
    ("channel.frequency_response.self_s", "s/op", "lower"),
    ("channel.frequency_response.calls", "1/op", "lower"),
    ("ofdm.ofdm_zf_waterfill.self_s", "s/op", "lower"),
    ("numerics.water_fill.self_s", "s/op", "lower"),
    ("beamforming.bs_side_rho_tables.incl_s", "s/op", "lower"),
    ("beamforming.assemble_bs_side.self_s", "s/op", "lower"),
    ("beamforming.eigen_beamform_bs_side.self_s", "s/op", "lower"),
    ("beamforming.power_terms.self_s", "s/op", "lower"),
    ("pulse.build_rho_table.calls", "1/op", "lower"),
    ("pulse.build_rho_table.self_s", "s/op", "lower"),
    ("beamforming.assemble_effective_channels.self_s", "s/op", "lower"),
    ("beamforming.eigen_beamform_doubleside.self_s", "s/op", "lower"),
    ("delay_design.solve_compensation_delays.calls", "1/op", "lower"),
    ("delay_design.solve_compensation_delays.self_s", "s/op", "lower"),
    ("waveform.synthesize_dam_waveform.ms_per_block", "ms/block", "lower"),
    ("waveform.synthesize_ofdm_waveform.ms_per_block", "ms/block", "lower"),
    ("waveform.synthesize_strongest_path_waveform.ms_per_block", "ms/block", "lower"),
    ("waveform.papr_blocks.self_s", "s/op", "lower"),
    ("waveform.ccdf_from_paprs.self_s", "s/op", "lower"),
    ("waveform.kept_sample_share", "share", "higher"),
    ("waveform.synth_bytes", "B/op", "lower"),
    ("experiments.write.self_s", "s/op", "lower"),
    ("experiments.write.bytes", "B/op", "lower"),
    ("channel.generate_channel_set.self_s", "s/op", "lower"),
    ("experiments.glue.self_s", "s/op", "lower"),
    ("experiments.nonstrict_json_rows", "1/file", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("fail_ratio", "share", "lower"),
)


class Tracer:
    """Collects spans and per-call observations while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []        # [name, start, end, parent index, op id]
        self.notes: dict[str, list] = {}   # per-call observations, by target
        self.present: list[str] = []
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        observe = _OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                try:
                    note = observe(func, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    note = None   # a changed signature or result loses the note, not the run
                self.notes.setdefault(name, []).append(note)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            module_name, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for loaded in [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]:
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, name, wrapper)
                        self._patches.append((loaded, name, original))
            self.present.append(target)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"present": self.present, "absent": self.absent}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    # -- aggregation -------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> {calls, incl, self, durations} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "durations": []})
            t["calls"] += 1
            t["incl"] += end - start
            t["self"] += end - start - child[i]
            t["durations"].append(end - start)
        return totals


# -- per-call observers: (func, args, kwargs, result) -> note ----------------


def _isi_zf_note(func, args, kwargs, result):
    state = result[0]
    iterations = int(state.iterations)
    converged = getattr(state, "converged", None)
    if converged is None:
        # no converged flag: stopping at max_iter with the objective still
        # rising faster than tol means the solve was cut off
        bound = inspect.signature(func).bind(*args, **kwargs)
        bound.apply_defaults()
        tol, max_iter = bound.arguments["tol"], bound.arguments["max_iter"]
        trace = state.trace
        converged = not (
            iterations >= max_iter
            and len(trace) >= 2
            and trace[-1] - trace[-2] >= tol * max(abs(trace[-2]), 1e-300)
        )
    return {"iterations": iterations, "converged": bool(converged)}


def _synth_note(func, args, kwargs, result):
    return {"samples": int(result.samples.size), "bytes": int(result.samples.nbytes)}


def _papr_note(func, args, kwargs, result):
    bound = inspect.signature(func).bind(*args, **kwargs)
    waveform, block_symbols = bound.arguments["waveform"], bound.arguments["block_symbols"]
    blocks = int(result.shape[0])
    return {"blocks": blocks, "kept": blocks * block_symbols * waveform.oversample * waveform.n_antennas}


def _write_note(func, args, kwargs, result):
    bound = inspect.signature(func).bind(*args, **kwargs)
    path = Path(bound.arguments["path"])
    return {"bytes": path.stat().st_size if path.exists() else 0}


_OBSERVERS = {
    "beamforming.isi_zf_alternating": _isi_zf_note,
    "waveform.papr_blocks": _papr_note,
    **{name: _synth_note for name in SYNTH},
    **{name: _write_note for name in WRITERS},
}


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""

    def noop():
        return None

    probe = Tracer(targets=())
    wrapped = probe._wrap("probe", noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        t2 = time.perf_counter()
        probe.spans.clear()
        samples.append(((t2 - t1) - (t1 - t0)) / repeats)
    return max(statistics.median(samples), 0.0)


def per_layer_metrics(tracer: Tracer, ops: int, failed: int, nonstrict_rows: int,
                      sidecars: int, traced_s: float, ops_per_s: float) -> dict:
    """Every PER_LAYER metric; time and count metrics are per op unless the unit says otherwise."""
    totals = tracer.layer_totals()
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "durations": []}

    def t(name):
        return totals.get(name, empty)

    values: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat in ("self_s", "incl_s", "calls") and layer in tracer.targets:
            key = {"self_s": "self", "incl_s": "incl", "calls": "calls"}[stat]
            values[metric] = t(layer)[key] / ops
        elif stat == "ms_p50" and layer in tracer.targets:
            durations = t(layer)["durations"]
            values[metric] = 1e3 * statistics.median(durations) if durations else 0.0

    def notes(name):
        return [n for n in tracer.notes.get(name, []) if n is not None]

    zf = notes("beamforming.isi_zf_alternating")
    iterations = sum(n["iterations"] for n in zf)
    name = "beamforming.isi_zf_alternating"
    values[f"{name}.iterations"] = iterations / len(zf) if zf else 0.0
    values[f"{name}.ms_per_iter"] = 1e3 * t(name)["incl"] / iterations if iterations else 0.0
    values[f"{name}.unconverged"] = sum(not n["converged"] for n in zf) / len(zf) if zf else 0.0

    # blocks kept by papr_blocks belong to the synthesis call just before it
    blocks = {name: 0 for name in SYNTH}
    last = None
    kept = 0
    papr_notes = iter(tracer.notes.get("waveform.papr_blocks", []))
    for span in tracer.spans:
        if span[0] in SYNTH:
            last = span[0]
        elif span[0] == "waveform.papr_blocks":
            note = next(papr_notes, None)
            if note is None:
                continue
            kept += note["kept"]
            if last is not None:
                blocks[last] += note["blocks"]
    for name in SYNTH:
        values[f"{name}.ms_per_block"] = 1e3 * t(name)["incl"] / blocks[name] if blocks[name] else 0.0
    synth = [n for name in SYNTH for n in notes(name)]
    synthesized = sum(n["samples"] for n in synth)
    values["waveform.kept_sample_share"] = kept / synthesized if synthesized else 0.0
    values["waveform.synth_bytes"] = sum(n["bytes"] for n in synth) / ops

    values["experiments.write.self_s"] = sum(t(name)["self"] for name in WRITERS) / ops
    values["experiments.write.bytes"] = sum(
        n["bytes"] for name in WRITERS for n in notes(name)) / ops
    values["experiments.glue.self_s"] = t(ROOT_SPAN)["self"] / ops
    values["experiments.nonstrict_json_rows"] = nonstrict_rows / sidecars if sidecars else 0.0
    values["trace.overhead_share"] = (len(tracer.spans) * span_cost_s()) / traced_s
    values["trace.ops_per_s"] = ops_per_s
    values["fail_ratio"] = failed / ops
    return {metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
            for metric, unit, _ in PER_LAYER}
