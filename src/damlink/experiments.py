"""Seeded Monte Carlo experiments and result serialization.

Every experiment kind evaluates all of its schemes on the identical channel
draw per trial (paired comparison); per-trial seeds come from a splittable
counter scheme, so every trial's draw is fixed by the base seed alone.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beamforming import (
    assemble_bs_side,
    assemble_effective_channels,
    bs_side_kappa,
    eigen_beamform_bs_side,
    eigen_beamform_doubleside,
    isi_zf_alternating,
)
from .channel import ChannelSet, ConfigError, SimConfig, generate_channel_set, is_finite_real
from .delay_design import InfeasibleError, choose_compensation_counts, stream_count_range
from .ofdm import (
    dam_effective_rate,
    ofdm_effective_rate,
    ofdm_eigen,
    ofdm_eigen_sinrs,
    ofdm_overhead_factor,
    ofdm_zf_waterfill,
)
from .waveform import (
    ccdf_from_paprs,
    dam_streams,
    ofdm_streams,
    qam4_map,
    stream_paprs,
    strongest_path_streams,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "ResultRow",
    "ResultTable",
    "ParseError",
    "parse_config",
    "run_experiment",
    "write_table_csv",
    "write_json_sidecar",
    "write_ccdf_csv",
    "papr_at_exceedance",
]

EXPERIMENT_KINDS = (
    "se_vs_power_doubleside",
    "se_vs_power_bsside",
    "se_vs_power_fractional",
    "papr_ccdf",
)

SCHEMA_VERSION = 1

DEFAULT_POWER_GRID = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)

PAPR_THRESHOLDS_DB = np.round(np.arange(0.0, 14.0 + 1e-9, 0.1), 3)


class ParseError(ValueError):
    """Configuration file errors, annotated with the offending key path."""


@dataclass
class ExperimentSpec:
    """One experiment; its values are checked here, for config files and library callers alike."""

    kind: str
    config: SimConfig = field(default_factory=SimConfig)
    grid: tuple[float, ...] = DEFAULT_POWER_GRID
    trials: int = 100
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ParseError(f"experiment.kind: unknown kind {self.kind!r}")
        if not isinstance(self.config, SimConfig):
            raise ParseError(f"config: must be a SimConfig, got {self.config!r}")
        grid = self.grid
        if not isinstance(grid, (list, tuple)) or not grid or not all(map(is_finite_real, grid)):
            raise ParseError(
                f"experiment.grid: must be a non-empty list of finite numbers, got {grid!r}"
            )
        self.grid = tuple(float(v) for v in grid)
        # samples are keyed by grid value, so a repeated one (-0.0 repeats 0.0) would lose trials
        if len(set(self.grid)) != len(self.grid):
            raise ParseError(f"experiment.grid: values must be distinct, got {grid!r}")
        for key, least in (("trials", 1), ("seed", 0)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ParseError(f"experiment.{key}: must be an integer >= {least}, got {value!r}")
            setattr(self, key, int(value))
        if self.out is not None and not isinstance(self.out, str):
            raise ParseError(f"experiment.out: must be a string, got {self.out!r}")


@dataclass(frozen=True)
class ResultRow:
    sweep_value: float
    scheme: str
    mean: float
    stderr: float
    trials: int
    infeasible: bool = False


@dataclass
class ResultTable:
    kind: str
    rows: list[ResultRow]
    samples: dict            # (sweep_value, scheme) -> list of per-trial metrics
    config: SimConfig
    seed: int
    ccdf: dict | None = None  # papr kind: scheme -> ccdf array over PAPR_THRESHOLDS_DB
    meta: dict = field(default_factory=dict)


def trial_seed(base_seed: int, sweep_idx: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(sweep_idx, trial))


# ---------------------------------------------------------------------------
# Per-trial scheme evaluation
# ---------------------------------------------------------------------------


def _doubleside_rate(channels: ChannelSet, cfg: SimConfig, I: int) -> float:
    """Effective rate of double-side eigen-beamforming with I streams per UE."""
    F = assemble_effective_channels(channels, I, cfg.rho_window, cfg.T, cfg.beta)
    _, sinrs = eigen_beamform_doubleside(F, cfg.p_watts(), cfg.sigma2_watts())
    return dam_effective_rate(sinrs, cfg)


def _eval_doubleside(channels: ChannelSet, cfg: SimConfig) -> dict:
    # schemes that pick the same stream count share one assembly and one solve;
    # a count outside the feasible interval gets no rate
    feasible = stream_count_range(cfg.M_t, cfg.M_r, cfg.L)
    auto = choose_compensation_counts(cfg.M_t, cfg.M_r, cfg.L).I if feasible else None
    counts = {"dam-eigen-bs": cfg.L, "dam-eigen-ue": 1, "dam-eigen-auto": auto}
    rates = {I: _doubleside_rate(channels, cfg, I) for I in set(counts.values()) if I in feasible}
    out = {scheme: rates.get(I) for scheme, I in counts.items()}
    sinrs = ofdm_eigen_sinrs(channels, cfg.M, cfg.p_watts(), cfg.sigma2_watts())
    out["ofdm-eigen"] = ofdm_effective_rate(sinrs, cfg)
    return out


def _eval_bsside(channels: ChannelSet, cfg: SimConfig) -> dict:
    P, sigma2 = cfg.p_watts(), cfg.sigma2_watts()
    out = {}
    F = assemble_bs_side(channels, cfg.rho_window, cfg.T, cfg.beta)
    _, sinrs = eigen_beamform_bs_side(F, P, sigma2)
    out["dam-eigen"] = dam_effective_rate(sinrs, cfg)
    try:
        _, zf_sinrs = isi_zf_alternating(F, P, sigma2)
        out["dam-isizf"] = dam_effective_rate(zf_sinrs, cfg)
    except InfeasibleError:
        out["dam-isizf"] = None
    eig_sinrs = ofdm_eigen_sinrs(channels, cfg.M, P, sigma2)
    out["ofdm-eigen"] = ofdm_effective_rate(eig_sinrs, cfg)
    try:
        _, zf_rate = ofdm_zf_waterfill(channels, cfg.M, P, sigma2)
        out["ofdm-zf-wf"] = ofdm_overhead_factor(cfg) * zf_rate
    except InfeasibleError:
        out["ofdm-zf-wf"] = None
    return out


_KIND_EVAL = {
    "se_vs_power_doubleside": (_eval_doubleside, True),
    "se_vs_power_bsside": (_eval_bsside, True),
    "se_vs_power_fractional": (_eval_bsside, False),
}


def _run_sweep(spec: ExperimentSpec) -> ResultTable:
    evaluate, integer_delays = _KIND_EVAL[spec.kind]

    per_cell: dict = {}
    for j, value in enumerate(spec.grid):
        cfg_j = dataclasses.replace(spec.config, P_dbm=value)
        for t in range(spec.trials):
            channels = generate_channel_set(cfg_j, trial_seed(spec.seed, j, t), integer_delays)
            for scheme, metric in evaluate(channels, cfg_j).items():
                per_cell.setdefault((j, scheme), []).append(metric)

    rows = []
    samples = {}
    schemes = sorted({scheme for (_, scheme) in per_cell})
    for j, value in enumerate(spec.grid):
        for scheme in schemes:
            cell = per_cell.get((j, scheme), [])
            valid = np.array([v for v in cell if v is not None], dtype=float)
            samples[(value, scheme)] = cell
            if valid.size == 0:
                rows.append(
                    ResultRow(value, scheme, float("nan"), float("nan"), 0, infeasible=True)
                )
                continue
            mean = float(valid.mean())
            stderr = float(valid.std(ddof=1) / np.sqrt(valid.size)) if valid.size > 1 else 0.0
            rows.append(ResultRow(value, scheme, mean, stderr, int(valid.size)))

    meta = {}
    if spec.kind == "se_vs_power_doubleside":
        try:
            choice = choose_compensation_counts(spec.config.M_t, spec.config.M_r, spec.config.L)
            meta["count_choice"] = choice._asdict()
        except InfeasibleError as err:
            meta["count_choice"] = str(err)
    return ResultTable(
        kind=spec.kind, rows=rows, samples=samples, config=spec.config, seed=spec.seed,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# PAPR experiment
# ---------------------------------------------------------------------------


# Each scheme's setup returns draw(rng, blocks) -> (StreamSet, lead symbols):
# the streams of one chunk and the symbols to skip before its first block.


def _qam4(rng, *shape) -> np.ndarray:
    return qam4_map(rng.integers(0, 2, 2 * math.prod(shape))).reshape(shape)


def _dam_papr_draw(channels, cfg, block_symbols):
    F = assemble_bs_side(channels, cfg.rho_window, cfg.T, cfg.beta)
    bf, _ = eigen_beamform_bs_side(F, cfg.p_watts(), cfg.sigma2_watts())
    kappas = bs_side_kappa(channels)
    pad = 32 + int(kappas.max())

    def draw(rng, blocks):
        sym = _qam4(rng, cfg.K, blocks * block_symbols + 2 * pad)
        return dam_streams(sym, bf, kappas, cfg), pad

    return draw


def _ofdm_papr_draw(channels, cfg, block_symbols):
    bf = ofdm_eigen(channels, cfg.M, cfg.p_watts())

    def draw(rng, blocks):
        sym = _qam4(rng, cfg.K, blocks + 2, cfg.M)
        return ofdm_streams(sym, bf, cfg), block_symbols  # drop the edge-transient block

    return draw


def _strongest_papr_draw(channels, cfg, block_symbols):
    pad = 32

    def draw(rng, blocks):
        sym = _qam4(rng, cfg.K, blocks * block_symbols + 2 * pad)
        return strongest_path_streams(sym, channels, cfg.p_watts(), cfg), pad

    return draw


def _chunk_blocks(cfg, block_symbols) -> int:
    """Blocks drawn per chunk: about 5e6 antenna samples."""
    return max(1, 5_000_000 // (block_symbols * cfg.oversample * cfg.M_t))


def _chunked_paprs(draw, rng, cfg, n_blocks, block_symbols):
    """(n_blocks, M_t) PAPRs, drawn and evaluated a bounded chunk at a time."""
    chunk = _chunk_blocks(cfg, block_symbols)
    paprs = []
    done = 0
    while done < n_blocks:
        blocks = min(chunk, n_blocks - done)
        streams, lead = draw(rng, blocks)
        paprs.append(stream_paprs(streams, cfg, lead, blocks, block_symbols))
        del streams  # free this chunk's streams before the next draw
        done += blocks
    return np.concatenate(paprs, axis=0)


def papr_at_exceedance(thresholds_db, ccdf, level: float = 1e-2) -> float:
    """Linearly interpolated PAPR (dB) where the CCDF crosses ``level``."""
    thresholds_db = np.asarray(thresholds_db, dtype=float)
    ccdf = np.asarray(ccdf, dtype=float)
    below = np.nonzero(ccdf <= level)[0]
    if below.size == 0:
        return float(thresholds_db[-1])
    i = below[0]
    if i == 0:
        return float(thresholds_db[0])
    c0, c1 = ccdf[i - 1], ccdf[i]
    t0, t1 = thresholds_db[i - 1], thresholds_db[i]
    if c0 == c1:
        return float(t1)
    return float(t0 + (t1 - t0) * (c0 - level) / (c0 - c1))


def _run_papr(spec: ExperimentSpec) -> ResultTable:
    cfg = spec.config
    n_blocks = spec.trials
    block_symbols = cfg.M + cfg.G_cp  # like-for-like duration across schemes
    channel_seed = trial_seed(spec.seed, 0, 0)  # every CCDF is conditioned on this channel
    channels = generate_channel_set(cfg, channel_seed, integer_delays=False)
    draws = {
        "dam": _dam_papr_draw,
        "ofdm": _ofdm_papr_draw,
        "strongest-path": _strongest_papr_draw,
    }
    rows = []
    samples = {}
    ccdfs = {}
    for idx, (scheme, setup) in enumerate(draws.items()):
        rng = np.random.default_rng(trial_seed(spec.seed, 1, idx))
        draw = setup(channels, cfg, block_symbols)
        paprs = _chunked_paprs(draw, rng, cfg, n_blocks, block_symbols)
        ccdfs[scheme] = ccdf_from_paprs(paprs, PAPR_THRESHOLDS_DB)
        level_db = papr_at_exceedance(PAPR_THRESHOLDS_DB, ccdfs[scheme], 1e-2)
        rows.append(ResultRow(cfg.P_dbm, scheme, level_db, 0.0, int(paprs.shape[0])))
        samples[(cfg.P_dbm, scheme)] = (10.0 * np.log10(paprs.ravel())).tolist()
    return ResultTable(
        kind=spec.kind,
        rows=rows,
        samples=samples,
        config=cfg,
        seed=spec.seed,
        ccdf=ccdfs,
        meta={"channel_seed": {"entropy": channel_seed.entropy,
                               "spawn_key": list(channel_seed.spawn_key)}},
    )


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute one experiment kind; deterministic for a fixed spec."""
    if spec.kind == "papr_ccdf":
        return _run_papr(spec)
    return _run_sweep(spec)


# ---------------------------------------------------------------------------
# Config parsing and serialization
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {"kind", "grid", "trials", "seed", "out"}


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ParseError(f"{name}: must be an object, got {section!r}")
    return section


def parse_config(path, kind: str | None = None) -> ExperimentSpec:
    """Load a JSON config with ``system`` and ``experiment`` sections.

    Unknown keys are rejected with their full key path; both sections run
    through the same validation as a directly constructed ``SimConfig`` and
    ``ExperimentSpec``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON in {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - {"system", "experiment"}
    if unknown:
        raise ParseError(f"{sorted(unknown)[0]}: unknown section")

    system = _section(doc, "system")
    known_fields = {f.name for f in dataclasses.fields(SimConfig)}
    for key, value in system.items():
        if key not in known_fields:
            raise ParseError(f"system.{key}: unknown key")
        if not is_finite_real(value):
            raise ParseError(f"system.{key}: must be a finite number, got {value!r}")
    try:
        cfg = SimConfig(**system)
    except ConfigError as err:
        raise ParseError(f"system: {err}") from err

    experiment = _section(doc, "experiment")
    for key in experiment:
        if key not in _EXPERIMENT_KEYS:
            raise ParseError(f"experiment.{key}: unknown key")
    experiment = {**experiment, "kind": kind or experiment.get("kind")}
    if experiment["kind"] is None:
        raise ParseError("experiment.kind: missing (give a kind or a CLI subcommand)")
    return ExperimentSpec(config=cfg, **experiment)


def write_table_csv(table: ResultTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_value", "scheme", "mean", "stderr", "trials"])
        for row in table.rows:
            writer.writerow(
                [row.sweep_value, row.scheme,
                 "infeasible" if row.infeasible else repr(row.mean),
                 repr(row.stderr), row.trials]
            )


def write_json_sidecar(table: ResultTable, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": table.kind,
        "seed": table.seed,
        "sweep": "P_dbm",  # every SE kind sweeps the power budget
        "version": __version__,
        "config": dataclasses.asdict(table.config),
        "meta": table.meta,
        "rows": [_strict_row(r) for r in table.rows],
        "samples": {
            f"{value}|{scheme}": vals for (value, scheme), vals in table.samples.items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False))


def _strict_row(row: ResultRow) -> dict:
    """Row as a dict with non-finite values (infeasible rows) written as null."""
    return {
        key: None if isinstance(value, float) and not np.isfinite(value) else value
        for key, value in dataclasses.asdict(row).items()
    }


def write_ccdf_csv(table: ResultTable, path) -> None:
    if table.ccdf is None:
        raise ValueError("table has no CCDF data")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold_db", "ccdf_dam", "ccdf_ofdm", "ccdf_strongest"])
        for i, th in enumerate(PAPR_THRESHOLDS_DB):
            writer.writerow(
                [f"{th:.1f}", repr(float(table.ccdf["dam"][i])),
                 repr(float(table.ccdf["ofdm"][i])),
                 repr(float(table.ccdf["strongest-path"][i]))]
            )
