"""Tests for experiment orchestration, config parsing and the CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_channels
from damlink.channel import SimConfig, generate_channel_set
from damlink.cli import main
from damlink.experiments import (
    ExperimentSpec,
    ParseError,
    parse_config,
    run_experiment,
    trial_seed,
    write_json_sidecar,
    write_table_csv,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def small_cfg(**overrides):
    base = dict(
        M_t=8, M_r=2, K=2, L=2, M=32, delay_span_samples=10, G_cp=10,
        rho_window=30, g_ls_db=0.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def small_spec(kind="se_vs_power_bsside", **overrides):
    base = dict(kind=kind, config=small_cfg(), grid=(20.0, 30.0), trials=3, seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_deterministic_output(self, tmp_path):
        spec = small_spec()
        t1 = run_experiment(spec)
        t2 = run_experiment(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table_csv(t1, p1)
        write_table_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json_sidecar(t1, j1)
        write_json_sidecar(t2, j2)
        assert j1.read_bytes() == j2.read_bytes()

    def test_rows_cover_grid_times_schemes(self):
        table = run_experiment(small_spec())
        schemes = {r.scheme for r in table.rows}
        assert schemes == {"dam-eigen", "dam-isizf", "ofdm-eigen", "ofdm-zf-wf"}
        assert len(table.rows) == 2 * len(schemes)

    def test_paired_channels_across_schemes(self):
        # same trial seed feeds every scheme: identical draw by construction
        s1 = trial_seed(3, 0, 5)
        s2 = trial_seed(3, 0, 5)
        cfg = small_cfg()
        assert_same_channels(generate_channel_set(cfg, s1), generate_channel_set(cfg, s2))

    def test_infeasible_scheme_marked_not_fatal(self):
        # M_t too small for ISI zero-forcing, everything else still runs
        spec = small_spec(config=small_cfg(M_t=4, L=3))
        table = run_experiment(spec)
        by_scheme = {r.scheme: r for r in table.rows if r.sweep_value == 20.0}
        assert by_scheme["dam-isizf"].infeasible
        assert not by_scheme["dam-eigen"].infeasible
        assert np.isfinite(by_scheme["dam-eigen"].mean)

    def test_doubleside_kind(self):
        spec = small_spec(kind="se_vs_power_doubleside", config=small_cfg(M_t=8, M_r=2, L=3))
        table = run_experiment(spec)
        schemes = {r.scheme for r in table.rows}
        assert schemes == {"dam-eigen-auto", "dam-eigen-bs", "dam-eigen-ue", "ofdm-eigen"}
        ue_row = next(r for r in table.rows if r.scheme == "dam-eigen-ue")
        assert ue_row.infeasible  # R = L = 3 > M_r

    def test_doubleside_bs_matches_bsside_eigen(self):
        # BS-side DAM is the I = L, R = 1 plan of the double-side kind: both
        # kinds run one assembly, so they score it identically, trial by trial
        spec = dict(config=SimConfig(), grid=(10.0, 40.0), trials=4, seed=11)
        double = run_experiment(ExperimentSpec(kind="se_vs_power_doubleside", **spec))
        single = run_experiment(ExperimentSpec(kind="se_vs_power_bsside", **spec))
        for value in spec["grid"]:
            got = np.array(double.samples[(value, "dam-eigen-bs")], dtype=float)
            want = np.array(single.samples[(value, "dam-eigen")], dtype=float)
            assert got.shape == (4,)
            assert np.array_equal(got, want)

    def test_fractional_kind(self):
        table = run_experiment(small_spec(kind="se_vs_power_fractional", trials=2))
        by_scheme = {r.scheme: r for r in table.rows if r.sweep_value == 30.0}
        assert np.isfinite(by_scheme["dam-isizf"].mean)
        # fractional residual ISI costs the eigen scheme rate vs OFDM feasibility intact
        assert not by_scheme["ofdm-zf-wf"].infeasible

    def test_papr_kind_smoke(self):
        cfg = small_cfg(M_t=4, M_r=2, K=2, L=2, M=32, G_cp=10, oversample=4)
        spec = ExperimentSpec(kind="papr_ccdf", config=cfg, grid=(30.0,), trials=8, seed=1)
        table = run_experiment(spec)
        assert set(table.ccdf) == {"dam", "ofdm", "strongest-path"}
        for scheme, ccdf in table.ccdf.items():
            assert np.all(np.diff(ccdf) <= 1e-12)
            assert ccdf[0] <= 1.0 and ccdf[-1] >= 0.0


class TestParseConfig:
    def test_empty_config_resolves_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({}))
        spec = parse_config(path, kind="se_vs_power_bsside")
        cfg = spec.config
        assert (cfg.T_ns, cfg.beta, cfg.K, cfg.L) == (5.0, 0.01, 2, 3)
        assert (cfg.P_dbm, cfg.noise_psd_dbm_hz) == (30.0, -174.0)
        assert (cfg.M, cfg.G_c, cfg.G_cp, cfg.G_gi) == (512, 200_000, 100, 200)
        assert cfg.delay_span_samples == 100

    def test_beta_out_of_range(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {"beta": 1.5}}))
        with pytest.raises(ParseError, match="system"):
            parse_config(path, kind="se_vs_power_bsside")

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        docs = {
            "system.M_x": {"system": {"M_x": 4}},
            "system.f_c_GHz": {"system": {"f_c_GHz": 28.0}},
            "experiment.sweep": {"experiment": {"sweep": "P_dbm"}},
        }
        for key_path, doc in docs.items():
            path.write_text(json.dumps(doc))
            with pytest.raises(ParseError, match=f"^{key_path}: unknown key"):
                parse_config(path, kind="se_vs_power_bsside")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("experiment", "trials", "many"),
            ("experiment", "trials", 2.7),
            ("experiment", "trials", True),
            ("experiment", "seed", "7"),
            ("experiment", "seed", -1),
            ("experiment", "grid", 20),
            ("experiment", "grid", []),
            ("experiment", "grid", [10, "20"]),
            ("experiment", "out", 5),
            ("system", "M_t", "many"),
            ("system", "beta", None),
        ],
    )
    def test_mistyped_value_rejected_with_path(self, tmp_path, section, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ParseError, match=f"^{section}.{key}: "):
            parse_config(path, kind="se_vs_power_bsside")

    @pytest.mark.parametrize("grid", [(math.nan,), (20.0, math.inf), (-math.inf, 30.0)])
    def test_spec_grid_must_be_finite(self, grid):
        with pytest.raises(ParseError, match="^experiment.grid: "):
            small_spec(grid=grid)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("trials", 2.5), ("seed", 1.5), ("trials", True), ("seed", False),
            ("grid", (True,)), ("grid", ("10",)), ("grid", 20.0), ("out", 5),
            ("grid", (10.0, 10)), ("grid", (0.0, -0.0)),
        ],
    )
    def test_spec_checks_what_a_config_file_would(self, key, value):
        with pytest.raises(ParseError, match=f"^experiment.{key}: "):
            small_spec(**{key: value})

    @pytest.mark.parametrize("grid", [(20.0, 4000.0), (-4000.0,)])
    def test_spec_grid_powers_must_have_finite_positive_watts(self, grid):
        with pytest.raises(ParseError, match="^experiment.grid: P_dbm must give a finite positive"):
            small_spec(grid=grid)

    def test_spec_config_must_be_a_simconfig(self):
        with pytest.raises(ParseError, match="^config: "):
            small_spec(config={"M_t": 8})

    def test_spec_stores_numpy_scalars_as_python_numbers(self):
        spec = small_spec(grid=[np.float32(20.0), np.int64(30)], trials=np.int64(2))
        assert spec.grid == (20.0, 30.0) and spec.trials == 2
        assert all(type(v) is float for v in spec.grid) and type(spec.trials) is int

    def test_section_must_be_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": [1]}))
        with pytest.raises(ParseError, match="^experiment: must be an object"):
            parse_config(path, kind="se_vs_power_bsside")

    def test_antenna_override_propagates_to_case_selection(self, tmp_path):
        from damlink.delay_design import choose_compensation_counts

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {"M_t": 4, "M_r": 64}}))
        spec = parse_config(path, kind="se_vs_power_doubleside")
        choice = choose_compensation_counts(spec.config.M_t, spec.config.M_r, 5)
        assert choice.case == 2

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_config(path, kind="papr_ccdf")

    def test_missing_kind(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({}))
        with pytest.raises(ParseError, match="experiment.kind"):
            parse_config(path)


class TestCli:
    def test_end_to_end_run(self, tmp_path):
        cfg = dict(
            system=dict(M_t=8, M_r=2, K=2, L=2, M=32, delay_span_samples=10,
                        G_cp=10, rho_window=30, g_ls_db=0.0),
            experiment=dict(grid=[30.0], trials=2),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(
            ["se_vs_power_bsside", "--config", str(cfg_path), "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.startswith("sweep_value,scheme,mean,stderr,trials")
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["schema_version"] == 1
        assert sidecar["config"]["M_t"] == 8
        assert sidecar["seed"] == 3

    def test_successive_calls_share_no_argument_state(self, tmp_path):
        # the parser is built once per process; each call parses afresh
        cfg = dict(
            system=dict(M_t=8, M_r=2, K=2, L=2, M=32, delay_span_samples=10,
                        G_cp=10, rho_window=30, g_ls_db=0.0),
            experiment=dict(grid=[30.0], trials=1),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for name, extra, trials in (("first", ["--trials", "2"], 2), ("second", [], 1)):
            out = tmp_path / name
            code = main(["se_vs_power_bsside", "--config", str(cfg_path), "--out", str(out), *extra])
            assert code == 0
            sidecar = json.loads((tmp_path / f"{name}.json").read_text())
            assert {row["trials"] for row in sidecar["rows"]} == {trials}

    def test_sidecar_config_and_rows_are_asdict(self, tmp_path):
        # M_t = 4 makes the BS-side ISI-ZF rows infeasible, written as null
        spec = ExperimentSpec(kind="se_vs_power_bsside", config=small_cfg(M_t=4), grid=(30.0,),
                              trials=1, seed=5)
        table = run_experiment(spec)
        assert any(row.infeasible for row in table.rows)
        write_json_sidecar(table, tmp_path / "run.json")
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert list(sidecar["config"].items()) == list(dataclasses.asdict(table.config).items())
        strict = [
            {key: None if isinstance(value, float) and not math.isfinite(value) else value
             for key, value in dataclasses.asdict(row).items()}
            for row in table.rows
        ]
        assert [list(row.items()) for row in sidecar["rows"]] == [list(row.items()) for row in strict]

    def test_infeasible_rows_are_strict_json(self, tmp_path):
        cfg = dict(
            system=dict(M_t=8, M_r=2, K=2, L=3, M=32, delay_span_samples=10,
                        G_cp=10, rho_window=30, g_ls_db=0.0),
            experiment=dict(grid=[30.0], trials=1),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["se_vs_power_doubleside", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        sidecar = json.loads((tmp_path / "run.json").read_text(), parse_constant=reject)
        row = next(r for r in sidecar["rows"] if r["scheme"] == "dam-eigen-ue")
        assert row["infeasible"]
        assert row["mean"] is None and row["stderr"] is None

    def test_papr_emits_ccdf_csv(self, tmp_path):
        cfg = dict(
            system=dict(M_t=4, M_r=2, K=2, L=2, M=32, delay_span_samples=10,
                        G_cp=10, rho_window=30, g_ls_db=0.0),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # a dot in the prefix is part of the name, not a suffix to replace
        for name in ("papr", "run.v2"):
            out = tmp_path / name
            code = main(
                ["papr_ccdf", "--config", str(cfg_path), "--trials", "4", "--out", str(out)]
            )
            assert code == 0
            header = (tmp_path / f"{name}_ccdf.csv").read_text().splitlines()[0]
            assert header == "threshold_db,ccdf_dam,ccdf_ofdm,ccdf_strongest"
            assert (tmp_path / f"{name}.csv").read_text().startswith("sweep_value,")
            assert json.loads((tmp_path / f"{name}.json").read_text())["kind"] == "papr_ccdf"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "papr.csv", "papr.json", "papr_ccdf.csv",
            "run.v2.csv", "run.v2.json", "run.v2_ccdf.csv",
        ]

    def test_papr_sidecar_records_channel_seed(self, tmp_path):
        system = dict(M_t=4, M_r=2, K=2, L=2, M=32, delay_span_samples=10,
                      G_cp=10, rho_window=30, g_ls_db=0.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(system=system)))
        out = tmp_path / "papr"
        code = main(["papr_ccdf", "--config", str(cfg_path), "--seed", "5",
                     "--trials", "2", "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "papr.json").read_text())
        assert sidecar["schema_version"] == 1
        recorded = sidecar["meta"]["channel_seed"]
        assert recorded == {"entropy": 5, "spawn_key": [0, 0]}
        # the recorded seed redraws the one channel the CCDFs are conditioned on
        cfg = SimConfig(**system)
        assert_same_channels(
            generate_channel_set(cfg, np.random.SeedSequence(**recorded)),
            generate_channel_set(cfg, trial_seed(5, 0, 0)),
        )

    def test_papr_sidecar_keys_and_nan_samples_rejected(self, tmp_path):
        spec = ExperimentSpec(kind="papr_ccdf", config=small_cfg(M_t=4), grid=(30.0,),
                              trials=2, seed=5)
        table = run_experiment(spec)
        path = tmp_path / "papr.json"
        write_json_sidecar(table, path)
        sidecar = json.loads(path.read_text())
        assert sorted(sidecar) == [
            "config", "kind", "meta", "rows", "samples", "schema_version", "seed",
            "sweep", "version",
        ]
        assert sorted(sidecar["samples"]) == ["30.0|dam", "30.0|ofdm", "30.0|strongest-path"]
        assert sidecar["samples"]["30.0|ofdm"] == table.samples[(30.0, "ofdm")]
        assert [r["scheme"] for r in sidecar["rows"]] == ["dam", "ofdm", "strongest-path"]
        # strict JSON: a NaN in a sample row raises instead of writing a bare NaN
        table.samples[(30.0, "ofdm")][0] = math.nan
        with pytest.raises(ValueError):
            write_json_sidecar(table, tmp_path / "nan.json")

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"system": {"beta": 2.0}}))
        assert main(["se_vs_power_bsside", "--config", str(cfg_path)]) == 1

    def test_mistyped_config_value_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": {"trials": "many"}}))
        assert main(["se_vs_power_bsside", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: experiment.trials: ")

    @pytest.mark.parametrize(
        "kind,system",
        [
            ("se_vs_power_doubleside", {"G_c": 150, "G_gi": 200}),
            ("papr_ccdf", {"M": 64}),
        ],
    )
    def test_lengths_that_describe_no_system_exit_code(self, tmp_path, capsys, kind, system):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"system": system}))
        assert main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: system: ")
        assert not (tmp_path / "out.csv").exists()


def test_cli_reports_a_grid_power_without_finite_watts(tmp_path):
    # run as a program: the error is one line, with no traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": {"grid": [4000]}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "damlink.cli", "se_vs_power_doubleside", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: experiment.grid: P_dbm ")
    assert "Traceback" not in done.stderr and not (tmp_path / "out.csv").exists()


def test_reference_runs_reach_only_the_2x2_rotation(monkeypatch):
    # at M_r = K = 2 every OFDM Hermitian stack is 2x2, so the default runs and
    # the benchmark take jacobi_eigh's rotation, never its np.linalg.eigh route
    from damlink import ofdm
    from damlink.experiments import _eval_bsside, _eval_doubleside

    kernel, shapes = ofdm.jacobi_eigh, []

    def spy(a):
        shapes.append(a.shape)
        return kernel(a)

    monkeypatch.setattr(ofdm, "jacobi_eigh", spy)
    cfg = SimConfig()
    _eval_doubleside(generate_channel_set(cfg, trial_seed(1, 0, 0), integer_delays=True), cfg)
    for integer_delays in (True, False):
        _eval_bsside(generate_channel_set(cfg, trial_seed(1, 0, 0), integer_delays), cfg)
    # doubleside: the own Grams; each bsside trial: the own Grams, whose
    # eigenpairs at K = 2 are also the interferer Grams', and the Schur complements
    assert shapes == [(2, 2, cfg.K, cfg.M)] * 5


def test_each_bsside_trial_builds_the_cross_grams_once(monkeypatch):
    from damlink import ofdm

    kernel, calls = ofdm._gram_eigen, []

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(ofdm, "_gram_eigen", spy)
    spec = small_spec(kind="se_vs_power_fractional", trials=2)
    run_experiment(spec)
    assert len(calls) == len(spec.grid) * spec.trials


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # reference antenna counts, so the BLAS calls are large enough to thread
    runs = {
        "papr_ccdf": dict(trials=8),
        "se_vs_power_doubleside": dict(grid=[10.0, 30.0], trials=3),
    }
    for kind, experiment in runs.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps({"experiment": experiment}))
    script = "import sys; from damlink.cli import main\n" + "".join(
        f"assert main(['{kind}', '--config', sys.argv[1] + '/{kind}.json', "
        f"'--seed', '2', '--out', sys.argv[2] + '/{kind}']) == 0\n"
        for kind in runs
    )
    samples = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
        )
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        samples[threads] = {
            kind: json.loads((out / f"{kind}.json").read_text())["samples"] for kind in runs
        }
    for kind in runs:
        one, two = samples["1"][kind], samples["2"][kind]
        assert one.keys() == two.keys() and one
        for key in one:
            # infeasible trials are null, read as NaN
            a, b = (np.array(x[key], dtype=float) for x in (one, two))
            assert np.allclose(b, a, rtol=1e-9, atol=0.0, equal_nan=True), (kind, key)
