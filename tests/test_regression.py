"""Fixed-seed regression values: one small CLI run of every experiment kind.

The runs use the toy system of ``perfbench/selfcheck.py`` at seed 1, and the
pinned values are the rows the CLI wrote before the DAM assemblies derived
their own delays and tables. Tolerances:

* closed-form SE schemes: within 1e-9 relative;
* ``dam-isizf`` (an iterative solve that may only improve): not more than
  1e-6 relative below its pin;
* PAPR 1e-2 points: within 1e-9 dB.
"""

import json

import pytest

from damlink.cli import main

TOY_SYSTEM = {
    "M_t": 16, "M_r": 2, "K": 2, "L": 3, "M": 32, "rho_window": 20, "oversample": 2,
    "delay_span_samples": 10, "G_cp": 16, "G_gi": 20, "P_dbm": 30.0,
}
SE_GRID = [10.0, 25.0, 40.0]

# (sweep value, scheme) -> row mean; None marks an infeasible row
PINS = {
    "se_vs_power_doubleside": {
        (10.0, "dam-eigen-auto"): 6.471698747670057,
        (10.0, "dam-eigen-bs"): 6.471698747670057,
        (10.0, "dam-eigen-ue"): None,
        (10.0, "ofdm-eigen"): 4.400867905513338,
        (25.0, "dam-eigen-auto"): 10.858468976160895,
        (25.0, "dam-eigen-bs"): 10.858468976160895,
        (25.0, "dam-eigen-ue"): None,
        (25.0, "ofdm-eigen"): 8.111262208285769,
        (40.0, "dam-eigen-auto"): 5.912859823850959,
        (40.0, "dam-eigen-bs"): 5.912859823850959,
        (40.0, "dam-eigen-ue"): None,
        (40.0, "ofdm-eigen"): 4.063550965311272,
    },
    "se_vs_power_bsside": {
        (10.0, "dam-eigen"): 6.471698747670057,
        (10.0, "dam-isizf"): 6.6613571822215505,
        (10.0, "ofdm-eigen"): 4.400867905513338,
        (10.0, "ofdm-zf-wf"): 4.52243725412697,
        (25.0, "dam-eigen"): 10.858468976160902,
        (25.0, "dam-isizf"): 16.774683174710617,
        (25.0, "ofdm-eigen"): 8.111262208285769,
        (25.0, "ofdm-zf-wf"): 11.419235268621733,
        (40.0, "dam-eigen"): 5.912859823850961,
        (40.0, "dam-isizf"): 27.206017003669036,
        (40.0, "ofdm-eigen"): 4.063550965311272,
        (40.0, "ofdm-zf-wf"): 18.59717183328143,
    },
    "se_vs_power_fractional": {
        (10.0, "dam-eigen"): 5.305638259422152,
        (10.0, "dam-isizf"): 5.483079869581577,
        (10.0, "ofdm-eigen"): 4.400867905513338,
        (10.0, "ofdm-zf-wf"): 4.52243725412697,
        (25.0, "dam-eigen"): 9.1316460628045,
        (25.0, "dam-isizf"): 14.444995796886232,
        (25.0, "ofdm-eigen"): 8.111262208285769,
        (25.0, "ofdm-zf-wf"): 11.419235268621733,
        (40.0, "dam-eigen"): 4.940548555880404,
        (40.0, "dam-isizf"): 20.695212706311356,
        (40.0, "ofdm-eigen"): 4.063550965311272,
        (40.0, "ofdm-zf-wf"): 18.59717183328143,
    },
    "papr_ccdf": {
        (30.0, "dam"): 8.336,
        (30.0, "ofdm"): 12.036,
        (30.0, "strongest-path"): 6.568,
    },
}


def _rows(tmp_path, kind):
    experiment = {"seed": 1, "trials": 4} if kind == "papr_ccdf" else {
        "seed": 1, "trials": 1, "grid": SE_GRID,
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"system": TOY_SYSTEM, "experiment": experiment}))
    out = tmp_path / "run"
    assert main([kind, "--config", str(config), "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "run.json").read_text())["rows"]
    return {(row["sweep_value"], row["scheme"]): row["mean"] for row in rows}


@pytest.mark.parametrize("kind", sorted(PINS))
def test_cli_rows_match_pinned_values(tmp_path, kind):
    rows = _rows(tmp_path, kind)
    assert rows.keys() == PINS[kind].keys()
    for key, pin in PINS[kind].items():
        got = rows[key]
        if pin is None:
            assert got is None, key
        elif kind == "papr_ccdf":
            assert abs(got - pin) <= 1e-9, key
        elif key[1] == "dam-isizf":
            assert got >= pin * (1.0 - 1e-6), key
        else:
            assert got == pytest.approx(pin, rel=1e-9, abs=0.0), key
