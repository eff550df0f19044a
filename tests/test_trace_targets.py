"""The benchmark tracer (perfbench/tracing.py) still finds what it wraps.

The tracer reports a missing target as absent instead of failing, so a
renamed function or parameter would silently zero its per-layer metrics.
These tests load the tracer unmodified and check its names against damlink.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from conftest import random_delay_channel_set
from damlink.beamforming import assemble_bs_side, isi_zf_alternating
from damlink.waveform import Waveform, papr_blocks

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_target_is_a_damlink_function(target):
    module_name, _, name = target.rpartition(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    assert inspect.isfunction(getattr(module, name, None)), target


@pytest.mark.parametrize(
    "target,params",
    [
        ("waveform.papr_blocks", ("waveform", "block_symbols")),
        ("beamforming.isi_zf_alternating", ("tol", "max_iter")),
        *((name, ("path",)) for name in tracing.WRITERS),
    ],
)
def test_bound_parameters_exist(target, params):
    module_name, _, name = target.rpartition(".")
    func = getattr(importlib.import_module(f"{tracing.PACKAGE}.{module_name}"), name)
    assert set(params) <= set(inspect.signature(func).parameters), target


def test_observers_read_their_results():
    wf = Waveform(np.ones((3, 40), dtype=complex), oversample=2)
    note = tracing._papr_note(papr_blocks, (wf,), {"block_symbols": 5}, papr_blocks(wf, 5))
    assert note == {"blocks": 4, "kept": 4 * 5 * 2 * 3}

    cs = random_delay_channel_set(np.random.default_rng(0), 2, 16, K=2, L=2)
    F = assemble_bs_side(cs, 40, 0.25)
    result = isi_zf_alternating(F, 1.0, 1e-3, max_iter=1)
    note = tracing._isi_zf_note(isi_zf_alternating, (F, 1.0, 1e-3), {"max_iter": 1}, result)
    assert note == {"iterations": 1, "converged": bool(result[0].converged)}
