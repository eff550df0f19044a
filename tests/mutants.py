"""Planted defects that the tests must catch, and a runner that replays them.

Each ``Mutant`` names a file, a text that must occur in it exactly once, the
text that replaces it, and the tests that must fail once it is replaced.
The runner copies the repository to a temporary directory, plants one
mutant there, runs only its tests and checks that every one of them fails
(or errors).  A mutant whose old text is missing or occurs more than once
is an error, not a skip: a change that moves the code updates the mutant.

    python tests/mutants.py        # every mutant
    python tests/mutants.py 0 3    # the mutants at those indices

pytest does not collect this file; ``tests/test_mutants.py`` checks that the
list is well formed.  Mutation testing: R. A. DeMillo, R. J. Lipton and
F. G. Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BF = "src/damlink/beamforming.py"
T_BF = "tests/test_beamforming.py"
T_MMSE = T_BF + "::TestMmseUpdates::"
T_ZF = T_BF + "::TestIsiZfAlternating::"
OFDM = "src/damlink/ofdm.py"
T_OFDM = "tests/test_ofdm_oracle.py::"
T_PAPR = "tests/test_papr_synthesis.py::"


class Mutant(NamedTuple):
    name: str
    file: str                # relative to the repository root
    old: str                 # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]   # pytest node ids without parameters; each must fail


MUTANTS = (
    Mutant(
        "transmit-solve SINR without the path gains n",
        BF,
        "return c, np.sum(r0 * n * c, axis=1), fallbacks",
        "return c, np.sum(r0 * c, axis=1), fallbacks",
        (T_MMSE + "test_returned_sinrs_are_those_of_the_returned_weights",),
    ),
    Mutant(
        "transmit solve without the noise term reg",
        BF,
        'np.einsum("kii->ki", a)[:] += reg',
        'np.einsum("kii->ki", a)[:] += 0.0 * reg',
        (T_MMSE + "test_returned_sinrs_are_those_of_the_returned_weights",),
    ),
    Mutant(
        "transmit update's noise term not scaled by ||w||^2",
        BF,
        "reg = sigma2 * (K / P) * (w * w.conj()).real.sum(axis=1)[:, None]",
        "reg = np.full((K, 1), sigma2 * (K / P))",
        (T_MMSE + "test_returned_sinrs_are_those_of_the_returned_weights",),
    ),
    Mutant(
        "transmit solve without the ISI Gram s",
        BF,
        "a = s * n[:, None, :]",
        "a = 0.0 * s * n[:, None, :]",
        ("tests/test_isi_zf_oracle.py::test_matches_lag_stacked_oracle",),
    ),
    Mutant(
        "receive update without the ISI term",
        BF,
        "cov = y @ grams.s @ y.conj().swapaxes(1, 2)",
        "cov = 0.0 * (y @ grams.s @ y.conj().swapaxes(1, 2))",
        (
            T_MMSE + "test_updates_never_decrease_sinr",
            "tests/test_isi_zf_oracle.py::test_matches_lag_stacked_oracle",
        ),
    ),
    Mutant(
        "ISI-ZF reports converged at max_iter",
        BF,
        "converged = max_iter == 0",
        "converged = True",
        (T_ZF + "test_max_iter_cutoff_reports_unconverged",),
    ),
    Mutant(
        "pinv fallback not counted",
        BF,
        "fallbacks += 1",
        "fallbacks += 0",
        (T_ZF + "test_pinv_fallbacks_are_counted",),
    ),
    Mutant(
        "power split drops the aligned ISI",
        BF,
        "isi_aligned = np.sum(np.abs(a) ** 2, axis=1) - desired",
        "isi_aligned = 0.0 * desired",
        ("tests/test_waveform_oracle.py::test_power_terms_match_convolution_oracle",),
    ),
    Mutant(
        "power split counts own streams as IUI",
        BF,
        "    z[own, own] = 0.0  # other UEs' streams only\n",
        "",
        ("tests/test_waveform_oracle.py::test_power_terms_match_convolution_oracle",),
    ),
    Mutant(
        "OFDM coupling without its conj",
        OFDM,
        'np.einsum("rkm,kjrsm,sjm->kjm", u.conj(), gram, u)',
        'np.einsum("rkm,kjrsm,sjm->kjm", u, gram, u)',
        (
            T_OFDM + "test_eigen_matches_full_svd_oracle",
            "tests/test_ofdm.py::TestOfdmEigen::test_matches_literal_formula",
            T_OFDM + "test_eigen_sinrs_match_the_link",
        ),
    ),
    Mutant(
        "OFDM leak keeps the own-UE terms",
        OFDM,
        "    leak[idx, idx] = 0.0\n",
        "",
        (
            T_OFDM + "test_eigen_sinrs_follow_returned_beamformers",
            "tests/test_ofdm.py::TestOfdmEigen::test_matches_literal_formula",
        ),
    ),
    Mutant(
        "OFDM Schur complement adds the interferer term",
        OFDM,
        "schur = schur - sum(",
        "schur = schur + sum(",
        (
            T_OFDM + "test_zf_waterfill_matches_full_column_oracle",
            T_OFDM + "test_zf_schur_per_entry_products_match_matmuls",
        ),
    ),
    Mutant(
        "OFDM handover comparison flipped",
        OFDM,
        "to_svd = lam[0] <= GRAM_MIN_RATIO * lam[-1]",
        "to_svd = lam[0] > GRAM_MIN_RATIO * lam[-1]",
        (
            T_OFDM + "test_zf_handover_to_the_projection",
            T_OFDM + "test_zf_rate_builds_no_beamformer_on_reference_draws",
        ),
    ),
    Mutant(
        "K = 2 Schur complement reads the own eigenvalues unreversed",
        OFDM,
        "lam, w = own_eig[0][:, ::-1], own_eig[1][:, :, ::-1]",
        "lam, w = own_eig[0], own_eig[1][:, :, ::-1]",
        (
            T_OFDM + "test_zf_schur_per_entry_products_match_matmuls",
            T_OFDM + "test_zf_waterfill_matches_full_column_oracle",
            T_OFDM + "test_zf_snrs_match_the_link",
        ),
    ),
    Mutant(
        "K = 2 Schur complement reads the own eigenvectors unreversed",
        OFDM,
        "lam, w = own_eig[0][:, ::-1], own_eig[1][:, :, ::-1]",
        "lam, w = own_eig[0][:, ::-1], own_eig[1]",
        (
            T_OFDM + "test_zf_schur_per_entry_products_match_matmuls",
            T_OFDM + "test_zf_waterfill_matches_full_column_oracle",
            T_OFDM + "test_zf_snrs_match_the_link",
        ),
    ),
    # the ZF beamformers' power and zero leak hold for these two; only the
    # time-domain link sees that they do not deliver the rate's SNRs
    Mutant(
        "OFDM ZF combines with the weakest eigenvector",
        "tests/oracles.py",
        "u = vecs[..., -1]  ",
        "u = vecs[..., 0]  ",
        (T_OFDM + "test_zf_snrs_match_the_link",),
    ),
    Mutant(
        "OFDM ZF transmit direction not of unit norm",
        "tests/oracles.py",
        "v_dir = uh.conj() / np.maximum(norm, np.finfo(float).tiny)",
        "v_dir = uh.conj() / np.maximum(norm ** 2, np.finfo(float).tiny)",
        (T_OFDM + "test_zf_snrs_match_the_link",),
    ),
    Mutant(
        "subcarrier phases of the opposite sign",
        "src/damlink/channel.py",
        "table = np.exp(2j * np.pi",
        "table = np.exp(-2j * np.pi",
        (
            T_OFDM + "test_link_delivers_the_frequency_response",
            T_OFDM + "test_eigen_sinrs_match_the_link",
            T_OFDM + "test_zf_snrs_match_the_link",
        ),
    ),
    # a delay common to every path leaves every SINR unchanged, so only the
    # phase-sensitive checks see it
    Mutant(
        "subcarrier weights one sample late",
        "src/damlink/channel.py",
        "(np.arange(M)[:, None] * channels.n[:, None, :]) % M",
        "(np.arange(M)[:, None] * (channels.n[:, None, :] + 1)) % M",
        (
            T_OFDM + "test_link_delivers_the_frequency_response",
            "tests/test_channel.py::TestFrequencyResponse::test_coefficients_match_the_direct_phase",
            T_OFDM + "test_eigen_matches_full_svd_oracle",
        ),
    ),
    Mutant(
        "lifted PAPR weights with the wrong sign",
        "src/damlink/waveform.py",
        "np.block([[w.real, -w.imag], [w.imag, w.real]])",
        "np.block([[w.real, w.imag], [w.imag, w.real]])",
        (
            T_PAPR + "test_group_paprs_match_synthesized_waveform",
            T_PAPR + "test_ofdm_reference_chunk_matches_per_antenna_oracle",
        ),
    ),
    Mutant(
        "stream PAPRs skip the last block",
        "src/damlink/waveform.py",
        "    for b in range(n_blocks):\n",
        "    for b in range(n_blocks - 1):\n",
        (
            T_PAPR + "test_group_paprs_match_synthesized_waveform",
            T_PAPR + "test_stream_paprs_reject_blocks_past_the_streams",
        ),
    ),
    Mutant(
        'CCDF counts ties with side="left"',
        "src/damlink/waveform.py",
        'side="right")',
        'side="left")',
        ("tests/test_waveform.py::TestPapr::test_ccdf_matches_comparison_definition",),
    ),
    Mutant(
        "sidecar written without allow_nan=False",
        "src/damlink/experiments.py",
        "json.dumps(doc, allow_nan=False)",
        "json.dumps(doc)",
        ("tests/test_experiments.py::TestCli::test_papr_sidecar_keys_and_nan_samples_rejected",),
    ),
    Mutant(
        "a scipy import reached from the CLI",
        "src/damlink/waveform.py",
        "import numpy as np\n",
        "import numpy as np\nimport scipy.signal  # noqa: F401\n",
        ("tests/test_cli_imports.py::test_cli_import_loads_nothing_beyond_numpy",),
    ),
)


def _defined(path: Path, names: list[str]) -> bool:
    """Whether the (class, ..., function) chain ``names`` is defined in ``path``."""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next(
            (n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


def problems(mutant: Mutant, root: Path = ROOT) -> list[str]:
    """Why ``mutant`` cannot be planted in ``root`` as written; empty when it can."""
    path = root / mutant.file
    if not path.is_file():
        return [f"{mutant.file} does not exist"]
    found = []
    count = path.read_text().count(mutant.old)
    if not mutant.old or count != 1:
        found.append(f"old text occurs {count} times in {mutant.file}, not once")
    if mutant.new == mutant.old:
        found.append("new text equals old text")
    if not mutant.tests:
        found.append("names no test")
    for test in mutant.tests:
        file, *names = test.split("::")
        if not names or "[" in test or not (root / file).is_file() or not _defined(root / file, names):
            found.append(f"no test {test}")
    return found


def _failed(output: str) -> list[str]:
    """Node ids that pytest's short summary reports as failed or errored."""
    return [m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.M)]


def run(mutant: Mutant) -> list[str]:
    """Plant ``mutant`` in a copy of the repository; return the named tests that still pass."""
    with tempfile.TemporaryDirectory(prefix="damlink-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_out"),
        )
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    failed = _failed(done.stdout)
    return [
        test for test in mutant.tests
        if not any(f == test or f.startswith(test + "[") or f == test.split("::")[0] for f in failed)
    ]


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(i)] for i in argv] if argv else list(MUTANTS)
    start, bad = time.perf_counter(), 0
    for mutant in chosen:
        found = problems(mutant)
        if found:
            print(f"ERROR     {mutant.name}: {'; '.join(found)}")
            bad += 1
            continue
        t0 = time.perf_counter()
        survivors = run(mutant)
        verdict = "killed" if not survivors else "SURVIVED"
        print(f"{verdict:9} {mutant.name} ({time.perf_counter() - t0:.1f} s)")
        for test in survivors:
            print(f"          still passes: {test}")
        bad += bool(survivors)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
