"""Baseband waveform synthesis and PAPR statistics.

Single-carrier delay-aligned transmission superposes one pulse-shaped,
pre-delayed symbol stream per compensated path; OFDM superposes one
serialized stream per column of its beamformers' basis, the path span of
rank K L for rank-1 paths (not one per path row, K L M_r).  The per-antenna
peak-to-average power ratio is measured on the oversampled post-filter
waveform.

Every scheme first builds a StreamSet (symbol-rate streams, their delays and
the antenna weights that superpose them).  ``stream_paprs`` reduces the shaped
streams to PAPRs one cache-sized real tile at a time, so it never holds an
antenna's complex waveform, as ``synthesize_*_waveform`` do for all M_t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig
from .pulse import rrc_taps

__all__ = [
    "Waveform",
    "qam4_map",
    "synthesize_dam_waveform",
    "synthesize_ofdm_waveform",
    "synthesize_strongest_path_waveform",
    "papr_blocks",
    "ccdf_from_paprs",
    "SYNTH_SPAN_SYMBOLS",
    "ANTENNA_GROUP",
    "StreamSet",
    "dam_streams",
    "ofdm_streams",
    "strongest_path_streams",
    "stream_paprs",
]

# RRC truncation for synthesis; analysis windows are configured separately.
SYNTH_SPAN_SYMBOLS = 16

# Antennas per PAPR tile.  ``stream_paprs`` ms on a reference chunk (DAM / OFDM /
# strongest path; one BLAS thread, 2-vCPU Xeon, 2 MB L2 per core; median of 9):
# 8: 18.7/32.1/15.0, 16: 18.4/33.6/14.1, 32: 21.1/33.6/14.3, 128: 25.6/36.2/21.6.
ANTENNA_GROUP = 16


@dataclass
class Waveform:
    """Per-antenna complex baseband samples at rate oversample / T."""

    samples: np.ndarray  # (n_antennas, n_samples)
    oversample: int

    @property
    def n_antennas(self) -> int:
        return self.samples.shape[0]


def qam4_map(bits) -> np.ndarray:
    """Gray-mapped 4-QAM: bit pair (b1, b0) -> ((1-2 b1) + j (1-2 b0)) / sqrt2."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % 2 != 0:
        raise ValueError("bit stream must be 1-D with even length")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    b1 = bits[0::2].astype(float)
    b0 = bits[1::2].astype(float)
    return ((1.0 - 2.0 * b1) + 1j * (1.0 - 2.0 * b0)) / np.sqrt(2.0)


def _fast_len(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n (an FFT length numpy handles fast)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _filter_spectrum(beta: float, oversample: int, nfft: int) -> np.ndarray:
    """DFT of the synthesis RRC taps at length oversample * nfft, as (oversample, nfft)."""
    taps = rrc_taps(beta, oversample, SYNTH_SPAN_SYMBOLS)
    spectrum = np.fft.fft(taps, oversample * nfft).reshape(oversample, nfft)
    spectrum.flags.writeable = False
    return spectrum


def _shape_streams(streams: np.ndarray, delays, oversample: int, beta: float) -> np.ndarray:
    """Upsample, delay and RRC-filter unit-rate streams; trims filter edges.

    Returns (n_streams, (n_symbols + max_delay) * oversample) samples whose
    first sample corresponds to symbol time 0.  The streams are transformed
    at symbol rate: zero-stuffing by ``oversample`` in time repeats the
    spectrum ``oversample`` times, so one short FFT per stream, a tiled
    product with the filter spectrum and one long inverse FFT give the
    linear convolution of the zero-stuffed streams with the taps.
    """
    streams = np.atleast_2d(streams)
    n_streams, n_sym = streams.shape
    delays = np.asarray(delays, dtype=int)
    max_delay = int(delays.max()) if delays.size else 0
    n_in = n_sym + max_delay
    # no wrap-around: the taps span 2 * SYNTH_SPAN_SYMBOLS + 1 symbols
    nfft = _fast_len(n_in + 2 * SYNTH_SPAN_SYMBOLS)
    spectrum = np.zeros((n_streams, nfft), dtype=complex)
    for s in range(n_streams):
        spectrum[s, delays[s] : delays[s] + n_sym] = streams[s]
    np.fft.fft(spectrum, axis=1, out=spectrum)
    shaped = np.empty((n_streams, oversample, nfft), dtype=complex)
    np.multiply(spectrum[:, None, :], _filter_spectrum(beta, oversample, nfft), out=shaped)
    shaped = shaped.reshape(n_streams, oversample * nfft)
    np.fft.ifft(shaped, axis=1, out=shaped)
    lead = SYNTH_SPAN_SYMBOLS * oversample
    return shaped[:, lead : lead + n_in * oversample]


@dataclass(frozen=True)
class StreamSet:
    """Symbol-rate streams at integer delays and the antennas they feed.

    Antenna ``a`` transmits ``weights[a] @ shaped`` where ``shaped`` are the
    pulse-shaped streams.
    """

    streams: np.ndarray  # (n_streams, n_symbols)
    delays: np.ndarray   # (n_streams,) integer symbol delays
    weights: np.ndarray  # (n_antennas, n_streams)

    @property
    def n_antennas(self) -> int:
        return self.weights.shape[0]


def dam_streams(symbols, beamformers, kappas, cfg: SimConfig) -> StreamSet:
    """The streams of ``synthesize_dam_waveform``: one per (UE, delay)."""
    symbols = np.asarray(symbols, dtype=complex)
    kappas = np.asarray(kappas, dtype=int)           # (K, I)
    K, I = kappas.shape
    f_bar = beamformers.f_bar
    if f_bar.shape != (K, I * cfg.M_t):
        raise ValueError("beamformer length does not match stream count")
    weights = f_bar.reshape(K * I, cfg.M_t).T
    return StreamSet(np.repeat(symbols, I, axis=0), kappas.ravel(), weights)


def ofdm_streams(symbols, beamformers, cfg: SimConfig) -> StreamSet:
    """The streams of ``synthesize_ofdm_waveform`` in the beamformers' span.

    Every transmit vector is v = Q v~ with Q = ``beamformers.basis`` and v~ =
    ``beamformers.coords``, so the per-subcarrier beamforming, IDFT and
    cyclic prefix run on the r columns of v~, and antenna a transmits Q[a]
    times the r shaped streams.
    """
    symbols = np.asarray(symbols, dtype=complex)
    K, n_ofdm, M = symbols.shape
    if M != cfg.M:
        raise ValueError(f"expected {cfg.M} subcarriers, got {M}")
    q = beamformers.basis
    r = q.shape[1]
    with_cp = np.empty((n_ofdm, cfg.G_cp + M, r), dtype=complex)
    time = with_cp[:, cfg.G_cp :]                                  # (D, M, r)
    np.einsum("kdm,kmr->dmr", symbols, beamformers.coords, out=time)
    np.fft.ifft(time, axis=1, norm="ortho", out=time)
    with_cp[:, : cfg.G_cp] = time[:, M - cfg.G_cp :]
    serial = with_cp.reshape(n_ofdm * (M + cfg.G_cp), r).T         # (r, N)
    return StreamSet(serial, np.zeros(r, dtype=int), q)


def strongest_path_streams(symbols, channels: ChannelSet, P: float, cfg: SimConfig) -> StreamSet:
    """The streams of ``synthesize_strongest_path_waveform``: one per UE."""
    symbols = np.asarray(symbols, dtype=complex)
    K = symbols.shape[0]
    strongest = np.argmax(np.linalg.norm(channels.gains, axis=(2, 3)), axis=1)
    _, _, vh = np.linalg.svd(channels.gains[np.arange(K), strongest], full_matrices=False)
    return StreamSet(symbols, np.zeros(K, dtype=int), np.sqrt(P / K) * vh[:, 0].conj().T)


def _synthesize(streams: StreamSet, cfg: SimConfig) -> Waveform:
    shaped = _shape_streams(streams.streams, streams.delays, cfg.oversample, cfg.beta)
    return Waveform(streams.weights @ shaped, cfg.oversample)


def stream_paprs(streams: StreamSet, cfg: SimConfig, lead_symbols: int, n_blocks: int,
                 block_symbols: int) -> np.ndarray:
    """Per-(block, antenna) PAPRs of ``n_blocks`` blocks after ``lead_symbols``.

    Equals ``papr_blocks`` on the synthesized waveform cut to those blocks.
    Per block, the shaped streams' rows [Re s; Im s] times [[Re W, -Im W],
    [Im W, Re W]] give [Re x; Im x] for a tile of ANTENNA_GROUP antennas,
    squared in place and added by halves to |x|^2, then reduced per antenna.
    """
    block = block_symbols * cfg.oversample
    start = lead_symbols * cfg.oversample
    shaped = _shape_streams(streams.streams, streams.delays, cfg.oversample, cfg.beta)
    groups = [slice(a, a + ANTENNA_GROUP) for a in range(0, streams.n_antennas, ANTENNA_GROUP)]
    weights = [streams.weights[s] for s in groups]
    lifted = [np.block([[w.real, -w.imag], [w.imag, w.real]]) for w in weights]
    peak, total = np.empty((2, n_blocks, streams.n_antennas))
    stack = np.empty((2 * len(shaped), block))
    tile = np.empty((2 * ANTENNA_GROUP, block))
    for b in range(n_blocks):
        x = shaped[:, start + b * block : start + (b + 1) * block]
        np.concatenate([x.real, x.imag], out=stack)
        for s, w in zip(groups, lifted):
            power = np.matmul(w, stack, out=tile[: len(w)])
            np.square(power, out=power)
            re2, im2 = power.reshape(2, -1, block)
            np.add(re2, im2, out=re2)
            np.maximum.reduce(re2, axis=1, out=peak[b, s])
            np.add.reduce(re2, axis=1, out=total[b, s])
    return _peak_to_mean(peak, total / block)


def synthesize_dam_waveform(symbols, beamformers, kappas, cfg: SimConfig) -> Waveform:
    """Superpose per-path beamformed, pre-delayed streams on every antenna.

    ``symbols`` is (K, n_symbols); ``kappas`` holds one delay sequence per
    UE, one delay per stream; the stacked transmit vectors come from
    ``beamformers.f_bar``.
    """
    return _synthesize(dam_streams(symbols, beamformers, kappas, cfg), cfg)


def synthesize_ofdm_waveform(symbols, beamformers, cfg: SimConfig) -> Waveform:
    """Beamform per subcarrier, IDFT, prepend cyclic prefixes, shape with RRC.

    ``symbols`` is (K, n_ofdm_symbols, M); the serialized sample streams run
    at rate 1/T before oversampled pulse shaping with the same filter as the
    single-carrier waveform.  Shaping runs on the r streams of
    ``ofdm_streams``, one per column of ``beamformers.basis``.
    """
    return _synthesize(ofdm_streams(symbols, beamformers, cfg), cfg)


def synthesize_strongest_path_waveform(
    symbols, channels: ChannelSet, P: float, cfg: SimConfig
) -> Waveform:
    """One eigen-beamformed stream per UE on its strongest path, no delays."""
    return _synthesize(strongest_path_streams(symbols, channels, P, cfg), cfg)


def papr_blocks(waveform: Waveform, block_symbols: int) -> np.ndarray:
    """Per-(block, antenna) PAPR max|x|^2 / mean|x|^2, linear scale."""
    if waveform.samples.size == 0:
        raise ValueError("empty waveform")
    block = block_symbols * waveform.oversample
    n_blocks = waveform.samples.shape[1] // block
    if n_blocks == 0:
        raise ValueError("waveform shorter than one block")
    x = waveform.samples[:, : n_blocks * block]
    p = np.abs(x) ** 2
    p = p.reshape(p.shape[0], n_blocks, block)
    return _peak_to_mean(p.max(axis=2).T, p.mean(axis=2).T)


def _peak_to_mean(peak, mean) -> np.ndarray:
    """(n_blocks, n_antennas) PAPRs; a block without power has none."""
    if not mean.all():
        raise ValueError("block %d, antenna %d carries no power" % tuple(np.argwhere(mean == 0)[0]))
    return peak / mean


def ccdf_from_paprs(paprs, thresholds_db) -> np.ndarray:
    """Share of the linear PAPRs whose dB value exceeds each threshold.

    One sort: the values above a threshold are those past its right-side
    ``searchsorted`` position in the sorted dB values.
    """
    papr_db = np.sort(10.0 * np.log10(np.asarray(paprs, dtype=float).ravel()))
    n = papr_db.size
    above = n - np.searchsorted(papr_db, np.asarray(thresholds_db, dtype=float), side="right")
    return above / n
