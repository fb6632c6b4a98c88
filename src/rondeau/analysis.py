"""Spectral analysis, lifetime extraction, and power-law fits of traces.

Every analysis picks a trace's samples by pulse slot, never by time: the
stroboscopic ones (t = 0, then each cycle's block end) and the half-period
ones (each cycle's `half_sample_slot`); a trace that does not read the slot
is rejected.

All discrete Fourier transforms use the 1/M normalization on the grid
omega_k = 2 pi k / M, where M is the number of drive cycles the trace
spans; amplitudes are absolute values, intensities their squares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import SignalTrace, half_sample_slot
from .sequences import SymbolStream

MICROMOTION = "micromotion"
STROBOSCOPIC = "stroboscopic"
SYMBOL = "symbol"

#: Fewest cycles for which a spectrum is considered meaningful.
MIN_SPECTRUM_CYCLES = 8

#: Bins on either side of omega = pi kept out of the contrast's background.
CONTRAST_EXCLUDE = 3

#: Phase-diagram scalings: rows to unit maximum, the whole map, or none.
NORMALIZATIONS = ("row", "global", "none")


class InsufficientDataError(ValueError):
    """Trace does not span enough cycles for the requested analysis."""


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """DFT amplitudes |1/M sum_l exp(-i omega_k l) s_l| and their grid.

    ``std`` is the spread over realizations of an averaged spectrum, else None;
    ``meta`` the run parameters a spectrum file carries in its header.
    """

    omegas: np.ndarray
    amplitudes: np.ndarray
    kind: str
    std: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def num_cycles(self) -> int:
        return self.omegas.size


@dataclass(frozen=True)
class HeatingFit:
    """1/e lifetime and decay rate; ``crossed`` tells whether 1/e was reached."""

    lifetime: float
    rate: float
    crossed: bool = True


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares slope of log y against log x."""

    exponent: float
    stderr: float
    prefactor: float


@dataclass(frozen=True, eq=False)
class PhaseDiagram:
    """Stroboscopic Fourier intensity over a kick-angle grid."""

    gamma_grid: np.ndarray
    nu_grid: np.ndarray
    intensity: np.ndarray
    n_order: int | str | None = None
    realizations: int = 1
    normalization: str = "row"


def _dft(samples: np.ndarray, kind: str, least: int = MIN_SPECTRUM_CYCLES) -> SpectrumResult:
    """Spectrum of ``samples``, one per cycle; InsufficientDataError for fewer than ``least``."""
    m = samples.size
    if m < least:
        raise InsufficientDataError(f"a {kind} spectrum needs {least} or more cycles, got {m}")
    return SpectrumResult(omegas=2.0 * np.pi * np.arange(m) / m,
                          amplitudes=np.abs(np.fft.fft(samples)) / m, kind=kind)


def symbol_dft(stream: SymbolStream) -> SpectrumResult:
    """Spectrum of the drive itself, symbols mapped to +-1."""
    return _dft(stream.symbols.astype(float), SYMBOL, least=1)


def half_period_samples(trace: SignalTrace) -> np.ndarray:
    """Micromotion samples: the `half_sample_slot` sample of each cycle."""
    return trace.slot_values(half_sample_slot(trace))


def stroboscopic_samples(trace: SignalTrace) -> tuple[np.ndarray, np.ndarray]:
    """(l*T, value) for l = 0 .. cycles: the t = 0 sample, then each block-end sample."""
    values = np.concatenate([trace.values[:1], trace.slot_values(trace.slots_per_block)])
    return trace.block_duration * np.arange(trace.num_cycles + 1), values


def digitize(values: np.ndarray) -> np.ndarray:
    """Hard sign with the deterministic tie-break sgn(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1.0, -1.0)


def dft_micromotion(trace: SignalTrace) -> SpectrumResult:
    """Spectrum of the digitized half-period micromotion."""
    return _dft(digitize(half_period_samples(trace)), MICROMOTION)


def dft_stroboscopic(trace: SignalTrace) -> SpectrumResult:
    """Spectrum of the raw signal at stroboscopic times l*T, l = 0 .. M-1."""
    return _dft(stroboscopic_samples(trace)[1][:-1], STROBOSCOPIC)


def lifetime(trace: SignalTrace) -> HeatingFit:
    """1/e lifetime of the stroboscopic envelope.

    The literal global minimizer of ||S(t)| - S0/e| over the stroboscopic
    samples, ties toward earlier times.
    """
    times, values = stroboscopic_samples(trace)
    s0 = values[0]
    if s0 == 0.0:
        raise ValueError("initial stroboscopic sample is zero")
    target = abs(s0) / math.e
    magnitudes = np.abs(values[1:])
    if magnitudes.size == 0:
        raise InsufficientDataError("trace has no stroboscopic samples past t=0")
    pick = int(np.argmin(np.abs(magnitudes - target)))
    t_e = float(times[1 + pick])
    return HeatingFit(lifetime=t_e, rate=1.0 / t_e,
                      crossed=bool(magnitudes.min() <= target))


def fit_power_law(xs, ys) -> PowerLawFit:
    """Slope and standard error of log y versus log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 3:
        raise ValueError("need at least 3 matching points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit requires strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    mx = lx.mean()
    sxx = np.sum((lx - mx) ** 2)
    if sxx == 0:
        raise ValueError("x values must not be all equal")
    slope = np.sum((lx - mx) * (ly - ly.mean())) / sxx
    intercept = ly.mean() - slope * mx
    residuals = ly - (slope * lx + intercept)
    variance = np.sum(residuals**2) / (lx.size - 2)  # 3 or more points
    return PowerLawFit(exponent=float(slope), stderr=float(math.sqrt(variance / sxx)),
                       prefactor=float(math.exp(intercept)))


def phase_diagram(gammas, rows, block_duration: float, n_order=None, realizations: int = 1,
                  normalization: str = "row") -> PhaseDiagram:
    """Intensity map of the stroboscopic |DFT|**2 ``rows`` at kick angles ``gammas``.

    Row i, over the same cycles as every other, is the mean over
    ``realizations`` drives at ``gammas[i]``; the map sorts rows by angle.
    ``normalization`` scales rows to unit maximum ("row"), the whole map
    ("global"), or not at all ("none").
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    gammas = np.asarray(gammas, dtype=float)
    order = np.argsort(gammas)
    rows = np.vstack(rows)[order]  # a ValueError unless the rows are equally long
    if normalization != "none":  # rows or the whole map to unit maximum, unless not positive
        peaks = rows.max(axis=1 if normalization == "row" else None, keepdims=True)
        rows = np.where(peaks > 0, rows / np.where(peaks > 0, peaks, 1.0), rows)
    m = rows.shape[1]
    nu_grid = 2.0 * np.pi * np.arange(m) / (m * round(block_duration, 12))
    return PhaseDiagram(gamma_grid=gammas[order], nu_grid=nu_grid, intensity=rows,
                        n_order=n_order, realizations=realizations,
                        normalization=normalization)


def _background_bins(m: int) -> np.ndarray:
    """Mask of the bins more than `CONTRAST_EXCLUDE` bins away from omega = pi, DC left out."""
    center = m // 2
    mask = np.ones(m, dtype=bool)
    mask[max(center - CONTRAST_EXCLUDE, 0):center + CONTRAST_EXCLUDE + 1] = False
    mask[0] = False
    return mask


def min_contrast_cycles() -> int:
    """Fewest cycles (DFT bins) for which `half_frequency_contrast` has a background."""
    return next(m for m in itertools.count(1) if _background_bins(m).any())


def half_frequency_contrast(intensity_row: np.ndarray) -> float:
    """Peak-to-background ratio of the period-doubling line.

    Peak is the bin at omega = pi; background the median over bins more than
    `CONTRAST_EXCLUDE` bins away from it (DC excluded as well); NaN if no such bin exists.
    """
    peak = intensity_row[intensity_row.size // 2]
    mask = _background_bins(intensity_row.size)
    if not mask.any():
        return math.nan
    background = float(np.median(intensity_row[mask]))
    if background == 0.0:
        return math.inf if peak > 0 else 0.0
    return float(peak) / background
