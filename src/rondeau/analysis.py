"""Spectral analysis, lifetime extraction, and power-law fits of traces.

All discrete Fourier transforms use the 1/M normalization on the grid
omega_k = 2 pi k / M, where M is the number of drive cycles the trace
spans; amplitudes are absolute values, intensities their squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import SignalTrace
from .sequences import MonopoleSpec, SymbolStream

MICROMOTION = "micromotion"
STROBOSCOPIC = "stroboscopic"
SYMBOL = "symbol"

#: Fewest cycles for which a spectrum is considered meaningful.
MIN_SPECTRUM_CYCLES = 8


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


def _dft_amplitudes(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = samples.size
    omegas = 2.0 * np.pi * np.arange(m) / m
    return omegas, np.abs(np.fft.fft(samples)) / m


def symbol_dft(stream: SymbolStream) -> SpectrumResult:
    """Spectrum of the drive itself, symbols mapped to +-1."""
    if len(stream) == 0:
        raise InsufficientDataError("empty stream has no spectrum")
    omegas, amps = _dft_amplitudes(stream.symbols.astype(float))
    return SpectrumResult(omegas=omegas, amplitudes=amps, kind=SYMBOL)


def samples_nearest(trace: SignalTrace, targets: np.ndarray) -> np.ndarray:
    """Values at the recorded instants nearest each target time (ties earlier)."""
    times = trace.times
    idx = np.searchsorted(times, targets)
    idx = np.clip(idx, 1, times.size - 1)
    left_closer = (targets - times[idx - 1]) <= (times[idx] - targets)
    idx = np.where(left_closer, idx - 1, idx)
    return trace.values[idx]


def half_period_samples(trace: SignalTrace, spec: MonopoleSpec | None = None) -> np.ndarray:
    """Micromotion samples nearest (2l+1) T/2 for each complete cycle."""
    T = trace.block_duration if spec is None else spec.block_duration
    m = trace.num_cycles
    targets = (2.0 * np.arange(m) + 1.0) * T / 2.0
    return samples_nearest(trace, targets)


def stroboscopic_samples(trace: SignalTrace) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) nearest l*T for l = 0 .. cycles."""
    T = trace.block_duration
    targets = T * np.arange(trace.num_cycles + 1)
    return targets, samples_nearest(trace, targets)


def digitize(values: np.ndarray) -> np.ndarray:
    """Hard sign with the deterministic tie-break sgn(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1.0, -1.0)


def dft_micromotion(trace: SignalTrace, spec: MonopoleSpec | None = None) -> SpectrumResult:
    """Spectrum of the digitized half-period micromotion."""
    if trace.num_cycles < MIN_SPECTRUM_CYCLES:
        raise InsufficientDataError(
            f"need at least {MIN_SPECTRUM_CYCLES} cycles, got {trace.num_cycles}"
        )
    signs = digitize(half_period_samples(trace, spec))
    omegas, amps = _dft_amplitudes(signs)
    return SpectrumResult(omegas=omegas, amplitudes=amps, kind=MICROMOTION)


def dft_stroboscopic(trace: SignalTrace, spec: MonopoleSpec | None = None) -> SpectrumResult:
    """Spectrum of the raw signal at stroboscopic times l*T, l = 0 .. M-1."""
    if trace.num_cycles < MIN_SPECTRUM_CYCLES:
        raise InsufficientDataError(
            f"need at least {MIN_SPECTRUM_CYCLES} cycles, got {trace.num_cycles}"
        )
    T = trace.block_duration if spec is None else spec.block_duration
    targets = T * np.arange(trace.num_cycles)
    omegas, amps = _dft_amplitudes(samples_nearest(trace, targets))
    return SpectrumResult(omegas=omegas, amplitudes=amps, kind=STROBOSCOPIC)


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
    n = lx.size
    mx = lx.mean()
    sxx = np.sum((lx - mx) ** 2)
    if sxx == 0:
        raise ValueError("x values must not be all equal")
    slope = np.sum((lx - mx) * (ly - ly.mean())) / sxx
    intercept = ly.mean() - slope * mx
    residuals = ly - (slope * lx + intercept)
    variance = np.sum(residuals**2) / (n - 2) if n > 2 else 0.0
    return PowerLawFit(exponent=float(slope),
                       stderr=float(math.sqrt(max(variance, 0.0) / sxx)),
                       prefactor=float(math.exp(intercept)))


def phase_diagram(sweep, n_order=None, normalization: str = "row") -> PhaseDiagram:
    """Aggregate (gamma_y, trace) pairs into an intensity map.

    Traces sharing a kick angle are treated as drive realizations and their
    stroboscopic |DFT|**2 rows averaged.  ``normalization`` scales rows to
    unit maximum ("row"), the whole map ("global"), or not at all ("none").
    """
    if normalization not in ("row", "global", "none"):
        raise ValueError(f"unknown normalization {normalization!r}")
    groups: dict[float, list] = {}
    shapes = set()
    for gamma, trace in sweep:
        spectrum = dft_stroboscopic(trace)
        groups.setdefault(float(gamma), []).append(spectrum)
        shapes.add((spectrum.num_cycles, round(trace.block_duration, 12)))
    if not groups:
        raise ValueError("empty sweep")
    if len(shapes) > 1:
        raise ValueError(f"inconsistent trace shapes in sweep: {sorted(shapes)}")
    m, T = shapes.pop()
    gammas = np.array(sorted(groups))
    rows = np.vstack([
        np.mean([s.amplitudes**2 for s in groups[g]], axis=0) for g in gammas
    ])
    realizations = max(len(v) for v in groups.values())
    if normalization == "row":
        peaks = rows.max(axis=1, keepdims=True)
        rows = np.where(peaks > 0, rows / np.where(peaks > 0, peaks, 1.0), rows)
    elif normalization == "global":
        peak = rows.max()
        if peak > 0:
            rows = rows / peak
    nu_grid = 2.0 * np.pi * np.arange(m) / (m * T)
    return PhaseDiagram(gamma_grid=gammas, nu_grid=nu_grid, intensity=rows,
                        n_order=n_order, realizations=realizations,
                        normalization=normalization)


def half_frequency_contrast(intensity_row: np.ndarray, exclude: int = 3) -> float:
    """Peak-to-background ratio of the period-doubling line.

    Peak is the bin at omega = pi; background the median over bins at least
    `exclude` bins away from it (DC excluded as well); NaN if no such bin exists.
    """
    m = intensity_row.size
    center = m // 2
    peak = intensity_row[center]
    mask = np.ones(m, dtype=bool)
    lo = max(center - exclude, 0)
    mask[lo:center + exclude + 1] = False
    mask[0] = False
    if not mask.any():
        return math.nan
    background = float(np.median(intensity_row[mask]))
    if background == 0.0:
        return math.inf if peak > 0 else 0.0
    return float(peak) / background
