"""Text serialization of streams, graphs, traces, spectra, and diagrams.

All files are plain CSV (or a symbol line for streams) preceded by header
lines of the form ``# key=value`` with JSON-encoded values, so every file
carries the parameters and seeds that produced it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .analysis import PhaseDiagram, SpectrumResult
from .evolution import SignalTrace
from .sequences import SymbolStream, order_label
from .spins import CouplingSet, SpinGraph


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_header(lines: list[str], meta: dict):
    for key, value in meta.items():
        if isinstance(value, float) and math.isinf(value):
            value = "inf"
        lines.append(f"# {key}={json.dumps(value)}")


def _read_header(text_lines) -> tuple[dict, list[str]]:
    meta: dict = {}
    body = []
    for line in text_lines:
        line = line.rstrip("\n")
        if line.startswith("#"):
            stripped = line[1:].strip()
            if "=" in stripped:
                key, raw = stripped.split("=", 1)
                try:
                    meta[key.strip()] = json.loads(raw)
                except json.JSONDecodeError:
                    meta[key.strip()] = raw
        elif line.strip():
            body.append(line)
    return meta, body


def write_stream(path, stream: SymbolStream):
    lines: list[str] = []
    _write_header(lines, {
        "n_order": order_label(stream),
        "seed": stream.seed,
        "cycles": len(stream),
    })
    lines.append(stream.as_text())
    Path(path).write_text("\n".join(lines) + "\n")


def read_stream(path) -> SymbolStream:
    meta, body = _read_header(Path(path).read_text().splitlines())
    if not body:
        raise ValueError(f"no symbol line in {path}")
    n_order = meta.get("n_order")
    if n_order == "inf":
        n_order = math.inf
    return SymbolStream.from_text(body[0], n_order=n_order, seed=meta.get("seed"))


def write_spectrum(path, spectrum: SpectrumResult):
    """Spectrum table; an ``amplitude_std`` column follows when ``spectrum.std`` is set."""
    lines: list[str] = []
    _write_header(lines, {"kind": spectrum.kind, "cycles": spectrum.num_cycles,
                          **spectrum.meta})
    std = spectrum.std
    lines.append("omega,amplitude" + (",amplitude_std" if std is not None else ""))
    for i in range(spectrum.omegas.size):
        row = f"{_format_float(spectrum.omegas[i])},{_format_float(spectrum.amplitudes[i])}"
        if std is not None:
            row += f",{_format_float(std[i])}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def read_spectrum(path) -> SpectrumResult:
    meta, body = _read_header(Path(path).read_text().splitlines())
    columns = np.array([[float(x) for x in line.split(",")] for line in body[1:]]).T
    std = columns[2] if len(columns) > 2 else None
    kind = meta.pop("kind", "unknown")
    meta.pop("cycles", None)  # the length of omegas
    return SpectrumResult(omegas=columns[0], amplitudes=columns[1], std=std, kind=kind,
                          meta=meta)


def write_graph(path, graph: SpinGraph):
    lines: list[str] = []
    _write_header(lines, {
        "edge_length": graph.edge_length, "r_min": graph.r_min,
        "r_max": graph.r_max, "seed": graph.seed,
    })
    lines.append("index,x,y,z")
    for i, (x, y, z) in enumerate(graph.positions):
        lines.append(f"{i},{_format_float(x)},{_format_float(y)},{_format_float(z)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path) -> SpinGraph:
    meta, body = _read_header(Path(path).read_text().splitlines())
    rows = [line.split(",") for line in body[1:]]
    positions = np.array([[float(r[1]), float(r[2]), float(r[3])] for r in rows])
    return SpinGraph(positions=positions, edge_length=meta["edge_length"],
                     r_min=meta["r_min"], r_max=meta["r_max"], seed=meta["seed"])


def write_couplings(path, couplings: CouplingSet):
    lines: list[str] = []
    _write_header(lines, {
        "median_coupling": couplings.median_coupling,
        "mean_coupling": couplings.mean_coupling,
        "model": couplings.model,
    })
    lines.append("k,l,coupling")
    n = couplings.num_spins
    for k in range(n):
        for l in range(k + 1, n):
            lines.append(f"{k},{l},{_format_float(couplings.couplings[k, l])}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace(path, trace: SignalTrace):
    """Trace table; its header carries ``slots_per_block`` as ``pulses_per_block``."""
    lines: list[str] = []
    meta = dict(trace.meta)
    meta["pulses_per_block"] = trace.slots_per_block - 1
    meta["block_duration"] = trace.block_duration
    meta["num_cycles"] = trace.num_cycles
    _write_header(lines, meta)
    lines.append("time,cycle,pulse_index,signal")
    for i in range(len(trace)):
        lines.append(
            f"{_format_float(trace.times[i])},{trace.cycle_index[i]},"
            f"{trace.pulse_index[i]},{_format_float(trace.values[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> SignalTrace:
    """Trace written by `write_trace`; a missing header key, a short row or a cell that
    is not a number is a ValueError naming the file.
    """
    meta, body = _read_header(Path(path).read_text().splitlines())
    missing = [k for k in ("pulses_per_block", "block_duration", "num_cycles") if k not in meta]
    if missing:
        raise ValueError(f"trace file {path} lacks the header key(s) {', '.join(missing)}")
    columns = (("time", float, []), ("cycle", int, []), ("pulse", int, []),
               ("signal", float, []))
    for i, line in enumerate(body[1:], 1):
        row = line.split(",")
        if len(row) != 4:
            raise ValueError(f"trace file {path}: data row {i} has {len(row)} columns, not 4")
        for (name, kind, cells), cell in zip(columns, row):
            try:
                cells.append(kind(cell))
            except ValueError:
                raise ValueError(f"trace file {path}: data row {i} has the {name} cell "
                                 f"{cell!r}, not a valid {kind.__name__}") from None
    times, cycles, pulses, values = (np.array(cells, dtype=float if kind is float else np.int64)
                                     for _, kind, cells in columns)
    block_duration = meta.pop("block_duration")
    num_cycles = meta.pop("num_cycles")
    slots_per_block = meta.pop("pulses_per_block") + 1
    return SignalTrace(times=times, values=values, cycle_index=cycles,
                       pulse_index=pulses, block_duration=block_duration,
                       num_cycles=num_cycles, slots_per_block=slots_per_block,
                       meta=meta)


def write_phase_diagram(path, diagram: PhaseDiagram):
    """Row-major intensity matrix; first column is the kick angle."""
    lines: list[str] = []
    _write_header(lines, {
        "n_order": diagram.n_order,
        "realizations": diagram.realizations,
        "normalization": diagram.normalization,
    })
    lines.append("gamma_y," + ",".join(_format_float(nu) for nu in diagram.nu_grid))
    for g, row in zip(diagram.gamma_grid, diagram.intensity):
        lines.append(_format_float(g) + "," + ",".join(_format_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_heating(path, xname: str, rows):
    """Heating-sweep table: one row per (order, swept value)."""
    lines = [f"n_order,{xname},rate_mean,rate_std,excess_rate,crossed"]
    for order, x, mean, std, excess, crossed in rows:
        lines.append(f"{order},{_format_float(x)},{_format_float(mean)},"
                     f"{_format_float(std)},{_format_float(excess)},{int(crossed)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict):
    """Strict JSON: a NaN or infinite float is an error, not ``NaN``/``Infinity``."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
