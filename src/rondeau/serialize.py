"""Text serialization of streams, graphs, traces, spectra, and diagrams.

Every file but ``*.json`` is written by `_write` and read by `_read` in one format:
``# key=<JSON>`` header lines with the parameters and seeds, a column line (a
stream's symbol line), then CSV rows.  Floats are written as ``repr(float)``,
integers and flags as integers, an infinite header float as ``"inf"``.  The reader
rejects, naming the file and the place, a header line that is not ``# key=<JSON>``,
a repeated key, a required key missing or of the wrong type, an unexpected column
line, a row of the wrong width and a cell that does not parse.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .analysis import PhaseDiagram, SpectrumResult
from .evolution import SignalTrace
from .sequences import SymbolStream, order_label
from .spins import CouplingSet, SpinGraph

_NUMBER = (int, float)  # a JSON number: a float header key may read back as an int
_SPECTRUM = {"omega": float, "amplitude": float, "amplitude_std": float}
_GRAPH = {"index": int, "x": float, "y": float, "z": float}
_COUPLINGS = {"k": int, "l": int, "coupling": float}
_TRACE = {"time": float, "cycle": int, "pulse_index": int, "signal": float}


def _write(path, meta: dict, columns: dict, *data):
    """Write ``meta`` as header lines, then ``columns``' names, then one CSV row per index
    of the ``data`` arrays, each formatted by the kind (float, int, str) of its column."""
    header = [f"# {key}={json.dumps('inf' if isinstance(v, float) and math.isinf(v) else v)}\n"
              for key, v in meta.items()]
    cells = [map(repr if kind is float else str, np.asarray(values, dtype=kind).tolist())
             for kind, values in zip(columns.values(), data)]
    with open(path, "w") as f:  # row by row, holding no list of row strings
        f.writelines(header + [",".join(columns) + "\n"])
        f.writelines(",".join(row) + "\n" for row in zip(*cells))


def _read(path, keys: dict, columns: dict | None = None, optional: int = 0):
    """Strictly read a `_write` file into ``(header, column arrays)``.  ``keys`` and ``columns``
    map the required header keys and the column names to types; the last ``optional``
    columns may be absent.  Without ``columns``, the one line after the header is returned."""
    lines = Path(path).read_text().splitlines()
    meta: dict = {}
    while lines and lines[0].startswith("#"):
        line = lines.pop(0)
        match = re.fullmatch(r"# (\w+)=(.*)", line)
        try:
            key, value = match[1], json.loads(match[2])
        except (TypeError, json.JSONDecodeError):  # no match, or no JSON value
            raise ValueError(f"{path}: header line {line!r} is not '# key=<JSON>'") from None
        if key in meta:
            raise ValueError(f"{path}: header key {key} is repeated")
        meta[key] = value
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"{path} lacks the header key(s) {', '.join(missing)}")
    for key, kinds in keys.items():
        if type(meta[key]) is bool or not isinstance(meta[key], kinds):
            raise ValueError(f"{path}: header key {key} has the wrong type: {meta[key]!r}")
    if columns is None:
        if len(lines) != 1:
            raise ValueError(f"{path}: {len(lines)} lines follow the header, not 1")
        return meta, lines[0]
    names = list(columns)
    expected = [",".join(names[:len(names) - k]) for k in range(optional + 1)]
    found = lines[0] if lines else None
    if found not in expected:
        raise ValueError(f"{path}: column line {found!r}, not {' or '.join(expected)}")
    width = lines[0].count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows, 1):
        if len(row) != width:
            raise ValueError(f"{path}: data row {i} has {len(row)} columns, not {width}")
    arrays = []
    for j, name in enumerate(names[:width]):
        kind, parsed = columns[name], []
        for i, row in enumerate(rows, 1):
            try:
                parsed.append(kind(row[j]))
            except ValueError:
                raise ValueError(f"{path}: data row {i} has the {name} cell {row[j]!r}, "
                                 f"not a valid {kind.__name__}") from None
        arrays.append(np.array(parsed, dtype=kind))
    return meta, arrays


def write_stream(path, stream: SymbolStream):
    _write(path, {"n_order": order_label(stream), "seed": stream.seed, "cycles": len(stream)},
           {stream.as_text(): str})


def read_stream(path) -> SymbolStream:
    meta, line = _read(path, {"n_order": (int, str, type(None)), "seed": (int, type(None)),
                              "cycles": int})
    if set(line) - {"+", "-"} or len(line) != meta["cycles"]:
        raise ValueError(f"{path}: the symbol line is not {meta['cycles']} of + and -")
    n_order = math.inf if meta["n_order"] == "inf" else meta["n_order"]
    return SymbolStream.from_text(line, n_order=n_order, seed=meta["seed"])


def write_spectrum(path, spectrum: SpectrumResult):
    """Spectrum table; an ``amplitude_std`` column follows when ``spectrum.std`` is set."""
    meta = {"kind": spectrum.kind, "cycles": spectrum.num_cycles, **spectrum.meta}
    data = [x for x in (spectrum.omegas, spectrum.amplitudes, spectrum.std) if x is not None]
    _write(path, meta, dict.fromkeys(list(_SPECTRUM)[:len(data)], float), *data)


def read_spectrum(path) -> SpectrumResult:
    meta, (omegas, amplitudes, *std) = _read(path, {"kind": str, "cycles": int}, _SPECTRUM,
                                             optional=1)
    del meta["cycles"]  # the length of omegas
    return SpectrumResult(omegas=omegas, amplitudes=amplitudes, std=std[0] if std else None,
                          kind=meta.pop("kind"), meta=meta)


def write_graph(path, graph: SpinGraph):
    meta = {"edge_length": graph.edge_length, "r_min": graph.r_min, "r_max": graph.r_max,
            "seed": graph.seed}
    _write(path, meta, _GRAPH, np.arange(graph.num_spins), *graph.positions.T)


def read_graph(path) -> SpinGraph:
    meta, (_, *xyz) = _read(path, {"edge_length": _NUMBER, "r_min": _NUMBER,
                                   "r_max": _NUMBER, "seed": int}, _GRAPH)
    return SpinGraph(positions=np.column_stack(xyz), edge_length=meta["edge_length"],
                     r_min=meta["r_min"], r_max=meta["r_max"], seed=meta["seed"])


def write_couplings(path, couplings: CouplingSet):
    k, l = np.triu_indices(couplings.num_spins, k=1)
    _write(path, {"median_coupling": couplings.median_coupling,
                  "mean_coupling": couplings.mean_coupling, "model": couplings.model},
           _COUPLINGS, k, l, couplings.couplings[k, l])


def write_trace(path, trace: SignalTrace):
    """Trace table; its header carries ``slots_per_block`` as ``pulses_per_block``."""
    meta = {**trace.meta, "pulses_per_block": trace.slots_per_block - 1,
            "block_duration": trace.block_duration, "num_cycles": trace.num_cycles}
    _write(path, meta, _TRACE, trace.times, trace.cycle_index, trace.pulse_index, trace.values)


def read_trace(path) -> SignalTrace:
    """Trace written by `write_trace`: the header needs the ints ``pulses_per_block``
    and ``num_cycles`` and the number ``block_duration``; the columns must be
    ``time,cycle,pulse_index,signal``, float, int, int, float.  Anything else is a
    ValueError naming the file and the key, row or column at fault."""
    meta, (times, cycles, pulses, values) = _read(
        path, {"pulses_per_block": int, "block_duration": _NUMBER, "num_cycles": int}, _TRACE)
    return SignalTrace(times=times, values=values, cycle_index=cycles, pulse_index=pulses,
                       block_duration=meta.pop("block_duration"),
                       num_cycles=meta.pop("num_cycles"),
                       slots_per_block=meta.pop("pulses_per_block") + 1, meta=meta)


def write_phase_diagram(path, diagram: PhaseDiagram):
    """Row-major intensity matrix; first column is the kick angle."""
    meta = {"n_order": diagram.n_order, "realizations": diagram.realizations,
            "normalization": diagram.normalization}
    columns = {"gamma_y": float, **{repr(float(nu)): float for nu in diagram.nu_grid}}
    _write(path, meta, columns, diagram.gamma_grid, *diagram.intensity.T)


def write_heating(path, xname: str, rows):
    """Heating-sweep table: one row per (order, swept value)."""
    columns = {"n_order": str, xname: float, "rate_mean": float, "rate_std": float,
               "excess_rate": float, "crossed": int}
    _write(path, {}, columns, *zip(*rows))


def write_json(path, payload: dict):
    """Strict JSON: a NaN or infinite float is an error, not ``NaN``/``Infinity``."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
