"""Text serialization of streams, graphs, traces, spectra, diagrams and heating sweeps.

Every file but ``*.json`` is written by `_write` and read by `_read` in one format:
``# key=<JSON>`` header lines with the parameters and seeds, a column line (a
stream's symbol line), then CSV rows.  Floats are written as ``repr(float)``,
integers and flags as integers, an infinite header float as ``"inf"``.  A phase
diagram's header key ``nu_grid`` names its columns after ``gamma_y``; a heating table's
``swept`` names its second (``epsilon`` or ``period``), next to ``engine``, ``seed``,
``max_cycles`` and ``config_hash``.  The reader rejects, naming the file and the place,
a header line that is not ``# key=<JSON>``, a repeated key, a required key missing or of
the wrong type, an unexpected column line, a row of the wrong width and a cell that does
not parse.
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
    of the ``data`` arrays, each formatted by the kind (float, int, str) of its column.
    A ValueError refuses names that are not one per array, or arrays of unequal lengths."""
    arrays = [np.asarray(values, dtype=kind) for kind, values in zip(columns.values(), data)]
    if len(columns) != len(data) or len({len(a) for a in arrays}) > 1:
        raise ValueError(f"{path}: {len(columns)} column names for arrays of lengths "
                         f"{[len(values) for values in data]}")
    header = [f"# {key}={json.dumps('inf' if isinstance(v, float) and math.isinf(v) else v)}\n"
              for key, v in meta.items()]
    cells = [map(repr if kind is float else str, map(kind, a))
             for kind, a in zip(columns.values(), arrays)]
    with open(path, "w") as f:  # row by row, holding no list of cells or row strings
        f.writelines(header + [",".join(columns) + "\n"])
        f.writelines(",".join(row) + "\n" for row in zip(*cells))


def _read(path, keys: dict, columns=None, optional: int = 0):
    """Strictly read a `_write` file into ``(header, column arrays)``.  ``keys`` and ``columns``
    map the required header keys and the column names to types, or ``columns`` is a function
    of the header returning that map; the last ``optional`` columns may be absent.  Without
    ``columns``, the lines after the header are returned."""
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
        return meta, lines
    columns = columns(meta) if callable(columns) else columns
    names = list(columns)
    expected = [",".join(names[:len(names) - k]) for k in range(optional + 1)]
    found = lines[0] if lines else None
    if found not in expected:
        raise ValueError(f"{path}: column line {found!r}, not {' or '.join(expected)}")
    names = names[:lines[0].count(",") + 1]
    kinds, parsed = [columns[name] for name in names], [[] for _ in names]
    for i, line in enumerate(lines[1:], 1):  # row by row, holding no list of every row's cells
        row = line.split(",")
        if len(row) != len(names):
            raise ValueError(f"{path}: data row {i} has {len(row)} columns, not {len(names)}")
        for name, kind, cell, cells in zip(names, kinds, row, parsed):
            try:
                cells.append(kind(cell))
            except ValueError:
                raise ValueError(f"{path}: data row {i} has the {name} cell {cell!r}, "
                                 f"not a valid {kind.__name__}") from None
    return meta, [np.array(cells, dtype=kind) for kind, cells in zip(kinds, parsed)]


def read_bytes(path) -> int:
    """Peak bytes `_read` holds for the file at ``path``: its bytes once, as line strings, and
    200 per line for the line and its parsed cells, as measured on traces of 17-digit and of
    ±1.0 signals.  The lines are counted in 64 KiB chunks, so no copy of the file is held."""
    with open(path, "rb") as f:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 16), b""))
    return Path(path).stat().st_size + 200 * lines


def write_stream(path, stream: SymbolStream):
    _write(path, {"n_order": order_label(stream), "seed": stream.seed, "cycles": len(stream)},
           {stream.as_text(): str}, [])


def read_stream(path) -> SymbolStream:
    meta, lines = _read(path, {"n_order": (int, str, type(None)), "seed": (int, type(None)),
                               "cycles": int})
    if len(lines) != 1 or set(lines[0]) - {"+", "-"} or len(lines[0]) != meta["cycles"]:
        raise ValueError(f"{path}: the symbol line is not {meta['cycles']} of + and -")
    n_order = math.inf if meta["n_order"] == "inf" else meta["n_order"]
    return SymbolStream.from_text(lines[0], n_order=n_order, seed=meta["seed"])


def write_spectrum(path, spectrum: SpectrumResult):
    """Spectrum table; an ``amplitude_std`` column follows when ``spectrum.std`` is set."""
    meta = {"kind": spectrum.kind, "cycles": spectrum.num_cycles, **spectrum.meta}
    data = [x for x in (spectrum.omegas, spectrum.amplitudes, spectrum.std) if x is not None]
    _write(path, meta, dict.fromkeys(list(_SPECTRUM)[:len(data)], float), *data)


def read_spectrum(path) -> SpectrumResult:
    meta, (omegas, amplitudes, *std) = _read(path, {"kind": str, "cycles": int}, _SPECTRUM,
                                             optional=1)
    if meta.pop("cycles") != omegas.size:
        raise ValueError(f"{path}: the header's cycles is not its {omegas.size} rows")
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


def read_couplings(path) -> CouplingSet:
    """Couplings written by `write_couplings`: the rows must be the pairs k < l in order."""
    meta, (k, l, values) = _read(path, {"median_coupling": _NUMBER, "mean_coupling": _NUMBER,
                                        "model": str}, _COUPLINGS)
    n = math.isqrt(2 * k.size) + 1  # k.size = n (n - 1) / 2 pairs
    if not all(map(np.array_equal, np.triu_indices(n, k=1), (k, l))):
        raise ValueError(f"{path}: the rows are not the pairs k < l of {n} spins in order")
    couplings = np.zeros((n, n))
    couplings[k, l] = couplings[l, k] = values
    return CouplingSet(couplings, median_coupling=meta["median_coupling"], model=meta["model"])


def write_trace(path, trace: SignalTrace):
    """Trace table; its header carries ``slots_per_block`` as ``pulses_per_block``."""
    meta = {**trace.meta, "pulses_per_block": trace.slots_per_block - 1,
            "block_duration": trace.block_duration, "num_cycles": trace.num_cycles}
    _write(path, meta, _TRACE, trace.times,
           *SignalTrace.slot_layout(trace.slots, trace.num_cycles), trace.values)


def read_trace(path) -> SignalTrace:
    """Trace written by `write_trace`: the header needs the ints ``pulses_per_block`` and
    ``num_cycles`` and the number ``block_duration``, the columns are `_TRACE`'s.  The rows are
    the pre-drive one (cycle 0, slot 0), then cycle 0's slots, increasing within 1 ...
    pulses_per_block + 1, in each cycle 0 ... num_cycles - 1; a file of the pre-drive row alone
    reads the block end.  Else a ValueError names the file and what is at fault."""
    meta, (times, cycles, pulses, values) = _read(
        path, {"pulses_per_block": int, "block_duration": _NUMBER, "num_cycles": int}, _TRACE)
    slots, n, end = pulses[1:][cycles[1:] == 0], meta["num_cycles"], meta["pulses_per_block"] + 1
    if not (np.all(np.diff([0, *slots, end + 1]) > 0) and n >= 0 and (slots.size or n == 0)
            and all(map(np.array_equal, SignalTrace.slot_layout(slots, n), (cycles, pulses)))):
        raise ValueError(f"{path}: the rows are not the pre-drive one, then cycle 0's slots "
                         f"(here {slots.size}), increasing within 1 ... {end}, in each of "
                         f"num_cycles={n} cycles")
    del meta["num_cycles"], meta["pulses_per_block"]  # the trace derives both
    return SignalTrace(times=times, values=values, slots=tuple(slots.tolist()) or (end,),
                       block_duration=meta.pop("block_duration"), slots_per_block=end, meta=meta)


def _diagram_columns(meta: dict) -> dict:
    """A phase diagram's columns: the kick angle, then one named by each ``nu_grid`` float."""
    return {"gamma_y": float, **{repr(nu): float for nu in meta["nu_grid"]}}


def write_phase_diagram(path, diagram: PhaseDiagram):
    """Row-major intensity matrix; first column is the kick angle."""
    meta = {"n_order": diagram.n_order, "realizations": diagram.realizations,
            "normalization": diagram.normalization, "nu_grid": diagram.nu_grid.tolist()}
    _write(path, meta, _diagram_columns(meta), diagram.gamma_grid, *diagram.intensity.T)


def read_phase_diagram(path) -> PhaseDiagram:
    meta, (gammas, *intensity) = _read(path, {"n_order": (int, str, type(None)),
                                              "realizations": int, "normalization": str,
                                              "nu_grid": list}, _diagram_columns)
    return PhaseDiagram(gammas, np.array(meta["nu_grid"], dtype=float), np.column_stack(intensity),
                        meta["n_order"], meta["realizations"], meta["normalization"])


def _heating_columns(meta: dict) -> dict:
    """A heating table's columns; the header key ``swept`` names the second."""
    return {"n_order": str, meta["swept"]: float, "rate_mean": float, "rate_std": float,
            "excess_rate": float, "crossed": int}


def write_heating(path, meta: dict, columns):
    """Heating-sweep table: one row per (order, swept value) from the six ``columns``."""
    _write(path, meta, _heating_columns(meta), *columns)


def read_heating(path) -> tuple[dict, list]:
    """The header and the six columns of a `write_heating` table."""
    return _read(path, {"swept": str, "engine": str, "seed": int, "max_cycles": int,
                        "config_hash": str}, _heating_columns)


def write_json(path, payload: dict):
    """Strict JSON: a NaN or infinite float is an error, not ``NaN``/``Infinity``."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
