import dataclasses
import math

import numpy as np
import pytest

from rondeau import serialize
from rondeau.analysis import symbol_dft
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.sequences import MonopoleSpec, sample_rmd, thue_morse_stream
from rondeau.spins import compute_couplings, generate_graph


def test_stream_round_trip(tmp_path):
    stream = sample_rmd(2, 16, seed=77)
    path = tmp_path / "stream.txt"
    serialize.write_stream(path, stream)
    again = serialize.read_stream(path)
    assert again == stream


def test_thue_morse_stream_round_trip(tmp_path):
    stream = thue_morse_stream(10)
    path = tmp_path / "stream.txt"
    serialize.write_stream(path, stream)
    again = serialize.read_stream(path)
    assert math.isinf(again.n_order)
    assert np.array_equal(again.symbols, stream.symbols)


def test_trace_round_trip_bit_exact(tmp_path):
    spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05)
    params = DephasingParams(spec=spec, epsilon=0.123456789, gamma_0=0.01)
    trace = model_signal(sample_rmd(0, 4, seed=5), params)
    path = tmp_path / "trace.csv"
    serialize.write_trace(path, trace)
    again = serialize.read_trace(path)
    assert np.array_equal(again.times, trace.times)
    assert np.array_equal(again.values, trace.values)
    assert np.array_equal(again.cycle_index, trace.cycle_index)
    assert np.array_equal(again.pulse_index, trace.pulse_index)
    assert again.block_duration == trace.block_duration
    assert again.num_cycles == trace.num_cycles
    assert again.meta["engine"] == "dephasing"


def test_spectrum_round_trip(tmp_path):
    spectrum = dataclasses.replace(symbol_dft(sample_rmd(1, 32, seed=2)), std=np.zeros(32))
    path = tmp_path / "spectrum.csv"
    serialize.write_spectrum(path, spectrum)
    again = serialize.read_spectrum(path)
    assert np.array_equal(again.omegas, spectrum.omegas)
    assert np.array_equal(again.amplitudes, spectrum.amplitudes)
    assert np.array_equal(again.std, spectrum.std)
    assert again.kind == spectrum.kind


def test_graph_round_trip(tmp_path):
    graph = generate_graph(6, seed=9)
    path = tmp_path / "graph.csv"
    serialize.write_graph(path, graph)
    again = serialize.read_graph(path)
    assert np.array_equal(again.positions, graph.positions)
    assert again.seed == graph.seed
    assert again.r_min == graph.r_min


def test_couplings_file_lists_all_pairs(tmp_path):
    couplings = compute_couplings(generate_graph(5, seed=3), 1.0)
    path = tmp_path / "couplings.csv"
    serialize.write_couplings(path, couplings)
    lines = path.read_text().splitlines()
    data = [line for line in lines if line and not line.startswith("#")]
    assert data[0] == "k,l,coupling"
    assert len(data) - 1 == 10  # 5 choose 2
    # no public reader: the CLI never reads it back, but it parses strictly and bit-exactly
    meta, (k, l, values) = serialize._read(path, {"median_coupling": float, "model": str},
                                           serialize._COUPLINGS)
    assert np.array_equal(np.stack([k, l]), np.triu_indices(5, k=1))
    assert np.array_equal(values, couplings.couplings[k, l])
    assert np.array_equal(values, couplings.couplings[l, k])
    assert meta["model"] == couplings.model
    assert meta["median_coupling"] == couplings.median_coupling


def _write_stream(path):
    serialize.write_stream(path, thue_morse_stream(8))  # +--+-++-


def _write_spectrum(path):
    serialize.write_spectrum(path, symbol_dft(sample_rmd(1, 8, seed=2)))


def _write_graph(path):
    serialize.write_graph(path, generate_graph(4, seed=9))


@pytest.mark.parametrize("write, read, old, new, problem", [
    (_write_stream, serialize.read_stream, "+--", "+x-", "the symbol line is not 8 of + and -"),
    (_write_stream, serialize.read_stream, "# seed=", "# cycles=8\n# seed=",
     "header key cycles is repeated"),
    (_write_spectrum, serialize.read_spectrum, "omega,amplitude", "omega,amp",
     "column line 'omega,amp', not omega,amplitude,amplitude_std or omega,amplitude"),
    (_write_spectrum, serialize.read_spectrum, "0.0,", "0.0,1e",
     "data row 1 has the amplitude cell '1e"),
    (_write_spectrum, serialize.read_spectrum, "# cycles=", '# kind="x"\n# cycles=',
     "header key kind is repeated"),
    (_write_graph, serialize.read_graph, "index,x,y,z", "index,x,z,y",
     "column line 'index,x,z,y', not index,x,y,z"),
    (_write_graph, serialize.read_graph, "0,", "0.0,",
     "data row 1 has the index cell '0.0', not a valid int"),
    (_write_graph, serialize.read_graph, "# r_max=", "# r_min=1.0\n# r_max=",
     "header key r_min is repeated"),
], ids=["stream-symbol", "stream-key", "spectrum-columns", "spectrum-cell", "spectrum-key",
        "graph-columns", "graph-cell", "graph-key"])
def test_readers_name_the_file_and_the_defect(tmp_path, write, read, old, new, problem):
    """A bad cell, a wrong column (or symbol) line and a repeated header key: the first
    line starting with ``old`` starts with ``new`` instead."""
    path = tmp_path / "file"
    write(path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(old))
    lines[at] = new + lines[at][len(old):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as error:
        read(path)
    assert str(path) in str(error.value) and problem in str(error.value)
