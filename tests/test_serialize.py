import dataclasses
import math

import numpy as np

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
