import dataclasses
import math

import numpy as np
import pytest

from rondeau import serialize
from rondeau.analysis import PhaseDiagram, symbol_dft
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.sequences import MonopoleSpec, SymbolStream, sample_rmd, thue_morse_stream
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
    spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05,
                        gamma_y=math.pi + 0.123456789)
    params = DephasingParams(spec=spec, slots=(6, 13), gamma_0=0.01)
    trace = model_signal(sample_rmd(0, 4, seed=5), params)
    path = tmp_path / "trace.csv"
    serialize.write_trace(path, trace)
    again = serialize.read_trace(path)
    assert np.array_equal(again.times, trace.times)
    assert np.array_equal(again.values, trace.values)
    assert again.slots == trace.slots == (6, 13)
    assert again.block_duration == trace.block_duration
    assert again.num_cycles == trace.num_cycles
    assert again.meta["engine"] == "dephasing"


@pytest.mark.parametrize("num_cycles", [0, 2, -1])
def test_trace_of_only_the_pre_drive_row_reads_as_zero_cycles(tmp_path, num_cycles):
    spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05)
    params = DephasingParams(spec=spec, slots=(6, 13), gamma_0=0.01)
    path = tmp_path / "trace.csv"
    serialize.write_trace(path, model_signal(SymbolStream.from_text(""), params))
    path.write_text(path.read_text().replace("# num_cycles=0", f"# num_cycles={num_cycles}"))
    if num_cycles == 0:
        again = serialize.read_trace(path)
        assert (again.num_cycles, again.slots, again.values.tolist()) == (0, (13,), [1.0])
        serialize.write_trace(tmp_path / "again.csv", again)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    else:
        with pytest.raises(ValueError, match=f"{path}: the rows are not"):
            serialize.read_trace(path)


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


def test_couplings_file_lists_all_pairs_and_reads_back(tmp_path):
    couplings = compute_couplings(generate_graph(5, seed=3), 1.0, model="angular")
    path = tmp_path / "couplings.csv"
    serialize.write_couplings(path, couplings)
    lines = path.read_text().splitlines()
    data = [line for line in lines if line and not line.startswith("#")]
    assert data[0] == "k,l,coupling"
    assert len(data) - 1 == 10  # 5 choose 2
    again = serialize.read_couplings(path)
    assert np.array_equal(again.couplings, couplings.couplings)
    assert (again.model, again.median_coupling, again.mean_coupling) == (
        couplings.model, couplings.median_coupling, couplings.mean_coupling)
    path.write_text("\n".join(lines[:-1]) + "\n")  # 9 rows are no n (n - 1) / 2 pairs
    with pytest.raises(ValueError, match="the rows are not the pairs k < l of 5 spins"):
        serialize.read_couplings(path)


DIAGRAM = PhaseDiagram(gamma_grid=np.array([3.0, 3.1]), nu_grid=np.array([0.0, 0.5]),
                       intensity=np.array([[1.0, 0.25], [0.5, 1.0]]), n_order="inf",
                       realizations=2, normalization="row")
HEATING = ({"swept": "epsilon", "engine": "dephasing", "seed": 1, "max_cycles": 64,
            "config_hash": "0123456789abcdef"},
           (["0", "0", "inf"], [0.1, 0.2, 0.1], [1.0, 2.0, 1.5], [0.0, 0.5, 0.0],
            [0.5, 1.5, math.nan], [1, 0, 1]))


def test_phase_diagram_round_trip(tmp_path):
    path = tmp_path / "phase_diagram.csv"
    serialize.write_phase_diagram(path, DIAGRAM)
    assert path.read_text().splitlines()[3:5] == ["# nu_grid=[0.0, 0.5]", "gamma_y,0.0,0.5"]
    again = serialize.read_phase_diagram(path)
    for field in ("gamma_grid", "nu_grid", "intensity"):
        assert np.array_equal(getattr(again, field), getattr(DIAGRAM, field)), field
    assert (again.n_order, again.realizations, again.normalization) == ("inf", 2, "row")


def test_heating_round_trip(tmp_path):
    path = tmp_path / "heating_eps.csv"
    serialize.write_heating(path, *HEATING)
    assert path.read_text().splitlines()[5:7] == [
        "n_order,epsilon,rate_mean,rate_std,excess_rate,crossed", "0,0.1,1.0,0.0,0.5,1"]
    meta, columns = serialize.read_heating(path)
    assert meta == HEATING[0]
    assert [c.dtype.kind for c in columns] == ["U", "f", "f", "f", "f", "i"]
    for again, written in zip(columns, HEATING[1], strict=True):
        assert np.array_equal(again, np.array(written), equal_nan=again.dtype.kind == "f")


@pytest.mark.parametrize("write", [
    lambda path: serialize.write_phase_diagram(path, dataclasses.replace(
        DIAGRAM, nu_grid=np.array([0.0, 0.0]))),  # two intensity columns, one ν name
    lambda path: serialize.write_heating(path, HEATING[0], HEATING[1][:5]),
    lambda path: serialize.write_heating(path, HEATING[0], (*HEATING[1][:5], [1, 0])),
], ids=["repeated-nu", "fewer-arrays", "short-array"])
def test_writer_refuses_a_table_it_would_truncate(tmp_path, write):
    """Column names that are not one per array, or arrays of unequal lengths, are refused
    before the file is opened, not cut to the shortest."""
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="column names for arrays of lengths"):
        write(path)
    assert not path.exists()


def _write_stream(path):
    serialize.write_stream(path, thue_morse_stream(8))  # +--+-++-


def _write_spectrum(path):
    serialize.write_spectrum(path, symbol_dft(sample_rmd(1, 8, seed=2)))


def _write_graph(path):
    serialize.write_graph(path, generate_graph(4, seed=9))


def _write_couplings(path):
    serialize.write_couplings(path, compute_couplings(generate_graph(4, seed=9), 1.0))


def _write_phase_diagram(path):
    serialize.write_phase_diagram(path, DIAGRAM)


def _write_heating(path):
    serialize.write_heating(path, *HEATING)


@pytest.mark.parametrize("write, read, old, new, problem", [
    (_write_stream, serialize.read_stream, "+--", "+x-", "the symbol line is not 8 of + and -"),
    (_write_stream, serialize.read_stream, "+--+-++-", "+--+-++-\n+--+-++-",
     "the symbol line is not 8 of + and -"),
    (_write_stream, serialize.read_stream, "# seed=", "# cycles=8\n# seed=",
     "header key cycles is repeated"),
    (_write_spectrum, serialize.read_spectrum, "omega,amplitude", "omega,amp",
     "column line 'omega,amp', not omega,amplitude,amplitude_std or omega,amplitude"),
    (_write_spectrum, serialize.read_spectrum, "0.0,", "0.0,1e",
     "data row 1 has the amplitude cell '1e"),
    (_write_spectrum, serialize.read_spectrum, "# cycles=", '# kind="x"\n# cycles=',
     "header key kind is repeated"),
    (_write_spectrum, serialize.read_spectrum, "# cycles=8", "# cycles=16",
     "the header's cycles is not its 8 rows"),
    (_write_graph, serialize.read_graph, "index,x,y,z", "index,x,z,y",
     "column line 'index,x,z,y', not index,x,y,z"),
    (_write_graph, serialize.read_graph, "0,", "0.0,",
     "data row 1 has the index cell '0.0', not a valid int"),
    (_write_graph, serialize.read_graph, "# r_max=", "# r_min=1.0\n# r_max=",
     "header key r_min is repeated"),
    (_write_couplings, serialize.read_couplings, "0,1,", "1,0,",
     "the rows are not the pairs k < l of 4 spins in order"),
    (_write_couplings, serialize.read_couplings, "0,2,", "0,1,",
     "the rows are not the pairs k < l of 4 spins in order"),
    (_write_couplings, serialize.read_couplings, "# model=", "# mode=",
     "lacks the header key(s) model"),
    (_write_phase_diagram, serialize.read_phase_diagram, "# nu_grid=[0.0", "# nu_grid=[0.25",
     "column line 'gamma_y,0.0,0.5', not gamma_y,0.25,0.5"),
    (_write_phase_diagram, serialize.read_phase_diagram, "# nu_grid=[0.0", '# nu_grid=["0.0"',
     "column line 'gamma_y,0.0,0.5', not gamma_y,'0.0',0.5"),
    (_write_phase_diagram, serialize.read_phase_diagram, "# nu_grid=", "# nu=",
     "lacks the header key(s) nu_grid"),
    (_write_heating, serialize.read_heating, '# swept="epsilon"', '# swept="period"',
     "column line 'n_order,epsilon,rate_mean,rate_std,excess_rate,crossed', not "
     "n_order,period,rate_mean,rate_std,excess_rate,crossed"),
    (_write_heating, serialize.read_heating, "# seed=1", '# seed="1"',
     "header key seed has the wrong type"),
    (_write_heating, serialize.read_heating, "0,0.1,", "0,0.1x,",
     "data row 1 has the epsilon cell '0.1x', not a valid float"),
], ids=["stream-symbol", "stream-lines", "stream-key", "spectrum-columns", "spectrum-cell",
        "spectrum-key", "spectrum-cycles", "graph-columns", "graph-cell", "graph-key", "couplings-lower-pair",
        "couplings-repeated-pair", "couplings-key", "diagram-columns", "diagram-grid",
        "diagram-key", "heating-columns", "heating-key", "heating-cell"])
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
