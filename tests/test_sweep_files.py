"""Strict read-back of spectrum.csv and phase_diagram.csv against the results written."""

import json
import math

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau import serialize
from rondeau.runner import RunConfig, run

SMALL = dict(engine="full", num_spins=4, pulses_per_block=12, kick_plus=8, kick_minus=4,
             tau=0.05, seed=4, cycles=16)


def read_table(path):
    """Strict parser: ``# key=<JSON>`` lines, a column line, rows of float literals."""
    lines = path.read_text().splitlines()
    meta = {}
    while lines[0].startswith("# "):
        key, raw = lines.pop(0)[2:].split("=", 1)
        assert key not in meta, key
        meta[key] = json.loads(raw)
    columns = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (len(lines) - 1, len(columns))
    return meta, columns, rows


@pytest.fixture()
def written(monkeypatch):
    """Arguments of every serialize.write_spectrum/write_phase_diagram call."""
    calls = {}
    for name in ("write_spectrum", "write_phase_diagram"):
        real = getattr(serialize, name)

        def record(*args, _name=name, _real=real, **kwargs):
            calls[_name] = (args, kwargs)
            return _real(*args, **kwargs)

        monkeypatch.setattr(serialize, name, record)
    return calls


@pytest.mark.parametrize("spectrum_kind", ["symbol", "micromotion", "stroboscopic"])
def test_spectrum_csv_round_trips(tmp_path, written, spectrum_kind):
    config = RunConfig(kind="spectrum", out_dir=str(tmp_path), spectrum_kind=spectrum_kind,
                       n_order="1", realizations=3, gamma_y=0.95 * math.pi, **SMALL)
    run(config)
    (_, spectrum), kwargs = written["write_spectrum"]
    meta, columns, rows = read_table(tmp_path / "spectrum.csv")
    assert meta == {"kind": spectrum_kind, "cycles": spectrum.num_cycles, "realizations": 3,
                    "n_order": "1", "engine": "full", "seed": 4}
    assert columns == ["omega", "amplitude", "amplitude_std"]
    assert np.array_equal(rows[:, 0], spectrum.omegas)
    assert np.array_equal(rows[:, 1], spectrum.amplitudes)
    assert np.array_equal(rows[:, 2], kwargs["std"])
    assert (kwargs["std"] > 0).any()


@pytest.mark.parametrize("n_order, realizations", [("1", 2), ("inf", 1)])
def test_phase_diagram_csv_round_trips(tmp_path, written, n_order, realizations):
    config = RunConfig(kind="phase-diagram", out_dir=str(tmp_path), n_order=n_order,
                       realizations=2, normalization="global",
                       gamma_grid=(0.9 * math.pi, math.pi, 1.1 * math.pi), **SMALL)
    run(config)
    (_, diagram), _ = written["write_phase_diagram"]
    meta, columns, rows = read_table(tmp_path / "phase_diagram.csv")
    assert meta == {"n_order": n_order, "realizations": realizations,
                    "normalization": "global"}
    assert columns[0] == "gamma_y"
    assert np.array_equal([float(nu) for nu in columns[1:]], diagram.nu_grid)
    assert np.array_equal(rows[:, 0], diagram.gamma_grid)
    assert np.array_equal(rows[:, 1:], diagram.intensity)


def test_thue_morse_spectrum_evolves_its_single_drive_once(tmp_path, monkeypatch):
    evolved = []
    real = runner.evolve_blockwise
    monkeypatch.setattr(runner, "evolve_blockwise",
                        lambda *a, **k: evolved.append(a[0]) or real(*a, **k))
    summary = run(RunConfig(kind="spectrum", out_dir=str(tmp_path), n_order="inf",
                            realizations=3, gamma_y=0.95 * math.pi, **SMALL))
    meta, _, rows = read_table(tmp_path / "spectrum.csv")
    assert len(evolved) == 1
    assert meta["realizations"] == summary["realizations"] == 1
    assert np.all(rows[:, 2] == 0.0)
