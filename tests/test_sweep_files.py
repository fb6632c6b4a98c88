"""Read-back of spectrum.csv and phase_diagram.csv through their `serialize` readers against
the results written, and the seed layout of a phase diagram's rows."""

import dataclasses
import json
import math

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau import serialize
from rondeau.analysis import dft_stroboscopic
from rondeau.evolution import evolve_blockwise
from rondeau.runner import RunConfig, derive_seed, run

SMALL = dict(engine="full", num_spins=4, pulses_per_block=12, kick_plus=8, kick_minus=4,
             tau=0.05, seed=4, cycles=16)


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
    (_, spectrum), _ = written["write_spectrum"]
    assert (spectrum.std > 0).any()
    again = serialize.read_spectrum(tmp_path / "spectrum.csv")
    assert (again.kind, again.num_cycles) == (spectrum_kind, spectrum.num_cycles)
    assert again.meta == {"realizations": 3, "n_order": "1", "engine": "full", "seed": 4}
    for field in ("omegas", "amplitudes", "std"):
        assert np.array_equal(getattr(again, field), getattr(spectrum, field)), field


@pytest.mark.parametrize("n_order, realizations", [("1", 2), ("inf", 1)])
def test_phase_diagram_csv_round_trips(tmp_path, written, n_order, realizations):
    config = RunConfig(kind="phase-diagram", out_dir=str(tmp_path), n_order=n_order,
                       realizations=2, normalization="global",
                       gamma_grid=(0.9 * math.pi, math.pi, 1.1 * math.pi), **SMALL)
    run(config)
    (_, diagram), _ = written["write_phase_diagram"]
    again = serialize.read_phase_diagram(tmp_path / "phase_diagram.csv")
    assert (again.n_order, again.realizations, again.normalization) == \
        (n_order, realizations, "global")
    for field in ("gamma_grid", "nu_grid", "intensity"):
        assert np.array_equal(getattr(again, field), getattr(diagram, field)), field


def test_contrast_json_is_strict(tmp_path):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    # an ideal kick leaves no background (an infinite contrast); phase diagrams too
    # short for a background bin are rejected before they run
    run(RunConfig(kind="phase-diagram", out_dir=str(tmp_path), gamma_grid=(math.pi,),
                  **dict(SMALL, engine="dephasing", n_order="inf", cycles=16)))
    contrast = json.loads((tmp_path / "contrast.json").read_text(), parse_constant=reject)
    assert contrast == {"half_frequency_contrast": {repr(math.pi): "inf"}}


def test_thue_morse_spectrum_evolves_its_single_drive_once(tmp_path, monkeypatch):
    evolved = []
    real = runner.evolve_blockwise
    monkeypatch.setattr(runner, "evolve_blockwise",
                        lambda *a, **k: evolved.append(a[0]) or real(*a, **k))
    summary = run(RunConfig(kind="spectrum", out_dir=str(tmp_path), n_order="inf",
                            realizations=3, gamma_y=0.95 * math.pi, **SMALL))
    spectrum = serialize.read_spectrum(tmp_path / "spectrum.csv")
    assert len(evolved) == 1
    assert spectrum.meta["realizations"] == summary["realizations"] == 1
    assert np.all(spectrum.std == 0.0)


def test_phase_diagram_row_i_averages_the_drives_seeded_by_point_i(tmp_path, written):
    """Row i is the mean stroboscopic |DFT|**2 of drives r seeded derive_seed(seed, i, r),
    with i the angle's place in gamma_grid, not in the sorted map."""
    gammas = (1.1 * math.pi, 0.9 * math.pi, math.pi)
    config = RunConfig(kind="phase-diagram", out_dir=str(tmp_path), n_order="1",
                       realizations=2, normalization="none", gamma_grid=gammas, **SMALL)
    run(config)
    (_, diagram), _ = written["write_phase_diagram"]
    system = runner.FullSystem(config, *config.validate())
    for i, gamma in enumerate(gammas):
        props = runner._block_set(system, config.plan(), dataclasses.replace(config.spec(),
                                                                      gamma_y=gamma))
        traces = [evolve_blockwise(runner.make_stream("1", 16, derive_seed(4, i, r)), props,
                                   system.row0) for r in range(2)]
        row = np.mean([dft_stroboscopic(t).amplitudes**2 for t in traces], axis=0)
        assert np.array_equal(diagram.intensity[sorted(gammas).index(gamma)], row), i
