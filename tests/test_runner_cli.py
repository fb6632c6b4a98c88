import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rondeau.runner as runner
import rondeau.spins as spins
from rondeau import serialize
from rondeau.cli import load_config_file, main
from rondeau.evolution import SignalTrace
from rondeau.runner import ENGINES, KINDS, ConfigError, RunConfig, derive_seed, run
from rondeau.sequences import MonopoleSpec
from rondeau.serialize import read_trace, write_trace

from conftest import traced


def dephasing_trace_config(out_dir, **overrides):
    base = dict(
        kind="trace", out_dir=str(out_dir), engine="dephasing", seed=3,
        pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05,
        gamma_y=math.pi + 0.05, n_order="0", cycles=32, gamma_0=0.01,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_validation_catches_unknown_kind(self):
        with pytest.raises(ConfigError):
            RunConfig(kind="nope", out_dir="x").validate()

    def test_validation_requires_grids(self):
        with pytest.raises(ConfigError):
            RunConfig(kind="phase-diagram", out_dir="x").validate()

    def test_hash_stable_and_sensitive(self):
        a = RunConfig(kind="trace", out_dir="x", seed=1)
        b = RunConfig(kind="trace", out_dir="x", seed=1)
        c = RunConfig(kind="trace", out_dir="x", seed=2)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_hash_ignores_out_dir(self):
        a = RunConfig(kind="spectrum", out_dir="a", seed=1)
        b = RunConfig(kind="spectrum", out_dir="b", seed=1)
        assert a.hash() == b.hash()

    @pytest.mark.parametrize("kind", KINDS)
    def test_readout_noise_only_where_seeded(self, kind):
        base = dict(kind=kind, out_dir="x", gamma_grid=(math.pi,), eps_grid=(0.1,),
                    tau_grid=(0.05,), text="Hi", trace_file="trace.csv")
        RunConfig(**base).validate()
        with pytest.raises(ConfigError, match="readout_noise"):
            RunConfig(readout_noise=-0.1, **base).validate()
        noisy = RunConfig(readout_noise=0.1, **base)
        if kind in ("trace", "encode"):
            noisy.validate()
        else:
            with pytest.raises(ConfigError, match="readout_noise"):
                noisy.validate()

    @pytest.mark.parametrize("overrides", [
        dict(kind="trace", n_order="2", cycles=10),
        dict(kind="spectrum", n_order="2", cycles=10),
        dict(kind="spectrum", spectrum_kind="symbol", n_order="2", cycles=10),
        dict(kind="phase-diagram", n_order="2", cycles=10),
        dict(kind="phase-diagram", n_order="1", cycles=4),
        dict(kind="phase-diagram", n_order="1", cycles=8),
        dict(kind="spectrum", spectrum_kind="stroboscopic", n_order="inf", cycles=4),
    ])
    def test_cycles_rejected_before_any_system_is_built(self, tmp_path, monkeypatch,
                                                        overrides):
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        with pytest.raises(ConfigError, match="cycles"):
            run(RunConfig(out_dir=str(tmp_path), engine="full", num_spins=4,
                          gamma_grid=(math.pi,), **overrides))

    @pytest.mark.parametrize("overrides", [
        dict(kind="trace", n_order="inf", cycles=10),
        dict(kind="spectrum", spectrum_kind="symbol", n_order="2", cycles=4),
        dict(kind="heating-eps", n_order="2", cycles=10, eps_grid=(0.1,)),
    ])
    def test_cycles_accepted_where_alignment_does_not_apply(self, overrides):
        RunConfig(out_dir="x", **overrides).validate()

    def test_full_engine_rejected_before_any_system_when_memory_is_short(
            self, tmp_path, monkeypatch):
        # n = 13 heating needs about 2.1 GiB: the parity-split powers' build; the machine
        # is given half of that, whatever the estimate's terms
        config = RunConfig(kind="heating-eps", out_dir=str(tmp_path), num_spins=13,
                           eps_grid=(0.1,))
        memory = config.plan().peak_bytes // 2
        monkeypatch.setattr(runner, "_physical_memory", lambda: memory)
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        with pytest.raises(ConfigError) as err:
            run(config)
        assert str(config.plan().peak_bytes) in str(err.value)
        assert str(memory) in str(err.value)

    def test_full_engine_heating_at_13_spins_fits_in_7_gib(self, monkeypatch):
        # about 2.1 GiB: the factory's half-size powers, no dense 2^n x 2^n block set
        monkeypatch.setattr(runner, "_physical_memory", lambda: 7 * 2**30)
        config = RunConfig(kind="heating-eps", out_dir="x", num_spins=13, eps_grid=(0.1,))
        config.validate()
        assert config.plan().peak_bytes < 2.5 * 2**30

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("overrides", [
        dict(kind="encode", text="Hi"),
        dict(kind="spectrum", spectrum_kind="micromotion"),
    ])
    # 13 slots put the half-period sample at slot 6: before both kicks, or after both
    @pytest.mark.parametrize("kicks", [(10, 7), (11, 9), (5, 3)])
    def test_layout_the_half_sample_cannot_separate_rejected_before_any_system(
            self, tmp_path, monkeypatch, engine, overrides, kicks):
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        config = RunConfig(out_dir=str(tmp_path), engine=engine, num_spins=4,
                           pulses_per_block=12, kick_plus=kicks[0], kick_minus=kicks[1],
                           **overrides)
        with pytest.raises(ConfigError, match="half-period sample"):
            run(config)

    @pytest.mark.parametrize("overrides, message", [
        (dict(kind="heating-eps", eps_grid=(0.1,), graph_realizations=0), "graph_realizations"),
        (dict(kind="heating-eps", eps_grid=(0.1,), max_cycles=0), "max_cycles"),
        (dict(kind="heating-period", tau_grid=(0.05, 0.0)), "tau_grid entries must be > 0"),
        (dict(kind="heating-highfreq", tau_grid=(-0.05,)), "tau_grid entries must be > 0"),
        (dict(kind="heating-period", tau_grid=(0.05, math.inf)), "tau_grid entries must be finite"),
        (dict(kind="heating-eps", eps_grid=(0.1, math.nan)), "eps_grid entries must be finite"),
        (dict(kind="phase-diagram", gamma_grid=(math.nan,)), "gamma_grid entries must be finite"),
        (dict(kind="heating-eps", eps_grid=(0.1,), gamma_0=-0.01), "gamma_0"),
        (dict(kind="trace", decay_time=-0.1), "decay_time"),
        (dict(kind="spectrum", threads=2), "threads must be 1"),
        (dict(kind="phase-diagram", gamma_grid=(3.0, 3.0, 2.5)), "repeats a kick angle"),
        # streams are rounded up to 2**21 symbols, or shifted by the Thue-Morse offsets
        (dict(kind="heating-eps", eps_grid=(0.1,), n_orders=("0", "21")),
         "order 21 draws a stream of 2097152 symbols for 32768 cycles"),
        (dict(kind="heating-eps", eps_grid=(0.1,), n_orders=("inf",), max_cycles=2**20,
              realizations=2), "order inf draws a stream of 1048577 symbols"),
        (dict(kind="heating-period", tau_grid=(0.05,), max_cycles=2**20 + 1),
         "order 0 draws a stream of 1048577 symbols"),
        # eps = 0 repeats the gamma = pi reference, and |eps| = 0 cannot enter a log-log fit
        (dict(kind="heating-eps", eps_grid=(0.0, 0.3, 0.5)), "eps_grid entries must be nonzero"),
        (dict(kind="heating-eps", eps_grid=(0.3, -0.0)), "eps_grid entries must be nonzero"),
    ])
    def test_out_of_range_sweep_input_rejected_before_any_system(self, tmp_path, monkeypatch,
                                                                 overrides, message):
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        monkeypatch.setattr(runner, "generate_graph",
                            lambda *a, **k: pytest.fail("placed a graph for a bad config"))
        config = RunConfig(out_dir=str(tmp_path), num_spins=4, pulses_per_block=12,
                           kick_plus=8, kick_minus=4, cycles=64, **overrides)
        with pytest.raises(ConfigError, match=message):
            run(config)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("overrides", [
        dict(kind="heating-eps", eps_grid=(0.1,), n_orders=("20",), max_cycles=1),
        dict(kind="heating-eps", eps_grid=(0.1,), n_orders=("inf",), max_cycles=2**20 - 2,
             realizations=3),
        # a spectrum evolves one Thue-Morse window, at offset 0
        dict(kind="spectrum", spectrum_kind="symbol", n_order="inf", cycles=2**20,
             realizations=5),
    ])
    def test_streams_of_exactly_the_symbol_cap_are_accepted(self, overrides):
        RunConfig(out_dir="x", num_spins=4, **overrides).validate()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("overrides", [
        dict(kind="trace"),
        dict(kind="phase-diagram", gamma_grid=(math.pi,)),
        dict(kind="spectrum", spectrum_kind="stroboscopic"),
        dict(kind="heating-period", tau_grid=(0.05,)),
    ])
    def test_runs_reading_only_block_ends_need_no_separating_layout(self, engine, overrides):
        RunConfig(out_dir="x", engine=engine, num_spins=4, pulses_per_block=12,
                  kick_plus=10, kick_minus=7, **overrides).validate()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_heating_eps_runs_with_a_layout_the_half_sample_cannot_separate(self, tmp_path,
                                                                            engine):
        # whole-block steps (N + 1 - n±, n±) never read the half-period slot 6
        config = RunConfig(kind="heating-eps", out_dir=str(tmp_path / "a"), engine=engine,
                           seed=1, num_spins=4, pulses_per_block=12, kick_plus=10,
                           kick_minus=7, tau=0.05, gamma_0=0.01, eps_grid=(0.2, 0.4, 0.8),
                           max_cycles=512)
        fit = run(config)["fits"]["0"]
        assert fit["points_used"] == 3 and fit["exponent"] == pytest.approx(2.0, abs=0.3)
        if engine == "dephasing":
            # the model's block ends count kicks, wherever they sit in the block
            moved = dataclasses.replace(config, out_dir=str(tmp_path / "b"),
                                        kick_plus=8, kick_minus=4)
            assert run(moved)["fits"]["0"] == fit

    def test_trace_counts_the_sectors_not_dense_propagators(self, monkeypatch):
        # n = 14: two dense complex matrices take 8 GiB, the sector engine about 0.6 GiB
        monkeypatch.setattr(runner, "_physical_memory", lambda: 2 * 2**30)
        RunConfig(kind="trace", out_dir="x", num_spins=14).validate()

    def test_full_engine_rejected_above_the_spin_cap(self, tmp_path, monkeypatch):
        # n = 15: the trace estimate (about 2.2 GiB) fits, but build_hamiltonian refuses it
        monkeypatch.setattr(runner, "_physical_memory", lambda: 64 * 2**30)
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        config = RunConfig(kind="trace", out_dir=str(tmp_path), num_spins=15)
        assert config.plan().peak_bytes < 64 * 2**30
        with pytest.raises(ConfigError, match="cap of 14 spins"):
            run(config)

    @pytest.mark.parametrize("argv, problem", [
        (["trace", "--spins", "1"], "needs between 2 spins and the cap of 14 spins"),
        (["heating", "--sweep", "eps", "--spins", "1"], "needs between 2 spins"),
        (["trace", "--spins", "-3"], "at n = -3 needs between 2 spins"),
        (["trace", "--pulses", "12", "--kick-plus", "12", "--kick-minus", "4", "--spins", "4"],
         "kick positions must satisfy"),
        (["phase-diagram", "--engine", "dephasing", "--pulses", "12", "--kick-plus", "12",
          "--kick-minus", "4"], "kick positions must satisfy"),
    ])
    def test_bad_spins_or_kicks_rejected_before_the_output_directory(self, tmp_path, capsys,
                                                                      argv, problem):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and problem in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("ini, argv, problem", [
        ("normalization = foo", ["phase-diagram", "--spins", "4"],
         "unknown normalization 'foo', not one of ('row', 'global', 'none')"),
        ("normalization = foo", ["phase-diagram", "--engine", "dephasing"],
         "unknown normalization 'foo'"),
        ("coupling_model = foo", ["trace", "--spins", "4"],
         "unknown coupling_model 'foo', not one of ('isotropic', 'angular')"),
        ("r_min = 1.5", ["trace", "--spins", "4"],
         "need 0 < r_min < r_max < edge_length, got 1.5, 1.1, "),
        ("", ["encode", "--text", "h\u00e9llo"], "characters not 7-bit encodable: ['\u00e9']"),
    ], ids=["normalization-full", "normalization-dephasing", "coupling-model", "r-min",
            "encode-text"])
    def test_bad_config_values_rejected_before_the_output_directory(
            self, tmp_path, capsys, monkeypatch, ini, argv, problem):
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        config_file = tmp_path / "run.ini"
        config_file.write_text(f"[run]\n{ini}\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(config_file), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and problem in err["message"]
        assert not out.exists()

    def test_a_graph_that_cannot_be_placed_is_rejected_before_the_output_directory(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spins, "DEFAULT_PLACEMENT_BUDGET", 200)
        config_file = tmp_path / "run.ini"
        config_file.write_text("[run]\nr_min = 0.9\nr_max = 0.95\nedge_length = 1.0\n")
        out = tmp_path / "out"
        assert main(["trace", "--spins", "8", "--cycles", "2", "--pulses", "12",
                     "--kick-plus", "8", "--kick-minus", "4",
                     "--config", str(config_file), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "could not place spin" in err["message"] and "after 200 proposals" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("overrides, seeds", [
        (dict(kind="trace"), [3]),
        (dict(kind="spectrum"), [3]),
        (dict(kind="heating-eps", eps_grid=(0.1,)), [3, 4, 5]),
        (dict(kind="heating-period", tau_grid=(0.05,)), [3, 4, 5]),
        (dict(kind="heating-eps", eps_grid=(0.1,), engine="dephasing"), []),
        (dict(kind="spectrum", spectrum_kind="symbol"), []),
    ], ids=["trace", "spectrum", "heating-eps", "heating-period", "dephasing", "symbol-spectrum"])
    def test_validate_places_each_graph_the_run_builds(self, monkeypatch, overrides, seeds):
        placed, real = [], runner.generate_graph
        monkeypatch.setattr(runner, "generate_graph",
                            lambda *a, seed, **k: placed.append(seed) or real(*a, seed=seed, **k))
        RunConfig(out_dir="x", num_spins=4, graph_seed=3, graph_realizations=3,
                  pulses_per_block=12, kick_plus=8, kick_minus=4, **overrides).validate()
        assert placed == seeds

    @pytest.mark.parametrize("overrides", [
        dict(kind="trace", cycles=2),
        dict(kind="heating-eps", eps_grid=(0.1,), max_cycles=64),
    ])
    def test_run_places_each_graph_once(self, tmp_path, monkeypatch, overrides):
        """The run builds its systems on the graphs `validate` placed."""
        placed, real = [], runner.generate_graph
        monkeypatch.setattr(runner, "generate_graph",
                            lambda *a, seed, **k: placed.append(seed) or real(*a, seed=seed, **k))
        run(RunConfig(out_dir=str(tmp_path), num_spins=4, graph_seed=3, graph_realizations=2,
                      pulses_per_block=12, kick_plus=8, kick_minus=4, **overrides))
        assert placed == ([3] if overrides["kind"] == "trace" else [3, 4])

    @pytest.mark.parametrize("overrides", [
        dict(engine="dephasing", kind="trace"),
        dict(kind="decode", trace_file="trace.csv"),
        dict(kind="spectrum", spectrum_kind="symbol", n_order="2", cycles=4),
    ])
    def test_spin_cap_and_geometry_spare_runs_that_build_no_system(self, monkeypatch,
                                                                   overrides):
        monkeypatch.setattr(runner, "_physical_memory", lambda: 64 * 2**30)
        RunConfig(out_dir="x", num_spins=15, r_min=1.5, **overrides).validate()

    @pytest.mark.parametrize("kind", KINDS)
    def test_dephasing_engine_estimate_is_its_trace_alone(self, monkeypatch, kind):
        """The dephasing engine builds no system: at n = 14 it needs the bytes of its
        longest trace, no more, and none for a decode."""
        config = RunConfig(kind=kind, out_dir="x", engine="dephasing", num_spins=14,
                           gamma_grid=(math.pi,), eps_grid=(0.1,), tau_grid=(0.05,), text="Hi",
                           trace_file="trace.csv")
        estimate = config.plan().peak_bytes
        assert estimate == SignalTrace.peak_bytes(config.plan().trace_samples)
        assert (estimate == 0) == (kind == "decode")
        monkeypatch.setattr(runner, "_physical_memory", lambda: estimate)
        config.validate()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_long_trace_refused_for_its_samples(self, monkeypatch, engine):
        """A 2^20-cycle trace of 301-slot blocks holds 3.2e8 samples, about 14 GiB, while
        the n = 8 system's matrices take a few hundred KB."""
        monkeypatch.setattr(runner, "_physical_memory", lambda: 8 * 2**30)
        config = RunConfig(kind="trace", out_dir="x", engine=engine, num_spins=8,
                           cycles=2**20)
        samples = 1 + 2**20 * config.spec().slots_per_block
        assert config.plan().trace_samples == samples
        with pytest.raises(ConfigError) as err:
            config.validate()
        assert str(config.plan().peak_bytes) in str(err.value)
        assert config.plan().peak_bytes - SignalTrace.peak_bytes(samples) < 2**20
        dataclasses.replace(config, cycles=2**10).validate()

    @staticmethod
    def decode_config(tmp_path, text: str, gamma_0: float = 0.01) -> RunConfig:
        """A decode of the trace.csv of a dephasing encode of ``text``, whose signals are
        17-digit floats as a real run's are, or ±1.0 at ``gamma_0`` = 0."""
        run(RunConfig(kind="encode", out_dir=str(tmp_path / "enc"), engine="dephasing",
                      num_spins=6, pulses_per_block=30, kick_plus=20, kick_minus=10,
                      gamma_0=gamma_0, text=text))
        return RunConfig(kind="decode", out_dir=str(tmp_path / "dec"),
                         trace_file=str(tmp_path / "enc" / "trace.csv"))

    @pytest.mark.parametrize("gamma_0", [0.01, 0.0])
    @pytest.mark.parametrize("chars", [40, 320])
    def test_decode_within_its_trace_files_estimate(self, tmp_path, chars, gamma_0):
        """A decode holds what `_read` holds for its trace file, 11-180 KB here: rows of
        17-digit signals, or the shorter rows of ±1.0 that a noise-free trace holds."""
        text = ("Rondeau? " * 40)[:chars]
        config = self.decode_config(tmp_path, text, gamma_0)
        estimate = config.plan().peak_bytes
        assert estimate == serialize.read_bytes(config.trace_file)
        summary, _, peak = traced(lambda: run(config))
        assert summary["text"] == text
        assert 0.8 * estimate <= peak <= 1.3 * estimate

    def test_decode_refused_for_its_trace_file(self, tmp_path, monkeypatch):
        config = self.decode_config(tmp_path, "Hi")
        estimate = config.plan().peak_bytes
        assert estimate > 0
        monkeypatch.setattr(runner, "_physical_memory", lambda: estimate - 1)
        with pytest.raises(ConfigError, match=f"needs about {estimate} bytes of arrays"):
            config.validate()
        assert not (tmp_path / "dec").exists()
        monkeypatch.setattr(runner, "_physical_memory", lambda: estimate)
        config.validate()

    @pytest.mark.parametrize("order, cycles, offset, symbols", [
        ("0", 5, 0, 5), ("2", 5, 0, 8), ("3", 16, 0, 16), (3, 17, 2, 24),
        ("inf", 5, 0, 5), ("tm", 5, 3, 8),
    ])
    def test_stream_symbols_are_what_make_stream_draws(self, order, cycles, offset, symbols):
        assert runner.stream_symbols(order, cycles, offset) == symbols
        stream = runner.make_stream(order, cycles, seed=1, offset=offset)
        if runner._parse_order(order) == math.inf:  # a window of the symbols drawn
            assert len(stream) == cycles
        else:
            assert len(stream) == symbols

    def test_seed_derivation_stable(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


class TestRunTrace:
    def test_outputs_and_manifest(self, tmp_path):
        config = dephasing_trace_config(tmp_path / "run")
        summary = run(config)
        out = tmp_path / "run"
        assert (out / "trace.csv").exists()
        assert (out / "stream.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config.hash()
        assert "trace.csv" in manifest["outputs"]
        assert summary["samples"] == 32 * 13 + 1

    def test_rerun_reproduces_bit_for_bit(self, tmp_path):
        config_a = dephasing_trace_config(tmp_path / "a")
        config_b = dephasing_trace_config(tmp_path / "b")
        run(config_a)
        run(config_b)
        assert (tmp_path / "a" / "trace.csv").read_bytes() == \
            (tmp_path / "b" / "trace.csv").read_bytes()

    def test_full_engine_small_system(self, tmp_path):
        config = dephasing_trace_config(
            tmp_path / "full", engine="full", num_spins=4, graph_seed=2, cycles=6)
        run(config)
        trace = read_trace(tmp_path / "full" / "trace.csv")
        assert trace.meta["num_spins"] == 4
        assert len(trace) == 6 * 13 + 1


@pytest.mark.parametrize("kind", ["trace", "encode"])
@pytest.mark.parametrize("engine", ["full", "dephasing"])
def test_readout_noise_is_added_to_the_clean_trace(tmp_path, kind, engine):
    base = dict(kind=kind, engine=engine, num_spins=4, seed=9, pulses_per_block=12,
                kick_plus=8, kick_minus=4, tau=0.05, gamma_y=0.95 * math.pi,
                gamma_0=0.01, n_order="1", cycles=8, text="Hi")
    run(RunConfig(out_dir=str(tmp_path / "clean"), **base))
    config = RunConfig(out_dir=str(tmp_path / "noisy"), readout_noise=0.05, **base)
    run(config)
    clean = read_trace(tmp_path / "clean" / "trace.csv")
    noisy = read_trace(tmp_path / "noisy" / "trace.csv")
    expected = clean.with_noise(config.readout_noise, derive_seed(config.seed, 0, 1))
    assert np.array_equal(noisy.times, clean.times)
    assert np.array_equal(noisy.values, expected.values)
    assert not np.array_equal(noisy.values, clean.values)


class TestRunSweeps:
    def test_phase_diagram_outputs(self, tmp_path):
        config = RunConfig(
            kind="phase-diagram", out_dir=str(tmp_path / "pd"), engine="dephasing",
            seed=5, pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05,
            cycles=24, realizations=3,
            gamma_grid=tuple(float(g) for g in np.linspace(0.8, 1.2, 5) * math.pi),
        )
        run(config)
        lines = (tmp_path / "pd" / "phase_diagram.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 6  # header row + 5 kick angles
        contrast = json.loads((tmp_path / "pd" / "contrast.json").read_text())
        # strict JSON: an infinite contrast is written as "inf"
        ratios = {g: float(v) for g, v in contrast["half_frequency_contrast"].items()}
        assert ratios[repr(math.pi)] > ratios[repr(0.8 * math.pi)]

    def test_heating_eps_dephasing_engine_quadratic(self, tmp_path):
        config = RunConfig(
            kind="heating-eps", out_dir=str(tmp_path / "he"), engine="dephasing",
            seed=1, pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05,
            gamma_0=0.001, realizations=2,
            eps_grid=tuple(float(e) for e in np.geomspace(0.02, 0.2, 6) * math.pi),
        )
        summary = run(config)
        fit = summary["fits"]["0"]
        assert fit["exponent"] == pytest.approx(2.0, abs=0.15)

    def test_heating_period_dephasing_engine_linear(self, tmp_path):
        config = RunConfig(
            kind="heating-period", out_dir=str(tmp_path / "hp"), engine="dephasing",
            seed=1, pulses_per_block=12, kick_plus=8, kick_minus=4,
            sweep_slope=0.05, realizations=1, n_orders=("0", "inf"),
            tau_grid=tuple(float(t) for t in np.geomspace(0.02, 0.2, 6)),
        )
        summary = run(config)
        for order in ("0", "inf"):
            assert summary["fits"][order]["exponent"] == pytest.approx(1.0, abs=0.15)


class TestCodecPipeline:
    def test_encode_decode_files(self, tmp_path):
        encode_out = tmp_path / "enc"
        assert main(["encode", "--engine", "dephasing", "--text", "Hi",
                     "--out", str(encode_out), "--pulses", "12",
                     "--kick-plus", "8", "--kick-minus", "4", "--tau", "0.05"]) == 0
        decode_out = tmp_path / "dec"
        assert main(["decode", "--trace", str(encode_out / "trace.csv"),
                     "--out", str(decode_out)]) == 0
        decoded = json.loads((decode_out / "decoded.json").read_text())
        assert decoded["text"] == "Hi"
        assert len(decoded["margins"]) == 14

    @staticmethod
    def encoded_trace(tmp_path):
        """The trace.csv of a dephasing encode of "Hi"."""
        out = tmp_path / "enc"
        assert main(["encode", "--engine", "dephasing", "--text", "Hi", "--out", str(out),
                     "--pulses", "12", "--kick-plus", "8", "--kick-minus", "4"]) == 0
        return out / "trace.csv"

    def trace_without_row(self, tmp_path, cycle, slot):
        """An encoded dephasing trace.csv with the (cycle, slot) row deleted."""
        path = self.encoded_trace(tmp_path)
        lines = path.read_text().splitlines()
        kept = [line for line in lines if line.split(",")[1:3] != [str(cycle), str(slot)]]
        assert len(kept) == len(lines) - 1
        path.write_text("\n".join(kept) + "\n")
        return path

    def test_decode_reports_missing_row_as_json_error(self, tmp_path, capsys):
        path = self.trace_without_row(tmp_path, cycle=3, slot=6)
        capsys.readouterr()
        assert main(["decode", "--trace", str(path), "--out", str(tmp_path / "dec")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert str(path) in err["message"]
        assert "the rows are not the pre-drive one" in err["message"]

    @pytest.mark.parametrize("damage, problem", [
        ("header", "lacks the header key(s) num_cycles"),
        ("row", "has 3 columns, not 4"),
        ("not-json", "header line '# num_cycles=abc' is not '# key=<JSON>'"),
        ("string-count", "header key num_cycles has the wrong type: '14'"),
        ("float-pulses", "header key pulses_per_block has the wrong type: 12.5"),
        ("repeated-key", "header key num_cycles is repeated"),
        ("swapped-columns", "column line 'time,signal,pulse_index,cycle', not "
                            "time,cycle,pulse_index,signal"),
        # a well-formed header count that the rows (cycles 0 ... 13) disagree with
        ("fewer-cycles", "in each of num_cycles=3 cycles"),
        ("more-cycles", "in each of num_cycles=20 cycles"),
        # rows off the layout of cycle 0's slots (6, 13); a block has 13 slots
        ("repeated-slot", "cycle 0's slots (here 3), increasing within 1 ... 13"),
        ("slot-past-block-in-cycle-0", "cycle 0's slots (here 3), increasing within 1 ... 13"),
        ("slot-past-block-in-cycle-1", "cycle 0's slots (here 2), increasing within 1 ... 13, "
                                       "in each of num_cycles=14 cycles"),
        ("no-pre-drive-row", "not the pre-drive one, then cycle 0's slots (here 1)"),
    ])
    def test_decode_reports_malformed_trace_as_json_error(self, tmp_path, capsys, damage,
                                                          problem):
        path = self.encoded_trace(tmp_path)
        lines = path.read_text().splitlines()
        end_0, end_1 = (next(line for line in lines if line.split(",")[1:3] == [str(c), "13"])
                        for c in (0, 1))  # the rows of slot 13 at t = 0.65 and 1.3
        # the first line starting with the first string is replaced by the others
        start, *new = {
            "header": ("# num_cycles=",),
            "row": (lines[-1], lines[-1].rsplit(",", 1)[0]),  # drop the signal column
            "not-json": ("# num_cycles=", "# num_cycles=abc"),
            "string-count": ("# num_cycles=", '# num_cycles="14"'),
            "float-pulses": ("# pulses_per_block=", "# pulses_per_block=12.5"),
            "repeated-key": ("# num_cycles=", "# num_cycles=14", "# num_cycles=3"),
            "swapped-columns": ("time,", "time,signal,pulse_index,cycle"),
            "fewer-cycles": ("# num_cycles=", "# num_cycles=3"),
            "more-cycles": ("# num_cycles=", "# num_cycles=20"),
            "repeated-slot": (end_0, end_0, "0.7,0,6,-1.0"),
            "slot-past-block-in-cycle-0": (end_0, end_0, "0.7,0,999,-1.0"),
            "slot-past-block-in-cycle-1": (end_1, end_1, "1.4,1,999,-1.0"),
            "no-pre-drive-row": ("0.0,0,0,",),
        }[damage]
        at = next(i for i, line in enumerate(lines) if line.startswith(start))
        lines[at:at + 1] = new
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["decode", "--trace", str(path), "--out", str(tmp_path / "dec")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert str(path) in err["message"] and problem in err["message"]


    def test_decode_reports_non_numeric_cell_as_json_error(self, tmp_path, capsys):
        path = self.encoded_trace(tmp_path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",abc"
        rows = sum(1 for line in lines if line and not line.startswith("#")) - 1
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["decode", "--trace", str(path), "--out", str(tmp_path / "dec")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert str(path) in err["message"]
        assert f"data row {rows} has the signal cell 'abc'" in err["message"]


    @pytest.mark.parametrize("case, problem", [
        ("missing", "No such file or directory"),
        ("malformed", "lacks the header key(s) num_cycles"),
        ("one-slot", "reads slots (13,), not the half-period slot 6 a decode reads"),
        ("short", "trace spans fewer cycles than one encoded character"),
        ("weak", "low-confidence micromotion samples at cycles [0, 1, 2,"),
    ], ids=["missing", "malformed", "one-slot", "short", "weak"])
    def test_decode_of_a_bad_trace_leaves_no_output_directory(self, tmp_path, capsys, case,
                                                             problem):
        path, options = tmp_path / "trace.csv", []
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05)
        if case == "malformed":
            lines = self.encoded_trace(tmp_path).read_text().splitlines()
            path.write_text("\n".join(line for line in lines
                                      if not line.startswith("# num_cycles=")) + "\n")
        elif case == "one-slot":
            write_trace(path, SignalTrace.at_slots(spec, (13,), (-1.0) ** np.arange(15), {}))
        elif case == "short":  # a valid trace of 3 cycles, fewer than one 7-bit character
            write_trace(path, SignalTrace.at_slots(spec, (6, 13), (-1.0) ** np.arange(7), {}))
        elif case == "weak":  # every |half-period sample| of the trace is below 5
            path, options = self.encoded_trace(tmp_path), ["--threshold", "5"]
        out = tmp_path / "dec"
        capsys.readouterr()
        assert main(["decode", "--trace", str(path), "--out", str(out), *options]) == 1
        err = json.loads(capsys.readouterr().err)
        assert problem in err["message"]
        # a trace that reads back fine and fails in the decode is named too, and the
        # decode's error keeps its type
        assert str(path) in err["message"]
        if case in ("short", "weak"):
            assert err["error"] == ("ValueError" if case == "short" else "LowConfidenceError")
        assert not out.exists()


class TestRunPlan:
    """`RunConfig.plan` states what a run does: the slots and samples of every trace it
    evolves, and the manifest's ``plan``."""

    SMALL = dict(num_spins=4, seed=2, pulses_per_block=12, kick_plus=8, kick_minus=4,
                 tau=0.05, gamma_0=0.01, cycles=16, max_cycles=128)
    KIND_OVERRIDES = {
        "trace": dict(n_order="1"),
        "phase-diagram": dict(gamma_grid=(0.9 * math.pi, math.pi), realizations=2),
        "heating-eps": dict(eps_grid=(0.2, 0.4), realizations=2),
        "heating-period": dict(tau_grid=(0.05, 0.1), sweep_slope=0.05),
        "heating-highfreq": dict(tau_grid=(0.05, 0.1), n_orders=("0", "inf")),
        "spectrum": dict(realizations=2),
        "encode": dict(text="Hi"),
        "decode": dict(),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind, overrides", [
        *((kind, {}) for kind in KINDS),
        ("spectrum", dict(spectrum_kind="symbol", n_order="2")),
        ("spectrum", dict(spectrum_kind="stroboscopic")),
    ])
    def test_plan_and_run_agree(self, tmp_path, monkeypatch, engine, kind, overrides):
        if kind == "decode":  # of the trace of an encode on the same engine
            run(RunConfig(kind="encode", out_dir=str(tmp_path / "enc"), engine=engine,
                          **self.SMALL, **self.KIND_OVERRIDES["encode"]))
            overrides = dict(trace_file=str(tmp_path / "enc" / "trace.csv"))
        config = RunConfig(kind=kind, out_dir=str(tmp_path / "run"), engine=engine,
                           **{**self.SMALL, **self.KIND_OVERRIDES[kind], **overrides})
        plan, evolved = config.plan(), []

        def recorded(evolve):
            def wrapper(*args, **kwargs):
                evolved.append(evolve(*args, **kwargs))
                return evolved[-1]
            return wrapper

        def recorded_rundowns(system, members):
            traces = list(rundown_traces(system, members))
            evolved.extend(traces)
            return traces

        rundown_traces = runner._rundown_traces
        monkeypatch.setattr(runner, "evolve", recorded(runner.evolve))
        monkeypatch.setattr(runner, "_drive_trace", recorded(runner._drive_trace))
        monkeypatch.setattr(runner, "_rundown_traces", recorded_rundowns)
        run(config)
        # every trace the run evolves, a heating rundown too, reads the plan's slots and
        # holds at most its samples; a run that reads no slot evolves none
        assert bool(evolved) == bool(plan.slots) == (plan.trace_samples > 0)
        assert all(t.slots == plan.slots and len(t) <= plan.trace_samples for t in evolved)
        if kind in ("trace", "encode"):
            trace = read_trace(tmp_path / "run" / "trace.csv")
            assert trace.slots == plan.slots and len(trace) == plan.trace_samples
        assert plan.builds_system == (engine == "full" and bool(plan.slots))
        # a heating-eps sweep steps its rundowns in complex64, every other kind in complex128
        assert plan.dtype == (np.complex64 if kind == "heating-eps" else np.complex128)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        # the dtype is recorded where the run steps rows of a system
        dtype = {"dtype": plan.dtype.name} if plan.builds_system else {}
        # a heating sweep records its batches: the eps points that mix P together, then the
        # gamma = pi reference; each tau point alone, as each needs its own factory
        batches = {"heating-eps": [[1, 2], [0]], "heating-period": [[0], [1]],
                   "heating-highfreq": [[0], [1]]}
        assert plan.batches == tuple(map(tuple, batches.get(kind, ())))
        batches = {"batches": batches[kind]} if kind in batches else {}
        assert manifest["plan"] == {"slots": list(plan.slots), "points": len(plan.points),
                                    **batches, **dtype, "stage_bytes": plan.stage_bytes,
                                    "peak_bytes": plan.peak_bytes}


class TestCli:
    def test_import_leaves_scipy_optimize_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import rondeau.cli; "
                  "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
                  "assert not loaded, f'scipy imported: {loaded}'")
        proc = subprocess.run([sys.executable, "-c", script, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_capacity_json(self, capsys):
        assert main(["capacity", "--floor-time", "36.2", "--tau", "86.8e-6",
                     "--pulses", "300", "--bits", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["characters"] == 198

    def test_error_is_machine_readable(self, tmp_path, capsys):
        code = main(["decode", "--trace", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_config_file_roundtrip(self, tmp_path):
        config_file = tmp_path / "run.ini"
        config_file.write_text(
            "[drive]\n"
            "pulses_per_block = 12\n"
            "kick_plus = 8\n"
            "kick_minus = 4\n"
            "tau = 0.05\n"
            "cycles = 16\n"
            "[run]\n"
            "engine = dephasing\n"
            "seed = 4\n"
            "threads = 1\n"
            "[codec]\n"
            "text = 50% off\n"
        )
        values = load_config_file(config_file)
        assert values["pulses_per_block"] == 12
        assert values["tau"] == 0.05
        assert values["engine"] == "dephasing"
        assert values["text"] == "50% off"
        out = tmp_path / "via-config"
        assert main(["trace", "--config", str(config_file),
                     "--out", str(out)]) == 0
        trace = read_trace(out / "trace.csv")
        assert trace.num_cycles == 16
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["text"] == "50% off"

    def test_threads_other_than_one_rejected(self, tmp_path, capsys):
        config_file = tmp_path / "run.ini"
        config_file.write_text("[run]\nthreads = 2\n")
        assert main(["trace", "--config", str(config_file), "--engine", "dephasing",
                     "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "threads must be 1" in err["message"]
        with pytest.raises(SystemExit) as exit_:
            main(["phase-diagram", "--threads", "2", "--out", str(tmp_path / "p")])
        assert exit_.value.code == 2

    def test_unknown_config_key_is_hard_error(self, tmp_path):
        config_file = tmp_path / "bad.ini"
        config_file.write_text("[drive]\npulses_per_blok = 12\n")
        with pytest.raises(ConfigError):
            load_config_file(config_file)

    def test_malformed_config_value_names_file_key_and_value(self, tmp_path, capsys):
        config_file = tmp_path / "bad.ini"
        config_file.write_text("[system]\nnum_spins = 4.5\n")
        capsys.readouterr()
        assert main(["trace", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert str(config_file) in err["message"]
        assert "num_spins = '4.5'" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_n_orders_flag_parses_as_the_config_key(self, tmp_path, monkeypatch):
        configs = []
        monkeypatch.setattr("rondeau.cli.run", lambda config: configs.append(config) or {})
        config_file = tmp_path / "run.ini"
        config_file.write_text("[sweep]\nn_orders = 0, 1,\n")
        common = ["heating", "--engine", "dephasing", "--out", str(tmp_path / "o")]
        assert main(common + ["--n-orders", "0, 1,"]) == 0
        assert main(common + ["--config", str(config_file)]) == 0
        assert configs[0] == configs[1] and configs[0].n_orders == ("0", "1")

    def test_flag_overrides_config_file(self, tmp_path):
        config_file = tmp_path / "run.ini"
        config_file.write_text("[run]\nseed = 4\nengine = dephasing\n"
                               "[drive]\ncycles = 16\npulses_per_block = 12\n"
                               "kick_plus = 8\nkick_minus = 4\ntau = 0.05\n")
        out = tmp_path / "o"
        assert main(["trace", "--config", str(config_file), "--cycles", "8",
                     "--out", str(out)]) == 0
        assert read_trace(out / "trace.csv").num_cycles == 8
