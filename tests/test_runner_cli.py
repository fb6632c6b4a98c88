import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau.cli import load_config_file, main
from rondeau.codec import decode
from rondeau.runner import ENGINES, KINDS, ConfigError, RunConfig, derive_seed, run
from rondeau.serialize import read_trace


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
        # n = 13 heating needs about 2.4 GiB: the parity-split powers' build
        monkeypatch.setattr(runner, "_physical_memory", lambda: 2 * 2**30)
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        config = RunConfig(kind="heating-eps", out_dir=str(tmp_path), num_spins=13,
                           eps_grid=(0.1,))
        with pytest.raises(ConfigError) as err:
            run(config)
        assert str(runner.peak_matrix_bytes(config)) in str(err.value)
        assert str(2 * 2**30) in str(err.value)

    def test_full_engine_heating_at_13_spins_fits_in_7_gib(self, monkeypatch):
        # about 2.4 GiB: the factory's half-size powers, no dense 2^n x 2^n block set
        monkeypatch.setattr(runner, "_physical_memory", lambda: 7 * 2**30)
        config = RunConfig(kind="heating-eps", out_dir="x", num_spins=13, eps_grid=(0.1,))
        config.validate()
        assert runner.peak_matrix_bytes(config) < 2.5 * 2**30

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("overrides", [
        dict(kind="heating-eps", eps_grid=(0.1,)),
        dict(kind="encode", text="Hi"),
    ])
    def test_layout_the_half_sample_cannot_separate_rejected_before_any_system(
            self, tmp_path, monkeypatch, engine, overrides):
        # 13 slots put the half-period sample at slot 6, before both kicks
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        config = RunConfig(out_dir=str(tmp_path), engine=engine, num_spins=4,
                           pulses_per_block=12, kick_plus=10, kick_minus=7, **overrides)
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
    ])
    def test_out_of_range_sweep_input_rejected_before_any_system(self, tmp_path, monkeypatch,
                                                                 overrides, message):
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        config = RunConfig(out_dir=str(tmp_path), num_spins=4, pulses_per_block=12,
                           kick_plus=8, kick_minus=4, cycles=64, **overrides)
        with pytest.raises(ConfigError, match=message):
            run(config)
        assert not any(tmp_path.iterdir())

    def test_per_pulse_trace_needs_no_separating_layout(self):
        RunConfig(kind="trace", out_dir="x", num_spins=4, pulses_per_block=12,
                  kick_plus=10, kick_minus=7).validate()

    def test_trace_counts_the_sectors_not_dense_propagators(self, monkeypatch):
        # n = 14: two dense complex matrices take 8 GiB, the sector engine about 1.5 GiB
        monkeypatch.setattr(runner, "_physical_memory", lambda: 2 * 2**30)
        RunConfig(kind="trace", out_dir="x", num_spins=14).validate()

    def test_full_engine_rejected_above_the_spin_cap(self, tmp_path, monkeypatch):
        # n = 15: the trace estimate (about 6.3 GB) fits, but build_hamiltonian refuses it
        monkeypatch.setattr(runner, "_physical_memory", lambda: 64 * 2**30)
        monkeypatch.setattr(runner, "FullSystem",
                            lambda *a: pytest.fail("built a system for a bad config"))
        config = RunConfig(kind="trace", out_dir=str(tmp_path), num_spins=15)
        assert runner.peak_matrix_bytes(config) < 64 * 2**30
        with pytest.raises(ConfigError, match="cap of 14 spins"):
            run(config)

    @pytest.mark.parametrize("overrides", [
        dict(engine="dephasing", kind="trace"),
        dict(kind="decode", trace_file="trace.csv"),
        dict(kind="spectrum", spectrum_kind="symbol", n_order="2", cycles=4),
    ])
    def test_spin_cap_spares_runs_that_build_no_system(self, monkeypatch, overrides):
        monkeypatch.setattr(runner, "_physical_memory", lambda: 64 * 2**30)
        RunConfig(out_dir="x", num_spins=15, **overrides).validate()

    @pytest.mark.parametrize("kind", KINDS)
    def test_dephasing_engine_never_rejected_for_memory(self, monkeypatch, kind):
        monkeypatch.setattr(runner, "_physical_memory", lambda: 0)
        RunConfig(kind=kind, out_dir="x", engine="dephasing", num_spins=14,
                  gamma_grid=(math.pi,), eps_grid=(0.1,), tau_grid=(0.05,), text="Hi",
                  trace_file="trace.csv").validate()

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

    def test_missing_half_period_row_rejected(self, tmp_path):
        path = self.trace_without_row(tmp_path, cycle=3, slot=6)
        with pytest.raises(ValueError, match=r"cycles \[3\]"):
            decode(read_trace(path))

    def test_decode_reports_missing_row_as_json_error(self, tmp_path, capsys):
        path = self.trace_without_row(tmp_path, cycle=3, slot=6)
        capsys.readouterr()
        assert main(["decode", "--trace", str(path), "--out", str(tmp_path / "dec")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "cycles [3]" in err["message"]

    @pytest.mark.parametrize("damage, problem", [
        ("header", "lacks the header key(s) num_cycles"),
        ("row", "has 3 columns, not 4"),
        ("not-json", "header line '# num_cycles=abc' is not '# key=<JSON>'"),
        ("string-count", "header key num_cycles has the wrong type: '14'"),
        ("float-pulses", "header key pulses_per_block has the wrong type: 12.5"),
        ("repeated-key", "header key num_cycles is repeated"),
        ("swapped-columns", "column line 'time,signal,pulse_index,cycle', not "
                            "time,cycle,pulse_index,signal"),
    ])
    def test_decode_reports_malformed_trace_as_json_error(self, tmp_path, capsys, damage,
                                                          problem):
        path = self.encoded_trace(tmp_path)
        lines = path.read_text().splitlines()
        # the first line starting with the first string is replaced by the others
        start, *new = {
            "header": ("# num_cycles=",),
            "row": (lines[-1], lines[-1].rsplit(",", 1)[0]),  # drop the signal column
            "not-json": ("# num_cycles=", "# num_cycles=abc"),
            "string-count": ("# num_cycles=", '# num_cycles="14"'),
            "float-pulses": ("# pulses_per_block=", "# pulses_per_block=12.5"),
            "repeated-key": ("# num_cycles=", "# num_cycles=14", "# num_cycles=3"),
            "swapped-columns": ("time,", "time,signal,pulse_index,cycle"),
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

    def test_flag_overrides_config_file(self, tmp_path):
        config_file = tmp_path / "run.ini"
        config_file.write_text("[run]\nseed = 4\nengine = dephasing\n"
                               "[drive]\ncycles = 16\npulses_per_block = 12\n"
                               "kick_plus = 8\nkick_minus = 4\ntau = 0.05\n")
        out = tmp_path / "o"
        assert main(["trace", "--config", str(config_file), "--cycles", "8",
                     "--out", str(out)]) == 0
        assert read_trace(out / "trace.csv").num_cycles == 8
