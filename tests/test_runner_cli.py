import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rondeau.cli import load_config_file, main
from rondeau.runner import KINDS, ConfigError, RunConfig, derive_seed, run
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

    def test_hash_ignores_out_dir_and_threads(self):
        a = RunConfig(kind="spectrum", out_dir="a", threads=1, seed=1)
        b = RunConfig(kind="spectrum", out_dir="b", threads=2, seed=1)
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
        ratios = contrast["half_frequency_contrast"]
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

    def test_parallel_determinism(self, tmp_path):
        base = dict(
            kind="spectrum", engine="dephasing", seed=9, spectrum_kind="micromotion",
            pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05,
            cycles=64, realizations=4, n_order="1",
        )
        run(RunConfig(out_dir=str(tmp_path / "t1"), threads=1, **base))
        run(RunConfig(out_dir=str(tmp_path / "t2"), threads=2, **base))
        assert (tmp_path / "t1" / "spectrum.csv").read_bytes() == \
            (tmp_path / "t2" / "spectrum.csv").read_bytes()


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


class TestCli:
    def test_import_leaves_scipy_optimize_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import rondeau.cli; "
                  "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'")
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
        )
        values = load_config_file(config_file)
        assert values["pulses_per_block"] == 12
        assert values["tau"] == 0.05
        assert values["engine"] == "dephasing"
        out = tmp_path / "via-config"
        assert main(["trace", "--config", str(config_file),
                     "--out", str(out)]) == 0
        trace = read_trace(out / "trace.csv")
        assert trace.num_cycles == 16

    def test_unknown_config_key_is_hard_error(self, tmp_path):
        config_file = tmp_path / "bad.ini"
        config_file.write_text("[drive]\npulses_per_blok = 12\n")
        with pytest.raises(ConfigError):
            load_config_file(config_file)

    def test_flag_overrides_config_file(self, tmp_path):
        config_file = tmp_path / "run.ini"
        config_file.write_text("[run]\nseed = 4\nengine = dephasing\n"
                               "[drive]\ncycles = 16\npulses_per_block = 12\n"
                               "kick_plus = 8\nkick_minus = 4\ntau = 0.05\n")
        out = tmp_path / "o"
        assert main(["trace", "--config", str(config_file), "--cycles", "8",
                     "--out", str(out)]) == 0
        assert read_trace(out / "trace.csv").num_cycles == 8
