"""Command-line driver.

Subcommands map onto the experiment kinds of :mod:`rondeau.runner`; every run writes
CSV/JSON results into --out, and a manifest.json of its config, config hash, versions,
summary, outputs and plan: readout slots, sweep points, the dtype a full-engine run steps
its rows in, the bytes of each array stage, and peak_bytes, the estimate the preflight
compares with physical memory and prints when it refuses a run.  Errors exit nonzero with
a machine-readable JSON object on stderr.

Parameters can also come from an INI config file (--config); section names
are organizational, keys must be RunConfig fields, unknown keys are hard
errors, and explicit command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys

import numpy as np

from .analysis import NORMALIZATIONS
from .codec import capacity
from .runner import ENGINES, SPECTRUM_KINDS, ConfigError, RunConfig, run
from .sequences import MonopoleSpec
from .spins import COUPLING_MODELS

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _parse_config_value(key: str, raw: str):
    hint = _FIELD_TYPES[key]
    if hint == "tuple":  # comma-separated: n_orders' order labels, every grid's floats
        items = tuple(x.strip() for x in raw.split(",") if x.strip())
        return items if key == "n_orders" else tuple(map(float, items))
    if "int" in hint:
        return int(raw)
    if "float" in hint:
        return float(raw)
    return raw


def load_config_file(path: str) -> dict:
    """Flatten an INI file into RunConfig field values; unknown keys fail."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key [{section}] {key}")
            if key in values:
                raise ConfigError(f"duplicate config key {key}")
            try:
                values[key] = _parse_config_value(key, raw)
            except ValueError:
                raise ConfigError(f"config file {path}: [{section}] {key} = {raw!r} is not "
                                  f"a valid {_FIELD_TYPES[key]}") from None
    return values


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--engine", choices=ENGINES)


def _add_system(p: argparse.ArgumentParser):
    p.add_argument("--spins", type=int, dest="num_spins")
    p.add_argument("--graph-seed", type=int, dest="graph_seed")
    p.add_argument("--coupling-median", type=float, dest="coupling_median")
    p.add_argument("--coupling-model", choices=COUPLING_MODELS, dest="coupling_model")
    p.add_argument("--decay-time", type=float, dest="decay_time")
    p.add_argument("--gamma-0", type=float, dest="gamma_0",
                   help="intrinsic rate for the dephasing engine")


def _add_drive(p: argparse.ArgumentParser):
    p.add_argument("--pulses", type=int, dest="pulses_per_block")
    p.add_argument("--kick-plus", type=int, dest="kick_plus")
    p.add_argument("--kick-minus", type=int, dest="kick_minus")
    p.add_argument("--tau", type=float)
    p.add_argument("--gamma-y", type=float, dest="gamma_y",
                   help="kick angle in radians")
    p.add_argument("--n-order", dest="n_order",
                   help="multipole order: 0, 1, 2, ... or inf")
    p.add_argument("--cycles", type=int)
    p.add_argument("--realizations", type=int)
    p.add_argument("--noise", type=float, dest="readout_noise",
                   help="Gaussian readout-noise std, seeded from --seed; "
                        "trace and encode only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rondeau",
        description="Simulate and analyze randomly multipolar-driven spin systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="evolve one drive realization, full readout")
    _add_common(p); _add_system(p); _add_drive(p)

    p = sub.add_parser("phase-diagram", help="stroboscopic response over kick angles")
    _add_common(p); _add_system(p); _add_drive(p)
    p.add_argument("--gamma-min", type=float, default=0.5 * math.pi)
    p.add_argument("--gamma-max", type=float, default=1.15 * math.pi)
    p.add_argument("--gamma-points", type=int, default=14)
    p.add_argument("--normalization", choices=NORMALIZATIONS)

    p = sub.add_parser(
        "heating", help="decay-rate scaling sweeps",
        description="Power-law fits of the 1/e decay rate, one per multipole order. "
                    "Only points whose realizations all crossed 1/e and whose rate "
                    "(in excess of the rate at gamma=pi for --sweep eps) is positive "
                    "enter a fit. Each fits.json entry holds points_used, uncrossed, "
                    "and exponent/stderr or error; eps entries add rate_at_pi and "
                    "reference_crossed (an order whose gamma=pi reference never "
                    "crossed 1/e is not fitted and its rate_at_pi is null), period "
                    "and highfreq entries add smallest_period_rate. The heating_<sweep>.csv "
                    "header holds swept (its epsilon or period column), engine, seed, "
                    "max_cycles and config_hash. On the full engine an eps sweep steps its "
                    "rundowns in complex64, half the memory traffic of complex128; period "
                    "and highfreq step in complex128. A rate reads the whole block m nearest "
                    "1/e, and complex64 moves |S| by about 1e-5, so a lifetime can move by "
                    "one block (a relative 1/m) only where a block-end |S| lies that close to "
                    "1/e; on every input measured none did. manifest.json's plan records "
                    "the dtype.")
    _add_common(p); _add_system(p); _add_drive(p)
    p.add_argument("--sweep", choices=["eps", "period", "highfreq"], default="eps",
                   help="eps: kick-angle deviation; period: tau with eps = slope*T; "
                        "highfreq: period sweep over orders 0, 1, 3, inf by default")
    p.add_argument("--eps-min", type=float, default=0.01 * math.pi)
    p.add_argument("--eps-max", type=float, default=0.1 * math.pi)
    p.add_argument("--eps-points", type=int, default=8)
    p.add_argument("--tau-min", type=float, default=0.01)
    p.add_argument("--tau-max", type=float, default=0.1)
    p.add_argument("--tau-points", type=int, default=8)
    p.add_argument("--slope", type=float, dest="sweep_slope",
                   help="deviation per unit period for eps = B*T sweeps")
    p.add_argument("--max-cycles", type=int, dest="max_cycles")
    p.add_argument("--n-orders", dest="n_orders",
                   type=lambda raw: _parse_config_value("n_orders", raw),
                   help="comma-separated multipole orders, parsed as the INI key")

    p = sub.add_parser("spectrum", help="seed-averaged DFT amplitudes")
    _add_common(p); _add_system(p); _add_drive(p)
    p.add_argument("--kind", choices=SPECTRUM_KINDS, dest="spectrum_kind")

    p = sub.add_parser("encode", help="encode text into a drive and its trace")
    _add_common(p); _add_system(p); _add_drive(p)
    p.add_argument("--text", help="message to encode")
    p.add_argument("--file", help="read the message from a text file")

    p = sub.add_parser("decode", help="read a message back from a trace file")
    _add_common(p)
    p.add_argument("--trace", dest="trace_file",
                   help="trace.csv to decode, as encode writes it: '# key=<JSON>' header "
                        "lines with the ints pulses_per_block and num_cycles and the number "
                        "block_duration, each once, the column line "
                        "time,cycle,pulse_index,signal, then rows of four numbers: the "
                        "pre-drive row (cycle 0, slot 0), then cycle 0's slots, increasing "
                        "within 1 ... pulses_per_block + 1, in each cycle up to num_cycles - 1; "
                        "any other line, row, key type or cell is an error naming the file")
    p.add_argument("--threshold", type=float,
                   help="minimum half-period magnitude accepted")

    p = sub.add_parser("capacity", help="characters encodable before the noise floor")
    p.add_argument("--floor-time", type=float, required=True,
                   help="time at which the signal reaches the noise floor")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--pulses", type=int, default=300, dest="pulses_per_block")
    p.add_argument("--kick-plus", type=int, default=200, dest="kick_plus")
    p.add_argument("--kick-minus", type=int, default=100, dest="kick_minus")
    p.add_argument("--bits", type=int, default=7)
    return parser


def _grid(space, lo: float, hi: float, points: int) -> tuple:
    return tuple(float(x) for x in space(lo, hi, points))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))

    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "out", None):
        values["out_dir"] = args.out
    if "out_dir" not in values:
        raise ConfigError("an output directory is required (--out)")

    command = values["kind"] = args.command
    if command == "heating":
        values["kind"] = f"heating-{args.sweep}"
        if args.sweep == "eps" and "eps_grid" not in values:
            values["eps_grid"] = _grid(np.geomspace, args.eps_min, args.eps_max, args.eps_points)
        if args.sweep in ("period", "highfreq") and "tau_grid" not in values:
            values["tau_grid"] = _grid(np.geomspace, args.tau_min, args.tau_max, args.tau_points)
    elif command == "phase-diagram" and "gamma_grid" not in values:
        values["gamma_grid"] = _grid(np.linspace, args.gamma_min, args.gamma_max,
                                     args.gamma_points)
    elif command == "encode" and getattr(args, "file", None):
        with open(args.file) as fh:
            values["text"] = fh.read().rstrip("\n")
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "capacity":
            spec = MonopoleSpec(pulses_per_block=args.pulses_per_block,
                                kick_plus=args.kick_plus,
                                kick_minus=args.kick_minus, tau=args.tau)
            chars = capacity(args.floor_time, spec, bits_per_char=args.bits)
            print(json.dumps({"characters": chars,
                              "spin_lock_train": args.pulses_per_block * args.tau,
                              "bits_per_char": args.bits}))
            return 0
        config = _config_from_args(args)
        summary = run(config)
        print(json.dumps({"kind": config.kind, "out_dir": config.out_dir,
                          "summary": summary}, default=str))
        return 0
    except Exception as exc:  # surface every failure as machine-readable JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
