"""Closed-form dephasing-limit model of the driven polarization.

Each imperfect inversion kick multiplies the protected x-polarization by
-cos(epsilon); the transverse component it creates is assumed to be echoed
away before the next kick and is dropped.  An intrinsic rate Gamma_0
accounts for the residual decay of the spin-locked polarization.  The model
is the fast oracle the exact simulator and the codec are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import SignalTrace, check_kick_layout
from .sequences import MonopoleSpec, SymbolStream, order_label


@dataclass(frozen=True)
class DephasingParams:
    """Inputs of the dephasing model.

    ``epsilon`` is the kick deviation gamma_y - pi; ``gamma_0`` the
    intrinsic decay rate (measured, not predicted); ``readout`` the slots
    sampled in each cycle, as `readout_slots` gives them, or None for every slot.
    """

    spec: MonopoleSpec
    epsilon: float = 0.0
    gamma_0: float = 0.0
    readout: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.gamma_0 < 0:
            raise ValueError(f"gamma_0 must be >= 0, got {self.gamma_0}")


def model_signal(stream: SymbolStream, params: DephasingParams,
                 amplitude: float = 1.0) -> SignalTrace:
    """Noise-free trace at the ``params.readout`` slots of every cycle.

    The value after slot j of cycle l is amplitude * (-cos eps)**kicks *
    exp(-Gamma_0 * t) with kicks = l + (j > the block's kick slot) and t the
    sample time of `SignalTrace.at_slots`, the same as the full engines'; at
    the half-period sample this reproduces the sign law (-1)**cycle * symbol
    for eps = 0.
    """
    spec = params.spec
    check_kick_layout(spec)
    per_block = spec.slots_per_block
    slots = np.arange(1, per_block + 1) if params.readout is None else np.array(params.readout)
    cycle_index = np.repeat(np.arange(len(stream)), slots.size)
    pulse_index = np.tile(slots, len(stream))
    kick_slots = np.where(stream.symbols > 0, spec.kick_plus, spec.kick_minus)[cycle_index]
    kicks = cycle_index + (pulse_index > kick_slots)
    kicked = amplitude * np.power(-math.cos(params.epsilon), kicks)
    trace = SignalTrace.at_slots(
        spec, np.concatenate([[amplitude], kicked]),
        np.concatenate([[0], cycle_index]), np.concatenate([[0], pulse_index]),
        num_cycles=len(stream),
        meta={"engine": "dephasing", "stream_seed": stream.seed,
              "n_order": order_label(stream), "gamma_y": spec.gamma_y,
              "epsilon": params.epsilon, "gamma_0": params.gamma_0,
              "tau": spec.tau})
    trace.values *= np.exp(-params.gamma_0 * trace.times)
    return trace
