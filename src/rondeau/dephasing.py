"""Closed-form dephasing-limit model of the driven polarization.

Each imperfect inversion kick multiplies the protected x-polarization by
-cos(epsilon); the transverse component it creates is assumed to be echoed
away before the next kick and is dropped.  An intrinsic rate Gamma_0
accounts for the residual decay of the spin-locked polarization.  The model
is read at the same readout slots as the full engines, placed in time by the
same `SignalTrace.at_slots`, and counts the kicks before each sample from
the trace's slots.  It is the fast oracle the exact
simulator and the codec are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import SignalTrace
from .sequences import MonopoleSpec, SymbolStream, order_label


@dataclass(frozen=True)
class DephasingParams:
    """Inputs of the dephasing model.

    The kick deviation is ``spec.epsilon`` (gamma_y - pi); ``gamma_0`` the
    intrinsic decay rate (measured, not predicted); ``slots`` the increasing
    slots read in each cycle, ending at the block end.
    """

    spec: MonopoleSpec
    slots: tuple[int, ...]
    gamma_0: float = 0.0

    def __post_init__(self):
        if self.gamma_0 < 0:
            raise ValueError(f"gamma_0 must be >= 0, got {self.gamma_0}")


def model_signal(stream: SymbolStream, params: DephasingParams) -> SignalTrace:
    """Noise-free trace at the ``params.slots`` of every cycle, normalized to 1 at t = 0.

    The value after slot j of cycle l is (-cos eps)**kicks *
    exp(-Gamma_0 * t) with kicks = l + (j > the block's kick slot); at a
    half-period sample that `check_kick_layout` accepts, this gives the sign
    law (-1)**cycle * symbol for eps = 0.
    """
    spec = params.spec
    trace = SignalTrace.at_slots(
        spec, params.slots, np.empty(1 + len(stream) * len(params.slots)),
        meta={"engine": "dephasing", "stream_seed": stream.seed,
              "n_order": order_label(stream), "gamma_y": spec.gamma_y,
              "epsilon": spec.epsilon, "gamma_0": params.gamma_0,
              "tau": spec.tau})
    kick_slot = np.where(stream.symbols > 0, spec.kick_plus, spec.kick_minus)[:, None]
    kicks = np.arange(len(stream))[:, None] + (np.array(trace.slots) > kick_slot)
    kicks = np.concatenate([[0], kicks.ravel()])  # the pre-drive sample first
    np.exp(-params.gamma_0 * trace.times, out=trace.values)
    trace.values *= np.power(-math.cos(spec.epsilon), kicks)
    return trace
