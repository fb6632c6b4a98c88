"""Random-multipolar-drive simulator for dipolar spin networks.

Builds random multipolar drives, from fully random (n = 0) through
structured random (n >= 1) to the quasiperiodic Thue-Morse limit; evolves
disordered dipolar spin-1/2 systems exactly under them, or under the
closed-form dephasing model; and analyzes the resulting polarization
traces for period-doubling order, micromotion spectra, heating-rate power
laws, and micromotion-encoded data.
"""

__version__ = "0.1.0"

from .sequences import (MonopoleSpec, SymbolStream, THUE_MORSE, sample_rmd,
                        thue_morse_stream, unroll_multipole)
from .spins import (CouplingSet, Hamiltonian, SpinGraph, build_hamiltonian,
                    compute_couplings, generate_graph)
from .evolution import (PulseProgram, SignalTrace, BlockPropagatorFactory, evolve,
                        evolve_blockwise, initial_state)
from .dephasing import DephasingParams, model_signal
from .analysis import (HeatingFit, PhaseDiagram, PowerLawFit, SpectrumResult,
                       dft_micromotion, dft_stroboscopic, fit_power_law,
                       half_frequency_contrast, lifetime, phase_diagram, symbol_dft)
from .codec import Message, capacity, decode, encode
from .runner import RunConfig, run
