"""Link-level simulation toolkit for mmWave analog transmit beamforming.

Modules cover channel generation, constant-modulus beamformer
construction (DFT, Hadamard and blockwise phase-rotated golden-ratio
Hadamard), the greedy selector of quantized rotation phases, Alamouti
space-time coding, closed-form error analysis, and a seeded experiment
harness with a CLI front end.

The package root exports only the runner API; every other name is
imported from its module, e.g. ``from beamlink import channel``.
"""

from .harness import ExperimentConfig, run_all, run_fig1, run_fig2, run_fig3, run_table1

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "run_all",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_table1",
]
