"""Link-level simulation toolkit for mmWave analog transmit beamforming.

Modules cover channel generation, constant-modulus beamformer
construction (DFT, Hadamard and blockwise phase-rotated golden-ratio
Hadamard), the greedy selector of quantized rotation phases, Alamouti
space-time coding, closed-form error analysis, and a seeded experiment
harness with a CLI front end.

The package root exports only the runner API; every other name is
imported from its module, e.g. ``from beamlink import channel``.
"""

import os
import sys

# Every kernel runs on the calling thread and makes no BLAS call, but
# OpenBLAS starts one worker per extra core when numpy loads it, and each
# worker busy-waits for a while before it sleeps. OpenBLAS reads its
# thread count once, at load, so numpy is loaded here with one BLAS
# thread, unless it is already loaded or the caller set a count in any
# variable that OpenBLAS reads. The environment is left as it was, so
# child processes inherit the caller's.
if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
