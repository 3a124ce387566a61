"""Probing toolkit for fixed-dimensional audio embeddings.

Trains lightweight probe networks on trait labels and values, measures
classification/regression performance with resampling-based significance,
and runs distance-based and perturbation-based ablation analyses.
"""
import os

__version__ = "0.1.0"
REPORT_VERSION = 1  # of report.json and probe_report.json

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Default BLAS to one thread in this process; a count the user set wins.

    The probe's products (at most batch x hidden x hidden, 32 x 256 x 256 by
    default) are too small for a second BLAS thread to save wall time; it
    spins and doubles the CPU a command uses. BLAS reads these variables when
    numpy loads it, so this must run before numpy is imported; afterwards it
    has no effect. Only the command-line entry points call it, never an
    import of the package.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def console_main() -> int:
    """The `embprobe` console script: pin BLAS, then run the CLI."""
    pin_blas_threads()
    from .cli import main
    return main()
