"""repro: a Python reproduction of TEMPI (HPDC 2021).

TEMPI is an interposed MPI library that gives CUDA-aware MPI implementations
fast handling of derived datatypes by (1) canonicalising nested strided
datatypes into a compact representation backed by generic GPU pack kernels
and (2) choosing the packing method for ``MPI_Send``/``MPI_Recv`` at runtime
from empirical system measurements.

This package reimplements the whole stack in Python on top of simulated
substrates (see ``DESIGN.md``):

``repro.gpu``
    A functional simulated CUDA runtime with virtual-time cost accounting.
``repro.machine``
    Machine and network models (Summit-like preset).
``repro.mpi``
    A functional simulated MPI with the Spectrum-like baseline datatype path.
``repro.tempi``
    The paper's contribution: datatype canonicalisation, the packer, the
    packing-method performance model and the interposer.
``repro.apps``
    The 3-D stencil halo exchange used by the evaluation.
``repro.bench``
    Harness helpers shared by the figure/table benchmarks.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
