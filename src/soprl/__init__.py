"""Off-policy actor-critic engine with output normalization, inverting
gradients, and recency-emphasizing replay sampling, on toy control tasks."""

import os as _os

# the workloads are many small float64 matmuls; multithreaded BLAS only
# adds contention there, so default to one thread unless the caller chose
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
