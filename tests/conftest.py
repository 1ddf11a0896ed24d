"""Set up before any test module is imported.

The BLAS that numpy and scipy load (through ``oracles`` and the scipy
comparisons) starts a thread per CPU when imported.  ``simulate`` forks its
worker pool only in a process with no other threads, since a child forked
beside them may deadlock on their locks, so the worker-pool tests in
``test_diffusion_engine`` need the BLAS to have one thread, as in
``bench/run.py``.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
