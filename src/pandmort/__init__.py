"""pandmort: multi-population mortality calibration and forecasting with a
pandemic layer on top of a two-layer common-trend baseline.

Importing the package sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
to 1 where they are unset, so that a NumPy imported after it runs its BLAS
on one thread: the pipeline's dense kernels are small, and on a small
machine OpenBLAS's threads can stall them.  A value set beforehand wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
