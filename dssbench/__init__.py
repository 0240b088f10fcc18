"""The DSSDDI benchmark: ``train``, ``clinic`` and ``ward`` (see README.md).

Importing this package has no side effects and does not import numpy, so
``run.py`` can pin the BLAS thread count before numpy loads.
"""

#: Noise control applied identically to every run and to the spawned
#: gateway; recorded in each result's fingerprint.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
