"""Pin BLAS to one thread for the test run, as CI and the benchmark do.

The variables must be set before numpy is first imported. With BLAS
threads spinning over a trial's small matrices, a 20x40 trial takes tens
of milliseconds instead of about one, which changes when
``experiments._map_trials`` forks and slows the suite tenfold. A value
already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
