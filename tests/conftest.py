"""One BLAS thread for the whole suite. The matrices here are tiny, and
extra OpenBLAS threads only spin against other busy processes, which can
push the wall-clock budgets of the acceptance batches over. Set before
numpy is first imported; a value already in the environment wins."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
