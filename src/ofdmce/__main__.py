"""Module entry point so ``python -m ofdmce`` behaves like the console script."""

import os
import sys

# Nothing in the package calls BLAS, so OpenBLAS's thread pool only burns
# CPU. The default must be set before numpy is imported; a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
