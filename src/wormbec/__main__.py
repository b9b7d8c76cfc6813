"""Entry point of ``python -m wormbec`` and of the installed ``wormbec``
script.

No wormbec code path uses BLAS threads, yet OpenBLAS starts a pool of them
inside ``import numpy`` unless OPENBLAS_NUM_THREADS says otherwise. So the
CLI defaults the variable to 1 before anything imports numpy; a value the
user has set wins. Importing the package or calling ``wormbec.cli.main``
leaves the environment alone.
"""

import os
import sys


def run() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main
    return main()


if __name__ == "__main__":
    sys.exit(run())
