"""Entry point of ``python -m wormbec``: runs ``wormbec.cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
