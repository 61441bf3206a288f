"""``python -m repro.experiments`` — same entry point as ``repro``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
