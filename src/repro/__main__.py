"""``python -m repro`` — the ``repro`` command line.

The same :func:`repro.experiments.cli.main` the ``repro`` console script
and ``python -m repro.experiments`` call.
"""

from __future__ import annotations

import sys

from .experiments.cli import main

if __name__ == "__main__":
    sys.exit(main())
