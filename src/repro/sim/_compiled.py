"""Compiled-lane selection for the kernel (``REPRO_SIM_COMPILED=1``).

The kernel ships two lanes:

* the **interpreted lane** — the pure-Python modules in this package,
  always present, the reference implementation;
* the **compiled lane** — ``repro.sim._speedups``, a dependency-free
  CPython extension holding a C transcription of the run loop and the
  Event/Timeout construction paths (see ``_speedups.c`` and the
  "Kernel performance" section of ARCHITECTURE.md).  Build it with
  ``python tools/build_compiled.py`` or ``pip install .[compiled]``.

Selection is a process-level switch read once at import: setting
``REPRO_SIM_COMPILED=1`` opts in, and the lane silently falls back to
the interpreter (with a warning) when the extension is not built, so a
source checkout always works.  The environment variable — not a runtime
flag — is deliberate: worker processes spawned by the runner inherit it,
keeping every shard of a parallel run on the same lane.

Nothing in this module may import outside ``repro.sim`` + the stdlib
allowlist (checked by ``tests/test_import_boundary.py``).
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Optional

#: Whether the user asked for the compiled lane (read once; the kernel
#: never re-reads the environment).
COMPILED_REQUESTED: bool = (
    os.environ.get("REPRO_SIM_COMPILED", "") == "1"  # simlint: disable=environ-read -- process-level lane switch, read exactly once at import; workers inherit it
)

#: The bound extension module, or ``None`` when running interpreted.
SPEEDUPS: Optional[Any] = None

if COMPILED_REQUESTED:
    try:
        from . import _speedups as _ext
    except ImportError:
        warnings.warn(
            "REPRO_SIM_COMPILED=1 but repro.sim._speedups is not built; "
            "falling back to the interpreted kernel lane "
            "(build it with `python tools/build_compiled.py`)",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        SPEEDUPS = _ext


def compiled_lane_active() -> bool:
    """True when the C lane is selected *and* importable."""
    return SPEEDUPS is not None
