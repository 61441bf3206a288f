"""Canonical config serialisation, shared by every layer.

:class:`ConfigCodec` started life in :mod:`repro.experiments.common`,
but broker configs (:class:`repro.core.BrokerConfig` and its per-mode
subclasses) need the same cache-key contract — and ``repro.core`` must
not import the experiment harness.  The mixin therefore lives here, in
a leaf module with no intra-package dependencies; the experiment layer
re-exports it unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict


def _jsonify(value: Any) -> Any:
    """Config field -> canonical JSON-able form (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, (list,)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


class ConfigCodec:
    """Canonical serialisation mixin for config dataclasses.

    ``to_key_dict()`` returns the config's *semantic identity*: every
    dataclass field except ``calibration`` (the bundle the runner
    fingerprints separately — :func:`repro.runner.cache.cache_key` — so
    that cache keys react to calibration edits without embedding a
    dataclass tree in every config dict).  The key is complete by
    construction: there is no way to declare a field the key leaves out.
    """

    def to_key_dict(self) -> Dict[str, Any]:
        assert dataclasses.is_dataclass(self), "ConfigCodec needs a dataclass"
        return {f.name: _jsonify(getattr(self, f.name))
                for f in dataclasses.fields(self)
                if f.name != "calibration"}


__all__ = ["ConfigCodec"]
