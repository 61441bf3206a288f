"""Content-addressed on-disk cache of completed experiment cells.

A cell's cache key is a blake2b hash of a canonical JSON document::

    {
      "cache_version": <runner format version>,
      "experiment":    <experiment id>,
      "salt":          <spec.cache_salt — bumped on code changes>,
      "config":        <config.to_key_dict() — semantic fields only>,
      "calibration":   <flattened calibration dataclass tree>,
      "cell":          [<cell key parts>]
    }

Everything that can change a cell's payload is in the document; nothing
else is (no timestamps, no hostnames, no dict ordering — keys are
sorted).  Re-running with the same config therefore only simulates
missing cells, and a ``--quick`` run upgraded to full scale re-uses
nothing by accident because the sample counts live in the config dict.

Entries are stored as ``<dir>/<experiment>/<hash>.pkl``: a 16-byte
blake2b digest of everything after it, then the pickled record (metadata
beside the payload, which is what ``repro cache ls`` describes).  Damage
that still unpickles — a bit flipped inside a float — would otherwise be
served as a hit with altered numbers; with the digest every damaged
entry is a miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .spec import CellKey, ExperimentSpec

#: Bump to invalidate every cache entry (runner format change).
#: 2: entries carry an integrity digest.
CACHE_VERSION = 2

_PICKLE_PROTOCOL = 4
_DIGEST_SIZE = 16


def _seal(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_DIGEST_SIZE).digest()


def _read_record(path: str) -> Any:
    """Unpickle the entry at ``path``; raises on a missing file, a digest
    mismatch, or whatever ``pickle`` makes of the bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    body = blob[_DIGEST_SIZE:]
    if _seal(body) != blob[:_DIGEST_SIZE]:
        raise ValueError(f"{path}: integrity digest mismatch")
    return pickle.loads(body)


def calibration_fingerprint(calibration: Any) -> Dict[str, Any]:
    """A calibration dataclass tree flattened to JSON-able primitives."""
    if dataclasses.is_dataclass(calibration):
        return {f.name: calibration_fingerprint(getattr(calibration, f.name))
                for f in dataclasses.fields(calibration)}
    if isinstance(calibration, dict):
        return {str(k): calibration_fingerprint(v)
                for k, v in calibration.items()}
    if isinstance(calibration, (list, tuple)):
        return [calibration_fingerprint(v) for v in calibration]
    return calibration


def _config_key_dict(config: Any) -> Dict[str, Any]:
    """The config's semantic identity (prefers ``to_key_dict``)."""
    to_key = getattr(config, "to_key_dict", None)
    if callable(to_key):
        return to_key()
    if dataclasses.is_dataclass(config):  # fallback for ad-hoc configs
        return {f.name: calibration_fingerprint(getattr(config, f.name))
                for f in dataclasses.fields(config)
                if f.name != "calibration"}
    raise TypeError(f"config {type(config).__name__} has no to_key_dict() "
                    f"and is not a dataclass")


def cache_key(spec: ExperimentSpec, config: Any, cell: CellKey) -> str:
    """Stable hex digest identifying one cell's result."""
    document = {
        "cache_version": CACHE_VERSION,
        "experiment": spec.experiment_id,
        "salt": spec.cache_salt,
        "config": _config_key_dict(config),
        "calibration": calibration_fingerprint(
            getattr(config, "calibration", None)),
        "cell": list(cell),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored cell (payload not loaded)."""

    experiment_id: str
    digest: str
    cell: CellKey
    elapsed: float
    created: float
    size_bytes: int
    path: str


class ResultCache:
    """Directory-backed cell cache.  Safe to share between processes:
    writes go through a per-process temp file + atomic rename."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)

    # -- paths -----------------------------------------------------------
    def _experiment_dir(self, experiment_id: str) -> str:
        # Experiment ids are shell-safe slugs; keep subdirs readable.
        return os.path.join(self.directory, experiment_id)

    def _path(self, experiment_id: str, digest: str) -> str:
        return os.path.join(self._experiment_dir(experiment_id),
                            f"{digest}.pkl")

    # -- core API --------------------------------------------------------
    def get(self, spec: ExperimentSpec, config: Any,
            cell: CellKey) -> Optional[Dict[str, Any]]:
        """The stored record for a cell, or None on miss/corruption.

        The digest catches damage; should bytes ever get past it,
        ``pickle.loads`` raises nearly anything (``UnicodeDecodeError``,
        ``KeyError``, ``MemoryError``, ...), so any ``Exception`` while
        reading or validating is a miss: the cell is recomputed and the
        entry overwritten."""
        path = self._path(spec.experiment_id, cache_key(spec, config, cell))
        try:
            record = _read_record(path)
            if not isinstance(record, dict) or "payload" not in record \
                    or tuple(record.get("cell", ())) != tuple(cell):
                return None  # hash collision or tampering: treat as miss
        except Exception:  # noqa: BLE001
            return None
        return record

    def put(self, spec: ExperimentSpec, config: Any, cell: CellKey,
            payload: Any, elapsed: float,
            telemetry: Optional[Dict[str, Any]] = None) -> str:
        """Store a cell record.  ``telemetry`` (a
        :meth:`repro.obs.Telemetry.snapshot` dict) rides along when the
        cell was computed under a telemetry scope; the cache *key* is
        unaffected, so telemetry-on and telemetry-off runs share entries
        (a hit without a stored snapshot is simply re-simulated when
        telemetry is requested)."""
        digest = cache_key(spec, config, cell)
        directory = self._experiment_dir(spec.experiment_id)
        os.makedirs(directory, exist_ok=True)
        record = {
            "cache_version": CACHE_VERSION,
            "experiment": spec.experiment_id,
            "salt": spec.cache_salt,
            "cell": tuple(cell),
            "elapsed": float(elapsed),
            "created": time.time(),  # simlint: disable=wallclock -- host-side cache metadata; never read back into sim state
            "payload": payload,
        }
        if telemetry is not None:
            record["telemetry"] = telemetry
        path = self._path(spec.experiment_id, digest)
        tmp = f"{path}.tmp.{os.getpid()}"
        body = pickle.dumps(record, protocol=_PICKLE_PROTOCOL)
        with open(tmp, "wb") as fh:
            fh.write(_seal(body))
            fh.write(body)
        os.replace(tmp, path)  # atomic on POSIX
        return digest

    # -- management (repro cache {ls,clear}) -----------------------------
    def _files(self, experiment_id: Optional[str] = None
               ) -> Iterator[Tuple[str, str]]:
        """(experiment, path) of every entry file, sorted for stable
        output — readable or not."""
        if not os.path.isdir(self.directory):
            return
        experiments = ([experiment_id] if experiment_id
                       else sorted(os.listdir(self.directory)))
        for exp in experiments:
            exp_dir = self._experiment_dir(exp)
            if not os.path.isdir(exp_dir):
                continue
            for fname in sorted(os.listdir(exp_dir)):
                if fname.endswith(".pkl"):
                    yield exp, os.path.join(exp_dir, fname)

    def entries(self,
                experiment_id: Optional[str] = None) -> Iterator[CacheEntry]:
        """Iterate stored cells (metadata only)."""
        for exp, path in self._files(experiment_id):
            try:
                record = _read_record(path)
                entry = CacheEntry(
                    experiment_id=exp,
                    digest=os.path.basename(path)[:-len(".pkl")],
                    cell=tuple(record.get("cell", ())),
                    elapsed=float(record.get("elapsed", 0.0)),
                    created=float(record.get("created", 0.0)),
                    size_bytes=os.path.getsize(path),
                    path=path)
            except Exception:  # noqa: BLE001  # simlint: disable=swallowed-error -- a damaged entry is not listed (see get); the next run overwrites it
                continue
            yield entry

    def clear(self, experiment_id: Optional[str] = None) -> int:
        """Delete stored cells (all, or one experiment's) — entries that
        no longer read, damaged or of an older format, included; returns
        the count."""
        removed = 0
        for _, path in list(self._files(experiment_id)):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        # Prune now-empty experiment directories.
        if os.path.isdir(self.directory):
            for exp in os.listdir(self.directory):
                exp_dir = self._experiment_dir(exp)
                if os.path.isdir(exp_dir) and not os.listdir(exp_dir):
                    try:
                        os.rmdir(exp_dir)
                    except OSError:
                        pass
        return removed

    def summary(self) -> List[Dict[str, Any]]:
        """Per-experiment {experiment, cells, bytes, cell_seconds} rows."""
        rows: Dict[str, Dict[str, Any]] = {}
        for entry in self.entries():
            row = rows.setdefault(entry.experiment_id, {
                "experiment": entry.experiment_id, "cells": 0,
                "bytes": 0, "cell_seconds": 0.0})
            row["cells"] += 1
            row["bytes"] += entry.size_bytes
            row["cell_seconds"] += entry.elapsed
        return [rows[k] for k in sorted(rows)]


__all__ = ["CACHE_VERSION", "CacheEntry", "ResultCache", "cache_key",
           "calibration_fingerprint"]
