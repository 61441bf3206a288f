"""Workload trace files: save/load/stream job-arrival streams.

A generated mix can be frozen to disk and replayed later (or edited by
hand), which turns scheduler scenarios into versionable artifacts — the
moral equivalent of the batch-system logs grid papers of the era replayed.

Two on-disk formats are understood:

* **v1** — a single JSON document ``{"version": 1, "jobs": [...]}``.
  Readable forever, but the whole trace must fit in memory on both the
  write and the read side.
* **v2** (current) — chunked NDJSON: the first line is a small JSON
  header ``{"version": 2, "description": ..., "jobs": <count|null>}``
  and every following line is one arrival record.  Traces stream to and
  from disk one record at a time: :func:`save_trace` accepts any
  iterable (including the lazy :func:`repro.workloads.iter_mix`) and
  :func:`iter_trace` yields arrivals without loading the file.

Writes are crash-safe: the destination is written as a same-directory
temp file and atomically :func:`os.replace`-d into place (the same
pattern as :mod:`repro.runner.cache`), so an interrupted dump can never
leave a truncated, unparseable trace under the target name.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..jdl import JobDescription
from .mixes import JobArrival

#: Format written by :func:`save_trace`.  v1 files remain readable.
TRACE_VERSION = 2

#: Versions :func:`load_trace` / :func:`iter_trace` accept.
SUPPORTED_VERSIONS = (1, 2)


def arrival_to_record(arrival: JobArrival) -> dict:
    """One arrival as a JSON-able record (full job fidelity).

    Everything :meth:`JobDescription.from_attributes` can reconstruct is
    serialized: the interactivity attributes, the runtime estimate, both
    sandboxes, requirements/rank expressions, the pinned shadow port,
    and any raw matchmaking attributes.
    """
    job = arrival.job
    payload: Dict[str, Any] = {
        "executable": job.executable,
        "arguments": list(job.arguments),
        "owner": job.owner,
        "jobtype": [job.category.value, job.flavor.value],
        "nodenumber": job.node_number,
        "streamingmode": job.streaming_mode.value,
        "machineaccess": job.machine_access.value,
        "performanceloss": job.performance_loss,
        "job_id": job.job_id,
    }
    if job.estimated_runtime is not None:
        payload["estimatedruntime"] = job.estimated_runtime
    if job.input_sandbox:
        payload["inputsandbox"] = [[name, size]
                                   for name, size in job.input_sandbox]
    if job.output_sandbox:
        payload["outputsandbox"] = [[name, size]
                                    for name, size in job.output_sandbox]
    if job.requirements is not None:
        payload["requirements"] = str(job.requirements)
    if job.rank is not None:
        payload["rank"] = str(job.rank)
    if job.shadow_port is not None:
        payload["shadowport"] = job.shadow_port
    # Raw matchmaking attributes are leftover (lowercased, non-standard)
    # keys by construction, so they merge into the payload and fall back
    # out into ``job.raw`` when from_attributes re-validates the record.
    for key, value in job.raw.items():
        payload.setdefault(key, value)
    return {"at": arrival.at, "runtime": arrival.runtime, "job": payload}


def record_to_arrival(record: dict) -> JobArrival:
    payload = dict(record["job"])
    job_id = payload.pop("job_id", None)
    owner = payload.pop("owner", "anonymous")
    job = JobDescription.from_attributes(payload, owner=owner)
    if job_id is not None:
        # Explicit check: falsy-but-present ids (e.g. "" used as a
        # sentinel by external tooling) must survive the round trip
        # rather than being silently replaced by a fresh generated id.
        job.job_id = job_id
    return JobArrival(at=float(record["at"]), job=job,
                      runtime=float(record["runtime"]))


def _atomic_write(path: str) -> "_AtomicFile":
    return _AtomicFile(path)


class _AtomicFile:
    """Same-directory temp file committed with :func:`os.replace`."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.tmp = f"{path}.tmp.{os.getpid()}"
        self._fh: Optional[io.TextIOWrapper] = None

    def __enter__(self) -> io.TextIOWrapper:
        self._fh = open(self.tmp, "w", encoding="utf-8")
        return self._fh

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._fh is not None:
            self._fh.close()
        if exc_type is None:
            os.replace(self.tmp, self.path)  # atomic on POSIX
        else:
            try:
                os.remove(self.tmp)
            except OSError:
                pass


def save_trace(arrivals: Iterable[JobArrival], path: str,
               description: str = "", count: Optional[int] = None) -> int:
    """Write a trace file (v2 NDJSON envelope); returns the job count.

    ``arrivals`` may be any iterable — a list, or the lazy generator
    :func:`repro.workloads.iter_mix` — and is consumed one record at a
    time, so memory stays O(1) in the trace length.  Pass ``count`` when
    known so the header can advertise it (purely informational; readers
    count records themselves).
    """
    written = 0
    with _atomic_write(path) as fh:
        header = {"version": TRACE_VERSION, "description": description,
                  "jobs": count}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for arrival in arrivals:
            fh.write(json.dumps(arrival_to_record(arrival),
                                sort_keys=True) + "\n")
            written += 1
    return written


def trace_header(path: str) -> dict:
    """The trace's envelope metadata without reading the records."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        parsed = json.loads(first)
    except json.JSONDecodeError:
        parsed = None
    if isinstance(parsed, dict) and "version" in parsed:
        return {"version": parsed["version"],
                "description": parsed.get("description", ""),
                "jobs": parsed.get("jobs")}
    # v1 documents are pretty-printed: fall back to a full parse.
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {"version": payload.get("version"),
            "description": payload.get("description", ""),
            "jobs": len(payload.get("jobs", []))}


def iter_trace(path: str) -> Iterator[JobArrival]:
    """Stream arrivals from a trace file, one record at a time.

    v2 files are read line-by-line with O(1) memory, in file order
    (the writers emit time-sorted streams; :func:`load_trace` is the
    sorting reader).  v1 files are a single JSON document and are
    necessarily loaded eagerly, then yielded in file order.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"empty trace file {path!r}")
        try:
            header: Any = json.loads(first)
        except json.JSONDecodeError:
            header = None  # multi-line v1 document
        if isinstance(header, dict) and "version" in header \
                and "at" not in header:
            version = header["version"]
            if version == 2:
                for line in fh:
                    if line.strip():
                        yield record_to_arrival(json.loads(line))
                return
            if version not in SUPPORTED_VERSIONS:
                raise ValueError(f"unsupported trace version {version!r}")
    # Anything else must be a v1 whole-file document.
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version") if isinstance(payload, dict) else None
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported trace version {version!r}")
    for record in payload.get("jobs", []):
        yield record_to_arrival(record)


def load_trace(path: str) -> List[JobArrival]:
    """Read a trace file (v1 or v2) back into replayable arrivals."""
    arrivals = list(iter_trace(path))
    arrivals.sort(key=lambda a: a.at)
    return arrivals


__all__ = [
    "SUPPORTED_VERSIONS",
    "TRACE_VERSION",
    "arrival_to_record",
    "iter_trace",
    "load_trace",
    "record_to_arrival",
    "save_trace",
    "trace_header",
]
