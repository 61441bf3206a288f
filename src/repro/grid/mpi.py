"""MPI job structure: subjobs and co-allocation planning.

The paper's interactive parallel jobs are MPICH-P4 (one cluster) and
MPICH-G2 (may span several sites; one Console Agent per subjob, §4).
No message-passing computation is simulated — the evaluation never
measures MPI communication — but the *structure* (how many subjobs land on
which sites, and the one-CA-per-subjob wiring) is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..jdl import JobDescription, JobFlavor
from .errors import CoAllocationError


@dataclass(frozen=True)
class AllocationSlice:
    """``nodes`` subjobs placed on ``site``."""

    site: str
    nodes: int


@dataclass(frozen=True)
class Subjob:
    """One MPI task of a parallel job."""

    job_id: str
    rank: int
    site: str

    @property
    def label(self) -> str:
        return f"{self.job_id}/rank{self.rank}"


def plan_allocation(job: JobDescription,
                    candidates: Sequence[Tuple[str, int]]) -> List[AllocationSlice]:
    """Choose sites for the job's ``NodeNumber`` tasks.

    ``candidates`` is a sequence of (site, free_cpus), already filtered by
    Requirements and ordered by preference (rank, then the broker's
    randomized tie-break).

    * sequential: first site with a free CPU;
    * MPICH-P4: the job must fit inside one cluster;
    * MPICH-G2: greedy spread over the preference order, multiple sites
      allowed.
    """
    need = job.node_number
    if job.flavor is JobFlavor.MPICH_G2:
        slices: List[AllocationSlice] = []
        remaining = need
        for site, free in candidates:
            if remaining == 0:
                break
            if free <= 0:
                continue
            take = min(free, remaining)
            slices.append(AllocationSlice(site, take))
            remaining -= take
        if remaining > 0:
            raise CoAllocationError(
                f"{job.job_id}: need {need} CPUs, only {need - remaining} free")
        return slices

    # Sequential and MPICH-P4 are single-site.
    for site, free in candidates:
        if free >= need:
            return [AllocationSlice(site, need)]
    raise CoAllocationError(
        f"{job.job_id}: no single site with {need} free CPUs "
        f"(flavor {job.flavor.value})")


def subjobs_for(job: JobDescription,
                slices: Sequence[AllocationSlice]) -> List[Subjob]:
    """Assign MPI ranks to the allocation, rank 0 on the first slice."""
    total = sum(s.nodes for s in slices)
    if total != job.node_number:
        raise CoAllocationError(
            f"{job.job_id}: allocation covers {total} != {job.node_number}")
    subjobs: List[Subjob] = []
    rank = 0
    for piece in slices:
        for _ in range(piece.nodes):
            subjobs.append(Subjob(job.job_id, rank, piece.site))
            rank += 1
    return subjobs
