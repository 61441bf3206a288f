"""Lightweight virtual machines (execution slots).

§5.2: "Each machine acquired by our agent is configured as two virtual
machines... the machine only runs one O/S, but we split the machine into
two separate execution slots."  A :class:`VmSlot` is bookkeeping — which
job occupies the slot and with what CPU role — while the actual CPU
arbitration lives in :class:`repro.grid.cpu.WorkerCpu`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class VmKind(enum.Enum):
    BATCH = "batch-vm"
    INTERACTIVE = "interactive-vm"


@dataclass
class VmSlot:
    """One execution slot of a glide-in-managed machine."""

    kind: VmKind
    occupant: Optional[str] = None
    occupied_since: Optional[float] = None
    jobs_run: int = 0

    @property
    def is_free(self) -> bool:
        return self.occupant is None

    def occupy(self, label: str, now: float) -> None:
        if self.occupant is not None:
            raise RuntimeError(f"{self.kind.value} already runs {self.occupant}")
        self.occupant = label
        self.occupied_since = now
        self.jobs_run += 1

    def vacate(self, label: str) -> None:
        if self.occupant != label:
            raise RuntimeError(
                f"{self.kind.value}: vacate by {label!r}, occupant is "
                f"{self.occupant!r}")
        self.occupant = None
        self.occupied_since = None
