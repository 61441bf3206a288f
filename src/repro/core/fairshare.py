"""Fair-share priority accounting (paper §5.1).

Equation (1)::

    P(u, t) = beta * P(u, t - dt) + (1 - beta) * a_f * r(u, t)

with ``beta = 0.5 ** (dt / h)`` (half-life ``h``; see DESIGN.md on the
paper's corrupted formula line), ``r(u, t)`` the normalised resources user
``u`` holds at ``t``, and the application factor ``a_f``:

* batch job: ``a_f = 1``;
* interactive job: ``a_f = 2 - PL/100`` — interactive use degrades
  priority faster than batch, less so the more CPU the job cedes (the
  paper's literal ``2 * PL/100`` is exposed behind
  ``FairShareConfig.af_interactive_literal``; see DESIGN.md);
* a batch job forced to share its machine with an interactive job:
  ``a_f = PL/100`` of that interactive job (its owner is compensated).

Higher ``P`` means *worse* priority.  When resources are scarce, jobs of
users with worse priority are rejected (§5.1: "If there are not enough
available resources, jobs belonging to users with worse priority are
rejected").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..calibration import FairShareConfig
from ..sim import Environment


def af_batch() -> float:
    return 1.0


def af_interactive(performance_loss: int, literal: bool = False) -> float:
    if literal:
        return 2.0 * performance_loss / 100.0
    return 2.0 - performance_loss / 100.0


def af_displaced_batch(performance_loss: int) -> float:
    """The batch job that yielded its machine is charged only PL/100."""
    return performance_loss / 100.0


@dataclass
class UsageShare:
    """One job's contribution to its owner's resource usage."""

    job_id: str
    #: Normalised resource amount (CPUs held / total CPUs in the grid).
    amount: float
    #: Application factor in force for this job.
    af: float


@dataclass
class UserAccount:
    user: str
    priority: float = 0.0
    shares: Dict[str, UsageShare] = field(default_factory=dict)

    def weighted_usage(self) -> float:
        return sum(s.amount * s.af for s in self.shares.values())


class FairShareAccounting:
    """Dynamic user priorities driving admission and queue ordering."""

    def __init__(self, env: Environment, config: Optional[FairShareConfig] = None,
                 total_cpus: int = 1, autostart: bool = True) -> None:
        self.env = env
        self.config = config or FairShareConfig()
        if total_cpus < 1:
            raise ValueError("total_cpus must be >= 1")
        self.total_cpus = total_cpus
        self._accounts: Dict[str, UserAccount] = {}
        self.beta = 0.5 ** (self.config.update_interval / self.config.half_life)
        if autostart:
            env.process(self._update_loop(), name="fairshare/update",
                        daemon=True)  # service root: samples for the whole run

    # -- account management -------------------------------------------------
    def account(self, user: str) -> UserAccount:
        acct = self._accounts.get(user)
        if acct is None:
            acct = UserAccount(user, self.config.initial_priority)
            self._accounts[user] = acct
        return acct

    def priority(self, user: str) -> float:
        """Current priority of ``user`` (lower is better)."""
        return self.account(user).priority

    def users(self) -> List[str]:
        return list(self._accounts)

    # -- usage events ---------------------------------------------------------
    def job_started(self, user: str, job_id: str, cpus: int, af: float) -> None:
        acct = self.account(user)
        acct.shares[job_id] = UsageShare(job_id, cpus / self.total_cpus, af)

    def job_finished(self, user: str, job_id: str) -> None:
        self.account(user).shares.pop(job_id, None)

    def reweight_job(self, user: str, job_id: str, af: float) -> None:
        """Change a running job's a_f (batch job displaced by an
        interactive guest gets the cheaper factor, restored afterwards)."""
        share = self.account(user).shares.get(job_id)
        if share is not None:
            share.af = af

    # -- the periodic update (eq. 1) ---------------------------------------
    def step(self) -> None:
        """Apply one dt update to every account.

        §5.1: "User priorities are updated every dt times for each user
        whose current priority is different (worse) than the initial
        priority" — idle users decay back toward the initial value.
        """
        beta = self.beta
        initial = self.config.initial_priority
        for acct in self._accounts.values():
            usage = acct.weighted_usage()
            if acct.priority == initial and usage == 0.0:
                continue
            acct.priority = beta * acct.priority + (1.0 - beta) * usage

    def _update_loop(self) -> Generator:
        # One re-armable timer for the lifetime of the decay sampler — the
        # eq. 1 update fires every dt for the whole run, so a per-tick
        # Timeout allocation is pure churn.
        tick = self.env.timer(name="fairshare/dt")
        while True:
            yield tick.arm(self.config.update_interval)
            self.step()

    # -- admission --------------------------------------------------------
    def admit(self, user: str, scarce: bool = False) -> bool:
        """Admission check used when resources are scarce.

        With ample resources everyone is admitted.  Under scarcity, a
        user whose priority is worse than the best competing user's by
        more than ``scarcity_margin`` is rejected — this is the mechanism
        that "prevents users from always submitting their jobs as
        'interactive' and therefore saturating the system".
        """
        if not scarce:
            return True
        mine = self.priority(user)
        others = [self.priority(u) for u in self.users() if u != user]
        if not others:
            return True
        best = min(others)
        return mine <= best + self.config.scarcity_margin

    def ordering_key(self, user: str) -> float:
        """Sort key for queues ordered by fair-share priority."""
        return self.priority(user)
