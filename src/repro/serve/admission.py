"""Multi-tenant admission control for the online scheduler service.

Every submission is priced *before* it reaches the engine: the service
estimates the job's single-GPU compute (``iterations × iso_iter_time`` on
the fleet's reference pool — exactly the ``remaining_gpu_seconds`` figure
scheduling policies sort by) and asks the :class:`AdmissionPolicy` to
accept, queue, or reject it against the tenant's :class:`TenantAccount`.

Accounting follows a commit/settle discipline:

* **admit** — the estimate is *committed* against the tenant's GPU-second
  quota (held, not yet spent);
* **settle** — at completion or cancellation the hold is released and the
  job's *actual* consumption is charged: ``busy_gpu_seconds +
  lost_gpu_seconds``, the same accounting the offline scheduler reports in
  its :class:`~repro.sched.metrics.JobRecord`.  A job cancelled while still
  pending consumed nothing, so settling it refunds the full hold.

Actual consumption can exceed the estimate (collocation slowdowns and
failure rollbacks are not foreseen at admit time); quotas bound *intent* at
admission and charge *truth* at settlement.  Every settle pairs exactly one
admit, so committed holds can never go negative — a property the test suite
checks under arbitrary submit/cancel interleavings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional

from ..obs.metrics import global_registry
from ..sched.traces import TraceJob

__all__ = [
    "AdmissionDecision",
    "TenantQuota",
    "TenantAccount",
    "AdmissionPolicy",
    "AcceptAll",
    "QuotaAdmission",
]


class AdmissionDecision(str, Enum):
    """What the service does with one submission."""

    ACCEPT = "accept"
    QUEUE = "queue"
    REJECT = "reject"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource bounds.

    Attributes
    ----------
    gpu_seconds:
        Total GPU-second budget (committed holds + settled charges may
        never exceed it).  Defaults to unlimited.
    max_pending:
        Cap on the tenant's not-yet-running submissions (engine-pending
        plus service-queued).  ``None`` means uncapped.
    """

    gpu_seconds: float = math.inf
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        # ``not > 0`` also refuses nan; inf is the unlimited default.
        if not self.gpu_seconds > 0:
            raise ValueError(
                f"gpu_seconds quota must be positive, got {self.gpu_seconds!r}"
            )
        if self.max_pending is not None:
            if isinstance(self.max_pending, bool) or not isinstance(
                self.max_pending, numbers.Integral
            ):
                raise ValueError(
                    f"max_pending must be an integer, got {self.max_pending!r}"
                )
            if self.max_pending < 1:
                raise ValueError("max_pending must be >= 1")


class TenantAccount:
    """Live accounting for one tenant (created lazily at first submission).

    ``committed``/``used`` are the GPU-second ledger described in the module
    docstring; the job counters double as :mod:`repro.obs` registry counters
    (``serve.tenant.<name>.*``) so service runs show up in the same metrics
    snapshots as everything else.
    """

    def __init__(self, name: str, quota: TenantQuota) -> None:
        self.name = name
        self.quota = quota
        #: GPU-second holds for admitted-but-unsettled jobs.
        self.committed = 0.0
        #: GPU-seconds actually consumed by settled jobs.
        self.used = 0.0
        #: Jobs admitted to the engine but not yet placed.
        self.engine_pending = 0
        #: Jobs held in the service's backpressure queue.
        self.queued = 0
        registry = global_registry()
        prefix = f"serve.tenant.{name}"
        # Scoped (per-account) counters rolling up into the registered
        # ``serve.tenant.<name>.*`` aggregates: a recovered service restores
        # its own ledger exactly without re-counting another instance's
        # traffic, while process-wide totals still accumulate.
        self.submitted_c = registry.scoped_counter(f"{prefix}.submitted")
        self.admitted_c = registry.scoped_counter(f"{prefix}.admitted")
        self.queued_c = registry.scoped_counter(f"{prefix}.queued")
        self.rejected_c = registry.scoped_counter(f"{prefix}.rejected")
        self.completed_c = registry.scoped_counter(f"{prefix}.completed")
        self.cancelled_c = registry.scoped_counter(f"{prefix}.cancelled")

    @property
    def available(self) -> float:
        """GPU-seconds the tenant can still commit."""
        return self.quota.gpu_seconds - self.used - self.committed

    @property
    def pending_total(self) -> int:
        """Submissions not yet running (engine-pending + service-queued)."""
        return self.engine_pending + self.queued

    def admit(self, estimate: float) -> None:
        """Hold ``estimate`` GPU-seconds against the quota."""
        self.committed += estimate

    def settle(self, estimate: float, charge: float) -> None:
        """Release one admit's hold and charge actual consumption.

        The hold is subtracted exactly as it was added; a sub-epsilon
        float residue from summation order is clamped so ``committed``
        is zero whenever no holds are outstanding.
        """
        self.committed -= estimate
        if self.committed < 0.0:
            self.committed = 0.0
        self.used += charge

    def snapshot(self) -> Dict[str, float]:
        """One tenant's ledger as a plain dict (for ``cluster_state()``)."""
        return {
            "quota_gpu_seconds": self.quota.gpu_seconds,
            "committed_gpu_seconds": self.committed,
            "used_gpu_seconds": self.used,
            "available_gpu_seconds": self.available,
            "engine_pending": self.engine_pending,
            "queued": self.queued,
            "submitted": self.submitted_c.value,
            "admitted": self.admitted_c.value,
            "rejected": self.rejected_c.value,
            "completed": self.completed_c.value,
            "cancelled": self.cancelled_c.value,
        }

    def restore_ledger(
        self,
        committed: float,
        used: float,
        engine_pending: int,
        queued: int,
        counters: Mapping[str, int],
    ) -> None:
        """Set the ledger to a snapshotted state (crash recovery only).

        Counters are scoped to this account, so setting them exactly cannot
        perturb another service instance; the parent aggregates absorb the
        restored totals as ordinary increments.
        """
        self.committed = committed
        self.used = used
        self.engine_pending = engine_pending
        self.queued = queued
        for key, counter in (
            ("submitted", self.submitted_c),
            ("admitted", self.admitted_c),
            ("queued", self.queued_c),
            ("rejected", self.rejected_c),
            ("completed", self.completed_c),
            ("cancelled", self.cancelled_c),
        ):
            counter.add(counters[key] - counter.value)


class AdmissionPolicy:
    """Decides what happens to one submission (accept / queue / reject)."""

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota a new account for ``tenant`` starts with."""
        return TenantQuota()

    def decide(
        self, account: TenantAccount, job: TraceJob, estimate: float
    ) -> AdmissionDecision:
        raise NotImplementedError


class AcceptAll(AdmissionPolicy):
    """No admission control — every submission is admitted immediately.

    This is the replay-parity configuration: a bridged trace must reach the
    engine unfiltered to reproduce the offline run.
    """

    def decide(
        self, account: TenantAccount, job: TraceJob, estimate: float
    ) -> AdmissionDecision:
        return AdmissionDecision.ACCEPT


class QuotaAdmission(AdmissionPolicy):
    """Quota-bounded admission with queue-with-backpressure or hard reject.

    A submission whose estimate exceeds the tenant's *total* quota can never
    be admitted and is rejected outright.  One that merely does not fit
    *right now* (quota headroom exhausted by holds, or ``max_pending``
    saturated) gets the ``on_saturated`` decision — ``QUEUE`` (default)
    parks it in the service's per-tenant FIFO until settlements free
    headroom; ``REJECT`` sheds it immediately.
    """

    def __init__(
        self,
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        default: Optional[TenantQuota] = None,
        on_saturated: AdmissionDecision = AdmissionDecision.QUEUE,
    ) -> None:
        if on_saturated not in (AdmissionDecision.QUEUE, AdmissionDecision.REJECT):
            raise ValueError("on_saturated must be QUEUE or REJECT")
        self.quotas = dict(quotas) if quotas else {}
        self.default = default if default is not None else TenantQuota()
        self.on_saturated = on_saturated

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Replace one tenant's quota (new accounts pick it up immediately).

        Live accounts are re-pointed by
        :meth:`~repro.serve.service.SchedulerService.set_quota`, which
        journals the change so recovery reconstructs the same bounds.
        """
        self.quotas[tenant] = quota

    def decide(
        self, account: TenantAccount, job: TraceJob, estimate: float
    ) -> AdmissionDecision:
        quota = account.quota
        if estimate > quota.gpu_seconds:
            return AdmissionDecision.REJECT  # can never fit, even alone
        if (
            quota.max_pending is not None
            and account.pending_total >= quota.max_pending
        ):
            return self.on_saturated
        if estimate > account.available:
            return self.on_saturated
        return AdmissionDecision.ACCEPT
