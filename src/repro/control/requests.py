"""Provisioning requests and their typed outcomes.

Every manifest submitted through the control plane becomes a
:class:`ProvisioningRequest` with an explicit state machine::

    submit() ──► REJECTED        (backpressure / can-never-fit)
            └──► QUEUED ───────► REJECTED   (deploy retries exhausted)
                        └──────► DEPLOYING ──► ACTIVE ──► RELEASED

``submit()`` itself returns one of the typed outcomes —
:class:`Admitted`, :class:`Queued` or :class:`Rejected` — so callers
branch on *types*, not on string parsing. A queued request's eventual fate
is observable through ``request.decided`` (a DES event that fires when the
request reaches ADMITTED-or-better or REJECTED) and through the control
plane's trace records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cloud.capacity import DemandEnvelope
from ..core.manifest.model import ServiceManifest
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.service_manager.manager import ManagedService

__all__ = ["RequestState", "ProvisioningRequest", "RejectCode",
           "RejectionReason", "Outcome", "Admitted", "Queued", "Rejected"]


class RejectCode(enum.Enum):
    """Machine-readable rejection categories, one per decision screen."""

    QUOTA = "quota"                  # tenant quota screens
    CAPACITY = "capacity"            # guaranteed-capacity admission
    PLACEMENT = "placement"          # site eligibility (affinity/avoid)
    BACKPRESSURE = "backpressure"    # queue depth bound
    DEPLOY_FAILED = "deploy-failed"  # retries exhausted while deploying
    CONSTRAINT = "constraint"        # placement constraints unsatisfiable


class RejectionReason(str):
    """A rejection reason that *is* the human-readable string (so every
    ``"quota" in outcome.reason`` caller keeps working) but also carries a
    typed code and a structured detail payload."""

    __slots__ = ("code", "detail")

    def __new__(cls, code: RejectCode, message: str, **detail):
        self = super().__new__(cls, message)
        self.code = code
        self.detail = detail
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RejectionReason({self.code.value!r}, "
                f"{str.__repr__(self)}, detail={self.detail!r})")


class RequestState(enum.Enum):
    QUEUED = "queued"          # waiting in the fair scheduler
    DEPLOYING = "deploying"    # admitted, deployment (or a retry) in flight
    ACTIVE = "active"          # deployment completed
    REJECTED = "rejected"      # terminal no: backpressure, never-fits,
    #                            or retries exhausted
    RELEASED = "released"      # was active; undeployed, capacity freed


@dataclass
class ProvisioningRequest:
    """One tenant's manifest submission, tracked end to end."""

    request_id: str
    tenant: str
    manifest: ServiceManifest
    envelope: DemandEnvelope
    submitted_at: float
    service_id: Optional[str] = None
    state: RequestState = RequestState.QUEUED
    #: site the request was admitted to (federated selection result)
    site: Optional[str] = None
    service: Optional["ManagedService"] = None
    reason: Optional[str] = None        # rejection reason, if rejected
    admitted_at: Optional[float] = None
    released_at: Optional[float] = None
    attempts: int = 0                   # deployment attempts driven so far
    #: per-instance host pins computed by the solver rescue, keyed
    #: ``(system_id, instance_index)`` — consumed by the next deploy attempt
    pins: Optional[dict] = field(default=None, repr=False)
    #: fires (with the request) once the admission decision is final —
    #: i.e. on entering DEPLOYING or REJECTED
    decided: Optional[Event] = field(default=None, repr=False)
    drivers: Optional[dict] = field(default=None, repr=False)
    #: causal root span covering the whole request lifetime (opened at
    #: submit, closed at the terminal state) — every service/VEE span the
    #: request causes descends from it
    span: Optional[object] = field(default=None, repr=False)

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait between submission and admission (None if undecided
        or rejected before admission)."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    def _decide(self) -> None:
        if self.decided is not None and not self.decided.triggered:
            self.decided.succeed(self)


@dataclass(frozen=True)
class Outcome:
    """Base of the typed results ``ControlPlane.submit`` returns."""

    request: ProvisioningRequest


@dataclass(frozen=True)
class Admitted(Outcome):
    """Capacity and quota reserved; deployment is being driven on ``site``."""

    site: str


@dataclass(frozen=True)
class Queued(Outcome):
    """No room right now; parked in the fair scheduler until capacity or
    quota frees up."""

    position: int   # 1-based position within the tenant's FIFO
    depth: int      # total queued requests across all tenants


@dataclass(frozen=True)
class Rejected(Outcome):
    """Terminal refusal; ``reason`` says why (backpressure, quota or
    capacity infeasibility, retries exhausted)."""

    reason: str
