"""Domain entities: slice micro-functions, virtual machines, and demand arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np


class VnfcKind(Enum):
    """The eight micro-functions of a slice subnet, in processing order.

    The first three run in the centralized unit, the remaining five in the
    distributed unit.
    """

    RRC = 1
    PDCP = 2
    SDAP = 3
    RLC_HIGH = 4
    RLC_LOW = 5
    MAC_HIGH = 6
    MAC_LOW = 7
    PHY_HIGH = 8

    @property
    def in_centralized_unit(self) -> bool:
        return self.value <= 3


NUM_COMPONENTS = len(VnfcKind)


@dataclass(frozen=True)
class VnfComponent:
    """One micro-function with its compute and storage demand."""

    id: int
    kind: VnfcKind
    compute_req: float
    storage_req: float

    def __post_init__(self) -> None:
        if not 1 <= self.id <= NUM_COMPONENTS:
            raise ValueError(f"component id must be in 1..{NUM_COMPONENTS}, got {self.id}")
        if self.compute_req < 0 or self.storage_req < 0:
            raise ValueError(f"component {self.id}: resource requirements must be non-negative")


@dataclass(frozen=True)
class SliceSubnet:
    """An ordered bundle of exactly eight components (f1..f8).

    Construction rejects bundles where the distributed-unit aggregate demand
    exceeds the centralized-unit aggregate demand, on either resource axis.
    """

    components: tuple[VnfComponent, ...]

    def __post_init__(self) -> None:
        if len(self.components) != NUM_COMPONENTS:
            raise ValueError(f"a slice subnet has exactly {NUM_COMPONENTS} components")
        for position, comp in enumerate(self.components, start=1):
            if comp.id != position or comp.kind.value != position:
                raise ValueError(
                    f"component at position {position} must have id/kind {position}, "
                    f"got id={comp.id} kind={comp.kind.name}"
                )
        cu_c, du_c = self._axis_sums("compute_req")
        cu_s, du_s = self._axis_sums("storage_req")
        if cu_c < du_c or cu_s < du_s:
            raise ValueError(
                "cu-dominance violated: centralized-unit aggregate demand "
                f"(compute {cu_c}, storage {cu_s}) must be at least the "
                f"distributed-unit aggregate demand (compute {du_c}, storage {du_s})"
            )

    def _axis_sums(self, attr: str) -> tuple[float, float]:
        cu = sum(getattr(c, attr) for c in self.components if c.kind.in_centralized_unit)
        du = sum(getattr(c, attr) for c in self.components if not c.kind.in_centralized_unit)
        return cu, du

    @property
    def total_compute(self) -> float:
        return sum(c.compute_req for c in self.components)


def make_slice(compute_reqs: Sequence[float], storage_reqs: Sequence[float]) -> SliceSubnet:
    """Build a slice subnet from two 8-long requirement vectors."""
    if len(compute_reqs) != NUM_COMPONENTS or len(storage_reqs) != NUM_COMPONENTS:
        raise ValueError("requirement vectors must have length 8")
    comps = tuple(
        VnfComponent(id=i, kind=VnfcKind(i), compute_req=c, storage_req=s)
        for i, (c, s) in enumerate(zip(compute_reqs, storage_reqs), start=1)
    )
    return SliceSubnet(comps)


def check_ids_in_order(items: Sequence, noun: str, count: str) -> None:
    """Refuse ``items`` unless their ids are 1..n in order; ``count`` names n."""
    if [item.id for item in items] != list(range(1, len(items) + 1)):
        raise ValueError(f"{noun} ids must be 1..{count} in order")


@dataclass(frozen=True)
class VirtualMachine:
    """A candidate host with fixed capacities and an occupancy status.

    ``hosted`` is the id of the component currently placed on the machine,
    or None when the machine is available.
    """

    id: int
    compute_cap: float
    storage_cap: float
    hosted: Optional[int] = None

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"vm id must be positive, got {self.id}")
        if self.compute_cap <= 0 or self.storage_cap <= 0:
            raise ValueError(f"vm {self.id}: capacities must be positive")
        if self.hosted is not None and not 1 <= self.hosted <= NUM_COMPONENTS:
            raise ValueError(f"vm {self.id}: hosted component id {self.hosted} out of range")

    @property
    def available(self) -> bool:
        return self.hosted is None

    def fits(self, component: VnfComponent) -> bool:
        """Capacity check only; ignores occupancy."""
        return (
            self.compute_cap >= component.compute_req
            and self.storage_cap >= component.storage_req
        )


@dataclass(frozen=True)
class PhysicalMachine:
    id: int
    compute_cap: float
    storage_cap: float
    max_vm_count: int
    active: bool = True

    def __post_init__(self) -> None:
        if self.compute_cap <= 0 or self.storage_cap <= 0:
            raise ValueError(f"pm {self.id}: capacities must be positive")
        if self.max_vm_count < 1:
            raise ValueError(f"pm {self.id}: max_vm_count must be at least 1")


class VmLabel(Enum):
    OCCUPIED = "occupied"
    AVAILABLE_SUFFICIENT = "available-sufficient"
    AVAILABLE_INSUFFICIENT = "available-insufficient"


@dataclass(frozen=True)
class VmClassification:
    """Per-machine labels for one component."""

    labels: dict[int, VmLabel]


def classify_vms(vms: Sequence[VirtualMachine], component: VnfComponent) -> VmClassification:
    """Label every machine as occupied, sufficient, or insufficient for a component.

    A machine is sufficient when it is available and both capacities are
    equal to or greater than the component's requirements.
    """
    if not vms:
        raise ValueError("cannot classify an empty vm list")
    labels: dict[int, VmLabel] = {}
    for vm in vms:
        if not vm.available:
            labels[vm.id] = VmLabel.OCCUPIED
        elif vm.fits(component):
            labels[vm.id] = VmLabel.AVAILABLE_SUFFICIENT
        else:
            labels[vm.id] = VmLabel.AVAILABLE_INSUFFICIENT
    return VmClassification(labels=labels)


def resource_grid(
    components: Sequence[VnfComponent], vms: Sequence[VirtualMachine]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compute and storage demands as (components, 1) columns, capacities as
    (1, machines) rows, so that elementwise arithmetic on them covers every
    (component, machine) pair; the mask of the allowed pairs, those that
    ``classify_vms`` labels sufficient; and the availability mask it reads."""
    req_c = np.array([c.compute_req for c in components], dtype=float)[:, None]
    req_s = np.array([c.storage_req for c in components], dtype=float)[:, None]
    cap_c = np.array([v.compute_cap for v in vms], dtype=float)[None, :]
    cap_s = np.array([v.storage_cap for v in vms], dtype=float)[None, :]
    free = np.fromiter((v.hosted is None for v in vms), bool, len(vms))
    return req_c, req_s, cap_c, cap_s, (cap_c >= req_c) & (cap_s >= req_s) & free, free


def capacity_ratios(
    components: Sequence[VnfComponent], vms: Sequence[VirtualMachine]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute and storage demand-to-capacity ratios of every (component,
    machine) pair, plus the allowed mask, each of shape (components, machines)."""
    req_c, req_s, cap_c, cap_s, allowed, _ = resource_grid(components, vms)
    # Only pairs that do not fit can overflow; their ratios are capped or masked.
    with np.errstate(over="ignore"):
        return req_c / cap_c, req_s / cap_s, allowed
