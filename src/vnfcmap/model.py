"""Domain entities: slice micro-functions, virtual machines, and demand arithmetic."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


CU_COMPONENTS = 3


class VnfcKind(Enum):
    """The eight micro-functions of a slice subnet, in processing order.

    The first ``CU_COMPONENTS`` run in the centralized unit, the remaining
    five in the distributed unit.
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
        return self.value <= CU_COMPONENTS


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
        compute = [c.compute_req for c in self.components]
        storage = [c.storage_req for c in self.components]
        cu_c, du_c = sum(compute[:CU_COMPONENTS]), sum(compute[CU_COMPONENTS:])
        cu_s, du_s = sum(storage[:CU_COMPONENTS]), sum(storage[CU_COMPONENTS:])
        if cu_c < du_c or cu_s < du_s:
            raise ValueError(
                "cu-dominance violated: centralized-unit aggregate demand "
                f"(compute {cu_c}, storage {cu_s}) must be at least the "
                f"distributed-unit aggregate demand (compute {du_c}, storage {du_s})"
            )

    @property
    def total_compute(self) -> float:
        return sum(c.compute_req for c in self.components)


def make_slice(compute_reqs: Sequence[float], storage_reqs: Sequence[float]) -> SliceSubnet:
    """Build a slice subnet from two 8-long requirement vectors."""
    if len(compute_reqs) != NUM_COMPONENTS or len(storage_reqs) != NUM_COMPONENTS:
        raise ValueError("requirement vectors must have length 8")
    ids = range(1, NUM_COMPONENTS + 1)
    return SliceSubnet(tuple(map(VnfComponent, ids, VnfcKind, compute_reqs, storage_reqs)))


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
        req = float(component.compute_req), float(component.storage_req)
        return _fit(*req, float(self.compute_cap), float(self.storage_cap))


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


def _fit(req_c, req_s, cap_c, cap_s):
    """The capacity-fit rule on float64 amounts; elementwise on arrays."""
    return (cap_c >= req_c) & (cap_s >= req_s)


class VmLabel(Enum):
    OCCUPIED = "occupied"
    AVAILABLE_SUFFICIENT = "available-sufficient"
    AVAILABLE_INSUFFICIENT = "available-insufficient"


@dataclass(frozen=True)
class VmClassification:
    """Per-machine labels for one component."""

    labels: dict[int, VmLabel]


@dataclass(frozen=True)
class Inventory(Sequence):
    """A machine inventory as columns: position j - 1 of each holds machine id j.

    ``compute_caps`` and ``storage_caps`` hold the capacities exactly as given
    (Python ints or floats, so a written file keeps its bytes), ``hosted`` the
    component each machine hosts or None. ``cap_c`` and ``cap_s`` are the
    capacities as read-only float64 arrays and ``free`` the availability
    mask, derived once. A ``VirtualMachine`` is built only when the inventory
    is indexed or iterated. The columns are taken as checked: build one from
    machine objects with ``of``, or from amounts that pass the checks of
    ``VirtualMachine``. ``scenario.save`` refuses amounts its reader refuses.
    """

    compute_caps: tuple
    storage_caps: tuple
    hosted: Optional[tuple] = None  # given as None: no machine hosts a component
    cap_c: np.ndarray = field(init=False, repr=False, compare=False)
    cap_s: np.ndarray = field(init=False, repr=False, compare=False)
    free: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = len(self.compute_caps)
        if self.hosted is None:
            hosted, free = (None,) * m, np.ones(m, bool)
        else:
            hosted = tuple(self.hosted)
            free = np.fromiter((h is None for h in hosted), bool, m)
        cap_c = np.array(self.compute_caps, dtype=float)
        cap_s = np.array(self.storage_caps, dtype=float)
        for array in (cap_c, cap_s, free):
            array.flags.writeable = False
        object.__setattr__(self, "compute_caps", tuple(self.compute_caps))
        object.__setattr__(self, "storage_caps", tuple(self.storage_caps))
        object.__setattr__(self, "hosted", hosted)
        object.__setattr__(self, "cap_c", cap_c)
        object.__setattr__(self, "cap_s", cap_s)
        object.__setattr__(self, "free", free)

    @classmethod
    def of(cls, vms: Iterable[VirtualMachine]) -> Inventory:
        """``vms`` itself if it is an inventory; else the inventory of its
        machines, whose ids must be 1..m in order."""
        if isinstance(vms, cls):
            return vms
        compute, storage, hosted = [], [], []
        for j, vm in enumerate(vms, start=1):
            if vm.id != j:
                raise ValueError("vm ids must be 1..m in order")
            compute.append(vm.compute_cap)
            storage.append(vm.storage_cap)
            hosted.append(vm.hosted)
        return cls(compute, storage, hosted)

    def __len__(self) -> int:
        return len(self.compute_caps)

    def __getitem__(self, index):
        """The machine at a position, or a tuple of the machines of a slice."""
        positions = range(len(self))[index]
        if isinstance(positions, range):
            return tuple(map(self.__getitem__, positions))
        return VirtualMachine(
            positions + 1,
            self.compute_caps[positions],
            self.storage_caps[positions],
            self.hosted[positions],
        )


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
    inventory = Inventory.of(vms)
    req_c = np.array([c.compute_req for c in components], dtype=float)[:, None]
    req_s = np.array([c.storage_req for c in components], dtype=float)[:, None]
    cap_c, cap_s, free = inventory.cap_c[None, :], inventory.cap_s[None, :], inventory.free
    return req_c, req_s, cap_c, cap_s, _fit(req_c, req_s, cap_c, cap_s) & free, free


def capacity_ratios(
    components: Sequence[VnfComponent], vms: Sequence[VirtualMachine]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute and storage demand-to-capacity ratios of every (component,
    machine) pair, plus the allowed mask, each of shape (components, machines)."""
    req_c, req_s, cap_c, cap_s, allowed, _ = resource_grid(components, vms)
    # Only pairs that do not fit can overflow; their ratios are capped or masked.
    with np.errstate(over="ignore"):
        return req_c / cap_c, req_s / cap_s, allowed
