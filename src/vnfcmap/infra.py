"""Placement feasibility checks for the VM-to-PM substrate and workload/wastage diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import PhysicalMachine, VirtualMachine

# Rule identifiers used in violation reports.
RULE_SINGLE_HOST = "vm-single-host"          # every VM sits on exactly one PM
RULE_VM_COUNT = "pm-vm-count"                # a PM hosts at most its declared VM count
RULE_COMPUTE_CAPACITY = "pm-compute-capacity"
RULE_STORAGE_CAPACITY = "pm-storage-capacity"


class OverloadError(ValueError):
    """A load fraction reached or exceeded 100%."""


@dataclass(frozen=True)
class WastageWeights:
    """Convex weights over the compute and storage axes."""

    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self) -> None:
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.w1 + self.w2 - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.w1 + self.w2}")


@dataclass(frozen=True)
class Violation:
    rule: str
    index: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] #{self.index}: {self.detail}"


@dataclass(frozen=True)
class VmPlacement:
    """Binary VM-by-PM placement matrix plus per-PM activity flags."""

    x: tuple[tuple[int, ...], ...]
    pm_active: tuple[bool, ...]

    def __post_init__(self) -> None:
        n = len(self.pm_active)
        for j, row in enumerate(self.x):
            if len(row) != n:
                raise ValueError(f"row {j + 1} has {len(row)} columns, expected {n}")
            if any(v not in (0, 1) for v in row):
                raise ValueError(f"row {j + 1} contains a non-binary entry")

    @property
    def num_vms(self) -> int:
        return len(self.x)

    @property
    def num_pms(self) -> int:
        return len(self.pm_active)


def check_vm_placement(
    placement: VmPlacement,
    vms: Sequence[VirtualMachine],
    pms: Sequence[PhysicalMachine],
) -> list[Violation]:
    """Validate a placement against the substrate rules.

    Returns one violation per broken rule instance; an empty list means the
    placement is feasible.
    """
    if placement.num_vms != len(vms) or placement.num_pms != len(pms):
        raise ValueError(
            f"placement is {placement.num_vms}x{placement.num_pms}, "
            f"inventory is {len(vms)}x{len(pms)}"
        )
    violations: list[Violation] = []

    for j, row in enumerate(placement.x):
        hosts = sum(row)
        if hosts != 1:
            violations.append(
                Violation(RULE_SINGLE_HOST, j + 1, f"vm {vms[j].id} placed on {hosts} pms")
            )

    for k, pm in enumerate(pms):
        column = [placement.x[j][k] for j in range(placement.num_vms)]
        count = sum(column)
        if count > pm.max_vm_count:
            violations.append(
                Violation(RULE_VM_COUNT, k + 1, f"{count} vms exceed limit {pm.max_vm_count}")
            )
        active = 1 if placement.pm_active[k] else 0
        compute_demand = sum(vms[j].compute_cap * column[j] for j in range(placement.num_vms))
        storage_demand = sum(vms[j].storage_cap * column[j] for j in range(placement.num_vms))
        if compute_demand > pm.compute_cap * active:
            violations.append(
                Violation(
                    RULE_COMPUTE_CAPACITY,
                    k + 1,
                    f"compute demand {compute_demand} exceeds {pm.compute_cap * active}",
                )
            )
        if storage_demand > pm.storage_cap * active:
            violations.append(
                Violation(
                    RULE_STORAGE_CAPACITY,
                    k + 1,
                    f"storage demand {storage_demand} exceeds {pm.storage_cap * active}",
                )
            )
    return violations


def vm_workload(compute_load: float, storage_load: float) -> float:
    """Workload score 1/((1-c)(1-s)) for per-axis load fractions below 1."""
    for name, load in (("compute", compute_load), ("storage", storage_load)):
        if load < 0:
            raise ValueError(f"{name} load must be non-negative, got {load}")
        if load >= 1:
            raise OverloadError(f"{name} load {load} is at or above 100%")
    return 1.0 / ((1.0 - compute_load) * (1.0 - storage_load))


def slice_workload(cu_workload: float, du_workload: float) -> float:
    """Slice-level workload: three centralized-unit hosts plus five distributed-unit hosts."""
    if cu_workload < 1 or du_workload < 1:
        raise ValueError("unit workloads are at least 1 by construction")
    return 3.0 * cu_workload + 5.0 * du_workload


def pm_workload(
    pm_loads: tuple[float, float],
    hosted_vm_loads: Sequence[tuple[float, float]],
) -> float:
    """Workload of a physical machine after adding its hosted VMs' loads."""
    compute = pm_loads[0] + sum(c for c, _ in hosted_vm_loads)
    storage = pm_loads[1] + sum(s for _, s in hosted_vm_loads)
    return vm_workload(compute, storage)


def pm_wastage(
    avail: tuple[float, float],
    cap: tuple[float, float],
    weights: WastageWeights = WastageWeights(),
) -> float:
    """Weighted idle-capacity fraction of a physical machine."""
    c_avail, s_avail = avail
    c_cap, s_cap = cap
    if c_cap <= 0 or s_cap <= 0:
        raise ValueError("capacities must be positive")
    if not (0 <= c_avail <= c_cap and 0 <= s_avail <= s_cap):
        raise ValueError("available resources must lie within [0, capacity]")
    return weights.w1 * (c_avail / c_cap) + weights.w2 * (s_avail / s_cap)


def vm_wastage(
    avail: tuple[float, float],
    cap: tuple[float, float],
    weights: WastageWeights,
    pm_wastage_term: float,
    vm_index: int,
) -> float:
    """Weighted idle fraction of a VM plus the host-machine term scaled by the VM index.

    The index-scaled additive term is computed exactly as defined; it makes the
    score grow with the VM's position in the inventory and is reported for
    diagnostics only.
    """
    if vm_index < 1:
        raise ValueError(f"vm index must be at least 1, got {vm_index}")
    base = pm_wastage(avail, cap, weights)
    return base + pm_wastage_term * vm_index
