"""Placement feasibility checks for the VM-to-PM substrate and workload/wastage diagnostics."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .model import Inventory, PhysicalMachine, VirtualMachine

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


@dataclass(frozen=True, eq=False)
class VmPlacement:
    """Binary VM-by-PM placement, held as ``matrix``, a read-only (m, n) int8
    array read from the rows ``x`` once, plus per-PM activity flags."""

    x: InitVar[Sequence[Sequence[int]]]
    pm_active: tuple[bool, ...]
    matrix: np.ndarray = field(init=False)

    def __post_init__(self, x: Sequence[Sequence[int]]) -> None:
        n = len(self.pm_active)
        matrix = np.empty((len(x), n), dtype=np.int8)
        for j, row in enumerate(x):
            if len(row) != n:
                raise ValueError(f"row {j + 1} has {len(row)} columns, expected {n}")
            if row.count(0) + row.count(1) != n:
                raise ValueError(f"row {j + 1} contains a non-binary entry")
            matrix[j] = row
        matrix.flags.writeable = False
        object.__setattr__(self, "pm_active", tuple(self.pm_active))
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VmPlacement):
            return NotImplemented
        return self.pm_active == other.pm_active and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.pm_active, self.matrix.shape, self.matrix.tobytes()))


class PmLoad(NamedTuple):
    """The machines a PM hosts, as positions in machine order, and its
    demand: their capacities summed from int 0, left to right."""

    hosted: list[int]
    compute: float
    storage: float

    def overdemands(self, compute_cap: float, storage_cap: float) -> list:
        """(rule, detail) of each axis, compute first, whose demand is above its capacity."""
        axes = (
            (RULE_COMPUTE_CAPACITY, "compute", self.compute, compute_cap),
            (RULE_STORAGE_CAPACITY, "storage", self.storage, storage_cap),
        )
        return [(rule, f"{axis} demand {d} exceeds {c}") for rule, axis, d, c in axes if d > c]


def pm_loads(placement: VmPlacement, vms: Inventory) -> Iterator[PmLoad]:
    """The load of each PM, in PM order, under a placement whose rows are ``vms``."""
    c, s = vms.compute_caps, vms.storage_caps
    hosted = iter(np.nonzero(placement.matrix.T)[1].tolist())  # PM by PM, in machine order
    for count in placement.matrix.sum(axis=0).tolist():
        positions = list(islice(hosted, count))
        yield PmLoad(positions, sum(c[j] for j in positions), sum(s[j] for j in positions))


def check_vm_placement(
    placement: VmPlacement,
    vms: Sequence[VirtualMachine],
    pms: Sequence[PhysicalMachine],
) -> tuple[list[Violation], list[PmLoad]]:
    """Validate a placement against the substrate rules.

    Returns one violation per broken rule instance, an empty list when the
    placement is feasible, and the load of each PM the rules were read from.
    """
    m, n = placement.matrix.shape
    if (m, n) != (len(vms), len(pms)):
        raise ValueError(f"placement is {m}x{n}, inventory is {len(vms)}x{len(pms)}")
    violations = [
        Violation(RULE_SINGLE_HOST, j, f"vm {j} placed on {hosts} pms")
        for j, hosts in enumerate(placement.matrix.sum(axis=1).tolist(), start=1)
        if hosts != 1
    ]
    loads = list(pm_loads(placement, Inventory.of(vms)))
    for k, (pm, on, load) in enumerate(zip(pms, placement.pm_active, loads), start=1):
        count = len(load.hosted)
        if count > pm.max_vm_count:
            violations.append(
                Violation(RULE_VM_COUNT, k, f"{count} vms exceed limit {pm.max_vm_count}")
            )
        active = 1 if on else 0
        for rule, detail in load.overdemands(pm.compute_cap * active, pm.storage_cap * active):
            violations.append(Violation(rule, k, detail))
    return violations, loads


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
