"""Instances the benchmark draws itself, and an optimum computed without the
program's oracle to check it against.

Draws follow the program's generator defaults: integer demands in 1..5 with
the centralized unit dominating on both axes, integer capacities in 3..10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

NUM_COMPONENTS = 8
REQ_RANGE = (1, 5)
CAP_RANGE = (3, 10)
KIND_NAMES = ("RRC", "PDCP", "SDAP", "RLC_HIGH", "RLC_LOW", "MAC_HIGH", "MAC_LOW", "PHY_HIGH")
MODES = ("absolute_surplus", "normalized_surplus")


@dataclass(frozen=True)
class Instance:
    compute_req: tuple[int, ...]
    storage_req: tuple[int, ...]
    caps: tuple[tuple[int, int], ...]

    @classmethod
    def from_doc(cls, doc: dict) -> "Instance":
        """The instance inside a scenario document or a ``POST /map`` body."""
        comps = doc["slice"]["components"]
        return cls(
            tuple(c["compute_req"] for c in comps),
            tuple(c["storage_req"] for c in comps),
            tuple((v["compute_cap"], v["storage_cap"]) for v in doc["vms"]),
        )

    @property
    def num_vms(self) -> int:
        return len(self.caps)

    def slice_doc(self) -> dict:
        return {
            "components": [
                {"id": i + 1, "kind": KIND_NAMES[i], "compute_req": c, "storage_req": s}
                for i, (c, s) in enumerate(zip(self.compute_req, self.storage_req))
            ]
        }

    def vms_doc(self) -> list[dict]:
        return [
            {"id": j + 1, "compute_cap": c, "storage_cap": s} for j, (c, s) in enumerate(self.caps)
        ]


def _draw_axis(rng: np.random.Generator) -> tuple[int, ...]:
    while True:
        values = [int(v) for v in rng.integers(REQ_RANGE[0], REQ_RANGE[1] + 1, size=NUM_COMPONENTS)]
        if sum(values[:3]) >= sum(values[3:]):
            return tuple(values)


def draw_instance(rng: np.random.Generator, num_vms: int) -> Instance:
    """A feasible 8 x ``num_vms`` instance; capacities are redrawn until one fits."""
    compute = _draw_axis(rng)
    storage = _draw_axis(rng)
    while True:
        caps = rng.integers(CAP_RANGE[0], CAP_RANGE[1] + 1, size=(num_vms, 2))
        inst = Instance(compute, storage, tuple((int(c), int(s)) for c, s in caps))
        if math.isfinite(reference_optimum(inst, MODES[0])):
            return inst


def reference_optimum(inst: Instance, mode: str) -> float:
    """Minimum summed surplus over injective feasible maps, inf when none exists."""
    req_c = np.array(inst.compute_req, dtype=float)[:, None]
    req_s = np.array(inst.storage_req, dtype=float)[:, None]
    cap = np.array(inst.caps, dtype=float)
    cap_c, cap_s = cap[None, :, 0], cap[None, :, 1]
    if mode == "absolute_surplus":
        cost = (cap_c - req_c) + (cap_s - req_s)
    else:
        cost = (1.0 - req_c / cap_c) + (1.0 - req_s / cap_s)
    cost = np.where((cap_c >= req_c) & (cap_s >= req_s), cost, np.inf)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return math.inf
    return float(cost[rows, cols].sum())


def to_problem(inst: Instance, mode: str):
    """The program's AssignmentProblem for an instance."""
    from vnfcmap.model import VirtualMachine, make_slice
    from vnfcmap.oracle import AssignmentProblem, ObjectiveMode

    subnet = make_slice(inst.compute_req, inst.storage_req)
    vms = tuple(VirtualMachine(j + 1, c, s) for j, (c, s) in enumerate(inst.caps))
    return AssignmentProblem(subnet.components, vms, ObjectiveMode(mode))
