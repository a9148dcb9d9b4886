"""Exact solvers for the one-to-one component-to-VM assignment problem.

Two routes to the same optimum: a factorial enumeration for small instances
and a minimum-cost bipartite matching for production sizes. Both minimize the
summed capacity surplus of the chosen machines, either in absolute resource
units or normalized per machine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import VirtualMachine, VnfComponent

# Assignment rule identifiers, mirrored in service responses.
RULE_COMPONENT_PLACED = "component-placed-once"
RULE_VM_EXCLUSIVE = "vm-hosts-at-most-one"
RULE_CAPACITY_FIT = "capacity-fit"

ENUMERATION_MAX_COMPONENTS = 8
ENUMERATION_MAX_VMS = 10

_TIE_TOLERANCE = 1e-9


class ObjectiveMode(Enum):
    ABSOLUTE_SURPLUS = "absolute_surplus"
    NORMALIZED_SURPLUS = "normalized_surplus"


class InfeasibleAssignmentError(Exception):
    """No injective assignment exists on the feasible edge set."""

    def __init__(self, detail: str, rule: str = RULE_CAPACITY_FIT):
        self.rule = rule
        self.detail = detail
        super().__init__(f"[{rule}] {detail}")


class SizeLimitError(ValueError):
    """Instance too large for the enumeration route."""


@dataclass(frozen=True)
class AssignmentProblem:
    components: tuple[VnfComponent, ...]
    vms: tuple[VirtualMachine, ...]
    objective_mode: ObjectiveMode = ObjectiveMode.ABSOLUTE_SURPLUS

    def __post_init__(self) -> None:
        if not self.components or not self.vms:
            raise ValueError("components and vms must be non-empty")
        if len({c.id for c in self.components}) != len(self.components):
            raise ValueError("duplicate component ids")
        if len({v.id for v in self.vms}) != len(self.vms):
            raise ValueError("duplicate vm ids")

    @property
    def available_vms(self) -> tuple[VirtualMachine, ...]:
        return tuple(v for v in self.vms if v.available)


@dataclass(frozen=True)
class Assignment:
    """An injective, total, feasible component-to-VM map with its objective value."""

    pairs: dict[int, int]
    objective_value: float
    objective_mode: ObjectiveMode


def pair_cost(component: VnfComponent, vm: VirtualMachine, mode: ObjectiveMode) -> float:
    """Surplus cost of hosting one component on one machine (must fit)."""
    if mode is ObjectiveMode.ABSOLUTE_SURPLUS:
        return (vm.compute_cap - component.compute_req) + (vm.storage_cap - component.storage_req)
    # Equals the wastage reward mathematically, but keeps its own summation
    # order so that oracle objectives stay bit-identical.
    return (1.0 - component.compute_req / vm.compute_cap) + (
        1.0 - component.storage_req / vm.storage_cap
    )


def assignment_objective(problem: AssignmentProblem, pairs: dict[int, int]) -> float:
    """Objective of a given pairing, summed in component-id order.

    Both solvers report their result through this function so equal
    assignments always yield bit-identical objective values.
    """
    vm_by_id = {v.id: v for v in problem.vms}
    total = 0.0
    for comp in sorted(problem.components, key=lambda c: c.id):
        total += pair_cost(comp, vm_by_id[pairs[comp.id]], problem.objective_mode)
    return total


def validate_assignment(problem: AssignmentProblem, pairs: dict[int, int]) -> None:
    """Raise if the pairing breaks totality, exclusivity, or capacity rules."""
    comp_ids = {c.id for c in problem.components}
    if set(pairs) != comp_ids:
        raise InfeasibleAssignmentError(
            f"components {sorted(comp_ids - set(pairs))} unplaced", rule=RULE_COMPONENT_PLACED
        )
    if len(set(pairs.values())) != len(pairs):
        raise InfeasibleAssignmentError("a vm hosts more than one component", rule=RULE_VM_EXCLUSIVE)
    vm_by_id = {v.id: v for v in problem.vms}
    for comp in problem.components:
        vm = vm_by_id[pairs[comp.id]]
        if not (vm.available and vm.fits(comp)):
            raise InfeasibleAssignmentError(
                f"component {comp.id} does not fit vm {vm.id}", rule=RULE_CAPACITY_FIT
            )


def _check_edges(problem: AssignmentProblem) -> None:
    vms = problem.available_vms
    if len(problem.components) > len(vms):
        raise InfeasibleAssignmentError(
            f"{len(problem.components)} components but only {len(vms)} available vms",
            rule=RULE_VM_EXCLUSIVE,
        )
    for comp in problem.components:
        if not any(vm.fits(comp) for vm in vms):
            raise InfeasibleAssignmentError(
                f"no available vm can host component {comp.id} "
                f"(needs compute {comp.compute_req}, storage {comp.storage_req})"
            )


def solve_exact_enumeration(problem: AssignmentProblem) -> Assignment:
    """Globally optimal assignment by scanning every injective feasible map.

    Guarded to at most 8 components and 10 machines. Ties resolve to the
    map that gives the lowest-id component the lowest-id machine first.
    """
    if len(problem.components) > ENUMERATION_MAX_COMPONENTS:
        raise SizeLimitError(f"enumeration supports at most {ENUMERATION_MAX_COMPONENTS} components")
    if len(problem.vms) > ENUMERATION_MAX_VMS:
        raise SizeLimitError(f"enumeration supports at most {ENUMERATION_MAX_VMS} vms")
    _check_edges(problem)

    comps = sorted(problem.components, key=lambda c: c.id)
    vms = sorted(problem.available_vms, key=lambda v: v.id)
    best_pairs: dict[int, int] | None = None
    best_value = math.inf
    for chosen in itertools.permutations(vms, len(comps)):
        value = 0.0
        feasible = True
        for comp, vm in zip(comps, chosen):
            if not vm.fits(comp):
                feasible = False
                break
            value += pair_cost(comp, vm, problem.objective_mode)
        if feasible and value < best_value:
            best_value = value
            best_pairs = {comp.id: vm.id for comp, vm in zip(comps, chosen)}
    if best_pairs is None:
        raise InfeasibleAssignmentError("no injective feasible assignment exists")
    return Assignment(best_pairs, assignment_objective(problem, best_pairs), problem.objective_mode)


def _matching_cost(
    comps: Sequence[VnfComponent],
    vms: Sequence[VirtualMachine],
    mode: ObjectiveMode,
) -> float:
    """Optimal matching cost for a sub-instance, inf when none exists."""
    if not comps:
        return 0.0
    if len(comps) > len(vms):
        return math.inf
    cost = np.full((len(comps), len(vms)), np.inf)
    for i, comp in enumerate(comps):
        for j, vm in enumerate(vms):
            if vm.fits(comp):
                cost[i, j] = pair_cost(comp, vm, mode)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return math.inf
    return float(cost[rows, cols].sum())


def solve_exact_matching(problem: AssignmentProblem) -> Assignment:
    """Globally optimal assignment via minimum-cost bipartite matching.

    Polynomial in the instance size, so it covers the production shape of
    8 components against hundreds of machines. The optimum is then
    canonicalized to the same tie order the enumeration route uses.
    """
    _check_edges(problem)
    comps = sorted(problem.components, key=lambda c: c.id)
    vms = sorted(problem.available_vms, key=lambda v: v.id)
    mode = problem.objective_mode

    total = _matching_cost(comps, vms, mode)
    if math.isinf(total):
        raise InfeasibleAssignmentError("no injective feasible assignment exists")

    # Fix components one at a time onto the lowest-id machine that keeps the
    # remainder optimal; this reproduces the enumeration tie-breaking order.
    pairs: dict[int, int] = {}
    remaining = list(vms)
    target = total
    for pos, comp in enumerate(comps):
        tolerance = max(_TIE_TOLERANCE, abs(target) * 1e-12)
        chosen_index = None
        sub_target = None
        for idx, vm in enumerate(remaining):
            if not vm.fits(comp):
                continue
            rest = remaining[:idx] + remaining[idx + 1 :]
            sub = _matching_cost(comps[pos + 1 :], rest, mode)
            if math.isinf(sub):
                continue
            if abs(pair_cost(comp, vm, mode) + sub - target) <= tolerance:
                chosen_index = idx
                sub_target = sub
                break
        if chosen_index is None:
            raise RuntimeError("canonicalization failed to reconstruct the optimum")
        pairs[comp.id] = remaining[chosen_index].id
        remaining.pop(chosen_index)
        target = sub_target

    validate_assignment(problem, pairs)
    return Assignment(pairs, assignment_objective(problem, pairs), problem.objective_mode)
