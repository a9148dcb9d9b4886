"""Exact solvers for the one-to-one component-to-VM assignment problem.

Two routes to the same optimum: a factorial enumeration for small instances
and a minimum-cost bipartite matching for production sizes. Both minimize the
summed capacity surplus of the chosen machines, either in absolute resource
units or normalized per machine. Both, and the greedy best-fit heuristic,
read one ``inf``-masked cost matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import VirtualMachine, VnfComponent, resource_grid

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


def _surplus(req_c, req_s, cap_c, cap_s, mode: ObjectiveMode):
    """Surplus cost of hosting a demand on a capacity; elementwise on arrays."""
    if mode is ObjectiveMode.ABSOLUTE_SURPLUS:
        return (cap_c - req_c) + (cap_s - req_s)
    # Equals the wastage reward mathematically, but keeps its own summation
    # order so that oracle objectives stay bit-identical.
    return (1.0 - req_c / cap_c) + (1.0 - req_s / cap_s)


def pair_cost(component: VnfComponent, vm: VirtualMachine, mode: ObjectiveMode) -> float:
    """Surplus cost of hosting one component on one machine (must fit)."""
    return _surplus(
        component.compute_req, component.storage_req, vm.compute_cap, vm.storage_cap, mode
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


def _masked_cost(comps, vms, mode: ObjectiveMode) -> tuple[np.ndarray, np.ndarray]:
    """The capacity-fit mask of every (component, machine) pair, and their
    surplus cost matrix, ``inf`` where the component does not fit."""
    req_c, req_s, cap_c, cap_s, fits = resource_grid(comps, vms)
    return fits, np.where(fits, _surplus(req_c, req_s, cap_c, cap_s, mode), np.inf)


def _cost_matrix(
    problem: AssignmentProblem,
) -> tuple[list[VnfComponent], list[VirtualMachine], np.ndarray]:
    """The id-sorted components and available machines, and the surplus cost
    matrix between them, ``inf`` where the component does not fit.

    Raises when there are fewer available machines than components, or when
    some component fits none of them.
    """
    vms = sorted(problem.available_vms, key=lambda v: v.id)
    if len(problem.components) > len(vms):
        raise InfeasibleAssignmentError(
            f"{len(problem.components)} components but only {len(vms)} available vms",
            rule=RULE_VM_EXCLUSIVE,
        )
    comps = sorted(problem.components, key=lambda c: c.id)
    fits, cost = _masked_cost(comps, vms, problem.objective_mode)
    hostless = {comp.id for comp, hostable in zip(comps, fits.any(axis=1)) if not hostable}
    for comp in problem.components:
        if comp.id in hostless:
            raise InfeasibleAssignmentError(
                f"no available vm can host component {comp.id} "
                f"(needs compute {comp.compute_req}, storage {comp.storage_req})"
            )
    return comps, vms, cost


def solve_exact_enumeration(problem: AssignmentProblem) -> Assignment:
    """Globally optimal assignment by scanning every injective feasible map.

    Guarded to at most 8 components and 10 machines. Ties resolve to the
    map that gives the lowest-id component the lowest-id machine first.
    """
    if len(problem.components) > ENUMERATION_MAX_COMPONENTS:
        raise SizeLimitError(f"enumeration supports at most {ENUMERATION_MAX_COMPONENTS} components")
    if len(problem.vms) > ENUMERATION_MAX_VMS:
        raise SizeLimitError(f"enumeration supports at most {ENUMERATION_MAX_VMS} vms")
    comps, vms, cost = _cost_matrix(problem)
    rows = cost.tolist()
    best_chosen, best_value = None, math.inf
    # Summed left to right in component order from 0.0, as the objective is;
    # an infeasible (inf) or NaN total loses every comparison.
    for chosen in itertools.permutations(range(len(vms)), len(comps)):
        value = 0.0
        for row, col in zip(rows, chosen):
            value += row[col]
        if value < best_value:
            best_chosen, best_value = chosen, value
    if best_chosen is None:
        raise InfeasibleAssignmentError("no injective feasible assignment exists")
    pairs = {comp.id: vms[col].id for comp, col in zip(comps, best_chosen)}
    return Assignment(pairs, assignment_objective(problem, pairs), problem.objective_mode)


def greedy_best_fit(
    components: tuple[VnfComponent, ...], vms: tuple[VirtualMachine, ...]
) -> dict[int, int]:
    """Best-fit walk: each component, in the order given, takes the available
    machine that leaves the least normalized idle capacity behind, lowest id
    on ties."""
    available = sorted((v for v in vms if v.available), key=lambda v: v.id)
    _, cost = _masked_cost(components, available, ObjectiveMode.NORMALIZED_SURPLUS)
    pairs: dict[int, int] = {}
    for comp, row in zip(components, cost):
        if math.isinf(row.min(initial=np.inf)):
            raise InfeasibleAssignmentError(
                f"no available vm can host component {comp.id}", rule=RULE_CAPACITY_FIT
            )
        col = int(np.argmin(row))
        cost[:, col] = np.inf
        pairs[comp.id] = available[col].id
    return pairs


def _matching_cost(cost: np.ndarray) -> float:
    """Optimal matching cost of a matrix with no more rows than columns, inf
    when none exists."""
    if not len(cost):
        return 0.0
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return math.inf
    return float(cost[rows, cols].sum())


def has_feasible_assignment(problem: AssignmentProblem) -> bool:
    """Whether an injective, capacity-feasible assignment exists; one
    assignment solve and no canonicalization."""
    try:
        _, _, cost = _cost_matrix(problem)
    except InfeasibleAssignmentError:
        return False
    return not math.isinf(_matching_cost(cost))


def solve_exact_matching(problem: AssignmentProblem) -> Assignment:
    """Globally optimal assignment via minimum-cost bipartite matching.

    Polynomial in the instance size, so it covers the production shape of
    8 components against hundreds of machines. The optimum is then
    canonicalized to the same tie order the enumeration route uses; every
    sub-problem of that walk is a slice of the one cost matrix.
    """
    comps, vms, cost = _cost_matrix(problem)
    total = _matching_cost(cost)
    if math.isinf(total):
        raise InfeasibleAssignmentError("no injective feasible assignment exists")

    # Fix components one at a time onto the lowest-id machine that keeps the
    # remainder optimal; this reproduces the enumeration tie-breaking order.
    pairs: dict[int, int] = {}
    remaining = np.arange(len(vms))
    target = total
    for pos, comp in enumerate(comps):
        tolerance = max(_TIE_TOLERANCE, abs(target) * 1e-12)
        row = cost[pos, remaining]
        for idx in np.flatnonzero(np.isfinite(row)):
            rest = np.concatenate((remaining[:idx], remaining[idx + 1 :]))
            sub = _matching_cost(cost[pos + 1 :, rest])
            if abs(row[idx] + sub - target) <= tolerance:
                break
        else:
            raise RuntimeError("canonicalization failed to reconstruct the optimum")
        pairs[comp.id] = vms[remaining[idx]].id
        remaining, target = rest, sub

    validate_assignment(problem, pairs)
    return Assignment(pairs, assignment_objective(problem, pairs), problem.objective_mode)
