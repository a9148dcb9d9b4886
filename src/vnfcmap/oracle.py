"""Exact solvers for the one-to-one component-to-VM assignment problem.

Two routes to the same optimum: a factorial enumeration for small instances
and a minimum-cost bipartite matching for production sizes. Both minimize the
summed capacity surplus of the chosen machines, either in absolute resource
units or normalized per machine. Both, and the greedy best-fit heuristic,
read one ``inf``-masked cost matrix.

Only the matching route and generation's feasibility check need scipy, for its
assignment solver. On the first solve, only the extension module that holds it
is loaded, not ``scipy.optimize``, whose import pulls in most of scipy and
would take about twice as long as the rest of a command's start-up.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    Inventory,
    VirtualMachine,
    VnfComponent,
    _fit,
    resource_grid,
)

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
    """Component ids 1..k and machine ids 1..m in order, as in a ``Scenario``:
    id i is row i - 1, and id j column j - 1, of every matrix the solvers read.
    ``vms`` may be given as machine objects; it is kept as their ``Inventory``."""

    components: tuple[VnfComponent, ...]
    vms: Inventory
    objective_mode: ObjectiveMode = ObjectiveMode.ABSOLUTE_SURPLUS

    def __post_init__(self) -> None:
        if not self.components or not self.vms:
            raise ValueError("components and vms must be non-empty")
        if [c.id for c in self.components] != list(range(1, len(self.components) + 1)):
            raise ValueError("component ids must be 1..k in order")
        object.__setattr__(self, "vms", Inventory.of(self.vms))


@dataclass(frozen=True)
class Assignment:
    """An injective, total, feasible component-to-VM map with its objective value."""

    pairs: dict[int, int]
    objective_value: float


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
    """Objective of a given pairing: ``pair_cost`` of each pair, read off the
    inventory's columns, summed from 0.0 in component-id order.

    Both solvers report their result through this function so equal
    assignments always yield bit-identical objective values.
    """
    vms, mode = problem.vms, problem.objective_mode
    total = 0.0
    for comp in problem.components:
        j = pairs[comp.id] - 1
        total += _surplus(
            comp.compute_req, comp.storage_req, vms.compute_caps[j], vms.storage_caps[j], mode
        )
    return total


def validate_assignment(problem: AssignmentProblem, pairs: dict[int, int]) -> None:
    """Raise if the pairing breaks totality, exclusivity, or capacity rules."""
    comp_ids = {c.id for c in problem.components}
    if set(pairs) != comp_ids:
        unplaced, unknown = sorted(comp_ids - set(pairs)), sorted(set(pairs) - comp_ids)
        reasons = [f"components {unplaced} unplaced"] if unplaced else []
        if unknown:
            reasons.append(f"components {unknown} are not in the slice")
        raise InfeasibleAssignmentError("; ".join(reasons), rule=RULE_COMPONENT_PLACED)
    if len(set(pairs.values())) != len(pairs):
        raise InfeasibleAssignmentError("a vm hosts more than one component", rule=RULE_VM_EXCLUSIVE)
    vms = problem.vms
    for comp in problem.components:
        vm_id = pairs[comp.id]
        j = vm_id - 1
        if not (
            0 <= j < len(vms)
            and vms.free[j]
            and _fit(float(comp.compute_req), float(comp.storage_req), vms.cap_c[j], vms.cap_s[j])
        ):
            raise InfeasibleAssignmentError(
                f"component {comp.id} does not fit vm {vm_id}", rule=RULE_CAPACITY_FIT
            )


def _masked_cost(comps, vms, mode: ObjectiveMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``resource_grid``'s availability and allowed masks, and the surplus cost
    matrix of every (component, machine) pair, ``inf`` where it is not allowed."""
    req_c, req_s, cap_c, cap_s, allowed, free = resource_grid(comps, vms)
    # Only pairs that do not fit can overflow, and the mask discards them.
    with np.errstate(over="ignore"):
        return free, allowed, np.where(allowed, _surplus(req_c, req_s, cap_c, cap_s, mode), np.inf)


def _cost_matrix(problem: AssignmentProblem) -> np.ndarray:
    """The surplus cost matrix of every (component, machine) pair, row i - 1
    for component id i and column j - 1 for machine id j, ``inf`` where the
    machine is occupied or the component does not fit.

    Raises when there are fewer available machines than components, or when
    some component fits none of them.
    """
    free, allowed, cost = _masked_cost(problem.components, problem.vms, problem.objective_mode)
    if len(problem.components) > np.count_nonzero(free):
        raise InfeasibleAssignmentError(
            f"{len(problem.components)} components but only {np.count_nonzero(free)} available vms",
            rule=RULE_VM_EXCLUSIVE,
        )
    for comp, hostable in zip(problem.components, allowed.any(axis=1)):
        if not hostable:
            raise InfeasibleAssignmentError(
                f"no available vm can host component {comp.id} "
                f"(needs compute {comp.compute_req}, storage {comp.storage_req})"
            )
    return cost


def solve_exact_enumeration(problem: AssignmentProblem) -> Assignment:
    """Globally optimal assignment by scanning every injective feasible map.

    Guarded to at most 8 components and 10 machines. Ties resolve to the
    map that gives the lowest-id component the lowest-id machine first.
    """
    if len(problem.components) > ENUMERATION_MAX_COMPONENTS:
        raise SizeLimitError(f"enumeration supports at most {ENUMERATION_MAX_COMPONENTS} components")
    if len(problem.vms) > ENUMERATION_MAX_VMS:
        raise SizeLimitError(f"enumeration supports at most {ENUMERATION_MAX_VMS} vms")
    cost = _cost_matrix(problem)
    # Summed left to right in component order from 0.0, as the objective is;
    # an infeasible (inf) or NaN total loses every comparison, so a column
    # with no finite entry, such as an occupied machine's, is left out.
    rows, columns = cost.tolist(), np.flatnonzero(np.isfinite(cost).any(axis=0)).tolist()
    best_chosen, best_value = None, math.inf
    for chosen in itertools.permutations(columns, len(rows)):
        value = 0.0
        for row, col in zip(rows, chosen):
            value += row[col]
        if value < best_value:
            best_chosen, best_value = chosen, value
    if best_chosen is None:
        raise InfeasibleAssignmentError("no injective feasible assignment exists")
    pairs = {pos + 1: col + 1 for pos, col in enumerate(best_chosen)}
    return Assignment(pairs, assignment_objective(problem, pairs))


def greedy_best_fit(
    components: tuple[VnfComponent, ...], vms: Sequence[VirtualMachine]
) -> dict[int, int]:
    """Best-fit walk: each component, in the order given, takes the available
    machine that leaves the least normalized idle capacity behind, the first
    machine in inventory order on ties. Machine ids are 1..m in order."""
    *_, cost = _masked_cost(components, vms, ObjectiveMode.NORMALIZED_SURPLUS)
    pairs: dict[int, int] = {}
    for comp, row in zip(components, cost):
        if math.isinf(row.min(initial=np.inf)):
            raise InfeasibleAssignmentError(
                f"no available vm can host component {comp.id}", rule=RULE_CAPACITY_FIT
            )
        col = int(np.argmin(row))
        cost[:, col] = np.inf
        pairs[comp.id] = col + 1
    return pairs


_LSAP_MODULE = "scipy.optimize._lsap"


def _lsap_file() -> Optional[str]:
    """The path of scipy's compiled assignment solver, found without importing
    scipy, or None when scipy has no such file or is not installed."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(spec.submodule_search_locations[0], "optimize", "_lsap" + suffix)
        if os.path.isfile(path):
            return path
    return None


@functools.cache
def assignment_solver() -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """scipy's ``linear_sum_assignment``, loaded once.

    Only its extension module is loaded, under the name scipy imports it by,
    so a later ``import scipy.optimize`` reuses that module and exports this
    very function. Without the file (another scipy layout, or no scipy), the
    function is imported from ``scipy.optimize`` as documented.
    """
    if _LSAP_MODULE not in sys.modules:
        path = _lsap_file()
        if path is None:
            from scipy.optimize import linear_sum_assignment as solver

            return solver
        loader = importlib.machinery.ExtensionFileLoader(_LSAP_MODULE, path)
        spec = importlib.util.spec_from_loader(_LSAP_MODULE, loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        sys.modules[_LSAP_MODULE] = module
    return sys.modules[_LSAP_MODULE].linear_sum_assignment


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's minimum-cost assignment of a cost matrix, loading the solver on
    the first call; ``_optimal_matching`` looks this name up on every call, so
    wrapping or patching it here sees every solve."""
    return assignment_solver()(cost)


def _optimal_matching(cost: np.ndarray) -> tuple[float, frozenset[int]]:
    """Optimal matching cost of a matrix with no more rows than columns, inf
    when none exists, and the columns one optimal matching uses."""
    if not len(cost):
        return 0.0, frozenset()
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return math.inf, frozenset()
    return float(cost[rows, cols].sum()), frozenset(cols.tolist())


def _without(columns: np.ndarray, idx: int) -> np.ndarray:
    return np.concatenate((columns[:idx], columns[idx + 1 :]))


def has_feasible_assignment(problem: AssignmentProblem) -> bool:
    """Whether an injective, capacity-feasible assignment exists: one solve on the
    allowed mask at cost 0, as a surplus can overflow to ``inf`` and hide a fitting pair."""
    if len(problem.components) > len(problem.vms):
        return False  # a solve would match only as many rows as there are columns
    *_, allowed, _ = resource_grid(problem.components, problem.vms)
    return not math.isinf(_optimal_matching(np.where(allowed, 0.0, np.inf))[0])


def solve_exact_matching(problem: AssignmentProblem) -> Assignment:
    """Globally optimal assignment via minimum-cost bipartite matching.

    Polynomial in the instance size, so it covers the production shape of
    8 components against hundreds of machines. The optimum is then
    canonicalized to the same tie order the enumeration route uses; every
    sub-problem of that walk is a slice of the one cost matrix.

    The walk fixes one component at a time onto the lowest-id machine whose
    cost plus the optimum of the rows below, over the other machines, still
    reaches the target. At each position the rows below are solved once over
    all still-unused machines. That optimum bounds every candidate's
    remainder from below, so a candidate whose cost plus it misses the target
    is skipped; and a machine that this solve does not use can be removed
    without changing the optimum, so it is the remainder of every candidate
    outside the at most seven machines the solve uses. Only those get a solve
    of their own: a position makes at most eight solves, however many
    machines tie.
    """
    cost = _cost_matrix(problem)
    total = _optimal_matching(cost)[0]
    if math.isinf(total):
        raise InfeasibleAssignmentError("no injective feasible assignment exists")

    pairs: dict[int, int] = {}
    remaining = np.arange(len(problem.vms))
    target = total
    for pos, comp in enumerate(problem.components):
        tolerance = max(_TIE_TOLERANCE, abs(target) * 1e-12)
        row = cost[pos, remaining]
        optimum, used = _optimal_matching(cost[pos + 1 :, remaining])
        # ``optimum`` is exactly the remainder of a candidate outside ``used``
        # and at most that of any other. ``row[idx] + optimum`` and ``row[idx]
        # + sub`` each add at most 8 non-negative fitting entries (component
        # ids are unique in 1..NUM_COMPONENTS), so each lies within about 16
        # ulp-relative error of its exact value, far below ``tolerance >=
        # |target| * 1e-12``: a candidate the accepting test takes passes the
        # bound with one more ``tolerance``. An unfit machine (inf) never does.
        for idx in np.flatnonzero(row + optimum <= target + 2 * tolerance).tolist():
            if idx in used:
                sub = _optimal_matching(cost[pos + 1 :, _without(remaining, idx)])[0]
            else:
                sub = optimum
            if abs(row[idx] + sub - target) <= tolerance:
                break
        else:
            raise RuntimeError("canonicalization failed to reconstruct the optimum")
        pairs[comp.id] = int(remaining[idx]) + 1
        remaining, target = _without(remaining, idx), sub

    validate_assignment(problem, pairs)
    return Assignment(pairs, assignment_objective(problem, pairs))
