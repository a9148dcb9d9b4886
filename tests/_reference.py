"""Independent reference computations and test instances shared by the tests.

The backward-induction solver here is deliberately written against the raw
scenario data (not the environment's precomputed tables) so it can serve as
an oracle for the learners. The step-by-step training loop is written against
the public environment and agent functions only, so it can serve as an oracle
for the training kernel in ``agents._run_episodes``. The enumeration and greedy
best-fit scans judge one pair at a time through ``VirtualMachine.fits`` and
``pair_cost``, so they can serve as oracles for the routes that read the
masked cost matrix. The canonical matching walk solves every candidate's
remainder, so it can serve as an oracle for the pruned walk in
``oracle.solve_exact_matching``. The feasibility check makes one assignment
solve on the masked cost matrix, so it can serve as an oracle for the matching
on the allowed mask in ``oracle.has_feasible_assignment``. The ``vms``
walk reads every field of every entry with ``scenario.require``, so it can
serve as an oracle for the one-pass read in ``scenario._read_vms``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from vnfcmap.agents import (
    linear_update,
    make_learner,
    select_action,
    tabular_update,
)
from vnfcmap.mdp import MappingEnvironment, RewardMode
from vnfcmap.metrics import EpisodeLog
from vnfcmap.model import NUM_COMPONENTS, SliceSubnet, VirtualMachine, make_slice
from vnfcmap.oracle import (
    RULE_CAPACITY_FIT,
    Assignment,
    InfeasibleAssignmentError,
    ObjectiveMode,
    _TIE_TOLERANCE,
    _cost_matrix,
    _optimal_matching,
    assignment_objective,
    pair_cost,
    validate_assignment,
)
from vnfcmap.scenario import AMOUNT, INTEGER, Scenario, require

PENALTY = -1.0


def tiny_scenario() -> Scenario:
    """Three machines, of which the first two exactly fit f1 and f2.

    Components f3..f8 exist only to satisfy the slice shape; tests run the
    environment restricted to the first two components.
    """
    subnet = make_slice(
        compute_reqs=[2, 1, 5, 1, 1, 1, 1, 1],
        storage_reqs=[2, 1, 5, 1, 1, 1, 1, 1],
    )
    vms = (
        VirtualMachine(id=1, compute_cap=2, storage_cap=2),
        VirtualMachine(id=2, compute_cap=1, storage_cap=1),
        VirtualMachine(id=3, compute_cap=5, storage_cap=5),
    )
    return Scenario(subnet=subnet, vms=vms)


def crafted_tie_scenario(num_vms: int) -> Scenario:
    """A slice whose three centralized-unit components demand (2, 2) and whose
    five distributed-unit components demand (1, 1), against ``num_vms - 8``
    machines of (7, 7) at ids 1.., then eight small machines (2, 2), (2, 3),
    ..., (5, 6) at the highest ids.

    Every (7, 7) machine costs the same to every component. A bound from the
    row minima of the later components counts the smallest machine once per
    component and admits every (7, 7) machine, though the optimum uses only
    the small machines.
    """
    subnet = make_slice([2, 2, 2, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1])
    small = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6)]
    caps = [(7, 7)] * (num_vms - len(small)) + small
    vms = tuple(
        VirtualMachine(id=j + 1, compute_cap=c, storage_cap=s) for j, (c, s) in enumerate(caps)
    )
    return Scenario(subnet=subnet, vms=vms)


def identity_scenario(subnet: SliceSubnet, extra_vms: tuple[VirtualMachine, ...] = ()) -> Scenario:
    """A scenario whose first eight machines exactly match the eight demands."""
    exact = tuple(
        VirtualMachine(id=c.id, compute_cap=max(c.compute_req, 1), storage_cap=max(c.storage_req, 1))
        for c in subnet.components
    )
    renumbered_extra = tuple(
        VirtualMachine(
            id=NUM_COMPONENTS + k + 1, compute_cap=vm.compute_cap, storage_cap=vm.storage_cap
        )
        for k, vm in enumerate(extra_vms)
    )
    return Scenario(subnet=subnet, vms=exact + renumbered_extra)


def _fits(comp, vm) -> bool:
    """Whether ``comp`` may go on ``vm``: the machine hosts no component and
    both its capacities are at least the demand."""
    return (
        vm.hosted is None
        and vm.compute_cap >= comp.compute_req
        and vm.storage_cap >= comp.storage_req
    )


def _reward(comp, vm, mode: RewardMode) -> float:
    used = comp.compute_req / vm.compute_cap + comp.storage_req / vm.storage_cap
    return 2.0 - used if mode is RewardMode.WASTAGE else used


def features(comp, vm, component_index: int, num_components: int) -> list[float]:
    """The linear agents' 7 features of placing ``comp`` on ``vm``, one scalar at a time."""
    ratio_c = comp.compute_req / vm.compute_cap
    ratio_s = comp.storage_req / vm.storage_cap
    return [
        1.0,
        min(ratio_c, 2.0),
        min(ratio_s, 2.0),
        min(max(1.0 - ratio_c, 0.0), 1.0),
        min(max(1.0 - ratio_s, 0.0), 1.0),
        1.0 if _fits(comp, vm) else 0.0,
        (component_index - 1) / num_components,
    ]


def two_step_q_star(
    scenario: Scenario, gamma: float, mode: RewardMode
) -> dict[tuple[int, int, int], float]:
    """Exact action values for the two-component restriction of a scenario.

    With two components the tabular key (component index, anchor) pins down
    the occupied set exactly, so backward induction over those keys gives the
    true optimum. Keys are (component_index, anchor_vm, target_vm); only
    reachable states appear.
    """
    comp1, comp2 = scenario.subnet.components[:2]
    vms = scenario.vms
    q: dict[tuple[int, int, int], float] = {}

    # Last step: anchor v hosts comp1, so v is the one occupied machine.
    best_final: dict[int, float] = {}
    for anchor in vms:
        if not _fits(comp1, anchor):
            continue  # (2, anchor) unreachable
        values = []
        for vm in vms:
            value = (
                _reward(comp2, vm, mode)
                if vm.id != anchor.id and _fits(comp2, vm)
                else PENALTY
            )
            q[(2, anchor.id, vm.id)] = value
            values.append(value)
        best_final[anchor.id] = max(values)

    # First step: nothing occupied; every machine is a possible anchor.
    for anchor in vms:
        for vm in vms:
            if _fits(comp1, vm):
                q[(1, anchor.id, vm.id)] = _reward(comp1, vm, mode) + gamma * best_final[vm.id]
            else:
                q[(1, anchor.id, vm.id)] = PENALTY
    return q


def reference_episode(env, learner, hyper, rng, episode_index=1) -> EpisodeLog:
    """One episode stepped through ``env.step`` with one call per step to
    ``select_action`` and the variant's TD update."""
    state = env.reset()
    total = 0.0
    length = 0
    exploratory = 0
    all_feasible = True
    while not state.terminal:
        action, explored = select_action(learner.q, state, hyper.epsilon, rng)
        outcome = env.step(state, action)
        update = tabular_update if learner.variant.tabular else linear_update
        update(learner.q, state, action, outcome.reward, outcome.next_state, hyper)
        total += outcome.reward
        length += 1
        exploratory += int(explored)
        all_feasible = all_feasible and outcome.feasible
        state = outcome.next_state
    return EpisodeLog(
        episode_index=episode_index,
        total_reward=total,
        length=length,
        exploratory_actions=exploratory,
        success=all_feasible and length == env.num_components,
    )


def reference_train(variant, scenario, hyper, seed, num_components=None):
    """``agents.train`` with ``reference_episode`` in place of the kernel;
    returns the episode logs and the learner."""
    rng = np.random.default_rng(seed)
    env = MappingEnvironment(scenario, rng, hyper.reward_mode, num_components)
    learner = make_learner(variant, scenario, num_components)
    logs = [reference_episode(env, learner, hyper, rng, e) for e in range(1, hyper.episodes + 1)]
    return logs, learner


def reference_enumeration(problem) -> Assignment:
    """``oracle.solve_exact_enumeration`` scanning machine objects: the same
    edge checks, then every permutation of the available machines summed pair
    by pair in component order, stopping at the first pair that does not fit."""
    _cost_matrix(problem)  # the edge checks
    comps = problem.components
    vms = [vm for vm in problem.vms if vm.available]
    best_pairs = None
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
    return Assignment(best_pairs, assignment_objective(problem, best_pairs))


def reference_greedy_best_fit(components, vms) -> dict[int, int]:
    """``oracle.greedy_best_fit`` scanning machine objects in the order given;
    occupancy is not consulted."""
    taken: set[int] = set()
    pairs: dict[int, int] = {}
    for comp in components:
        best_vm = None
        best_cost = None
        for vm in vms:
            if vm.id in taken or not vm.fits(comp):
                continue
            cost = pair_cost(comp, vm, ObjectiveMode.NORMALIZED_SURPLUS)
            if best_cost is None or cost < best_cost:
                best_vm, best_cost = vm.id, cost
        if best_vm is None:
            raise InfeasibleAssignmentError(
                f"no available vm can host component {comp.id}", rule=RULE_CAPACITY_FIT
            )
        taken.add(best_vm)
        pairs[comp.id] = best_vm
    return pairs


def reference_canonical_matching(problem) -> Assignment:
    """``oracle.solve_exact_matching`` without its lower-bound skip, and over
    the columns of the available machines only: every fitting candidate,
    lowest machine id first, gets an assignment solve of the remaining rows
    until one reaches the optimum."""
    cost = _cost_matrix(problem)
    remaining = np.array([j for j, vm in enumerate(problem.vms) if vm.available])
    total = _optimal_matching(cost[:, remaining])[0]
    if math.isinf(total):
        raise InfeasibleAssignmentError("no injective feasible assignment exists")
    pairs: dict[int, int] = {}
    target = total
    for pos, comp in enumerate(problem.components):
        tolerance = max(_TIE_TOLERANCE, abs(target) * 1e-12)
        row = cost[pos, remaining]
        for idx in np.flatnonzero(np.isfinite(row)):
            rest = np.concatenate((remaining[:idx], remaining[idx + 1 :]))
            sub = _optimal_matching(cost[pos + 1 :, rest])[0]
            if abs(row[idx] + sub - target) <= tolerance:
                break
        else:
            raise RuntimeError("canonicalization failed to reconstruct the optimum")
        pairs[comp.id] = problem.vms[remaining[idx]].id
        remaining, target = rest, sub
    validate_assignment(problem, pairs)
    return Assignment(pairs, assignment_objective(problem, pairs))


def reference_has_feasible_assignment(problem) -> bool:
    """``oracle.has_feasible_assignment`` as one assignment solve on the masked
    cost matrix: feasible when the solve finds a matching of finite cost.

    The two agree wherever every fitting pair has a finite cost, as it has for
    every amount a scenario file or request body may hold (at most 1e307).
    They part on an infinite capacity, or one near the float maximum, under
    absolute surplus: the surplus overflows to ``inf``, which the solve reads
    as a pair that does not fit.
    """
    try:
        cost = _cost_matrix(problem)
    except InfeasibleAssignmentError:
        return False
    free = [j for j, vm in enumerate(problem.vms) if vm.available]
    return not math.isinf(_optimal_matching(cost[:, free])[0])


def reference_read_vms(raw_vms: list) -> tuple[VirtualMachine, ...]:
    return tuple(
        VirtualMachine(
            id=require(raw, "id", f"vms[{idx}].", INTEGER),
            compute_cap=require(raw, "compute_cap", f"vms[{idx}].", AMOUNT),
            storage_cap=require(raw, "storage_cap", f"vms[{idx}].", AMOUNT),
        )
        for idx, raw in enumerate(raw_vms)
    )
