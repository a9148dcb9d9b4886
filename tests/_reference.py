"""Independent reference computations and test instances shared by the tests.

The backward-induction solver here is deliberately written against the raw
scenario data (not the environment's precomputed tables) so it can serve as
an oracle for the learners. The step-by-step training loop is written against
the public environment and agent functions only, and makes one numpy call per
random draw, so it can serve as an oracle for the training kernel in
``agents._run_episodes``, which reads its draws from raw generator words; the
greedy replay steps ``MappingEnvironment.step`` with state and action objects,
so it can serve as an oracle for ``agents.greedy_rollout``, which reads the fit
mask. The
enumeration and greedy best-fit scans judge one pair at a time through
``VirtualMachine.fits`` and ``pair_cost``, so they can serve as oracles for the
routes that read the masked cost matrix. The objective sums ``pair_cost`` of
machine objects, so it can serve as an oracle for
``oracle.assignment_objective``, which reads the inventory's columns. The
canonical matching walk solves every candidate's remainder, so it can serve as
an oracle for the pruned walk in ``oracle.solve_exact_matching``. The
feasibility check makes one assignment solve on the masked surplus matrix,
after ``_cost_matrix``'s own refusals; ``oracle.has_feasible_assignment`` makes
one on the allowed mask at cost 0.
Since both routes solve, networkx's Hopcroft-Karp matching in
``tests/test_oracle.py`` is the independent reference for the verdict. The
component, ``vms`` and PM readers name every field of an entry in a
``scenario.require`` call of their own, so they can serve as oracles for the
one-pass read in ``scenario._read_vms`` and for ``scenario._read_entry``'s
walk of its field table; their amounts are checked by ``REFERENCE_AMOUNT``,
the amount rule written with ``math.isfinite`` on an object of any type, which
is also the reference for ``scenario.NUMBER`` and ``scenario.AMOUNT``
themselves. The model-file array reader judges entries by the dtype numpy
infers for the whole nesting, so it can serve as an oracle for
``agents._checked_array``, which judges each entry by ``scenario.NUMBER``;
they part on ints that fit no numpy integer dtype. The generator draws one
demand row per ``rng.integers`` call, so it can serve as an oracle for the block draw in
``scenario._draw_requirements``. The placement
reads check ``placement.x`` entry by entry and gather each PM's column from the
rows, so they can serve as oracles for ``infra.VmPlacement``'s int8 array, the
one per-PM pass ``infra.pm_loads`` and ``check-infra``'s report on it.
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
from vnfcmap.mdp import Action, MappingEnvironment, MappingEpisodeState, RewardMode
from vnfcmap.infra import (
    RULE_COMPUTE_CAPACITY,
    RULE_SINGLE_HOST,
    RULE_STORAGE_CAPACITY,
    RULE_VM_COUNT,
    OverloadError,
    Violation,
    pm_wastage,
    pm_workload,
)
from vnfcmap.metrics import EpisodeLog
from vnfcmap.model import (
    NUM_COMPONENTS,
    PhysicalMachine,
    SliceSubnet,
    VirtualMachine,
    VnfcKind,
    VnfComponent,
    make_slice,
)
from vnfcmap.oracle import (
    RULE_CAPACITY_FIT,
    Assignment,
    AssignmentProblem,
    InfeasibleAssignmentError,
    ObjectiveMode,
    _TIE_TOLERANCE,
    _cost_matrix,
    _optimal_matching,
    assignment_objective,
    has_feasible_assignment,
    pair_cost,
    validate_assignment,
)
from vnfcmap.scenario import (
    _FLAGS,
    BOOLEAN,
    HOSTED,
    INTEGER,
    LIST,
    MAX_AMOUNT,
    MAX_INTEGER_AMOUNT,
    MAX_RESAMPLES,
    FieldKind,
    GenerationParams,
    Scenario,
    ScenarioFormatError,
    ScenarioGenerationError,
    require,
    scenario_from_dict,
)

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


def reference_greedy_rollout(q, env, start_anchor=1):
    """``agents.greedy_rollout`` stepped through ``env.step``: the pairs, or
    None at the first infeasible greedy choice."""
    state = MappingEpisodeState(
        next_component_index=1, anchor_vm=start_anchor, occupied=frozenset()
    )
    pairs: dict[int, int] = {}
    while not state.terminal:
        action = Action(q.greedy_action(state))
        outcome = env.step(state, action)
        if not outcome.feasible:
            return None
        pairs[state.next_component_index] = action.target_vm
        state = outcome.next_state
    return pairs


def reference_enumeration(problem) -> Assignment:
    """``oracle.solve_exact_enumeration`` scanning machine objects: the same
    edge checks, then every permutation of the available machines summed pair
    by pair in component order, stopping at the first pair that does not fit;
    the objective is ``reference_objective``."""
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
    return Assignment(best_pairs, reference_objective(problem, best_pairs))


def reference_objective(problem, pairs) -> float:
    """``oracle.assignment_objective`` over machine objects: ``pair_cost`` of
    each pair, summed from 0.0 in component order."""
    total = 0.0
    for comp in problem.components:
        total += pair_cost(comp, problem.vms[pairs[comp.id] - 1], problem.objective_mode)
    return total


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


# The number rules as ``math.isfinite`` states them, on an object of any type:
# on every value ``json.loads`` returns they answer as ``scenario.NUMBER`` and
# ``scenario.AMOUNT`` do; they part only on numbers JSON cannot write, such as
# ``np.int64``, which they accept.
def _reference_is_finite_number(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        return False


REFERENCE_NUMBER = FieldKind(_reference_is_finite_number, "must be a finite number")
REFERENCE_AMOUNT = FieldKind(
    lambda v: _reference_is_finite_number(v)
    and v <= MAX_AMOUNT
    and (not isinstance(v, int) or abs(v) <= MAX_INTEGER_AMOUNT),
    f"must be a finite number <= {MAX_AMOUNT:g} and, if an integer, of magnitude <= 2**53",
)


def reference_checked_array(doc: dict, name: str, shape: tuple) -> np.ndarray:
    """A model file's ``values`` or ``weights`` read by the dtype numpy infers:
    an int that no int64 or uint64 array holds with its neighbours makes an
    object array, refused as not numbers."""
    value = require(doc, name)
    try:
        array = np.array(value)
    except ValueError:  # lists of unequal lengths
        raise ScenarioFormatError(name, "must be an array of numbers") from None
    if array.dtype.kind not in "iuf":
        raise ScenarioFormatError(name, "must be an array of numbers")
    array = array.astype(float, copy=False)
    if array.shape != shape:
        raise ScenarioFormatError(name, f"expected shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ScenarioFormatError(name, "every entry must be finite")
    # Booleans mixed with numbers convert like 0 and 1; the shape check above
    # makes ``value`` a regular nesting of len(shape) levels.
    entries = value
    for _ in shape[1:]:
        entries = itertools.chain.from_iterable(entries)
    if bool in set(map(type, entries)):
        raise ScenarioFormatError(name, "must be an array of numbers")
    array.flags.writeable = False
    return array


def reference_read_component(raw: dict, path: str, kind: VnfcKind) -> VnfComponent:
    return VnfComponent(
        id=require(raw, "id", path, INTEGER),
        kind=kind,
        compute_req=require(raw, "compute_req", path, REFERENCE_AMOUNT),
        storage_req=require(raw, "storage_req", path, REFERENCE_AMOUNT),
    )


def reference_read_vm(raw: dict, path: str) -> VirtualMachine:
    return VirtualMachine(
        id=require(raw, "id", path, INTEGER),
        compute_cap=require(raw, "compute_cap", path, REFERENCE_AMOUNT),
        storage_cap=require(raw, "storage_cap", path, REFERENCE_AMOUNT),
        hosted=require(raw, "hosted", path, HOSTED, default=None),
    )


def reference_read_pm(raw: dict, path: str) -> PhysicalMachine:
    return PhysicalMachine(
        id=require(raw, "id", path, INTEGER),
        compute_cap=require(raw, "compute_cap", path, REFERENCE_AMOUNT),
        storage_cap=require(raw, "storage_cap", path, REFERENCE_AMOUNT),
        max_vm_count=require(raw, "max_vm_count", path, INTEGER),
        active=require(raw, "active", path, BOOLEAN, default=True),
    )


def reference_read_entry(cls: type, raw: dict, path: str, **given):
    """``scenario._read_entry`` with each entry class's fields read by hand."""
    readers = {
        VnfComponent: reference_read_component,
        VirtualMachine: reference_read_vm,
        PhysicalMachine: reference_read_pm,
    }
    return readers[cls](raw, path, **given)


def reference_read_vms(raw_vms: list) -> tuple[VirtualMachine, ...]:
    return tuple(reference_read_vm(raw, f"vms[{idx}].") for idx, raw in enumerate(raw_vms))


def reference_draw_requirements(rng: np.random.Generator, lo: int, hi: int) -> list[int]:
    for _ in range(MAX_RESAMPLES):
        values = [int(v) for v in rng.integers(lo, hi + 1, size=NUM_COMPONENTS)]
        if sum(values[:3]) >= sum(values[3:]):
            return values
    raise ScenarioGenerationError(
        f"could not satisfy cu-dominance within {MAX_RESAMPLES} draws for range ({lo}, {hi})"
    )


def reference_generate(seed: int, params: GenerationParams = GenerationParams()) -> Scenario:
    rng = np.random.default_rng(seed)
    compute_reqs = reference_draw_requirements(rng, *params.req_range)
    storage_reqs = reference_draw_requirements(rng, *params.req_range)
    subnet = make_slice(compute_reqs, storage_reqs)

    lo, hi = params.cap_range
    for _ in range(MAX_RESAMPLES):
        caps = rng.integers(lo, hi + 1, size=(params.num_vms, 2))
        vms = tuple(
            VirtualMachine(id=j + 1, compute_cap=int(caps[j, 0]), storage_cap=int(caps[j, 1]))
            for j in range(params.num_vms)
        )
        if has_feasible_assignment(AssignmentProblem(subnet.components, vms)):
            return Scenario(subnet=subnet, vms=vms, seed=seed, params=params)
    raise ScenarioGenerationError(
        f"no feasible capacity draw within {MAX_RESAMPLES} attempts for params {params}"
    )


# The per-entry reads of a substrate placement: a ``placement.x`` checked by
# ``isinstance`` entry by entry, rows checked entry by entry, and each PM's
# column gathered from the rows, for the rule check and again for the report.
_PER_ENTRY_ROWS = FieldKind(
    lambda v: LIST.valid(v) and all(LIST.valid(row) and all(map(INTEGER.valid, row)) for row in v),
    "must be a list of lists of integers",
)


def reference_check_rows(x, n: int) -> None:
    for j, row in enumerate(x):
        if len(row) != n:
            raise ValueError(f"row {j + 1} has {len(row)} columns, expected {n}")
        if any(v not in (0, 1) for v in row):
            raise ValueError(f"row {j + 1} contains a non-binary entry")


def reference_violations(x, pm_active, vms, pms) -> list[Violation]:
    """The substrate rule check with a PM's demand summed as ``cap * x`` over
    every machine, so that an unhosted float machine adds 0.0."""
    if len(x) != len(vms) or len(pm_active) != len(pms):
        raise ValueError(
            f"placement is {len(x)}x{len(pm_active)}, inventory is {len(vms)}x{len(pms)}"
        )
    violations = []
    for j, row in enumerate(x):
        hosts = sum(row)
        if hosts != 1:
            detail = f"vm {j + 1} placed on {hosts} pms"
            violations.append(Violation(RULE_SINGLE_HOST, j + 1, detail))
    for k, pm in enumerate(pms):
        column = [x[j][k] for j in range(len(x))]
        count = sum(column)
        if count > pm.max_vm_count:
            detail = f"{count} vms exceed limit {pm.max_vm_count}"
            violations.append(Violation(RULE_VM_COUNT, k + 1, detail))
        active = 1 if pm_active[k] else 0
        for rule, axis, caps, cap in (
            (RULE_COMPUTE_CAPACITY, "compute", vms.compute_caps, pm.compute_cap * active),
            (RULE_STORAGE_CAPACITY, "storage", vms.storage_caps, pm.storage_cap * active),
        ):
            demand = sum(c * v for c, v in zip(caps, column))
            if demand > cap:
                violations.append(Violation(rule, k + 1, f"{axis} demand {demand} exceeds {cap}"))
    return violations


def reference_placement_refusal(doc: dict, validate_placement: bool = True):
    """(field, detail) of the refusal of a scenario document whose fields
    other than ``placement`` are valid, or None when it is read."""
    rest = scenario_from_dict({k: v for k, v in doc.items() if k != "placement"}, False)
    raw = doc.get("placement")
    if raw is None:
        return None
    try:
        x = require(raw, "x", "placement.", _PER_ENTRY_ROWS)
        pm_active = require(raw, "pm_active", "placement.", _FLAGS)
    except ScenarioFormatError as exc:
        return exc.field, exc.detail
    try:
        reference_check_rows(x, len(pm_active))
        violations = []
        if validate_placement:
            violations = reference_violations(x, pm_active, rest.vms, rest.pms)
    except ValueError as exc:
        return "<document>", str(exc)
    if violations:
        return "<document>", "placement breaks substrate rules: " + "; ".join(map(str, violations))
    return None


def reference_placement_report(inst: Scenario) -> str:
    """``check-infra``'s placement lines, each PM's hosted machines gathered
    from its column; raises the rule check's ``ValueError`` on a shape mismatch."""
    x, vms = inst.placement.matrix.tolist(), inst.vms
    violations = reference_violations(x, inst.placement.pm_active, vms, inst.pms)
    if violations:
        lines = [f"placement violations ({len(violations)}):"]
        lines += [f"  {violation}" for violation in violations]
    else:
        lines = ["placement violations: none"]
    for k, pm in enumerate(inst.pms):
        hosted = [j for j in range(inst.num_vms) if x[j][k] == 1]
        caps = [(vms.compute_caps[j], vms.storage_caps[j]) for j in hosted]
        loads = [(c / pm.compute_cap, s / pm.storage_cap) for c, s in caps]
        compute = sum(c for c, _ in caps)
        storage = sum(s for _, s in caps)
        try:
            workload = pm_workload((0.0, 0.0), loads)
            for axis, demand, cap in (
                ("compute", compute, pm.compute_cap),
                ("storage", storage, pm.storage_cap),
            ):
                if demand > cap:
                    raise OverloadError(f"{axis} demand {demand} exceeds {cap}")
            avail = (pm.compute_cap - compute, pm.storage_cap - storage)
            wastage = pm_wastage(avail, (pm.compute_cap, pm.storage_cap))
            lines.append(
                f"pm {pm.id}: {len(hosted)} vms, workload {workload:.4f}, "
                f"idle fraction {wastage:.4f}"
            )
        except OverloadError as exc:
            lines.append(f"pm {pm.id}: overloaded ({exc})")
    return "".join(line + "\n" for line in lines)
