import itertools
import json
import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import _fits, reference_enumeration, reference_greedy_best_fit
from vnfcmap.model import VirtualMachine, VnfcKind, VnfComponent
from vnfcmap.oracle import (
    RULE_CAPACITY_FIT,
    AssignmentProblem,
    InfeasibleAssignmentError,
    ObjectiveMode,
    SizeLimitError,
    _cost_matrix,
    assignment_objective,
    greedy_best_fit,
    has_feasible_assignment,
    pair_cost,
    solve_exact_enumeration,
    solve_exact_matching,
    validate_assignment,
)
from vnfcmap.scenario import GenerationParams, generate, identity_scenario, load

FIXTURES = Path(__file__).parent / "fixtures"


def _comp(cid, compute, storage):
    return VnfComponent(id=cid, kind=VnfcKind(cid), compute_req=compute, storage_req=storage)


def _vm(vid, compute, storage):
    return VirtualMachine(id=vid, compute_cap=compute, storage_cap=storage)


def _problem(comp_specs, vm_specs, mode=ObjectiveMode.ABSOLUTE_SURPLUS):
    comps = tuple(_comp(i + 1, c, s) for i, (c, s) in enumerate(comp_specs))
    vms = tuple(_vm(j + 1, c, s) for j, (c, s) in enumerate(vm_specs))
    return AssignmentProblem(comps, vms, mode)


def brute_force_optimum(problem):
    """Independent scan over every injective map, with its own cost arithmetic."""
    comps = sorted(problem.components, key=lambda c: c.id)
    vms = sorted(problem.vms, key=lambda v: v.id)
    best = None
    for chosen in itertools.permutations(range(len(vms)), len(comps)):
        total = 0.0
        ok = True
        for comp, j in zip(comps, chosen):
            vm = vms[j]
            if comp.compute_req > vm.compute_cap or comp.storage_req > vm.storage_cap:
                ok = False
                break
            if problem.objective_mode is ObjectiveMode.ABSOLUTE_SURPLUS:
                total += (vm.compute_cap - comp.compute_req) + (vm.storage_cap - comp.storage_req)
            else:
                total += (1 - comp.compute_req / vm.compute_cap) + (
                    1 - comp.storage_req / vm.storage_cap
                )
        if ok and (best is None or total < best):
            best = total
    return best


def test_perfect_fit_pair():
    problem = _problem([(1, 1), (2, 2)], [(1, 1), (2, 2), (3, 3)])
    solution = solve_exact_enumeration(problem)
    assert solution.pairs == {1: 1, 2: 2}
    assert solution.objective_value == 0.0


def test_oversized_component_is_infeasible():
    problem = _problem([(5, 5)], [(4, 4), (4, 4), (4, 4)])
    with pytest.raises(InfeasibleAssignmentError) as err:
        solve_exact_enumeration(problem)
    assert err.value.rule == RULE_CAPACITY_FIT
    with pytest.raises(InfeasibleAssignmentError):
        solve_exact_matching(problem)


def test_random_3x5_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(30):
        comp_specs = rng.integers(1, 6, size=(3, 2))
        vm_specs = rng.integers(1, 11, size=(5, 2))
        problem = _problem(comp_specs.tolist(), vm_specs.tolist())
        expected = brute_force_optimum(problem)
        if expected is None:
            with pytest.raises(InfeasibleAssignmentError):
                solve_exact_enumeration(problem)
            continue
        assert solve_exact_enumeration(problem).objective_value == expected


def test_matching_agrees_with_enumeration_absolute():
    rng = np.random.default_rng(22)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(k, 9))
        problem = _problem(
            rng.integers(1, 6, size=(k, 2)).tolist(), rng.integers(1, 11, size=(m, 2)).tolist()
        )
        try:
            by_enum = solve_exact_enumeration(problem)
        except InfeasibleAssignmentError:
            with pytest.raises(InfeasibleAssignmentError):
                solve_exact_matching(problem)
            continue
        by_match = solve_exact_matching(problem)
        assert by_match.objective_value == by_enum.objective_value
        validate_assignment(problem, by_match.pairs)


def test_matching_agrees_with_enumeration_normalized():
    rng = np.random.default_rng(23)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        problem = _problem(
            rng.integers(1, 6, size=(k, 2)).tolist(),
            rng.integers(1, 11, size=(8, 2)).tolist(),
            ObjectiveMode.NORMALIZED_SURPLUS,
        )
        try:
            by_enum = solve_exact_enumeration(problem)
        except InfeasibleAssignmentError:
            continue
        by_match = solve_exact_matching(problem)
        assert by_match.objective_value == pytest.approx(by_enum.objective_value, abs=1e-12)


def test_tie_breaking_prefers_low_ids():
    # Two interchangeable machines: the earlier one must win for f1.
    problem = _problem([(2, 2), (2, 2)], [(3, 3), (3, 3), (9, 9)])
    for solver in (solve_exact_enumeration, solve_exact_matching):
        assert solver(problem).pairs == {1: 1, 2: 2}


def test_identity_inventory_is_exact():
    scenario = load(FIXTURES / "canonical_scenario.json")
    padded = identity_scenario(
        scenario.subnet,
        extra_vms=tuple(_vm(j + 1, 12, 12) for j in range(92)),
    )
    problem = AssignmentProblem(padded.subnet.components, padded.vms)
    assert solve_exact_matching(problem).objective_value == 0.0


def test_canonical_fixture_matches_recorded_optimum():
    scenario = load(FIXTURES / "canonical_scenario.json")
    recorded = json.loads((FIXTURES / "canonical_oracle.json").read_text())
    for mode in ObjectiveMode:
        solution = solve_exact_matching(
            AssignmentProblem(scenario.subnet.components, scenario.vms, mode)
        )
        assert solution.objective_value == recorded[mode.value]["objective_value"]
        assert {str(c): v for c, v in solution.pairs.items()} == recorded[mode.value]["pairs"]


def test_canonical_truncations_cross_check_enumeration():
    scenario = load(FIXTURES / "canonical_scenario.json")
    for k, m in ((3, 8), (4, 7), (6, 8)):
        problem = AssignmentProblem(scenario.subnet.components[:k], scenario.vms[:m])
        try:
            by_enum = solve_exact_enumeration(problem)
        except InfeasibleAssignmentError:
            with pytest.raises(InfeasibleAssignmentError):
                solve_exact_matching(problem)
            continue
        assert solve_exact_matching(problem).objective_value == by_enum.objective_value


def test_extra_machine_never_hurts():
    rng = np.random.default_rng(24)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(k, 7))
        comp_specs = rng.integers(1, 6, size=(k, 2)).tolist()
        vm_specs = rng.integers(1, 11, size=(m, 2)).tolist()
        base = _problem(comp_specs, vm_specs)
        extended = _problem(comp_specs, vm_specs + [[int(rng.integers(1, 11))] * 2])
        try:
            before = solve_exact_matching(base).objective_value
        except InfeasibleAssignmentError:
            continue
        assert solve_exact_matching(extended).objective_value <= before


def test_enumeration_vm_guard():
    problem = AssignmentProblem(
        (_comp(1, 1, 1),), tuple(_vm(j + 1, 2, 2) for j in range(11))
    )
    with pytest.raises(SizeLimitError):
        solve_exact_enumeration(problem)
    # the matching route has no such guard
    assert solve_exact_matching(problem).pairs == {1: 1}


def test_occupied_machines_are_not_candidates():
    vms = (
        _vm(1, 5, 5).occupy(2),
        _vm(2, 5, 5),
    )
    problem = AssignmentProblem((_comp(1, 1, 1),), vms)
    solution = solve_exact_matching(problem)
    assert solution.pairs == {1: 2}


def test_more_components_than_machines_is_infeasible():
    problem = _problem([(1, 1), (1, 1)], [(2, 2)])
    with pytest.raises(InfeasibleAssignmentError):
        solve_exact_matching(problem)


def test_objective_recomputation_is_shared():
    problem = _problem([(1, 2), (3, 1)], [(4, 4), (3, 3), (5, 2)])
    solution = solve_exact_matching(problem)
    assert solution.objective_value == assignment_objective(problem, solution.pairs)


def test_validate_assignment_rules():
    problem = _problem([(1, 1), (1, 1)], [(2, 2), (2, 2), (2, 2)])
    validate_assignment(problem, {1: 1, 2: 2})
    with pytest.raises(InfeasibleAssignmentError, match="component-placed-once"):
        validate_assignment(problem, {1: 1})
    with pytest.raises(InfeasibleAssignmentError, match="at-most-one"):
        validate_assignment(problem, {1: 1, 2: 1})
    tight = _problem([(3, 3)], [(2, 2), (4, 4)])
    with pytest.raises(InfeasibleAssignmentError, match="capacity-fit"):
        validate_assignment(tight, {1: 1})


@st.composite
def small_problems(draw):
    """Integer instances small enough for enumeration, some machines occupied."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, 9))
    demand = st.tuples(st.integers(1, 5), st.integers(1, 5))
    capacity = st.tuples(st.integers(1, 8), st.integers(1, 8))
    comp_specs = draw(st.lists(demand, min_size=k, max_size=k))
    vm_specs = draw(st.lists(capacity, min_size=m, max_size=m))
    occupied = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    problem = _problem(comp_specs, vm_specs, draw(st.sampled_from(list(ObjectiveMode))))
    vms = tuple(vm.occupy(1) if taken else vm for vm, taken in zip(problem.vms, occupied))
    return AssignmentProblem(problem.components, vms, problem.objective_mode)


@settings(derandomize=True, database=None, max_examples=300)
@given(small_problems())
def test_matching_reproduces_enumeration_tie_order(problem):
    try:
        by_enum = solve_exact_enumeration(problem)
    except InfeasibleAssignmentError as enum_err:
        with pytest.raises(InfeasibleAssignmentError) as match_err:
            solve_exact_matching(problem)
        assert match_err.value.rule == enum_err.rule
        return
    by_match = solve_exact_matching(problem)
    if problem.objective_mode is ObjectiveMode.ABSOLUTE_SURPLUS:
        assert by_match.pairs == by_enum.pairs
        assert by_match.objective_value.hex() == by_enum.objective_value.hex()
    else:
        assert by_match.objective_value == pytest.approx(by_enum.objective_value, abs=1e-12)


def test_cost_matrix_entries_equal_pair_cost():
    scenario = generate(5)
    for mode in ObjectiveMode:
        problem = AssignmentProblem(scenario.subnet.components, scenario.vms, mode)
        comps, vms, cost = _cost_matrix(problem)
        assert cost.shape == (len(scenario.subnet.components), scenario.num_vms)
        for i, comp in enumerate(comps):
            for j, vm in enumerate(vms):
                if _fits(comp, vm):
                    assert cost[i, j] == pair_cost(comp, vm, mode)
                else:
                    assert cost[i, j] == math.inf
    comp, vm = scenario.subnet.components[0], scenario.vms[0]
    assert isinstance(pair_cost(comp, vm, ObjectiveMode.ABSOLUTE_SURPLUS), int)


def _hopcroft_karp_feasible(problem):
    """A matching that places every component on the fit graph of the
    available machines."""
    graph = nx.Graph()
    top = [("c", c.id) for c in problem.components]
    graph.add_nodes_from(top)
    graph.add_nodes_from(("v", v.id) for v in problem.vms)
    graph.add_edges_from(
        (("c", c.id), ("v", v.id))
        for c in problem.components
        for v in problem.vms
        if v.available and _fits(c, v)
    )
    matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=top)
    return len(matching) // 2 == len(problem.components)


def test_feasibility_check_agrees_with_hopcroft_karp():
    rng = np.random.default_rng(25)
    verdicts = []
    for _ in range(300):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, 10))
        problem = _problem(
            rng.integers(1, 6, size=(k, 2)).tolist(), rng.integers(1, 7, size=(m, 2)).tolist()
        )
        taken = rng.random(m) < 0.2
        problem = AssignmentProblem(
            problem.components,
            tuple(vm.occupy(1) if t else vm for vm, t in zip(problem.vms, taken)),
        )
        verdict = has_feasible_assignment(problem)
        assert verdict == _hopcroft_karp_feasible(problem)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_generate_feasibility_draws_agree_with_hopcroft_karp(monkeypatch):
    import vnfcmap.scenario as scenario_mod

    seen = []

    def recording(problem):
        verdict = has_feasible_assignment(problem)
        seen.append((problem, verdict))
        return verdict

    monkeypatch.setattr(scenario_mod, "has_feasible_assignment", recording)
    for seed in range(20):
        generate(seed, GenerationParams(num_vms=8, cap_range=(2, 6)))
    assert any(not verdict for _, verdict in seen)
    for problem, verdict in seen:
        assert verdict == _hopcroft_karp_feasible(problem)


def _draw(rng, special=False):
    """A small resource amount: mostly an integer, so that equal costs are
    common, else a half-integer or an arbitrary float; with ``special``,
    sometimes inf or NaN."""
    u = rng.random()
    if special and u < 0.2:
        return math.inf if u < 0.1 else math.nan
    value = int(rng.integers(1, 7))
    if u < 0.6:
        return value
    return value + 0.5 if u < 0.8 else float(rng.uniform(1, 7))


def _random_instance(rng, special=False):
    """Up to 5 components against up to 7 machines, often fewer machines
    than components."""
    k, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
    comps = tuple(_comp(i + 1, _draw(rng, special), _draw(rng, special)) for i in range(k))
    vms = tuple(_vm(j + 1, _draw(rng, special), _draw(rng, special)) for j in range(m))
    return comps, vms


def _has_tie(comps, vms, mode):
    """Whether some component has two hosts of equal cost."""
    for comp in comps:
        costs = [pair_cost(comp, vm, mode) for vm in vms if vm.available and vm.fits(comp)]
        if len(set(costs)) < len(costs):
            return True
    return False


def _outcome(solve, *args):
    """A route's answer: its pairs and objective bits, or its error's rule and detail."""
    try:
        result = solve(*args)
    except InfeasibleAssignmentError as err:
        return "infeasible", err.rule, err.detail
    if isinstance(result, dict):
        return "mapped", result
    return "mapped", result.pairs, result.objective_value.hex()


# inf - inf and inf / inf make NaN costs, which the instances include on purpose.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_enumeration_matches_pairwise_reference():
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(400):
        comps, vms = _random_instance(rng, special=True)
        vms = tuple(vm.occupy(1) if rng.random() < 0.2 else vm for vm in vms)
        mode = list(ObjectiveMode)[int(rng.integers(2))]
        problem = AssignmentProblem(comps, vms, mode)
        outcome = _outcome(solve_exact_enumeration, problem)
        assert outcome == _outcome(reference_enumeration, problem)
        # The second word tells the three infeasibility texts apart.
        seen.add(outcome[0] if outcome[0] == "mapped" else outcome[2].split()[1])
        if _has_tie(comps, vms, mode):
            seen.add("tie")
        if any(not vm.available for vm in vms):
            seen.add("occupied")
        if any(math.isnan(vm.compute_cap) or math.isinf(vm.storage_cap) for vm in vms):
            seen.add("non-finite")
        if outcome[1:] == (RULE_CAPACITY_FIT, "no injective feasible assignment exists"):
            if np.isnan(_cost_matrix(problem)[2]).any():
                seen.add("nan cost")
    assert seen == {
        "mapped", "components", "available", "injective", "tie", "occupied", "non-finite",
        "nan cost",
    }


def test_greedy_best_fit_matches_pairwise_reference():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(2000):
        comps, vms = _random_instance(rng)
        outcome = _outcome(greedy_best_fit, comps, vms)
        assert outcome == _outcome(reference_greedy_best_fit, comps, vms)
        seen.add(outcome[0])
        if _has_tie(comps, vms, ObjectiveMode.NORMALIZED_SURPLUS):
            seen.add("tie")
        if len(vms) < len(comps):
            seen.add("fewer machines")
        if any(isinstance(vm.compute_cap, float) for vm in vms):
            seen.add("float")
    assert seen == {"mapped", "infeasible", "tie", "fewer machines", "float"}


def test_greedy_best_fit_skips_occupied_machines():
    comps = (_comp(1, 2, 2), _comp(2, 2, 2))
    vms = (_vm(1, 2, 2).occupy(2), _vm(2, 3, 3), _vm(3, 2, 2))
    assert greedy_best_fit(comps, vms) == {1: 3, 2: 2}
    with pytest.raises(InfeasibleAssignmentError, match="component 2"):
        greedy_best_fit(comps, vms[:2])
