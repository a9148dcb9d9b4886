import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (
    _fits,
    crafted_tie_scenario,
    identity_scenario,
    reference_canonical_matching,
    reference_enumeration,
    reference_greedy_best_fit,
    reference_has_feasible_assignment,
    reference_objective,
)
from vnfcmap import oracle
from vnfcmap.model import VirtualMachine, VnfcKind, VnfComponent, make_slice
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
from vnfcmap.scenario import GenerationParams, generate, load

FIXTURES = Path(__file__).parent / "fixtures"


def _comp(cid, compute, storage):
    return VnfComponent(id=cid, kind=VnfcKind(cid), compute_req=compute, storage_req=storage)


def _vm(vid, compute, storage):
    return VirtualMachine(id=vid, compute_cap=compute, storage_cap=storage)


def _problem(comp_specs, vm_specs, mode=ObjectiveMode.ABSOLUTE_SURPLUS):
    comps = tuple(_comp(i + 1, c, s) for i, (c, s) in enumerate(comp_specs))
    vms = tuple(_vm(j + 1, c, s) for j, (c, s) in enumerate(vm_specs))
    return AssignmentProblem(comps, vms, mode)


def _with_occupied(problem, occupied):
    vms = tuple(replace(vm, hosted=1) if taken else vm for vm, taken in zip(problem.vms, occupied))
    return AssignmentProblem(problem.components, vms, problem.objective_mode)


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
        VirtualMachine(1, 5, 5, hosted=2),
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


def test_validate_assignment_names_components_not_in_the_slice():
    scenario = generate(1, GenerationParams(num_vms=10))
    problem = AssignmentProblem(scenario.subnet.components, scenario.vms)
    pairs = dict(solve_exact_matching(problem).pairs)
    spare = next(vm for vm in range(1, 11) if vm not in pairs.values())
    with pytest.raises(InfeasibleAssignmentError, match=r"components \[9\] are not in the slice") as err:
        validate_assignment(problem, {**pairs, 9: spare})
    assert err.value.rule == oracle.RULE_COMPONENT_PLACED
    assert "unplaced" not in str(err.value)
    del pairs[3]
    with pytest.raises(InfeasibleAssignmentError) as err:
        validate_assignment(problem, {**pairs, 9: spare})
    assert err.value.detail == "components [3] unplaced; components [9] are not in the slice"


@pytest.mark.parametrize("vm_id", [0, -1, 4])
def test_validate_assignment_refuses_a_machine_outside_the_inventory(vm_id):
    problem = _problem([(1, 1), (1, 1)], [(2, 2), (2, 2), (2, 2)])
    with pytest.raises(InfeasibleAssignmentError) as err:
        validate_assignment(problem, {1: 1, 2: vm_id})
    assert err.value.rule == RULE_CAPACITY_FIT
    assert err.value.detail == f"component 2 does not fit vm {vm_id}"


@pytest.mark.parametrize("ids", [(2, 1), (1, 3), (1, 1)], ids=["order", "gap", "duplicate"])
def test_problem_refuses_ids_that_are_not_one_to_n_in_order(ids):
    comps = tuple(_comp(1, 1, 1) for _ in ids)
    vms = tuple(_vm(j + 1, 2, 2) for j in range(3))
    with pytest.raises(ValueError, match=r"^component ids must be 1\.\.k in order$"):
        AssignmentProblem(tuple(replace(c, id=i) for c, i in zip(comps, ids)), vms)
    with pytest.raises(ValueError, match=r"^vm ids must be 1\.\.m in order$"):
        AssignmentProblem(comps[:1], tuple(_vm(i, 2, 2) for i in ids))


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
    return _with_occupied(problem, occupied)


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


# Against integer capacities, the shifts put equal costs inside the walk's
# 1e-9 tie tolerance, between it and the 2e-9 skip margin, and beyond both.
_CAPACITY_SHIFTS = (0.0, 1e-10, 5e-10, 1e-9, 1.5e-9, 2e-9, 3e-9, 1e-8)


@st.composite
def near_tie_problems(draw):
    """Eight components with demands in 1..5 against up to 30 machines with
    capacities in 3..10, as the benchmark draws them, some machines occupied
    and every capacity shifted by one of ``_CAPACITY_SHIFTS``."""
    m = draw(st.integers(1, 30))
    demand = st.tuples(st.integers(1, 5), st.integers(1, 5))
    amount = st.builds(
        lambda cap, shift: cap + shift, st.integers(3, 10), st.sampled_from(_CAPACITY_SHIFTS)
    )
    comp_specs = draw(st.lists(demand, min_size=8, max_size=8))
    vm_specs = draw(st.lists(st.tuples(amount, amount), min_size=m, max_size=m))
    occupied = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    problem = _problem(comp_specs, vm_specs, draw(st.sampled_from(list(ObjectiveMode))))
    return _with_occupied(problem, occupied)


@settings(derandomize=True, database=None, max_examples=500)
@given(near_tie_problems())
def test_pruned_walk_matches_the_unpruned_walk_on_near_ties(problem):
    try:
        expected = reference_canonical_matching(problem)
    except InfeasibleAssignmentError as err:
        with pytest.raises(InfeasibleAssignmentError) as pruned_err:
            solve_exact_matching(problem)
        assert (pruned_err.value.rule, pruned_err.value.detail) == (err.rule, err.detail)
        return
    solution = solve_exact_matching(problem)
    assert solution.pairs == expected.pairs
    assert solution.objective_value.hex() == expected.objective_value.hex()


@pytest.fixture
def solve_calls(monkeypatch):
    """The assignment solves made while the test runs: each cost matrix, and
    the columns its optimal matching uses."""
    calls = []
    solve = oracle.linear_sum_assignment

    def counting(cost):
        rows, cols = solve(cost)
        calls.append((cost.copy(), frozenset(cols.tolist())))
        return rows, cols

    monkeypatch.setattr(oracle, "linear_sum_assignment", counting)
    return calls


def test_canonical_fixture_needs_few_assignment_solves(solve_calls):
    scenario = load(FIXTURES / "canonical_scenario.json")
    for mode in ObjectiveMode:
        solve_calls.clear()
        solve_exact_matching(AssignmentProblem(scenario.subnet.components, scenario.vms, mode))
        # The unpruned walk makes 281 and 282 solves here.
        assert 1 <= len(solve_calls) <= 40, (mode, len(solve_calls))


def test_crafted_tie_body_needs_solves_bounded_by_components(solve_calls):
    scenario = crafted_tie_scenario(4000)
    solution = solve_exact_matching(AssignmentProblem(scenario.subnet.components, scenario.vms))
    # A solve for every tied (7, 7) machine below the small ones makes 19,968.
    assert len(solve_calls) <= 8 * len(scenario.subnet.components)
    # The optimum uses only the eight small machines, at the highest ids.
    assert solution.pairs == {c: 4000 - 8 + c for c in range(1, 9)}
    assert solution.objective_value == 38


def test_crafted_tie_body_matches_the_unpruned_walk():
    scenario = crafted_tie_scenario(100)
    for mode in ObjectiveMode:
        problem = AssignmentProblem(scenario.subnet.components, scenario.vms, mode)
        expected = reference_canonical_matching(problem)
        solution = solve_exact_matching(problem)
        assert solution.pairs == expected.pairs
        assert solution.objective_value.hex() == expected.objective_value.hex()


@st.composite
def tie_heavy_problems(draw):
    """Up to eight components against up to 60 machines whose capacities come
    from at most three distinct pairs, so that most candidates tie, some
    machines occupied."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 60))
    demand = st.tuples(st.integers(1, 5), st.integers(1, 5))
    pool = draw(st.lists(st.tuples(st.integers(2, 10), st.integers(2, 10)), min_size=1, max_size=3))
    comp_specs = draw(st.lists(demand, min_size=k, max_size=k))
    vm_specs = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    occupied = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    problem = _problem(comp_specs, vm_specs, draw(st.sampled_from(list(ObjectiveMode))))
    return _with_occupied(problem, occupied)


@settings(derandomize=True, database=None, max_examples=300)
@given(tie_heavy_problems())
def test_component_bounded_walk_matches_the_unpruned_walk_on_ties(problem):
    try:
        expected = reference_canonical_matching(problem)
    except InfeasibleAssignmentError as err:
        with pytest.raises(InfeasibleAssignmentError) as walk_err:
            solve_exact_matching(problem)
        assert (walk_err.value.rule, walk_err.value.detail) == (err.rule, err.detail)
        return
    solution = solve_exact_matching(problem)
    assert solution.pairs == expected.pairs
    assert solution.objective_value.hex() == expected.objective_value.hex()


_TIED = _problem([(2, 2), (1, 1), (1, 1)], [(3, 3)] * 20 + [(2, 2), (1, 1), (2, 2)])


def test_tied_candidates_outside_the_remainder_get_no_solve(solve_calls):
    # f1 (2, 2) costs 2 on each of the twenty (3, 3) machines and 0 on
    # machines 21 and 23; the optimum 2 puts f1 on 21, f2 on 22 and f3 on 23.
    # The rows below, solved once, cost 2 (f2 on 22, f3 on 21 or 23), so the
    # (3, 3) machines miss the target by 2 and get no solve.
    expected = reference_canonical_matching(_TIED)
    reference_solves = len(solve_calls)
    solve_calls.clear()
    solution = solve_exact_matching(_TIED)
    assert solution.pairs == expected.pairs == {1: 21, 2: 22, 3: 23}
    assert solution.objective_value.hex() == expected.objective_value.hex()
    # The total, the rows below f1, at most machine 21, the row below f2 and
    # machine 22; a solve per fitting candidate makes 1 + 21 + 21.
    assert reference_solves == 43 and len(solve_calls) <= 5, (reference_solves, solve_calls)


def _rule_cases():
    crafted = crafted_tie_scenario(100)
    for mode in ObjectiveMode:
        # Machine 1, a (7, 7), is the first candidate the row minima of the
        # rows below admit, though no optimum of those rows uses it.
        yield pytest.param(
            AssignmentProblem(crafted.subnet.components, crafted.vms, mode),
            id=f"crafted-{mode.value}",
        )
    yield pytest.param(_TIED, id="tied")
    for seed, mode in zip((3, 4), ObjectiveMode):
        scenario = generate(seed, GenerationParams(num_vms=20))
        problem = AssignmentProblem(scenario.subnet.components, scenario.vms, mode)
        occupied = [j % 5 == 0 for j in range(20)]
        yield pytest.param(_with_occupied(problem, occupied), id=f"generated-{seed}")


@pytest.mark.parametrize("problem", _rule_cases())
def test_each_position_solves_the_rows_below_then_only_the_machines_they_use(solve_calls, problem):
    solution = solve_exact_matching(problem)
    cost = _cost_matrix(problem)
    assert np.array_equal(solve_calls[0][0], cost)
    remaining = list(range(len(problem.vms)))
    solves = 1
    for pos, comp in enumerate(problem.components[:-1]):
        below = cost[pos + 1 :]
        calls = [call for call in solve_calls if len(call[0]) == len(below)]
        (first, used), further = calls[0], calls[1:]
        assert np.array_equal(first, below[:, remaining]), pos
        assert len(further) <= len(used), pos
        for matrix, _ in further:
            assert any(np.array_equal(matrix, below[:, np.delete(remaining, k)]) for k in used), pos
        remaining.remove(solution.pairs[comp.id] - 1)
        solves += len(calls)
    assert solves == len(solve_calls)
    assert solution.pairs == reference_canonical_matching(problem).pairs


# Runs in a fresh interpreter, which has loaded nothing the test process has.
_SOLVE_THEN_IMPORT_SCIPY = """
import json, sys
from vnfcmap import oracle
from vnfcmap.oracle import AssignmentProblem, solve_exact_matching
from vnfcmap.scenario import load

scenario = load(sys.argv[1])
solution = solve_exact_matching(AssignmentProblem(scenario.subnet.components, scenario.vms))
solved_with = oracle.assignment_solver()
loaded = sys.modules.get("scipy.optimize._lsap")
optimize_after_solve = "scipy.optimize" in sys.modules
import scipy.optimize
print(json.dumps({
    "optimize_after_solve": optimize_after_solve,
    "module_reused": loaded is not None and sys.modules["scipy.optimize._lsap"] is loaded,
    "same_function": solved_with is scipy.optimize.linear_sum_assignment,
    "pairs": {str(c): v for c, v in solution.pairs.items()},
}))
"""


def test_solver_is_the_function_scipy_optimize_exports():
    src = str(Path(oracle.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _SOLVE_THEN_IMPORT_SCIPY, str(FIXTURES / "canonical_scenario.json")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    run = json.loads(result.stdout)
    recorded = json.loads((FIXTURES / "canonical_oracle.json").read_text())
    assert not run["optimize_after_solve"]
    assert run["module_reused"]
    assert run["same_function"]
    assert run["pairs"] == recorded[ObjectiveMode.ABSOLUTE_SURPLUS.value]["pairs"]


def test_solver_falls_back_to_scipy_optimize_without_the_extension_file(monkeypatch):
    lookups = []

    def no_file():
        lookups.append(None)
        return None

    monkeypatch.setattr(oracle, "_lsap_file", no_file)
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap", raising=False)
    oracle.assignment_solver.cache_clear()
    scenario = load(FIXTURES / "canonical_scenario.json")
    recorded = json.loads((FIXTURES / "canonical_oracle.json").read_text())
    try:
        for mode in ObjectiveMode:
            solution = solve_exact_matching(
                AssignmentProblem(scenario.subnet.components, scenario.vms, mode)
            )
            expected = recorded[mode.value]
            assert solution.objective_value.hex() == expected["objective_value"].hex()
            assert {str(c): v for c, v in solution.pairs.items()} == expected["pairs"]
    finally:
        oracle.assignment_solver.cache_clear()
    assert lookups == [None]  # the fallback ran, once, for every solve


def test_cost_matrix_entries_equal_pair_cost():
    scenario = generate(5)
    occupied = [j % 3 == 1 for j in range(scenario.num_vms)]
    for mode in ObjectiveMode:
        problem = AssignmentProblem(scenario.subnet.components, scenario.vms, mode)
        problem = _with_occupied(problem, occupied)
        cost = _cost_matrix(problem)
        assert cost.shape == (len(scenario.subnet.components), scenario.num_vms)
        for i, comp in enumerate(problem.components):
            for j, vm in enumerate(problem.vms):
                assert (comp.id, vm.id) == (i + 1, j + 1)
                if _fits(comp, vm):
                    assert cost[i, j] == pair_cost(comp, vm, mode)
                else:
                    assert cost[i, j] == math.inf
    # Occupancy, not capacity, makes some of those columns inf.
    assert any(vm.fits(c) for c in problem.components for vm in problem.vms if not vm.available)
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
        if _fits(c, v)
    )
    matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=top)
    return len(matching) // 2 == len(problem.components)


def test_feasibility_check_agrees_with_hopcroft_karp():
    rng = np.random.default_rng(25)

    def few():  # often more components than machines
        k, m = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        comp_specs, vm_specs = rng.integers(1, 6, size=(k, 2)), rng.integers(1, 7, size=(m, 2))
        return _problem(comp_specs.tolist(), vm_specs.tolist())

    def many(m):
        # Most machines fit only small demands and a few fit larger ones, so
        # whether all eight components find hosts turns on those few.
        caps = rng.integers(1, 4, size=(m, 2))
        large = rng.choice(m, size=int(rng.integers(0, 12)), replace=False)
        caps[large] = rng.integers(3, 8, size=(len(large), 2))
        return _problem(rng.integers(1, 7, size=(8, 2)).tolist(), caps.tolist())

    for draw, count in ((few, 300), (lambda: many(100), 40), (lambda: many(400), 40)):
        verdicts = []
        for _ in range(count):
            problem = draw()
            taken = rng.random(len(problem.vms)) < 0.2
            problem = AssignmentProblem(
                problem.components,
                tuple(replace(vm, hosted=1) if t else vm for vm, t in zip(problem.vms, taken)),
            )
            verdict = has_feasible_assignment(problem)
            assert verdict == _hopcroft_karp_feasible(problem)
            verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts), count


def test_demand_above_2_53_is_judged_as_the_mask_judges_it():
    # Exactly, 2**53 + 1 exceeds 2**53; as float64 the two are equal, and the
    # allowed mask, the solvers and validate_assignment all compare float64.
    subnet = make_slice([2**53 + 1, 1, 1, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1])
    vms = (_vm(1, 2**53, 5),) + tuple(_vm(j, 2**54, 5) for j in range(2, 11))
    problem = AssignmentProblem(subnet.components, vms)
    assert vms[0].fits(subnet.components[0])
    solution = solve_exact_matching(problem)
    assert solution.pairs[1] == 1
    validate_assignment(problem, solution.pairs)
    pairs = greedy_best_fit(problem.components, problem.vms)
    assert pairs[1] == 1
    validate_assignment(problem, pairs)


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


@st.composite
def feasibility_problems(draw):
    """Up to eight components against up to ten machines, often fewer, with
    integer or float amounts and some machines occupied."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 10))
    demand = st.one_of(st.integers(0, 6), st.floats(0, 6))
    capacity = st.one_of(st.integers(1, 8), st.floats(0.25, 8))
    comp_specs = draw(st.lists(st.tuples(demand, demand), min_size=k, max_size=k))
    vm_specs = draw(st.lists(st.tuples(capacity, capacity), min_size=m, max_size=m))
    occupied = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    problem = _problem(comp_specs, vm_specs, draw(st.sampled_from(list(ObjectiveMode))))
    return _with_occupied(problem, occupied)


@settings(derandomize=True, database=None, max_examples=500)
@given(feasibility_problems())
# an occupied machine is the only host of a component
@example(_with_occupied(_problem([(1, 1), (2, 2)], [(2, 2), (1, 1), (3, 1)]), [True, False, False]))
# fewer machines than components
@example(_problem([(1, 1), (1, 1), (1, 1)], [(5, 5), (5, 5)]))
# a component no machine hosts
@example(_problem([(1, 1), (9, 1)], [(5, 5), (5, 5), (5, 5)]))
# float capacities, and the first component must give up its machine
@example(_problem([(1.5, 2.25), (2.5, 0.5)], [(2.5, 2.25), (1.5, 2.25), (0.75, 9.5)]))
def test_feasibility_check_matches_the_assignment_solve(problem):
    assert has_feasible_assignment(problem) == reference_has_feasible_assignment(problem)


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
    pick = np.random.default_rng(43)  # the pairings, apart from the instances' draws
    seen = set()
    for _ in range(400):
        comps, vms = _random_instance(rng, special=True)
        vms = tuple(replace(vm, hosted=1) if rng.random() < 0.2 else vm for vm in vms)
        mode = list(ObjectiveMode)[int(rng.integers(2))]
        problem = AssignmentProblem(comps, vms, mode)
        # Objective bits too: of the optimum below, and of any injective pairing.
        if len(comps) <= len(vms):
            chosen = pick.permutation(len(vms))[: len(comps)].tolist()
            pairs = {i + 1: j + 1 for i, j in enumerate(chosen)}
            objective = assignment_objective(problem, pairs)
            assert objective.hex() == reference_objective(problem, pairs).hex()
            for comp, vm in zip(comps, (vms[j] for j in chosen)):
                amounts = (comp.compute_req, comp.storage_req, vm.compute_cap, vm.storage_cap)
                kinds = {type(a).__name__ for a in amounts}
                seen.add((mode.value, kinds.pop() if len(kinds) == 1 else "mixed"))
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
            if np.isnan(_cost_matrix(problem)).any():
                seen.add("nan cost")
    assert seen == {
        "mapped", "components", "available", "injective", "tie", "occupied", "non-finite",
        "nan cost", *itertools.product([m.value for m in ObjectiveMode], ["int", "float", "mixed"]),
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
    vms = (VirtualMachine(1, 2, 2, hosted=2), _vm(2, 3, 3), _vm(3, 2, 2))
    assert greedy_best_fit(comps, vms) == {1: 3, 2: 2}
    with pytest.raises(InfeasibleAssignmentError, match="component 2"):
        greedy_best_fit(comps, vms[:2])
