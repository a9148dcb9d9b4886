import copy
import json
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import identity_scenario
from vnfcmap.infra import VmPlacement
from vnfcmap.model import PhysicalMachine, VirtualMachine, make_slice
from vnfcmap.oracle import AssignmentProblem, solve_exact_matching
from vnfcmap.scenario import (
    GenerationParams,
    Scenario,
    ScenarioFormatError,
    ScenarioGenerationError,
    generate,
    load,
    placement_violations,
    save,
    scenario_from_dict,
    scenario_to_dict,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_same_seed_gives_byte_identical_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save(generate(123), a)
    save(generate(123), b)
    assert a.read_bytes() == b.read_bytes()
    assert generate(123) == generate(123)


def test_generate_reproduces_canonical_fixture():
    recorded = json.loads((FIXTURES / "canonical_scenario.json").read_text())
    assert scenario_to_dict(generate(42)) == recorded


def test_different_seeds_differ():
    assert generate(1) != generate(2)


def test_generated_requirements_respect_dominance():
    for seed in range(6):
        subnet = generate(seed, GenerationParams(num_vms=12)).subnet
        cu_c = sum(c.compute_req for c in subnet.components[:3])
        du_c = sum(c.compute_req for c in subnet.components[3:])
        cu_s = sum(c.storage_req for c in subnet.components[:3])
        du_s = sum(c.storage_req for c in subnet.components[3:])
        assert cu_c >= du_c and cu_s >= du_s


def test_generated_values_stay_in_ranges():
    params = GenerationParams(num_vms=30, req_range=(1, 4), cap_range=(2, 7))
    scenario = generate(9, params)
    for comp in scenario.subnet.components:
        assert 1 <= comp.compute_req <= 4 and 1 <= comp.storage_req <= 4
    for vm in scenario.vms:
        assert 2 <= vm.compute_cap <= 7 and 2 <= vm.storage_cap <= 7


def test_every_generated_scenario_is_feasible():
    for seed in (0, 5, 17, 92):
        scenario = generate(seed, GenerationParams(num_vms=10))
        solution = solve_exact_matching(
            AssignmentProblem(scenario.subnet.components, scenario.vms)
        )
        assert len(solution.pairs) == 8


def test_identity_scenario_has_zero_optimum():
    subnet = make_slice([4, 3, 3, 2, 2, 2, 2, 2], [3, 3, 3, 2, 2, 2, 1, 1])
    scenario = identity_scenario(subnet)
    assert scenario.num_vms == 8
    solution = solve_exact_matching(AssignmentProblem(scenario.subnet.components, scenario.vms))
    assert solution.objective_value == 0.0


def test_generation_error_when_dominance_impossible():
    # With all requirements forced equal, five distributed-unit components
    # always outweigh three centralized-unit ones.
    with pytest.raises(ScenarioGenerationError, match="cu-dominance"):
        generate(0, GenerationParams(num_vms=10, req_range=(3, 3)))


def test_generation_error_when_capacity_hopeless():
    params = GenerationParams(num_vms=8, req_range=(1, 2), cap_range=(1, 1))
    with pytest.raises(ScenarioGenerationError, match="feasible"):
        generate(0, params)


def test_roundtrip_preserves_structure(tmp_path):
    scenario = generate(55, GenerationParams(num_vms=15))
    path = tmp_path / "scenario.json"
    save(scenario, path)
    assert load(path) == scenario


def test_missing_version_is_named():
    with pytest.raises(ScenarioFormatError, match="version") as err:
        scenario_from_dict({"slice": {}, "vms": []})
    assert err.value.field == "version"


def test_unsupported_version_rejected():
    doc = scenario_to_dict(generate(1, GenerationParams(num_vms=9)))
    doc["version"] = 99
    with pytest.raises(ScenarioFormatError, match="version"):
        scenario_from_dict(doc)


def test_malformed_component_field_path():
    doc = scenario_to_dict(generate(2, GenerationParams(num_vms=9)))
    del doc["slice"]["components"][2]["storage_req"]
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc)
    assert err.value.field == "slice.components[2].storage_req"


def test_unknown_kind_rejected():
    doc = scenario_to_dict(generate(2, GenerationParams(num_vms=9)))
    doc["slice"]["components"][0]["kind"] = "NOPE"
    with pytest.raises(ScenarioFormatError, match="kind"):
        scenario_from_dict(doc)


def test_dominance_violation_in_file_is_validation_error():
    doc = scenario_to_dict(generate(3, GenerationParams(num_vms=9)))
    for comp in doc["slice"]["components"][:3]:
        comp["compute_req"] = 0
    with pytest.raises(ValueError, match="cu-dominance"):
        scenario_from_dict(doc)


def test_not_json_reports_document():
    with pytest.raises(ScenarioFormatError, match="JSON"):
        load(FIXTURES / "../test_scenario.py")


def test_substrate_roundtrip_and_validation(tmp_path):
    base = generate(4, GenerationParams(num_vms=8, cap_range=(3, 5)))
    vms = base.vms[:2]
    pms = (PhysicalMachine(id=1, compute_cap=20, storage_cap=20, max_vm_count=2),)
    placement = VmPlacement(x=((1,), (1,)), pm_active=(True,))
    scenario = Scenario(subnet=base.subnet, vms=vms, seed=4, pms=pms, placement=placement)
    assert placement_violations(scenario) == []
    path = tmp_path / "sub.json"
    save(scenario, path)
    assert load(path) == scenario

    # break the placement: point both machines at a substrate that cannot hold them
    doc = scenario_to_dict(scenario)
    doc["pms"][0]["compute_cap"] = 1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="substrate"):
        load(bad_path)
    relaxed = load(bad_path, validate_placement=False)
    assert placement_violations(relaxed) != []


def test_placement_without_pms_rejected():
    base = generate(5, GenerationParams(num_vms=8, cap_range=(3, 5)))
    with pytest.raises(ValueError, match="substrate"):
        Scenario(
            subnet=base.subnet,
            vms=base.vms[:2],
            placement=VmPlacement(x=((1,), (0,)), pm_active=(True,)),
        )


def test_vm_ids_must_be_sequential():
    base = generate(6, GenerationParams(num_vms=8, cap_range=(3, 5)))
    with pytest.raises(ValueError, match="1..m"):
        Scenario(subnet=base.subnet, vms=(base.vms[1], base.vms[0], base.vms[2]))


def test_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(num_vms=4)
    with pytest.raises(ValueError):
        GenerationParams(req_range=(0, 3))
    with pytest.raises(ValueError):
        GenerationParams(cap_range=(5, 2))


def test_canonical_fixture_loads():
    scenario = load(FIXTURES / "canonical_scenario.json")
    assert scenario.seed == 42
    assert scenario.num_vms == 100


def _substrate_doc():
    base = generate(4, GenerationParams(num_vms=8, cap_range=(3, 5)))
    pms = (PhysicalMachine(id=1, compute_cap=20, storage_cap=20, max_vm_count=2),)
    placement = VmPlacement(x=((1,), (1,)), pm_active=(True,))
    return scenario_to_dict(
        Scenario(
            subnet=base.subnet, vms=base.vms[:2], seed=4, params=base.params, pms=pms,
            placement=placement,
        )
    )


@pytest.mark.parametrize(
    "path,value",
    [
        (("seed",), "4"),
        (("seed",), 4.5),
        (("params", "num_vms"), "100"),
        (("params", "req_range"), [1]),
        (("params", "cap_range"), [3, "5"]),
        (("pms",), {"id": 1}),
        (("pms", 0, "id"), "1"),
        (("pms", 0, "compute_cap"), "20"),
        (("pms", 0, "compute_cap"), math.nan),
        (("pms", 0, "storage_cap"), math.inf),
        (("pms", 0, "max_vm_count"), 2.5),
        (("pms", 0, "active"), "yes"),
        (("placement", "x"), 5),
        (("placement", "x"), [5, 5]),
        (("placement", "pm_active"), True),
    ],
    ids=[
        "string-seed",
        "float-seed",
        "string-num-vms",
        "one-int-range",
        "string-in-range",
        "pms-not-a-list",
        "string-pm-id",
        "string-pm-capacity",
        "nan-pm-capacity",
        "infinite-pm-capacity",
        "float-max-vm-count",
        "string-active",
        "x-not-a-list",
        "x-rows-not-lists",
        "pm-active-not-a-list",
    ],
)
def test_substrate_and_generation_fields_are_checked(path, value):
    doc = _substrate_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc, validate_placement=False)
    expected = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    assert err.value.field == expected.lstrip(".")


_AMOUNTS = st.integers(1, 10**6) | st.floats(1e-3, 1e6)


@st.composite
def substrate_scenarios(draw):
    subnet = generate(draw(st.integers(0, 3)), GenerationParams(num_vms=8)).subnet
    num_vms = draw(st.integers(1, 5))
    vms = tuple(
        VirtualMachine(id=j + 1, compute_cap=draw(_AMOUNTS), storage_cap=draw(_AMOUNTS))
        for j in range(num_vms)
    )
    pms = tuple(
        PhysicalMachine(
            id=draw(st.integers(-5, 50)),
            compute_cap=draw(_AMOUNTS),
            storage_cap=draw(_AMOUNTS),
            max_vm_count=draw(st.integers(1, 9)),
            active=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    row = st.tuples(*[st.integers(0, 1)] * len(pms))
    placement = draw(
        st.none()
        | st.builds(
            VmPlacement,
            x=st.tuples(*[row] * num_vms),
            pm_active=st.tuples(*[st.booleans()] * len(pms)),
        )
    )
    params = draw(st.none() | st.builds(GenerationParams, num_vms=st.integers(8, 200)))
    seed = draw(st.none() | st.integers(0, 2**32))
    return Scenario(subnet=subnet, vms=vms, seed=seed, params=params, pms=pms, placement=placement)


@settings(derandomize=True, database=None, max_examples=200)
@given(substrate_scenarios())
def test_scenario_dict_roundtrip_is_exact(scenario):
    doc = scenario_to_dict(scenario)
    loaded = scenario_from_dict(copy.deepcopy(doc), validate_placement=False)
    assert loaded == scenario
    # equal numbers of another type (3 against 3.0) would print differently
    assert json.dumps(scenario_to_dict(loaded)) == json.dumps(doc)


def test_format_error_survives_pickling():
    # sweep workers send it back to the parent process
    err = pickle.loads(pickle.dumps(ScenarioFormatError("params.num_vms", "must be an integer")))
    assert (err.field, err.detail) == ("params.num_vms", "must be an integer")
    assert str(err) == "params.num_vms: must be an integer"
