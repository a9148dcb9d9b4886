import copy
import dataclasses
import hashlib
import json
import math
import pickle
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (
    REFERENCE_AMOUNT,
    REFERENCE_NUMBER,
    identity_scenario,
    reference_draw_requirements,
    reference_generate,
    reference_read_entry,
    reference_read_vms,
)
from vnfcmap.infra import VmPlacement
from vnfcmap.model import Inventory, PhysicalMachine, VirtualMachine, make_slice
from vnfcmap.oracle import AssignmentProblem, solve_exact_matching
from vnfcmap.scenario import (
    AMOUNT,
    MAX_AMOUNT,
    MAX_INTEGER_AMOUNT,
    NUMBER,
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
from vnfcmap import cli, scenario as scenario_mod
from vnfcmap.scenario import _MAX_FILE_BYTES, _draw_requirements, read_regular_file

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


def test_generated_documents_keep_their_bytes():
    """One digest over the documents of 300 seeds at each of four sizes,
    recorded when generation built one machine object per machine."""
    digest = hashlib.sha256()
    for m in (8, 10, 100, 400):
        for seed in range(300):
            doc = scenario_to_dict(generate(seed, GenerationParams(num_vms=m)))
            digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == "0f306bbe3fefea07b98f409231d18df7e37579725fd190787bffc148c82b647a"


def test_scenario_of_machines_equals_its_document_read_back(tmp_path):
    base = generate(5, GenerationParams(num_vms=12))
    vms = tuple(
        VirtualMachine(vm.id, vm.compute_cap, float(vm.storage_cap), 2 if vm.id == 3 else None)
        for vm in base.vms
    )
    built = Scenario(base.subnet, vms, seed=5, params=base.params)
    read = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(built))))
    assert isinstance(built.vms, Inventory) and isinstance(read.vms, Inventory)
    assert read == built and hash(read) == hash(built)
    assert tuple(read.vms) == vms
    assert read.vms.storage_caps == tuple(float(vm.storage_cap) for vm in base.vms)
    # A placement is written from its int8 matrix: entries given as ints,
    # bools or floats are saved as 0 and 1 and read back equal.
    pms = tuple(PhysicalMachine(k, 100, 100, max_vm_count=6) for k in (1, 2))
    for one, zero in ((1, 0), (True, False), (1.0, 0.0)):
        rows = tuple((zero, one) if j % 2 else (one, zero) for j in range(12))
        placed = Scenario(
            base.subnet, vms, seed=5, params=base.params, pms=pms,
            placement=VmPlacement(rows, (True, True)),
        )
        path = tmp_path / "placed.json"
        save(placed, path)
        written = json.loads(path.read_text())["placement"]["x"]
        assert {json.dumps(v) for row in written for v in row} == {"0", "1"}
        read = load(path)
        assert read == placed and hash(read) == hash(placed)
        assert read.placement.matrix.tolist() == [[1, 0], [0, 1]] * 6


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


def _generated(make, seed, params):
    """The file ``make`` generates, as text, or its refusal."""
    try:
        return json.dumps(scenario_to_dict(make(seed, params)))
    except ScenarioGenerationError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(8, 30),
    st.sampled_from([(1, 5), (1, 2**32 - 1), (1, 2**40), (3, MAX_INTEGER_AMOUNT)]),
)
def test_block_draw_generates_like_one_row_per_call(seed, num_vms, req_range):
    lo, hi = req_range
    # Half of the (1, 2**40) draws stay infeasible, so refusals are compared too.
    params = GenerationParams(num_vms=num_vms, req_range=req_range, cap_range=(hi // 2 + 1, hi))
    assert _generated(generate, seed, params) == _generated(reference_generate, seed, params)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        assert _draw_requirements(rng, lo, hi) == reference_draw_requirements(reference_rng, lo, hi)
    # The generator ends where one row per call leaves it.
    assert rng.integers(2**63) == reference_rng.integers(2**63)


def test_block_draw_refuses_like_one_row_per_call():
    params = GenerationParams(num_vms=10, req_range=(5, 5))
    assert _generated(generate, 0, params) == _generated(reference_generate, 0, params)
    assert "cu-dominance within 1000 draws" in _generated(generate, 0, params)


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
    assert json.dumps(scenario_to_dict(scenario)["pms"]) == (
        '[{"id": 1, "compute_cap": 20, "storage_cap": 20, "max_vm_count": 2, "active": true}]'
    )

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
    # A drawn amount above 2**53 would be refused by the readers of its file.
    GenerationParams(req_range=(3, MAX_INTEGER_AMOUNT), cap_range=(3, MAX_INTEGER_AMOUNT))
    with pytest.raises(ValueError, match="req_range"):
        GenerationParams(req_range=(1, MAX_INTEGER_AMOUNT + 1))
    with pytest.raises(ValueError, match="cap_range"):
        GenerationParams(cap_range=(3, 2**63 - 1))


@pytest.mark.parametrize(
    "fields",
    [
        {"num_vms": 8.5},
        {"num_vms": 9.0},
        {"req_range": (1.5, 5)},
        {"req_range": (1, True)},
        {"cap_range": (3, 10.0)},
        {"cap_range": ("3", 10)},
    ],
)
def test_params_take_integers_as_their_reader_does(fields):
    # num_vms=8.5 used to die in numpy's draw, and (1.5, 5) to generate a
    # scenario whose params no reader accepts.
    with pytest.raises(ValueError, match="must be integers"):
        GenerationParams(**fields)


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
        (("placement", "pm_active"), ["yes"]),
        (("placement", "x"), [[True], [1]]),
        (("placement", "x"), [[1.0], [1]]),
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
        "string-in-pm-active",
        "boolean-in-x",
        "float-in-x",
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


@pytest.mark.parametrize("ids", [(7, -3), (2, 1), (1, 1), (0, 1)])
def test_pm_ids_must_be_1_to_n_in_order(ids):
    # Violations name a PM by its position and the report by its id: the two agree.
    doc = _substrate_doc()
    doc["pms"] = [dict(doc["pms"][0], id=pm_id) for pm_id in ids]
    doc["placement"] = {"x": [[1, 0], [0, 1]], "pm_active": [True, True]}
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc, validate_placement=False)
    assert (err.value.field, err.value.detail) == ("<document>", "pm ids must be 1..n in order")
    doc["pms"] = [dict(doc["pms"][0], id=pm_id) for pm_id in (1, 2)]
    assert [pm.id for pm in scenario_from_dict(doc).pms] == [1, 2]


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
            id=k + 1,
            compute_cap=draw(_AMOUNTS),
            storage_cap=draw(_AMOUNTS),
            max_vm_count=draw(st.integers(1, 9)),
            active=draw(st.booleans()),
        )
        for k in range(draw(st.integers(1, 3)))
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


def test_hosted_machines_survive_save_and_load(tmp_path):
    base = generate(1)
    vms = tuple(
        VirtualMachine(vm.id, vm.compute_cap, vm.storage_cap, hosted=vm.id if vm.id <= 3 else None)
        for vm in base.vms
    )
    scenario = Scenario(subnet=base.subnet, vms=vms, seed=1, params=base.params)
    path = tmp_path / "hosted.json"
    save(scenario, path)
    assert load(path) == scenario
    entries = json.loads(path.read_text())["vms"]
    assert [entry.get("hosted") for entry in entries[:4]] == [1, 2, 3, None]
    assert sum("hosted" in entry for entry in entries) == 3


@pytest.mark.parametrize("value", [0, 9, 1.0, True, "1", [1]])
def test_bad_hosted_is_named(value):
    doc = scenario_to_dict(generate(1))
    doc["vms"][4]["hosted"] = value
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc)
    assert err.value.field == "vms[4].hosted"


_EIGHT = generate(1, GenerationParams(num_vms=8))
_PM = PhysicalMachine(id=1, compute_cap=100, storage_cap=100, max_vm_count=8)


def _with_machine_8(**fields):
    return Scenario(_EIGHT.subnet, _EIGHT.vms[:7] + (dataclasses.replace(_EIGHT.vms[7], **fields),))


def _with_pm(placement=None, **fields):
    return Scenario(
        _EIGHT.subnet, _EIGHT.vms, pms=(dataclasses.replace(_PM, **fields),), placement=placement
    )


def _with_first_demand(value):
    components = _EIGHT.subnet.components
    compute = [value] + [c.compute_req for c in components[1:]]
    return Scenario(make_slice(compute, [c.storage_req for c in components]), _EIGHT.vms)


def _with_params(**fields):
    params = GenerationParams(num_vms=8)
    for name, value in fields.items():  # set past the constructor, which refuses them
        object.__setattr__(params, name, value)
    return Scenario(_EIGHT.subnet, _EIGHT.vms, params=params)


@pytest.mark.parametrize(
    "scenario, field",
    [
        (_with_machine_8(compute_cap=math.inf), "vms[7].compute_cap"),
        (_with_machine_8(compute_cap=True), "vms[7].compute_cap"),
        (_with_machine_8(compute_cap=2**60), "vms[7].compute_cap"),
        (_with_machine_8(compute_cap=math.nan), "vms[7].compute_cap"),
        (_with_machine_8(hosted=True), "vms[7].hosted"),
        (_with_machine_8(hosted=3.0), "vms[7].hosted"),
        (
            Scenario(_EIGHT.subnet, Inventory((math.inf,) * 8, _EIGHT.vms.storage_caps)),
            "vms[0].compute_cap",
        ),
        (_with_pm(max_vm_count=8.0), "pms[0].max_vm_count"),
        (_with_pm(compute_cap=math.inf), "pms[0].compute_cap"),
        (_with_pm(active=1), "pms[0].active"),
        (_with_pm(id=True), "pms[0].id"),
        (_with_pm(VmPlacement(((1,),) * 8, (1,))), "placement.pm_active"),
        (_with_first_demand(math.inf), "slice.components[0].compute_req"),
        (_with_first_demand(2**60), "slice.components[0].compute_req"),
        (dataclasses.replace(_EIGHT, seed=True), "seed"),
        (dataclasses.replace(_EIGHT, seed=1.5), "seed"),
        (_with_params(num_vms=8.5), "params.num_vms"),
        (_with_params(req_range=(1.5, 5)), "params.req_range"),
    ],
    ids=[
        "infinite-capacity",
        "boolean-capacity",
        "capacity-above-2-53",
        "nan-capacity",
        "boolean-hosted",
        "float-hosted",
        "inventory-of-infinite-capacities",
        "float-max-vm-count",
        "infinite-pm-capacity",
        "integer-active",
        "boolean-pm-id",
        "integer-pm-active",
        "infinite-demand",
        "demand-above-2-53",
        "boolean-seed",
        "float-seed",
        "float-num-vms",
        "float-in-req-range",
    ],
)
def test_save_refuses_what_load_refuses(tmp_path, scenario, field):
    # The file as save wrote it before it read its document back.
    written = tmp_path / "written.json"
    written.write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")
    with pytest.raises(ScenarioFormatError) as refused:
        load(written, validate_placement=False)
    target = tmp_path / "saved.json"
    with pytest.raises(ScenarioFormatError) as err:
        save(scenario, target)
    assert (err.value.field, err.value.detail) == (refused.value.field, refused.value.detail)
    assert err.value.field == field
    assert not target.exists()


_NOT_JSON_NUMBERS = [
    np.int64(5), np.int64(2**60), np.float32(1.5), np.bool_(True), Fraction(5, 2), Decimal("2.5")
]
_NOT_JSON_IDS = ["int64", "int64-above-2-53", "float32", "numpy-bool", "fraction", "decimal"]


def _with_small_first_demand(value):
    """``_EIGHT``'s machines under a slice whose first demand is ``value``,
    dominant for any ``value`` of at least 0."""
    return Scenario(make_slice([value, 5, 5, 1, 1, 1, 1, 1], [5] * 3 + [1] * 5), _EIGHT.vms)


_AMOUNT_BUILDS = {
    "capacity": (lambda v: _with_machine_8(compute_cap=v), "vms[7].compute_cap"),
    "demand": (_with_small_first_demand, "slice.components[0].compute_req"),
}


@pytest.mark.parametrize("value", _NOT_JSON_NUMBERS, ids=_NOT_JSON_IDS)
@pytest.mark.parametrize("build, field", _AMOUNT_BUILDS.values(), ids=_AMOUNT_BUILDS)
def test_save_refuses_amounts_json_cannot_write(tmp_path, build, field, value):
    target = tmp_path / "saved.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioFormatError) as err:
            save(build(value), target)
    assert (err.value.field, err.value.detail) == (field, AMOUNT.detail)
    assert not target.exists()


@pytest.mark.parametrize("amount", _AMOUNT_BUILDS)
def test_a_float_subclass_amount_saves_as_its_float(tmp_path, amount):
    build = _AMOUNT_BUILDS[amount][0]
    scenario = build(np.float64(2.5))
    save(scenario, tmp_path / "numpy.json")
    save(build(2.5), tmp_path / "float.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "float.json").read_bytes()
    assert load(tmp_path / "numpy.json") == scenario


# The values json.loads returns: scalars, and lists as one more input.
_JSON_SCALARS = (
    st.integers()
    | st.integers(-(2**1100), 2**1100)
    | st.floats()
    | st.booleans()
    | st.none()
    | st.text(max_size=3)
    | st.lists(st.integers() | st.floats(), max_size=2)
)
_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least int magnitude float() refuses
_NUMBER_BOUNDS = {
    "2**53": 2**53,
    "-2**53": -(2**53),
    "2**53+1": 2**53 + 1,
    "-(2**53+1)": -(2**53 + 1),
    "int-max-amount+1": int(MAX_AMOUNT) + 1,
    "2**1024": 2**1024,
    "int-float-overflow": _FLOAT_OVERFLOW,
    "int-float-overflow-1": _FLOAT_OVERFLOW - 1,
    "-int-float-overflow": -_FLOAT_OVERFLOW,
    "-(int-float-overflow-1)": -(_FLOAT_OVERFLOW - 1),
    "int-float-max+1": int(sys.float_info.max) + 1,
    "1e307": MAX_AMOUNT,
    "next-above-1e307": math.nextafter(MAX_AMOUNT, math.inf),
    "-1.7e308": -1.7e308,
    "float-max": sys.float_info.max,
    "0": 0,
    "-0.0": -0.0,
    "5e-324": 5e-324,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "true": True,
}


def _rules_agree_with_the_reference(value):
    assert bool(NUMBER.valid(value)) == REFERENCE_NUMBER.valid(value), value
    assert bool(AMOUNT.valid(value)) == REFERENCE_AMOUNT.valid(value), value


@pytest.mark.parametrize("value", _NUMBER_BOUNDS.values(), ids=_NUMBER_BOUNDS)
def test_number_rules_agree_with_the_reference_at_their_bounds(value):
    _rules_agree_with_the_reference(json.loads(json.dumps(value)))


@settings(derandomize=True, database=None, max_examples=1000)
@given(_JSON_SCALARS)
def test_number_rules_agree_with_the_reference_on_json_scalars(value):
    _rules_agree_with_the_reference(value)


def _entry_outcome(doc):
    """``scenario_from_dict``'s answer to ``doc``: the repr of the entries it
    read, which tells an integer from a float, or the refusal's field and detail."""
    try:
        read = scenario_from_dict(copy.deepcopy(doc), validate_placement=False)
    except ScenarioFormatError as exc:
        return exc.field, exc.detail
    return repr((read.subnet, tuple(read.vms), read.pms))


def _reads_like_the_hand_written_readers(doc):
    with mock.patch.object(scenario_mod, "_read_entry", reference_read_entry), mock.patch.object(
        scenario_mod, "_read_vms", reference_read_vms
    ):
        expected = _entry_outcome(doc)
    outcome = _entry_outcome(doc)
    assert outcome == expected
    return outcome


_ENTRY_DOC = scenario_to_dict(
    Scenario(_EIGHT.subnet, _EIGHT.vms, pms=(_PM, dataclasses.replace(_PM, id=2, active=False)))
)
_ENTRY_KEYS = sorted(
    {key for entries in ("vms", "pms") for key in _ENTRY_DOC[entries][0]}
    | set(_ENTRY_DOC["slice"]["components"][0])
    | {"hosted"}
)
_ODD_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 1, 2, 8, 9, 1.0, 2.5, math.nan, math.inf, 2**53 + 1, 2**60,
     "1", "RRC", [1], {}]
)


@st.composite
def _entry_documents(draw):
    """A valid document with PMs whose list entries take up to four faults:
    an entry that is not an object, a key removed, or a key set to an odd value."""
    doc = copy.deepcopy(_ENTRY_DOC)
    lists = (doc["slice"]["components"], doc["vms"], doc["pms"])
    for _ in range(draw(st.integers(0, 4))):
        entries = draw(st.sampled_from(lists))
        j = draw(st.integers(0, len(entries) - 1))
        fault = draw(st.sampled_from(["entry", "key", "value"]))
        if fault == "entry":
            entries[j] = draw(st.sampled_from([None, [], "vm", 3, True]))
        elif isinstance(entries[j], dict) and fault == "key" and entries[j]:
            del entries[j][draw(st.sampled_from(sorted(entries[j])))]
        elif isinstance(entries[j], dict):
            entries[j][draw(st.sampled_from(_ENTRY_KEYS))] = draw(_ODD_VALUES)
    return doc


@settings(derandomize=True, database=None, max_examples=400)
@given(_entry_documents())
def test_entries_read_as_the_hand_written_readers_read_them(doc):
    _reads_like_the_hand_written_readers(doc)


def _changed(entries, idx, entry):
    doc = copy.deepcopy(_ENTRY_DOC)
    (doc["slice"]["components"] if entries == "components" else doc[entries])[idx] = entry
    return doc


_VM = _ENTRY_DOC["vms"][0]
_PM_ENTRY = _ENTRY_DOC["pms"][0]
_COMPONENT = _ENTRY_DOC["slice"]["components"][0]


@pytest.mark.parametrize(
    "entries, idx, entry, field",
    [
        ("vms", 0, {"id": 1.0, "storage_cap": 3}, "vms[0].id"),
        ("vms", 7, {"id": 8, "compute_cap": "3", "storage_cap": None}, "vms[7].compute_cap"),
        ("pms", 0, {"id": 1, "compute_cap": "20", "storage_cap": 20}, "pms[0].compute_cap"),
        ("pms", 1, {**_PM_ENTRY, "id": 2, "max_vm_count": 2.0, "active": 1}, "pms[1].max_vm_count"),
        ("components", 0, {"kind": "RRC", "id": True, "storage_req": 1}, "slice.components[0].id"),
        ("vms", 3, {**_VM, "id": 4}, None),
        ("vms", 3, {**_VM, "id": 4, "hosted": None}, None),
        ("vms", 3, {**_VM, "id": 4, "hosted": 2}, None),
        ("pms", 0, {k: v for k, v in _PM_ENTRY.items() if k != "active"}, None),
        ("vms", 2, [3, 3], "vms[2].id"),
        ("pms", 1, "pm", "pms[1].id"),
        ("components", 4, None, "slice.components[4].kind"),
    ],
)
def test_listed_entries_read_as_the_hand_written_readers_read_them(entries, idx, entry, field):
    outcome = _reads_like_the_hand_written_readers(_changed(entries, idx, entry))
    if field is None:
        assert isinstance(outcome, str)  # the entries' repr: read, not refused
    else:
        assert outcome[0] == field


def test_null_hosted_reads_as_available():
    doc = scenario_to_dict(generate(1))
    doc["vms"][4]["hosted"] = None
    assert scenario_from_dict(doc) == generate(1)


def test_empty_vms_is_a_document_error():
    doc = scenario_to_dict(generate(1))
    doc["vms"] = []
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == "<document>: scenario needs at least one vm"


def test_format_error_survives_pickling():
    # sweep workers send it back to the parent process
    err = pickle.loads(pickle.dumps(ScenarioFormatError("params.num_vms", "must be an integer")))
    assert (err.field, err.detail) == ("params.num_vms", "must be an integer")
    assert str(err) == "params.num_vms: must be an integer"


def test_file_cap_holds_the_largest_document_vnfcmap_writes():
    # A tabular model.json at the table budget: each value is at most 24
    # characters of repr (sign, 17 digits, the point and a 5-character
    # exponent) plus ", ".
    widest = max(map(len, map(repr, (-2.2250738585072014e-308, -1.7976931348623157e308))))
    assert widest == 24
    assert _MAX_FILE_BYTES >= cli.MAX_TABLE_ENTRIES * (widest + len(", "))


@pytest.mark.parametrize("grown, refused", [(50, False), (200, True)])
def test_file_grown_after_its_size_check_is_read_to_the_cap(tmp_path, monkeypatch, grown, refused):
    monkeypatch.setattr(scenario_mod, "_MAX_FILE_BYTES", 100)
    path = tmp_path / "growing.json"
    path.write_bytes(b"{}")
    real_open = Path.open

    def grow_then_open(self, *args, **kwargs):
        with real_open(self, "ab") as handle:
            handle.write(b" " * grown)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", grow_then_open)
    if not refused:
        assert read_regular_file(path) == b"{}" + b" " * grown
        return
    with pytest.raises(ScenarioFormatError) as err:
        read_regular_file(path)
    assert err.value.field == "<document>"
    assert err.value.detail.endswith("has 101 bytes, over 100")
