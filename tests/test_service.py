import contextlib
import copy
import json
import math
import os
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vnfcmap
from _reference import crafted_tie_scenario, identity_scenario, reference_read_vms
from vnfcmap import agents, scenario as scenario_mod, service
from vnfcmap.agents import AgentVariant, save_policy, train
from vnfcmap.mdp import Hyperparameters
from vnfcmap.model import Inventory, VirtualMachine, make_slice
from vnfcmap.scenario import (
    MAX_AMOUNT,
    GenerationParams,
    Scenario,
    ScenarioFormatError,
    generate,
    load,
    scenario_to_dict,
)
from vnfcmap.service import handle_map, make_server, parse_request

FIXTURES = Path(__file__).parent / "fixtures"


def _request_doc(scenario, policy):
    doc = scenario_to_dict(scenario)
    return {"slice": doc["slice"], "vms": doc["vms"], "policy": policy}


@pytest.fixture(scope="module")
def canonical():
    return load(FIXTURES / "canonical_scenario.json")


@pytest.fixture(scope="module")
def recorded_optimum():
    return json.loads((FIXTURES / "canonical_oracle.json").read_text())


def test_oracle_policy_returns_recorded_optimum(canonical, recorded_optimum):
    status, body = handle_map(_request_doc(canonical, "oracle"))
    assert status == 200
    assert body["status"] == "mapped"
    expected = recorded_optimum["absolute_surplus"]
    assert body["pairs"] == expected["pairs"]
    assert body["objective"]["value"] == expected["objective_value"]
    assert len(body["per_pair_wastage"]) == 8


def test_oracle_policy_is_idempotent(canonical):
    first = handle_map(_request_doc(canonical, "oracle"))
    second = handle_map(_request_doc(canonical, "oracle"))
    assert first == second


def test_oracle_policy_answers_the_crafted_tie_body():
    # Every (7, 7) machine ties under the walk's bound; a solve for each kept
    # a handler busy for seconds here and minutes near the body cap.
    status, body = handle_map(_request_doc(crafted_tie_scenario(4000), "oracle"))
    assert status == 200
    assert body["status"] == "mapped"
    assert body["pairs"] == {str(c): 4000 - 8 + c for c in range(1, 9)}
    assert body["objective"]["value"] == 38


@pytest.mark.parametrize("policy", ["oracle", "greedy"])
def test_body_can_mark_machines_hosted(canonical, policy):
    _, free = handle_map(_request_doc(canonical, policy))
    doc = _request_doc(canonical, policy)
    taken = sorted(free["pairs"].values())
    for component, vm_id in enumerate(taken, 1):
        doc["vms"][vm_id - 1]["hosted"] = component
    assert [vm.hosted for vm in parse_request(doc).scenario.vms if vm.hosted] == [1, 2, 3, 4, 5, 6, 7, 8]
    status, body = handle_map(doc)
    assert status == 200 and body["status"] == "mapped"
    assert not set(body["pairs"].values()) & set(taken)


def test_undersized_inventory_cites_capacity_fit():
    subnet = make_slice([4, 3, 3, 2, 2, 2, 2, 2], [3, 3, 3, 2, 2, 2, 1, 1])
    scenario = identity_scenario(subnet)
    doc = _request_doc(scenario, "oracle")
    doc["vms"][0]["compute_cap"] = 1  # f1 can only fit machine 1
    status, body = handle_map(doc)
    assert status == 200
    assert body["status"] == "infeasible"
    assert body["rule"] == "capacity-fit"
    assert "component 1" in body["detail"]


def test_greedy_on_identity_inventory_is_exact():
    subnet = make_slice([4, 3, 3, 2, 2, 2, 2, 2], [3, 3, 3, 2, 2, 2, 1, 1])
    scenario = identity_scenario(subnet)
    status, body = handle_map(_request_doc(scenario, "greedy"))
    assert status == 200
    assert body["status"] == "mapped"
    assert body["objective"]["value"] == 0.0


def test_greedy_matches_oracle_value_or_worse(canonical):
    _, greedy = handle_map(_request_doc(canonical, "greedy"))
    _, oracle = handle_map(_request_doc(canonical, "oracle"))
    assert greedy["objective"]["value"] >= oracle["objective"]["value"]


def test_trained_policy_replays_model(tmp_path):
    scenario = generate(31, GenerationParams(num_vms=12))
    _, learner = train(
        AgentVariant.OFF_POLICY_TABULAR, scenario, Hyperparameters(episodes=400), seed=0
    )
    model_path = tmp_path / "model.json"
    save_policy(learner, model_path)
    doc = _request_doc(scenario, {"kind": "trained", "model": str(model_path)})
    status, body = handle_map(doc)
    assert status == 200
    if body["status"] == "mapped":
        assert sorted(body["pairs"]) == [str(i) for i in range(1, 9)]
        assert len(set(body["pairs"].values())) == 8
    else:
        assert body["rule"]


def test_trained_policy_requires_model_path(canonical):
    status, body = handle_map(_request_doc(canonical, {"kind": "trained"}))
    assert status == 400
    assert body["error"]["field"] == "policy.model"


def test_trained_policy_falls_back_to_default_model(tmp_path):
    scenario = generate(32, GenerationParams(num_vms=10))
    _, learner = train(
        AgentVariant.OFF_POLICY_LINEAR, scenario, Hyperparameters(episodes=100), seed=0
    )
    model_path = tmp_path / "model.json"
    save_policy(learner, model_path)
    doc = _request_doc(scenario, {"kind": "trained"})
    doc["policy"]["model"] = None
    status, body = handle_map(doc)
    assert status == 400
    status, body = handle_map(doc, default_model=str(model_path))
    assert status == 200


def _policy_file(kind, m, k=8, **arrays):
    doc = {"version": 1, "variant": "off-" + kind[:3], "kind": kind}
    doc.update({"num_components": k, "num_vms": m})
    return doc | {name: value.tolist() for name, value in arrays.items()}


def _without(doc, key):
    return {name: value for name, value in doc.items() if name != key}


_TABULAR_12 = _policy_file("tabular", 12, values=np.zeros((8, 12, 12)))
_LINEAR_12 = _policy_file("linear", 12, weights=np.zeros(7))


_NAN_VALUES = np.zeros((8, 12, 12))
_NAN_VALUES[3, 4, 5] = np.nan
# Greedy replay places f1 on machine 1 and f2 on machine 7 of generate(31, 12
# machines), then reaches f3, for which a two-component table has no row.
_TWO_COMPONENT_VALUES = np.zeros((2, 12, 12))
_TWO_COMPONENT_VALUES[0, :, 0] = 1.0
_TWO_COMPONENT_VALUES[1, :, 6] = 1.0
_MIXED_BOOLEAN_VALUES = np.zeros((8, 12, 12)).tolist()
_MIXED_BOOLEAN_VALUES[7][11][11] = False


@pytest.mark.parametrize(
    "policy_doc,detail",
    [
        (_policy_file("tabular", 12, values=np.zeros((2, 12, 12))), "values: expected shape"),
        (_policy_file("tabular", 12, values=_NAN_VALUES), "values: every entry must be finite"),
        (_policy_file("linear", 12, weights=np.zeros(2)), "weights: expected shape"),
        (_policy_file("tabular", 12, k=2, values=_TWO_COMPONENT_VALUES), "num_components: "),
        (_policy_file("quadratic", 12, weights=np.zeros(7)), "kind: "),
        ([_LINEAR_12], "<document>: "),
        (_without(_LINEAR_12, "kind"), "kind: "),
        (_without(_TABULAR_12, "variant"), "variant: "),
        (_TABULAR_12 | {"num_components": "8"}, "num_components: "),
        (_TABULAR_12 | {"num_vms": 12.0}, "num_vms: "),
        (_TABULAR_12 | {"values": 10**400}, "values: "),
        (
            _TABULAR_12 | {"values": np.zeros((8, 12, 12)).astype(str).tolist()},
            "values: must be an array of numbers",
        ),
        (_LINEAR_12 | {"weights": [True] * 7}, "weights: must be an array of numbers"),
        (
            _LINEAR_12 | {"weights": [True, 0, 0, 0, 0, 1, 0]},
            "weights: must be an array of numbers",
        ),
        (_TABULAR_12 | {"values": _MIXED_BOOLEAN_VALUES}, "values: must be an array of numbers"),
        (_LINEAR_12 | {"weights": [2**1024, 0, 0, 0, 0, 0, 0]}, "weights: every entry must be finite"),
        *(
            (base | {field: size}, f"{field}: must be a positive integer")
            for base in (_TABULAR_12, _LINEAR_12)
            for field in ("num_components", "num_vms")
            for size in (0, -5)
        ),
    ],
    ids=[
        "tabular-wrong-shape",
        "tabular-nan",
        "linear-wrong-length",
        "two-components",
        "unknown-kind",
        "not-an-object",
        "missing-kind",
        "missing-variant",
        "string-num-components",
        "float-num-vms",
        "values-beyond-float",
        "string-values",
        "boolean-weights",
        "boolean-mixed-into-weights",
        "boolean-mixed-into-values",
        "weight-beyond-float",
        *(
            f"{kind}-{field.replace('_', '-')}-{size}"
            for kind in ("tabular", "linear")
            for field in ("num_components", "num_vms")
            for size in (0, -5)
        ),
    ],
)
def test_trained_policy_rejects_malformed_model_file(tmp_path, policy_doc, detail):
    scenario = generate(31, GenerationParams(num_vms=12))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(policy_doc))
    status, body = handle_map(_request_doc(scenario, {"kind": "trained", "model": str(model_path)}))
    assert status == 400
    assert body["error"]["field"] == "policy.model"
    assert body["error"]["detail"].startswith(detail)


def test_trained_policy_refuses_a_model_path_that_is_not_a_regular_file(tmp_path):
    # Reading a FIFO with no writer would block the handler forever.
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)
    scenario = generate(31, GenerationParams(num_vms=12))
    status, body = handle_map(_request_doc(scenario, {"kind": "trained", "model": str(fifo)}))
    assert status == 400
    assert body["error"]["field"] == "policy.model"
    assert body["error"]["detail"].startswith("<document>: ")


def _placing_policy(targets):
    """A 12-machine tabular policy whose greedy replay puts component i on targets[i - 1]."""
    values = np.zeros((8, 12, 12))
    for i, vm in enumerate(targets):
        values[i, :, vm - 1] = 1.0
    return _policy_file("tabular", 12, values=values)


_FORWARD_PAIRS = {str(c): c for c in range(1, 9)}
_BACKWARD_PAIRS = {str(c): 13 - c for c in range(1, 9)}
_FORWARD = _placing_policy(_FORWARD_PAIRS.values())
_BACKWARD = _placing_policy(_BACKWARD_PAIRS.values())


def _roomy_request(policy):
    """A body whose 12 machines each fit every component."""
    doc = _request_doc(generate(31, GenerationParams(num_vms=12)), policy)
    for vm in doc["vms"]:
        vm["compute_cap"] = vm["storage_cap"] = 100.0
    return doc


_HUGE_VALUES = np.zeros((8, 12, 12)).tolist()
_HUGE_VALUES[2][5][9] = 2**64


@pytest.mark.parametrize(
    "name,entries",
    [
        ("weights", [2**64, 0, 0, 0, 0, 1, 0]),
        ("weights", [-(2**63) - 1, 0, 0, 0, 0, 1, 0]),
        ("weights", [2**1023, 0, 0, 0, 0, 1, 0]),
        ("values", _HUGE_VALUES),
    ],
    ids=["2**64", "-(2**63)-1", "2**1023", "tabular-2**64"],
)
def test_a_model_int_beyond_int64_maps_as_its_float(tmp_path, name, entries):
    # scenario.NUMBER takes any int below the float overflow, as it does in a
    # run summary; numpy's int64 and uint64 hold none of these.
    base = _LINEAR_12 if name == "weights" else _TABULAR_12
    floats = json.loads(json.dumps(entries), parse_int=float)
    answers = []
    for label, written in (("int", entries), ("float", floats)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(base | {name: written}))
        answers.append(handle_map(_roomy_request({"kind": "trained", "model": str(path)})))
    assert answers[0][0] == 200
    assert answers[0] == answers[1]


def test_trained_policy_serves_a_model_rewritten_at_the_same_path(tmp_path):
    model_path = tmp_path / "model.json"
    doc = _roomy_request({"kind": "trained", "model": str(model_path)})
    for policy, pairs in ((_FORWARD, _FORWARD_PAIRS), (_BACKWARD, _BACKWARD_PAIRS)) * 2:
        model_path.write_text(json.dumps(policy))
        status, body = handle_map(doc)
        assert (status, body["pairs"]) == (200, pairs)


def test_alternating_model_files_answer_like_a_fresh_interpreter(tmp_path):
    bodies = {}
    for name, policy in (("forward", _FORWARD), ("backward", _BACKWARD)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(policy))
        bodies[name] = _roomy_request({"kind": "trained", "model": str(path)})
    src = str(Path(vnfcmap.__file__).resolve().parents[1])
    code = (
        "import json, sys; from vnfcmap.service import handle_map; "
        "print(json.dumps({name: handle_map(body) for name, body in json.load(sys.stdin).items()}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(bodies),
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    reference = json.loads(result.stdout)
    assert reference["forward"][1]["pairs"] != reference["backward"][1]["pairs"]
    for name in ("forward", "forward", "backward", "forward", "backward", "backward"):
        assert json.loads(json.dumps(handle_map(bodies[name]))) == reference[name], name


def test_make_server_loads_the_solver_before_any_request():
    src = str(Path(vnfcmap.__file__).resolve().parents[1])
    code = (
        "import sys; from vnfcmap import service; "
        "scipy = lambda: [m for m in sorted(sys.modules) if m.partition('.')[0] == 'scipy']; "
        "before = scipy(); "
        "srv = service.make_server(0); "
        "print(before, scipy()); "
        "srv.server_close()"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    # Only the solver's extension module, not scipy.optimize or even scipy.
    assert result.stdout.split() == ["[]", "['scipy.optimize._lsap']"]


def test_make_server_parses_its_default_model_before_it_binds(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_FORWARD)[:-1])
    with pytest.raises(ScenarioFormatError) as err:
        make_server(0, default_model=str(path))
    assert err.value.field == "<document>"
    path.write_text(json.dumps(_FORWARD))
    srv = make_server(0, default_model=str(path))
    srv.server_close()
    # The first trained request reuses the parse made at start.
    monkeypatch.setattr(agents, "decode_document", mock.Mock(side_effect=AssertionError))
    status, body = handle_map(_roomy_request({"kind": "trained"}), default_model=str(path))
    assert (status, body["pairs"]) == (200, _FORWARD_PAIRS)


def test_model_file_fixed_at_the_same_path_is_served(tmp_path):
    # A refusal is not remembered: the fixed file is parsed on the next request.
    model_path = tmp_path / "model.json"
    doc = _roomy_request({"kind": "trained", "model": str(model_path)})
    model_path.write_text(json.dumps(_FORWARD)[:-1])
    status, body = handle_map(doc)
    assert (status, body["error"]["field"]) == (400, "policy.model")
    assert body["error"]["detail"].startswith("<document>: is not valid JSON")
    model_path.write_text(json.dumps(_FORWARD))
    status, body = handle_map(doc)
    assert (status, body["pairs"]) == (200, _FORWARD_PAIRS)


def test_benchmark_wrapped_policy_names_resolve():
    # The benchmark times the trained path by wrapping these names; a rename
    # would leave its per-layer figures at zero without an error.
    assert service.load_policy is agents.load_policy
    assert callable(agents.PolicySnapshot.estimator_for)


def test_missing_field_is_400_with_path(canonical):
    doc = _request_doc(canonical, "oracle")
    del doc["vms"]
    status, body = handle_map(doc)
    assert status == 400
    assert body["error"]["field"] == "vms"

    doc = _request_doc(canonical, "oracle")
    del doc["slice"]["components"][0]["compute_req"]
    status, body = handle_map(doc)
    assert status == 400
    assert "compute_req" in body["error"]["field"]


def _set(path, value):
    """A request edit that puts ``value`` at ``path``, a tuple of keys and indices."""

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


_COMPONENT = ("slice", "components", 0)
_VM = ("vms", 0)


@pytest.mark.parametrize(
    "edit,field",
    [
        (_set(_COMPONENT + ("compute_req",), "4"), "slice.components[0].compute_req"),
        (_set(("vms",), 5), "vms"),
        (_set(("slice", "components"), {"0": {}}), "slice.components"),
        (_set(_VM + ("id",), "a"), "vms[0].id"),
        (_set(_COMPONENT + ("kind",), ["RRC"]), "slice.components[0].kind"),
        (_set(("policy",), {"kind": "trained", "model": 5}), "policy.model"),
        (_set(_VM + ("compute_cap",), math.nan), "vms[0].compute_cap"),
        (_set(_VM + ("storage_cap",), math.inf), "vms[0].storage_cap"),
        (_set(_VM + ("compute_cap",), True), "vms[0].compute_cap"),
        (_set(_VM + ("compute_cap",), 10**400), "vms[0].compute_cap"),
        (_set(_COMPONENT + ("storage_req",), math.nan), "slice.components[0].storage_req"),
        (_set(_COMPONENT + ("compute_req",), -math.inf), "slice.components[0].compute_req"),
        (_set(_COMPONENT + ("storage_req",), False), "slice.components[0].storage_req"),
        (_set(_VM + ("storage_cap",), 1e308), "vms[0].storage_cap"),
        (_set(_COMPONENT + ("compute_req",), 10**308), "slice.components[0].compute_req"),
    ],
    ids=[
        "string-demand",
        "vms-not-a-list",
        "components-not-a-list",
        "string-vm-id",
        "unhashable-kind",
        "model-not-a-string",
        "nan-capacity",
        "infinite-capacity",
        "bool-capacity",
        "capacity-beyond-float",
        "nan-demand",
        "infinite-demand",
        "bool-demand",
        "capacity-above-bound",
        "demand-above-bound",
    ],
)
def test_wrong_types_and_non_finite_numbers_are_400(canonical, edit, field):
    doc = copy.deepcopy(_request_doc(canonical, "greedy"))
    edit(doc)
    status, body = handle_map(doc)
    assert status == 400
    assert body["error"]["field"] == field


def test_unknown_policy_kind_rejected(canonical):
    status, body = handle_map(_request_doc(canonical, "magic"))
    assert status == 400
    assert body["error"]["field"] == "policy.kind"


def test_parse_request_normalizes_string_policy(canonical):
    request = parse_request(_request_doc(canonical, "greedy"))
    assert request.policy == "greedy"
    assert request.scenario.num_vms == canonical.num_vms


@pytest.mark.parametrize("policy", ["greedy", "oracle"])
def test_amounts_up_to_the_bound_keep_the_objective_finite(policy):
    # With every machine at 1e308 the absolute surplus overflowed: the oracle
    # called the slice infeasible and greedy answered an objective of inf.
    doc = _request_doc(generate(31, GenerationParams(num_vms=9)), policy)
    for capacity, status in ((MAX_AMOUNT, 200), (1e308, 400)):
        for vm in doc["vms"]:
            vm["compute_cap"] = vm["storage_cap"] = capacity
        answer = handle_map(doc)
        assert answer[0] == status
        if status == 200:
            assert answer[1]["status"] == "mapped"
            assert math.isfinite(answer[1]["objective"]["value"])
        else:
            assert answer[1]["error"]["field"] == "vms[0].compute_cap"


@pytest.mark.parametrize("policy", ["greedy", "oracle"])
def test_integer_amounts_beyond_2_to_the_53_are_refused(policy):
    # As a float, 2**53 + 1 rounds to 2**53: greedy's fit mask put component 1
    # on vm 1, which it does not fit, and the oracle answered infeasible.
    doc = _request_doc(generate(1), policy)
    doc["vms"][0].update(compute_cap=2**53, storage_cap=100)
    for vm in doc["vms"][1:]:
        vm["compute_cap"] = min(vm["compute_cap"], 9)
    component = doc["slice"]["components"][0]
    component["compute_req"] = 2**53 + 1
    status, body = handle_map(doc)
    assert (status, body["error"]["field"]) == (400, "slice.components[0].compute_req")
    component["compute_req"] = 2**53
    status, body = handle_map(doc)
    assert (status, body["status"], body["pairs"]["1"]) == (200, "mapped", 1)


def test_tiny_capacities_are_infeasible_without_a_warning(tmp_path):
    # Every demand over 5e-324 overflows to inf; the pytest settings turn
    # numpy's overflow warning into an error.
    scenario = generate(31, GenerationParams(num_vms=9))
    policies = ["greedy", "oracle"]
    for variant in (AgentVariant.OFF_POLICY_TABULAR, AgentVariant.OFF_POLICY_LINEAR):
        _, learner = train(variant, scenario, Hyperparameters(episodes=20), seed=0)
        save_policy(learner, tmp_path / f"{variant.value}.json")
        policies.append({"kind": "trained", "model": str(tmp_path / f"{variant.value}.json")})
    for policy in policies:
        for mode in ("absolute_surplus", "normalized_surplus"):
            doc = _request_doc(scenario, policy) | {"objective_mode": mode}
            for vm in doc["vms"]:
                vm["compute_cap"] = vm["storage_cap"] = 5e-324
            status, body = handle_map(doc)
            assert (status, body["status"]) == (200, "infeasible"), (policy, mode)


@contextlib.contextmanager
def _serving(srv):
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield srv.server_address[1]
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        srv.server_close()
    assert not thread.is_alive()


@pytest.fixture()
def server():
    srv = make_server(0)
    with _serving(srv):
        yield srv


def _post(port, path, payload):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


def test_http_health_and_map(server, canonical, recorded_optimum):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as resp:
        health = json.loads(resp.read())
    assert health["status"] == "ok"
    assert health["descriptor"]["stages"]["onboarding"] == "mocked"

    status, body = _post(port, "/map", _request_doc(canonical, "oracle"))
    assert status == 200
    assert body["pairs"] == recorded_optimum["absolute_surplus"]["pairs"]


def test_http_concurrent_trained_requests_over_two_models(tmp_path):
    # The handler threads of one server share the single parsed-policy slot.
    default_path, other_path = tmp_path / "default.json", tmp_path / "other.json"
    default_path.write_text(json.dumps(_FORWARD))
    other_path.write_text(json.dumps(_BACKWARD))
    bodies = [
        _roomy_request({"kind": "trained"}),
        _roomy_request({"kind": "trained", "model": str(other_path)}),
        _roomy_request({"kind": "trained", "model": str(tmp_path / "missing.json")}),
    ]
    expected = []
    for body in bodies:
        status, answer = handle_map(body, default_model=str(default_path))
        expected.append((status, json.dumps(answer).encode()))
    assert [status for status, _ in expected] == [200, 200, 400]

    answers = {}

    def client(port, worker):
        for n in range(20):
            index = (worker + n) % len(bodies)
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/map", data=json.dumps(bodies[index]).encode()
            )
            try:
                with urllib.request.urlopen(request) as resp:
                    answers[worker, n] = index, (resp.status, resp.read())
            except urllib.error.HTTPError as exc:
                answers[worker, n] = index, (exc.code, exc.read())

    with _serving(make_server(0, default_model=str(default_path))) as port:
        clients = [threading.Thread(target=client, args=(port, worker)) for worker in range(4)]
        for c in clients:
            c.start()
        for c in clients:
            c.join()
    assert len(answers) == 80
    for index, answer in answers.values():
        assert answer == expected[index]


def test_http_trained_model_above_the_read_cap_is_400(server, tmp_path):
    # Read whole, a model file of any size would be loaded into the server's memory.
    path = tmp_path / "sparse.json"
    path.touch()
    os.truncate(path, scenario_mod._MAX_FILE_BYTES + 1)  # a hole: no disk blocks
    doc = _roomy_request({"kind": "trained", "model": str(path)})
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server.server_address[1], "/map", doc)
    with err.value:
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
    assert error["field"] == "policy.model"
    assert error["detail"].startswith("<document>: ")
    assert f"has {scenario_mod._MAX_FILE_BYTES + 1} bytes, over" in error["detail"]


def test_http_malformed_body(server, canonical):
    port = server.server_address[1]
    doc = _request_doc(canonical, "oracle")
    del doc["slice"]
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(port, "/map", doc)
    with err.value:
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["field"] == "slice"


def test_http_unknown_path(server):
    port = server.server_address[1]
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
    with err.value:
        assert err.value.code == 404


def test_http_invalid_json(server):
    port = server.server_address[1]
    req = urllib.request.Request(f"http://127.0.0.1:{port}/map", data=b"{not json")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req)
    with err.value:
        assert err.value.code == 400


def _raw_post(port, content_length, body):
    """POST /map over a raw socket, since urllib always sends a valid
    Content-Length; a ``content_length`` of None sends none. ``body`` is text
    or raw bytes. Returns the status and the decoded JSON body."""
    length = "" if content_length is None else f"Content-Length: {content_length}\r\n"
    request = f"POST /map HTTP/1.1\r\nHost: 127.0.0.1\r\n{length}\r\n"
    response = b""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request.encode() + (body if isinstance(body, bytes) else body.encode()))
        while chunk := sock.recv(4096):
            response += chunk
    head, _, payload = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


@pytest.mark.parametrize("content_length", ["abc", "-1", None])
def test_http_bad_content_length(server, content_length):
    status, body = _raw_post(server.server_address[1], content_length, "{}")
    assert status == 400
    assert body["error"]["field"] == "<headers>.Content-Length"


@pytest.mark.parametrize("declared", ["cap-plus-one", "ten-terabytes", "past-int-digit-limit"])
def test_http_oversized_body_is_413_unread(server, declared):
    # The 2-byte body is never read: the declared length alone is refused.
    content_length = {
        "cap-plus-one": service.MAX_BODY_BYTES + 1,
        "ten-terabytes": 10**13,
        "past-int-digit-limit": "1" * 5000,
    }[declared]
    status, body = _raw_post(server.server_address[1], content_length, "{}")
    assert status == 413
    assert body["error"]["field"] == "<headers>.Content-Length"


def test_http_short_body_times_out(server, monkeypatch):
    # The body is 2 bytes against a declared 100; the client keeps the
    # connection open, so only the handler's socket timeout ends the read.
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.2)
    status, body = _raw_post(server.server_address[1], 100, "{}")
    assert status == 408
    assert body["error"]["field"] == "<body>"


@pytest.mark.parametrize(
    "body", [b'{"a": "\xff"}', "[" * 50_000], ids=["not-utf-8", "nested-past-recursion-limit"]
)
def test_http_undecodable_body_is_400(server, body):
    status, reply = _raw_post(server.server_address[1], len(body), body)
    assert status == 400
    assert reply["error"]["field"] == "<body>"


def _field_paths(doc, prefix=()):
    """The key-and-index path of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def valid_bodies(tmp_path_factory):
    """One valid body per policy, each with every optional field present."""
    scenario = generate(31, GenerationParams(num_vms=9))
    _, learner = train(AgentVariant.OFF_POLICY_TABULAR, scenario, Hyperparameters(episodes=50), 0)
    model_path = tmp_path_factory.mktemp("model") / "model.json"
    save_policy(learner, model_path)
    policies = ["greedy", {"kind": "oracle"}, {"kind": "trained", "model": str(model_path)}]
    return [
        _request_doc(scenario, policy) | {"objective_mode": "normalized_surplus"}
        for policy in policies
    ]


@settings(derandomize=True, database=None, max_examples=300)
@given(data=st.data())
def test_any_one_replaced_field_gets_200_or_400(valid_bodies, data):
    body = copy.deepcopy(data.draw(st.sampled_from(valid_bodies)))
    path = data.draw(st.sampled_from(list(_field_paths(body))))
    _set(path, data.draw(_JSON_VALUES))(body)
    status, reply = handle_map(body)
    assert status in (200, 400)
    if status == 400:
        assert isinstance(reply["error"]["field"], str)
    json.dumps(reply)


# Keys a request body's objects carry, and strings its fields accept, so that
# drawn documents reach past the first missing field.
_REQUEST_KEYS = (
    "slice", "components", "id", "kind", "compute_req", "storage_req", "vms", "compute_cap",
    "storage_cap", "policy", "model", "objective_mode",
)
_REQUEST_WORDS = ("RRC", "PHY_HIGH", "greedy", "oracle", "trained", "normalized_surplus")

_JSON_DOCUMENTS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(_REQUEST_WORDS)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=9)
    | st.dictionaries(st.sampled_from(_REQUEST_KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=40,
)
_BODY_DOCUMENTS = _JSON_DOCUMENTS | st.fixed_dictionaries(
    {}, optional={key: _JSON_DOCUMENTS for key in ("slice", "vms", "policy", "objective_mode")}
)


@settings(derandomize=True, database=None, max_examples=300)
@given(_BODY_DOCUMENTS)
def test_any_json_document_gets_200_or_400(doc):
    status, reply = handle_map(doc)
    assert status in (200, 400)
    if status == 400:
        assert isinstance(reply["error"]["field"], str)
    json.dumps(reply)


def _slow_post(port):
    """A connection that declares a 100-byte body and sends 2 bytes of it."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.sendall(b"POST /map HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 100\r\n\r\n{}")
    return sock


def _read_answer(sock):
    """The status, headers and JSON body of the answer on ``sock``, read up to
    its Content-Length rather than to the close."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, "the connection closed inside the headers"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    headers = dict(line.split(": ", 1) for line in head.decode().split("\r\n")[1:])
    while len(body) < int(headers["Content-Length"]):
        chunk = sock.recv(4096)
        assert chunk, "the connection closed inside the body"
        body += chunk
    return int(head.split()[1]), headers, json.loads(body)


def _status_after_close(sock):
    """The status of the answer on ``sock``, read until the server closes it."""
    response = b""
    with sock:
        while chunk := sock.recv(4096):
            response += chunk
    return int(response.split()[1])


def test_http_busy_handlers_answer_503_and_stop_with_the_server(monkeypatch, canonical):
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.2)
    monkeypatch.setattr(service, "HANDLERS", 2)
    threads_before = threading.active_count()
    srv = make_server(0)
    port = srv.server_address[1]
    serving = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05})
    serving.start()
    try:
        slow = [_slow_post(port) for _ in range(2)]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            started = perf_counter()
            sock.sendall(b"POST /map HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 2\r\n\r\n")
            status, headers, body = _read_answer(sock)
            waited = perf_counter() - started
            # The body, sent after the answer, still finds the connection open,
            # and the server's side then ends with a close, not a reset.
            sock.sendall(b"{}")
            assert sock.recv(1) == b""
        assert (status, headers["Retry-After"]) == (503, str(service.RETRY_AFTER_S))
        assert (headers["Server"], headers["Content-Type"]) == ("vnfcmap", "application/json")
        assert sorted(headers) == [
            "Content-Length", "Content-Type", "Date", "Retry-After", "Server"
        ]
        assert body["error"]["field"] == "<connection>"
        assert waited < service.REQUEST_TIMEOUT_S  # answered before either handler is free
        assert [_status_after_close(sock) for sock in slow] == [408, 408]
        status, body = _post(port, "/map", _request_doc(canonical, "greedy"))
        assert (status, body["status"]) == (200, "mapped")
        handlers = [t for t in threading.enumerate() if t.name.startswith("vnfcmap-handler")]
        assert len(handlers) == 2
    finally:
        srv.shutdown()
        serving.join(timeout=10)
        srv.server_close()
    assert not serving.is_alive()
    assert not any(t.is_alive() for t in handlers)
    assert threading.active_count() == threads_before


def _wait_until(condition):
    started = perf_counter()
    while not condition():
        assert perf_counter() - started < 5, "timed out waiting"
        threading.Event().wait(0.01)


def _read_until_close(sock):
    """Everything the server sends on ``sock`` before it closes or resets it."""
    response = b""
    with contextlib.suppress(ConnectionResetError):
        while chunk := sock.recv(4096):
            response += chunk
    return response


def test_http_idle_and_trickling_connections_end_at_the_request_deadline(
    monkeypatch, canonical
):
    # One connection sends nothing; the other sends a byte of its body every
    # 0.05 s, each within any per-read timeout. The whole request must arrive
    # within REQUEST_TIMEOUT_S, so both free their handler by then.
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.3)
    monkeypatch.setattr(service, "HANDLERS", 2)
    srv = make_server(0)
    with _serving(srv) as port:
        started = perf_counter()
        idle = socket.create_connection(("127.0.0.1", port), timeout=5)
        trickle = socket.create_connection(("127.0.0.1", port), timeout=5)
        trickle.sendall(b"POST /map HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 100\r\n\r\n")
        done = threading.Event()

        def drip():
            with contextlib.suppress(OSError):
                while not done.wait(0.05):
                    trickle.send(b" ")

        dripper = threading.Thread(target=drip)
        dripper.start()
        try:
            _wait_until(lambda: len(srv._serving) == 2)
            assert _raw_post(port, 2, "{}")[0] == 503
            with idle:
                idle_answer = _read_until_close(idle)
            answer = _read_until_close(trickle)
            ended = perf_counter() - started
        finally:
            done.set()
            dripper.join()
            trickle.close()
        assert answer.split()[1] == b"408"
        assert idle_answer.split()[1] == b"408"
        assert json.loads(idle_answer.partition(b"\r\n\r\n")[2])["error"]["field"] == "<request>"
        # Without the deadline the trickle would run for 100 x 0.05 = 5 s.
        assert ended < 2.0
        status, body = _post(port, "/map", _request_doc(canonical, "greedy"))
        assert (status, body["status"]) == (200, "mapped")


@pytest.mark.parametrize(
    "sent",
    [b"", b"GET /health HTTP/1.0\r\n", b"POST /map HTTP/1.0\r\nContent-Le"],
    ids=["nothing", "request-line", "half-a-header"],
)
def test_http_request_line_or_headers_past_the_deadline_get_408(server, monkeypatch, sent):
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.2)
    with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
        sock.sendall(sent)
        status, headers, body = _read_answer(sock)
    assert (status, headers["Content-Type"]) == (408, "application/json")
    assert body["error"] == {
        "field": "<request>", "detail": "the request line and headers took over 0.2 s"
    }


def test_http_a_client_that_read_its_answer_finds_the_handler_free(monkeypatch):
    # The one handler thread is still closing each connection when the next
    # request arrives; its slot was freed before the answer was sent, so the
    # request waits for the thread rather than getting a 503.
    monkeypatch.setattr(service, "HANDLERS", 1)
    shutdown_request = service.MappingServer.shutdown_request

    def slow_shutdown_request(srv, request):
        threading.Event().wait(0.3)
        shutdown_request(srv, request)

    monkeypatch.setattr(service.MappingServer, "shutdown_request", slow_shutdown_request)
    statuses = []
    with _serving(make_server(0)) as port:
        for _ in range(4):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
                statuses.append(_read_answer(sock)[0])
    assert statuses == [200, 200, 200, 200]


def test_an_answer_is_one_http_1_0_json_message(monkeypatch):
    monkeypatch.setattr(service, "formatdate", lambda usegmt: "Tue, 20 Oct 2026 10:00:00 GMT")
    assert service._answer(503, {"a": 1}, "Retry-After: 1\r\n") == (
        b"HTTP/1.0 503 Service Unavailable\r\n"
        b"Server: vnfcmap\r\n"
        b"Date: Tue, 20 Oct 2026 10:00:00 GMT\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 8\r\n"
        b"Retry-After: 1\r\n"
        b"\r\n"
        b'{"a": 1}'
    )


# Refusals of the request line or headers, each with the standard library's
# detail, as http.server gives it.
_STDLIB_REFUSALS = {
    "bad-syntax": (b"GARBAGE\r\n", 400, "Bad request syntax ('GARBAGE')"),
    "unknown-method": (b"PUT /map HTTP/1.0\r\n", 501, "Unsupported method ('PUT')"),
    "http-2": (b"GET /map HTTP/2.0\r\n", 505, "Invalid HTTP version (2.0)"),
    "70-kb-url": (b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n", 414, "URI is too long"),
    "120-headers": (
        b"GET /health HTTP/1.0\r\n" + b"".join(b"X-%d: 1\r\n" % n for n in range(120)),
        431,
        "Too many headers",
    ),
}


@pytest.fixture(scope="module")
def shared_server():
    with _serving(make_server(0)) as port:
        yield port


def _exchange(port, head):
    """Send a request head (its lines, without the blank line that ends it)
    and read everything the server sends back."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head + b"\r\n")
        return _read_until_close(sock)


@pytest.mark.parametrize("case", list(_STDLIB_REFUSALS))
def test_http_servers_own_refusals_are_json_on_field_request(shared_server, case):
    head, status, detail = _STDLIB_REFUSALS[case]
    with socket.create_connection(("127.0.0.1", shared_server), timeout=5) as sock:
        sock.sendall(head + b"\r\n")  # the blank line that ends the head
        assert _read_answer(sock) == (
            status,
            {
                "Server": "vnfcmap",
                "Date": mock.ANY,
                "Content-Type": "application/json",
                "Content-Length": mock.ANY,
            },
            {"error": {"field": "<request>", "detail": detail}},
        )


_MAP_BODY = json.dumps(_request_doc(generate(1), "greedy")).encode()
_HEALTHY = {"status": "ok", "descriptor": service.DEFAULT_DESCRIPTOR}


def _headers(count):
    return b"".join(b"X-%d: 1\r\n" % n for n in range(count))


def _header_line(length):
    """One header line of ``length`` bytes, its CRLF included."""
    return b"X: " + b"a" * (length - 5) + b"\r\n"


def _request(detail, field="<request>"):
    return {"error": {"field": field, "detail": detail}}


# Whole requests, each with the exact status and body of its answer; "mapped"
# stands for handle_map's answer to _MAP_BODY. They pin the request-line rule
# and the header rules that the standard library applies.
_REQUEST_HEADS = {
    "bare-newlines": (
        b"POST /map HTTP/1.0\nContent-Length: %d\n\n%s" % (len(_MAP_BODY), _MAP_BODY),
        200,
        "mapped",
    ),
    "lowercase-content-length": (
        b"POST /map HTTP/1.0\r\ncontent-length: %d\r\n\r\n%s" % (len(_MAP_BODY), _MAP_BODY),
        200,
        "mapped",
    ),
    "first-content-length-wins": (
        b"POST /map HTTP/1.0\r\nContent-Length: %d\r\nContent-Length: abc\r\n\r\n%s"
        % (len(_MAP_BODY), _MAP_BODY),
        200,
        "mapped",
    ),
    "space-before-colon": (
        b"POST /map HTTP/1.0\r\nContent-Length :2\r\n\r\n{}",
        400,
        _request("is required", "<headers>.Content-Length"),
    ),
    "double-slash": (b"GET //health HTTP/1.0\r\n\r\n", 200, _HEALTHY),
    "two-word-get": (b"GET /health\r\n\r\n", 200, _HEALTHY),
    "two-word-post": (b"POST /map\r\n\r\n", 400, _request("Bad HTTP/0.9 request type ('POST')")),
    "blank-line": (b"\r\n\r\n", 400, _request("Bad request syntax ('')")),
    "superscript-minor": (
        b"GET /health HTTP/1.\xb2\r\n\r\n", 400, _request("Bad request version ('HTTP/1.\xb2')")
    ),
    "no-minor": (b"GET /health HTTP/3\r\n\r\n", 400, _request("Bad request version ('HTTP/3')")),
    "eleven-digit-major": (
        b"GET /health HTTP/12345678901.0\r\n\r\n",
        400,
        _request("Bad request version ('HTTP/12345678901.0')"),
    ),
    "99-headers": (b"GET /health HTTP/1.0\r\n" + _headers(99) + b"\r\n", 200, _HEALTHY),
    "100-headers": (
        b"GET /health HTTP/1.0\r\n" + _headers(100) + b"\r\n", 431, _request("Too many headers")
    ),
    "65537-byte-header-line": (
        b"GET /health HTTP/1.0\r\n" + _header_line(65_537) + b"\r\n",
        431,
        _request("Line too long"),
    ),
    "65536-byte-header-line": (
        b"GET /health HTTP/1.0\r\n" + _header_line(65_536) + b"\r\n", 200, _HEALTHY
    ),
    "put-with-120-headers": (
        b"PUT /map HTTP/1.0\r\n" + _headers(120) + b"\r\n", 431, _request("Too many headers")
    ),
}


@pytest.mark.parametrize("case", list(_REQUEST_HEADS))
def test_request_heads_get_the_standard_librarys_answers(shared_server, case):
    request, status, body = _REQUEST_HEADS[case]
    if body == "mapped":
        body = handle_map(json.loads(_MAP_BODY))[1]
    with socket.create_connection(("127.0.0.1", shared_server), timeout=5) as sock:
        sock.sendall(request)
        head, _, payload = _read_until_close(sock).partition(b"\r\n\r\n")
    assert (int(head.split()[1]), payload) == (status, json.dumps(body).encode())


_METHODS =st.sampled_from(["GET", "POST", "PUT", "HEAD", "DELETE", "OPTIONS", "get"])
_TARGETS = st.sampled_from(["/health", "/map", "/", "//map", "*", "/health?x=1"])
_VERSIONS = st.sampled_from(["HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/0.9", "HTTP/1", "http/1.0"])
_WORDS = st.text(st.characters(min_codepoint=33, max_codepoint=255), min_size=1, max_size=12)
# Blank to str.split(), so a request line of only these gets a 400.
_BLANKS = st.sampled_from(["", "\t", "\x0b", "\x85", "\xa0"])
_REQUEST_LINES = (
    st.lists(_METHODS | _TARGETS | _VERSIONS | _WORDS | _BLANKS, max_size=5).map(" ".join)
    | st.builds(lambda *words: " ".join(words), _METHODS | _WORDS, _TARGETS | _WORDS, _VERSIONS)
).map(lambda line: line.encode("latin-1") + b"\r\n")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_REQUEST_LINES)
@example(_STDLIB_REFUSALS["bad-syntax"][0])
@example(_STDLIB_REFUSALS["unknown-method"][0])
@example(_STDLIB_REFUSALS["http-2"][0])
@example(_STDLIB_REFUSALS["70-kb-url"][0])
@example(_STDLIB_REFUSALS["120-headers"][0])
def test_any_request_line_gets_one_json_answer(shared_server, head):
    answer = _exchange(shared_server, head)
    head, _, body = answer.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line[:9] == "HTTP/1.0 " and status_line[9:12].isdigit(), answer[:80]
    assert "Content-Type: application/json" in header_lines
    reply = json.loads(body)
    if not 200 <= int(status_line[9:12]) < 300:
        assert isinstance(reply["error"]["field"], str)


def test_server_close_ends_connections_still_being_read(monkeypatch):
    monkeypatch.setattr(service, "HANDLERS", 2)
    threads_before = threading.active_count()
    srv = make_server(0)
    port = srv.server_address[1]
    serving = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05})
    serving.start()
    open_connections = [
        _slow_post(port), socket.create_connection(("127.0.0.1", port), timeout=5)
    ]
    try:
        _wait_until(lambda: len(srv._serving) == 2)
        srv.shutdown()
        serving.join(timeout=10)
        started = perf_counter()
        srv.server_close()
        closing = perf_counter() - started
        for sock in open_connections:
            _read_until_close(sock)  # ends rather than waiting out the 5 s client timeout
    finally:
        for sock in open_connections:
            sock.close()
    # Each handler would otherwise wait out the 10 s REQUEST_TIMEOUT_S.
    assert closing < 1.0
    assert threading.active_count() == threads_before


def _parse_outcome(doc):
    """``parse_request``'s answer to ``doc``: the request's repr, which tells
    an integer from a float, or the refusal's field and detail."""
    try:
        return repr(parse_request(doc))
    except ScenarioFormatError as exc:
        return exc.field, exc.detail


_VALID_AMOUNTS = st.integers(1, 10) | st.floats(0.5, 10.0)
_BAD_AMOUNTS = st.sampled_from(
    [True, False, math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 5e-324, MAX_AMOUNT,
     int(MAX_AMOUNT), int(MAX_AMOUNT) + 1, 2**53 + 1, 2**1024, "5", None, [1]]
)
_NOT_OBJECTS = st.sampled_from([None, [], [1, 2, 3], "vm", 3, 1.5, True])


@st.composite
def _near_valid_vms(draw):
    """A valid ``vms`` list with up to three faults: an entry that is not an
    object, a missing key, an id that is a float, a bool, a repeat, a gap or
    not a number, a capacity that is not a positive finite number up to the
    bound, or a ``hosted`` key, valid or not."""
    vms = [
        {"id": j + 1, "compute_cap": draw(_VALID_AMOUNTS), "storage_cap": draw(_VALID_AMOUNTS)}
        for j in range(draw(st.integers(0, 10)))
    ]
    for _ in range(draw(st.integers(0, 3)) if vms else 0):
        j = draw(st.integers(0, len(vms) - 1))
        if not isinstance(vms[j], dict) or not vms[j]:
            continue
        fault = draw(st.sampled_from(["entry", "key", "id", "capacity", "hosted"]))
        if fault == "entry":
            vms[j] = draw(_NOT_OBJECTS)
        elif fault == "key":
            vms[j].pop(draw(st.sampled_from(sorted(vms[j]))), None)
        elif fault == "id":
            ids = [float(j + 1), True, j, j + 2, 0, -1, str(j + 1), None]
            vms[j]["id"] = draw(st.sampled_from(ids))
        elif fault == "hosted":
            vms[j]["hosted"] = draw(st.sampled_from([1, 8, None, 0, 9, 1.0, True, "1"]))
        else:
            vms[j][draw(st.sampled_from(["compute_cap", "storage_cap"]))] = draw(_BAD_AMOUNTS)
    return vms


_SLICE_DOC = scenario_to_dict(generate(1))["slice"]
_NEAR_VALID_BODIES = st.builds(
    lambda vms, policy: {"slice": _SLICE_DOC, "vms": vms, "policy": policy},
    _near_valid_vms(),
    st.sampled_from(["greedy", "oracle"]),
)


@settings(derandomize=True, database=None, max_examples=500)
@given(_NEAR_VALID_BODIES | _BODY_DOCUMENTS)
# As a float, this capacity rounds to the bound.
@example(
    {
        "slice": _SLICE_DOC,
        "vms": [{"id": 1, "compute_cap": int(MAX_AMOUNT) + 1, "storage_cap": 1}],
        "policy": "greedy",
    }
)
def test_one_pass_read_answers_like_the_field_walk(doc):
    with mock.patch.object(scenario_mod, "_read_vms", reference_read_vms):
        expected = _parse_outcome(doc)
    assert _parse_outcome(doc) == expected


def test_one_pass_read_walks_no_field_of_a_valid_inventory():
    vms = json.loads(json.dumps(scenario_to_dict(generate(1))["vms"]))
    with mock.patch.object(scenario_mod, "require", side_effect=AssertionError("field walked")):
        read = scenario_mod._read_vms(vms)
    assert isinstance(read, Inventory)
    assert repr(tuple(read)) == repr(reference_read_vms(vms))


def _vms_outcome(read, vms):
    """What ``read`` makes of a ``vms`` list, checked as a scenario checks it:
    each machine's fields with the type of each amount, or the refusal's field
    and detail."""
    try:
        machines = read(copy.deepcopy(vms))
        Scenario(make_slice([1] * 8, [1] * 8), machines)
    except ScenarioFormatError as exc:
        return exc.field, exc.detail
    except ValueError as exc:  # a domain rule, refused as scenario_from_dict refuses it
        return "<document>", str(exc)
    return [
        (vm.id, vm.compute_cap, type(vm.compute_cap), vm.storage_cap, type(vm.storage_cap), vm.hosted)
        for vm in machines
    ]


@settings(derandomize=True, database=None, max_examples=500)
@given(_near_valid_vms())
def test_one_pass_read_gives_the_machines_of_the_field_walk(vms):
    outcome = _vms_outcome(scenario_mod._read_vms, vms)
    assert outcome == _vms_outcome(reference_read_vms, vms)
    if isinstance(outcome, list):
        assert isinstance(scenario_mod._read_vms(vms), Inventory)


@pytest.fixture(scope="module")
def trained_at_100(tmp_path_factory):
    scenario = generate(1)
    _, learner = train(AgentVariant.OFF_POLICY_TABULAR, scenario, Hyperparameters(episodes=50), 0)
    model_path = tmp_path_factory.mktemp("model") / "model.json"
    save_policy(learner, model_path)
    return scenario, str(model_path)


@pytest.mark.parametrize("policy", ["greedy", "trained", "oracle"])
def test_a_request_builds_no_machine_object_per_machine(trained_at_100, policy):
    scenario, model_path = trained_at_100
    doc = json.loads(json.dumps(_request_doc(scenario, {"kind": policy, "model": model_path})))
    built = []
    build = VirtualMachine.__post_init__
    with mock.patch.object(
        VirtualMachine, "__post_init__", lambda vm: built.append(vm.id) or build(vm)
    ):
        status, body = handle_map(doc)
    assert status == 200 and body["status"] in ("mapped", "infeasible")
    assert scenario.num_vms == 100 and built == []


_POLICY_KEYS = ("version", "kind", "variant", "num_components", "num_vms", "values", "weights")
_POLICY_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["tabular", "linear", "off-tab"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=8)
    | st.dictionaries(st.sampled_from(_POLICY_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)
@st.composite
def _near_valid_policies(draw):
    """A policy file for 8 components and 12 machines with any entries, and
    with up to two of its fields deleted or replaced by any JSON value."""
    kind = draw(st.sampled_from(["tabular", "linear"]))
    doc = {"version": 1, "kind": kind, "variant": "off-tab", "num_components": 8, "num_vms": 12}
    if kind == "tabular":
        doc["values"] = draw(arrays(float, (8, 12, 12), elements=st.floats())).tolist()
    else:
        entries = st.floats() | st.integers() | st.booleans()
        doc["weights"] = draw(st.lists(entries, min_size=7, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(_POLICY_KEYS))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_POLICY_VALUES)
    return doc


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("model-file")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    (_near_valid_policies() | _POLICY_VALUES).map(lambda doc: json.dumps(doc).encode())
    | st.binary(max_size=64)
)
def test_any_model_file_gets_200_or_400_on_policy_model(model_dir, contents):
    path = model_dir / "model.json"
    path.write_bytes(contents)
    body = _roomy_request({"kind": "trained", "model": str(path)})
    status, reply = handle_map(body)
    assert status == 200 or (status, reply["error"]["field"]) == (400, "policy.model")
    json.dumps(reply)
    # The answer does not depend on which file was parsed before: with no file
    # parsed yet, the same request parses the file once and answers alike.
    with mock.patch.object(agents, "_last_policy", (None, None)), mock.patch.object(
        agents, "decode_document", wraps=agents.decode_document
    ) as decode:
        assert handle_map(body) == (status, reply)
    assert decode.call_count == 1
