import copy
import json
import math
import os
import socket
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnfcmap import service
from vnfcmap.agents import AgentVariant, save_policy, train
from vnfcmap.mdp import Hyperparameters
from vnfcmap.model import make_slice
from vnfcmap.scenario import (
    MAX_AMOUNT,
    GenerationParams,
    generate,
    identity_scenario,
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


@pytest.mark.parametrize(
    "policy_doc,field",
    [
        (_policy_file("tabular", 12, values=np.zeros((2, 12, 12))), "values"),
        (_policy_file("tabular", 12, values=_NAN_VALUES), "values"),
        (_policy_file("linear", 12, weights=np.zeros(2)), "weights"),
        (_policy_file("tabular", 12, k=2, values=_TWO_COMPONENT_VALUES), "num_components"),
        (_policy_file("quadratic", 12, weights=np.zeros(7)), "kind"),
        ([_LINEAR_12], "<document>"),
        (_without(_LINEAR_12, "kind"), "kind"),
        (_without(_TABULAR_12, "variant"), "variant"),
        (_TABULAR_12 | {"num_components": "8"}, "num_components"),
        (_TABULAR_12 | {"num_vms": 12.0}, "num_vms"),
        (_TABULAR_12 | {"values": 10**400}, "values"),
        (_TABULAR_12 | {"values": np.zeros((8, 12, 12)).astype(str).tolist()}, "values"),
        (_LINEAR_12 | {"weights": [True] * 7}, "weights"),
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
    ],
)
def test_trained_policy_rejects_malformed_model_file(tmp_path, policy_doc, field):
    scenario = generate(31, GenerationParams(num_vms=12))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(policy_doc))
    status, body = handle_map(_request_doc(scenario, {"kind": "trained", "model": str(model_path)}))
    assert status == 400
    assert body["error"]["field"] == "policy.model"
    assert body["error"]["detail"].startswith(f"{field}: ")


def test_trained_policy_refuses_a_model_path_that_is_not_a_regular_file(tmp_path):
    # Reading a FIFO with no writer would block the handler forever.
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)
    scenario = generate(31, GenerationParams(num_vms=12))
    status, body = handle_map(_request_doc(scenario, {"kind": "trained", "model": str(fifo)}))
    assert status == 400
    assert body["error"]["field"] == "policy.model"
    assert body["error"]["detail"].startswith("<document>: ")


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


@pytest.fixture()
def server():
    srv = make_server(0)
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


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


def test_http_malformed_body(server, canonical):
    port = server.server_address[1]
    doc = _request_doc(canonical, "oracle")
    del doc["slice"]
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(port, "/map", doc)
    assert err.value.code == 400
    assert json.loads(err.value.read())["error"]["field"] == "slice"


def test_http_unknown_path(server):
    port = server.server_address[1]
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
    assert err.value.code == 404


def test_http_invalid_json(server):
    port = server.server_address[1]
    req = urllib.request.Request(f"http://127.0.0.1:{port}/map", data=b"{not json")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req)
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


def test_http_short_body_times_out(server, monkeypatch):
    # The body is 2 bytes against a declared 100; the client keeps the
    # connection open, so only the handler's socket timeout ends the read.
    monkeypatch.setattr(service._Handler, "timeout", 0.2)
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
