"""Thin mapping decision service.

Mirrors the operational loop around the mapper: component requirement
documents and machine capacity profiles come in, a mapping decision goes out.
Everything besides the decision itself (onboarding, security sign-off) is
represented by a static descriptor validated at startup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

import numpy as np

from .agents import greedy_rollout, load_policy
from .mdp import MappingEnvironment
from .model import VnfComponent
from .oracle import (
    AssignmentProblem,
    InfeasibleAssignmentError,
    ObjectiveMode,
    assignment_objective,
    greedy_best_fit,
    solve_exact_matching,
)
from .oracle import pair_cost  # noqa: F401 (perfbench/layers.py wraps it here)
from .scenario import Scenario, ScenarioFormatError, scenario_from_dict

DEFAULT_DESCRIPTOR = {
    "name": "mapping-decision-service",
    "version": 1,
    "stages": {
        "onboarding": "mocked",
        "security_authorization": "mocked",
        "resource_assessment": "active",
        "mapping_decision": "active",
        "decision_forwarding": "active",
    },
}

POLICY_KINDS = ("oracle", "greedy", "trained")


class RequestError(ValueError):
    """Malformed request body; ``field`` points at the offending element."""

    def __init__(self, field: str, detail: str):
        self.field = field
        self.detail = detail
        super().__init__(f"{field}: {detail}")


def validate_descriptor(doc: dict) -> None:
    for key in ("name", "version", "stages"):
        if key not in doc:
            raise ValueError(f"descriptor is missing {key!r}")
    stages = doc["stages"]
    for stage in ("onboarding", "security_authorization"):
        if stages.get(stage) != "mocked":
            raise ValueError(f"descriptor stage {stage!r} must be declared 'mocked'")


@dataclass(frozen=True)
class MappingRequest:
    scenario: Scenario
    policy: str
    model_path: Optional[str]
    objective_mode: ObjectiveMode


def parse_request(doc: dict) -> MappingRequest:
    if not isinstance(doc, dict):
        raise RequestError("<body>", "request body must be a JSON object")
    for key in ("slice", "vms", "policy"):
        if key not in doc:
            raise RequestError(key, "is required")
    policy_doc = doc["policy"]
    if isinstance(policy_doc, str):
        policy_doc = {"kind": policy_doc}
    if not isinstance(policy_doc, dict) or "kind" not in policy_doc:
        raise RequestError("policy.kind", "is required")
    kind = policy_doc["kind"]
    if kind not in POLICY_KINDS:
        raise RequestError("policy.kind", f"must be one of {POLICY_KINDS}, got {kind!r}")
    model_path = policy_doc.get("model")
    if model_path is not None and not isinstance(model_path, str):
        raise RequestError("policy.model", "must be a string")

    mode_name = doc.get("objective_mode", ObjectiveMode.ABSOLUTE_SURPLUS.value)
    try:
        mode = ObjectiveMode(mode_name)
    except ValueError:
        raise RequestError("objective_mode", f"unknown mode {mode_name!r}") from None

    try:
        scenario = scenario_from_dict(
            {"version": 1, "seed": None, "params": None, "slice": doc["slice"], "vms": doc["vms"]}
        )
    except ScenarioFormatError as exc:
        raise RequestError(exc.field, exc.detail) from exc
    except ValueError as exc:
        raise RequestError("<document>", str(exc)) from exc
    return MappingRequest(scenario, kind, model_path, mode)


def _trained_pairs(scenario: Scenario, model_path: str) -> dict[int, int]:
    snapshot = load_policy(model_path)
    estimator = snapshot.estimator_for(scenario)
    env = MappingEnvironment(scenario, np.random.default_rng(0))
    pairs = greedy_rollout(estimator, env, start_anchor=1)
    if pairs is None:
        raise InfeasibleAssignmentError(
            "greedy replay of the trained policy hit an infeasible choice"
        )
    return pairs


def _wastage_entry(comp: VnfComponent, scenario: Scenario, vm_id: int) -> dict:
    vm = scenario.vms[vm_id - 1]
    return {
        "component": comp.id,
        "vm": vm_id,
        "compute_idle_fraction": 1.0 - comp.compute_req / vm.compute_cap,
        "storage_idle_fraction": 1.0 - comp.storage_req / vm.storage_cap,
    }


def handle_map(doc: dict, default_model: Optional[str] = None) -> tuple[int, dict]:
    """Decide a mapping for one request; returns (http status, response body)."""
    try:
        request = parse_request(doc)
    except RequestError as exc:
        return 400, {"error": {"field": exc.field, "detail": exc.detail}}

    model_path = request.model_path or default_model
    if request.policy == "trained" and not model_path:
        return 400, {
            "error": {"field": "policy.model", "detail": "is required for the trained policy"}
        }
    try:
        problem = AssignmentProblem(
            request.scenario.subnet.components,
            request.scenario.vms,
            request.objective_mode,
        )
        if request.policy == "oracle":
            solution = solve_exact_matching(problem)
            pairs = solution.pairs
            objective = solution.objective_value
        else:
            if request.policy == "greedy":
                pairs = greedy_best_fit(problem.components, problem.vms)
            else:
                pairs = _trained_pairs(request.scenario, model_path)
            objective = assignment_objective(problem, pairs)
    except InfeasibleAssignmentError as exc:
        return 200, {"status": "infeasible", "rule": exc.rule, "detail": exc.detail}
    except (ValueError, OSError) as exc:
        return 400, {"error": {"field": "policy.model", "detail": str(exc)}}

    components = request.scenario.subnet.components
    return 200, {
        "status": "mapped",
        "policy": request.policy,
        "pairs": {str(cid): vm for cid, vm in sorted(pairs.items())},
        "objective": {"mode": request.objective_mode.value, "value": objective},
        "per_pair_wastage": [
            _wastage_entry(comp, request.scenario, pairs[comp.id]) for comp in components
        ],
    }


class _Handler(BaseHTTPRequestHandler):
    server_version = "vnfcmap"
    # Socket timeout in seconds for every read, so a body shorter than its
    # Content-Length cannot hold a handler thread.
    timeout = 10.0

    def _send_json(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/health":
            self._send_json(200, {"status": "ok", "descriptor": self.server.descriptor})
        else:
            self._send_json(404, {"error": {"field": "<path>", "detail": f"unknown {self.path}"}})

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/map":
            self._send_json(404, {"error": {"field": "<path>", "detail": f"unknown {self.path}"}})
            return
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            detail = f"must be a non-negative integer, got {length!r}"
            self._send_json(400, {"error": {"field": "<headers>.Content-Length", "detail": detail}})
            return
        try:
            raw = self.rfile.read(int(length))
        except TimeoutError:
            detail = f"declared {length} bytes but the body did not arrive within {self.timeout} s"
            self._send_json(408, {"error": {"field": "<body>", "detail": detail}})
            return
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._send_json(400, {"error": {"field": "<body>", "detail": f"invalid JSON: {exc}"}})
            return
        status, body = handle_map(doc, default_model=self.server.default_model)
        self._send_json(status, body)

    def log_message(self, format: str, *args) -> None:  # quiet by default
        pass


class MappingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, descriptor: dict, default_model: Optional[str] = None):
        validate_descriptor(descriptor)
        self.descriptor = descriptor
        self.default_model = default_model
        super().__init__(address, _Handler)


def make_server(
    port: int,
    host: str = "127.0.0.1",
    descriptor_path: Optional[str] = None,
    default_model: Optional[str] = None,
) -> MappingServer:
    descriptor = DEFAULT_DESCRIPTOR
    if descriptor_path:
        descriptor = json.loads(Path(descriptor_path).read_text())
    return MappingServer((host, port), descriptor, default_model)
