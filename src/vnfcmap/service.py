"""Thin mapping decision service.

Mirrors the operational loop around the mapper: component requirement
documents and machine capacity profiles come in, a mapping decision goes out.
Everything besides the decision itself (onboarding, security sign-off) is
represented by a built-in descriptor that ``GET /health`` reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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
from .scenario import (
    STRING,
    Scenario,
    ScenarioFormatError,
    decode_document,
    require,
    scenario_from_dict,
)

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
# Larger declared bodies get a 413 unread; a body with 10,000 machines is 0.5 MB.
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class MappingRequest:
    scenario: Scenario
    policy: str
    model_path: Optional[str]
    objective_mode: ObjectiveMode


def parse_request(doc: dict) -> MappingRequest:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("<body>", "must be a JSON object")
    slice_doc, vms_doc, policy_doc = (require(doc, key) for key in ("slice", "vms", "policy"))
    if isinstance(policy_doc, str):
        policy_doc = {"kind": policy_doc}
    kind = require(policy_doc, "kind", "policy.")
    if kind not in POLICY_KINDS:
        raise ScenarioFormatError("policy.kind", f"must be one of {POLICY_KINDS}, got {kind!r}")
    model_path = require(policy_doc, "model", "policy.", STRING, default=None)

    mode_name = require(doc, "objective_mode", default=ObjectiveMode.ABSOLUTE_SURPLUS.value)
    try:
        mode = ObjectiveMode(mode_name)
    except ValueError:
        raise ScenarioFormatError("objective_mode", f"unknown mode {mode_name!r}") from None

    scenario = scenario_from_dict(
        {"version": 1, "seed": None, "params": None, "slice": slice_doc, "vms": vms_doc}
    )
    return MappingRequest(scenario, kind, model_path, mode)


def _trained_pairs(scenario: Scenario, model_path: Optional[str]) -> dict[int, int]:
    if not model_path:
        raise ScenarioFormatError("policy.model", "is required for the trained policy")
    try:
        estimator = load_policy(model_path).estimator_for(scenario)
    except ScenarioFormatError as exc:
        # The request's field is the model path; the file's own field leads the detail.
        raise ScenarioFormatError("policy.model", str(exc)) from exc
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
        scenario, mode = request.scenario, request.objective_mode
        problem = AssignmentProblem(scenario.subnet.components, scenario.vms, mode)
        if request.policy == "oracle":
            solution = solve_exact_matching(problem)
            pairs, objective = solution.pairs, solution.objective_value
        else:
            if request.policy == "greedy":
                pairs = greedy_best_fit(problem.components, problem.vms)
            else:
                pairs = _trained_pairs(scenario, request.model_path or default_model)
            objective = assignment_objective(problem, pairs)
    except ScenarioFormatError as exc:
        return 400, {"error": {"field": exc.field, "detail": exc.detail}}
    except InfeasibleAssignmentError as exc:
        return 200, {"status": "infeasible", "rule": exc.rule, "detail": exc.detail}

    components = scenario.subnet.components
    return 200, {
        "status": "mapped",
        "policy": request.policy,
        "pairs": {str(cid): vm for cid, vm in sorted(pairs.items())},
        "objective": {"mode": mode.value, "value": objective},
        "per_pair_wastage": [_wastage_entry(c, scenario, pairs[c.id]) for c in components],
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
            self._send_json(200, {"status": "ok", "descriptor": DEFAULT_DESCRIPTOR})
        else:
            self._send_json(404, {"error": {"field": "<path>", "detail": f"unknown {self.path}"}})

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/map":
            self._send_json(404, {"error": {"field": "<path>", "detail": f"unknown {self.path}"}})
            return
        length = self.headers.get("Content-Length")
        if length is None or not (length.isascii() and length.isdigit()):
            detail = "is required" if length is None else (
                f"must be a non-negative integer, got {length!r}"
            )
            self._send_json(400, {"error": {"field": "<headers>.Content-Length", "detail": detail}})
            return
        # Digit counts are compared first, because int() refuses a string of
        # more than 4300 digits.
        digits = length.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            detail = f"declares more than the {MAX_BODY_BYTES} bytes accepted"
            self._send_json(413, {"error": {"field": "<headers>.Content-Length", "detail": detail}})
            return
        try:
            raw = self.rfile.read(int(digits))
        except TimeoutError:
            detail = f"declared {length} bytes but the body did not arrive within {self.timeout} s"
            self._send_json(408, {"error": {"field": "<body>", "detail": detail}})
            return
        try:
            status, body = handle_map(decode_document(raw, "<body>"), self.server.default_model)
        except ScenarioFormatError as exc:  # from decode_document; handle_map answers its own
            status, body = 400, {"error": {"field": exc.field, "detail": exc.detail}}
        self._send_json(status, body)

    def log_message(self, format: str, *args) -> None:  # quiet by default
        pass


class MappingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, default_model: Optional[str] = None):
        self.default_model = default_model
        super().__init__(address, _Handler)


def make_server(
    port: int, host: str = "127.0.0.1", default_model: Optional[str] = None
) -> MappingServer:
    """A server bound to ``host:port``, with the oracle's assignment solver
    already imported so that the first oracle request does not wait for it."""
    import scipy.optimize  # noqa: F401

    return MappingServer((host, port), default_model)
