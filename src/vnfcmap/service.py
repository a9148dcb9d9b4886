"""Thin mapping decision service.

Mirrors the operational loop around the mapper: component requirement
documents and machine capacity profiles come in, a mapping decision goes out.
Everything besides the decision itself (onboarding, security sign-off) is
represented by a built-in descriptor that ``GET /health`` reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from time import monotonic
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
    assignment_solver,
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
# Handler threads of a server, read when it is built; 16 is not derived from
# measured traffic.
HANDLERS = 16
# Seconds a client refused with 503 is asked to wait before it retries.
RETRY_AFTER_S = 1
# Seconds a refused connection is kept open at most for its client to finish
# sending and to read the 503.
REFUSED_LINGER_S = 1.0


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


def _error(field: str, detail: str) -> dict:
    """The body of every refusal: the offending field and what is wrong with it."""
    return {"error": {"field": field, "detail": detail}}


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
        return 400, _error(exc.field, exc.detail)
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


class _DeadlineReader(io.RawIOBase):
    """Reads a socket with the time left until ``deadline`` as the timeout
    of each read, so the reads of one request share a single time limit."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock, self._deadline = sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self._sock.settimeout(left)
        return self._sock.recv_into(buffer)


class _Handler(BaseHTTPRequestHandler):
    server_version = "vnfcmap"
    # Seconds a connection has to send its whole request, so a client that
    # sends nothing, or one byte now and then, holds a handler thread for at
    # most this long. Sending the answer is given the same time again.
    timeout = 10.0

    def setup(self) -> None:
        super().setup()
        self.rfile.close()  # the socket's own reader, which times each read alone
        self.rfile = io.BufferedReader(
            _DeadlineReader(self.connection, monotonic() + self.timeout)
        )

    def _send_json(self, status: int, body: dict) -> None:
        self.connection.settimeout(self.timeout)
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
            self._send_json(404, _error("<path>", f"unknown {self.path}"))

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/map":
            self._send_json(404, _error("<path>", f"unknown {self.path}"))
            return
        length = self.headers.get("Content-Length")
        if length is None or not (length.isascii() and length.isdigit()):
            detail = "is required" if length is None else (
                f"must be a non-negative integer, got {length!r}"
            )
            self._send_json(400, _error("<headers>.Content-Length", detail))
            return
        # Digit counts are compared first, because int() refuses a string of
        # more than 4300 digits.
        digits = length.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            detail = f"declares more than the {MAX_BODY_BYTES} bytes accepted"
            self._send_json(413, _error("<headers>.Content-Length", detail))
            return
        try:
            raw = self.rfile.read(int(digits))
        except TimeoutError:
            detail = f"declared {length} bytes, but the request took over {self.timeout} s"
            self._send_json(408, _error("<body>", detail))
            return
        try:
            status, body = handle_map(decode_document(raw, "<body>"), self.server.default_model)
        except ScenarioFormatError as exc:  # from decode_document; handle_map answers its own
            status, body = 400, _error(exc.field, exc.detail)
        self._send_json(status, body)

    def log_message(self, format: str, *args) -> None:  # quiet by default
        pass


class MappingServer(HTTPServer):
    """Serves connections on a pool of ``HANDLERS`` threads. The accept
    loop hands a connection to the pool when a handler is idle, or answers it
    503 itself when every handler is busy; it never waits for one. Connections
    are HTTP/1.0, one request each, and a request must arrive in full within
    ``_Handler.timeout``, so a handler is held for at most that long plus the
    time to decide and send the answer."""

    def __init__(self, address, default_model: Optional[str] = None):
        self.default_model = default_model
        # Refused connections still open, each with the time it is closed by.
        self._refused: list[tuple[socket.socket, float]] = []
        self._handlers = HANDLERS
        self._pool = ThreadPoolExecutor(self._handlers, thread_name_prefix="vnfcmap-handler")
        # Connections handed to the pool and not yet released by their handler;
        # one per busy handler.
        self._serving: set[socket.socket] = set()
        self._serving_lock = threading.Lock()
        self._closing = False
        # Last: a failed bind calls ``server_close``, which reads the state above.
        super().__init__(address, _Handler)
        busy = _error("<connection>", f"all {self._handlers} handlers are busy")
        payload = json.dumps(busy).encode()
        self._busy_reply = (
            "HTTP/1.0 503 Service Unavailable\r\n"
            f"Server: {_Handler.server_version}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Retry-After: {RETRY_AFTER_S}\r\n\r\n"
        ).encode() + payload

    def process_request(self, request, client_address) -> None:
        with self._serving_lock:
            if len(self._serving) < self._handlers:
                self._serving.add(request)
                self._pool.submit(self._serve, request, client_address)
                return
        # Closing a socket while the client still sends its request resets the
        # connection, which can discard the answer unread; so a refused
        # connection stays open, with its unread input discarded, until the
        # client hangs up or REFUSED_LINGER_S have passed.
        request.setblocking(False)
        with contextlib.suppress(OSError):  # the client is gone
            request.send(self._busy_reply)
            request.shutdown(socket.SHUT_WR)
        self._refused.append((request, monotonic() + REFUSED_LINGER_S))

    def service_actions(self) -> None:
        """Close each refused connection whose client has hung up or whose time
        is up; ``serve_forever`` calls this after every connection and poll."""
        now = monotonic()
        still_open = []
        for request, deadline in self._refused:
            if _hung_up(request) or now > deadline:
                request.close()
            else:
                still_open.append((request, deadline))
        self._refused = still_open

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            if not self._closing:  # else the close itself broke the connection
                self.handle_error(request, client_address)
        finally:
            # Free again before the close, so a client that has seen the
            # connection close finds this handler free.
            with self._serving_lock:
                self._serving.discard(request)
            self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and every refused connection, end the
        connections being served, so that a blocked read returns at once, and
        wait for the handlers."""
        super().server_close()
        self._closing = True
        for request, _ in self._refused:
            request.close()
        self._refused.clear()
        with self._serving_lock:
            for request in self._serving:
                with contextlib.suppress(OSError):  # the client is gone
                    request.shutdown(socket.SHUT_RDWR)
        self._pool.shutdown()


def _hung_up(sock: socket.socket) -> bool:
    """Whether the client of a non-blocking socket has closed its side. Up to
    64 KiB of what it has sent is read and discarded."""
    try:
        return not sock.recv(1 << 16)
    except BlockingIOError:
        return False
    except OSError:  # reset by the client
        return True


def make_server(
    port: int, host: str = "127.0.0.1", default_model: Optional[str] = None
) -> MappingServer:
    """A server bound to ``host:port``, with the oracle's assignment solver
    already loaded so that the first oracle request does not wait for it."""
    assignment_solver()
    return MappingServer((host, port), default_model)
