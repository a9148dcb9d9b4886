"""Thin mapping decision service.

Mirrors the operational loop around the mapper: component requirement
documents and machine capacity profiles come in, a mapping decision goes out.
Everything besides the decision itself (onboarding, security sign-off) is
represented by a built-in descriptor that ``GET /health`` reports.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import re
import socket
import socketserver
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from time import monotonic
from typing import Optional

import numpy as np

from .agents import greedy_rollout, load_policy
from .mdp import MappingEnvironment
from .model import Inventory, VnfComponent
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
# Seconds a connection has to send its whole request, however slowly it sends
# it, and then again to take its answer.
REQUEST_TIMEOUT_S = 10.0
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


def _answer(status: int, body: dict, extra_headers: str = "") -> bytes:
    """The bytes of a whole answer: the HTTP/1.0 status line, the headers and
    the JSON body. Every reply of the service is one, sent in one write."""
    payload = json.dumps(body).encode()
    head = (
        f"HTTP/1.0 {status:d} {HTTPStatus(status).phrase}\r\n"
        "Server: vnfcmap\r\n"
        f"Date: {formatdate(usegmt=True)}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n{extra_headers}\r\n"
    )
    return head.encode() + payload


def _wastage_entry(comp: VnfComponent, vms: Inventory, vm_id: int) -> dict:
    return {
        "component": comp.id,
        "vm": vm_id,
        "compute_idle_fraction": 1.0 - comp.compute_req / vms.compute_caps[vm_id - 1],
        "storage_idle_fraction": 1.0 - comp.storage_req / vms.storage_caps[vm_id - 1],
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
        "per_pair_wastage": [_wastage_entry(c, scenario.vms, pairs[c.id]) for c in components],
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


# The version a request line of three or more words ends with.
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


def _reply(sock: socket.socket, default_model: Optional[str]) -> Optional[tuple[int, dict]]:
    """The status and body that answer the one request on ``sock``, or None when
    the client sent nothing and hung up. The request line and headers are read
    as http.server's ``parse_request`` reads them, the headers by the same call."""
    rfile = io.BufferedReader(_DeadlineReader(sock, monotonic() + REQUEST_TIMEOUT_S))
    try:
        raw_line = rfile.readline(65537)
        if not raw_line:
            return None
        if len(raw_line) > 65536:  # http.server's limit, its line end included
            return 414, _error("<request>", HTTPStatus.REQUEST_URI_TOO_LONG.description)
        line = raw_line.decode("latin-1").rstrip("\r\n")
        words = line.split()
        if len(words) >= 3:
            version = _VERSION.fullmatch(words[-1])
            if version is None:
                return 400, _error("<request>", f"Bad request version ({words[-1]!r})")
            if int(version[1]) >= 2:
                return 505, _error("<request>", f"Invalid HTTP version ({words[-1][5:]})")
        if not 2 <= len(words) <= 3:
            return 400, _error("<request>", f"Bad request syntax ({line!r})")
        method, path = words[:2]
        if len(words) == 2 and method != "GET":
            return 400, _error("<request>", f"Bad HTTP/0.9 request type ({method!r})")
        path = "/" + path.lstrip("/") if path.startswith("//") else path
        headers = http.client.parse_headers(rfile)
    except TimeoutError:
        detail = f"the request line and headers took over {REQUEST_TIMEOUT_S} s"
        return 408, _error("<request>", detail)
    except http.client.LineTooLong:
        return 431, _error("<request>", "Line too long")
    except http.client.HTTPException:
        return 431, _error("<request>", "Too many headers")
    if method not in ("GET", "POST"):
        return 501, _error("<request>", f"Unsupported method ({method!r})")
    if path != ("/health" if method == "GET" else "/map"):
        return 404, _error("<path>", f"unknown {path}")
    if method == "GET":
        return 200, {"status": "ok", "descriptor": DEFAULT_DESCRIPTOR}
    length = headers.get("Content-Length")
    if length is None or not (length.isascii() and length.isdigit()):
        detail = "is required" if length is None else (
            f"must be a non-negative integer, got {length!r}"
        )
        return 400, _error("<headers>.Content-Length", detail)
    # Digit counts are compared first, because int() refuses a string of
    # more than 4300 digits.
    digits = length.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        detail = f"declares more than the {MAX_BODY_BYTES} bytes accepted"
        return 413, _error("<headers>.Content-Length", detail)
    try:
        raw = rfile.read(int(digits))
    except TimeoutError:
        detail = f"declared {length} bytes, but the request took over {REQUEST_TIMEOUT_S} s"
        return 408, _error("<body>", detail)
    try:
        return handle_map(decode_document(raw, "<body>"), default_model)
    except ScenarioFormatError as exc:  # from decode_document; handle_map answers its own
        return 400, _error(exc.field, exc.detail)


class MappingServer(socketserver.TCPServer):
    """Serves connections on a pool of ``HANDLERS`` threads. The accept
    loop hands a connection to the pool when a handler is idle, or answers it
    503 itself when every handler is busy; it never waits for one. Connections
    are HTTP/1.0, one request each, and a request must arrive in full within
    ``REQUEST_TIMEOUT_S``, so a handler is held for at most that long plus the
    time to decide; it counts as idle from just before its answer is sent.
    Every answer is one ``_answer``, sent in one write."""

    allow_reuse_address = True

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
        super().__init__(address, None)  # no handler class: ``_serve`` answers

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
        busy = _error("<connection>", f"all {self._handlers} handlers are busy")
        request.setblocking(False)
        with contextlib.suppress(OSError):  # the client is gone
            request.sendall(_answer(503, busy, f"Retry-After: {RETRY_AFTER_S}\r\n"))
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
            reply = _reply(request, self.default_model)
            # The handler's slot is freed first, so that a client which has
            # read its whole answer never finds this handler still busy.
            self._free(request)
            if reply is not None:
                request.settimeout(REQUEST_TIMEOUT_S)
                with contextlib.suppress(TimeoutError):  # the client did not take it in time
                    request.sendall(_answer(*reply))
        except Exception:
            if not self._closing:  # else the close itself broke the connection
                self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            self._free(request)  # if the read raised

    def _free(self, request) -> None:
        """Count ``request``'s handler as idle, so the accept loop may hand
        it the next connection."""
        with self._serving_lock:
            self._serving.discard(request)

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
    """A server bound to ``host:port``. A bad ``default_model`` raises before the
    bind; a good one, and the oracle's solver, are loaded first so no request waits."""
    if default_model:
        load_policy(default_model)
    assignment_solver()
    return MappingServer((host, port), default_model)
