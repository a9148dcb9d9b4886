"""serve-map: the operator's traffic through ``POST /map``.

A real ``MappingServer`` runs in a child process on 127.0.0.1
(server_child.py). This process is its one client: a closed loop over one
connection, because a caller of a mapping decision waits for the reply, and
because client and server share the one CPU the benchmark runs on. Request
bodies are serialized in setup from generated 8x100 instances and cover the
greedy, trained and oracle policies; the trained policy uses the server's
default model, trained in setup. A few bodies carry an inventory nothing
fits (``200 infeasible``) or a malformed field (``400``).

Each policy loads a different layer: greedy is mostly HTTP, JSON and request
parsing; trained adds ``agents.load_policy``, which re-reads ``model.json``
on every request; oracle adds the oracle itself.

No record of real request traffic exists, so the mix is an assumption: every
inventory is sent once under each policy (equal thirds), plus two bodies
nothing fits and two malformed ones, 28 requests a pass. At about 3, 22 and
45 ms per request the oracle takes roughly two thirds of the server's time,
so ``ops_per_s`` leans on the oracle. The per-policy ``map_ms.<policy>.p50``
figures do not depend on the mix.

``ops_per_s`` is ``common.pass_rate``: requests per second over one pass,
each request at its median latency over the passes scaled to the reference
host of reference.py, whose kernel the client times between requests while
the server is idle. ``map_rps`` is the plain count of requests over the
summed client latencies. A run whose ``map_ms.p90`` rests on fewer than 100
latencies counts as a failed operation, except with ``--smoke``.

Every response's status and bytes must equal what in-process ``handle_map``
returned for the same body during setup, and those answers must match the
digests in expected.json. Single oracle requests vary severalfold in cost
between inventories, so the timed bodies come from a fixed pool (drawn once
from ``POOL_SEED``, the model trained on a fixed scenario); ``--seed`` sets
their order and draws a fresh inventory whose three bodies are sent once,
untimed, after the timed loop.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import reference
from common import HERE, OUT, BenchmarkError, Record, import_program, p50, pass_rate, quantile, sha256

INSTANCES = 8
SMOKE_INSTANCES = 1
POOL_SEED = 20261017
MODEL_SCENARIO_SEED = 1
SERVER_START_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 60
# map_ms.p90 needs at least ten samples beyond it.
MIN_P90_SAMPLES = 100


@dataclass(frozen=True)
class Request:
    key: str
    policy: str  # greedy, trained, oracle, or rejected for a malformed body
    body: bytes
    status: int
    response: bytes


class ServerProcess:
    """The benchmark's own server launcher, one child process."""

    def __init__(self, model_path: Path, workdir: Path, trace_out: Optional[Path] = None):
        argv = [sys.executable, str(HERE / "server_child.py"), "--model", str(model_path)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(argv, cwd=workdir, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        timer = threading.Timer(SERVER_START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line.strip().isdigit():
            self.stop()
            raise BenchmarkError("mapping server child did not report a port")
        self.port = int(line)

    def stop(self) -> int:
        """Ask the server to stop, reap it and return its peak RSS in KiB."""
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        timer = threading.Timer(SERVER_START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchmarkError(f"mapping server exited with code {self.proc.returncode}")
        return usage.ru_maxrss


@dataclass
class Context:
    requests: list[Request]
    fresh: list[Request]
    model_path: Path
    workdir: Path
    smoke: bool
    server: Optional[ServerProcess] = None


def _inventory_docs(label: str, inventories: list) -> list[tuple[str, str, dict]]:
    import inputs

    docs = []
    for i, (slice_doc, vms_doc) in enumerate(inventories):
        mode = inputs.MODES[i % 2]
        for policy in ("greedy", "trained", "oracle"):
            body = {"slice": slice_doc, "vms": vms_doc, "policy": {"kind": policy}, "objective_mode": mode}
            docs.append((f"{label}{i}.{policy}", policy, body))
    return docs


def _pool_docs(instances: int) -> list[tuple[str, str, dict]]:
    """The timed request list: the model's own scenario and drawn inventories
    under every policy, two inventories nothing fits, and two malformed bodies."""
    import numpy as np

    import inputs
    from vnfcmap import scenario

    trained_on = scenario.scenario_to_dict(scenario.generate(MODEL_SCENARIO_SEED))
    inventories = [(trained_on["slice"], trained_on["vms"])]
    rng = np.random.default_rng(POOL_SEED)
    for _ in range(instances - 1):
        inst = inputs.draw_instance(rng, 100)
        inventories.append((inst.slice_doc(), inst.vms_doc()))
    slice_doc, vms_doc = inventories[0]
    too_small = [{"id": j + 1, "compute_cap": 0.5, "storage_cap": 0.5} for j in range(len(vms_doc))]
    return _inventory_docs("inventory", inventories) + [
        ("too-small.greedy", "greedy", {"slice": slice_doc, "vms": too_small, "policy": "greedy"}),
        ("too-small.oracle", "oracle", {"slice": slice_doc, "vms": too_small, "policy": {"kind": "oracle"}}),
        ("missing-vms", "rejected", {"slice": slice_doc, "policy": "greedy"}),
        ("unknown-policy", "rejected", {"slice": slice_doc, "vms": vms_doc, "policy": {"kind": "random"}}),
    ]


def _train_model(scenario_seed: int, path: Path) -> None:
    from vnfcmap import agents, mdp, scenario

    inst = scenario.generate(scenario_seed)
    _, learner = agents.train(agents.AgentVariant.OFF_POLICY_TABULAR, inst, mdp.Hyperparameters(), seed=0)
    path.parent.mkdir(parents=True, exist_ok=True)
    agents.save_policy(learner, path)


def _requests(docs: list[tuple[str, str, dict]], model_path: Path) -> list[Request]:
    """Serialize each body and keep what in-process ``handle_map`` answers to it."""
    from vnfcmap import service

    requests = []
    for key, policy, doc in docs:
        body = json.dumps(doc).encode()
        status, response = service.handle_map(json.loads(body), default_model=str(model_path))
        requests.append(Request(key, policy, body, status, json.dumps(response).encode()))
    return requests


def setup(seed: int, smoke: bool) -> Context:
    import_program()
    import numpy as np

    import inputs

    workdir = OUT / f"serve-map-{os.getpid()}"
    model_path = workdir / "model.json"
    _train_model(MODEL_SCENARIO_SEED, model_path)
    rng = np.random.default_rng(seed)
    pool = _requests(_pool_docs(SMOKE_INSTANCES if smoke else INSTANCES), model_path)
    fresh_inst = inputs.draw_instance(rng, 100)
    fresh = _requests(_inventory_docs("fresh", [(fresh_inst.slice_doc(), fresh_inst.vms_doc())]), model_path)
    ctx = Context([pool[i] for i in rng.permutation(len(pool))], fresh, model_path, workdir, smoke)
    ctx.server = ServerProcess(model_path, workdir)
    return ctx


def teardown(ctx: Context) -> None:
    if ctx.server is not None:
        ctx.server.stop()
        ctx.server = None
    shutil.rmtree(ctx.workdir, ignore_errors=True)


def _stop_server(ctx: Context, record: Record) -> None:
    record.child_rss(ctx.server.stop())
    ctx.server = None


def _post(port: int, req: Request) -> tuple[float, bool]:
    """One request on a fresh connection; returns the latency in ms and whether
    the status and body equal the in-process answer."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        start = perf_counter()
        conn.request("POST", "/map", req.body, {"Content-Type": "application/json"})
        reply = conn.getresponse()
        data = reply.read()
        elapsed = (perf_counter() - start) * 1e3
    finally:
        conn.close()
    return elapsed, reply.status == req.status and data == req.response


def _drive(ctx: Context, seconds: float, record: Record) -> tuple[int, list[float]]:
    """Closed loop over one connection, whole passes of the request list,
    until ``seconds`` are up.

    Returns the number of passes and every client latency in ms. The
    reference kernel runs between requests, while the server is idle.
    """
    port = ctx.server.port
    latencies: list[float] = []
    deadline = perf_counter() + seconds
    passes = 0
    while not passes or perf_counter() < deadline:
        for req in ctx.requests:
            try:
                (elapsed, ok), _, scaled = reference.KERNEL.timed(lambda: _post(port, req))
            except (OSError, http.client.HTTPException) as exc:
                record.outcome(False, f"{req.key}: {exc!r}")
                continue
            latencies.append(elapsed)
            record.sample(f"op_ms.{req.policy}", elapsed)
            record.sample(f"key.{req.key}", scaled)
            record.outcome(ok, req.key)
        passes += 1
    return passes, latencies


def _check_fresh(ctx: Context, record: Record) -> None:
    """Send the seed's fresh bodies once each, untimed."""
    for req in ctx.fresh:
        try:
            record.outcome(_post(ctx.server.port, req)[1], req.key)
        except (OSError, http.client.HTTPException) as exc:
            record.outcome(False, f"{req.key}: {exc!r}")


def measure(ctx: Context, seconds: float, record: Record, expected: dict) -> dict:
    _, latencies = _drive(ctx, seconds, record)
    if len(latencies) < MIN_P90_SAMPLES and not ctx.smoke:
        record.outcome(False, f"map_ms.p90 rests on {len(latencies)} latencies, fewer than {MIN_P90_SAMPLES}")
    _check_fresh(ctx, record)
    _stop_server(ctx, record)
    return {
        "map_ms.greedy.p50": p50(record, "op_ms.greedy"),
        "map_ms.trained.p50": p50(record, "op_ms.trained"),
        "map_ms.oracle.p50": p50(record, "op_ms.oracle"),
        "map_ms.p90": (quantile(latencies, 0.9) if latencies else 0.0, "ms", len(latencies)),
        "map_rps": (len(latencies) / (sum(latencies) / 1e3), "1/s", len(latencies)),
        "ops_per_s": pass_rate(record),
    }


def _union_length(intervals: list) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def measure_traced(ctx: Context, seconds: float, record: Record, tracer, expected: dict) -> tuple[int, dict]:
    """Half the time against the plain server, then against one with the
    wrappers installed inside the server process."""
    _, plain = _drive(ctx, seconds / 2, record)
    _check_fresh(ctx, record)
    _stop_server(ctx, record)
    trace_out = ctx.workdir / "server-trace.json"
    ctx.server = ServerProcess(ctx.model_path, ctx.workdir, trace_out)
    passes, traced = _drive(ctx, seconds / 2, record)
    _stop_server(ctx, record)
    doc = json.loads(trace_out.read_text())
    tracer.merge(doc["snapshot"])
    handled = [row for name, row in tracer.stats.items() if name.startswith("service.handle_map.")]
    handle_ms = sum(r[1] for r in handled) / sum(r[0] for r in handled) * 1e3
    intervals = doc["handle_map_intervals"]
    window = max(hi for _, hi in intervals) - min(lo for lo, _ in intervals)
    mean_plain, mean_traced = sum(plain) / len(plain), sum(traced) / len(traced)
    return passes, {
        "service.http_overhead_ms": mean_traced - handle_ms,
        "service.busy_ratio": _union_length(intervals) / window if window > 0 else 0.0,
        "trace.overhead_ratio": mean_traced / mean_plain - 1.0,
    }


def _response_digest(req: Request) -> str:
    return sha256(str(req.status).encode(), req.response)


def verify(ctx: Context, record: Record, expected: dict) -> None:
    """The in-process answers the server was held to must match expected.json."""
    for req in ctx.requests:
        record.outcome(_response_digest(req) == expected.get(req.key), f"{req.key} in-process answer")


def expected_digests() -> dict[str, str]:
    ctx = setup(0, smoke=False)
    try:
        return {req.key: _response_digest(req) for req in ctx.requests}
    finally:
        teardown(ctx)
