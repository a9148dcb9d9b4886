"""cli-pipeline: the CLI user's command chain.

``generate-scenario -> train -> sweep -> compare -> oracle -> check-infra``,
each a fresh process in a work directory, started the way the installed
``vnfcmap`` console script starts (``from vnfcmap.cli import main``). A
``--help`` invocation does no work and so measures the start-up cost every
command pays, most of it importing ``scipy.optimize``. This is the only
workload that reaches ``cli`` and ``infra``, and it covers the write side the
service reads: ``save_policy``, the CSV and JSON writers and
``scenario.save``.

Every exit code must be 0 and the optimum the ``oracle`` command prints must
equal the benchmark's own. The first chain of a run works on a fixed
scenario, and everything it writes and prints must match the digest in
expected.json; later chains work on a scenario generated from ``--seed`` and
must repeat each other. Start-up dominates every command, so the scenario
moves a chain's time by a few percent only.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import reference
from common import (
    HERE,
    OUT,
    BenchmarkError,
    ChildRun,
    Record,
    files_digest,
    median,
    p50,
    pass_rate,
    program_env,
    require_source,
    run_child,
    usable_cpus,
)

ENTRY = "import sys; from vnfcmap.cli import main; sys.exit(main())"
STARTUP_PROBES_PER_CHAIN = 2
# The first chain works on the fixed scenario, the second on the seed's.
MIN_CHAINS, SMOKE_MIN_CHAINS = 2, 1
SWEEP_SEEDS = 2
FIXED_SCENARIO_SEED = 1
SEEDED_SCENARIO_OFFSET = 100_000
TOLERANCE = 1e-9


@dataclass
class Context:
    seed: int
    min_chains: int
    workdir: Path
    env: dict
    seeded_digest: Optional[str] = None


def _commands(scenario_seed: int) -> list[tuple[str, list[str]]]:
    workers = str(max(1, min(SWEEP_SEEDS, usable_cpus())))
    return [
        ("generate-scenario", ["generate-scenario", "--seed", str(scenario_seed), "--out", "scenario.json"]),
        ("train", ["train", "--scenario", "scenario.json", "--variant", "off-tab", "--out-dir", "train"]),
        (
            "sweep",
            ["sweep", "--scenario", "scenario.json", "--variant", "on-lin",
             "--seeds", str(SWEEP_SEEDS), "--workers", workers, "--out-dir", "sweep"],
        ),
        ("compare", ["compare", "--runs", "train", "sweep/seed-0", "sweep/seed-1", "--out", "compare.json"]),
        ("oracle", ["oracle", "--scenario", "scenario.json", "--json"]),
        ("check-infra", ["check-infra", "--scenario", "scenario.json"]),
    ]


def _plain(ctx: Context, args: list[str], cwd: Path) -> ChildRun:
    return run_child([sys.executable, "-c", ENTRY, *args], cwd, ctx.env)


def setup(seed: int, smoke: bool) -> Context:
    """Create the work directory and run one warm-up invocation, so that
    compiling the program's bytecode is not counted against the first command."""
    require_source()
    ctx = Context(
        seed=seed,
        min_chains=SMOKE_MIN_CHAINS if smoke else MIN_CHAINS,
        workdir=OUT / f"cli-pipeline-{os.getpid()}",
        env=program_env(),
    )
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    warm = _plain(ctx, ["--help"], ctx.workdir)
    if warm.returncode != 0:
        raise BenchmarkError(f"vnfcmap --help exited {warm.returncode}: {warm.stderr[-500:]!r}")
    return ctx


def teardown(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)


def _oracle_matches_reference(directory: Path) -> bool:
    import inputs

    inst = inputs.Instance.from_doc(json.loads((directory / "scenario.json").read_text()))
    printed = json.loads((directory / "oracle.stdout").read_text())
    return abs(printed["objective_value"] - inputs.reference_optimum(inst, "absolute_surplus")) <= TOLERANCE


def _chain(
    ctx: Context,
    name: str,
    scenario_seed: int,
    record: Record,
    runner: Callable[[list[str], Path], ChildRun],
) -> tuple[dict[str, float], Optional[str]]:
    """Run the chain once; returns each command's wall time and the digest of
    everything it wrote and printed, or None when a command failed."""
    directory = ctx.workdir / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    times: dict[str, float] = {}
    for command, args in _commands(scenario_seed):
        run = runner(args, directory)
        record.child_rss(run.peak_rss_kb)
        times[command] = run.seconds
        (directory / f"{command}.stdout").write_bytes(run.stdout)
        if not record.outcome(run.returncode == 0, f"{command} exited {run.returncode}: {run.stderr[-300:]!r}"):
            return times, None
    ok = record.outcome(_oracle_matches_reference(directory), f"{name}: oracle optimum")
    digest = files_digest(directory) if ok else None
    shutil.rmtree(directory)
    return times, digest


def _check_digest(ctx: Context, fixed: bool, digest: Optional[str], record: Record, expected: dict) -> None:
    if digest is None:
        return
    if fixed:
        record.outcome(digest == expected.get("chain"), "fixed chain artifacts")
    else:
        ctx.seeded_digest = ctx.seeded_digest or digest
        record.outcome(digest == ctx.seeded_digest, "seeded chain artifacts repeat")


def _timed_plain(ctx: Context, key: str, args: list[str], cwd: Path, record: Record) -> ChildRun:
    """One invocation, with its time scaled to the reference host kept under ``key``."""
    run, _, scaled = reference.STARTUP.timed(lambda: _plain(ctx, args, cwd))
    record.sample(f"key.{key}", scaled)
    return run


def measure(ctx: Context, seconds: float, record: Record, expected: dict) -> dict:
    deadline = perf_counter() + seconds
    chains: list[float] = []
    index = 0
    while index < ctx.min_chains or perf_counter() < deadline:
        for probe in range(STARTUP_PROBES_PER_CHAIN):
            run = _timed_plain(ctx, f"startup{probe}", ["--help"], ctx.workdir, record)
            record.child_rss(run.peak_rss_kb)
            if record.outcome(run.returncode == 0, f"--help exited {run.returncode}"):
                record.sample("op_ms.startup", run.seconds * 1e3)
        fixed = index == 0
        seed = FIXED_SCENARIO_SEED if fixed else SEEDED_SCENARIO_OFFSET + ctx.seed
        times, digest = _chain(
            ctx, f"chain-{index}", seed, record, lambda a, d: _timed_plain(ctx, a[0], a, d, record)
        )
        for command, elapsed in times.items():
            record.sample(f"op_ms.{command}", elapsed * 1e3)
        if digest is not None:
            chains.append(sum(times.values()))
        _check_digest(ctx, fixed, digest, record, expected)
        index += 1
    startup = p50(record, "op_ms.startup")
    return {
        "cli_startup_s": (startup[0] / 1e3, "s", startup[2]),
        "cli_pipeline_s": (median(chains) if chains else 0.0, "s", len(chains)),
        "ops_per_s": pass_rate(record),
    }


def import_breakdown(stderr: bytes) -> dict[str, float]:
    """Summed self import time, in ms, of numpy, scipy and vnfcmap modules as
    printed by ``python -X importtime``."""
    self_us = {"scipy": 0, "numpy": 0, "vnfcmap": 0}
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        root = fields[2].strip().split(".")[0]
        if root in self_us:
            self_us[root] += int(fields[0])
    return {
        "cli.import.scipy_ms": self_us["scipy"] / 1e3,
        "cli.import.numpy_ms": self_us["numpy"] / 1e3,
        "cli.import.vnfcmap_self_ms": self_us["vnfcmap"] / 1e3,
    }


def measure_traced(ctx: Context, seconds: float, record: Record, tracer, expected: dict) -> tuple[int, dict]:
    """One plain chain for the per-command wall times, then the same chain with
    every command run through cli_child.py under ``-X importtime``."""
    plain_times, digest = _chain(ctx, "plain", FIXED_SCENARIO_SEED, record, lambda a, d: _plain(ctx, a, d))
    _check_digest(ctx, True, digest, record, expected)
    breakdowns: list[dict[str, float]] = []

    def traced(args: list[str], cwd: Path) -> ChildRun:
        trace_out = cwd / f".trace-{len(breakdowns)}.json"
        run = run_child(
            [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), str(trace_out), *args], cwd, ctx.env
        )
        if trace_out.exists():
            tracer.merge(json.loads(trace_out.read_text()))
            trace_out.unlink()
        breakdowns.append(import_breakdown(run.stderr))
        return run

    traced_times, digest = _chain(ctx, "traced", FIXED_SCENARIO_SEED, record, traced)
    _check_digest(ctx, True, digest, record, expected)
    extra = {f"cli.{command}.s": elapsed for command, elapsed in plain_times.items()}
    for name in breakdowns[0] if breakdowns else ():
        extra[name] = median([b[name] for b in breakdowns])
    extra["trace.overhead_ratio"] = sum(traced_times.values()) / sum(plain_times.values()) - 1.0
    return 1, extra


def verify(ctx: Context, record: Record, expected: dict) -> None:
    """Every chain was checked as it ran."""


def expected_digests() -> dict[str, str]:
    ctx = setup(0, smoke=True)
    try:
        _, digest = _chain(ctx, "fixed", FIXED_SCENARIO_SEED, Record(), lambda a, d: _plain(ctx, a, d))
    finally:
        teardown(ctx)
    return {"chain": digest or "failed"}
