"""train-grid: the researcher's reproduce loop.

``agents.train`` runs in process over generated 8x100 scenarios, for all four
variants and several run seeds, at the reference hyperparameters (500
episodes). One operation is one training run. ``mdp``, ``agents`` and
``metrics`` do nearly all of the work; the oracle runs only in setup, inside
``scenario.generate``.

A run's length depends on the scenario (how soon undersized machines end
episodes), so the timed grid uses a fixed pool of scenarios; ``--seed`` sets
the order of the cells and picks a fresh scenario that is trained after the
timed loop, untimed, to check that training repeats byte for byte.

The first run of each cell writes ``episodes.csv``, ``summary.json`` and
``model.json`` with the program's own writers; their bytes must match the
digest in expected.json. Later runs of the cell must repeat its episode log
and value estimate exactly.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
from common import OUT, Record, files_digest, import_program, p50, pass_rate, sha256

POOL_SCENARIO_SEEDS = range(1, 5)
RUN_SEEDS = range(2)
SMOKE_SCENARIO_SEEDS = range(1, 2)
SMOKE_RUN_SEEDS = range(1)
FRESH_SCENARIO_OFFSET = 100_000


@dataclass
class Context:
    scenarios: dict
    hyper: object
    cells: list[tuple[int, object, int]]
    fresh_seed: int
    workdir: Path
    state_digests: dict = field(default_factory=dict)


def setup(seed: int, smoke: bool) -> Context:
    import_program()
    import numpy as np

    from vnfcmap import agents, mdp, scenario

    scenario_seeds, run_seeds = (SMOKE_SCENARIO_SEEDS, SMOKE_RUN_SEEDS) if smoke else (POOL_SCENARIO_SEEDS, RUN_SEEDS)
    cells = [(g, variant, s) for s in run_seeds for g in scenario_seeds for variant in agents.AgentVariant]
    order = np.random.default_rng(seed).permutation(len(cells))
    return Context(
        scenarios={g: scenario.generate(g) for g in scenario_seeds},
        hyper=mdp.Hyperparameters(),
        cells=[cells[i] for i in order],
        fresh_seed=FRESH_SCENARIO_OFFSET + seed,
        workdir=OUT / f"train-grid-{os.getpid()}",
    )


def teardown(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)


def _key(cell) -> str:
    g, variant, run_seed = cell
    return f"scenario{g}.{variant.value}.seed{run_seed}"


def _state_digest(run, learner) -> str:
    q = learner.q
    estimate = q.values if hasattr(q, "values") else q.weights
    return sha256(repr(run.episodes).encode(), estimate.tobytes())


def artifact_digest(run, learner, directory: Path) -> str:
    """Write the run's three files with the program's writers and digest their bytes."""
    from vnfcmap import agents, metrics

    directory.mkdir(parents=True, exist_ok=True)
    metrics.write_episode_csv(run, directory / "episodes.csv")
    metrics.write_summary_json(run, directory / "summary.json")
    agents.save_policy(learner, directory / "model.json")
    digest = files_digest(directory)
    shutil.rmtree(directory)
    return digest


def _passes(ctx: Context, seconds: float, record: Record, expected: dict) -> list[float]:
    """Train every cell once per pass until ``seconds`` have gone by; returns
    each pass's summed training time."""
    from vnfcmap import agents

    deadline = perf_counter() + seconds
    passes: list[float] = []
    while not passes or perf_counter() < deadline:
        busy = 0.0
        for cell in ctx.cells:
            g, variant, run_seed = cell
            key = _key(cell)
            try:
                (run, learner), elapsed, scaled = reference.KERNEL.timed(
                    lambda: agents.train(variant, ctx.scenarios[g], ctx.hyper, seed=run_seed)
                )
            except Exception as exc:  # noqa: BLE001 - an erroring run is a counted failure
                record.outcome(False, f"{key}: {exc!r}")
                continue
            busy += elapsed / 1e3
            record.sample(f"op_ms.{variant.value}", elapsed)
            record.sample("train_run_ms", elapsed)
            record.sample(f"key.{key}", scaled)
            state = _state_digest(run, learner)
            ok = ctx.state_digests.setdefault(key, state) == state
            if not passes:
                ok = ok and artifact_digest(run, learner, ctx.workdir / "artifacts") == expected.get(key)
            record.outcome(ok, key)
        passes.append(busy)
    return passes


def measure(ctx: Context, seconds: float, record: Record, expected: dict) -> dict:
    passes = _passes(ctx, seconds, record, expected)
    runs = len(record.samples.get("train_run_ms", []))
    return {
        "train_episodes_per_s": (runs * ctx.hyper.episodes / sum(passes), "1/s", runs),
        "train_run_ms.p50": p50(record, "train_run_ms"),
        "ops_per_s": pass_rate(record),
    }


def measure_traced(ctx: Context, seconds: float, record: Record, tracer, expected: dict) -> tuple[int, dict]:
    """Half the time untraced, then the same passes with the wrappers installed.

    Each phase regenerates the scenarios first (the oracle's only use here)
    and writes every cell's files in its first pass, so ``scenario``,
    ``oracle``, ``metrics`` and ``agents.save_policy`` are traced too.
    """
    import layers
    from vnfcmap import scenario

    def run(seconds: float) -> list[float]:
        for g, inst in ctx.scenarios.items():
            record.outcome(scenario.generate(g) == inst, f"generate {g}")
        return _passes(ctx, seconds, record, expected)

    passes, overhead = layers.untraced_then_traced(run, seconds, tracer)
    return passes, {"trace.overhead_ratio": overhead}


def verify(ctx: Context, record: Record, expected: dict) -> None:
    """Train every variant twice on the seed's fresh scenario; the files must repeat."""
    from vnfcmap import agents, scenario

    inst = scenario.generate(ctx.fresh_seed)
    for variant in agents.AgentVariant:
        digests = [
            artifact_digest(*agents.train(variant, inst, ctx.hyper, seed=0), ctx.workdir / "fresh")
            for _ in range(2)
        ]
        record.outcome(digests[0] == digests[1], f"fresh scenario {ctx.fresh_seed} {variant.value} repeats")


def expected_digests() -> dict[str, str]:
    from vnfcmap import agents

    ctx = setup(0, smoke=False)
    try:
        return {
            _key(cell): artifact_digest(
                *agents.train(cell[1], ctx.scenarios[cell[0]], ctx.hyper, seed=cell[2]), ctx.workdir / "artifacts"
            )
            for cell in ctx.cells
        }
    finally:
        teardown(ctx)
