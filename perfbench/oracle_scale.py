"""oracle-scale: the exact matching oracle at the production shape and beyond.

``solve_exact_matching`` runs at m=100 and m=400 under both objectives, plus
``scenario.generate`` at the CLI default of 100 machines. ``oracle`` and
``model.fits`` do all of the work and ``agents`` none.

One solve takes from a fifth to twice the median depending on the instance
(the canonicalization re-solves until it reaches the optimal machine's id),
so a run's timings would follow whichever instances the seed drew. The timed
operations therefore work on a fixed pool drawn once from ``POOL_SEED``;
``--seed`` sets their order, and draws fresh instances that are solved and
checked after the timed loop but not timed.

Every solve must pass ``validate_assignment`` and reach the optimum that
``inputs.reference_optimum`` finds without the program to within 1e-9. Pool
solves and generated scenarios must also match the digests in expected.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from time import perf_counter

import reference
from common import Record, import_program, p50, pass_rate, sha256

POOL_SEED = 20261017
POOL_SIZES = {100: 8, 400: 3}
POOL_GENERATE_SEEDS = range(1, 7)
SMOKE_SIZES = {100: 1, 400: 1}
SMOKE_GENERATE_SEEDS = range(1, 2)
FRESH_SIZES = (100, 400)
FRESH_GENERATE_OFFSET = 100_000
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str  # "m100", "m400" or "generate"
    key: str
    arg: object  # an AssignmentProblem, or a generator seed
    reference: float  # the independent optimum; nan for generate


@dataclass
class Context:
    ops: list[Op]
    fresh: list[Op]


def _solves(label: str, instances: list) -> list[Op]:
    import inputs

    return [
        Op(f"m{inst.num_vms}", f"{label}{i}.m{inst.num_vms}.{mode}",
           inputs.to_problem(inst, mode), inputs.reference_optimum(inst, mode))
        for i, inst in enumerate(instances)
        for mode in inputs.MODES
    ]


def setup(seed: int, smoke: bool) -> Context:
    import_program()
    import numpy as np

    import inputs

    sizes, generate_seeds = (SMOKE_SIZES, SMOKE_GENERATE_SEEDS) if smoke else (POOL_SIZES, POOL_GENERATE_SEEDS)
    ops: list[Op] = []
    for m, n in sizes.items():
        pool_rng = np.random.default_rng([POOL_SEED, m])
        ops += _solves("pool", [inputs.draw_instance(pool_rng, m) for _ in range(n)])
    ops += [Op("generate", f"generate.{s}", s, math.nan) for s in generate_seeds]
    rng = np.random.default_rng(seed)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    fresh = _solves("fresh", [inputs.draw_instance(rng, m) for m in FRESH_SIZES])
    fresh.append(Op("generate", "fresh.generate", FRESH_GENERATE_OFFSET + seed, math.nan))
    return Context(ops=ops, fresh=fresh)


def teardown(ctx: Context) -> None:
    pass


def _digest(op: Op, result) -> str:
    from vnfcmap import scenario

    if op.kind == "generate":
        return sha256(json.dumps(scenario.scenario_to_dict(result), sort_keys=True).encode())
    return sha256(json.dumps(sorted(result.pairs.items())).encode(), repr(result.objective_value).encode())


def _correct(op: Op, result) -> bool:
    """The optimum and the assignment rules, checked without the recorded digests."""
    import inputs
    from vnfcmap import oracle, scenario

    if op.kind == "generate":
        inst = inputs.Instance.from_doc(scenario.scenario_to_dict(result))
        return math.isfinite(inputs.reference_optimum(inst, inputs.MODES[0]))
    try:
        oracle.validate_assignment(op.arg, result.pairs)
    except oracle.InfeasibleAssignmentError:
        return False
    return abs(result.objective_value - op.reference) <= TOLERANCE


def _call(op: Op):
    from vnfcmap import oracle, scenario

    if op.kind == "generate":
        return scenario.generate(op.arg)
    return oracle.solve_exact_matching(op.arg)


def _passes(ctx: Context, seconds: float, record: Record, expected: dict) -> list[float]:
    """Run every pool operation once per pass until ``seconds`` have gone by;
    returns each pass's summed operation time."""
    deadline = perf_counter() + seconds
    passes: list[float] = []
    while not passes or perf_counter() < deadline:
        busy = 0.0
        for op in ctx.ops:
            try:
                result, elapsed, scaled = reference.KERNEL.timed(lambda: _call(op))
            except Exception as exc:  # noqa: BLE001 - an erroring call is a counted failure
                record.outcome(False, f"{op.key}: {exc!r}")
                continue
            busy += elapsed / 1e3
            record.sample(f"op_ms.{op.kind}", elapsed)
            record.sample(f"key.{op.key}", scaled)
            ok = _correct(op, result) and _digest(op, result) == expected.get(op.key)
            record.outcome(ok, op.key)
        passes.append(busy)
    return passes


def measure(ctx: Context, seconds: float, record: Record, expected: dict) -> dict:
    _passes(ctx, seconds, record, expected)
    return {
        "oracle_ms.m100.p50": p50(record, "op_ms.m100"),
        "oracle_ms.m400.p50": p50(record, "op_ms.m400"),
        "generate_ms.p50": p50(record, "op_ms.generate"),
        "ops_per_s": pass_rate(record),
    }


def measure_traced(ctx: Context, seconds: float, record: Record, tracer, expected: dict) -> tuple[int, dict]:
    import layers

    passes, overhead = layers.untraced_then_traced(lambda s: _passes(ctx, s, record, expected), seconds, tracer)
    return passes, {"trace.overhead_ratio": overhead}


def verify(ctx: Context, record: Record, expected: dict) -> None:
    """Solve the seed's fresh instances once, untimed, and check them."""
    for op in ctx.fresh:
        try:
            ok = _correct(op, _call(op))
        except Exception as exc:  # noqa: BLE001 - an erroring call is a counted failure
            record.outcome(False, f"{op.key}: {exc!r}")
            continue
        record.outcome(ok, op.key)


def expected_digests() -> dict[str, str]:
    ctx = setup(0, smoke=False)
    return {op.key: _digest(op, _call(op)) for op in ctx.ops}
