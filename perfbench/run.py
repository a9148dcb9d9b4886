"""Benchmark for vnfcmap.

    python3 perfbench/run.py --workload train-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see each module's docstring for why it exists):

    train-grid    agents.train in process over generated 8x100 scenarios
    oracle-scale  solve_exact_matching at m=100 and m=400, scenario.generate
    serve-map     closed-loop POST /map against a MappingServer child process
    cli-pipeline  the vnfcmap command chain as subprocesses

The program is imported from this checkout's ``src``; only inputs the
benchmark generates from ``--seed`` reach it. Set-up runs several times, each
in a fresh process, and ``setup_s`` is the median, scaled like ``ops_per_s``
by reference work timed between the set-ups. Every operation's output is
checked; ``failed`` counts those that errored or failed their check. The run
and every process it starts stay on one CPU, and ``ops_per_s`` takes each
operation's time scaled by fixed reference work timed next to it on that
CPU (reference.py), because the host's own speed drifts by up to 2x.

With ``--trace 0`` the run measures untraced and reports every end-to-end
metric of BENCHMARK.json. With ``--trace 1`` it measures half the time
untraced and half with wrappers around the program's public names (see
layers.py), and reports every per-layer metric, including the tracing
overhead. Before the result, each run prints the environment and the named
metrics of spec.json that its workload produces, with unit and sample
count. The last line of standard output is the result JSON. Details, failures
and spans go to ``.perfbench_runs/`` in the checkout.

``--workload all`` runs every workload in turn and prints one table.
``--smoke`` runs minimal inputs with a single timed set-up, for the benchmark's
tests. ``--record-expected`` recomputes the digests that outputs on the fixed
inputs are checked against and writes them to ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

import cli_pipeline
import layers
import oracle_scale
import reference
import serve_map
import train_grid
from common import (
    EXPECTED_PATH,
    OUT,
    ROOT,
    SPEC,
    BenchmarkError,
    Record,
    environment,
    import_program,
    load_expected,
    median,
    run_child,
)
from tracer import Tracer

WORKLOADS = {
    "train-grid": train_grid,
    "oracle-scale": oracle_scale,
    "serve-map": serve_map,
    "cli-pipeline": cli_pipeline,
}
SETUP_REPEATS = 3
KERNEL_CALLS_PER_SAMPLE = 10


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def _forward(args: argparse.Namespace, workload: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--smoke"] if args.smoke else [])


def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found")
    return json.loads(path.read_text())


def _timed_setup(module, args):
    start = perf_counter()
    ctx = module.setup(args.seed, args.smoke)
    return ctx, perf_counter() - start


def _setup_times(args: argparse.Namespace) -> tuple[list[float], float]:
    """Set-up repeated in fresh processes, so that each repeat pays the imports.

    Returns each repeat's wall seconds and the factor that scales them to the
    reference host of reference.py. Set-up is imports and computation, so
    the factor is the geometric mean of both references' factors, each from
    calls before, between and after the repeats: a reference call beside a
    single set-up tracked it worse than no correction, while the median of
    the run's calls follows the host's phase.
    """
    times: list[float] = []
    kernel: list[float] = []
    startup: list[float] = []

    def sample_host() -> None:
        kernel.extend(reference.KERNEL.ms() for _ in range(KERNEL_CALLS_PER_SAMPLE))
        startup.append(reference.STARTUP.ms())

    for _ in range(1 if args.smoke else SETUP_REPEATS):
        sample_host()
        run = run_child(_forward(args, args.workload) + ["--setup-only"], OUT / "setup")
        if run.returncode != 0:
            raise BenchmarkError(f"set-up exited {run.returncode}: {run.stderr.decode(errors='replace')[-1500:]}")
        times.append(json.loads(run.stdout.decode().splitlines()[-1])["setup_s"])
    sample_host()
    factor = math.sqrt(
        reference.KERNEL.nominal_ms / median(kernel) * reference.STARTUP.nominal_ms / median(startup)
    )
    return times, factor


def _line(name: str, value: float, unit: str, n=None) -> str:
    count = "" if n is None else f"  n={n}"
    return f"  {name:<34} {value:>14.4f} {unit:<6}{count}"


def run_workload(args: argparse.Namespace) -> int:
    module = WORKLOADS[args.workload]
    if args.setup_only:
        ctx, seconds = _timed_setup(module, args)
        module.teardown(ctx)
        print(json.dumps({"setup_s": seconds}))
        return 0

    bench = _benchmark_spec()
    expected = load_expected().get(args.workload, {})
    setup_times, setup_factor = _setup_times(args)
    ctx, _ = _timed_setup(module, args)
    record = Record()
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            passes, extra = module.measure_traced(ctx, args.seconds, record, tracer, expected)
        else:
            named = module.measure(ctx, args.seconds, record, expected)
        module.verify(ctx, record, expected)
    finally:
        module.teardown(ctx)

    env = environment()
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}", "environment " + json.dumps(env)]
    result_doc: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
                        "setup_wall_s": setup_times,
                        "setup_factor": setup_factor, "attempted": record.attempted,
                        "failures": record.failures[:50]}
    if tracer is not None:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = layers.per_layer_metrics(tracer, list(units), passes, extra)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        lines.append(f"per-layer metrics ({passes} traced passes; 0 where the workload does not reach the layer)")
        lines += [_line(name, m["value"], m["unit"]) for name, m in metrics.items()]
        if tracer.spans:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans_path.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))
        result_doc["per_layer"] = metrics
    else:
        ops_per_s = named.pop("ops_per_s")
        kinds = {k[len("op_ms."):]: v for k, v in record.samples.items() if k.startswith("op_ms.") and v}
        generic = {"setup_s": median(setup_times) * setup_factor, "peak_rss_mb": record.peak_rss_mb(), "ops_per_s": ops_per_s}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if set(units) != set(generic):
            raise BenchmarkError(f"BENCHMARK.json end_to_end {sorted(units)} != measured {sorted(generic)}")
        metrics = {name: {"value": generic[name], "unit": units[name]} for name in units}
        attempted = max(record.attempted, 1)
        named = {
            "setup_s": (generic["setup_s"], "s", len(setup_times)),
            "peak_rss_mb": (generic["peak_rss_mb"], "MB", None),
            "failed_ratio": (record.failed / attempted, "ratio", record.attempted),
            **named,
        }
        lines.append("named metrics")
        lines += [_line(name, *entry) for name, entry in named.items()]
        lines.append("operation kinds")
        lines += [_line(f"op_ms.{kind}.p50", median(v), "ms", len(v)) for kind, v in kinds.items()]
        lines.append("end-to-end metrics")
        lines += [_line(name, m["value"], m["unit"]) for name, m in metrics.items()]
        result_doc["named"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()}
        result_doc["end_to_end"] = metrics
        result_doc["op_ms_samples"] = kinds
    if record.failures:
        lines.append(f"{record.failed} failed operations, first: {record.failures[0]}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result_doc, indent=2) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps({"correct": record.attempted > 0 and not record.failures,
                      "attempted": record.attempted, "failed": record.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of the named metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for workload in WORKLOADS:
        run = run_child(_forward(args, workload), OUT / "all", timeout=900)
        lines = run.stdout.decode().splitlines()
        if run.returncode != 0 or not lines:
            raise BenchmarkError(f"{workload} exited {run.returncode}: {run.stderr.decode(errors='replace')[-1500:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        if not args.trace:
            doc = json.loads((OUT / f"result-{workload}-seed{args.seed}-trace0.json").read_text())
            table += [(name, entry, workload) for name, entry in doc["named"].items()]
    if table:
        print("named metrics, all workloads")
        for spec in SPEC["named_metrics"]:
            for name, entry, workload in table:
                if name == spec["name"]:
                    print(_line(name, entry["value"], entry["unit"], entry["n"]) + f"  {workload}")
    print(json.dumps(combined))
    return 0


def record_expected(args: argparse.Namespace) -> int:
    import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    doc = load_expected() if EXPECTED_PATH.is_file() else {}
    for name in names:
        doc[name] = WORKLOADS[name].expected_digests()
    EXPECTED_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote expected digests for {', '.join(names)} to {EXPECTED_PATH}")
    return 0


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so that the
    reference kernel (reference.py) is timed on the CPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.record_expected:
            return record_expected(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
