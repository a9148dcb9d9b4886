"""Command-line entry point wiring scenarios, agents, metrics, and the service.

Exit codes: 0 success, 2 for validation problems and for an output path that
cannot be written, 3 when an instance is infeasible or a run diverged.

Only ``generate-scenario``, ``oracle``, ``check-infra`` and ``serve`` solve an
assignment and load any of scipy: only its solver's extension module, not
``scipy.optimize``, whose import would be most of their start-up. Only
``serve`` imports the service module, and with it ``http.server`` and the
thread pool of ``concurrent.futures``. Only a ``sweep`` that starts two or more
workers imports its process pool, and with it ``multiprocessing``; no other
command imports ``concurrent.futures`` or ``logging``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

# Before numpy loads: OpenBLAS would start a thread per CPU, and every
# product here is at most m x 7; sweep parallelises by processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import agents, infra, metrics, scenario as scenario_mod
from .agents import AgentVariant, DivergenceError
from .mdp import AlphaSchedule, Hyperparameters, RewardMode
from .model import NUM_COMPONENTS
from .oracle import (
    AssignmentProblem,
    InfeasibleAssignmentError,
    ObjectiveMode,
    pair_cost,
    solve_exact_matching,
)
from .scenario import GenerationParams, Scenario, ScenarioGenerationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3

VARIANT_ALIASES = {v.value: v for v in AgentVariant}

# CI generates and solves 15,000 machines, and a POST /map body of at most
# 1 MiB holds about 20,700; a generated scenario file is about 80 bytes a machine.
MAX_GENERATED_VMS = 100_000
# A tabular learner allocates two k x m x m tables (values and visits); the
# visits table is written only under the harmonic schedule, whose two tables
# this bound still sizes. The gate and the benchmarks train on 8 x 100; this
# allows m up to 1,000 at k = 8, 64 MB a table, where one 20-episode run
# peaked near 450 MB when every schedule wrote both.
MAX_TABLE_ENTRIES = 8_000_000


def _int_in(lo: int, hi: float = float("inf")):
    """An argparse type: an int in ``lo..hi``, still "int" in argparse's messages."""
    def parse(text: str) -> int:
        if not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}, got {text}")
        return int(text)
    parse.__name__ = "int"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnfcmap",
        description="Map the eight micro-functions of a slice onto candidate machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-scenario", help="generate and save a random instance")
    gen.add_argument("--seed", type=_int_in(0), required=True)
    gen.add_argument(
        "--vms", type=_int_in(NUM_COMPONENTS, MAX_GENERATED_VMS), default=GenerationParams.num_vms
    )
    gen.add_argument(
        "--req-range", type=int, nargs=2, default=GenerationParams.req_range, metavar=("LO", "HI")
    )
    gen.add_argument(
        "--cap-range", type=int, nargs=2, default=GenerationParams.cap_range, metavar=("LO", "HI")
    )
    gen.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train one agent on a scenario")
    _add_train_flags(train)
    train.add_argument("--seed", type=_int_in(0), default=0)
    train.add_argument("--out-dir", required=True)

    sweep = sub.add_parser("sweep", help="train one agent across many seeds")
    _add_train_flags(sweep)
    sweep.add_argument("--seeds", type=_int_in(1), default=5, help="run seeds 0..N-1")
    sweep.add_argument("--workers", type=_int_in(1), default=None)
    sweep.add_argument("--out-dir", required=True)

    comp = sub.add_parser("compare", help="tabulate run summaries side by side")
    comp.add_argument("--runs", nargs="+", required=True, help="run directories")
    comp.add_argument("--out", default=None, help="write comparison JSON here")

    orc = sub.add_parser("oracle", help="exactly solve the assignment for a scenario")
    orc.add_argument("--scenario", required=True)
    orc.add_argument(
        "--objective",
        choices=[m.value for m in ObjectiveMode],
        default=ObjectiveMode.ABSOLUTE_SURPLUS.value,
    )
    orc.add_argument("--json", action="store_true", help="machine-readable output only")

    chk = sub.add_parser("check-infra", help="substrate rule check and workload report")
    chk.add_argument("--scenario", required=True)

    srv = sub.add_parser("serve", help="start the mapping decision service")
    srv.add_argument("--port", type=_int_in(0, 65535), default=8080)
    srv.add_argument("--model", default=None, help="trained policy file for the trained policy")
    return parser


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--variant", choices=sorted(VARIANT_ALIASES), default="off-tab")
    # The convergence statistic in every run summary needs two windows of episodes.
    parser.add_argument(
        "--episodes", type=_int_in(2 * metrics.CONVERGENCE_WINDOW), default=Hyperparameters.episodes
    )
    parser.add_argument("--alpha", type=float, default=Hyperparameters.alpha)
    parser.add_argument("--gamma", type=float, default=Hyperparameters.gamma)
    parser.add_argument("--epsilon", type=float, default=Hyperparameters.epsilon)
    parser.add_argument(
        "--reward-mode",
        choices=[m.value for m in RewardMode],
        default=Hyperparameters.reward_mode.value,
    )
    parser.add_argument(
        "--alpha-schedule",
        choices=[s.value for s in AlphaSchedule],
        default=Hyperparameters.alpha_schedule.value,
    )


def _hyper_from_args(args: argparse.Namespace) -> Hyperparameters:
    return Hyperparameters(
        alpha=args.alpha,
        gamma=args.gamma,
        epsilon=args.epsilon,
        episodes=args.episodes,
        reward_mode=RewardMode(args.reward_mode),
        alpha_schedule=AlphaSchedule(args.alpha_schedule),
    )


def _train_run(inst: Scenario, variant: str, hyper: Hyperparameters, seed: int, out: Path) -> dict:
    """Train one seed, write ``episodes.csv``, ``summary.json`` and ``model.json``
    to ``out``, and return the run's summary. ``out`` is made first, so a path
    that cannot be a directory is refused before any training."""
    out.mkdir(parents=True, exist_ok=True)
    record, learner = agents.train(VARIANT_ALIASES[variant], inst, hyper, seed=seed)
    metrics.write_episode_csv(record, out / "episodes.csv")
    metrics.write_summary_json(record, out / "summary.json")
    agents.save_policy(learner, out / "model.json")
    return metrics.summarize(record)


def _cmd_generate(args: argparse.Namespace) -> int:
    params = GenerationParams(
        num_vms=args.vms, req_range=tuple(args.req_range), cap_range=tuple(args.cap_range)
    )
    inst = scenario_mod.generate(args.seed, params)
    scenario_mod.save(inst, args.out)
    print(f"wrote scenario (seed {args.seed}, {inst.num_vms} vms) to {args.out}")
    return EXIT_OK


def _training_scenario(args: argparse.Namespace) -> Scenario:
    """The scenario to train on, refused before anything is made or allocated
    when a tabular variant's tables would exceed ``MAX_TABLE_ENTRIES``."""
    inst = scenario_mod.load(args.scenario)
    entries = len(inst.subnet.components) * inst.num_vms**2
    if VARIANT_ALIASES[args.variant].tabular and entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"--variant {args.variant}: a scenario of {inst.num_vms} vms needs tables of "
            f"{entries} entries, more than {MAX_TABLE_ENTRIES}; the linear variants keep none"
        )
    return inst


def _cmd_train(args: argparse.Namespace) -> int:
    inst = _training_scenario(args)
    summary = _train_run(inst, args.variant, _hyper_from_args(args), args.seed, Path(args.out_dir))
    print(
        f"{args.variant} seed {args.seed}: average reward {summary['average_reward']:.4f}, "
        f"std {summary['std_dev']:.4f}, auc {summary['auc']:.2f}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    hyper = _hyper_from_args(args)
    inst = _training_scenario(args)
    out_root = Path(args.out_dir)
    seeds = range(args.seeds)
    out_dirs = [out_root / f"seed-{seed}" for seed in seeds]
    run = partial(_train_run, inst, args.variant, hyper)
    # The CPUs this process may run on, which can be fewer than the host has.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(args.seeds, args.workers or cpus, cpus)
    if workers == 1:
        summaries = list(map(run, seeds, out_dirs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run, seeds, out_dirs))
    # both maps keep seed order, so the fold is deterministic
    averages = [s["average_reward"] for s in summaries]
    mean = sum(averages) / len(averages)
    cross = {
        "variant": args.variant,
        "seeds": args.seeds,
        "mean_average_reward": mean,
        # ``** 0.5``, not the ``math.sqrt`` of metrics' standard deviations: the
        # two may differ in the last bit, and this file's bytes are kept stable.
        "std_average_reward": (sum((a - mean) ** 2 for a in averages) / len(averages)) ** 0.5,
        "per_seed": summaries,
    }
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "cross_seed_summary.json").write_text(
        json.dumps(cross, indent=2, sort_keys=True) + "\n"
    )
    print(f"{args.variant}: {args.seeds} seeds, mean average reward {mean:.4f}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    summaries = [metrics.load_summary_json(Path(run_dir) / "summary.json") for run_dir in args.runs]
    comparison = metrics.compare_summaries(summaries)
    if args.out:
        metrics.write_comparison_json(comparison, args.out)

    header = ("Algorithm", "Average Reward", "Standard Deviation", "Convergence Episode", "AUC")
    rows = []
    for variant, cell in comparison["variants"].items():
        conv = cell["convergence_episode"]
        rows.append(
            (
                variant,
                f"{cell['average_reward']:.2f}",
                f"{cell['mean_episode_std']:.2f}",
                "n/a" if conv is None else f"{conv:.0f}",
                f"{cell['auc']:.2f}",
            )
        )
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = scenario_mod.load(args.scenario)
    mode = ObjectiveMode(args.objective)
    problem = AssignmentProblem(inst.subnet.components, inst.vms, mode)
    solution = solve_exact_matching(problem)
    doc = {
        "objective_mode": mode.value,
        "objective_value": solution.objective_value,
        "pairs": {str(c): v for c, v in sorted(solution.pairs.items())},
        "per_pair_wastage": [
            {
                "component": comp.id,
                "vm": solution.pairs[comp.id],
                "surplus": pair_cost(comp, inst.vms[solution.pairs[comp.id] - 1], mode),
            }
            for comp in inst.subnet.components
        ],
    }
    if not args.json:
        print(f"optimum {solution.objective_value:.6g} ({mode.value})")
        for comp, entry in zip(inst.subnet.components, doc["per_pair_wastage"]):
            print(
                f"  f{comp.id} ({comp.kind.name}) -> vm {entry['vm']}: "
                f"surplus {entry['surplus']:.6g}"
            )
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_check_infra(args: argparse.Namespace) -> int:
    inst = scenario_mod.load(args.scenario, validate_placement=False)
    print(f"scenario: {inst.num_vms} vms, {len(inst.pms)} pms")

    if inst.placement is not None:
        violations, loads = infra.check_vm_placement(inst.placement, inst.vms, inst.pms)
        if violations:
            print(f"placement violations ({len(violations)}):")
            for violation in violations:
                print(f"  {violation}")
        else:
            print("placement violations: none")
        c, s = inst.vms.compute_caps, inst.vms.storage_caps
        for pm, load in zip(inst.pms, loads):
            fractions = [(c[j] / pm.compute_cap, s[j] / pm.storage_cap) for j in load.hosted]
            try:
                workload = infra.pm_workload((0.0, 0.0), fractions)
                # Rounded apart, the load fractions can sum below 1 while the
                # amounts sum above the capacity.
                overdemands = load.overdemands(pm.compute_cap, pm.storage_cap)
                if overdemands:
                    raise infra.OverloadError(overdemands[0][1])
                avail = (pm.compute_cap - load.compute, pm.storage_cap - load.storage)
                wastage = infra.pm_wastage(avail, (pm.compute_cap, pm.storage_cap))
                print(
                    f"pm {pm.id}: {len(load.hosted)} vms, workload {workload:.4f}, "
                    f"idle fraction {wastage:.4f}"
                )
            except infra.OverloadError as exc:
                print(f"pm {pm.id}: overloaded ({exc})")
    else:
        print("no substrate placement: skipping vm-to-pm rule checks")

    try:
        solution = solve_exact_matching(AssignmentProblem(inst.subnet.components, inst.vms))
    except InfeasibleAssignmentError as exc:
        print(f"slice does not fit this inventory: {exc}")
        return EXIT_INFEASIBLE
    unit_workloads: dict[str, list[float]] = {"cu": [], "du": []}
    saturated = 0
    for comp in inst.subnet.components:
        vm = inst.vms[solution.pairs[comp.id] - 1]
        try:
            workload = infra.vm_workload(
                comp.compute_req / vm.compute_cap, comp.storage_req / vm.storage_cap
            )
        except infra.OverloadError:
            print(f"f{comp.id} -> vm {vm.id}: saturated (a resource axis at 100%)")
            saturated += 1
            continue
        unit_workloads["cu" if comp.kind.in_centralized_unit else "du"].append(workload)
        print(f"f{comp.id} -> vm {vm.id}: workload {workload:.4f}")
    if saturated == 0:
        cu = sum(unit_workloads["cu"]) / len(unit_workloads["cu"])
        du = sum(unit_workloads["du"]) / len(unit_workloads["du"])
        print(f"slice workload (3x cu mean + 5x du mean): {infra.slice_workload(cu, du):.4f}")
    else:
        print(f"slice workload skipped: {saturated} saturated placement(s)")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import service

    server = service.make_server(args.port, default_model=args.model)
    host, port = server.server_address[:2]
    print(f"mapping decision service on http://{host}:{port} (POST /map, GET /health)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


_COMMANDS = {
    "generate-scenario": _cmd_generate,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
    "check-infra": _cmd_check_infra,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # A ScenarioFormatError, a SizeLimitError or a bad flag value; or an output
    # path that cannot be written, such as a missing directory.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleAssignmentError, DivergenceError, ScenarioGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
