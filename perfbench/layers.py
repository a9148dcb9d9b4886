"""Where the tracer hooks into vnfcmap, and how its aggregates become the
per-layer metrics named in BENCHMARK.json.

``from``-imports bind a function in the importing module too, so a name
that several modules import is wrapped in each of them; the wrappers share
one span name.
"""

from __future__ import annotations

import os

from tracer import Tracer

# Per-layer metrics a workload measures itself rather than the tracer; so are
# all ``cli.*`` metrics.
WORKLOAD_MEASURED = ("service.http_overhead_ms", "service.busy_ratio", "trace.overhead_ratio")


def _problem_size(problem, *_args, **_kwargs) -> str:
    return f"m{len(problem.vms)}"


def _policy_kind(doc, *_args, **_kwargs) -> str:
    policy = doc.get("policy") if isinstance(doc, dict) else None
    kind = policy.get("kind") if isinstance(policy, dict) else policy
    return kind if kind in ("greedy", "trained", "oracle") else "rejected"


def _count_feasible(tracer: Tracer, outcome, *_args, **_kwargs) -> None:
    if outcome.feasible:
        tracer.count("mdp.step.feasible")


def _count_explored(tracer: Tracer, result, *_args, **_kwargs) -> None:
    if result[1]:
        tracer.count("agents.explored")


def _count_policy_bytes(tracer: Tracer, _result, _learner, path, *_args, **_kwargs) -> None:
    tracer.count("agents.save_policy.bytes", os.path.getsize(path))


def install(tracer: Tracer) -> None:
    """Wrap the public names of every vnfcmap layer the benchmark measures."""
    from vnfcmap import agents, cli, mdp, metrics, model, oracle, scenario, service

    tracer.timed(mdp.MappingEnvironment, "step", "mdp.step", on_result=_count_feasible)
    tracer.timed(mdp.MappingEnvironment, "reset", "mdp.reset")

    tracer.timed(agents, "train", "agents.train")
    tracer.timed(agents, "make_learner", "agents.make_learner")
    tracer.timed(agents, "run_episode", "agents.run_episode")
    tracer.timed(agents, "select_action", "agents.select_action", on_result=_count_explored)
    tracer.timed(agents, "tabular_update", "agents.tabular_update")
    tracer.timed(agents, "linear_update", "agents.linear_update")
    tracer.timed(agents, "epsilon_greedy_policy_update", "agents.policy_update")
    tracer.timed(agents, "greedy_target_update", "agents.policy_update")
    tracer.timed(agents, "save_policy", "agents.save_policy", on_result=_count_policy_bytes)
    tracer.timed(agents.PolicySnapshot, "estimator_for", "agents.estimator_for")
    for owner in (agents, service):
        tracer.timed(owner, "load_policy", "agents.load_policy")
        tracer.timed(owner, "greedy_rollout", "agents.greedy_rollout")

    tracer.timed(metrics, "summarize", "metrics.summarize")
    tracer.timed(metrics, "convergence_episode", "metrics.convergence_episode")
    tracer.timed(metrics, "write_episode_csv", "metrics.write_episode_csv")
    tracer.timed(metrics, "write_summary_json", "metrics.write_summary_json")

    for owner in (oracle, scenario, service, cli):
        tracer.timed(owner, "solve_exact_matching", "oracle.solve", label=_problem_size)
    for owner in (oracle, service):
        tracer.timed(owner, "assignment_objective", "oracle.assignment_objective")
    tracer.timed(oracle, "linear_sum_assignment", "oracle.lsap")
    for owner in (oracle, service, cli):
        tracer.counted(owner, "pair_cost", "oracle.pair_cost")
    tracer.counted(model.VirtualMachine, "fits", "model.fits")

    tracer.timed(scenario, "generate", "scenario.generate")
    tracer.timed(scenario, "load", "scenario.load")
    tracer.timed(scenario, "save", "scenario.save")
    for owner in (scenario, service):
        tracer.timed(owner, "scenario_from_dict", "scenario.scenario_from_dict")

    tracer.timed(service, "handle_map", "service.handle_map", label=_policy_kind)
    tracer.timed(service, "parse_request", "service.parse_request")


def untraced_then_traced(run, seconds: float, tracer: Tracer) -> tuple[int, float]:
    """Call ``run(seconds / 2)`` untraced, then again with the wrappers installed.

    ``run`` returns each pass's busy seconds. Returns the number of traced
    passes and the tracing overhead: traced over untraced median pass time,
    minus one.
    """
    from statistics import median

    plain = run(seconds / 2)
    install(tracer)
    try:
        traced = run(seconds / 2)
    finally:
        tracer.uninstall()
    return len(traced), median(traced) / median(plain) - 1.0


def per_layer_metrics(tracer: Tracer, names: list[str], passes: int, extra: dict) -> dict:
    """Every per-layer metric in ``names``; a layer the run never reached reads 0.

    ``passes`` is the number of complete passes over the workload's inputs in
    the traced phase, so that call counts are per pass and repeat exactly.
    ``extra`` holds the values a workload measures itself (service, cli and
    tracing overhead).
    """
    stats, inclusive, totals = tracer.stats, tracer.inclusive, tracer.totals

    def calls(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def mean(name: str, scale: float, self_time: bool = False) -> float:
        row = stats.get(name)
        if not row or not row[0]:
            return 0.0
        return (row[2] if self_time else row[1]) / row[0] * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    solves = [n for n in stats if n.startswith("oracle.solve.")]
    solve_calls = sum(calls(n) for n in solves)
    solve_time = sum(stats[n][1] for n in solves)

    def per_solve(counter: str) -> float:
        return ratio(sum(inclusive.get((n, counter), 0) for n in solves), solve_calls)

    episode_steps = inclusive.get(("agents.run_episode", "mdp.step"), 0)
    values = {
        "mdp.step.calls": ratio(calls("mdp.step"), passes),
        "mdp.step.self_us": mean("mdp.step", 1e6, self_time=True),
        "mdp.reset.self_us": mean("mdp.reset", 1e6, self_time=True),
        "mdp.steps_per_episode": ratio(episode_steps, calls("agents.run_episode")),
        "mdp.feasible_step_ratio": ratio(
            inclusive.get(("agents.run_episode", "mdp.step.feasible"), 0), episode_steps
        ),
        "agents.select_action.self_us": mean("agents.select_action", 1e6, self_time=True),
        "agents.tabular_update.self_us": mean("agents.tabular_update", 1e6, self_time=True),
        "agents.linear_update.self_us": mean("agents.linear_update", 1e6, self_time=True),
        "agents.policy_update.self_us": mean("agents.policy_update", 1e6, self_time=True),
        "agents.run_episode.self_us": mean("agents.run_episode", 1e6, self_time=True),
        "agents.make_learner.ms": mean("agents.make_learner", 1e3),
        "agents.explore_ratio": ratio(totals.get("agents.explored", 0), calls("agents.select_action")),
        "agents.load_policy.ms": mean("agents.load_policy", 1e3),
        "agents.estimator_for.ms": mean("agents.estimator_for", 1e3),
        "agents.greedy_rollout.us": mean("agents.greedy_rollout", 1e6),
        "agents.save_policy.ms": mean("agents.save_policy", 1e3),
        "agents.save_policy.bytes": ratio(
            totals.get("agents.save_policy.bytes", 0), calls("agents.save_policy")
        ),
        "metrics.summarize.ms": mean("metrics.summarize", 1e3),
        "metrics.convergence_episode.us": mean("metrics.convergence_episode", 1e6),
        "metrics.write_episode_csv.ms": mean("metrics.write_episode_csv", 1e3),
        "metrics.write_summary_json.ms": mean("metrics.write_summary_json", 1e3),
        "oracle.solve.m100.self_ms": mean("oracle.solve.m100", 1e3, self_time=True),
        "oracle.solve.m400.self_ms": mean("oracle.solve.m400", 1e3, self_time=True),
        "oracle.lsap.calls_per_solve": per_solve("oracle.lsap"),
        "oracle.lsap.share": ratio(stats.get("oracle.lsap", (0, 0.0))[1], solve_time),
        "oracle.pair_cost.calls_per_solve": per_solve("oracle.pair_cost"),
        "oracle.assignment_objective.us": mean("oracle.assignment_objective", 1e6),
        "model.fits.calls_per_solve": per_solve("model.fits"),
        "scenario.generate.ms": mean("scenario.generate", 1e3),
        "scenario.generate.draws_per_instance": ratio(
            sum(inclusive.get(("scenario.generate", n), 0) for n in solves),
            calls("scenario.generate"),
        ),
        "scenario.scenario_from_dict.us": mean("scenario.scenario_from_dict", 1e6),
        "scenario.load.ms": mean("scenario.load", 1e3),
        "scenario.save.ms": mean("scenario.save", 1e3),
        "service.handle_map.greedy.ms": mean("service.handle_map.greedy", 1e3),
        "service.handle_map.trained.ms": mean("service.handle_map.trained", 1e3),
        "service.handle_map.oracle.ms": mean("service.handle_map.oracle", 1e3),
        "service.parse_request.us": mean("service.parse_request", 1e6),
    }
    for name in names:
        if name.startswith("cli.") or name in WORKLOAD_MEASURED:
            values[name] = extra.get(name, 0.0)
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"no rule for per-layer metrics {missing}")
    return {n: values[n] for n in names}
