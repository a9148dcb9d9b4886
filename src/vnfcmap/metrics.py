"""Per-episode logging and the evaluation statistics reported for each run.

Aggregates are pure functions of the episode logs, so a run record can always
be re-summarized bit-for-bit from its raw log sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .mdp import Hyperparameters
from .scenario import NUMBER, STRING, ScenarioFormatError, read_document, require

CSV_COLUMNS = (
    "episode",
    "total_reward",
    "length",
    "exploratory_actions",
    "success",
    "cumulative_reward",
    "exploration_ratio",
)

CONVERGENCE_WINDOW = 10
CONVERGENCE_BAND = 0.10


class _EpisodeFields(NamedTuple):
    episode_index: int
    total_reward: float
    length: int
    exploratory_actions: int
    success: bool


class EpisodeLog(_EpisodeFields):
    """One episode's outcome. The training kernel makes one per episode, so
    it is a plain immutable tuple, the cheapest record to build. A run's
    statistics and files are computed from its logs."""

    __slots__ = ()

    def __new__(
        cls,
        episode_index: int,
        total_reward: float,
        length: int,
        exploratory_actions: int,
        success: bool,
    ) -> EpisodeLog:
        if length < 1:
            raise ValueError("episodes have at least one step")
        if not 0 <= exploratory_actions <= length:
            raise ValueError("exploratory actions cannot exceed the episode length")
        return tuple.__new__(
            cls, (episode_index, total_reward, length, exploratory_actions, success)
        )


def exploration_ratio(log: EpisodeLog) -> float:
    return log.exploratory_actions / log.length


def _mean_and_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation."""
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def reward_auc(rewards: Sequence[float]) -> float:
    """Trapezoidal area under the per-episode reward curve over episode index."""
    if len(rewards) < 2:
        raise ValueError("auc needs at least two episodes")
    total = 0.0
    for left, right in zip(rewards, rewards[1:]):
        total += (left + right) / 2.0
    return total


def convergence_episode(rewards: Sequence[float]) -> Optional[int]:
    """First episode whose rolling mean over ``CONVERGENCE_WINDOW`` episodes,
    and every later one, stays near the final rolling mean.

    "Near" means strictly inside a band of ``CONVERGENCE_BAND * |final|``,
    falling back to an absolute 0.1 when the final rolling mean is below 1 in
    magnitude. Returns None when no episode qualifies.
    """
    window = CONVERGENCE_WINDOW
    if len(rewards) < 2 * window:
        raise ValueError(f"need at least {2 * window} episodes, got {len(rewards)}")
    rolling = [
        sum(rewards[k : k + window]) / window for k in range(len(rewards) - window + 1)
    ]
    final = rolling[-1]
    tolerance = CONVERGENCE_BAND * abs(final) if abs(final) >= 1 else 0.1
    converged_from: Optional[int] = None
    for e in range(len(rolling), 0, -1):
        if abs(rolling[e - 1] - final) < tolerance:
            converged_from = e
        else:
            break
    return converged_from


@dataclass(frozen=True)
class RunRecord:
    """Everything one (variant, seed) training run produced."""

    variant: str
    seed: int
    hyper: Hyperparameters
    episodes: tuple[EpisodeLog, ...]

    def __post_init__(self) -> None:
        if not self.episodes:
            raise ValueError("a run record holds at least one episode")

    @property
    def rewards(self) -> list[float]:
        return [log.total_reward for log in self.episodes]

    @property
    def average_reward(self) -> float:
        return sum(self.rewards) / len(self.episodes)

    @property
    def std_dev(self) -> float:
        return _mean_and_std(self.rewards)[1]

    @property
    def auc(self) -> float:
        return reward_auc(self.rewards)

    @property
    def convergence(self) -> Optional[int]:
        return convergence_episode(self.rewards)

    def cumulative_rewards(self) -> list[float]:
        out: list[float] = []
        running = 0.0
        for reward in self.rewards:
            running += reward
            out.append(running)
        return out


def summarize(run: RunRecord) -> dict:
    """The run's statistics, with its hyperparameters by field name, each
    enum as its value."""
    hyper = {f.name: getattr(run.hyper, f.name) for f in fields(run.hyper)}
    return {
        "variant": run.variant,
        "seed": run.seed,
        "episodes": len(run.episodes),
        "average_reward": run.average_reward,
        "std_dev": run.std_dev,
        "auc": run.auc,
        "convergence_episode": run.convergence,
        "success_rate": sum(log.success for log in run.episodes) / len(run.episodes),
        "hyperparameters": {k: v.value if isinstance(v, Enum) else v for k, v in hyper.items()},
    }


# The summary field each aggregate of ``compare_summaries`` is computed from.
_AGGREGATE_SOURCES = {
    "average_reward": "average_reward",
    "cross_seed_std": "average_reward",
    "mean_episode_std": "std_dev",
    "auc": "auc",
    "convergence_episode": "convergence_episode",
}


def _beyond_float_range(key: str, variant: str, runs: int) -> ScenarioFormatError:
    detail = f"{key} over the {runs} {variant} runs is beyond the float range"
    return ScenarioFormatError(_AGGREGATE_SOURCES[key], detail)


def compare_summaries(summaries: Sequence[dict]) -> dict:
    """Fold many run summaries into per-variant aggregates plus orderings.

    Cross-seed statistics are over per-run average rewards; the per-episode
    spread of each run is aggregated separately as ``mean_episode_std``. An
    aggregate beyond the float range, which JSON cannot hold, raises a
    ``ScenarioFormatError`` naming the summary field it is computed from.
    """
    if not summaries:
        raise ValueError("nothing to compare")
    by_variant: dict[str, list[dict]] = {}
    for summary in summaries:
        by_variant.setdefault(summary["variant"], []).append(summary)

    table: dict[str, dict] = {}
    for variant, group in sorted(by_variant.items()):
        averages = [s["average_reward"] for s in group]
        try:
            mean_avg, cross_std = _mean_and_std(averages)
        except OverflowError:  # a squared deviation; sums overflow to inf instead
            raise _beyond_float_range("cross_seed_std", variant, len(group)) from None
        convergences = [
            s["convergence_episode"] for s in group if s["convergence_episode"] is not None
        ]
        cell = table[variant] = {
            "runs": len(group),
            "average_reward": mean_avg,
            "cross_seed_std": cross_std,
            "mean_episode_std": sum(s["std_dev"] for s in group) / len(group),
            "auc": sum(s["auc"] for s in group) / len(group),
            "convergence_episode": (
                sum(convergences) / len(convergences) if convergences else None
            ),
        }
        for key in _AGGREGATE_SOURCES:
            if cell[key] is not None and not math.isfinite(cell[key]):
                raise _beyond_float_range(key, variant, len(group))
    return {
        "variants": table,
        "by_average_reward": sorted(
            table, key=lambda v: table[v]["average_reward"], reverse=True
        ),
        "by_auc": sorted(table, key=lambda v: table[v]["auc"], reverse=True),
    }


# ---------------------------------------------------------------------------
# File output


def _fmt(value: float) -> str:
    return repr(float(value))


def episode_csv_lines(run: RunRecord) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for log, running in zip(run.episodes, run.cumulative_rewards()):
        lines.append(
            ",".join(
                (
                    str(log.episode_index),
                    _fmt(log.total_reward),
                    str(log.length),
                    str(log.exploratory_actions),
                    "true" if log.success else "false",
                    _fmt(running),
                    _fmt(exploration_ratio(log)),
                )
            )
        )
    return lines


def write_episode_csv(run: RunRecord, path: str | Path) -> None:
    Path(path).write_text("\n".join(episode_csv_lines(run)) + "\n")


def write_summary_json(run: RunRecord, path: str | Path) -> dict:
    """Write the run's summary to ``path`` and return it."""
    summary = summarize(run)
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def write_comparison_json(comparison: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(comparison, indent=2, sort_keys=True) + "\n")


def load_summary_json(path: str | Path) -> dict:
    """A run summary, with the fields ``compare_summaries`` reads checked."""
    summary = read_document(path)
    require(summary, "variant", kind=STRING)
    for key in ("average_reward", "std_dev", "auc"):
        require(summary, key, kind=NUMBER)
    if require(summary, "convergence_episode") is not None:
        require(summary, "convergence_episode", kind=NUMBER)
    return summary
