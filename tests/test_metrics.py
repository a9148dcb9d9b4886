import json
import math

import numpy as np
import pytest

from vnfcmap.mdp import Hyperparameters
from vnfcmap.metrics import (
    CSV_COLUMNS,
    EpisodeLog,
    RunRecord,
    compare_summaries,
    convergence_episode,
    episode_csv_lines,
    exploration_ratio,
    load_summary_json,
    reward_auc,
    summarize,
    write_episode_csv,
    write_summary_json,
)


def _log(index, reward, length=4, exploratory=0, success=True):
    return EpisodeLog(index, reward, length, exploratory, success)


def _record(rewards, variant="off-tab", seed=0):
    logs = tuple(_log(i + 1, r) for i, r in enumerate(rewards))
    return RunRecord(variant=variant, seed=seed, hyper=Hyperparameters(), episodes=logs)


def test_exploration_ratio_examples():
    assert exploration_ratio(_log(1, 0.0, length=6, exploratory=3)) == 0.5
    assert exploration_ratio(_log(1, 0.0, length=5, exploratory=0)) == 0.0
    assert exploration_ratio(_log(1, 0.0, length=7, exploratory=7)) == 1.0


def test_episode_log_validation():
    with pytest.raises(ValueError):
        _log(1, 0.0, length=2, exploratory=3)
    with pytest.raises(ValueError):
        _log(1, 0.0, length=0)


def test_auc_constant_curve():
    assert reward_auc([5.0] * 500) == 5.0 * 499
    assert reward_auc([0.0, 10.0]) == 5.0


def test_auc_needs_two_episodes():
    with pytest.raises(ValueError):
        reward_auc([1.0])


def test_auc_matches_flat_curve_arithmetic():
    # A run averaging 5.42 over 500 episodes integrates to about 2705 under
    # the trapezoid rule; the flat-curve identity is mean * (episodes - 1).
    assert reward_auc([5.42] * 500) == pytest.approx(5.42 * 499, abs=1e-9)
    assert abs(5.42 * 499 - 2705.03) / 2705.03 < 2e-4


def test_auc_equals_trapezoid_sum_on_random_curves():
    rng = np.random.default_rng(2)
    for _ in range(30):
        rewards = rng.normal(size=int(rng.integers(2, 200))).tolist()
        expected = sum((rewards[i] + rewards[i + 1]) / 2 for i in range(len(rewards) - 1))
        assert reward_auc(rewards) == expected


def test_convergence_step_curve():
    rewards = [0.0] * 10 + [5.0] * 490
    assert convergence_episode(rewards) == 11


def test_convergence_constant_curve():
    assert convergence_episode([3.0] * 40) == 1


def test_convergence_linear_ramp():
    rewards = [float(e) for e in range(1, 501)]
    # rolling(e) = e + 4.5, final = 495.5, tolerance = 49.55; the first index
    # with every later rolling mean strictly inside the band is 442.
    final = 495.5
    tolerance = 0.1 * final
    expected = math.floor(final - tolerance - 4.5) + 1
    assert expected == 442
    assert convergence_episode(rewards) == expected


def test_convergence_absolute_fallback_below_one():
    rewards = [0.0] * 20 + [0.6] * 20
    # Final rolling mean 0.6 < 1, so the band is an absolute 0.1 rather than
    # 0.06: rolling(20) = 0.54 already sits inside it.
    assert convergence_episode(rewards) == 20


def test_convergence_requires_two_windows():
    with pytest.raises(ValueError):
        convergence_episode([1.0] * 19)


def test_convergence_can_fail_with_zero_band():
    rewards = [1.0, 2.0] * 20
    assert convergence_episode(rewards, band=0.0) is None


def test_run_record_aggregates():
    record = _record([1.0, 2.0, 3.0, 6.0])
    assert record.average_reward == 3.0
    assert record.std_dev == pytest.approx(math.sqrt(14 / 4))
    assert record.cumulative_rewards() == [1.0, 3.0, 6.0, 12.0]


def test_single_episode_statistics():
    record = _record([7.5])
    assert record.average_reward == 7.5
    assert record.std_dev == 0.0


def test_cumulative_curve_monotone_iff_nonnegative():
    gains = _record([0.5, 0.0, 2.0, 1.0])
    curve = gains.cumulative_rewards()
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    mixed = _record([1.0, -1.0, 2.0])
    curve = mixed.cumulative_rewards()
    assert any(b < a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == sum(mixed.rewards)


def test_summaries_are_pure_recomputation():
    rng = np.random.default_rng(4)
    record = _record(rng.normal(size=60).tolist())
    assert summarize(record) == summarize(record)
    rebuilt = RunRecord(
        variant=record.variant, seed=record.seed, hyper=record.hyper, episodes=record.episodes
    )
    assert summarize(rebuilt) == summarize(record)


def test_identical_runs_compare_identically():
    a = _record([1.0] * 30, variant="on-tab", seed=0)
    b = _record([1.0] * 30, variant="on-tab", seed=1)
    comparison = compare_summaries([summarize(a), summarize(b)])
    cell = comparison["variants"]["on-tab"]
    assert cell["runs"] == 2
    assert cell["cross_seed_std"] == 0.0
    assert cell["average_reward"] == 1.0


def test_compare_orders_variants():
    runs = [
        _record([6.0] * 30, variant="off-tab"),
        _record([5.0] * 30, variant="on-tab"),
        _record([0.5] * 30, variant="on-lin"),
        _record([1.0] * 30, variant="off-lin"),
    ]
    comparison = compare_summaries([summarize(r) for r in runs])
    assert comparison["by_average_reward"] == ["off-tab", "on-tab", "off-lin", "on-lin"]
    assert comparison["by_auc"][0] == "off-tab"


def test_csv_layout_and_determinism(tmp_path):
    record = _record([1.5, -1.0, 2.25], variant="off-tab")
    lines = episode_csv_lines(record)
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].split(",")[0] == "1"
    assert lines[1].split(",")[4] == "true"
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_episode_csv(record, first)
    write_episode_csv(record, second)
    assert first.read_bytes() == second.read_bytes()


def test_summary_json_roundtrip(tmp_path):
    record = _record([2.0] * 25)
    path = tmp_path / "summary.json"
    write_summary_json(record, path)
    loaded = load_summary_json(path)
    assert loaded == summarize(record)
    assert loaded["hyperparameters"]["alpha"] == 0.1
    assert json.loads(path.read_text())["episodes"] == 25
