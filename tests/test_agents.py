import itertools
import math
import pickle
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (
    features,
    reference_checked_array,
    reference_episode,
    reference_greedy_rollout,
    reference_train,
    tiny_scenario,
    two_step_q_star,
)
from vnfcmap import agents, metrics
from vnfcmap.agents import (
    DIVERGENCE_LIMIT,
    FEATURE_DIM,
    AgentVariant,
    DivergenceError,
    LinearQ,
    PolicyMode,
    PolicyTable,
    QTable,
    epsilon_greedy_policy_update,
    feature_map,
    greedy_rollout,
    greedy_target_update,
    linear_update,
    load_policy,
    make_learner,
    run_episode,
    save_policy,
    select_action,
    tabular_update,
    train,
)
from vnfcmap.mdp import (
    INFEASIBLE_PENALTY,
    Action,
    AlphaSchedule,
    Hyperparameters,
    MappingEnvironment,
    MappingEpisodeState,
    RewardMode,
)
from vnfcmap.model import VirtualMachine, VmLabel, classify_vms, make_slice, resource_grid
from vnfcmap.oracle import AssignmentProblem, solve_exact_enumeration
from vnfcmap.scenario import GenerationParams, Scenario, ScenarioFormatError, generate


_TABULAR_VARIANTS = pytest.mark.parametrize(
    "variant", [AgentVariant.ON_POLICY_TABULAR, AgentVariant.OFF_POLICY_TABULAR], ids=lambda v: v.value
)
_LINEAR_VARIANTS = pytest.mark.parametrize(
    "variant", [AgentVariant.ON_POLICY_LINEAR, AgentVariant.OFF_POLICY_LINEAR], ids=lambda v: v.value
)


def _state(index=1, anchor=1, occupied=()):
    return MappingEpisodeState(index, anchor, frozenset(occupied))


def _hosting(scenario, hosted_ids):
    """``scenario`` with the machines of ``hosted_ids`` already hosting a component."""
    vms = tuple(replace(vm, hosted=1) if vm.id in hosted_ids else vm for vm in scenario.vms)
    return Scenario(scenario.subnet, vms)


def _uniform_scenario(num_vms=6, cap=8):
    subnet = make_slice([2, 2, 2, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1])
    vms = tuple(VirtualMachine(id=j + 1, compute_cap=cap, storage_cap=cap) for j in range(num_vms))
    return Scenario(subnet=subnet, vms=vms)


# ---------------------------------------------------------------------------
# action selection


def test_zero_epsilon_is_purely_greedy():
    q = QTable(2, 5)
    q.values[0, 0, 3] = 1.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        action, exploratory = select_action(q, _state(), 0.0, rng)
        assert action.target_vm == 4 and not exploratory


def test_greedy_tie_goes_to_lowest_id():
    q = QTable(1, 15)
    q.values[0, 0, 6] = 2.5
    q.values[0, 0, 11] = 2.5
    action, _ = select_action(q, _state(), 0.0, np.random.default_rng(0))
    assert action.target_vm == 7


def test_full_exploration_is_uniform():
    m = 10
    q = QTable(1, m)
    rng = np.random.default_rng(123)
    draws = 100_000
    counts = np.zeros(m, dtype=int)
    for _ in range(draws):
        action, exploratory = select_action(q, _state(), 1.0, rng)
        assert exploratory
        counts[action.target_vm - 1] += 1
    expected = draws / m
    sigma = math.sqrt(draws * (1 / m) * (1 - 1 / m))
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_exploration_probability_matches_epsilon():
    q = QTable(1, 8)
    rng = np.random.default_rng(7)
    flags = [select_action(q, _state(), 0.25, rng)[1] for _ in range(20_000)]
    assert np.mean(flags) == pytest.approx(0.25, abs=0.01)


# ---------------------------------------------------------------------------
# tabular updates


def test_tabular_update_substitution():
    q = QTable(8, 4)
    hyper = Hyperparameters(alpha=0.1, gamma=0.99)
    td = tabular_update(q, _state(), Action(2), 1.0, _state(2, 2, {2}), hyper)
    assert q.values[0, 0, 1] == pytest.approx(0.1)
    assert td == pytest.approx(1.0)


def test_full_alpha_jumps_to_target():
    q = QTable(8, 4)
    q.values[1, 1, :] = [0.0, 3.0, 1.0, 0.5]
    hyper = Hyperparameters(alpha=1.0, gamma=0.5)
    tabular_update(q, _state(), Action(1), 2.0, _state(2, 2, {2}), hyper)
    assert q.values[0, 0, 0] == 2.0 + 0.5 * 3.0


def test_terminal_successor_contributes_nothing():
    q = QTable(8, 4)
    q.values[:] = 9.0
    hyper = Hyperparameters(alpha=1.0, gamma=0.99)
    tabular_update(q, _state(), Action(1), -1.0, _state(1, 1, (), ), hyper)
    # overwrite above: craft explicit terminal state
    q = QTable(8, 4)
    q.values[:] = 9.0
    terminal = MappingEpisodeState(1, 1, frozenset(), terminal=True)
    tabular_update(q, _state(), Action(1), -1.0, terminal, hyper)
    assert q.values[0, 0, 0] == -1.0


def test_bellman_fixed_point_is_invariant():
    # Rewards derived from a chosen optimal table keep every update a no-op.
    rng = np.random.default_rng(31)
    hyper = Hyperparameters(alpha=0.7, gamma=0.9)
    for _ in range(100):
        q = QTable(2, 3)
        q.values = rng.normal(size=q.values.shape)
        state = _state(1, int(rng.integers(1, 4)))
        action = Action(int(rng.integers(1, 4)))
        next_state = _state(2, action.target_vm, {action.target_vm})
        reward = q.values[0, state.anchor_vm - 1, action.target_vm - 1] - hyper.gamma * q.max_value(
            next_state
        )
        before = q.values.copy()
        tabular_update(q, state, action, reward, next_state, hyper)
        assert np.max(np.abs(q.values - before)) < 1e-12


def test_update_bootstraps_on_max_not_on_next_action():
    q = QTable(8, 3)
    q.values[1, 2, :] = [0.0, 5.0, 1.0]  # max sits on action 2
    hyper = Hyperparameters(alpha=1.0, gamma=0.5)
    tabular_update(q, _state(1, 1), Action(3), 1.0, _state(2, 3, {3}), hyper)
    # target must be 1 + 0.5 * 5 regardless of what gets played next
    assert q.values[0, 0, 2] == 3.5


def test_fixed_step_size_counts_no_visits():
    # Only the harmonic step size reads a visit count, so under the fixed
    # schedule neither the TD update nor a training run writes one.
    q = QTable(8, 4)
    tabular_update(q, _state(), Action(2), 1.0, _state(2, 2, {2}), Hyperparameters())
    assert q.values[0, 0, 1] != 0.0
    assert not q.visits.any()
    for variant in (AgentVariant.ON_POLICY_TABULAR, AgentVariant.OFF_POLICY_TABULAR):
        _, learner = train(variant, _uniform_scenario(), Hyperparameters(episodes=40), seed=3)
        assert learner.q.values.any()
        assert not learner.q.visits.any()


@_TABULAR_VARIANTS
def test_harmonic_step_size_counts_every_step(variant):
    hyper = Hyperparameters(episodes=40, alpha_schedule=AlphaSchedule.HARMONIC)
    record, learner = train(variant, _uniform_scenario(), hyper, seed=3)
    assert learner.q.visits.sum() == sum(log.length for log in record.episodes)


def test_harmonic_alpha_decays_with_visits():
    q = QTable(1, 2)
    hyper = Hyperparameters(alpha=1.0, gamma=0.5, alpha_schedule=AlphaSchedule.HARMONIC)
    terminal = MappingEpisodeState(1, 1, frozenset(), terminal=True)
    tabular_update(q, _state(), Action(1), 1.0, terminal, hyper)
    assert q.values[0, 0, 0] == 1.0  # first visit uses the base rate
    tabular_update(q, _state(), Action(1), 0.0, terminal, hyper)
    assert q.values[0, 0, 0] == pytest.approx(1.0 - 1.0 / 1.01)


# ---------------------------------------------------------------------------
# policy tables


def test_epsilon_greedy_row_shape():
    policy = PolicyTable(1, 100, PolicyMode.EPSILON_GREEDY, epsilon=0.1)
    q = QTable(1, 100)
    q.values[0, 0, 41] = 3.0
    epsilon_greedy_policy_update(policy, _state(), q, 0.1)
    row = policy.row(_state())
    assert row[41] == pytest.approx(0.901)
    assert row[0] == pytest.approx(0.001)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_epsilon_zero_row_is_deterministic():
    policy = PolicyTable(1, 10, PolicyMode.EPSILON_GREEDY, epsilon=0.0)
    q = QTable(1, 10)
    q.values[0, 0, 4] = 1.0
    epsilon_greedy_policy_update(policy, _state(), q, 0.0)
    row = policy.row(_state())
    assert row[4] == 1.0 and row.sum() == 1.0


def test_epsilon_greedy_masses_sum_to_one_exactly():
    # Rational identity behind the two update formulas.
    for m in (2, 10, 100):
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            greedy = 1 - (eps / m) * (m - 1)
            assert greedy + (m - 1) * (eps / m) == 1


def test_greedy_target_row_is_one_hot():
    policy = PolicyTable(1, 6, PolicyMode.GREEDY_TARGET)
    q = QTable(1, 6)
    q.values[0, 0, 2] = 1.0
    q.values[0, 0, 5] = 1.0  # tie, lowest id wins
    greedy_target_update(policy, _state(), q)
    row = policy.row(_state())
    assert row[2] == 1.0 and row.sum() == 1.0
    q.values[0, 0, 5] = 2.0
    greedy_target_update(policy, _state(), q)
    assert policy.row(_state())[5] == 1.0


def test_policy_mode_mismatch_raises():
    q = QTable(1, 3)
    with pytest.raises(ValueError):
        greedy_target_update(PolicyTable(1, 3, PolicyMode.EPSILON_GREEDY, 0.1), _state(), q)
    with pytest.raises(ValueError):
        epsilon_greedy_policy_update(PolicyTable(1, 3, PolicyMode.GREEDY_TARGET), _state(), q, 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        epsilon_greedy_policy_update(
            PolicyTable(1, 3, PolicyMode.EPSILON_GREEDY, 0.1), _state(), q, 0.2
        )


# ---------------------------------------------------------------------------
# features and linear updates


def test_feature_map_perfect_fit():
    scenario = Scenario(
        subnet=make_slice([2, 2, 2, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1]),
        vms=(VirtualMachine(1, 2, 2),),
    )
    phi = feature_map(_state(), Action(1), scenario)
    assert phi.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]


def test_feature_map_loose_fit():
    scenario = Scenario(
        subnet=make_slice([1, 1, 1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1, 0, 0]),
        vms=(VirtualMachine(1, 4, 4),),
    )
    phi = feature_map(_state(), Action(1), scenario)
    assert phi.tolist() == [1.0, 0.25, 0.25, 0.75, 0.75, 1.0, 0.0]


def test_feature_map_capacity_misfit_and_ratio_cap():
    scenario = Scenario(
        subnet=make_slice([8, 1, 1, 1, 1, 1, 1, 1], [8, 1, 1, 1, 1, 1, 1, 1]),
        vms=(VirtualMachine(1, 2, 2),),
    )
    phi = feature_map(_state(), Action(1), scenario)
    assert phi[1] == 2.0 and phi[2] == 2.0  # ratio capped
    assert phi[3] == 0.0 and phi[4] == 0.0  # idle fraction clamped
    assert phi[5] == 0.0  # does not fit


def test_feature_map_is_occupancy_blind():
    scenario = _uniform_scenario()
    free = feature_map(_state(2, 1), Action(1), scenario)
    taken = feature_map(_state(2, 1, occupied={1}), Action(1), scenario)
    assert free.tolist() == taken.tolist()


def test_feature_map_progress_column():
    scenario = _uniform_scenario()
    for idx in range(1, 9):
        phi = feature_map(_state(idx, 1), Action(2), scenario)
        assert phi[6] == (idx - 1) / 8


def test_feature_bounds():
    rng = np.random.default_rng(40)
    scenario = generate(77)
    for _ in range(200):
        state = _state(int(rng.integers(1, 9)), int(rng.integers(1, 101)))
        phi = feature_map(state, Action(int(rng.integers(1, 101))), scenario)
        assert phi.shape == (7,)
        assert np.all(phi >= 0.0) and np.all(phi <= 2.0)


def _assert_linear_q_matches_feature_map(scenario):
    lq = LinearQ(scenario)
    rng = np.random.default_rng(41)
    for _ in range(50):
        index = int(rng.integers(1, 9))
        action = Action(int(rng.integers(1, 101)))
        expected = features(
            scenario.subnet.components[index - 1], scenario.vms[action.target_vm - 1], index, 8
        )
        state = _state(index, int(rng.integers(1, 101)))
        assert lq.feature_vector(state, action).tolist() == expected


def test_linear_q_matches_feature_map():
    _assert_linear_q_matches_feature_map(generate(78))


def test_linear_q_matches_feature_map_with_hosted_machines():
    _assert_linear_q_matches_feature_map(_hosting(generate(78), set(range(1, 101, 3))))


# Demands with a fraction, and capacities one float step either side of each
# demand, so that every fit is decided at its boundary.
_BOUNDARY_SLICE = make_slice([3, 2.5, 4, 1, 2, 1, 2, 1.5], [2, 3, 3, 2, 1, 2, 1, 1])
_BOUNDARY_AMOUNTS = sorted(
    {float(x) for d in (1, 1.5, 2, 2.5, 3, 4) for x in (np.nextafter(d, 0), d, np.nextafter(d, 9))}
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_BOUNDARY_AMOUNTS),
            st.sampled_from(_BOUNDARY_AMOUNTS),
            st.one_of(st.none(), st.integers(1, 8)),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_grid_environment_and_features_share_one_allowed_mask(machines):
    vms = tuple(VirtualMachine(j + 1, c, s, hosted) for j, (c, s, hosted) in enumerate(machines))
    scenario = Scenario(_BOUNDARY_SLICE, vms)
    *_, allowed, _ = resource_grid(scenario.subnet.components, vms)
    env = MappingEnvironment(scenario, np.random.default_rng(0))
    lq = LinearQ(scenario)
    for i, comp in enumerate(scenario.subnet.components):
        labels = classify_vms(vms, comp).labels
        for j, vm in enumerate(vms):
            sufficient = labels[vm.id] is VmLabel.AVAILABLE_SUFFICIENT
            feature = lq.feature_vector(_state(i + 1), Action(vm.id))[5]
            assert (bool(allowed[i, j]), env.fit_mask[i][j], feature) == (
                sufficient, sufficient, float(sufficient)
            )


def _stop(q, env, anchor, hosted):
    """How the step-by-step greedy replay from ``anchor`` ends: "mapped", or
    the machine of its first infeasible pick, one "taken", "hosted" or "unfit"."""
    state = _state(1, anchor)
    while not state.terminal:
        j = q.greedy_action(state)
        outcome = env.step(state, Action(j))
        if not outcome.feasible:
            return "taken" if j in state.occupied else "hosted" if j in hosted else "unfit"
        state = outcome.next_state
    return "mapped"


@pytest.mark.parametrize("variant", list(AgentVariant), ids=lambda v: v.value)
def test_greedy_rollouts_place_nothing_on_a_hosted_machine(variant):
    # From every anchor, over all eight components and the first five, the
    # replay matches the step-by-step reference. Besides the trained estimate,
    # random ones pick hosted and unfit machines. No linear replay places the
    # whole slice on this inventory.
    hosted = set(range(2, 41, 2))
    scenario = _hosting(generate(1, GenerationParams(num_vms=40)), hosted)
    rng = np.random.default_rng(0)
    seen = set()
    for k in (8, 5):
        _, learner = train(variant, scenario, Hyperparameters(episodes=500), 0, k)
        estimators = [learner.q]
        for _ in range(5):
            if variant.tabular:
                estimators.append(QTable(k, 40, rng.random((k, 40, 40))))
            else:
                estimators.append(LinearQ(scenario, k))
                estimators[-1].weights = rng.normal(size=FEATURE_DIM)
        env = MappingEnvironment(scenario, np.random.default_rng(0), num_components=k)
        for q, anchor in itertools.product(estimators, range(1, 41)):
            pairs = greedy_rollout(q, env, anchor)
            assert pairs == reference_greedy_rollout(q, env, anchor)
            assert pairs is None or not set(pairs.values()) & hosted
            seen.add(_stop(q, env, anchor, hosted))
    infeasible = {"taken", "hosted", "unfit"}
    assert seen == (infeasible | {"mapped"} if variant.tabular else infeasible)


def test_greedy_rollout_refuses_a_target_outside_the_inventory():
    # An estimate over 7 machines replayed on 6: f1 takes machine 1, then the
    # pick for f2 is machine 7, which env.step refuses by name.
    env = MappingEnvironment(_uniform_scenario(num_vms=6), np.random.default_rng(0))
    q = QTable(8, 7)
    q.values[1, 0, 6] = 1.0
    for replay in (greedy_rollout, reference_greedy_rollout):
        with pytest.raises(ValueError, match=r"^target vm 7 outside 1\.\.6$"):
            replay(q, env)


def test_linear_update_from_zero_weights():
    scenario = _uniform_scenario()
    lq = LinearQ(scenario)
    hyper = Hyperparameters(alpha=0.1, gamma=0.99)
    state = _state()
    action = Action(1)
    phi = lq.feature_vector(state, action).copy()
    terminal = MappingEpisodeState(1, 1, frozenset(), terminal=True)
    td = linear_update(lq, state, action, 1.0, terminal, hyper)
    assert td == pytest.approx(1.0)
    assert np.allclose(lq.weights, 0.1 * phi, atol=1e-15)


def test_linear_update_hand_evaluated_step():
    scenario = _uniform_scenario(num_vms=3, cap=4)
    lq = LinearQ(scenario, num_components=2)
    lq.weights = np.array([0.05, -0.02, 0.03, 0.01, -0.04, 0.02, 0.0])
    hyper = Hyperparameters(alpha=0.1, gamma=0.9)
    state = _state(1, 2)
    action = Action(3)
    next_state = _state(2, 3, {3})

    # Hand evaluation: f1 and f2 both need (2, 2), every machine offers (4, 4).
    phi = [1.0, 0.5, 0.5, 0.5, 0.5, 1.0, 0.0]
    prediction = sum(w * x for w, x in zip(lq.weights, phi))
    # All three next-step actions share the same features, so the bootstrap
    # value is just w . phi2.
    phi2 = [1.0, 0.5, 0.5, 0.5, 0.5, 1.0, 0.5]
    bootstrap = sum(w * x for w, x in zip(lq.weights, phi2))
    reward = 1.5
    td = reward + 0.9 * bootstrap - prediction
    expected = np.array([w + 0.1 * td * x for w, x in zip(lq.weights, phi)])

    observed_td = linear_update(lq, state, action, reward, next_state, hyper)
    assert observed_td == pytest.approx(td, abs=1e-12)
    assert np.allclose(lq.weights, expected, atol=1e-12)


def test_zero_td_error_leaves_weights_alone():
    rng = np.random.default_rng(42)
    scenario = generate(79)
    hyper = Hyperparameters(alpha=0.5, gamma=0.9)
    for _ in range(100):
        lq = LinearQ(scenario)
        lq.weights = rng.normal(size=7)
        state = _state(int(rng.integers(1, 8)), int(rng.integers(1, 101)))
        action = Action(int(rng.integers(1, 101)))
        next_state = _state(
            state.next_component_index + 1, action.target_vm, {action.target_vm}
        )
        reward = float(lq.weights @ lq.feature_vector(state, action)) - hyper.gamma * lq.max_value(
            next_state
        )
        before = lq.weights.copy()
        linear_update(lq, state, action, reward, next_state, hyper)
        assert np.max(np.abs(lq.weights - before)) < 1e-12


def test_weight_step_bounded_by_feature_scale():
    # Features never exceed 2, so one update moves each weight by at most
    # alpha * |td error| * 2.
    rng = np.random.default_rng(43)
    scenario = generate(85)
    hyper = Hyperparameters(alpha=0.1, gamma=0.99)
    lq = LinearQ(scenario)
    for _ in range(300):
        state = _state(int(rng.integers(1, 8)), int(rng.integers(1, 101)))
        action = Action(int(rng.integers(1, 101)))
        next_state = _state(
            state.next_component_index + 1, action.target_vm, {action.target_vm}
        )
        before = lq.weights.copy()
        td = linear_update(lq, state, action, float(rng.uniform(-1, 2)), next_state, hyper)
        assert np.max(np.abs(lq.weights - before)) <= hyper.alpha * abs(td) * 2.0 + 1e-15


def test_divergence_guard_aborts():
    scenario = _uniform_scenario()
    lq = LinearQ(scenario)
    lq.weights[0] = 2 * DIVERGENCE_LIMIT
    hyper = Hyperparameters(alpha=1.0)
    with pytest.raises(DivergenceError, match="updates"):
        linear_update(lq, _state(), Action(1), 1.0, _state(2, 1, {1}), hyper)


def test_divergence_error_survives_pickling():
    # A sweep's worker process hands the error back to its parent pickled.
    error = DivergenceError(np.array([1.0, -2 * DIVERGENCE_LIMIT, 0.5]), 17)
    restored = pickle.loads(pickle.dumps(error))
    assert type(restored) is DivergenceError
    assert restored.weights.tobytes() == error.weights.tobytes()
    assert restored.updates == 17
    assert str(restored) == str(error)


# ---------------------------------------------------------------------------
# episodes and training


def test_episode_log_is_deterministic_without_exploration():
    scenario = tiny_scenario()
    hyper = Hyperparameters(epsilon=0.0, episodes=1)
    logs = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        env = MappingEnvironment(scenario, rng, RewardMode.WASTAGE, num_components=2)
        learner = make_learner(AgentVariant.OFF_POLICY_TABULAR, scenario, num_components=2)
        logs.append(run_episode(env, learner, hyper, rng))
    assert logs[0] == logs[1]


def test_exploratory_count_bounded_by_length():
    scenario = generate(80)
    hyper = Hyperparameters(episodes=50)
    record, _ = train(AgentVariant.OFF_POLICY_TABULAR, scenario, hyper, seed=2)
    for log in record.episodes:
        assert 0 <= log.exploratory_actions <= log.length
        assert 1 <= log.length <= 8


def test_train_refuses_fewer_episodes_than_a_summary_needs(monkeypatch):
    scenario = generate(80, GenerationParams(num_vms=20))
    floor = 2 * metrics.CONVERGENCE_WINDOW
    record, _ = train(AgentVariant.OFF_POLICY_TABULAR, scenario, Hyperparameters(episodes=floor), 0)
    assert metrics.summarize(record)["episodes"] == floor
    monkeypatch.setattr(agents, "_run_episodes", pytest.fail)
    with pytest.raises(ValueError, match=f"need at least {floor} episodes, got {floor - 1}"):
        train(AgentVariant.OFF_POLICY_TABULAR, scenario, Hyperparameters(episodes=floor - 1), 0)


# One 20-machine scenario: small enough that Q rows are revisited often, so the
# running argmax meets ties and decreases of its greedy entry.
_KERNEL_SCENARIO = generate(81, GenerationParams(num_vms=20))
# The same inventory with every third machine already hosting a component.
_HOSTED_KERNEL_SCENARIO = _hosting(_KERNEL_SCENARIO, set(range(3, 21, 3)))


def _kernel_cases():
    scenarios = {"available": _KERNEL_SCENARIO, "some-hosted": _HOSTED_KERNEL_SCENARIO}
    grid = itertools.product(
        AgentVariant, RewardMode, AlphaSchedule, (0.0, 0.1, 1.0), (2, 8), scenarios
    )
    for variant, reward_mode, schedule, epsilon, k, inventory in grid:
        case_id = f"{variant.value}-{reward_mode.value}-{schedule.value}-eps{epsilon}-k{k}"
        case_id += "-some-hosted" if inventory == "some-hosted" else ""
        yield pytest.param(
            variant, reward_mode, schedule, epsilon, k, scenarios[inventory], id=case_id
        )


def _estimate_bytes(learner):
    """The bytes of a learner's value estimate and its visit or update counts."""
    q = learner.q
    if learner.variant.tabular:
        return q.values.tobytes(), q.visits.tobytes()
    return q.weights.tobytes(), q.updates


@pytest.mark.parametrize("variant,reward_mode,schedule,epsilon,k,scenario", _kernel_cases())
def test_kernel_matches_step_by_step_reference(variant, reward_mode, schedule, epsilon, k, scenario):
    hyper = Hyperparameters(
        epsilon=epsilon, episodes=150, reward_mode=reward_mode, alpha_schedule=schedule
    )
    record, learner = train(variant, scenario, hyper, seed=4, num_components=k)
    logs, reference = reference_train(variant, scenario, hyper, seed=4, num_components=k)
    assert list(record.episodes) == logs
    assert _estimate_bytes(learner) == _estimate_bytes(reference)


@pytest.mark.parametrize(
    "variant", [AgentVariant.ON_POLICY_LINEAR, AgentVariant.OFF_POLICY_LINEAR], ids=lambda v: v.value
)
def test_kernel_diverges_like_reference(variant):
    hyper = Hyperparameters(alpha=1.0, epsilon=0.0, episodes=100)
    with pytest.raises(DivergenceError) as kernel:
        train(variant, _KERNEL_SCENARIO, hyper, seed=0)
    with pytest.raises(DivergenceError) as reference:
        reference_train(variant, _KERNEL_SCENARIO, hyper, seed=0)
    assert kernel.value.updates == reference.value.updates
    assert kernel.value.weights.tobytes() == reference.value.weights.tobytes()


@pytest.mark.parametrize("schedule", list(AlphaSchedule), ids=lambda s: s.value)
@pytest.mark.parametrize("variant", list(AgentVariant), ids=lambda v: v.value)
def test_run_episode_with_its_own_generators_matches_reference(variant, schedule):
    # The anchors come from the environment's generator, the actions from the
    # one passed in; the kernel must not mix the two streams.
    hyper = Hyperparameters(epsilon=0.3, episodes=1, alpha_schedule=schedule)
    runs = []
    for play in (run_episode, reference_episode):
        env = MappingEnvironment(_KERNEL_SCENARIO, np.random.default_rng(11), hyper.reward_mode)
        learner = make_learner(variant, _KERNEL_SCENARIO)
        actions = np.random.default_rng(12)
        logs = [play(env, learner, hyper, actions, episode) for episode in range(1, 81)]
        runs.append((logs, _estimate_bytes(learner)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("variant", list(AgentVariant), ids=lambda v: v.value)
def test_train_equals_a_loop_of_run_episode(variant):
    hyper = Hyperparameters(episodes=120)
    record, learner = train(variant, _KERNEL_SCENARIO, hyper, seed=7)
    rng = np.random.default_rng(7)
    env = MappingEnvironment(_KERNEL_SCENARIO, rng, hyper.reward_mode)
    looped = make_learner(variant, _KERNEL_SCENARIO)
    logs = [run_episode(env, looped, hyper, rng, e) for e in range(1, hyper.episodes + 1)]
    assert record.episodes == tuple(logs)
    assert _estimate_bytes(learner) == _estimate_bytes(looped)


@pytest.mark.parametrize(
    "weights,diverged",
    [
        ([math.nan], True),
        ([math.nan, 2e9], True),
        ([2e9, math.nan], True),
        ([math.inf], True),
        ([-math.inf], True),
        ([DIVERGENCE_LIMIT], False),
        ([-DIVERGENCE_LIMIT], False),
        ([math.nextafter(DIVERGENCE_LIMIT, math.inf)], True),
        ([-2e9, 0.5], True),
        ([], False),
    ],
    ids=[
        "nan-first", "nan-next-to-2e9", "2e9-next-to-nan", "inf", "minus-inf",
        "exactly-the-limit", "minus-the-limit", "just-above-the-limit", "minus-2e9", "all-zero",
    ],
)
def test_divergence_check_agrees_with_numpy(weights, diverged):
    w = np.zeros(7)
    w[: len(weights)] = weights
    # Every weight within the limit, or diverged: a NaN counts.
    assert (not (np.abs(w) <= DIVERGENCE_LIMIT).all()) is diverged
    assert agents._diverged(w) is diverged


def _mixed_magnitudes(rng, shape):
    """Normal draws scaled by powers of ten from 1e-8 to 1e8, with some exact zeros."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    values[rng.random(shape) < 0.1] = 0.0
    return values


def _feature_like(rng, m):
    """An (m, 7) block shaped like ``LinearQ``'s: a bias of 1, then entries in
    [0, 2] with some exact (positive) zeros and ones."""
    values = rng.uniform(0.0, 2.0, (m, FEATURE_DIM))
    values[rng.random((m, FEATURE_DIM)) < 0.2] = 0.0
    values[rng.random((m, FEATURE_DIM)) < 0.1] = 1.0
    values[:, 0] = 1.0
    return values


def _linear_kernel_weights(rng):
    """Weight vectors for the kernel's matvec: mixed magnitudes, each alone
    and with a NaN, an infinity of either sign or a negative zero in place."""
    for special in (None, math.nan, math.inf, -math.inf, -0.0):
        for _ in range(4):
            w = _mixed_magnitudes(rng, FEATURE_DIM)
            if special is not None:
                w[rng.integers(FEATURE_DIM)] = special
            yield w


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("m", [1, 2, 8, 100, 1000])
def test_linear_kernel_calls_equal_the_reference_operators(m):
    # The kernel computes ``blocks[i] @ w`` and ``w @ phi`` through
    # ``ndarray.dot`` and reads the bootstrap max at the argmax; the
    # step-by-step reference keeps ``@`` and ``max``.
    rng = np.random.default_rng(m)
    scores = np.empty(m)
    for blocks in (_mixed_magnitudes(rng, (m, FEATURE_DIM)), _feature_like(rng, m)):
        blocks.flags.writeable = False
        # An infinity times a zero entry is NaN; that is a case, not a fault.
        with np.errstate(invalid="ignore", over="ignore"):
            for w in _linear_kernel_weights(rng):
                expected = blocks @ w
                assert blocks.dot(w, out=scores) is scores
                assert scores.tobytes() == expected.tobytes(), "ndarray.dot(out=) differs from @"
                for phi in blocks:
                    assert _bits(w.dot(phi)) == _bits(w @ phi), "ndarray.dot differs from @"
                at_argmax, maximum = scores.item(scores.argmax()), float(expected.max())
                if math.isnan(maximum):
                    # numpy's max may return another NaN than the first, whose
                    # sign can differ; the kernel reads max itself then.
                    assert math.isnan(at_argmax)
                else:
                    assert _bits(at_argmax) == _bits(maximum), "max differs at the argmax"


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, -0.0])
def test_kernel_matches_reference_from_special_weights(special):
    # Training starts from zero weights and stops at a weight beyond 1e9, so
    # no score it reads is NaN; a caller's weights can make them, and the
    # bootstrap must still be the reference's max bit for bit.
    rng = np.random.default_rng(17)
    hyper = Hyperparameters(epsilon=1.0)
    for trial in range(20):
        weights = rng.standard_normal(FEATURE_DIM)
        weights[rng.integers(FEATURE_DIM)] = special
        runs = []
        for play in (run_episode, reference_episode):
            env = MappingEnvironment(_KERNEL_SCENARIO, np.random.default_rng(trial), hyper.reward_mode)
            learner = make_learner(AgentVariant.OFF_POLICY_LINEAR, _KERNEL_SCENARIO)
            learner.q.weights[:] = weights
            actions = np.random.default_rng(trial + 1)
            try:
                with np.errstate(invalid="ignore", over="ignore"):
                    logs = [play(env, learner, hyper, actions, e) for e in range(1, 4)]
                runs.append((logs, _estimate_bytes(learner)))
            except DivergenceError as error:
                runs.append((error.weights.tobytes(), error.updates))
        assert runs[0] == runs[1]


def test_an_infinite_weight_diverges_instead_of_turning_every_weight_nan():
    # The first update adds ``inf * 0``, a NaN, to all seven weights; the run
    # must stop there rather than go on with NaN weights.
    hyper = Hyperparameters(epsilon=1.0)
    for seed in range(40):
        env = MappingEnvironment(_KERNEL_SCENARIO, np.random.default_rng(seed), hyper.reward_mode)
        learner = make_learner(AgentVariant.OFF_POLICY_LINEAR, _KERNEL_SCENARIO)
        learner.q.weights[:] = [0.5, 1, 0, math.inf, 0, 0, 0.5]
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DivergenceError):
            run_episode(env, learner, hyper, np.random.default_rng(seed + 1), 1)


def _linear_play(one_call, variant, weights, hyper, episodes, seed, num_components=None, blocks=None):
    """``episodes`` episodes of a linear learner that starts from ``weights``
    and, when given, reads ``blocks`` as its features, played by one
    ``agents._run_episodes`` call or by as many ``reference_episode`` calls:
    the logs and the weight bytes, or where a ``DivergenceError`` stopped it."""
    rng = np.random.default_rng(seed)
    env = MappingEnvironment(_KERNEL_SCENARIO, rng, hyper.reward_mode, num_components)
    learner = make_learner(variant, _KERNEL_SCENARIO, num_components)
    learner.q.weights[:] = weights
    if blocks is not None:
        learner.q._blocks = blocks
    try:
        if one_call:
            logs = agents._run_episodes(env, learner, hyper, rng, 1, episodes)
        else:
            logs = [reference_episode(env, learner, hyper, rng, e) for e in range(1, episodes + 1)]
    except DivergenceError as error:
        return "diverged", error.updates, error.weights.tobytes()
    return "ran", logs, _estimate_bytes(learner)


@_LINEAR_VARIANTS
def test_kernel_checks_divergence_when_its_bound_crosses_the_limit_then_resets_the_bound(
    variant, monkeypatch
):
    # One component: every step ends its episode, and feature 6, the
    # progress, is 0, so w[6] = 1e9 - 2|r| enters no score and no update.
    # Every feature row is the bias alone but the last machine's, which adds
    # a 4 that no greedy tie reaches, so phi_max is 4. Under alpha 1 the
    # first update moves w[0] from 0 to machine 1's reward r, and every
    # later update by 0.
    hyper = Hyperparameters(alpha=1.0, epsilon=0.0)
    env = MappingEnvironment(_KERNEL_SCENARIO, np.random.default_rng(0), hyper.reward_mode, 1)
    reward = env.reward_table[0][0] if env.fit_mask[0][0] else INFEASIBLE_PENALTY
    assert reward != 0
    blocks = np.zeros((1, _KERNEL_SCENARIO.num_vms, FEATURE_DIM))
    blocks[0, :, 0] = 1.0
    blocks[0, -1, 1] = 4.0
    weights = np.zeros(FEATURE_DIM)
    weights[6] = DIVERGENCE_LIMIT - 2 * abs(reward)
    play = (variant, weights, hyper, 5, 0, 1, blocks)
    reference = _linear_play(False, *play)
    checked = []
    exact = agents._diverged
    monkeypatch.setattr(agents, "_diverged", lambda w: checked.append(w.tolist()) or exact(w))
    assert _linear_play(True, *play) == reference
    assert reference[0] == "ran"
    # After the first update the bound, 1e9 - 2|r| + 4|r|, is past the
    # limit, so the exact check runs and passes. The bound restarts at the
    # exact max |w|, 1e9 - 2|r|, which the later updates leave where it is.
    assert checked == [[reward, 0.0, 0.0, 0.0, 0.0, 0.0, weights[6]]]


@_LINEAR_VARIANTS
@pytest.mark.parametrize("halvings", [1, 20, 52])
def test_kernel_diverges_like_reference_from_weights_near_the_limit(variant, halvings):
    # The largest weight is 1e9 (1 - 2**-halvings): the bound crosses the
    # limit within a few updates, some exact checks pass and reset it, and
    # the run must raise on the reference's update with its weights.
    rng = np.random.default_rng(halvings)
    hyper = Hyperparameters(alpha=1.0, epsilon=0.1)
    for trial in range(3):
        direction = rng.standard_normal(FEATURE_DIM)
        weights = direction / np.abs(direction).max() * (DIVERGENCE_LIMIT * (1 - 2.0**-halvings))
        runs = [_linear_play(one_call, variant, weights, hyper, 20, trial) for one_call in (True, False)]
        assert runs[0] == runs[1]
        assert runs[0][0] == "diverged"


def _one_call_and_reference(
    variant, scenario, hyper, seed, episodes, num_components=None, row=None, table=None
):
    """The logs and learner bytes of ``episodes`` episodes played by one
    ``agents._run_episodes`` call, then by as many ``reference_episode``
    calls, each from a fresh learner whose Q-values, when ``table`` is given,
    are ``table``, and whose first component's Q rows, when ``row`` is
    given, all hold ``row``."""
    runs = []
    for one_call in (True, False):
        rng = np.random.default_rng(seed)
        env = MappingEnvironment(scenario, rng, hyper.reward_mode, num_components)
        learner = make_learner(variant, scenario, num_components)
        if table is not None:
            learner.q.values[...] = table
        if row is not None:
            learner.q.values[0, :, :] = row
        if one_call:
            logs = agents._run_episodes(env, learner, hyper, rng, 1, episodes)
        else:
            logs = [reference_episode(env, learner, hyper, rng, e) for e in range(1, episodes + 1)]
        runs.append((logs, _estimate_bytes(learner)))
    return runs


@_TABULAR_VARIANTS
def test_running_argmax_holds_after_every_episode(variant):
    # The kernel takes its running argmax once per call; every greedy pick and
    # bootstrap of the 200 episodes reads it where the reference scans a row,
    # so one call must equal 200 reference episodes bit for bit.
    for scenario in (generate(50), _KERNEL_SCENARIO):
        kernel, reference = _one_call_and_reference(variant, scenario, Hyperparameters(), 6, 200)
        assert kernel == reference


@pytest.mark.parametrize(
    "row,epsilon",
    [
        # Machine 2 cannot host f1, so playing it sets its entry to the
        # penalty. As the greedy pick, the entry drops to a tie with
        # machine 1, which takes over as the lower id ...
        ([-1.0, 0.5, -2.0], 0.0),
        # ... or to a value below machine 3's.
        ([-2.0, 0.5, 0.0], 0.0),
        # As an exploratory pick, it rises to a tie with the greedy machine 3
        # and takes over as the lower id.
        ([-4.0, -3.0, -1.0], 0.5),
    ],
    ids=["drop-to-tie-with-lower-id", "drop-below-another-action", "rise-to-tie-from-below"],
)
@_TABULAR_VARIANTS
def test_running_argmax_follows_hand_built_updates(variant, row, epsilon):
    # With seed 0 the first episode plays machine 2 and ends on the penalty,
    # and later episodes pick greedily from the updated row: a running argmax
    # that missed the update, or broke the tie toward the higher id, would
    # pick another machine there.
    hyper = Hyperparameters(alpha=1.0, epsilon=epsilon)
    kernel, reference = _one_call_and_reference(
        variant, tiny_scenario(), hyper, 0, 20, num_components=2, row=row
    )
    first = reference[0][0]
    assert (first.length, first.total_reward, first.success) == (1, -1.0, False)
    assert kernel == reference


@_TABULAR_VARIANTS
@pytest.mark.parametrize("schedule", list(AlphaSchedule), ids=lambda s: s.value)
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_carried_greedy_entry_matches_reference_from_tied_tables(variant, schedule, epsilon, k, alpha):
    # The kernel carries the next row's greedy entry and its value from the
    # bootstrap into the next step. Tables of -1, 0 and 0.5 tie in almost
    # every row, so a wrong row or a stale value changes a pick or a
    # bootstrap. On identical machines, which earn equal rewards, a full
    # step raises an entry to an exact tie with its row's greedy one, and
    # a tie broken toward the higher id changes a later pick.
    hyper = Hyperparameters(alpha=alpha, epsilon=epsilon, alpha_schedule=schedule)
    for scenario in (_KERNEL_SCENARIO, _uniform_scenario()):
        shape = (k, scenario.num_vms, scenario.num_vms)
        for seed in range(3):
            table = np.random.default_rng(seed).choice([-1.0, 0.0, 0.5], size=shape)
            kernel, reference = _one_call_and_reference(
                variant, scenario, hyper, seed, 60, num_components=k, table=table
            )
            assert kernel == reference


# ---------------------------------------------------------------------------
# the kernel's random draws


def _numpy_draws(rng, ops, _block):
    """One numpy call per draw: ``random()`` for None, ``integers(1, m + 1) - 1``
    for an int m."""
    return [rng.random() if m is None else int(rng.integers(1, m + 1)) - 1 for m in ops]


def _raw_word_draws(rng, ops, block):
    draws = agents._Draws(rng, block)
    try:
        return [draws.random() if m is None else draws.index(m) for m in ops]
    finally:
        draws.rewind()


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-half"])
# 2**31 + 1 rejects about half of the 32-bit halves; 2**32 takes them as they are.
@pytest.mark.parametrize("m", [1, 2, 100, 20_000, 2**31 + 1, 2**32])
def test_raw_word_reader_equals_numpy(m, buffered):
    # 3000 interleaved draws read over 2000 words (1000 halves for m > 1): a
    # block of 7 words is crossed hundreds of times, the kernel's block twice.
    ops = [None if u < 0.6 else m for u in np.random.default_rng(m % 997).random(3000)]
    for block in (7, agents._BLOCK_WORDS):
        runs = []
        for draw in (_numpy_draws, _raw_word_draws):
            rng = np.random.default_rng(29)
            if buffered:
                rng.integers(0, 2)  # keeps its word's high half for the next bounded draw
                assert rng.bit_generator.state["has_uint32"] == 1
            runs.append((draw(rng, ops, block), rng.bit_generator.state))
        assert runs[0] == runs[1]


def _generators(kind):
    """(environment generator, action generator): one generator, two sharing
    one bit generator, or two apart."""
    if kind == "one":
        rng = np.random.default_rng(3)
        return rng, rng
    if kind == "shared-bit-generator":
        bit_generator = np.random.PCG64(3)
        return np.random.Generator(bit_generator), np.random.Generator(bit_generator)
    return np.random.default_rng(3), np.random.default_rng(4)


def _states(*generators):
    return [rng.bit_generator.state for rng in generators]


@pytest.mark.parametrize("kind", ["one", "shared-bit-generator", "apart"])
@pytest.mark.parametrize("num_vms", [1, 2])
@pytest.mark.parametrize("variant", list(AgentVariant), ids=lambda v: v.value)
def test_kernel_matches_reference_on_one_or_two_machines(variant, num_vms, kind):
    # numpy's integers(1, 2) draws nothing, so one machine's anchor must read
    # no word; two machines take one 32-bit half per anchor.
    hyper = Hyperparameters(epsilon=0.5, episodes=60)
    scenario = _uniform_scenario(num_vms=num_vms)
    runs = []
    for one_call in (True, False):
        env_rng, actions = _generators(kind)
        env = MappingEnvironment(scenario, env_rng, hyper.reward_mode)
        learner = make_learner(variant, scenario)
        if one_call:
            logs = agents._run_episodes(env, learner, hyper, actions, 1, hyper.episodes)
        else:
            logs = [
                reference_episode(env, learner, hyper, actions, e)
                for e in range(1, hyper.episodes + 1)
            ]
        runs.append((logs, _estimate_bytes(learner), _states(env_rng, actions)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["one", "shared-bit-generator", "apart"])
@pytest.mark.parametrize("variant", list(AgentVariant), ids=lambda v: v.value)
def test_run_episode_leaves_the_generators_where_the_reference_does(variant, kind):
    hyper = Hyperparameters(epsilon=0.3, episodes=1)
    runs = []
    for play in (run_episode, reference_episode):
        env_rng, actions = _generators(kind)
        env = MappingEnvironment(_KERNEL_SCENARIO, env_rng, hyper.reward_mode)
        learner = make_learner(variant, _KERNEL_SCENARIO)
        runs.append(
            [(play(env, learner, hyper, actions, e), _states(env_rng, actions)) for e in range(1, 41)]
        )
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["one", "apart"])
@pytest.mark.parametrize(
    "variant", [AgentVariant.ON_POLICY_LINEAR, AgentVariant.OFF_POLICY_LINEAR], ids=lambda v: v.value
)
def test_generators_after_a_divergence_are_the_references(variant, kind):
    # The error leaves the kernel mid-episode; its generators must still end
    # where the draws it made leave numpy's.
    hyper = Hyperparameters(alpha=1.0, epsilon=0.0, episodes=100)
    runs = []
    for one_call in (True, False):
        env_rng, actions = _generators(kind)
        env = MappingEnvironment(_KERNEL_SCENARIO, env_rng, hyper.reward_mode)
        learner = make_learner(variant, _KERNEL_SCENARIO)
        with pytest.raises(DivergenceError) as error:
            if one_call:
                agents._run_episodes(env, learner, hyper, actions, 1, hyper.episodes)
            else:
                for e in range(1, hyper.episodes + 1):
                    reference_episode(env, learner, hyper, actions, e)
        runs.append((error.value.updates, error.value.weights.tobytes(), _states(env_rng, actions)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("refused", ["actions", "anchors"])
@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox], ids=lambda b: b.__name__)
def test_kernel_refuses_a_generator_other_than_pcg64(bit_generator, refused):
    # The kernel reads numpy's draws from PCG64's raw words, which another bit
    # generator would turn into other values; it refuses before any draw or write.
    hyper = Hyperparameters(epsilon=0.5)
    for variant in AgentVariant:
        other, pcg = np.random.Generator(bit_generator(5)), np.random.default_rng(5)
        env_rng, actions = (pcg, other) if refused == "actions" else (other, pcg)
        env = MappingEnvironment(_KERNEL_SCENARIO, env_rng, hyper.reward_mode)
        learner = make_learner(variant, _KERNEL_SCENARIO)
        with pytest.raises(TypeError, match=f"reads PCG64 words.*got {bit_generator.__name__}$"):
            run_episode(env, learner, hyper, actions)
        assert _estimate_bytes(learner) == _estimate_bytes(make_learner(variant, _KERNEL_SCENARIO))
        assert pcg.bit_generator.state == np.random.default_rng(5).bit_generator.state
        assert other.random(4).tolist() == np.random.Generator(bit_generator(5)).random(4).tolist()


def _unwritable_snapshots(scenario):
    """(case, snapshot, its estimate array, the array's name in the refusal)
    of policy snapshots whose estimate the kernel cannot write in place."""
    k, m = len(scenario.subnet.components), scenario.num_vms
    values = np.random.default_rng(9).standard_normal((k, m, m))
    read_only = values.copy()
    read_only.flags.writeable = False
    tables = {
        "read-only": read_only,
        "non-contiguous": np.repeat(values, 2, axis=-1)[..., ::2],
        "float32": values.astype(np.float32),
    }
    for case, table in tables.items():
        yield case, agents.PolicySnapshot("tabular", k, m, values=table), table, "Q-table"
    weights = np.linspace(-1.0, 1.0, FEATURE_DIM)
    weights.flags.writeable = False
    yield "read-only weights", agents.PolicySnapshot("linear", k, m, weights=weights), weights, "weights"


@pytest.mark.parametrize("kind", ["one", "apart"])
def test_kernel_refuses_an_estimate_it_cannot_write_in_place(kind):
    # A policy file's snapshot shares its read-only arrays with the estimator
    # it builds; the kernel refuses such an estimate before any draw or write.
    hyper = Hyperparameters(epsilon=0.5)
    for case, snapshot, array, name in _unwritable_snapshots(_KERNEL_SCENARIO):
        tabular = snapshot.kind == "tabular"
        variant = AgentVariant.OFF_POLICY_TABULAR if tabular else AgentVariant.OFF_POLICY_LINEAR
        learner = agents.Learner(variant, snapshot.estimator_for(_KERNEL_SCENARIO))
        before = array.tobytes()
        env_rng, actions = _generators(kind)
        states = _states(env_rng, actions)
        env = MappingEnvironment(_KERNEL_SCENARIO, env_rng, hyper.reward_mode)
        refusal = f"writes the {name} in place, so it must be a writable, C-contiguous float64 array$"
        with pytest.raises(ValueError, match=f"^the training kernel {refusal}"):
            agents._run_episodes(env, learner, hyper, actions, 1, 5)
        assert array.tobytes() == before, case
        assert _states(env_rng, actions) == states, case


def _unwritable_visit_tables(scenario):
    """(case, Q-table) of writable Q-tables whose visit counts the kernel
    cannot write in place: none at all, as over given values, read-only,
    strided and int32."""
    k, m = len(scenario.subnet.components), scenario.num_vms
    values = np.random.default_rng(9).standard_normal((k, m, m))
    yield "given values", QTable(k, m, values.copy())
    visits = np.random.default_rng(10).integers(0, 50, (k, m, m))
    read_only = visits.copy()
    read_only.flags.writeable = False
    tables = {
        "read-only": read_only,
        "non-contiguous": np.repeat(visits, 2, axis=-1)[..., ::2],
        "int32": visits.astype(np.int32),
    }
    for case, table in tables.items():
        q = QTable(k, m)
        q.values[...] = values
        q.visits = table
        yield case, q


def _table_bytes(q):
    return q.values.tobytes(), None if q.visits is None else q.visits.tobytes()


@pytest.mark.parametrize("kind", ["one", "apart"])
def test_kernel_refuses_a_visit_table_it_cannot_write_in_place(kind):
    # The harmonic step size reads and writes the visit counts, so they pass
    # the same check as the Q-table, before any draw or write.
    hyper = Hyperparameters(epsilon=0.5, alpha_schedule=AlphaSchedule.HARMONIC)
    for case, q in _unwritable_visit_tables(_KERNEL_SCENARIO):
        learner = agents.Learner(AgentVariant.OFF_POLICY_TABULAR, q)
        before = _table_bytes(q)
        env_rng, actions = _generators(kind)
        states = _states(env_rng, actions)
        env = MappingEnvironment(_KERNEL_SCENARIO, env_rng, hyper.reward_mode)
        refusal = "writes the visit-count table in place, so it must be a writable, C-contiguous int64 array$"
        with pytest.raises(ValueError, match=f"^the training kernel {refusal}"):
            agents._run_episodes(env, learner, hyper, actions, 1, 5)
        assert _table_bytes(q) == before, case
        assert _states(env_rng, actions) == states, case


@_TABULAR_VARIANTS
def test_table_over_given_values_trains_like_reference_under_a_fixed_step_size(variant):
    # A fixed step size reads no visit counts, so a table that keeps none trains.
    k, m = len(_KERNEL_SCENARIO.subnet.components), _KERNEL_SCENARIO.num_vms
    values = np.random.default_rng(9).standard_normal((k, m, m))
    hyper = Hyperparameters(epsilon=0.3)
    runs = []
    for one_call in (True, False):
        rng = np.random.default_rng(2)
        env = MappingEnvironment(_KERNEL_SCENARIO, rng, hyper.reward_mode)
        learner = agents.Learner(variant, QTable(k, m, values.copy()))
        if one_call:
            logs = agents._run_episodes(env, learner, hyper, rng, 1, 60)
        else:
            logs = [reference_episode(env, learner, hyper, rng, e) for e in range(1, 61)]
        runs.append((logs, _table_bytes(learner.q), rng.bit_generator.state))
    assert runs[0] == runs[1]
    assert runs[0][1][0] != values.tobytes()
    assert runs[0][1][1] is None


def test_paired_variants_coincide_with_shared_seed():
    scenario = generate(81)
    hyper = Hyperparameters(episodes=120)
    on_tab, tab_learner = train(AgentVariant.ON_POLICY_TABULAR, scenario, hyper, seed=5)
    off_tab, off_learner = train(AgentVariant.OFF_POLICY_TABULAR, scenario, hyper, seed=5)
    assert on_tab.episodes == off_tab.episodes
    assert np.array_equal(tab_learner.q.values, off_learner.q.values)
    on_lin, _ = train(AgentVariant.ON_POLICY_LINEAR, scenario, hyper, seed=5)
    off_lin, _ = train(AgentVariant.OFF_POLICY_LINEAR, scenario, hyper, seed=5)
    assert on_lin.episodes == off_lin.episodes


def test_paired_tabular_identical_without_exploration():
    scenario = tiny_scenario()
    hyper = Hyperparameters(epsilon=0.0, episodes=300)
    tables = []
    for variant in (AgentVariant.ON_POLICY_TABULAR, AgentVariant.OFF_POLICY_TABULAR):
        _, learner = train(variant, scenario, hyper, seed=9, num_components=2)
        tables.append(learner.q.values.copy())
    assert np.array_equal(tables[0], tables[1])


def test_small_mdp_converges_to_backward_induction():
    scenario = tiny_scenario()
    hyper = Hyperparameters(
        alpha=1.0,
        gamma=0.99,
        epsilon=0.2,
        episodes=5000,
        reward_mode=RewardMode.EFFICIENCY,
        alpha_schedule=AlphaSchedule.HARMONIC,
    )
    record, learner = train(
        AgentVariant.OFF_POLICY_TABULAR, scenario, hyper, seed=0, num_components=2
    )
    reference = two_step_q_star(scenario, gamma=0.99, mode=RewardMode.EFFICIENCY)
    worst = max(
        abs(learner.q.values[idx - 1, anchor - 1, target - 1] - expected)
        for (idx, anchor, target), expected in reference.items()
    )
    assert worst < 1e-6

    env = MappingEnvironment(
        scenario, np.random.default_rng(0), RewardMode.EFFICIENCY, num_components=2
    )
    rollout = greedy_rollout(learner.q, env, start_anchor=2)
    oracle = solve_exact_enumeration(
        AssignmentProblem(scenario.subnet.components[:2], scenario.vms)
    )
    assert rollout == oracle.pairs


def test_policy_snapshot_roundtrip(tmp_path):
    scenario = generate(83)
    hyper = Hyperparameters(episodes=60)
    for variant in (AgentVariant.OFF_POLICY_TABULAR, AgentVariant.OFF_POLICY_LINEAR):
        record, learner = train(variant, scenario, hyper, seed=3)
        path = tmp_path / f"{variant.value}.json"
        save_policy(learner, path)
        snapshot = load_policy(path)
        estimator = snapshot.estimator_for(scenario)
        env = MappingEnvironment(scenario, np.random.default_rng(0))
        assert greedy_rollout(estimator, env) == greedy_rollout(learner.q, env)


def test_snapshot_rejects_wrong_inventory_size(tmp_path):
    scenario = generate(84)
    _, learner = train(AgentVariant.OFF_POLICY_TABULAR, scenario, Hyperparameters(episodes=20), 0)
    path = tmp_path / "model.json"
    save_policy(learner, path)
    snapshot = load_policy(path)
    smaller = generate(84, type(scenario.params)(num_vms=20))
    with pytest.raises(ValueError, match="vms"):
        snapshot.estimator_for(smaller)


def test_unchanged_policy_file_is_parsed_once(tmp_path, monkeypatch):
    scenario = generate(85)
    paths = []
    for variant in (AgentVariant.OFF_POLICY_LINEAR, AgentVariant.ON_POLICY_LINEAR):
        _, learner = train(variant, scenario, Hyperparameters(episodes=20), 0)
        paths.append(tmp_path / f"{variant.value}.json")
        save_policy(learner, paths[-1])
    parsed = []
    decode = agents.decode_document
    monkeypatch.setattr(agents, "decode_document", lambda data: parsed.append(data) or decode(data))
    monkeypatch.setattr(agents, "_last_policy", (None, None))
    first, second = load_policy(paths[0]), load_policy(paths[0])
    assert second is first
    assert len(parsed) == 1
    # Another file's bytes are parsed, and so are the first file's again after them.
    other = load_policy(paths[1])
    assert other is not first and load_policy(paths[1]) is other
    again = load_policy(paths[0])
    assert again is not first
    assert parsed == [paths[0].read_bytes(), paths[1].read_bytes(), paths[0].read_bytes()]
    # A file that fails to parse is parsed on every call and replaces nothing.
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    for _ in range(2):
        with pytest.raises(ScenarioFormatError):
            load_policy(broken)
    assert load_policy(paths[0]) is again
    assert parsed[3:] == [b"{", b"{"]


def test_threads_loading_two_policy_files_each_get_their_own(tmp_path):
    # The decision service's handler threads share the last parsed file; a
    # thread must never return the snapshot of a file another thread read.
    scenario = generate(85)
    paths = {}
    for value in (1.0, 2.0):
        learner = make_learner(AgentVariant.OFF_POLICY_LINEAR, scenario)
        learner.q.weights[:] = value
        paths[value] = tmp_path / f"{value}.json"
        save_policy(learner, paths[value])
    wrong = []

    def load(first):
        for k in range(300):
            value = (1.0, 2.0)[(first + k) % 2]
            weights = load_policy(paths[value]).weights
            if weights[0] != value:
                wrong.append((value, weights[0]))

    threads = [threading.Thread(target=load, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_loaded_policy_arrays_are_read_only(tmp_path):
    scenario = generate(86)
    for variant, name in (
        (AgentVariant.OFF_POLICY_TABULAR, "values"),
        (AgentVariant.ON_POLICY_LINEAR, "weights"),
    ):
        _, learner = train(variant, scenario, Hyperparameters(episodes=20), 0)
        path = tmp_path / f"{variant.value}.json"
        save_policy(learner, path)
        array = getattr(load_policy(path), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def _beyond_int64(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and not -(2**63) <= v < 2**63


def _as_floats(value):
    """``value`` with each int beyond int64 written as the float it rounds to,
    or as an infinity where ``float()`` overflows."""
    if isinstance(value, list):
        return [_as_floats(v) for v in value]
    if _beyond_int64(value):
        if abs(value) < 2**1024 - 2**970:
            return float(value)
        return math.inf if value > 0 else -math.inf
    return value


def _leaves(value):
    """The entries of ``value`` that are not lists, at any depth."""
    if isinstance(value, list):
        for entry in value:
            yield from _leaves(entry)
    else:
        yield value


def _is_regular(value, shape) -> bool:
    if not shape:
        return not isinstance(value, list)
    return (
        isinstance(value, list)
        and len(value) == shape[0]
        and all(_is_regular(v, shape[1:]) for v in value)
    )


def _fault_kinds(value, shape) -> set[str]:
    """Which faults ``value`` holds: a nesting other than a regular one of
    ``shape``, a leaf that is not a number, a number beyond the finite floats."""
    kinds = set() if _is_regular(value, shape) else {"shape"}
    for v in _leaves(value):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            kinds.add("type")
        elif not -math.inf < _as_floats(v) < math.inf:
            kinds.add("finite")
    return kinds


def _array_outcome(reader, value, shape):
    """The array ``reader`` returns, as its shape and bytes, or its refusal."""
    try:
        array = reader({"weights": value}, "weights", shape)
    except ScenarioFormatError as exc:
        return exc.field, exc.detail
    assert array.dtype == np.float64 and not array.flags.writeable
    return array.shape, array.tobytes()


_MODEL_LEAVES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers()
    | st.integers(-(2**1100), 2**1100)
    | st.sampled_from([2**63, 2**64, -(2**63) - 1, 2**1023, 2**1024 - 2**970, -(2**1024)])
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.floats()
    | st.booleans()
    | st.none()
    | st.text(max_size=2)
)


@st.composite
def _model_arrays(draw):
    """A shape and a nesting of leaves near it: regular, off by an entry at
    some level, or any nesting of lists."""
    shape = draw(st.sampled_from([(3,), (2, 2), (2, 1, 3)]))
    slack = draw(st.integers(0, 1))

    def nested(dims):
        if not dims:
            return _MODEL_LEAVES
        return st.lists(nested(dims[1:]), min_size=dims[0] - slack, max_size=dims[0] + slack)

    anything = st.recursive(_MODEL_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
    return shape, draw(nested(shape) | anything)


@settings(derandomize=True, database=None, max_examples=1000)
@given(_model_arrays())
@example(((2, 2), [[0, 0], [0]]))
@example(((2, 2), [[0, 0], [0, [0]]]))
@example(((2, 2), [[0, "0.5"], [0, 0]]))
@example(((2, 2), [[0, None], [0, 0]]))
@example(((2, 2), [[0, {}], [0, 0]]))
@example(((2, 2), [[0, True], [0, 0.5]]))
@example(((2, 2), [[0, 0, 0], [0, 0, 0]]))
@example(((2, 2), [[0, math.nan], [0, 0]]))
@example(((2, 2), [[0, -math.inf], [0, 0]]))
@example(((3,), 0))
@example(((3,), [2**63, -1, 0.5]))
@example(((3,), [2**64, 0, 0]))
@example(((3,), [-(2**63) - 1, 0, 0]))
@example(((3,), [2**1023, 0, 0]))
@example(((3,), [2**1024, 0, 0]))
def test_model_arrays_read_like_the_dtype_reader_on_ints_written_as_floats(case):
    shape, value = case
    got = _array_outcome(agents._checked_array, value, shape)
    as_written = _array_outcome(reference_checked_array, value, shape)
    if len(_fault_kinds(value, shape)) > 1:
        # Each reader refuses, naming whichever fault it checks first.
        assert got[0] == as_written[0] == "weights", (got, as_written)
        return
    assert got == _array_outcome(reference_checked_array, _as_floats(value), shape)
    # So the readers part only on an int beyond int64, which the dtype reader
    # refuses when numpy finds no integer dtype for it and its neighbours.
    if got != as_written:
        assert as_written == ("weights", "must be an array of numbers"), as_written
        assert any(map(_beyond_int64, _leaves(value))), value
