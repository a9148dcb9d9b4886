import itertools
import math
import pickle
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    features,
    reference_episode,
    reference_train,
    tiny_scenario,
    two_step_q_star,
)
from vnfcmap import agents, metrics
from vnfcmap.agents import (
    DIVERGENCE_LIMIT,
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
    Action,
    AlphaSchedule,
    Hyperparameters,
    MappingEnvironment,
    MappingEpisodeState,
    RewardMode,
)
from vnfcmap.model import VirtualMachine, VmLabel, classify_vms, make_slice, resource_grid
from vnfcmap.oracle import AssignmentProblem, solve_exact_enumeration
from vnfcmap.scenario import GenerationParams, Scenario, generate


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


@pytest.mark.parametrize(
    "variant", [AgentVariant.ON_POLICY_TABULAR, AgentVariant.OFF_POLICY_TABULAR], ids=lambda v: v.value
)
def test_greedy_rollouts_place_nothing_on_a_hosted_machine(variant):
    # The linear replays end infeasibly on this inventory with or without
    # hosted machines, so they would check nothing here.
    hosted = set(range(2, 41, 2))
    scenario = _hosting(generate(1, GenerationParams(num_vms=40)), hosted)
    _, learner = train(variant, scenario, Hyperparameters(episodes=500), seed=0)
    env = MappingEnvironment(scenario, np.random.default_rng(0))
    rollouts = [greedy_rollout(learner.q, env, anchor) for anchor in range(1, 41)]
    placed = [set(pairs.values()) for pairs in rollouts if pairs is not None]
    assert placed and not any(machines & hosted for machines in placed)


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
        ([math.nan], False),
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
    assert bool((np.abs(w) > DIVERGENCE_LIMIT).any()) is diverged
    assert agents._diverged(w) is diverged


_TABULAR_VARIANTS = pytest.mark.parametrize(
    "variant", [AgentVariant.ON_POLICY_TABULAR, AgentVariant.OFF_POLICY_TABULAR], ids=lambda v: v.value
)


def _one_call_and_reference(variant, scenario, hyper, seed, episodes, num_components=None, row=None):
    """The logs and learner bytes of ``episodes`` episodes played by one
    ``agents._run_episodes`` call, then by as many ``reference_episode``
    calls, each from a fresh learner whose first component's Q rows, when
    ``row`` is given, all hold ``row``."""
    runs = []
    for one_call in (True, False):
        rng = np.random.default_rng(seed)
        env = MappingEnvironment(scenario, rng, hyper.reward_mode, num_components)
        learner = make_learner(variant, scenario, num_components)
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


def test_unchanged_policy_file_is_parsed_once(tmp_path):
    scenario = generate(85)
    _, learner = train(AgentVariant.OFF_POLICY_LINEAR, scenario, Hyperparameters(episodes=20), 0)
    path = tmp_path / "model.json"
    save_policy(learner, path)
    agents._policy_from_bytes.cache_clear()
    first, second = load_policy(path), load_policy(path)
    assert second is first
    info = agents._policy_from_bytes.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
