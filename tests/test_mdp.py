import numpy as np
import pytest

from vnfcmap.mdp import (
    INFEASIBLE_PENALTY,
    Action,
    Hyperparameters,
    MappingEnvironment,
    MappingEpisodeState,
    RewardMode,
    constant_reward_return,
    delayed_constant_return,
    discounted_return,
    step_reward,
)
from vnfcmap.model import VirtualMachine, make_slice
from vnfcmap.scenario import Scenario, generate


def _flat_scenario(num_vms=4, cap=8):
    subnet = make_slice([2, 2, 2, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1])
    vms = tuple(VirtualMachine(id=j + 1, compute_cap=cap, storage_cap=cap) for j in range(num_vms))
    return Scenario(subnet=subnet, vms=vms)


def _env(scenario=None, seed=0, mode=RewardMode.WASTAGE, k=None):
    scenario = scenario or _flat_scenario()
    return MappingEnvironment(scenario, np.random.default_rng(seed), mode, k)


def test_step_reward_substitution():
    assert step_reward(4, 2, 8, 4) == pytest.approx(1.0)
    assert step_reward(3, 3, 3, 3) == 0.0
    assert step_reward(1, 1, 4, 4, RewardMode.EFFICIENCY) == pytest.approx(0.5)


def test_reward_modes_are_complementary():
    # The two modes split the constant 2 between idle and used fractions.
    rng = np.random.default_rng(3)
    for _ in range(1000):
        req = rng.integers(1, 6, size=2)
        cap = rng.integers(np.maximum(req, 1), 11)
        idle = step_reward(req[0], req[1], cap[0], cap[1], RewardMode.WASTAGE)
        used = step_reward(req[0], req[1], cap[0], cap[1], RewardMode.EFFICIENCY)
        assert abs(idle + used - 2.0) <= 1e-12


def test_reset_is_deterministic_per_seed():
    first = _env(seed=11).reset()
    second = _env(seed=11).reset()
    assert first == second
    assert first.next_component_index == 1
    assert first.occupied == frozenset()
    assert not first.terminal


def test_reset_single_machine_is_forced():
    scenario = Scenario(subnet=_flat_scenario().subnet, vms=(VirtualMachine(1, 9, 9),))
    assert _env(scenario).reset().anchor_vm == 1


def test_reset_anchor_stays_in_range():
    env = _env(seed=5)
    anchors = {env.reset().anchor_vm for _ in range(200)}
    assert anchors <= set(range(1, env.num_vms + 1))
    assert len(anchors) > 1


def test_feasible_step_advances_and_occupies():
    env = _env()
    state = env.reset()
    outcome = env.step(state, Action(2))
    assert outcome.feasible and not outcome.next_state.terminal
    assert outcome.reward == step_reward(2, 2, 8, 8)
    assert outcome.next_state.next_component_index == 2
    assert outcome.next_state.anchor_vm == 2
    assert outcome.next_state.occupied == frozenset({2})


def test_env_reward_equals_step_reward_exactly():
    scenario = generate(5)
    for mode in RewardMode:
        env = _env(scenario, mode=mode)
        for comp in scenario.subnet.components:
            state = MappingEpisodeState(comp.id, 1, frozenset())
            for vm in scenario.vms:
                if not vm.fits(comp):
                    continue
                expected = step_reward(
                    comp.compute_req, comp.storage_req, vm.compute_cap, vm.storage_cap, mode
                )
                assert env.step(state, Action(vm.id)).reward == expected


def test_perfect_fit_pays_zero():
    scenario = Scenario(
        subnet=_flat_scenario().subnet,
        vms=(VirtualMachine(1, 2, 2), VirtualMachine(2, 9, 9)),
    )
    env = _env(scenario)
    outcome = env.step(env.reset(), Action(1))
    assert outcome.reward == 0.0 and outcome.feasible


def test_occupied_target_pays_penalty_and_terminates():
    env = _env()
    state = env.reset()
    state = env.step(state, Action(1)).next_state
    outcome = env.step(state, Action(1))
    assert outcome.reward == INFEASIBLE_PENALTY
    assert outcome.next_state.terminal and not outcome.feasible
    assert outcome.next_state.occupied == state.occupied


def test_insufficient_target_pays_penalty():
    scenario = Scenario(
        subnet=_flat_scenario().subnet,
        vms=(VirtualMachine(1, 1, 1), VirtualMachine(2, 9, 9)),
    )
    env = _env(scenario)
    outcome = env.step(env.reset(), Action(1))  # f1 needs (2, 2)
    assert outcome.reward == INFEASIBLE_PENALTY and outcome.next_state.terminal


def test_episode_completes_after_all_components():
    env = _env(_flat_scenario(num_vms=10))
    state = env.reset()
    rewards = []
    for j in range(1, 9):
        outcome = env.step(state, Action(j))
        rewards.append(outcome.reward)
        state = outcome.next_state
    assert state.terminal and len(state.occupied) == 8
    assert all(r >= 0 for r in rewards)
    assert all(0 <= r < 2 for r in rewards)


def test_component_limit_restricts_episode():
    env = _env(k=2)
    state = env.reset()
    state = env.step(state, Action(1)).next_state
    outcome = env.step(state, Action(2))
    assert outcome.next_state.terminal and outcome.feasible


def test_step_rejects_terminal_state_and_bad_action():
    env = _env()
    state = env.reset()
    dead = env.step(state, Action(1))
    dead = env.step(dead.next_state, Action(1)).next_state
    with pytest.raises(ValueError, match="terminal"):
        env.step(dead, Action(2))
    with pytest.raises(ValueError, match="outside"):
        env.step(state, Action(99))


def test_step_is_pure():
    env = _env(generate(3))
    state = env.reset()
    a = env.step(state, Action(5))
    b = env.step(state, Action(5))
    assert a == b


def test_injectivity_along_feasible_episodes():
    env = _env(generate(9), seed=4)
    rng = np.random.default_rng(8)
    for _ in range(30):
        state = env.reset()
        while not state.terminal:
            action = Action(int(rng.integers(1, env.num_vms + 1)))
            outcome = env.step(state, action)
            next_state = outcome.next_state
            if not next_state.terminal:
                assert len(next_state.occupied) == next_state.next_component_index - 1
            state = next_state


def test_discounted_return_examples():
    assert discounted_return([1, 2], 0.9) == pytest.approx(2.8)
    assert constant_reward_return(1.0, 0.5) == 2.0
    assert delayed_constant_return(1.0, 0.5, 3) == pytest.approx(0.25)


def test_discounted_return_recursion():
    rng = np.random.default_rng(12)
    for _ in range(50):
        rewards = rng.normal(size=int(rng.integers(2, 9))).tolist()
        gamma = float(rng.uniform(0.05, 0.95))
        whole = discounted_return(rewards, gamma)
        tail = discounted_return(rewards[1:], gamma)
        assert whole == pytest.approx(rewards[0] + gamma * tail, abs=1e-12)


def test_return_validates_gamma():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            discounted_return([1.0], bad)
        with pytest.raises(ValueError):
            constant_reward_return(1.0, bad)


def test_hyperparameter_ranges():
    Hyperparameters()  # defaults valid
    with pytest.raises(ValueError):
        Hyperparameters(alpha=1.5)
    with pytest.raises(ValueError):
        Hyperparameters(gamma=1.0)
    with pytest.raises(ValueError):
        Hyperparameters(epsilon=-0.1)
    with pytest.raises(ValueError):
        Hyperparameters(episodes=0)
