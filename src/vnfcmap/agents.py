"""The four Q-learning variants: tabular and linear, on- and off-policy.

All four act epsilon-greedily on their current value estimates and back up
toward the best next-state value. What separates the two families is the
policy object they keep updated: on-policy variants maintain the stochastic
epsilon-greedy distribution they are acting out, off-policy variants maintain
a one-hot greedy target alongside their exploratory behavior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .mdp import (
    INFEASIBLE_PENALTY,
    Action,
    AlphaSchedule,
    Hyperparameters,
    MappingEnvironment,
    MappingEpisodeState,
)
from .metrics import EpisodeLog, RunRecord
from .model import capacity_ratios
from .scenario import INTEGER, Scenario, ScenarioFormatError, read_document, require

FEATURE_DIM = 7
DIVERGENCE_LIMIT = 1e9
POLICY_FILE_VERSION = 1


class DivergenceError(RuntimeError):
    """Linear weights left the sane range; carries the offending weights."""

    def __init__(self, weights: np.ndarray, updates: int):
        self.weights = np.array(weights)
        self.updates = updates
        super().__init__(
            f"weight magnitude exceeded {DIVERGENCE_LIMIT:g} after {updates} updates: "
            f"{self.weights.tolist()}"
        )

    def __reduce__(self):  # a sweep's worker process hands the error back pickled
        return DivergenceError, (self.weights, self.updates)


class AgentVariant(Enum):
    ON_POLICY_TABULAR = "on-tab"
    OFF_POLICY_TABULAR = "off-tab"
    ON_POLICY_LINEAR = "on-lin"
    OFF_POLICY_LINEAR = "off-lin"

    @property
    def on_policy(self) -> bool:
        return self in (AgentVariant.ON_POLICY_TABULAR, AgentVariant.ON_POLICY_LINEAR)

    @property
    def tabular(self) -> bool:
        return self in (AgentVariant.ON_POLICY_TABULAR, AgentVariant.OFF_POLICY_TABULAR)


def state_key(state: MappingEpisodeState) -> tuple[int, int]:
    """Zero-based (component index, anchor machine) row of the per-state tables."""
    return state.next_component_index - 1, state.anchor_vm - 1


class QTable:
    """Dense action values keyed by (next component index, anchor machine)."""

    def __init__(self, num_components: int, num_vms: int):
        self.num_components = num_components
        self.num_vms = num_vms
        self.values = np.zeros((num_components, num_vms, num_vms))
        self.visits = np.zeros((num_components, num_vms, num_vms), dtype=np.int64)

    def action_values(self, state: MappingEpisodeState) -> np.ndarray:
        return self.values[state_key(state)]

    def greedy_action(self, state: MappingEpisodeState) -> int:
        return int(np.argmax(self.action_values(state))) + 1

    def max_value(self, state: MappingEpisodeState) -> float:
        return float(self.action_values(state).max())


class LinearQ:
    """Linear value estimates over the fixed 7-dimensional feature map.

    Feature layout: bias, compute and storage demand-to-capacity ratios
    (capped at 2), predicted compute and storage idle fractions (clamped to
    [0, 1]), a capacity-fit bit, and the placement progress fraction.

    The map is deliberately occupancy-blind: a machine's features do not
    change when it gets taken, so the linear agents generalize aggressively
    across placement stages and keep re-ranking already-used machines. This
    coarseness is what caps their attainable reward well below the tabular
    agents'.
    """

    def __init__(self, scenario: Scenario, num_components: Optional[int] = None):
        if num_components is None:
            num_components = len(scenario.subnet.components)
        self.num_components = num_components
        self.num_vms = scenario.num_vms
        self.weights = np.zeros(FEATURE_DIM)
        self.updates = 0

        ratio_c, ratio_s, fits = capacity_ratios(
            scenario.subnet.components[:num_components], scenario.vms
        )
        # Feature blocks depend only on the component index, so they are
        # assembled once and reused for every state at that placement stage.
        self._blocks = np.empty((num_components, self.num_vms, FEATURE_DIM))
        self._blocks[:, :, 0] = 1.0
        self._blocks[:, :, 1] = np.minimum(ratio_c, 2.0)
        self._blocks[:, :, 2] = np.minimum(ratio_s, 2.0)
        self._blocks[:, :, 3] = np.clip(1.0 - ratio_c, 0.0, 1.0)
        self._blocks[:, :, 4] = np.clip(1.0 - ratio_s, 0.0, 1.0)
        self._blocks[:, :, 5] = fits
        self._blocks[:, :, 6] = (np.arange(num_components) / num_components)[:, None]
        self._blocks.flags.writeable = False

    def feature_matrix(self, state: MappingEpisodeState) -> np.ndarray:
        """Features of every action in one read-only (m, 7) block."""
        return self._blocks[state.next_component_index - 1]

    def feature_vector(self, state: MappingEpisodeState, action: Action) -> np.ndarray:
        return self.feature_matrix(state)[action.target_vm - 1]

    def action_values(self, state: MappingEpisodeState) -> np.ndarray:
        return self.feature_matrix(state) @ self.weights

    def greedy_action(self, state: MappingEpisodeState) -> int:
        return int(np.argmax(self.action_values(state))) + 1

    def max_value(self, state: MappingEpisodeState) -> float:
        return float(self.action_values(state).max())


def feature_map(
    state: MappingEpisodeState,
    action: Action,
    scenario: Scenario,
    num_components: Optional[int] = None,
) -> np.ndarray:
    """Feature vector for one (state, action) pair; layout as in ``LinearQ``."""
    return LinearQ(scenario, num_components).feature_vector(state, action)


ValueEstimator = Union[QTable, LinearQ]


class PolicyMode(Enum):
    EPSILON_GREEDY = "epsilon-greedy"
    GREEDY_TARGET = "greedy-target"


class PolicyTable:
    """Per-state action distributions, derived from one greedy action per
    state.

    Only that action is stored; ``row`` and ``probs`` render it as an
    epsilon-greedy or a one-hot distribution. Training keeps it equal to the
    argmax of a tabular learner's Q-values, and to the greedy action of a
    linear learner at the state's last update. Unvisited states hold the
    lowest machine id, the greedy pick of all-zero value estimates.
    """

    def __init__(self, num_components: int, num_vms: int, mode: PolicyMode, epsilon: float = 0.0):
        self.mode = mode
        self.num_vms = num_vms
        self.epsilon = epsilon
        self.greedy_index = np.zeros((num_components, num_vms), dtype=np.int64)

    def _render(self, greedy_index: np.ndarray) -> np.ndarray:
        m = self.num_vms
        explore = self.epsilon / m if self.mode is PolicyMode.EPSILON_GREEDY else 0.0
        exploit = 1.0 - explore * (m - 1)
        return np.where(np.arange(m) == greedy_index[..., None], exploit, explore)

    @property
    def probs(self) -> np.ndarray:
        """All rows as a fresh (components, machines, machines) array."""
        return self._render(self.greedy_index)

    def row(self, state: MappingEpisodeState) -> np.ndarray:
        return self._render(self.greedy_index[state_key(state)])


def epsilon_greedy_policy_update(
    policy: PolicyTable,
    state: MappingEpisodeState,
    q: ValueEstimator,
    epsilon: float,
) -> None:
    """Point the state's exploit mass at the current best action; every other
    action keeps the uniform exploration share."""
    if policy.mode is not PolicyMode.EPSILON_GREEDY:
        raise ValueError("policy is not in epsilon-greedy mode")
    if epsilon != policy.epsilon:
        raise ValueError(f"epsilon {epsilon} differs from the policy's {policy.epsilon}")
    policy.greedy_index[state_key(state)] = q.greedy_action(state) - 1


def greedy_target_update(
    policy: PolicyTable,
    state: MappingEpisodeState,
    q: ValueEstimator,
) -> None:
    """Unit mass on the current best action."""
    if policy.mode is not PolicyMode.GREEDY_TARGET:
        raise ValueError("policy is not in greedy-target mode")
    policy.greedy_index[state_key(state)] = q.greedy_action(state) - 1


def _explore_index(u: float, epsilon: float, num_vms: int) -> int:
    # u is uniform on [0, epsilon); rescaling it keeps one draw per step.
    return min(int(num_vms * u / epsilon), num_vms - 1)


def select_action(
    q: ValueEstimator,
    state: MappingEpisodeState,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[Action, bool]:
    """Epsilon-greedy pick over current value estimates.

    Returns the action and whether it came from the exploration branch. Greedy
    ties resolve to the lowest machine id.
    """
    u = float(rng.random())
    if u < epsilon:
        return Action(_explore_index(u, epsilon, q.num_vms) + 1), True
    return Action(q.greedy_action(state)), False


def _effective_alpha(hyper: Hyperparameters, visits: int) -> float:
    if hyper.alpha_schedule is AlphaSchedule.HARMONIC:
        return hyper.alpha / (1.0 + visits / 100.0)
    return hyper.alpha


def _backup(
    q: QTable, i: int, a: int, j: int, target: float, hyper: Hyperparameters
) -> tuple[float, float]:
    """Move ``values[i, a, j]`` toward ``target`` and count the visit; returns
    the entry's old and new value."""
    current = q.values.item(i, a, j)
    count = q.visits.item(i, a, j)
    updated = current - _effective_alpha(hyper, count) * (current - target)
    q.values[i, a, j] = updated
    q.visits[i, a, j] = count + 1
    return current, updated


def tabular_update(
    q: QTable,
    state: MappingEpisodeState,
    action: Action,
    reward: float,
    next_state: MappingEpisodeState,
    hyper: Hyperparameters,
) -> float:
    """One backup toward reward plus the discounted best next value.

    Terminal successors contribute nothing. Returns the temporal-difference
    error before the step was applied.
    """
    bootstrap = 0.0 if next_state.terminal else q.max_value(next_state)
    target = reward + hyper.gamma * bootstrap
    current, _ = _backup(q, *state_key(state), action.target_vm - 1, target, hyper)
    return target - current


def _semi_gradient_step(
    lq: LinearQ,
    phi: np.ndarray,
    reward: float,
    next_features: Optional[np.ndarray],
    hyper: Hyperparameters,
) -> float:
    """``linear_update`` given the taken action's features and the next
    state's feature block (None when the successor is terminal)."""
    bootstrap = 0.0 if next_features is None else float((next_features @ lq.weights).max())
    td_error = reward + hyper.gamma * bootstrap - float(lq.weights @ phi)
    alpha = _effective_alpha(hyper, lq.updates)
    lq.weights += alpha * td_error * phi
    lq.updates += 1
    if (np.abs(lq.weights) > DIVERGENCE_LIMIT).any():
        raise DivergenceError(lq.weights, lq.updates)
    return td_error


def linear_update(
    lq: LinearQ,
    state: MappingEpisodeState,
    action: Action,
    reward: float,
    next_state: MappingEpisodeState,
    hyper: Hyperparameters,
) -> float:
    """Semi-gradient step: the features of the taken action are the gradient
    of the linear estimate, so the weights move by alpha * td_error * features."""
    next_features = None if next_state.terminal else lq.feature_matrix(next_state)
    return _semi_gradient_step(lq, lq.feature_vector(state, action), reward, next_features, hyper)


@dataclass
class Learner:
    variant: AgentVariant
    q: ValueEstimator
    policy: PolicyTable


def make_learner(
    variant: AgentVariant,
    scenario: Scenario,
    hyper: Hyperparameters,
    num_components: Optional[int] = None,
) -> Learner:
    k = num_components if num_components is not None else len(scenario.subnet.components)
    m = scenario.num_vms
    q: ValueEstimator = QTable(k, m) if variant.tabular else LinearQ(scenario, k)
    if variant.on_policy:
        policy = PolicyTable(k, m, PolicyMode.EPSILON_GREEDY, epsilon=hyper.epsilon)
    else:
        policy = PolicyTable(k, m, PolicyMode.GREEDY_TARGET)
    return Learner(variant=variant, q=q, policy=policy)


def run_episode(
    env: MappingEnvironment,
    learner: Learner,
    hyper: Hyperparameters,
    rng: np.random.Generator,
    episode_index: int = 1,
) -> EpisodeLog:
    """Play one episode, updating values and the policy after every step.

    This is the training loop. It does what one call per step of
    ``select_action``, ``MappingEnvironment.step``, the variant's TD update
    and its policy update would do, with the same arithmetic in the same
    order, but it holds the state as zero-based ints (component index i,
    anchor a) plus a set of occupied machines and creates no objects per
    step. Both flavours of a family write the same greedy index; they differ
    only in how their ``PolicyTable`` renders it.

    Tabular: ``greedy_index[i, a]`` is kept as the exact argmax of
    ``values[i, a]`` (lowest id on ties), so the greedy pick and the
    bootstrap max are lookups. Linear: the greedy pick is ``LinearQ``'s
    ``blocks[i] @ w`` argmax and the update is ``linear_update``'s own step;
    their numpy expressions must stay as written, because computing the same
    dot products in another order moves the weights in the last bit.
    """
    q = learner.q
    greedy = learner.policy.greedy_index
    fit_mask, reward_table = env.fit_mask, env.reward_table
    last_index, num_vms = env.num_components - 1, env.num_vms
    epsilon, gamma = hyper.epsilon, hyper.gamma
    tabular = isinstance(q, QTable)
    if tabular:
        values = q.values
    else:
        blocks = q._blocks
    i, a = 0, env.reset().anchor_vm - 1
    occupied: set[int] = set()
    total = 0.0
    length = 0
    exploratory = 0
    while True:
        u = rng.random()
        if u < epsilon:
            j = _explore_index(u, epsilon, num_vms)
            exploratory += 1
        elif tabular:
            j = greedy.item(i, a)
        else:
            j = int((blocks[i] @ q.weights).argmax())
        feasible = j not in occupied and fit_mask[i][j]
        reward = reward_table[i][j] if feasible else INFEASIBLE_PENALTY
        done = not feasible or i == last_index

        if tabular:
            bootstrap = 0.0 if done else values.item(i + 1, j, greedy.item(i + 1, j))
            current, updated = _backup(q, i, a, j, reward + gamma * bootstrap, hyper)
            g = greedy.item(i, a)
            if j == g:
                if updated < current:
                    greedy[i, a] = values[i, a].argmax()
            else:
                best = values.item(i, a, g)
                if updated > best or (updated == best and j < g):
                    greedy[i, a] = j
        else:
            next_features = None if done else blocks[i + 1]
            _semi_gradient_step(q, blocks[i][j], reward, next_features, hyper)
            greedy[i, a] = (blocks[i] @ q.weights).argmax()

        total += reward
        length += 1
        if done:
            # Only a feasible placement of the last component ends an episode
            # successfully.
            return EpisodeLog(
                episode_index=episode_index,
                total_reward=total,
                length=length,
                exploratory_actions=exploratory,
                success=feasible,
            )
        occupied.add(j)
        i, a = i + 1, j


def train(
    variant: AgentVariant,
    scenario: Scenario,
    hyper: Hyperparameters,
    seed: int,
    num_components: Optional[int] = None,
) -> tuple[RunRecord, Learner]:
    """Full training run: one seeded generator drives both the environment
    resets and the action selection, which makes runs reproducible."""
    rng = np.random.default_rng(seed)
    env = MappingEnvironment(scenario, rng, hyper.reward_mode, num_components)
    learner = make_learner(variant, scenario, hyper, num_components)
    logs = [
        run_episode(env, learner, hyper, rng, episode_index=e)
        for e in range(1, hyper.episodes + 1)
    ]
    record = RunRecord(variant=variant.value, seed=seed, hyper=hyper, episodes=tuple(logs))
    return record, learner


def greedy_rollout(
    q: ValueEstimator,
    env: MappingEnvironment,
    start_anchor: int = 1,
) -> Optional[dict[int, int]]:
    """Replay the greedy policy without exploration.

    Returns the component-to-machine pairs, or None when the greedy choice is
    ever infeasible.
    """
    state = MappingEpisodeState(
        next_component_index=1, anchor_vm=start_anchor, occupied=frozenset()
    )
    pairs: dict[int, int] = {}
    while not state.terminal:
        action = Action(q.greedy_action(state))
        outcome = env.step(state, action)
        if not outcome.feasible:
            return None
        pairs[state.next_component_index] = action.target_vm
        state = outcome.next_state
    return pairs


# ---------------------------------------------------------------------------
# Trained-policy persistence (consumed by the decision service)


def save_policy(learner: Learner, path: str | Path) -> None:
    doc: dict = {
        "version": POLICY_FILE_VERSION,
        "variant": learner.variant.value,
        "state_key": "component-index,anchor-vm",
        "num_components": learner.q.num_components,
        "num_vms": learner.q.num_vms,
    }
    if isinstance(learner.q, QTable):
        doc["kind"] = "tabular"
        doc["values"] = learner.q.values.tolist()
    else:
        doc["kind"] = "linear"
        doc["weights"] = learner.q.weights.tolist()
    Path(path).write_text(json.dumps(doc) + "\n")


@dataclass(frozen=True)
class PolicySnapshot:
    variant: str
    kind: str
    num_components: int
    num_vms: int
    values: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def estimator_for(self, scenario: Scenario) -> ValueEstimator:
        components = len(scenario.subnet.components)
        if self.num_components != components:
            raise ScenarioFormatError(
                "num_components",
                f"policy trained for {self.num_components} components, scenario has {components}",
            )
        if self.kind == "tabular":
            if self.num_vms != scenario.num_vms:
                raise ScenarioFormatError(
                    "num_vms",
                    f"policy trained for {self.num_vms} vms, scenario has {scenario.num_vms}",
                )
            table = QTable(self.num_components, self.num_vms)
            table.values = np.array(self.values)
            return table
        lq = LinearQ(scenario, self.num_components)
        lq.weights = np.array(self.weights)
        return lq


def _checked_array(doc: dict, name: str, shape: tuple) -> np.ndarray:
    """``doc[name]`` as a float array of ``shape`` with finite entries only."""
    value = require(doc, name)
    try:
        array = np.array(value)
    except ValueError:  # lists of unequal lengths
        raise ScenarioFormatError(name, "must be an array of numbers") from None
    # Strings and booleans would convert to floats; an int beyond int64 makes an object array.
    if array.dtype.kind not in "iuf":
        raise ScenarioFormatError(name, "must be an array of numbers")
    array = array.astype(float, copy=False)
    if array.shape != shape:
        raise ScenarioFormatError(name, f"expected shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ScenarioFormatError(name, "every entry must be finite")
    return array


def load_policy(path: str | Path) -> PolicySnapshot:
    """Read a policy file; a malformed one raises ``ScenarioFormatError``."""
    doc = read_document(path)
    version = require(doc, "version")
    if version != POLICY_FILE_VERSION:
        raise ScenarioFormatError("version", f"has unsupported value {version!r}")
    kind = require(doc, "kind")
    if kind not in ("tabular", "linear"):
        raise ScenarioFormatError("kind", f"must be 'tabular' or 'linear', got {kind!r}")
    k, m = require(doc, "num_components", kind=INTEGER), require(doc, "num_vms", kind=INTEGER)
    return PolicySnapshot(
        variant=require(doc, "variant"),
        kind=kind,
        num_components=k,
        num_vms=m,
        values=_checked_array(doc, "values", (k, m, m)) if kind == "tabular" else None,
        weights=_checked_array(doc, "weights", (FEATURE_DIM,)) if kind == "linear" else None,
    )
