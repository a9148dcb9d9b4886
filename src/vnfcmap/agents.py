"""The four Q-learning variants: tabular and linear, on- and off-policy.

All four act epsilon-greedily on their current value estimates and back up
toward the best next-state value, so a learner is its variant and its value
estimate, and the on- and off-policy variant of a family train alike. The two
policy forms the variants are named after, the epsilon-greedy distribution an
on-policy learner acts out and the one-hot greedy target of an off-policy
learner, are defined by ``PolicyTable`` and its two per-step updates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .mdp import (
    INFEASIBLE_PENALTY,
    Action,
    AlphaSchedule,
    Hyperparameters,
    MappingEnvironment,
    MappingEpisodeState,
)
from .metrics import CONVERGENCE_WINDOW, EpisodeLog, RunRecord
from .model import capacity_ratios
from .scenario import (
    INTEGER,
    Scenario,
    ScenarioFormatError,
    decode_document,
    read_regular_file,
    require,
)

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
    def tabular(self) -> bool:
        return self in (AgentVariant.ON_POLICY_TABULAR, AgentVariant.OFF_POLICY_TABULAR)


def state_key(state: MappingEpisodeState) -> tuple[int, int]:
    """Zero-based (component index, anchor machine) row of the per-state tables."""
    return state.next_component_index - 1, state.anchor_vm - 1


class ValueEstimator:
    """A value estimate's greedy action and best value in a state, over the
    ``action_values`` its subclass defines. Greedy ties go to the lowest
    machine id."""

    def greedy_action(self, state: MappingEpisodeState) -> int:
        return int(np.argmax(self.action_values(state))) + 1

    def max_value(self, state: MappingEpisodeState) -> float:
        return float(self.action_values(state).max())


class QTable(ValueEstimator):
    """Dense action values keyed by (next component index, anchor machine)."""

    def __init__(self, num_components: int, num_vms: int, values: Optional[np.ndarray] = None):
        """A zero table with a zero visit-count table, written only by a
        ``harmonic`` step size (which reads it), or, given ``values``, a table
        over those values that keeps no visit counts and is only read."""
        self.num_components = num_components
        self.num_vms = num_vms
        shape = (num_components, num_vms, num_vms)
        if values is None:
            self.values = np.zeros(shape)
            self.visits = np.zeros(shape, dtype=np.int64)
        else:
            self.values = values
            self.visits = None

    def action_values(self, state: MappingEpisodeState) -> np.ndarray:
        return self.values[state_key(state)]


class LinearQ(ValueEstimator):
    """Linear value estimates over the fixed 7-dimensional feature map.

    Feature layout: bias, compute and storage demand-to-capacity ratios
    (capped at 2), predicted compute and storage idle fractions (clamped to
    [0, 1]), an allowed bit (``model.resource_grid``'s mask: the machine hosts
    no component and fits this one), and the placement progress fraction.

    The map is deliberately occupancy-blind within an episode: a machine's
    features do not change when the episode takes it, so the linear agents
    generalize aggressively across placement stages and keep re-ranking
    already-used machines. This coarseness is what caps their attainable
    reward well below the tabular agents'.
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


def feature_map(
    state: MappingEpisodeState,
    action: Action,
    scenario: Scenario,
    num_components: Optional[int] = None,
) -> np.ndarray:
    """Feature vector for one (state, action) pair; layout as in ``LinearQ``."""
    return LinearQ(scenario, num_components).feature_vector(state, action)


class PolicyMode(Enum):
    EPSILON_GREEDY = "epsilon-greedy"
    GREEDY_TARGET = "greedy-target"


class PolicyTable:
    """Per-state action distributions, derived from one greedy action per
    state.

    Only that action is stored: the greedy action of a value estimate,
    lowest machine id on ties. ``row`` renders it as an
    epsilon-greedy (on-policy) or a one-hot (off-policy) distribution.
    """

    def __init__(self, num_components: int, num_vms: int, mode: PolicyMode, epsilon: float = 0.0):
        self.mode = mode
        self.num_vms = num_vms
        self.epsilon = epsilon
        self.greedy_index = np.zeros((num_components, num_vms), dtype=np.int64)

    def row(self, state: MappingEpisodeState) -> np.ndarray:
        m = self.num_vms
        explore = self.epsilon / m if self.mode is PolicyMode.EPSILON_GREEDY else 0.0
        exploit = 1.0 - explore * (m - 1)
        return np.where(np.arange(m) == self.greedy_index[state_key(state)], exploit, explore)


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


def _diverged(weights: np.ndarray) -> bool:
    """``not (np.abs(weights) <= DIVERGENCE_LIMIT).all()``: a weight beyond the
    limit, an infinity or a NaN counts, at a fraction of its cost on seven
    weights."""
    return not all(map(DIVERGENCE_LIMIT.__ge__, map(abs, weights.tolist())))


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
    error before the step was applied. Visits are counted only under the
    harmonic schedule, the one step size that reads them.
    """
    bootstrap = 0.0 if next_state.terminal else q.max_value(next_state)
    target = reward + hyper.gamma * bootstrap
    entry = (*state_key(state), action.target_vm - 1)
    current = q.values.item(entry)
    step_size = hyper.alpha
    if hyper.alpha_schedule is AlphaSchedule.HARMONIC:
        count = q.visits.item(entry)
        step_size = _effective_alpha(hyper, count)
        q.visits[entry] = count + 1
    q.values[entry] = current - step_size * (current - target)
    return target - current


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
    phi = lq.feature_vector(state, action)
    bootstrap = 0.0 if next_state.terminal else lq.max_value(next_state)
    td_error = reward + hyper.gamma * bootstrap - float(lq.weights @ phi)
    alpha = _effective_alpha(hyper, lq.updates)
    lq.weights += alpha * td_error * phi
    lq.updates += 1
    if _diverged(lq.weights):
        raise DivergenceError(lq.weights, lq.updates)
    return td_error


@dataclass
class Learner:
    variant: AgentVariant
    q: ValueEstimator


def make_learner(
    variant: AgentVariant,
    scenario: Scenario,
    num_components: Optional[int] = None,
) -> Learner:
    k = num_components if num_components is not None else len(scenario.subnet.components)
    q = QTable(k, scenario.num_vms) if variant.tabular else LinearQ(scenario, k)
    return Learner(variant=variant, q=q)


def run_episode(
    env: MappingEnvironment,
    learner: Learner,
    hyper: Hyperparameters,
    rng: np.random.Generator,
    episode_index: int = 1,
) -> EpisodeLog:
    """Play one episode, updating the value estimate after every step."""
    return _run_episodes(env, learner, hyper, rng, episode_index, 1)[0]


def _run_episodes(
    env: MappingEnvironment,
    learner: Learner,
    hyper: Hyperparameters,
    rng: np.random.Generator,
    first: int,
    count: int,
) -> list[EpisodeLog]:
    """Play episodes ``first`` to ``first + count - 1``, updating the value
    estimate after every step.

    This is the training loop. It does what one call per step of
    ``select_action``, ``MappingEnvironment.step`` and the variant's TD update
    would do, with the same arithmetic in the same order, but it holds the
    state as zero-based ints (component index i, anchor a) plus a set of
    occupied machines and creates no state, action or outcome objects per
    step. Tables, flags and a fixed step size are read once per call, not
    once per episode.

    Tabular: a running argmax, ``greedy[i, a]``, is taken from the values
    once per call and kept as the exact argmax of ``values[i, a]`` after
    every step, so the greedy pick and the bootstrap max are lookups; visits
    are counted only under the harmonic schedule, which reads them. Linear:
    the greedy pick is the argmax of ``LinearQ``'s ``blocks[i] @ w`` and the
    update is ``linear_update``'s step. The kernel makes the same BLAS call
    on the same operands: ``blocks[i].dot(w, out=scores)`` for
    ``blocks[i] @ w`` and ``w.dot(phi)`` for ``w @ phi`` (float64 and
    C-contiguous, so both entry points reach one ``gemv`` and one ``dot``),
    and it reads the bootstrap max at the argmax, which is ``scores.max()``
    bit for bit unless it is NaN (``max`` may return another NaN, whose sign
    can differ, so a NaN is read through ``max``). Computing the same dot
    products in another order would move the weights in the last bit.
    """
    q = learner.q
    fit_mask, reward_table = env.fit_mask, env.reward_table
    last_index, num_vms = env.num_components - 1, env.num_vms
    epsilon, gamma, alpha = hyper.epsilon, hyper.gamma, hyper.alpha
    harmonic = hyper.alpha_schedule is AlphaSchedule.HARMONIC
    random, draw_anchor = rng.random, env.draw_anchor
    tabular = isinstance(q, QTable)
    if tabular:
        values, visits, greedy = q.values, q.visits, q.values.argmax(-1)
    else:
        blocks, w = list(q._blocks), q.weights
        scores, delta = np.empty(num_vms), np.empty(FEATURE_DIM)
    logs = []
    for episode_index in range(first, first + count):
        i, a = 0, draw_anchor() - 1
        occupied: set[int] = set()
        total = 0.0
        length = 0
        exploratory = 0
        while True:
            u = random()
            if u < epsilon:
                j = _explore_index(u, epsilon, num_vms)
                exploratory += 1
            elif tabular:
                j = greedy.item(i, a)
            else:
                j = blocks[i].dot(w, out=scores).argmax().item()
            feasible = j not in occupied and fit_mask[i][j]
            reward = reward_table[i][j] if feasible else INFEASIBLE_PENALTY
            done = not feasible or i == last_index

            if tabular:
                bootstrap = 0.0 if done else values.item(i + 1, j, greedy.item(i + 1, j))
                target = reward + gamma * bootstrap
                current = values.item(i, a, j)
                step_size = alpha
                if harmonic:
                    visited = visits.item(i, a, j)
                    step_size = _effective_alpha(hyper, visited)
                    visits[i, a, j] = visited + 1
                updated = current - step_size * (current - target)
                values[i, a, j] = updated
                g = greedy.item(i, a)
                if j == g:
                    if updated < current:
                        greedy[i, a] = values[i, a].argmax()
                else:
                    best = values.item(i, a, g)
                    if updated > best or (updated == best and j < g):
                        greedy[i, a] = j
            else:
                phi = blocks[i][j]
                if done:
                    bootstrap = 0.0
                else:
                    blocks[i + 1].dot(w, out=scores)
                    bootstrap = scores.item(scores.argmax())
                    if bootstrap != bootstrap:  # max may return another NaN
                        bootstrap = float(scores.max())
                td_error = reward + gamma * bootstrap - w.dot(phi)
                step_size = _effective_alpha(hyper, q.updates) if harmonic else alpha
                # phi * c is c * phi with the operands swapped, exact in IEEE.
                w += np.multiply(phi, step_size * td_error, out=delta)
                q.updates += 1
                if _diverged(w):
                    raise DivergenceError(w, q.updates)

            total += reward
            length += 1
            if done:
                break
            occupied.add(j)
            i, a = i + 1, j
        # Only a feasible placement of the last component ends an episode
        # successfully.
        logs.append(EpisodeLog(episode_index, total, length, exploratory, feasible))
    return logs


def train(
    variant: AgentVariant,
    scenario: Scenario,
    hyper: Hyperparameters,
    seed: int,
    num_components: Optional[int] = None,
) -> tuple[RunRecord, Learner]:
    """Full training run: one seeded generator drives both the environment
    resets and the action selection, which makes runs reproducible.

    The run summary's convergence statistic needs two windows of episodes, so
    fewer are refused before the first one."""
    if hyper.episodes < 2 * CONVERGENCE_WINDOW:
        raise ValueError(
            f"need at least {2 * CONVERGENCE_WINDOW} episodes, got {hyper.episodes}"
        )
    rng = np.random.default_rng(seed)
    env = MappingEnvironment(scenario, rng, hyper.reward_mode, num_components)
    learner = make_learner(variant, scenario, num_components)
    logs = _run_episodes(env, learner, hyper, rng, 1, hyper.episodes)
    record = RunRecord(variant=variant.value, seed=seed, hyper=hyper, episodes=tuple(logs))
    return record, learner


def greedy_rollout(
    q: ValueEstimator,
    env: MappingEnvironment,
    start_anchor: int = 1,
) -> Optional[dict[int, int]]:
    """Replay the greedy policy without exploration.

    Returns the component-to-machine pairs, or None when the greedy choice is
    ever infeasible (``env.step``'s rule): a machine already taken, or a pair
    outside ``env.fit_mask``. No estimate reads the occupied set of a state.
    """
    pairs: dict[int, int] = {}
    anchor = start_anchor
    for i in range(1, env.num_components + 1):
        j = q.greedy_action(MappingEpisodeState(i, anchor, frozenset()))
        if not 1 <= j <= env.num_vms:
            raise ValueError(f"target vm {j} outside 1..{env.num_vms}")
        if j in pairs.values() or not env.fit_mask[i - 1][j - 1]:
            return None
        pairs[i] = anchor = j
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
            # Read-only arrays are shared: a rollout only reads them.
            return QTable(self.num_components, self.num_vms, self.values)
        lq = LinearQ(scenario, self.num_components)
        lq.weights = self.weights
        return lq


def _checked_array(doc: dict, name: str, shape: tuple) -> np.ndarray:
    """``doc[name]`` as a read-only float array of ``shape`` with finite
    entries only."""
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
    # Booleans mixed with numbers convert like 0 and 1; the shape check above
    # makes ``value`` a regular nesting of len(shape) levels.
    entries = value
    for _ in shape[1:]:
        entries = chain.from_iterable(entries)
    if bool in set(map(type, entries)):
        raise ScenarioFormatError(name, "must be an array of numbers")
    array.flags.writeable = False
    return array


def load_policy(path: str | Path) -> PolicySnapshot:
    """Read a policy file; a malformed one raises ``ScenarioFormatError``.

    The file is read on every call, and parsed only when its bytes differ from
    the last file parsed."""
    return _policy_from_bytes(_FileBytes(read_regular_file(path)))


@dataclass(frozen=True)
class _FileBytes:
    """File contents as a cache key. Its hash is the length, so that looking up
    bytes read again compares them, which costs far less than hashing them."""

    data: bytes

    def __hash__(self) -> int:
        return len(self.data)


@lru_cache(maxsize=1)
def _policy_from_bytes(contents: _FileBytes) -> PolicySnapshot:
    doc = decode_document(contents.data)
    version = require(doc, "version")
    if version != POLICY_FILE_VERSION:
        raise ScenarioFormatError("version", f"has unsupported value {version!r}")
    kind = require(doc, "kind")
    if kind not in ("tabular", "linear"):
        raise ScenarioFormatError("kind", f"must be 'tabular' or 'linear', got {kind!r}")
    require(doc, "variant")  # every policy file names its learner, though nothing reads it
    k, m = require(doc, "num_components", kind=INTEGER), require(doc, "num_vms", kind=INTEGER)
    return PolicySnapshot(
        kind=kind,
        num_components=k,
        num_vms=m,
        values=_checked_array(doc, "values", (k, m, m)) if kind == "tabular" else None,
        weights=_checked_array(doc, "weights", (FEATURE_DIM,)) if kind == "linear" else None,
    )
