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
from itertools import chain
from operator import length_hint
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
    NUMBER,
    FieldKind,
    Scenario,
    ScenarioFormatError,
    _is_number,
    decode_document,
    read_regular_file,
    require,
)

FEATURE_DIM = 7
DIVERGENCE_LIMIT = 1e9
POLICY_FILE_VERSION = 1
# The most raw generator words the training kernel asks for in one call.
_BLOCK_WORDS = 1024


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


class _Draws:
    """``random()`` and ``integers(1, n + 1) - 1`` of one ``PCG64``-driven
    numpy generator, read from blocks of its raw 64-bit words.

    The values are numpy's by numpy's own rules for ``PCG64``. ``random()``
    is one word ``w`` as ``(w >> 11) * 2**-53``. A bounded integer reads
    32-bit halves: a new word gives its low half and keeps its high half
    for the next such read (the state's ``has_uint32`` and ``uinteger``).
    numpy maps the halves onto 0..n-1 by Lemire's multiply-and-reject rule
    ("Fast Random Integer Generation in an Interval", ACM TOMACS 2019) and
    draws nothing for n == 1; for n == 2**32 it takes one half as it is,
    which the rule gives too on Python's unbounded ints. The two kinds of
    draw share one position in the stream, as numpy's calls do.

    Each block is drawn by one ``random_raw`` call and turned into Python
    floats once, so a uniform draw is the next item of a list. ``rewind``
    leaves the generator where one numpy call per draw would have left it.
    Only ``PCG64``, the bit generator ``np.random.default_rng`` makes, is
    read; any other is refused before a draw.
    """

    def __init__(self, rng: np.random.Generator, block: int):
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "the training kernel reads PCG64 words, the bit generator of "
                f"np.random.default_rng; got {type(bit_generator).__name__}"
            )
        self.bit_generator = bit_generator
        self._saved = bit_generator.state
        self._has_half, self._half = self._saved["has_uint32"], self._saved["uinteger"]
        self._block, self._blocks = block, 0
        self._words, self._doubles = None, iter(())
        self.random = chain.from_iterable(self._fill()).__next__

    def _fill(self):
        while True:
            self._words = self.bit_generator.random_raw(self._block)
            self._doubles = iter(((self._words >> 11) * 2.0**-53).tolist())
            self._blocks += 1
            yield self._doubles

    def _word(self) -> int:
        self.random()  # moves the shared position on by one word
        return self._words.item(self._block - 1 - length_hint(self._doubles))

    def _next_half(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        word = self._word()
        self._has_half, self._half = 1, word >> 32
        return word & 0xFFFF_FFFF

    def index(self, n: int) -> int:
        """``integers(1, n + 1) - 1`` for 1 <= n <= 2**32."""
        if n == 1:
            return 0
        product = self._next_half() * n
        if product & 0xFFFF_FFFF < n:
            threshold = (1 << 32) % n
            while product & 0xFFFF_FFFF < threshold:
                product = self._next_half() * n
        return product >> 32

    def rewind(self) -> None:
        bit_generator = self.bit_generator
        bit_generator.state = self._saved
        bit_generator.advance(self._blocks * self._block - length_hint(self._doubles))
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        bit_generator.state = state


def _flat_view(array: np.ndarray) -> memoryview:
    """``array``'s items as one flat, zero-copy memoryview in their own
    format; ``array`` must be C-contiguous."""
    return memoryview(array).cast("B").cast(array.dtype.char)


def _writable_view(array: Optional[np.ndarray], name: str, dtype: type) -> memoryview:
    """``_flat_view`` of an array the kernel writes in place, which refuses
    anything but a writable, C-contiguous ``dtype`` array before the kernel
    draws or writes anything."""
    writable = isinstance(array, np.ndarray) and array.flags.c_contiguous and array.flags.writeable
    if not writable or array.dtype != dtype:
        raise ValueError(
            f"the training kernel writes the {name} in place, so it must be "
            f"a writable, C-contiguous {np.dtype(dtype).name} array"
        )
    return _flat_view(array)


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

    Every value a step computes is a Python float, which is IEEE binary64
    as a numpy ``float64`` scalar is, and the kernel reads and writes the
    estimate through flat, zero-copy memoryviews, which hold the stored
    bits. Every array the kernel writes passes one check before any draw or
    write, ``_writable_view``: the Q-table and the weights must be writable,
    C-contiguous float64 arrays, and under the harmonic schedule the visit
    counts a writable, C-contiguous int64 array (a ``QTable`` built over
    given values keeps none). Any other is refused with ``ValueError``.

    Tabular: row (i, a) of ``q.values`` starts at flat offset
    ``(i * m + a) * m``. A running argmax, ``greedy[i * m + a]``, is taken
    from the values once per call and kept as the exact argmax of
    ``values[i, a]`` after every step, so the greedy pick and the bootstrap
    max are lookups; the row is scanned again only when its greedy entry
    decreases. The bootstrap reads row (i + 1, j), which is the next step's
    own row and which this step does not write, so its greedy entry and
    value are carried into the next step: a step reads at most three
    entries and writes one. Visits are counted only under the harmonic
    schedule, which reads them.

    Linear: the greedy pick is the argmax of ``LinearQ``'s ``blocks[i] @ w``
    and the update is ``linear_update``'s step. The kernel makes the same
    BLAS call on the same operands: ``blocks[i].dot(w, out=scores)`` for
    ``blocks[i] @ w`` and ``w.dot(phi)`` for ``w @ phi`` (float64 and
    C-contiguous, so both entry points reach one ``gemv`` and one ``dot``),
    and it reads the bootstrap max at the argmax, which is ``scores.max()``
    bit for bit unless it is NaN (``max`` may return another NaN, whose sign
    can differ, so a NaN is read through ``max``). Computing the same dot
    products in another order would move the weights in the last bit. The
    weights move by seven writes ``w_k += phi_k * c``, ``c`` being the step
    size times the TD error and ``phi_k`` read from ``phi.tolist()``: each is
    ``w += c * phi``'s operation on one weight, in its operand order, so a
    NaN propagates as it does there.

    Divergence: ``linear_update`` runs ``_diverged`` after every update; the
    kernel runs it only when a float ``bound`` on max |w| has crossed
    ``DIVERGENCE_LIMIT``, with a NaN bound counted as crossed. The bound
    starts at the exact max |w|, and each update ``w += phi * c``, where
    ``c`` is the step size times the TD error, adds ``phi_max * |c|`` to it,
    ``phi_max`` being the largest |feature| in any block. Round-to-nearest is
    monotone and symmetric, so |fl(phi_k * c)| <= fl(phi_max * |c|) and
    |fl(w_k + fl(phi_k * c))| <= fl(bound + fl(phi_max * |c|)): while the
    bound is within the limit, ``_diverged`` would return False. A NaN or an
    infinity in ``c``, the weights or the features makes the bound NaN or
    infinite, and the check runs on that step. A check that passes resets
    the bound to the exact max |w|, so the raising update, its count and
    its weights are ``linear_update``'s.

    Draws: each step's uniform comes from ``rng`` and each episode's anchor
    from the environment's generator, one stream when the two share a bit
    generator. ``_Draws`` reads them from blocks of raw ``PCG64`` words with
    numpy's rules, so they are the values ``rng.random()`` and the anchor
    draw of ``MappingEnvironment.reset`` would give, and on every exit, a
    ``DivergenceError``'s too, each generator is left where those calls
    would leave it. Only ``PCG64``, the bit generator of
    ``np.random.default_rng``, is read: another raises ``TypeError`` before
    any draw or write, and before the arrays are checked. NEP 19 does not
    promise ``Generator`` streams across numpy versions; the tests'
    step-by-step reference, which still calls numpy once per draw, is the
    guard.
    """
    # A call draws at most one word per step and one per anchor, unless an
    # anchor's draw is rejected, so short calls draw short blocks.
    block = min(_BLOCK_WORDS, count * (env.num_components + 1))
    actions = _Draws(rng, block)
    if env._rng.bit_generator is actions.bit_generator:
        anchors = actions
    else:
        anchors = _Draws(env._rng, block)
    random, anchor_index = actions.random, anchors.index
    q = learner.q
    fit_mask, reward_table = env.fit_mask, env.reward_table
    last_index, num_vms = env.num_components - 1, env.num_vms
    epsilon, gamma, alpha = hyper.epsilon, hyper.gamma, hyper.alpha
    harmonic = hyper.alpha_schedule is AlphaSchedule.HARMONIC
    tabular = isinstance(q, QTable)
    if tabular:
        values = q.values
        flat_q = _writable_view(values, "Q-table", np.float64)
        if harmonic:
            flat_visits = _writable_view(q.visits, "visit-count table", np.int64)
        # The running argmax, one entry per row (i, a), at flat index i * m + a.
        greedy = _flat_view(values.argmax(-1))
    else:
        blocks, w = list(q._blocks), q.weights
        flat_w = _writable_view(w, "weights", np.float64)
        scores = np.empty(num_vms)
        # bound >= max |w| after every update; see Divergence above.
        phi_max = float(np.abs(q._blocks).max())
        bound = float(np.abs(w).max())
    logs = []
    try:
        for episode_index in range(first, first + count):
            i, a = 0, anchor_index(num_vms)
            occupied: set[int] = set()
            total = 0.0
            length = 0
            exploratory = 0
            if tabular:
                # Row (i, a), its first value's flat offset r, its greedy
                # entry g and g's value best.
                row = a
                r = row * num_vms
                g = greedy[row]
                best = flat_q[r + g]
            while True:
                u = random()
                if u < epsilon:
                    j = _explore_index(u, epsilon, num_vms)
                    exploratory += 1
                elif tabular:
                    j = g
                else:
                    blocks[i].dot(w, out=scores)
                    j = int(scores.argmax())
                feasible = j not in occupied and fit_mask[i][j]
                reward = reward_table[i][j] if feasible else INFEASIBLE_PENALTY
                done = not feasible or i == last_index

                if tabular:
                    # The next step's row, (i + 1, j), is the one the
                    # bootstrap reads, and this step writes none of it.
                    if done:
                        bootstrap = 0.0
                    else:
                        next_row = (i + 1) * num_vms + j
                        next_r = next_row * num_vms
                        next_g = greedy[next_row]
                        bootstrap = next_best = flat_q[next_r + next_g]
                    target = reward + gamma * bootstrap
                    current = best if j == g else flat_q[r + j]
                    step_size = alpha
                    if harmonic:
                        visited = flat_visits[r + j]
                        step_size = _effective_alpha(hyper, visited)
                        flat_visits[r + j] = visited + 1
                    updated = current - step_size * (current - target)
                    flat_q[r + j] = updated
                    if j == g:
                        if updated < current:
                            greedy[row] = int(values[i, a].argmax())
                    elif updated > best or (updated == best and j < g):
                        greedy[row] = j
                else:
                    phi = blocks[i][j]
                    if done:
                        bootstrap = 0.0
                    else:
                        blocks[i + 1].dot(w, out=scores)
                        bootstrap = scores.item(scores.argmax())
                        if bootstrap != bootstrap:  # max may return another NaN
                            bootstrap = float(scores.max())
                    td_error = reward + gamma * bootstrap - w.dot(phi).item()
                    step_size = _effective_alpha(hyper, q.updates) if harmonic else alpha
                    c = step_size * td_error
                    # w += c * phi, one weight at a time: phi_k * c is c * phi_k
                    # with the operands swapped, exact in IEEE.
                    f0, f1, f2, f3, f4, f5, f6 = phi.tolist()
                    flat_w[0] += f0 * c
                    flat_w[1] += f1 * c
                    flat_w[2] += f2 * c
                    flat_w[3] += f3 * c
                    flat_w[4] += f4 * c
                    flat_w[5] += f5 * c
                    flat_w[6] += f6 * c
                    q.updates += 1
                    bound += phi_max * abs(c)
                    if not bound <= DIVERGENCE_LIMIT:  # NaN included
                        if _diverged(w):
                            raise DivergenceError(w, q.updates)
                        bound = float(np.abs(w).max())

                total += reward
                length += 1
                if done:
                    break
                occupied.add(j)
                i, a = i + 1, j
                if tabular:
                    row, r, g, best = next_row, next_r, next_g, next_best
            # Only a feasible placement of the last component ends an episode
            # successfully.
            logs.append(EpisodeLog(episode_index, total, length, exploratory, feasible))
        return logs
    finally:
        actions.rewind()
        if anchors is not actions:
            anchors.rewind()


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
    """``doc[name]`` as a read-only float array of ``shape`` whose entries each
    pass ``NUMBER``."""
    value = require(doc, name)
    # An object array holds the decoded entries themselves, booleans included;
    # a ragged nesting leaves lists among them.
    nesting = np.array(value, dtype=object)
    entries = nesting.ravel().tolist()
    # An entry passes _is_number by its type alone, and then NUMBER by its value,
    # so the first runs once per type and the second once per distinct value.
    # Types go first: a set of values would merge True into 1.
    if not all(map(_is_number, {type(v): v for v in entries}.values())):
        raise ScenarioFormatError(name, "must be an array of numbers")
    if nesting.shape != shape:
        raise ScenarioFormatError(name, f"expected shape {shape}, got {nesting.shape}")
    if not all(map(NUMBER.valid, set(entries))):
        raise ScenarioFormatError(name, "every entry must be finite")
    array = nesting.astype(float)
    array.flags.writeable = False
    return array


def load_policy(path: str | Path) -> PolicySnapshot:
    """Read a policy file; a malformed one raises ``ScenarioFormatError``.

    The file is read on every call, and parsed only when its bytes differ from
    the last file parsed."""
    global _last_policy
    contents = read_regular_file(path)
    # One read of the pair: a handler thread may replace it meanwhile.
    last = _last_policy
    if last[0] != contents:
        last = _last_policy = (contents, _policy_from_bytes(contents))
    return last[1]


# The bytes of the last policy file parsed and its snapshot; a failed parse
# leaves it as it was.
_last_policy: tuple[Optional[bytes], Optional[PolicySnapshot]] = (None, None)

_SIZE = FieldKind(lambda v: INTEGER.valid(v) and v > 0, "must be a positive integer")


def _policy_from_bytes(contents: bytes) -> PolicySnapshot:
    doc = decode_document(contents)
    version = require(doc, "version")
    if version != POLICY_FILE_VERSION:
        raise ScenarioFormatError("version", f"has unsupported value {version!r}")
    kind = require(doc, "kind")
    if kind not in ("tabular", "linear"):
        raise ScenarioFormatError("kind", f"must be 'tabular' or 'linear', got {kind!r}")
    require(doc, "variant")  # every policy file names its learner, though nothing reads it
    k, m = require(doc, "num_components", kind=_SIZE), require(doc, "num_vms", kind=_SIZE)
    return PolicySnapshot(
        kind=kind,
        num_components=k,
        num_vms=m,
        values=_checked_array(doc, "values", (k, m, m)) if kind == "tabular" else None,
        weights=_checked_array(doc, "weights", (FEATURE_DIM,)) if kind == "linear" else None,
    )
