"""Sequential mapping environment: states, transitions, rewards, and returns.

An episode walks the slice components in fixed order f1..f8 and places each
one on a machine. Feasible placements pay a per-step reward derived from the
target machine's capacity margins; an infeasible choice (occupied target or
capacities too small) ends the episode with a flat penalty. A machine that is
already hosting a component (``hosted`` is set) is an infeasible target from
the first step: the fit mask is ``model.resource_grid``'s allowed mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .model import capacity_ratios
from .scenario import Scenario

INFEASIBLE_PENALTY = -1.0


class RewardMode(Enum):
    # Idle-fraction form: reward grows with the capacity left over on the
    # chosen machine. This is the formula reproduced as printed even though
    # it rewards loose fits.
    WASTAGE = "wastage"
    # Complementary utilization form: reward grows with how tightly the
    # machine is packed. WASTAGE + EFFICIENCY = 2 on every feasible step.
    EFFICIENCY = "efficiency"


class AlphaSchedule(Enum):
    FIXED = "fixed"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class Hyperparameters:
    alpha: float = 0.1
    gamma: float = 0.99
    epsilon: float = 0.1
    episodes: int = 500
    reward_mode: RewardMode = RewardMode.WASTAGE
    alpha_schedule: AlphaSchedule = AlphaSchedule.FIXED

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be positive, got {self.episodes}")


@dataclass(frozen=True)
class MappingEpisodeState:
    """Where the walk stands: which component is next, the machine the search
    is anchored on, and which machines are already taken."""

    next_component_index: int
    anchor_vm: int
    occupied: frozenset[int]
    terminal: bool = False


@dataclass(frozen=True)
class Action:
    target_vm: int


@dataclass(frozen=True)
class StepOutcome:
    reward: float
    next_state: MappingEpisodeState
    feasible: bool


def _placement_reward(ratio_c, ratio_s, mode: RewardMode):
    """Reward of a feasible placement from its demand-to-capacity ratios;
    elementwise on arrays."""
    utilization = ratio_c + ratio_s
    return 2.0 - utilization if mode is RewardMode.WASTAGE else utilization


class MappingEnvironment:
    """Episode driver over one scenario.

    The environment owns no mutable episode state: ``step`` is a pure function
    of (state, action), and ``reset`` draws the starting anchor machine from
    the generator through ``draw_anchor``. ``agents.train`` uses that same
    generator for its action draws, so both share one random stream.
    """

    def __init__(
        self,
        scenario: Scenario,
        rng: np.random.Generator,
        reward_mode: RewardMode = RewardMode.WASTAGE,
        num_components: Optional[int] = None,
    ):
        total = len(scenario.subnet.components)
        if num_components is None:
            num_components = total
        if not 1 <= num_components <= total:
            raise ValueError(f"num_components must be in 1..{total}")
        self.num_components = num_components
        self.num_vms = scenario.num_vms
        self._rng = rng

        ratio_c, ratio_s, fits = capacity_ratios(
            scenario.subnet.components[:num_components], scenario.vms
        )
        # Nested lists indexed [component index - 1][machine id - 1]; plain
        # Python reads are what the training loop's per-step lookups need.
        self.fit_mask: list[list[bool]] = fits.tolist()
        self.reward_table: list[list[float]] = _placement_reward(
            ratio_c, ratio_s, reward_mode
        ).tolist()

    def draw_anchor(self) -> int:
        """The machine id an episode starts anchored on, uniform over 1..m."""
        return int(self._rng.integers(1, self.num_vms + 1))

    def reset(self) -> MappingEpisodeState:
        return MappingEpisodeState(
            next_component_index=1, anchor_vm=self.draw_anchor(), occupied=frozenset()
        )

    def step(self, state: MappingEpisodeState, action: Action) -> StepOutcome:
        if state.terminal:
            raise ValueError("cannot step a terminal state")
        i = state.next_component_index
        j = action.target_vm
        if not 1 <= j <= self.num_vms:
            raise ValueError(f"target vm {j} outside 1..{self.num_vms}")

        feasible = j not in state.occupied and self.fit_mask[i - 1][j - 1]
        if not feasible:
            next_state = MappingEpisodeState(
                next_component_index=i,
                anchor_vm=state.anchor_vm,
                occupied=state.occupied,
                terminal=True,
            )
            return StepOutcome(INFEASIBLE_PENALTY, next_state, feasible=False)

        reward = self.reward_table[i - 1][j - 1]
        done = i == self.num_components
        next_state = MappingEpisodeState(
            next_component_index=i if done else i + 1,
            anchor_vm=j,
            occupied=state.occupied | {j},
            terminal=done,
        )
        return StepOutcome(reward, next_state, feasible=True)


def step_reward(
    compute_req: float, storage_req: float, compute_cap: float, storage_cap: float,
    mode: RewardMode = RewardMode.WASTAGE,
) -> float:
    """Reward for one feasible placement; the environment's reward table holds
    the same values."""
    if compute_cap <= 0 or storage_cap <= 0:
        raise ValueError("capacities must be positive")
    return float(_placement_reward(compute_req / compute_cap, storage_req / storage_cap, mode))


def discounted_return(rewards: Sequence[float], gamma: float) -> float:
    """Finite discounted sum of a reward sequence."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    total = 0.0
    for k, reward in enumerate(rewards):
        total += (gamma**k) * reward
    return total


def constant_reward_return(reward: float, gamma: float) -> float:
    """Closed form of the infinite-horizon return when every reward equals ``reward``."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return reward / (1.0 - gamma)


def delayed_constant_return(reward: float, gamma: float, delay: int) -> float:
    """Constant-reward return that only starts paying after ``delay`` steps."""
    if delay < 0:
        raise ValueError("delay must be non-negative")
    return (gamma**delay) * constant_reward_return(reward, gamma)
