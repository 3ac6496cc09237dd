"""Adversarial data agents: generators whose MLP weights climb the
meta-learner's prediction loss.

An agent wraps a generator instance with grad-enabled weights and a positive
soft-discretization temperature so episode generation stays connected to the
weights on the tape. The training loop backpropagates the episode loss once;
the model descends those gradients while the agent ascends them (plain SGD
with decoupled weight decay). Every reset_period optimizer steps the agent's
MLP and all its random factors (feature count, class count, discretizer
draws, task kind) are re-sampled, which keeps the generator from settling
into a stalemate with the model.

make_agents builds one agent per adversarial slot: the first round(fraction
* m) of a step's m generator slots. The training loop takes that plain list;
an empty list is the agent-free run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .prior import GeneratorHyperSpace, sample_generator
from .seeding import NS_AGENT_RESET, derive_seed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AgentConfig:
    """Agent block of the run configuration."""

    fraction: float = 0.125
    lr: float = 0.1
    weight_decay: float = 1e-5
    temperature: float = 0.01
    reset_period: int = 2000

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("adversarial fraction must lie in [0, 1]")
        if not self.lr >= 0.0:  # a negative rate would descend, easing the data
            raise ValueError(f"agent lr must be non-negative, got {self.lr}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"agent weight_decay must be non-negative, got {self.weight_decay}")
        if self.temperature <= 0:
            raise ValueError("agent temperature must be positive for gradient flow")
        if self.reset_period < 1:
            raise ValueError("reset_period must be at least 1")


class AgentState:
    """One adversarial slot: its live generator plus the reset clock."""

    def __init__(self, cfg: AgentConfig, space: GeneratorHyperSpace,
                 run_seed: int, slot: int):
        self.cfg = cfg
        self.space = space
        self.run_seed = run_seed
        self.slot = slot
        self.reset_count = 0
        self.steps_since_reset = 0
        self.generator = self._sample()

    def _sample(self):
        seed = derive_seed(self.run_seed, NS_AGENT_RESET, self.slot, self.reset_count)
        g = sample_generator(self.space, seed)
        g.set_requires_grad(True)
        g.set_temperature(self.cfg.temperature)
        return g

    def parameters(self) -> list[Tensor]:
        return self.generator.parameters()

    def reset(self, reason: str = "schedule") -> None:
        self.reset_count += 1
        self.steps_since_reset = 0
        self.generator = self._sample()
        log.info("agent %d reset (%s), generation %d", self.slot, reason, self.reset_count)

    def maybe_reset(self) -> bool:
        """Advance the clock by one training step; re-sample when it hits the
        period. Returns True when a reset happened."""
        self.steps_since_reset += 1
        if self.steps_since_reset >= self.cfg.reset_period:
            self.reset()
            return True
        return False


def make_agents(m: int, space: GeneratorHyperSpace, run_seed: int,
                agent_cfg: Optional[AgentConfig]) -> list[AgentState]:
    """One agent for each of the first round(fraction * m) slots, which stay
    adversarial for the whole run; the other slots draw a fresh ordinary
    generator every episode. No config, or a share that rounds to zero,
    gives the empty list of the agent-free run."""
    if m < 1:
        raise ValueError("a step needs at least one generator slot")
    n_adv = int(round(agent_cfg.fraction * m)) if agent_cfg else 0
    return [AgentState(agent_cfg, space, run_seed, slot) for slot in range(n_adv)]


def ascend_or_reset(agent: AgentState) -> bool:
    """Climb the populated gradients, or reset the agent when they are
    missing or non-finite. Returns True when the ascent step was taken."""
    grads_ok = all(p.grad is not None and np.isfinite(p.grad).all()
                   for p in agent.parameters())
    if grads_ok:
        T.ascend_step(agent.parameters(), agent.cfg.lr, agent.cfg.weight_decay)
        return True
    log.warning("agent %d: non-finite or missing gradients", agent.slot)
    agent.reset(reason="nan-gradients")
    return False
