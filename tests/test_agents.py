import numpy as np
import pytest

from priorfit import tensor as T
from priorfit.tensor import Tensor
from priorfit.agents import AgentConfig, AgentState, ascend_or_reset, make_agents
from priorfit.model import Model, ModelConfig
from priorfit.prior import (CLASSIFICATION, Dataset, GeneratorHyperSpace,
                            generate_dataset)
from priorfit.train import AdamState, _forward_episode_losses


SPACE = GeneratorHyperSpace(feature_count=(2, 4), hidden_width=(6, 10),
                            layer_count=(2, 3))


def tiny_model(seed=0, **kw):
    return Model(ModelConfig(d_model=16, n_blocks=2, n_heads=2, d_ff=24,
                             feature_width=4, **kw), seed=seed)


def adversarial_episode(agent, model, n=20, seed=0):
    """A soft-generated dataset from the agent and its split, n // 2."""
    return generate_dataset(agent.generator, n, seed, soft=True), n // 2


class TestAgentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(fraction=1.5)
        with pytest.raises(ValueError):
            AgentConfig(temperature=0.0)
        with pytest.raises(ValueError):
            AgentConfig(reset_period=0)

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    def test_negative_rate_refused(self, field):
        # a negative lr makes the ascent descend, so the agents ease the data
        with pytest.raises(ValueError, match=f"agent {field} must be non-negative"):
            AgentConfig(**{field: -0.1})


class TestMakeAgents:
    def test_composition_rounds_and_stays_fixed(self):
        agents = make_agents(64, SPACE, run_seed=0, agent_cfg=AgentConfig(fraction=0.125))
        assert len(agents) == 8
        for _ in range(5):
            for agent in agents:
                agent.maybe_reset()
            assert len(agents) == 8
        # train_step's rule: slot s is adversarial when s < len(agents)
        assert [a.slot for a in agents] == list(range(8))
        assert all(s < len(agents) for s in range(8))
        assert not any(s < len(agents) for s in range(8, 64))

    def test_zero_fraction_has_no_agents(self):
        agents = make_agents(16, SPACE, run_seed=0, agent_cfg=AgentConfig(fraction=0.0))
        assert agents == []
        assert make_agents(16, SPACE, run_seed=0, agent_cfg=None) == []


class TestResetSchedule:
    def test_period_counts_steps(self):
        agent = AgentState(AgentConfig(reset_period=3), SPACE, run_seed=1, slot=0)
        hits = [agent.maybe_reset() for _ in range(9)]
        assert hits == [False, False, True] * 3
        assert agent.reset_count == 3
        assert agent.steps_since_reset == 0

    def test_period_one_resets_every_step(self):
        agent = AgentState(AgentConfig(reset_period=1), SPACE, run_seed=1, slot=0)
        assert all(agent.maybe_reset() for _ in range(4))

    def test_clock_invariant(self):
        cfg = AgentConfig(reset_period=5)
        agent = AgentState(cfg, SPACE, run_seed=2, slot=1)
        for _ in range(23):
            agent.maybe_reset()
            assert agent.steps_since_reset < cfg.reset_period

    def test_reset_reproducible(self):
        a = AgentState(AgentConfig(reset_period=2), SPACE, run_seed=3, slot=0)
        b = AgentState(AgentConfig(reset_period=2), SPACE, run_seed=3, slot=0)
        for agent in (a, b):
            agent.maybe_reset()
            agent.maybe_reset()
        assert a.reset_count == b.reset_count == 1
        for wa, wb in zip(a.generator.weights, b.generator.weights):
            np.testing.assert_array_equal(wa.data, wb.data)
        np.testing.assert_array_equal(a.generator.predictor_neurons,
                                      b.generator.predictor_neurons)


def certain_episode(model):
    """Single-class training context: the mixture head emits probability one."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    labels = np.array([0, 0, 0, 0, 0, 0])
    ds = Dataset(X=x, y_values=Tensor(labels.astype(float)), y_labels=labels,
                 cat_mask=np.zeros(3, dtype=bool), task=CLASSIFICATION, n_classes=2)
    return ds, 4


class TestAgentLoss:
    """The agents climb the training objective itself: the summed per-episode
    NLL of _forward_episode_losses, backpropagated once."""

    def test_uniform_predictor_gives_log_c(self):
        model = tiny_model(seed=5)
        for name in ("mixture/weight_q", "mixture/weight_k",
                     "mixture/gate_q", "mixture/gate_k"):
            model.params[name].data = np.zeros_like(model.params[name].data)
        rng = np.random.default_rng(1)
        # balanced training labels so class frequencies are uniform over C=2
        labels = np.array([0, 1, 0, 1, 0, 1, 1, 0])
        ds = Dataset(X=Tensor(rng.standard_normal((8, 3)), requires_grad=True),
                     y_values=Tensor(labels.astype(float)), y_labels=labels,
                     cat_mask=np.zeros(3, dtype=bool), task=CLASSIFICATION)
        loss = _forward_episode_losses(model, [ds], 6, None)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_predictor_gives_zero(self):
        model = tiny_model(seed=6)
        ds, l = certain_episode(model)
        loss = _forward_episode_losses(model, [ds], l, None)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_disconnected_episode_rejected(self, caplog):
        # an episode generated in hard mode off the tape never reaches the
        # agent's weights, so the agent is reset instead of ascending
        model = tiny_model(seed=7)
        agent = AgentState(AgentConfig(), SPACE, run_seed=4, slot=0)
        ds = generate_dataset(agent.generator, 16, seed=0)
        with T.Tape() as tape:
            loss = _forward_episode_losses(model, [ds], 8, None)
            tape.backward(loss)
        T.zero_grads(model.parameters())
        assert all(p.grad is None for p in agent.parameters())
        with caplog.at_level("INFO", logger="priorfit.agents"):
            assert not ascend_or_reset(agent)
        assert agent.reset_count == 1
        assert "reset (nan-gradients)" in caplog.text


class TestGradientFlow:
    @pytest.mark.parametrize("seed", range(50))
    def test_some_weight_receives_gradient(self, seed):
        # a single-class training context makes the mixture output constant,
        # so the loss provably carries no gradient; resample those episodes
        model = tiny_model(seed=9)
        agent = AgentState(AgentConfig(), SPACE, run_seed=100 + seed, slot=0)
        with T.Tape() as tape:
            for attempt in range(20):
                try:
                    ds, l = adversarial_episode(agent, model, n=16,
                                                seed=1000 * seed + attempt)
                except RuntimeError:
                    agent.reset(reason="degenerate")
                    continue
                if np.unique(ds.y_labels[:l]).size >= 2:
                    break
            else:
                pytest.fail("no non-degenerate episode found")
            loss = _forward_episode_losses(model, [ds], l, None)
            tape.backward(loss)
        nonzero = any(w.grad is not None and np.abs(w.grad).max() > 0
                      for w in agent.generator.weights)
        assert nonzero
        T.zero_grads(model.parameters())


class TestJointUpdate:
    """One backward pass drives both updates, as in train_step: Adam descent
    on the model, sign-flipped ascent on the agent."""

    def run_joint(self, agent_lr, model_lr, wd=0.0, seed=11):
        model = tiny_model(seed=10)
        cfg = AgentConfig(lr=agent_lr, weight_decay=wd)
        agent = AgentState(cfg, SPACE, run_seed=seed, slot=0)
        w_before = [w.data.copy() for w in agent.generator.weights]
        p_before = {k: v.data.copy() for k, v in model.params.items()}
        with T.Tape() as tape:
            ds, l = adversarial_episode(agent, model, n=16, seed=seed)
            loss = _forward_episode_losses(model, [ds], l, None)
            tape.backward(loss)
        assert ascend_or_reset(agent)
        AdamState().step(model.params, model_lr)
        w_moved = any(not np.array_equal(b, w.data)
                      for b, w in zip(w_before, agent.generator.weights))
        p_moved = any(not np.array_equal(p_before[k], v.data)
                      for k, v in model.params.items())
        return w_moved, p_moved

    def test_zero_agent_lr_is_ascent_noop(self):
        w_moved, p_moved = self.run_joint(agent_lr=0.0, model_lr=0.01)
        assert not w_moved and p_moved

    def test_zero_model_lr_is_descent_noop(self):
        w_moved, p_moved = self.run_joint(agent_lr=0.1, model_lr=0.0)
        assert w_moved and not p_moved

    def test_nan_gradients_trigger_reset(self):
        agent = AgentState(AgentConfig(), SPACE, run_seed=12, slot=0)
        for p in agent.parameters():
            p.grad = np.full_like(p.data, np.nan)
        gen_before = agent.reset_count
        assert not ascend_or_reset(agent)
        assert agent.reset_count == gen_before + 1

    @pytest.mark.parametrize("seed", range(10))
    def test_single_ascent_step_does_not_ease_the_data(self, seed):
        """Directional check: regenerating with the same input seed after one
        small ascent step must not reduce the frozen model's NLL."""
        model = tiny_model(seed=13)
        cfg = AgentConfig(lr=1e-3, weight_decay=0.0)
        agent = AgentState(cfg, SPACE, run_seed=200 + seed, slot=0)
        ep_seed = 1000 + seed

        def frozen_nll():
            ds = generate_dataset(agent.generator, 24, ep_seed, soft=True)
            return _forward_episode_losses(model, [ds], 12, None)

        with T.Tape() as tape:
            loss = frozen_nll()
            before = loss.item()
            tape.backward(loss)
        T.ascend_step(agent.parameters(), cfg.lr)
        T.zero_grads(model.parameters() + agent.parameters())
        after = frozen_nll().item()
        assert after >= before - 1e-6
