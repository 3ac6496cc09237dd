import gc
import json
import weakref

import numpy as np
import pytest
from scipy.stats import chi2

from priorfit import tensor as T
from priorfit.tensor import Tensor
from priorfit.agents import AgentConfig, make_agents
from priorfit.model import Model, ModelConfig
from priorfit.prior import CLASSIFICATION, REGRESSION, Dataset, GeneratorHyperSpace
from priorfit.train import (NLL_EPSILON, AdamState, TrainConfig, TrainLog,
                            _forward_episode_losses, nll_classification,
                            nll_regression, pretrain, sample_split, train_step)
from gradcheck import finite_diff


SPACE = GeneratorHyperSpace(feature_count=(2, 3), hidden_width=(6, 10),
                            layer_count=(2, 2), categorical_fraction=(0.0, 0.0))


def small_train_cfg(**kw):
    base = dict(model_lr=1e-3, datasets_per_step=4, accumulation_steps=1,
                total_datasets=12, rows=(16, 24), seed=7, eval_every=2)
    base.update(kw)
    return TrainConfig(**base)


MODEL_CFG = ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=24, feature_width=3)


def episode_nll(probs, test_labels, valid=None) -> float:
    """nll_classification for one episode whose test labels index the
    columns of probs; rows marked invalid carry labels absent from the
    training context."""
    idx = np.asarray(test_labels)[None, :]
    valid = np.ones(idx.shape, dtype=bool) if valid is None else np.asarray(valid)[None, :]
    return float(nll_classification(Tensor(np.asarray(probs)[None]), idx, valid).data[0])


class TestNLL:
    def test_uniform_prediction_gives_log_c(self):
        probs = np.full((3, 3), 1.0 / 3.0)
        assert episode_nll(probs, [0, 1, 2]) == pytest.approx(np.log(3.0), rel=1e-12)

    def test_certain_prediction_gives_zero(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = 1.0  # first test row has label 0
        probs[1, 1] = 1.0  # second test row has label 1
        assert episode_nll(probs, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_missing_class_contributes_log_epsilon(self):
        # the test row's label never appears in the training rows
        got = episode_nll([[0.5, 0.5]], [0], valid=[False])
        assert got == pytest.approx(-np.log(NLL_EPSILON), rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_row_wise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, l, C = 12, 7, 3
        labels = rng.integers(0, C, size=n)
        labels[:C] = np.arange(C)  # all classes in the context
        raw = rng.uniform(0.05, 1.0, size=(n - l, C))
        probs = raw / raw.sum(axis=1, keepdims=True)
        # independent oracle: plain python loop over rows
        total = 0.0
        for j, lab in enumerate(labels[l:]):
            total += -np.log(probs[j, lab])
        expected = total / (n - l)
        assert episode_nll(probs, labels[l:]) == pytest.approx(expected, rel=1e-12)

    def test_equals_cross_entropy_of_onehot_truth(self):
        rng = np.random.default_rng(9)
        labels = np.array([0, 1, 1, 0, 1])
        raw = rng.uniform(0.1, 1.0, size=(3, 2))
        probs = raw / raw.sum(axis=1, keepdims=True)
        onehot = np.eye(2)[labels[2:]]
        ce = -(onehot * np.log(probs)).sum(axis=1).mean()
        assert episode_nll(probs, labels[2:]) == pytest.approx(ce, rel=1e-12)

    def test_gaussian_at_mode(self):
        sigma = 0.7
        mu = Tensor(np.array([[1.5]]))
        out = nll_regression(mu, Tensor(np.array([[sigma]])), Tensor(np.array([[1.5]])))
        expected = np.log(sigma) + 0.5 * np.log(2 * np.pi)
        assert out.data[0] == pytest.approx(expected, rel=1e-12)

    def test_gaussian_gradient_wrt_mu(self):
        rng = np.random.default_rng(11)
        mu0 = rng.standard_normal((1, 4))
        sigma0 = rng.uniform(0.5, 2.0, size=(1, 4))
        y = rng.standard_normal((1, 4))
        mu = Tensor(mu0, requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(nll_regression(mu, Tensor(sigma0), Tensor(y)))
            tape.backward(loss)
        analytic = (mu0 - y) / sigma0 ** 2 / 4.0  # mean over the 4 test rows
        np.testing.assert_allclose(mu.grad, analytic, rtol=1e-10)
        fd = finite_diff(
            lambda m: float(nll_regression(Tensor(m), Tensor(sigma0), Tensor(y)).data.sum()),
            [mu0], 0)
        np.testing.assert_allclose(mu.grad, fd, rtol=1e-6)


def random_episode(task, d, n=14, seed=0):
    rng = np.random.default_rng(seed)
    if task == CLASSIFICATION:
        labels = np.array([0, 1] * (n // 2))
        rng.shuffle(labels)
        y, y_labels = labels.astype(float), labels
    else:
        y, y_labels = rng.standard_normal(n), None
    return Dataset(X=Tensor(rng.standard_normal((n, d))), y_values=Tensor(y),
                   y_labels=y_labels, cat_mask=np.zeros(d, dtype=bool), task=task)


class TestBatchedEpisodeLosses:
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_mixed_widths_sum_single_episode_losses(self, task):
        # dense embedding maps every episode onto feature_width on its own,
        # so an episode's loss must not depend on the widths beside it
        model = Model(MODEL_CFG, seed=5)
        widths = (2, 5, MODEL_CFG.feature_width, 1, 6)
        assert min(widths) < MODEL_CFG.feature_width < max(widths)
        eps = [random_episode(task, d, seed=i) for i, d in enumerate(widths)]
        batch = _forward_episode_losses(model, eps, 8, None).item()
        singles = [_forward_episode_losses(model, [ep], 8, None).item() for ep in eps]
        assert batch == pytest.approx(sum(singles), rel=1e-12)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("widths", [
        (3, 4),
        pytest.param((2, 5), marks=pytest.mark.xfail(
            strict=True, reason="patch mode mean-pools the zero patches padded "
            "up to the widest episode (ROADMAP open item 6)")),
    ])
    def test_patch_mode_widths_sum_single_episode_losses(self, task, widths):
        # feature_width 2: widths 3 and 4 both cover two patches, widths 2
        # and 5 cover one and three
        model = Model(ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=24,
                                  feature_width=2, embed_mode="patch"), seed=5)
        eps = [random_episode(task, d, seed=i) for i, d in enumerate(widths)]
        batch = _forward_episode_losses(model, eps, 8, None).item()
        singles = [_forward_episode_losses(model, [ep], 8, None).item() for ep in eps]
        assert batch == pytest.approx(sum(singles), rel=1e-12)

    def test_distinct_alphabets_and_absent_test_labels(self):
        # each context keeps its own sorted alphabet; test labels outside it,
        # below, between or above its classes, score at the probability floor
        model = Model(MODEL_CFG, seed=6)
        rng = np.random.default_rng(3)
        n, l = 12, 7
        label_rows = ([0, 1, 1, 0, 1, 0, 1, 2, 0, 1, 2, 1],
                      [3, 1, 4, 4, 1, 3, 4, 0, 2, 3, 5, 4],
                      [2, 2, 5, 5, 2, 5, 2, 5, 2, 1, 6, 3])
        datasets = []
        for labels in label_rows:
            labels = np.array(labels)
            datasets.append(Dataset(X=Tensor(rng.standard_normal((n, 3))),
                                    y_values=Tensor(labels.astype(float)),
                                    y_labels=labels, cat_mask=np.zeros(3, dtype=bool),
                                    task=CLASSIFICATION))
        batch = _forward_episode_losses(model, datasets, l, None).item()
        singles = [_forward_episode_losses(model, [ds], l, None).item()
                   for ds in datasets]
        assert batch == pytest.approx(sum(singles), rel=1e-12)
        for ds, single in zip(datasets, singles):
            classes = sorted(set(ds.y_labels[:l].tolist()))
            train01 = np.array([[classes.index(c) for c in ds.y_labels[:l]]])
            states = model.transformer(model.embed_episode(
                Tensor(ds.X.data[None]), Tensor(ds.y_values.data[None]), l), l)
            probs = model.class_head(states[:, l:], model.mixture_keys(states[:, :l]),
                                     train01, len(classes)).data[0]
            rows = [-np.log(probs[j, classes.index(c)]) if c in classes
                    else -np.log(NLL_EPSILON)
                    for j, c in enumerate(ds.y_labels[l:].tolist())]
            assert any(c not in classes for c in ds.y_labels[l:].tolist())
            assert single == pytest.approx(np.mean(rows), rel=1e-12)


class TestSampleSplit:
    def test_n4_forced(self):
        rng = np.random.default_rng(0)
        assert all(sample_split(4, rng) == 2 for _ in range(20))

    def test_bounds_hold(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(4, 60))
            l = sample_split(n, rng)
            assert max(2, int(np.ceil(0.1 * n))) <= l <= n - 2

    def test_uniform_over_admissible_range(self):
        rng = np.random.default_rng(2)
        n = 100
        lo, hi = 10, 98
        draws = np.array([sample_split(n, rng) for _ in range(10_000)])
        counts = np.bincount(draws, minlength=hi + 1)[lo:hi + 1]
        expected = 10_000 / (hi - lo + 1)
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, hi - lo)


def log_with_inf_gradient(a):
    """T.log whose backward returns inf, to make a step's backward fail."""
    a = T._as_tensor(a)
    return T._record("log", np.log(a.data), (a,), lambda g: (np.full_like(a.data, np.inf),))


class TestTrainStep:
    def test_deterministic_across_runs(self):
        recs = []
        for _ in range(2):
            model = Model(MODEL_CFG, seed=1)
            adam = AdamState()
            cfg = small_train_cfg()
            recs.append([train_step(model, [], cfg, SPACE, s, adam)["nll"]
                         for s in range(3)])
        assert recs[0] == recs[1]

    def test_zero_fraction_matches_agent_free(self):
        results = []
        for pool_kind in ("none", "zero"):
            model = Model(MODEL_CFG, seed=1)
            adam = AdamState()
            cfg = small_train_cfg()
            agents = [] if pool_kind == "none" else make_agents(
                cfg.datasets_per_step, SPACE, cfg.seed, AgentConfig(fraction=0.0))
            for s in range(3):
                train_step(model, agents, cfg, SPACE, s, adam)
            results.append(model.checksum())
        assert results[0] == results[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gradients_skip_step(self):
        model = Model(MODEL_CFG, seed=2)
        model.params["embed/w"].data = np.full_like(model.params["embed/w"].data, 1e308)
        before = model.checksum()
        rec = train_step(model, [], small_train_cfg(), SPACE, 0, AdamState())
        assert rec["skipped"]
        assert model.checksum() == before
        assert all(p.grad is None for p in model.parameters())

    def test_nll_falls_during_short_run(self):
        # scaled-down smoke check of the learning loop itself; the full
        # desk-scale run lives in the acceptance suite
        model = Model(MODEL_CFG, seed=4)
        adam = AdamState()
        cfg = small_train_cfg(model_lr=3e-3, datasets_per_step=8,
                              total_datasets=8 * 80, rows=(20, 30))
        nlls = [train_step(model, [], cfg, SPACE, s, adam)["nll"]
                for s in range(80)]
        assert np.mean(nlls[-10:]) < nlls[0]

    def test_accumulation_equivalence(self):
        # two micro-steps of two episodes equal one step of four episodes
        params = []
        for k, m in ((2, 2), (1, 4)):
            model = Model(MODEL_CFG, seed=3)
            cfg = small_train_cfg(datasets_per_step=m, accumulation_steps=k,
                                  total_datasets=4)
            train_step(model, [], cfg, SPACE, 0, AdamState())
            params.append({name: p.data.copy() for name, p in model.params.items()})
        for name in params[0]:
            np.testing.assert_allclose(params[0][name], params[1][name],
                                       rtol=1e-6, atol=1e-12, err_msg=name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_tapes_freed_without_cyclic_gc(self, monkeypatch):
        # Tensor._producer <-> Tape._nodes is a reference cycle; the tape
        # must break it so each step's graph is freed without the cyclic
        # collector, also on a step whose backward raises GradientNaN
        tapes = []

        class RecordedTape(T.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(T, "Tape", RecordedTape)
        model = Model(MODEL_CFG, seed=5)
        cfg = small_train_cfg()
        agents = make_agents(cfg.datasets_per_step, SPACE, cfg.seed,
                             AgentConfig(fraction=0.5))
        adam = AdamState()
        gc.collect()
        gc.disable()
        try:
            for s in range(3):
                assert not train_step(model, agents, cfg, SPACE, s, adam)["skipped"]
            with monkeypatch.context() as patch:
                patch.setattr(T, "log", log_with_inf_gradient)
                assert train_step(model, agents, cfg, SPACE, 3, adam)["skipped"]
            alive = [t for t in tapes if t() is not None]
        finally:
            gc.enable()
        assert len(tapes) == 4
        assert alive == []


class TestPretrain:
    def test_budget_of_one_effective_batch_is_one_step(self, tmp_path):
        cfg = small_train_cfg(datasets_per_step=4, accumulation_steps=1,
                              total_datasets=4)
        model, log = pretrain(cfg, MODEL_CFG, SPACE,
                              log_path=tmp_path / "log.ndjson")
        assert len(log.nll_series()) == 1
        on_disk = TrainLog.read(tmp_path / "log.ndjson")
        assert len([r for r in on_disk if "nll" in r]) == 1

    def test_step_indices_monotone(self, tmp_path):
        cfg = small_train_cfg(total_datasets=16)
        _, log = pretrain(cfg, MODEL_CFG, SPACE)
        steps = [r["step"] for r in log.records if "nll" in r]
        assert steps == sorted(steps) == list(range(4))

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = small_train_cfg(total_datasets=24, eval_every=2,
                              datasets_per_step=4)
        agent_cfg = AgentConfig(fraction=0.25, reset_period=3)
        full_model, full_log = pretrain(
            cfg, MODEL_CFG, SPACE, agent_cfg,
            checkpoint_path=tmp_path / "full.ckpt")

        # interrupted arm: stop after 4 of 6 steps, then resume
        pretrain(cfg, MODEL_CFG, SPACE, agent_cfg,
                 checkpoint_path=tmp_path / "half.ckpt", stop_after_steps=4)
        resumed_model, resumed_log = pretrain(
            cfg, MODEL_CFG, SPACE, agent_cfg,
            checkpoint_path=tmp_path / "resumed.ckpt",
            resume_from=tmp_path / "half.ckpt")

        full_nll = {r["step"]: r["nll"] for r in full_log.records if "nll" in r}
        resumed_nll = {r["step"]: r["nll"] for r in resumed_log.records if "nll" in r}
        assert set(resumed_nll) == {4, 5}
        for step, value in resumed_nll.items():
            assert value == full_nll[step]
        assert resumed_model.checksum() == full_model.checksum()

    def test_resume_over_longer_log_matches_uninterrupted_log(self, tmp_path):
        # an interruption after step 4 was logged but before its checkpoint:
        # the resumed run must not log step 4 twice
        cfg = small_train_cfg(total_datasets=24, eval_every=2,
                              datasets_per_step=4)
        pretrain(cfg, MODEL_CFG, SPACE, log_path=tmp_path / "full.ndjson")
        pretrain(cfg, MODEL_CFG, SPACE, checkpoint_path=tmp_path / "half.ckpt",
                 stop_after_steps=4)
        full = (tmp_path / "full.ndjson").read_text()
        cut = tmp_path / "cut.ndjson"
        cut.write_text("".join(l for l in full.splitlines(keepends=True)
                               if json.loads(l)["step"] <= 4))
        pretrain(cfg, MODEL_CFG, SPACE, log_path=cut,
                 resume_from=tmp_path / "half.ckpt")
        assert cut.read_text() == full

    def test_eval_every_below_one_refused(self):
        # eval_every=0 used to run step 0 and then divide by zero before any checkpoint
        with pytest.raises(ValueError, match="eval_every"):
            small_train_cfg(eval_every=0)

    def test_resume_rejects_config_drift(self, tmp_path):
        cfg = small_train_cfg(total_datasets=8)
        pretrain(cfg, MODEL_CFG, SPACE, checkpoint_path=tmp_path / "a.ckpt")
        with pytest.raises(ValueError):
            pretrain(small_train_cfg(total_datasets=8, seed=99), MODEL_CFG, SPACE,
                     resume_from=tmp_path / "a.ckpt")

    def test_resume_rejects_agent_count_drift(self, tmp_path):
        # an agent checkpoint resumed without agents would silently drop them
        cfg = small_train_cfg(total_datasets=8)
        pretrain(cfg, MODEL_CFG, SPACE, AgentConfig(fraction=0.5),
                 checkpoint_path=tmp_path / "a.ckpt", stop_after_steps=1)
        for agent_cfg in (None, AgentConfig(fraction=0.0), AgentConfig(fraction=0.25)):
            with pytest.raises(ValueError, match="agents"):
                pretrain(cfg, MODEL_CFG, SPACE, agent_cfg,
                         resume_from=tmp_path / "a.ckpt")

    def test_final_checkpoint_predicts(self, tmp_path):
        cfg = small_train_cfg(total_datasets=8)
        pretrain(cfg, MODEL_CFG, SPACE, checkpoint_path=tmp_path / "m.ckpt")
        loaded, extra, _ = Model.load(tmp_path / "m.ckpt")
        assert extra["next_step"] == 2
        rng = np.random.default_rng(0)
        states = loaded.transformer(loaded.embed_episode(
            Tensor(rng.standard_normal((1, 8, 3))),
            Tensor(rng.integers(0, 2, size=(1, 8)).astype(float)), 4), 4)
        out = loaded.class_head(states[:, 4:], loaded.mixture_keys(states[:, :4]),
                                np.array([[0, 1, 0, 1]]), 2)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_eval_hook_called_at_cadence(self):
        calls = []

        def hook(model, step):
            calls.append(step)
            return {"probe": float(step)}

        cfg = small_train_cfg(total_datasets=24, eval_every=3)
        _, log = pretrain(cfg, MODEL_CFG, SPACE, eval_hook=hook)
        assert calls == [2, 5]
        evals = [r for r in log.records if "eval" in r]
        assert [r["eval"]["probe"] for r in evals] == [2.0, 5.0]

    def test_mixed_task_training_runs(self):
        space = GeneratorHyperSpace(feature_count=(2, 3), hidden_width=(6, 8),
                                    layer_count=(2, 2), classification_prob=0.5)
        cfg = small_train_cfg(total_datasets=12, datasets_per_step=6)
        model, log = pretrain(cfg, MODEL_CFG, space)
        assert all(np.isfinite(v) for v in log.nll_series())

    def test_adversarial_training_runs_and_resets(self):
        cfg = small_train_cfg(total_datasets=24, datasets_per_step=4)
        agent_cfg = AgentConfig(fraction=0.5, reset_period=2)
        model, log = pretrain(cfg, MODEL_CFG, SPACE, agent_cfg)
        resets = sum(r.get("resets", 0) for r in log.records)
        assert resets >= 2  # period 2 over 6 steps, 2 agents
        assert all(np.isfinite(v) for v in log.nll_series())
