"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

The desk-scale pretraining fixture (criterion 7) is shared with criteria 5
and 8; it runs once per session.
"""

import time

import numpy as np
import pytest

from priorfit import infer, tensor as T
from priorfit.tensor import Tensor
from priorfit.agents import AgentConfig, AgentState
from priorfit.cli import main
from priorfit.diversity import (build_adversarial_collection, histogram_density,
                                kl_divergence, ordinary_collection)
from priorfit.infer import predict
from priorfit.metrics import roc_auc_ovo, rank_and_wins
from priorfit.model import Model, ModelConfig, Prediction
from priorfit.prior import (CLASSIFICATION, Dataset, GeneratorHyperSpace,
                            generate_dataset, hard_discretize,
                            sample_generator, soft_discretize)
from priorfit.train import TrainConfig, _forward_episode_losses, pretrain

from gradcheck import check_op
from test_metrics import ovo_counting_oracle, rank_sorting_oracle
from test_prior import random_spec


def check(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures

TINY_MODEL_CFG = ModelConfig(d_model=16, n_blocks=2, n_heads=2, d_ff=24,
                             feature_width=4)

SMOOTH_SPACE = GeneratorHyperSpace(feature_count=(2, 4), hidden_width=(6, 12),
                                   layer_count=(2, 3),
                                   activations=("tanh", "gelu"),
                                   categorical_fraction=(0.3, 0.5),
                                   noise_scale=(0.0, 0.15))

DESK_SPACE = GeneratorHyperSpace(feature_count=(2, 2), hidden_width=(8, 24),
                                 layer_count=(2, 4), class_count=(2, 3),
                                 categorical_fraction=(0.0, 0.4),
                                 noise_scale=(0.05, 0.3), dropout=(0.0, 0.6))
DESK_MODEL_CFG = ModelConfig(d_model=64, n_blocks=3, n_heads=2, d_ff=128,
                             feature_width=4)
DESK_TRAIN_CFG = TrainConfig(model_lr=1e-5, datasets_per_step=16,
                             accumulation_steps=1, total_datasets=16 * 2000,
                             rows=(60, 160), seed=1234, eval_every=100,
                             dtype="float32")
DESK_AGENT_CFG = AgentConfig(fraction=0.125, lr=0.1, weight_decay=1e-5,
                             temperature=0.01, reset_period=2000)


def linear_episode(seed: int, n: int = 200):
    """Held-out evaluation task: a random linear boundary over two standard
    normal features, 80-20 split."""
    rng = np.random.default_rng(seed)
    l = int(0.8 * n)
    while True:
        x = rng.standard_normal((n, 2))
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        y = (x @ w + rng.uniform(-0.3, 0.3) > 0).astype(int)
        if np.unique(y[:l]).size == 2 and np.unique(y[l:]).size == 2:
            return x, y, l


def linear_auc(model: Model, seeds) -> float:
    aucs = []
    for s in seeds:
        x, y, l = linear_episode(s)
        train = Dataset(X=Tensor(x[:l]), y_values=Tensor(y[:l].astype(float)),
                        y_labels=y[:l], cat_mask=np.zeros(2, dtype=bool),
                        task=CLASSIFICATION)
        pred = predict(model, train, x[l:])
        aucs.append(roc_auc_ovo(pred.probs, y[l:], classes=pred.classes))
    return float(np.mean(aucs))


PROBE_SEEDS = [9000 + i for i in range(48)]
HELD_OUT_SEEDS = [7000 + i for i in range(50)]


@pytest.fixture(scope="module")
def desk_run():
    """Criterion 7's pretraining run, shared with criteria 5 and 8."""
    t0 = time.time()

    def hook(model, step):
        return {"auc": linear_auc(model, PROBE_SEEDS)}

    model, log = pretrain(DESK_TRAIN_CFG, DESK_MODEL_CFG, DESK_SPACE,
                          DESK_AGENT_CFG, eval_hook=hook)
    elapsed = time.time() - t0
    curve = [(r["step"], r["eval"]["auc"]) for r in log.records if "eval" in r]
    return {"model": model, "curve": curve, "elapsed": elapsed, "log": log}


# ---------------------------------------------------------------------------
# 1. gradient correctness


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0

        # every differentiable primitive against central finite differences
        primitive_cases = [
            (T.add, lambda r, s: [r.standard_normal(s)] * 2),
            (T.sub, lambda r, s: [r.standard_normal(s)] * 2),
            (T.mul, lambda r, s: [r.standard_normal(s)] * 2),
            (lambda a, b: T.div(a, T.add(T.mul(b, b), 1.0)),
             lambda r, s: [r.standard_normal(s)] * 2),
            (T.log, lambda r, s: [r.uniform(0.5, 3.0, s)]),
            (T.log1p, lambda r, s: [r.uniform(-0.7, 2.0, s)]),
            (T.tanh, lambda r, s: [r.standard_normal(s)]),
            (T.sigmoid, lambda r, s: [r.standard_normal(s)]),
            (T.gelu, lambda r, s: [r.standard_normal(s)]),
            (T.softplus, lambda r, s: [r.standard_normal(s)]),
            (T.softmax, lambda r, s: [r.standard_normal(s)]),
            (lambda a: T.sqrt(T.add(T.mul(a, a), 0.3)), lambda r, s: [r.standard_normal(s)]),
            (lambda a: T.mean(a, axis=-1), lambda r, s: [r.standard_normal(s)]),
            (lambda a: T.variance(a, axis=-1), lambda r, s: [r.standard_normal(s)]),
            (lambda a: T.sum_(a), lambda r, s: [r.standard_normal(s)]),
            (lambda a: T.relu(T.add(a, 3.0)), lambda r, s: [r.uniform(-1, 1, s)]),
            (lambda a: T.clip(a, -2.0, 2.0), lambda r, s: [r.uniform(-1.5, 1.5, s)]),
            (lambda a: T.layer_norm(a, Tensor(np.ones(a.shape[-1])),
                                    Tensor(np.zeros(a.shape[-1]))),
             lambda r, s: [r.standard_normal(s)]),
        ]
        for op, make in primitive_cases:
            for _ in range(3):
                rank = rng.integers(1, 4)
                shape = tuple(int(v) for v in rng.integers(2, 5, size=rank))
                worst = max(worst, check_op(op, make(rng, shape), rng))
        # structural primitives
        x3 = rng.standard_normal((3, 4, 5))
        worst = max(worst, check_op(lambda a: T.reshape(a, (12, 5)), [x3], rng))
        worst = max(worst, check_op(lambda a: T.permute(a, (0, 2, 1)), [x3], rng))
        worst = max(worst, check_op(lambda a: a[1:, :, 1:4], [x3], rng))
        worst = max(worst, check_op(
            T.matmul, [rng.standard_normal((4, 3)), rng.standard_normal((3, 2))], rng))
        idx = rng.integers(0, 5, size=6)
        worst = max(worst, check_op(lambda a: T.take(a, idx, axis=2), [x3], rng))
        sidx = rng.integers(0, 3, size=(2, 6))
        worst = max(worst, check_op(
            lambda a: T.scatter_add(a, sidx, 3), [rng.standard_normal((2, 4, 6))], rng))
        for key_count in (4, 2):
            worst = max(worst, check_op(
                lambda *a: T.attention(*a, 2, key_count)[0],
                [rng.standard_normal((2, 4, 4))]
                + [rng.standard_normal((4, 4)) / 2.0 for _ in range(4)], rng))

        model_err, model_seeds = self._composite_model_path()
        agent_err, agent_seeds = self._composite_agent_path()
        worst = max(worst, model_err, agent_err)
        elapsed = time.time() - t0
        check(1, worst <= 1e-4 and elapsed <= 300 and model_seeds >= 50
              and agent_seeds >= 50,
              f"worst rel err {worst:.2e} over primitives + {model_seeds} model-path "
              f"and {agent_seeds} agent-path seeds in {elapsed:.0f}s")

    @staticmethod
    def _directional_fd(f, apply_shift, h: float) -> float:
        apply_shift(h)
        hi = f()
        apply_shift(-2 * h)
        lo = f()
        apply_shift(h)
        return (hi - lo) / (2 * h)

    def _composite_model_path(self, n_seeds: int = 50):
        """Episode NLL -> model parameters, via directional derivatives."""
        worst = 0.0
        model = Model(TINY_MODEL_CFG, seed=77)
        names = list(model.params)
        for seed in range(n_seeds):
            rng = np.random.default_rng(500 + seed)
            g = sample_generator(SMOOTH_SPACE, seed)
            try:
                ds = generate_dataset(g, 14, seed=seed)
            except RuntimeError:
                continue
            direction = {name: rng.standard_normal(model.params[name].shape)
                         for name in names}

            def f():
                return float(_forward_episode_losses(model, [ds], 8, None).data)

            def shift(h):
                for name in names:
                    p = model.params[name]
                    p.data = p.data + h * direction[name]

            with T.Tape() as tape:
                loss = _forward_episode_losses(model, [ds], 8, None)
                tape.backward(loss)
            # heads outside this episode's task carry no gradient and do not
            # move the loss either
            analytic = sum(float((model.params[nm].grad * direction[nm]).sum())
                           for nm in names if model.params[nm].grad is not None)
            T.zero_grads(model.parameters())
            fd = self._directional_fd(f, shift, 1e-5)
            denom = max(abs(analytic), abs(fd), 1e-6)
            worst = max(worst, abs(analytic - fd) / denom)
        return worst, n_seeds

    def _composite_agent_path(self, n_seeds: int = 50):
        """Episode NLL -> agent MLP weights, through the differentiable
        discretization and normalization. Seeds whose finite differences are
        step-size inconsistent (a kink was crossed) are resampled."""
        worst = 0.0
        model = Model(TINY_MODEL_CFG, seed=78)
        done = 0
        candidate = 0
        while done < n_seeds and candidate < 3 * n_seeds:
            candidate += 1
            agent = AgentState(AgentConfig(temperature=0.05), SMOOTH_SPACE,
                               run_seed=600 + candidate, slot=0)
            params = agent.parameters()
            rng = np.random.default_rng(900 + candidate)
            direction = [rng.standard_normal(p.shape) for p in params]
            ep_seed = 4000 + candidate

            def f():
                try:
                    ds = generate_dataset(agent.generator, 12, ep_seed, soft=True)
                except RuntimeError:
                    return None
                return float(_forward_episode_losses(
                    model, [ds], 7, None).data)

            def shift(h):
                for p, u in zip(params, direction):
                    p.data = p.data + h * u

            if f() is None:
                continue
            try:
                with T.Tape() as tape:
                    ds = generate_dataset(agent.generator, 12, ep_seed, soft=True)
                    loss = _forward_episode_losses(model, [ds], 7, None)
                    tape.backward(loss)
            except RuntimeError:
                continue
            analytic = sum(float((p.grad * u).sum())
                           for p, u in zip(params, direction) if p.grad is not None)
            T.zero_grads(model.parameters() + params)
            fd_a = self._directional_fd(f, shift, 1e-5)
            fd_b = self._directional_fd(f, shift, 2.5e-6)
            scale = max(abs(fd_a), abs(fd_b), 1e-6)
            if abs(fd_a - fd_b) / scale > 5e-4:
                continue  # discretization branch boundary inside the stencil
            done += 1
            denom = max(abs(analytic), abs(fd_a), 1e-6)
            worst = max(worst, abs(analytic - fd_a) / denom)
        assert done >= n_seeds, "too many kink-contaminated seeds"
        return worst, done


# ---------------------------------------------------------------------------
# 2. soft-discretization limit


class TestCriterion2SoftLimit:
    def test_soft_discretization_limit(self):
        max_gap = {0.01: 0.0, 0.1: 0.0}
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            spec = random_spec(rng, temperature=0.0)
            col = rng.standard_normal(int(rng.integers(5, 50)))
            soft0 = soft_discretize(Tensor(col), spec).data
            hard = hard_discretize(col, spec)
            assert np.array_equal(soft0, hard.astype(np.float64)), \
                f"temperature-zero mismatch at seed {seed}"
            for tau in (0.01, 0.1):
                spec.temperature = tau
                gap = np.abs(soft_discretize(Tensor(col), spec).data
                             - hard.astype(np.float64))
                max_gap[tau] = max(max_gap[tau], float(gap.max()))
        bound_ok = all(max_gap[tau] <= tau * np.log(2.0) + 1e-12
                       for tau in (0.01, 0.1))
        check(2, bound_ok,
              "temperature-zero output equals ranking discretization on 100 "
              f"specs; offsets {max_gap[0.01]:.4f}/{max_gap[0.1]:.4f} within "
              f"tau*log2 bounds {0.01 * np.log(2):.4f}/{0.1 * np.log(2):.4f}")


# ---------------------------------------------------------------------------
# 3. adversarial directionality


class TestCriterion3Directionality:
    def test_ascent_does_not_ease_data(self):
        model = Model(TINY_MODEL_CFG, seed=79)
        space = GeneratorHyperSpace(feature_count=(2, 4), hidden_width=(6, 12),
                                    layer_count=(2, 3),
                                    categorical_fraction=(0.2, 0.5),
                                    noise_scale=(0.0, 0.15))
        wins, trials = 0, 0
        seed = 0
        while trials < 50:
            seed += 1
            agent = AgentState(AgentConfig(lr=1e-3, weight_decay=0.0),
                               space, run_seed=3000 + seed, slot=0)
            ep_seed = 5000 + seed

            def frozen_nll():
                ds = generate_dataset(agent.generator, 24, ep_seed, soft=True)
                return _forward_episode_losses(model, [ds], 12, None)

            try:
                with T.Tape() as tape:
                    loss = frozen_nll()
                    before = loss.item()
                    tape.backward(loss)
            except RuntimeError:
                continue
            T.ascend_step(agent.parameters(), 1e-3)
            T.zero_grads(model.parameters() + agent.parameters())
            after = frozen_nll().item()
            trials += 1
            if after >= before - 1e-6:
                wins += 1
        check(3, wins >= 45,
              f"{wins}/50 single ascent steps left the frozen model's NLL "
              "non-decreased (slack 1e-6)")


# ---------------------------------------------------------------------------
# 4. ablation equivalence


class TestCriterion4Ablation:
    def test_zero_fraction_bit_identical_to_agent_free(self, tmp_path):
        space = GeneratorHyperSpace(feature_count=(2, 3), hidden_width=(6, 10),
                                    layer_count=(2, 2),
                                    categorical_fraction=(0.0, 0.2))
        cfg = TrainConfig(model_lr=1e-3, datasets_per_step=4,
                          total_datasets=24, rows=(16, 24), seed=11,
                          eval_every=3)
        blobs = []
        for arm, agent_cfg in (("fraction-zero", AgentConfig(fraction=0.0)),
                               ("agent-free", None)):
            path = tmp_path / f"{arm}.npz"
            pretrain(cfg, TINY_MODEL_CFG, space, agent_cfg, checkpoint_path=path)
            blobs.append(path.read_bytes())
        check(4, blobs[0] == blobs[1],
              "fraction-0.0 run checkpoint is byte-identical to the agent-free run")


# ---------------------------------------------------------------------------
# 5. mixture-block class generalization


class TestCriterion5ClassGeneralization:
    def test_five_classes_after_three_class_pretraining(self, desk_run):
        model = desk_run["model"]
        assert DESK_SPACE.class_count[1] <= 3
        rng = np.random.default_rng(55)
        n, l, C = 60, 40, 5
        x = rng.standard_normal((n, 2))
        labels = rng.integers(0, C, size=n)
        labels[:C] = np.arange(C)
        train = Dataset(X=Tensor(x[:l]), y_values=Tensor(labels[:l].astype(float)),
                        y_labels=labels[:l], cat_mask=np.zeros(2, dtype=bool),
                        task=CLASSIFICATION)
        pred = predict(model, train, x[l:])
        sums = pred.probs.sum(axis=1)
        simplex_ok = (pred.probs.shape == (n - l, C) and np.all(pred.probs >= 0)
                      and np.allclose(sums, 1.0, atol=1e-6))
        # structural: no mixture parameter shape involves a class count
        import dataclasses
        wide = Model(dataclasses.replace(DESK_MODEL_CFG, max_classes=37), seed=0)
        narrow = Model(dataclasses.replace(DESK_MODEL_CFG, max_classes=2), seed=0)
        mix_shapes_equal = (
            {k: v.shape for k, v in wide.params.items() if k.startswith("mixture/")}
            == {k: v.shape for k, v in narrow.params.items() if k.startswith("mixture/")})
        check(5, simplex_ok and mix_shapes_equal,
              "5-class episode after C<=3 pre-training yields a valid simplex; "
              "mixture parameter shapes carry no class count")


# ---------------------------------------------------------------------------
# 6. masking invariants


class TestCriterion6Masking:
    def test_masking_invariants(self):
        model = Model(TINY_MODEL_CFG, seed=80)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(6000 + seed)
            n, l, d = 14, 8, 4
            x = rng.standard_normal((1, n, d))
            y = rng.integers(0, 3, size=(1, n)).astype(float)
            ctx = model.transformer(model.embed_episode(Tensor(x), Tensor(y), l), l)

            # (i) insertion invariance
            x2 = np.concatenate([x, rng.standard_normal((1, 2, d))], axis=1)
            y2 = np.concatenate([y, np.zeros((1, 2))], axis=1)
            ctx2 = model.transformer(model.embed_episode(Tensor(x2), Tensor(y2), l), l)
            worst = max(worst, float(np.abs(ctx2.data[:, :n] - ctx.data).max()))

            # (ii) test-row permutation equivariance
            perm = rng.permutation(np.arange(l, n))
            xp = x.copy()
            xp[0, l:] = x[0, perm]
            ctxp = model.transformer(model.embed_episode(Tensor(xp), Tensor(y), l), l)
            worst = max(worst, float(np.abs(ctxp.data[0, l:] - ctx.data[0, perm]).max()))

            # (iii) label-alphabet permutation covariance; the scatter's
            # summation tree differs per column order, so the reduction-order
            # tolerance applies here too
            labels = rng.integers(0, 3, size=(1, l))
            labels[0, :3] = np.arange(3)
            sigma = rng.permutation(3)
            q_t, keys = ctx[:, l:], model.mixture_keys(ctx[:, :l])
            base = model.mixture_head(q_t, keys, labels, 3).data
            permuted = model.mixture_head(q_t, keys, sigma[labels], 3).data
            worst = max(worst, float(np.abs(permuted[:, :, sigma] - base).max()))
        check(6, worst <= 1e-9,
              "insertion invariance, test-row permutation equivariance, and "
              f"label-alphabet covariance all within {worst:.1e} (tolerance 1e-9) "
              "on 20 episodes")


# ---------------------------------------------------------------------------
# 7. desk-scale prior fitting


class TestCriterion7DeskScale:
    def test_desk_scale_prior_fitting(self, desk_run):
        auc = linear_auc(desk_run["model"], HELD_OUT_SEEDS)
        windows: dict[int, list[float]] = {}
        for step, value in desk_run["curve"]:
            windows.setdefault(step // 200, []).append(value)
        smoothed = [float(np.mean(windows[w])) for w in sorted(windows)]
        deltas = np.diff(smoothed)
        monotone = bool(np.all(deltas >= -1e-9))
        elapsed = desk_run["elapsed"]
        check(7, auc >= 0.90 and monotone and elapsed <= 1800,
              f"held-out linear-boundary AUC {auc:.4f} (>= 0.90) after 2000 "
              f"steps in {elapsed:.0f}s; smoothed AUC curve deltas min "
              f"{deltas.min():+.4f} over {len(smoothed)} windows")


# ---------------------------------------------------------------------------
# 8. diversity ordering


class TestCriterion8Diversity:
    def test_estimator_against_gaussian_closed_form(self):
        rng = np.random.default_rng(88)
        n = 100_000
        s1, s2, shift = 0.8, 1.0, 0.5
        a = rng.standard_normal((n, 2)) * s1
        b = rng.standard_normal((n, 2)) * s2 + np.array([shift, 0.0])
        est = kl_divergence(histogram_density(a), histogram_density(b))
        closed = 0.5 * (2 * (s1 / s2) ** 2 + (shift / s2) ** 2 - 2
                        + 2 * np.log(s2 ** 2 / s1 ** 2))
        rel = abs(est - closed) / closed
        assert rel < 0.15, f"histogram KL off by {rel:.1%}"

    def test_adversarial_collections_diverge_more(self, desk_run):
        model = desk_run["model"]
        results = []
        for seed in (1, 2, 3):
            ord_a = ordinary_collection(DESK_SPACE, seed, 81, 500, 50)
            ord_b = ordinary_collection(DESK_SPACE, seed, 82, 500, 50)
            adv = build_adversarial_collection(model, DESK_SPACE,
                                               DESK_AGENT_CFG, seed, 500, 50)
            pooled = lambda coll: histogram_density(
                np.concatenate([ds.X.data for ds in coll]))
            base = kl_divergence(pooled(ord_a), pooled(ord_b))
            shifted = kl_divergence(pooled(ord_a), pooled(adv))
            results.append((base, shifted))
        ok = all(base < shifted for base, shifted in results)
        pretty = "; ".join(f"seed{i + 1}: {b:.3f} < {s:.3f}"
                           for i, (b, s) in enumerate(results))
        check(8, ok, f"KL(ordinary||ordinary') < KL(ordinary||adversarial) "
                     f"on all 3 seeds ({pretty})")


# ---------------------------------------------------------------------------
# 9. aggregation correctness


class TestCriterion9Aggregation:
    def test_aggregation_correctness(self, monkeypatch):
        rng = np.random.default_rng(9)

        # inverse-variance closed form
        scripted = iter([
            Prediction(task="regression", mu=np.array([0.0]), sigma=np.array([1.0])),
            Prediction(task="regression", mu=np.array([5.0]), sigma=np.array([2.0])),
        ])
        model = Model(TINY_MODEL_CFG, seed=81)
        train = Dataset(X=Tensor(rng.standard_normal((4, 2))),
                        y_values=Tensor(rng.standard_normal(4)), y_labels=None,
                        cat_mask=np.zeros(2, dtype=bool), task="regression")
        with monkeypatch.context() as m:
            m.setattr(infer, "BATCH_CAP", 2)  # two batches of two rows
            m.setattr(infer, "_forward_prediction", lambda *a, **k: next(scripted))
            hand = predict(model, train, np.zeros((1, 2))).mu
        hand_ok = np.allclose(hand, [1.0])

        scripted_eq = iter([
            Prediction(task="regression", mu=np.array([2.0]), sigma=np.array([0.7])),
            Prediction(task="regression", mu=np.array([6.0]), sigma=np.array([0.7])),
        ])
        with monkeypatch.context() as m:
            m.setattr(infer, "BATCH_CAP", 2)
            m.setattr(infer, "_forward_prediction", lambda *a, **k: next(scripted_eq))
            equal_sigma = predict(model, train, np.zeros((1, 2))).mu
        mean_ok = np.allclose(equal_sigma, [4.0])

        # classification: valid mixture, single batch reduces to predict
        labels = rng.integers(0, 3, size=18)
        labels[:3] = np.arange(3)
        ctrain = Dataset(X=Tensor(rng.standard_normal((18, 2))),
                         y_values=Tensor(labels.astype(float)), y_labels=labels,
                         cat_mask=np.zeros(2, dtype=bool), task=CLASSIFICATION)
        test_x = rng.standard_normal((5, 2))
        with monkeypatch.context() as m:
            m.setattr(infer, "BATCH_CAP", 7)
            agg = predict(model, ctrain, test_x)
        sums_ok = np.allclose(agg.probs.sum(axis=1), 1.0, atol=1e-6)
        with monkeypatch.context() as m:
            m.setattr(infer, "BATCH_CAP", 18)
            single = predict(model, ctrain, test_x)
        reduce_ok = np.array_equal(single.probs, predict(model, ctrain, test_x).probs)
        check(9, hand_ok and mean_ok and sums_ok and reduce_ok,
              "inverse-variance closed form (mu=(0,5), sigma=(1,2) -> 1.0; "
              "equal sigma -> mean) and classification mixture contracts hold")


# ---------------------------------------------------------------------------
# 10. metric oracles


class TestCriterion10MetricOracles:
    def test_metric_oracles(self):
        auc_exact = True
        for seed in range(12):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(8, 21))
            C = int(rng.integers(2, 5))
            labels = rng.integers(0, C, size=n)
            labels[:C] = np.arange(C)
            raw = rng.uniform(0.01, 1.0, size=(n, C))
            probs = raw / raw.sum(axis=1, keepdims=True)
            got = roc_auc_ovo(probs, labels)
            want = ovo_counting_oracle(probs, labels)
            auc_exact &= abs(got - want) <= 1e-12

        ranks_exact = True
        wins_rule = True
        for seed in range(12):
            rng = np.random.default_rng(1100 + seed)
            scores = np.round(rng.uniform(size=(5, 4)), 1)  # rounding forces ties
            report = rank_and_wins(scores, ["a", "b", "c", "d"])
            for i in range(5):
                ranks_exact &= np.array_equal(report.ranks[i],
                                              rank_sorting_oracle(scores[i]))
            tied_firsts = (scores == scores.max(axis=1, keepdims=True)).sum(axis=0)
            wins_rule &= np.array_equal(report.wins, tied_firsts)
        check(10, auc_exact and ranks_exact and wins_rule,
              "OVO AUC matches the pairwise-counting oracle exactly; ranks and "
              "shared-first-place wins match the sort-based oracle")


# ---------------------------------------------------------------------------
# 11. zero-update inference


class TestCriterion11ZeroUpdate:
    def test_parameters_never_move(self, desk_run, monkeypatch):
        rng = np.random.default_rng(11)
        model = desk_run["model"]
        before = model.checksum()
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        train = Dataset(X=Tensor(rng.standard_normal((30, 2))),
                        y_values=Tensor(labels.astype(float)), y_labels=labels,
                        cat_mask=np.zeros(2, dtype=bool), task=CLASSIFICATION)
        test_x = rng.standard_normal((9, 2))
        predict(model, train, test_x)
        with monkeypatch.context() as m:
            m.setattr(infer, "BATCH_CAP", 10)
            predict(model, train, test_x)
        predict(model, train, test_x, ensemble=3)
        rtrain = Dataset(X=Tensor(rng.standard_normal((25, 2))),
                         y_values=Tensor(rng.standard_normal(25)), y_labels=None,
                         cat_mask=np.zeros(2, dtype=bool), task="regression")
        predict(model, rtrain, test_x)
        with monkeypatch.context() as m:
            m.setattr(infer, "BATCH_CAP", 9)
            predict(model, rtrain, test_x)
        linear_auc(model, HELD_OUT_SEEDS[:5])
        check(11, model.checksum() == before,
              "parameter checksum unchanged across predict, aggregation, "
              "ensembling, and evaluation passes")


# ---------------------------------------------------------------------------
# 12. reproducibility


class TestCriterion12Reproducibility:
    def test_resume_and_bit_stable_outputs(self, tmp_path):
        space = GeneratorHyperSpace(feature_count=(2, 3), hidden_width=(6, 10),
                                    layer_count=(2, 2),
                                    categorical_fraction=(0.0, 0.2))
        cfg = TrainConfig(model_lr=1e-3, datasets_per_step=4,
                          total_datasets=24, rows=(16, 24), seed=21,
                          eval_every=2)
        agent_cfg = AgentConfig(fraction=0.25, reset_period=3)
        full_model, full_log = pretrain(cfg, TINY_MODEL_CFG, space, agent_cfg,
                                        checkpoint_path=tmp_path / "full.npz")
        pretrain(cfg, TINY_MODEL_CFG, space, agent_cfg,
                 checkpoint_path=tmp_path / "cut.npz", stop_after_steps=3)
        resumed_model, resumed_log = pretrain(
            cfg, TINY_MODEL_CFG, space, agent_cfg,
            checkpoint_path=tmp_path / "resumed.npz",
            resume_from=tmp_path / "cut.npz")
        full_nll = {r["step"]: r["nll"] for r in full_log.records if "nll" in r}
        res_nll = {r["step"]: r["nll"] for r in resumed_log.records if "nll" in r}
        stream_ok = all(res_nll[s] == full_nll[s] for s in res_nll) and res_nll
        params_ok = resumed_model.checksum() == full_model.checksum()

        # CLI outputs bit-stable under a fixed seed
        cfg_text = (
            "train: {model_lr: 0.001, datasets_per_step: 4, total_datasets: 8, "
            "rows: [16, 20], seed: 5, eval_every: 2}\n"
            "model: {d_model: 16, n_blocks: 1, n_heads: 2, d_ff: 24, feature_width: 3}\n"
            "space: {feature_count: [2, 3], hidden_width: [6, 8], "
            "layer_count: [2, 2], categorical_fraction: [0.0, 0.0]}\n")
        cfg_path = tmp_path / "cli.yaml"
        cfg_path.write_text(cfg_text)
        blobs = []
        for arm in ("a", "b"):
            outdir = tmp_path / f"cli-{arm}"
            assert main(["pretrain", "--config", str(cfg_path),
                         "--outdir", str(outdir)]) == 0
            blobs.append((outdir / "checkpoint.npz").read_bytes())
        cli_ok = blobs[0] == blobs[1]
        check(12, bool(stream_ok and params_ok and cli_ok),
              "resumed NLL stream and final parameters match the uninterrupted "
              "run; repeated CLI pretraining is byte-identical")
