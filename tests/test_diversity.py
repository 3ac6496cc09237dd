import numpy as np
import pytest

from priorfit import diversity, tensor as T
from priorfit.tensor import Tensor
from priorfit.agents import AgentConfig
from priorfit.model import Model, ModelConfig
from priorfit.prior import CLASSIFICATION, Dataset, GeneratorHyperSpace
from priorfit.diversity import (histogram_density, kl_divergence,
                                pearson_signal, pooled_points)
from priorfit.train import _forward_episode_losses


def gaussian_kl_closed_form(mu1, cov1, mu2, cov2):
    """KL(N1 || N2) for 2-d Gaussians."""
    inv2 = np.linalg.inv(cov2)
    diff = mu2 - mu1
    return 0.5 * (np.trace(inv2 @ cov1) + diff @ inv2 @ diff - 2.0
                  + np.log(np.linalg.det(cov2) / np.linalg.det(cov1)))


def two_feature_dataset(rng, n=50, shift=0.0):
    x = rng.standard_normal((n, 2)) + shift
    labels = (x[:, 0] > 0).astype(int)
    return Dataset(X=Tensor(np.clip(x, -4, 4)), y_values=Tensor(labels.astype(float)),
                   y_labels=labels, cat_mask=np.zeros(2, dtype=bool),
                   task=CLASSIFICATION)


class TestHistogramKL:
    def test_identical_clouds_give_zero(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((5000, 2))
        p = histogram_density(pts)
        assert kl_divergence(p, p) == 0.0

    def test_asymmetry(self):
        rng = np.random.default_rng(1)
        a = histogram_density(rng.standard_normal((20_000, 2)) * 0.5)
        b = histogram_density(rng.standard_normal((20_000, 2)) * 1.2)
        assert kl_divergence(a, b) != kl_divergence(b, a)
        assert kl_divergence(a, b) > 0

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        a = histogram_density(rng.standard_normal((100, 2)), bins=64)
        b = histogram_density(rng.standard_normal((100, 2)), bins=32)
        with pytest.raises(ValueError):
            kl_divergence(a, b)

    def test_matches_gaussian_closed_form_within_15_percent(self):
        rng = np.random.default_rng(3)
        n = 100_000
        mu1, s1 = np.zeros(2), 0.8
        mu2, s2 = np.array([0.5, 0.0]), 1.0
        pts1 = rng.standard_normal((n, 2)) * s1 + mu1
        pts2 = rng.standard_normal((n, 2)) * s2 + mu2
        est = kl_divergence(histogram_density(pts1), histogram_density(pts2))
        want = gaussian_kl_closed_form(mu1, np.eye(2) * s1 ** 2,
                                       mu2, np.eye(2) * s2 ** 2)
        assert abs(est - want) / want < 0.15

    def test_rejects_non_planar_points(self):
        with pytest.raises(ValueError):
            histogram_density(np.zeros((10, 3)))


class TestPearson:
    def test_perfect_linear_signal(self):
        n = 100
        x = np.linspace(-1, 1, n)
        ds = Dataset(X=Tensor(np.stack([x, x], axis=1)),
                     y_values=Tensor(x.copy()), y_labels=None,
                     cat_mask=np.zeros(2, dtype=bool), task="regression")
        assert pearson_signal(ds) == pytest.approx(1.0)

    def test_constant_column_contributes_zero(self):
        n = 50
        rng = np.random.default_rng(4)
        x = np.stack([np.zeros(n), rng.standard_normal(n)], axis=1)
        ds = Dataset(X=Tensor(x), y_values=Tensor(x[:, 1].copy()), y_labels=None,
                     cat_mask=np.zeros(2, dtype=bool), task="regression")
        assert pearson_signal(ds) == pytest.approx(0.5)


class TestDiversityReport:
    def test_identical_collections_zero_kl(self):
        rng = np.random.default_rng(5)
        coll = [two_feature_dataset(rng) for _ in range(20)]
        grid = histogram_density(pooled_points(coll))
        assert kl_divergence(grid, grid) == 0.0

    def test_shifted_collection_positive_kl(self):
        rng = np.random.default_rng(6)
        a = [two_feature_dataset(rng) for _ in range(30)]
        b = [two_feature_dataset(rng, shift=1.0) for _ in range(30)]
        grid_a, grid_b = (histogram_density(pooled_points(c)) for c in (a, b))
        assert kl_divergence(grid_a, grid_b) > 0.01
        assert grid_a.shape == (64, 64)
        assert all(pearson_signal(ds) >= 0 for ds in a)

    def test_summary_recomputes_from_its_collections(self, monkeypatch):
        built = []

        def recorded(build):
            def wrapper(*args, **kwargs):
                built.append(build(*args, **kwargs))
                return built[-1]
            return wrapper

        for name in ("ordinary_collection", "build_adversarial_collection"):
            monkeypatch.setattr(diversity, name, recorded(getattr(diversity, name)))
        model = Model(ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=24,
                                  feature_width=2), seed=0)
        space = GeneratorHyperSpace(feature_count=(2, 2), hidden_width=(6, 8),
                                    layer_count=(2, 2))
        summary, grids = diversity.ordinary_vs_adversarial(
            model, space, AgentConfig(), run_seed=3, count=4, n_rows=20)

        ordinary_a, ordinary_b, adversarial = built
        want = {name: histogram_density(pooled_points(coll)) for name, coll in
                (("ordinary_a", ordinary_a), ("ordinary_b", ordinary_b),
                 ("adversarial", adversarial))}
        assert list(grids) == list(want)
        for name, grid in want.items():
            np.testing.assert_array_equal(grids[name], grid)

        def pearson(coll):
            signal = np.array([pearson_signal(ds) for ds in coll])
            return {"mean": float(signal.mean()), "std": float(signal.std())}

        assert summary == {
            "datasets_per_collection": 4,
            "rows_per_dataset": 20,
            "kl_ordinary_vs_ordinary": kl_divergence(want["ordinary_a"],
                                                     want["ordinary_b"]),
            "kl_ordinary_vs_adversarial": kl_divergence(want["ordinary_a"],
                                                        want["adversarial"]),
            "pearson_ordinary": pearson(ordinary_a),
            "pearson_adversarial": pearson(adversarial),
        }

    def test_feature_count_enforced(self):
        rng = np.random.default_rng(7)
        bad = Dataset(X=Tensor(rng.standard_normal((10, 3))),
                      y_values=Tensor(np.zeros(10)), y_labels=None,
                      cat_mask=np.zeros(3, dtype=bool), task="regression")
        with pytest.raises(ValueError):
            pooled_points([bad])


class TestAdversarialCollection:
    @pytest.mark.xfail(strict=True, reason="the agent's gradients are never zeroed "
                       "between ascents, so the k-th ascent climbs the sum of k "
                       "episode gradients (ROADMAP open item 9)")
    def test_each_ascent_uses_its_own_episode_gradient(self, monkeypatch):
        model = Model(ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=24,
                                  feature_width=2), seed=0)
        space = GeneratorHyperSpace(feature_count=(2, 2), hidden_width=(6, 8),
                                    layer_count=(2, 2))
        n_rows = 20
        episode = {}
        used, fresh = [], []
        real_generate, real_ascend = diversity.generate_dataset, diversity.ascend_or_reset

        def generate(*args, **kwargs):
            episode["args"] = args, kwargs
            return real_generate(*args, **kwargs)

        def ascend(agent):
            # the gradient the ascent climbs, against a replay of this
            # episode alone from zeroed gradients
            params = agent.parameters() + model.parameters()
            saved = [p.grad for p in params]
            used.append([p.grad.copy() for p in agent.parameters()])
            T.zero_grads(params)
            args, kwargs = episode["args"]
            with T.Tape() as tape:
                ds = real_generate(*args, **kwargs)
                tape.backward(_forward_episode_losses(model, [ds], n_rows // 2, None))
            fresh.append([p.grad.copy() for p in agent.parameters()])
            for p, g in zip(params, saved):
                p.grad = g
            return real_ascend(agent)

        monkeypatch.setattr(diversity, "generate_dataset", generate)
        monkeypatch.setattr(diversity, "ascend_or_reset", ascend)
        diversity.build_adversarial_collection(model, space, AgentConfig(), run_seed=3,
                                               count=3, n_rows=n_rows)
        assert len(used) >= 3
        for k, (got, own) in enumerate(zip(used, fresh)):
            for g, f in zip(got, own):
                np.testing.assert_allclose(g, f, rtol=1e-9, atol=1e-12,
                                           err_msg=f"ascent {k}")
