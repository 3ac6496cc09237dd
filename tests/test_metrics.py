import numpy as np
import pytest

from priorfit.metrics import (binary_auc, dense_ranks, mse,
                              rank_and_wins, roc_auc_ovo, score_summary)


def ovo_counting_oracle(probs, labels, classes=None):
    """Independent O(n^2) pairwise-comparison oracle."""
    labels = np.asarray(labels)
    if classes is None:
        classes = np.arange(probs.shape[1])
    col = {c: j for j, c in enumerate(classes)}
    present = np.unique(labels)
    totals = []
    for i in range(present.size):
        for j in range(i + 1, present.size):
            a, b = present[i], present[j]
            rows_a = np.where(labels == a)[0]
            rows_b = np.where(labels == b)[0]
            if rows_a.size == 0 or rows_b.size == 0:
                continue

            def side(cls, pos_rows, neg_rows):
                score = probs[:, col[cls]]
                wins = 0.0
                for p in pos_rows:
                    for q in neg_rows:
                        if score[p] > score[q]:
                            wins += 1.0
                        elif score[p] == score[q]:
                            wins += 0.5
                return wins / (pos_rows.size * neg_rows.size)

            totals.append(0.5 * (side(a, rows_a, rows_b) + side(b, rows_b, rows_a)))
    return float(np.mean(totals))


def tie_loop_auc(scores, positive):
    """Reference binary AUC: ranks from a sorted walk over tie groups, each
    group at its mean rank."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(positive.sum())
    return (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (scores.size - n_pos))


def rank_sorting_oracle(scores, higher_is_better=True):
    """Independent sort-based ranks: one plus the count of strictly better
    distinct scores; absent scores land after every real one."""
    out = np.empty(len(scores))
    valid = [s for s in scores if not np.isnan(s)]
    distinct = sorted(set(valid), reverse=higher_is_better)
    for i, s in enumerate(scores):
        if np.isnan(s):
            out[i] = len(distinct) + 1
        else:
            out[i] = 1 + sum(1 for d in distinct
                             if (d > s if higher_is_better else d < s))
    return out


class TestBinaryAUC:
    def test_perfect_separation(self):
        assert binary_auc(np.array([0.9, 0.8, 0.2, 0.1]),
                          np.array([1, 1, 0, 0], bool)) == 1.0

    def test_reversed(self):
        assert binary_auc(np.array([0.1, 0.9]), np.array([1, 0], bool)) == 0.0

    def test_ties_count_half(self):
        assert binary_auc(np.array([0.5, 0.5]), np.array([1, 0], bool)) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            binary_auc(np.array([0.5, 0.4]), np.array([1, 1], bool))

    @pytest.mark.parametrize("levels", [2, 5, None])
    def test_equals_tie_loop_reference(self, levels):
        rng = np.random.default_rng(levels or 0)
        for _ in range(200):
            n = int(rng.integers(2, 120))
            scores = (rng.integers(0, levels, n) / 7 if levels
                      else rng.standard_normal(n))
            positive = rng.random(n) < 0.4
            positive[0], positive[-1] = True, False
            assert binary_auc(scores, positive) == tie_loop_auc(scores, positive)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite scores"):
            binary_auc(np.array([0.5, bad, 0.1]), np.array([1, 0, 0], bool))


class TestOvoAuc:
    def test_perfect_scores(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[labels] * 0.8 + 0.1
        assert roc_auc_ovo(probs, labels) == 1.0

    def test_binary_reduces_to_standard(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=40)
        p1 = rng.uniform(size=40)
        probs = np.stack([1 - p1, p1], axis=1)
        expected = binary_auc(p1, labels == 1)
        assert roc_auc_ovo(probs, labels) == pytest.approx(expected, rel=1e-12)

    def test_shuffled_labels_near_half(self):
        rng = np.random.default_rng(1)
        n = 10_000
        labels = rng.integers(0, 3, size=n)
        raw = rng.uniform(size=(n, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        assert abs(roc_auc_ovo(probs, labels) - 0.5) < 0.05

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_counting_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, C = 12, 3
        labels = rng.integers(0, C, size=n)
        labels[:C] = np.arange(C)
        raw = rng.uniform(0.01, 1.0, size=(n, C))
        probs = raw / raw.sum(axis=1, keepdims=True)
        got = roc_auc_ovo(probs, labels)
        want = ovo_counting_oracle(probs, labels)
        assert got == pytest.approx(want, abs=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            roc_auc_ovo(np.array([[0.6, 0.4]]), np.array([0]))

    def test_missing_column_pair_skipped(self):
        # class 7 has no probability column; pair (0, 7) skipped, (0, 1) kept
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
        labels = np.array([0, 1, 7, 0])
        got = roc_auc_ovo(probs, labels, classes=np.array([0, 1]))
        only_01 = roc_auc_ovo(probs[[0, 1, 3]], labels[[0, 1, 3]],
                              classes=np.array([0, 1]))
        assert got == pytest.approx(only_01)


class TestMse:
    def test_hand_value(self):
        assert mse(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == 2.5


class TestRanks:
    def test_strict_ordering_is_permutation(self):
        ranks = dense_ranks(np.array([0.3, 0.9, 0.5]))
        np.testing.assert_array_equal(sorted(ranks), [1, 2, 3])
        np.testing.assert_array_equal(ranks, [3, 1, 2])

    def test_ties_share_best_rank(self):
        ranks = dense_ranks(np.array([0.9, 0.9, 0.5]))
        np.testing.assert_array_equal(ranks, [1, 1, 2])

    def test_nan_ranked_last(self):
        ranks = dense_ranks(np.array([0.9, np.nan, 0.5]))
        np.testing.assert_array_equal(ranks, [1, 3, 2])

    def test_lower_is_better_mode(self):
        ranks = dense_ranks(np.array([0.1, 0.9, 0.5]), higher_is_better=False)
        np.testing.assert_array_equal(ranks, [1, 3, 2])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sorting_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        scores = rng.choice([0.1, 0.4, 0.4, 0.7, 0.9, np.nan], size=(5, 4))
        report = rank_and_wins(scores, ["a", "b", "c", "d"])
        for i in range(5):
            np.testing.assert_array_equal(report.ranks[i],
                                          rank_sorting_oracle(scores[i]))


class TestRankAndWins:
    def test_shared_first_place_wins(self):
        scores = np.array([[0.9, 0.9, 0.2],
                           [0.5, 0.7, 0.7]])
        report = rank_and_wins(scores, ["a", "b", "c"])
        np.testing.assert_array_equal(report.wins, [1, 2, 1])

    def test_summary_fields(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.6]])
        report = rank_and_wins(scores, ["x", "y"])
        summary = report.rank_summary()
        assert summary["x"] == {"mean": pytest.approx(4 / 3), "median": 1.0,
                                "min": 1.0, "max": 2.0, "wins": 2}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rank_and_wins(np.zeros((3,)), ["a"])


class TestScoreSummary:
    def test_both_std_styles(self):
        matrix = np.array([[0.9, 0.7], [0.5, 0.9]])
        out = score_summary(matrix)
        assert out["mean"] == pytest.approx(0.75)
        per_split = matrix.mean(axis=0)          # [0.7, 0.8]
        assert out["std_of_mean"] == pytest.approx(per_split.std())
        per_ds = matrix.std(axis=1)              # [0.1, 0.2]
        assert out["mean_of_std"] == pytest.approx(per_ds.mean())

    def test_failed_splits_left_out_and_counted(self):
        matrix = np.array([[0.9, np.nan], [0.5, 0.9]])
        out = score_summary(matrix)
        assert out["failed_splits"] == 1
        assert out["mean"] == pytest.approx((0.9 + 0.5 + 0.9) / 3)
        assert out["std_of_mean"] == pytest.approx(np.std([0.7, 0.9]))
        assert out["mean_of_std"] == pytest.approx(0.2 / 2)

    def test_nothing_scored_refused(self):
        with pytest.raises(ValueError, match="no split"):
            score_summary(np.full((2, 3), np.nan))
