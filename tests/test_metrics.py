import numpy as np
import pytest

from hsiduo.errors import DimensionError, MetricError
from hsiduo.metrics import ConfusionMatrix, aa, aggregate_trials, kappa, oa, per_class


def test_perfect_diagonal():
    m = ConfusionMatrix(np.diag([2, 2]))
    assert oa(m) == 1.0
    assert aa(m) == 1.0
    assert kappa(m) == 1.0


def test_hand_computed_two_class_case():
    m = ConfusionMatrix([[4, 1], [2, 3]])
    assert oa(m) == 0.7
    assert np.array_equal(per_class(m), [0.8, 0.6])
    assert abs(aa(m) - 0.7) < 1e-12
    # p_o = 0.7, p_e = 0.5 via integer arithmetic: exactly 0.4
    assert kappa(m) == 0.4


def test_single_class_matrix():
    m = ConfusionMatrix([[5]])
    assert oa(m) == 1.0
    assert aa(m) == 1.0
    assert kappa(m) == 1.0  # degenerate single-cell case


def test_chance_agreement_gives_zero_kappa():
    assert kappa(ConfusionMatrix([[1, 1], [1, 1]])) == 0.0


def test_degenerate_column_kappa():
    # everything predicted as class 1 but half actually class 2
    assert kappa(ConfusionMatrix([[2, 0], [2, 0]])) == 0.0
    # all mass in one wrong cell: p_e == 1, p_o == 0
    assert kappa(ConfusionMatrix([[0, 3], [0, 0]])) == 0.0


def test_aa_errors_on_empty_class_row():
    with pytest.raises(MetricError, match="class 2"):
        aa(ConfusionMatrix([[3, 0], [0, 0]]))


def test_empty_matrix_errors():
    with pytest.raises(MetricError):
        oa(ConfusionMatrix(np.zeros((2, 2), dtype=int)))
    with pytest.raises(MetricError):
        kappa(ConfusionMatrix(np.zeros((2, 2), dtype=int)))


def test_from_predictions_ignores_label_zero():
    true = np.array([0, 1, 1, 2, 2, 0])
    pred = np.array([2, 1, 2, 2, 2, 1])
    m = ConfusionMatrix.from_predictions(true, pred, 2)
    assert m.total == 4
    assert np.array_equal(m.counts, [[1, 1], [0, 2]])
    with pytest.raises(DimensionError):
        ConfusionMatrix.from_predictions([1, 3], [1, 1], 2)


def test_kappa_bounds_and_perfect_iff_diagonal():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = rng.integers(2, 5)
        m = ConfusionMatrix(rng.integers(0, 20, size=(k, k)))
        if m.total == 0:
            continue
        value = kappa(m)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
        off_diag = m.counts.sum() - np.trace(m.counts)
        if value == 1.0 and m.total > 0:
            assert off_diag == 0 or m.total * m.total == (m.counts.sum(0) * m.counts.sum(1)).sum()
        if off_diag == 0:
            assert value == 1.0


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = rng.integers(2, 6)
        counts = rng.integers(0, 30, size=(k, k)) + np.diag(rng.integers(1, 10, size=k))
        m = ConfusionMatrix(counts)
        perm = rng.permutation(k)
        pm = ConfusionMatrix(counts[np.ix_(perm, perm)])
        assert abs(oa(m) - oa(pm)) < 1e-15
        assert abs(aa(m) - aa(pm)) < 1e-12
        assert abs(kappa(m) - kappa(pm)) < 1e-15


def test_oa_bounded_by_per_class_at_equal_supports():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = rng.integers(2, 5)
        support = rng.integers(5, 15)
        counts = np.zeros((k, k), dtype=int)
        for row in range(k):
            split = rng.multinomial(support, np.ones(k) / k)
            counts[row] = split
        m = ConfusionMatrix(counts)
        accs = per_class(m)
        assert accs.min() - 1e-12 <= oa(m) <= accs.max() + 1e-12


def test_adding_correct_sample_never_decreases_oa():
    rng = np.random.default_rng(2)
    for _ in range(50):
        counts = rng.integers(0, 10, size=(3, 3)) + np.eye(3, dtype=int)
        m = ConfusionMatrix(counts)
        cls = rng.integers(0, 3)
        bumped = counts.copy()
        bumped[cls, cls] += 1
        assert oa(ConfusionMatrix(bumped)) >= oa(m)


def trial(oa_v, aa_v, kappa_v, per=None):
    return {"oa": oa_v, "aa": aa_v, "kappa": kappa_v, "per_class": per or [oa_v, oa_v]}


def test_aggregate_single_trial():
    rep = aggregate_trials([trial(0.9, 0.85, 0.8)])
    assert rep["n"] == 1
    assert rep["oa"]["mean"] == 0.9 and rep["oa"]["std"] == 0.0 and rep["oa"]["best"] == 0.9
    assert rep["best_trial"] == 0


def test_aggregate_two_point_statistics():
    rep = aggregate_trials([trial(0.9, 0.8, 0.7), trial(1.0, 0.9, 0.8)])
    assert abs(rep["oa"]["mean"] - 0.95) < 1e-15
    assert abs(rep["oa"]["std"] - 0.05) < 1e-15
    assert rep["oa"]["best"] == 1.0
    assert rep["best_trial"] == 1
    assert rep["aa"]["best"] == 0.9 and rep["kappa"]["best"] == 0.8


def test_aggregate_matches_two_pass_oracle():
    rng = np.random.default_rng(3)
    trials = [trial(*rng.uniform(0.5, 1.0, size=3)) for _ in range(10)]
    rep = aggregate_trials(trials)
    oas = [t["oa"] for t in trials]
    mean = sum(oas) / 10
    std = (sum((x - mean) ** 2 for x in oas) / 10) ** 0.5
    assert abs(rep["oa"]["mean"] - mean) < 1e-12
    assert abs(rep["oa"]["std"] - std) < 1e-12
    assert rep["oa"]["best"] == max(oas)
    assert rep["oa"]["best"] >= rep["oa"]["mean"] - 3 * rep["oa"]["std"]


def test_aggregate_empty_errors_and_json_schema():
    with pytest.raises(MetricError):
        aggregate_trials([])
    doc = aggregate_trials([trial(0.9, 0.8, 0.7, [0.95, 0.85])])
    assert set(doc) == {"n", "oa", "aa", "kappa", "best_trial", "per_class_best"}
    for key in ("oa", "aa", "kappa"):
        assert set(doc[key]) == {"mean", "std", "best"}
    assert doc["per_class_best"] == [0.95, 0.85]
