"""Eq. 3 combination and weight training (driver-side math)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.weights import (
    DEFAULT_EVIDENCE_WEIGHTS,
    combine_eq3,
    train_evidence_weights,
)
from repro.core.distances import EVIDENCE_TYPES


def _tv(rows):
    return pd.DataFrame(rows, columns=["q_table", "s_table", *[f"D_{t}" for t in EVIDENCE_TYPES]])


class TestCombineEq3:
    def test_zero_vector_scores_zero(self):
        tv = _tv([("t", "s", 0.0, 0.0, 0.0, 0.0, 0.0)])
        assert combine_eq3(tv)["score"].iloc[0] == 0.0

    def test_max_vector_bounded(self):
        tv = _tv([("t", "s", 1.0, 1.0, 1.0, 1.0, 1.0)])
        score = combine_eq3(tv)["score"].iloc[0]
        assert 0.0 < score <= 1.0

    def test_matches_formula(self):
        dv = [0.1, 0.2, 0.3, 0.4, 0.5]
        tv = _tv([("t", "s", *dv)])
        w = DEFAULT_EVIDENCE_WEIGHTS
        wts = np.array([w[t] for t in EVIDENCE_TYPES])
        expected = np.sqrt(np.sum((wts * np.array(dv)) ** 2) / wts.sum())
        assert combine_eq3(tv)["score"].iloc[0] == pytest.approx(expected)

    def test_monotone_in_each_dimension(self):
        base = [0.3] * 5
        tv0 = _tv([("t", "s", *base)])
        s0 = combine_eq3(tv0)["score"].iloc[0]
        for i in range(5):
            bumped = list(base)
            bumped[i] = 0.9
            s1 = combine_eq3(_tv([("t", "s", *bumped)]))["score"].iloc[0]
            assert s1 > s0

    def test_custom_weights(self, monkeypatch):
        tv = _tv([("t", "s", 1.0, 0.0, 0.0, 0.0, 0.0)])
        only_n = {t: (1.0 if t == "n" else 1e-9) for t in EVIDENCE_TYPES}
        monkeypatch.setattr("repro.core.weights.DEFAULT_EVIDENCE_WEIGHTS", only_n)
        assert combine_eq3(tv)["score"].iloc[0] == pytest.approx(1.0, abs=1e-3)

    def test_default_weights_sum_to_one(self):
        assert sum(DEFAULT_EVIDENCE_WEIGHTS.values()) == pytest.approx(1.0)

    def test_preserves_rows(self):
        tv = _tv([("t", "s1", *[0.1] * 5), ("t", "s2", *[0.9] * 5)])
        out = combine_eq3(tv)
        assert list(out["s_table"]) == ["s1", "s2"]
        assert out["score"].iloc[0] < out["score"].iloc[1]


class TestTrainEvidenceWeights:
    def test_discriminative_feature_gets_weight(self):
        rng = np.random.default_rng(0)
        n = 400
        labels = rng.integers(0, 2, n).astype(float)
        X = rng.random((n, 5))
        # Make dimension 1 ('v') strongly predictive: related pairs small.
        X[:, 1] = np.where(labels == 1, 0.1, 0.9) + rng.normal(0, 0.05, n)
        weights, model = train_evidence_weights(X, labels)
        assert weights["v"] == max(weights.values())
        assert model.accuracy(X, labels) > 0.9

    def test_weights_normalised(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 5))
        y = (X[:, 0] < 0.5).astype(float)
        weights, _ = train_evidence_weights(X, y)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert all(w >= 0 for w in weights.values())

    def test_keys_are_evidence_types(self):
        rng = np.random.default_rng(2)
        X = rng.random((50, 5))
        y = (X[:, 2] < 0.5).astype(float)
        weights, _ = train_evidence_weights(X, y)
        assert set(weights) == set(EVIDENCE_TYPES)
