"""Distance aggregation framework (paper §III-D, Equations 1-3).

Stage 1 (Eq. 2): each per-pair distance ``D_t^i`` gets a weight from the
complementary cumulative distribution of all type-``t`` distances observed
for that *target attribute* — "the probability that the observed distance
is the smallest in R_t". We realise it as the *midrank* CCDF
``w = 1 - (P(d < D) + P(d <= D)) / 2``: identical to the paper's
``1 - P(d <= D)`` on continuous distributions, but well-behaved under the
ties our discrete estimates produce. A unique minimum keeps w ~= 1; the
d = 1.0 crowd (evidence the indexes never retrieved) keeps w ~= 0; and a
target attribute that matches *everything* at distance 0 (e.g. a ``city``
column whose name/format/embedding tie across half the lake) sees its ties
discounted toward 0.5 — exactly the "compensate for a high number of
weakly related attributes" role the paper assigns these weights.

Stage 2 (Eq. 1): per (target, source) table pair and evidence type, the
weighted mean of the attribute-pair distances -> a 5-d vector.

Both stages are candidate-sized, so they run in pandas on the pair table
the query collects anyway (DESIGN.md §5).

Stage 3 (Eq. 3): weighted Euclidean norm of the 5-d vector with per-evidence
weights taken from a logistic-regression model trained on ground-truth
related/unrelated pairs (magnitude of the standardised coefficients,
normalised). ``DEFAULT_EVIDENCE_WEIGHTS`` ships the coefficients we trained
on a noise-0.3 lake (see ``train_evidence_weights`` and EXPERIMENTS.md).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.distances import EVIDENCE_TYPES
from repro.ml.logreg import LogisticRegression

#: Eq. 3 per-evidence weights {n, v, f, e, d} — the magnitudes of the
#: logistic-regression coefficients trained per the paper's §III-D recipe
#: (see ``train_evidence_weights``; reproduced by ``jobs``/dev script on a
#: generate_lake(derivations=4, rows=80, noise=0.3, seed=97) pair sample;
#: held-out accuracy 0.97 vs the paper's ~0.89). Name/value evidence carry
#: the strongest same-base signal and format the weakest, matching the
#: paper's Experiment 1 ordering.
DEFAULT_EVIDENCE_WEIGHTS: dict[str, float] = {
    "n": 0.319,
    "v": 0.309,
    "f": 0.070,
    "e": 0.022,
    "d": 0.280,
}


def ccdf_weights(pairs: pd.DataFrame) -> pd.DataFrame:
    """Add Eq. 2 weights ``w_n .. w_d`` to a collected candidate pair table.

    Midrank CCDF per (target attribute, evidence type):
    ``w = (1 + P(d >= D) - P(d <= D)) / 2`` — an algebraic rewrite of
    ``1 - (P(d < D) + P(d <= D)) / 2``. ``P(d <= D)`` is the ``max``-method
    rank over the target attribute's rows divided by their count, i.e.
    SQL's ``cume_dist``.
    """
    out = pairs.copy()
    by_attr = out.groupby("query_attr")
    n = by_attr["query_attr"].transform("size").to_numpy(dtype=np.float64)
    for t in EVIDENCE_TYPES:
        d = by_attr[f"d_{t}"]
        at_most = d.rank(method="max").to_numpy() / n
        at_least = d.rank(method="max", ascending=False).to_numpy() / n
        out[f"w_{t}"] = (1.0 + at_least - at_most) / 2.0
    return out


def weighted_means(pairs_w: pd.DataFrame) -> pd.DataFrame:
    """Eq. 1 per (q_table, s_table): weighted mean distance per evidence.

    Missing-evidence rows (d = 1.0) keep whatever CCDF weight they earned;
    a (T, S) pair whose every row has zero weight for evidence t is
    maximally distant on t (D_t = 1.0).
    """
    w = pairs_w[[f"w_{t}" for t in EVIDENCE_TYPES]].to_numpy(dtype=np.float64)
    d = pairs_w[[f"d_{t}" for t in EVIDENCE_TYPES]].to_numpy(dtype=np.float64)
    sums = (
        pd.DataFrame(np.hstack([w * d, w]))
        .groupby([pairs_w["q_table"].to_numpy(), pairs_w["s_table"].to_numpy()])
        .sum()
    )
    num, den = np.hsplit(sums.to_numpy(), 2)
    means = np.divide(num, den, out=np.ones_like(num), where=den > 0.0)
    out = pd.DataFrame(means, columns=[f"D_{t}" for t in EVIDENCE_TYPES])
    out.insert(0, "q_table", sums.index.get_level_values(0))
    out.insert(1, "s_table", sums.index.get_level_values(1))
    return out


def combine_eq3(table_vectors: pd.DataFrame) -> pd.DataFrame:
    """Eq. 3: weighted L2 norm of each 5-d distance vector -> scalar score,
    with ``DEFAULT_EVIDENCE_WEIGHTS``.

    ``table_vectors`` is the collected Eq. 1 output (columns ``q_table``,
    ``s_table``, ``D_n`` .. ``D_d``). Returns it with a ``score`` column,
    smaller = more related.
    """
    weights = np.array([DEFAULT_EVIDENCE_WEIGHTS[t] for t in EVIDENCE_TYPES], dtype=np.float64)
    dv = table_vectors[[f"D_{t}" for t in EVIDENCE_TYPES]].to_numpy(dtype=np.float64)
    score = np.sqrt(np.sum((weights * dv) ** 2, axis=1) / weights.sum())
    out = table_vectors.copy()
    out["score"] = score
    return out


def training_pairs_from_vectors(table_vectors: "pd.DataFrame", gt) -> tuple[np.ndarray, np.ndarray]:
    """Assemble Eq. 3 training data from Eq. 1 vectors + ground truth.

    The paper (§III-D) builds (T, S) pairs from a benchmark's GT, labels
    them related/unrelated, and uses the five Eq. 1 distances as features;
    this does the same from :meth:`repro.core.ranking.D3L.table_vectors`
    output and a :class:`repro.lake.generator.GroundTruth`.
    """
    X = table_vectors[[f"D_{t}" for t in EVIDENCE_TYPES]].to_numpy(dtype=np.float64)
    y = np.array(
        [
            1.0 if gt.tables_related(q, s) else 0.0
            for q, s in zip(table_vectors["q_table"], table_vectors["s_table"])
        ]
    )
    return X, y


def train_evidence_weights(
    features: np.ndarray, labels: np.ndarray
) -> tuple[dict[str, float], LogisticRegression]:
    """Fit the Eq. 3 weights (paper §III-D, steps 1-3).

    ``features`` is (n, 5) of Eq. 1 distances in EVIDENCE_TYPES order;
    ``labels`` is 1 for related (ground truth) pairs, 0 otherwise. The
    returned weights are the magnitudes of the standardised coefficients,
    normalised to sum to 1 — the model's view of each evidence type's
    discriminative power.
    """
    model = LogisticRegression().fit(features, labels)
    mag = np.abs(model.coef_)
    if mag.sum() == 0.0:
        mag = np.ones_like(mag)
    weights = mag / mag.sum()
    return {t: float(w) for t, w in zip(EVIDENCE_TYPES, weights)}, model
