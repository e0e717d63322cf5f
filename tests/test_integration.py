"""Cross-system integration: the paper's headline behavioural claims at
test scale, plus an oracle check on TUS's exact refinement."""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.baselines.tus import TUS, exact_jaccard_pairs, value_sets
from repro.eval import harness, metrics
from repro.lake import tables
from repro.oracle import assert_equivalent


def _mean_precision(results, lake, k):
    ps = []
    for target, res in results.items():
        p, _ = metrics.precision_recall(res.tables[:k], lake.gt.related_tables(target))
        ps.append(p)
    return sum(ps) / len(ps)


class TestD3LvsTUSUnderNoise:
    """The paper's core claim (Experiment 3): dirtiness hurts the
    equality-based baseline more than D3L's finer-grained features."""

    def test_d3l_competitive_with_tus_on_noisy_lake(self, spark, d3l_noisy, noisy_lake, noisy_cells):
        """At this 36-table unit scale the same-base GT is strict (D3L's
        cross-base discoveries like businesses<->business_contacts count as
        FPs), so we assert D3L stays within a small margin of TUS here; the
        full Experiment 2/3 shape (D3L strictly ahead) is asserted at
        benchmark scale in benchmarks/bench_exp2/3."""
        targets = harness.pick_targets(noisy_lake, 12, seed=3)
        tus = TUS.build(spark, noisy_cells)
        k = 3
        d3l_p = _mean_precision(d3l_noisy.search_many(targets, k), noisy_lake, k)
        tus_p = _mean_precision(tus.search_many(targets, k), noisy_lake, k)
        tus.unpersist()
        assert d3l_p >= tus_p - 0.1, (d3l_p, tus_p)
        assert d3l_p >= 0.25


class TestTUSExactRefinement:
    def test_exact_jaccard_oracle(self, spark):
        """TUS's post-blocking exact Jaccard (pandas, on the driver) agrees
        with DuckDB computing the same measure from the raw feature tables."""
        lake = {
            "a": pd.DataFrame({"v": ["x", "y", "z"]}),
            "b": pd.DataFrame({"v": ["y", "z", "w"]}),
            "c": pd.DataFrame({"v": ["p", "q"]}),
        }
        feats = value_sets(tables.cells_df(spark, lake)).toPandas()
        pairs = pd.DataFrame({"query_attr": ["a||v", "a||v"], "attr_id": ["b||v", "c||v"]})
        got = exact_jaccard_pairs(pairs, feats, feats)
        assert_equivalent(
            got,
            """
            WITH sizes AS (
              SELECT attr_id, count(*) AS n FROM feats GROUP BY attr_id
            ), inter AS (
              SELECT q.attr_id AS query_attr, s.attr_id AS attr_id,
                     count(*) AS n_i
              FROM feats q JOIN feats s ON q.feature = s.feature
              GROUP BY q.attr_id, s.attr_id
            ), pairs(query_attr, attr_id) AS (
              VALUES ('a||v', 'b||v'), ('a||v', 'c||v')
            )
            SELECT p.query_attr, p.attr_id,
                   COALESCE(i.n_i, 0)::DOUBLE
                   / (sq.n + ss.n - COALESCE(i.n_i, 0)) AS similarity
            FROM pairs p
            LEFT JOIN inter i
              ON i.query_attr = p.query_attr AND i.attr_id = p.attr_id
            JOIN sizes sq ON sq.attr_id = p.query_attr
            JOIN sizes ss ON ss.attr_id = p.attr_id
            """,
            feats=feats,
        )

    def test_exact_jaccard_values(self, spark):
        lake = {
            "a": pd.DataFrame({"v": ["x", "y", "z"]}),
            "b": pd.DataFrame({"v": ["y", "z", "w"]}),
        }
        feats = value_sets(tables.cells_df(spark, lake)).toPandas()
        pairs = pd.DataFrame({"query_attr": ["a||v"], "attr_id": ["b||v"]})
        got = exact_jaccard_pairs(pairs, feats, feats)
        assert got["similarity"].tolist() == [pytest.approx(2 / 4)]


class TestSpaceOverheadSmall:
    def test_space_overhead_measurable(self, spark, tmp_path):
        from repro.lake.generator import generate_lake

        lake = generate_lake(derivations_per_base=2, rows=25, noise=0.0, seed=77)
        r = harness.space_overhead(spark, lake, str(tmp_path / "space"))
        assert r["lake_bytes"] > 0
        for system in ("d3l", "tus", "aurum"):
            assert r[system] > 0.0
        # D3L maintains four indexes + extents: the largest footprint.
        assert r["d3l"] >= r["aurum"]


class TestWeightTrainingPipeline:
    """Paper §III-D steps 1-3 on real pipeline output."""

    def test_training_pairs_and_fit(self, d3l_clean, clean_lake):
        from repro.core import weights

        targets = harness.pick_targets(clean_lake, 5, seed=4)
        tv, _ = d3l_clean.table_vectors(targets)
        X, y = weights.training_pairs_from_vectors(tv, clean_lake.gt)
        assert len(X) == len(tv)
        assert set(y) <= {0.0, 1.0}
        assert y.sum() > 0  # some related pairs in the candidates
        w, model = weights.train_evidence_weights(X, y)
        assert set(w) == {"n", "v", "f", "e", "d"}
        # The classifier separates related from unrelated pairs well — the
        # paper reports ~89% accuracy for this model.
        assert model.accuracy(X, y) >= 0.85


class TestSingleEvidenceVsCombined:
    def test_combined_at_least_matches_worst_single(self, d3l_clean, clean_lake):
        targets = harness.pick_targets(clean_lake, 4, seed=8)
        ks = [2]
        rows = harness.run_individual_effectiveness(d3l_clean, clean_lake, targets, ks)
        by = {r["evidence"]: r["precision"] for r in rows}
        assert by["combined"] >= min(by["n"], by["v"], by["f"], by["e"])
