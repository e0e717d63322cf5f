"""Eq. 1/2 aggregation on the collected pair table, cross-checked by hand
and via DuckDB, on toy pairs and on D3L's collected pair tables."""
import numpy as np
import pandas as pd
import pytest

from repro.core import weights
from repro.core.distances import EVIDENCE_TYPES
from repro.oracle import assert_equivalent


def _pairs_df(rows):
    cols = ["query_attr", "attr_id", "q_table", "s_table"] + [
        f"d_{t}" for t in EVIDENCE_TYPES
    ]
    return pd.DataFrame(rows, columns=cols)


@pytest.fixture(scope="module")
def toy_pairs():
    mk = lambda q, s, st, dn: (f"T||{q}", f"{st}||{s}", "T", st, dn, 1.0, 1.0, 1.0, 1.0)
    return _pairs_df(
        [
            mk("a", "x", "S1", 0.0),
            mk("a", "y", "S2", 0.5),
            mk("a", "z", "S3", 1.0),
            mk("b", "w", "S1", 0.2),
        ],
    )


class TestPairWeights:
    def test_midrank_ccdf_values(self, toy_pairs):
        out = weights.ccdf_weights(toy_pairs).set_index("attr_id")
        # For query attr a: distances {0.0, 0.5, 1.0}.
        # w(0.0) = 1 - (P(<0)+P(<=0))/2 = 1 - (0 + 1/3)/2 = 5/6
        assert out.loc["S1||x", "w_n"] == pytest.approx(5 / 6)
        # w(0.5) = 1 - (1/3 + 2/3)/2 = 1/2
        assert out.loc["S2||y", "w_n"] == pytest.approx(0.5)
        # w(1.0) = 1 - (2/3 + 1)/2 = 1/6
        assert out.loc["S3||z", "w_n"] == pytest.approx(1 / 6)

    def test_single_candidate_weight_half(self, toy_pairs):
        out = weights.ccdf_weights(toy_pairs).set_index("attr_id")
        # query attr b has one candidate: all-tied -> 0.5
        assert out.loc["S1||w", "w_n"] == pytest.approx(0.5)

    def test_all_ties_keep_half(self):
        rows = [
            (f"T||a", f"S{i}||x", "T", f"S{i}", 0.0, 1.0, 1.0, 1.0, 1.0)
            for i in range(4)
        ]
        out = weights.ccdf_weights(_pairs_df(rows))
        assert np.allclose(out["w_n"], 0.5)

    def test_weights_in_unit_interval(self, d3l_clean):
        pairs = d3l_clean.alignments(["hospitals__000"])
        out = weights.ccdf_weights(pairs)
        for t in EVIDENCE_TYPES:
            assert out[f"w_{t}"].between(0.0, 1.0).all()

    def test_smaller_distance_never_smaller_weight(self, d3l_clean):
        pairs = d3l_clean.alignments(["schools__001"])
        out = weights.ccdf_weights(pairs)
        for q_attr, grp in out.groupby("query_attr"):
            g = grp.sort_values("d_v")
            assert (g["w_v"].diff().dropna() <= 1e-9).all()

    def test_oracle_ccdf(self, d3l_clean):
        """Eq. 2 on a real pair table agrees with DuckDB's ``cume_dist``."""
        pairs = d3l_clean.alignments(["gp_practices__000"])
        cols = ", ".join(
            f"""(1.0 + cume_dist() OVER (PARTITION BY query_attr ORDER BY d_{t} DESC)
                 - cume_dist() OVER (PARTITION BY query_attr ORDER BY d_{t})) / 2.0 AS w_{t}"""
            for t in EVIDENCE_TYPES
        )
        assert_equivalent(
            weights.ccdf_weights(pairs)[["query_attr", "attr_id"] + [f"w_{t}" for t in EVIDENCE_TYPES]],
            f"SELECT query_attr, attr_id, {cols} FROM pairs",
            pairs=pairs,
        )


class TestAggregateEq1:
    def test_weighted_mean_by_hand(self, toy_pairs):
        out = weights.weighted_means(weights.ccdf_weights(toy_pairs)).set_index("s_table")
        # S1 rows: (a,x,d=0,w=5/6) and (b,w,d=0.2,w=0.5)
        expected = (5 / 6 * 0.0 + 0.5 * 0.2) / (5 / 6 + 0.5)
        assert out.loc["S1", "D_n"] == pytest.approx(expected)

    def test_one_row_per_table_pair(self, toy_pairs):
        out = weights.weighted_means(weights.ccdf_weights(toy_pairs))
        assert sorted(out["s_table"]) == ["S1", "S2", "S3"]

    def test_aggregates_bounded(self, d3l_clean):
        pairs = d3l_clean.alignments(["businesses__000"])
        out = weights.weighted_means(weights.ccdf_weights(pairs))
        for t in EVIDENCE_TYPES:
            assert out[f"D_{t}"].between(0.0, 1.0).all()

    def test_oracle_weighted_mean(self, toy_pairs):
        """Eq. 1 agrees with the same weighted mean in DuckDB."""
        pw_pdf = weights.ccdf_weights(toy_pairs)
        got = weights.weighted_means(pw_pdf)[["q_table", "s_table", "D_n"]]
        assert_equivalent(
            got,
            """
            SELECT q_table, s_table,
                   CASE WHEN sum(w_n) > 0 THEN sum(w_n * d_n) / sum(w_n)
                        ELSE 1.0 END AS D_n
            FROM pw GROUP BY q_table, s_table
            """,
            pw=pw_pdf,
        )
