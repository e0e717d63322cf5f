"""KS statistic and the Algorithm 2 guard logic."""
from types import SimpleNamespace

import duckdb
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core import distances, lsh
from repro.core.distances import EVIDENCE_TYPES, ks_statistic, numeric_extents
from repro.oracle import assert_equivalent


class TestKS:
    def test_identical_samples_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_supports_one(self):
        assert ks_statistic(np.array([1.0, 2.0]), np.array([10.0, 11.0])) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(0, 1, 40), rng.normal(0.5, 1, 60)
        assert ks_statistic(x, y) == pytest.approx(ks_statistic(y, x))

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.normal(0, 1, 30), rng.normal(0, 2, 30)
            assert 0.0 <= ks_statistic(x, y) <= 1.0

    def test_same_distribution_small(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(0, 1, 500), rng.normal(0, 1, 500)
        assert ks_statistic(x, y) < 0.12

    def test_shifted_distribution_large(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(0, 1, 500), rng.normal(3, 1, 500)
        assert ks_statistic(x, y) > 0.8

    def test_empty_sample_maximal(self):
        assert ks_statistic(np.array([]), np.array([1.0])) == 1.0

    def test_known_value(self):
        # F_x jumps to 1 at 1; F_y jumps to 1 at 2 -> sup diff at t in [1,2) = 1/2...
        # x={1,3}, y={2,4}: at t=1: |0.5-0| = .5; t=2: |0.5-0.5|=0; t=3: |1-.5|=.5
        assert ks_statistic(np.array([1.0, 3.0]), np.array([2.0, 4.0])) == 0.5

    def test_reference_implementation(self):
        """Cross-check against a brute-force sup over a dense grid."""
        rng = np.random.default_rng(4)
        x, y = rng.normal(0, 1, 37), rng.normal(1, 2, 23)
        grid = np.linspace(-10, 10, 20001)
        fx = np.searchsorted(np.sort(x), grid, side="right") / len(x)
        fy = np.searchsorted(np.sort(y), grid, side="right") / len(y)
        brute = float(np.max(np.abs(fx - fy)))
        assert ks_statistic(x, y) == pytest.approx(brute, abs=1e-9)


class TestNumericExtents:
    def test_numeric_only(self, spark):
        from repro.lake import tables

        cells = tables.cells_df(
            spark, {"t": pd.DataFrame({"n": [1, 2, 3], "s": ["a", "b", "c"]})}
        )
        rows = numeric_extents(cells).collect()
        assert {r["attr_id"] for r in rows} == {"t||n"}
        assert sorted(rows[0]["vals"]) == [1.0, 2.0, 3.0]


class TestEvidenceTypes:
    def test_five_types(self):
        assert EVIDENCE_TYPES == ("n", "v", "f", "e", "d")


class TestGuards:
    """Algorithm 2 behaviour, observed through ``D3L.alignments``."""

    def test_numeric_pairs_with_shared_names_get_ks(self, d3l_clean):
        pairs = d3l_clean.alignments(["gp_staff__000"])
        num = pairs[pairs["q_numeric"] & pairs["s_numeric"]]
        # gp_staff numeric columns (gps/nurses/admin_staff) share names with
        # their siblings -> guard 2 fires -> some d_d < 1.
        assert (num["d_d"] < 1.0).any()

    def test_textual_pairs_have_dd_one(self, d3l_clean):
        pairs = d3l_clean.alignments(["gp_practices__000"])
        text = pairs[~pairs["q_numeric"] | ~pairs["s_numeric"]]
        assert (text["d_d"] == 1.0).all()

    def test_all_distances_bounded(self, d3l_clean):
        pairs = d3l_clean.alignments(["schools__000"])
        for t in EVIDENCE_TYPES:
            assert pairs[f"d_{t}"].between(0.0, 1.0).all(), t

    def test_no_self_table_pairs(self, d3l_clean):
        pairs = d3l_clean.alignments(["crimes__000"])
        assert (pairs["q_table"] != pairs["s_table"]).all()
        assert (pairs["q_table"] == "crimes__000").all()

    def test_subject_guard_extends_candidates(self, spark):
        """Guard 1: numeric pairs between subject-related tables get a KS
        measurement even when both I_N and I_F missed the pair itself.

        'x' (ints, format N) vs 'y' (decimal floats, format NPN) share
        neither name q-grams nor formats — only the identical subject
        columns relate the tables, so any d_d < 1 proves guard 1 fired.
        """
        import numpy as np

        from repro.core.ranking import D3L
        from repro.lake import tables as lt

        names = [f"entity {i} unique" for i in range(30)]
        rng = np.random.default_rng(0)
        a = pd.DataFrame({"name": names, "x": rng.integers(0, 100, 30)})
        b = pd.DataFrame({"title": names, "y": (rng.random(30) * 100 + 0.123).round(3)})
        cells = lt.cells_df(spark, {"A": a, "B": b})
        d3l = D3L.build(spark, cells)
        pairs = d3l.alignments(["A"])
        num = pairs[
            (pairs["query_attr"] == "A||x") & (pairs["attr_id"] == "B||y")
        ]
        assert len(num) == 1
        assert num["d_d"].iloc[0] < 1.0  # KS was computed
        assert num["d_n"].iloc[0] == 1.0 and num["d_f"].iloc[0] == 1.0
        d3l.unpersist()


class TestDomainDistancesOracle:
    """Algorithm 2 on a collected ``d3l_noisy`` pair table against the
    guard-admitted pair set computed independently in DuckDB."""

    @pytest.fixture(scope="class")
    def case(self, d3l_noisy, noisy_lake):
        d3l = d3l_noisy
        targets = sorted(noisy_lake.tables)[:12]
        q_attrs = [r["attr_id"] for r in d3l.attrs.where(F.col("table").isin(targets)).collect()]
        hits = lsh.lookup(d3l._indexes(), q_attrs, min_similarity=lsh.MIN_SIMILARITY)
        pairs = distances.pair_table(hits, d3l.attr_tables)
        extents = d3l.extent_values
        out = distances.domain_distances(pairs, extents, d3l.subject_attrs)
        con = duckdb.connect()
        try:
            con.register("pairs", pairs)
            con.register("subjects", d3l.subjects)
            con.register("ext_ids", extents[["attr_id"]])
            admitted = con.execute(
                """
                WITH related AS (
                    SELECT DISTINCT p.q_table, p.s_table FROM pairs p
                    JOIN subjects sq ON sq.attr_id = p.query_attr
                    JOIN subjects ss ON ss.attr_id = p.attr_id),
                ext AS (SELECT attr_id, split_part(attr_id, '||', 1) AS tbl FROM ext_ids)
                SELECT eq.attr_id AS query_attr, es.attr_id AS attr_id
                FROM related r
                JOIN ext eq ON eq.tbl = r.q_table
                JOIN ext es ON es.tbl = r.s_table
                UNION
                SELECT query_attr, attr_id FROM pairs
                WHERE q_numeric AND s_numeric AND (d_n < 1.0 OR d_f < 1.0)
                  AND query_attr IN (SELECT attr_id FROM ext_ids)
                  AND attr_id IN (SELECT attr_id FROM ext_ids)
                """
            ).fetchdf()
        finally:
            con.close()
        return SimpleNamespace(
            d3l=d3l, targets=targets, pairs=pairs, extents=extents, out=out, admitted=admitted
        )

    def test_rows_are_pairs_plus_admitted(self, case):
        assert len(case.admitted) > 0
        assert_equivalent(
            case.out[["query_attr", "attr_id"]],
            "SELECT query_attr, attr_id FROM pairs UNION SELECT query_attr, attr_id FROM admitted",
            pairs=case.pairs,
            admitted=case.admitted,
        )

    def test_admitted_pairs_get_their_ks_statistic(self, case):
        vals = dict(zip(case.extents["attr_id"], case.extents["vals"]))
        got = case.out.merge(case.admitted, on=["query_attr", "attr_id"])
        assert len(got) == len(case.admitted)
        want = [ks_statistic(vals[q], vals[s]) for q, s in zip(got["query_attr"], got["attr_id"])]
        assert got["d_d"].tolist() == want

    def test_every_other_pair_has_dd_one(self, case):
        other = case.out.merge(case.admitted, on=["query_attr", "attr_id"], how="left", indicator=True)
        assert (other.loc[other["_merge"] == "left_only", "d_d"] == 1.0).all()

    def test_pair_rows_keep_their_lsh_distances(self, case):
        pairs, out = case.pairs, case.out
        cols = ["query_attr", "attr_id", "q_table", "s_table", "q_numeric", "s_numeric"]
        cols += [f"d_{t}" for t in EVIDENCE_TYPES[:4]]
        kept = out.merge(pairs[["query_attr", "attr_id"]], on=["query_attr", "attr_id"])[cols]
        pd.testing.assert_frame_equal(
            kept.sort_values(cols[:2]).reset_index(drop=True),
            pairs[cols].sort_values(cols[:2]).reset_index(drop=True),
        )
        added = out.merge(pairs[["query_attr", "attr_id"]], how="left", indicator=True)
        added = added[added["_merge"] == "left_only"]
        assert added[["q_numeric", "s_numeric"]].all().all()
        assert (added[[f"d_{t}" for t in EVIDENCE_TYPES[:4]]] == 1.0).all().all()

    def test_alignments_is_the_same_table(self, case):
        key = ["query_attr", "attr_id"]
        got = case.d3l.alignments(case.targets)
        pd.testing.assert_frame_equal(
            got[case.out.columns].sort_values(key).reset_index(drop=True),
            case.out.sort_values(key).reset_index(drop=True),
        )
