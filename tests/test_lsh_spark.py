"""Spark MinHash signatures and the banded LSH index built from them, held
on the driver, which serves every lookup."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core import features, lsh, minhash, randproj
from repro.core.hashing import HashFamily, fold_rows64
from repro.oracle import assert_equivalent


def _hits(index, q, **kw) -> dict[str, float]:
    """``attr_id -> similarity`` of a lookup in ``index`` alone."""
    hits = lsh.lookup({"x": index}, q, **kw)
    return dict(zip(hits["attr_id"], hits["similarity"]))


def _features_df(spark, sets: dict[str, set]):
    rows = [(a, f) for a, feats in sets.items() for f in feats]
    return spark.createDataFrame(rows, schema="attr_id string, feature string")


@pytest.fixture(scope="module")
def toy_sets():
    base = {f"x{i}" for i in range(60)}
    return {
        "A": base,
        "B": set(list(base)[:40]) | {f"b{i}" for i in range(20)},  # J(A,B)~0.5
        "C": {f"c{i}" for i in range(60)},  # disjoint
        "D": base,  # identical to A
    }


@pytest.fixture(scope="module")
def sigs(spark, toy_sets):
    return minhash.signatures_df(_features_df(spark, toy_sets)).cache()


class TestSignaturesDf:
    def test_one_row_per_attr(self, sigs, toy_sets):
        assert sigs.count() == len(toy_sets)

    def test_signature_length(self, sigs):
        assert all(len(r["sig"]) == 256 for r in sigs.collect())

    def test_identical_sets_identical_sigs(self, sigs):
        rows = {r["attr_id"]: r["sig"] for r in sigs.collect()}
        assert rows["A"] == rows["D"]

    def test_disjoint_sets_differ(self, sigs):
        rows = {r["attr_id"]: r["sig"] for r in sigs.collect()}
        frac_eq = np.mean(np.array(rows["A"]) == np.array(rows["C"]))
        assert frac_eq < 0.05

    def test_seed_changes_signatures(self, spark, toy_sets):
        s1 = minhash.signatures_df(_features_df(spark, toy_sets), seed=1).collect()
        s2 = minhash.signatures_df(_features_df(spark, toy_sets), seed=2).collect()
        r1 = {r["attr_id"]: r["sig"] for r in s1}
        r2 = {r["attr_id"]: r["sig"] for r in s2}
        assert r1["A"] != r2["A"]

    def test_duplicate_features_ignored(self, spark):
        df_dup = spark.createDataFrame(
            [("A", "x"), ("A", "x"), ("A", "y")], schema="attr_id string, feature string"
        )
        df_uniq = spark.createDataFrame(
            [("A", "x"), ("A", "y")], schema="attr_id string, feature string"
        )
        s1 = minhash.signatures_df(df_dup).collect()[0]["sig"]
        s2 = minhash.signatures_df(df_uniq).collect()[0]["sig"]
        assert s1 == s2


@pytest.fixture(scope="module")
def served32(sigs):
    """A 32-band index over ``sigs``."""
    return lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)


class TestBandIndex:
    def test_band_count(self, served32, toy_sets):
        assert served32.band_matrix.shape == (len(toy_sets), 32)
        counts = served32.band_table().groupby("attr_id").size()
        assert (counts == 32).all()

    def test_band_hashes_equal_per_row_fold(self, sigs):
        """The vectorised kernel equals folding each signature's bands one
        attribute at a time."""
        pdf = sigs.toPandas()
        want = np.stack(
            [
                fold_rows64(np.asarray(sig, dtype=np.int64).view(np.uint64).reshape(32, -1)).view(np.int64)
                for sig in pdf["sig"]
            ]
        )
        np.testing.assert_array_equal(lsh.band_hashes(lsh.signature_matrix(pdf["sig"]), 32), want)

    def test_identical_sets_share_every_band(self, served32):
        row = dict(zip(served32.attr_ids, served32.band_matrix))
        np.testing.assert_array_equal(row["A"], row["D"])

    def test_lookup_finds_identical(self, spark, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)
        assert _hits(index, ["A"])["D"] == pytest.approx(1.0)

    def test_lookup_excludes_self(self, spark, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)
        assert "A" not in _hits(index, ["A"])

    def test_lookup_mid_similarity_with_fine_bands(self, spark, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=64)
        hits = _hits(index, ["A"])
        assert "B" in hits
        assert 0.25 < hits["B"] < 0.75

    def test_min_similarity_filter(self, spark, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=64)
        assert set(_hits(index, ["A"], min_similarity=0.9)) == {"D"}

    def test_disjoint_not_candidates(self, spark, sigs):
        index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)
        assert _hits(index, ["C"]) == {}

    def test_build_rejects_bad_kind(self, sigs):
        with pytest.raises(ValueError):
            lsh.LshIndex.build(sigs, kind="hamming", n_bands=32)

    def test_candidate_join_oracle(self, served32):
        """The driver probe's candidate pairs agree with DuckDB's join over
        the same band matrix in long format."""
        rows_q, rows_s, _ = served32.probe(list(served32.attr_ids))
        got = pd.DataFrame(
            {"a1": served32.attr_ids[rows_q], "a2": served32.attr_ids[rows_s]}
        ).query("a1 < a2")
        assert_equivalent(
            got,
            """
            SELECT DISTINCT q.attr_id AS a1, s.attr_id AS a2
            FROM bands q JOIN bands s
              ON q.band = s.band AND q.band_hash = s.band_hash
            WHERE q.attr_id < s.attr_id
            """,
            bands=served32.band_table(),
        )


def _cosine_index(spark, ids=("a", "b", "c")):
    """Bit-signature index: ids[1] is close to ids[0], ids[2] unrelated."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal(50)
    vecs = spark.createDataFrame(
        pd.DataFrame(
            {
                "attr_id": list(ids),
                "vec": [
                    v.tolist(),
                    (0.9 * v + 0.2 * rng.standard_normal(50)).tolist(),
                    rng.standard_normal(50).tolist(),
                ],
            }
        )
    )
    sigs = randproj.bit_signatures_df(vecs, dim=50)
    return lsh.LshIndex.build(sigs, kind="cosine", n_bands=32)


class TestCosineIndex:
    def test_cosine_lookup(self, spark):
        hits = _hits(_cosine_index(spark), ["a"])
        assert "b" in hits and hits["b"] > 0.8
        assert hits.get("c", 0.0) < 0.5


class TestTaggedLookup:
    def test_each_evidence_equals_its_lookup_alone(self, spark, sigs):
        """One lookup over a Jaccard and a cosine index sharing attr ids
        returns, per evidence, exactly that index's own lookup."""
        indexes = {
            "j": lsh.LshIndex.build(sigs, kind="jaccard", n_bands=64),
            "c": _cosine_index(spark, ids=("A", "B", "C")),
        }
        q = ["A", "B", "C"]
        both = lsh.lookup(indexes, q)
        assert set(both["evidence"]) == {"j", "c"}
        for name, index in indexes.items():
            alone = lsh.lookup({name: index}, q)
            got = both[both["evidence"] == name]
            key = ["query_attr", "attr_id"]
            pd.testing.assert_frame_equal(
                got.sort_values(key).reset_index(drop=True),
                alone.sort_values(key).reset_index(drop=True),
            )


class TestServedIndex:
    """The driver-held index every lookup probes, on every D3L index of
    ``d3l_noisy``."""

    @pytest.fixture(scope="class", params=["n", "v", "f", "e"])
    def index(self, request, d3l_noisy):
        return d3l_noisy.indexes[request.param]

    def test_spark_bands_view_is_band_table(self, index):
        """``LshIndex.bands``, the Spark view kept for bucket statistics,
        holds the driver band matrix row for row."""
        key = ["attr_id", "band"]
        pd.testing.assert_frame_equal(
            index.bands.toPandas().sort_values(key).reset_index(drop=True),
            index.band_table().sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )

    def test_lookup_equals_duckdb_similarity_join(self, index, noisy_lake, d3l_noisy):
        """DuckDB joins the long-form band matrix on (band, band_hash) and
        compares the signatures, recomputed in Spark, position by position;
        the driver lookup returns the same pairs and similarities."""
        targets = sorted(noisy_lake.tables)[:12]
        queries = d3l_noisy.target_attrs(targets)
        got = lsh.lookup({"x": index}, queries)
        con = duckdb.connect()
        try:
            con.register("bands", index.band_table())
            con.register("signatures", index.signatures.toPandas())
            con.register("queries", pd.DataFrame({"attr_id": queries}))
            want = con.execute(
                """
                WITH cand AS (
                    SELECT DISTINCT q.attr_id AS query_attr, s.attr_id AS attr_id
                    FROM bands q JOIN bands s
                      ON q.band = s.band AND q.band_hash = s.band_hash
                    WHERE q.attr_id IN (SELECT attr_id FROM queries)
                      AND q.attr_id <> s.attr_id),
                pos AS (
                    SELECT attr_id, unnest(sig) AS v, generate_subscripts(sig, 1) AS i
                    FROM signatures),
                frac AS (
                    SELECT c.query_attr, c.attr_id,
                           SUM(CASE WHEN a.v = b.v THEN 1 ELSE 0 END)::DOUBLE / COUNT(*) AS frac
                    FROM cand c
                    JOIN pos a ON a.attr_id = c.query_attr
                    JOIN pos b ON b.attr_id = c.attr_id AND b.i = a.i
                    GROUP BY c.query_attr, c.attr_id)
                SELECT query_attr, attr_id, frac, cos(pi() * (1.0 - frac)) AS cos_sim FROM frac
                """
            ).fetchdf()
        finally:
            con.close()
        assert len(want) > 0
        key = ["query_attr", "attr_id"]
        got = got.sort_values(key).reset_index(drop=True)
        want = want.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[key], want[key])
        if index.kind == "jaccard":
            np.testing.assert_array_equal(got["similarity"], want["frac"])
        else:
            np.testing.assert_allclose(got["similarity"], want["cos_sim"], rtol=0, atol=1e-12)


class TestBandingRecall:
    """The MinHash banding in :mod:`repro.core.lsh` retrieves every exact
    Jaccard bucket of ``d3l_noisy`` at least as often as its S-curve
    ``1 - (1 - s^r)^b`` at the bucket's lower end promises (MMDS §3.4).

    The tolerance is three binomial standard errors of the bucket's share,
    ``3 * sqrt(p * (1 - p) / pairs)``: each pair is a candidate with
    probability at least ``p``, but a bucket holds only tens to hundreds of
    pairs, so its share scatters around its expectation by that much.
    """

    BUCKETS = [(0.3, 0.5), (0.5, 0.7), (0.7, 1.0)]

    @pytest.fixture(scope="class", params=["n", "v"])
    def pairs(self, request, d3l_noisy):
        """Every attribute pair with a shared feature: its exact Jaccard
        (DuckDB) and whether the index returns it as a candidate."""
        evidence = request.param
        feats = (
            features.name_qgrams(d3l_noisy.attrs)
            if evidence == "n"
            else features.informative_tokens(d3l_noisy.cells)
        ).toPandas()
        con = duckdb.connect()
        try:
            con.register("feats", feats)
            exact = con.execute(
                """
                WITH f AS (SELECT DISTINCT attr_id, feature FROM feats),
                sizes AS (SELECT attr_id, COUNT(*) AS n FROM f GROUP BY attr_id),
                inter AS (
                    SELECT a.attr_id AS a, b.attr_id AS b, COUNT(*) AS i
                    FROM f a JOIN f b ON a.feature = b.feature AND a.attr_id < b.attr_id
                    GROUP BY a.attr_id, b.attr_id)
                SELECT inter.a, inter.b, inter.i::DOUBLE / (sa.n + sb.n - inter.i) AS jaccard
                FROM inter
                JOIN sizes sa ON sa.attr_id = inter.a
                JOIN sizes sb ON sb.attr_id = inter.b
                """
            ).fetchdf()
        finally:
            con.close()
        index = d3l_noisy.indexes[evidence]
        hits = lsh.lookup({evidence: index}, index.attr_ids, min_similarity=0)
        found = set(zip(hits["query_attr"], hits["attr_id"]))
        exact["found"] = [(a, b) in found for a, b in zip(exact["a"], exact["b"])]
        return exact

    @pytest.mark.parametrize("lo,hi", BUCKETS)
    def test_bucket_recall_meets_s_curve(self, pairs, lo, hi):
        s = pairs["jaccard"]
        bucket = pairs[(s >= lo) & ((s < hi) | (hi == 1.0))]
        b = lsh.N_BANDS_JACCARD
        r = minhash.DEFAULT_N_HASHES // b
        p = 1.0 - (1.0 - lo**r) ** b
        tol = 3.0 * np.sqrt(p * (1.0 - p) / len(bucket))
        assert len(bucket) > 0
        recall = bucket["found"].mean()
        assert recall >= p - tol, f"{len(bucket)} pairs: recall {recall:.3f} < {p:.3f} - {tol:.3f}"
