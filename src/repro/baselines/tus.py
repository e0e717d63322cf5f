"""Table Union Search baseline (TUS, [10] — Nargesian et al., PVLDB'18).

The D3L authors reimplemented TUS themselves (its code was not public); we
do the same from the descriptions in both papers. TUS measures attribute
*unionability* from three instance-value evidence types and takes the
maximum ("max-score aggregation" per D3L §V-C):

* **set unionability** — Jaccard overlap of the raw (lower-cased) value
  sets: equality-sensitive, the property D3L's Experiment 3 exploits;
* **semantic unionability** — Jaccard overlap of the YAGO class sets of
  the value tokens (here: the synthetic KB, :mod:`repro.baselines.kb`);
* **natural-language unionability** — cosine similarity of value
  word-embedding vectors.

Table unionability is the mean over target attributes of the best aligned
attribute's score. Faithful cost/behaviour properties preserved:

* numeric attributes are ignored entirely (D3L Experiment 6 discussion);
* KB mapping happens at index *and* query time (the target's features are
  recomputed per query — D3L Experiment 5: "at search time, the same
  process of mapping each instance value to YAGO is applied");
* the LSH index is only a *blocking* step: exact unionability is computed
  on every candidate pair afterwards (D3L: "there remains a significant
  amount of computation to be done before the unionability measurements
  are obtained").

The build takes only the Spark session and the lake's cells: the indexes
use the paper's hash count, banding and lookup floor (:mod:`repro.core.lsh`)
over the synthetic KB and the default 50-d WEM.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.kb import KnowledgeBase
from repro.core import features, lsh
from repro.core.distances import with_tables
from repro.core.ranking import LakeSearch, SearchResult
from repro.embedding.wem import WordEmbeddingModel

#: Seed of the value index; the semantic and NL indexes use ``_SEED + 1``
#: and ``_SEED + 2``.
_SEED = 29


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def value_sets(cells: DataFrame) -> DataFrame:
    """Raw value features ``(attr_id, feature)`` — lower-cased full values
    of non-numeric attributes (TUS's equality-based set unionability)."""
    return (
        cells.where(~F.col("is_numeric"))
        .select("attr_id", F.lower(F.col("value")).alias("feature"))
        .distinct()
    )


def semantic_sets(cells: DataFrame, kb: KnowledgeBase) -> DataFrame:
    """KB class features ``(attr_id, feature)`` — union of the class chains
    of every token of every value (the expensive YAGO-mapping path)."""

    def _classes(batch_iter):
        for batch in batch_iter:
            if batch.empty:
                yield pd.DataFrame({"attr_id": pd.Series(dtype=str), "feature": pd.Series(dtype=str)})
                continue
            ids, feats = [], []
            for attr, value in zip(batch["attr_id"], batch["value"]):
                for cls in kb.classes_of_value(value):
                    ids.append(attr)
                    feats.append(cls)
            yield pd.DataFrame({"attr_id": ids, "feature": feats})

    base = cells.where(~F.col("is_numeric")).select("attr_id", "value")
    return base.mapInPandas(
        _classes, schema="attr_id string, feature string"
    ).distinct()


def token_vectors(cells: DataFrame, wem: WordEmbeddingModel) -> DataFrame:
    """Mean embedding over *all* value tokens ``(attr_id, vec)`` (TUS's NL
    unionability does not do D3L's frequent/infrequent split)."""
    words = (
        cells.where(~F.col("is_numeric"))
        .select(
            "attr_id",
            F.explode(F.split(F.lower(F.col("value")), features.WORD_SPLIT)).alias("w"),
        )
        .where(F.col("w") != "")
        .groupBy("attr_id")
        .agg(F.collect_set("w").alias("tokens"))
    )

    def _agg(batch_iter):
        for batch in batch_iter:
            if batch.empty:
                yield pd.DataFrame({"attr_id": pd.Series(dtype=str), "vec": pd.Series(dtype=object)})
                continue
            vecs = batch["tokens"].map(lambda ts: wem.aggregate(ts))
            keep = vecs.map(lambda v: float((v ** 2).sum()) > 0.0)
            yield pd.DataFrame(
                {"attr_id": batch["attr_id"][keep], "vec": vecs[keep].map(lambda v: v.tolist())}
            )

    return words.mapInPandas(_agg, schema="attr_id string, vec array<double>")


# ---------------------------------------------------------------------------
# Exact unionability on candidates (post-blocking refinement)
# ---------------------------------------------------------------------------

def exact_jaccard_pairs(pairs: DataFrame, feats: DataFrame, q_feats: DataFrame) -> DataFrame:
    """Exact Jaccard for ``(query_attr, attr_id)`` pairs from feature sets.

    ``q_feats`` is the query side (recomputed at query time), ``feats`` the
    indexed lake side.
    """
    q_sizes = q_feats.groupBy(F.col("attr_id").alias("query_attr")).agg(
        F.count("*").alias("n_q")
    )
    s_sizes = feats.groupBy("attr_id").agg(F.count("*").alias("n_s"))
    inter = (
        pairs.join(
            q_feats.select(F.col("attr_id").alias("query_attr"), "feature"), "query_attr"
        )
        .join(feats, ["attr_id", "feature"])
        .groupBy("query_attr", "attr_id")
        .agg(F.count("*").alias("n_i"))
    )
    return (
        pairs.join(inter, ["query_attr", "attr_id"], "left")
        .join(q_sizes, "query_attr")
        .join(s_sizes, "attr_id")
        .fillna(0, subset=["n_i"])
        .select(
            "query_attr",
            "attr_id",
            (F.col("n_i") / (F.col("n_q") + F.col("n_s") - F.col("n_i"))).alias("similarity"),
        )
    )


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------


@dataclass
class TUS(LakeSearch):
    """The TUS baseline over the same lake representation as D3L."""

    spark: SparkSession
    cells: DataFrame
    attrs: DataFrame
    attr_tables: pd.DataFrame
    kb: KnowledgeBase
    value_feats: DataFrame
    semantic_feats: DataFrame
    index_value: lsh.LshIndex
    index_semantic: lsh.LshIndex
    index_nl: lsh.LshIndex

    @staticmethod
    def build(spark: SparkSession, cells: DataFrame) -> "TUS":
        from repro.lake.tables import attrs_df

        kb = KnowledgeBase()
        wem = WordEmbeddingModel()
        cells = cells.cache()
        attrs = attrs_df(cells).cache()

        vf = value_sets(cells).cache()
        sf = semantic_sets(cells, kb).cache()
        idx_v = lsh.minhash_index(vf, seed=_SEED)
        idx_s = lsh.minhash_index(sf, seed=_SEED + 1)
        idx_e = lsh.simhash_index(token_vectors(cells, wem), dim=wem.dim, seed=_SEED + 2)
        return TUS(
            spark=spark,
            cells=cells,
            attrs=attrs,
            attr_tables=attrs.select("attr_id", "table", "is_numeric").toPandas(),
            kb=kb,
            value_feats=vf,
            semantic_feats=sf,
            index_value=idx_v,
            index_semantic=idx_s,
            index_nl=idx_e,
        )

    def materialize(self) -> dict[str, int]:
        counts = {}
        for name, idx in (
            ("value", self.index_value),
            ("semantic", self.index_semantic),
            ("nl", self.index_nl),
        ):
            counts[f"sig_{name}"] = len(idx.attr_ids)
            counts[f"bands_{name}"] = idx.band_matrix.size
        counts["value_feats"] = self.value_feats.count()
        counts["semantic_feats"] = self.semantic_feats.count()
        return counts

    def unpersist(self) -> None:
        for df in (self.cells, self.attrs, self.value_feats, self.semantic_feats):
            try:
                df.unpersist()
            except Exception:  # pragma: no cover
                pass

    # -- querying -------------------------------------------------------------

    def search_many(self, target_tables: list[str], k: int) -> dict[str, SearchResult]:
        """Top-k unionable tables per target.

        Per the TUS query model, the target's semantic/value features are
        recomputed from its cells at query time (the YAGO-mapping cost) and
        exact unionability is computed on every blocked candidate pair.
        """
        self.check_query(target_tables, k)
        target_cells = self.cells.where(F.col("table").isin(target_tables))

        # Query-time feature recomputation (deliberate, faithful cost).
        q_vf = value_sets(target_cells)
        q_sf = semantic_sets(target_cells, self.kb)

        hits = lsh.lookup(
            {"value": self.index_value, "semantic": self.index_semantic, "nl": self.index_nl},
            self.target_attrs(target_tables),
            min_similarity=lsh.MIN_SIMILARITY,
        )

        def _hits(evidence: str) -> pd.DataFrame:
            return hits.loc[hits["evidence"] == evidence, ["query_attr", "attr_id", "similarity"]]

        def _candidates(evidence: str) -> DataFrame:
            return self.spark.createDataFrame(
                _hits(evidence)[["query_attr", "attr_id"]], schema="query_attr string, attr_id string"
            )

        # Exact unionability on the blocked candidates, in Spark against the
        # lake-sized feature sets; the NL evidence keeps its LSH cosine
        # estimate, clamped at 0. Max-score aggregation.
        exact = (
            exact_jaccard_pairs(_candidates("value"), self.value_feats, q_vf)
            .unionByName(exact_jaccard_pairs(_candidates("semantic"), self.semantic_feats, q_sf))
            .toPandas()
        )
        nl = _hits("nl").assign(similarity=lambda h: h["similarity"].clip(lower=0.0))
        merged = (
            pd.concat([exact, nl], ignore_index=True)
            .groupby(["query_attr", "attr_id"], as_index=False)["similarity"]
            .max()
        )
        meta = self.attr_tables
        align = with_tables(merged, meta)
        # Non-numeric attributes per target, the denominator of the score.
        n_textual = meta[meta["table"].isin(target_tables) & ~meta["is_numeric"]].groupby("table").size()

        results: dict[str, SearchResult] = {}
        for target in target_tables:
            a = align[align["q_table"] == target].reset_index(drop=True)
            n_attrs = max(1, int(n_textual.get(target, 0)))
            if a.empty:
                results[target] = SearchResult(target=target, ranking=[], alignments=a)
                continue
            best = (
                a.groupby(["s_table", "query_attr"])["similarity"].max().reset_index()
            )
            score = best.groupby("s_table")["similarity"].sum() / n_attrs
            score = score.sort_values(ascending=False).head(k)
            ranking = [(t, float(s)) for t, s in score.items()]
            results[target] = SearchResult(target=target, ranking=ranking, alignments=a)
        return results
