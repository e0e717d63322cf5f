"""Aurum baseline ([9] — Fernandez et al., ICDE'18).

Aurum profiles every column, then materialises a *graph* whose edges link
similar columns; discovery queries traverse the graph. Faithful properties
(per both papers):

* evidence types: attribute-name similarity (q-gram MinHash), raw-content
  similarity (value-set MinHash) and TF/IDF token similarity (hashed
  TF-IDF vectors under random projections) — schema + instance level, but
  coarser-grained than D3L (whole values, no format/KS evidence);
* the *graph is built at indexing time* via LSH self-joins over all
  columns — the dominant indexing cost (D3L Experiment 4) — and queries
  are k-independent edge lookups (D3L Experiment 5: "the indexes are
  queried only once, when the graph structure is created");
* ranking uses the *certainty* strategy: when attributes are related by
  more than one evidence type, the maximum similarity score ranks the
  result (D3L §V-A footnote 4);
* join discovery (Aurum+J) uses PK/FK *candidate* edges — value overlap
  where at least one side is near-unique — with no subject-attribute
  restriction, which is why D3L+J is the more precise of the two
  (Experiments 9/11).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core import features, lsh, minhash, randproj
from repro.core.ranking import LakeSearch, SearchResult
from repro.embedding.wem import WordEmbeddingModel

_TFIDF_DIM = 64


def tfidf_vectors(cells: DataFrame) -> DataFrame:
    """Hashed TF-IDF token vectors per non-numeric attribute.

    Tokens are hashed into a ``_TFIDF_DIM``-dimensional bag (the standard
    hashing trick); weights are tf * idf with idf over attributes as
    documents. Output: ``(attr_id, vec array<double>)``.
    """
    words = (
        cells.where(~F.col("is_numeric"))
        .select(
            "attr_id",
            F.explode(F.split(F.lower(F.col("value")), features.WORD_SPLIT)).alias("w"),
        )
        .where(F.col("w") != "")
    )
    tf = words.groupBy("attr_id", "w").agg(F.count("*").alias("tf"))
    n_attrs = tf.select("attr_id").distinct().count()
    df_ = tf.groupBy("w").agg(F.countDistinct("attr_id").alias("df"))
    weighted = tf.join(df_, "w").select(
        "attr_id",
        (F.pmod(F.xxhash64("w"), F.lit(_TFIDF_DIM))).cast("int").alias("slot"),
        (F.col("tf") * F.log((F.lit(float(n_attrs)) + 1.0) / (F.col("df") + 1.0))).alias("wt"),
    )
    slots = weighted.groupBy("attr_id", "slot").agg(F.sum("wt").alias("wt"))

    # Gather each attribute's slots together before vectorising.
    gathered = slots.groupBy("attr_id").agg(
        F.collect_list("slot").alias("slot_l"), F.collect_list("wt").alias("wt_l")
    )

    def _to_vec(batch_iter):
        for batch in batch_iter:
            if batch.empty:
                yield pd.DataFrame({"attr_id": pd.Series(dtype=str), "vec": pd.Series(dtype=object)})
                continue
            vecs = []
            for slots_, wts in zip(batch["slot_l"], batch["wt_l"]):
                v = np.zeros(_TFIDF_DIM)
                v[np.asarray(slots_, dtype=int)] = np.asarray(wts, dtype=float)
                vecs.append(v.tolist())
            yield pd.DataFrame({"attr_id": batch["attr_id"], "vec": vecs})

    return gathered.mapInPandas(_to_vec, schema="attr_id string, vec array<double>")


@dataclass(frozen=True)
class AurumConfig:
    n_hashes: int = 256
    n_bands_jaccard: int = 64
    n_bands_cosine: int = 32
    #: minimum similarity for a graph edge (content/name/tfidf).
    edge_threshold: float = 0.3
    #: uniqueness ratio above which an attribute is a PK candidate.
    pk_uniqueness: float = 0.85
    #: minimum value overlap similarity for a PK/FK candidate edge.
    pkfk_threshold: float = 0.5
    seed: int = 41


@dataclass
class Aurum(LakeSearch):
    """Aurum's graph over the lake; queries are edge lookups."""

    spark: SparkSession
    cells: DataFrame
    attrs: DataFrame
    #: materialised relationship edges (query_attr, attr_id, similarity,
    #: q_table, s_table) — built once at index time.
    edges: DataFrame
    #: PK/FK candidate edges (t1, t2) at table granularity.
    pkfk_edges: pd.DataFrame
    #: the profile store: per-evidence column signatures, retained after
    #: graph construction (Aurum keeps profiles + LSH indexes alongside the
    #: graph — they are part of its space footprint in Experiment 7).
    profile_sigs: dict[str, DataFrame]
    config: AurumConfig

    @staticmethod
    def build(
        spark: SparkSession,
        cells: DataFrame,
        *,
        wem: WordEmbeddingModel | None = None,
        config: AurumConfig | None = None,
    ) -> "Aurum":
        from repro.baselines.tus import value_sets
        from repro.lake.tables import attrs_df

        cfg = config or AurumConfig()
        cells = cells.cache()
        attrs = attrs_df(cells).cache()

        sig_name = minhash.signatures_df(
            features.name_qgrams(attrs), n_hashes=cfg.n_hashes, seed=cfg.seed
        )
        vf = value_sets(cells).cache()
        sig_content = minhash.signatures_df(vf, n_hashes=cfg.n_hashes, seed=cfg.seed + 1)
        sig_tfidf = randproj.bit_signatures_df(
            tfidf_vectors(cells), dim=_TFIDF_DIM, n_bits=cfg.n_hashes, seed=cfg.seed + 2
        )

        idx_name = lsh.LshIndex.build(sig_name, kind="jaccard", n_bands=cfg.n_bands_jaccard)
        idx_content = lsh.LshIndex.build(sig_content, kind="jaccard", n_bands=cfg.n_bands_jaccard)
        idx_tfidf = lsh.LshIndex.build(sig_tfidf, kind="cosine", n_bands=cfg.n_bands_cosine)

        # Graph construction: LSH self-join of *every* attribute against the
        # indexes — the all-pairs edge materialisation that dominates
        # Aurum's indexing cost. One tagged lookup serves both the edges and
        # the PK/FK candidates, each filtered to its own threshold.
        hits = lsh.lookup(
            {"name": idx_name, "content": idx_content, "tfidf": idx_tfidf},
            attrs.select("attr_id"),
            min_similarity=min(cfg.edge_threshold, cfg.pkfk_threshold),
        ).cache()
        q_meta = attrs.select(
            F.col("attr_id").alias("query_attr"), F.col("table").alias("q_table")
        )
        s_meta = attrs.select("attr_id", F.col("table").alias("s_table"))
        edges = (
            hits.where(F.col("similarity") >= cfg.edge_threshold)
            .groupBy("query_attr", "attr_id")
            .agg(F.max("similarity").alias("similarity"))  # certainty = max
            .join(q_meta, "query_attr")
            .join(s_meta, "attr_id")
            .where(F.col("q_table") != F.col("s_table"))
            .cache()
        )
        edges.count()  # materialise the graph now (indexing-time cost)

        # PK/FK candidates: content overlap where either side is near-unique.
        uniq = (
            cells.groupBy("attr_id")
            .agg((F.countDistinct("value") / F.count("*")).alias("uniqueness"))
            .toPandas()
            .set_index("attr_id")["uniqueness"]
        )
        content_pairs = (
            hits.where(
                (F.col("evidence") == "content") & (F.col("similarity") >= cfg.pkfk_threshold)
            )
            .select("query_attr", "attr_id", "similarity")
            .join(q_meta, "query_attr")
            .join(s_meta, "attr_id")
            .where(F.col("q_table") != F.col("s_table"))
            .toPandas()
        )
        hits.unpersist()
        keep = [
            max(uniq.get(q, 0.0), uniq.get(s, 0.0)) >= cfg.pk_uniqueness
            for q, s in zip(content_pairs["query_attr"], content_pairs["attr_id"])
        ]
        pkfk = content_pairs[pd.Series(keep, index=content_pairs.index)]
        pkfk_edges = (
            pd.DataFrame(
                {
                    "t1": np.minimum(pkfk["q_table"], pkfk["s_table"]),
                    "t2": np.maximum(pkfk["q_table"], pkfk["s_table"]),
                }
            ).drop_duplicates()
            if len(pkfk)
            else pd.DataFrame({"t1": pd.Series(dtype=str), "t2": pd.Series(dtype=str)})
        )

        # Keep the signatures (the profile store); drop only the band
        # tables, which the graph replaces at query time.
        for idx in (idx_name, idx_content, idx_tfidf):
            idx.bands.unpersist()
        vf.unpersist()

        return Aurum(
            spark=spark,
            cells=cells,
            attrs=attrs,
            edges=edges,
            pkfk_edges=pkfk_edges,
            profile_sigs={
                "name": idx_name.signatures,
                "content": idx_content.signatures,
                "tfidf": idx_tfidf.signatures,
            },
            config=cfg,
        )

    def materialize(self) -> dict[str, int]:
        return {"edges": self.edges.count(), "pkfk_edges": len(self.pkfk_edges)}

    def unpersist(self) -> None:
        for df in (self.edges, self.cells, self.attrs, *self.profile_sigs.values()):
            try:
                df.unpersist()
            except Exception:  # pragma: no cover
                pass

    # -- querying -------------------------------------------------------------

    def search_many(self, target_tables: list[str], k: int) -> dict[str, SearchResult]:
        """Graph traversal: neighbours of the target's attributes, ranked by
        certainty (max edge similarity per source table). k-independent —
        the edges were fixed at build time."""
        self.check_query(target_tables, k)
        align = self.edges.where(F.col("q_table").isin(target_tables)).toPandas()
        results: dict[str, SearchResult] = {}
        for target in target_tables:
            a = align[align["q_table"] == target].reset_index(drop=True)
            if a.empty:
                results[target] = SearchResult(target=target, ranking=[], alignments=a)
                continue
            # Certainty = max edge similarity; the coarse evidence saturates
            # at 1.0 for many tables (identical column names), so ties break
            # by the number of supporting edges, then total similarity.
            agg = a.groupby("s_table")["similarity"].agg(["max", "size", "sum"])
            agg = agg.sort_values(["max", "size", "sum"], ascending=False).head(k)
            ranking = [(t, float(s)) for t, s in agg["max"].items()]
            results[target] = SearchResult(target=target, ranking=ranking, alignments=a)
        return results

    def search(self, target_table: str, k: int) -> SearchResult:
        return self.search_many([target_table], k)[target_table]
