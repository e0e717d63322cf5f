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

The build takes only the Spark session and the lake's cells: the profiles
use the paper's hash count and banding (:mod:`repro.core.lsh`), the graph
the module's edge and PK/FK thresholds. The profiles are the same
driver-resident :class:`~repro.core.lsh.LshIndex` D3L and TUS use, and the
graph is one lookup over them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.tus import value_sets
from repro.core import features, lsh
from repro.core.distances import with_tables
from repro.core.ranking import LakeSearch, SearchResult
from repro.lake.tables import attrs_df

_TFIDF_DIM = 64
#: Seed of the name profile; the content and TF-IDF profiles use
#: ``_SEED + 1`` and ``_SEED + 2``.
_SEED = 41
#: Minimum similarity for a graph edge (content/name/tfidf).
EDGE_THRESHOLD = 0.3
#: Uniqueness ratio above which an attribute is a PK candidate.
PK_UNIQUENESS = 0.85
#: Minimum value-overlap similarity for a PK/FK candidate edge.
PKFK_THRESHOLD = 0.5


def tfidf_vectors(cells: DataFrame) -> DataFrame:
    """Hashed TF-IDF token vectors per non-numeric attribute.

    Tokens are hashed into a ``_TFIDF_DIM``-dimensional bag (the standard
    hashing trick); weights are tf * idf with idf over attributes as
    documents. Output: ``(attr_id, vec array<double>)``.
    """
    tf = features.value_words(cells).groupBy("attr_id", "w").agg(F.count("*").alias("tf"))
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


@dataclass
class Aurum(LakeSearch):
    """Aurum's graph over the lake; queries are edge lookups."""

    #: materialised relationship edges (query_attr, attr_id, similarity,
    #: q_table, s_table, q_numeric, s_numeric) — built once at index time,
    #: held on the driver.
    edges: pd.DataFrame
    #: PK/FK candidate edges (t1, t2) at table granularity.
    pkfk_edges: pd.DataFrame
    #: the profile store: the per-evidence LSH indexes (``name``,
    #: ``content``, ``tfidf``), retained after graph construction (Aurum
    #: keeps profiles + LSH indexes alongside the graph — they are part of
    #: its space footprint in Experiment 7).
    indexes: dict[str, lsh.LshIndex]

    @staticmethod
    def build(spark: SparkSession, cells: DataFrame) -> "Aurum":
        cells = cells.cache()
        attrs = attrs_df(cells).cache()

        indexes = {
            "name": lsh.minhash_index(features.name_qgrams(attrs), seed=_SEED),
            "content": lsh.minhash_index(value_sets(cells), seed=_SEED + 1),
            "tfidf": lsh.simhash_index(tfidf_vectors(cells), dim=_TFIDF_DIM, seed=_SEED + 2),
        }

        # Graph construction: LSH self-join of *every* attribute against the
        # indexes — the all-pairs edge materialisation that dominates
        # Aurum's indexing cost. One tagged lookup serves both the edges and
        # the PK/FK candidates, each filtered to its own threshold.
        meta = attrs.select("attr_id", "table", "is_numeric").toPandas()
        hits = lsh.lookup(
            indexes,
            meta["attr_id"],
            min_similarity=min(EDGE_THRESHOLD, PKFK_THRESHOLD),
        )
        edges = with_tables(
            hits[hits["similarity"] >= EDGE_THRESHOLD]
            .groupby(["query_attr", "attr_id"], as_index=False)["similarity"]
            .max(),  # certainty = max
            meta,
        )

        # PK/FK candidates: content overlap where either side is near-unique.
        uniq = (
            cells.groupBy("attr_id")
            .agg((F.countDistinct("value") / F.count("*")).alias("uniqueness"))
            .toPandas()
            .set_index("attr_id")["uniqueness"]
        )
        content_pairs = with_tables(
            hits.loc[
                (hits["evidence"] == "content") & (hits["similarity"] >= PKFK_THRESHOLD),
                ["query_attr", "attr_id", "similarity"],
            ],
            meta,
        )
        keep = [
            max(uniq.get(q, 0.0), uniq.get(s, 0.0)) >= PK_UNIQUENESS
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

        return Aurum(
            spark=spark,
            cells=cells,
            attrs=attrs,
            attr_tables=meta,
            edges=edges,
            pkfk_edges=pkfk_edges,
            indexes=indexes,
        )

    def materialize(self) -> dict[str, int]:
        return {"edges": len(self.edges), "pkfk_edges": len(self.pkfk_edges)}

    # -- querying -------------------------------------------------------------

    def search_many(self, target_tables: list[str], k: int) -> dict[str, SearchResult]:
        """Graph traversal: neighbours of the target's attributes, ranked by
        certainty (max edge similarity per source table). k-independent —
        the edges were fixed at build time."""
        self.check_query(target_tables, k)
        align = self.edges[self.edges["q_table"].isin(target_tables)]
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
