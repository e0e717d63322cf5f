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
over the synthetic KB and the default 50-d WEM. The build is Spark, and it
collects what a query reads: the three indexes and the lake's value and
class sets. A query recomputes the target's sets in Spark, then runs the
lookup and the exact refinement against the collected sets on the driver,
since the blocked candidates are candidate-sized.
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
from repro.lake.tables import attrs_df

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
    tokens = features.value_words(cells).groupBy("attr_id").agg(F.collect_set("w").alias("tokens"))
    return features.mean_vectors(tokens, wem)


# ---------------------------------------------------------------------------
# Exact unionability on candidates (post-blocking refinement)
# ---------------------------------------------------------------------------

def _sizes(feats: pd.DataFrame, key: str, name: str) -> pd.DataFrame:
    """``(key, name)``: the size of every feature set."""
    return feats.groupby(key, as_index=False).size().rename(columns={"size": name})


def exact_jaccard_pairs(pairs: pd.DataFrame, feats: pd.DataFrame, q_feats: pd.DataFrame) -> pd.DataFrame:
    """Exact Jaccard ``n_i / (n_q + n_s - n_i)`` of ``(query_attr, attr_id)``
    pairs from ``(attr_id, feature)`` sets, as ``(query_attr, attr_id,
    similarity)``.

    ``q_feats`` is the query side (recomputed at query time), ``feats`` the
    indexed lake side. A pair whose attribute has no set on its side is
    dropped; disjoint sets have ``n_i`` = 0.
    """
    q_feats = q_feats.rename(columns={"attr_id": "query_attr"})
    inter = _sizes(
        pairs.merge(q_feats, on="query_attr").merge(feats, on=["attr_id", "feature"]),
        ["query_attr", "attr_id"],
        "n_i",
    )
    out = (
        pairs.merge(_sizes(q_feats, "query_attr", "n_q"), on="query_attr")
        .merge(_sizes(feats, "attr_id", "n_s"), on="attr_id")
        .merge(inter, on=["query_attr", "attr_id"], how="left")
    )
    n_i = out["n_i"].fillna(0)
    return out[["query_attr", "attr_id"]].assign(similarity=n_i / (out["n_q"] + out["n_s"] - n_i))


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------


@dataclass
class TUS(LakeSearch):
    """The TUS baseline over the same lake representation as D3L."""

    kb: KnowledgeBase
    #: ``(attr_id, feature)`` value and KB-class sets of every lake
    #: attribute, collected once: exact unionability reads them.
    value_feats: pd.DataFrame
    semantic_feats: pd.DataFrame
    #: the ``value``, ``semantic`` and ``nl`` LSH indexes.
    indexes: dict[str, lsh.LshIndex]

    @staticmethod
    def build(spark: SparkSession, cells: DataFrame) -> "TUS":
        kb = KnowledgeBase()
        wem = WordEmbeddingModel()
        cells = cells.cache()
        attrs = attrs_df(cells).cache()

        # Cached only while the signatures and the driver copies are taken.
        vf = value_sets(cells).cache()
        sf = semantic_sets(cells, kb).cache()
        indexes = {
            "value": lsh.minhash_index(vf, seed=_SEED),
            "semantic": lsh.minhash_index(sf, seed=_SEED + 1),
            "nl": lsh.simhash_index(token_vectors(cells, wem), dim=wem.dim, seed=_SEED + 2),
        }
        tus = TUS(
            spark=spark,
            cells=cells,
            attrs=attrs,
            attr_tables=attrs.select("attr_id", "table", "is_numeric").toPandas(),
            kb=kb,
            value_feats=vf.toPandas(),
            semantic_feats=sf.toPandas(),
            indexes=indexes,
        )
        vf.unpersist()
        sf.unpersist()
        return tus

    def materialize(self) -> dict[str, int]:
        return {
            **self.index_counts(),
            "value_feats": len(self.value_feats),
            "semantic_feats": len(self.semantic_feats),
        }

    # -- querying -------------------------------------------------------------

    def search_many(self, target_tables: list[str], k: int) -> dict[str, SearchResult]:
        """Top-k unionable tables per target.

        Per the TUS query model, the target's semantic/value features are
        recomputed from its cells at query time (the YAGO-mapping cost) and
        exact unionability is computed on every blocked candidate pair.
        """
        self.check_query(target_tables, k)
        target_cells = self.cells.where(F.col("table").isin(target_tables))

        # Query-time feature recomputation in Spark (deliberate, faithful cost).
        q_vf = value_sets(target_cells).toPandas()
        q_sf = semantic_sets(target_cells, self.kb).toPandas()

        hits = lsh.lookup(
            self.indexes, self.target_attrs(target_tables), min_similarity=lsh.MIN_SIMILARITY
        )

        def _hits(evidence: str) -> pd.DataFrame:
            return hits.loc[hits["evidence"] == evidence, ["query_attr", "attr_id", "similarity"]]

        # Exact unionability on the blocked candidates; the NL evidence keeps
        # its LSH cosine estimate, clamped at 0. Max-score aggregation.
        exact = [
            exact_jaccard_pairs(_hits(evidence)[["query_attr", "attr_id"]], feats, q_feats)
            for evidence, feats, q_feats in (
                ("value", self.value_feats, q_vf),
                ("semantic", self.semantic_feats, q_sf),
            )
        ]
        nl = _hits("nl").assign(similarity=lambda h: h["similarity"].clip(lower=0.0))
        merged = (
            pd.concat([*exact, nl], ignore_index=True)
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
