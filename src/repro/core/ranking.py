"""D3L end-to-end: index a lake, return the k-most related tables (§III).

:class:`D3L` owns the four LSH indexes plus the numeric-extent store and
subject-attribute table, and answers top-k queries through the Eq. 1-3
aggregation framework. The build takes only the Spark session and the
lake's cells: the paper's hash count and banding and the lookup floor are
constants of :mod:`repro.core.lsh`, the q-gram length and embedding size
are the feature modules' defaults, and Eq. 3 uses
``DEFAULT_EVIDENCE_WEIGHTS``. The build is Spark; queries run no Spark job.
The build collects everything a query reads, once each: the attribute
profile, which gives the attribute-to-table map and the subject attributes,
the four indexes (:class:`repro.core.lsh.LshIndex`) and the numeric
extents. ``search_many`` resolves any number of targets with one tagged
lookup over the four indexes, then runs Algorithm 2 and Eq. 1-3 on the
candidate pair table in the driver: the pairs are candidate-sized, not
lake-sized.

Targets are lake members (as in the paper's evaluation: targets are drawn
from the repository, and the target itself is excluded from its answer).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import distances as dist
from repro.core import features, lsh, subject, weights
from repro.embedding.wem import WordEmbeddingModel
from repro.lake.tables import table_of

#: Seed of the name index; the value, format and embedding indexes use
#: ``_SEED + 1`` .. ``_SEED + 3``.
_SEED = 7


@dataclass
class SearchResult:
    """Top-k answer for one target."""

    target: str
    ranking: list[tuple[str, float]]  # (table, score) ascending score
    #: per-pair alignments for the *full* candidate set (every table any
    #: index retrieved for this target, top-k or not): columns query_attr,
    #: attr_id, q_table, s_table, d_n..d_d. Coverage metrics filter to the
    #: top-k; Algorithm 3's relatedness guard needs the whole set.
    alignments: pd.DataFrame

    @property
    def tables(self) -> list[str]:
        return [t for t, _ in self.ranking]


class LakeSearch:
    """Query validation and the single-target :meth:`search` shared by D3L,
    TUS and Aurum. Each has ``search_many`` and ``attr_tables``, the
    ``(attr_id, table, is_numeric)`` of every lake attribute that its build
    collects."""

    @cached_property
    def tables(self) -> frozenset[str]:
        """Names of the lake's tables."""
        return frozenset(self.attr_tables["table"])

    def target_attrs(self, target_tables: list[str]) -> pd.Series:
        """Attribute ids of ``target_tables``."""
        at = self.attr_tables
        return at.loc[at["table"].isin(target_tables), "attr_id"]

    def check_query(self, target_tables: list[str], k: int) -> None:
        """Raise ``ValueError`` for ``k <= 0``, for targets that are not
        lake tables and for a target named twice; every ``search_many``
        calls this first."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        unknown = sorted(set(target_tables) - self.tables)
        if unknown:
            raise ValueError(f"targets are not lake tables: {unknown}")
        twice = sorted(t for t, n in Counter(target_tables).items() if n > 1)
        if twice:
            raise ValueError(f"duplicate targets: {twice}")

    def search(self, target_table: str, k: int, **kw) -> SearchResult:
        """Single-target convenience wrapper over ``search_many``."""
        return self.search_many([target_table], k, **kw)[target_table]


@dataclass
class D3L(LakeSearch):
    """The paper's system: four LSH indexes + aggregation framework."""

    spark: SparkSession
    cells: DataFrame
    attrs: DataFrame
    attr_tables: pd.DataFrame
    index_n: lsh.LshIndex
    index_v: lsh.LshIndex
    index_f: lsh.LshIndex
    index_e: lsh.LshIndex
    #: ``(attr_id, vals, table)`` of every numeric attribute.
    extent_values: pd.DataFrame
    #: ``(table, attr_id)``: each table's subject attribute, if it has one.
    subjects: pd.DataFrame

    # -- construction --------------------------------------------------------

    @staticmethod
    def build(spark: SparkSession, cells: DataFrame) -> "D3L":
        """Algorithm 1 over every attribute of the lake."""
        from repro.lake.tables import attrs_df

        wem = WordEmbeddingModel()
        cells = cells.cache()
        attrs = attrs_df(cells).cache()
        profile = attrs.toPandas()

        return D3L(
            spark=spark,
            cells=cells,
            attrs=attrs,
            attr_tables=profile[["attr_id", "table", "is_numeric"]],
            index_n=lsh.minhash_index(features.name_qgrams(attrs), seed=_SEED),
            index_v=lsh.minhash_index(features.informative_tokens(cells), seed=_SEED + 1),
            index_f=lsh.minhash_index(features.format_strings(cells), seed=_SEED + 2),
            index_e=lsh.simhash_index(
                features.embedding_vectors(cells, wem), dim=wem.dim, seed=_SEED + 3
            ),
            extent_values=dist.numeric_extents(cells).withColumn("table", table_of("attr_id")).toPandas(),
            subjects=subject.pick_subjects(subject.attribute_features(profile)),
        )

    def materialize(self) -> dict[str, int]:
        """The sizes of what was built, counted from the driver copies the
        build collected (used by the indexing-time experiment); starts no
        Spark job."""
        counts = {}
        for name, idx in self._indexes().items():
            counts[f"sig_{name}"] = len(idx.attr_ids)
            counts[f"bands_{name}"] = idx.band_matrix.size
        counts["extents"] = len(self.extent_values)
        counts["subjects"] = len(self.subjects)
        # An attribute has a value signature exactly when its tset is non-empty.
        counts["tset_sizes"] = counts["sig_v"]
        return counts

    def _indexes(self) -> dict[str, lsh.LshIndex]:
        return {"n": self.index_n, "v": self.index_v, "f": self.index_f, "e": self.index_e}

    def unpersist(self) -> None:
        for df in (self.cells, self.attrs):
            try:
                df.unpersist()
            except Exception:  # pragma: no cover
                pass

    # -- querying -------------------------------------------------------------

    @cached_property
    def subject_attrs(self) -> frozenset[str]:
        """Attribute ids of the lake's subject attributes (at most one per table)."""
        return frozenset(self.subjects["attr_id"])

    def alignments(self, target_tables: list[str]) -> pd.DataFrame:
        """Per-pair distance table for all attributes of ``target_tables``:
        the tagged lookup over the four indexes, pivoted to distances,
        then Algorithm 2 — all on the driver."""
        hits = lsh.lookup(
            self._indexes(), self.target_attrs(target_tables), min_similarity=lsh.MIN_SIMILARITY
        )
        pairs = dist.pair_table(hits, self.attr_tables)
        return dist.domain_distances(pairs, self.extent_values, self.subject_attrs)

    def table_vectors(
        self, target_tables: list[str]
    ) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Eq. 1 aggregation: (table_vectors, alignments) for the targets.

        ``table_vectors`` has one row per (q_table, s_table) with the 5-d
        distance vector ``D_n .. D_d`` — the feature vectors the paper's
        Eq. 3 weight training consumes; ``alignments`` is the per-pair
        candidate table. Eq. 1-2 run on the collected alignments: they are
        candidate-sized work.
        """
        align = self.alignments(target_tables)
        tv = weights.weighted_means(weights.ccdf_weights(align))
        return tv, align

    def search_many(
        self,
        target_tables: list[str],
        k: int,
        *,
        evidence: str | None = None,
    ) -> dict[str, SearchResult]:
        """Top-k related tables for each target (one lookup for all).

        ``evidence`` restricts ranking to a single evidence type ('n', 'v',
        'f', 'e' or 'd') for the paper's Experiment 1; None uses the full
        Eq. 3 aggregation. Raises ``ValueError`` for ``k <= 0``, for targets
        that are not lake tables and for duplicate targets.
        """
        self.check_query(target_tables, k)
        table_vectors, align = self.table_vectors(target_tables)

        results: dict[str, SearchResult] = {}
        for target in target_tables:
            tv = table_vectors[table_vectors["q_table"] == target].copy()
            if evidence is None:
                scored = weights.combine_eq3(tv)
            else:
                scored = tv.copy()
                scored["score"] = scored[f"D_{evidence}"]
            scored = scored.sort_values(["score", "s_table"]).head(k)
            ranking = list(zip(scored["s_table"], scored["score"]))
            a = align[align["q_table"] == target].reset_index(drop=True)
            results[target] = SearchResult(target=target, ranking=ranking, alignments=a)
        return results
