"""D3L end-to-end: index a lake, return the k-most related tables (§III).

:class:`D3L` owns the four LSH indexes plus the numeric-extent store and
subject-attribute table, and answers top-k queries through the Eq. 1-3
aggregation framework. Queries are batched: ``search_many`` resolves any
number of targets with one tagged lookup over all four indexes (one
similarity join) and Algorithm 2 in Spark, then collects the candidate
pair table once and runs Eq. 1-3 on it in the driver — the pairs are
candidate-sized, not lake-sized. This is how the 100-target experiment
sweeps stay tractable.

Targets are lake members (as in the paper's evaluation: targets are drawn
from the repository, and the target itself is excluded from its answer).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core import distances as dist
from repro.core import features, lsh, minhash, randproj, subject, weights
from repro.embedding.wem import WordEmbeddingModel


@dataclass(frozen=True)
class D3LConfig:
    """Knobs; defaults follow the paper (§V footnote 5) where it gives them."""

    n_hashes: int = 256
    #: Banding for the MinHash indexes: b=64, r=4 -> S-curve midpoint ~0.35.
    #: The paper's LSH Forest (tau=0.7) descends to shorter prefixes until k
    #: answers are found, so mid-similarity items are retrievable; a low
    #: banded threshold is the equivalent behaviour (distances are always
    #: re-estimated from full signatures afterwards).
    n_bands_jaccard: int = 64
    #: Banding for the random-projection index: bit signatures of *unrelated*
    #: vectors already agree on ~50% of positions, so bands must be longer
    #: (b=32, r=8) to keep the false-candidate rate down.
    n_bands_cosine: int = 32
    q: int = 4
    wem_dim: int = 50
    #: candidate floor applied after full-signature re-check; keeps the pair
    #: table focused on attributes with non-trivial similarity.
    min_similarity: float = 0.05
    #: LSH threshold tau used for join discovery (§IV).
    tau: float = 0.7
    seed: int = 7


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


@dataclass
class D3L:
    """The paper's system: four LSH indexes + aggregation framework."""

    spark: SparkSession
    cells: DataFrame
    attrs: DataFrame
    index_n: lsh.LshIndex
    index_v: lsh.LshIndex
    index_f: lsh.LshIndex
    index_e: lsh.LshIndex
    extents: DataFrame
    subjects: DataFrame
    tset_sizes: DataFrame
    config: D3LConfig
    evidence_weights: dict[str, float] = field(
        default_factory=lambda: dict(weights.DEFAULT_EVIDENCE_WEIGHTS)
    )

    # -- construction --------------------------------------------------------

    @staticmethod
    def build(
        spark: SparkSession,
        cells: DataFrame,
        *,
        wem: WordEmbeddingModel | None = None,
        config: D3LConfig | None = None,
        subject_model=None,
    ) -> "D3L":
        """Algorithm 1 over every attribute of the lake."""
        from repro.lake.tables import attrs_df

        cfg = config or D3LConfig()
        wem = wem or WordEmbeddingModel(dim=cfg.wem_dim)
        cells = cells.cache()
        attrs = attrs_df(cells).cache()

        sig_n = minhash.signatures_df(
            features.name_qgrams(attrs, q=cfg.q), n_hashes=cfg.n_hashes, seed=cfg.seed
        )
        tsets = features.informative_tokens(cells).cache()
        sig_v = minhash.signatures_df(tsets, n_hashes=cfg.n_hashes, seed=cfg.seed + 1)
        sig_f = minhash.signatures_df(
            features.format_strings(cells), n_hashes=cfg.n_hashes, seed=cfg.seed + 2
        )
        sig_e = randproj.bit_signatures_df(
            features.embedding_vectors(cells, wem),
            dim=cfg.wem_dim,
            n_bits=cfg.n_hashes,
            seed=cfg.seed + 3,
        )

        index_n = lsh.LshIndex.build(sig_n, kind="jaccard", n_bands=cfg.n_bands_jaccard)
        index_v = lsh.LshIndex.build(sig_v, kind="jaccard", n_bands=cfg.n_bands_jaccard)
        index_f = lsh.LshIndex.build(sig_f, kind="jaccard", n_bands=cfg.n_bands_jaccard)
        index_e = lsh.LshIndex.build(sig_e, kind="cosine", n_bands=cfg.n_bands_cosine)

        extents = dist.numeric_extents(cells).cache()
        subjects = subject.subject_attributes(cells, subject_model).cache()
        tset_sizes = tsets.groupBy("attr_id").agg(F.count("*").alias("tset_size")).cache()
        tsets.unpersist()

        return D3L(
            spark=spark,
            cells=cells,
            attrs=attrs,
            index_n=index_n,
            index_v=index_v,
            index_f=index_f,
            index_e=index_e,
            extents=extents,
            subjects=subjects,
            tset_sizes=tset_sizes,
            config=cfg,
        )

    def materialize(self) -> dict[str, int]:
        """Force every index structure; returns row counts (used by the
        indexing-time experiment so timing covers real work, not laziness)."""
        counts = {}
        for name, idx in self._indexes().items():
            counts[f"sig_{name}"] = idx.signatures.count()
            counts[f"bands_{name}"] = idx.bands.count()
        counts["extents"] = self.extents.count()
        counts["subjects"] = self.subjects.count()
        counts["tset_sizes"] = self.tset_sizes.count()
        return counts

    @cached_property
    def tables(self) -> frozenset[str]:
        """Names of the lake's tables."""
        return frozenset(r["table"] for r in self.attrs.select("table").distinct().collect())

    def _indexes(self) -> dict[str, lsh.LshIndex]:
        return {"n": self.index_n, "v": self.index_v, "f": self.index_f, "e": self.index_e}

    def unpersist(self) -> None:
        for idx in self._indexes().values():
            idx.unpersist()
        for df in (self.cells, self.attrs, self.extents, self.subjects, self.tset_sizes):
            try:
                df.unpersist()
            except Exception:  # pragma: no cover
                pass

    # -- querying -------------------------------------------------------------

    def candidate_pairs(self, target_tables: list[str]) -> DataFrame:
        """Per-pair distance table for all attributes of ``target_tables``:
        one tagged lookup over the four indexes + Algorithm 2 domain
        distances."""
        q_attrs = self.attrs.where(F.col("table").isin(target_tables)).select("attr_id")
        hits = lsh.lookup(self._indexes(), q_attrs, min_similarity=self.config.min_similarity)
        pairs = dist.attach_tables(dist.evidence_distances(hits), self.attrs)
        # The pair table is referenced several times downstream (Algorithm 2
        # guards and the final collect); cut the similarity-join lineage here
        # so it is computed once, not per reference.
        pairs = pairs.localCheckpoint(eager=True)
        full = dist.add_domain_distance(pairs, self.extents, self.subjects)
        full = full.localCheckpoint(eager=True)
        # `full` is materialised, so the intermediate checkpoint's blocks can
        # be released now — otherwise every search pins two RDDs in the block
        # manager for the life of the session and long runs degrade.
        pairs.unpersist()
        return full

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
        pairs = self.candidate_pairs(target_tables)
        align = pairs.toPandas()
        pairs.unpersist()  # release this query's checkpoint blocks
        tv = weights.weighted_means(weights.ccdf_weights(align))
        return tv, align

    def search_many(
        self,
        target_tables: list[str],
        k: int,
        *,
        evidence: str | None = None,
    ) -> dict[str, SearchResult]:
        """Top-k related tables for each target (one Spark plan for all).

        ``evidence`` restricts ranking to a single evidence type ('n', 'v',
        'f', 'e' or 'd') for the paper's Experiment 1; None uses the full
        Eq. 3 aggregation. Raises ``ValueError`` for ``k <= 0`` and for
        targets that are not lake tables.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        unknown = sorted(set(target_tables) - self.tables)
        if unknown:
            raise ValueError(f"targets are not lake tables: {unknown}")
        table_vectors, align = self.table_vectors(target_tables)

        results: dict[str, SearchResult] = {}
        for target in target_tables:
            tv = table_vectors[table_vectors["q_table"] == target].copy()
            if evidence is None:
                scored = weights.combine_eq3(tv, self.evidence_weights)
            else:
                scored = tv.copy()
                scored["score"] = scored[f"D_{evidence}"]
            scored = scored.sort_values(["score", "s_table"]).head(k)
            ranking = list(zip(scored["s_table"], scored["score"]))
            a = align[align["q_table"] == target].reset_index(drop=True)
            results[target] = SearchResult(target=target, ranking=ranking, alignments=a)
        return results

    def search(self, target_table: str, k: int, **kw) -> SearchResult:
        """Single-target convenience wrapper over :meth:`search_many`."""
        return self.search_many([target_table], k, **kw)[target_table]
