"""Attribute-pair distance computation (paper §III-B/C, Algorithm 2).

Given the four LSH indexes and a set of query (target) attributes, this
module produces the per-pair distance table the aggregation framework
consumes — one row per candidate (target attribute, lake attribute) pair
with all five distances:

* ``d_n``, ``d_v``, ``d_f`` — 1 - estimated Jaccard (MinHash indexes);
* ``d_e`` — cosine distance, clamped to [0, 1];
* ``d_d`` — Kolmogorov-Smirnov statistic for numeric pairs that pass
  Algorithm 2's guards, else 1.0.

A pair becomes a candidate when *any* index retrieves it; distances for
evidence types that did not retrieve the pair default to 1.0 (maximally
distant), matching §III-D ("otherwise that measurement is set to 1").
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType

from repro.lake.tables import table_of

EVIDENCE_TYPES = ("n", "v", "f", "e", "d")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample KS statistic sup_t |F_x(t) - F_y(t)| (scipy-free)."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if len(x) == 0 or len(y) == 0:
        return 1.0
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / len(x)
    cdf_y = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(cdf_x - cdf_y)))


@F.pandas_udf(DoubleType())
def _ks_udf(xs: pd.Series, ys: pd.Series) -> pd.Series:
    return pd.Series(
        [
            ks_statistic(np.asarray(x), np.asarray(y))
            for x, y in zip(xs, ys)
        ],
        dtype=np.float64,
    )


def numeric_extents(cells: DataFrame) -> DataFrame:
    """``(attr_id, vals: array<double>)`` for numeric attributes."""
    return (
        cells.where(F.col("is_numeric") & F.col("num_value").isNotNull())
        .groupBy("attr_id")
        .agg(F.collect_list("num_value").alias("vals"))
    )


# ---------------------------------------------------------------------------
# Candidate pair distance table
# ---------------------------------------------------------------------------


def evidence_distances(hits: DataFrame) -> DataFrame:
    """Pivot tagged lookup hits ``(evidence, query_attr, attr_id,
    similarity)`` into one row per pair with distances ``d_n, d_v, d_f,
    d_e`` (evidence that did not retrieve the pair -> 1.0).

    A distance is ``1 - similarity`` clamped to [0, 1] (cosine similarity
    lies in [-1, 1]). Since no distance exceeds 1, the minimum over a pair's
    rows with 1.0 for every other evidence is exactly that evidence's
    distance.
    """
    d = F.greatest(F.lit(0.0), F.least(F.lit(1.0), F.lit(1.0) - F.col("similarity")))
    return hits.groupBy("query_attr", "attr_id").agg(
        *[
            F.min(F.when(F.col("evidence") == t, d).otherwise(F.lit(1.0))).alias(f"d_{t}")
            for t in EVIDENCE_TYPES[:4]
        ]
    )


def attach_tables(pairs: DataFrame, attrs: DataFrame) -> DataFrame:
    """Add ``q_table``/``s_table``/numeric flags and drop same-table pairs
    (an attribute of the target is never a discovery answer for it)."""
    q = attrs.select(
        F.col("attr_id").alias("query_attr"),
        F.col("table").alias("q_table"),
        F.col("is_numeric").alias("q_numeric"),
    )
    s = attrs.select(
        "attr_id",
        F.col("table").alias("s_table"),
        F.col("is_numeric").alias("s_numeric"),
    )
    return (
        pairs.join(q, "query_attr")
        .join(s, "attr_id")
        .where(F.col("q_table") != F.col("s_table"))
    )


def add_domain_distance(
    pairs: DataFrame,
    extents: DataFrame,
    subjects: DataFrame,
) -> DataFrame:
    """Algorithm 2: compute ``d_d`` for numeric pairs passing the guards.

    Guards (any grants a KS computation):
      1. the two tables' *subject attributes* are related in any index —
         i.e. there is a candidate pair between the subjects;
      2. the numeric pair itself was retrieved by I_N (``d_n < 1``);
      3. the numeric pair itself was retrieved by I_F (``d_f < 1``).

    Guard 1 extends the candidate set: every numeric x numeric attribute
    pair of a subject-related table pair gets a KS measurement even if no
    index retrieved that pair directly.
    """
    # -- guard 1: subject-related table pairs --------------------------------
    subj = subjects.select("table", F.col("attr_id").alias("subj_attr"))
    subj_pairs = (
        pairs.join(
            subj.select(F.col("subj_attr").alias("query_attr"), F.col("table").alias("qt")),
            "query_attr",
        )
        .join(subj.select(F.col("subj_attr").alias("attr_id"), F.col("table").alias("st")), "attr_id")
        .select(F.col("qt").alias("q_table"), F.col("st").alias("s_table"))
        .distinct()
    )
    ext_q = extents.select(
        F.col("attr_id").alias("query_attr"), F.col("vals").alias("vals_q")
    )
    ext_s = extents.select("attr_id", F.col("vals").alias("vals_s"))

    # Guard-1 pairs: numeric x numeric cross product within subject-related
    # table pairs. Table granularity keeps this tiny (few numeric attrs each).
    guard1 = (
        subj_pairs.join(ext_q.withColumn("q_table", table_of("query_attr")), "q_table")
        .join(ext_s.withColumn("s_table", table_of("attr_id")), "s_table")
        .select("query_attr", "attr_id", "vals_q", "vals_s")
    )

    # Guards 2/3: the pair itself N- or F-related.
    guard23 = (
        pairs.where(
            F.col("q_numeric") & F.col("s_numeric") & ((F.col("d_n") < 1.0) | (F.col("d_f") < 1.0))
        )
        .select("query_attr", "attr_id")
        .join(ext_q, "query_attr")
        .join(ext_s, "attr_id")
        .select("query_attr", "attr_id", "vals_q", "vals_s")
    )

    ks_pairs = (
        guard1.unionByName(guard23)
        .dropDuplicates(["query_attr", "attr_id"])
        .withColumn("d_d", _ks_udf(F.col("vals_q"), F.col("vals_s")))
        .select("query_attr", "attr_id", "d_d")
    )

    out = pairs.join(ks_pairs, ["query_attr", "attr_id"], "full_outer")
    # Guard-1 rows may introduce pairs absent from `pairs`; fill their
    # metadata and default the four LSH distances to 1.0.
    out = out.withColumn(
        "q_table", F.coalesce(F.col("q_table"), table_of("query_attr"))
    ).withColumn("s_table", F.coalesce(F.col("s_table"), table_of("attr_id")))
    out = out.fillna(1.0, subset=["d_n", "d_v", "d_f", "d_e", "d_d"])
    out = out.fillna(True, subset=["q_numeric", "s_numeric"])
    return out.where(F.col("q_table") != F.col("s_table"))
