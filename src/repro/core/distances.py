"""Attribute-pair distance computation (paper §III-B/C, Algorithm 2).

From the four LSH indexes' tagged lookup hits for a set of query (target)
attributes, this module produces the per-pair distance table the
aggregation framework consumes — one row per candidate (target attribute,
lake attribute) pair with all five distances:

* ``d_n``, ``d_v``, ``d_f`` — 1 - estimated Jaccard (MinHash indexes);
* ``d_e`` — cosine distance, clamped to [0, 1];
* ``d_d`` — Kolmogorov-Smirnov statistic for numeric pairs that pass
  Algorithm 2's guards, else 1.0.

A pair becomes a candidate when *any* index retrieves it; distances for
evidence types that did not retrieve the pair default to 1.0 (maximally
distant), matching §III-D ("otherwise that measurement is set to 1").

The four LSH distances are pivoted in Spark (:func:`evidence_distances`,
:func:`attach_tables`); Algorithm 2 (:func:`domain_distances`) runs in
pandas on the collected pair table, which is candidate-sized.
"""
from __future__ import annotations

from collections.abc import Collection

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

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


def domain_distances(
    pairs: pd.DataFrame,
    extents: pd.DataFrame,
    subject_attrs: Collection[str],
) -> pd.DataFrame:
    """Algorithm 2 on a collected pair table: add ``d_d`` (KS statistic)
    for the numeric pairs the guards admit, 1.0 for every other pair.

    ``pairs`` is the collected :func:`attach_tables` output; ``extents``
    holds ``(attr_id, table, vals)`` for at least the numeric attributes of
    the pairs' tables; ``subject_attrs`` are the lake's subject attribute
    ids. Guards (any grants a KS computation):

      1. the two tables' *subject attributes* are related in any index —
         i.e. there is a candidate pair between the subjects;
      2. the numeric pair itself was retrieved by I_N (``d_n < 1``);
      3. the numeric pair itself was retrieved by I_F (``d_f < 1``).

    Guard 1 extends the candidate set: every numeric x numeric attribute
    pair of a subject-related table pair gets a KS measurement even if no
    index retrieved that pair directly. Such rows get 1.0 for the four
    LSH distances.
    """
    keys = ["query_attr", "attr_id", "q_table", "s_table"]
    ext_q = extents.rename(columns={"attr_id": "query_attr", "table": "q_table"})
    ext_s = extents.rename(columns={"table": "s_table"})

    subject_pair = pairs["query_attr"].isin(subject_attrs) & pairs["attr_id"].isin(subject_attrs)
    related = pairs.loc[subject_pair, ["q_table", "s_table"]].drop_duplicates()
    guard1 = related.merge(ext_q[["query_attr", "q_table"]], on="q_table").merge(
        ext_s[["attr_id", "s_table"]], on="s_table"
    )
    guard23 = pairs.loc[
        pairs["q_numeric"] & pairs["s_numeric"] & ((pairs["d_n"] < 1.0) | (pairs["d_f"] < 1.0)),
        keys,
    ]
    admitted = (
        pd.concat([guard1[keys], guard23])
        .drop_duplicates()
        .merge(ext_q[["query_attr", "vals"]], on="query_attr")
        .merge(ext_s[["attr_id", "vals"]], on="attr_id", suffixes=("_q", "_s"))
    )
    admitted["d_d"] = np.array(
        [ks_statistic(x, y) for x, y in zip(admitted["vals_q"], admitted["vals_s"])],
        dtype=np.float64,
    )
    # Admitted pairs are numeric x numeric, so the flags join the merge keys
    # and stay boolean for the rows only guard 1 produced.
    admitted["q_numeric"] = admitted["s_numeric"] = True
    out = pairs.merge(
        admitted[keys + ["q_numeric", "s_numeric", "d_d"]],
        on=keys + ["q_numeric", "s_numeric"],
        how="outer",
    )
    return out.fillna({f"d_{t}": 1.0 for t in EVIDENCE_TYPES})
