"""Lake <-> Spark representation.

A lake is materialised as two DataFrames:

* ``cells`` — long format, one row per (table, column, row) cell:
  ``(table, col_idx, col_name, attr_id, row_idx, value, is_numeric,
  num_value)``. ``value`` is the string rendering (what the paper's Alg. 1
  tokenises); ``num_value`` is the parsed double for numeric attributes
  (what the KS statistic consumes).
* ``attrs`` — one row per attribute, its profile:
  ``(attr_id, table, col_idx, col_name, is_numeric, n_values, n_distinct,
  avg_len, max_row_idx)`` — the non-null cells, their distinct values and
  mean rendered length, and the last row holding a value (what the subject
  detector reads, :mod:`repro.core.subject`).

``attr_id`` is ``"<table>||<column>"`` (column names are unique per table);
table names may not contain the separator, so the table is the part before
the first one.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
import pyspark.sql.functions as F

#: Separator for composing/splitting attr ids.
SEP = "||"

_NUMERIC_PARSE_THRESHOLD = 0.9


def attr_id(table: str, col_name: str) -> str:
    return f"{table}{SEP}{col_name}"


def split_attr_id(aid: str) -> tuple[str, str]:
    table, col = aid.split(SEP, 1)
    return table, col


def table_of(attr_ids: Column | str) -> Column:
    """Spark column: the table part of an ``attr_id`` column."""
    return F.substring_index(attr_ids, SEP, 1)


def _is_numeric_column(s: pd.Series) -> bool:
    """Numeric iff pandas dtype is numeric or >=90% of non-null values parse."""
    if pd.api.types.is_numeric_dtype(s):
        return True
    non_null = s.dropna().astype(str)
    if non_null.empty:
        return False
    parsed = pd.to_numeric(non_null, errors="coerce")
    return float(parsed.notna().mean()) >= _NUMERIC_PARSE_THRESHOLD


def _render(s: pd.Series) -> pd.Series:
    """String rendering of a column, integers without trailing '.0'."""
    if pd.api.types.is_integer_dtype(s):
        return s.map(lambda v: None if pd.isna(v) else str(int(v)))
    if pd.api.types.is_float_dtype(s):
        return s.map(lambda v: None if pd.isna(v) else f"{v:g}")
    return s.map(lambda v: None if pd.isna(v) else str(v))


def cells_pandas(tables: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """Long-format cells for a dict of tables (driver-side; lakes at our
    scale fit comfortably — see DESIGN.md §6)."""
    bad = sorted(t for t in tables if SEP in t)
    if bad:
        raise ValueError(f"table names must not contain {SEP!r}: {bad}")
    frames = []
    for table in sorted(tables):
        df = tables[table]
        for col_idx, col in enumerate(df.columns):
            s = df[col]
            numeric = _is_numeric_column(s)
            rendered = _render(s)
            num = pd.to_numeric(s, errors="coerce") if numeric else pd.Series([np.nan] * len(s))
            frames.append(
                pd.DataFrame(
                    {
                        "table": table,
                        "col_idx": col_idx,
                        "col_name": str(col),
                        "attr_id": attr_id(table, str(col)),
                        "row_idx": np.arange(len(s), dtype=np.int64),
                        "value": rendered.astype(object),
                        "is_numeric": numeric,
                        "num_value": num.astype(np.float64).to_numpy(),
                    }
                )
            )
    out = pd.concat(frames, ignore_index=True)
    # Null cells carry no features; drop them here once instead of in every
    # downstream extractor.
    return out[out["value"].notna()].reset_index(drop=True)


def cells_df(spark: SparkSession, tables: dict[str, pd.DataFrame]) -> DataFrame:
    """Spark ``cells`` DataFrame for a dict of (pandas) lake tables."""
    return spark.createDataFrame(cells_pandas(tables))


def attrs_df(cells: DataFrame) -> DataFrame:
    """One profile row per attribute, derived from ``cells``."""
    return (
        cells.groupBy("attr_id", "table", "col_idx", "col_name")
        .agg(
            F.max("is_numeric").alias("is_numeric"),
            F.count("*").alias("n_values"),
            # One aggregation stage, where countDistinct would add a second.
            F.size(F.collect_set("value")).alias("n_distinct"),
            F.avg(F.length("value")).alias("avg_len"),
            F.max("row_idx").alias("max_row_idx"),
        )
        .orderBy("table", "col_idx")
    )
