"""Subject-attribute detection (paper §III-C).

The paper trains a supervised model (after Venetis et al.) on 350 labelled
data.gov.uk tables, reporting ~89% accuracy, and notes the learned bias:
"favours leftmost non-numeric attributes with fewer nulls and many distinct
values". We reproduce exactly that: a logistic regression over five
features of each attribute —

* ``pos_frac``      — column position / (arity - 1)  (leftmost bias)
* ``non_numeric``   — 1.0 if the attribute is non-numeric
* ``null_ratio``    — fraction of missing cells
* ``distinct_ratio``— distinct values / non-null values
* ``avg_len``       — mean rendered length (entity names are longish)

— trained on generator tables whose subject column is known from ground
truth (our substitute for the manual data.gov.uk labels). As in the paper,
each dataset has exactly one subject attribute and it is non-numeric.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd

from repro.ml.logreg import LogisticRegression

FEATURES = ["pos_frac", "non_numeric", "null_ratio", "distinct_ratio", "avg_len"]


def attribute_features(profile: pd.DataFrame) -> pd.DataFrame:
    """Per-attribute detector features from the collected attribute profile
    (:func:`repro.lake.tables.attrs_df`); a table's rows and columns are
    its last row and column holding a value."""
    per_table = profile.groupby("table")
    n_rows = per_table["max_row_idx"].transform("max") + 1
    n_cols = per_table["col_idx"].transform("max") + 1
    return pd.DataFrame(
        {
            "attr_id": profile["attr_id"],
            "table": profile["table"],
            "pos_frac": profile["col_idx"] / np.maximum(n_cols - 1, 1),
            "non_numeric": 1.0 - profile["is_numeric"].astype(np.float64),
            "null_ratio": 1.0 - profile["n_values"] / n_rows,
            "distinct_ratio": profile["n_distinct"] / profile["n_values"],
            "avg_len": profile["avg_len"],
        }
    )


def attribute_features_pandas(tables: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """:func:`attribute_features` from pandas tables (used to train the
    default model without a SparkSession; a test pins the two paths equal)."""
    cols = ["attr_id", "table", "col_name", *FEATURES]
    rows = []
    for table in sorted(tables):
        df = tables[table]
        n_rows, n_cols = df.shape
        for col_idx, col in enumerate(df.columns):
            s = df[col]
            non_null = s.dropna()
            numeric = pd.api.types.is_numeric_dtype(s)
            rendered = non_null.astype(str)
            rows.append(
                {
                    "attr_id": f"{table}||{col}",
                    "table": table,
                    "col_name": str(col),
                    "pos_frac": col_idx / max(n_cols - 1, 1),
                    "non_numeric": 0.0 if numeric else 1.0,
                    "null_ratio": 1.0 - len(non_null) / max(n_rows, 1),
                    "distinct_ratio": non_null.nunique() / max(len(non_null), 1),
                    "avg_len": float(rendered.str.len().mean()) if len(rendered) else 0.0,
                }
            )
    return pd.DataFrame(rows, columns=cols)


def train_subject_model(features: pd.DataFrame, is_subject: np.ndarray) -> LogisticRegression:
    """Fit the detector on labelled attribute features."""
    X = features[FEATURES].to_numpy(dtype=np.float64)
    return LogisticRegression().fit(X, np.asarray(is_subject, dtype=np.float64))


@lru_cache(maxsize=1)
def default_model() -> LogisticRegression:
    """Detector trained on a fixed labelled lake (data.gov.uk substitute)."""
    from repro.lake.generator import generate_lake

    lake = generate_lake(derivations_per_base=4, rows=80, noise=0.3, seed=1234)
    feats = attribute_features_pandas(lake.tables)
    labels = np.array(
        [
            1.0 if lake.gt.subject_of[t] == c else 0.0
            for t, c in zip(feats["table"], feats["col_name"])
        ]
    )
    return train_subject_model(feats, labels)


def pick_subjects(features: pd.DataFrame, model: LogisticRegression | None = None) -> pd.DataFrame:
    """Argmax the detector over each table's non-numeric attributes.

    Returns ``(table, attr_id)``; tables with no non-numeric attribute have
    no subject (paper: the subject attribute has non-numeric values).
    """
    model = model or default_model()
    if features.empty:
        return pd.DataFrame({"table": pd.Series(dtype=str), "attr_id": pd.Series(dtype=str)})
    feats = features[features["non_numeric"] > 0.5].copy()
    if feats.empty:
        return pd.DataFrame({"table": pd.Series(dtype=str), "attr_id": pd.Series(dtype=str)})
    feats["p"] = model.predict_proba(feats[FEATURES].to_numpy(dtype=np.float64))
    # Stable leftmost tie-break: sort by (p desc, pos_frac asc).
    feats = feats.sort_values(["table", "p", "pos_frac"], ascending=[True, False, True])
    top = feats.groupby("table", as_index=False).first()
    return top[["table", "attr_id"]].reset_index(drop=True)

