"""Table I reproduction: the Figure 1 worked example (paper §III-D).

Builds the four Figure 1 tables verbatim (S1: GP practices, S2: GP funding,
S3: Local GPs, T: target GPs), indexes {S1, S2, S3, T} with D3L and reports
the per-pair distance table for the attributes of T against S2 — the
reproduction of Table I. The paper's cell values are explicitly
hypothetical ("we use hypothetical distance values"); ours are the actual
measurements of the same pipeline on the same tables.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.ranking import D3L
from repro.lake import tables

PAPER_TABLE1 = pd.DataFrame(
    {
        "pair": [
            "(T.Practice, S2.Practice)",
            "(T.City, S2.City)",
            "(T.Postcode, S2.Postcode)",
        ],
        "D_n": [0.0, 0.0, 0.0],
        "D_v": [0.9, 0.2, 0.6],
        "D_f": [0.6, 0.2, 0.1],
        "D_e": [0.2, 0.3, 0.8],
        "D_d": [1.0, 1.0, 1.0],
    }
)


def figure1_tables() -> dict[str, pd.DataFrame]:
    """The paper's Figure 1, rows verbatim."""
    s1 = pd.DataFrame(
        {
            "Practice Name": ["Dr E Cullen", "Blackfriars"],
            "Address": ["51 Botanic Av", "1a Chapel St"],
            "City": ["Belfast", "Salford"],
            "Postcode": ["BT7 1JL", "M3 6AF"],
            "Patients": [1202, 3572],
        }
    )
    s2 = pd.DataFrame(
        {
            "Practice": ["The London Clinic", "Blackfriars"],
            "City": ["London", "Salford"],
            "Postcode": ["W1G 6BW", "M3 6AF"],
            "Payment": [73648, 15529],
        }
    )
    s3 = pd.DataFrame(
        {
            "GP": ["Blackfriars", "Radclife Care"],
            "Location": ["Salford", "-"],
            "Opening hours": ["08:00-18:00", "07:00-20:00"],
        }
    )
    t = pd.DataFrame(
        {
            "Practice": ["Radclife", "Bolton Medical"],
            "Street": ["69 Church St", "21 Rupert St"],
            "City": ["Manchester", "Bolton"],
            "Postcode": ["M26 2SP", "BL3 6PY"],
            "Hours": ["07:00-20:00", "08:00-16:00"],
        }
    )
    return {"S1": s1, "S2": s2, "S3": s3, "T": t}


def reproduce_table1(spark: SparkSession) -> pd.DataFrame:
    """Measured distances between T's and S2's attributes (Table I shape)."""
    lake = figure1_tables()
    cells = tables.cells_df(spark, lake)
    d3l = D3L.build(spark, cells)
    pairs = d3l.alignments(["T"])
    s2 = pairs[pairs["s_table"] == "S2"].copy()
    s2["pair"] = [
        f"(T.{q.split('||')[1]}, S2.{s.split('||')[1]})"
        for q, s in zip(s2["query_attr"], s2["attr_id"])
    ]
    out = s2[["pair", "d_n", "d_v", "d_f", "d_e", "d_d"]].rename(
        columns={f"d_{t}": f"D_{t}" for t in "nvfed"}
    )
    d3l.unpersist()
    return out.sort_values("pair").reset_index(drop=True)
