"""Banded LSH indexes over signature DataFrames, queried via one similarity join.

The paper uses LSH Forest with threshold tau = 0.7 and 256 hashes per index
(§V footnote 5). We implement the classic banded equivalent: a signature of
n positions is cut into ``b`` bands of ``r = n/b`` rows; two attributes are
*candidates* iff they share at least one (band, band_hash) bucket. Callers
choose the banding (DESIGN.md §6; D3L's is in D3LConfig). For every
candidate pair the full signatures are re-compared, giving the actual
distance estimate that feeds Eqs. 1-3 — banding is only a blocking step,
exactly the role LSH Forest plays in the paper.

Everything is a DataFrame: an index is ``(attr_id, band, band_hash)`` plus
``(attr_id, sig)``. :func:`lookup` unions any number of indexes under an
``evidence`` tag, so querying them all is one equi-join on ``(evidence,
band, band_hash)`` plus one join back to the signatures — a single Catalyst
plan, literally a similarity join.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.core.hashing import fold_rows64

_BANDS_SCHEMA = StructType(
    [
        StructField("attr_id", StringType(), False),
        StructField("band", LongType(), False),
        StructField("band_hash", LongType(), False),
    ]
)


def band_hashes_df(signatures: DataFrame, *, n_bands: int) -> DataFrame:
    """Explode ``(attr_id, sig)`` into ``(attr_id, band, band_hash)`` rows."""

    def _bands(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(
                {
                    "attr_id": pd.Series(dtype=str),
                    "band": pd.Series(dtype=np.int64),
                    "band_hash": pd.Series(dtype=np.int64),
                }
            )
        out_ids, out_band, out_hash = [], [], []
        for attr_id, sig in zip(batch["attr_id"], batch["sig"]):
            sig = np.asarray(sig, dtype=np.int64).view(np.uint64)
            rows = sig.reshape(n_bands, -1)
            hashes = fold_rows64(rows).view(np.int64)
            out_ids.extend([attr_id] * n_bands)
            out_band.extend(range(n_bands))
            out_hash.extend(hashes.tolist())
        return pd.DataFrame({"attr_id": out_ids, "band": out_band, "band_hash": out_hash})

    return signatures.mapInPandas(lambda it: map(_bands, it), schema=_BANDS_SCHEMA)


@dataclass
class LshIndex:
    """One of the paper's four indexes (I_N, I_V, I_F, I_E).

    ``signatures`` holds every indexed attribute's full signature;
    ``bands`` is the bucket table. ``kind`` selects the similarity estimator
    ('jaccard' for MinHash signatures, 'cosine' for SimHash bit signatures).
    """

    signatures: DataFrame
    bands: DataFrame
    kind: str
    n_bands: int

    @staticmethod
    def build(
        signatures: DataFrame, *, kind: str, n_bands: int, cache: bool = True
    ) -> "LshIndex":
        if kind not in ("jaccard", "cosine"):
            raise ValueError(f"unknown similarity kind: {kind}")
        bands = band_hashes_df(signatures, n_bands=n_bands)
        if cache:
            signatures = signatures.cache()
            bands = bands.cache()
        return LshIndex(signatures=signatures, bands=bands, kind=kind, n_bands=n_bands)

    def unpersist(self) -> None:
        for df in (self.signatures, self.bands):
            try:
                df.unpersist()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass


def lookup(
    indexes: dict[str, LshIndex], query_attrs: DataFrame, *, min_similarity: float = 0.0
) -> DataFrame:
    """LSH lookup of query attributes (themselves indexed) in every index
    of ``indexes``, keyed by evidence name.

    ``query_attrs`` is a one-column DataFrame ``(attr_id)``. Returns
    ``(evidence, query_attr, attr_id, similarity)`` for every pair sharing
    >= 1 bucket of that evidence's index, self-pairs excluded, filtered to
    ``similarity >= min_similarity``. The similarity is the fraction of
    equal signature positions for 'jaccard' indexes and
    cos(pi * (1 - that fraction)) for 'cosine' bit signatures.
    """

    def _tagged(frame: str) -> DataFrame:
        parts = [
            getattr(idx, frame).withColumn("evidence", F.lit(name))
            for name, idx in indexes.items()
        ]
        return reduce(DataFrame.unionByName, parts)

    bands, signatures = _tagged("bands"), _tagged("signatures")
    q_bands = bands.join(
        query_attrs.select(F.col("attr_id").alias("query_attr")),
        bands["attr_id"] == F.col("query_attr"),
    ).select("evidence", "query_attr", "band", "band_hash")
    candidates = (
        q_bands.join(bands, ["evidence", "band", "band_hash"])
        .where(F.col("query_attr") != F.col("attr_id"))
        .select("evidence", "query_attr", "attr_id")
        .distinct()
    )
    sig_q = signatures.select(
        "evidence", F.col("attr_id").alias("query_attr"), F.col("sig").alias("sig_q")
    )
    sig_s = signatures.select("evidence", "attr_id", F.col("sig").alias("sig_s"))
    joined = candidates.join(sig_q, ["evidence", "query_attr"]).join(
        sig_s, ["evidence", "attr_id"]
    )
    eq_frac = (
        F.aggregate(
            F.zip_with("sig_q", "sig_s", lambda a, b: (a == b).cast("int")),
            F.lit(0),
            lambda acc, x: acc + x,
        ).cast("double")
        / F.size("sig_q").cast("double")
    )
    cosine = [name for name, idx in indexes.items() if idx.kind == "cosine"]
    sim = F.when(
        F.col("evidence").isin(cosine), F.cos(F.lit(float(np.pi)) * (F.lit(1.0) - eq_frac))
    ).otherwise(eq_frac)
    hits = joined.select("evidence", "query_attr", "attr_id", sim.alias("similarity"))
    if min_similarity > 0.0:
        hits = hits.where(F.col("similarity") >= F.lit(min_similarity))
    return hits
