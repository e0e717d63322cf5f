"""Banded LSH indexes: built in Spark, served from the driver.

The paper uses LSH Forest with threshold tau = 0.7 and 256 hashes per index
(§V footnote 5). We implement the classic banded equivalent: a signature of
n positions is cut into ``b`` bands of ``r = n/b`` rows; two attributes are
*candidates* iff they share at least one (band, band_hash) bucket. The
banding is fixed here (DESIGN.md §6): :func:`minhash_index` and
:func:`simhash_index` build every index D3L, TUS and Aurum use. For every
candidate pair the full signatures are re-compared, giving the actual
distance estimate that feeds Eqs. 1-3 — banding is only a blocking step,
exactly the role LSH Forest plays in the paper.

The signature pass is lake-sized and runs in Spark: it yields the
DataFrame ``(attr_id, sig)``. The built index is only |attributes| x
(hashes + bands) integers, so :meth:`LshIndex.build` holds it, as the
paper's in-memory LSH Forests do, on the driver and nowhere else: one
collect of the signatures, banded by the :func:`band_hashes` kernel.
:func:`lookup` probes any number of indexes under an ``evidence`` tag and
returns the candidate-sized hits as pandas.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import minhash, randproj
from repro.core.hashing import fold_rows64

#: Banding of the MinHash indexes: b=64, r=4 -> S-curve midpoint ~0.35
#: (MMDS §3.4). The paper's LSH Forest (tau=0.7) descends to shorter
#: prefixes until k answers are found, so mid-similarity items are
#: retrievable; a low banded threshold is the equivalent behaviour
#: (distances are always re-estimated from full signatures afterwards).
N_BANDS_JACCARD = 64
#: Banding of the random-projection indexes: bit signatures of *unrelated*
#: vectors already agree on ~50% of positions, so bands must be longer
#: (b=32, r=8) to keep the false-candidate rate down.
N_BANDS_COSINE = 32
#: Lookup floor of D3L and TUS, applied after the full-signature re-check;
#: keeps the pair table to attributes with non-trivial similarity. On the
#: 60-table noise-0.6 benchmark lake the lowest estimated Jaccard among
#: banded candidates is 0.105 or more on every MinHash index, so the floor
#: drops no MinHash candidate; it filters only the embedding index (5,170
#: -> 4,424 candidates). It still shapes the answers (DESIGN.md §6).
MIN_SIMILARITY = 0.05

#: Candidate pairs whose signatures are compared per numpy step, bounding
#: the gathered ``(pairs, hashes)`` blocks to a few MB.
_COMPARE_CHUNK = 4096


def signature_matrix(sigs: pd.Series) -> np.ndarray:
    """``(n, h)`` int64 matrix of a column of signature arrays."""
    if sigs.empty:
        return np.empty((0, 0), dtype=np.int64)
    return np.stack(sigs.to_numpy()).astype(np.int64, copy=False)


def band_hashes(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """``(n, n_bands)`` int64 band hashes of an ``(n, h)`` signature matrix:
    band ``j`` folds positions ``[j*r, (j+1)*r)`` with :func:`fold_rows64`."""
    n, h = sigs.shape
    rows = np.ascontiguousarray(sigs, dtype=np.int64).view(np.uint64)
    return fold_rows64(rows.reshape(n * n_bands, h // n_bands)).view(np.int64).reshape(n, n_bands)


@dataclass(frozen=True, eq=False)
class LshIndex:
    """One of the paper's four indexes (I_N, I_V, I_F, I_E), held on the
    driver with rows in ``attr_id`` order: ``attr_ids``, the ``(n, h)``
    signature matrix and the ``(n, b)`` band matrix every lookup probes.

    ``signatures`` is the uncached Spark plan the copy was collected from.
    ``kind`` selects the similarity estimator ('jaccard' for MinHash
    signatures, 'cosine' for SimHash bit signatures).
    """

    signatures: DataFrame
    kind: str
    n_bands: int
    attr_ids: np.ndarray  # (n,) object
    sig_matrix: np.ndarray  # (n, h) int64
    band_matrix: np.ndarray  # (n, b) int64

    @staticmethod
    def build(signatures: DataFrame, *, kind: str, n_bands: int) -> "LshIndex":
        """Collect ``signatures`` ``(attr_id, sig)`` once and band them on
        the driver."""
        if kind not in ("jaccard", "cosine"):
            raise ValueError(f"unknown similarity kind: {kind}")
        pdf = signatures.toPandas().sort_values("attr_id")
        sigs = signature_matrix(pdf["sig"])
        return LshIndex(
            signatures=signatures,
            kind=kind,
            n_bands=n_bands,
            attr_ids=pdf["attr_id"].to_numpy(dtype=object),
            sig_matrix=sigs,
            band_matrix=band_hashes(sigs, n_bands),
        )

    @staticmethod
    def _buckets(rows: np.ndarray, bands: np.ndarray) -> pd.DataFrame:
        """``(row, band, band_hash)``: each row's bucket in every band."""
        b = bands.shape[1]
        return pd.DataFrame(
            {
                "row": np.repeat(rows, b),
                "band": np.tile(np.arange(b), len(rows)),
                "band_hash": bands.ravel(),
            }
        )

    def probe(self, query_attr_ids: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(query rows, candidate rows, fraction of equal signature
        positions)`` for every pair sharing a bucket, self-pairs excluded,
        sorted by (query row, candidate row)."""
        n = len(self.attr_ids)
        q = np.flatnonzero(pd.Index(self.attr_ids).isin(query_attr_ids))
        hit = self._buckets(q, self.band_matrix[q]).merge(
            self._buckets(np.arange(n), self.band_matrix),
            on=["band", "band_hash"],
            suffixes=("_q", "_s"),
        )
        hit = hit[hit["row_q"] != hit["row_s"]]
        keys = np.unique(hit["row_q"].to_numpy() * n + hit["row_s"].to_numpy())
        rows_q, rows_s = keys // n, keys % n
        sigs = self.sig_matrix
        equal = np.empty(len(rows_q), dtype=np.int64)
        for i in range(0, len(rows_q), _COMPARE_CHUNK):
            part = slice(i, i + _COMPARE_CHUNK)
            equal[part] = np.count_nonzero(sigs[rows_q[part]] == sigs[rows_s[part]], axis=1)
        return rows_q, rows_s, equal / sigs.shape[1]

    def band_table(self) -> pd.DataFrame:
        """``(attr_id, band, band_hash)``: the band matrix in long format."""
        table = self._buckets(np.arange(len(self.attr_ids)), self.band_matrix)
        return table.assign(row=self.attr_ids[table["row"]]).rename(columns={"row": "attr_id"})

    @property
    def bands(self) -> DataFrame:
        """The bucket table ``(attr_id, band, band_hash)``: an uncached Spark
        view of :attr:`band_matrix`, for readers outside the query path, such
        as bucket-size statistics."""
        return self.signatures.sparkSession.createDataFrame(
            self.band_table(), schema="attr_id string, band long, band_hash long"
        )


def minhash_index(features: DataFrame, *, seed: int) -> LshIndex:
    """Jaccard index over ``(attr_id, feature)`` sets: 256 MinHash
    permutations in :data:`N_BANDS_JACCARD` bands."""
    return LshIndex.build(
        minhash.signatures_df(features, seed=seed), kind="jaccard", n_bands=N_BANDS_JACCARD
    )


def simhash_index(vectors: DataFrame, *, dim: int, seed: int) -> LshIndex:
    """Cosine index over ``(attr_id, vec)`` vectors of length ``dim``: 256
    random-hyperplane bits in :data:`N_BANDS_COSINE` bands."""
    return LshIndex.build(
        randproj.bit_signatures_df(vectors, dim=dim, seed=seed), kind="cosine", n_bands=N_BANDS_COSINE
    )


def lookup(
    indexes: dict[str, LshIndex],
    query_attr_ids: Iterable[str],
    *,
    min_similarity: float = 0.0,
) -> pd.DataFrame:
    """LSH lookup of query attributes (themselves indexed) in every index
    of ``indexes``, keyed by evidence name.

    Returns ``(evidence, query_attr, attr_id, similarity)`` for every pair
    sharing >= 1 bucket of that evidence's index, self-pairs excluded,
    filtered to ``similarity >= min_similarity`` when the floor is positive.
    Query ids an index does not hold retrieve nothing from it. The
    similarity is the fraction of equal signature positions for 'jaccard'
    indexes and cos(pi * (1 - that fraction)) for 'cosine' bit signatures.
    """
    query_attr_ids = list(query_attr_ids)
    parts = []
    for name, index in indexes.items():
        rows_q, rows_s, frac = index.probe(query_attr_ids)
        sim = np.cos(np.pi * (1.0 - frac)) if index.kind == "cosine" else frac
        if min_similarity > 0.0:
            keep = sim >= min_similarity
            rows_q, rows_s, sim = rows_q[keep], rows_s[keep], sim[keep]
        parts.append(
            pd.DataFrame(
                {
                    "evidence": np.full(len(sim), name, dtype=object),
                    "query_attr": index.attr_ids[rows_q],
                    "attr_id": index.attr_ids[rows_s],
                    "similarity": sim,
                }
            )
        )
    return pd.concat(parts, ignore_index=True)
