"""Feature extraction (paper §III-A/B, Algorithm 1, Example 2).

From each attribute we derive the four set representations the paper
indexes, as Catalyst-planned DataFrame transforms over the long-format
``cells`` DataFrame (:mod:`repro.lake.tables`):

* ``Q(a)`` — q-grams (q = 4) of the attribute *name*;
* ``T(a)`` — the *informative* tokens of the extent: each value is a
  document, split at punctuation into parts, each part into words; per
  part, the word with the *fewest* occurrences in the extent joins T(a);
* embedding tokens — per part, the word with the *most* occurrences joins
  the set whose WEM vectors are aggregated into the attribute vector;
* ``R(a)`` — the set of format strings of the values, built from the
  primitive lexical classes C/U/L/N/A/P with run compression (e.g.
  ``"18 Portland Street, M1 3BE"`` -> ``"NC+PA+"``... paper's §III-B).

Numeric attributes get only Q(a) and R(a) (paper §III-C): tokens and
word-embeddings are not meaningful for numbers.
"""
from __future__ import annotations

import re

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Window
from pyspark.sql.types import ArrayType, DoubleType, StringType, StructField, StructType

DEFAULT_Q = 4

#: Punctuation splitting values into parts (paper: "split at punctuation").
_PART_SPLIT = r"[.,;:/\-()\[\]@_]+"
#: Whitespace or part punctuation: splits a value straight into words (the
#: baselines' tokeniser, which has no notion of parts).
WORD_SPLIT = r"[\s" + _PART_SPLIT[1:]


# ---------------------------------------------------------------------------
# N: name q-grams
# ---------------------------------------------------------------------------

def name_qgrams(attrs: DataFrame, *, q: int = DEFAULT_Q) -> DataFrame:
    """``(attr_id, feature)`` — q-grams of the cleaned attribute name.

    Names are lower-cased and stripped of non-alphanumerics before
    q-gramming (paper's Example 2: 'Address' -> {addr, ddre, dres, ress}).
    Names shorter than ``q`` contribute themselves as a single feature.
    """
    cleaned = F.regexp_replace(F.lower(F.col("col_name")), r"[^a-z0-9]", "")
    grams = F.when(
        F.length(cleaned) <= q, F.array(cleaned)
    ).otherwise(
        F.expr(
            f"transform(sequence(1, length(_clean) - {q} + 1),"
            f" i -> substring(_clean, i, {q}))"
        )
    )
    return (
        attrs.withColumn("_clean", cleaned)
        .where(F.length("_clean") > 0)
        .select("attr_id", F.explode(grams).alias("feature"))
        .distinct()
    )


# ---------------------------------------------------------------------------
# V / E: informative and frequent tokens
# ---------------------------------------------------------------------------

def _words(cells: DataFrame) -> DataFrame:
    """Explode non-numeric cells into ``(attr_id, row_idx, part_idx, word)``."""
    parts = cells.where(~F.col("is_numeric")).select(
        "attr_id",
        "row_idx",
        F.posexplode(F.split(F.col("value"), _PART_SPLIT)).alias("part_idx", "part"),
    )
    return (
        parts.select(
            "attr_id",
            "row_idx",
            "part_idx",
            F.explode(F.split(F.lower(F.trim(F.col("part"))), r"\s+")).alias("word"),
        )
        .where(F.col("word") != "")
    )


def value_words(cells: DataFrame) -> DataFrame:
    """``(attr_id, w)`` — every lower-cased word of every non-numeric value,
    split at :data:`WORD_SPLIT` (the baselines' tokeniser); duplicates kept."""
    return (
        cells.where(~F.col("is_numeric"))
        .select("attr_id", F.explode(F.split(F.lower(F.col("value")), WORD_SPLIT)).alias("w"))
        .where(F.col("w") != "")
    )


def token_histogram(cells: DataFrame) -> DataFrame:
    """Per-attribute token occurrence counts ``(attr_id, word, cnt)`` —
    Algorithm 1's histogram ``H``."""
    return _words(cells).groupBy("attr_id", "word").agg(F.count("*").alias("cnt"))


def _extreme_tokens(cells: DataFrame, *, ascending: bool) -> DataFrame:
    """Per (attr, value, part), the word with the fewest (``ascending``) or
    most occurrences in the attribute's extent; distinct per attribute.

    Occurrence-count ties are broken in favour of letter-bearing tokens
    (then alphabetically): in the paper's Example 2 the informative token of
    part "18 Portland Street" is *portland*, not the house number, even
    though both occur once — digit-only tokens carry the weaker signal.
    """
    words = _words(cells)
    hist = token_histogram(cells)
    digit_only = (~F.col("word").rlike("[a-z]")).cast("int")
    order = [
        F.col("cnt").asc() if ascending else F.col("cnt").desc(),
        digit_only.asc(),
        F.col("word").asc(),
    ]
    w = Window.partitionBy("attr_id", "row_idx", "part_idx").orderBy(*order)
    return (
        words.join(hist, ["attr_id", "word"])
        .withColumn("_rn", F.row_number().over(w))
        .where(F.col("_rn") == 1)
        .select("attr_id", F.col("word").alias("feature"))
        .distinct()
    )


def informative_tokens(cells: DataFrame) -> DataFrame:
    """``T(a)`` as ``(attr_id, feature)`` — the V-evidence set representation."""
    return _extreme_tokens(cells, ascending=True)


def frequent_tokens(cells: DataFrame) -> DataFrame:
    """Embedding-token set as ``(attr_id, feature)`` — the words whose WEM
    vectors are aggregated into the attribute vector (E evidence)."""
    return _extreme_tokens(cells, ascending=False)


# ---------------------------------------------------------------------------
# F: format strings
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]+")
_CLASS_RES = [
    ("C", re.compile(r"[A-Z][a-z]+")),
    ("U", re.compile(r"[A-Z]+")),
    ("L", re.compile(r"[a-z]+")),
    ("N", re.compile(r"[0-9]+")),
    ("A", re.compile(r"[A-Za-z0-9]+")),
]


def format_of(value: str) -> str:
    """Format string of one value over the primitive classes C/U/L/N/A/P,
    first match in that order, consecutive repeats compressed to '+'. Any
    token not caught by the alphanumeric classes is punctuation P."""
    symbols = []
    for tok in _TOKEN_RE.findall(value):
        for sym, rx in _CLASS_RES:
            if rx.fullmatch(tok):
                symbols.append(sym)
                break
        else:
            symbols.append("P")
    out: list[str] = []
    for sym in symbols:
        if out and out[-1][0] == sym:
            out[-1] = sym + "+"
        else:
            out.append(sym)
    return "".join(out)


@F.pandas_udf(StringType())
def _format_udf(values: pd.Series) -> pd.Series:
    return values.map(lambda v: format_of(v) if v is not None else None)


def format_strings(cells: DataFrame) -> DataFrame:
    """``R(a)`` as ``(attr_id, feature)`` for every attribute (numeric
    included — §III-C keeps numerics in the name and format indexes)."""
    return (
        cells.select("attr_id", _format_udf(F.col("value")).alias("feature"))
        .where(F.col("feature").isNotNull() & (F.col("feature") != ""))
        .distinct()
    )


# ---------------------------------------------------------------------------
# E: attribute embedding vectors
# ---------------------------------------------------------------------------

_VEC_SCHEMA = StructType(
    [
        StructField("attr_id", StringType(), False),
        StructField("vec", ArrayType(DoubleType(), False), False),
    ]
)


def mean_vectors(tokens: DataFrame, wem) -> DataFrame:
    """``(attr_id, vec)`` — mean WEM vector of each ``(attr_id, tokens)`` token
    set. Attributes whose set yields a zero vector are dropped (nothing to
    project).

    ``wem`` (a :class:`repro.embedding.wem.WordEmbeddingModel`) is shipped
    to executors by closure capture; it is a small picklable object.
    """

    def _agg(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame({"attr_id": pd.Series(dtype=str), "vec": pd.Series(dtype=object)})
        vecs = batch["tokens"].map(lambda ts: wem.aggregate(ts))
        keep = vecs.map(lambda v: float((v ** 2).sum()) > 0.0)
        return pd.DataFrame(
            {
                "attr_id": batch["attr_id"][keep],
                "vec": vecs[keep].map(lambda v: v.tolist()),
            }
        )

    return tokens.mapInPandas(lambda it: map(_agg, it), schema=_VEC_SCHEMA)


def embedding_vectors(cells: DataFrame, wem) -> DataFrame:
    """``(attr_id, vec)`` — mean WEM vector of the frequent tokens."""
    tokens = frequent_tokens(cells).groupBy("attr_id").agg(
        F.collect_set("feature").alias("tokens")
    )
    return mean_vectors(tokens, wem)
