"""End-to-end smoke of the Spark substrate: cells -> features -> signatures
-> LSH lookup. Fast, tiny lake; deeper behaviour is covered per-module."""
import pyspark.sql.functions as F

from repro.core import features, lsh, minhash
from repro.lake import generator, tables


def test_cells_features_signatures_lookup(spark):
    lake = generator.generate_lake(derivations_per_base=2, rows=40, noise=0.0, seed=3)
    cells = tables.cells_df(spark, lake.tables).cache()
    attrs = tables.attrs_df(cells).cache()
    n_attrs = attrs.count()
    assert n_attrs > 50

    qgrams = features.name_qgrams(attrs)
    assert qgrams.where(F.col("feature") == "addr").count() > 0

    tset = features.informative_tokens(cells)
    assert tset.count() > 0

    sigs = minhash.signatures_df(tset)
    row = sigs.first()
    assert len(row["sig"]) == 256

    index = lsh.LshIndex.build(sigs, kind="jaccard", n_bands=32)
    # Query every attribute of one table against the lake.
    t0 = sorted(lake.tables)[0]
    q = [r["attr_id"] for r in attrs.where(F.col("table") == t0).select("attr_id").collect()]
    hits = lsh.lookup({"v": index}, q, min_similarity=0.3)
    assert len(hits) > 0
    for sim in hits["similarity"]:
        assert 0.0 <= sim <= 1.0
    cells.unpersist()
    attrs.unpersist()
