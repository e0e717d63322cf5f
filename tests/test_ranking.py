"""End-to-end D3L ranking behaviour (paper §III-D)."""
import pandas as pd
import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.tus import TUS, semantic_sets, value_sets
from repro.core import features
from repro.core.distances import EVIDENCE_TYPES
from repro.core.ranking import D3L
from repro.lake import generator, tables


def _gt_precision(lake, result, k):
    rel = lake.gt.related_tables(result.target)
    top = result.tables[:k]
    if not top:
        return 0.0
    return sum(1 for t in top if t in rel) / len(top)


def test_search_returns_at_most_k(d3l_clean, clean_lake):
    target = sorted(clean_lake.tables)[0]
    res = d3l_clean.search(target, k=5)
    assert len(res.ranking) <= 5
    assert res.target == target


def test_scores_sorted_ascending(d3l_clean, clean_lake):
    target = sorted(clean_lake.tables)[3]
    res = d3l_clean.search(target, k=10)
    scores = [s for _, s in res.ranking]
    assert scores == sorted(scores)


def test_target_not_in_its_own_answer(d3l_clean, clean_lake):
    target = sorted(clean_lake.tables)[5]
    res = d3l_clean.search(target, k=20)
    assert target not in res.tables


#: GT-related (target, table) pairs of ``noisy_lake`` that no index
#: retrieves for the target (at the lookup floor): no ranking can return
#: them. A blocking or banding change that loses candidates grows this set.
UNRETRIEVED_NOISY = set()


def test_unretrieved_gt_tables_pinned(d3l_noisy, noisy_lake):
    gt = noisy_lake.gt
    targets = sorted(t for t in noisy_lake.tables if gt.related_tables(t))
    res = d3l_noisy.search_many(targets, 10)
    unretrieved = {
        (t, s)
        for t in targets
        for s in gt.related_tables(t)
        if s not in set(res[t].alignments["s_table"])
    }
    assert unretrieved == UNRETRIEVED_NOISY


def test_same_base_tables_ranked_first_on_clean_lake(d3l_clean, clean_lake):
    """On the Synthetic-style lake, the derived siblings of the target are
    its most related tables (the paper's GT) and should head the ranking."""
    target = "gp_practices__000"
    siblings = clean_lake.gt.related_tables(target)
    res = d3l_clean.search(target, k=len(siblings))
    hits = sum(1 for t in res.tables if t in siblings)
    assert hits >= len(siblings) - 1, f"ranking head {res.tables} misses {siblings}"


@pytest.mark.parametrize("target_idx", [0, 7, 14, 21])
def test_precision_at_2_reasonable_on_clean_lake(d3l_clean, clean_lake, target_idx):
    target = sorted(clean_lake.tables)[target_idx]
    res = d3l_clean.search(target, k=2)
    assert _gt_precision(clean_lake, res, 2) >= 0.5


def test_search_many_matches_single_search(d3l_clean, clean_lake):
    names = sorted(clean_lake.tables)
    t1, t2 = names[0], names[9]
    batched = d3l_clean.search_many([t1, t2], k=5)
    single = d3l_clean.search(t1, k=5)
    assert batched[t1].tables == single.tables
    assert batched[t2].target == t2


def test_alignments_cover_ranked_tables(d3l_clean, clean_lake):
    target = sorted(clean_lake.tables)[2]
    res = d3l_clean.search(target, k=5)
    # Full candidate set: every ranked table appears, plus non-top-k ones.
    assert set(res.tables) <= set(res.alignments["s_table"])
    assert (res.alignments["q_table"] == target).all()
    assert target not in set(res.alignments["s_table"])


def test_alignment_distance_columns_bounded(d3l_clean, clean_lake):
    target = sorted(clean_lake.tables)[4]
    res = d3l_clean.search(target, k=8)
    for t in EVIDENCE_TYPES:
        col = res.alignments[f"d_{t}"]
        assert ((col >= 0.0) & (col <= 1.0)).all()


@pytest.mark.parametrize("evidence", ["n", "v", "f", "e"])
def test_single_evidence_mode_ranks(d3l_clean, clean_lake, evidence):
    target = sorted(clean_lake.tables)[8]
    res = d3l_clean.search(target, k=5, evidence=evidence)
    assert len(res.ranking) >= 1
    assert all(0.0 <= s <= 1.0 for _, s in res.ranking)


def test_combined_beats_or_matches_format_evidence(d3l_clean, clean_lake):
    """Experiment 1's headline: format alone is the weakest signal; the
    aggregated ranking should not be worse than format-only."""
    targets = sorted(clean_lake.tables)[:6]
    combined = d3l_clean.search_many(targets, k=2)
    fmt = d3l_clean.search_many(targets, k=2, evidence="f")
    p_comb = sum(_gt_precision(clean_lake, combined[t], 2) for t in targets)
    p_fmt = sum(_gt_precision(clean_lake, fmt[t], 2) for t in targets)
    assert p_comb >= p_fmt


def test_noisy_lake_still_finds_siblings(d3l_noisy, noisy_lake):
    """Dirtiness (renames + format rewrites) must not destroy the ranking —
    the paper's core claim is robustness to inconsistent representation."""
    targets = sorted(noisy_lake.tables)[:8]
    res = d3l_noisy.search_many(targets, k=2)
    precisions = [_gt_precision(noisy_lake, res[t], 2) for t in targets]
    assert sum(precisions) / len(precisions) >= 0.4


SYSTEMS = ["d3l_clean", "tus_clean", "aurum_clean"]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("k", [0, -1])
def test_search_many_rejects_non_positive_k(request, clean_lake, system, k):
    with pytest.raises(ValueError, match="k must be positive"):
        request.getfixturevalue(system).search_many([sorted(clean_lake.tables)[0]], k)


@pytest.mark.parametrize("system", SYSTEMS)
def test_search_many_rejects_unknown_target(request, clean_lake, system):
    with pytest.raises(ValueError, match="not lake tables"):
        request.getfixturevalue(system).search_many(
            [sorted(clean_lake.tables)[0], "no_such_table"], 5
        )


@pytest.mark.parametrize("system", SYSTEMS)
def test_search_many_rejects_duplicate_targets(request, clean_lake, system):
    target = sorted(clean_lake.tables)[0]
    with pytest.raises(ValueError, match="duplicate targets"):
        request.getfixturevalue(system).search_many([target, target], 5)


@pytest.mark.parametrize("evidence", ["x", "D_n", ""])
def test_search_many_rejects_unknown_evidence(d3l_clean, clean_lake, evidence):
    with pytest.raises(ValueError, match="evidence must be one of"):
        d3l_clean.search_many([sorted(clean_lake.tables)[0]], 5, evidence=evidence)


def _jobs_started(spark, group: str, fn) -> list[int]:
    """Ids of the Spark jobs ``fn()`` starts, run under job group ``group``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return sc.statusTracker().getJobIdsForGroup(group)


@pytest.mark.parametrize("system", ["d3l_clean", "aurum_clean"])
def test_warm_search_starts_no_spark_job(request, spark, clean_lake, system):
    """D3L and Aurum serve a warm query from driver copies alone."""
    target = sorted(clean_lake.tables)[3]
    searcher = request.getfixturevalue(system)
    searcher.search(target, 10)
    assert _jobs_started(spark, f"warm-{system}", lambda: searcher.search(target, 10)) == []
    # The same probe does see a job that runs.
    assert _jobs_started(spark, f"control-{system}", lambda: spark.range(3).count())


#: Spark jobs of a warm TUS search of one target of ``clean_lake``, as
#: measured: the query-time recomputation of the target's value and class
#: sets alone (TUS's faithful per-query KB-mapping cost).
TUS_SEARCH_JOBS = 4


def test_warm_tus_search_starts_only_the_recomputation_jobs(spark, tus_clean, clean_lake):
    """A warm TUS search runs the lookup and the exact refinement on the
    driver: its only Spark jobs recompute the target's feature sets."""
    target = sorted(clean_lake.tables)[3]
    tus_clean.search(target, 10)
    search = _jobs_started(spark, "warm-tus", lambda: tus_clean.search(target, 10))

    def recompute():
        target_cells = tus_clean.cells.where(tus_clean.cells["table"].isin([target]))
        value_sets(target_cells).toPandas()
        semantic_sets(target_cells, tus_clean.kb).toPandas()

    assert len(search) == len(_jobs_started(spark, "tus-recompute", recompute))
    assert len(search) <= TUS_SEARCH_JOBS


def _fresh_cells(spark):
    """Cached cells of the small noisy lake the build tests index."""
    lake = generator.generate_lake(derivations_per_base=2, rows=20, noise=0.6, seed=31)
    cells = tables.cells_df(spark, lake.tables).cache()
    cells.count()
    return cells


#: Spark jobs of a fresh ``D3L.build`` on the lake of
#: :func:`test_build_job_budget`, as measured. A Spark table cached or
#: counted in the build raises it.
BUILD_JOB_BUDGET = 24


def test_build_job_budget(spark):
    """A fresh build starts at most the measured number of Spark jobs,
    ``materialize()`` starts none, and it counts bands and tsets from the
    driver copies."""
    cells = _fresh_cells(spark)
    built = {}

    def build():
        built["d3l"] = D3L.build(spark, cells)

    def materialize():
        built["counts"] = built["d3l"].materialize()

    jobs = _jobs_started(spark, "fresh-build", build)
    materialize_jobs = _jobs_started(spark, "fresh-materialize", materialize)
    d3l, counts = built["d3l"], built["counts"]
    try:
        assert len(jobs) <= BUILD_JOB_BUDGET
        assert materialize_jobs == []
        for name, index in d3l.indexes.items():
            assert counts[f"bands_{name}"] == counts[f"sig_{name}"] * index.n_bands
        tsets = features.informative_tokens(cells).select("attr_id").distinct().count()
        assert counts["tset_sizes"] == counts["sig_v"] == tsets
    finally:
        d3l.unpersist()


@pytest.mark.parametrize("system", [D3L, TUS, Aurum], ids=["d3l", "tus", "aurum"])
def test_build_caches_only_the_attribute_profile(spark, system):
    """A build + ``materialize()`` over cached cells leaves one more cached
    RDD, the attribute profile: the indexes, the extents, TUS's feature sets
    and the attribute map are held on the driver alone."""
    cells = _fresh_cells(spark)
    storage = spark.sparkContext._jsc.sc().getRDDStorageInfo
    before = len(storage())
    built = system.build(spark, cells)
    try:
        built.materialize()
        assert len(storage()) - before == 1
    finally:
        built.unpersist()
