"""End-to-end D3L ranking behaviour (paper §III-D)."""
import pandas as pd
import pytest

from repro.core.distances import EVIDENCE_TYPES


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
