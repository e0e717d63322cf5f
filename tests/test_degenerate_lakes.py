"""Searches over degenerate lakes: a single table, all-numeric tables,
single-column text tables, a table with an all-null column and a table
that shares no LSH bucket with the rest of its lake.

Each search must answer without raising. The rankings' shapes are pinned,
not their scores.
"""
import pandas as pd
import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.tus import TUS
from repro.core import joins, lsh
from repro.core.distances import EVIDENCE_TYPES
from repro.core.ranking import D3L
from repro.lake import tables

K = 5
NAMES = [f"entity {i} unique" for i in range(20)]
COUNTS = [(7 * i) % 31 for i in range(20)]
RATES = [round(0.05 * i, 2) for i in range(20)]

LAKES = {
    "single_table": {"only": pd.DataFrame({"name": NAMES, "x": COUNTS})},
    "all_numeric": {
        "A": pd.DataFrame({"count": COUNTS, "rate": RATES}),
        "B": pd.DataFrame({"count": COUNTS[::-1], "rate": RATES[3:] + RATES[:3]}),
    },
    "single_text_column": {
        "A": pd.DataFrame({"city": ["Manchester", "Bolton", "Leeds"] * 5}),
        "B": pd.DataFrame({"town": ["Bolton", "Leeds", "York"] * 5}),
    },
    "all_null_column": {
        "A": pd.DataFrame({"name": NAMES, "gap": [None] * 20, "x": COUNTS}),
        "B": pd.DataFrame({"name": NAMES, "x": COUNTS[::-1]}),
    },
    # P's one column has no name q-grams, no tokens and a format no other
    # value has: no index retrieves anything for it.
    "no_candidates": {
        "A": pd.DataFrame({"name": NAMES, "x": COUNTS}),
        "B": pd.DataFrame({"name": NAMES, "x": COUNTS[::-1]}),
        "P": pd.DataFrame({"~": ["!?", "#%", "&*", "--", "??"] * 4}),
    },
}

#: D3L's expected answer tables per target.
D3L_ANSWERS = {
    "single_table": {"only": []},
    "all_numeric": {"A": ["B"], "B": ["A"]},
    "single_text_column": {"A": ["B"], "B": ["A"]},
    "all_null_column": {"A": ["B"], "B": ["A"]},
    "no_candidates": {"A": ["B"], "B": ["A"], "P": []},
}


@pytest.fixture(scope="module")
def built(spark):
    """``lake name -> {system name: system}``, each lake built on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            cells = tables.cells_df(spark, LAKES[name]).cache()
            cache[name] = {
                "d3l": D3L.build(spark, cells),
                "tus": TUS.build(spark, cells),
                "aurum": Aurum.build(spark, cells),
            }
        return cache[name]

    yield get
    for systems in cache.values():
        for system in systems.values():
            system.unpersist()


def _search(built, name, system):
    results = built(name)[system].search_many(sorted(LAKES[name]), K)
    for target, res in results.items():
        assert res.target == target
        assert len(res.ranking) <= K
        assert set(res.tables) <= set(LAKES[name]) - {target}
    return results


@pytest.mark.parametrize("name", sorted(LAKES))
def test_d3l_answers(built, name):
    results = _search(built, name, "d3l")
    assert {t: r.tables for t, r in results.items()} == D3L_ANSWERS[name]


@pytest.mark.parametrize("system", ["tus", "aurum"])
@pytest.mark.parametrize("name", sorted(LAKES))
def test_baseline_answers(built, name, system):
    results = _search(built, name, system)
    if name == "single_table":
        assert results["only"].ranking == []


def test_single_table_has_no_sa_edges(built):
    assert joins.sa_join_edges(built("single_table")["d3l"]).count() == 0


def test_all_numeric_tables_rank_through_guards_2_3(built):
    """No subject attribute and no V/E signatures: only the pairs' own
    name/format evidence admits KS pairs, and those rank the other table."""
    d3l = built("all_numeric")["d3l"]
    assert d3l.subject_attrs == frozenset()
    assert d3l.index_v.signatures.count() == 0
    assert d3l.index_e.signatures.count() == 0
    align = d3l.alignments(["A"])
    ks = set(align.loc[align["d_d"] < 1.0, ["query_attr", "attr_id"]].itertuples(index=False, name=None))
    assert {("A||count", "B||count"), ("A||rate", "B||rate")} <= ks


def test_target_without_candidates(built):
    """An empty lookup gives an empty pair table that still has every
    distance column, empty rankings and no join paths."""
    systems = built("no_candidates")
    d3l = systems["d3l"]
    assert lsh.lookup(d3l.indexes, d3l.target_attrs(["P"])).empty
    align = d3l.alignments(["P"])
    assert align.empty
    assert {f"d_{t}" for t in EVIDENCE_TYPES} <= set(align.columns)
    for name, system in systems.items():
        assert system.search("P", K).ranking == [], name
    res = d3l.search("P", K)
    graph = joins.JoinGraph.from_edges(joins.sa_join_edges(d3l))
    assert joins.join_paths_for_topk(graph, "P", res.tables, res.alignments) == {}
