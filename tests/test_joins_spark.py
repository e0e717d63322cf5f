"""SA-join graph construction and join-path discovery over a real lake."""
import pytest

from repro.core import joins
from repro.lake.tables import split_attr_id


@pytest.fixture(scope="module")
def edges(d3l_clean):
    return joins.sa_join_edges(d3l_clean, tau=0.4).toPandas()


class TestSAJoinEdges:
    def test_edges_exist(self, edges):
        assert len(edges) > 0

    def test_normalised_direction(self, edges):
        assert (edges["t1"] < edges["t2"]).all()

    def test_no_self_edges(self, edges):
        assert (edges["t1"] != edges["t2"]).all()

    def test_similarity_above_tau(self, edges):
        assert (edges["similarity"] >= 0.4).all()

    def test_siblings_connected(self, edges, clean_lake):
        """Derived tables of gp_practices share practice-name subjects with
        gp_funding tables -> cross-base SA edges should exist."""
        pairs = set(zip(edges["t1"], edges["t2"]))
        cross = [
            (a, b)
            for a, b in pairs
            if clean_lake.gt.base_of[a] != clean_lake.gt.base_of[b]
        ]
        assert len(cross) > 0

    def test_subject_condition(self, edges, d3l_clean):
        """Every edge touches at least one subject attribute (built by
        querying I_V with subject attrs only)."""
        subjects = set(d3l_clean.subjects["table"])
        for a, b in zip(edges["t1"], edges["t2"]):
            assert a in subjects or b in subjects


class TestJoinPathsEndToEnd:
    def test_paths_from_topk(self, d3l_clean, clean_lake):
        target = "gp_practices__000"
        res = d3l_clean.search(target, k=3)
        graph = joins.JoinGraph.from_edges(
            [(a, b) for a, b in zip(
                joins.sa_join_edges(d3l_clean, tau=0.4).toPandas()["t1"],
                joins.sa_join_edges(d3l_clean, tau=0.4).toPandas()["t2"],
            )]
        )
        paths = joins.join_paths_for_topk(graph, target, res.tables, res.alignments)
        assert set(paths) == set(res.tables)
        for start, plist in paths.items():
            for p in plist:
                assert p[0] == start
                assert len(p) == len(set(p))  # acyclic
                for node in p[1:]:
                    assert node not in res.tables  # outside top-k
                    assert node in set(res.alignments["s_table"])  # related

    def test_paths_can_reach_new_tables(self, d3l_clean, clean_lake):
        """Join paths exist that reach tables outside the top-k — the whole
        point of §IV (weakly related tables contributing via joins)."""
        targets = sorted(t for t in clean_lake.tables if clean_lake.gt.subject_of[t])[:6]
        edges = joins.sa_join_edges(d3l_clean, tau=0.4)
        graph = joins.JoinGraph.from_edges(edges)
        reached_new = 0
        for target in targets:
            res = d3l_clean.search(target, k=2)
            paths = joins.join_paths_for_topk(graph, target, res.tables, res.alignments)
            extra = {n for plist in paths.values() for p in plist for n in p[1:]}
            reached_new += len(extra - set(res.tables))
        assert reached_new > 0
