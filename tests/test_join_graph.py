"""Algorithm 3 DFS and the SA-join graph (driver-side parts)."""
from repro.core.joins import JoinGraph, find_join_paths


def _graph(edges):
    return JoinGraph.from_edges(edges)


class TestJoinGraph:
    def test_undirected(self):
        g = _graph([("a", "b")])
        assert g.neighbours("a") == {"b"}
        assert g.neighbours("b") == {"a"}

    def test_missing_node_empty(self):
        assert _graph([("a", "b")]).neighbours("zz") == set()

    def test_multi_edges_dedup(self):
        g = _graph([("a", "b"), ("a", "b"), ("b", "a")])
        assert g.neighbours("a") == {"b"}


class TestFindJoinPaths:
    # Graph: s --- a --- b,  s --- c,  a --- k (k in top-k), a --- u (unrelated)
    G = _graph([("s", "a"), ("a", "b"), ("s", "c"), ("a", "k"), ("a", "u")])

    def test_paths_found(self):
        paths = find_join_paths(
            self.G, "s", top_k={"s", "k"}, related_to_target={"a", "b", "c"}
        )
        assert ["s", "a"] in paths
        assert ["s", "a", "b"] in paths
        assert ["s", "c"] in paths

    def test_topk_nodes_excluded(self):
        paths = find_join_paths(
            self.G, "s", top_k={"s", "k"}, related_to_target={"a", "b", "c", "k"}
        )
        assert all("k" not in p[1:] for p in paths)

    def test_unrelated_nodes_excluded(self):
        paths = find_join_paths(
            self.G, "s", top_k={"s"}, related_to_target={"a", "b", "c"}
        )
        assert all("u" not in p for p in paths)

    def test_acyclic(self):
        g = _graph([("s", "a"), ("a", "b"), ("b", "s")])
        paths = find_join_paths(g, "s", top_k={"s"}, related_to_target={"a", "b"})
        for p in paths:
            assert len(p) == len(set(p))

    def test_max_depth(self):
        g = _graph([("s", "a"), ("a", "b"), ("b", "c"), ("c", "d")])
        rel = {"a", "b", "c", "d"}
        paths = find_join_paths(g, "s", top_k={"s"}, related_to_target=rel, max_depth=2)
        assert max(len(p) - 1 for p in paths) == 2

    def test_start_with_no_neighbours(self):
        assert find_join_paths(_graph([]), "s", set(), set()) == []

    def test_every_path_starts_at_start(self):
        paths = find_join_paths(
            self.G, "s", top_k={"s"}, related_to_target={"a", "b", "c"}
        )
        assert all(p[0] == "s" for p in paths)
