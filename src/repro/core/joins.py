"""Join-path discovery (paper §IV, Algorithm 3).

Two lake tables are *SA-joinable* iff (i) there is I_V evidence that the
tsets of two of their attributes overlap and (ii) at least one of the two
attributes is its table's *subject attribute*. The SA-join graph G_S has
tables as nodes and SA-joinable pairs as edges; given a target T and its
top-k answer S^k, Algorithm 3 DFSes from each S_i in S^k through nodes that
are (a) outside S^k, (b) not already on the path, and (c) related to T by
at least one index — each such path contributes tables whose aligned
attributes can further populate T.

The edge list is one I_V lookup of the subject attributes, served from the
index's driver copy like every query; the DFS runs in the driver over the
table-granular edge list (|tables| nodes — orders of magnitude smaller than
the lake, and the paper's algorithm is inherently sequential).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import distances as dist
from repro.core import lsh
from repro.core.ranking import D3L

#: The paper's LSH threshold tau (§V footnote 5), the SA-edge floor.
TAU = 0.7


def sa_join_edges(d3l: D3L, *, tau: float = TAU) -> DataFrame:
    """The SA-join graph's edge list ``(t1, t2, similarity)`` (t1 < t2).

    Built by querying I_V with every *subject attribute* and keeping
    candidates whose estimated tset Jaccard >= tau — the paper's
    "I_V-based evidence that the tsets overlap" with the LSH threshold.
    The edges are computed on the driver and returned as a DataFrame.
    """
    hits = lsh.lookup({"v": d3l.index_v}, sorted(d3l.subject_attrs), min_similarity=tau)
    pairs = dist.with_tables(hits, d3l.attr_tables)
    # Normalise to undirected edges; either endpoint being a subject
    # satisfies condition (ii) since the query side is always a subject.
    edges = (
        pd.DataFrame(
            {
                "t1": np.minimum(pairs["q_table"], pairs["s_table"]),
                "t2": np.maximum(pairs["q_table"], pairs["s_table"]),
                "similarity": pairs["similarity"],
            }
        )
        .groupby(["t1", "t2"], as_index=False)["similarity"]
        .max()
    )
    return d3l.spark.createDataFrame(edges, schema="t1 string, t2 string, similarity double")


@dataclass
class JoinGraph:
    """Driver-side adjacency view of the SA-join graph."""

    adjacency: dict[str, set[str]]

    @staticmethod
    def from_edges(edges: DataFrame | list[tuple[str, str]]) -> "JoinGraph":
        if isinstance(edges, DataFrame):
            rows = [(r["t1"], r["t2"]) for r in edges.select("t1", "t2").collect()]
        else:
            rows = list(edges)
        adj: dict[str, set[str]] = {}
        for a, b in rows:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return JoinGraph(adjacency=adj)

    def neighbours(self, node: str) -> set[str]:
        return self.adjacency.get(node, set())


def find_join_paths(
    graph: JoinGraph,
    start: str,
    top_k: set[str],
    related_to_target: set[str],
    *,
    max_depth: int = 3,
) -> list[list[str]]:
    """Algorithm 3: all simple paths from ``start`` through nodes that are
    outside the top-k, acyclic, and index-related to the target.

    ``related_to_target`` is the set of tables with at least one attribute
    in some index lookup result for the target (the paper's
    ``I_*.lookup(T)`` with existential interpretation). ``max_depth`` bounds
    the recursion (path length excluding ``start``); the paper leaves this
    unbounded but its lakes are DAG-ish — a small bound keeps the search
    tractable without changing which *tables* are reachable in practice.
    """
    paths: list[list[str]] = []

    def _dfs(node: str, path: list[str]) -> None:
        path = path + [node]
        if len(path) > 1:
            paths.append(path)
        if len(path) - 1 >= max_depth:
            return
        for nxt in sorted(graph.neighbours(node)):
            if nxt in top_k or nxt in path or nxt not in related_to_target:
                continue
            _dfs(nxt, path)

    _dfs(start, [])
    return paths


def join_paths_for_topk(
    graph: JoinGraph,
    target: str,
    top_k_tables: list[str],
    alignments,
    *,
    max_depth: int = 3,
) -> dict[str, list[list[str]]]:
    """All SA-join paths J_{S_i} for each S_i in the top-k (paper §IV).

    ``alignments`` must cover the *full* candidate set for the target (not
    just top-k rows) so that ``related_to_target`` reflects I_*.lookup(T).
    """
    related = set(alignments["s_table"]) - {target}
    topk = set(top_k_tables)
    return {
        s: find_join_paths(graph, s, topk, related, max_depth=max_depth)
        for s in top_k_tables
    }
