"""Experiment harness: one function per reported table/experiment (§V).

Every function returns plain row dicts (and can print a paper-style table)
so jobs and benchmarks share one code path. Repository presets:

* ``synthetic``  — noise 0.0 (the TUS-benchmark-style corpus);
* ``real``       — noise 0.6 (Smaller-Real-style dirtiness);
* ``larger``     — noise 0.3, more derivations (timing sweeps only).

Scale is configurable; defaults are sized for a local[*] session (see
DESIGN.md §6 — shapes, not absolute numbers, are the target).
"""
from __future__ import annotations

import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.aurum import Aurum
from repro.baselines.tus import TUS
from repro.core import joins, lsh
from repro.core.ranking import D3L, SearchResult
from repro.eval import metrics
from repro.lake import generator, tables
from repro.lake.generator import Lake

REPO_PRESETS: dict[str, dict] = {
    "synthetic": dict(noise=0.0, derivations_per_base=4, rows=90, seed=21),
    "real": dict(noise=0.6, derivations_per_base=4, rows=90, seed=22),
    "larger": dict(noise=0.3, derivations_per_base=8, rows=90, seed=23),
}


@dataclass
class Repo:
    """A generated repository and its Spark representation."""

    name: str
    lake: Lake
    cells: DataFrame


def build_repo(spark: SparkSession, kind: str, **overrides) -> Repo:
    params = dict(REPO_PRESETS[kind])
    params.update(overrides)
    lake = generator.generate_lake(**params)
    cells = tables.cells_df(spark, lake.tables).cache()
    cells.count()
    return Repo(name=kind, lake=lake, cells=cells)


def pick_targets(lake: Lake, n_targets: int, seed: int = 5) -> list[str]:
    """Random targets with a non-empty GT answer (paper: 100 random targets)."""
    rng = np.random.default_rng(seed)
    names = sorted(t for t in lake.tables if lake.gt.related_tables(t))
    idx = rng.choice(len(names), size=min(n_targets, len(names)), replace=False)
    return [names[i] for i in sorted(idx)]


# ---------------------------------------------------------------------------
# Effectiveness (Experiments 1-3)
# ---------------------------------------------------------------------------

def pr_at_ks(
    results: dict[str, SearchResult], lake: Lake, ks: list[int]
) -> list[dict]:
    """Average precision/recall over targets at each k (one search at max k,
    truncated per k — the ranking is a deterministic prefix)."""
    rows = []
    for k in ks:
        ps, rs = [], []
        for target, res in results.items():
            rel = lake.gt.related_tables(target)
            p, r = metrics.precision_recall(res.tables[:k], rel)
            ps.append(p)
            rs.append(r)
        rows.append(
            {"k": k, "precision": float(np.mean(ps)), "recall": float(np.mean(rs))}
        )
    return rows


def run_individual_effectiveness(
    d3l: D3L, lake: Lake, targets: list[str], ks: list[int]
) -> list[dict]:
    """Experiment 1: per-evidence P/R vs the combined aggregation."""
    rows = []
    for evidence in ["n", "v", "f", "e", None]:
        res = d3l.search_many(targets, max(ks), evidence=evidence)
        label = evidence or "combined"
        for r in pr_at_ks(res, lake, ks):
            rows.append({"evidence": label, **r})
    return rows


def run_comparative_effectiveness(
    systems: dict[str, object], lake: Lake, targets: list[str], ks: list[int]
) -> list[dict]:
    """Experiments 2/3: P/R for D3L vs TUS vs Aurum as k grows."""
    rows = []
    for name, system in systems.items():
        res = system.search_many(targets, max(ks))
        for r in pr_at_ks(res, lake, ks):
            rows.append({"system": name, **r})
    return rows


# ---------------------------------------------------------------------------
# Efficiency (Experiments 4-6) and space (Experiment 7 / Table II)
# ---------------------------------------------------------------------------

def time_indexing(spark: SparkSession, lake: Lake) -> dict[str, float]:
    """Experiment 4: wall-clock to build + materialise each system's index
    structures over the same lake. One untimed D3L build of the same cells
    comes first, so the first timed build does not pay the start of Spark's
    Python workers. Every build starts from cached cells: the previous
    system's ``unpersist`` drops them, so they are cached again, untimed."""
    out: dict[str, float] = {}
    cells = tables.cells_df(spark, lake.tables)
    for name, system in (("warm_up", D3L), ("d3l", D3L), ("tus", TUS), ("aurum", Aurum)):
        cells.cache()
        cells.count()
        t0 = time.perf_counter()
        built = system.build(spark, cells)
        built.materialize()
        out[name] = time.perf_counter() - t0
        built.unpersist()
    del out["warm_up"]
    return out


def time_search(
    system, targets: list[str], ks: list[int]
) -> list[dict]:
    """Experiments 5/6: mean per-target search time at each answer size."""
    rows = []
    for k in ks:
        t0 = time.perf_counter()
        for target in targets:
            system.search(target, k)
        elapsed = (time.perf_counter() - t0) / len(targets)
        rows.append({"k": k, "seconds": elapsed})
    return rows


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def space_overhead(spark: SparkSession, lake: Lake, workdir: str) -> dict[str, float]:
    """Experiment 7 / Table II: index bytes on disk relative to the lake's
    CSV footprint. Each system's retained query-time structures are written
    as parquet, except its LSH indexes, which are written as the driver
    holds them (attribute ids, then raw int64 signature and band matrices);
    the lake is written as CSV (its on-disk form in the paper)."""
    root = Path(workdir)
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)

    lake_dir = root / "lake"
    lake_dir.mkdir()
    for name, df in lake.tables.items():
        df.to_csv(lake_dir / f"{name}.csv", index=False)
    lake_bytes = _dir_bytes(lake_dir)

    cells = tables.cells_df(spark, lake.tables)

    def _write_pandas(df: pd.DataFrame, path: Path) -> None:
        path.mkdir(parents=True, exist_ok=True)
        df.to_parquet(path / "part.parquet")

    def _write_index(idx: lsh.LshIndex, path: Path) -> None:
        _write_pandas(pd.DataFrame({"attr_id": idx.attr_ids}), path)
        np.save(path / "sigs.npy", idx.sig_matrix)
        np.save(path / "bands.npy", idx.band_matrix)

    # Besides its LSH indexes, each system keeps for queries: D3L its numeric
    # extents and subject attributes; TUS the feature sets its exact
    # refinement reads; Aurum its graph and PK/FK candidates (the components
    # the paper's Table II charges it, with its profile indexes).
    systems = (
        ("d3l", D3L, lambda s: {"extents": s.extent_values[["attr_id", "vals"]], "subjects": s.subjects}),
        ("tus", TUS, lambda s: {"value_feats": s.value_feats, "semantic_feats": s.semantic_feats}),
        ("aurum", Aurum, lambda s: {"edges": s.edges, "pkfk": s.pkfk_edges}),
    )
    overhead: dict[str, float] = {}
    for name, system, stored in systems:
        built = system.build(spark, cells)
        system_dir = root / name
        for evidence, idx in built.indexes.items():
            _write_index(idx, system_dir / f"index_{evidence}")
        for part, df in stored(built).items():
            _write_pandas(df, system_dir / part)
        overhead[name] = _dir_bytes(system_dir) / lake_bytes
        built.unpersist()
    return {"lake_bytes": lake_bytes, **overhead}


# ---------------------------------------------------------------------------
# Join impact (Experiments 8-11)
# ---------------------------------------------------------------------------

def run_join_impact(
    d3l: D3L,
    aurum: Aurum,
    tus: TUS,
    lake: Lake,
    targets: list[str],
    ks: list[int],
) -> list[dict]:
    """Experiments 8-11: average target coverage and attribute precision,
    with (+J) and without join-path augmentation."""
    max_k = max(ks)
    d3l_graph = joins.JoinGraph.from_edges(joins.sa_join_edges(d3l))
    aurum_graph = joins.JoinGraph.from_edges(
        [(a, b) for a, b in zip(aurum.pkfk_edges["t1"], aurum.pkfk_edges["t2"])]
    )

    d3l_res = d3l.search_many(targets, max_k)
    aurum_res = aurum.search_many(targets, max_k)
    tus_res = tus.search_many(targets, max_k)

    rows = []
    for k in ks:
        per_system: dict[str, tuple[list, list]] = {
            name: ([], []) for name in ["d3l", "d3l+j", "aurum", "aurum+j", "tus"]
        }
        for target in targets:
            arity = lake.tables[target].shape[1]

            def eval_plain(res: SearchResult, name: str) -> None:
                covs, precs = per_system[name]
                for s in res.tables[:k]:
                    covs.append(metrics.table_coverage(res.alignments, arity, s))
                    precs.append(
                        metrics.attribute_precision_table(res.alignments, lake.gt, s)
                    )

            def eval_joined(res: SearchResult, graph: joins.JoinGraph, name: str) -> None:
                covs, precs = per_system[name]
                top = res.tables[:k]
                paths = joins.join_paths_for_topk(graph, target, top, res.alignments)
                for s in top:
                    reach = {s} | {n for p in paths[s] for n in p}
                    covs.append(
                        metrics.joinpath_coverage(res.alignments, arity, reach)
                    )
                    precs.append(
                        metrics.attribute_precision_joinpaths(
                            res.alignments, lake.gt, reach
                        )
                    )

            eval_plain(d3l_res[target], "d3l")
            eval_plain(aurum_res[target], "aurum")
            eval_plain(tus_res[target], "tus")
            eval_joined(d3l_res[target], d3l_graph, "d3l+j")
            eval_joined(aurum_res[target], aurum_graph, "aurum+j")

        for name, (covs, precs) in per_system.items():
            rows.append(
                {
                    "system": name,
                    "k": k,
                    "coverage": metrics.mean_or_zero(covs),
                    "attr_precision": metrics.mean_or_zero(precs),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

def print_rows(rows: list[dict], title: str, *, save: str | None = None) -> pd.DataFrame:
    """Print a result table (bypassing pytest's capture, so benchmark runs
    show the paper-style rows in bench_output.txt) and optionally persist it
    under ``results/<save>.txt``."""
    df = pd.DataFrame(rows)
    text = f"\n== {title} ==\n{df.to_string(index=False)}"
    print(text, file=getattr(sys, "__stdout__", sys.stdout), flush=True)
    if save:
        out = Path(__file__).resolve().parents[3] / "results"
        out.mkdir(exist_ok=True)
        (out / f"{save}.txt").write_text(text.lstrip("\n") + "\n")
    return df
