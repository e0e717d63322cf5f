"""What one benchmark run does: set up, then build, batch and serial search.

Every workload runs the same closed loop from one client thread against one
lake; the lakes differ (see :data:`WORKLOADS`). A timed run is

1. set-up (``setup_s``): Spark session, the lake's generation and
   ``cells_df``;
2. the process's first build of the lake: ``D3L.build`` + ``materialize``
   + ``joins.sa_join_edges`` collected (``build_s``, ``index_mb``). Being
   the first, it includes the JVM's and Spark's one-time warm-up;
3. one batch: ``search_many`` over every target with ground truth, then
   ``join_paths_for_topk`` for each (``batch_targets_per_s``, quality). It
   is the first query, so the serial searches after it run warm;
4. serial ``search(t, k)`` calls round-robin over fixed targets until the
   run's seconds are used, at least :data:`MIN_SERIAL` of them
   (``search_p50_s``).

A separate warm-up build and query would make steps 2 and 3 warm, but at
about 30 s more per run the driver's runs would not fit their time budget.
The traced run (``run.py``) adds a warm-up query before its batches.

Every answer is checked: structure always, serial answers against the
batch answer for the same target, and everything against ``reference.json``
when the run uses the seeds and lake the reference was recorded for.
"""
from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import pyspark.sql.functions as F

from checks import as_ranking, digest_signatures, ranking_errors, rankings_agree
from repro.core import joins
from repro.core.ranking import D3L
from repro.eval import harness, metrics
from repro.lake import generator, tables

K = 10
N_SERIAL_TARGETS = 8
DEFAULT_TARGET_SEED = 5  # harness.pick_targets' default
MIN_SERIAL = 1
MB = 1 << 20


@dataclass(frozen=True)
class LakeSpec:
    """A lake from a ``harness.REPO_PRESETS`` preset at a chosen scale."""

    preset: str
    derivations: int
    rows: int

    def generate(self, seed: int):
        noise = harness.REPO_PRESETS[self.preset]["noise"]
        return generator.generate_lake(
            derivations_per_base=self.derivations, rows=self.rows, noise=noise, seed=seed
        )

    @property
    def default_seed(self) -> int:
        return harness.REPO_PRESETS[self.preset]["seed"]


#: Workload lakes. ``tiny`` is for the smoke test and is not in BENCHMARK.json.
WORKLOADS: dict[str, LakeSpec] = {
    "synthetic": LakeSpec("synthetic", derivations=5, rows=80),
    "real": LakeSpec("real", derivations=5, rows=80),
    "tiny": LakeSpec("real", derivations=2, rows=20),
}


def cached_bytes(sc) -> int:
    """Block-manager bytes (memory + disk) of every cached RDD."""
    return sum(i.memSize() + i.diskSize() for i in sc._jsc.sc().getRDDStorageInfo())


def settled_cached_bytes(sc, quiet_s: float = 1.0, wait_s: float = 5.0) -> int:
    """:func:`cached_bytes` after garbage collection, once unchanged for
    ``quiet_s``. Checkpoint blocks of frames no longer referenced are only
    removed after the JVM collects them, by an asynchronous cleaner."""
    gc.collect()
    sc._jvm.System.gc()
    last, since, t_end = cached_bytes(sc), time.perf_counter(), time.perf_counter() + wait_s
    while time.perf_counter() < t_end and time.perf_counter() - since < quiet_s:
        time.sleep(0.1)
        now = cached_bytes(sc)
        if now != last:
            last, since = now, time.perf_counter()
    return last


def max_bucket(index) -> int:
    """Largest LSH bucket: attributes sharing one (band, band_hash)."""
    row = index.bands.groupBy("band", "band_hash").count().agg(F.max("count")).first()
    return int(row[0] or 0)


@dataclass
class Outcome:
    """Counters and measurements of one pass over the workload."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    build_s: float = 0.0
    index_bytes: int = 0
    batch_s: float = 0.0
    n_batch: int = 0
    precision: float = 0.0
    recall: float = 0.0
    coverage: float = 0.0
    serial_s: list[float] = field(default_factory=list)
    retained_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    n_edges: int = 0
    rankings: dict[str, list] = field(default_factory=dict)

    def as_reference(self) -> dict:
        """This pass's answers in ``reference.json``'s form."""
        return {
            "build": {"counts": self.counts, "sa_edges": self.n_edges, "digests": self.digests},
            "rankings": self.rankings,
        }

    def record(self, errs: list[str]) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs)


class Runner:
    """Holds the session, the workload lake and the optional tracer."""

    def __init__(self, spark, spec: LakeSpec, lake_seed: int, target_seed: int, reference: dict):
        self.spark = spark
        self.sc = spark.sparkContext
        self.spec = spec
        self.lake_seed = lake_seed
        self.target_seed = target_seed
        self.reference = reference
        self.tracer = None
        self.lake = None
        self.cells = None

    # -- set-up ---------------------------------------------------------------

    def warm_up_query(self, d3l: D3L) -> None:
        """One untimed query, so the timed ones find the query plans compiled."""
        d3l.search(self.serial_targets[0], K)

    def load_lake(self) -> None:
        self.lake = self.spec.generate(self.lake_seed)
        self.cells = tables.cells_df(self.spark, self.lake.tables).cache()
        self.cells.count()
        self.batch_targets = sorted(t for t in self.lake.tables if self.lake.gt.related_tables(t))
        self.serial_targets = harness.pick_targets(self.lake, N_SERIAL_TARGETS, self.target_seed)

    # -- the measured pass ----------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _trace(self, trace_id: str):
        return self.tracer.trace(trace_id) if self.tracer else nullcontext()

    def build(self, out: Outcome, tag: str, *, digests: bool, layer_state=None) -> tuple[D3L, list]:
        before = cached_bytes(self.sc)
        with self._trace(f"{tag}/build"):
            t0 = time.perf_counter()
            with self._span("ranking.build"):
                d3l = D3L.build(self.spark, self.cells)
            if layer_state is not None:
                layer_state.register(d3l)
            with self._span("ranking.materialize"):
                counts = d3l.materialize()
            with self._span("joins.sa_join_edges") as sp:
                edges = [(r["t1"], r["t2"]) for r in joins.sa_join_edges(d3l).collect()]
                if sp is not None:
                    sp.counts["rows"] = len(edges)
            out.build_s = time.perf_counter() - t0
        out.index_bytes = cached_bytes(self.sc) - before
        out.counts, out.n_edges = counts, len(edges)
        if digests:
            out.digests = {n: digest_signatures(getattr(d3l, f"index_{n}").signatures) for n in "nvfe"}
        out.record(self._build_errors(out))
        return d3l, edges

    def _build_errors(self, out: Outcome) -> list[str]:
        errs = [f"materialize: {k} = {v}" for k, v in out.counts.items() if v <= 0]
        ref = self.reference.get("build")
        if ref is not None:
            if out.counts != ref["counts"]:
                errs.append(f"materialize counts {out.counts} != reference {ref['counts']}")
            if out.n_edges != ref["sa_edges"]:
                errs.append(f"SA edges {out.n_edges} != reference {ref['sa_edges']}")
            for n, want in ref["digests"].items():
                if out.digests.get(n) != want:
                    errs.append(f"signature digest of index {n} differs from reference")
        return errs

    def _answer_errors(self, target: str, ranking: list) -> list[str]:
        errs = ranking_errors(target, ranking, K)
        ref = self.reference.get("rankings", {}).get(target)
        if ref is not None and not rankings_agree(ranking, ref):
            errs.append(f"{target}: ranking differs from reference")
        return errs

    def batch(self, out: Outcome, tag: str, d3l: D3L, edges: list) -> None:
        targets = self.batch_targets
        with self._trace(f"{tag}/batch"):
            t0 = time.perf_counter()
            with self._span("ranking.search_many"):
                res = d3l.search_many(targets, K)
            graph = joins.JoinGraph.from_edges(edges)
            with self._span("joins.join_paths_for_topk") as sp:
                paths = {
                    t: joins.join_paths_for_topk(graph, t, res[t].tables, res[t].alignments)
                    for t in targets
                }
                if sp is not None:
                    sp.counts["paths"] = sum(len(p) for per in paths.values() for p in per.values())
            out.batch_s = time.perf_counter() - t0
        out.n_batch = len(targets)

        precisions, recalls, coverages = [], [], []
        for t in targets:
            r = res[t]
            out.rankings[t] = as_ranking(r.ranking)
            out.record(self._answer_errors(t, out.rankings[t]))
            p, rc = metrics.precision_recall(r.tables, self.lake.gt.related_tables(t))
            precisions.append(p)
            recalls.append(rc)
            arity = self.lake.tables[t].shape[1]
            for s in r.tables:
                reach = {s} | {n for p in paths[t][s] for n in p}
                coverages.append(metrics.joinpath_coverage(r.alignments, arity, reach))
        out.precision = statistics.fmean(precisions)
        out.recall = statistics.fmean(recalls)
        out.coverage = metrics.mean_or_zero(coverages)

    def serial(self, out: Outcome, tag: str, d3l: D3L, deadline: float) -> None:
        i = 0
        while i < MIN_SERIAL or time.perf_counter() + statistics.median(out.serial_s) <= deadline:
            target = self.serial_targets[i % len(self.serial_targets)]
            with self._trace(f"{tag}/serial/{i}"):
                t0 = time.perf_counter()
                with self._span("ranking.search"):
                    res = d3l.search(target, K)
                out.serial_s.append(time.perf_counter() - t0)
            ranking = as_ranking(res.ranking)
            errs = self._answer_errors(target, ranking)
            if target in out.rankings and not rankings_agree(ranking, out.rankings[target]):
                errs.append(f"{target}: serial answer differs from the batch answer")
            out.record(errs)
            i += 1

    def run_pass(
        self, tag: str, seconds: float, *, digests: bool, warm_up: bool = False,
        serial: bool = True, layer_state=None,
    ) -> tuple[Outcome, D3L]:
        out = Outcome()
        deadline = time.perf_counter() + seconds
        d3l, edges = self.build(out, tag, digests=digests, layer_state=layer_state)
        before = settled_cached_bytes(self.sc) if self.tracer else 0
        if warm_up:
            self.warm_up_query(d3l)
        self.batch(out, tag, d3l, edges)
        if serial:
            self.serial(out, tag, d3l, deadline)
        if self.tracer:
            out.retained_bytes = settled_cached_bytes(self.sc) - before
        return out, d3l

    def release(self, d3l: D3L) -> None:
        """Drop an index; ``D3L.unpersist`` also drops the shared cells, so
        they are cached again (untimed) for the next pass."""
        d3l.unpersist()
        self.cells.cache()
        self.cells.count()


def end_to_end(out: Outcome, setup_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one untraced pass, ``name -> (value, unit)``."""
    return {
        "setup_s": (setup_s, "s"),
        "build_s": (out.build_s, "s"),
        "index_mb": (out.index_bytes / MB, "MB"),
        "search_p50_s": (statistics.median(out.serial_s), "s"),
        "batch_targets_per_s": (out.n_batch / out.batch_s, "targets/s"),
        "precision_at_10": (out.precision, "ratio"),
        "recall_at_10": (out.recall, "ratio"),
        "coverage_at_10": (out.coverage, "ratio"),
    }
