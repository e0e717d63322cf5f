"""Spans around the calls into D3L's layers, recorded from the benchmark side.

A :class:`Tracer` keeps spans in memory: name, trace id (one per build or
query), parent, start and end, plus counts taken at the span (Spark jobs,
rows out, ...). Each span runs under its own Spark job group, so the jobs a
span started are read back from ``statusTracker()`` when the run ends.

Two levels are used:

* call-site spans, opened by the workload around D3L's public entry points
  (``D3L.build``, ``materialize``, ``search``, ``search_many``,
  ``joins.sa_join_edges``, ``joins.join_paths_for_topk``). They cost one
  local property per call and leave the program's plans untouched.
* layer spans (:func:`patched_layers`), which wrap the finer public
  functions of ``core.*`` for the duration of a ``with`` block. A wrapped
  function's lazy output is cached and counted inside its span, so the work
  is charged to the layer that defines it. Forcing changes what later
  layers recompute, never what they return.

A layer function that no longer exists is reported in ``absent`` and its
metrics read 0; it does not fail the run.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark import SparkContext
from pyspark.sql import DataFrame


@dataclass
class Span:
    name: str
    trace_id: str
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    jobs: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans (children of one
        span never overlap: the workload is a single client thread)."""
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder keyed to Spark job groups."""

    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace_id = ""
        self._resolved = False

    def _group(self, span: Span) -> str:
        return f"perfbench-{span.span_id}"

    @contextmanager
    def trace(self, trace_id: str):
        """Scope for one build or query; spans opened inside share its id."""
        outer, self._trace_id = self._trace_id, trace_id
        try:
            yield
        finally:
            self._trace_id = outer

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            name=name,
            trace_id=self._trace_id,
            span_id=len(self.spans),
            parent=parent.span_id if parent else None,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        self.sc.setJobGroup(self._group(sp), name)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration
                self.sc.setJobGroup(self._group(parent), parent.name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def resolve_jobs(self) -> None:
        """Read each span's own job count (jobs of descendants excluded).

        Done once, after the traced work, so the status store has seen every
        job-start event; ``spark.ui.retainedJobs`` is raised by the runner so
        no job is evicted before this point.
        """
        if self._resolved:
            return
        tracker = self.sc.statusTracker()
        for sp in self.spans:
            sp.jobs = len(tracker.getJobIdsForGroup(self._group(sp)))
        self._resolved = True

    def select(self, trace_prefix: str) -> list[Span]:
        return [s for s in self.spans if s.trace_id.startswith(trace_prefix)]

    def to_records(self) -> list[dict]:
        self.resolve_jobs()
        return [
            {
                "name": s.name,
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "jobs": s.jobs,
                **s.counts,
            }
            for s in self.spans
        ]


def force(df: DataFrame) -> tuple[DataFrame, int]:
    """Cache and count a lazy frame, so its work happens now."""
    df = df.cache()
    return df, df.count()


# ---------------------------------------------------------------------------
# Layer patches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One wrapped public function: ``owner.attr`` traced as ``name``.

    ``suffixes`` names successive calls within one build (the per-index
    passes: D3L.build calls them in n, v, f, e order). ``kind`` selects how
    the output is forced and counted.
    """

    name: str
    owner: str
    attr: str
    kind: str = "frame"
    suffixes: tuple[str, ...] = ()


LAYERS: tuple[Layer, ...] = (
    Layer("features.name_qgrams", "features", "name_qgrams"),
    Layer("features.informative_tokens", "features", "informative_tokens"),
    Layer("features.format_strings", "features", "format_strings"),
    Layer("features.embedding_vectors", "features", "embedding_vectors"),
    Layer("minhash.signatures_df", "minhash", "signatures_df", suffixes=("n", "v", "f")),
    Layer("randproj.bit_signatures_df", "randproj", "bit_signatures_df"),
    Layer("lsh.LshIndex.build", "LshIndex", "build", "index", ("n", "v", "f", "e")),
    Layer("distances.numeric_extents", "distances", "numeric_extents"),
    Layer("subject.subject_attributes", "subject", "subject_attributes"),
    Layer("lsh.LshIndex.lookup", "LshIndex", "lookup", "lookup"),
    Layer("distances.merge_lookups", "distances", "merge_lookups"),
    Layer("distances.attach_tables", "distances", "attach_tables"),
    Layer("distances.add_domain_distance", "distances", "add_domain_distance", "domain"),
    Layer("weights.pair_weights", "weights", "pair_weights"),
    Layer("weights.aggregate_eq1", "weights", "aggregate_eq1"),
    Layer("weights.combine_eq3", "weights", "combine_eq3", "pandas"),
    Layer("ranking.candidate_pairs", "D3L", "candidate_pairs"),
    Layer("ranking.table_vectors", "D3L", "table_vectors", "plain"),
)


def _owners() -> dict[str, object]:
    from repro.core import distances, features, lsh, minhash, randproj, subject, weights
    from repro.core.ranking import D3L

    return {
        "features": features,
        "minhash": minhash,
        "randproj": randproj,
        "distances": distances,
        "subject": subject,
        "weights": weights,
        "LshIndex": lsh.LshIndex,
        "D3L": D3L,
    }


class _LayerState:
    """Per-build call counters and the index-identity map for lookups."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.index_names: dict[int, str] = {}

    def register(self, d3l) -> None:
        self.calls.clear()
        self.index_names = {
            id(getattr(d3l, f"index_{n}")): n
            for n in "nvfe"
            if hasattr(d3l, f"index_{n}")
        }

    def suffix(self, layer: Layer, target=None) -> str:
        if layer.kind == "lookup":
            return "." + self.index_names.get(id(target), "other")
        if not layer.suffixes:
            return ""
        i = self.calls.get(layer.name, 0)
        self.calls[layer.name] = i + 1
        return "." + (layer.suffixes[i] if i < len(layer.suffixes) else str(i))


def _wrap(tracer: Tracer, state: _LayerState, layer: Layer, fn):
    def run(args, kwargs, target=None):
        with tracer.span(layer.name + state.suffix(layer, target)) as sp:
            if layer.kind == "lookup":
                floor = kwargs.pop("min_similarity", 0.0)
                cands, sp.counts["candidates"] = force(fn(*args, min_similarity=0.0, **kwargs))
                out = cands.where(cands["similarity"] >= floor) if floor > 0.0 else cands
                out, sp.counts["kept"] = force(out)
                return out
            out = fn(*args, **kwargs)
            if layer.kind == "index":
                out.signatures.count()
                sp.counts["rows"] = out.bands.count()
            elif layer.kind == "pandas":
                sp.counts["rows"] = len(out)
            elif layer.kind in ("frame", "domain"):
                out, sp.counts["rows"] = force(out)
                if layer.kind == "domain":
                    sp.counts["ks_pairs"] = out.where(out["d_d"] < 1.0).count()
            return out

    if layer.owner == "LshIndex" and layer.attr == "build":
        return staticmethod(lambda *a, **kw: run(a, kw))
    if layer.owner in ("LshIndex", "D3L"):
        return lambda self, *a, **kw: run((self, *a), kw, target=self)
    return lambda *a, **kw: run(a, kw)


@contextmanager
def patched_layers(tracer: Tracer):
    """Wrap every layer in :data:`LAYERS` for the block's duration.

    Yields ``(state, absent)``: call ``state.register(d3l)`` after a build so
    lookups are named by index, and read ``absent`` for layers not found.
    """
    owners = _owners()
    state = _LayerState()
    absent: list[str] = []
    saved: list[tuple[object, str, object]] = []
    try:
        for layer in LAYERS:
            owner = owners[layer.owner]
            original = owner.__dict__.get(layer.attr) if isinstance(owner, type) else getattr(owner, layer.attr, None)
            if original is None:
                absent.append(layer.name)
                continue
            fn = getattr(owner, layer.attr)
            saved.append((owner, layer.attr, original))
            setattr(owner, layer.attr, _wrap(tracer, state, layer, fn))
        yield state, absent
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
