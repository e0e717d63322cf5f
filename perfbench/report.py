"""Per-layer metrics of a traced run, read from the recorded spans.

Names follow ``<module>.<function>[.<index>].<qty>``: ``s`` is self time
(span duration minus its child spans), ``jobs`` the Spark jobs started in
the span itself, and the other quantities are counts taken at the span
(``rows`` out, LSH ``candidates`` before and ``kept`` after the similarity
floor, ``ks_pairs`` = output pairs whose Algorithm 2 distance ``d_d`` is
below 1, ``paths`` = Algorithm 3 join paths over all targets).

* Build layers come from the traced build (trace ``B/build``) and search
  layers from the traced batch (``B/batch``): each layer's output is forced
  there, so its time and jobs are its own.
* The public entry points come from the run with call-site spans only
  (``A/...``), whose job counts are the program's own: ``ranking.search.*``
  is the mean over the serial searches. Pass A's build is the process's
  first, so ``ranking.build.s``, ``ranking.materialize.s`` and
  ``joins.sa_join_edges.s`` include the one-time warm-up.
* :data:`EXTRAS` are measured by the runner outside any span: the largest
  LSH bucket per index, the block-manager bytes pass A's queries left
  cached (the checkpoints ``candidate_pairs`` keeps), and the tracing
  overhead (pass B's batch time minus pass A's; both batches run warm).

The table below is also the ``per_layer`` list of BENCHMARK.json; the smoke
test keeps the two equal. Which end-to-end metric each layer should move is
written down in PREDICTIONS.md.
"""
from __future__ import annotations

import statistics

INDEXES = ("n", "v", "f", "e")

_BUILD = [
    ("features.name_qgrams", ("s", "jobs", "rows")),
    ("features.informative_tokens", ("s", "jobs", "rows")),
    ("features.format_strings", ("s", "jobs", "rows")),
    ("features.embedding_vectors", ("s", "jobs", "rows")),
    *[(f"minhash.signatures_df.{i}", ("s", "jobs", "rows")) for i in "nvf"],
    ("randproj.bit_signatures_df", ("s", "jobs", "rows")),
    *[(f"lsh.LshIndex.build.{i}", ("s", "jobs", "rows")) for i in INDEXES],
    ("distances.numeric_extents", ("s", "jobs", "rows")),
    ("subject.subject_attributes", ("s", "jobs", "rows")),
]

_SEARCH = [
    *[(f"lsh.LshIndex.lookup.{i}", ("s", "jobs", "candidates", "kept")) for i in INDEXES],
    ("distances.merge_lookups", ("s", "jobs", "rows")),
    ("distances.attach_tables", ("s", "jobs", "rows")),
    ("distances.add_domain_distance", ("s", "jobs", "rows", "ks_pairs")),
    ("weights.pair_weights", ("s", "jobs")),
    ("weights.aggregate_eq1", ("s", "jobs", "rows")),
    ("weights.combine_eq3", ("s",)),
    ("ranking.candidate_pairs", ("s", "jobs")),
    ("ranking.table_vectors", ("s", "jobs")),
]

_PUBLIC = [
    ("ranking.build", "A/build", ("s", "jobs")),
    ("ranking.materialize", "A/build", ("s", "jobs")),
    ("joins.sa_join_edges", "A/build", ("s", "jobs", "rows")),
    ("ranking.search_many", "A/batch", ("s", "jobs")),
    ("joins.join_paths_for_topk", "A/batch", ("s", "paths")),
    ("ranking.search", "A/serial/", ("s", "jobs")),
]


#: Values measured outside any span, passed to :func:`per_layer` by name.
EXTRAS = (
    *[(f"lsh.bands.max_bucket.{i}", "count") for i in INDEXES],
    ("ranking.candidate_pairs.retained_mb", "MB"),
    ("trace.overhead_s", "s"),
)


def _entries():
    """``(metric name, unit, trace prefix, layer, qty)`` in BENCHMARK.json order."""
    for trace, group in (("B/build", _BUILD), ("B/batch", _SEARCH)):
        for layer, qs in group:
            for q in qs:
                yield f"{layer}.{q}", "s" if q == "s" else "count", trace, layer, q
    for layer, trace, qs in _PUBLIC:
        for q in qs:
            yield f"{layer}.{q}", "s" if q == "s" else "count", trace, layer, q
    for name, unit in EXTRAS:
        yield name, unit, None, None, None


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    return [(name, unit, "lower") for name, unit, *_ in _entries()]


def _value(span, qty: str) -> float:
    if qty == "s":
        return span.self_s
    if qty == "jobs":
        return span.jobs
    return span.counts.get(qty, 0)


def _per_trace(spans, layer: str, qty: str) -> float:
    """Sum over the layer's spans within each trace, mean over traces."""
    by_trace: dict[str, float] = {}
    for s in spans:
        if s.name == layer:
            by_trace[s.trace_id] = by_trace.get(s.trace_id, 0.0) + _value(s, qty)
    return statistics.fmean(by_trace.values()) if by_trace else 0.0


def per_layer(tracer, extras: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every metric of :func:`metric_specs` as ``name -> (value, unit)``.

    ``extras`` holds the :data:`EXTRAS` values. A layer with no span (a
    function absent from the program) and a missing extra read 0.
    """
    tracer.resolve_jobs()
    out: dict[str, tuple[float, str]] = {}
    for name, unit, trace, layer, q in _entries():
        value = extras.get(name, 0) if trace is None else _per_trace(tracer.select(trace), layer, q)
        out[name] = (value, unit)
    return out
