"""Frozen top-10 answers and build outputs of D3L, TUS and Aurum on the
shared test lakes.

``golden_rankings.json`` holds, per system, the targets and each target's
top-10 ``(table, score)``. A refactor that changes any answer or any score
by more than ``TOL`` fails here. Tables whose scores tie within ``TOL`` are
interchangeable, including a tie that reaches past the 10th answer, where
the cut may keep any of the tied tables.

Its ``build`` entry pins what the builds produce before any query: a
SHA-256 of every index's (or profile's) signatures, the ``materialize()``
counts, the SA-join edge count at the default tau and Aurum's edge counts.
A slipped seed, banding or threshold fails here even when no top-10 moves.

To re-record after a change that is meant to move answers, run
``REPRO_RECORD_GOLDEN=1 python -m pytest tests/test_golden_rankings.py``
and explain every changed answer in the change's notes.
"""
import hashlib
import json
import os
from pathlib import Path

from repro.core import joins
from repro.core.ranking import D3L
from repro.eval import harness

GOLDEN = Path(__file__).with_name("golden_rankings.json")
BUILD = "build"
K = 10
TOL = 1e-12


def _systems(request):
    """``name -> (system, lake, targets to record)``, from the session
    fixtures."""
    fx = request.getfixturevalue
    return {
        "d3l_clean": (fx("d3l_clean"), fx("clean_lake"), 6),
        "d3l_noisy": (fx("d3l_noisy"), fx("noisy_lake"), 6),
        "tus_clean": (fx("tus_clean"), fx("clean_lake"), 3),
        "aurum_clean": (fx("aurum_clean"), fx("clean_lake"), 3),
    }


def _agree(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    last = want[-1][1] if want else 0.0
    for (table, score), (want_table, want_score) in zip(got, want):
        if abs(score - want_score) > TOL:
            return False
        if table == want_table or abs(want_score - last) <= TOL:
            continue
        if table not in {t for t, s in want if abs(s - want_score) <= TOL}:
            return False
    return True


def test_rankings_match_golden(request):
    systems = _systems(request)
    if os.environ.get("REPRO_RECORD_GOLDEN"):
        golden = json.loads(GOLDEN.read_text())
        for name, (system, lake, n) in systems.items():
            targets = harness.pick_targets(lake, n)
            res = system.search_many(targets, K)
            golden[name] = {t: [[s, float(v)] for s, v in res[t].ranking] for t in targets}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return

    golden = json.loads(GOLDEN.read_text())
    golden.pop(BUILD)
    assert set(golden) == set(systems)
    wrong = _mismatches(golden, {name: system for name, (system, _, _) in systems.items()})
    assert not wrong, "\n".join(wrong)


def _digest(signatures) -> str:
    """SHA-256 of the sorted ``(attr_id, sig)`` rows of a signature table."""
    rows = sorted((r["attr_id"], list(r["sig"])) for r in signatures.collect())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _build_outputs(request) -> dict:
    fx = request.getfixturevalue
    out = {}
    for name in ("d3l_clean", "d3l_noisy"):
        d3l = fx(name)
        out[name] = {
            "signatures": {e: _digest(idx.signatures) for e, idx in d3l.indexes.items()},
            "materialize": d3l.materialize(),
            "sa_edges": joins.sa_join_edges(d3l).count(),
        }
    tus = fx("tus_clean")
    out["tus_clean"] = {
        "signatures": {e: _digest(idx.signatures) for e, idx in tus.indexes.items()},
        "materialize": tus.materialize(),
    }
    aurum = fx("aurum_clean")
    out["aurum_clean"] = {
        "signatures": {e: _digest(idx.signatures) for e, idx in aurum.indexes.items()},
        "edges": len(aurum.edges),
        "pkfk_edges": len(aurum.pkfk_edges),
    }
    return out


def test_build_outputs_match_golden(request):
    got = _build_outputs(request)
    golden = json.loads(GOLDEN.read_text())
    if os.environ.get("REPRO_RECORD_GOLDEN"):
        golden[BUILD] = got
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert got == golden[BUILD]


def _mismatches(golden: dict, systems: dict) -> list[str]:
    """``name/target`` answers of ``systems`` that disagree with ``golden``."""
    wrong = []
    for name, system in systems.items():
        res = system.search_many(sorted(golden[name]), K)
        for target, want in golden[name].items():
            got = [(t, float(s)) for t, s in res[target].ranking]
            if not _agree(got, want):
                wrong.append(f"{name}/{target}: {got} != {want}")
    return wrong


def test_d3l_rankings_invariant_to_shuffle_partitions(spark, d3l_clean, d3l_noisy):
    """The driver-side frames follow the order rows are collected in; the
    answers must not."""
    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    spark.conf.set(key, "64")
    try:
        wrong = _mismatches(
            json.loads(GOLDEN.read_text()), {"d3l_clean": d3l_clean, "d3l_noisy": d3l_noisy}
        )
    finally:
        spark.conf.set(key, before)
    assert before != "64"
    assert not wrong, "\n".join(wrong)


def test_d3l_rankings_invariant_to_cell_partitioning(spark, noisy_cells):
    d3l = D3L.build(spark, noisy_cells.repartition(13))
    try:
        wrong = _mismatches(json.loads(GOLDEN.read_text()), {"d3l_noisy": d3l})
    finally:
        d3l.unpersist()
    assert not wrong, "\n".join(wrong)
