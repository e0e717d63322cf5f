"""Frozen top-10 answers of D3L, TUS and Aurum on the shared test lakes.

``golden_rankings.json`` holds, per system, the targets and each target's
top-10 ``(table, score)``. A refactor that changes any answer or any score
by more than ``TOL`` fails here. Tables whose scores tie within ``TOL`` are
interchangeable, including a tie that reaches past the 10th answer, where
the cut may keep any of the tied tables.

To re-record after a change that is meant to move answers, run
``REPRO_RECORD_GOLDEN=1 python -m pytest tests/test_golden_rankings.py``
and explain every changed answer in the change's notes.
"""
import json
import os
from pathlib import Path

from repro.eval import harness

GOLDEN = Path(__file__).with_name("golden_rankings.json")
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
        golden = {}
        for name, (system, lake, n) in systems.items():
            targets = harness.pick_targets(lake, n)
            res = system.search_many(targets, K)
            golden[name] = {t: [[s, float(v)] for s, v in res[t].ranking] for t in targets}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return

    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(systems)
    wrong = []
    for name, (system, _, _) in systems.items():
        res = system.search_many(sorted(golden[name]), K)
        for target, want in golden[name].items():
            got = [(t, float(s)) for t, s in res[target].ranking]
            if not _agree(got, want):
                wrong.append(f"{name}/{target}: {got} != {want}")
    assert not wrong, "\n".join(wrong)
