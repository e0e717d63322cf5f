"""Answer checks: reference answers for the default seeds, structure otherwise.

Rankings are ``[(table, score), ...]`` in ascending score. Two rankings
agree when they have the same length, every score matches within ``TOL``,
and every table matches, except that tables whose scores tie within
``TOL`` are interchangeable (including ties that reach past the k-th
answer, where the cut may keep either table).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

TOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def ranking_errors(target: str, ranking: list, k: int) -> list[str]:
    """Structural checks that hold for any lake and seed."""
    errs = []
    tables = [t for t, _ in ranking]
    scores = [float(s) for _, s in ranking]
    if target in tables:
        errs.append(f"{target}: target returned in its own answer")
    if len(ranking) > k:
        errs.append(f"{target}: {len(ranking)} answers > k={k}")
    if len(set(tables)) != len(tables):
        errs.append(f"{target}: duplicate tables in answer")
    if any(not (0.0 <= s <= 1.0) for s in scores):
        errs.append(f"{target}: score outside [0, 1]")
    if any(b < a for a, b in zip(scores, scores[1:])):
        errs.append(f"{target}: scores not ascending")
    return errs


def rankings_agree(got: list, want: list) -> bool:
    """Tie-aware equality of two rankings (see module docstring)."""
    if len(got) != len(want):
        return False
    want_scores = [float(s) for _, s in want]
    last = want_scores[-1] if want_scores else 0.0
    for i, (table, score) in enumerate(got):
        ref = want_scores[i]
        if abs(float(score) - ref) > TOL:
            return False
        if table == want[i][0]:
            continue
        tied = {t for t, s in want if abs(float(s) - ref) <= TOL}
        if table not in tied and abs(ref - last) > TOL:
            return False
    return True


def digest_signatures(signatures) -> str:
    """SHA-256 over an index's ``(attr_id, sig)`` rows in attr_id order."""
    h = hashlib.sha256()
    for row in sorted(signatures.collect(), key=lambda r: r["attr_id"]):
        h.update(row["attr_id"].encode())
        h.update(b":")
        h.update(",".join(map(str, row["sig"])).encode())
        h.update(b"\n")
    return h.hexdigest()


def as_ranking(pairs) -> list[list]:
    """JSON form of a ranking: ``[[table, score], ...]`` with plain floats."""
    return [[t, float(s)] for t, s in pairs]
