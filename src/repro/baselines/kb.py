"""Synthetic knowledge base (YAGO stand-in) for the TUS baseline.

TUS [Nargesian et al., PVLDB'18] derives *semantic unionability* by mapping
every token of every value into the YAGO class hierarchy — which the D3L
paper identifies as TUS's dominant indexing/search cost ("having to map
each token of each instance value into a YAGO knowledge base significantly
slows down index construction", Experiment 4). YAGO is unavailable offline;
this KB preserves both the code path and the cost profile:

* tokens that belong to a *covered* vocabulary domain map to that domain's
  class and its hypernym chain (e.g. ``manchester -> city -> settlement ->
  location -> entity``), so same-domain attributes share classes — the
  semantic signal TUS needs;
* every lookup walks the chain per token (real per-token work at index
  *and* query time, like YAGO type resolution);
* out-of-vocabulary tokens map to nothing (YAGO has no entry either);
* coverage is *partial*, like YAGO's: well-known entities (cities) and
  generic nouns (sector/crime/pollutant/specialty words, street suffixes,
  organisation-type words) resolve, but local proper nouns — surnames,
  first names, street names of a UK town — do not. This asymmetry is the
  reason the D3L paper finds TUS's semantic evidence "less dependable than
  content-based evidence" on entity-name columns, so it must be preserved.
"""
from __future__ import annotations

import re
from functools import lru_cache

from repro.core import features
from repro.lake import vocab

#: Vocabulary domains a YAGO-like KB plausibly covers. Local proper nouns
#: (surname, first_name, street_name) are deliberately absent.
COVERED_DOMAINS = {
    "city",
    "street_suffix",
    "practice",
    "school",
    "hospital",
    "company",
    "sector",
    "crime",
    "pollutant",
    "specialty",
    "department",
}

#: Hypernym chains per vocabulary domain (every chain ends at ``entity``).
HYPERNYMS: dict[str, list[str]] = {
    "city": ["settlement", "location"],
    "street_suffix": ["street", "location"],
    "practice": ["healthcare_facility", "organisation"],
    "school": ["educational_institution", "organisation"],
    "hospital": ["healthcare_facility", "organisation"],
    "company": ["business", "organisation"],
    "sector": ["industry", "abstraction"],
    "crime": ["offence", "event"],
    "pollutant": ["chemical", "substance"],
    "specialty": ["medical_field", "abstraction"],
    "department": ["organisational_unit", "organisation"],
}


class KnowledgeBase:
    """Token -> class-chain mapping over the generator vocabulary."""

    def __init__(
        self,
        domains: dict[str, list[str]] | None = None,
        *,
        covered: set[str] | None = None,
    ) -> None:
        if domains is None:
            domains = vocab.DOMAINS
            covered = COVERED_DOMAINS if covered is None else covered
        self._token_domain: dict[str, str] = {}
        for name in sorted(domains):
            if covered is not None and name not in covered:
                continue
            for token in domains[name]:
                self._token_domain.setdefault(token.lower(), name)

    @lru_cache(maxsize=65536)
    def classes_of_token(self, token: str) -> tuple[str, ...]:
        """Class chain of one token (empty for OOV), most specific first."""
        domain = self._token_domain.get(token.lower())
        if domain is None:
            return ()
        chain = [domain]
        for hyper in HYPERNYMS.get(domain, []):
            chain.append(hyper)
        chain.append("entity")
        return tuple(chain)

    def classes_of_value(self, value: str) -> set[str]:
        """Union of class chains over a value's whitespace/punct tokens."""
        classes: set[str] = set()
        for token in re.split(features.WORD_SPLIT, value):
            if token:
                classes.update(self.classes_of_token(token))
        return classes
