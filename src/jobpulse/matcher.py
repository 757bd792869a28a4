"""Term matching, industry filter, discovery.

Matching is exact on normalized tokens: a term hits a posting when its
phrase occurs as a contiguous token run in the title or job description.
Hyphenated tokens bridge to their parts ("rf-engineer" also indexes as
"rf engineer"), treating hyphenation as a typography accident. There is no
fuzzy matching; the discovery report is the sanctioned recall-recovery
mechanism, and discovered phrases are appended to the taxonomy by hand,
never automatically.

The tests industry_predicate builds are pure per-posting functions, but
match_posting adds to its MatchIndex's title memo and shared term tuples: a
fan-out needs one index per worker and a deterministic merge in posting order.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from operator import attrgetter
from typing import NamedTuple

from .corpus import Corpus, Posting, Region, normalize_text
from .errors import InputError
from .taxonomy import Jst, Taxonomy


ROLE_WORDS = frozenset({"engineer", "technician", "scientist", "analyst", "administrator"})
DEFAULT_MIN_COUNT = 3

FILTER_ANY_FIELD = "any_field"
FILTER_ALL_FIELDS = "all_fields"
FILTER_MODES = (FILTER_ANY_FIELD, FILTER_ALL_FIELDS)

# The parts of hyphen-joined tokens are exactly the maximal letter/digit runs.
_RUN_RE = re.compile(r"[^\W_]+")
_BY_PHRASE = attrgetter("phrase")


def expanded_tokens(text: str) -> tuple[str, ...]:
    """``normalize_text(text)`` with each hyphenated token split into its parts, in one regex pass."""
    return tuple(_RUN_RE.findall(text.lower()))


def validate_industry_token(industry_token: str) -> str:
    """Normalize and validate the industry token (exactly one token).

    The filter looks the token up among hyphen-split runs, so a token the
    filter would split ("semi-conductor") could never match and is rejected.
    """
    tokens = normalize_text(industry_token)
    if len(tokens) != 1 or expanded_tokens(tokens[0]) != tokens:
        raise InputError(f"industry token must be a single token, got {industry_token!r}")
    return tokens[0]


class _MatchRecordFields(NamedTuple):
    job_id: str
    region: Region
    matched_jsts: tuple[Jst, ...]
    matched_in_title: frozenset[Jst]


class MatchRecord(_MatchRecordFields):
    """Terms that hit one posting, sorted by phrase, and those that hit its title.

    A named tuple, so it costs a tuple to build; a record always holds at
    least one term.
    """

    __slots__ = ()

    def __new__(
        cls, job_id: str, region: Region, matched_jsts: tuple[Jst, ...], matched_in_title: frozenset[Jst]
    ) -> MatchRecord:
        if not matched_jsts:
            raise InputError(f"match record for {job_id} has no matched terms")
        return tuple.__new__(cls, (job_id, region, matched_jsts, matched_in_title))


class MatchIndex:
    """First-token index over a taxonomy's terms for fast contiguous-run scans.

    Titles repeat across postings far more than descriptions do, so the
    index also remembers the terms found in each distinct title string, as
    a frozenset shared by equal sets, for as long as the index lives.
    Postings hold far fewer distinct term sets than there are postings, so
    the index keeps one phrase-sorted tuple per distinct term set and hands
    that one out for every equal set.
    """

    def __init__(self, taxonomy: Taxonomy) -> None:
        self._title_hits: dict[str, frozenset[Jst]] = {}
        self._title_sets: dict[frozenset[Jst], frozenset[Jst]] = {}
        self._term_sets: dict[tuple[Jst, ...], tuple[Jst, ...]] = {}
        # First token -> (" phrase tokens ", term): tokens hold no spaces, so a
        # phrase is a contiguous run exactly when its spaced form occurs in the
        # spaced token string.
        self._by_first: dict[str, list[tuple[str, Jst]]] = {}
        for jst in taxonomy.jsts:
            if jst.match_tokens:
                phrase = f" {' '.join(jst.match_tokens)} "
                self._by_first.setdefault(jst.match_tokens[0], []).append((phrase, jst))
        self._firsts = frozenset(self._by_first)

    def scan(self, tokens: tuple[str, ...]) -> set[Jst]:
        """All terms occurring as contiguous runs in ``tokens``.

        ``tokens`` must already be hyphen-split (``expanded_tokens``); a
        hyphenated token is never split here.
        """
        firsts = self._firsts.intersection(tokens)
        if not firsts:
            return set()
        text = f" {' '.join(tokens)} "
        by_first = self._by_first
        return {jst for first in firsts for phrase, jst in by_first[first] if phrase in text}

    def shared(self, jsts: frozenset[Jst]) -> tuple[Jst, ...]:
        """The index's one tuple of ``jsts`` sorted by phrase."""
        terms = tuple(sorted(jsts, key=_BY_PHRASE))
        return self._term_sets.setdefault(terms, terms)

    def title_hits(self, title: str) -> frozenset[Jst]:
        """``scan(expanded_tokens(title))``, computed once per distinct title."""
        hits = self._title_hits.get(title)
        if hits is None:
            hits = frozenset(self.scan(expanded_tokens(title)))
            hits = self._title_hits[title] = self._title_sets.setdefault(hits, hits)
        return hits


def match_posting(posting: Posting, index: MatchIndex) -> MatchRecord | None:
    """Match one posting against the index's terms.

    Terms are searched in the title and job description (not the employer
    description); returns nothing when no term occurs. Records matched
    through one index share each term tuple (``MatchIndex.shared``).
    """
    title_hits = index.title_hits(posting.title)
    matched = title_hits | index.scan(expanded_tokens(posting.job_description))
    if not matched:
        return None
    return MatchRecord(posting.job_id, posting.region, index.shared(matched), title_hits)


def match_corpus(postings: Corpus | list[Posting], taxonomy: Taxonomy) -> list[MatchRecord]:
    """Match every posting, preserving posting order; non-matching postings drop out."""
    index = MatchIndex(taxonomy)
    records = []
    for posting in postings:
        record = match_posting(posting, index)
        if record is not None:
            records.append(record)
    return records


def industry_predicate(industry_token: str, mode: str):
    """Validate the filter arguments once and return the per-posting test.

    The test keeps a posting when the industry token occurs in its
    descriptions: ``any_field`` keeps it when the token appears in the job
    description or the employer description; ``all_fields`` requires both.
    The title is not consulted.
    """
    if mode not in FILTER_MODES:
        raise InputError(f"unknown filter mode {mode!r}: expected one of {FILTER_MODES}")
    token = validate_industry_token(industry_token)

    size = len(token)

    def occurs(text: str) -> bool:
        """``token in expanded_tokens(text)``: an occurrence whose neighbours are not letters or digits.

        ``str.isalnum`` is the character class ``[^\\W_]`` that tokens are runs of.
        """
        lowered = text.lower()
        start = lowered.find(token)
        while start >= 0:
            end = start + size
            if (start == 0 or not lowered[start - 1].isalnum()) and (
                end == len(lowered) or not lowered[end].isalnum()
            ):
                return True
            start = lowered.find(token, start + 1)
        return False

    if mode == FILTER_ALL_FIELDS:
        return lambda p: occurs(p.job_description) and occurs(p.employer_description)
    return lambda p: occurs(p.job_description) or occurs(p.employer_description)


def filter_corpus(
    postings: Corpus | list[Posting], industry_token: str, mode: str = FILTER_ANY_FIELD
) -> list[Posting]:
    """Postings passing the industry filter, in input order."""
    keep = industry_predicate(industry_token, mode)
    return [p for p in postings if keep(p)]


def discover_candidate_titles(
    postings: Iterable[Posting], taxonomy: Taxonomy, min_count: int = DEFAULT_MIN_COUNT
) -> list[tuple[str, int]]:
    """Surface posting-title n-grams the taxonomy lacks.

    Scans titles only (descriptions are too noisy). A title containing any
    known term is already reachable and contributes nothing; from the
    remaining titles, n-grams of length 2-4 ending in a role word are
    counted once per posting. Returns (phrase, count) pairs with
    count >= min_count, sorted by count descending then phrase ascending.
    """
    if min_count < 1:
        raise InputError(f"min_count must be positive, got {min_count}")
    index = MatchIndex(taxonomy)
    counts: dict[str, int] = {}
    for posting in postings:
        tokens = expanded_tokens(posting.title)
        if index.scan(tokens):
            continue
        grams: set[str] = set()
        for length in (2, 3, 4):
            for i in range(len(tokens) - length + 1):
                gram = tokens[i : i + length]
                if gram[-1] in ROLE_WORDS:
                    grams.add(" ".join(gram))
        for gram in grams:
            counts[gram] = counts.get(gram, 0) + 1
    ranked = [(phrase, n) for phrase, n in counts.items() if n >= min_count]
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked
