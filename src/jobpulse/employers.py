"""Employer-name disambiguation.

Company names reuse semantically loaded words ("Advanced", "American",
"University of") at high frequency, so naive first-word grouping merges
distinct companies. The remedy implemented here:

- normalize names and strip legal suffixes (inc, llc, ...), which never
  count as distinguishing tokens;
- merge a name into another only when its full token sequence is a proper
  prefix of the other (a corporate division extending the parent's name),
  so "Advanced Micro Devices" and "Advanced Systems" stay apart, as do
  "University of California Los Angeles" / "... Santa Barbara";
- guard the merge with the common-word dictionary: a name made entirely of
  dictionary tokens ("Advanced", "University of") never absorbs longer
  names.

Each name looks up only its own prefixes: its group is rooted at its
shortest proper prefix that is itself a name and is longer than its
leading run of dictionary tokens. Every such prefix has the same root, so
grouping costs one lookup per name token, however many names share a
first word.

Grouping holds memory per distinct name and token: one dict interns the
tokens, so each distinct normalized name keeps one tuple of shared token
strings and one list of its raw spellings. Once every name has found its
root, those tables are freed and each group holds only its raw names until
the mapping is built.

Net effect: merges happen exactly for identical normalized names and for
guarded prefix extensions, nothing else. The mapping is deterministic and
input-order-invariant, key order included: groups in the order of their
roots, each group's raw names sorted. The canonical name of a group is its
root, which is its shortest member (the parent), ties broken lexicographically.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .corpus import content_lines, csv_line, csv_text, joined_chunks, normalize_text
from .dedup import DemandLedger
from .errors import ContractError, InputError
from .report import render_decimal, render_pct

logger = logging.getLogger(__name__)

LEGAL_SUFFIXES = frozenset({"inc", "llc", "corp", "co", "ltd"})

MAPPING_HEADER = ("raw_name", "canonical_name")


def load_dictionary(path: str) -> frozenset[str]:
    """Load a dictionary file: one token per line, '#' comments.

    Its tokens are common name words, which never identify a company on their own.
    """
    tokens: set[str] = set()
    for _, line in list(content_lines(path, "dictionary")):
        tokens.update(normalize_text(line))
    if not tokens:
        raise InputError(f"{path}: dictionary file declares no tokens")
    return frozenset(tokens)


@dataclass(frozen=True, slots=True)
class CanonicalEmployer:
    """A disambiguated employer identity, shared by the raw names of its group."""

    canonical_name: str


def normalize_name(raw: str) -> tuple[str, ...]:
    """Normalize a raw employer name to comparison tokens.

    Lowercase tokenization, then trailing legal suffixes are stripped
    ("Amazon Inc" compares as "amazon"). A name made only of suffixes keeps
    its tokens rather than vanishing.
    """
    tokens = normalize_text(raw)
    end = len(tokens)
    while end > 1 and tokens[end - 1] in LEGAL_SUFFIXES:
        end -= 1
    if end == 1 and tokens[0] in LEGAL_SUFFIXES:
        return tokens
    return tokens[:end]


def canonicalize(
    names: Collection[str], dictionary: frozenset[str]
) -> tuple[dict[str, CanonicalEmployer], list[str]]:
    """Group raw employer names into canonical identities.

    Returns (mapping of raw name -> CanonicalEmployer, rejected raw names).
    Empty or token-less names are rejected with a diagnostic. Names whose
    first tokens differ are never merged. ``names`` is read twice.
    """
    interned: dict[str, str] = {}  # one string per distinct token, shared by every sequence
    empty: set[str] = set()
    spellings: dict[tuple[str, ...], list[str]] = {}  # distinct raw names per sequence, first seen first
    for raw in dict.fromkeys(names):  # each distinct name once, in first-seen order
        seq = tuple([interned.setdefault(token, token) for token in normalize_name(raw)])
        if seq:
            spellings.setdefault(seq, []).append(raw)
        else:
            empty.add(raw)
    del interned
    rejected = [raw for raw in names if raw in empty]  # every occurrence, in input order
    for raw in rejected:
        logger.warning("employer name %r normalizes to nothing; excluded", raw)

    # Sorted, so groups come in the order of their roots, and each root, its
    # own root, keys its group before its extensions find it.
    groups: dict[tuple[str, ...], list[str]] = {}
    for seq in sorted(spellings):
        head = 0  # length of the leading run of dictionary tokens
        while head < len(seq) and seq[head] in dictionary:
            head += 1
        root = next((seq[:i] for i in range(head + 1, len(seq)) if seq[:i] in spellings), seq)
        groups.setdefault(root, []).extend(spellings[seq])
    del spellings

    mapping: dict[str, CanonicalEmployer] = {}
    for root, raws in groups.items():
        employer = CanonicalEmployer(" ".join(root))
        for raw in sorted(raws):
            mapping[raw] = employer
    return mapping, rejected


@dataclass(frozen=True)
class EmployerReport:
    """Employer-base statistics over the demand ledger."""

    raw_name_count: int
    employer_count: int
    unit_total: int
    mean_units: Fraction
    ranked: tuple[tuple[str, int], ...]
    top_k: int
    top_total: int
    top_share: Fraction

    @property
    def mean_label(self) -> str:
        return render_decimal(self.mean_units, 1)

    @property
    def top_share_label(self) -> str:
        return render_pct(self.top_share, 1)

    def share(self, units: int) -> Fraction:
        return Fraction(units, self.unit_total) if self.unit_total else Fraction(0)


def employer_stats(ledger: DemandLedger, mapping: dict[str, CanonicalEmployer], top_k: int = 3) -> EmployerReport:
    """Count demand units per canonical employer.

    Every unit of a ledger built by ``weight_assignments`` weighs exactly 1
    (its k shares of 1/k), so an employer's demand is its number of units.
    Each unit carries its raw employer name; every name must appear in the
    mapping or the upstream contract was violated.
    """
    raw_units = Counter(name for _, _, _, name in ledger.units)
    counts: dict[str, int] = {}
    for raw, units in raw_units.items():
        employer = mapping.get(raw)
        if employer is None:
            raise ContractError(f"employer name {raw!r} missing from canonical mapping")
        counts[employer.canonical_name] = counts.get(employer.canonical_name, 0) + units
    total = sum(counts.values())
    employer_count = len(counts)
    ranked = tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    top_total = sum(count for _, count in ranked[:top_k])
    return EmployerReport(
        raw_name_count=len(raw_units),
        employer_count=employer_count,
        unit_total=total,
        mean_units=Fraction(total, employer_count) if employer_count else Fraction(0),
        ranked=ranked,
        top_k=top_k,
        top_total=top_total,
        top_share=Fraction(top_total, total) if total else Fraction(0),
    )


def _count_labels(report: EmployerReport) -> dict[int, tuple[str, str]]:
    """Rendered (units, share) per distinct unit count: thousands of employers share a few counts."""
    counts = {count for _, count in report.ranked}
    return {count: (render_decimal(count), render_pct(report.share(count))) for count in counts}


def render_employers_csv(report: EmployerReport) -> str:
    """Per-employer export: canonical_name,units,units_num,units_den,share_pct."""
    labels = _count_labels(report)
    rows = ([name, labels[count][0], count, 1, labels[count][1]] for name, count in report.ranked)
    return csv_text(["canonical_name", "units", "units_num", "units_den", "share_pct"], rows)


def render_employers_text(report: EmployerReport) -> str:
    lines = [
        f"canonical employers: {report.employer_count} (from {report.raw_name_count} raw names)",
        f"demand units: {render_decimal(report.unit_total)}",
        f"mean units per employer: {report.mean_label}",
        f"top {report.top_k} employers: {render_decimal(report.top_total)} units"
        f" ({report.top_share_label} of total)",
        "",
    ]
    width = max([len(name) for name, _ in report.ranked] + [len("employer")])
    lines.append(f"{'employer'.ljust(width)}  {'units':>9}  share")
    labels = _count_labels(report)
    for name, count in report.ranked:
        units, share = labels[count]
        lines.append(f"{name.ljust(width)}  {units:>9}  {share}")
    return "\n".join(lines) + "\n"


def mapping_csv_chunks(mapping: dict[str, CanonicalEmployer]) -> Iterator[str]:
    """Mapping export in chunks of ``corpus.CHUNK_LINES`` lines: raw_name,canonical_name by raw name."""
    rows = ((raw, mapping[raw].canonical_name) for raw in sorted(mapping))
    return joined_chunks(map(csv_line, chain((MAPPING_HEADER,), rows)))


def render_mapping_csv(mapping: dict[str, CanonicalEmployer]) -> str:
    """The whole mapping export as one string."""
    return "".join(mapping_csv_chunks(mapping))
