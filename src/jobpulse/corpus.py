"""Posting ingestion and text normalization.

Houses the posting data model, the three-region vocabulary, the shared
tokenizer, and the loader for line-delimited posting exports. Records come
from offline exports (one JSON object per line); the scraper that produces
them is out of scope here.

The resulting Corpus is immutable after load and safe to share across
workers; rejected records are reported as diagnostics, never dropped
silently.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import json
import logging
import re
from dataclasses import dataclass

from .errors import InputError

logger = logging.getLogger(__name__)

# Posting file schema: field names are bit-exact.
POSTING_FIELDS = (
    "job_id",
    "title",
    "job_description",
    "employer_name",
    "employer_description",
    "region",
    "retrieved_at",
)

# Default collection window for retrieved_at validation.
DEFAULT_WINDOW_START = dt.date(2025, 3, 15)
DEFAULT_WINDOW_END = dt.date(2025, 6, 4)

# Tokens: runs of letters/digits, with hyphens kept only between such runs.
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")


class Region(enum.Enum):
    """Geographic market a posting was listed in."""

    LA = "LA"
    SB = "SB"
    SD = "SD"

    __hash__ = object.__hash__  # members compare by identity; skips Enum's Python-level hash

    def __str__(self) -> str:
        return self.value


def parse_region(label: str) -> Region:
    """Parse a region code. Accepts exactly "LA", "SB", "SD"."""
    try:
        return Region(label)
    except ValueError:
        raise InputError(f"unknown region {label!r}: expected one of LA, SB, SD") from None


def csv_text(header, rows) -> str:
    """Render a header row and data rows as CSV text with '\\n' line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def normalize_text(s: str) -> tuple[str, ...]:
    """Tokenize free text into a normalized token sequence.

    Lowercases, treats punctuation as a token boundary except for hyphens
    between word characters ("RF-Engineer" stays one token "rf-engineer"),
    and collapses consecutive separators.
    """
    return tuple(_TOKEN_RE.findall(s.lower()))


@dataclass(frozen=True, slots=True)
class CollectionWindow:
    """Inclusive date range a posting's retrieved_at must fall within."""

    start: dt.date = DEFAULT_WINDOW_START
    end: dt.date = DEFAULT_WINDOW_END

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise InputError(f"collection window start {self.start} is after end {self.end}")

    def contains(self, day: dt.date) -> bool:
        return self.start <= day <= self.end


@dataclass(frozen=True, slots=True)
class Posting:
    """One scraped job advertisement."""

    job_id: str
    title: str
    job_description: str
    employer_name: str
    employer_description: str
    region: Region
    retrieved_at: dt.date


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A rejected input record: where it came from and why it was dropped."""

    source: str
    line_no: int
    reason: str

    def __str__(self) -> str:
        return f"{self.source}:{self.line_no}: {self.reason}"


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of validated postings plus load provenance."""

    postings: tuple[Posting, ...]
    sources: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.postings)

    def __iter__(self):
        return iter(self.postings)


def _parse_record(obj: object, window: CollectionWindow) -> Posting:
    """Validate one decoded record; raises InputError with the reject reason."""
    if not isinstance(obj, dict):
        raise InputError("record is not a JSON object")
    for name in POSTING_FIELDS:
        if name not in obj:
            raise InputError(f"missing field {name!r}")
        if not isinstance(obj[name], str):
            raise InputError(f"field {name!r} must be a string")
    if not obj["job_id"]:
        raise InputError("empty job_id")
    region = parse_region(obj["region"])
    try:
        retrieved = dt.date.fromisoformat(obj["retrieved_at"])
    except ValueError:
        raise InputError(f"bad retrieved_at {obj['retrieved_at']!r}: expected YYYY-MM-DD") from None
    if not window.contains(retrieved):
        raise InputError(
            f"retrieved_at {retrieved} outside collection window {window.start}..{window.end}"
        )
    # Checked last, so a record with any other fault is rejected for that fault.
    if len(obj) != len(POSTING_FIELDS):
        raise InputError(f"unexpected field {min(set(obj) - set(POSTING_FIELDS))!r}")
    return Posting(
        job_id=obj["job_id"],
        title=obj["title"],
        job_description=obj["job_description"],
        employer_name=obj["employer_name"],
        employer_description=obj["employer_description"],
        region=region,
        retrieved_at=retrieved,
    )


def _numbered_lines(path: str):
    """Stream (line number, line) pairs of a UTF-8 file; an unreadable file is fatal."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except OSError as exc:
        raise InputError(f"cannot read posting file {path}: {exc}") from exc


def load_postings(
    paths: list[str] | tuple[str, ...],
    window: CollectionWindow | None = None,
) -> tuple[Corpus, list[Diagnostic]]:
    """Load posting files into a validated Corpus.

    Each file is UTF-8, one JSON record per line; blank lines and lines
    starting with '#' are skipped. A record must hold exactly the seven
    string fields of ``POSTING_FIELDS``. Invalid records become diagnostics
    with file and line number. A duplicate (job_id, region) keeps the first
    occurrence and rejects the rest. An unreadable file is fatal.
    """
    window = window or CollectionWindow()
    postings: list[Posting] = []
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, Region]] = set()
    for path in paths:
        for line_no, line in _numbered_lines(path):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                diagnostics.append(Diagnostic(path, line_no, f"invalid JSON: {exc.msg}"))
                continue
            try:
                posting = _parse_record(obj, window)
            except InputError as exc:
                diagnostics.append(Diagnostic(path, line_no, str(exc)))
                continue
            key = (posting.job_id, posting.region)
            if key in seen:
                diagnostics.append(
                    Diagnostic(path, line_no, f"duplicate (job_id, region) {posting.job_id}/{posting.region}")
                )
                continue
            seen.add(key)
            postings.append(posting)
    if diagnostics:
        logger.warning("rejected %d of %d input records", len(diagnostics), len(diagnostics) + len(postings))
    return Corpus(postings=tuple(postings), sources=tuple(str(p) for p in paths)), diagnostics


def posting_to_json(p: Posting) -> str:
    """Render a posting back to its one-line file form (stable key order)."""
    return json.dumps(
        {
            "job_id": p.job_id,
            "title": p.title,
            "job_description": p.job_description,
            "employer_name": p.employer_name,
            "employer_description": p.employer_description,
            "region": p.region.value,
            "retrieved_at": p.retrieved_at.isoformat(),
        },
        sort_keys=True,
        ensure_ascii=True,
    )
