"""Posting ingestion and text normalization.

Houses the posting data model, the three-region vocabulary, the shared
tokenizer, and the loader for line-delimited posting exports. Records come
from offline exports (one JSON object per line); the scraper that produces
them is out of scope here.

``iter_postings`` streams the valid postings as it reads each line, so a
consumer that keeps none of them runs in memory set by the distinct keys
and names, not by the number of postings. ``load_postings`` collects that
stream into an immutable Corpus. Either way, rejected records are reported
as diagnostics, never dropped silently.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import json
import logging
import operator
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple

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
# ASCII digits only: date.fromisoformat alone accepts more forms from Python 3.11 on.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# A lone surrogate: only a \u escape puts one in a decoded line, and no UTF-8 output can hold it.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_FIELD_SET = frozenset(POSTING_FIELDS)
_fields_of = operator.itemgetter(*POSTING_FIELDS)
_decode_json = json.JSONDecoder().raw_decode


class Region(enum.Enum):
    """Geographic market a posting was listed in."""

    LA = "LA"
    SB = "SB"
    SD = "SD"

    __hash__ = object.__hash__  # members compare by identity; skips Enum's Python-level hash

    def __str__(self) -> str:
        return self.value


_REGIONS = {region.value: region for region in Region}


def parse_region(label: str) -> Region:
    """Parse a region code. Accepts exactly "LA", "SB", "SD"."""
    region = _REGIONS.get(label)
    if region is None:
        raise InputError(f"unknown region {label!r}: expected one of LA, SB, SD")
    return region


# One CSV row rendered as text with its '\n' ending: the writer passes each
# rendered line to ``str``, and writerow returns what that returned.
csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def csv_text(header, rows) -> str:
    """Render a header row and data rows as CSV text with '\\n' line endings."""
    return "".join(map(csv_line, chain((header,), rows)))


# Lines per chunk of a large artifact: a few hundred kilobytes of text.
CHUNK_LINES = 4096


def joined_chunks(lines):
    """Yield the concatenation of ``lines`` (each ending in '\\n') as pieces of ``CHUNK_LINES`` lines."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, CHUNK_LINES)):
        yield chunk


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


class Posting(NamedTuple):
    """One scraped job advertisement.

    A named tuple: immutable, cheap to build, and equal to a plain tuple of
    the same seven fields.
    """

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
    """Immutable collection of validated postings."""

    postings: tuple[Posting, ...]

    def __len__(self) -> int:
        return len(self.postings)

    def __iter__(self):
        return iter(self.postings)


def _parse_date(text: str) -> dt.date:
    if _DATE_RE.fullmatch(text):
        try:
            return dt.date.fromisoformat(text)
        except ValueError:
            pass
    raise InputError(f"bad retrieved_at {text!r}: expected YYYY-MM-DD")


def _parse_record(
    obj: object, window: CollectionWindow, days: dict[str, dt.date], shared: dict[str, str]
) -> Posting:
    """Validate one decoded record; raises InputError with the reject reason.

    ``days`` maps each retrieved_at string already found inside the window
    to its date, so a load parses each distinct string once. ``shared``
    holds the first copy of each title and employer name, which the posting
    stores instead of its own equal string. A record that fails any check
    of the common path is checked again field by field, in order, to name
    its first fault.
    """
    if type(obj) is dict and obj.keys() == _FIELD_SET:
        job_id, title, job_description, employer_name, employer_description, code, retrieved_at = _fields_of(obj)
        if (
            type(job_id) is str
            and job_id
            and type(title) is str
            and type(job_description) is str
            and type(employer_name) is str
            and type(employer_description) is str
            and type(code) is str
            and type(retrieved_at) is str
            and (region := _REGIONS.get(code)) is not None
            and (day := days.get(retrieved_at)) is not None
        ):
            title = shared.setdefault(title, title)
            employer_name = shared.setdefault(employer_name, employer_name)
            return Posting(job_id, title, job_description, employer_name, employer_description, region, day)
    if not isinstance(obj, dict):
        raise InputError("record is not a JSON object")
    for name in POSTING_FIELDS:
        if name not in obj:
            raise InputError(f"missing field {name!r}")
        if not isinstance(obj[name], str):
            raise InputError(f"field {name!r} must be a string")
    if not obj["job_id"]:
        raise InputError("empty job_id")
    parse_region(obj["region"])
    if obj["retrieved_at"] not in days:
        day = _parse_date(obj["retrieved_at"])
        if not window.contains(day):
            raise InputError(f"retrieved_at {day} outside collection window {window.start}..{window.end}")
        days[obj["retrieved_at"]] = day
    # Checked last, so a record with any other fault is rejected for that fault.
    if len(obj) != len(POSTING_FIELDS):
        raise InputError(f"unexpected field {min(set(obj) - _FIELD_SET)!r}")
    return _parse_record(obj, window, days, shared)  # every check passed: the common path takes it


def _decode(line: str) -> object:
    """Decode one stripped line as a single JSON value; raises InputError on failure."""
    try:
        obj, end = _decode_json(line)
    except json.JSONDecodeError as exc:
        # json.loads names a leading byte order mark before it decodes anything.
        msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if line.startswith("\ufeff") else exc.msg
        raise InputError(f"invalid JSON: {msg}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal beyond the interpreter's digit limit
        raise InputError("invalid JSON: number too long") from None
    if end != len(line):
        raise InputError("invalid JSON: Extra data")
    return obj


def _surrogate_field(posting: Posting) -> str | None:
    """The first text field holding a lone surrogate, which no UTF-8 output can hold."""
    return next((name for name, value in zip(POSTING_FIELDS[:5], posting) if _SURROGATE_RE.search(value)), None)


def read_text_lines(path: str, kind: str) -> Iterator[str]:
    """Stream the lines of a UTF-8 text file, as text mode reads them; an unreadable or undecodable file is fatal."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError:
        # Text mode names the byte's offset in its read buffer: decode the bytes to name it in the file.
        with open(path, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: invalid UTF-8 at byte {exc.start}") from None
        raise


def iter_postings(
    paths: list[str] | tuple[str, ...],
    window: CollectionWindow | None,
    diagnostics: list[Diagnostic],
) -> Iterator[Posting]:
    """Stream the valid postings of posting files, in file order, as each line is read.

    Each file is UTF-8, one JSON record per line; blank lines and lines
    starting with '#' are skipped. A record must hold exactly the seven
    string fields of ``POSTING_FIELDS``. Each invalid record is appended to
    ``diagnostics``, empty at the start, with file and line number, before
    any later posting is yielded. A duplicate (job_id, region) keeps the
    first occurrence and rejects the rest. An unreadable or undecodable
    file is fatal, raised when the stream reaches it. Postings of one
    stream share one string object per distinct title and employer name.
    The stream keeps no posting it has yielded, only each (job_id, region)
    key and the shared strings. The ``rejected N of M`` warning is logged
    once the last file is read.
    """
    window = window or CollectionWindow()
    accepted = 0
    seen: set[tuple[str, Region]] = set()
    days: dict[str, dt.date] = {}
    shared: dict[str, str] = {}
    for path in paths:
        for line_no, line in enumerate(read_text_lines(path, "posting"), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                posting = _parse_record(_decode(stripped), window, days, shared)
            except InputError as exc:
                diagnostics.append(Diagnostic(path, line_no, str(exc)))
                continue
            key = (posting.job_id, posting.region)
            if key in seen:
                diagnostics.append(
                    Diagnostic(path, line_no, f"duplicate (job_id, region) {posting.job_id}/{posting.region}")
                )
                continue
            # Checked after every other fault, so no earlier reject reason changes.
            if "\\u" in stripped and (name := _surrogate_field(posting)):
                diagnostics.append(Diagnostic(path, line_no, f"field {name!r} holds a lone surrogate"))
                continue
            seen.add(key)
            accepted += 1
            yield posting
    if diagnostics:
        logger.warning("rejected %d of %d input records", len(diagnostics), len(diagnostics) + accepted)


def load_postings(
    paths: list[str] | tuple[str, ...],
    window: CollectionWindow | None = None,
) -> tuple[Corpus, list[Diagnostic]]:
    """Load posting files into a validated Corpus and the list of rejects.

    ``iter_postings`` collected: the same postings, diagnostics and
    warning, with every posting held at once.
    """
    diagnostics: list[Diagnostic] = []
    return Corpus(postings=tuple(iter_postings(paths, window, diagnostics))), diagnostics


def posting_to_json(p: Posting) -> str:
    """Render a posting back to its one-line file form.

    The line is ``json.dumps`` of the seven fields with ``sort_keys=True``
    and ``ensure_ascii=True``, written out as a fixed template: keys in
    sorted order, and each text field escaped by json's own ASCII string
    encoder. The region and ISO date are plain ASCII and need no escapes.
    """
    enc = encode_basestring_ascii
    return (
        f'{{"employer_description": {enc(p.employer_description)}, '
        f'"employer_name": {enc(p.employer_name)}, '
        f'"job_description": {enc(p.job_description)}, '
        f'"job_id": {enc(p.job_id)}, '
        f'"region": "{p.region.value}", '
        f'"retrieved_at": "{p.retrieved_at.isoformat()}", '
        f'"title": {enc(p.title)}}}'
    )
