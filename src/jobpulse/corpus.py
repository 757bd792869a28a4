"""Posting ingestion, text normalization, and the line reader of every input file.

Houses the posting data model, the three-region vocabulary, the shared
tokenizer, and the loader for line-delimited posting exports. Records come
from offline exports (one JSON object per line); the scraper that produces
them is out of scope here.

``content_lines`` is the one line reader of every input file: postings,
config, taxonomy and name dictionary. ``sha256`` is the one hash
constructor of the manifest and the artifact writers.

``iter_postings`` streams the valid postings as it reads each line, so a
consumer that keeps none of them runs in memory set by the distinct keys
and names, not by the number of postings. ``load_postings`` collects that
stream into an immutable Corpus, or hands each posting to a function as
its line is read and holds only what that returns. ``reread_postings``
reads chosen lines again, by the location the stream gave each posting.
Either way, rejected records are reported as diagnostics, never dropped
silently.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import json
import operator
import re
from collections.abc import Callable, Iterator
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple

from .errors import InputError

# CPython's built-in SHA-256, imported as its random.py imports a hash:
# hashlib would map OpenSSL's libcrypto (3.5 MB resident) into every run.
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

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

# Industry filter modes and the discovery threshold: settings' defaults and
# choices, kept here so the CLI parses its settings without the matcher.
FILTER_ANY_FIELD = "any_field"
FILTER_ALL_FIELDS = "all_fields"
FILTER_MODES = (FILTER_ANY_FIELD, FILTER_ALL_FIELDS)
DEFAULT_MIN_COUNT = 3

# Tokens: runs of letters/digits, with hyphens kept only between such runs.
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")
# The parts of hyphen-joined tokens are exactly the maximal letter/digit runs.
_RUN_RE = re.compile(r"[^\W_]+")
# ASCII digits only: date.fromisoformat alone accepts more forms from Python 3.11 on.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# A lone surrogate: only a \u escape puts one in a decoded line, and no UTF-8 output can hold it.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_FIELD_SET = frozenset(POSTING_FIELDS)
# A posting's location: its input's index in the path list << LINE_BITS | its line number.
LINE_BITS = 32
LINE_MASK = (1 << LINE_BITS) - 1
_fields_of = operator.itemgetter(*POSTING_FIELDS)


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


# Lines per chunk of a large artifact: tens of kilobytes of text.
CHUNK_LINES = 1024


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


def expanded_tokens(text: str) -> tuple[str, ...]:
    """``normalize_text(text)`` with each hyphenated token split into its parts, in one regex pass.

    The form terms and posting text are matched in: "RF-Engineer" gives ("rf", "engineer").
    """
    return tuple(_RUN_RE.findall(text.lower()))


class _WindowFields(NamedTuple):
    start: dt.date
    end: dt.date


class CollectionWindow(_WindowFields):
    """Inclusive date range a posting's retrieved_at must fall within: an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, start: dt.date = DEFAULT_WINDOW_START, end: dt.date = DEFAULT_WINDOW_END) -> CollectionWindow:
        if start > end:
            raise InputError(f"collection window start {start} is after end {end}")
        return tuple.__new__(cls, (start, end))

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


class Diagnostic(NamedTuple):
    """A rejected input record: where it came from and why it was dropped."""

    source: str
    line_no: int
    reason: str


class Corpus:
    """Immutable collection of validated postings."""

    __slots__ = ("postings",)

    def __init__(self, postings: tuple[Posting, ...]) -> None:
        object.__setattr__(self, "postings", postings)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return len(self.postings)

    def __iter__(self):
        return iter(self.postings)


def parse_date(text: str) -> dt.date:
    """``date.fromisoformat`` held to ASCII ``YYYY-MM-DD`` on every Python: ValueError otherwise."""
    if not _DATE_RE.fullmatch(text):
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return dt.date.fromisoformat(text)


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
    if isinstance(obj, dict) and obj.keys() == _FIELD_SET:
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
        try:
            day = parse_date(obj["retrieved_at"])
        except ValueError:
            raise InputError(f"bad retrieved_at {obj['retrieved_at']!r}: expected YYYY-MM-DD") from None
        if not window.contains(day):
            raise InputError(f"retrieved_at {day} outside collection window {window.start}..{window.end}")
        days[obj["retrieved_at"]] = day
    # Checked last, so a record with any other fault is rejected for that fault.
    if len(obj) != len(POSTING_FIELDS):
        raise InputError(f"unexpected field {min(set(obj) - _FIELD_SET)!r}")
    return _parse_record(obj, window, days, shared)  # every check passed: the common path takes it


class _Repeats(dict):
    """A decoded JSON object that gives some name more than once: ``name`` is the first repeat."""

    __slots__ = ("name",)


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """The decoder's object hook: later values win, as in a plain decode, and a repeated name is kept."""
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    repeats = _Repeats(obj)
    seen: set[str] = set()
    repeats.name = next(name for name, _ in pairs if name in seen or seen.add(name))
    return repeats


_decode_json = json.JSONDecoder(object_pairs_hook=_json_object).raw_decode


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


def content_lines(path: str, kind: str) -> Iterator[tuple[int, str]]:
    """Stream (line number, stripped line) of each line of a UTF-8 text file but blank and '#' lines.

    Lines split as text mode splits them (LF, CRLF, lone CR) and are numbered
    over every line. An unreadable or undecodable file is a fatal InputError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    yield line_no, stripped
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
    where: list[int] | None = None,
) -> Iterator[Posting]:
    """Stream the valid postings of posting files, in file order, as each line is read.

    Each file is UTF-8, one JSON record per line; blank lines and lines
    starting with '#' are skipped. A record must hold exactly the seven string
    fields of ``POSTING_FIELDS``, once each. Each invalid record is appended
    to ``diagnostics``, empty at the start, with file and line number, before
    any later posting is yielded. A duplicate (job_id, region) keeps the first
    occurrence and rejects the rest. An unreadable or undecodable file is
    fatal, raised when the stream reaches it. Postings of one stream share one
    string object per distinct title and employer name. The stream keeps no
    posting it has yielded, only the shared strings and, per region, a set of
    the accepted postings' own job_id strings. Given ``where``, a one-item
    list, the stream sets ``where[0]`` to each posting's location
    (``LINE_BITS``) before it yields the posting.
    """
    window = window or CollectionWindow()
    seen: dict[Region, set[str]] = {region: set() for region in Region}
    days: dict[str, dt.date] = {}
    shared: dict[str, str] = {}
    for index, path in enumerate(paths):
        for line_no, line in content_lines(path, "posting"):
            try:
                obj = _decode(line)
                posting = _parse_record(obj, window, days, shared)
                job_ids = seen[posting.region]
                if posting.job_id in job_ids:
                    raise InputError(f"duplicate (job_id, region) {posting.job_id}/{posting.region}")
                # Checked after every other fault, so no earlier reject reason changes.
                if "\\u" in line and (name := _surrogate_field(posting)):
                    raise InputError(f"field {name!r} holds a lone surrogate")
                if type(obj) is _Repeats:  # also checked after every other fault
                    raise InputError(f"field {obj.name!r} given more than once")
            except InputError as exc:  # the one place a line becomes a reject
                diagnostics.append(Diagnostic(path, line_no, str(exc)))
                continue
            job_ids.add(posting.job_id)
            if where is not None:
                where[0] = index << LINE_BITS | line_no
            yield posting


def load_postings(
    paths: list[str] | tuple[str, ...],
    window: CollectionWindow | None = None,
    each: Callable[[Posting], object] | None = None,
    where: list[int] | None = None,
) -> tuple[Corpus, list[Diagnostic]]:
    """Load posting files into a validated Corpus and the list of rejects.

    ``iter_postings`` collected: the same postings and diagnostics, with
    every posting held at once. Given ``each``, the Corpus holds
    ``each(posting)`` in place of each posting, called as its line is read,
    so no posting outlives its call unless ``each`` keeps it. ``where`` is
    passed to ``iter_postings``.
    """
    diagnostics: list[Diagnostic] = []
    postings = iter_postings(paths, window, diagnostics, where)
    return Corpus(postings=tuple(postings if each is None else map(each, postings))), diagnostics


def reread_postings(
    paths: list[str] | tuple[str, ...],
    window: CollectionWindow,
    units: dict[int, tuple[str, Region]],
) -> Iterator[Posting]:
    """Read again the postings at the locations ``units`` maps to their (job_id, region).

    Each line is split, decoded and parsed as ``iter_postings`` first did,
    and the postings are yielded in location order; a file is opened only
    if it holds a location, and read only until its last one. A line that
    no longer holds a valid posting with its (job_id, region), or a file
    that no longer reaches it, raises InputError: the file changed since it
    was first read.
    """
    days: dict[str, dt.date] = {}
    shared: dict[str, str] = {}
    by_file: dict[int, dict[int, tuple[str, Region]]] = {}  # file index -> line -> unit
    for at, unit in units.items():
        by_file.setdefault(at >> LINE_BITS, {})[at & LINE_MASK] = unit
    for index in sorted(by_file):
        path, wanted = paths[index], by_file[index]
        for line_no, line in content_lines(path, "posting"):
            unit = wanted.pop(line_no, None)
            if unit is None:
                continue
            try:
                posting = _parse_record(_decode(line), window, days, shared)
            except InputError:
                posting = None
            if posting is None or (posting.job_id, posting.region) != unit:
                wanted[line_no] = unit
                break
            yield posting
            if not wanted:
                break
        if wanted:
            line_no = min(wanted)
            job_id, region = wanted[line_no]
            raise InputError(f"{path}:{line_no}: no longer holds posting {job_id}/{region}: the file changed")


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
