"""Seeded input generators for the benchmark workloads, with planted truth.

Each ``make_*`` function writes one workload's input files under
``workdir`` and returns a :class:`Prepared`: the CLI calls to time and the
truth the checks compare the program's outputs against. The truth is
planted here, by construction, and never read back from the program.

``report-100k`` uses the program's own generator (``jobpulse synth``)
because its ``truth.csv`` is the reference the paper's release check is
defined on. The other two workloads are generated here, so their planted
phenomena do not depend on the program under test.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

# The program's documented defaults, restated so that the planted truth
# does not come from the code under test.
WINDOW_START = dt.date(2025, 3, 15)
WINDOW_END = dt.date(2025, 6, 4)
INDUSTRY_TOKEN = "semiconductor"
LEGAL_SUFFIXES = ("inc", "llc", "corp", "co", "ltd")
REGIONS = ("LA", "SB", "SD")
FIELDS = (
    "job_id",
    "title",
    "job_description",
    "employer_name",
    "employer_description",
    "region",
    "retrieved_at",
)

REPORT_POSTINGS = 100_000
NAMES_PER_BLOCK = 3_500
INGEST_FILES = 6
INGEST_LINES_PER_FILE = 45_000
REJECT_SHARE = 0.10
# The invalid-UTF-8 file is the same for every seed: the call that reads it
# fails on every run today, so its share of failed calls stays fixed.
UTF8_FAULT_SEED = 1713
UTF8_FAULT_LINES = 40

REJECT_CLASSES = (
    "invalid_json",
    "not_object",
    "missing_field",
    "non_string",
    "empty_job_id",
    "unknown_region",
    "bad_date",
    "outside_window",
    "duplicate",
)

_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")

_FILLER = (
    "join", "our", "team", "and", "support", "daily", "production", "goals",
    "the", "role", "includes", "ownership", "key", "deliverables", "with",
    "training", "provided", "onsite", "schedule", "benefits", "growth",
    "culture", "collaboration", "across", "groups", "tasks", "planning",
    "reviews", "documentation", "audits", "tooling", "upkeep", "reporting",
    "weekly", "mentoring", "travel", "relocation", "campus", "facility",
    "badge", "parking", "apply", "today", "fab", "wafer", "yield", "cleanroom",
    "café", "müller", "naïve",
)

_TITLES = (
    "Process Engineer", "Equipment Technician", "Yield Analyst",
    "Operations Coordinator", "Facilities Planner", "Test Engineer",
    "Materials Scientist", "Shift Supervisor", "Quality Specialist",
)

_DIVISION_EXTENSIONS = (
    "robotics", "research", "labs", "ventures", "logistics", "energy",
    "aerospace", "digital", "medical", "imaging", "services", "americas",
    "west", "defense", "automation", "packaging",
)

_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")


@dataclass
class Call:
    """One timed ``jobpulse`` invocation, relative to the run's work dir."""

    argv: list[str]
    out: str
    records: int
    expect_rc: int


@dataclass
class Prepared:
    calls: list[Call]
    truth: object
    notes: dict = field(default_factory=dict)


def tokens(text: str) -> tuple[str, ...]:
    """Lowercase word tokens, as the README specifies name comparison."""
    return tuple(_TOKEN_RE.findall(text.lower()))


def count_records(path: Path) -> int:
    """Non-blank lines of an input file."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def read_dictionary(path: Path) -> frozenset[str]:
    words: set[str] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.update(tokens(line))
    return frozenset(words)


def _day(rng: random.Random, start: dt.date, end: dt.date) -> str:
    return (start + dt.timedelta(days=rng.randrange((end - start).days + 1))).isoformat()


def _text(rng: random.Random, low: int, high: int, with_token: bool) -> str:
    words = [rng.choice(_FILLER) for _ in range(rng.randint(low, high))]
    if with_token:
        words.insert(rng.randrange(len(words) + 1), INDUSTRY_TOKEN)
    return " ".join(words)


# --------------------------------------------------------------------- report


def make_report(workdir: Path, seed: int, scale: int, env: dict) -> Prepared:
    """``jobpulse synth`` at the ROADMAP fixture size; truth is its truth.csv."""
    n = REPORT_POSTINGS // scale
    subprocess.run(
        [sys.executable, "-m", "jobpulse.cli", "synth", "--seed", str(seed),
         "--n-postings", str(n), "--out", "inputs"],
        cwd=workdir, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    files = [f"inputs/{r.lower()}.jsonl" for r in REGIONS]
    records = sum(count_records(workdir / f) for f in files)
    call = Call(["report", "--input", *files, "--out", "out/report"], "out/report", records, 0)
    return Prepared([call], "inputs/truth.csv", {"postings": n})


# --------------------------------------------------------------- disambiguate


class _Registry:
    """Planted name sequences; forbids prefix relations across identities.

    A name absorbs another exactly when it is a proper token prefix of it
    and not made only of dictionary words, so identities are planted such
    that this rule reproduces them and nothing else.
    """

    def __init__(self, common: frozenset[str]) -> None:
        self.common = common
        self.owner: dict[tuple[str, ...], str] = {}
        self.extended_by: dict[tuple[str, ...], set[str]] = {}
        self.withheld: set[tuple[str, ...]] = set()

    def generic(self, seq: tuple[str, ...]) -> bool:
        return all(t in self.common for t in seq)

    def free(self, seq: tuple[str, ...], ident: str) -> bool:
        if seq in self.withheld:
            return False
        if seq in self.owner:
            return self.owner[seq] == ident
        if not self.generic(seq) and self.extended_by.get(seq, set()) - {ident}:
            return False
        for i in range(1, len(seq)):
            owner = self.owner.get(seq[:i])
            if owner is not None and owner != ident and not self.generic(seq[:i]):
                return False
        return True

    def claim(self, seq: tuple[str, ...], ident: str) -> None:
        self.owner[seq] = ident
        for i in range(1, len(seq)):
            self.extended_by.setdefault(seq[:i], set()).add(ident)


def _pseudo_words(rng: random.Random, n: int, banned: frozenset[str]) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.choice((2, 3))))
        if word not in banned:
            words.add(word)
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


def _display(seq: tuple[str, ...]) -> str:
    return " ".join(t.capitalize() for t in seq)


def plant_names(rng: random.Random, common: frozenset[str], per_block: int) -> dict[str, str]:
    """Raw employer name -> planted identity, in three first-token blocks.

    Blocks: "University Of ..." and "Advanced ..." (dictionary heads that
    must never absorb their block) and one pseudo-word head. Each block
    holds parents with divisions present, orphan divisions of a withheld
    parent, names diverging at the 2nd to 4th token, and legal-suffix and
    letter-case variants.
    """
    banned = common | set(LEGAL_SUFFIXES) | {INDUSTRY_TOKEN} | set(_DIVISION_EXTENSIONS)
    vocab = _pseudo_words(rng, 3000, banned)
    heads = [("university", "of"), ("advanced",), (vocab.pop(),)]
    reg = _Registry(common)
    names: dict[str, str] = {}

    def emit(seq: tuple[str, ...], ident: str) -> None:
        reg.claim(seq, ident)
        names[_display(seq)] = ident
        if rng.random() < 0.2:
            names[f"{_display(seq)} {rng.choice(LEGAL_SUFFIXES).capitalize()}"] = ident
        if rng.random() < 0.03:
            names[_display(seq).upper()] = ident

    for b, head in enumerate(heads):
        # Dictionary-only heads are names of their own and merge with nothing.
        for i in range(1, len(head) + 1):
            if reg.generic(head[:i]) and head[:i] not in reg.owner:
                emit(head[:i], f"b{b}h{i}")
        mids = vocab[:40]
        del vocab[:40]
        start = len(names)
        n = 0
        while len(names) - start < per_block:
            n += 1
            ident = f"b{b}i{n}"
            roll = rng.random()
            mid = rng.choice(mids)
            if roll < 0.3:
                parent = head + (mid, rng.choice(vocab))
                if not reg.free(parent, ident):
                    continue
                emit(parent, ident)
                for _ in range(rng.randint(1, 3)):
                    exts = rng.sample(_DIVISION_EXTENSIONS, rng.choice((1, 1, 2)))
                    division = parent + tuple(exts)
                    if reg.free(division, ident):
                        emit(division, ident)
            elif roll < 0.45:
                ghost = head + (mid, rng.choice(vocab))
                if not reg.free(ghost, ident):
                    continue
                reg.withheld.add(ghost)
                for k, ext in enumerate(rng.sample(_DIVISION_EXTENSIONS, rng.randint(1, 2))):
                    orphan_ident = f"{ident}o{k}"
                    if reg.free(ghost + (ext,), orphan_ident):
                        emit(ghost + (ext,), orphan_ident)
            elif roll < 0.6:
                seq = head + (mid, rng.choice(vocab), rng.choice(vocab))
                if reg.free(seq, ident):
                    emit(seq, ident)
            else:
                seq = head + ((mid, rng.choice(vocab)) if rng.random() < 0.7 else (rng.choice(vocab),))
                if reg.free(seq, ident):
                    emit(seq, ident)
    return names


def make_disambiguate(workdir: Path, seed: int, scale: int, dictionary: Path) -> Prepared:
    """One on-industry posting per planted raw employer name."""
    rng = random.Random(seed)
    names = plant_names(rng, read_dictionary(dictionary), NAMES_PER_BLOCK // scale)
    order = sorted(names)
    rng.shuffle(order)
    lines = []
    for i, name in enumerate(order, start=1):
        on_job = rng.random() < 0.5
        record = {
            "job_id": f"D{i:07d}",
            "title": rng.choice(_TITLES),
            "job_description": _text(rng, 12, 30, on_job),
            "employer_name": name,
            "employer_description": _text(rng, 4, 8, not on_job),
            "region": rng.choice(REGIONS),
            "retrieved_at": _day(rng, WINDOW_START, WINDOW_END),
        }
        lines.append(json.dumps(record, ensure_ascii=False))
    path = workdir / "inputs" / "postings.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    call = Call(
        ["disambiguate", "--input", "inputs/postings.jsonl", "--out", "out/disambiguate"],
        "out/disambiguate",
        len(lines),
        0,
    )
    return Prepared([call], names, {"names": len(names)})


# --------------------------------------------------------------------- ingest


@dataclass
class FileTruth:
    """Planted facts of one ingest file: good records and rejects by line."""

    good: int = 0
    rejects: dict[int, str] = field(default_factory=dict)


class _RecordSource:
    """Valid records drawn from pre-built pools, so generation stays cheap."""

    def __init__(self, rng: random.Random, prefix: str) -> None:
        self.rng = rng
        self.prefix = prefix
        self.next_id = 0
        self.jobs = [_text(rng, 15, 40, rng.random() < 0.7) for _ in range(400)]
        self.employers = [_text(rng, 4, 8, rng.random() < 0.3) for _ in range(100)]
        self.names = [_display((rng.choice(_FILLER), rng.choice(_DIVISION_EXTENSIONS))) for _ in range(200)]
        span = (WINDOW_END - WINDOW_START).days
        self.days = [(WINDOW_START + dt.timedelta(days=d)).isoformat() for d in range(span + 1)]
        # Every field but job_id, pre-rendered: a good line is one pick plus an id.
        self.bodies = []
        for _ in range(1000):
            record = self.record()
            del record["job_id"]
            self.bodies.append((json.dumps(record, ensure_ascii=False)[1:], record["region"]))
        self.next_id = 0

    def record(self) -> dict:
        self.next_id += 1
        rng = self.rng
        return {
            "job_id": f"{self.prefix}{self.next_id:07d}",
            "title": rng.choice(_TITLES),
            "job_description": rng.choice(self.jobs),
            "employer_name": rng.choice(self.names),
            "employer_description": rng.choice(self.employers),
            "region": rng.choice(REGIONS),
            "retrieved_at": rng.choice(self.days),
        }

    def good_line(self) -> tuple[str, tuple[str, str]]:
        """A valid record line and its (job_id, region) key."""
        self.next_id += 1
        job_id = f"{self.prefix}{self.next_id:07d}"
        body, region = self.bodies[int(self.rng.random() * len(self.bodies))]
        return f'{{"job_id": "{job_id}", {body}', (job_id, region)


def _reject(rng: random.Random, kind: str, src: _RecordSource, accepted: list[tuple[str, str]]) -> str:
    record = src.record()
    if kind == "invalid_json":
        line = json.dumps(record, ensure_ascii=False)
        return line[: rng.randrange(2, len(line) - 1)]
    if kind == "not_object":
        return rng.choice(('[1, 2, 3]', '"posting"', "42", "null", "true", '[{"job_id": "X1"}]'))
    if kind == "missing_field":
        del record[rng.choice(FIELDS)]
    elif kind == "non_string":
        record[rng.choice(FIELDS)] = rng.choice((None, 7, 1.5, [], {}, True))
    elif kind == "empty_job_id":
        record["job_id"] = ""
    elif kind == "unknown_region":
        record["region"] = rng.choice(("NY", "la", "Sb", "", "L A", "CA"))
    elif kind == "bad_date":
        record["retrieved_at"] = rng.choice(("2025-02-30", "04/01/2025", "2025/04/01", "", "soon", "2025-13-01"))
    elif kind == "outside_window":
        if rng.random() < 0.5:
            record["retrieved_at"] = _day(rng, dt.date(2024, 1, 1), WINDOW_START - dt.timedelta(days=1))
        else:
            record["retrieved_at"] = _day(rng, WINDOW_END + dt.timedelta(days=1), dt.date(2025, 12, 31))
    elif kind == "duplicate":
        record["job_id"], record["region"] = rng.choice(accepted)
    return json.dumps(record, ensure_ascii=False)


def dirty_file(rng: random.Random, prefix: str, n_lines: int) -> tuple[list[str], FileTruth]:
    """Lines of one dirty posting file: good records, rejects, blanks, comments."""
    src = _RecordSource(rng, prefix)
    truth = FileTruth()
    accepted: list[tuple[str, str]] = []
    lines: list[str] = []
    for line_no in range(1, n_lines + 1):
        roll = rng.random()
        if roll < 0.01:
            lines.append(rng.choice(("", "   ", "\t")))
        elif roll < 0.02:
            lines.append(rng.choice(("# export batch", "  # comment", '#{"job_id": "C1"}')))
        elif roll < 0.02 + REJECT_SHARE and accepted:
            kind = REJECT_CLASSES[rng.randrange(len(REJECT_CLASSES))]
            lines.append(_reject(rng, kind, src, accepted))
            truth.rejects[line_no] = kind
        else:
            line, key = src.good_line()
            lines.append(line)
            accepted.append(key)
            truth.good += 1
    return lines, truth


def utf8_fault_file() -> tuple[bytes, FileTruth]:
    """A small seed-independent file whose bad lines hold invalid UTF-8."""
    rng = random.Random(UTF8_FAULT_SEED)
    src = _RecordSource(rng, "U")
    truth = FileTruth()
    out = []
    for line_no in range(1, UTF8_FAULT_LINES + 1):
        line = src.good_line()[0].encode("utf-8")
        if line_no % 7 == 3:
            cut = line.index(b'"title": "') + 10
            line = line[:cut] + rng.choice((b"\xff", b"\xc3\x28", b"\xe2\x82", b"\x80")) + line[cut:]
            truth.rejects[line_no] = "invalid_utf8"
        else:
            truth.good += 1
        out.append(line)
    return b"\n".join(out) + b"\n", truth


def make_ingest(workdir: Path, seed: int, scale: int) -> Prepared:
    """One ``jobpulse ingest`` call per dirty file, plus the invalid-UTF-8 file."""
    rng = random.Random(seed)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    calls: list[Call] = []
    truth: dict[str, FileTruth] = {}
    n_lines = INGEST_LINES_PER_FILE // scale
    for i in range(INGEST_FILES):
        name = f"inputs/dirty{i}.jsonl"
        lines, file_truth = dirty_file(rng, f"F{i}-", n_lines)
        (workdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        truth[name] = file_truth
    name = "inputs/utf8_fault.jsonl"
    content, truth[name] = utf8_fault_file()
    (workdir / name).write_bytes(content)
    for i, name in enumerate(truth):
        out = f"out/ingest{i}"
        calls.append(Call(["ingest", "--input", name, "--out", out], out, count_records(workdir / name), 2))
    return Prepared(calls, truth, {"lines": n_lines * INGEST_FILES + UTF8_FAULT_LINES})
