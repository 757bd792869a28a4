import datetime as dt
import json
import tracemalloc
from operator import attrgetter

import pytest

from jobpulse.cli import DEFAULT_DICTIONARY, DEFAULT_TAXONOMY, main
from jobpulse.corpus import Posting, Region
from jobpulse.employers import load_dictionary
from jobpulse.matcher import MatchIndex
from jobpulse.taxonomy import Taxonomy, load_taxonomy

# The name dictionary every subcommand reads unless --dictionary names another.
BUNDLED_DICTIONARY = load_dictionary(str(DEFAULT_DICTIONARY))


@pytest.fixture(scope="session")
def shipped_taxonomy() -> Taxonomy:
    return load_taxonomy(str(DEFAULT_TAXONOMY))


@pytest.fixture(scope="session")
def seed7_inputs(tmp_path_factory) -> list[str]:
    """The posting files of the seed-7, 5,000-posting synth fixture."""
    fixture = tmp_path_factory.mktemp("seed7")
    assert main(["synth", "--seed", "7", "--n-postings", "5000", "--out", str(fixture)]) == 0
    return [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]


def make_posting(
    job_id: str = "J1",
    title: str = "",
    job_description: str = "",
    employer_name: str = "Acme Devices",
    employer_description: str = "",
    region: Region = Region.LA,
    retrieved_at: dt.date = dt.date(2025, 4, 1),
) -> Posting:
    return Posting(
        job_id=job_id,
        title=title,
        job_description=job_description,
        employer_name=employer_name,
        employer_description=employer_description,
        region=region,
        retrieved_at=retrieved_at,
    )


def make_unit(job_id: str = "J1", jsts=(), region: Region = Region.LA, employer_name: str = "Acme Devices") -> tuple:
    """A row of the match pass (``dedup.Unit``): ``jsts`` sorted by phrase, as ``MatchIndex.terms`` gives them."""
    return (job_id, region, tuple(sorted(jsts, key=attrgetter("phrase"))), employer_name)


def pass_rows(postings, taxonomy) -> list:
    """The match pass's rows of ``postings``, as if all were filtered, their terms from one index."""
    index = MatchIndex(taxonomy)
    return [(p.job_id, p.region, index.terms(p), p.employer_name) for p in postings]


def content_groups(postings) -> dict:
    """The input of ``cross_region_report``: each posting's content key -> its units."""
    groups: dict = {}
    for p in postings:
        groups.setdefault((p.title, p.job_description, p.employer_name), []).append((p.job_id, p.region))
    return groups


def make_record(
    job_id: str = "J1",
    title: str = "",
    job_description: str = "",
    employer_name: str = "Acme Devices",
    employer_description: str = "",
    region: str = "LA",
    retrieved_at: str = "2025-04-01",
    **overrides,
) -> dict:
    record = {
        "job_id": job_id,
        "title": title,
        "job_description": job_description,
        "employer_name": employer_name,
        "employer_description": employer_description,
        "region": region,
        "retrieved_at": retrieved_at,
    }
    record.update(overrides)
    return record


def write_jsonl(path, records) -> None:
    lines = []
    for record in records:
        lines.append(record if isinstance(record, str) else json.dumps(record))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def write_taxonomy_csv(path, rows) -> str:
    """rows: iterable of (function, family, title) tuples; title may be ''. """
    lines = ["function,family,title"]
    lines.extend(f"{fn},{fam},{title}" for fn, fam, title in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def traced_memory(fn, *args) -> tuple[int, int]:
    """(held, peak): the traced memory still held once one call of ``fn`` returns, its result kept alive, and the call's peak."""
    tracemalloc.start()
    try:
        result = fn(*args)  # alive while the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of one call of ``fn``."""
    return traced_memory(fn, *args)[1]
