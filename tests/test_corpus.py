import datetime as dt
import io
import json
import random
import string

import pytest

from jobpulse import corpus as corpus_mod
from jobpulse.corpus import (
    CollectionWindow,
    Region,
    load_postings,
    normalize_text,
    parse_region,
    posting_to_json,
)
from jobpulse.errors import InputError

from conftest import make_record, write_jsonl


def test_normalize_folds_case_and_punctuation():
    assert normalize_text("Layout Engineer,") == ("layout", "engineer")


def test_normalize_keeps_intra_word_hyphen():
    assert normalize_text("RF-Engineer") == ("rf-engineer",)


def test_normalize_collapses_separators():
    assert normalize_text("a,,  b!! c") == ("a", "b", "c")
    assert normalize_text("-edge- -case-") == ("edge", "case")
    assert normalize_text("") == ()
    assert normalize_text("!!!") == ()


def _oracle_tokenize(text: str) -> tuple[str, ...]:
    # Independent character-class tokenizer: word chars glue into tokens,
    # a hyphen joins only when squeezed between word chars.
    text = text.lower()
    tokens: list[str] = []
    current: list[str] = []
    for i, ch in enumerate(text):
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif (
            ch == "-"
            and current
            and current[-1] != "-"
            and i + 1 < len(text)
            and text[i + 1].isalnum()
            and text[i + 1] != "_"
        ):
            current.append(ch)
        else:
            if current:
                tokens.append("".join(current))
                current = []
    if current:
        tokens.append("".join(current))
    return tuple(tokens)


def test_normalize_matches_character_class_oracle():
    rng = random.Random(97)
    alphabet = string.ascii_letters + string.digits + " -.,;:!?/()'\"éüñ_" + "--  "
    for _ in range(1000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        assert normalize_text(text) == _oracle_tokenize(text), repr(text)


def test_normalize_idempotent_on_rendered_output():
    rng = random.Random(41)
    alphabet = string.ascii_letters + string.digits + " -.,!?"
    for _ in range(300):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
        tokens = normalize_text(text)
        assert normalize_text(" ".join(tokens)) == tokens


def test_region_parsing_total_over_three_codes():
    assert parse_region("LA") is Region.LA
    assert parse_region("SB") is Region.SB
    assert parse_region("SD") is Region.SD
    for bad in ("la", "sb", "XX", "", "L A", "LAX"):
        with pytest.raises(InputError):
            parse_region(bad)


def test_load_three_region_files_totaling_13000(tmp_path):
    paths = []
    counter = 0
    for region, count in (("LA", 9750), ("SB", 1300), ("SD", 1950)):
        records = []
        for _ in range(count):
            counter += 1
            records.append(make_record(job_id=f"J{counter}", region=region, title="Engineer"))
        path = tmp_path / f"{region.lower()}.jsonl"
        write_jsonl(path, records)
        paths.append(str(path))
    corpus, diagnostics = load_postings(paths)
    assert len(corpus) == 13000
    assert diagnostics == []
    assert corpus.sources == tuple(paths)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    corpus, diagnostics = load_postings([str(path)])
    assert len(corpus) == 0
    assert diagnostics == []


def test_duplicate_job_id_within_region(tmp_path):
    # Oracle: scanning the 5 records by hand, J2 appears twice in LA, so 4
    # postings survive and the second J2 is rejected.
    records = [
        make_record(job_id="J1"),
        make_record(job_id="J2"),
        make_record(job_id="J2"),
        make_record(job_id="J3"),
        make_record(job_id="J4"),
    ]
    path = tmp_path / "la.jsonl"
    write_jsonl(path, records)
    corpus, diagnostics = load_postings([str(path)])
    assert [p.job_id for p in corpus.postings] == ["J1", "J2", "J3", "J4"]
    assert len(diagnostics) == 1
    assert diagnostics[0].line_no == 3
    assert "duplicate" in diagnostics[0].reason


def test_same_job_id_in_two_regions_is_allowed(tmp_path):
    path = tmp_path / "mixed.jsonl"
    write_jsonl(path, [make_record(job_id="J1", region="LA"), make_record(job_id="J1", region="SD")])
    corpus, diagnostics = load_postings([str(path)])
    assert len(corpus) == 2
    assert diagnostics == []


def test_valid_plus_rejected_partitions_input_lines(tmp_path):
    rng = random.Random(3)
    lines = []
    content_lines = 0
    for i in range(200):
        kind = rng.randrange(6)
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append("# comment")
        elif kind == 2:
            lines.append("{not json")
            content_lines += 1
        elif kind == 3:
            lines.append(json.dumps(make_record(job_id=f"J{i}", region="XX")))
            content_lines += 1
        elif kind == 4:
            lines.append(json.dumps({"job_id": f"J{i}"}))
            content_lines += 1
        else:
            lines.append(json.dumps(make_record(job_id=f"J{i}")))
            content_lines += 1
    path = tmp_path / "mixed.jsonl"
    write_jsonl(path, lines)
    corpus, diagnostics = load_postings([str(path)])
    assert len(corpus) + len(diagnostics) == content_lines


@pytest.mark.parametrize(
    "mutation, reason_part",
    [
        ({"region": "la"}, "region"),
        ({"region": "LAX"}, "region"),
        ({"retrieved_at": "04/01/2025"}, "retrieved_at"),
        ({"retrieved_at": "2025-07-04"}, "window"),
        ({"job_id": ""}, "job_id"),
        ({"title": 7}, "title"),
    ],
    ids=["lc-region", "bad-region", "bad-date", "outside-window", "empty-id", "non-string"],
)
def test_invalid_records_are_diagnosed(tmp_path, mutation, reason_part):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [make_record(**mutation)])
    corpus, diagnostics = load_postings([str(path)])
    assert len(corpus) == 0
    assert len(diagnostics) == 1
    assert reason_part in diagnostics[0].reason


def test_missing_field_is_diagnosed(tmp_path):
    record = make_record()
    del record["employer_name"]
    path = tmp_path / "missing.jsonl"
    write_jsonl(path, [record])
    _, diagnostics = load_postings([str(path)])
    assert len(diagnostics) == 1
    assert "employer_name" in diagnostics[0].reason


def test_extra_field_is_diagnosed_after_other_faults(tmp_path):
    path = tmp_path / "extra.jsonl"
    write_jsonl(
        path,
        [
            make_record(job_id="J1", zeta=1, alpha="x"),
            make_record(job_id="J2", region="NY", alpha="x"),
            {**make_record(job_id="J3", alpha="x"), "title": None},
            make_record(job_id="J4"),
        ],
    )
    corpus, diagnostics = load_postings([str(path)])
    assert [p.job_id for p in corpus] == ["J4"]
    assert diagnostics[0].reason == "unexpected field 'alpha'"
    assert "unknown region" in diagnostics[1].reason
    assert diagnostics[2].reason == "field 'title' must be a string"


def test_read_error_mid_file_is_fatal(tmp_path, monkeypatch):
    class FailingFile(io.StringIO):
        def __iter__(self):
            yield json.dumps(make_record()) + "\n"
            raise OSError("device error")

    monkeypatch.setattr(corpus_mod, "open", lambda *a, **k: FailingFile(), raising=False)
    with pytest.raises(InputError, match="cannot read posting file .*device error"):
        load_postings([str(tmp_path / "flaky.jsonl")])


def test_empty_employer_description_is_accepted(tmp_path):
    path = tmp_path / "emp.jsonl"
    write_jsonl(path, [make_record(employer_description="")])
    corpus, diagnostics = load_postings([str(path)])
    assert len(corpus) == 1
    assert diagnostics == []


def test_window_bounds_are_inclusive(tmp_path):
    path = tmp_path / "edges.jsonl"
    write_jsonl(
        path,
        [
            make_record(job_id="J1", retrieved_at="2025-03-15"),
            make_record(job_id="J2", retrieved_at="2025-06-04"),
        ],
    )
    corpus, diagnostics = load_postings([str(path)])
    assert len(corpus) == 2 and not diagnostics


def test_custom_window(tmp_path):
    window = CollectionWindow(dt.date(2024, 1, 1), dt.date(2024, 1, 31))
    path = tmp_path / "win.jsonl"
    write_jsonl(path, [make_record(retrieved_at="2024-01-15")])
    corpus, diagnostics = load_postings([str(path)], window)
    assert len(corpus) == 1 and not diagnostics


def test_inverted_window_rejected():
    with pytest.raises(InputError):
        CollectionWindow(dt.date(2025, 6, 1), dt.date(2025, 5, 1))


def test_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_postings([str(tmp_path / "absent.jsonl")])


def test_comment_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "comments.jsonl"
    lines = ["# header comment", "", json.dumps(make_record()), "   "]
    write_jsonl(path, lines)
    corpus, diagnostics = load_postings([str(path)])
    assert len(corpus) == 1 and not diagnostics


def test_posting_round_trips_through_json(tmp_path):
    record = make_record(title="Etch Engineer", job_description="plasma work")
    path = tmp_path / "rt.jsonl"
    write_jsonl(path, [record])
    corpus, _ = load_postings([str(path)])
    assert json.loads(posting_to_json(corpus.postings[0])) == record
