import datetime as dt
import io
import json
import random
import string
import sys

import pytest

from jobpulse import corpus as corpus_mod
from jobpulse.corpus import (
    POSTING_FIELDS,
    CollectionWindow,
    Diagnostic,
    Posting,
    Region,
    iter_postings,
    load_postings,
    normalize_text,
    parse_region,
    posting_to_json,
)
from jobpulse.errors import InputError
from jobpulse.synth import SynthConfig, build_corpus

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
        # Python 3.11's date.fromisoformat accepts these; 3.10's does not.
        ({"retrieved_at": "20250402"}, "bad retrieved_at '20250402': expected YYYY-MM-DD"),
        ({"retrieved_at": "2025-W14-3"}, "bad retrieved_at '2025-W14-3': expected YYYY-MM-DD"),
        ({"retrieved_at": "\uff12025-04-02"}, "bad retrieved_at"),
    ],
    ids=["lc-region", "bad-region", "bad-date", "outside-window", "empty-id", "non-string", "compact-date",
         "week-date", "non-ascii-digit"],
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


def test_iter_postings_yields_each_posting_as_its_line_is_read(tmp_path):
    # A reject is listed before the next posting is yielded, and a later
    # undecodable file fails the stream only once it is reached.
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_jsonl(good, [make_record(job_id="J1"), "not json", make_record(job_id="J2")])
    bad.write_bytes(b'{"job_id": "\xff"}\n')
    diagnostics = []
    stream = iter_postings([str(good), str(bad)], None, diagnostics)
    assert next(stream).job_id == "J1" and diagnostics == []
    assert next(stream).job_id == "J2" and [(d.line_no, d.reason) for d in diagnostics] == [
        (2, "invalid JSON: Expecting value")
    ]
    with pytest.raises(InputError) as exc:
        next(stream)
    assert str(exc.value) == f"{bad}: invalid UTF-8 at byte 12"


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


def test_one_load_shares_each_title_and_employer_name(tmp_path):
    # Equal strings decoded from different lines, files and dates, on the
    # first record of a date (checked field by field) and on later ones.
    records = [
        make_record(job_id=f"J{i}", title="Etch Engineer", employer_name="Acme Devices",
                    job_description="etch", retrieved_at=f"2025-04-0{1 + i % 3}")
        for i in range(6)
    ]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(first, records[:3])
    write_jsonl(second, [*records[3:], make_record(job_id="K", title="Acme Devices")])
    corpus, diagnostics = load_postings([str(first), str(second)])
    assert not diagnostics and len(corpus) == 7
    assert len({id(p.title) for p in corpus.postings[:6]}) == 1
    assert all(p.employer_name is corpus.postings[0].employer_name for p in corpus.postings)
    assert corpus.postings[6].title is corpus.postings[0].employer_name
    assert corpus.postings[1].job_description is not corpus.postings[0].job_description


def test_posting_round_trips_through_json(tmp_path):
    record = make_record(title="Etch Engineer", job_description="plasma work")
    path = tmp_path / "rt.jsonl"
    write_jsonl(path, [record])
    corpus, _ = load_postings([str(path)])
    assert json.loads(posting_to_json(corpus.postings[0])) == record


def test_posting_to_json_equals_sorted_ascii_json_dumps():
    # Oracle: the template must write exactly what json.dumps writes for the same fields.
    texts = [
        'say "hi"', "back\\slash \\u0041", "tab\there\nnew\r\x00\x1f\x7f\x80", "/ slash",
        "caf\u00e9 na\u00efve \u2028\u2029 \ufeff", "astral \U0001f600 \U0001d518", "", " ",
        "lone high \ud800", "lone low \udfff", "pair as two \ud83d\ude00", "\udc00\ud800 reversed",
    ]
    rng = random.Random(61)
    alphabet = ['"', "\\", "\x00", "\x1f", "\x7f", "a", " ", "\u00e9", "\u4e2d"]
    alphabet += ["\ud800", "\udfff", "\U0001f600"]  # lone surrogates and an astral character
    texts += ["".join(rng.choices(alphabet, k=rng.randint(1, 12))) for _ in range(300)]
    for i in range(len(texts)):
        fields = [texts[(i + j) % len(texts)] for j in range(5)]
        day = dt.date(2025, 3, 15) + dt.timedelta(days=i % 80)
        posting = Posting(*fields, list(Region)[i % 3], day)
        expected = json.dumps(
            {
                "job_id": posting.job_id,
                "title": posting.title,
                "job_description": posting.job_description,
                "employer_name": posting.employer_name,
                "employer_description": posting.employer_description,
                "region": posting.region.value,
                "retrieved_at": posting.retrieved_at.isoformat(),
            },
            sort_keys=True,
            ensure_ascii=True,
        )
        assert posting_to_json(posting) == expected, fields


def test_posting_is_an_immutable_named_tuple():
    fields = ("J1", "t", "d", "e", "ed", Region.LA, dt.date(2025, 4, 1))
    posting = Posting(*fields)
    assert posting == fields and posting.region is Region.LA
    with pytest.raises(AttributeError):
        posting.job_id = "J2"


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[" * 200_000, "invalid JSON: nested too deeply"),
        # Interpreters before the int-to-string digit limit (3.10.7) decode it.
        ('{"job_id": ' + "9" * 5000 + "}", "invalid JSON: number too long"
         if hasattr(sys, "get_int_max_str_digits") else "field 'job_id' must be a string"),
        ("\ufeff" + json.dumps(make_record()), "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (json.dumps(make_record()) + " {}", "invalid JSON: Extra data"),
    ],
    ids=["deep-nesting", "long-integer", "bom", "extra-data"],
)
def test_decoder_failures_are_diagnostics(tmp_path, line, reason):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [line, make_record(job_id="J2")])
    corpus, diagnostics = load_postings([str(path)])
    assert [p.job_id for p in corpus] == ["J2"]
    assert diagnostics == [Diagnostic(str(path), 1, reason)]


def test_lone_surrogate_is_rejected_after_every_other_check(tmp_path):
    path = tmp_path / "surrogates.jsonl"
    write_jsonl(
        path,
        [
            make_record(job_id="J1"),
            make_record(job_id="J2", title="\ud800"),
            make_record(job_id="J1", title="\udfff"),
            make_record(job_id="J3", region="NY", title="\ud800"),
            make_record(job_id="\udc00", employer_description="\ud800"),
            make_record(job_id="J4", title="\ud83d\ude00"),  # an escaped pair is one valid character
        ],
    )
    corpus, diagnostics = load_postings([str(path)])
    assert [p.job_id for p in corpus] == ["J1", "J4"]
    assert [(d.line_no, d.reason) for d in diagnostics] == [
        (2, "field 'title' holds a lone surrogate"),
        (3, "duplicate (job_id, region) J1/LA"),
        (4, "unknown region 'NY': expected one of LA, SB, SD"),
        (5, "field 'job_id' holds a lone surrogate"),
    ]


# ---------------------------------------------------------------------------
# Reference loader: json.loads, then every check in order, as records were
# validated before the one-pass loader. The new loader must agree with it on
# every line it accepts or rejects.
# ---------------------------------------------------------------------------


def _reference_parse(obj, window):
    if not isinstance(obj, dict):
        raise InputError("record is not a JSON object")
    for name in POSTING_FIELDS:
        if name not in obj:
            raise InputError(f"missing field {name!r}")
        if not isinstance(obj[name], str):
            raise InputError(f"field {name!r} must be a string")
    if not obj["job_id"]:
        raise InputError("empty job_id")
    try:
        region = Region(obj["region"])
    except ValueError:
        raise InputError(f"unknown region {obj['region']!r}: expected one of LA, SB, SD") from None
    try:
        retrieved = dt.date.fromisoformat(obj["retrieved_at"])
    except ValueError:
        raise InputError(f"bad retrieved_at {obj['retrieved_at']!r}: expected YYYY-MM-DD") from None
    if not window.contains(retrieved):
        raise InputError(f"retrieved_at {retrieved} outside collection window {window.start}..{window.end}")
    if len(obj) != len(POSTING_FIELDS):
        raise InputError(f"unexpected field {min(set(obj) - set(POSTING_FIELDS))!r}")
    return Posting(*(obj[name] for name in POSTING_FIELDS[:5]), region, retrieved)


def _reference_load(path, window):
    postings, diagnostics, seen = [], [], set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                diagnostics.append(Diagnostic(path, line_no, f"invalid JSON: {exc.msg}"))
                continue
            try:
                posting = _reference_parse(obj, window)
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
    return postings, diagnostics


def _mutate(rng, line, accepted):
    """One seeded fault of the kinds real exports hold, sometimes two at once."""
    record = json.loads(line)
    kind = rng.randrange(13)
    if kind == 0:
        return line[: rng.randrange(len(line))]
    if kind == 1:
        return "\ufeff" + line
    if kind == 2:
        return line + rng.choice((" x", "{}", ",", " 1", "]", "\t[]"))
    if kind == 3:
        return rng.choice(("[1, 2]", '"posting"', "42", "null", "true", "[]", "1.5", '[{"job_id": "X"}]'))
    if kind == 4:
        del record[rng.choice(POSTING_FIELDS)]
    elif kind == 5:
        record[rng.choice(POSTING_FIELDS)] = rng.choice((None, 7, 1.5, [], {}, True, ["LA"]))
    elif kind == 6:
        record[rng.choice(("zeta", "alpha", "job_id ", "", "Region"))] = rng.choice(("x", 1, None))
    elif kind == 7:
        record["region"] = rng.choice(("la", "NY", "", "L A", "Sb", " LA", "LA "))
    elif kind == 8:
        record["retrieved_at"] = rng.choice(
            ("2025-02-30", "04/01/2025", "2025/04/01", "", "soon", "2025-13-01", "2024-12-31", "2025-03-14",
             "2025-06-05", "2025-07-01", " 2025-04-01")
        )
    elif kind == 9 and accepted:
        record["job_id"], record["region"] = rng.choice(accepted)
    elif kind == 10:
        record["job_id"] = ""
    elif kind == 11:
        return rng.choice(("", "   ", "# comment", "  # indented comment"))
    else:
        return _mutate(rng, json.dumps(record), accepted) if rng.random() < 0.5 else line
    if rng.random() < 0.3:
        return _mutate(rng, json.dumps(record, ensure_ascii=rng.random() < 0.5), accepted)
    return json.dumps(record, ensure_ascii=rng.random() < 0.5)


def test_loader_equals_reference_on_mutated_synth_lines(tmp_path, shipped_taxonomy):
    postings, _ = build_corpus(SynthConfig(seed=53, n_postings=600, cross_region_repeat_count=5), shipped_taxonomy)
    rng = random.Random(59)
    lines, accepted = [], []
    for posting in postings:
        line = corpus_mod.posting_to_json(posting)
        if rng.random() < 0.5:
            line = _mutate(rng, line, accepted)
        else:
            accepted.append((posting.job_id, posting.region.value))
        lines.append(line)
    path = tmp_path / "mutated.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    window = CollectionWindow()
    corpus, diagnostics = load_postings([str(path)], window)
    expected_postings, expected_diagnostics = _reference_load(str(path), window)
    assert list(corpus.postings) == expected_postings
    assert diagnostics == expected_diagnostics
    assert len(diagnostics) > 200 and len(corpus) > 200
    assert len({d.reason.split(" ")[0] for d in diagnostics}) >= 8
