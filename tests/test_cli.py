import csv
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobpulse
from jobpulse import cli
from jobpulse import corpus as corpus_mod
from jobpulse import dedup, employers, matcher
from jobpulse.cli import (
    DEFAULT_DICTIONARY,
    DEFAULT_TAXONOMY,
    PipelineConfig,
    _render_cross_region_csv,
    _Run,
    main,
)
from jobpulse.corpus import Region

from conftest import (
    BUNDLED_DICTIONARY,
    content_groups,
    make_record,
    pass_rows,
    traced_peak,
    write_jsonl,
    write_taxonomy_csv,
)


@pytest.fixture()
def fixture_corpus(tmp_path):
    """Small deterministic synthetic corpus on disk; returns its input files."""
    out = tmp_path / "fixture"
    rc = main(["synth", "--seed", "11", "--n-postings", "120", "--out", str(out)])
    assert rc == 0
    return [str(out / f"{r.value.lower()}.jsonl") for r in Region]


def _manifest(path) -> dict[str, str]:
    return _manifest_text(path.read_text(encoding="utf-8"))


def _manifest_text(text: str) -> dict[str, str]:
    items = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        items[key] = value
    return items


def test_synth_writes_corpus_and_truth(tmp_path):
    out = tmp_path / "synth"
    rc = main(["synth", "--seed", "5", "--n-postings", "50", "--out", str(out)])
    assert rc == 0
    for name in ("la.jsonl", "sb.jsonl", "sd.jsonl", "truth.csv", "manifest.txt"):
        assert (out / name).exists(), name
    manifest = _manifest(out / "manifest.txt")
    assert manifest["count.postings_generated"] == "50"
    assert manifest["subcommand"] == "synth"


def test_synth_cli_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--seed", "9", "--n-postings", "80", "--out", str(a)]) == 0
    assert main(["synth", "--seed", "9", "--n-postings", "80", "--out", str(b)]) == 0
    for name in ("la.jsonl", "sb.jsonl", "sd.jsonl", "truth.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_ingest_clean_corpus(tmp_path, fixture_corpus, capsys):
    out = tmp_path / "ingest"
    rc = main(["ingest", "--input", *fixture_corpus, "--out", str(out)])
    assert rc == 0
    assert "rejected 0 records" in capsys.readouterr().out
    manifest = _manifest(out / "manifest.txt")
    assert manifest["count.postings_ingested"] == "120"
    assert manifest["count.records_rejected"] == "0"
    diagnostics = (out / "diagnostics.csv").read_text(encoding="utf-8")
    assert diagnostics == "source,line,reason\n"


def test_ingest_dirty_corpus_exits_2(tmp_path):
    dirty = tmp_path / "dirty.jsonl"
    write_jsonl(
        dirty,
        [
            make_record(job_id="J1"),
            make_record(job_id="J1"),
            "not json at all",
        ],
    )
    out = tmp_path / "out"
    rc = main(["ingest", "--input", str(dirty), "--out", str(out)])
    assert rc == 2
    lines = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header + two rejects
    manifest = _manifest(out / "manifest.txt")
    assert manifest["count.records_rejected"] == "2"


def test_report_on_lines_that_broke_the_decoder_or_the_writer(tmp_path, fixture_corpus, capsys):
    # Deep nesting, an integer past the digit limit and a lone surrogate once
    # ended the run in a traceback, the last after half the artifacts.
    bad = tmp_path / "bad.jsonl"
    write_jsonl(bad, ["[" * 200_000, '{"job_id": ' + "9" * 5000 + "}", make_record(job_id="\ud800")])
    out = tmp_path / "out"
    assert main(["report", "--input", *fixture_corpus, str(bad), "--out", str(out)]) == 2
    rows = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",", 2)[1:] for row in rows] == [
        ["1", "invalid JSON: nested too deeply"],
        ["2", "invalid JSON: number too long" if hasattr(sys, "get_int_max_str_digits") else
         "field 'job_id' must be a string"],
        ["3", "field 'job_id' holds a lone surrogate"],
    ]
    manifest = _manifest(out / "manifest.txt")
    written = {key.split(".", 1)[1].rsplit(".", 1)[0] for key in manifest if key.startswith("artifact.")}
    assert written == {p.name for p in out.iterdir()} - {"manifest.txt"} and len(written) == 13
    capsys.readouterr()


def test_field_given_more_than_once_is_rejected_after_every_other_fault(tmp_path, capsys):
    def record(job_id: str, **fields) -> str:
        return json.dumps(make_record(job_id=job_id, **fields))

    path = tmp_path / "repeats.jsonl"
    write_jsonl(
        path,
        [
            record("J1"),
            '{"job_id": "J2", ' + record("J2")[1:],  # equal values
            record("J3")[:-1] + ', "job_id": "J4"}',  # unequal values: the record would read J4
            json.dumps(make_record(job_id="J5"), separators=(", ", " : "))[:-1] + ', "title" : "Tech"}',
            record("J6", region="NY")[:-1] + ', "job_id": "J6"}',  # the other fault's reason wins
            record("J1")[:-1] + ', "job_id": "J1"}',  # so does a duplicate (job_id, region)
            record("J7", job_description='"job_id": "J1" at 9:30; shift: nights; pay: hourly; site: fab: 2'),
            record("J4"),  # the rejected J4 above is not recorded
            '{"job_id": {"x": 1, "x": 2}, ' + record("J8")[1:],  # the record's name, not the nested one
            record("J9")[:-1] + ', "title": {"x": 1, "x": 2}}',  # the last value is not a string
        ],
    )
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(path), "--out", str(out)]) == 2
    with open(out / "diagnostics.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[1:] for row in rows] == [
        ["2", "field 'job_id' given more than once"],
        ["3", "field 'job_id' given more than once"],
        ["4", "field 'title' given more than once"],
        ["5", "unknown region 'NY': expected one of LA, SB, SD"],
        ["6", "duplicate (job_id, region) J1/LA"],
        ["9", "field 'job_id' given more than once"],
        ["10", "field 'title' must be a string"],
    ]
    manifest = _manifest(out / "manifest.txt")
    assert (manifest["count.postings_ingested"], manifest["count.records_rejected"]) == ("3", "7")
    capsys.readouterr()


def test_match_artifact(tmp_path, fixture_corpus):
    out = tmp_path / "match"
    rc = main(["match", "--input", *fixture_corpus, "--out", str(out)])
    assert rc == 0
    lines = (out / "matches.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "job_id,region,phrase,level,in_title"
    assert len(lines) > 1


def test_dedup_artifacts(tmp_path, fixture_corpus):
    out = tmp_path / "dedup"
    rc = main(["dedup", "--input", *fixture_corpus, "--out", str(out)])
    assert rc == 0
    ledger_lines = (out / "ledger.csv").read_text(encoding="utf-8").splitlines()
    assert ledger_lines[0] == "job_id,region,function,family,title,weight_num,weight_den"
    manifest = _manifest(out / "manifest.txt")
    assert int(manifest["count.demand_units"]) > 0
    assert (out / "cross_region.csv").exists()


def test_dedup_hyphenated_terms_match_spaced_text(tmp_path):
    # Text "RF Engineer" hits the family "rf-engineer" and, in a longer title,
    # the title "senior rf-engineer"; the ledger's title column is that phrase.
    taxonomy = write_taxonomy_csv(
        tmp_path / "hyphen.csv",
        [("Engineer", "RF-Engineer", ""), ("Engineer", "rf-engineer", "Senior RF-Engineer")],
    )
    postings = tmp_path / "postings.jsonl"
    write_jsonl(postings, [
        make_record(job_id="J1", title="RF Engineer", job_description="semiconductor radar work"),
        make_record(job_id="J2", title="Senior RF Engineer", job_description="semiconductor radar work"),
        make_record(job_id="J3", title="Radar Technician", job_description="semiconductor radar work"),
    ])
    out = tmp_path / "out"
    assert main(["dedup", "--input", str(postings), "--taxonomy", taxonomy, "--out", str(out)]) == 0
    assert (out / "ledger.csv").read_text(encoding="utf-8") == (
        "job_id,region,function,family,title,weight_num,weight_den\n"
        "J1,LA,Engineer,rf-engineer,,1,1\n"
        "J2,LA,Engineer,rf-engineer,,1,2\n"
        "J2,LA,Engineer,rf-engineer,senior rf-engineer,1,2\n"
    )


def test_disambiguate_artifacts(tmp_path, fixture_corpus):
    out = tmp_path / "emp"
    rc = main(["disambiguate", "--input", *fixture_corpus, "--out", str(out)])
    assert rc == 0
    mapping_lines = (out / "employer_mapping.csv").read_text(encoding="utf-8").splitlines()
    assert mapping_lines[0] == "raw_name,canonical_name"
    manifest = _manifest(out / "manifest.txt")
    assert int(manifest["count.employers_canonical"]) <= int(manifest["count.employers_raw"])


def test_disambiguate_pinned_on_shared_prefix_names(tmp_path, capsys):
    # Worked by hand: a parent absorbs its divisions and its case and legal
    # suffix variants; a dictionary-only name absorbs nothing; divisions of
    # an absent parent stay apart. Rejected names count per occurrence and
    # off-industry postings do not count.
    names = [
        "Amazon", "Amazon Web Services", "AMAZON Inc", "amazon, llc", "Amazon",
        "Advanced", "Advanced Micro Devices", "Advanced Micro Devices Inc", "Advanced Micro Devices Research",
        "Advanced Systems", "University of", "University of California Los Angeles",
        "University of California Santa Barbara", "Vortex Dynamics Research", "Vortex Dynamics Labs",
        'Foo, "Bar" Inc', "", "!!!", "", "!!!", "Advanced Systems",
    ]
    records = [make_record(job_id=f"J{i}", job_description="semiconductor fab", employer_name=name)
               for i, name in enumerate(names)]
    records.append(make_record(job_id="X1", job_description="bakery", employer_name="Zeta Offsite"))
    write_jsonl(tmp_path / "postings.jsonl", records)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["disambiguate", "--input", str(tmp_path / "postings.jsonl"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "disambiguated 15 raw employer names into 10\n"
    assert (out / "employer_mapping.csv").read_text(encoding="utf-8") == (
        "raw_name,canonical_name\n"
        "AMAZON Inc,amazon\n"
        "Advanced,advanced\n"
        "Advanced Micro Devices,advanced micro devices\n"
        "Advanced Micro Devices Inc,advanced micro devices\n"
        "Advanced Micro Devices Research,advanced micro devices\n"
        "Advanced Systems,advanced systems\n"
        "Amazon,amazon\n"
        "Amazon Web Services,amazon\n"
        '"Foo, ""Bar"" Inc",foo bar\n'
        "University of,university of\n"
        "University of California Los Angeles,university of california los angeles\n"
        "University of California Santa Barbara,university of california santa barbara\n"
        "Vortex Dynamics Labs,vortex dynamics labs\n"
        "Vortex Dynamics Research,vortex dynamics research\n"
        '"amazon, llc",amazon\n'
    )
    manifest = _manifest(out / "manifest.txt")
    assert {k: v for k, v in manifest.items() if k.startswith("count.employer")} == {
        "count.employer_names_rejected": "4",
        "count.employers_canonical": "10",
        "count.employers_raw": "15",
    }


def test_report_and_disambiguate_write_the_same_mapping(tmp_path):
    # report canonicalizes the employer of every filtered posting, a demand
    # unit or not, and disambiguate those of the streamed, filtered postings:
    # the two mappings agree on filtered postings that match no term, a
    # region left out of scope and a rejected duplicate line.
    fx = tmp_path / "fx"
    assert main(["synth", "--seed", "3", "--n-postings", "600", "--plant", "quantum widget wrangler=40",
                 "--out", str(fx)]) == 0
    inputs = [str(fx / f"{r.value.lower()}.jsonl") for r in Region]
    dup = tmp_path / "dup.jsonl"
    dup.write_text((fx / "la.jsonl").read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    outs = {}
    for cmd in ("report", "disambiguate"):
        outs[cmd] = tmp_path / cmd
        assert main([cmd, "--input", *inputs, str(dup), "--regions", "LA,SB", "--out", str(outs[cmd])]) == 2
    report = _manifest(outs["report"] / "manifest.txt")
    assert report["count.records_rejected"] == "1"
    assert int(report["count.postings_out_of_scope"]) > 0
    mapping = (outs["report"] / "employer_mapping.csv").read_bytes()
    assert mapping == (outs["disambiguate"] / "employer_mapping.csv").read_bytes()
    # Planted postings match no term, so some mapped names have no demand unit.
    assert int(report["count.employers_raw"]) < len(mapping.splitlines()) - 1


def test_discover_via_cli(tmp_path):
    fixture = tmp_path / "fixture"
    rc = main(
        [
            "synth",
            "--seed",
            "13",
            "--n-postings",
            "60",
            "--plant",
            "microelectronics technician=12",
            "--plant",
            "rf engineer=5",
            "--out",
            str(fixture),
        ]
    )
    assert rc == 0
    inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
    out = tmp_path / "disc"
    rc = main(["discover", "--input", *inputs, "--out", str(out), "--min-count", "3"])
    assert rc == 0
    content = (out / "discovery.csv").read_text(encoding="utf-8")
    assert content.splitlines()[0] == "phrase,count"
    assert "microelectronics technician,12" in content
    assert "rf engineer,5" in content


def test_report_artifacts_and_manifest(tmp_path, fixture_corpus, capsys):
    out = tmp_path / "report"
    rc = main(["report", "--input", *fixture_corpus, "--out", str(out)])
    assert rc == 0
    expected = [
        "diagnostics.csv",
        "funnel.csv",
        "demand_function.csv",
        "demand_family.csv",
        "demand_region.csv",
        "demand_scientist.csv",
        "demand_engineer.csv",
        "demand_technician.csv",
        "demand_operational_support.csv",
        "employers.csv",
        "employer_mapping.csv",
        "ledger.csv",
        "cross_region.csv",
    ]
    manifest = _manifest(out / "manifest.txt")
    for name in expected:
        assert f"artifact.{name}.sha256" in manifest, name
    # Every artifact the manifest references exists, is non-empty, and
    # hashes to the recorded digest.
    referenced = [k for k in manifest if k.startswith("artifact.")]
    assert referenced
    for key in referenced:
        name = key[len("artifact.") : -len(".sha256")]
        path = out / name
        assert path.exists() and path.stat().st_size > 0, name
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest[key] == digest, name
    stdout = capsys.readouterr().out
    assert "technician:engineer" in stdout


def test_report_end_to_end_deterministic(tmp_path, fixture_corpus):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["report", "--input", *fixture_corpus, "--out", str(out_a)]) == 0
    assert main(["report", "--input", *fixture_corpus, "--out", str(out_b)]) == 0
    assert (out_a / "manifest.txt").read_bytes() == (out_b / "manifest.txt").read_bytes()
    for path_a in out_a.iterdir():
        if path_a.name == "manifest.txt":
            continue
        assert path_a.read_bytes() == (out_b / path_a.name).read_bytes(), path_a.name


def test_report_text_format(tmp_path, fixture_corpus):
    out = tmp_path / "text"
    rc = main(["report", "--input", *fixture_corpus, "--out", str(out), "--format", "text"])
    assert rc == 0
    assert (out / "funnel.txt").exists()
    assert (out / "demand_function.txt").exists()
    assert (out / "employers.txt").exists()
    content = (out / "demand_function.txt").read_text(encoding="utf-8")
    assert "TOTAL" in content


def test_config_file_and_flag_override(tmp_path, fixture_corpus):
    config = tmp_path / "jobpulse.conf"
    config.write_text("industry_token = semiconductor\nformat = text\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(
        [
            "report",
            "--config",
            str(config),
            "--input",
            *fixture_corpus,
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    manifest = _manifest(out / "manifest.txt")
    assert manifest["config.format"] == "csv"  # flag wins over file
    assert manifest["config.industry_token"] == "semiconductor"


def test_env_config_fallback(tmp_path, fixture_corpus, monkeypatch):
    config = tmp_path / "env.conf"
    config.write_text("min_count = 5\n", encoding="utf-8")
    monkeypatch.setenv("JOBPULSE_CONFIG", str(config))
    out = tmp_path / "out"
    rc = main(["discover", "--input", *fixture_corpus, "--out", str(out)])
    assert rc == 0
    manifest = _manifest(out / "manifest.txt")
    assert manifest["config.min_count"] == "5"


def test_unknown_config_key_exits_1(tmp_path, fixture_corpus, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("mystery = value\n", encoding="utf-8")
    rc = main(["report", "--config", str(config), "--input", *fixture_corpus, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = main(["report", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "\n" not in err.strip()


def test_bad_flag_exits_1(capsys):
    assert main(["report", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_regions_flag_exits_1(tmp_path, fixture_corpus):
    rc = main(["report", "--input", *fixture_corpus, "--out", str(tmp_path / "o"), "--regions", "XX"])
    assert rc == 1


def test_hyphenated_industry_token_exits_1_before_writing(tmp_path, fixture_corpus, capsys):
    out = tmp_path / "o"
    rc = main(["report", "--input", *fixture_corpus, "--out", str(out), "--industry-token", "semi-conductor"])
    assert rc == 1
    assert "industry token must be a single token, got 'semi-conductor'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_region_subset_restricts_scope(tmp_path, fixture_corpus):
    out = tmp_path / "la_only"
    rc = main(["ingest", "--input", *fixture_corpus, "--out", str(out), "--regions", "LA"])
    assert rc == 0
    manifest = _manifest(out / "manifest.txt")
    assert int(manifest["count.postings_out_of_scope"]) > 0
    total = int(manifest["count.postings_ingested"]) + int(manifest["count.postings_out_of_scope"])
    assert total == 120


def test_bad_plant_spec_exits_1(tmp_path, capsys):
    rc = main(["synth", "--plant", "no-count", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "plant" in capsys.readouterr().err


def test_synth_rejects_region_subset_flag(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["synth", "--regions", "SB", "--n-postings", "10", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synth always writes regions LA,SB,SD") and err.count("\n") == 1
    assert not out.exists()


def test_synth_rejects_window_from_config_file(tmp_path, capsys):
    config = tmp_path / "jobpulse.conf"
    config.write_text("window_start = 2026-01-01\nwindow_end = 2026-02-01\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["synth", "--config", str(config), "--n-postings", "10", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synth always writes regions LA,SB,SD dated 2025-") and err.count("\n") == 1
    assert not out.exists()


# The settings each subcommand does not read, written out by hand: it has no
# flag for them, does not check them and does not record them.
_UNREAD_SETTINGS = {
    "ingest": ("taxonomy", "dictionary", "industry_token", "filter_mode", "format", "min_count", "top_k"),
    "match": ("dictionary", "format", "min_count", "top_k"),
    "dedup": ("dictionary", "format", "min_count", "top_k"),
    "disambiguate": ("taxonomy", "format", "min_count", "top_k"),
    "discover": ("dictionary", "format", "top_k"),
    "report": ("min_count",),
    "synth": ("dictionary", "filter_mode", "format", "min_count", "top_k"),
}
# setting -> (a value that parses but fails the setting's check, the start of its message)
_FAILING_VALUES = {
    "taxonomy": ("{tmp}/missing/tax.csv", "taxonomy file not found: "),
    "dictionary": ("{tmp}/missing/words.txt", "dictionary file not found: "),
    "industry_token": ("semi-conductor", "industry token must be a single token"),
    "filter_mode": ("every_field", "filter_mode must be one of "),
    "format": ("xml", "format must be csv or text"),
    "min_count": ("0", "min_count must be positive"),
    "top_k": ("0", "top_k must be positive"),
}
_FLAG_VALUES = {
    "taxonomy": "tax.csv",
    "dictionary": "words.txt",
    "industry_token": "wafer",
    "filter_mode": "all_fields",
    "format": "text",
    "min_count": "4",
    "top_k": "4",
}


def _source_args(subcommand: str, tmp_path: Path) -> list[str]:
    """What the subcommand reads from: a few generated postings for synth, a clean posting file for the rest."""
    if subcommand == "synth":
        return ["--n-postings", "10"]
    path = tmp_path / "postings.jsonl"
    write_jsonl(path, [make_record(job_id="J1", title="Design Engineer", job_description="semiconductor fab")])
    return ["--input", str(path)]


@pytest.mark.parametrize(
    "subcommand, key", [(name, key) for name, keys in _UNREAD_SETTINGS.items() for key in keys]
)
def test_subcommand_has_no_flags_for_settings_it_ignores(tmp_path, capsys, subcommand, key):
    flag, value = "--" + key.replace("_", "-"), _FLAG_VALUES[key]
    out = tmp_path / "o"
    rc = main([subcommand, flag, value, *_source_args(subcommand, tmp_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand", list(_UNREAD_SETTINGS))
def test_subcommand_ignores_unread_settings_that_would_fail_their_checks(tmp_path, capsys, subcommand):
    # A config file shared between subcommands may hold values only another one can use.
    config = tmp_path / "jobpulse.conf"
    unread = _UNREAD_SETTINGS[subcommand]
    lines = [f"{key} = {_FAILING_VALUES[key][0].format(tmp=tmp_path)}\n" for key in unread]
    config.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "o"
    source = _source_args(subcommand, tmp_path)
    assert main([subcommand, "--config", str(config), *source, "--out", str(out)]) == 0
    assert (out / "manifest.txt").is_file()
    # Each value fails the check of a subcommand that reads it.
    postings = _source_args("report", tmp_path)
    for key, line in zip(unread, lines):
        config.write_text(line, encoding="utf-8")
        reader = "discover" if key == "min_count" else "report"
        capsys.readouterr()
        assert main([reader, "--config", str(config), *postings, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {_FAILING_VALUES[key][1]}")
        assert not (tmp_path / "r").exists()
    # An unread value that does not parse still fails every subcommand.
    key = next(key for key in ("min_count", "top_k") if key in unread)
    config.write_text(f"{key} = many\n", encoding="utf-8")
    assert main([subcommand, "--config", str(config), *source, "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == f"error: {key} must be an integer, got 'many'\n"
    assert not (tmp_path / "bad").exists()


def test_synth_still_parses_every_config_key(tmp_path, capsys):
    config = tmp_path / "jobpulse.conf"
    config.write_text("min_count = many\n", encoding="utf-8")
    rc = main(["synth", "--config", str(config), "--n-postings", "10", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: min_count must be an integer, got 'many'\n"


# The config.* lines each subcommand's manifest records, written out by hand.
_SCOPE_RECORDED = ["config.regions", "config.window_end", "config.window_start"]
_MATCH_RECORDED = sorted(
    ["config.filter_mode", "config.industry_token", "config.taxonomy", "config.taxonomy.sha256", *_SCOPE_RECORDED]
)
_RECORDED = {
    "ingest": _SCOPE_RECORDED,
    "match": _MATCH_RECORDED,
    "dedup": _MATCH_RECORDED,
    "disambiguate": [
        "config.dictionary",
        "config.dictionary.sha256",
        "config.filter_mode",
        "config.industry_token",
        *_SCOPE_RECORDED,
    ],
    "discover": sorted([*_MATCH_RECORDED, "config.min_count"]),
    "report": sorted(
        [*_MATCH_RECORDED, "config.dictionary", "config.dictionary.sha256", "config.format", "config.top_k"]
    ),
    "synth": ["config.industry_token", "config.regions", "config.taxonomy", "config.taxonomy.sha256",
              "config.window_end", "config.window_start"],
}


@pytest.mark.parametrize("subcommand", list(_RECORDED))
def test_manifest_records_only_settings_the_subcommand_reads(tmp_path, subcommand):
    # Keys a subcommand does not read may sit in a shared config file; they are not recorded.
    config = tmp_path / "jobpulse.conf"
    config.write_text(
        f"taxonomy = {DEFAULT_TAXONOMY}\ndictionary = {DEFAULT_DICTIONARY}\nindustry_token = wafer\n"
        "filter_mode = all_fields\nregions = LA,SB,SD\nwindow_start = 2025-03-15\nwindow_end = 2025-06-04\n"
        "format = text\nmin_count = 7\ntop_k = 9\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert main([subcommand, "--config", str(config), *_source_args(subcommand, tmp_path), "--out", str(out)]) == 0
    manifest = _manifest(out / "manifest.txt")
    recorded = sorted(key for key in manifest if key.startswith("config."))
    assert recorded == _RECORDED[subcommand]
    if "config.industry_token" in recorded:
        assert manifest["config.industry_token"] == "wafer"
    block = "".join(f"{key} = {manifest[key]}\n" for key in recorded)
    assert manifest["config_hash"] == hashlib.sha256(block.encode("utf-8")).hexdigest()


def test_report_on_empty_corpus(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["report", "--input", str(empty), "--out", str(out)])
    assert rc == 0
    manifest = _manifest(out / "manifest.txt")
    assert manifest["count.demand_units"] == "0"
    funnel = (out / "funnel.csv").read_text(encoding="utf-8")
    assert "raw_observations,0" in funnel


def test_report_when_nothing_matches(tmp_path):
    path = tmp_path / "nomatch.jsonl"
    write_jsonl(
        path,
        [make_record(job_id=f"J{i}", title="Greeter", job_description="semiconductor floor work")
         for i in range(3)],
    )
    out = tmp_path / "out"
    rc = main(["report", "--input", str(path), "--out", str(out)])
    assert rc == 0
    manifest = _manifest(out / "manifest.txt")
    assert manifest["count.demand_units"] == "0"
    assert manifest["count.filtered_observations"] == "0"


def test_report_counts_the_unit_of_a_token_less_employer_name_under_no_employer(tmp_path, capsys):
    # canonicalize rejects a name that normalizes to nothing: its unit stays
    # in the demand tables and is left out of the employer statistics.
    path = tmp_path / "nameless.jsonl"
    work = {"title": "Design Engineer", "job_description": "semiconductor design work"}
    write_jsonl(path, [make_record(job_id="J1", employer_name="Apex Labs", **work),
                       make_record(job_id="J2", employer_name="!!!", **work)])
    out = tmp_path / "out"
    assert main(["report", "--input", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "WARNING jobpulse.employers: employer name '!!!' normalizes to nothing; excluded\n"
    assert "1 employers, mean 1.0 units each" in captured.out
    manifest = _manifest(out / "manifest.txt")
    written = {key.split(".", 1)[1].rsplit(".", 1)[0] for key in manifest if key.startswith("artifact.")}
    assert written == {p.name for p in out.iterdir()} - {"manifest.txt"} and len(written) == 13
    assert (manifest["count.demand_units"], manifest["count.employer_names_rejected"]) == ("2", "1")
    assert (manifest["count.employers_raw"], manifest["count.employers_canonical"]) == ("1", "1")
    assert "TOTAL,2.0,0.0,0.0,2.0,2,1" in (out / "demand_function.csv").read_text(encoding="utf-8")
    employers_csv = (out / "employers.csv").read_text(encoding="utf-8")
    assert employers_csv == "canonical_name,units,units_num,units_den,share_pct\napex labs,1.0,1,1,100.0%\n"


# -- config keys: file, flags, manifest ---------------------------------------

# key, flag, subcommand that has the flag, file value, flag value, whether
# argparse accepts an empty flag (an accepted empty flag is ignored), and a bad
# file value with its error message.
_CONFIG_KEYS = [
    ("taxonomy", "--taxonomy", "discover", "{tmp}/tax_file.csv", "{tmp}/tax_flag.csv", True, None),
    ("dictionary", "--dictionary", "disambiguate", "{tmp}/dict_file.txt", "{tmp}/dict_flag.txt", True, None),
    ("industry_token", "--industry-token", "discover", "wafer", "fab", True, None),
    ("filter_mode", "--filter-mode", "discover", "all_fields", "any_field", False, None),
    ("regions", "--regions", "discover", "SB,LA", "SD", True,
     ("XX", "unknown region 'XX': expected one of LA, SB, SD")),
    ("window_start", "--window-start", "discover", "2025-03-20", "2025-03-25", True,
     ("2025-13-01", "window_start must be YYYY-MM-DD, got '2025-13-01'")),
    ("window_end", "--window-end", "discover", "2025-06-01", "2025-05-30", True,
     ("June", "window_end must be YYYY-MM-DD, got 'June'")),
    ("out_dir", "--out", "discover", "{tmp}/out_file", "{tmp}/out_flag", True, None),
    ("format", "--format", "report", "text", "csv", False, None),
    ("min_count", "--min-count", "discover", "4", "6", False, ("x", "min_count must be an integer, got 'x'")),
    ("top_k", "--top-k", "report", "4", "6", False, ("2.5", "top_k must be an integer, got '2.5'")),
]


@pytest.mark.parametrize("row", _CONFIG_KEYS, ids=[row[0] for row in _CONFIG_KEYS])
def test_config_key_file_flag_and_manifest(tmp_path, row, capsys):
    key, flag, subcommand, file_value, flag_value, empty_accepted, bad = row
    file_value = file_value.format(tmp=tmp_path)
    flag_value = flag_value.format(tmp=tmp_path)
    for name in ("tax_file.csv", "tax_flag.csv"):
        (tmp_path / name).write_bytes(DEFAULT_TAXONOMY.read_bytes())
    for name in ("dict_file.txt", "dict_flag.txt"):
        (tmp_path / name).write_bytes(DEFAULT_DICTIONARY.read_bytes())
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    config = tmp_path / "jobpulse.conf"
    default_out = tmp_path / "out_default"

    def run(*flags: str, value: str = file_value) -> int:
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        args = [subcommand, "--config", str(config), "--input", str(empty), *flags]
        if key != "out_dir":
            args += ["--out", str(default_out)]
        return main(args)

    def manifest_value(out: Path):
        manifest = _manifest(out / "manifest.txt")
        assert not any(k.startswith("config.out") for k in manifest)
        return manifest.get(f"config.{key}")

    # out_dir is not in the manifest; where the run writes shows its value.
    if key == "out_dir":
        file_out, flag_out = Path(file_value), Path(flag_value)
        file_value_seen = flag_value_seen = None
    else:
        file_out = flag_out = default_out
        file_value_seen, flag_value_seen = file_value, flag_value

    # The file value reaches the manifest.
    assert run() == 0, capsys.readouterr().err
    assert manifest_value(file_out) == file_value_seen
    shutil.rmtree(file_out)

    # A flag beats the file value.
    assert run(flag, flag_value) == 0, capsys.readouterr().err
    assert manifest_value(flag_out) == flag_value_seen
    assert not file_out.exists() or file_out == flag_out

    # An empty flag is ignored where argparse accepts it, rejected otherwise.
    capsys.readouterr()
    rc = run(flag, "")
    if empty_accepted:
        assert rc == 0, capsys.readouterr().err
        assert manifest_value(file_out) == file_value_seen
    else:
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: argument ")

    # A bad file value exits 1 with a one-line message.
    if bad is not None:
        bad_value, message = bad
        capsys.readouterr()
        assert run(value=bad_value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["20250315", "2025-W23-3"])
@pytest.mark.parametrize("key", ["window_start", "window_end"])
def test_window_dates_other_than_ascii_iso_exit_1(tmp_path, fixture_corpus, capsys, key, value):
    # date.fromisoformat takes both forms from Python 3.11 on; the window does on no version.
    config = tmp_path / "jobpulse.conf"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    for given in (["--config", str(config)], [flag, value]):
        capsys.readouterr()
        assert main(["ingest", "--input", *fixture_corpus, *given, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key} must be YYYY-MM-DD, got {value!r}\n"
        assert not out.exists()


def test_artifacts_identical_across_hash_seeds(tmp_path):
    """synth + report in fresh processes give the same bytes under any PYTHONHASHSEED.

    Terms and families hash by address, so this also checks that no output
    follows the iteration order of a set or dict keyed by them.
    """
    dirs = [tmp_path / name for name in ("fixture", "repeats", "out", "text")]
    fixture, repeats, out, text = dirs
    inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
    repeat_inputs = [str(repeats / f"{r.value.lower()}.jsonl") for r in Region]
    src = str(Path(jobpulse.__file__).parents[1])
    snapshots = []
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        for args in (
            ["synth", "--n-postings", "3000", "--out", str(fixture)],
            ["synth", "--n-postings", "3000", "--cross-region-repeats", "25", "--out", str(repeats)],
            ["report", "--input", *inputs, "--out", str(out)],
            ["report", "--format", "text", "--input", *repeat_inputs, "--out", str(text)],
        ):
            subprocess.run([sys.executable, "-m", "jobpulse.cli", *args], env=env, check=True, capture_output=True)
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        snapshots.append({p.relative_to(tmp_path).as_posix(): p.read_bytes() for p in files})
        for directory in dirs:
            shutil.rmtree(directory)
    assert "out/manifest.txt" in snapshots[0] and "out/ledger.csv" in snapshots[0]
    assert "text/demand_family.txt" in snapshots[0] and snapshots[0]["text/cross_region.csv"].count(b"\n") > 25
    for snapshot in snapshots[1:]:
        assert snapshot.keys() == snapshots[0].keys()
        for name, content in snapshot.items():
            assert content == snapshots[0][name], name


def test_report_artifact_hashes_pinned(tmp_path, capsys):
    # Every artifact of `report` on the default synth fixture, byte for byte.
    # manifest.txt is left out: it records the input paths.
    fixture, out = tmp_path / "fixture", tmp_path / "out"
    assert main(["synth", "--out", str(fixture)]) == 0
    inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
    assert main(["report", "--input", *inputs, "--out", str(out)]) == 0
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir() if p.name != "manifest.txt"
    }
    assert hashes == {
        "cross_region.csv": "2ddc7b15b27c035461fb1a73132d080f655e4e12d8b6d9dddd12d6b1f657a769",
        "demand_engineer.csv": "3713c0a49ca0e95e3ac32def78020935e72a545bd85ff12d2f33e25fc808ee99",
        "demand_family.csv": "2fe6b3e996dcb1bd5508e139ead9108d831d159c07d536bb29c126a4240455a9",
        "demand_function.csv": "81f7a710828771bf7c977921409cede4a909e312774261a51dacab5d1012d78d",
        "demand_operational_support.csv": "c096c6aad85216a4a09a9ee7b93d3d2652b331986bf223a65ebfc90e3c09e081",
        "demand_region.csv": "5e532a5f58a35d3353501ed274eae7b592a6d3cc25e0cf3fcaed98ab425baab6",
        "demand_scientist.csv": "3edd27a224dd68754c65d5a4d099cf570da4b2c43c79c3db42d05025bd011a8a",
        "demand_technician.csv": "2ba6aacfcfb96937f3ed44082df99b22cbb6759d3acb216070f821a693f8290e",
        "diagnostics.csv": "e4a4d6e9381a5631088c8c4c472c27c3cd619b115e760ec71e260687529e5e9e",
        "employer_mapping.csv": "6087f1e8b94daaba1f46c318b2f928f6326b9ff5ff56522eb80caebe2d2e79ae",
        "employers.csv": "5b2fd45de460fdd4a9a4e1fb947b6a84f540e7c9d9d0203f7bbbb44a343f277c",
        "funnel.csv": "2ee5ff08a7b96084f75d22bcbd7f3a562ea407146f5dd2864e77a4ac61092f65",
        "ledger.csv": "1e074691291d9b1c499c3b1c1094cdcf9bcc3be59ee258c5e1723cbbb17a4ad7",
    }
    capsys.readouterr()


def _python_output(code: str, *args: str, cwd=None) -> tuple[str, str]:
    """The standard output and standard error of ``code`` run by a new interpreter that imports this jobpulse."""
    src = str(Path(jobpulse.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        cwd=cwd,
        check=True,
        capture_output=True,
        encoding="utf-8",
    )
    return result.stdout, result.stderr


def test_importing_the_cli_leaves_synth_unloaded():
    # Each subcommand imports the modules it runs when it is called, so the CLI starts without them.
    stdout, _ = _python_output("import json, sys, jobpulse.cli; print(json.dumps(list(sys.modules)))")
    loaded = set(json.loads(stdout))
    stages = {f"jobpulse.{name}" for name in ("dedup", "employers", "matcher", "report", "taxonomy", "synth")}
    assert not loaded & stages
    assert not loaded & {"fractions", "decimal", "dataclasses"}


# Runs the CLI on argv with corpus.content_lines spied on, then prints the
# exit code, the jobpulse modules loaded when the first input line was read,
# and every module loaded at the end.
_SPIED_RUN = """
import json, sys
from jobpulse import cli, corpus

at_first_line = []
content_lines = corpus.content_lines

def spy(path, kind):
    for item in content_lines(path, kind):
        if not at_first_line:
            at_first_line.extend(sorted(name for name in sys.modules if name.startswith("jobpulse.")))
        yield item

corpus.content_lines = spy
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, at_first_line, list(sys.modules)]))
"""


def test_ingest_reads_its_input_before_it_loads_the_writers(tmp_path):
    path = tmp_path / "postings.jsonl"
    write_jsonl(path, [make_record(job_id="J1"), "not json", make_record(job_id="J2", region="SD")])
    out = tmp_path / "out"
    stdout, stderr = _python_output(_SPIED_RUN, "ingest", "--input", str(path), "--out", str(out), cwd=tmp_path)
    summary, result = stdout.splitlines()
    rc, at_first_line, loaded = json.loads(result)
    assert (rc, summary) == (2, "ingested 2 postings, rejected 1 records")
    assert stderr == "WARNING jobpulse.corpus: rejected 1 of 3 input records\n"
    assert at_first_line == ["jobpulse.cli", "jobpulse.corpus", "jobpulse.errors"]
    stages = {f"jobpulse.{name}" for name in ("dedup", "employers", "matcher", "taxonomy")}
    assert "jobpulse.report" in loaded and not set(loaded) & (stages | {"dataclasses", "inspect"})
    assert (out / "diagnostics.csv").read_text(encoding="utf-8").count("\n") == 2
    assert _manifest(out / "manifest.txt")["count.postings_ingested"] == "2"


def test_report_prints_each_warning_to_stderr(tmp_path):
    # A title that repeats a family's phrase, a rejected record and an
    # employer name with no tokens: one line each, in the order the run meets them.
    taxonomy = write_taxonomy_csv(
        tmp_path / "collide.csv",
        [
            ("Engineer", "packaging engineer", ""),
            ("Engineer", "design engineer", ""),
            ("Engineer", "design engineer", "packaging engineer"),
        ],
    )
    path = tmp_path / "postings.jsonl"
    work = {"title": "Design Engineer", "job_description": "semiconductor design work"}
    write_jsonl(path, [make_record(job_id="J1", employer_name="Apex Labs", **work), "not json",
                       make_record(job_id="J2", employer_name="!!!", **work)])
    argv = ["report", "--input", str(path), "--taxonomy", taxonomy, "--out", str(tmp_path / "out")]
    stdout, stderr = _python_output(_SPIED_RUN, *argv, cwd=tmp_path)
    assert json.loads(stdout.splitlines()[-1])[0] == 2
    assert stderr == (
        f"WARNING jobpulse.taxonomy: {taxonomy}: phrase 'packaging engineer' used as both family and title: "
        "family takes precedence, removed as a title in family 'design engineer'\n"
        "WARNING jobpulse.corpus: rejected 1 of 3 input records\n"
        "WARNING jobpulse.employers: employer name '!!!' normalizes to nothing; excluded\n"
    )


@pytest.mark.parametrize(
    ("subcommand", "summary", "first_line", "later"),
    [
        # employers and matcher name DemandLedger, Jst and Taxonomy only in annotations.
        ("disambiguate", "disambiguated 2 raw employer names into 2",
         ("cli", "corpus", "employers", "errors", "matcher", "report"), ()),
        # The first line read is the taxonomy's; report is loaded at the first write.
        ("match", "matched 0 of 2 postings", ("cli", "corpus", "errors", "matcher", "taxonomy"), ("report",)),
    ],
    ids=["disambiguate", "match"],
)
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, subcommand, summary, first_line, later):
    path = tmp_path / "postings.jsonl"
    kept = {"employer_description": "a semiconductor maker"}
    write_jsonl(path, [make_record(job_id="J1", **kept), make_record(job_id="J2", employer_name="Beta Labs", **kept)])
    out = tmp_path / "out"
    stdout, _ = _python_output(_SPIED_RUN, subcommand, "--input", str(path), "--out", str(out), cwd=tmp_path)
    printed, result = stdout.splitlines()
    rc, at_first_line, loaded = json.loads(result)
    assert (rc, printed) == (0, summary)
    assert at_first_line == [f"jobpulse.{name}" for name in first_line]
    assert {name for name in loaded if name.startswith("jobpulse.")} == {f"jobpulse.{name}" for name in first_line + later}


def test_no_subcommand_loads_openssl(tmp_path):
    # corpus.sha256 is CPython's built-in SHA-256, so no run maps OpenSSL's libcrypto for a hash;
    # errors.warn prints the warnings, so no run imports logging either.
    fixture = tmp_path / "fixture"
    runs = [["synth", "--seed", "5", "--n-postings", "60", "--out", str(fixture)]]
    inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
    for name in ("ingest", "disambiguate", "discover", "match", "dedup", "report"):
        runs.append([name, "--input", *inputs, "--out", str(tmp_path / name)])
    for argv in runs:
        rc, _, loaded = json.loads(_python_output(_SPIED_RUN, *argv, cwd=tmp_path)[0].splitlines()[-1])
        assert rc == 0 and not {"hashlib", "_hashlib", "logging"} & set(loaded), argv[0]
        assert (Path(argv[-1]) / "manifest.txt").is_file()


# Runs the CLI on argv with the built-in SHA-256 modules blocked, so corpus
# falls back to hashlib's; prints whether it did and the exit code.
_HASHLIB_FALLBACK_RUN = """
import json, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
import hashlib
from jobpulse import cli, corpus

rc = cli.main(sys.argv[1:])
print(json.dumps([corpus.sha256 is hashlib.sha256, rc]))
"""


@pytest.mark.parametrize("subcommand", ["ingest", "report"])
def test_hashlib_fallback_writes_the_same_manifest(fixture_corpus, tmp_path, subcommand):
    fallback, builtin = tmp_path / "fallback", tmp_path / "builtin"
    argv = [subcommand, "--input", *fixture_corpus, "--out"]
    result = _python_output(_HASHLIB_FALLBACK_RUN, *argv, str(fallback), cwd=tmp_path)[0].splitlines()[-1]
    assert json.loads(result) == [True, 0]
    assert main([*argv, str(builtin)]) == 0
    assert (fallback / "manifest.txt").read_bytes() == (builtin / "manifest.txt").read_bytes()


def test_corpus_sha256_equals_hashlib_sha256():
    assert corpus_mod.sha256.__module__ in {"_sha256", "_sha2"}  # the built-in, on CPython 3.10-3.13
    assert corpus_mod.sha256().hexdigest() == hashlib.sha256().hexdigest()
    data = bytes(range(256)) * 256 + b"x"  # 64 KiB + 1: one full hash-read chunk and one byte more
    ours, theirs = corpus_mod.sha256(), hashlib.sha256()
    for digest in (ours, theirs):
        digest.update(data[: 1 << 16])
        digest.update(data[1 << 16 :])
    assert ours.hexdigest() == theirs.hexdigest() == hashlib.sha256(data).hexdigest()


def test_manifest_identical_across_checkouts(tmp_path):
    """The same run from two copies of the package writes the same manifest."""
    package = Path(jobpulse.__file__).parent
    fixture = tmp_path / "fixture"
    assert main(["synth", "--seed", "3", "--n-postings", "200", "--out", str(fixture)]) == 0
    inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
    manifests = []
    for checkout in ("a", "b"):
        src = tmp_path / checkout / "src"
        shutil.copytree(package, src / "jobpulse", ignore=shutil.ignore_patterns("__pycache__"))
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("JOBPULSE_CONFIG", None)
        subprocess.run(
            [sys.executable, "-m", "jobpulse.cli", "report", "--input", *inputs, "--out", str(out)],
            env=env, cwd=tmp_path, check=True, capture_output=True,
        )
        manifests.append((out / "manifest.txt").read_bytes())
        shutil.rmtree(out)
    assert manifests[0] == manifests[1]
    manifest = _manifest_text(manifests[0].decode("utf-8"))
    assert manifest["config.taxonomy"] == "bundled:taxonomy.csv"
    assert manifest["config.dictionary"] == "bundled:name_dictionary.txt"
    assert manifest["config.taxonomy.sha256"] == hashlib.sha256(DEFAULT_TAXONOMY.read_bytes()).hexdigest()
    assert manifest["config.dictionary.sha256"] == hashlib.sha256(DEFAULT_DICTIONARY.read_bytes()).hexdigest()


def test_manifest_records_given_data_file_path_and_hash(tmp_path, fixture_corpus):
    taxonomy = tmp_path / "my_taxonomy.csv"
    taxonomy.write_bytes(DEFAULT_TAXONOMY.read_bytes() + b"# local copy\n")
    out = tmp_path / "out"
    assert main(["report", "--input", *fixture_corpus, "--taxonomy", str(taxonomy), "--out", str(out)]) in (0, 2)
    manifest = _manifest(out / "manifest.txt")
    assert manifest["config.taxonomy"] == str(taxonomy)
    assert manifest["config.taxonomy.sha256"] == hashlib.sha256(taxonomy.read_bytes()).hexdigest()
    assert manifest["config.dictionary"] == "bundled:name_dictionary.txt"


def _dirty_lines(n_good: int) -> list:
    """n_good valid records followed by one reject of each kind per 50 of them."""
    lines = [make_record(job_id=f"J{i}", title="Design Engineer") for i in range(n_good)]
    for i in range(n_good // 50):
        lines += [
            "not json",
            make_record(job_id=f"J{i}"),
            make_record(job_id=f"B{i}", region="NY"),
            make_record(job_id=f"X{i}", extra="x"),
            {"job_id": f"M{i}"},
        ]
    return lines


def test_pipeline_leaves_no_reference_cycles(tmp_path, capsys):
    """Runs free their data by reference counting alone: the cyclic collector
    finds no more garbage after a large run than after a small one, so running
    without it cannot grow memory with the input."""

    def leftover_after(argv) -> int:
        gc.collect()
        assert main(argv) in (0, 2)
        return gc.collect()

    runs = {}
    for size in (300, 500, 2000):
        fixture = tmp_path / f"fixture{size}"
        assert main(["synth", "--seed", "5", "--n-postings", str(size), "--out", str(fixture)]) == 0
        dirty = tmp_path / f"dirty{size}.jsonl"
        write_jsonl(dirty, _dirty_lines(size))
        inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
        runs[size] = [
            ["report", "--input", *inputs, "--out", str(tmp_path / f"report{size}")],
            ["ingest", "--input", str(dirty), "--out", str(tmp_path / f"ingest{size}")],
        ]
    for argv in runs.pop(300):  # warm-up: first-use caches of the interpreter and the stdlib
        leftover_after(argv)
    small, large = ([leftover_after(argv) for argv in argvs] for argvs in runs.values())
    assert small == large
    capsys.readouterr()


def test_main_runs_without_cyclic_gc_and_restores_its_state(tmp_path, fixture_corpus, monkeypatch, capsys):
    seen = []
    iter_postings = corpus_mod.iter_postings

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return iter_postings(*args, **kwargs)

    monkeypatch.setattr(corpus_mod, "iter_postings", spy)
    dirty = tmp_path / "dirty.jsonl"
    write_jsonl(dirty, [make_record(), "not json"])
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            for argv, rc in (
                (["ingest", "--input", *fixture_corpus, "--out", str(tmp_path / "ok")], 0),
                (["ingest", "--input", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "x")], 1),
                (["ingest", "--input", str(dirty), "--out", str(tmp_path / "dirty")], 2),
            ):
                assert main(argv) == rc
                assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False] * 4
    capsys.readouterr()


def _messy_inputs(tmp_path) -> list[str]:
    """Two CRLF files: out-of-scope and off-industry postings, rejects of
    several reasons, a (job_id, region) repeated across the files, awkward
    employer names and one cross-region content group."""
    fab = "etch engineer for a semiconductor fab"
    first = [
        "# exported 2025-04-02",
        make_record(job_id="J1", title="Etch Engineer", job_description=fab),
        make_record(job_id="J2", title="Etch Engineer", job_description=fab, region="SB"),
        make_record(job_id="J3", title="Etch Engineer", job_description=fab, region="SD"),
        make_record(job_id="J4", title="Process Technician", job_description="process technician, day shift"),
        make_record(job_id="J5", title="Analog Design Engineer", job_description="design engineer; semiconductor",
                    employer_name='Foo, "Bar" Inc', region="SB"),
        make_record(job_id="J6", title="Greeter", job_description="semiconductor lobby", employer_name="Zeta"),
        "not json",
        {"job_id": "M1"},
        make_record(job_id="B1", region="NY"),
        make_record(job_id="X1", extra="x"),
        make_record(job_id="D1", retrieved_at="2024-01-01"),
        make_record(job_id=""),
        "",
        make_record(job_id="J7", title="Design Engineer", job_description="semiconductor design engineer",
                    employer_name="Société Générale\nSemi", region="SB"),
    ]
    second = [
        make_record(job_id="J1", title="Etch Engineer", job_description=fab),
        make_record(job_id="J1", title="Etch Engineer", job_description=fab, region="SB"),
        make_record(job_id="J8", title="Technician", job_description="etch engineer", region="LA",
                    employer_description="Semiconductor equipment maker", employer_name="Acme Devices Inc"),
        make_record(job_id="J9", title="Etch Engineer", job_description=fab, region="SD"),
        make_record(job_id="J10", title="Process Technician", job_description="process technician, semiconductor",
                    region="SB"),
    ]
    for name, lines in (("first.jsonl", first), ("second.jsonl", second)):
        write_jsonl(tmp_path / name, lines)
        (tmp_path / name).write_bytes((tmp_path / name).read_bytes().replace(b"\n", b"\r\n"))
    return ["first.jsonl", "second.jsonl"]


def test_report_and_dedup_pinned_on_messy_input(tmp_path, monkeypatch, capsys):
    # Every artifact and count of report (both formats) and dedup on a scope
    # subset of messy input, byte for byte. Relative paths keep the
    # diagnostics and the summaries free of the temporary directory.
    monkeypatch.chdir(tmp_path)
    inputs = _messy_inputs(tmp_path)
    pinned = {}
    for argv in (["report"], ["report", "--format", "text"], ["dedup"]):
        out = tmp_path / "_".join(argv)
        assert main([*argv, "--input", *inputs, "--regions", "LA,SB", "--out", out.name]) == 2
        manifest = _manifest(out / "manifest.txt")
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in out.iterdir()}
        del files["manifest.txt"]
        counts = {key: value for key, value in manifest.items() if key.startswith("count.")}
        pinned[" ".join(argv)] = (files, counts, capsys.readouterr().out)
    report_counts = {
        "count.cross_region_groups": "1",
        "count.demand_units": "7",
        "count.employer_names_rejected": "0",
        "count.employers_canonical": "3",
        "count.employers_raw": "4",
        "count.filtered_observations": "8",
        "count.postings_ingested": "9",
        "count.postings_out_of_scope": "2",
        "count.raw_observations": "9",
        "count.records_rejected": "7",
    }
    shared = {
        "cross_region.csv": "77c080d91456832f",
        "diagnostics.csv": "8ccc262477d519a9",
        "employer_mapping.csv": "27c4f34b44e6c541",
        "ledger.csv": "7b38610c929baba3",
    }
    summary = (
        "stage                   count  reduction\n"
        "raw_observations            9  -\n"
        "industry_filtered           8  11.1%\n"
        "dedup_units                 7  12.5%\n"
        "technician:engineer = 0.17 (1:6)\n"
        "3 employers, mean 2.3 units each, top 3 hold 100.0%\n"
        "artifacts written to "
    )
    assert pinned == {
        "dedup": (
            {name: shared[name] for name in ("cross_region.csv", "diagnostics.csv", "ledger.csv")},
            {k: v for k, v in report_counts.items() if "employer" not in k},
            "7 demand units from 8 observations\n",
        ),
        "report": (
            {
                **shared,
                "demand_engineer.csv": "5d7a01999e66def4",
                "demand_family.csv": "07d7bc2a69d8781f",
                "demand_function.csv": "72da5dbec2542d19",
                "demand_operational_support.csv": "2b23401a095189aa",
                "demand_region.csv": "c5ce9fcb41683c2d",
                "demand_scientist.csv": "f760494fb90fe82a",
                "demand_technician.csv": "3fd5dd845c02db23",
                "employers.csv": "4cb2c16386e30adb",
                "funnel.csv": "b090ec723d9e951f",
            },
            report_counts,
            summary + "report\n",
        ),
        "report --format text": (
            {
                **shared,
                "demand_engineer.txt": "9aaf95197d1c5daa",
                "demand_family.txt": "7446ddc671d0ed5a",
                "demand_function.txt": "35433c5ec22ca5a6",
                "demand_operational_support.txt": "7f05ea1a73ecf897",
                "demand_region.txt": "a602c077afd339c5",
                "demand_scientist.txt": "c9e52e53e4ecfa28",
                "demand_technician.txt": "0f4c70a877f4d38b",
                "employers.txt": "cba23828466f3cea",
                "funnel.txt": "4a1986d8d9af6264",
            },
            report_counts,
            summary + "report_--format_text\n",
        ),
    }


@pytest.mark.parametrize("regions", ["LA,SB,SD", "LA,SB"])
def test_report_groups_cross_region_content_exactly(tmp_path, regions, capsys):
    # report keeps content keys only for descriptions that repeat; its groups
    # must still be those of every filtered in-scope posting's exact
    # (title, job_description, employer_name).
    fab = "semiconductor fab seeks an etch engineer"
    contents = {
        "etch": ("Etch Engineer", fab, "Acme Devices"),
        "other_title": ("Process Engineer", fab, "Acme Devices"),
        "other_employer": ("Etch Engineer", fab, "Beta Fab"),
        "other_employer_alone": ("Etch Engineer", fab, "Gamma Fab"),
        "yield": ("Yield Analyst", "semiconductor yield analysis", "Delta"),
        "test": ("Test Technician", "wafer test on nights", "Epsilon"),
        "office": ("Office Manager", "semiconductor company office", "Zeta"),
        "layout": ("Layout Designer", "semiconductor mask layout", "Eta"),
        "unique": ("Process Engineer", "semiconductor process engineer", "Theta"),
    }
    listings = [
        ("A1", "etch", "LA", ""), ("A2", "etch", "SB", ""), ("A3", "etch", "SD", ""),
        ("T1", "other_title", "SB", ""),
        ("E1", "other_employer", "LA", ""), ("E2", "other_employer", "SB", ""),
        ("E3", "other_employer_alone", "SD", ""),
        ("Y1", "yield", "LA", ""), ("Y2", "yield", "SD", ""),  # one copy outside LA,SB
        # The SB copy is off-industry: only the employer description names the token.
        ("W1", "test", "LA", "semiconductor test house"), ("W2", "test", "SB", ""),
        ("W3", "test", "SD", "semiconductor test house"),
        ("O1", "office", "SB", ""), ("O2", "office", "SD", ""),  # matches no term
        ("L1", "layout", "LA", ""), ("L2", "layout", "LA", ""),  # one region only
        ("H1", "etch", "LA", ""), ("H1", "etch", "SB", ""),  # one job id in two regions joins etch
        ("U1", "unique", "SB", ""),
    ]
    records = []
    for job_id, content, region, employer_description in listings:
        title, description, employer = contents[content]
        records.append(make_record(job_id=job_id, title=title, job_description=description,
                                   employer_name=employer, employer_description=employer_description,
                                   region=region))
    write_jsonl(tmp_path / "postings.jsonl", records)
    inputs = [str(tmp_path / "postings.jsonl")]
    out = tmp_path / "out"
    assert main(["report", "--input", *inputs, "--regions", regions, "--out", str(out)]) == 0

    corpus, _ = corpus_mod.load_postings(inputs)
    in_scope = [p for p in corpus if p.region.value in regions.split(",")]
    filtered = matcher.filter_corpus(in_scope, "semiconductor")
    expected = dedup.cross_region_report(content_groups(filtered))
    cross_region = (out / "cross_region.csv").read_text(encoding="utf-8")
    assert cross_region == _render_cross_region_csv(expected)
    # By hand: the kept W1 shares its content only with the off-industry W2
    # in LA,SB, which makes no group; with SD, the group is W1 and W3 alone.
    test_members = [line.split(",")[1:3] for line in cross_region.splitlines() if "Test Technician" in line]
    assert test_members == {"LA,SB,SD": [["W1", "LA"], ["W3", "SD"]], "LA,SB": []}[regions]
    groups = {"LA,SB,SD": 5, "LA,SB": 2}[regions]  # etch, other_employer, then yield, test, office
    assert _manifest(out / "manifest.txt")["count.cross_region_groups"] == str(len(expected)) == str(groups)
    capsys.readouterr()


def _cross_region_files(tmp_path) -> tuple[list[str], dict[str, str]]:
    """Two posting files whose line ends are CRLF, lone CR and LF, with blank,
    '#' and rejected lines between the postings, and the text of each line
    that holds a record, by label.

    The postings whose label starts with "k" pass the filter. The exact
    cross-region groups are the Acme etch postings (A1, A2 and H1, one job
    id in two regions) and the Beta Fab etch postings (E1, E2); T1 repeats
    their description under another title, A3 under another employer.
    """
    fab = "semiconductor fab seeks an etch engineer"
    lines = {}

    def line(label, job_id, region, title="Etch Engineer", description=fab, employer="Acme Devices"):
        record = make_record(job_id=job_id, title=title, job_description=description,
                             employer_name=employer, region=region)
        lines[label] = json.dumps(record)
        return lines[label].encode()

    first = [
        line("kA1", "A1", "LA"), b"", b"# a comment", line("off", "O1", "SB", "Office Manager", "front desk"),
        line("dup", "A1", "LA", "Yield Analyst"), line("kH1-LA", "H1", "LA"), b"not json",
        line("kT1", "T1", "SD", "Process Engineer"), line("kE1", "E1", "SD", employer="Beta Fab"),
        line("region", "X1", "ZZ"), line("kH1-SB", "H1", "SB"),
    ]
    second = [
        b"", line("kA2", "A2", "SD"), line("kU1", "U1", "SB", "Yield Analyst", "semiconductor yield analysis"),
        b"# another comment", line("kE2", "E2", "LA", employer="Beta Fab"),
        line("kA3", "A3", "LA", employer="Gamma Fab"),
    ]
    lines["bad"] = "not json"
    paths = []
    for name, content in (("one.jsonl", first), ("two.jsonl", second)):
        ends = (b"\r\n", b"\r", b"\n")
        (tmp_path / name).write_bytes(b"".join(text + ends[i % 3] for i, text in enumerate(content)))
        paths.append(str(tmp_path / name))
    return paths, lines


def _count_decodes(monkeypatch) -> dict[str, int]:
    """Count ``corpus._decode`` calls per decoded line text."""
    calls: dict[str, int] = {}
    decode = corpus_mod._decode

    def spy(line):
        calls[line] = calls.get(line, 0) + 1
        return decode(line)

    monkeypatch.setattr(corpus_mod, "_decode", spy)
    return calls


def test_cross_region_candidates_are_confirmed_on_a_reread_of_their_lines(tmp_path, monkeypatch, capsys):
    # With every content hash equal, every filtered posting is a candidate
    # whose line is read again; the groups, formed on the exact keys read
    # back, and every other output must not change.
    inputs, lines = _cross_region_files(tmp_path)
    argvs = {"report": ["report"], "report-text": ["report", "--format", "text"], "dedup": ["dedup"]}
    calls = _count_decodes(monkeypatch)
    groups = {"kA1", "kH1-LA", "kH1-SB", "kA2", "kE1", "kE2"}
    filtered = {label for label in lines if label.startswith("k")}
    for patched, reread in ((False, groups), (True, filtered)):
        if patched:
            monkeypatch.setattr(cli, "_content_hash", lambda *key: 0)
        for name, argv in argvs.items():
            calls.clear()
            assert main([*argv, "--input", *inputs, "--out", str(tmp_path / f"{name}-{patched}")]) == 2
            assert calls == {lines[label]: 2 if label in reread else 1 for label in lines}, (name, patched)
    for name in argvs:
        before, after = tmp_path / f"{name}-False", tmp_path / f"{name}-True"
        assert sorted(p.name for p in before.iterdir()) == sorted(p.name for p in after.iterdir())
        for path in before.iterdir():
            assert path.read_bytes() == (after / path.name).read_bytes(), (name, path.name)
    assert (tmp_path / "report-False" / "cross_region.csv").read_text(encoding="utf-8") == (
        "group,job_id,region,title,employer_name\n"
        "1,A1,LA,Etch Engineer,Acme Devices\n1,A2,SD,Etch Engineer,Acme Devices\n"
        "1,H1,LA,Etch Engineer,Acme Devices\n1,H1,SB,Etch Engineer,Acme Devices\n"
        "2,E1,SD,Etch Engineer,Beta Fab\n2,E2,LA,Etch Engineer,Beta Fab\n"
    )
    diagnostics = (tmp_path / "report-False" / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[1] for row in diagnostics[1:]] == ["5", "7", "10"]  # file and line order
    capsys.readouterr()


def test_one_file_per_line_writes_the_artifacts_of_three_files(tmp_path, capsys):
    """Splitting the input into one file per line changes only the manifest,
    which names the inputs, though the cross-region re-read then spans many files."""
    fixture, split = tmp_path / "fixture", tmp_path / "split"
    synth = ["synth", "--seed", "11", "--n-postings", "300", "--cross-region-repeats", "20"]
    assert main([*synth, "--out", str(fixture)]) == 0
    inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
    lines = [line for path in inputs for line in Path(path).read_text(encoding="utf-8").splitlines(keepends=True)]
    assert len(lines) == 320
    split.mkdir()
    singles = [split / f"{i:03d}.jsonl" for i in range(len(lines))]
    for path, line in zip(singles, lines):
        path.write_text(line, encoding="utf-8")
    for subcommand in ("match", "dedup", "report"):
        whole, parts = tmp_path / f"{subcommand}-whole", tmp_path / f"{subcommand}-parts"
        assert main([subcommand, "--input", *inputs, "--out", str(whole)]) == 0
        assert main([subcommand, "--input", *map(str, singles), "--out", str(parts)]) == 0
        names = sorted(p.name for p in whole.iterdir())
        assert names == sorted(p.name for p in parts.iterdir())
        for name in names:
            if name != "manifest.txt":
                assert (whole / name).read_bytes() == (parts / name).read_bytes(), (subcommand, name)
    cross_region = (tmp_path / "report-parts" / "cross_region.csv").read_text(encoding="utf-8")
    assert len(cross_region.splitlines()) == 1 + 40
    capsys.readouterr()


def test_posting_lines_split_only_where_text_mode_splits_them(tmp_path, monkeypatch, capsys):
    # Raw U+0085, U+2028 and U+2029 are valid inside a JSON string, raw
    # \x0b, \x0c and \x1c are not, and str.splitlines would end a line at
    # each of them: only LF, CRLF and lone CR end one. With every content
    # hash equal, the four kept lines are read again, split the same way.
    ends = ("\n", "\r\n", "\r")
    text = ""
    for i, (char, region) in enumerate(zip("\x85\u2028\u2029\x0b\x0c\x1c ", ["LA", "SB", "SD"] * 3)):
        record = make_record(job_id=f"J{i}", title="Etch Engineer", job_description="semiconductor fab@etch",
                             region=region)
        text += json.dumps(record, ensure_ascii=False).replace("@", char) + ends[i % 3]
    assert len(text.splitlines()) == 13
    path = tmp_path / "postings.jsonl"
    path.write_bytes(text.encode("utf-8"))
    calls = _count_decodes(monkeypatch)
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(cli, "_content_hash", lambda *key: 0)
        calls.clear()
        assert main(["report", "--input", str(path), "--out", str(tmp_path / f"out-{patched}")]) == 2
        assert sorted(calls.values()) == ([1, 1, 1, 2, 2, 2, 2] if patched else [1] * 7)
    before, after = tmp_path / "out-False", tmp_path / "out-True"
    assert (before / "diagnostics.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        f"{path},{line_no},invalid JSON: Invalid control character at" for line_no in (4, 5, 6)
    ]
    assert _manifest(before / "manifest.txt")["count.postings_ingested"] == "4"
    assert sorted(p.name for p in before.iterdir()) == sorted(p.name for p in after.iterdir())
    for artifact in before.iterdir():
        assert artifact.read_bytes() == (after / artifact.name).read_bytes(), artifact.name
    capsys.readouterr()


def test_no_line_is_decoded_twice_without_a_cross_region_candidate(tmp_path, seed7_inputs, monkeypatch, capsys):
    calls = _count_decodes(monkeypatch)
    for subcommand in ("match", "dedup", "report"):
        calls.clear()
        assert main([subcommand, "--input", *seed7_inputs, "--out", str(tmp_path / subcommand)]) == 0
        assert calls and set(calls.values()) == {1}, subcommand
    capsys.readouterr()


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda content: content.replace(b'"A2"', b'"A9"'), id="another-job-id"),
        pytest.param(lambda content: content.replace(b'"A2"', b'"A2", "x": 1'), id="invalid-record"),
        pytest.param(lambda content: content[: content.index(b'{"job_id": "A2"')], id="truncated"),
    ],
)
def test_a_candidate_line_changed_before_its_reread_exits_1_and_writes_nothing(
    tmp_path, monkeypatch, capsys, change
):
    inputs, _ = _cross_region_files(tmp_path)
    path = Path(inputs[1])
    content = path.read_bytes()
    reread = corpus_mod.reread_postings

    def rewrite_then_reread(*args):
        path.write_bytes(change(content))
        return reread(*args)

    monkeypatch.setattr(corpus_mod, "reread_postings", rewrite_then_reread)
    for subcommand in ("report", "dedup"):
        out = tmp_path / f"out-{subcommand}"
        path.write_bytes(content)
        capsys.readouterr()
        assert main([subcommand, "--input", *inputs, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inputs[1]}:2: ") and err.count("\n") == 1, err
        assert not out.exists()


@pytest.mark.parametrize("subcommand", ["match", "dedup", "report"])
def test_matching_subcommands_peak_below_the_load(tmp_path, seed7_inputs, capsys, subcommand):
    # These subcommands match and filter each posting as its line is read and
    # keep no posting: match keeps a record per matched posting; dedup and
    # report keep one row per filtered posting (job id, region, terms and
    # employer name), whose rows with terms become the ledger's units, and an
    # 8-byte content hash and location for the cross-region report. Equal
    # term sets share one phrase-sorted tuple, and the large artifacts are
    # written in chunks of 1,024 lines. So their traced peak stays far below
    # that of loading the postings alone: 0.56-0.57 times the load for match
    # and 0.47-0.49 for dedup and report on Python 3.10 to 3.13. A frozenset
    # per distinct term set, a table of employer names by (job_id, region)
    # and a new term tuple per ledger unit peaked at 0.84-0.86 for match and
    # 0.89-0.91 for dedup and report; loading the list first, at 1.05 times
    # the load; also keeping every filtered description, near 1.25.
    load_peak = traced_peak(corpus_mod.load_postings, seed7_inputs)
    peak = traced_peak(main, [subcommand, "--input", *seed7_inputs, "--out", str(tmp_path / "out")])
    assert peak < 0.62 * load_peak, (peak, load_peak)
    capsys.readouterr()


def test_dedup_units_share_one_term_tuple_per_distinct_set(tmp_path, seed7_inputs, shipped_taxonomy):
    # The ledger's units are the pass's rows, each holding the match index's
    # one phrase-sorted tuple of its terms: equal sets are one object.
    run = _Run("dedup", PipelineConfig(out_dir=str(tmp_path)))
    _, ledger = cli._dedup_stages(run, shipped_taxonomy, seed7_inputs)
    sets = {frozenset(terms) for _, _, terms, _ in ledger.units}
    assert len({id(terms) for _, _, terms, _ in ledger.units}) == len(sets) < ledger.unit_count
    for _, _, terms, _ in ledger.units:
        phrases = [jst.phrase for jst in terms]
        assert phrases == sorted(set(phrases)), phrases


@pytest.mark.parametrize("subcommand", ["ingest", "disambiguate", "discover"])
def test_streaming_subcommands_peak_below_the_load(tmp_path, seed7_inputs, capsys, subcommand):
    # These subcommands stream the postings: each is dropped once its line
    # is counted, its employer name kept or its title scanned, so their
    # traced peak stays well under that of holding every posting at once:
    # 0.30-0.37 times the load. Loading the list first peaked at 1.02-1.03
    # times the load; hashing each input in 1 MiB reads, at 0.68-0.69.
    load_peak = traced_peak(corpus_mod.load_postings, seed7_inputs)
    peak = traced_peak(main, [subcommand, "--input", *seed7_inputs, "--out", str(tmp_path / "out")])
    assert peak < 0.5 * load_peak, (peak, load_peak)
    capsys.readouterr()


def _artifact_digests(run) -> dict[str, str]:
    return {key: value for key, value in run.items if key.startswith("artifact.")}


def test_chunked_write_failing_midway_keeps_the_previous_file(tmp_path):
    run = _Run("report", PipelineConfig(out_dir=str(tmp_path)))
    run.write_artifact("ledger.csv", "old,ledger\n")
    previous = (tmp_path / "ledger.csv").read_bytes()
    run.items.clear()

    def chunks():
        yield "new,rows\n" * 1000
        yield "more\n"
        raise OSError("disk went away")

    with pytest.raises(OSError, match="disk went away"):
        run.write_chunks("ledger.csv", chunks())
    assert (tmp_path / "ledger.csv").read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]
    assert _artifact_digests(run) == {}


@pytest.mark.parametrize(
    "chunks", [[], [""], ["héllo, wörld\n", "", "€ ☃ \U0001f600\n"], ["a\n"] * 5000]
)
def test_chunked_write_records_the_sha256_of_the_file(tmp_path, chunks):
    run = _Run("report", PipelineConfig(out_dir=str(tmp_path)))
    run.write_chunks("out.csv", iter(chunks))
    data = (tmp_path / "out.csv").read_bytes()
    assert data == "".join(chunks).encode("utf-8")
    assert _artifact_digests(run) == {"artifact.out.csv.sha256": hashlib.sha256(data).hexdigest()}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_streamed_ledger_and_mapping_equal_the_string_renderers(tmp_path, shipped_taxonomy, monkeypatch):
    fixture = tmp_path / "fixture"
    assert main(["synth", "--seed", "13", "--n-postings", "1500", "--out", str(fixture)]) == 0
    corpus, _ = corpus_mod.load_postings([str(fixture / f"{r.value.lower()}.jsonl") for r in Region])
    ledger = dedup.weight_assignments(pass_rows(corpus, shipped_taxonomy))
    mapping, _ = employers.canonicalize([p.employer_name for p in corpus], BUNDLED_DICTIONARY)
    whole = {
        "ledger.csv": dedup.render_ledger_csv(ledger),
        "employer_mapping.csv": employers.render_mapping_csv(mapping),
    }
    monkeypatch.setattr(corpus_mod, "CHUNK_LINES", 100)
    run = _Run("report", PipelineConfig(out_dir=str(tmp_path / "out")))
    run.write_chunks("ledger.csv", dedup.ledger_csv_chunks(ledger))
    run.write_chunks("employer_mapping.csv", employers.mapping_csv_chunks(mapping))
    for name, text in whole.items():
        assert text.count("\n") > 400  # several chunks
        data = (tmp_path / "out" / name).read_bytes()
        assert data == text.encode("utf-8")
        assert dict(run.items)[f"artifact.{name}.sha256"] == hashlib.sha256(data).hexdigest()


def test_match_pinned_on_messy_input_and_a_seeded_fixture(tmp_path, monkeypatch, capsys):
    # matches.csv, diagnostics.csv, every count and the summary, byte for
    # byte, on the messy scope-limited input and on a fixture with plants,
    # cross-region copies and non-default rates, under both filter modes.
    monkeypatch.chdir(tmp_path)
    inputs = _messy_inputs(tmp_path)
    synth = ["synth", "--seed", "23", "--n-postings", "1000", "--off-industry-rate", "2/5",
             "--division-rate", "1/4", "--cross-region-repeats", "9",
             "--plant", "rf engineer=6", "--plant", "microelectronics technician=4", "--out", "fx"]
    assert main(synth) == 0
    fixture = [f"fx/{r.value.lower()}.jsonl" for r in Region]
    capsys.readouterr()
    runs = (
        ("messy", [*inputs, "--regions", "LA,SB"], 2),
        ("seed23", fixture, 0),
        ("all_fields", [*fixture, "--filter-mode", "all_fields"], 0),
    )
    pinned = {}
    for name, argv, code in runs:
        assert main(["match", "--input", *argv, "--out", name]) == code
        manifest = _manifest(tmp_path / name / "manifest.txt")
        digests = tuple(
            hashlib.sha256((tmp_path / name / artifact).read_bytes()).hexdigest()[:16]
            for artifact in ("matches.csv", "diagnostics.csv")
        )
        counts = {key[6:]: value for key, value in manifest.items() if key.startswith("count.")}
        pinned[name] = (*digests, counts, capsys.readouterr().out)
    names = ("filtered_observations", "matched_postings", "postings_ingested",
             "postings_out_of_scope", "raw_observations", "records_rejected")
    seed23 = ("42c01ef77e05ba52", "e4a4d6e9381a5631")
    assert pinned == {
        "messy": ("cee3fc0f322bcf77", "8ccc262477d519a9", dict(zip(names, ("8", "8", "9", "2", "9", "7"))),
                  "matched 8 of 9 postings\n"),
        "seed23": (*seed23, dict(zip(names, ("1491", "1009", "1019", "0", "2472", "0"))),
                   "matched 1009 of 1019 postings\n"),
        "all_fields": (*seed23, dict(zip(names, ("560", "1009", "1019", "0", "2472", "0"))),
                       "matched 1009 of 1019 postings\n"),
    }


def _render_matches_csv(records) -> str:
    """Reference matches.csv: every (record, term) row built, then sorted as a whole."""
    entries = []
    for record in records:
        for jst in record.matched_jsts:
            in_title = "1" if jst in record.matched_in_title else "0"
            entries.append((record.job_id, record.region.value, jst.phrase, jst.level.value, in_title))
    entries.sort()
    return corpus_mod.csv_text(["job_id", "region", "phrase", "level", "in_title"], entries)


def test_chunked_matches_equal_the_sorted_rows(tmp_path, shipped_taxonomy, monkeypatch, capsys):
    # Job ids that sort differently as text and as numbers, one id in every
    # region, and records of many terms, written in chunks of 50 lines.
    monkeypatch.chdir(tmp_path)
    synth = ["synth", "--seed", "29", "--n-postings", "600", "--cross-region-repeats", "5", "--out", "fx"]
    assert main(synth) == 0
    extra = [
        make_record(job_id=job_id, region=region, title="Design Engineer",
                    job_description="layout engineer, etch engineer and process technician")
        for job_id in ("J2", "J10", "J1", "j1", "J1a")
        for region in ("SD", "LA", "SB")
    ]
    write_jsonl(tmp_path / "extra.jsonl", extra)
    inputs = [*_messy_inputs(tmp_path), "extra.jsonl", *(f"fx/{r.value.lower()}.jsonl" for r in Region)]
    monkeypatch.setattr(corpus_mod, "CHUNK_LINES", 50)
    assert main(["match", "--input", *inputs, "--out", "out"]) == 2
    corpus, _ = corpus_mod.load_postings(inputs)
    expected = _render_matches_csv(matcher.match_corpus(corpus, shipped_taxonomy))
    assert expected.count("\n") > 1000
    assert (tmp_path / "out" / "matches.csv").read_text(encoding="utf-8") == expected
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, name, content",
    [
        ("--config", "bad.conf", b"industry_token = semi\xffconductor\n"),
        ("--taxonomy", "bad.csv", b"function,family,title\nEngineer,etch \xff engineer,\n"),
        ("--dictionary", "bad.txt", b"advanced\nunivers\xffity\n"),
        # A malformed line before the invalid byte: the file is decoded whole before any line is parsed.
        ("--config", "bad.conf", b"garbage\nindustry_token = semi\xffconductor\n"),
        ("--taxonomy", "bad.csv", b"function,family,title\nWizard,x,\nEngineer,etch \xff engineer,\n"),
    ],
)
def test_invalid_utf8_in_a_data_file_exits_1(tmp_path, fixture_corpus, capsys, flag, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    capsys.readouterr()
    assert main(["report", "--input", *fixture_corpus, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    offset = content.index(b"\xff")
    assert capsys.readouterr().err == f"error: {path}: invalid UTF-8 at byte {offset}\n"



def test_invalid_utf8_in_a_posting_file_exits_1_and_writes_nothing(tmp_path, capsys):
    # The bad byte sits past text mode's first read buffer, so the reported
    # offset must be the file's, not the buffer's. Every subcommand but
    # ingest of one file has used every posting of the good file before it
    # reaches the bad one.
    good = tmp_path / "good.jsonl"
    write_jsonl(good, [make_record(job_id=f"G{i}", title="Etch Engineer", job_description="semiconductor")
                       for i in range(50)])
    path = tmp_path / "postings.jsonl"
    write_jsonl(path, [make_record(job_id=f"J{i}", job_description="semiconductor " * 20) for i in range(100)])
    content = path.read_bytes() + b'{"job_id": "J\xff"}\n'
    path.write_bytes(content + path.read_bytes())
    offset = content.index(b"\xff")
    assert offset > 8192
    for subcommand, inputs in (
        ("ingest", [path]),
        ("ingest", [good, path]),
        ("disambiguate", [good, path]),
        ("discover", [good, path]),
        ("match", [good, path]),
        ("dedup", [good, path]),
        ("report", [good, path]),
    ):
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([subcommand, "--input", *map(str, inputs), "--out", str(out)]) == 1, subcommand
        assert capsys.readouterr().err == f"error: {path}: invalid UTF-8 at byte {offset}\n"
        assert not out.exists(), subcommand


@pytest.mark.parametrize("subcommand", ["ingest", "report", "synth"])
def test_out_naming_a_file_exits_1(tmp_path, fixture_corpus, capsys, subcommand):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    args = ["--n-postings", "10"] if subcommand == "synth" else ["--input", *fixture_corpus]
    capsys.readouterr()
    assert main([subcommand, *args, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {taken}{os.sep}") and err.count("\n") == 1, err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("content", [b"advanced\nunivers\xffity\n", b"# only a comment\n\n"])
def test_report_with_an_unusable_dictionary_writes_nothing(tmp_path, fixture_corpus, capsys, content):
    dictionary = tmp_path / "words.txt"
    dictionary.write_bytes(content)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["report", "--input", *fixture_corpus, "--dictionary", str(dictionary), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {dictionary}: ")
    assert list(out.iterdir()) == []
