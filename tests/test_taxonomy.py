import random
import re

import pytest

from jobpulse.cli import DEFAULT_TAXONOMY
from jobpulse.corpus import expanded_tokens, normalize_text
from jobpulse.errors import InputError
from jobpulse.taxonomy import (
    JobFamily,
    JobFunction,
    Jst,
    JstLevel,
    Taxonomy,
    load_taxonomy,
    lookup,
    parse_function,
    resolve_precedence,
)

from conftest import write_taxonomy_csv


def test_shipped_taxonomy_shape(capsys):
    t = load_taxonomy(str(DEFAULT_TAXONOMY))
    assert capsys.readouterr().err == ""
    assert len(t.families) == 31
    n_titles = sum(j.level is JstLevel.TITLE for j in t.jsts)
    assert n_titles >= 40
    assert len(t.jsts) == len(t.families) + n_titles
    assert {f.function for f in t.families} == set(JobFunction)


def test_every_term_function_is_enumerated(shipped_taxonomy):
    for jst in shipped_taxonomy.jsts:
        assert jst.family.function in set(JobFunction)


def test_full_reference_file_yields_208_terms(tmp_path):
    # 31 families plus 177 unique titles must load as 208 terms.
    rows = []
    functions = [f.value for f in JobFunction]
    for i in range(31):
        rows.append((functions[i % 4], f"family {i} engineer", ""))
    for j in range(177):
        rows.append((functions[(j % 31) % 4], f"family {j % 31} engineer", f"title {j} engineer"))
    path = write_taxonomy_csv(tmp_path / "full.csv", rows)
    t = load_taxonomy(path)
    assert len(t.families) == 31
    assert sum(j.level is JstLevel.TITLE for j in t.jsts) == 177
    assert len(t.jsts) == 208


def test_minimal_file(tmp_path):
    path = write_taxonomy_csv(tmp_path / "min.csv", [("Technician", "fab technician", "")])
    t = load_taxonomy(path)
    assert len(t.jsts) == 1
    assert t.jsts[0].level is JstLevel.FAMILY
    assert t.jsts[0].family.function is JobFunction.TECHNICIAN


def test_family_takes_precedence_over_title(tmp_path, capsys):
    path = write_taxonomy_csv(
        tmp_path / "collide.csv",
        [
            ("Engineer", "semiconductor packaging engineer", ""),
            ("Engineer", "design engineer", ""),
            ("Engineer", "design engineer", "semiconductor packaging engineer"),
        ],
    )
    t = load_taxonomy(path)
    surviving = lookup(t, "semiconductor packaging engineer")
    assert surviving is not None
    assert surviving.level is JstLevel.FAMILY
    assert surviving.family.name == "semiconductor packaging engineer"
    assert capsys.readouterr().err == (
        f"WARNING jobpulse.taxonomy: {path}: phrase 'semiconductor packaging engineer' used as both family "
        "and title: family takes precedence, removed as a title in family 'design engineer'\n"
    )
    assert len(t.jsts) == 2


def _jst(phrase: str, level: JstLevel, family: JobFamily) -> Jst:
    return Jst(phrase=phrase, tokens=expanded_tokens(phrase), level=level, family=family)


def test_resolve_precedence_drops_colliding_title():
    packaging = JobFamily("packaging", JobFunction.ENGINEER)
    design = JobFamily("design engineer", JobFunction.ENGINEER)
    entries = [
        _jst("packaging engineer", JstLevel.FAMILY, packaging),
        _jst("packaging engineer", JstLevel.TITLE, design),
    ]
    survivors, warnings = resolve_precedence(entries)
    assert [ (s.phrase, s.level) for s in survivors ] == [("packaging engineer", JstLevel.FAMILY)]
    assert len(warnings) == 1


def test_resolve_precedence_identity_when_no_collision():
    fam_a = JobFamily("etch", JobFunction.ENGINEER)
    fam_b = JobFamily("litho", JobFunction.ENGINEER)
    entries = [
        _jst("etch engineer", JstLevel.FAMILY, fam_a),
        _jst("litho engineer", JstLevel.TITLE, fam_b),
    ]
    survivors, warnings = resolve_precedence(entries)
    assert survivors == entries
    assert warnings == []


def test_resolve_precedence_matches_manual_grouping():
    # Oracle: group the three phrases by hand; the colliding pair keeps only
    # its family entry, so two entries survive.
    fam_a = JobFamily("alpha", JobFunction.ENGINEER)
    fam_b = JobFamily("beta", JobFunction.ENGINEER)
    entries = [
        _jst("shared phrase engineer", JstLevel.FAMILY, fam_a),
        _jst("shared phrase engineer", JstLevel.TITLE, fam_b),
        _jst("lonely phrase engineer", JstLevel.TITLE, fam_b),
    ]
    survivors, warnings = resolve_precedence(entries)
    expected_phrases = {("shared phrase engineer", JstLevel.FAMILY), ("lonely phrase engineer", JstLevel.TITLE)}
    assert {(s.phrase, s.level) for s in survivors} == expected_phrases
    assert len(survivors) == 2
    assert len(warnings) == 1


def test_resolve_precedence_idempotent():
    fam_a = JobFamily("alpha", JobFunction.ENGINEER)
    fam_b = JobFamily("beta", JobFunction.ENGINEER)
    entries = [
        _jst("shared phrase", JstLevel.FAMILY, fam_a),
        _jst("shared phrase", JstLevel.TITLE, fam_b),
        _jst("other phrase", JstLevel.TITLE, fam_a),
    ]
    once, warnings_once = resolve_precedence(entries)
    twice, warnings_twice = resolve_precedence(once)
    assert once == twice
    assert warnings_once and not warnings_twice


def test_resolve_precedence_rejects_family_in_two_families():
    fam_a = JobFamily("alpha", JobFunction.ENGINEER)
    fam_b = JobFamily("beta", JobFunction.ENGINEER)
    entries = [
        _jst("twice a family", JstLevel.FAMILY, fam_a),
        _jst("twice a family", JstLevel.FAMILY, fam_b),
    ]
    with pytest.raises(InputError):
        resolve_precedence(entries)


def test_resolve_precedence_rejects_title_claimed_by_two_families():
    fam_a = JobFamily("alpha", JobFunction.ENGINEER)
    fam_b = JobFamily("beta", JobFunction.ENGINEER)
    entries = [
        _jst("contested title", JstLevel.TITLE, fam_a),
        _jst("contested title", JstLevel.TITLE, fam_b),
    ]
    with pytest.raises(InputError):
        resolve_precedence(entries)


def test_lookup_family_level_term(shipped_taxonomy):
    jst = lookup(shipped_taxonomy, "fab technician")
    assert jst is not None
    assert jst.level is JstLevel.FAMILY
    assert jst.family.function is JobFunction.TECHNICIAN


def test_lookup_empty_phrase(shipped_taxonomy):
    assert lookup(shipped_taxonomy, "") is None


def test_lookup_case_and_spacing(shipped_taxonomy):
    assert lookup(shipped_taxonomy, "  Fab   Technician ") is not None


def test_lookup_equivalent_to_linear_scan(tmp_path):
    # Oracle: linear scan of the source rows after applying precedence by hand.
    rng = random.Random(11)
    rows = []
    phrases = []
    for i in range(120):
        family = f"family{i} engineer"
        rows.append(("Engineer", family, ""))
        phrases.append(family)
        for j in range(rng.randint(0, 3)):
            title = f"title{i}x{j} engineer"
            rows.append(("Engineer", family, title))
            phrases.append(title)
    path = write_taxonomy_csv(tmp_path / "scan.csv", rows)
    t = load_taxonomy(path)
    present = set(phrases)
    probes = phrases + [f"absent{i} engineer" for i in range(50)]
    rng.shuffle(probes)
    for probe in probes:
        found = lookup(t, probe)
        assert (found is not None) == (probe in present)
        if found is not None:
            assert found.phrase == probe


def test_lookup_absent_random_phrases(shipped_taxonomy):
    rng = random.Random(5)
    vocab = ["warp", "drive", "plasma", "granular", "mystery"]
    for _ in range(50):
        phrase = " ".join(rng.choices(vocab, k=rng.randint(1, 3)))
        file_phrases = {j.phrase for j in shipped_taxonomy.jsts}
        assert (lookup(shipped_taxonomy, phrase) is not None) == (phrase in file_phrases)


def test_term_count_invariant_random_files(tmp_path):
    rng = random.Random(23)
    for trial in range(5):
        rows = []
        n_fam = rng.randint(1, 8)
        n_titles = 0
        for i in range(n_fam):
            rows.append(("Engineer", f"fam{trial}f{i} engineer", ""))
            for j in range(rng.randint(0, 4)):
                rows.append(("Engineer", f"fam{trial}f{i} engineer", f"t{trial}f{i}t{j} engineer"))
                n_titles += 1
        path = write_taxonomy_csv(tmp_path / f"inv{trial}.csv", rows)
        t = load_taxonomy(path)
        assert len(t.jsts) == n_fam + n_titles


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("function,family,title\nEngineer,design engineer\n", encoding="utf-8")
    with pytest.raises(InputError, match=":2:"):
        load_taxonomy(str(path))


def test_unknown_function_label(tmp_path):
    path = write_taxonomy_csv(tmp_path / "fn.csv", [("Wizard", "spell casting", "")])
    with pytest.raises(InputError, match=re.escape(f"{path}:2: unknown job function label 'Wizard'")):
        load_taxonomy(str(path))


# Lines 1-7 declare the family 'etch engineer' on line 5, with a comment, a
# blank line, a quoted comma and CRLF and lone-CR ends before any later row.
_PREAMBLE = (
    "# taxonomy\r\nfunction,family,title\r\n\r\nEngineer,\"etch, process engineer\",\r"
    "Engineer,etch engineer,\n# titles\n\n"
)


@pytest.mark.parametrize(
    "row, error",
    [
        # A quoted field left open at the end of its line is a short row there.
        ('Engineer,"rf\nengineer",', "8: expected 3 fields, got 2"),
        ("Wizard,etch engineer,", "8: unknown job function label 'Wizard'"),
        ("Engineer,,", "8: empty family name"),
        ("Engineer,etch engineer,", "8: family 'etch engineer' already declared at line 5"),
        ("Engineer,rf engineer,rf title", "8: title references undeclared family 'rf engineer'"),
        ("Technician,etch engineer,rf title", "8: family 'etch engineer' declared under Engineer"),
        ("Engineer,etch engineer,---", "8: title normalizes to nothing"),
        ("Engineer,etch engineer,Dry Etch\nEngineer,etch engineer,dry etch", "9: duplicate title 'dry etch'"),
        # The csv module refuses a field over 131,072 characters.
        pytest.param("Engineer,etch engineer," + "x" * 140_000, "8: field larger than field limit", id="huge-field"),
    ],
)
def test_every_row_error_names_the_row_line(tmp_path, row, error):
    path = tmp_path / "rows.csv"
    path.write_text(_PREAMBLE + row + "\n", encoding="utf-8", newline="")
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}:{error}')}"):
        load_taxonomy(str(path))


def test_a_quoted_first_field_may_follow_leading_spaces(tmp_path):
    # Each row is parsed from its stripped line.
    path = tmp_path / "quoted.csv"
    path.write_text('function,family,title\n  "Engineer",Process,\n', encoding="utf-8")
    assert [(f.name, f.function) for f in load_taxonomy(str(path)).families] == [("process", JobFunction.ENGINEER)]


def test_zero_families_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("function,family,title\n", encoding="utf-8")
    with pytest.raises(InputError, match="zero families"):
        load_taxonomy(str(path))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_taxonomy(str(tmp_path / "nope.csv"))


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("fn,fam,ti\nEngineer,design engineer,\n", encoding="utf-8")
    with pytest.raises(InputError, match="header"):
        load_taxonomy(str(path))


def test_duplicate_family_declaration_rejected(tmp_path):
    path = write_taxonomy_csv(
        tmp_path / "dupfam.csv",
        [("Engineer", "design engineer", ""), ("Engineer", "design engineer", "")],
    )
    with pytest.raises(InputError, match="already declared"):
        load_taxonomy(path)


def test_title_with_undeclared_family_rejected(tmp_path):
    path = write_taxonomy_csv(
        tmp_path / "undecl.csv",
        [("Engineer", "process engineer", ""), ("Engineer", "design engineer", "rf title")],
    )
    with pytest.raises(InputError, match="undeclared family"):
        load_taxonomy(path)


def test_family_function_mismatch_rejected(tmp_path):
    path = write_taxonomy_csv(
        tmp_path / "mismatch.csv",
        [("Engineer", "design engineer", ""), ("Technician", "design engineer", "some title")],
    )
    with pytest.raises(InputError, match="declared under"):
        load_taxonomy(path)


def test_duplicate_title_row_rejected(tmp_path):
    path = write_taxonomy_csv(
        tmp_path / "duptitle.csv",
        [
            ("Engineer", "design engineer", ""),
            ("Engineer", "design engineer", "analog design engineer"),
            ("Engineer", "design engineer", "analog design engineer"),
        ],
    )
    with pytest.raises(InputError, match="duplicate title"):
        load_taxonomy(path)


# Phrases that differ only by hyphens have one token form, so they are one phrase.


def test_hyphen_twin_titles_in_one_family_are_a_duplicate(tmp_path):
    path = write_taxonomy_csv(
        tmp_path / "twins.csv",
        [
            ("Engineer", "rf design", ""),
            ("Engineer", "rf design", "rf-engineer"),
            ("Engineer", "rf design", "RF Engineer"),
        ],
    )
    with pytest.raises(InputError, match=f"^{re.escape(path)}:4: duplicate title 'rf engineer' in family 'rf design'$"):
        load_taxonomy(path)


def test_hyphen_twin_titles_in_two_families_are_claimed_by_both(tmp_path):
    path = write_taxonomy_csv(
        tmp_path / "twins.csv",
        [
            ("Engineer", "rf design", ""),
            ("Engineer", "antenna design", ""),
            ("Engineer", "rf design", "rf-engineer"),
            ("Engineer", "antenna design", "RF Engineer"),
        ],
    )
    with pytest.raises(InputError, match=re.escape(
        "title phrase 'rf-engineer' claimed by multiple families (antenna design, rf design)"
    )):
        load_taxonomy(path)


def test_title_twin_of_a_family_gives_way_to_it(tmp_path, capsys):
    path = write_taxonomy_csv(
        tmp_path / "twins.csv",
        [("Engineer", "rf design", ""), ("Engineer", "layout", ""), ("Engineer", "layout", "RF-Design")],
    )
    t = load_taxonomy(path)
    assert [(j.phrase, j.level) for j in t.jsts] == [("rf design", JstLevel.FAMILY), ("layout", JstLevel.FAMILY)]
    assert capsys.readouterr().err == (
        f"WARNING jobpulse.taxonomy: {path}: phrase 'rf-design' used as both family "
        "and title: family takes precedence, removed as a title in family 'layout'\n"
    )


def test_a_title_row_may_name_its_family_by_a_hyphen_twin(tmp_path):
    rows = [("Engineer", "rf design", ""), ("Engineer", "rf-design", "rf engineer")]
    path = write_taxonomy_csv(tmp_path / "twins.csv", rows)
    family, title = load_taxonomy(path).jsts
    assert (family.phrase, title.phrase, title.level) == ("rf design", "rf engineer", JstLevel.TITLE)
    assert title.family is family.family


def test_hyphen_twin_families_are_one_family(tmp_path):
    path = write_taxonomy_csv(tmp_path / "twins.csv", [("Engineer", "rf design", ""), ("Engineer", "rf-design", "")])
    with pytest.raises(InputError, match=f"^{re.escape(path)}:3: family 'rf-design' already declared at line 2$"):
        load_taxonomy(path)


def test_lookup_finds_a_term_under_either_spelling(tmp_path):
    t = load_taxonomy(write_taxonomy_csv(tmp_path / "t.csv", [("Engineer", "rf-engineer", "")]))
    assert lookup(t, "rf-engineer") is lookup(t, "rf engineer") is lookup(t, "RF Engineer") is t.jsts[0]


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "comments.csv"
    path.write_text(
        "# leading comment\nfunction,family,title\n# between\nEngineer,design engineer,\n",
        encoding="utf-8",
    )
    t = load_taxonomy(str(path))
    assert len(t.jsts) == 1


def test_parse_function_aliases():
    assert parse_function("Operational Support") is JobFunction.OPERATIONAL_SUPPORT
    assert parse_function("operational_support") is JobFunction.OPERATIONAL_SUPPORT
    assert parse_function("Engineers") is JobFunction.ENGINEER
    with pytest.raises(InputError):
        parse_function("manager")


def test_normalize_phrase():
    assert normalize_text("  Design   Engineer, ") == ("design", "engineer")
    assert normalize_text("RF-Engineer") == ("rf-engineer",)


def test_terms_and_families_compare_by_identity():
    # Two loads give distinct, unequal objects of equal value; hashing is object's C slot.
    first = load_taxonomy(str(DEFAULT_TAXONOMY))
    second = load_taxonomy(str(DEFAULT_TAXONOMY))
    for a, b in zip(first.jsts, second.jsts, strict=True):
        assert (a.phrase, a.tokens, a.level) == (b.phrase, b.tokens, b.level)
        assert a is not b and a != b
        assert a.family != b.family
    assert len(set(first.jsts) | set(second.jsts)) == 2 * len(first.jsts)
    assert first != second
    for cls in (Jst, JobFamily, Taxonomy):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
