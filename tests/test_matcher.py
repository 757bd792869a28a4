import random
import string

import pytest

from jobpulse.corpus import expanded_tokens, normalize_text
from jobpulse.errors import InputError
from jobpulse.matcher import (
    MatchIndex,
    discover_candidate_titles,
    filter_corpus,
    industry_predicate,
    match_corpus,
    match_posting,
    validate_industry_token,
)
from jobpulse.synth import SynthConfig, build_corpus
from jobpulse.taxonomy import load_taxonomy

from conftest import make_posting, write_taxonomy_csv

# ---------------------------------------------------------------------------
# Independent oracle: its own tokenizer, hyphen handling, and a naive
# all-positions window scan. Shares no code with the production matcher.
# ---------------------------------------------------------------------------


def _oracle_tokens(text: str) -> list[str]:
    out: list[str] = []
    word: list[str] = []
    text = text.lower()
    for i, ch in enumerate(text):
        if ch.isalnum() and ch != "_":
            word.append(ch)
        elif (
            ch == "-"
            and word
            and word[-1] != "-"
            and i + 1 < len(text)
            and text[i + 1].isalnum()
            and text[i + 1] != "_"
        ):
            word.append(ch)
        else:
            if word:
                out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    expanded: list[str] = []
    for token in out:
        expanded.extend(part for part in token.split("-") if part)
    return expanded


def _oracle_contains(haystack: list[str], needle: list[str]) -> bool:
    if not needle:
        return False
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start : start + len(needle)] == needle:
            return True
    return False


def _oracle_match(posting, taxonomy) -> set[str]:
    hits = set()
    for jst in taxonomy.jsts:
        phrase = _oracle_tokens(jst.phrase)
        if _oracle_contains(_oracle_tokens(posting.title), phrase) or _oracle_contains(
            _oracle_tokens(posting.job_description), phrase
        ):
            hits.add(jst.phrase)
    return hits


def test_empty_industry_token_rejected():
    with pytest.raises(InputError):
        validate_industry_token("")
    with pytest.raises(InputError):
        validate_industry_token("two tokens")


def test_description_with_two_terms_matches_both(shipped_taxonomy):
    posting = make_posting(
        title="Senior Opening",
        job_description="The role covers both design engineer and layout engineer duties.",
    )
    record = match_posting(posting, MatchIndex(shipped_taxonomy))
    assert record is not None
    assert {j.phrase for j in record.matched_jsts} == {"design engineer", "layout engineer"}
    assert record.matched_in_title == frozenset()


def test_empty_posting_matches_nothing(shipped_taxonomy):
    assert match_posting(make_posting(title="", job_description=""), MatchIndex(shipped_taxonomy)) is None


def test_title_match_flagged(shipped_taxonomy):
    posting = make_posting(title="Fab Technician", job_description="great benefits")
    record = match_posting(posting, MatchIndex(shipped_taxonomy))
    assert record is not None
    assert {j.phrase for j in record.matched_in_title} == {"fab technician"}


def test_employer_description_not_scanned_for_terms(shipped_taxonomy):
    posting = make_posting(
        title="Opening", job_description="", employer_description="we hire design engineer staff"
    )
    assert match_posting(posting, MatchIndex(shipped_taxonomy)) is None


def test_match_sets_equal_brute_force_oracle(shipped_taxonomy):
    rng = random.Random(19)
    phrases = [j.phrase for j in shipped_taxonomy.jsts]
    fillers = ["the", "our", "shift", "work", "apply", "tool", "line", "team"]
    postings = []
    for i in range(200):
        words: list[str] = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                words.extend(rng.choice(phrases).split())
            else:
                words.extend(rng.choices(fillers, k=rng.randint(1, 3)))
        title = " ".join(rng.choices(fillers + phrases, k=1)) if rng.random() < 0.5 else ""
        postings.append(
            make_posting(job_id=f"J{i}", title=title, job_description=" ".join(words))
        )
    records = {r.job_id: r for r in match_corpus(postings, shipped_taxonomy)}
    for posting in postings:
        expected = _oracle_match(posting, shipped_taxonomy)
        record = records.get(posting.job_id)
        got = {j.phrase for j in record.matched_jsts} if record else set()
        assert got == expected, posting.job_id


def test_no_match_across_token_gap(shipped_taxonomy):
    # Inserting any extra token inside a planted phrase destroys the match.
    rng = random.Random(7)
    multi = [j for j in shipped_taxonomy.jsts if len(j.tokens) >= 2]
    for _ in range(100):
        jst = rng.choice(multi)
        tokens = list(jst.tokens)
        cut = rng.randint(1, len(tokens) - 1)
        broken = tokens[:cut] + ["zzfiller"] + tokens[cut:]
        posting = make_posting(job_description=" ".join(broken))
        record = match_posting(posting, MatchIndex(shipped_taxonomy))
        hit = {j.phrase for j in record.matched_jsts} if record else set()
        assert jst.phrase not in hit


def test_hyphen_bridging_both_directions(tmp_path):
    plain = load_taxonomy(
        write_taxonomy_csv(tmp_path / "plain.csv", [("Engineer", "rf engineer", "")])
    )
    hyphenated = load_taxonomy(
        write_taxonomy_csv(tmp_path / "hyph.csv", [("Engineer", "rf-engineer", "")])
    )
    hyphen_text = make_posting(job_description="wanted: RF-Engineer for radar array")
    spaced_text = make_posting(job_description="wanted: rf engineer for radar array")
    for taxonomy in (plain, hyphenated):
        for posting in (hyphen_text, spaced_text):
            record = match_posting(posting, MatchIndex(taxonomy))
            assert record is not None, (taxonomy.jsts[0].phrase, posting.job_description)


def expand_hyphens(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Reference hyphen split: each hyphenated token becomes its parts."""
    out: list[str] = []
    for t in tokens:
        if "-" in t:
            out.extend(t.split("-"))
        else:
            out.append(t)
    return tuple(out)


def test_expand_hyphens(tmp_path):
    assert expand_hyphens(("rf-engineer", "lead")) == ("rf", "engineer", "lead")
    assert expand_hyphens(("plain",)) == ("plain",)
    taxonomy = load_taxonomy(write_taxonomy_csv(tmp_path / "t.csv", [
        ("Engineer", "rf-engineer", ""),
        ("Engineer", "rf-engineer", "Senior RF-Engineer"),
    ]))
    jst = taxonomy.jsts[1]
    assert (jst.phrase, jst.tokens) == ("senior rf-engineer", ("senior", "rf", "engineer"))
    index = MatchIndex(taxonomy)
    for text in ("a senior rf-engineer role", "a Senior RF Engineer role"):
        assert jst in index.terms(make_posting(job_description=text)), text


def test_industry_filter_employer_description_only():
    posting = make_posting(
        job_description="no token here", employer_description="leading semiconductor foundry"
    )
    assert industry_predicate("semiconductor", "any_field")(posting) is True


def test_industry_filter_drops_when_absent_everywhere():
    posting = make_posting(job_description="assembly line work", employer_description="a foundry")
    assert industry_predicate("semiconductor", "any_field")(posting) is False


def test_industry_filter_job_description_only():
    posting = make_posting(job_description="semiconductor process work", employer_description="")
    assert industry_predicate("semiconductor", "any_field")(posting) is True


def test_industry_filter_title_not_consulted():
    posting = make_posting(title="semiconductor job", job_description="", employer_description="")
    assert industry_predicate("semiconductor", "any_field")(posting) is False


def test_industry_filter_all_fields_mode():
    both = make_posting(job_description="semiconductor a", employer_description="semiconductor b")
    one = make_posting(job_description="semiconductor a", employer_description="b")
    assert industry_predicate("semiconductor", "all_fields")(both) is True
    assert industry_predicate("semiconductor", "all_fields")(one) is False
    assert industry_predicate("semiconductor", "any_field")(one) is True


def test_industry_filter_hyphen_bridged_token():
    posting = make_posting(job_description="semiconductor-grade materials")
    assert industry_predicate("semiconductor", "any_field")(posting) is True


def test_industry_filter_bad_mode():
    with pytest.raises(InputError):
        industry_predicate("semiconductor", "somehow")


def test_hyphenated_industry_token_rejected():
    # The filter compares hyphen-split runs, so this token could never match.
    assert validate_industry_token("Semiconductor") == "semiconductor"
    for bad in ("semi-conductor", "RF-Engineer"):
        with pytest.raises(InputError, match="single token"):
            validate_industry_token(bad)
    with pytest.raises(InputError):
        filter_corpus([make_posting(job_description="semi-conductor")], "semi-conductor")


def test_industry_filter_monotone_under_appending():
    rng = random.Random(13)
    words = ["alpha", "beta", "gamma", "delta"]
    keep = industry_predicate("semiconductor", "any_field")
    for _ in range(100):
        base = " ".join(rng.choices(words, k=rng.randint(0, 6)))
        posting = make_posting(job_description=base, employer_description="")
        before = keep(posting)
        grown = make_posting(
            job_description=base + " semiconductor tail", employer_description=""
        )
        assert keep(grown) is True
        if before:
            assert keep(grown)


def test_filter_corpus_keeps_input_order():
    postings = [
        make_posting(job_id="J1", job_description="semiconductor"),
        make_posting(job_id="J2", job_description="none"),
        make_posting(job_id="J3", employer_description="semiconductor"),
    ]
    assert [p.job_id for p in filter_corpus(postings, "semiconductor")] == ["J1", "J3"]


def test_discovery_reports_planted_title(shipped_taxonomy):
    postings = [
        make_posting(job_id=f"J{i}", title="Microelectronics Technician", job_description="x")
        for i in range(12)
    ]
    ranked = discover_candidate_titles(postings, shipped_taxonomy)
    assert ranked == [("microelectronics technician", 12)]


def test_discovery_empty_when_titles_covered(shipped_taxonomy):
    postings = [
        make_posting(job_id="J1", title="Design Engineer"),
        make_posting(job_id="J2", title="Senior Design Engineer"),
        make_posting(job_id="J3", title="Fab Technician"),
        make_posting(job_id="J4", title="Lead Fab Technician Team"),
    ]
    assert discover_candidate_titles(postings, shipped_taxonomy, min_count=1) == []


def test_discovery_min_count_threshold(shipped_taxonomy):
    # Generator truth: 5 rf engineer titles and 3 radar engineer titles.
    postings = [
        make_posting(job_id=f"R{i}", title="RF Engineer") for i in range(5)
    ] + [make_posting(job_id=f"D{i}", title="Radar Engineer") for i in range(3)]
    ranked = discover_candidate_titles(postings, shipped_taxonomy, min_count=4)
    assert ranked == [("rf engineer", 5)]


def test_discovery_disjoint_from_taxonomy(shipped_taxonomy):
    rng = random.Random(29)
    role_words = ["engineer", "technician", "scientist"]
    extra = ["quantum", "hyperspace", "ion", "beam"]
    postings = []
    for i in range(60):
        words = rng.choices(extra, k=rng.randint(1, 3)) + [rng.choice(role_words)]
        postings.append(make_posting(job_id=f"J{i}", title=" ".join(words)))
    ranked = discover_candidate_titles(postings, shipped_taxonomy, min_count=1)
    taxonomy_phrases = {j.phrase for j in shipped_taxonomy.jsts}
    assert ranked
    assert not taxonomy_phrases.intersection(phrase for phrase, _ in ranked)


def test_discovery_sorted_by_count_then_phrase(shipped_taxonomy):
    postings = (
        [make_posting(job_id=f"A{i}", title="Zeta Widget Technician") for i in range(4)]
        + [make_posting(job_id=f"B{i}", title="Alpha Widget Technician") for i in range(4)]
        + [make_posting(job_id=f"C{i}", title="Beam Analyst") for i in range(6)]
    )
    ranked = discover_candidate_titles(postings, shipped_taxonomy, min_count=1)
    counts = [count for _, count in ranked]
    assert counts == sorted(counts, reverse=True)
    top = [phrase for phrase, count in ranked if count == 4]
    assert top == sorted(top)
    # "widget technician" is an n-gram of both 4-count title groups.
    assert ranked[0] == ("widget technician", 8)
    assert ("beam analyst", 6) == ranked[1]


def test_discovery_counts_once_per_posting(shipped_taxonomy):
    postings = [
        make_posting(job_id="J1", title="Beam Analyst and Beam Analyst"),
        make_posting(job_id="J2", title="Beam Analyst"),
    ]
    ranked = discover_candidate_titles(postings, shipped_taxonomy, min_count=1)
    assert ("beam analyst", 2) in ranked


def test_discovery_rejects_bad_min_count(shipped_taxonomy):
    with pytest.raises(InputError):
        discover_candidate_titles([], shipped_taxonomy, min_count=0)


def test_match_index_scan_reusable(shipped_taxonomy):
    index = MatchIndex(shipped_taxonomy)
    hits = index.scan(("design", "engineer"))
    assert {j.phrase for j in hits} == {"design engineer"}
    assert index.scan(()) == set()


def _per_token_scan(taxonomy, tokens):
    """Reference scan: compare each term's tokens at every position of ``tokens``."""
    by_first = {}
    for jst in taxonomy.jsts:
        expanded = expand_hyphens(jst.tokens)
        by_first.setdefault(expanded[0], []).append((expanded, jst))
    hits = set()
    for i, tok in enumerate(tokens):
        for phrase, jst in by_first.get(tok, ()):
            if tokens[i : i + len(phrase)] == phrase:
                hits.add(jst)
    return hits


def test_scan_equals_per_token_scan(tmp_path, shipped_taxonomy):
    # Terms that share first tokens and extend one another, plus a hyphenated one.
    taxonomy = load_taxonomy(write_taxonomy_csv(tmp_path / "t.csv", [
        ("Engineer", "design engineer", ""),
        ("Engineer", "design engineer", "analog design engineer"),
        ("Engineer", "design engineer", "design engineer lead"),
        ("Engineer", "design engineer", "rf-design engineer"),
        ("Engineer", "test engineer", ""),
        ("Engineer", "test engineer", "test"),
        ("Engineer", "test engineer", "test test engineer"),
        ("Technician", "design", ""),
    ]))
    rng = random.Random(61)
    for tax, vocab in (
        (taxonomy, ["design", "engineer", "analog", "lead", "test", "rf", "x"]),
        (shipped_taxonomy, sorted({t for j in shipped_taxonomy.jsts for t in expand_hyphens(j.tokens)}) + ["x"]),
    ):
        index = MatchIndex(tax)
        for _ in range(3000):
            tokens = tuple(rng.choices(vocab, k=rng.randint(0, 12)))
            assert index.scan(tokens) == _per_token_scan(tax, tokens), tokens


def _tokenizing_filter(posting, token, mode):
    """Reference filter: tokenize both descriptions and look the token up."""
    in_job = token in expand_hyphens(normalize_text(posting.job_description))
    in_employer = token in expand_hyphens(normalize_text(posting.employer_description))
    return (in_job and in_employer) if mode == "all_fields" else (in_job or in_employer)


def test_expanded_tokens_equal_hyphen_expanded_normalized_tokens():
    rng = random.Random(23)
    alphabet = string.ascii_letters + string.digits + " -.,;:!?/()'\"éüñİß_" + "--  "
    for _ in range(2000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        assert expanded_tokens(text) == expand_hyphens(normalize_text(text)), repr(text)


def test_industry_filter_equals_tokenizing_filter():
    rng = random.Random(29)
    pieces = ["semiconductor", "Semiconductor", "semiconductors", "semi-conductor", "-semiconductor-",
              "xsemiconductor", "semiconductor_x", "semiconductor2", "wafer", "İ", "_", "-", " ", ",", "é"]
    for _ in range(2000):
        job, employer = ("".join(rng.choices(pieces, k=rng.randint(0, 6))) for _ in range(2))
        posting = make_posting(job_description=job, employer_description=employer)
        for token in ("semiconductor", "wafer"):
            for mode in ("any_field", "all_fields"):
                expected = _tokenizing_filter(posting, token, mode)
                assert industry_predicate(token, mode)(posting) is expected, (job, employer, token, mode)
                assert filter_corpus([posting], token, mode) == ([posting] if expected else [])


def test_match_corpus_equals_per_posting_match_with_fresh_index(shipped_taxonomy):
    """The per-title memo of match_corpus changes no record, also for titles
    that differ only in case, hyphens or spacing."""
    postings, _ = build_corpus(SynthConfig(seed=31, n_postings=400), shipped_taxonomy)
    variants = ["Design Engineer", "design engineer", "DESIGN  ENGINEER", "design-engineer", "Design - Engineer",
                " design engineer ", "Design Engineers", "Analog-Design Engineer", "analog design-engineer"]
    for i, title in enumerate(variants * 3):
        description = ["", "layout engineer on site", "mask designer wanted"][i % 3]
        postings.append(make_posting(job_id=f"V{i}", title=title, job_description=description))
    expected = [r for r in (match_posting(p, MatchIndex(shipped_taxonomy)) for p in postings) if r]
    records = match_corpus(postings, shipped_taxonomy)
    assert records == expected
    in_title = {r.job_id: {j.phrase for j in r.matched_in_title} for r in records if r.job_id.startswith("V")}
    assert in_title["V0"] == in_title["V3"] == {"design engineer"}
    assert in_title["V7"] == {"design engineer", "analog design engineer"}
    assert "V6" not in in_title  # "engineers" is another token, and the description is empty
    index = MatchIndex(shipped_taxonomy)
    record = match_posting(postings[-1], index)
    assert record.matched_in_title is index.title_hits(postings[-1].title)


def test_equal_term_sets_share_one_frozenset(shipped_taxonomy):
    """One index hands out one phrase-sorted tuple per distinct set of
    matched terms and one frozenset per distinct set of title hits, and the
    records still equal fresh-index ones."""
    postings, _ = build_corpus(SynthConfig(seed=32, n_postings=400), shipped_taxonomy)
    postings += [
        make_posting(job_id="S0", title="Design Engineer", job_description="layout engineer on site"),
        make_posting(job_id="S1", title="Layout Engineer", job_description="design engineer wanted"),
        make_posting(job_id="S2", title="Layout Engineer, design engineer"),
        make_posting(job_id="S3", title="Senior design engineer", job_description="semiconductor"),
    ]
    records = match_corpus(postings, shipped_taxonomy)
    fresh = (match_posting(p, MatchIndex(shipped_taxonomy)) for p in postings)
    assert records == [r for r in fresh if r]
    sets = [s for r in records for s in (r.matched_jsts, r.matched_in_title)]
    assert len({id(s) for s in sets}) == len(set(sets)) < len(records)
    assert all(list(r.matched_jsts) == sorted(r.matched_jsts, key=lambda j: j.phrase) for r in records)
    s0, s1, s2, s3 = records[-4:]
    assert s0.matched_jsts is s1.matched_jsts is s2.matched_jsts
    assert frozenset(s2.matched_jsts) == s2.matched_in_title
    assert s0.matched_in_title is s3.matched_in_title == frozenset(s3.matched_jsts)
