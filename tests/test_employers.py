import random
from fractions import Fraction

import pytest

from jobpulse import corpus as corpus_mod
from jobpulse.cli import DEFAULT_DICTIONARY
from jobpulse.corpus import Region, csv_text
from jobpulse.dedup import weight_assignments
from jobpulse.employers import (
    CanonicalEmployer,
    canonicalize,
    employer_stats,
    load_dictionary,
    normalize_name,
    render_employers_csv,
    render_employers_text,
    mapping_csv_chunks,
    render_mapping_csv,
)
from jobpulse.errors import ContractError, InputError
from jobpulse.synth import build_employer_stock
from jobpulse.taxonomy import lookup

from conftest import BUNDLED_DICTIONARY, make_unit, traced_memory


def _groups(mapping):
    by_canonical: dict[str, set[str]] = {}
    for raw, employer in mapping.items():
        by_canonical.setdefault(employer.canonical_name, set()).add(raw)
    return by_canonical


def test_amazon_and_amazon_web_services_merge():
    mapping, rejected = canonicalize(["Amazon", "Amazon Web Services"], BUNDLED_DICTIONARY)
    assert rejected == []
    assert mapping["Amazon"].canonical_name == "amazon"
    assert mapping["Amazon Web Services"].canonical_name == "amazon"
    assert mapping["Amazon"] is mapping["Amazon Web Services"]


def test_advanced_micro_and_advanced_systems_stay_distinct():
    mapping, _ = canonicalize(["Advanced Micro Devices", "Advanced Systems"], BUNDLED_DICTIONARY)
    assert mapping["Advanced Micro Devices"].canonical_name == "advanced micro devices"
    assert mapping["Advanced Systems"].canonical_name == "advanced systems"


def test_university_of_california_campuses_stay_distinct():
    mapping, _ = canonicalize(
        ["University of California Los Angeles", "University of California Santa Barbara"], BUNDLED_DICTIONARY
    )
    names = {e.canonical_name for e in mapping.values()}
    assert len(names) == 2


def test_dictionary_word_alone_never_absorbs_longer_names():
    mapping, _ = canonicalize(["Advanced", "Advanced Micro Devices"], BUNDLED_DICTIONARY)
    assert mapping["Advanced"].canonical_name == "advanced"
    assert mapping["Advanced Micro Devices"].canonical_name == "advanced micro devices"


def test_legal_suffix_is_not_distinguishing():
    mapping, _ = canonicalize(["Amazon", "Amazon Inc", "Amazon, LLC"], BUNDLED_DICTIONARY)
    assert len({e.canonical_name for e in mapping.values()}) == 1


def test_parent_absorbs_multiple_divisions():
    mapping, _ = canonicalize(["Amazon", "Amazon Web Services", "Amazon Robotics"], BUNDLED_DICTIONARY)
    assert {e.canonical_name for e in mapping.values()} == {"amazon"}


def test_divisions_without_parent_stay_apart():
    mapping, _ = canonicalize(["Amazon Web Services", "Amazon Robotics"], BUNDLED_DICTIONARY)
    assert len({e.canonical_name for e in mapping.values()}) == 2


def test_normalize_name_strips_trailing_suffixes():
    assert normalize_name("Vortex Dynamics Inc") == ("vortex", "dynamics")
    assert normalize_name("Vortex Co Ltd") == ("vortex",)
    assert normalize_name("Co Ltd") == ("co", "ltd")
    assert normalize_name("Inc") == ("inc",)


def test_first_tokens_differ_never_merged():
    rng = random.Random(53)
    firsts = ["apex", "zenith", "umbra", "helios", "talon"]
    seconds = ["labs", "works", "devices"]
    names = []
    for i, first in enumerate(firsts):
        names.append(f"{first} {rng.choice(seconds)} {i}")
    mapping, _ = canonicalize(names, BUNDLED_DICTIONARY)
    for raw, employer in mapping.items():
        assert raw.split()[0].lower() == employer.canonical_name.split()[0]
    assert len(_groups(mapping)) == len(firsts)


def test_canonicalize_order_invariant():
    rng = random.Random(59)
    names = [
        "Amazon",
        "Amazon Web Services",
        "Advanced Micro Devices",
        "Advanced Systems",
        "Vortex Dynamics",
        "Vortex Dynamics Research",
        "University of California Los Angeles",
        "University of California Santa Barbara",
    ]
    baseline, _ = canonicalize(names, BUNDLED_DICTIONARY)
    base_groups = _groups(baseline)
    for _ in range(10):
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping, _ = canonicalize(shuffled, BUNDLED_DICTIONARY)
        assert _groups(mapping) == base_groups


def test_mapping_key_order_ignores_input_order():
    spellings = [
        "Vortex Dynamics", "VORTEX DYNAMICS", "vortex dynamics", "Vortex  Dynamics", "Vortex Dynamics Inc",
        "Vortex Dynamics, LLC", "Vortex Dynamics Corp", "vortex dynamics ltd", "Vortex Dynamics Co", "Vortex Dynamics!",
    ]
    rng = random.Random(73)
    orders = set()
    for _ in range(200):
        rng.shuffle(spellings)
        mapping, _ = canonicalize(spellings, BUNDLED_DICTIONARY)
        assert len(_groups(mapping)) == 1
        orders.add(tuple(mapping))
    assert orders == {tuple(sorted(spellings))}


def test_canonicalize_idempotent_on_canonical_names():
    names = ["Amazon", "Amazon Web Services", "Advanced Micro Devices", "Vortex Dynamics Inc"]
    mapping, _ = canonicalize(names, BUNDLED_DICTIONARY)
    canonical_names = sorted({e.canonical_name for e in mapping.values()})
    second, _ = canonicalize(canonical_names, BUNDLED_DICTIONARY)
    for name in canonical_names:
        assert second[name].canonical_name == name
        assert _groups(second)[name] == {name}


def test_canonical_count_bounds():
    merged, _ = canonicalize(["Amazon", "Amazon Web Services"], BUNDLED_DICTIONARY)
    assert len(_groups(merged)) < 2
    untouched, _ = canonicalize(["Apex Labs", "Zenith Works"], BUNDLED_DICTIONARY)
    assert len(_groups(untouched)) == 2


def test_identical_normalized_names_collapse():
    mapping, _ = canonicalize(["Vortex  Dynamics", "vortex dynamics", "Vortex Dynamics Inc"], BUNDLED_DICTIONARY)
    assert len(_groups(mapping)) == 1
    assert _groups(mapping)["vortex dynamics"] == {"Vortex  Dynamics", "vortex dynamics", "Vortex Dynamics Inc"}


def test_empty_names_rejected_with_diagnostic():
    mapping, rejected = canonicalize(["", "   ", "!!!", "Apex Labs"], BUNDLED_DICTIONARY)
    assert rejected == ["", "   ", "!!!"]
    assert list(mapping) == ["Apex Labs"]


def test_custom_dictionary_guard():
    # "pacific" alone must not absorb when it is a dictionary token.
    mapping, _ = canonicalize(["Pacific", "Pacific Circuits"], frozenset({"pacific"}))
    assert len(_groups(mapping)) == 2
    mapping2, _ = canonicalize(["Pacific", "Pacific Circuits"], frozenset({"unused"}))
    assert len(_groups(mapping2)) == 1


def test_bundled_dictionary_tokens():
    d = load_dictionary(str(DEFAULT_DICTIONARY))
    assert type(d) is frozenset
    assert "advanced" in d and "university" in d and "of" in d and "american" in d
    # The words the CLI guards beyond the methodology's four keep these apart.
    mapping, _ = canonicalize(["Pacific", "Pacific Circuits", "National", "National Instruments"], d)
    assert len(_groups(mapping)) == 4


def test_load_dictionary(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text("# comment\nadvanced\nAmerican\n\nof\n", encoding="utf-8")
    d = load_dictionary(str(path))
    assert d == frozenset({"advanced", "american", "of"})
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_dictionary(str(empty))


def test_planted_stock_recovers_exactly():
    rng = random.Random(61)
    stock = build_employer_stock(rng, 400, Fraction(3, 20), Fraction(1, 5))
    names = stock.all_names()
    assert len(names) == 400
    mapping, rejected = canonicalize([raw for raw, _ in names], BUNDLED_DICTIONARY)
    assert rejected == []
    truth_groups: dict[str, set[str]] = {}
    for raw, key in names:
        truth_groups.setdefault(key, set()).add(raw)
    predicted = sorted(sorted(g) for g in _groups(mapping).values())
    expected = sorted(sorted(g) for g in truth_groups.values())
    assert predicted == expected


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if (len(ra), ra) <= (len(rb), rb):
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


def _pairwise_canonicalize(names, dictionary):
    """Reference grouping: union every guarded prefix pair within a first-token block."""
    rejected = []
    by_sequence = {}
    for raw in names:
        tokens = normalize_name(raw)
        if not tokens:
            rejected.append(raw)
            continue
        by_sequence.setdefault(tokens, set()).add(raw)
    sequences = sorted(by_sequence)
    uf = _UnionFind(sequences)
    by_first = {}
    for seq in sequences:
        by_first.setdefault(seq[0], []).append(seq)
    for block in by_first.values():
        for short in block:
            if all(t in dictionary for t in short):
                continue
            for other in block:
                if len(other) > len(short) and other[: len(short)] == short:
                    uf.union(short, other)
    groups = {}
    for seq in sequences:
        groups.setdefault(uf.find(seq), []).append(seq)
    mapping = {}
    for member_seqs in groups.values():
        canonical_seq = min(member_seqs, key=lambda s: (len(s), s))
        employer = CanonicalEmployer(" ".join(canonical_seq))
        for raw in sorted(raw for seq in member_seqs for raw in by_sequence[seq]):
            mapping[raw] = employer
    return mapping, rejected


_HEADS = [("advanced",), ("university", "of"), ("american",), ("of",), ("apex",), ("zenith",), ("co",)]
_WORDS = ["micro", "devices", "systems", "california", "los", "angeles", "labs", "of", "advanced", "co", "web"]
_JUNK = ["", "   ", "!!!", "Inc", "Co Ltd", "LLC, Inc."]


def _random_names(rng):
    """Names sharing heads and prefixes: parents, divisions, orphan divisions, variants."""
    stock = [
        rng.choice(_HEADS) + tuple(rng.choices(_WORDS, k=rng.randint(0, 4)))
        for _ in range(rng.randint(1, 12))
    ]
    names = []
    for seq in stock:
        for end in range(1, len(seq) + 1):  # each prefix maybe present: a withheld one orphans its divisions
            if end == len(seq) or rng.random() < 0.4:
                text = " ".join(seq[:end])
                text = rng.choice([text, text.title(), text.upper(), "  " + text.replace(" ", "  ")])
                if rng.random() < 0.3:
                    text += rng.choice([" Inc", ", LLC", " Co Ltd", " corp."])
                names.append(text)
    names += rng.choices(_JUNK, k=rng.randint(0, 2))
    rng.shuffle(names)
    return names


def test_canonicalize_matches_pairwise_oracle_on_random_name_sets():
    rng = random.Random(67)
    dictionaries = [
        BUNDLED_DICTIONARY,
        frozenset({"american", "advanced", "university", "of"}),
        frozenset({"apex", "micro", "of"}),
    ]
    for _ in range(2000):
        names = _random_names(rng)
        dictionary = rng.choice(dictionaries)
        mapping, rejected = canonicalize(names, dictionary)
        expected, expected_rejected = _pairwise_canonicalize(names, dictionary)
        assert rejected == expected_rejected, names
        assert list(mapping) == list(expected), names
        assert {raw: e.canonical_name for raw, e in mapping.items()} == {
            raw: e.canonical_name for raw, e in expected.items()
        }, names
        assert _groups(mapping) == _groups(expected), names
        assert len({id(e) for e in mapping.values()}) == len(_groups(mapping)), names  # one object per group


def test_canonicalize_repeated_names_match_per_occurrence_oracle():
    rng = random.Random(71)
    for _ in range(500):
        distinct = _random_names(rng) + rng.choices(_JUNK, k=2)
        names = distinct + rng.choices(distinct, k=rng.randint(1, 2 * len(distinct)))
        rng.shuffle(names)
        mapping, rejected = canonicalize(names, BUNDLED_DICTIONARY)
        expected, expected_rejected = _pairwise_canonicalize(names, BUNDLED_DICTIONARY)
        assert rejected == expected_rejected, names
        assert list(mapping) == list(expected), names
        assert mapping == expected, names


def test_every_rejected_occurrence_is_kept_and_logged(caplog):
    names = ["", "Apex", "   ", "!!!", "Apex Labs", "!!!", "", "Apex"]
    with caplog.at_level("WARNING", logger="jobpulse.employers"):
        mapping, rejected = canonicalize(names, BUNDLED_DICTIONARY)
    assert rejected == ["", "   ", "!!!", "!!!", ""]
    assert [r.args[0] for r in caplog.records] == rejected
    assert set(mapping) == {"Apex", "Apex Labs"}


def _one_block_of_twenty_thousand_names() -> list[str]:
    """Parents with two divisions each, orphan divisions in pairs, and two dictionary-only names."""
    parents = [f"University of P{i}" for i in range(4000)]
    divisions = [f"{p} Medical{tail}" for p in parents for tail in ("", " Center")]
    orphans = [f"University of Q{j} Labs{tail}" for j in range(3999) for tail in ("", " West")]
    return parents + divisions + orphans + ["University", "University of"]


def test_one_block_of_twenty_thousand_names_groups_by_prefix():
    names = _one_block_of_twenty_thousand_names()
    assert len(names) == 20_000
    mapping, rejected = canonicalize(names, BUNDLED_DICTIONARY)
    assert rejected == []
    sizes = sorted(len(group) for group in _groups(mapping).values())
    assert sizes == [1] * 2 + [2] * 3999 + [3] * 4000
    assert mapping["University of P7 Medical Center"].canonical_name == "university of p7"
    assert mapping["University of Q7 Labs West"].canonical_name == "university of q7 labs"
    assert _groups(mapping)["university"] == {"University"}
    assert _groups(mapping)["university of"] == {"University of"}


def test_grouping_memory_stays_below_twice_the_normalized_names():
    # canonicalize keeps one tuple of shared token strings and one list of
    # spellings per distinct normalized name, and frees them once the groups
    # hold the raw names, so its traced peak, result included, stays under
    # twice what the normalized names alone hold: 0.81 times on Python 3.11.
    # A set of spellings and fresh token strings per name, kept until the
    # mapping was built, peaked at 2.40 times.
    names = _one_block_of_twenty_thousand_names()
    normalized, _ = traced_memory(list, map(normalize_name, names))
    _, peak = traced_memory(canonicalize, names, BUNDLED_DICTIONARY)
    assert peak < 2 * normalized, (peak, normalized)


def _ledger_units(shipped_taxonomy, names):
    """A ledger of one unit per name, J0, J1, ... in LA, each of one term and employed by its name."""
    jst = lookup(shipped_taxonomy, "design engineer")
    return weight_assignments([make_unit(f"J{i}", [jst], Region.LA, name) for i, name in enumerate(names)])


def test_employer_stats_mean_and_top_share(shipped_taxonomy):
    # 4,044 units across 1,135 employers; the top three hold 433 units.
    n_units, n_employers = 4044, 1135
    top_sizes = [145, 144, 144]
    rest = n_units - sum(top_sizes)  # 3611 over 1132 employers
    sizes = top_sizes + [4] * (rest - 3 * (n_employers - 3)) + [3] * (
        (n_employers - 3) - (rest - 3 * (n_employers - 3))
    )
    assert len(sizes) == n_employers and sum(sizes) == n_units
    names = [f"emp{i:04d}" for i in range(n_employers)]
    ledger = _ledger_units(shipped_taxonomy, [name for name, size in zip(names, sizes) for _ in range(size)])
    mapping, _ = canonicalize(names, BUNDLED_DICTIONARY)
    report = employer_stats(ledger, mapping, top_k=3)
    assert report.employer_count == 1135
    assert report.unit_total == 4044
    assert report.mean_label == "3.6"
    assert report.top_total == 433
    assert report.top_share_label == "10.7%"


def test_employer_stats_singleton(shipped_taxonomy):
    ledger = _ledger_units(shipped_taxonomy, ["Solo Systems"])
    mapping, _ = canonicalize(["Solo Systems"], BUNDLED_DICTIONARY)
    report = employer_stats(ledger, mapping)
    assert report.employer_count == 1
    assert report.mean_label == "1.0"
    assert report.top_share_label == "100.0%"


def test_employer_stats_unmapped_name_is_contract_error(shipped_taxonomy):
    ledger = _ledger_units(shipped_taxonomy, ["Unknown Name"])
    mapping, _ = canonicalize(["Known Name"], BUNDLED_DICTIONARY)
    with pytest.raises(ContractError, match="missing from canonical mapping"):
        employer_stats(ledger, mapping)


def test_employer_stats_missing_unit_link_is_contract_error(shipped_taxonomy):
    # Each unit carries its posting's employer name, so the one unit with no
    # name to link is a posting whose name is empty: canonicalize rejects it.
    ledger = _ledger_units(shipped_taxonomy, ["Known Name", ""])
    mapping, rejected = canonicalize(["Known Name", ""], BUNDLED_DICTIONARY)
    assert rejected == [""]
    with pytest.raises(ContractError, match="employer name '' missing from canonical mapping"):
        employer_stats(ledger, mapping)


def test_employer_stats_fractional_units(shipped_taxonomy):
    d = lookup(shipped_taxonomy, "design engineer")
    l = lookup(shipped_taxonomy, "layout engineer")
    ledger = weight_assignments(
        [make_unit("J1", [d, l], Region.LA, "Apex Labs"), make_unit("J2", [d], Region.SD, "Apex Labs")]
    )
    mapping, _ = canonicalize(["Apex Labs"], BUNDLED_DICTIONARY)
    stats = employer_stats(ledger, mapping)
    assert stats.unit_total == 2  # fractional weights per unit still sum to 1


def test_render_mapping_csv():
    mapping, _ = canonicalize(["Amazon Web Services", "Amazon"], BUNDLED_DICTIONARY)
    content = render_mapping_csv(mapping)
    assert content.splitlines()[0] == "raw_name,canonical_name"
    assert "Amazon Web Services,amazon" in content


def test_mapping_chunks_quote_awkward_names(monkeypatch):
    names = ["Foo, Inc", 'Bar "Q" Labs', "Line\nBreak Co", "Société Générale", "Ünïcode GmbH", "Foo Bar, Inc"]
    mapping, rejected = canonicalize(names, BUNDLED_DICTIONARY)
    assert not rejected
    rows = sorted((raw, employer.canonical_name) for raw, employer in mapping.items())
    expected = csv_text(["raw_name", "canonical_name"], rows)
    assert render_mapping_csv(mapping) == expected
    for size in (1, 2, 4096):
        monkeypatch.setattr(corpus_mod, "CHUNK_LINES", size)
        chunks = list(mapping_csv_chunks(mapping))
        assert "".join(chunks) == expected
        assert len(chunks) == -(-(len(mapping) + 1) // size)
    assert list(mapping_csv_chunks({})) == ["raw_name,canonical_name\n"]


def test_render_employers_csv(shipped_taxonomy):
    ledger = _ledger_units(shipped_taxonomy, ["Apex Labs", "Zenith Works"])
    mapping, _ = canonicalize(["Apex Labs", "Zenith Works"], BUNDLED_DICTIONARY)
    stats = employer_stats(ledger, mapping)
    lines = render_employers_csv(stats).splitlines()
    assert lines[0] == "canonical_name,units,units_num,units_den,share_pct"
    assert lines[1] == "apex labs,1.0,1,1,50.0%"


def test_render_employers_text_aligns_names_shorter_than_the_header(shipped_taxonomy):
    ledger = _ledger_units(shipped_taxonomy, ["ab", "c"])
    mapping, _ = canonicalize(["ab", "c"], BUNDLED_DICTIONARY)
    stats = employer_stats(ledger, mapping)
    assert render_employers_text(stats).splitlines()[-3:] == [
        "employer      units  share",
        "ab              1.0  50.0%",
        "c               1.0  50.0%",
    ]
