import hashlib
import random
from fractions import Fraction

import pytest

from jobpulse import corpus as corpus_mod
from jobpulse import synth as synth_mod
from jobpulse.corpus import Region, load_postings
from jobpulse.dedup import cross_region_report, weight_assignments
from jobpulse.employers import canonicalize
from jobpulse.errors import ContractError, InputError
from jobpulse.matcher import discover_candidate_titles, filter_corpus, industry_predicate, match_corpus
from jobpulse.synth import (
    SynthConfig,
    _NameRegistry,
    apportion,
    build_corpus,
    build_employer_stock,
    generate,
    plantable_jsts,
)
from jobpulse.taxonomy import JobFunction, load_taxonomy

from conftest import BUNDLED_DICTIONARY, content_groups, pass_rows, traced_peak, write_taxonomy_csv


def _posting_paths(out) -> list:
    """The posting files ``generate`` writes to ``out``, one per region; truth.csv sits beside them."""
    return [out / f"{region.value.lower()}.jsonl" for region in Region]


def _hash_dir(paths) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)]


# -- apportionment -----------------------------------------------------------


def test_apportion_exact_sum_and_quotas():
    counts = apportion(10, {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)})
    assert counts == {"a": 5, "b": 3, "c": 2}
    assert sum(counts.values()) == 10


def test_apportion_largest_remainder_tie_breaks_by_order():
    counts = apportion(1, {"x": Fraction(1, 2), "y": Fraction(1, 2)})
    assert counts == {"x": 1, "y": 0}


def test_apportion_random_sums():
    rng = random.Random(89)
    for _ in range(50):
        keys = [f"k{i}" for i in range(rng.randint(1, 6))]
        raw = [rng.randint(1, 9) for _ in keys]
        total_weight = sum(raw)
        weights = {k: Fraction(w, total_weight) for k, w in zip(keys, raw)}
        total = rng.randint(0, 500)
        counts = apportion(total, weights)
        assert sum(counts.values()) == total
        for k, w in weights.items():
            assert abs(counts[k] - total * w) < 1


def test_apportion_zero_weights():
    assert apportion(0, {"a": Fraction(0)}) == {"a": 0}
    with pytest.raises(InputError):
        apportion(3, {"a": Fraction(0)})


# -- config validation -------------------------------------------------------


def test_config_rejects_bad_rates():
    with pytest.raises(InputError):
        SynthConfig(off_industry_rate=Fraction(3, 2))
    with pytest.raises(InputError):
        SynthConfig(division_rate=Fraction(-1, 10))
    with pytest.raises(InputError):
        SynthConfig(n_postings=-1)


def test_config_rejects_bad_plants():
    with pytest.raises(InputError):
        SynthConfig(unknown_title_plants=(("!!!", 3),))
    with pytest.raises(InputError):
        SynthConfig(unknown_title_plants=(("rf engineer", -1),))


def test_config_coerces_floats_via_decimal_text():
    config = SynthConfig(off_industry_rate=0.15)
    assert config.off_industry_rate == Fraction(3, 20)


# -- determinism -------------------------------------------------------------


def test_same_seed_twice_is_byte_identical(tmp_path, shipped_taxonomy):
    config = SynthConfig(seed=7, n_postings=300, cross_region_repeat_count=3)
    generate(config, shipped_taxonomy, tmp_path / "a")
    generate(config, shipped_taxonomy, tmp_path / "b")
    paths_a = _posting_paths(tmp_path / "a") + [tmp_path / "a" / "truth.csv"]
    paths_b = _posting_paths(tmp_path / "b") + [tmp_path / "b" / "truth.csv"]
    assert _hash_dir(paths_a) == _hash_dir(paths_b)


def test_default_fixture_hashes_pinned(tmp_path, shipped_taxonomy):
    # Pins the random stream itself: a change to the draw order, or a Python
    # version whose random module draws differently, changes these hashes.
    result = generate(SynthConfig(), shipped_taxonomy, tmp_path)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in [*_posting_paths(tmp_path), tmp_path / "truth.csv"]}
    assert hashes == {
        "la.jsonl": "2dd75d8dccbf0d53fc4933363a10678c38a38ab2d176ae732eddcc5bd5c38399",
        "sb.jsonl": "b96ad74be5ac1561aa226604a77509994bcac7f15d300ae33307a7b064df3634",
        "sd.jsonl": "64d1d0ae6cb27c5b153fbcf5b9a381d073977287eec0f8e7158e4dd4a297c1ff",
        "truth.csv": "bac9bdfeb9f6235704685a797a5ce8758a5254baf1eccef79af29e3df56c68b9",
    }
    assert result.posting_count == 5300


def test_fixture_with_plants_repeats_and_rates_pinned(tmp_path, shipped_taxonomy):
    # Pins the draws the default fixture skips: title plants, cross-region
    # copies, and off-industry and division rates other than the defaults.
    config = SynthConfig(
        seed=23,
        n_postings=1000,
        off_industry_rate=Fraction(2, 5),
        division_rate=Fraction(1, 4),
        cross_region_repeat_count=9,
        unknown_title_plants=(("rf engineer", 6), ("microelectronics technician", 4)),
    )
    result = generate(config, shipped_taxonomy, tmp_path)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in [*_posting_paths(tmp_path), tmp_path / "truth.csv"]}
    assert hashes == {
        "la.jsonl": "ebdd823b9d9b0e04d2f526d76d4e76e90b0c718e6b0f1035ded071d835b9a329",
        "sb.jsonl": "88fb58c6c848cd0753d82b549c8d7886a2fd413da7b8ebd8f3879905eca0f1f3",
        "sd.jsonl": "a8c948d5c9258e5070ba07e34bf61f85bf90527a5402c6955262039d62d191c1",
        "truth.csv": "d3c5b654ec0635d47beeea828fa883345a31957d76d30af0a5c9e70430acaa6f",
    }
    assert result.posting_count == 1019


def test_generate_writes_in_chunks_near_the_build_peak(tmp_path, shipped_taxonomy, monkeypatch):
    # generate holds the postings and truth rows that build_corpus builds and
    # writes each file in chunks of lines, so its traced peak stays within
    # half again that of the build. Joining each region's JSON lines and
    # truth.csv into one string each peaked near twice the build. Chunks of
    # 256 lines split every file here, as 1,024-line chunks split the
    # files of a 100k-posting corpus.
    monkeypatch.setattr(corpus_mod, "CHUNK_LINES", 256)
    config = SynthConfig(seed=7, n_postings=3000)
    build_peak = traced_peak(build_corpus, config, shipped_taxonomy)
    generate_peak = traced_peak(generate, config, shipped_taxonomy, tmp_path)
    assert generate_peak < 1.5 * build_peak, (generate_peak, build_peak)


def test_distinct_seeds_differ(tmp_path, shipped_taxonomy):
    generate(SynthConfig(seed=1, n_postings=200), shipped_taxonomy, tmp_path / "a")
    generate(SynthConfig(seed=2, n_postings=200), shipped_taxonomy, tmp_path / "b")
    assert _hash_dir(_posting_paths(tmp_path / "a")) != _hash_dir(_posting_paths(tmp_path / "b"))


def test_zero_postings(tmp_path, shipped_taxonomy):
    generate(SynthConfig(n_postings=0), shipped_taxonomy, tmp_path)
    corpus, diagnostics = load_postings([str(p) for p in _posting_paths(tmp_path)])
    assert len(corpus) == 0 and not diagnostics
    assert (tmp_path / "truth.csv").read_text(encoding="utf-8") == ",".join(synth_mod.TRUTH_HEADER) + "\n"


# -- realized mixes ----------------------------------------------------------


def test_default_mixes_realized_exactly(shipped_taxonomy):
    config = SynthConfig(seed=3, n_postings=2000)
    postings, rows = build_corpus(config, shipped_taxonomy)
    assert len(postings) == 2000
    off = sum(1 for r in rows if r.off_industry)
    assert abs(Fraction(off, 2000) - Fraction(1, 3)) < Fraction(1, 100)
    la = sum(1 for r in rows if r.region is Region.LA)
    assert abs(Fraction(la, 2000) - Fraction(3, 4)) < Fraction(1, 100)
    k_hist: dict[int, int] = {}
    for r in rows:
        k_hist[len(r.jsts)] = k_hist.get(len(r.jsts), 0) + 1
    for k, share in synth_mod.MULTI_JST_RATE_BY_K.items():
        assert abs(Fraction(k_hist.get(k, 0), 2000) - share) < Fraction(1, 100)


def test_funnel_reduction_equals_truth_fraction_exactly(shipped_taxonomy):
    # Oracle: the generator's truth rows give the planted off-industry
    # observation fraction; the funnel must reproduce it as an exact rational.
    from jobpulse.report import build_funnel

    config = SynthConfig(seed=19, n_postings=900)
    postings, truth = build_corpus(config, shipped_taxonomy)
    records = match_corpus(postings, shipped_taxonomy)
    raw_obs = sum(len(r.matched_jsts) for r in records)
    filtered_keys = {
        (p.job_id, p.region) for p in filter_corpus(postings, "semiconductor")
    }
    filtered_obs = sum(
        len(r.matched_jsts) for r in records if (r.job_id, r.region) in filtered_keys
    )
    units = len(filtered_keys)
    funnel = build_funnel([raw_obs, filtered_obs, units])

    truth_total_obs = sum(len(r.jsts) for r in truth)
    truth_off_obs = sum(len(r.jsts) for r in truth if r.off_industry)
    assert raw_obs == truth_total_obs
    assert funnel.reductions[0] == Fraction(truth_off_obs, truth_total_obs)
    truth_units = sum(1 for r in truth if r.jsts and not r.off_industry)
    assert funnel.reductions[1] == Fraction(filtered_obs - truth_units, filtered_obs)


def test_plants_are_additional_postings(shipped_taxonomy):
    config = SynthConfig(seed=5, n_postings=100, unknown_title_plants=(("rf engineer", 7),))
    postings, truth = build_corpus(config, shipped_taxonomy)
    assert len(postings) == 107
    planted = [r for r in truth if r.jsts == ()]
    assert len(planted) == 7
    assert all(not r.off_industry for r in planted)


# -- pipeline recovery against ground truth ----------------------------------


@pytest.fixture(scope="module")
def recovery_run(shipped_taxonomy):
    config = SynthConfig(
        seed=17,
        n_postings=2000,
        cross_region_repeat_count=7,
        unknown_title_plants=(("microelectronics technician", 12), ("rf engineer", 5)),
    )
    postings, truth = build_corpus(config, shipped_taxonomy)
    return config, postings, truth


def test_recovery_match_sets(recovery_run, shipped_taxonomy):
    _, postings, truth = recovery_run
    by_unit = {(r.job_id, r.region): r for r in truth}
    records = {(r.job_id, r.region): r for r in match_corpus(postings, shipped_taxonomy)}
    for posting in postings:
        row = by_unit[(posting.job_id, posting.region)]
        record = records.get((posting.job_id, posting.region))
        got = sorted(j.phrase for j in record.matched_jsts) if record else []
        assert got == sorted(row.jsts)


def test_recovery_industry_flags(recovery_run):
    _, postings, truth = recovery_run
    by_unit = {(r.job_id, r.region): r for r in truth}
    for posting in postings:
        row = by_unit[(posting.job_id, posting.region)]
        assert industry_predicate("semiconductor", "any_field")(posting) == (not row.off_industry)


def test_recovery_weights(recovery_run, shipped_taxonomy):
    _, postings, truth = recovery_run
    filtered = filter_corpus(postings, "semiconductor")
    ledger = weight_assignments(pass_rows(filtered, shipped_taxonomy))
    by_unit = {(r.job_id, r.region): r for r in truth}
    per_unit: dict[tuple, list] = {}
    for a in ledger.assignments:
        per_unit.setdefault((a.job_id, a.region), []).append(a)
    expected_units = {
        (r.job_id, r.region) for r in truth if r.jsts and not r.off_industry
    }
    assert set(per_unit) == expected_units
    for key, assignments in per_unit.items():
        row = by_unit[key]
        k = len(row.jsts)
        assert all(a.weight == Fraction(1, k) for a in assignments)
        assert sum(a.weight for a in assignments) == 1


def test_recovery_employer_partition(recovery_run):
    _, postings, truth = recovery_run
    names = sorted({p.employer_name for p in postings})
    mapping, rejected = canonicalize(names, BUNDLED_DICTIONARY)
    assert rejected == []
    truth_partition: dict[str, set[str]] = {}
    for row in truth:
        truth_partition.setdefault(row.employer_identity, set()).add(row.employer_name)
    predicted_partition: dict[str, set[str]] = {}
    for name in names:
        predicted_partition.setdefault(mapping[name].canonical_name, set()).add(name)
    assert sorted(map(sorted, predicted_partition.values())) == sorted(
        map(sorted, truth_partition.values())
    )


def test_recovery_cross_region_groups(recovery_run):
    _, postings, truth = recovery_run
    groups = cross_region_report(content_groups(postings))
    assert len(groups) == 7
    truth_groups: dict[int, set[tuple]] = {}
    for row in truth:
        if row.cross_region_group is not None:
            truth_groups.setdefault(row.cross_region_group, set()).add((row.job_id, row.region))
    predicted = sorted(sorted(g.members) for g in groups)
    expected = sorted(sorted(members) for members in truth_groups.values())
    assert predicted == expected


def test_recovery_discovery_counts(recovery_run, shipped_taxonomy):
    _, postings, truth = recovery_run
    filtered = filter_corpus(postings, "semiconductor")
    ranked = dict(discover_candidate_titles(filtered, shipped_taxonomy, min_count=3))
    assert ranked["microelectronics technician"] == 12
    assert ranked["rf engineer"] == 5


# -- guard rails -------------------------------------------------------------


def test_plant_containing_existing_term_rejected(shipped_taxonomy):
    config = SynthConfig(n_postings=10, unknown_title_plants=(("senior design engineer", 3),))
    with pytest.raises(InputError, match="existing taxonomy term"):
        build_corpus(config, shipped_taxonomy)


def test_industry_token_clashing_with_taxonomy_rejected(tmp_path):
    path = write_taxonomy_csv(tmp_path / "clash.csv", [("Engineer", "semiconductor", "")])
    taxonomy = load_taxonomy(path)
    with pytest.raises(InputError, match="itself a taxonomy term"):
        build_corpus(SynthConfig(n_postings=5), taxonomy)


def test_hyphenated_industry_token_rejected_before_generation(shipped_taxonomy, monkeypatch):
    # The filter splits "semi-conductor" into two runs, so no posting could
    # carry it; the generator must say so before it draws anything.
    def build_stock(*args):
        raise AssertionError("employer stock built before the industry token was checked")

    monkeypatch.setattr(synth_mod, "build_employer_stock", build_stock)
    with pytest.raises(InputError, match="industry token must be a single token, got 'semi-conductor'"):
        build_corpus(SynthConfig(n_postings=50, industry_token="semi-conductor"), shipped_taxonomy)


def test_too_many_cross_region_repeats_rejected(shipped_taxonomy):
    with pytest.raises(InputError, match="cross-region"):
        build_corpus(SynthConfig(n_postings=3, cross_region_repeat_count=50), shipped_taxonomy)


def test_plantable_pools_exclude_nested_terms(shipped_taxonomy):
    pools = plantable_jsts(shipped_taxonomy)
    scientist = {j.phrase for j in pools[JobFunction.SCIENTIST]}
    assert "research scientist" in scientist
    assert "materials research scientist" not in scientist
    assert all(len(pool) >= 5 for pool in pools.values())


def test_employer_stock_counts_and_no_cross_identity_prefixes():
    rng = random.Random(97)
    stock = build_employer_stock(rng, 260, Fraction(3, 20), Fraction(1, 5))
    names = stock.all_names()
    assert len(names) == 260
    seqs = {}
    for raw, key in names:
        seq = tuple(raw.lower().replace(" inc", "").split())
        seqs[seq] = key
    for a, ka in seqs.items():
        for b, kb in seqs.items():
            if ka == kb or len(a) >= len(b):
                continue
            assert b[: len(a)] != a, (a, b)


def test_division_share_matches_plan():
    rng = random.Random(101)
    stock = build_employer_stock(rng, 1000, Fraction(3, 20), Fraction(1, 5))
    division_names = sum(len(i.division_displays) for i in stock.identities)
    assert division_names == 105  # 70% of the 150 planted division names merge


def test_employer_stock_is_built_in_linear_work(monkeypatch):
    # The 100k fixture's stock: names are enumerated from shuffled families,
    # so the registry checks each candidate at most once. Drawing random
    # names and rejecting the taken ones made 23 checks per name.
    calls = 0
    conflicts = _NameRegistry.conflicts

    def counting(self, seq, identity):
        nonlocal calls
        calls += 1
        return conflicts(self, seq, identity)

    monkeypatch.setattr(_NameRegistry, "conflicts", counting)
    stock = build_employer_stock(random.Random(100), 18_519, Fraction(3, 20), Fraction(1, 5))
    assert len(stock.all_names()) == 18_519
    assert calls <= 2 * 18_519, calls


def test_exhausted_name_families_raise(monkeypatch):
    # Three words and one noun make 3 + 3 + 6 names with no repeated token:
    # a larger stock ends in ContractError, never in an endless search.
    monkeypatch.setattr(synth_mod, "_DISTINCTIVE_WORDS", ("apex", "nova", "orion"))
    monkeypatch.setattr(synth_mod, "_ORG_NOUNS", ("works",))
    assert len(build_employer_stock(random.Random(1), 4, Fraction(0), Fraction(0)).all_names()) == 4
    with pytest.raises(ContractError, match="exhausted"):
        build_employer_stock(random.Random(1), 40, Fraction(0), Fraction(0))


# -- name registry -----------------------------------------------------------


class _PairwiseRegistry:
    """Reference registry: scans every claim in the candidate's first-token block."""

    def __init__(self) -> None:
        self._by_first = {}

    def conflicts(self, seq, identity):
        for other, owner in self._by_first.get(seq[0], ()):
            if owner == identity:
                continue
            shorter, longer = (other, seq) if len(other) <= len(seq) else (seq, other)
            if longer[: len(shorter)] == shorter:
                return True
        return False

    def claim(self, seq, identity):
        self._by_first.setdefault(seq[0], []).append((seq, identity))


def test_registry_prefix_cases():
    registry = _NameRegistry()
    registry.claim(("apex", "dynamics"), "id0")
    assert not registry.conflicts(("apex", "dynamics", "labs"), "id0")  # a division of its own parent
    assert registry.conflicts(("apex", "dynamics", "labs"), "id1")
    assert registry.conflicts(("apex", "dynamics"), "id1")
    assert registry.conflicts(("apex",), "id1")
    assert not registry.conflicts(("apex", "works"), "id1")
    registry.claim(("apex", "works"), "id1")  # two identities share the unclaimed prefix ("apex",)
    assert registry.conflicts(("apex",), "id0") and registry.conflicts(("apex",), "id1")
    registry.claim(("nova", "foundry"), "ghost0")  # a withheld parent, then its orphan division
    assert not registry.conflicts(("nova", "foundry", "west"), "ghost0")
    registry.claim(("nova", "foundry", "west"), "ghost0")
    assert registry.conflicts(("nova", "foundry"), "id2")
    assert not registry.conflicts(("nova", "labs"), "id2")


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_registry_matches_pairwise_oracle(seed):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(60)]
    identities = [f"id{i}" for i in range(12)] + ["ghost0", "ghost1"]
    fast, oracle = _NameRegistry(), _PairwiseRegistry()
    claimed = []
    outcomes = {True: 0, False: 0}
    for step in range(2500):
        if claimed and rng.random() < 0.3:
            # Extend an existing claim, under its own identity or another.
            seq, owner = rng.choice(claimed)
            seq += tuple(rng.choices(words, k=rng.randint(0, 2)))
            identity = owner if rng.random() < 0.5 else rng.choice(identities)
        else:
            # Most candidates land in one first-token block.
            first = "advanced" if rng.random() < 0.9 else rng.choice(words)
            seq = (first,) + tuple(rng.choices(words, k=rng.randint(0, 3)))
            identity = rng.choice(identities)
        expected = oracle.conflicts(seq, identity)
        assert fast.conflicts(seq, identity) == expected, (step, seq, identity)
        outcomes[expected] += 1
        # Claim like the generator does, plus a few forced claims that leave
        # two identities owning related names. In the big block, names of one
        # or two tokens are only probed: claimed, they would block most of it.
        if (len(seq) > 2 or seq[0] != "advanced") and (not expected or rng.random() < 0.05):
            fast.claim(seq, identity)
            oracle.claim(seq, identity)
            claimed.append((seq, identity))
    assert sum(seq[0] == "advanced" for seq, _ in claimed) > 1000
    assert min(outcomes.values()) > 500
