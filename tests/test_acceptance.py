"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist. Tolerances are pinned here, not configurable.
"""

import csv
import hashlib
import io
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jobpulse.cli import DEFAULT_DICTIONARY, main
from jobpulse.corpus import Region, load_postings
from jobpulse.dedup import LEDGER_HEADER, ledger_csv_chunks, weight_assignments
from jobpulse.employers import canonicalize, employer_stats
from jobpulse.matcher import discover_candidate_titles, filter_corpus, match_corpus
from jobpulse.report import build_funnel, demand_by, ratio
from jobpulse.synth import SynthConfig, build_corpus, build_employer_stock, generate
from jobpulse.taxonomy import load_taxonomy, lookup
from jobpulse.matcher import MatchRecord

from conftest import BUNDLED_DICTIONARY, make_posting


def _ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def default_pipeline(shipped_taxonomy):
    """Default-config synthetic corpus pushed through every pipeline stage."""
    config = SynthConfig()
    postings, truth = build_corpus(config, shipped_taxonomy)
    records_all = match_corpus(postings, shipped_taxonomy)
    raw_obs = sum(len(r.matched_jsts) for r in records_all)
    filtered = filter_corpus(postings, "semiconductor")
    filtered_keys = {(p.job_id, p.region) for p in filtered}
    records_filtered = [r for r in records_all if (r.job_id, r.region) in filtered_keys]
    filtered_obs = sum(len(r.matched_jsts) for r in records_filtered)
    ledger = weight_assignments(records_filtered)
    return {
        "postings": postings,
        "truth": truth,
        "filtered": filtered,
        "raw_obs": raw_obs,
        "filtered_obs": filtered_obs,
        "ledger": ledger,
    }


def test_criterion_weight_conservation(shipped_taxonomy):
    # 1,000 random generated corpora of up to 200 postings: the weights of
    # each unit in the ledger.csv the CLI writes, and the ledger total, must
    # sum with exact rational equality, within a 60 second budget.
    started = time.monotonic()
    rng = random.Random(2025)
    pool = list(shipped_taxonomy.jsts)
    corpora_checked = 0
    for trial in range(1000):
        n = rng.randint(0, 200)
        records = []
        for i in range(n):
            k = rng.randint(1, 5)
            jsts = frozenset(rng.sample(pool, k))
            records.append(
                MatchRecord(
                    job_id=f"T{trial}J{i}",
                    region=rng.choice(list(Region)),
                    matched_jsts=jsts,
                    matched_in_title=frozenset(),
                )
            )
        ledger = weight_assignments(records)
        header, *rows = csv.reader(io.StringIO("".join(ledger_csv_chunks(ledger))))
        assert tuple(header) == LEDGER_HEADER
        per_unit: dict[tuple, Fraction] = {}
        for job_id, region, _, _, _, weight_num, weight_den in rows:
            key = (job_id, region)
            per_unit[key] = per_unit.get(key, Fraction(0)) + Fraction(int(weight_num), int(weight_den))
        assert all(total == 1 for total in per_unit.values())
        assert len(per_unit) == n
        assert ledger.total_weight() == ledger.unit_count == n
        corpora_checked += 1
    elapsed = time.monotonic() - started
    assert corpora_checked == 1000
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _ok(f"weight conservation (1000 corpora in {elapsed:.1f}s)")


def _oracle_tokens(text: str) -> list[str]:
    out, word = [], []
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
    expanded = []
    for token in out:
        expanded.extend(part for part in token.split("-") if part)
    return expanded


def _oracle_contains(haystack: list[str], needle: list[str]) -> bool:
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


def test_criterion_match_oracle_equivalence(tmp_path):
    # 1,000 postings x 250 terms: production match sets must equal the
    # exhaustive all-pairs scan with zero discrepancies.
    shipped_rows = Path(DEFAULT_DICTIONARY).parent / "taxonomy.csv"
    base = shipped_rows.read_text(encoding="utf-8")
    extra = "".join(f"Engineer,design engineer,aux{i} engineer\n" for i in range(164))
    path = tmp_path / "big.csv"
    path.write_text(base + extra, encoding="utf-8")
    taxonomy = load_taxonomy(str(path))
    assert len(taxonomy.jsts) == 250

    rng = random.Random(4097)
    postings, _ = build_corpus(SynthConfig(seed=31, n_postings=500), taxonomy)
    postings = list(postings)
    phrases = [j.phrase for j in taxonomy.jsts]
    fillers = ["the", "our", "shift", "work", "crew", "apply", "line", "hub"]
    for i in range(500):
        words: list[str] = []
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < 0.45:
                words.extend(rng.choice(phrases).split())
            elif roll < 0.6:
                broken = rng.choice(phrases).split()
                if len(broken) > 1:
                    broken.insert(rng.randint(1, len(broken) - 1), "gap")
                words.extend(broken)
            else:
                words.extend(rng.choices(fillers, k=rng.randint(1, 3)))
        title = rng.choice(phrases) if rng.random() < 0.4 else " ".join(rng.choices(fillers, k=2))
        postings.append(
            make_posting(job_id=f"H{i}", title=title, job_description=" ".join(words))
        )
    assert len(postings) == 1000

    records = {(r.job_id, r.region): r for r in match_corpus(postings, taxonomy)}
    oracle_phrases = {j.phrase: _oracle_tokens(j.phrase) for j in taxonomy.jsts}
    discrepancies = 0
    for posting in postings:
        title_tokens = _oracle_tokens(posting.title)
        desc_tokens = _oracle_tokens(posting.job_description)
        expected = {
            phrase
            for phrase, needle in oracle_phrases.items()
            if _oracle_contains(title_tokens, needle) or _oracle_contains(desc_tokens, needle)
        }
        record = records.get((posting.job_id, posting.region))
        got = {j.phrase for j in record.matched_jsts} if record else set()
        if got != expected:
            discrepancies += 1
    assert discrepancies == 0
    _ok("match oracle equivalence (1000 postings x 250 terms, 0 discrepancies)")


def test_criterion_funnel_shape(default_pipeline):
    # Stage reductions echo the target shape: one third lost to the industry
    # filter (+-2%) and more than half lost to deduplication.
    funnel = build_funnel(
        [
            default_pipeline["raw_obs"],
            default_pipeline["filtered_obs"],
            default_pipeline["ledger"].unit_count,
        ]
    )
    first, second = funnel.reductions
    assert abs(first - Fraction(1, 3)) <= Fraction(2, 100), float(first)
    assert second > Fraction(1, 2), float(second)
    _ok(f"funnel shape (reductions {float(first):.1%} and {float(second):.1%})")


def test_criterion_demand_shares(default_pipeline, shipped_taxonomy):
    ledger = default_pipeline["ledger"]
    total = ledger.total_weight()
    functions = demand_by("function", ledger, shipped_taxonomy)
    shares = {row.label: row.total / total for row in functions.rows}
    assert abs(shares["Engineer"] - Fraction(667, 1000)) <= Fraction(1, 100)
    assert abs(shares["Technician"] - Fraction(20, 100)) <= Fraction(1, 100)
    assert shares["OperationalSupport"] < Fraction(5, 100)
    regions = demand_by("region", ledger)
    la_share = {r.label: r.total for r in regions.rows}["LA"] / total
    assert abs(la_share - Fraction(3, 4)) <= Fraction(1, 100)
    by_label = {row.label: row.total for row in functions.rows}
    result = ratio(by_label["Technician"], by_label["Engineer"])
    assert (result.p, result.q) == (1, 3)
    _ok(
        "demand shares (Engineer "
        f"{float(shares['Engineer']):.1%}, Technician {float(shares['Technician']):.1%}, "
        f"OpSupport {float(shares['OperationalSupport']):.1%}, LA {float(la_share):.1%}, "
        f"ratio {result.ratio_label})"
    )


def _pair_set(groups: dict[str, set[str]]) -> set[tuple[str, str]]:
    pairs = set()
    for members in groups.values():
        ordered = sorted(members)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                pairs.add((ordered[i], ordered[j]))
    return pairs


def test_criterion_disambiguation():
    # ~1,300 raw names with 15% planted divisions and onomastic collisions:
    # the canonical count drops 9-12% and every pairwise merge decision is
    # correct.
    rng = random.Random(1269)
    stock = build_employer_stock(rng, 1300, Fraction(3, 20), Fraction(1, 5))
    names = stock.all_names()
    assert len(names) == 1300
    mapping, rejected = canonicalize([raw for raw, _ in names], BUNDLED_DICTIONARY)
    assert rejected == []
    canonical = {e.canonical_name for e in mapping.values()}
    reduction = Fraction(len(names) - len(canonical), len(names))
    assert Fraction(9, 100) <= reduction <= Fraction(12, 100), float(reduction)

    truth_groups: dict[str, set[str]] = {}
    for raw, key in names:
        truth_groups.setdefault(key, set()).add(raw)
    predicted_groups: dict[str, set[str]] = {}
    for raw, employer in mapping.items():
        predicted_groups.setdefault(employer.canonical_name, set()).add(raw)
    truth_pairs = _pair_set(truth_groups)
    predicted_pairs = _pair_set(predicted_groups)
    intersection = truth_pairs & predicted_pairs
    precision = Fraction(len(intersection), len(predicted_pairs)) if predicted_pairs else Fraction(1)
    recall = Fraction(len(intersection), len(truth_pairs)) if truth_pairs else Fraction(1)
    assert precision == 1 and recall == 1
    _ok(
        f"disambiguation ({len(names)} -> {len(canonical)} employers, "
        f"reduction {float(reduction):.1%}, precision=recall=1.0)"
    )


def test_criterion_disambiguation_amazon_merge():
    mapping, _ = canonicalize(["Amazon", "Amazon Web Services"], BUNDLED_DICTIONARY)
    assert mapping["Amazon"] is mapping["Amazon Web Services"]
    assert mapping["Amazon"].canonical_name == "amazon"
    _ok("disambiguation named case: Amazon + Amazon Web Services merge")


def test_criterion_disambiguation_advanced_split():
    mapping, _ = canonicalize(["Advanced Micro Devices", "Advanced Systems"], BUNDLED_DICTIONARY)
    assert mapping["Advanced Micro Devices"] is not mapping["Advanced Systems"]
    _ok("disambiguation named case: Advanced Micro vs Advanced Systems split")


def test_criterion_disambiguation_university_split():
    mapping, _ = canonicalize(
        ["University of California Los Angeles", "University of California Santa Barbara"], BUNDLED_DICTIONARY
    )
    names = {e.canonical_name for e in mapping.values()}
    assert len(names) == 2
    _ok("disambiguation named case: UCLA vs UCSB split")


def test_criterion_employer_stats(shipped_taxonomy):
    # 4,044 units over 1,135 employers render mean 3.6; a planted top three
    # of 433 units renders a 10.7% share.
    n_units, n_employers = 4044, 1135
    top_sizes = [145, 144, 144]
    rest = n_units - sum(top_sizes)
    fours = rest - 3 * (n_employers - 3)
    sizes = top_sizes + [4] * fours + [3] * ((n_employers - 3) - fours)
    assert sum(sizes) == n_units and len(sizes) == n_employers
    jst = lookup(shipped_taxonomy, "design engineer")
    records = []
    unit_employers = {}
    unit = 0
    for idx, size in enumerate(sizes):
        name = f"emp{idx:04d}"
        for _ in range(size):
            records.append(
                MatchRecord(
                    job_id=f"J{unit}",
                    region=Region.LA,
                    matched_jsts=frozenset({jst}),
                    matched_in_title=frozenset(),
                )
            )
            unit_employers[(f"J{unit}", Region.LA)] = name
            unit += 1
    ledger = weight_assignments(records)
    mapping, _ = canonicalize([f"emp{idx:04d}" for idx in range(n_employers)], BUNDLED_DICTIONARY)
    report = employer_stats(ledger, mapping, unit_employers, top_k=3)
    assert report.employer_count == 1135
    assert report.mean_label == "3.6"
    assert report.top_total == 433
    assert report.top_share_label == "10.7%"
    _ok("employer stats (4044 units / 1135 employers -> mean 3.6, top-3 share 10.7%)")


def test_criterion_discovery(shipped_taxonomy, default_pipeline):
    config = SynthConfig(
        seed=77,
        n_postings=400,
        unknown_title_plants=(("microelectronics technician", 12), ("rf engineer", 5)),
    )
    postings, _ = build_corpus(config, shipped_taxonomy)
    filtered = filter_corpus(postings, "semiconductor")
    ranked = dict(discover_candidate_titles(filtered, shipped_taxonomy, min_count=3))
    assert ranked.get("microelectronics technician") == 12
    assert ranked.get("rf engineer") == 5

    covered = discover_candidate_titles(
        default_pipeline["filtered"], shipped_taxonomy, min_count=3
    )
    assert covered == []
    _ok("discovery (planted counts exact; covered corpus yields empty report)")


def test_criterion_determinism_and_scale(tmp_path, shipped_taxonomy):
    # Full pipeline over 100,000 postings completes in under 60 seconds per
    # run with byte-identical artifacts across two runs.
    fixture = tmp_path / "fixture"
    config = SynthConfig(seed=100, n_postings=100_000)
    generate(config, shipped_taxonomy, fixture)
    inputs = [str(fixture / f"{r.value.lower()}.jsonl") for r in Region]
    corpus, diagnostics = load_postings(inputs)
    assert len(corpus) == 100_000 and not diagnostics

    durations = []
    digests = []
    for run_dir in (tmp_path / "run_a", tmp_path / "run_b"):
        started = time.monotonic()
        rc = main(["report", "--input", *inputs, "--out", str(run_dir)])
        durations.append(time.monotonic() - started)
        assert rc == 0
        run_digest = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(run_dir.iterdir())
        }
        digests.append(run_digest)
    assert digests[0] == digests[1]
    assert all(d < 60 for d in durations), durations
    _ok(
        "determinism and scale (100k postings, runs "
        f"{durations[0]:.1f}s/{durations[1]:.1f}s, byte-identical artifacts)"
    )
