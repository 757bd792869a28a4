import random
from fractions import Fraction

import pytest

from jobpulse.corpus import CHUNK_LINES, Region, csv_text
from jobpulse.dedup import (
    LEDGER_HEADER,
    WeightedAssignment,
    cross_region_report,
    ledger_csv_chunks,
    render_ledger_csv,
    weight_assignments,
)
from jobpulse.errors import ContractError
from jobpulse.taxonomy import JobFamily, JobFunction, Jst, JstLevel, lookup

from conftest import content_groups, make_posting, make_unit


def _record(shipped_taxonomy, job_id, phrases, region=Region.LA):
    jsts = frozenset(lookup(shipped_taxonomy, p) for p in phrases)
    assert None not in jsts, phrases
    return make_unit(job_id, jsts, region)


def test_two_terms_split_half_and_half(shipped_taxonomy):
    ledger = weight_assignments(
        [_record(shipped_taxonomy, "J1", ["design engineer", "layout engineer"])]
    )
    assert [a.weight for a in ledger.assignments] == [Fraction(1, 2), Fraction(1, 2)]
    assert {a.jst.phrase for a in ledger.assignments} == {"design engineer", "layout engineer"}
    assert ledger.unit_count == 1
    assert ledger.total_weight() == 1


def test_single_term_keeps_unit_mass(shipped_taxonomy):
    ledger = weight_assignments([_record(shipped_taxonomy, "J1", ["fab technician"])])
    assert [a.weight for a in ledger.assignments] == [Fraction(1)]


def test_totals_match_direct_rational_summation(shipped_taxonomy):
    # Oracle: sum 1/k per planted membership straight from the generated truth.
    rng = random.Random(31)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    records = []
    expected: dict[str, Fraction] = {}
    for i in range(500):
        k = rng.randint(1, 5)
        phrases = rng.sample(pool, k)
        records.append(_record(shipped_taxonomy, f"J{i}", phrases, rng.choice(list(Region))))
        for phrase in phrases:
            expected[phrase] = expected.get(phrase, Fraction(0)) + Fraction(1, k)
    ledger = weight_assignments(records)
    got: dict[str, Fraction] = {}
    for a in ledger.assignments:
        got[a.jst.phrase] = got.get(a.jst.phrase, Fraction(0)) + a.weight
    assert got == expected
    assert ledger.total_weight() == 500 == ledger.unit_count


def test_per_unit_weights_sum_to_one_exactly(shipped_taxonomy):
    rng = random.Random(37)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    records = [
        _record(shipped_taxonomy, f"J{i}", rng.sample(pool, rng.randint(1, 5)))
        for i in range(200)
    ]
    ledger = weight_assignments(records)
    per_unit: dict[tuple, Fraction] = {}
    for a in ledger.assignments:
        key = (a.job_id, a.region)
        per_unit[key] = per_unit.get(key, Fraction(0)) + a.weight
    assert all(total == 1 for total in per_unit.values())
    assert len(per_unit) == ledger.unit_count


def test_duplicate_unit_is_contract_violation(shipped_taxonomy):
    records = [
        _record(shipped_taxonomy, "J1", ["design engineer"]),
        _record(shipped_taxonomy, "J1", ["layout engineer"]),
    ]
    with pytest.raises(ContractError, match="J1"):
        weight_assignments(records)


def test_same_job_id_in_two_regions_is_two_units(shipped_taxonomy):
    records = [
        _record(shipped_taxonomy, "J1", ["design engineer"], Region.LA),
        _record(shipped_taxonomy, "J1", ["design engineer"], Region.SD),
    ]
    ledger = weight_assignments(records)
    assert ledger.unit_count == 2
    assert ledger.total_weight() == 2


def test_shuffling_records_yields_identical_ledger(shipped_taxonomy):
    rng = random.Random(43)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    records = [
        _record(shipped_taxonomy, f"J{i}", rng.sample(pool, rng.randint(1, 4)), rng.choice(list(Region)))
        for i in range(100)
    ]
    baseline = weight_assignments(records)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert weight_assignments(shuffled) == baseline


def test_adding_a_term_leaves_other_records_untouched(shipped_taxonomy):
    base = [
        _record(shipped_taxonomy, "J1", ["design engineer"]),
        _record(shipped_taxonomy, "J2", ["fab technician", "process technician"]),
    ]
    grown = [
        _record(shipped_taxonomy, "J1", ["design engineer", "layout engineer"]),
        base[1],
    ]
    before = [a for a in weight_assignments(base).assignments if a.job_id == "J2"]
    after = [a for a in weight_assignments(grown).assignments if a.job_id == "J2"]
    assert before == after


def test_cross_region_pair_is_two_units_and_one_group(shipped_taxonomy):
    postings = [
        make_posting(job_id="J1", title="Etch Engineer", job_description="etch engineer work",
                     region=Region.LA),
        make_posting(job_id="J2", title="Etch Engineer", job_description="etch engineer work",
                     region=Region.SD),
    ]
    records = [
        _record(shipped_taxonomy, "J1", ["etch engineer"], Region.LA),
        _record(shipped_taxonomy, "J2", ["etch engineer"], Region.SD),
    ]
    groups = cross_region_report(content_groups(postings))
    assert len(groups) == 1
    assert groups[0].members == (("J1", Region.LA), ("J2", Region.SD))
    assert weight_assignments(records).unit_count == 2


def test_cross_region_group_may_repeat_a_job_id():
    postings = [
        make_posting(job_id=job_id, title="A", job_description="x", region=region)
        for job_id, region in (("J2", Region.LA), ("J1", Region.SD), ("J1", Region.LA))
    ]
    (group,) = cross_region_report(content_groups(postings))
    assert group.members == (("J1", Region.LA), ("J1", Region.SD), ("J2", Region.LA))


def test_cross_region_report_empty_without_repeats(shipped_taxonomy):
    postings = [
        make_posting(job_id="J1", title="A", job_description="x", region=Region.LA),
        make_posting(job_id="J2", title="B", job_description="y", region=Region.SD),
    ]
    assert len(cross_region_report(content_groups(postings))) == 0


def test_same_region_duplicates_not_reported():
    postings = [
        make_posting(job_id="J1", title="A", job_description="x", region=Region.LA),
        make_posting(job_id="J2", title="A", job_description="x", region=Region.LA),
    ]
    assert len(cross_region_report(content_groups(postings))) == 0


def test_ledger_csv_schema(shipped_taxonomy):
    ledger = weight_assignments(
        [_record(shipped_taxonomy, "J1", ["design engineer", "analog design engineer"])]
    )
    content = render_ledger_csv(ledger)
    lines = content.strip().split("\n")
    assert lines[0] == ",".join(LEDGER_HEADER)
    assert lines[1] == "J1,LA,Engineer,design engineer,analog design engineer,1,2"
    assert lines[2] == "J1,LA,Engineer,design engineer,,1,2"


def test_ledger_order_equals_sorting_every_assignment(shipped_taxonomy):
    rng = random.Random(47)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    records = [
        _record(shipped_taxonomy, f"J{rng.randint(0, 60)}", rng.sample(pool, rng.randint(1, 5)), region)
        for region in Region
        for _ in range(40)
    ]
    records = list({r[:2]: r for r in records}.values())  # one row per (job_id, region)
    rng.shuffle(records)
    unsorted = [
        WeightedAssignment(job_id, region, jst, Fraction(1, len(terms)))
        for job_id, region, terms, _ in records
        for jst in terms
    ]
    expected = tuple(sorted(unsorted, key=lambda a: (a.job_id, a.region.value, a.jst.phrase)))
    assert weight_assignments(records).assignments == expected


def test_a_row_without_terms_is_no_unit(shipped_taxonomy):
    # The pass keeps a row for each filtered posting, also one that matched
    # nothing; only rows with terms become units, in ledger order.
    rows = [
        make_unit("J2", [lookup(shipped_taxonomy, "design engineer")]),
        make_unit("J1"),
        make_unit("J0", [lookup(shipped_taxonomy, "fab technician")]),
    ]
    ledger = weight_assignments(rows)
    assert ledger.units == [rows[2], rows[0]]
    assert ledger.units[1] is rows[0]  # the rows themselves, not copies
    assert ledger.total_weight() == ledger.unit_count == 2


def test_first_duplicate_in_input_order_is_reported(shipped_taxonomy):
    def rec(job_id):
        return _record(shipped_taxonomy, job_id, ["design engineer"])

    with pytest.raises(ContractError, match=r"\(J2, LA\)"):
        weight_assignments([rec("J2"), rec("J1"), rec("J2"), rec("J1")])
    with pytest.raises(ContractError, match=r"\(J1, LA\)"):
        weight_assignments([rec("J2"), rec("J1"), rec("J1"), rec("J2")])


def test_ledger_csv_equals_csv_of_every_assignment():
    # Family names and title phrases holding the characters CSV quotes: the rows
    # built from separately rendered pieces must equal the csv module's
    # rendering of whole rows.
    names = ["plain", 'wet, "bench"', "two\nlines", 'q"', "c,r\r", " spaced "]
    jsts = []
    for i, name in enumerate(names):
        family = JobFamily(name=f"{name} family", function=list(JobFunction)[i % 4])
        jsts.append(Jst(phrase=f"f{i}", tokens=(f"f{i}",), level=JstLevel.FAMILY, family=family))
        jsts.append(Jst(phrase=f"{name} title", tokens=(f"t{i}",), level=JstLevel.TITLE, family=family))
    rng = random.Random(67)
    job_ids = ["J1", "J,2", 'J"3"', "J\n4", "", " ", "J\r5", '"', ","]
    records = {}
    for _ in range(60):
        key = (rng.choice(job_ids), rng.choice(list(Region)))
        matched = frozenset(rng.sample(jsts, rng.randint(1, 5)))
        records[key] = make_unit(key[0], matched, key[1])
    ledger = weight_assignments(list(records.values()))
    assert render_ledger_csv(ledger) == _csv_of_every_assignment(ledger)


def _csv_of_every_assignment(ledger) -> str:
    rows = (
        [
            a.job_id,
            a.region.value,
            a.jst.family.function.value,
            a.jst.family.name,
            a.jst.phrase if a.jst.level is JstLevel.TITLE else "",
            a.weight.numerator,
            a.weight.denominator,
        ]
        for a in ledger.assignments
    )
    return csv_text(LEDGER_HEADER, rows)


def test_empty_ledger_chunks_are_the_header_alone():
    ledger = weight_assignments([])
    assert list(ledger_csv_chunks(ledger)) == [csv_text(LEDGER_HEADER, [])]
    assert render_ledger_csv(ledger) == csv_text(LEDGER_HEADER, [])


def test_ledger_chunks_split_a_unit_at_the_block_boundary(shipped_taxonomy):
    # Two rows per unit after the header: unit CHUNK_LINES // 2 - 1's rows
    # are lines CHUNK_LINES and CHUNK_LINES + 1, one on each side of the
    # first block boundary.
    units = CHUNK_LINES // 2 + 1
    ledger = weight_assignments(
        [_record(shipped_taxonomy, f"J{i:05d}", ["design engineer", "layout engineer"]) for i in range(units)]
    )
    chunks = list(ledger_csv_chunks(ledger))
    assert [chunk.count("\n") for chunk in chunks] == [CHUNK_LINES, 2 * units + 1 - CHUNK_LINES]
    split = f"J{CHUNK_LINES // 2 - 1:05d},LA,"
    assert chunks[0].splitlines()[-1].startswith(split) and chunks[1].startswith(split)
    assert "".join(chunks) == _csv_of_every_assignment(ledger)
