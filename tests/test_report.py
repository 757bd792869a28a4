import math
import os
import random
import stat
from fractions import Fraction

import pytest

from jobpulse.corpus import Region
from jobpulse.dedup import weight_assignments
from jobpulse.errors import ContractError, InputError
from jobpulse.report import (
    build_funnel,
    demand_by,
    ratio,
    render_decimal,
    render_demand_csv,
    render_demand_text,
    render_funnel_csv,
    render_funnel_text,
    render_pct,
    write_text_atomic,
)
from jobpulse.taxonomy import JobFunction, lookup

from conftest import BUNDLED_DICTIONARY, make_unit, pass_rows


def _ledger(shipped_taxonomy, spec):
    """spec: list of (job_id, region, phrases)."""
    records = []
    for job_id, region, phrases in spec:
        jsts = frozenset(lookup(shipped_taxonomy, p) for p in phrases)
        records.append(make_unit(job_id, jsts, region))
    return weight_assignments(records)


# -- rendering ---------------------------------------------------------------


def test_render_decimal_rounds_half_away_from_zero():
    assert render_decimal(Fraction(1, 4)) == "0.3"
    assert render_decimal(Fraction(-1, 4)) == "-0.3"
    assert render_decimal(Fraction(35, 100)) == "0.4"
    assert render_decimal(Fraction(4044, 1135)) == "3.6"
    assert render_decimal(Fraction(649, 1000)) == "0.6"
    assert render_decimal(Fraction(5, 2), 0) == "3"
    assert render_decimal(Fraction(812, 2500), 2) == "0.32"
    assert render_decimal(0) == "0.0"


def test_render_pct():
    assert render_pct(Fraction(433, 4044)) == "10.7%"
    assert render_pct(Fraction(1)) == "100.0%"
    assert render_pct(Fraction(0)) == "0.0%"


# -- funnel ------------------------------------------------------------------


def test_funnel_paper_shape():
    report = build_funnel([13000, 8700, 4044])
    assert [label for label, _ in report.stages] == [
        "raw_observations",
        "industry_filtered",
        "dedup_units",
    ]
    assert render_pct(report.reductions[0]) == "33.1%"
    assert render_pct(report.reductions[1]) == "53.5%"
    csv_text = render_funnel_csv(report)
    assert csv_text.splitlines()[0] == "stage,count,reduction_pct"
    assert "industry_filtered,8700,33.1%" in csv_text
    assert "industry_filtered        8700  33.1%" in render_funnel_text(report)


def test_funnel_flat_pipeline():
    report = build_funnel([10, 10, 10])
    assert report.reductions == (Fraction(0), Fraction(0))


def test_funnel_rejects_increasing_counts():
    with pytest.raises(ContractError):
        build_funnel([10, 12, 5])


def test_funnel_rejects_negative_and_empty():
    with pytest.raises(InputError):
        build_funnel([10, -1, 0])
    with pytest.raises(InputError):
        build_funnel([])
    with pytest.raises(InputError, match="needs 3 stage counts, got 2"):
        build_funnel([4, 2])


def test_funnel_zero_stage_reduction_defined():
    report = build_funnel([0, 0, 0])
    assert report.reductions == (Fraction(0), Fraction(0))
    assert all(0 <= r <= 1 for r in report.reductions)


# -- demand tables -----------------------------------------------------------


def test_singleton_ledger_single_row(shipped_taxonomy):
    ledger = _ledger(shipped_taxonomy, [("J1", Region.LA, ["design engineer"])])
    table = demand_by("family", ledger)
    assert len(table.rows) == 1
    assert table.rows[0].label == "design engineer"
    assert table.rows[0].total == 1
    assert table.grand_total == 1


def test_exact_column_sums_equal_ledger_total(shipped_taxonomy):
    rng = random.Random(67)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    spec = [
        (f"J{i}", rng.choice(list(Region)), rng.sample(pool, rng.randint(1, 5)))
        for i in range(300)
    ]
    ledger = _ledger(shipped_taxonomy, spec)
    for level in ("function", "family", "title", "region"):
        table = demand_by(level, ledger, shipped_taxonomy)
        assert sum((r.total for r in table.rows), start=Fraction(0)) == ledger.total_weight()
        assert table.grand_total == ledger.total_weight()


def test_tower_property_family_sums_reproduce_functions(shipped_taxonomy):
    rng = random.Random(71)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    spec = [
        (f"J{i}", rng.choice(list(Region)), rng.sample(pool, rng.randint(1, 3)))
        for i in range(200)
    ]
    ledger = _ledger(shipped_taxonomy, spec)
    families = demand_by("family", ledger, shipped_taxonomy)
    functions = demand_by("function", ledger, shipped_taxonomy)
    family_function = {f.name: f.function.value for f in shipped_taxonomy.families}
    rollup: dict[str, Fraction] = {}
    for row in families.rows:
        fn = family_function[row.label]
        rollup[fn] = rollup.get(fn, Fraction(0)) + row.total
    for row in functions.rows:
        assert rollup.get(row.label, Fraction(0)) == row.total


def test_rows_ordered_by_total_then_label(shipped_taxonomy):
    ledger = _ledger(
        shipped_taxonomy,
        [
            ("J1", Region.LA, ["design engineer"]),
            ("J2", Region.LA, ["layout engineer"]),
            ("J3", Region.LA, ["layout engineer"]),
            ("J4", Region.LA, ["fab technician"]),
        ],
    )
    table = demand_by("family", ledger)
    assert [r.label for r in table.rows] == ["layout engineer", "design engineer", "fab technician"]


def test_zero_rows_included_with_taxonomy(shipped_taxonomy):
    ledger = _ledger(shipped_taxonomy, [("J1", Region.LA, ["research scientist"])])
    table = demand_by("title", ledger, shipped_taxonomy, function=JobFunction.SCIENTIST)
    by_label = {r.label: r.total for r in table.rows}
    assert by_label["materials research scientist"] == 0
    assert by_label["research scientist"] == 1
    labels = {j.phrase for j in shipped_taxonomy.jsts_of(JobFunction.SCIENTIST)}
    assert set(by_label) == labels


def test_function_restriction(shipped_taxonomy):
    ledger = _ledger(
        shipped_taxonomy,
        [("J1", Region.LA, ["design engineer"]), ("J2", Region.SD, ["fab technician"])],
    )
    table = demand_by("family", ledger, shipped_taxonomy, function=JobFunction.TECHNICIAN)
    assert {r.label for r in table.rows} == {"fab technician"}
    assert table.grand_total == 1


def test_region_table(shipped_taxonomy):
    ledger = _ledger(
        shipped_taxonomy,
        [("J1", Region.LA, ["design engineer"]), ("J2", Region.SD, ["design engineer"])],
    )
    table = demand_by("region", ledger)
    by_label = {r.label: r.total for r in table.rows}
    assert by_label == {"LA": 1, "SD": 1, "SB": 0}


def test_unknown_level_rejected(shipped_taxonomy):
    ledger = _ledger(shipped_taxonomy, [("J1", Region.LA, ["design engineer"])])
    with pytest.raises(InputError):
        demand_by("galaxy", ledger)


def test_reports_byte_identical_across_runs(shipped_taxonomy):
    rng = random.Random(73)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    spec = [
        (f"J{i}", rng.choice(list(Region)), rng.sample(pool, rng.randint(1, 4)))
        for i in range(150)
    ]
    ledger_a = _ledger(shipped_taxonomy, spec)
    ledger_b = _ledger(shipped_taxonomy, list(reversed(spec)))
    table_a = demand_by("family", ledger_a, shipped_taxonomy)
    table_b = demand_by("family", ledger_b, shipped_taxonomy)
    assert render_demand_csv(table_a) == render_demand_csv(table_b)
    assert render_demand_text(table_a) == render_demand_text(table_b)


def test_rendered_total_close_to_exact(shipped_taxonomy):
    rng = random.Random(79)
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    spec = [
        (f"J{i}", rng.choice(list(Region)), rng.sample(pool, rng.randint(1, 5)))
        for i in range(250)
    ]
    ledger = _ledger(shipped_taxonomy, spec)
    table = demand_by("title", ledger, shipped_taxonomy)
    rendered_sum = sum(Fraction(render_decimal(r.total)) for r in table.rows)
    assert abs(rendered_sum - table.grand_total) <= Fraction(5, 100) * len(table.rows)


def test_demand_csv_layout(shipped_taxonomy):
    ledger = _ledger(shipped_taxonomy, [("J1", Region.LA, ["design engineer", "layout engineer"])])
    lines = render_demand_csv(demand_by("family", ledger)).splitlines()
    assert lines[0] == "family,la,sb,sd,total,total_num,total_den"
    assert lines[1] == "design engineer,0.5,0.0,0.0,0.5,1,2"
    assert lines[-1] == "TOTAL,1.0,0.0,0.0,1.0,1,1"


# -- ratio -------------------------------------------------------------------


def test_ratio_paper_proportions():
    result = ratio(812, 2500)
    assert result.decimal_label == "0.32"
    assert (result.p, result.q) == (1, 3)
    assert result.ratio_label == "≈ 1:3"


def test_ratio_equal_totals():
    result = ratio(7, 7)
    assert result.decimal_label == "1.00"
    assert (result.p, result.q) == (1, 1)
    assert result.ratio_label == "1:1"


def test_ratio_exact_small_integer():
    result = ratio(3, 10)
    assert result.ratio_label == "3:10"
    assert result.exact


def test_ratio_errors():
    with pytest.raises(InputError):
        ratio(5, 0)
    with pytest.raises(InputError):
        ratio(0, 5)
    with pytest.raises(InputError):
        ratio(-1, 5)


def test_ratio_matches_exhaustive_search():
    # Oracle: enumerate all p:q with p, q <= 10 and minimize the exact
    # difference, breaking ties toward smaller q then smaller p.
    rng = random.Random(83)
    for _ in range(300):
        a = rng.randint(1, 5000)
        b = rng.randint(1, 5000)
        value = Fraction(a, b)
        candidates = [
            (abs(value - Fraction(p, q)), q, p) for q in range(1, 11) for p in range(1, 11)
        ]
        diff, q, p = min(candidates)
        result = ratio(a, b)
        assert (result.p, result.q) == (p, q), (a, b)
        assert result.exact == (diff == 0)


# -- atomic writes -----------------------------------------------------------


def test_write_text_atomic_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "deep" / "nested" / "table.csv"
    write_text_atomic(target, "first\n")
    write_text_atomic(target, "second\n")
    assert target.read_text(encoding="utf-8") == "second\n"
    leftovers = [p for p in target.parent.iterdir() if p.name != "table.csv"]
    assert leftovers == []


def test_write_text_atomic_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_text_atomic(tmp_path / "a.csv", "x\n")
        os.umask(0o027)
        write_text_atomic(tmp_path / "b.csv", "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.csv").stat().st_mode) == 0o644
    assert stat.S_IMODE((tmp_path / "b.csv").stat().st_mode) == 0o640


def test_write_text_atomic_replaces_stale_temp_file(tmp_path):
    target = tmp_path / "table.csv"
    stale = tmp_path / f".table.csv.{os.getpid()}.tmp"
    stale.write_text("left over by a dead process\n", encoding="utf-8")
    write_text_atomic(target, "fresh\n")
    assert target.read_text(encoding="utf-8") == "fresh\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_write_text_atomic_cleans_up_on_failure(tmp_path):
    target = tmp_path / "table.csv"
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "lone surrogate \udc80")
    assert list(tmp_path.iterdir()) == []


# -- integer aggregation against a plain Fraction oracle -----------------------


def _oracle_demand_by(level, ledger, taxonomy=None, function=None):
    """Reference demand_by: a plain Fraction loop over the assignments, as (label, by_region, total) rows."""
    totals = {}
    if taxonomy is not None or level == "region":
        if level == "function":
            seed = [f.value for f in ([function] if function else list(JobFunction))]
        elif level == "family":
            families = taxonomy.families if function is None else taxonomy.families_of(function)
            seed = [f.name for f in families]
        elif level == "title":
            seed = [j.phrase for j in (taxonomy.jsts if function is None else taxonomy.jsts_of(function))]
        else:
            seed = [r.value for r in Region]
        totals = {label: {} for label in seed}
    for a in ledger.assignments:
        if function is not None and a.jst.family.function is not function:
            continue
        label = {
            "function": a.jst.family.function.value,
            "family": a.jst.family.name,
            "title": a.jst.phrase,
            "region": a.region.value,
        }[level]
        per_region = totals.setdefault(label, {})
        per_region[a.region] = per_region.get(a.region, Fraction(0)) + a.weight
    rows = [(label, per_region, sum(per_region.values(), Fraction(0))) for label, per_region in totals.items()]
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def _oracle_employer_counts(ledger, mapping, unit_employers):
    """Per-unit Fraction sums of the ledger weights, summed per canonical employer."""
    counts = {}
    for a in ledger.assignments:
        name = mapping[unit_employers[(a.job_id, a.region)]].canonical_name
        counts[name] = counts.get(name, Fraction(0)) + a.weight
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def _assert_matches_oracle(ledger, taxonomy):
    slices = [(level, None) for level in ("function", "family", "title", "region")]
    slices += [("title", function) for function in JobFunction]
    slices += [("family", function) for function in JobFunction]
    for level, function in slices:
        for tax in (taxonomy, None):
            table = demand_by(level, ledger, tax, function=function)
            expected = _oracle_demand_by(level, ledger, tax, function)
            assert [(r.label, r.by_region, r.total) for r in table.rows] == expected, (level, function)
            assert table.grand_total == sum((row[2] for row in expected), Fraction(0))
            for region in Region:
                grand = sum((row[1].get(region, Fraction(0)) for row in expected), Fraction(0))
                assert table.grand_by_region.get(region, Fraction(0)) == grand
            csv_lines = render_demand_csv(table).splitlines()[1:-1]
            for line, (label, _, total) in zip(csv_lines, expected, strict=True):
                assert line.split(",")[-2:] == [str(total.numerator), str(total.denominator)], label
            text_lines = render_demand_text(table).splitlines()[2:-1]
            for line, (label, per_region, total) in zip(text_lines, expected, strict=True):
                cells = [per_region.get(r, Fraction(0)) for r in Region] + [total]
                assert line.split()[-4:] == [render_decimal(c) for c in cells], label


def test_integer_aggregation_matches_fraction_oracle_on_synth(shipped_taxonomy):
    from jobpulse.employers import canonicalize, employer_stats, render_employers_csv
    from jobpulse.matcher import filter_corpus
    from jobpulse.synth import SynthConfig, build_corpus

    postings, _ = build_corpus(SynthConfig(seed=7, n_postings=3000), shipped_taxonomy)
    filtered = filter_corpus(postings, "semiconductor")
    ledger = weight_assignments(pass_rows(filtered, shipped_taxonomy))
    assert ledger.term_sums[0] > 1  # several k values, so the common denominator is not trivial
    _assert_matches_oracle(ledger, shipped_taxonomy)

    mapping, _ = canonicalize([p.employer_name for p in filtered], BUNDLED_DICTIONARY)
    unit_employers = {(p.job_id, p.region): p.employer_name for p in filtered}
    stats = employer_stats(ledger, mapping)
    expected = _oracle_employer_counts(ledger, mapping, unit_employers)
    assert list(stats.ranked) == expected
    total = sum((count for _, count in expected), Fraction(0))
    assert stats.unit_total == total == ledger.unit_count
    assert stats.mean_units == total / len(expected)
    rows = render_employers_csv(stats).splitlines()[1:]
    for row, (name, count) in zip(rows, expected, strict=True):
        assert row == f"{name},{render_decimal(count)},{count.numerator},{count.denominator},{render_pct(count / total)}"


def test_integer_aggregation_reduces_totals(shipped_taxonomy):
    # k in {1, 2, 3, 4, 5, 7}: the common denominator is 420, yet every
    # rendered total_num/total_den must be the reduced fraction.
    pool = [j.phrase for j in shipped_taxonomy.jsts]
    rng = random.Random(5)
    spec = []
    for i, k in enumerate([1, 2, 3, 4, 5, 7] * 6):
        spec.append((f"J{i}", list(Region)[i % 3], rng.sample(pool, k)))
    ledger = _ledger(shipped_taxonomy, spec)
    assert ledger.term_sums[0] == 420
    _assert_matches_oracle(ledger, shipped_taxonomy)
    assert ledger.total_weight() == len(spec)
    for level in ("function", "family", "title", "region"):
        for line in render_demand_csv(demand_by(level, ledger, shipped_taxonomy)).splitlines()[1:]:
            num, den = (int(x) for x in line.split(",")[-2:])
            assert Fraction(num, den).denominator == den and math.gcd(num, den) == 1


# -- rounding of the integer render path ------------------------------------------


def _fraction_render_decimal(x, places=1):
    """Reference rounding, half away from zero, in Fraction arithmetic."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    scale = 10**places
    scaled = abs(x) * scale
    n = scaled.numerator // scaled.denominator
    if (scaled - n) >= Fraction(1, 2):
        n += 1
    if places == 0:
        return f"{sign}{n}"
    return f"{sign}{n // scale}.{n % scale:0{places}d}"


@pytest.mark.parametrize(
    "value, places, expected",
    [
        (Fraction(5, 100), 1, "0.1"),  # exact .x5 ties round away from zero
        (Fraction(-5, 100), 1, "-0.1"),
        (Fraction(25, 10), 0, "3"),
        (Fraction(-25, 10), 0, "-3"),
        (Fraction(1, 2), 0, "1"),
        (Fraction(-1, 2), 0, "-1"),
        (Fraction(1005, 1000), 2, "1.01"),
        (Fraction(-1005, 1000), 2, "-1.01"),
        (Fraction(1004, 1000), 2, "1.00"),
        (Fraction(-1, 30), 1, "-0.0"),  # a negative that rounds to zero keeps its sign
        (Fraction(0), 0, "0"),
        (Fraction(0), 1, "0.0"),
        (Fraction(0), 2, "0.00"),
        (0, 1, "0.0"),
        (7, 2, "7.00"),
    ],
)
def test_render_decimal_ties_negatives_and_places(value, places, expected):
    assert render_decimal(value, places) == expected == _fraction_render_decimal(value, places)


def test_render_decimal_and_pct_match_fraction_rounding():
    rng = random.Random(17)
    values = [Fraction(n, d) for n in range(-60, 61) for d in (1, 2, 3, 4, 8, 20, 40, 200, 420)]
    values += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(2000)]
    for value in values:
        for places in (0, 1, 2):
            assert render_decimal(value, places) == _fraction_render_decimal(value, places), (value, places)
            assert render_pct(value, places) == _fraction_render_decimal(value * 100, places) + "%"
    assert render_pct(Fraction(0)) == "0.0%"
    assert render_pct(0, 0) == "0%"
