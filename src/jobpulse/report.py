"""Reporting surfaces: processing funnel, demand tables, ratios.

All aggregation is exact rational addition; decimals appear only in
rendered output (round-half-away-from-zero, one decimal place), with the
exact totals preserved in machine-readable columns. Reports are
byte-identical across runs on identical inputs; files are written
atomically (temp + rename).
"""

from __future__ import annotations

import contextlib
import logging
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .corpus import Region, csv_text
from .dedup import DemandLedger
from .errors import ContractError, InputError
from .taxonomy import JobFunction, Taxonomy

logger = logging.getLogger(__name__)

LEVEL_FUNCTION = "function"
LEVEL_FAMILY = "family"
LEVEL_TITLE = "title"
LEVEL_REGION = "region"
LEVELS = (LEVEL_FUNCTION, LEVEL_FAMILY, LEVEL_TITLE, LEVEL_REGION)

DEFAULT_FUNNEL_LABELS = ("raw_observations", "industry_filtered", "dedup_units")


def render_decimal(x: Fraction | int, places: int = 1) -> str:
    """Render an exact rational to fixed decimals, rounding half away from zero."""
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


def render_pct(x: Fraction | int, places: int = 1) -> str:
    """Render a fraction in [0, 1] as a percentage string like '10.7%'."""
    return render_decimal(Fraction(x) * 100, places) + "%"


@dataclass(frozen=True)
class FunnelReport:
    """Stage counts through the pipeline and the reduction between stages."""

    stages: tuple[tuple[str, int], ...]
    reductions: tuple[Fraction, ...]


def build_funnel(
    counts: list[int] | tuple[int, ...], labels: tuple[str, ...] | None = None
) -> FunnelReport:
    """Build the staged-reduction report from pipeline counts, in order.

    Counts must be non-increasing; a later stage exceeding an earlier one
    means a stage produced data it should only filter.
    """
    counts = tuple(int(c) for c in counts)
    if not counts:
        raise InputError("funnel needs at least one stage count")
    if any(c < 0 for c in counts):
        raise InputError(f"negative stage count in {counts}")
    if labels is None:
        if len(counts) == len(DEFAULT_FUNNEL_LABELS):
            labels = DEFAULT_FUNNEL_LABELS
        else:
            labels = tuple(f"stage_{i + 1}" for i in range(len(counts)))
    if len(labels) != len(counts):
        raise InputError(f"{len(labels)} labels for {len(counts)} counts")
    reductions: list[Fraction] = []
    for prev, cur in zip(counts, counts[1:]):
        if cur > prev:
            raise ContractError(f"stage count increased ({prev} -> {cur})")
        reductions.append(Fraction(prev - cur, prev) if prev else Fraction(0))
    return FunnelReport(stages=tuple(zip(labels, counts)), reductions=tuple(reductions))


@dataclass(frozen=True, slots=True)
class DemandRow:
    label: str
    by_region: dict[Region, Fraction]
    total: Fraction


@dataclass(frozen=True)
class DemandTable:
    """Demand totals grouped at one hierarchy level, split by region."""

    level: str
    rows: tuple[DemandRow, ...]
    grand_total: Fraction
    grand_by_region: dict[Region, Fraction]


def _labels_for(level: str, taxonomy: Taxonomy, function: JobFunction | None) -> list[str]:
    if level == LEVEL_FUNCTION:
        funcs = [function] if function else list(JobFunction)
        return [f.value for f in funcs]
    if level == LEVEL_FAMILY:
        families = taxonomy.families if function is None else taxonomy.families_of(function)
        return [f.name for f in families]
    if level == LEVEL_TITLE:
        jsts = taxonomy.jsts if function is None else taxonomy.jsts_of(function)
        return [j.phrase for j in jsts]
    return [r.value for r in Region]


def demand_by(
    level: str,
    ledger: DemandLedger,
    taxonomy: Taxonomy | None = None,
    function: JobFunction | None = None,
) -> DemandTable:
    """Aggregate the ledger at the requested level with exact rational sums.

    With a taxonomy, every label at that level appears even at zero demand
    (near-zero roles stay visible); ``function`` restricts rows to one job
    function. Rows are ordered by total descending, label ascending.
    """
    if level not in LEVELS:
        raise InputError(f"unknown level {level!r}: expected one of {LEVELS}")
    totals: dict[str, dict[Region, Fraction]] = {}
    if taxonomy is not None or level == LEVEL_REGION:
        seed_labels = _labels_for(level, taxonomy, function) if taxonomy else [r.value for r in Region]
        for label in seed_labels:
            totals[label] = {}
    for a in ledger.assignments:
        if function is not None and a.jst.family.function is not function:
            continue
        if level == LEVEL_FUNCTION:
            label = a.jst.family.function.value
        elif level == LEVEL_FAMILY:
            label = a.jst.family.name
        elif level == LEVEL_TITLE:
            label = a.jst.phrase
        else:
            label = a.region.value
        per_region = totals.setdefault(label, {})
        per_region[a.region] = per_region.get(a.region, Fraction(0)) + a.weight
    rows = []
    for label, per_region in totals.items():
        total = sum(per_region.values(), start=Fraction(0))
        rows.append(DemandRow(label=label, by_region=dict(per_region), total=total))
    rows.sort(key=lambda r: (-r.total, r.label))
    grand_by_region: dict[Region, Fraction] = {}
    for row in rows:
        for region, value in row.by_region.items():
            grand_by_region[region] = grand_by_region.get(region, Fraction(0)) + value
    grand_total = sum((r.total for r in rows), start=Fraction(0))
    return DemandTable(
        level=level,
        rows=tuple(rows),
        grand_total=grand_total,
        grand_by_region=grand_by_region,
    )


@dataclass(frozen=True, slots=True)
class RatioResult:
    """A demand ratio as an exact value, a decimal, and a small-integer form."""

    value: Fraction
    p: int
    q: int
    exact: bool

    @property
    def decimal_label(self) -> str:
        return render_decimal(self.value, 2)

    @property
    def ratio_label(self) -> str:
        body = f"{self.p}:{self.q}"
        return body if self.exact else f"≈ {body}"


def ratio(a: Fraction | int, b: Fraction | int) -> RatioResult:
    """Reduce a/b to a decimal plus the nearest small-integer ratio (p, q <= 10).

    Ties prefer the smaller denominator, then the smaller numerator.
    """
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        raise InputError("ratio denominator total is zero")
    if a <= 0 or b <= 0:
        raise InputError(f"ratio requires positive totals, got {a} and {b}")
    value = a / b
    best: tuple[int, int] | None = None
    best_diff: Fraction | None = None
    for q in range(1, 11):
        for p in range(1, 11):
            diff = abs(value - Fraction(p, q))
            if best_diff is None or diff < best_diff:
                best, best_diff = (p, q), diff
    assert best is not None and best_diff is not None
    p, q = best
    return RatioResult(value=value, p=p, q=q, exact=best_diff == 0)


def render_funnel_csv(report: FunnelReport) -> str:
    rows = []
    for i, (label, count) in enumerate(report.stages):
        reduction = render_pct(report.reductions[i - 1]) if i > 0 else ""
        rows.append([label, count, reduction])
    return csv_text(["stage", "count", "reduction_pct"], rows)


def render_funnel_text(report: FunnelReport) -> str:
    width = max(len(label) for label, _ in report.stages)
    lines = [f"{'stage'.ljust(width)}  {'count':>10}  reduction"]
    for i, (label, count) in enumerate(report.stages):
        reduction = render_pct(report.reductions[i - 1]) if i > 0 else "-"
        lines.append(f"{label.ljust(width)}  {count:>10}  {reduction}")
    return "\n".join(lines) + "\n"


def render_demand_csv(table: DemandTable) -> str:
    rows = []
    for row in list(table.rows) + [None]:
        if row is None:
            label, by_region, total = "TOTAL", table.grand_by_region, table.grand_total
        else:
            label, by_region, total = row.label, row.by_region, row.total
        rows.append(
            [
                label,
                render_decimal(by_region.get(Region.LA, Fraction(0))),
                render_decimal(by_region.get(Region.SB, Fraction(0))),
                render_decimal(by_region.get(Region.SD, Fraction(0))),
                render_decimal(total),
                total.numerator,
                total.denominator,
            ]
        )
    return csv_text([table.level, "la", "sb", "sd", "total", "total_num", "total_den"], rows)


def render_demand_text(table: DemandTable) -> str:
    labels = [r.label for r in table.rows] + ["TOTAL", table.level]
    width = max(len(label) for label in labels)
    header = f"{table.level.ljust(width)}  {'LA':>9}  {'SB':>9}  {'SD':>9}  {'total':>10}"
    lines = [header, "-" * len(header)]
    for row in table.rows:
        lines.append(
            f"{row.label.ljust(width)}"
            f"  {render_decimal(row.by_region.get(Region.LA, Fraction(0))):>9}"
            f"  {render_decimal(row.by_region.get(Region.SB, Fraction(0))):>9}"
            f"  {render_decimal(row.by_region.get(Region.SD, Fraction(0))):>9}"
            f"  {render_decimal(row.total):>10}"
        )
    lines.append(
        f"{'TOTAL'.ljust(width)}"
        f"  {render_decimal(table.grand_by_region.get(Region.LA, Fraction(0))):>9}"
        f"  {render_decimal(table.grand_by_region.get(Region.SB, Fraction(0))):>9}"
        f"  {render_decimal(table.grand_by_region.get(Region.SD, Fraction(0))):>9}"
        f"  {render_decimal(table.grand_total):>10}"
    )
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str | Path, content: str) -> None:
    """Write a file atomically: temp file in the target directory, then rename.

    The temp file is created exclusively under a name holding the process id,
    so the file gets the permissions the umask allows (``mkstemp`` would make
    it 0600).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp)  # left over by a dead process that had this process id
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
