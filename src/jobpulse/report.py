"""Reporting surfaces: processing funnel, demand tables, ratios.

All aggregation is exact rational addition; decimals appear only in
rendered output (round-half-away-from-zero, one decimal place), with the
exact totals preserved in machine-readable columns. Reports are
byte-identical across runs on identical inputs; files are written
atomically (temp + rename).

The module loads without ``fractions``: the functions that build a
``Fraction`` import it when called, so a subcommand that only writes
files through this module (``ingest``, ``match``, ``disambiguate``,
``discover``) never loads it, nor the ``decimal`` module it imports.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .corpus import Region, csv_text, sha256
from .errors import ContractError, InputError

if TYPE_CHECKING:  # the writers load without the ledger, taxonomy and fractions modules
    from fractions import Fraction

    from .dedup import DemandLedger
    from .taxonomy import JobFunction, Taxonomy


LEVEL_FUNCTION = "function"
LEVEL_FAMILY = "family"
LEVEL_TITLE = "title"
LEVEL_REGION = "region"
LEVELS = (LEVEL_FUNCTION, LEVEL_FAMILY, LEVEL_TITLE, LEVEL_REGION)

FUNNEL_LABELS = ("raw_observations", "industry_filtered", "dedup_units")


def render_decimal(x: Fraction | int, places: int = 1) -> str:
    """Render an exact rational to fixed decimals, rounding half away from zero."""
    numerator, denominator = x.as_integer_ratio()
    sign = "-" if numerator < 0 else ""
    scale = 10**places
    n, remainder = divmod(abs(numerator) * scale, denominator)
    if 2 * remainder >= denominator:
        n += 1
    if places == 0:
        return f"{sign}{n}"
    return f"{sign}{n // scale}.{n % scale:0{places}d}"


def render_pct(x: Fraction | int, places: int = 1) -> str:
    """Render a fraction in [0, 1] as a percentage string like '10.7%'."""
    return render_decimal(x * 100, places) + "%"


class FunnelReport(NamedTuple):
    """Stage counts through the pipeline and the reduction between stages."""

    stages: tuple[tuple[str, int], ...]
    reductions: tuple[Fraction, ...]


def build_funnel(counts: list[int] | tuple[int, ...]) -> FunnelReport:
    """Build the staged-reduction report from the counts of ``FUNNEL_LABELS``, in order.

    Counts must be non-increasing; a later stage exceeding an earlier one
    means a stage produced data it should only filter.
    """
    from fractions import Fraction

    counts = tuple(int(c) for c in counts)
    if len(counts) != len(FUNNEL_LABELS):
        raise InputError(f"funnel needs {len(FUNNEL_LABELS)} stage counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise InputError(f"negative stage count in {counts}")
    reductions: list[Fraction] = []
    for prev, cur in zip(counts, counts[1:]):
        if cur > prev:
            raise ContractError(f"stage count increased ({prev} -> {cur})")
        reductions.append(Fraction(prev - cur, prev) if prev else Fraction(0))
    return FunnelReport(stages=tuple(zip(FUNNEL_LABELS, counts)), reductions=tuple(reductions))


class DemandRow(NamedTuple):
    label: str
    by_region: dict[Region, Fraction]
    total: Fraction


class DemandTable(NamedTuple):
    """Demand totals grouped at one hierarchy level, split by region."""

    level: str
    rows: tuple[DemandRow, ...]
    grand_total: Fraction
    grand_by_region: dict[Region, Fraction]


def _labels_for(level: str, taxonomy: Taxonomy | None, function: JobFunction | None) -> list[str]:
    """The labels a table lists even at zero demand."""
    from .taxonomy import JobFunction

    if level == LEVEL_REGION:
        return [r.value for r in Region]
    if taxonomy is None:
        return []
    if level == LEVEL_FUNCTION:
        return [f.value for f in ([function] if function else JobFunction)]
    if level == LEVEL_FAMILY:
        return [f.name for f in (taxonomy.families if function is None else taxonomy.families_of(function))]
    return [j.phrase for j in (taxonomy.jsts if function is None else taxonomy.jsts_of(function))]


_LABEL_OF = {
    LEVEL_FUNCTION: lambda jst, region: jst.family.function.value,
    LEVEL_FAMILY: lambda jst, region: jst.family.name,
    LEVEL_TITLE: lambda jst, region: jst.phrase,
    LEVEL_REGION: lambda jst, region: region.value,
}


def demand_by(
    level: str,
    ledger: DemandLedger,
    taxonomy: Taxonomy | None = None,
    function: JobFunction | None = None,
) -> DemandTable:
    """Aggregate the ledger at the requested level with exact rational sums.

    Rolls up the ledger's per-term integer sums (``DemandLedger.term_sums``,
    computed once per ledger), so every total is exact and becomes a
    ``Fraction`` only here. With a taxonomy, every label at that level
    appears even at zero demand (near-zero roles stay visible); ``function``
    restricts rows to one job function. Rows are ordered by total
    descending, label ascending.
    """
    from fractions import Fraction

    if level not in LEVELS:
        raise InputError(f"unknown level {level!r}: expected one of {LEVELS}")
    totals: dict[str, dict[Region, int]] = {label: {} for label in _labels_for(level, taxonomy, function)}
    denominator, sums = ledger.term_sums
    label_of = _LABEL_OF[level]
    for jst, per_term in sums.items():
        if function is not None and jst.family.function is not function:
            continue
        for region, units in per_term.items():
            per_region = totals.setdefault(label_of(jst, region), {})
            per_region[region] = per_region.get(region, 0) + units
    grand: dict[Region, int] = {}
    rows = []
    for label, per_region in sorted(totals.items(), key=lambda item: (-sum(item[1].values()), item[0])):
        for region, units in per_region.items():
            grand[region] = grand.get(region, 0) + units
        total = Fraction(sum(per_region.values()), denominator)
        rows.append(DemandRow(label=label, by_region=_fractions(per_region, denominator), total=total))
    return DemandTable(
        level=level,
        rows=tuple(rows),
        grand_total=Fraction(sum(grand.values()), denominator),
        grand_by_region=_fractions(grand, denominator),
    )


def _fractions(per_region: dict[Region, int], denominator: int) -> dict[Region, Fraction]:
    from fractions import Fraction

    return {region: Fraction(units, denominator) for region, units in per_region.items()}


class RatioResult(NamedTuple):
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
    from fractions import Fraction

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


def _demand_rows(table: DemandTable):
    """Rendered (label, la, sb, sd, total) plus the exact total, per row and for TOTAL."""
    rows = [(r.label, r.by_region, r.total) for r in table.rows]
    for label, by_region, total in rows + [("TOTAL", table.grand_by_region, table.grand_total)]:
        cells = [render_decimal(by_region.get(region, 0)) for region in Region]
        yield label, *cells, render_decimal(total), total


def render_demand_csv(table: DemandTable) -> str:
    rows = ([*cells, total.numerator, total.denominator] for *cells, total in _demand_rows(table))
    return csv_text([table.level, "la", "sb", "sd", "total", "total_num", "total_den"], rows)


def render_demand_text(table: DemandTable) -> str:
    labels = [r.label for r in table.rows] + ["TOTAL", table.level]
    width = max(len(label) for label in labels)
    header = f"{table.level.ljust(width)}  {'LA':>9}  {'SB':>9}  {'SD':>9}  {'total':>10}"
    lines = [header, "-" * len(header)]
    for label, la, sb, sd, total, _ in _demand_rows(table):
        lines.append(f"{label.ljust(width)}  {la:>9}  {sb:>9}  {sd:>9}  {total:>10}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _atomic_file(path: str | Path):
    """A binary temp file beside ``path``, renamed over it when the block ends and removed if it fails.

    The temp file is created exclusively under a name holding the process id,
    so the file gets the permissions the umask allows (``mkstemp`` would make
    it 0600). A directory or temp file that cannot be created is an
    InputError; what the block raises passes through unchanged.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.unlink(missing_ok=True)  # left over by a dead process that had this process id
        fh = open(tmp, "xb")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, content: str) -> str:
    """Write a file atomically: temp file in the target directory, then rename; returns its sha256."""
    return write_chunks_atomic(path, (content,))


def write_chunks_atomic(path: str | Path, chunks: Iterable[str]) -> str:
    """Write the joined chunks atomically, one at a time; returns the sha256 of the bytes written."""
    digest = sha256()
    with _atomic_file(path) as fh:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()
