"""Fractional deduplication: one unit of demand per (job_id, region).

A posting matched by k terms contributes k assignments of weight 1/k, so
every distinct (job_id, region) carries exactly one unit of demand no
matter how many terms describe it. Weights are exact rationals internally;
decimal rendering happens only at report time, confining rounding to
presentation.

Content-identical postings listed in several regions under different job
ids stay separate demand units; cross_region_report only surfaces such
groups for transparency.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .corpus import Posting, Region, csv_text
from .errors import ContractError
from .matcher import MatchRecord
from .taxonomy import Jst, JstLevel

logger = logging.getLogger(__name__)

LEDGER_HEADER = ("job_id", "region", "function", "family", "title", "weight_num", "weight_den")


@dataclass(frozen=True, slots=True)
class WeightedAssignment:
    """One term's fractional share of a demand unit."""

    job_id: str
    region: Region
    jst: Jst
    weight: Fraction

    def __post_init__(self) -> None:
        if not (0 < self.weight <= 1):
            raise ContractError(f"weight {self.weight} for {self.job_id} outside (0, 1]")


@dataclass(frozen=True)
class DemandLedger:
    """All weighted assignments plus the exact demand-unit count."""

    assignments: tuple[WeightedAssignment, ...]
    unit_count: int

    def total_weight(self) -> Fraction:
        return sum((a.weight for a in self.assignments), start=Fraction(0))

    def units(self) -> set[tuple[str, Region]]:
        return {(a.job_id, a.region) for a in self.assignments}


def weight_assignments(records: list[MatchRecord]) -> DemandLedger:
    """Split each record's unit of demand equally across its matched terms.

    Requires one record per (job_id, region); a duplicate means the
    upstream contract was violated and raises. The resulting ledger is
    canonically ordered, so permutations of the input produce an identical
    ledger, and the sum of all weights equals the unit count exactly.
    """
    seen: set[tuple[str, Region]] = set()
    assignments: list[WeightedAssignment] = []
    for record in records:
        key = (record.job_id, record.region)
        if key in seen:
            raise ContractError(
                f"two match records for (job_id, region) ({record.job_id}, {record.region})"
            )
        seen.add(key)
        k = len(record.matched_jsts)
        share = Fraction(1, k)
        for jst in record.matched_jsts:
            assignments.append(
                WeightedAssignment(job_id=record.job_id, region=record.region, jst=jst, weight=share)
            )
    assignments.sort(key=lambda a: (a.job_id, a.region.value, a.jst.phrase))
    ledger = DemandLedger(assignments=tuple(assignments), unit_count=len(seen))
    total = ledger.total_weight()
    if total != ledger.unit_count:
        raise ContractError(f"ledger total {total} != unit count {ledger.unit_count}")
    return ledger


@dataclass(frozen=True, slots=True)
class CrossRegionGroup:
    """Content-identical postings listed under different job ids across regions."""

    title: str
    job_description: str
    employer_name: str
    members: tuple[tuple[str, Region], ...]


@dataclass(frozen=True)
class CrossRegionReport:
    groups: tuple[CrossRegionGroup, ...]

    def __len__(self) -> int:
        return len(self.groups)


def cross_region_report(postings: list[Posting]) -> CrossRegionReport:
    """List groups of content-identical postings spanning multiple regions.

    Postings stay independent demand units in every region where they
    appear; this report only makes the repetition visible.
    """
    by_content: dict[tuple[str, str, str], list[Posting]] = {}
    for p in postings:
        by_content.setdefault((p.title, p.job_description, p.employer_name), []).append(p)
    groups = []
    for (title, desc, employer), members in sorted(by_content.items()):
        regions = {p.region for p in members}
        if len(members) > 1 and len(regions) > 1:
            groups.append(
                CrossRegionGroup(
                    title=title,
                    job_description=desc,
                    employer_name=employer,
                    members=tuple(sorted((p.job_id, p.region) for p in members)),
                )
            )
    return CrossRegionReport(groups=tuple(groups))


def render_ledger_csv(ledger: DemandLedger) -> str:
    """Ledger export: job_id,region,function,family,title,weight_num,weight_den."""
    rows = (
        [
            a.job_id,
            a.region.value,
            a.jst.family.function.value,
            a.jst.family.name,
            a.jst.title.name if a.jst.level is JstLevel.TITLE and a.jst.title else "",
            a.weight.numerator,
            a.weight.denominator,
        ]
        for a in ledger.assignments
    )
    return csv_text(LEDGER_HEADER, rows)
