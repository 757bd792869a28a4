"""Fractional deduplication: one unit of demand per (job_id, region).

A posting matched by k terms contributes k assignments of weight 1/k, so
every distinct (job_id, region) carries exactly one unit of demand no
matter how many terms describe it. Weights are exact rationals; the ledger
sums them once, as integers over the common denominator of all weights,
and decimal rendering happens only at report time, confining rounding to
presentation.

Content-identical postings listed in several regions under different job
ids stay separate demand units; cross_region_report only surfaces such
groups for transparency.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from operator import itemgetter

from .corpus import Region, csv_line, joined_chunks
from .errors import ContractError
from .taxonomy import Jst, JstLevel


LEDGER_HEADER = ("job_id", "region", "function", "family", "title", "weight_num", "weight_den")

# One filtered posting: (job_id, region, its matched terms sorted by phrase,
# its raw employer name). The terms are () when it matched nothing.
Unit = tuple[str, Region, tuple[Jst, ...], str]


@dataclass(frozen=True, slots=True)
class WeightedAssignment:
    """One term's fractional share of a demand unit."""

    job_id: str
    region: Region
    jst: Jst
    weight: Fraction

    def __post_init__(self) -> None:
        if not (0 < self.weight.numerator <= self.weight.denominator):
            raise ContractError(f"weight {self.weight} for {self.job_id} outside (0, 1]")


@dataclass(frozen=True)
class DemandLedger:
    """The demand units, each with the terms that share it, in ledger order.

    A unit is a ``Unit`` with at least one term: its k terms each carry
    weight 1/k, so the k shares of every unit sum to exactly 1.
    """

    units: list[Unit]

    @property
    def unit_count(self) -> int:
        return len(self.units)

    @cached_property
    def assignments(self) -> tuple[WeightedAssignment, ...]:
        """Every term's share of every unit, in ledger order, built on first use."""
        shares = {k: Fraction(1, k) for k in {len(terms) for _, _, terms, _ in self.units}}
        return tuple(
            WeightedAssignment(job_id, region, jst, shares[len(terms)])
            for job_id, region, terms, _ in self.units
            for jst in terms
        )

    def total_weight(self) -> Fraction:
        denominator, sums = self.term_sums
        return Fraction(sum(sum(per_region.values()) for per_region in sums.values()), denominator)

    @cached_property
    def term_sums(self) -> tuple[int, dict[Jst, dict[Region, int]]]:
        """(L, sums): weights summed per term and region, in units of 1/L.

        L is the least common multiple of the weight denominators, so every
        sum is an exact integer numerator over L.
        """
        denominator = math.lcm(*{len(terms) for _, _, terms, _ in self.units})
        sums: dict[Jst, dict[Region, int]] = {}
        for _, region, terms, _ in self.units:
            units = denominator // len(terms)
            for jst in terms:
                per_region = sums.get(jst)
                if per_region is None:
                    per_region = sums[jst] = {}
                per_region[region] = per_region.get(region, 0) + units
        return denominator, sums


def weight_assignments(rows: list[Unit]) -> DemandLedger:
    """Split the unit of demand of each row with terms equally across them.

    The ledger's units are those rows themselves, sorted by (job_id, region
    code), with each row's own terms: ``rows`` must give them sorted by
    phrase, as ``MatchIndex.shared`` does. Requires one row with terms per
    (job_id, region); a duplicate means the upstream contract was violated
    and raises, naming the first duplicate in ``rows``. Permutations of
    ``rows`` produce an identical ledger, and the sum of all weights equals
    the unit count exactly.
    """
    region_code = {region: region.value for region in Region}
    units = [row for row in rows if row[2]]
    # Two stable sorts give the (job_id, region code) order without a key tuple per unit.
    units.sort(key=lambda unit: region_code[unit[1]])
    units.sort(key=itemgetter(0))
    if any(a[0] == b[0] and a[1] is b[1] for a, b in pairwise(units)):
        seen: set[tuple[str, Region]] = set()
        keys = (row[:2] for row in rows if row[2])  # in input order
        job_id, region = next(key for key in keys if key in seen or seen.add(key))
        raise ContractError(f"two match records for (job_id, region) ({job_id}, {region})")
    ledger = DemandLedger(units=units)
    total = ledger.total_weight()
    if total != ledger.unit_count:
        raise ContractError(f"ledger total {total} != unit count {ledger.unit_count}")
    return ledger


@dataclass(frozen=True, slots=True)
class CrossRegionGroup:
    """Content-identical postings listed under different job ids across regions."""

    title: str
    employer_name: str
    members: tuple[tuple[str, Region], ...]


def cross_region_report(
    by_content: dict[tuple[str, str, str], list[tuple[str, Region]]],
) -> tuple[CrossRegionGroup, ...]:
    """List groups of content-identical postings spanning multiple regions.

    ``by_content`` maps each (title, job_description, employer_name) to the
    (job_id, region) of every posting with that content. Postings stay
    independent demand units in every region where they appear; this
    report only makes the repetition visible.
    """
    spanning = {
        key: members
        for key, members in by_content.items()
        if len(members) > 1 and len({region for _, region in members}) > 1
    }
    # One job id may be listed in several regions, and Regions do not order.
    return tuple(
        CrossRegionGroup(title, employer, tuple(sorted(members, key=lambda m: (m[0], m[1].value))))
        for (title, _, employer), members in sorted(spanning.items())
    )


def ledger_csv_chunks(ledger: DemandLedger) -> Iterator[str]:
    """Ledger export in chunks of ``corpus.CHUNK_LINES`` lines:
    job_id,region,function,family,title,weight_num,weight_den.

    CSV quotes each field on its own, so a row is its unit's rendered
    (job_id, region) joined to each term's rendered three columns and the
    weight 1/k; each piece goes through the csv module once.
    """
    _, sums = ledger.term_sums  # keyed by the ledger's distinct terms
    term_columns = {
        jst: csv_line(
            (
                jst.family.function.value,
                jst.family.name,
                jst.phrase if jst.level is JstLevel.TITLE else "",
            )
        )[:-1]
        for jst in sums
    }

    def rows() -> Iterator[str]:
        yield csv_line(LEDGER_HEADER)
        for job_id, region, terms, _ in ledger.units:
            head = csv_line((job_id, region.value))[:-1]
            tail = f",1,{len(terms)}\n"
            for jst in terms:
                yield f"{head},{term_columns[jst]}{tail}"

    return joined_chunks(rows())


def render_ledger_csv(ledger: DemandLedger) -> str:
    """The whole ledger export as one string."""
    return "".join(ledger_csv_chunks(ledger))
