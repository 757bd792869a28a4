"""Seeded synthetic-corpus generator with exported ground truth.

Stands in for the unreachable commercial platform: every posting's planted
term set, industry membership, employer identity, and cross-region
repetition is recorded, so each pipeline stage can be checked against
truth exactly.

Design constraints that keep the truth exact:

- attribute counts (function, term count k, industry membership, region)
  are apportioned by largest remainder, not sampled, so configured mixes
  are realized to within one posting per stratum;
- planted term phrases are embedded verbatim with filler words between
  them, and the filler vocabulary is filtered against every taxonomy
  token, so no accidental term run can form;
- terms whose phrase contains another term as a contiguous run are never
  planted (the plant would imply the shorter match);
- employer names only exhibit phenomena the disambiguation rules cover,
  and a division name is only drawn after its parent appears; no name is a
  token prefix of another identity's name. Names are enumerated from
  shuffled families, and the name registry checks each candidate at most
  once, with one dict lookup per token, in time linear in the stock.

Generation is single-threaded and deterministic for a given (seed, config,
taxonomy); the same seed twice yields byte-identical files.
"""

from __future__ import annotations

import datetime as dt
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import (
    DEFAULT_WINDOW_END,
    DEFAULT_WINDOW_START,
    Posting,
    Region,
    csv_line,
    expanded_tokens,
    joined_chunks,
    normalize_text,
    posting_to_json,
)
from .errors import ContractError, InputError
from .matcher import (
    FILTER_ANY_FIELD,
    ROLE_WORDS,
    MatchIndex,
    industry_predicate,
    validate_industry_token,
)
from .report import write_chunks_atomic
from .taxonomy import JobFunction, Jst, Taxonomy

TRUTH_HEADER = (
    "job_id",
    "region",
    "off_industry",
    "jsts",
    "employer_name",
    "employer_identity",
    "cross_region_group",
)


# The fixed corpus shape; each mix sums to 1.
REGION_MIX = {Region.LA: Fraction(3, 4), Region.SB: Fraction(1, 10), Region.SD: Fraction(3, 20)}

# Engineer-heavy mix with technicians just under a fifth of demand.
FUNCTION_MIX = {
    JobFunction.ENGINEER: Fraction(329, 500),
    JobFunction.TECHNICIAN: Fraction(419, 2000),
    JobFunction.SCIENTIST: Fraction(37, 400),
    JobFunction.OPERATIONAL_SUPPORT: Fraction(1, 25),
}

# Terms per posting, mean 2.45, so deduplication removes well over half of
# the observation rows.
MULTI_JST_RATE_BY_K = {
    1: Fraction(1, 4), 2: Fraction(3, 10), 3: Fraction(1, 4), 4: Fraction(3, 20), 5: Fraction(1, 20)
}

# Share of base employer names that start with a common first word.
ONOMASTIC_COLLISION_RATE = Fraction(1, 5)


_FILLER_CANDIDATES = (
    "join", "our", "team", "and", "support", "daily", "production", "goals",
    "the", "role", "includes", "ownership", "of", "key", "deliverables",
    "with", "training", "provided", "onsite", "schedule", "benefits",
    "growth", "culture", "collaboration", "across", "groups", "tasks",
    "span", "planning", "reviews", "documentation", "audits", "tooling",
    "upkeep", "reporting", "cadence", "weekly", "standups", "mentoring",
    "travel", "minimal", "relocation", "offered", "campus", "facility",
    "badge", "access", "parking", "included", "apply", "today",
)

# In display form: a neutral title joins a sample of them.
_NEUTRAL_TITLE_WORDS = (
    "Operations", "Specialist", "Coordinator", "Associate", "Assistant",
    "Planner", "Facilitator", "Scheduler", "Supervisor", "Expeditor",
)

_DISTINCTIVE_WORDS = (
    "vortex", "zenith", "apex", "orion", "citadel", "nova", "pinnacle",
    "stellar", "summit", "meridian", "catalyst", "horizon", "vertex",
    "polaris", "arcadia", "trident", "aurora", "cobalt", "onyx", "falcon",
    "griffin", "helios", "juniper", "krypton", "lumen", "mirage", "nimbus",
    "obsidian", "pegasus", "raven", "sable", "tempest", "umbra", "vulcan",
    "willow", "xenon", "yarrow", "zephyr", "ember", "quasar", "talon",
    "borealis", "cascade", "evergreen", "fulcrum", "granite", "harbor",
    "jade", "keystone", "lattice", "monarch", "octave", "prism", "quartz",
    "rubicon", "sentinel", "tundra", "ivory", "cinder", "bastion",
)

_ORG_NOUNS = (
    "dynamics", "technologies", "industries", "laboratories", "devices",
    "instruments", "solutions", "components", "circuits", "fabrication",
    "microsystems", "foundry", "works", "optics", "robotics", "photonics",
    "ventures", "holdings", "partners", "group",
)

_DIVISION_EXTENSIONS = (
    "robotics", "research", "labs", "ventures", "logistics", "energy",
    "aerospace", "digital", "medical", "imaging", "services", "americas",
    "west", "defense", "automation", "packaging",
)

_COLLISION_FIRST_WORDS = ("advanced", "american", "university", "general", "national", "united")

# Share of planted division names whose parent company also appears in the
# stock; the rest extend a withheld parent and correctly stay distinct.
_PARENT_PRESENT_SHARE = Fraction(7, 10)

_SUFFIX_VARIANT_RATE = 0.2
_TITLED_FROM_TERM_RATE = 0.6

# Where a posting carries the industry token: (job description, employer
# description). An on-industry posting draws one placement uniformly.
_TOKEN_PLACEMENTS = ((True, False), (False, True), (True, True))
_TOKEN_ABSENT = (False, False)

_phrase = attrgetter("phrase")


def _as_fraction(x) -> Fraction:
    # Floats go through their decimal rendering so 0.15 means 3/20.
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def apportion(total: int, weights: dict) -> dict:
    """Split an integer total by fractional weights via largest remainder.

    Deterministic: remainder ties break by weight insertion order. The
    result sums to the total exactly.
    """
    if total < 0:
        raise InputError(f"cannot apportion negative total {total}")
    weight_sum = sum((Fraction(w) for w in weights.values()), start=Fraction(0))
    if weight_sum == 0:
        if total:
            raise InputError("cannot apportion a positive total over zero weights")
        return {k: 0 for k in weights}
    quotas = {k: Fraction(total) * Fraction(w) / weight_sum for k, w in weights.items()}
    counts = {k: q.numerator // q.denominator for k, q in quotas.items()}
    leftover = total - sum(counts.values())
    by_remainder = sorted(
        enumerate(weights),
        key=lambda item: (-(quotas[item[1]] - counts[item[1]]), item[0]),
    )
    for _, key in by_remainder[:leftover]:
        counts[key] += 1
    return counts


@dataclass(frozen=True)
class SynthConfig:
    """The generator's settings; the mixes above are fixed."""

    seed: int = 42
    n_postings: int = 5300
    off_industry_rate: Fraction = Fraction(1, 3)
    division_rate: Fraction = Fraction(3, 20)
    cross_region_repeat_count: int = 0
    unknown_title_plants: tuple[tuple[str, int], ...] = ()
    industry_token: str = "semiconductor"

    def __post_init__(self) -> None:
        if self.n_postings < 0:
            raise InputError(f"n_postings must be >= 0, got {self.n_postings}")
        if self.cross_region_repeat_count < 0:
            raise InputError("cross_region_repeat_count must be >= 0")
        for name in ("off_industry_rate", "division_rate"):
            rate = _as_fraction(getattr(self, name))
            if not (0 <= rate <= 1):
                raise InputError(f"{name} must be within [0, 1], got {rate}")
            object.__setattr__(self, name, rate)
        object.__setattr__(self, "unknown_title_plants", tuple(self.unknown_title_plants))
        for phrase, count in self.unknown_title_plants:
            if not normalize_text(phrase):
                raise InputError(f"unknown title plant {phrase!r} normalizes to nothing")
            if count < 0:
                raise InputError(f"plant count for {phrase!r} must be >= 0")


class TruthRow(NamedTuple):
    """Planted facts for one emitted posting.

    A named tuple, like ``Posting``: immutable and cheap to build.
    """

    job_id: str
    region: Region
    off_industry: bool
    jsts: tuple[str, ...]
    employer_name: str
    employer_identity: str
    cross_region_group: int | None = None


@dataclass(frozen=True)
class EmployerIdentity:
    """One true company: a parent display name plus any division display names."""

    key: str
    parent_display: str
    division_displays: tuple[str, ...] = ()

    def all_displays(self) -> tuple[str, ...]:
        return (self.parent_display,) + self.division_displays


@dataclass(frozen=True)
class EmployerStock:
    identities: tuple[EmployerIdentity, ...]

    def all_names(self) -> list[tuple[str, str]]:
        """(raw display, identity key) for every name in the stock."""
        return [(d, ident.key) for ident in self.identities for d in ident.all_displays()]


def _display(tokens: tuple[str, ...] | list[str]) -> str:
    return " ".join(t.capitalize() for t in tokens)


class _NameRegistry:
    """Tracks claimed token sequences; forbids cross-identity prefix relations.

    A candidate conflicts when another identity claimed one of its prefixes
    (the candidate itself included) or a sequence the candidate is a proper
    prefix of. Both are dict lookups, at most one per candidate token plus
    one; the first lookup that finds a foreign owner decides. Each sequence
    maps to its one owner, or to ``_SHARED`` once two identities own it.
    """

    _SHARED = object()

    def __init__(self) -> None:
        self._claimed: dict[tuple[str, ...], object] = {}  # sequence -> owner
        self._extended: dict[tuple[str, ...], object] = {}  # proper prefix -> owner

    def conflicts(self, seq: tuple[str, ...], identity: str) -> bool:
        claimed = self._claimed
        for n in range(1, len(seq) + 1):
            if claimed.get(seq[:n], identity) != identity:
                return True
        return self._extended.get(seq, identity) != identity

    def claim(self, seq: tuple[str, ...], identity: str) -> None:
        keys = [(self._claimed, seq)] + [(self._extended, seq[:n]) for n in range(1, len(seq))]
        for owners, key in keys:
            owners[key] = identity if owners.get(key, identity) == identity else self._SHARED


def _family(rng: random.Random, prefix: tuple[str, ...], pools: tuple) -> Iterator[tuple[str, ...]]:
    """Every ``prefix`` + one word per pool with no repeated token, in a seeded shuffled order.

    A Fisher-Yates shuffle of the names' indexes, run one step per name
    taken and holding only the slots it has moved, so a family costs draws
    and memory only for the names its caller reads.
    """
    moved: dict[int, int] = {}
    for i in reversed(range(math.prod(map(len, pools)))):
        j = rng.randrange(i + 1)
        index = moved.get(j, j)
        moved[j] = moved.pop(i, i)
        words = []
        for pool in pools:
            index, r = divmod(index, len(pool))
            words.append(pool[r])
        name = prefix + tuple(words)
        if len(set(name)) == len(name):
            yield name


def build_employer_stock(
    rng: random.Random,
    n_names: int,
    division_rate: Fraction,
    collision_rate: Fraction,
) -> EmployerStock:
    """Build a raw-name stock with planted divisions and onomastic collisions.

    ``n_names`` counts raw names, not companies: a division name belongs to
    its parent's identity. A fixed share of division names has the parent
    present (those merge); the rest extend a withheld parent and stay
    distinct. Collision names start with a common first word but diverge at
    the second, so they must split.
    """
    if n_names < 1:
        raise InputError(f"employer stock needs at least one name, got {n_names}")
    n_divisions = _round_half_up(division_rate * n_names)
    n_base = n_names - n_divisions
    if n_base < 1:
        raise InputError("division_rate leaves no base companies in the stock")
    mergeable = min(_round_half_up(_PARENT_PRESENT_SHARE * n_divisions), n_base)
    orphans = n_divisions - mergeable
    n_collide = _round_half_up(collision_rate * n_base)

    registry = _NameRegistry()
    pair, single = (_DISTINCTIVE_WORDS, _ORG_NOUNS), (_DISTINCTIVE_WORDS,)
    triple = (_DISTINCTIVE_WORDS, _DISTINCTIVE_WORDS, _ORG_NOUNS)
    shared: dict[tuple, Iterator[tuple[str, ...]]] = {}
    identities: list[EmployerIdentity] = []

    def family(prefix: tuple[str, ...], pools: tuple) -> Iterator[tuple[str, ...]]:
        """The one cursor over ``prefix`` + one word per pool that every new identity takes from."""
        return shared.setdefault((prefix, pools), _family(rng, prefix, pools))

    def invent(identity: str, *families: Iterator[tuple[str, ...]]) -> tuple[str, ...]:
        """Claim the first name of the families, in order, that no other identity blocks.

        A name that blocks one new identity blocks every later one, since
        claims only grow, so a shared cursor never revisits a name.
        """
        for seq in chain(*families):
            if not registry.conflicts(seq, identity):
                registry.claim(seq, identity)
                return seq
        raise ContractError("employer name stock exhausted")

    base_seqs: list[tuple[str, ...]] = []
    for i in range(n_base):
        prefix = (_COLLISION_FIRST_WORDS[i % len(_COLLISION_FIRST_WORDS)],) if i < n_collide else ()
        pools = single if not prefix and rng.random() < 0.15 else pair
        seq = invent(f"id{i}", family(prefix, pools), family(prefix, triple))
        base_seqs.append(seq)
        identities.append(EmployerIdentity(key=" ".join(seq), parent_display=_display(seq)))

    parent_order = list(range(n_base))
    rng.shuffle(parent_order)
    for parent_idx in parent_order[:mergeable]:  # mergeable <= n_base: one division per parent
        n_ext = 1 if rng.random() < 0.7 else 2
        seq = invent(f"id{parent_idx}", _family(rng, base_seqs[parent_idx], (_DIVISION_EXTENSIONS,) * n_ext))
        identities[parent_idx] = replace(identities[parent_idx], division_displays=(_display(seq),))

    for o in range(orphans):
        ghost_id = f"ghost{o}"
        ghost = invent(ghost_id, family((), pair), family((), triple))  # a withheld parent
        seq = invent(ghost_id, _family(rng, ghost, (_DIVISION_EXTENSIONS,)))
        identities.append(EmployerIdentity(key=" ".join(seq), parent_display=_display(seq)))

    return EmployerStock(identities=tuple(identities))


def plantable_jsts(taxonomy: Taxonomy) -> dict[JobFunction, list[Jst]]:
    """Terms safe to plant: none of their phrases contains another term."""
    def contains(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
        n = len(needle)
        return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))

    pools: dict[JobFunction, list[Jst]] = {f: [] for f in JobFunction}
    for jst in taxonomy.jsts:
        nested = any(
            other is not jst and contains(jst.tokens, other.tokens)
            for other in taxonomy.jsts
        )
        if not nested:
            pools[jst.family.function].append(jst)
    return pools


def _safe_fillers(taxonomy: Taxonomy, industry_token: str) -> list[str]:
    forbidden = {t for jst in taxonomy.jsts for t in jst.tokens}
    forbidden.update(ROLE_WORDS)
    forbidden.add(industry_token)
    fillers = [w for w in _FILLER_CANDIDATES if w not in forbidden]
    if len(fillers) < 10:
        raise InputError("taxonomy tokens overlap the filler vocabulary too heavily")
    return fillers


class _Generator:
    def __init__(self, config: SynthConfig, taxonomy: Taxonomy) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.industry_token = validate_industry_token(config.industry_token)
        self.fillers = _safe_fillers(taxonomy, self.industry_token)
        self.pools = plantable_jsts(taxonomy)
        # A term containing the industry token would leak it into postings
        # that must stay off-industry.
        self.pools_off = {
            f: [j for j in pool if self.industry_token not in j.tokens]
            for f, pool in self.pools.items()
        }
        # Every day of the window: a uniform choice of one is a uniform day.
        span = (DEFAULT_WINDOW_END - DEFAULT_WINDOW_START).days
        self.dates = tuple(DEFAULT_WINDOW_START + dt.timedelta(days=d) for d in range(span + 1))
        self.index = MatchIndex(taxonomy)
        if self.index.scan((self.industry_token,)):
            raise InputError(
                f"industry token {config.industry_token!r} is itself a taxonomy term; "
                "generated postings could not stay off-industry"
            )

    def _description(self, lead: tuple[int, int], jsts: list[Jst], with_token: bool) -> str:
        """Filler, then each term followed by filler, then maybe the industry token and filler."""
        choices, randint, fillers = self.rng.choices, self.rng.randint, self.fillers
        words = choices(fillers, k=randint(*lead))
        for jst in jsts:
            words.append(jst.phrase)
            words += choices(fillers, k=randint(1, 3))
        if with_token:
            words.append(self.industry_token)
            words += choices(fillers, k=randint(1, 2))
        return " ".join(words)

    def _neutral_title(self) -> str:
        return " ".join(self.rng.sample(_NEUTRAL_TITLE_WORDS, self.rng.randint(2, 3)))

    def _build_slots(self) -> list[tuple[JobFunction, int, bool, Region]]:
        config = self.config
        slots: list[tuple[JobFunction, int, bool, Region]] = []
        function_counts = apportion(config.n_postings, FUNCTION_MIX)
        for function, n_f in function_counts.items():
            if not n_f:
                continue
            if not self.pools[function]:
                raise InputError(f"no plantable terms for function {function}")
            k_counts = apportion(n_f, MULTI_JST_RATE_BY_K)
            split = apportion(
                n_f, {False: 1 - config.off_industry_rate, True: config.off_industry_rate}
            )
            for off in (False, True):
                m = split[off]
                if not m:
                    continue
                if off and not self.pools_off[function]:
                    raise InputError(
                        f"every plantable term for {function} contains the industry token; "
                        "cannot generate off-industry postings"
                    )
                k_quota = apportion(m, {k: Fraction(c) for k, c in k_counts.items() if c})
                region_counts = apportion(m, REGION_MIX)
                region_deck = [r for r, c in region_counts.items() for _ in range(c)]
                self.rng.shuffle(region_deck)
                ks = [k for k, cnt in sorted(k_quota.items()) for _ in range(cnt)]
                slots += [(function, k, off, region) for k, region in zip(ks, region_deck)]
        self.rng.shuffle(slots)
        return slots

    def run(self) -> tuple[list[Posting], tuple[TruthRow, ...]]:
        config = self.config
        rng = self.rng
        choice, random_, sample = rng.choice, rng.random, rng.sample
        slots = self._build_slots()

        # Sized so on-industry demand lands near 3.6 units per employer.
        n_names = max(1, _round_half_up(Fraction(config.n_postings * 10, 54)))
        stock = build_employer_stock(rng, n_names, config.division_rate, ONOMASTIC_COLLISION_RATE)
        identities = stock.identities
        draw_counts: dict[str, int] = {}

        def draw_employer() -> tuple[str, str]:
            ident = choice(identities)
            seen = draw_counts.get(ident.key, 0)
            draw_counts[ident.key] = seen + 1
            if seen == 0 or not ident.division_displays:
                display = ident.parent_display
            else:
                display = choice(ident.all_displays())
            if random_() < _SUFFIX_VARIANT_RATE:
                display = f"{display} Inc"
            return display, ident.key

        postings: list[Posting] = []
        rows: list[TruthRow] = []
        add_posting, add_row = postings.append, rows.append
        description, dates = self._description, self.dates

        def next_job_id() -> str:
            return f"J{len(postings) + 1:07d}"

        def emit(
            title: str,
            employer: tuple[str, str],
            region: Region,
            jsts: list[Jst],
            off: bool,
            placement: tuple[bool, bool],
        ) -> None:
            """Record a posting and its truth, drawing job description, employer
            description and date in that order: the fixtures' bytes depend on it."""
            employer_name, identity = employer
            job_id = next_job_id()
            add_posting(
                Posting(
                    job_id,
                    title,
                    description((2, 4), jsts, placement[0]),
                    employer_name,
                    description((4, 6), (), placement[1]),
                    region,
                    choice(dates),
                )
            )
            add_row(
                TruthRow(job_id, region, off, tuple(map(_phrase, jsts)), employer_name, identity)
            )

        pools, pools_off = self.pools, self.pools_off
        slots.reverse()
        while slots:  # each slot freed as its posting is built
            function, k, off, region = slots.pop()
            pool = pools_off[function] if off else pools[function]
            jsts = sorted(sample(pool, min(k, len(pool))), key=_phrase)
            placement = _TOKEN_ABSENT if off else choice(_TOKEN_PLACEMENTS)
            employer = draw_employer()
            title = jsts[0].phrase.title() if random_() < _TITLED_FROM_TERM_RATE else self._neutral_title()
            emit(title, employer, region, jsts, off, placement)

        for phrase, count in config.unknown_title_plants:
            tokens = normalize_text(phrase)
            if self.index.scan(expanded_tokens(phrase)):
                raise InputError(
                    f"unknown title plant {phrase!r} contains an existing taxonomy term"
                )
            for region, cnt in apportion(count, REGION_MIX).items():
                for _ in range(cnt):
                    emit(_display(tokens), draw_employer(), region, [], False, _TOKEN_PLACEMENTS[0])

        if config.cross_region_repeat_count:
            eligible = [i for i, row in enumerate(rows) if row.jsts and not row.off_industry]
            if len(eligible) < config.cross_region_repeat_count:
                raise InputError(
                    f"cannot plant {config.cross_region_repeat_count} cross-region repeats: "
                    f"only {len(eligible)} eligible postings"
                )
            region_cycle = list(Region)
            for group_no, source_idx in enumerate(
                sorted(rng.sample(eligible, config.cross_region_repeat_count)), start=1
            ):
                source = postings[source_idx]
                target = region_cycle[(region_cycle.index(source.region) + 1) % len(region_cycle)]
                copy = source._replace(job_id=next_job_id(), region=target)
                postings.append(copy)
                rows[source_idx] = rows[source_idx]._replace(cross_region_group=group_no)
                rows.append(rows[source_idx]._replace(job_id=copy.job_id, region=target))

        self._self_check(postings, rows)
        return postings, tuple(rows)

    def _self_check(self, postings: list[Posting], rows: list[TruthRow]) -> None:
        """Planted truth must agree with exact matching semantics by construction.

        Every posting's terms are those ``MatchIndex.terms`` finds, as the
        pipeline matches it, and its industry flag is checked with the
        pipeline's default industry filter.
        """
        on_industry = industry_predicate(self.industry_token, FILTER_ANY_FIELD)
        terms = self.index.terms
        for posting, row in zip(postings, rows):
            seen = [j.phrase for j in terms(posting)]  # sorted by phrase, as the index sorts them
            if seen != sorted(row.jsts):
                raise ContractError(
                    f"generator self-check failed for {posting.job_id}: planted "
                    f"{sorted(row.jsts)} but matching sees {seen}"
                )
            if on_industry(posting) == row.off_industry:
                raise ContractError(
                    f"generator self-check failed for {posting.job_id}: industry token "
                    f"presence contradicts the off_industry flag"
                )


def build_corpus(config: SynthConfig, taxonomy: Taxonomy) -> tuple[list[Posting], tuple[TruthRow, ...]]:
    """Generate postings and their ground truth in memory."""
    return _Generator(config, taxonomy).run()


def render_truth_csv(truth: tuple[TruthRow, ...]) -> Iterator[str]:
    """truth.csv in chunks of ``CHUNK_LINES`` lines."""
    rows = (
        [
            row.job_id,
            row.region.value,
            "1" if row.off_industry else "0",
            "|".join(row.jsts),
            row.employer_name,
            row.employer_identity,
            row.cross_region_group if row.cross_region_group is not None else "",
        ]
        for row in truth
    )
    return joined_chunks(map(csv_line, chain((TRUTH_HEADER,), rows)))


@dataclass(frozen=True)
class GenerateResult:
    posting_count: int
    sha256: dict[str, str]  # file name -> sha256 of the bytes written, in write order


def generate(config: SynthConfig, taxonomy: Taxonomy, out_dir: str | Path) -> GenerateResult:
    """Generate the corpus and write one posting file per region plus truth.csv, each in chunks."""
    postings, truth = build_corpus(config, taxonomy)
    out = Path(out_dir)
    sha256: dict[str, str] = {}
    for region in Region:
        path = out / f"{region.value.lower()}.jsonl"
        lines = (posting_to_json(p) + "\n" for p in postings if p.region is region)
        sha256[path.name] = write_chunks_atomic(path, joined_chunks(lines))
    sha256["truth.csv"] = write_chunks_atomic(out / "truth.csv", render_truth_csv(truth))
    return GenerateResult(posting_count=len(postings), sha256=sha256)
