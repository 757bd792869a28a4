"""Job-term hierarchy: titles grouped into families, families into functions.

Loads the taxonomy from CSV, validates reference closure, and resolves the
precedence rule for phrases that appear at both hierarchy levels: the family
wins and the phrase is removed from consideration as a title anywhere else.

Every family and every surviving title is one term (Jst): its phrase, its
tokens, its level and its family. A title term's phrase is the title, so
the ledger's title column is that phrase. Phrases are normalized with the
corpus tokenizer, and a term's tokens are its phrase's tokens with each
hyphenated one split into its parts (``corpus.expanded_tokens``), the form
posting text is matched in. Precedence, duplicate checks and lookup all key
on those tokens, so two phrases that differ only by hyphens are one phrase.

A loaded Taxonomy is immutable and safe for concurrent reads. Its families
and terms compare by identity: each equals only itself, and two loads of
one file give distinct, unequal objects. Hashing one is then a C-level
slot, however often matching and aggregation hash every term occurrence.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field

from .corpus import content_lines, expanded_tokens, normalize_text
from .errors import InputError, warn

TAXONOMY_HEADER = ("function", "family", "title")


class JobFunction(enum.Enum):
    """The four top-level groupings by education level and value-chain role."""

    SCIENTIST = "Scientist"
    ENGINEER = "Engineer"
    TECHNICIAN = "Technician"
    OPERATIONAL_SUPPORT = "OperationalSupport"

    def __str__(self) -> str:
        return self.value


_FUNCTION_ALIASES = {
    "scientist": JobFunction.SCIENTIST,
    "scientists": JobFunction.SCIENTIST,
    "engineer": JobFunction.ENGINEER,
    "engineers": JobFunction.ENGINEER,
    "technician": JobFunction.TECHNICIAN,
    "technicians": JobFunction.TECHNICIAN,
    "operationalsupport": JobFunction.OPERATIONAL_SUPPORT,
    "organizationalsupport": JobFunction.OPERATIONAL_SUPPORT,
}


def parse_function(label: str) -> JobFunction:
    """Parse a function label, tolerating case, spaces, hyphens, underscores."""
    key = label.strip().lower().replace(" ", "").replace("_", "").replace("-", "")
    try:
        return _FUNCTION_ALIASES[key]
    except KeyError:
        raise InputError(f"unknown job function label {label!r}") from None


class JstLevel(enum.Enum):
    FAMILY = "Family"
    TITLE = "Title"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True, eq=False)
class JobFamily:
    name: str
    function: JobFunction


@dataclass(frozen=True, slots=True, eq=False)
class Jst:
    """One job-specific term: a family or title phrase used as a match keyword.

    A title-level term's phrase is its title. ``tokens`` are the phrase's
    tokens with each hyphenated one split into its parts, the form matching
    compares: the phrase "rf-engineer" has the tokens ("rf", "engineer").
    """

    phrase: str
    tokens: tuple[str, ...]
    level: JstLevel
    family: JobFamily


@dataclass(frozen=True, eq=False)
class Taxonomy:
    """Validated, immutable hierarchy with exact-phrase lookup."""

    families: tuple[JobFamily, ...]
    jsts: tuple[Jst, ...]
    _index: dict[tuple[str, ...], Jst] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        index = {jst.tokens: jst for jst in self.jsts}
        if len(index) != len(self.jsts):
            raise InputError("duplicate phrases survived precedence resolution")
        object.__setattr__(self, "_index", index)

    def families_of(self, function: JobFunction) -> tuple[JobFamily, ...]:
        return tuple(f for f in self.families if f.function is function)

    def jsts_of(self, function: JobFunction) -> tuple[Jst, ...]:
        return tuple(j for j in self.jsts if j.family.function is function)


def resolve_precedence(entries: list[Jst]) -> tuple[list[Jst], list[str]]:
    """Apply the hierarchy-precedence rule to candidate terms.

    When a phrase occurs both as a family and as a title, only the
    family-level entry survives; every title-level occurrence is dropped
    with a warning. A phrase declared as a family in two different families
    is ambiguous and rejected, as is the same title phrase claimed by two
    families with no family-level entry to arbitrate.

    Idempotent: resolving an already-resolved list returns it unchanged.
    """
    by_tokens: dict[tuple[str, ...], list[Jst]] = {}
    for entry in entries:
        by_tokens.setdefault(entry.tokens, []).append(entry)

    warnings: list[str] = []
    dropped: set[Jst] = set()
    for group in by_tokens.values():
        family_entries = [e for e in group if e.level is JstLevel.FAMILY]
        title_entries = [e for e in group if e.level is JstLevel.TITLE]
        if len(family_entries) > 1:
            names = sorted({e.family.name for e in family_entries})
            raise InputError(
                f"phrase {group[0].phrase!r} is declared as a family more than once ({', '.join(names)})"
            )
        if family_entries and title_entries:
            for e in title_entries:
                warnings.append(
                    f"phrase {e.phrase!r} used as both family and title: family takes "
                    f"precedence, removed as a title in family {e.family.name!r}"
                )
                dropped.add(e)
        elif len(title_entries) > 1:
            names = sorted({e.family.name for e in title_entries})
            raise InputError(
                f"title phrase {group[0].phrase!r} claimed by multiple families ({', '.join(names)})"
            )
    return [entry for entry in entries if entry not in dropped], warnings


def lookup(taxonomy: Taxonomy, phrase: str | tuple[str, ...]) -> Jst | None:
    """Exact-phrase lookup; absence is a valid result.

    A phrase string is tokenized as terms are, hyphens split; a token
    tuple must already be in that form.
    """
    tokens = expanded_tokens(phrase) if isinstance(phrase, str) else tuple(phrase)
    return taxonomy._index.get(tokens) if tokens else None


def load_taxonomy(path: str) -> Taxonomy:
    """Load and validate a taxonomy CSV.

    Schema: UTF-8, header ``function,family,title``, one CSV row per line
    of the file; a row with an empty title declares the family-level term;
    ``#`` starts a comment line. Every family must be declared by exactly
    one empty-title row. Phrase collisions across levels resolve by family
    precedence with a warning per collision.
    """
    rows = []
    for line_no, line in list(content_lines(path, "taxonomy")):
        try:
            rows.append((line_no, next(csv.reader([line]))))
        except csv.Error as exc:  # a field over the csv module's size limit
            raise InputError(f"{path}:{line_no}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: empty taxonomy file")
    header_no, header = rows[0]
    if [h.strip().lower() for h in header] != list(TAXONOMY_HEADER):
        raise InputError(
            f"{path}:{header_no}: bad header {header!r}, expected {','.join(TAXONOMY_HEADER)}"
        )

    # Keyed on the family's term tokens, so hyphen twins name one family.
    families: dict[tuple[str, ...], JobFamily] = {}
    family_lines: dict[tuple[str, ...], int] = {}
    candidates: list[Jst] = []  # family terms first, then title terms, each in file order
    title_rows: list[tuple[int, JobFunction, str, str]] = []
    for line_no, row in rows[1:]:
        if len(row) != 3:
            raise InputError(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
        try:
            function = parse_function(row[0])
        except InputError as exc:
            raise InputError(f"{path}:{line_no}: {exc}") from None
        family_tokens = normalize_text(row[1])
        if not family_tokens:
            raise InputError(f"{path}:{line_no}: empty family name")
        family_name = " ".join(family_tokens)
        family_key = expanded_tokens(family_name)
        title_raw = row[2].strip()
        if not title_raw:
            if family_key in families:
                raise InputError(
                    f"{path}:{line_no}: family {family_name!r} already declared at line "
                    f"{family_lines[family_key]}"
                )
            families[family_key] = family = JobFamily(name=family_name, function=function)
            family_lines[family_key] = line_no
            candidates.append(Jst(family_name, family_key, JstLevel.FAMILY, family))
        else:
            title_rows.append((line_no, function, family_name, title_raw))

    if not families:
        raise InputError(f"{path}: taxonomy declares zero families")

    seen_titles: set[tuple[str, tuple[str, ...]]] = set()
    for line_no, function, family_name, title_raw in title_rows:
        family = families.get(expanded_tokens(family_name))
        if family is None:
            raise InputError(
                f"{path}:{line_no}: title references undeclared family {family_name!r}"
            )
        if family.function is not function:
            raise InputError(
                f"{path}:{line_no}: family {family_name!r} declared under "
                f"{family.function} but title row says {function}"
            )
        title_name = " ".join(normalize_text(title_raw))
        if not title_name:
            raise InputError(f"{path}:{line_no}: title normalizes to nothing")
        title_tokens = expanded_tokens(title_name)
        if (family.name, title_tokens) in seen_titles:
            raise InputError(f"{path}:{line_no}: duplicate title {title_name!r} in family {family_name!r}")
        seen_titles.add((family.name, title_tokens))
        candidates.append(Jst(title_name, title_tokens, JstLevel.TITLE, family))

    survivors, warnings = resolve_precedence(candidates)
    for message in warnings:
        warn("taxonomy", f"{path}: {message}")
    return Taxonomy(families=tuple(families.values()), jsts=tuple(survivors))
