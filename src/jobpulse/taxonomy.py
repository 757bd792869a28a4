"""Job-term hierarchy: titles grouped into families, families into functions.

Loads the taxonomy from CSV and validates reference closure. The precedence
rule for phrases that appear at both hierarchy levels is applied as each
title row is read: the family wins, and the title is dropped with a warning
that names its line.

Every family and every surviving title is one term (Jst): its phrase, its
tokens, its level and its family. A title term's phrase is the title, so
the ledger's title column is that phrase. Phrases are normalized with the
corpus tokenizer, and a term's tokens are its phrase's tokens with each
hyphenated one split into its parts (``corpus.expanded_tokens``), the form
posting text is matched in. Precedence, duplicate checks and lookup all key
on those tokens, so two phrases that differ only by hyphens are one phrase.

A loaded Taxonomy is read-only by convention, safe for concurrent reads.
Its slotted families and terms compare by identity: each equals only
itself, and two loads of one file give distinct, unequal objects. Hashing
one is then a C-level slot, however often matching and aggregation hash it.
"""

from __future__ import annotations

import csv
import enum

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


class JobFamily:
    __slots__ = ("name", "function")

    def __init__(self, name: str, function: JobFunction) -> None:
        self.name, self.function = name, function


class Jst:
    """One job-specific term: a family or title phrase used as a match keyword.

    A title-level term's phrase is its title. ``tokens`` are the phrase's
    tokens with each hyphenated one split into its parts, the form matching
    compares: the phrase "rf-engineer" has the tokens ("rf", "engineer").
    """

    __slots__ = ("phrase", "tokens", "level", "family")

    def __init__(self, phrase: str, tokens: tuple[str, ...], level: JstLevel, family: JobFamily) -> None:
        self.phrase, self.tokens, self.level, self.family = phrase, tokens, level, family


class Taxonomy:
    """Validated hierarchy with exact-phrase lookup.

    ``by_tokens`` maps each term's tokens to the term, and ``jsts`` holds
    its values in the same order: families, then titles, each in file order.
    """

    __slots__ = ("families", "jsts", "by_tokens")

    def __init__(self, families: tuple[JobFamily, ...], by_tokens: dict[tuple[str, ...], Jst]) -> None:
        self.families, self.jsts, self.by_tokens = families, tuple(by_tokens.values()), by_tokens

    def families_of(self, function: JobFunction) -> tuple[JobFamily, ...]:
        return tuple(f for f in self.families if f.function is function)

    def jsts_of(self, function: JobFunction) -> tuple[Jst, ...]:
        return tuple(j for j in self.jsts if j.family.function is function)


def lookup(taxonomy: Taxonomy, phrase: str | tuple[str, ...]) -> Jst | None:
    """Exact-phrase lookup; absence is a valid result.

    A phrase string is tokenized as terms are, hyphens split; a token
    tuple must already be in that form.
    """
    tokens = expanded_tokens(phrase) if isinstance(phrase, str) else tuple(phrase)
    return taxonomy.by_tokens.get(tokens) if tokens else None


def load_taxonomy(path: str) -> Taxonomy:
    """Load and validate a taxonomy CSV.

    Schema: UTF-8, header ``function,family,title``, one CSV row per line
    of the file; a row with an empty title declares the family-level term;
    ``#`` starts a comment line. Every family must be declared by exactly
    one empty-title row. A title that twins a family gives way to it with a
    warning naming its line; the warnings print, in file order, once the file has loaded.
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

    # Each term by its tokens, so hyphen twins are one phrase, and the line that declared it.
    by_tokens: dict[tuple[str, ...], Jst] = {}
    lines: dict[tuple[str, ...], int] = {}
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
        if title_raw:
            title_rows.append((line_no, function, family_name, title_raw))
        elif family_key in by_tokens:
            raise InputError(f"{path}:{line_no}: family {family_name!r} already declared at line {lines[family_key]}")
        else:
            by_tokens[family_key] = Jst(family_name, family_key, JstLevel.FAMILY, JobFamily(family_name, function))
            lines[family_key] = line_no

    families = tuple(jst.family for jst in by_tokens.values())
    if not families:
        raise InputError(f"{path}: taxonomy declares zero families")

    dropped: set[tuple[JobFamily, tuple[str, ...]]] = set()  # (family, tokens) of each title that twins a family
    warnings: list[str] = []
    for line_no, function, family_name, title_raw in title_rows:
        family_term = by_tokens.get(expanded_tokens(family_name))
        if family_term is None or family_term.level is JstLevel.TITLE:
            raise InputError(
                f"{path}:{line_no}: title references undeclared family {family_name!r}"
            )
        family = family_term.family
        if family.function is not function:
            raise InputError(
                f"{path}:{line_no}: family {family_name!r} declared under "
                f"{family.function} but title row says {function}"
            )
        title_name = " ".join(normalize_text(title_raw))
        if not title_name:
            raise InputError(f"{path}:{line_no}: title normalizes to nothing")
        title_tokens = expanded_tokens(title_name)
        claimed = by_tokens.get(title_tokens)
        if claimed is None:
            by_tokens[title_tokens] = Jst(title_name, title_tokens, JstLevel.TITLE, family)
            lines[title_tokens] = line_no
        elif (family, title_tokens) in dropped or (claimed.level is JstLevel.TITLE and claimed.family is family):
            raise InputError(f"{path}:{line_no}: duplicate title {title_name!r} in family {family_name!r}")
        elif claimed.level is JstLevel.FAMILY:
            dropped.add((family, title_tokens))
            warnings.append(
                f"{path}:{line_no}: phrase {title_name!r} used as both family and title: family takes "
                f"precedence, removed as a title in family {family.name!r}"
            )
        else:
            raise InputError(
                f"{path}:{line_no}: title {title_name!r} already claimed by family "
                f"{claimed.family.name!r} at line {lines[title_tokens]}"
            )

    for message in warnings:
        warn("taxonomy", message)
    return Taxonomy(families, by_tokens)
