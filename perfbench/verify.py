"""Correctness checks of the program's artifacts against planted truth.

Every expected value is computed here from the generator's truth and the
taxonomy file, with exact ``Fraction`` arithmetic; nothing is compared
against a stored copy of earlier output. Each check returns a list of
error strings, empty when the artifacts are correct.
"""

from __future__ import annotations

import csv
import hashlib
import re
from fractions import Fraction
from pathlib import Path

from inputs import FileTruth, tokens

# Reject reason text -> planted class. Anything else is unclassified.
_REASON_CLASSES = (
    ("invalid_json", re.compile(r"^invalid JSON")),
    ("not_object", re.compile(r"not a JSON object")),
    ("missing_field", re.compile(r"^missing field")),
    ("non_string", re.compile(r"must be a string")),
    ("empty_job_id", re.compile(r"^empty job_id")),
    ("unknown_region", re.compile(r"^unknown region")),
    ("bad_date", re.compile(r"^bad retrieved_at")),
    ("outside_window", re.compile(r"outside collection window")),
    ("duplicate", re.compile(r"^duplicate")),
    ("invalid_utf8", re.compile(r"utf-?8|decod|encod|unicode", re.IGNORECASE)),
)

_FUNCTION_TABLES = {
    "Engineer": "demand_engineer.csv",
    "Technician": "demand_technician.csv",
    "Scientist": "demand_scientist.csv",
    "OperationalSupport": "demand_operational_support.csv",
}


def read_manifest(path: Path) -> dict[str, str]:
    items = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            items[key] = value
    return items


def artifact_hashes(manifest: dict[str, str]) -> dict[str, str]:
    return {
        key[len("artifact."):-len(".sha256")]: value
        for key, value in manifest.items()
        if key.startswith("artifact.") and key.endswith(".sha256")
    }


def files_match_manifest(out: Path, manifest: dict[str, str]) -> list[str]:
    """Every artifact the manifest names exists with the hash it records."""
    errors = []
    for name, digest in sorted(artifact_hashes(manifest).items()):
        path = out / name
        if not path.is_file():
            errors.append(f"{path}: listed in manifest but missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            errors.append(f"{path}: sha256 differs from manifest")
    return errors


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def pairwise(predicted: dict[str, str], truth: dict[str, str]) -> tuple[Fraction, Fraction]:
    """Pairwise precision and recall of a grouping against true identities."""

    def pairs(counts: dict) -> int:
        return sum(n * (n - 1) // 2 for n in counts.values())

    pred: dict[str, int] = {}
    true: dict[str, int] = {}
    both: dict[tuple[str, str], int] = {}
    for name, group in predicted.items():
        ident = truth[name]
        pred[group] = pred.get(group, 0) + 1
        true[ident] = true.get(ident, 0) + 1
        both[group, ident] = both.get((group, ident), 0) + 1
    hits, pred_pairs, true_pairs = pairs(both), pairs(pred), pairs(true)
    precision = Fraction(hits, pred_pairs) if pred_pairs else Fraction(1)
    recall = Fraction(hits, true_pairs) if true_pairs else Fraction(1)
    return precision, recall


def check_mapping(path: Path, truth: dict[str, str]) -> list[str]:
    """employer_mapping.csv covers exactly the truth's names, precision = recall = 1."""
    rows = _rows(path)
    if rows[:1] != [["raw_name", "canonical_name"]]:
        return [f"{path}: bad header {rows[:1]}"]
    mapping = {raw: canonical for raw, canonical in rows[1:]}
    errors = []
    if len(mapping) != len(rows) - 1:
        errors.append(f"{path}: a raw name is listed twice")
    if mapping.keys() != truth.keys():
        extra, missing = len(mapping.keys() - truth.keys()), len(truth.keys() - mapping.keys())
        return errors + [f"{path}: {extra} names not planted, {missing} planted names missing"]
    precision, recall = pairwise(mapping, truth)
    if precision != 1 or recall != 1:
        errors.append(f"{path}: pairwise precision {float(precision):.6f}, recall {float(recall):.6f}")
    return errors


def classify(reason: str) -> str:
    for name, pattern in _REASON_CLASSES:
        if pattern.search(reason):
            return name
    return "unclassified"


def check_ingest(out: Path, source: str, truth: FileTruth) -> list[str]:
    """diagnostics.csv lists exactly the planted rejects; the good count matches."""
    rows = _rows(out / "diagnostics.csv")
    if rows[:1] != [["source", "line", "reason"]]:
        return [f"{out}/diagnostics.csv: bad header {rows[:1]}"]
    listed = {(src, int(line), classify(reason)) for src, line, reason in rows[1:]}
    planted = {(source, line, kind) for line, kind in truth.rejects.items()}
    errors = []
    if len(listed) != len(rows) - 1:
        errors.append(f"{out}/diagnostics.csv: a line is listed twice")
    if listed != planted:
        errors.append(
            f"{out}/diagnostics.csv: {len(listed - planted)} unexpected and "
            f"{len(planted - listed)} missing (file, line, reason) entries, e.g. "
            f"{sorted(listed ^ planted)[:2]}"
        )
    ingested = read_manifest(out / "manifest.txt").get("count.postings_ingested")
    if ingested != str(truth.good):
        errors.append(f"{out}: count.postings_ingested {ingested}, planted good lines {truth.good}")
    return errors


def read_taxonomy(path: Path) -> dict[str, tuple[str, str]]:
    """Term phrase -> (function, family); a family phrase wins over a title."""
    families: dict[str, tuple[str, str]] = {}
    titles: dict[str, tuple[str, str]] = {}
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.lstrip().startswith("#")]
    for function, family, title in list(csv.reader(lines))[1:]:
        family = " ".join(tokens(family))
        if title.strip():
            titles[" ".join(tokens(title))] = (function.strip(), family)
        else:
            families[family] = (function.strip(), family)
    return {**titles, **families}


def _total(path: Path) -> Fraction:
    rows = _rows(path)
    if rows[-1][0] != "TOTAL":
        raise ValueError(f"{path}: last row is not TOTAL")
    return Fraction(int(rows[-1][-2]), int(rows[-1][-1]))


def check_report(out: Path, truth_path: Path, taxonomy_path: Path) -> list[str]:
    """Funnel, ledger, demand totals and employer mapping against truth.csv."""
    terms = read_taxonomy(taxonomy_path)
    raw_obs = filtered_obs = 0
    ledger_expected: set[tuple] = set()
    function_totals: dict[str, Fraction] = {f: Fraction(0) for f in _FUNCTION_TABLES}
    employer_truth: dict[str, str] = {}
    errors = []
    for row in _rows(truth_path)[1:]:
        job_id, region, off_industry, jsts, employer, identity, _ = row
        phrases = jsts.split("|") if jsts else []
        raw_obs += len(phrases)
        if off_industry == "1":
            continue
        if employer_truth.setdefault(employer, identity) != identity:
            errors.append(f"{truth_path}: {employer!r} planted under two identities")
        filtered_obs += len(phrases)
        for phrase in phrases:
            function, family = terms[phrase]
            title = "" if phrase == family else phrase
            share = Fraction(1, len(phrases))
            ledger_expected.add((job_id, region, function, family, title, "1", str(len(phrases))))
            function_totals[function] += share
    units = len({(r[0], r[1]) for r in ledger_expected})

    funnel = {row[0]: row[1] for row in _rows(out / "funnel.csv")[1:]}
    expected_funnel = {
        "raw_observations": str(raw_obs),
        "industry_filtered": str(filtered_obs),
        "dedup_units": str(units),
    }
    if funnel != expected_funnel:
        errors.append(f"funnel.csv: {funnel} != planted {expected_funnel}")

    ledger_rows = _rows(out / "ledger.csv")
    ledger = {tuple(r) for r in ledger_rows[1:]}
    if len(ledger) != len(ledger_rows) - 1:
        errors.append("ledger.csv: duplicate assignment rows")
    if ledger != ledger_expected:
        errors.append(
            f"ledger.csv: {len(ledger - ledger_expected)} unexpected and "
            f"{len(ledger_expected - ledger)} missing assignments, e.g. {sorted(ledger ^ ledger_expected)[:2]}"
        )

    for name in ("demand_function.csv", "demand_family.csv", "demand_region.csv"):
        if _total(out / name) != units:
            errors.append(f"{name}: TOTAL {_total(out / name)} != {units} units")
    for row in _rows(out / "demand_function.csv")[1:-1]:
        got = Fraction(int(row[-2]), int(row[-1]))
        if got != function_totals.get(row[0]):
            errors.append(f"demand_function.csv: {row[0]} total {got} != planted {function_totals.get(row[0])}")
    for function, name in _FUNCTION_TABLES.items():
        if _total(out / name) != function_totals[function]:
            errors.append(f"{name}: TOTAL {_total(out / name)} != planted {function_totals[function]}")
    return errors + check_mapping(out / "employer_mapping.csv", employer_truth)
