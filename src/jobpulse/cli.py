"""Command-line pipeline: ingest -> filter -> match -> dedup -> report.

One executable with subcommands; every run writes its artifacts plus a
machine-readable manifest (inputs, effective config, content hashes,
counts) to the output directory. Stage outputs are files so each step of
the funnel can be inspected on its own.

Every subcommand but synth reads its posting files line by line and keeps
no posting past its line: ingest, match, disambiguate and discover
through ``_stream_corpus``, dedup and report through the one match and
filter pass of ``_dedup_stages``, which keeps one row per filtered posting
and makes the rows with matched terms the demand ledger's units. No
artifact is written before the whole input has been read.

Each subcommand imports the modules it runs when it is called, and the
run imports report, for its atomic writers, at its first write, so
``ingest`` reads its input with only cli, corpus and errors loaded.

Every hash in the manifest and of each artifact is corpus.sha256:
CPython's built-in SHA-256, not hashlib's, because hashlib maps OpenSSL's
libcrypto into the process for it. That keeps about 3.5 MB off every
run's peak RSS, at about 230 MB/s of hashing against OpenSSL's 1,250 MB/s.

Exit codes: 0 success; 1 invalid configuration or input files; 2 a data
contract was violated (for example a duplicate (job_id, region) record).
Errors print as single-line diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import gc
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, pairwise
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import corpus as corpus_mod
from .corpus import CollectionWindow, Posting, Region, csv_line, csv_text, joined_chunks, sha256
from .errors import ContractError, InputError, JobPulseError, warn

if TYPE_CHECKING:
    from fractions import Fraction

    from . import dedup as dedup_mod
    from . import matcher as matcher_mod
    from .taxonomy import Taxonomy


ENV_CONFIG = "JOBPULSE_CONFIG"
MANIFEST_NAME = "manifest.txt"
MATCHES_HEADER = ("job_id", "region", "phrase", "level", "in_title")

_DATA_DIR = Path(__file__).parent / "data"
DEFAULT_TAXONOMY = _DATA_DIR / "taxonomy.csv"
DEFAULT_DICTIONARY = _DATA_DIR / "name_dictionary.txt"
# Config keys that name data files: the manifest records each file's sha256,
# and the bundled default as "bundled:<name>", the same in every checkout.
_DATA_FILE_DEFAULTS = {"taxonomy": DEFAULT_TAXONOMY, "dictionary": DEFAULT_DICTIONARY}


class PipelineConfig(NamedTuple):
    """Effective run configuration after merging defaults, file, and flags: an immutable named tuple.

    Each field is a setting: its config-file key, its flag's argparse dest
    and, after "config.", its manifest key (``out_dir`` is not recorded).
    """

    taxonomy: str = str(DEFAULT_TAXONOMY)
    dictionary: str = str(DEFAULT_DICTIONARY)
    industry_token: str = "semiconductor"
    filter_mode: str = corpus_mod.FILTER_ANY_FIELD
    regions: tuple[Region, ...] = tuple(Region)
    window_start: dt.date = corpus_mod.DEFAULT_WINDOW_START
    window_end: dt.date = corpus_mod.DEFAULT_WINDOW_END
    out_dir: str = "out"
    format: str = "csv"
    min_count: int = corpus_mod.DEFAULT_MIN_COUNT
    top_k: int = 3

    def validate(self, keys: tuple[str, ...]) -> None:
        """Check the settings named in ``keys``, those a subcommand reads."""
        if "taxonomy" in keys and not Path(self.taxonomy).is_file():
            raise InputError(f"taxonomy file not found: {self.taxonomy}")
        if "dictionary" in keys and not Path(self.dictionary).is_file():
            raise InputError(f"dictionary file not found: {self.dictionary}")
        if "filter_mode" in keys and self.filter_mode not in corpus_mod.FILTER_MODES:
            raise InputError(f"filter_mode must be one of {corpus_mod.FILTER_MODES}")
        if "regions" in keys and not self.regions:
            raise InputError("regions must name at least one of LA, SB, SD")
        if "format" in keys and self.format not in ("csv", "text"):
            raise InputError(f"format must be csv or text, got {self.format!r}")
        if "min_count" in keys and self.min_count < 1:
            raise InputError(f"min_count must be positive, got {self.min_count}")
        if "top_k" in keys and self.top_k < 1:
            raise InputError(f"top_k must be positive, got {self.top_k}")
        if "window_start" in keys and self.window_start > self.window_end:
            raise InputError("window_start is after window_end")
        if "industry_token" in keys:
            from .matcher import validate_industry_token

            validate_industry_token(self.industry_token)

    def as_manifest_items(self, keys: tuple[str, ...]) -> list[tuple[str, str]]:
        """The recorded settings: those named in ``keys``."""
        items = []
        for key in SETTINGS:
            if key in keys:
                value = getattr(self, key)
                text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
                default = _DATA_FILE_DEFAULTS.get(key)
                if default is not None:
                    items.append((f"config.{key}.sha256", _sha256_file(text)))
                    text = f"bundled:{default.name}" if text == str(default) else text
                items.append((f"config.{key}", text))
        return items


SETTINGS = PipelineConfig._fields


def parse_config_file(path: str) -> dict[str, str]:
    """Parse the line-oriented ``key = value`` config file."""
    values: dict[str, str] = {}
    for line_no, line in list(corpus_mod.content_lines(path, "config")):
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise InputError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _parse_regions(text: str, label: str) -> tuple[Region, ...]:
    regions = []
    for part in text.split(","):
        part = part.strip()
        if part:
            regions.append(corpus_mod.parse_region(part))
    if not regions:
        raise InputError("regions must name at least one of LA, SB, SD")
    return tuple(dict.fromkeys(regions))


def _parse_date(text: str, label: str) -> dt.date:
    try:
        return corpus_mod.parse_date(text)
    except ValueError:
        raise InputError(f"{label} must be YYYY-MM-DD, got {text!r}") from None


def _parse_int(text: str, label: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{label} must be an integer, got {text!r}") from None


# parser(text, key) of each setting that is not kept as text
_PARSERS = {
    "regions": _parse_regions,
    "window_start": _parse_date,
    "window_end": _parse_date,
    "min_count": _parse_int,
    "top_k": _parse_int,
}


def build_config(args: argparse.Namespace, keys: tuple[str, ...]) -> PipelineConfig:
    """Merge defaults, the config file, and command-line flags.

    Every file value is parsed before any flag. A flag applies when it is
    given and not empty (``--min-count`` and ``--top-k`` are already ints).
    Every setting in the file is parsed; only those named in ``keys``, the
    ones the subcommand reads, are checked.
    """
    config_path = args.config or os.environ.get(ENV_CONFIG)
    file_values = parse_config_file(config_path) if config_path else {}
    given = [(key, file_values[key]) for key in SETTINGS if key in file_values]
    given += [(key, getattr(args, key)) for key in SETTINGS if getattr(args, key, None) not in (None, "")]
    parsed = {key: _PARSERS[key](text, key) if key in _PARSERS else text for key, text in given}
    config = PipelineConfig(**parsed)
    config.validate(keys)
    return config


class _Run:
    """Accumulates artifacts, counts, and inputs for one subcommand run.

    Its writers are report's atomic writers, imported at the first write.
    """

    def __init__(self, subcommand: str, config: PipelineConfig) -> None:
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.config_items = config.as_manifest_items(_COMMANDS[subcommand][2])
        self.items: list[tuple[str, str]] = [("subcommand", subcommand), *self.config_items]
        self.rejected = 0  # input records rejected with a diagnostic: the run exits 2

    def record_inputs(self, paths: list[str]) -> None:
        for i, path in enumerate(paths):
            self.items.append((f"input.{i}.path", str(path)))
            self.items.append((f"input.{i}.sha256", _sha256_file(path)))

    def count(self, name: str, value) -> None:
        self.items.append((f"count.{name}", str(value)))

    def note(self, name: str, value) -> None:
        self.items.append((name, str(value)))

    def write_artifact(self, name: str, content: str) -> None:
        from . import report as report_mod

        digest = report_mod.write_text_atomic(self.out_dir / name, content)
        self.items.append((f"artifact.{name}.sha256", digest))

    def write_chunks(self, name: str, chunks: Iterable[str]) -> None:
        """``write_artifact`` of text given in pieces, each written and hashed in turn."""
        from . import report as report_mod

        digest = report_mod.write_chunks_atomic(self.out_dir / name, chunks)
        self.items.append((f"artifact.{name}.sha256", digest))

    def finish(self) -> None:
        from . import report as report_mod

        config_block = "".join(f"{k} = {v}\n" for k, v in sorted(self.config_items))
        self.items.append(("config_hash", sha256(config_block.encode("utf-8")).hexdigest()))
        body = "".join(f"{key} = {value}\n" for key, value in sorted(self.items))
        report_mod.write_text_atomic(self.out_dir / MANIFEST_NAME, body)


def _sha256_file(path: str) -> str:
    digest = sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc}") from exc
    return digest.hexdigest()


def _record_scope(run: _Run, kept: int, out_of_scope: int, diagnostics: list[corpus_mod.Diagnostic]) -> None:
    """Warn of the rejects, record the counts of a read input and write diagnostics.csv: the run's first artifact."""
    run.rejected = len(diagnostics)
    if diagnostics:
        warn("corpus", f"rejected {run.rejected} of {run.rejected + kept + out_of_scope} input records")
    run.count("postings_ingested", kept)
    run.count("records_rejected", run.rejected)
    run.count("postings_out_of_scope", out_of_scope)
    rows = ([d.source, d.line_no, d.reason] for d in diagnostics)
    run.write_artifact("diagnostics.csv", csv_text(["source", "line", "reason"], rows))


def _stream_corpus(run: _Run, inputs: list[str]) -> Iterator[Posting]:
    """Record the inputs, then yield the postings of the run's regions in file order as each line is read.

    Only once the input is used up does it record the rejects and the
    counts and write diagnostics.csv, so an input that fails midway leaves
    nothing written.
    """
    run.record_inputs(inputs)
    wanted = set(run.config.regions)
    diagnostics: list[corpus_mod.Diagnostic] = []
    kept = out_of_scope = 0
    for posting in corpus_mod.iter_postings(inputs, _window(run), diagnostics):
        if posting.region in wanted:
            kept += 1
            yield posting
        else:
            out_of_scope += 1
    _record_scope(run, kept, out_of_scope, diagnostics)


def _window(run: _Run) -> CollectionWindow:
    return CollectionWindow(run.config.window_start, run.config.window_end)


def _industry_filter(run: _Run):
    """The run's industry filter: the test of whether it keeps a posting."""
    from . import matcher as matcher_mod

    return matcher_mod.industry_predicate(run.config.industry_token, run.config.filter_mode)


class _PipelineData(NamedTuple):
    rows: list  # the dedup_mod.Unit of each filtered posting, in input order
    cross: tuple[dedup_mod.CrossRegionGroup, ...]
    raw_observations: int
    filtered_observations: int


def _content_hash(title: str, job_description: str, employer_name: str) -> int:
    """The hash of a cross-region content key: equal keys hash alike, and a group is never formed on it alone."""
    return hash((title, job_description, employer_name))


def _dedup_stages(
    run: _Run, taxonomy: Taxonomy, inputs: list[str]
) -> tuple[_PipelineData, dedup_mod.DemandLedger]:
    """The one match and filter pass, then the demand ledger; writes ledger.csv and cross_region.csv.

    The pass records the inputs, then matches, filters and counts
    observations as each line is read. It keeps no posting, only what later
    stages read: of each filtered posting, one row (``dedup_mod.Unit``:
    job_id, region, the index's shared tuple of its matched terms from
    ``MatchIndex.terms``, employer name), its location and the hash of its
    cross-region (title, job_description, employer_name) key, the last two
    in arrays of 8-byte integers. Once the input is read, a hash found
    twice makes its postings candidates, and only the lines of candidates
    whose postings span regions are read again (``corpus.reread_postings``)
    and grouped on their exact keys, so equal hashes alone never make a
    group. Only then are the counts and diagnostics.csv written, so neither
    an input that fails midway nor a line that changed before its second
    read leaves anything written. The ledger's units are the rows with
    terms, so it holds no copy of them.

    The input is read through ``corpus.load_postings``, whose Corpus then
    holds each posting's row, or None: perfbench's traced run counts the
    records read by wrapping that function.
    """
    from array import array

    from . import dedup as dedup_mod
    from . import matcher as matcher_mod

    run.record_inputs(inputs)
    index = matcher_mod.MatchIndex(taxonomy)
    keep = _industry_filter(run)
    wanted = set(run.config.regions)
    # The content hash and location of each filtered posting, in row order.
    hashes, locations = array("q"), array("Q")
    where = [0]
    in_scope = raw_obs = filtered_obs = 0

    def step(p: Posting) -> tuple | None:
        nonlocal in_scope, raw_obs, filtered_obs
        if p.region not in wanted:
            return None
        in_scope += 1
        terms = index.terms(p)
        raw_obs += len(terms)
        if not keep(p):
            return None
        filtered_obs += len(terms)
        hashes.append(_content_hash(p.title, p.job_description, p.employer_name))
        locations.append(where[0])
        return (p.job_id, p.region, terms, p.employer_name)

    window = _window(run)
    corpus, diagnostics = corpus_mod.load_postings(inputs, window, step, where)
    rows = [row for row in corpus if row is not None]
    out_of_scope = len(corpus) - in_scope
    # Each table is freed once read, so that the second read and the ledger reuse its memory: on the 100k
    # fixture, report peaks 1.2 MB higher without these dels, and 0.5 MB higher if only the index is kept.
    del corpus, index
    repeated = {digest for digest, after in pairwise(sorted(hashes)) if digest == after}
    candidates: dict[int, list[tuple[int, tuple[str, Region]]]] = {}
    for row, digest, at in zip(rows, hashes, locations):
        if digest in repeated:
            candidates.setdefault(digest, []).append((at, row[:2]))
    # A group spans regions, so a hash whose units share one region makes none.
    units_at = {at: unit for group in candidates.values() if len({u[1] for _, u in group}) > 1 for at, unit in group}
    del hashes, locations
    by_content: dict[tuple[str, str, str], list[tuple[str, Region]]] = {}
    for p in corpus_mod.reread_postings(inputs, window, units_at):
        by_content.setdefault((p.title, p.job_description, p.employer_name), []).append((p.job_id, p.region))
    _record_scope(run, in_scope, out_of_scope, diagnostics)
    run.count("raw_observations", raw_obs)
    run.count("filtered_observations", filtered_obs)
    cross = dedup_mod.cross_region_report(by_content)
    ledger = dedup_mod.weight_assignments(rows)
    run.count("demand_units", ledger.unit_count)
    run.count("cross_region_groups", len(cross))
    run.write_chunks("ledger.csv", dedup_mod.ledger_csv_chunks(ledger))
    run.write_artifact("cross_region.csv", _render_cross_region_csv(cross))
    return _PipelineData(rows, cross, raw_obs, filtered_obs), ledger


def _matches_csv_chunks(records: list[matcher_mod.MatchRecord]) -> Iterator[str]:
    """matches.csv in chunks: one row per matched term, by job id, region and phrase.

    Sorts ``records`` in place. A (job_id, region) occurs once per input and
    a record's terms are sorted by phrase, so this is the order of the sorted rows.
    """
    records.sort(key=lambda r: (r.job_id, r.region.value))
    rows = (
        (r.job_id, r.region.value, jst.phrase, jst.level.value, "1" if jst in r.matched_in_title else "0")
        for r in records
        for jst in r.matched_jsts
    )
    return joined_chunks(map(csv_line, chain((MATCHES_HEADER,), rows)))


def _render_cross_region_csv(groups: tuple[dedup_mod.CrossRegionGroup, ...]) -> str:
    rows = []
    for group_no, group in enumerate(groups, start=1):
        for job_id, region in group.members:
            rows.append([group_no, job_id, region.value, group.title, group.employer_name])
    return csv_text(["group", "job_id", "region", "title", "employer_name"], rows)


# Each subcommand gets the run and its parsed arguments, imports the modules
# it runs, and returns the summary it prints. Those that read posting files
# read their data files first, so a data file that cannot be used fails the
# run before it writes.


def cmd_ingest(run: _Run, args: argparse.Namespace) -> str:
    ingested = sum(1 for _ in _stream_corpus(run, args.input))
    return f"ingested {ingested} postings, rejected {run.rejected} records"


def cmd_match(run: _Run, args: argparse.Namespace) -> str:
    from . import matcher as matcher_mod
    from . import taxonomy as taxonomy_mod

    taxonomy = taxonomy_mod.load_taxonomy(run.config.taxonomy)
    index = matcher_mod.MatchIndex(taxonomy)
    keep = _industry_filter(run)
    records = []
    in_scope = raw_obs = filtered_obs = 0
    for posting in _stream_corpus(run, args.input):
        in_scope += 1
        record = matcher_mod.match_posting(posting, index)
        if record:
            records.append(record)
            raw_obs += len(record.matched_jsts)
            filtered_obs += len(record.matched_jsts) if keep(posting) else 0
    del index  # its memo tables, 1.3 MB on the 100k fixture, are freed before the sort and the write
    run.count("raw_observations", raw_obs)
    run.count("filtered_observations", filtered_obs)
    run.count("matched_postings", len(records))
    run.write_chunks("matches.csv", _matches_csv_chunks(records))
    return f"matched {len(records)} of {in_scope} postings"


def cmd_dedup(run: _Run, args: argparse.Namespace) -> str:
    from . import taxonomy as taxonomy_mod

    taxonomy = taxonomy_mod.load_taxonomy(run.config.taxonomy)
    data, ledger = _dedup_stages(run, taxonomy, args.input)
    return f"{ledger.unit_count} demand units from {data.filtered_observations} observations"


def cmd_disambiguate(run: _Run, args: argparse.Namespace) -> str:
    from . import employers as employers_mod

    dictionary = employers_mod.load_dictionary(run.config.dictionary)
    names = [p.employer_name for p in filter(_industry_filter(run), _stream_corpus(run, args.input))]
    mapping, rejected = employers_mod.canonicalize(names, dictionary)
    del names
    raw_count = len(mapping)  # the distinct names not rejected
    canonical_count = len({e.canonical_name for e in mapping.values()})
    run.count("employers_raw", raw_count)
    run.count("employers_canonical", canonical_count)
    run.count("employer_names_rejected", len(rejected))
    run.write_chunks("employer_mapping.csv", employers_mod.mapping_csv_chunks(mapping))
    return f"disambiguated {raw_count} raw employer names into {canonical_count}"


def cmd_discover(run: _Run, args: argparse.Namespace) -> str:
    from . import matcher as matcher_mod
    from . import taxonomy as taxonomy_mod

    config = run.config
    taxonomy = taxonomy_mod.load_taxonomy(config.taxonomy)
    filtered = filter(_industry_filter(run), _stream_corpus(run, args.input))
    candidates = matcher_mod.discover_candidate_titles(filtered, taxonomy, config.min_count)
    run.count("discovery_candidates", len(candidates))
    run.write_artifact("discovery.csv", csv_text(["phrase", "count"], candidates))
    return f"{len(candidates)} candidate titles at min_count={config.min_count}"


def cmd_report(run: _Run, args: argparse.Namespace) -> str:
    from . import employers as employers_mod
    from . import report as report_mod
    from . import taxonomy as taxonomy_mod

    config = run.config
    taxonomy = taxonomy_mod.load_taxonomy(config.taxonomy)
    dictionary = employers_mod.load_dictionary(config.dictionary)
    data, ledger = _dedup_stages(run, taxonomy, args.input)

    # Tables render through render_<table>_<format>; csv files end in .csv, text in .txt.
    ext = {"csv": "csv", "text": "txt"}[config.format]

    def render(module, table: str, value) -> str:
        return getattr(module, f"render_{table}_{config.format}")(value)

    funnel = report_mod.build_funnel(
        [data.raw_observations, data.filtered_observations, ledger.unit_count]
    )
    run.write_artifact(f"funnel.{ext}", render(report_mod, "funnel", funnel))

    slices = [(level, level, None) for level in ("function", "family", "region")]
    slices += [(function.name.lower(), "title", function) for function in taxonomy_mod.JobFunction]
    tables = {}
    for name, level, function in slices:
        tables[name] = report_mod.demand_by(level, ledger, taxonomy, function=function)
        run.write_artifact(f"demand_{name}.{ext}", render(report_mod, "demand", tables[name]))

    totals = {row.label: row.total for row in tables["function"].rows}
    tech = totals.get(taxonomy_mod.JobFunction.TECHNICIAN.value, 0)
    eng = totals.get(taxonomy_mod.JobFunction.ENGINEER.value, 0)
    if tech > 0 and eng > 0:
        r = report_mod.ratio(tech, eng)
        run.note("ratio.technician_engineer.decimal", r.decimal_label)
        run.note("ratio.technician_engineer.display", r.ratio_label)
        ratio_line = f"technician:engineer = {r.decimal_label} ({r.ratio_label})"
    else:
        ratio_line = "technician:engineer ratio unavailable (a total is zero)"

    names = [name for _, _, _, name in data.rows]  # of every filtered posting, in input order
    data.rows.clear()
    mapping, rejected = employers_mod.canonicalize(names, dictionary)
    stats = employers_mod.employer_stats(ledger, mapping, config.top_k, rejected)
    run.count("employers_raw", stats.raw_name_count)
    run.count("employers_canonical", stats.employer_count)
    run.count("employer_names_rejected", len(rejected))
    run.note("employers.mean_units", stats.mean_label)
    run.note("employers.top_share", stats.top_share_label)
    run.write_artifact(f"employers.{ext}", render(employers_mod, "employers", stats))
    run.write_chunks("employer_mapping.csv", employers_mod.mapping_csv_chunks(mapping))

    employer_line = (
        f"{stats.employer_count} employers, mean {stats.mean_label} units each, "
        f"top {stats.top_k} hold {stats.top_share_label}"
    )
    lines = [ratio_line, employer_line, f"artifacts written to {run.out_dir}"]
    return report_mod.render_funnel_text(funnel) + "\n".join(lines)


def _parse_fraction(text: str, label: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{label} must be a fraction like 1/3, got {text!r}") from None


def cmd_synth(run: _Run, args: argparse.Namespace) -> str:
    from . import synth as synth_mod
    from . import taxonomy as taxonomy_mod

    config = run.config
    window = (corpus_mod.DEFAULT_WINDOW_START, corpus_mod.DEFAULT_WINDOW_END)
    if set(config.regions) != set(Region) or (config.window_start, config.window_end) != window:
        raise InputError(
            f"synth always writes regions LA,SB,SD dated {window[0]} to {window[1]}; "
            "remove the regions and window settings"
        )
    plants = []
    for plant_arg in args.plant or []:
        phrase, sep, count = plant_arg.rpartition("=")
        if not sep:
            raise InputError(f"--plant expects 'phrase=count', got {plant_arg!r}")
        plants.append((phrase, _parse_int(count, "plant count")))
    overrides: dict = {
        "seed": args.seed,
        "n_postings": args.n_postings,
        "cross_region_repeat_count": args.cross_region_repeats,
        "unknown_title_plants": tuple(plants),
        "industry_token": config.industry_token,
    }
    if args.off_industry_rate:
        overrides["off_industry_rate"] = _parse_fraction(args.off_industry_rate, "off-industry rate")
    if args.division_rate:
        overrides["division_rate"] = _parse_fraction(args.division_rate, "division rate")
    synth_config = synth_mod.SynthConfig(**overrides)
    taxonomy = taxonomy_mod.load_taxonomy(config.taxonomy)
    result = synth_mod.generate(synth_config, taxonomy, config.out_dir)
    run.note("synth.seed", synth_config.seed)
    run.count("postings_generated", result.posting_count)
    for name, digest in result.sha256.items():
        run.items.append((f"artifact.{name}.sha256", digest))
    return f"synthetic corpus written to {config.out_dir} (seed {synth_config.seed})"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise InputError(message)


# argparse options of each setting's flag, --<key with hyphens>; out_dir's is --out.
_FLAG_OPTIONS = {
    "taxonomy": {"help": "taxonomy CSV path"},
    "dictionary": {"help": "name dictionary path"},
    "industry_token": {"help": "industry filter token"},
    "filter_mode": {"choices": corpus_mod.FILTER_MODES, "help": "industry filter semantics"},
    "regions": {"help": "comma-separated subset of LA,SB,SD"},
    "window_start": {"help": "collection window start (YYYY-MM-DD)"},
    "window_end": {"help": "collection window end (YYYY-MM-DD)"},
    "format": {"choices": ("csv", "text"), "help": "table output format"},
    "min_count": {"type": int, "help": "minimum occurrences"},
    "top_k": {"type": int, "help": "top employers to summarize"},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="jobpulse", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", help=f"config file path (or ${ENV_CONFIG})")
        if name != "synth":
            command.add_argument("--input", nargs="+", required=True, help="posting files (JSONL)")
        for key in keys:
            command.add_argument("--" + key.replace("_", "-"), **_FLAG_OPTIONS[key])
        command.add_argument("--out", dest="out_dir", help="output directory")
    synth = sub.choices["synth"]
    synth.add_argument("--seed", type=int, default=42, help="generator seed")
    synth.add_argument("--n-postings", dest="n_postings", type=int, default=5300)
    synth.add_argument("--cross-region-repeats", dest="cross_region_repeats", type=int, default=0)
    synth.add_argument("--off-industry-rate", dest="off_industry_rate", help="fraction, e.g. 1/3")
    synth.add_argument("--division-rate", dest="division_rate", help="fraction, e.g. 3/20")
    synth.add_argument("--plant", action="append", help="plant an out-of-taxonomy title, 'phrase=count' (repeatable)")
    return parser


_SCOPE = ("regions", "window_start", "window_end")
_MATCH = ("taxonomy", "industry_token", "filter_mode", *_SCOPE)
# subcommand -> (function, help, the settings it reads: it has flags for,
# checks and records only these). All but synth read posting files.
_COMMANDS = {
    "ingest": (cmd_ingest, "validate posting files and emit diagnostics", _SCOPE),
    "match": (cmd_match, "match postings against the taxonomy", _MATCH),
    "dedup": (cmd_dedup, "build the fractional demand ledger", _MATCH),
    "disambiguate": (
        cmd_disambiguate, "canonicalize employer names", ("dictionary", "industry_token", "filter_mode", *_SCOPE)
    ),
    "discover": (cmd_discover, "report out-of-taxonomy title candidates", (*_MATCH, "min_count")),
    "report": (
        cmd_report, "full pipeline: funnel, demand tables, employer stats", (*_MATCH, "dictionary", "format", "top_k")
    ),
    "synth": (cmd_synth, "generate a synthetic corpus with ground truth", ("taxonomy", "industry_token", *_SCOPE)),
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector off.

    The pipeline's data holds no reference cycles, so reference counting
    frees all of it; each cyclic collection would only walk the millions of
    live postings, token tuples and assignments again. Only the argument
    parser, whose objects refer to each other, is collected, once it has
    parsed. The collector's state is restored on return, so in-process
    callers keep their own policy.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        gc.collect(0)  # the parser, now cyclic garbage, so the input reuses its memory
        command, _, keys = _COMMANDS[args.subcommand]
        run = _Run(args.subcommand, build_config(args, keys))
        summary = command(run, args)
        run.finish()
        print(summary)
        return 2 if run.rejected else 0
    except JobPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ContractError) else 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
