"""Traced run of one ``jobpulse`` subcommand, timed at module boundaries.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py --spans SPANS.json --growth-seed N \\
        report --input a.jsonl b.jsonl --out OUT

The public functions of ``corpus``, ``taxonomy``, ``matcher``, ``dedup``,
``report`` and ``employers`` are wrapped from outside, each recording a span
(name, start, end, parent, peak RSS after return) per call, and then the
real subcommand runs through ``jobpulse.cli.main``. ``normalize_text`` is
only counted. The run writes the same artifacts and ``manifest.txt`` as an
untraced call, so the caller can byte-compare the two. Spans stay in memory
and are written to SPANS.json, outside the artifact directory, when the run
ends, also when it fails.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from jobpulse import cli
from jobpulse import corpus as corpus_mod
from jobpulse import dedup as dedup_mod
from jobpulse import employers as employers_mod
from jobpulse import matcher as matcher_mod
from jobpulse import report as report_mod
from jobpulse import taxonomy as taxonomy_mod


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory spans and counts, recorded by wrappers installed from outside."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        # The arguments of the last canonicalize call, for the growth probe.
        self.canonicalize_args: tuple | None = None

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = {"id": index, "name": name, "parent": self.stack[-1] if self.stack else None}
        self.spans.append(record)
        self.stack.append(index)
        record["start"] = time.perf_counter() - self.t0
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter() - self.t0
            record["rss_mb"] = peak_rss_mb()
            self.stack.pop()

    def wrap(self, module, attr: str, count=None) -> None:
        """Replace ``module.attr`` with a wrapper that records a span per call."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        setattr(module, attr, traced)

    def count_normalize_text(self) -> None:
        """Count ``normalize_text`` calls in every jobpulse module that imported it."""
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("jobpulse.") and hasattr(module, "normalize_text"):

                def counted(*args, _fn=module.normalize_text, **kwargs):
                    self.add("corpus.normalize_text.calls", 1)
                    return _fn(*args, **kwargs)

                module.normalize_text = counted


def _count_load(t: Tracer, args, result) -> None:
    corpus, diagnostics = result
    t.add("corpus.records_in", len(corpus.postings) + len(diagnostics))
    t.add("corpus.rejected", len(diagnostics))


def _count_match(t: Tracer, args, records) -> None:
    t.add("matcher.records_out", len(records))
    t.add("matcher.observations", sum(len(r.matched_jsts) for r in records))


def _count_canonicalize(t: Tracer, args, result) -> None:
    t.canonicalize_args = args
    t.add("employers.names_in", len(args[0]))
    t.add("employers.canonical_out", len({e.canonical_name for e in result[0].values()}))


def install(t: Tracer) -> None:
    t.wrap(corpus_mod, "load_postings", _count_load)
    t.wrap(taxonomy_mod, "load_taxonomy")
    cli.load_taxonomy = taxonomy_mod.load_taxonomy  # cli imports it by name
    t.wrap(matcher_mod, "match_corpus", _count_match)
    t.wrap(matcher_mod, "filter_corpus")
    t.wrap(dedup_mod, "weight_assignments", lambda t, args, ledger: t.add("dedup.assignments", len(ledger.assignments)))
    t.wrap(dedup_mod, "cross_region_report")
    t.wrap(dedup_mod, "render_ledger_csv")
    t.wrap(report_mod, "demand_by")
    t.wrap(report_mod, "render_demand_csv")
    t.wrap(report_mod, "write_text_atomic", lambda t, args, _: t.add("report.bytes_written", len(args[1].encode("utf-8"))))
    t.wrap(employers_mod, "load_dictionary")
    t.wrap(employers_mod, "canonicalize", _count_canonicalize)
    t.wrap(employers_mod, "employer_stats")
    t.wrap(employers_mod, "render_employers_csv")
    t.wrap(employers_mod, "render_mapping_csv")
    t.count_normalize_text()


def growth(canonicalize, names: list[str], dictionary, seed: int) -> float:
    """Canonicalize time on the distinct names over the time on a seeded half.

    The half keeps every raw spelling of half the normalized names, so the
    number of names the grouping compares halves exactly. Full and half runs
    alternate, three of each, and the fastest of each counts, so a slow spell
    of the machine hits both sides alike.
    """
    spellings: dict[tuple[str, ...], list[str]] = {}
    for name in sorted(set(names)):
        spellings.setdefault(employers_mod.normalize_name(name), []).append(name)
    keys = sorted(spellings)
    full = [name for key in keys for name in spellings[key]]
    half = [name for key in random.Random(seed).sample(keys, len(keys) // 2) for name in spellings[key]]
    best = {"full": float("inf"), "half": float("inf")}
    for _ in range(3):
        for key, sample in (("full", full), ("half", half)):
            start = time.perf_counter()
            canonicalize(sample, dictionary)
            best[key] = min(best[key], time.perf_counter() - start)
    return best["full"] / best["half"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--growth-seed", type=int, required=True, help="seed of the half sample of the growth probe")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="the jobpulse subcommand and its arguments")
    args = parser.parse_args(argv)

    canonicalize = employers_mod.canonicalize
    tracer = Tracer()
    install(tracer)
    result = {"subcommand": args.cli_args[0], "spans": tracer.spans, "counts": tracer.counts}
    try:
        rc = tracer.span(f"cli.{args.cli_args[0]}", cli.main, args.cli_args)
        result["counts"] = dict(tracer.counts)  # the growth probe below is not the subcommand's work
        if tracer.canonicalize_args is not None:
            start = time.perf_counter()
            result["counts"]["employers.canonicalize.growth"] = growth(
                canonicalize, *tracer.canonicalize_args, args.growth_seed
            )
            result["probe_s"] = time.perf_counter() - start
    finally:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
