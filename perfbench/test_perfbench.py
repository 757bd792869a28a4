"""Tests of the benchmark itself: every workload end to end at a reduced
size, and each correctness check rejecting a corrupted artifact."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import verify

SCALE = 50
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def state_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path / "state")


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_end_to_end(workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    record = run.run(workload, seed=3, seconds=0, trace=False, scale=SCALE)
    result = record["result"]
    assert result["correct"], record["errors"]
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] == run.MIN_ROUNDS * (7 if workload == "ingest-dirty" else 1)
    # Only the invalid-UTF-8 ingest call fails today.
    assert result["failed"] == (run.MIN_ROUNDS if workload == "ingest-dirty" else 0)


def test_traced_run_matches_cli_and_reports_every_layer():
    record = run.run("report-100k", seed=4, seconds=0, trace=True, scale=SCALE)
    result = record["result"]
    assert result["correct"], record["errors"]
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["report.demand_by.calls"]["value"] == 7
    assert result["metrics"]["corpus.records_in"]["value"] == 100_000 // SCALE
    assert (run.STATE / "traces" / "report-100k-seed4.json").is_file()


def _cli_round(workload: str, work: Path):
    spec = run.WORKLOADS[workload]
    work.mkdir()
    prepared, _ = run.setup(spec, work, seed=5, scale=SCALE)
    launcher = run.Launcher()
    try:
        runner = run.Runner(spec, prepared, work, seed=5, launcher=launcher)
        runner.cli_round()
    finally:
        launcher.close()
    assert not runner.errors
    return prepared, spec.check(work, prepared, prepared.calls[0])


def test_report_check_rejects_changed_ledger_weight(tmp_path):
    prepared, errors = _cli_round("report-100k", tmp_path / "w")
    assert errors == []
    ledger = tmp_path / "w" / "out" / "report" / "ledger.csv"
    lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.rstrip().endswith(",1,2"))
    lines[row] = lines[row].rstrip()[: -len("1,2")] + "1,3\n"
    ledger.write_text("".join(lines), encoding="utf-8")
    errors = run.WORKLOADS["report-100k"].check(tmp_path / "w", prepared, prepared.calls[0])
    assert any("ledger.csv" in e for e in errors)


def test_disambiguate_check_rejects_merged_identities(tmp_path):
    prepared, errors = _cli_round("disambiguate-shared-prefix", tmp_path / "w")
    assert errors == []
    mapping = tmp_path / "w" / "out" / "disambiguate" / "employer_mapping.csv"
    rows = mapping.read_text(encoding="utf-8").splitlines()
    # Point the first raw name at the canonical name of a different identity.
    first_raw, first_canonical = rows[1].rsplit(",", 1)
    other = next(r.rsplit(",", 1)[1] for r in rows[2:] if r.rsplit(",", 1)[1] != first_canonical)
    rows[1] = f"{first_raw},{other}"
    mapping.write_text("\n".join(rows) + "\n", encoding="utf-8")
    errors = verify.check_mapping(mapping, prepared.truth)
    assert any("precision" in e for e in errors)


def test_ingest_check_rejects_missing_reject(tmp_path):
    prepared, errors = _cli_round("ingest-dirty", tmp_path / "w")
    assert errors == []
    diagnostics = tmp_path / "w" / prepared.calls[0].out / "diagnostics.csv"
    lines = diagnostics.read_text(encoding="utf-8").splitlines(keepends=True)
    diagnostics.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    errors = run.WORKLOADS["ingest-dirty"].check(tmp_path / "w", prepared, prepared.calls[0])
    assert any("1 missing" in e for e in errors)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-dirty", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
