"""jobpulse benchmark: seeded batch workloads timed end to end, checked exactly.

Usage, from the repository root::

    python3 perfbench/run.py --workload report-100k --seed 100 --seconds 15 --trace 0

Each run generates the workload's inputs from ``--seed`` (several times when
that is cheap, reporting the median as ``setup_s``), then runs whole rounds
of the workload's ``jobpulse`` calls, each in its own process and one at a
time, until ``--seconds`` have passed. The first round's artifacts are
checked against the planted truth; every later round must reproduce the
first round's artifact hashes. With ``--trace 1`` the run makes one
untraced round and one traced round (``traced.py``, under another
``PYTHONHASHSEED``) and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Provenance, failed
calls and the spans of a traced run are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import verify
from inputs import Call, Prepared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# A timed run makes at least this many rounds, so that even a workload whose
# round outlasts --seconds reports a median of more than one sample.
MIN_ROUNDS = 2

# Functions the traced run times, each reporting F.s and F.rss_mb; those
# called more than once per subcommand also report F.calls.
TIMED = (
    "corpus.load_postings",
    "taxonomy.load_taxonomy",
    "matcher.match_corpus",
    "matcher.filter_corpus",
    "dedup.weight_assignments",
    "dedup.cross_region_report",
    "dedup.render_ledger_csv",
    "report.demand_by",
    "report.render_demand_csv",
    "report.write_text_atomic",
    "employers.canonicalize",
    "employers.employer_stats",
    "employers.render_employers_csv",
    "employers.render_mapping_csv",
)
REPEATED = ("report.demand_by", "report.render_demand_csv", "report.write_text_atomic")
COUNTS = (
    "corpus.records_in",
    "corpus.rejected",
    "corpus.normalize_text.calls",
    "matcher.records_out",
    "matcher.observations",
    "dedup.assignments",
    "report.bytes_written",
    "employers.names_in",
    "employers.canonical_out",
    "employers.canonicalize.growth",
)


@dataclass(frozen=True)
class Workload:
    make: Callable[[Path, int, int, dict], Prepared]
    check: Callable[[Path, Prepared, Call], list[str]]
    # How often set-up runs per run; its median is setup_s.
    setups: int
    # The seed the README's reference figures use.
    default_seed: int


WORKLOADS = {
    "report-100k": Workload(
        make=inputs.make_report,
        check=lambda work, prep, call: verify.check_report(
            work / call.out, work / prep.truth, SRC / "jobpulse" / "data" / "taxonomy.csv"
        ),
        setups=1,
        default_seed=100,
    ),
    "disambiguate-shared-prefix": Workload(
        make=lambda work, seed, scale, env: inputs.make_disambiguate(
            work, seed, scale, SRC / "jobpulse" / "data" / "name_dictionary.txt"
        ),
        check=lambda work, prep, call: verify.check_mapping(work / call.out / "employer_mapping.csv", prep.truth),
        setups=3,
        default_seed=1,
    ),
    "ingest-dirty": Workload(
        make=lambda work, seed, scale, env: inputs.make_ingest(work, seed, scale),
        check=lambda work, prep, call: verify.check_ingest(work / call.out, call.argv[2], prep.truth[call.argv[2]]),
        setups=3,
        default_seed=1,
    ),
}


@dataclass
class Outcome:
    call: Call
    wall: float
    cpu: float
    rss_mb: float
    reason: str | None  # why the call failed, None when it succeeded


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env.pop("JOBPULSE_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(hash_seed % 2**32)
    return env


# Children are started from this small helper process, not from the runner:
# Linux carries the parent's peak RSS into a child's ru_maxrss across fork
# and exec, so a child of the runner (which holds generated inputs and
# parsed artifacts) would report the runner's peak instead of its own.
_LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["log"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"],
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps([wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      os.waitstatus_to_exitcode(status)]), flush=True)
"""


class Launcher:
    """Runs one process at a time; wall, CPU and peak RSS come from wait4."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )

    def run(self, argv: list[str], call: Call, work: Path, env: dict, log: Path) -> Outcome:
        job = {"argv": argv, "cwd": str(work), "env": env, "log": str(log)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("process launcher exited")
        wall, cpu, maxrss_kb, rc = json.loads(reply)
        reason = None
        if rc != call.expect_rc:
            lines = [line for line in log.read_text(encoding="utf-8", errors="replace").splitlines() if line.strip()]
            reason = f"exit {rc}: {lines[-1] if lines else 'no output'}"
        return Outcome(call, wall, cpu, maxrss_kb / 1024, reason)

    def close(self) -> None:
        """Stop the launcher and anything it started, and wait for them to end."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
            return  # it only exits at end of input after its last child ended
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        while True:  # the killed child may outlive the launcher by a moment
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


class Runner:
    """Runs and checks the calls of one prepared workload."""

    def __init__(self, workload: Workload, prepared: Prepared, work: Path, seed: int, launcher: Launcher) -> None:
        self.workload = workload
        self.launcher = launcher
        self.prepared = prepared
        self.work = work
        self.seed = seed
        self.first_hashes: dict[str, dict[str, str]] = {}
        self.errors: list[str] = []
        self.failures: list[str] = []
        (work / "logs").mkdir(exist_ok=True)

    def cli_round(self) -> list[Outcome]:
        env = child_env(self.seed)
        outcomes = []
        for i, call in enumerate(self.prepared.calls):
            argv = [sys.executable, "-m", "jobpulse.cli", *call.argv]
            outcome = self.launcher.run(argv, call, self.work, env, self.work / "logs" / f"cli{i}.err")
            outcomes.append(outcome)
            if outcome.reason:
                self.failures.append(f"{' '.join(call.argv)}: {outcome.reason}")
            else:
                self._verify(call)
        return outcomes

    def _verify(self, call: Call) -> None:
        out = self.work / call.out
        try:
            manifest = verify.read_manifest(out / "manifest.txt")
            hashes = verify.artifact_hashes(manifest)
            if call.out not in self.first_hashes:
                self.first_hashes[call.out] = hashes
                self.errors += verify.files_match_manifest(out, manifest)
                self.errors += self.workload.check(self.work, self.prepared, call)
            elif hashes != self.first_hashes[call.out]:
                self.errors.append(f"{call.out}: artifact hashes differ from the first round")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"{call.out}: unreadable output: {exc!r}")

    def traced_round(self) -> tuple[list[Outcome], list[dict]]:
        """Each call once more through traced.py, byte-compared with the CLI's output."""
        env = child_env(self.seed + 1)
        outcomes, traces = [], []
        for i, call in enumerate(self.prepared.calls):
            out = f"traced/{call.out}"
            argv = list(call.argv)
            argv[argv.index("--out") + 1] = out
            spans = self.work / "logs" / f"spans{i}.json"
            argv = [sys.executable, str(HERE / "traced.py"), "--spans", str(spans),
                    "--growth-seed", str(self.seed), *argv]
            outcome = self.launcher.run(argv, call, self.work, env, self.work / "logs" / f"traced{i}.err")
            outcomes.append(outcome)
            traces.append(json.loads(spans.read_text(encoding="utf-8")) if spans.is_file() else {})
            if outcome.reason:
                self.failures.append(f"traced {' '.join(call.argv)}: {outcome.reason}")
            if call.out not in self.first_hashes:
                if not outcome.reason:
                    self.errors.append(f"{out}: traced call succeeded where the CLI call failed")
                continue
            if outcome.reason:
                self.errors.append(f"{out}: traced call failed where the CLI call succeeded")
                continue
            cli_manifest = self.work / call.out / "manifest.txt"
            try:
                if (self.work / out / "manifest.txt").read_bytes() != cli_manifest.read_bytes():
                    self.errors.append(f"{out}/manifest.txt differs from the CLI run's")
                self.errors += verify.files_match_manifest(self.work / out, verify.read_manifest(cli_manifest))
            except OSError as exc:
                self.errors.append(f"{out}: unreadable output: {exc!r}")
        return outcomes, traces


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list[list[Outcome]], setup_times: list[float]) -> dict:
    ok = [[o for o in r if not o.reason] for r in rounds]
    ok = [r for r in ok if r]
    walls = [sum(o.wall for o in r) for r in ok]
    return {
        "wall_s": (_median(walls), "s"),
        "cpu_s": (_median([sum(o.cpu for o in r) for r in ok]), "s"),
        "records_per_s": (
            _median([sum(o.call.records for o in r) / w for r, w in zip(ok, walls)]),
            "records/s",
        ),
        "peak_rss_mb": (max((o.rss_mb for r in ok for o in r), default=0.0), "MB"),
        "setup_s": (_median(setup_times), "s"),
    }


def per_layer(traces: list[dict], cli_walls: list[float], traced_walls: list[float]) -> dict:
    seconds = dict.fromkeys(TIMED, 0.0)
    rss = dict.fromkeys(TIMED, 0.0)
    calls = dict.fromkeys(TIMED, 0)
    counts = dict.fromkeys(COUNTS, 0)
    cli_self = 0.0
    for trace in traces:
        spans = trace.get("spans", [])
        for span in spans:
            name, duration = span["name"], span["end"] - span["start"]
            if name in seconds:
                seconds[name] += duration
                rss[name] = max(rss[name], span["rss_mb"])
                calls[name] += 1
            if span["parent"] is None:
                children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
                cli_self += duration - children
        for name, value in trace.get("counts", {}).items():
            counts[name] += value
    metrics = {}
    for name in TIMED:
        metrics[f"{name}.s"] = (seconds[name], "s")
        metrics[f"{name}.rss_mb"] = (rss[name], "MB")
        if name in REPEATED:
            metrics[f"{name}.calls"] = (calls[name], "count")
    for name in COUNTS:
        metrics[name] = (counts[name], "ratio" if name.endswith("growth") else "count")
    metrics["cli.self.s"] = (cli_self, "s")
    probes = sum(trace.get("probe_s", 0.0) for trace in traces)
    metrics["trace.overhead_s"] = (sum(traced_walls) - probes - sum(cli_walls), "s")
    return metrics


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*")):
        if file.is_file() and "__pycache__" not in file.parts:
            digest.update(str(file.relative_to(path)).encode() + b"\0" + file.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
        sha = top[1] if Path(top[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.CalledProcessError, IndexError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "source_sha256": _tree_digest(SRC / "jobpulse"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def setup(workload: Workload, work: Path, seed: int, scale: int) -> tuple[Prepared, list[float]]:
    """Generate the inputs ``workload.setups`` times; every repeat must be identical."""
    env = child_env(seed)
    times, digests = [], set()
    for _ in range(workload.setups):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        start = time.perf_counter()
        prepared = workload.make(work, seed, scale, env)
        times.append(time.perf_counter() - start)
        digests.add(_tree_digest(work / "inputs"))
    if len(digests) != 1:
        raise RuntimeError(f"seed {seed} generated different inputs on repeated set-up")
    return prepared, times


def run(name: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    workload = WORKLOADS[name]
    STATE.mkdir(exist_ok=True)
    work = STATE / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        prepared, setup_times = setup(workload, work, seed, scale)
        runner = Runner(workload, prepared, work, seed, launcher)
        if trace:
            cli = runner.cli_round()
            traced, traces = runner.traced_round()
            rounds = [cli, traced]
            metrics = per_layer(traces, [o.wall for o in cli], [o.wall for o in traced])
        else:
            rounds = []
            start = time.perf_counter()
            while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
                rounds.append(runner.cli_round())
            metrics = end_to_end(rounds, setup_times)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(r) for r in rounds)
    result = {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": sum(1 for r in rounds for o in r if o.reason),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(),
        "inputs": prepared.notes,
        "round_walls": [[o.wall for o in r] for r in rounds],
        "setup_times": setup_times,
        "errors": runner.errors,
        "failures": runner.failures,
        "result": result,
    }
    if trace:
        record["spans"] = traces
    out = STATE / ("traces" if trace else "results")
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{seed}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="jobpulse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jobpulse" / "cli.py").is_file():
        print(f"error: no jobpulse source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    record = run(args.workload, seed, args.seconds, bool(args.trace))
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"inputs: {json.dumps(record['inputs'])} setup_times: {record['setup_times']}")
    for line in record["failures"]:
        print(f"failed call: {line}")
    for line in record["errors"]:
        print(f"check failed: {line}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
