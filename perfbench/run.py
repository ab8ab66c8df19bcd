#!/usr/bin/env python3
"""Outside-in benchmark of the levelarr command line.

Drives ``levelarr.cli.main(argv)`` in-process: one process, one thread, a
closed loop with a single client that issues each command after the previous
one returns.  The documents come from ``--seed``; every answer is checked
exactly.  See README.md in this directory for the workloads and metrics.

    python3 perfbench/run.py --workload lowdim_levels --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload, one table
    python3 perfbench/run.py --all --trace 1 --seconds 1  # per-layer table
    python3 perfbench/run.py --record --seed 0         # store expected answers

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero when an answer is wrong, a command crashes or exits with a non-zero
status, or the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import probes
from workloads import WORKLOADS, Case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

COMMAND_LIMIT_S = 60.0  # a command running longer counts as failed
RUN_LIMIT_S = 150.0  # no command runs past this point of the process' life
SETUP_SAMPLES = 11
# The modules, numpy and standard, that the package imported when the benchmark
# was defined, and the time a fresh interpreter takes to import them at the
# reference speed.
SETUP_REF_IMPORT = "numpy, argparse, dataclasses, enum, fractions, json, random"
SETUP_REF_S = 0.18
PROBE_EVERY_S = 0.02  # process CPU time between two speed probes
PROBE_REF_S = 0.00035  # probe time that defines the reference speed


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


@dataclass
class Outcome:
    status: object  # exit code, "timeout" or "crash"
    stdout: str
    stderr: str


def run_command(cli, case: Case, limit: float) -> Outcome:
    """One CLI call with the document on stdin, cut off after ``limit`` seconds."""
    if limit <= 0:
        return Outcome("timeout", "", "run time limit reached before the command")
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    sys.stdin = io.StringIO(case.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                status = cli.main(list(case.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except CommandTimeout:
        status = "timeout"
    except SystemExit as exc:  # argparse rejects its arguments this way
        status = exc.code
    except Exception:  # a crash fails the command; the batch carries on
        status = "crash"
        err.write(traceback.format_exc())
    finally:
        sys.stdin = sys.__stdin__
        signal.signal(signal.SIGALRM, previous)
    return Outcome(status, out.getvalue(), err.getvalue())


class Ledger:
    """Commands attempted and failed, and the problems found in answers."""

    def __init__(self, cases, refs, expected):
        self.cases, self.refs, self.expected = cases, refs, expected
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.timeouts: list[str] = []
        self._checked: dict[tuple[str, str], list[str]] = {}

    def add(self, outcomes: list[Outcome]) -> None:
        for case, outcome in zip(self.cases, outcomes):
            self.attempted += 1
            if outcome.status == "timeout":
                self.failed += 1
                self.timeouts.append(case.name)
                continue
            problems = self._problems(case, outcome)
            if problems:
                self.failed += 1
                self.wrong += [f"{case.name}: {p}" for p in problems]

    def _problems(self, case: Case, outcome: Outcome) -> list[str]:
        if outcome.status != 0:
            return [f"exit status {outcome.status}: {outcome.stderr.strip()[-500:]}"]
        key = (case.name, outcome.stdout)
        if key not in self._checked:  # identical answers are checked once
            try:
                payload = json.loads(outcome.stdout)
                self._checked[key] = checks.checker(case)(
                    case, payload, self.refs.get(case.name), self.expected.get(case.name)
                )
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self._checked[key] = [f"malformed answer: {exc!r}"]
        return self._checked[key]


class SpeedProbe:
    """Samples the interpreter's speed while a batch runs.

    On a shared 2-core virtual machine, other tenants slowed the CPU by up
    to half for seconds to minutes at a time, which moved the median batch
    time of a 30 s run by 40%.
    Every ``PROBE_EVERY_S`` of process CPU time, SIGPROF runs a fixed
    integer loop inside the batch and times it.  ``wall_s`` is the batch time
    minus the probes' own time, scaled by ``PROBE_REF_S`` over the probes'
    mean time: the batch time at the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        x = acc = 1
        for i in range(1, 1500):
            x = (x * 1103515245 + 12345) % 2147483648
            acc += x // i
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        self.samples = []
        previous = signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


@dataclass
class Batch:
    raw_s: float  # wall time without the probes' own time
    wall_s: float  # raw_s at the reference speed
    outcomes: list


def run_batch(cli, cases, deadline: float) -> Batch:
    outcomes = []
    probe = SpeedProbe()
    with probe.running():
        start = time.perf_counter()
        for case in cases:
            outcomes.append(run_command(cli, case, min(COMMAND_LIMIT_S, deadline - time.perf_counter())))
        elapsed = time.perf_counter() - start
    raw = elapsed - sum(probe.samples)
    speed = PROBE_REF_S / statistics.mean(probe.samples) if probe.samples else 1.0
    return Batch(raw, raw * speed, outcomes)


def measure_setup() -> tuple[float, float]:
    """Time from a fresh interpreter to ``import levelarr.cli`` done.

    Returns the median at the reference speed and the median as measured.
    Other tenants slow interpreter start-up as much as they slow a batch, but
    the integer loop of ``SpeedProbe`` does not track it: start-up is mostly
    loading numpy.  So reference launches that import ``SETUP_REF_IMPORT``
    alternate with the timed ones, and a sample is the time of a timed launch
    over the mean time of the reference launches on either side, scaled by
    ``SETUP_REF_S``.  A change to the package moves the timed launches only.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # An installed package has its bytecode compiled, so time the import
    # with the cache filled, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def launch(modules: str) -> float:
        start = time.perf_counter()
        # A plain wait blocks in waitpid; a wait with a timeout polls in
        # steps of up to 50 ms, which would quantize the measurement.
        argv = [sys.executable, "-c", f"import {modules}"]
        with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL) as proc:
            status = proc.wait()
        if status != 0:
            sys.exit(f"error: import {modules} with {SRC} on the path failed")
        return time.perf_counter() - start

    launch("levelarr.cli")  # fills the bytecode cache
    ref_before = launch(SETUP_REF_IMPORT)
    ratios, raw = [], []
    for _ in range(SETUP_SAMPLES):
        cli_s = launch("levelarr.cli")
        ref_after = launch(SETUP_REF_IMPORT)
        ratios.append(2 * cli_s / (ref_before + ref_after))
        raw.append(cli_s)
        ref_before = ref_after
    return statistics.median(ratios) * SETUP_REF_S, statistics.median(raw)


def locate_package() -> None:
    if not (SRC / "levelarr" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'levelarr' / 'cli.py'} not found; run from a checkout of the repository")


def import_cli():
    locate_package()
    sys.path.insert(0, str(SRC))
    import levelarr.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "levelarr":
        sys.exit(f"error: imported levelarr from {cli.__file__}, not from {SRC}")
    return cli


def stamp(seed: int) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # an exported checkout has no history
    digest = hashlib.sha256()
    for path in sorted((SRC / "levelarr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def load_expected(workload: str, seed: int, cases) -> dict:
    """Recorded answers of this seed, or {} when the seed was never recorded."""
    if not EXPECTED.is_file():
        return {}
    recorded = json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed), {})
    for case in cases:
        if case.name in recorded and recorded[case.name]["doc_sha256"] != _doc_sha(case):
            sys.exit(f"error: the document of {case.name} no longer matches its recording")
    return recorded


def _doc_sha(case: Case) -> str:
    return hashlib.sha256(case.text.encode()).hexdigest()


def reference_chi(cli, cases, expected: dict, deadline: float) -> dict:
    """chi of every document: recorded, else from the ``chi`` command, untimed."""
    refs = {}
    for case in cases:
        if case.name in expected:
            refs[case.name] = expected[case.name]["chi"]
        elif case.argv[0] != "chi":  # a chi answer is not its own reference
            chi_case = Case(case.name, ("chi", "-", "--json"), case.doc, case.family)
            limit = min(COMMAND_LIMIT_S, deadline - time.perf_counter())
            outcome = run_command(cli, chi_case, limit)
            if outcome.status == 0:
                refs[case.name] = json.loads(outcome.stdout)["coefficients"]
    return refs


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    locate_package()
    setup_s, raw_setup_s = (None, None) if traced else measure_setup()
    cli = import_cli()
    cases = WORKLOADS[name](seed)
    expected = load_expected(name, seed, cases)
    ledger = Ledger(cases, reference_chi(cli, cases, expected, deadline), expected)
    info = stamp(seed)
    info.update(workload=name, traced=traced, recorded_seed=bool(expected),
                command_limit_s=COMMAND_LIMIT_S)

    tracer = probes.Tracer()
    batches, traced_batches, layer_samples = [], [], []
    loop_start = time.perf_counter()
    while True:
        batches.append(run_batch(cli, cases, deadline))
        ledger.add(batches[-1].outcomes)
        if traced:
            tracer.install(probes.PROBES)
            try:
                traced_batches.append(run_batch(cli, cases, deadline))
            finally:
                tracer.uninstall()
            ledger.add(traced_batches[-1].outcomes)
            layer_samples.append(probes.snapshot(tracer))
            silent = probes.silent(tracer, name)
            tracer.reset()
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed / len(batches)
        # A traced run makes at least two traced batches, so that the counts
        # can be compared.
        enough = not traced or len(layer_samples) >= 2
        if enough and elapsed + per_round / 2 > seconds or time.perf_counter() > deadline:
            break
    wall_s = _median([b.wall_s for b in batches])

    report = [f"workload {name}, seed {seed}: {len(cases)} commands per batch, "
              f"{len(batches)} batches untraced" + (f", {len(traced_batches)} traced" if traced else "")]
    ok = True
    if traced:
        metrics, repeat = {}, True
        for metric, (unit, kind, _) in probes.METRICS.items():
            values = [s[metric] for s in layer_samples]
            if kind == "count":
                repeat &= len(set(values)) == 1
                value = values[0]
            else:
                value = _median(values)
            metrics[metric] = {"value": value, "unit": unit}
        traced_wall_s = _median([b.wall_s for b in traced_batches])
        metrics["trace.wall_s"] = {"value": traced_wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall_s - wall_s, "unit": "s"}
        info.update(absent_probes=tracer.absent, broken_probes=tracer.broken,
                    silent_probes=silent, counts_repeat=repeat)
        if tracer.absent or tracer.broken:
            report.append(f"absent probes (metrics read 0): {tracer.absent}, broken: {tracer.broken}")
        # A silent probe is reported only: a later version may drop a call
        # path on purpose.  Counts that do not repeat fail the run, because
        # the same documents must cost the same work in every batch; a
        # command cut off by its time limit leaves its counts short.
        if silent or not repeat:
            report.append(f"self-check: silent probes {silent}, counts repeat: {repeat}")
        ok = repeat or bool(ledger.timeouts)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_ratio": {"value": 1 - ledger.failed / ledger.attempted, "unit": "1"},
        }
        info.update(raw_setup_s=raw_setup_s,
                    wall_samples=len(batches), wall_s_all=[b.wall_s for b in batches],
                    raw_wall_s=_median([b.raw_s for b in batches]),
                    raw_wall_s_all=[b.raw_s for b in batches],
                    fail_ratio=ledger.failed / ledger.attempted)

    for metric, entry in metrics.items():
        report.append(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    report.append(f"  attempted {ledger.attempted}, failed {ledger.failed} "
                  f"(fail_ratio {ledger.failed / ledger.attempted:.4g})")
    for line in ledger.timeouts[:5]:
        report.append(f"  timed out: {line}")
    for line in ledger.wrong[:20]:
        report.append(f"  WRONG {line}")
    print("\n".join(report))
    print("stamp " + json.dumps(info))
    correct = not ledger.wrong
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct and ok else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    status, table = 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            table[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            table[name] = None
        if proc.returncode != 0 or table[name] is None:
            status = 1
    names = next((list(r["metrics"]) for r in table.values() if r), [])
    print(f"{'metric':34}" + "".join(f"{w:>16}" for w in table))
    for metric in names:
        cells = []
        for result in table.values():
            entry = result["metrics"].get(metric) if result else None
            cells.append(f"{entry['value']:>12.5g} {entry['unit']:<3}" if entry else f"{'-':>16}")
        print(f"{metric:34}" + "".join(cells))
    print(json.dumps(table))
    return status


def record(seed: int) -> int:
    """Store this version's answers for ``seed`` as the expected answers."""
    cli = import_cli()
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for name, make in WORKLOADS.items():
        cases = make(seed)
        refs = reference_chi(cli, cases, {}, time.perf_counter() + RUN_LIMIT_S)
        entry = {}
        for case in cases:
            outcome = run_command(cli, case, COMMAND_LIMIT_S)
            payload = json.loads(outcome.stdout) if outcome.status == 0 else None
            chi = refs.get(case.name) or (payload or {}).get("coefficients")
            problems = checks.checker(case)(case, payload, chi, None) if payload else ["failed"]
            if problems:
                print(f"not recorded, {name}/{case.name}: {problems}", file=sys.stderr)
                return 1
            entry[case.name] = {"doc_sha256": _doc_sha(case), "chi": chi, **checks.record(case, payload)}
        data.setdefault(name, {})[str(seed)] = entry
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded seed {seed} for {', '.join(WORKLOADS)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="record expected answers for --seed")
    args = parser.parse_args(argv)
    if args.record:
        return record(args.seed)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all or --record")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
