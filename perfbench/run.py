"""Benchmark of the ``atlm`` command line, driven in process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
    paper-cv      evaluate --plan kfold:10 on the three bundled datasets
    csv-loocv     evaluate --plan loocv on a seeded synthetic user CSV
    split-export  inspect and export-folds on every dataset, nothing fitted

Every command goes through ``atlm.cli.main`` in this single-threaded
process, with the program imported from ``src/`` of the checkout.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it spends half its time untraced and half with spans around the public
functions of ``atlm`` (see tracing.py) and reports the per-layer metrics.
Outputs are checked against perfbench/oracle.py; the last line of standard
output is one JSON object, and the exit status is nonzero when a check
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"

BUNDLED = ("cocomo81", "desharnais", "maxwell")
SPLIT_PLANS = ("loocv", "kfold:10", "holdout:10x30")
#: fresh-interpreter set-up launches per end-to-end run, after one untimed
#: warm-up launch; they are spread evenly between the timed passes, so their
#: median samples the machine's drifting speed over the whole run
SETUP_LAUNCHES = 20
#: fresh-interpreter launches per traced run, for the import time alone
IMPORT_LAUNCHES = 8
#: fewest passes a timed phase makes, however long they take
MIN_PASSES = 3
#: fewest passes for which a 90th percentile has ten samples beyond it
P90_MIN_PASSES = 100
PROBE_TIMEOUT_S = 60
#: runs of the reference work around each pass; their median is used
REFERENCE_REPEATS = 3


@dataclass(frozen=True)
class Command:
    argv: list
    out: Path
    #: content check of the parsed output, run the first time this argv is seen
    check: Callable[[dict], list]
    #: fold outcomes (fitted or exported) one run of the command produces
    folds: int


@dataclass(frozen=True)
class Workload:
    #: the commands of pass ``index``
    commands: Callable[[int], list]
    #: datasets the probe loads: bundled names or [csv, schema] pairs
    setup_specs: list
    #: extra untimed checks, run after the timed passes
    verify: Callable[[], list]
    #: what per-layer figures are divided by: "fold" or "command"
    per: str


@dataclass(frozen=True)
class Timing:
    """Wall times of the timed passes and of the reference work around them."""

    pass_s: list
    #: reference work just before and just after each pass
    before_s: list
    after_s: list
    #: set-up launches made between the passes
    launch_s: list = field(default_factory=list)

    @property
    def costs(self) -> list:
        """Each pass's time in units of the mean reference time on either side of it."""
        return [t / ((before + after) / 2)
                for t, before, after in zip(self.pass_s, self.before_s, self.after_s)]


def _reference_work() -> None:
    """Fixed work of the kinds atlm does: bytecode loops, tuples, text, JSON,
    hashing and small arrays.  It never changes, so its time tracks the speed
    of the machine, which on a shared host drifts by tens of percent."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    table = {f"k{i}": (i, i * 0.5, str(i)) for i in range(1000)}
    text = json.dumps(table, sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    a = np.arange(40.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)


def reference_seconds() -> float:
    """Median wall time of REFERENCE_REPEATS runs of the reference work."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _first_seed(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(1, 1 << 32))


def _bundled_csv(name: str) -> str:
    from importlib.resources import files
    return (files("atlm") / "data" / f"{name}.csv").read_text(encoding="utf-8")


def _fold_count(plan: str, n_rows: int) -> int:
    if plan == "loocv":
        return n_rows
    if plan.startswith("kfold:"):
        return int(plan.split(":")[1])
    return int(plan.split("x")[1])


def paper_cv(work: Path, seed: int, run_json) -> Workload:
    """The paper's tenfold protocol, ``--seed`` advancing on every pass."""
    from perfbench import oracle
    first = _first_seed(seed)

    def check(name, seed, payload):
        problems = oracle.check_kfold_report(payload, 10)
        if payload.get("failures"):  # a rare factor level held out; confirm it
            out = work / f"{name}-folds.json"
            folds = run_json(["export-folds", "--dataset", name, "--plan", "kfold:10",
                              "--seed", str(seed), "--out", str(out)], out)
            problems += oracle.check_unseen_failures(payload, folds, _bundled_csv(name))
        return problems

    def commands(index):
        seed = first + index
        return [Command(["evaluate", "--dataset", name, "--plan", "kfold:10",
                         "--seed", str(seed), "--format", "json",
                         "--out", str(work / f"{name}.json")],
                        work / f"{name}.json",
                        lambda payload, name=name: check(name, seed, payload), 10)
                for name in BUNDLED]

    def verify():
        problems = []
        for name in oracle.ENVELOPES:  # published envelopes hold at atlm's default seed
            out = work / f"envelope-{name}.json"
            payload = run_json(["evaluate", "--dataset", name, "--plan", "kfold:10",
                                "--seed", "1", "--format", "json", "--out", str(out)], out)
            problems += oracle.check_envelope(name, payload)
        return problems

    return Workload(commands, list(BUNDLED), verify, "fold")


def csv_loocv(work: Path, seed: int, run_json) -> Workload:
    """Leave-one-out on a user CSV with a known pair of failing folds."""
    from perfbench import oracle, synth
    data = synth.generate(seed)
    csv_path, schema_path = synth.write(data, work)
    reference = oracle.loocv_reference(data.csv_text, data.schema_text)
    out = work / "loocv.json"
    command = Command(["evaluate", "--dataset", str(csv_path), "--schema", str(schema_path),
                       "--plan", "loocv", "--format", "json", "--out", str(out)], out,
                      lambda payload: oracle.check_loocv(payload, reference,
                                                         data.expected_failures),
                      data.n_rows)
    return Workload(lambda index: [command], [[str(csv_path), str(schema_path)]],
                    lambda: [], "fold")


def split_export(work: Path, seed: int, run_json) -> Workload:
    """Loading, fingerprinting, shuffling and JSON rendering; nothing fitted."""
    from perfbench import oracle, synth
    data = synth.generate(seed)
    csv_path, schema_path = synth.write(data, work)
    datasets = [(name, ["--dataset", name], oracle.BUNDLED_ROWS[name], _bundled_csv(name))
                for name in BUNDLED]
    datasets.append(("projects", ["--dataset", str(csv_path), "--schema", str(schema_path)],
                     data.n_rows, data.csv_text))
    first = _first_seed(seed)
    held_out: dict[str, list] = {}  # prepared row ids, from each loocv export

    def check_loocv_export(label, n_rows, payload):
        held_out[label] = sorted(i for fold in payload["folds"] for i in fold["test"])
        return oracle.check_partition(payload, "loocv", n_rows)

    def check_inspect(label, text, payload):
        if label not in held_out:
            return [f"{label}: no loocv export to take the prepared rows from"]
        return oracle.check_inspect(payload, oracle.csv_columns(text, held_out[label]))

    def commands(index):
        result = []
        for label, dataset_args, n_rows, text in datasets:
            for plan in SPLIT_PLANS:
                out = work / f"{label}-{plan.replace(':', '_')}.json"
                seed_args = [] if plan == "loocv" else ["--seed", str(first + index)]
                check = ((lambda p, label=label, n=n_rows: check_loocv_export(label, n, p))
                         if plan == "loocv" else
                         (lambda p, plan=plan, n=n_rows: oracle.check_partition(p, plan, n)))
                result.append(Command(["export-folds", *dataset_args, "--plan", plan,
                                       *seed_args, "--out", str(out)], out, check,
                                      _fold_count(plan, n_rows)))
            out = work / f"{label}-inspect.json"
            result.append(Command(["inspect", *dataset_args, "--format", "json",
                                   "--out", str(out)], out,
                                  lambda p, label=label, text=text: check_inspect(label, text, p),
                                  0))
        return result

    specs = [*BUNDLED, [str(csv_path), str(schema_path)]]
    return Workload(commands, specs, lambda: [], "command")


WORKLOADS = {"paper-cv": paper_cv, "csv-loocv": csv_loocv, "split-export": split_export}


def _exit_code(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a traceback is a failed command; keep running and report it
        traceback.print_exc()
        return 1


class Runner:
    """Runs passes of a workload and checks every output it produces."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.workload: Workload | None = None
        #: context the output checks run in; a tracer pauses itself here, so
        #: commands a check runs add no spans to the pass being traced
        self.untraced: Callable = contextlib.nullcontext
        self.seen: dict = {}  # argv -> (sha256 of first output, failed folds in it)
        self.runs: Counter = Counter()  # argv -> times run
        self.problems: list[str] = []
        self.commands = 0
        self.failed = 0
        self.folds = 0
        self.failed_folds = 0

    def run_json(self, argv, out: Path) -> dict:
        """Run one untimed command and return its parsed output."""
        out.unlink(missing_ok=True)
        self._record(Command(argv, out, lambda payload: [], 0), _exit_code(self.cli, argv))
        return json.loads(out.read_bytes()) if out.exists() else {}

    def run_pass(self, index: int) -> float:
        """Run pass ``index``; return its wall time in seconds, checks excluded."""
        commands = self.workload.commands(index)
        for command in commands:
            command.out.unlink(missing_ok=True)
        clock = time.perf_counter
        start = clock()
        codes = [_exit_code(self.cli, command.argv) for command in commands]
        elapsed = clock() - start
        with self.untraced():
            for command, code in zip(commands, codes):
                self._record(command, code)
        return elapsed

    def repeat_once(self, index: int) -> None:
        """Run again each command of pass ``index`` that has run only once."""
        for command in self.workload.commands(index):
            if self.runs[tuple(command.argv)] == 1:
                command.out.unlink(missing_ok=True)
                self._record(command, _exit_code(self.cli, command.argv))

    def _record(self, command: Command, code: int) -> None:
        self.commands += 1
        self.runs[tuple(command.argv)] += 1
        shown = "atlm " + " ".join(command.argv)
        if code != 0 or not command.out.exists():
            self.failed += 1
            self.problems.append(f"exit {code}: {shown}")
            return
        self.folds += command.folds
        data = command.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        key = tuple(command.argv)
        if key in self.seen:
            if self.seen[key][0] != digest:
                self.problems.append(f"output differs from the first run: {shown}")
        else:
            failures = 0
            try:
                payload = json.loads(data)
                self.problems += command.check(payload)
                failures = len(payload.get("failures", ()))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                self.problems.append(f"malformed output ({exc!r}): {shown}")
            self.seen[key] = (digest, failures)
        self.failed_folds += self.seen[key][1]

    def timed_passes(self, seconds: float, first_index: int,
                     launch: Callable[[], float] | None = None, launches: int = 0) -> Timing:
        """Passes until they have taken ``seconds``, and at least MIN_PASSES.

        ``launches`` calls of ``launch`` are spread evenly over that time, each
        made between two passes and left out of the time the passes take."""
        times: list[float] = []
        before: list[float] = []
        after: list[float] = []
        walls: list[float] = []
        clock = time.perf_counter
        start = clock()
        aside = 0.0  # time spent in launches
        ref = reference_seconds()
        while len(times) < MIN_PASSES or clock() - start - aside < seconds:
            before.append(ref)
            times.append(self.run_pass(first_index + len(times)))
            ref = reference_seconds()
            after.append(ref)
            due = len(walls)
            while (len(walls) < launches
                   and clock() - start - aside >= len(walls) * seconds / launches):
                launched = clock()
                walls.append(launch())
                aside += clock() - launched
            if len(walls) > due:  # time the next pass against the machine as it is now
                ref = reference_seconds()
        walls += [launch() for _ in range(launches - len(walls))]
        return Timing(times, before, after, walls)


def launch_probe(specs: list) -> tuple[float, float]:
    """Wall time of one fresh set-up launch and the import time it reported."""
    argv = [sys.executable, str(PROBE), str(SRC), json.dumps(specs)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    report = json.loads(done.stdout.splitlines()[-1])
    if not Path(report["atlm_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported atlm from {report['atlm_file']}")
    return wall, report["import_s"]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # keep git from finding a repository above the checkout
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, samples: dict) -> dict:
    import scipy
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def end_to_end(runner: Runner, workload: Workload, args) -> tuple:
    launch_probe(workload.setup_specs)  # warm-up: fills the page cache and bytecode files
    runner.run_pass(0)  # warm-up; also the first output each repeat is compared with
    folds_before = runner.folds
    timing = runner.timed_passes(args.seconds, 1,
                                 lambda: launch_probe(workload.setup_specs)[0], SETUP_LAUNCHES)
    folds = runner.folds - folds_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = timing.launch_s
    times = timing.pass_s
    launches = f"{len(walls)} launches"
    passes = f"{len(times)} passes, {folds} folds"
    metrics = {
        "setup_s": (statistics.median(walls), "s", launches),
        "folds_per_ref": (folds / sum(timing.costs), "1/ref", passes),
        "pass_cost_p50": (statistics.median(timing.costs), "ref", passes),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }
    samples = {"setup_launches": len(walls), "passes": len(times), "folds": folds,
               "reference_medians": len(timing.before_s) + len(timing.after_s)}
    wall = {
        "folds_per_s": (folds / sum(times), "1/s", passes),
        "pass_ms_p50": (statistics.median(times) * 1e3, "ms", passes),
        "ref_ms_p50": (statistics.median(timing.after_s) * 1e3, "ms",
                       f"{len(timing.after_s)} medians of {REFERENCE_REPEATS}"),
    }
    if len(times) >= P90_MIN_PASSES:
        wall["pass_ms_p90"] = (statistics.quantiles(times, n=10)[8] * 1e3, "ms", passes)
    return metrics, samples, wall


def per_layer(runner: Runner, workload: Workload, args) -> tuple:
    from perfbench import tracing
    launch_probe(workload.setup_specs)  # warm-up
    imports = [launch_probe(workload.setup_specs)[1] for _ in range(IMPORT_LAUNCHES)]
    runner.run_pass(0)
    untraced = runner.timed_passes(args.seconds / 2, 1)
    tracer = tracing.Tracer()
    folds_before, commands_before = runner.folds, runner.commands
    runner.untraced = tracer.paused
    tracer.install()
    try:
        traced = runner.timed_passes(args.seconds / 2, 1 + len(untraced.pass_s))
    finally:
        tracer.uninstall()
    folds = runner.folds - folds_before
    units = folds if workload.per == "fold" else runner.commands - commands_before
    self_s, calls = tracing.totals_by_name(tracer.spans)
    counts = tracer.counts
    per_unit = f"{units} {workload.per}s"
    metrics = {f"{name}.self_us": (self_s.get(name, 0.0) * 1e6 / units, "us", per_unit)
               for name in tracing.LAYER_NAMES}
    metrics.update({
        "transforms.apply_transforms.cells":
            (counts["transforms.apply_transforms.cells"] / units, "count", per_unit),
        "dataset.fingerprint.calls_per_fold":
            (calls["dataset.fingerprint"] / max(folds, 1), "count", f"{folds} folds"),
        "linear.fit_ols.aliased":
            (counts["linear.fit_ols.aliased"] / units, "count", per_unit),
        "metrics.report.calls": (calls["metrics.report"] / units, "count", per_unit),
        "validation.failures": (counts["validation.run_validation.failures"]
                                / len(traced.pass_s), "count", f"{len(traced.pass_s)} passes"),
        "report.to_json_text.bytes":
            (counts["report.to_json_text.bytes"] / units, "bytes", per_unit),
        "import.atlm_s": (statistics.median(imports), "s", f"{len(imports)} launches"),
        "trace.overhead_ratio":
            (statistics.median(traced.costs) / statistics.median(untraced.costs), "ratio",
             f"{len(traced.pass_s)} traced, {len(untraced.pass_s)} untraced passes"),
        # cli.main's self time takes in all work no listed layer wraps, so it
        # is left out: the figure drops when work moves out of the listed layers
        "trace.self_coverage": ((sum(self_s.values()) - self_s.get("cli.main", 0.0))
                                / sum(traced.pass_s), "ratio",
                                f"{len(tracer.spans)} spans, cli.main self time left out"),
    })
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps({"missing": tracer.missing, "spans": tracer.spans}))
    samples = {"import_launches": len(imports), "untraced_passes": len(untraced.pass_s),
               "traced_passes": len(traced.pass_s), "traced_spans": len(tracer.spans),
               "per": workload.per, "units": units,
               "missing_targets": tracer.missing, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, samples, {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "atlm" / "__init__.py").is_file():
        print(f"perfbench: no atlm package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    cli = importlib.import_module("atlm.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: atlm was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(cli)
        runner.workload = WORKLOADS[args.workload](work, args.seed, runner.run_json)
        measure = per_layer if args.trace else end_to_end
        metrics, samples, unbounded = measure(runner, runner.workload, args)
        runner.repeat_once(0)  # so every workload has outputs that must repeat byte for byte
        runner.problems += runner.workload.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples.update(commands=runner.commands, failed_commands=runner.failed,
                   fold_outcomes=runner.folds, failed_folds=runner.failed_folds)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance(args, samples), sort_keys=True))
    for name, (value, unit, basis) in {**metrics, **unbounded}.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} ({basis})")
    print(f"  {'fold_fail_ratio':<40} {runner.failed_folds / max(runner.folds, 1):>14.6g} "
          f"{'':<6} ({runner.failed_folds}/{runner.folds} fold outcomes)")
    print(f"  {'cmd_fail_ratio':<40} {runner.failed / runner.commands:>14.6g} "
          f"{'':<6} ({runner.failed}/{runner.commands} commands)")
    for problem in runner.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.commands,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
