"""Fresh-process wall time and peak memory of ``atlm`` commands, two trees compared.

Usage:
    python scripts/fresh_bench.py --tree parent=DIR --tree change=DIR \\
        --runs 9 --out BENCH.json

Each ``DIR`` is a checkout, absolute or relative to the current directory,
whose ``src/`` holds the ``atlm`` package.  Every command runs as ``python -m
atlm ...`` in a new interpreter, so import cost counts.  The runs alternate between the trees (the first tree leads on even
runs, the second on odd ones), so a drift in the machine's speed falls on
both.  Each launch goes through a helper process that times the child and
reads its peak resident set size from ``getrusage(RUSAGE_CHILDREN)``.  The
report gives the median and quartiles per tree and command, and whether
every run of every tree exited 0 and produced the same bytes (standard
output plus the files ``reproduce`` writes).  The ``synth`` commands
run on the CSV and schema that ``perfbench.synth.generate(1)`` gives,
written into the run's temporary directory, as the csv-loocv benchmark
workload does.  ``export-folds synth loocv`` is the largest export among
these commands, and ``export-folds synth holdout:10x30``, whose 30 shuffles
of 200 rows take 5,970 bounds, the largest draw.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "reproduce table1": ["reproduce", "table1"],
    "reproduce table2": ["reproduce", "table2"],
    "reproduce figure1": ["reproduce", "figure1"],
    "evaluate cocomo81 kfold:10": ["evaluate", "--dataset", "cocomo81", "--plan", "kfold:10",
                                   "--format", "json"],
    "evaluate cocomo81 loocv": ["evaluate", "--dataset", "cocomo81", "--plan", "loocv",
                                "--format", "json"],
    "export-folds cocomo81 loocv": ["export-folds", "--dataset", "cocomo81", "--plan", "loocv"],
    "export-folds cocomo81 holdout:10x30": ["export-folds", "--dataset", "cocomo81",
                                            "--plan", "holdout:10x30"],
    "evaluate synth loocv": ["evaluate", "--dataset", "projects.csv", "--schema",
                             "projects.schema", "--plan", "loocv", "--format", "json"],
    "export-folds synth loocv": ["export-folds", "--dataset", "projects.csv", "--schema",
                                 "projects.schema", "--plan", "loocv"],
    "export-folds synth holdout:10x30": ["export-folds", "--dataset", "projects.csv",
                                         "--schema", "projects.schema",
                                         "--plan", "holdout:10x30"],
}


def measure(src: str, argv: list[str]) -> dict:
    """Run one command in a child interpreter; this process has no other child."""
    with tempfile.TemporaryDirectory() as work:
        inputs = ()
        if argv[0] == "reproduce":
            argv = argv + ["--out", work]
        if "projects.csv" in argv:  # the csv-loocv workload's CSV, from this checkout
            sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
            from perfbench import synth
            inputs = synth.write(synth.generate(1), Path(work))
        env = {**os.environ, "PYTHONPATH": src}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "atlm", *argv], capture_output=True,
                              env=env, cwd=work)
        wall = time.perf_counter() - start
        digest = hashlib.sha256(done.stdout)
        for path in sorted(set(Path(work).iterdir()) - set(inputs)):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"status": done.returncode, "wall_s": wall, "sha256": digest.hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def launch(src: str, argv: list[str]) -> dict:
    done = subprocess.run([sys.executable, __file__, "--measure", src, "--", *argv],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def outputs_identical(launches: list[dict]) -> bool:
    """Whether every launch exited 0 and all wrote the same bytes.  A launch
    that fails writes nothing, so failures alone would read as identical."""
    return (all(run["status"] == 0 for run in launches)
            and len({run["sha256"] for run in launches}) == 1)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=DIR")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--out")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, args.argv)))
        return 0
    trees = dict(t.split("=", 1) for t in args.tree)
    if len(trees) != 2 or args.runs < 2:
        parser.error("give exactly two --tree NAME=DIR and --runs >= 2")
    names = list(trees)
    samples = {cmd: {name: [] for name in names} for cmd in COMMANDS}
    for run in range(args.runs):
        order = names if run % 2 == 0 else names[::-1]
        for cmd, argv in COMMANDS.items():
            for name in order:
                samples[cmd][name].append(launch(str(Path(trees[name], "src").resolve()), argv))
    report = {
        "method": "fresh `python -m atlm` per launch; runs alternate between the trees; "
                  "peak_rss_mb is the child's ru_maxrss",
        "machine": {"python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"),
                    "scipy": importlib.metadata.version("scipy"),
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "runs_per_tree": args.runs,
        "commands": {},
    }
    for cmd, by_tree in samples.items():
        entry = {name: {"wall_s": quartiles([s["wall_s"] for s in runs]),
                        "peak_rss_mb": quartiles([s["peak_rss_mb"] for s in runs]),
                        "statuses": sorted({s["status"] for s in runs})}
                 for name, runs in by_tree.items()}
        entry["outputs_identical"] = outputs_identical(
            [s for runs in by_tree.values() for s in runs])
        report["commands"][cmd] = entry
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
