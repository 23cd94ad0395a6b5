#!/usr/bin/env python3
"""A/B perfbench pairs: two git revisions, alternating untraced runs.

    python3 tools/ab_perfbench.py BASE CHANGE --workload batch_clean \\
        --scratch /tmp/ab --pairs 10 --seconds 30 --seeds 10,11,12,13,14

Run from a checkout. It exports BASE and CHANGE (any git revisions) into
SCRATCH/a and SCRATCH/b, paths of the same length (the length of a
checkout's path alone moves `train`'s readings), and runs
`perfbench/run.py --trace 0` in each, one pair at a time. Within a pair the
side that runs first alternates, base first in pair 1. With --seeds
S0,S1,... (default 0) pair i runs on seed S(i mod n), so a claim can be
checked on seeds not used while the change was written. It prints each
pair's seed and end-to-end metrics, then per metric the medians, the base
runs' interquartile range and the pairs in which the change is better, with
the direction (higher or lower) read from BENCHMARK.json. Each run leads a
new session; a pair where a run left a process of its group running is
marked. Standard library only; it writes nothing outside SCRATCH.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def checkout_dirs(scratch) -> dict:
    """The two checkout directories, one per side: paths of equal length."""
    return {"base": Path(scratch) / "a", "change": Path(scratch) / "b"}


def export(rev: str, dest: Path) -> None:
    """The files of git revision rev, written into the new directory dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_order(pair: int) -> tuple:
    """The sides in the order they run in pair number `pair` (from 0)."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def pair_seed(pair: int, seeds: list) -> int:
    """The seed that pair number `pair` (from 0) runs on: the seeds in turn."""
    return seeds[pair % len(seeds)]


def positive_int(text: str) -> int:
    """--pairs: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def parse_seeds(text: str) -> list:
    """--seeds: comma-separated integers."""
    return [int(s) for s in text.split(",")]


def run_benchmark(argv: list, cwd) -> tuple:
    """Run argv in cwd as the leader of a new session, its output in unnamed
    files in cwd, so a process it leaves behind holds no pipe open. Returns
    (the completed process, whether a process of its group is still running)."""
    with (tempfile.TemporaryFile("w+", dir=cwd) as out,
          tempfile.TemporaryFile("w+", dir=cwd) as err):
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                start_new_session=True)
        proc.wait()
        try:
            os.killpg(proc.pid, 0)  # the group, named by its leader: anyone left?
            left = True
        except ProcessLookupError:
            left = False
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(argv, proc.returncode, out.read(), err.read()), left


def parse_result(stdout: str) -> dict:
    """perfbench's result: the JSON on the last non-blank line of its stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no result line in the benchmark's output")
    return json.loads(lines[-1])


def value(result: dict, name: str) -> float:
    """Metric name's value in a perfbench result."""
    return result["metrics"][name]["value"]


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric (name, better) with better "higher" or "lower": base and
    change medians, the base runs' quartile distance ("inclusive"
    quartiles, numpy's default) and the pairs where the change is strictly
    better. pairs holds one {"base": result, "change": result} per pair."""
    out = {}
    for name, better in metrics:
        base = [value(p["base"], name) for p in pairs]
        change = [value(p["change"], name) for p in pairs]
        q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                     if len(base) > 1 else (base[0],) * 3)
        wins = sum((c > b) if better == "higher" else (c < b)
                   for b, c in zip(base, change))
        out[name] = {"base_median": statistics.median(base),
                     "change_median": statistics.median(change),
                     "base_iqr": q3 - q1, "wins": wins, "pairs": len(pairs),
                     "better": better}
    return out


def report(pairs: list, metrics: list) -> str:
    """The per-pair table and the per-metric summary, as printed."""
    names = [name for name, _ in metrics]
    lines = ["pair  seed first  " + "  ".join(f"{n + ' base->change':>34}" for n in names)]
    for i, p in enumerate(pairs):
        cells = [f"{value(p['base'], n):>16.6g}->{value(p['change'], n):<16.6g}"
                 for n in names]
        lines.append(f"{i + 1:>4} {p['seed']:>5} {run_order(i)[0]:<6} " + "  ".join(cells)
                     + ("" if p["base"]["correct"] and p["change"]["correct"]
                        else "  (an output check failed)")
                     + ("  (left a process running)"
                        if any(p[side].get("left_running") for side in SIDES) else ""))
    for name, s in summarize(pairs, metrics).items():
        rel = (s["change_median"] / s["base_median"] - 1.0) if s["base_median"] else 0.0
        lines.append(f"{name} ({s['better']} is better): median {s['base_median']:.6g} -> "
                     f"{s['change_median']:.6g} ({rel:+.1%}), base IQR {s['base_iqr']:.6g}, "
                     f"change better in {s['wins']} of {s['pairs']} pairs")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git revision of the parent, e.g. HEAD~1")
    p.add_argument("change", help="git revision of the change, e.g. HEAD")
    p.add_argument("--workload", required=True)
    p.add_argument("--scratch", required=True, help="new directory for both checkouts")
    p.add_argument("--pairs", type=positive_int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seeds", type=parse_seeds, default="0",
                   help="comma-separated seeds, taken in turn by the pairs")
    args = p.parse_args(argv)
    dirs = checkout_dirs(args.scratch)
    for side, rev in zip(SIDES, (args.base, args.change)):
        export(rev, dirs[side])
    metrics = [(m["name"], m["better"]) for m in
               json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]]
    pairs = []
    for i in range(args.pairs):
        pair = {"seed": pair_seed(i, args.seeds)}
        for side in run_order(i):
            proc, left = run_benchmark(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(pair["seed"]), "--seconds", str(args.seconds), "--trace", "0"],
                dirs[side])
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            pair[side] = parse_result(proc.stdout) | {"left_running": left}
        pairs.append(pair)
        print(f"pair {i + 1} seed {pair['seed']}: " + ", ".join(
            f"{s} {value(pair[s], metrics[0][0]):.6g}" for s in SIDES), flush=True)
    print(report(pairs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
