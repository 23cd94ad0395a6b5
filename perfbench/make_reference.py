#!/usr/bin/env python3
"""Write perfbench/reference.json: every operation's outputs per workload
and seed, as the current sources produce them.

    python3 perfbench/make_reference.py --seeds 0-9 [--workload NAME ...]

Outputs must be finite. Entries of workloads not named are kept. Run this only when a change is meant to alter
the outputs, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run  # sets BLAS threads before numpy is imported
import check

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-9")
    p.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    args = p.parse_args(argv)
    try:
        reference = check.load_reference()
    except FileNotFoundError:
        reference = {"format": 1, "workloads": {}}
    for name in args.workload or list(workloads.WORKLOADS):
        wl_cls = workloads.WORKLOADS[name]
        seeds = {}
        for seed in args.seeds:
            (run.BENCH_DIR / ".work").mkdir(exist_ok=True)
            work = tempfile.mkdtemp(dir=run.BENCH_DIR / ".work")
            try:
                wl = wl_cls(seed, work)
                wl.setup()
                ops = []
                for i in range(wl.params["ops"]):
                    out = wl.outputs(i, wl.run_op(i))
                    problems = check.non_finite(out)
                    if problems:
                        print(f"{name} seed {seed} op {i}: {problems}", file=sys.stderr)
                        return 1
                    ops.append(out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            seeds[str(seed)] = ops
            print(f"{name} seed {seed}: {len(ops)} ops", flush=True)
        reference["workloads"][name] = {"params": wl_cls.params, "seeds": seeds}
    check.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
