#!/usr/bin/env python3
"""baggrasp benchmark.

    python3 perfbench/run.py --workload batch_clean --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: it imports baggrasp from ./src. With
--trace 0 it imports baggrasp and sets up several times, then runs whole
passes over the workload's operations in a closed loop for about --seconds
and reports the end-to-end metrics, with every timing scaled to nominal
machine speed by a reference computation timed around it (speed.py). With
--trace 1 it makes one pass in which each operation runs untraced and then
again with every public baggrasp function wrapped, and reports per-layer
metrics and the tracing overhead. Outputs are checked against
perfbench/reference.json, or, for a seed without one, for finite values and
bit-identical repeats. The last line of stdout is the result as JSON; a
record with the machine and every sample goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these when numpy is first imported, so they are set first, and
# always to one thread whatever the environment says: a multi-threaded BLAS
# call waits for its slowest thread, so on a small shared machine its
# timings spread more from run to run.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import check  # noqa: E402  (after the BLAS settings above)
import speed  # noqa: E402
import tracer  # noqa: E402

MODULES = ("so3", "image_io", "classical", "learned", "denoise", "trajectory",
           "kinematics", "sim", "cli")
IMPORT_REPS = 5
SETUP_REPS = 5
MIN_PASSES = 2
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}

# Per-layer timings: span name and unit. Each gives <name>.<unit> (median
# per call), <name>.<unit>.p_hi (see tracer.high_percentile) and
# <name>.calls (calls per operation).
TIMED = (
    ("kinematics.control_step", "us"), ("kinematics.fk_and_jacobian", "us"),
    ("kinematics.pinv", "us"), ("kinematics.compute_error", "us"),
    ("so3.exp_so3", "us"), ("so3.rotation_error", "us"),
    ("trajectory.sample", "us"), ("trajectory.plan", "us"),
    ("sim.step_plant", "us"), ("sim.run_control", "ms"),
    ("sim.add_pixel_noise", "ms"), ("sim.generate_scene", "ms"),
    ("sim.run_episode", "ms"), ("sim.write_episode_artifacts", "ms"),
    ("classical.classical_pipeline", "ms"), ("classical.gaussian_blur", "ms"),
    ("classical.canny", "ms"), ("classical.find_contours", "ms"),
    ("classical.detect_ball", "ms"), ("classical.select_grasp", "ms"),
    ("image_io.to_gray", "ms"), ("image_io.save_ppm", "ms"),
    ("image_io.load_ppm", "ms"), ("image_io.load_pgm", "ms"),
    ("image_io.resize_bilinear", "ms"),
    ("denoise.denoise", "ms"), ("denoise.cluster", "ms"),
    ("learned.backward", "ms"), ("learned.forward_batch", "ms"),
    ("learned.batch_tensors", "ms"), ("learned.preprocess", "ms"),
)
SELF_MS = ("sim.run_control", "cli.main")


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name, unit in TIMED:
        units[f"{name}.{unit}"] = unit
        units[f"{name}.{unit}.p_hi"] = unit
        units[f"{name}.calls"] = "count"
    for name in SELF_MS:
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "kinematics.load_arm.calls": "count",
        "classical.proposal_yield": "frac",
        "denoise.proposals_per_call": "count",
        "denoise.winner_share": "frac",
        "learned.train.s_per_epoch": "s",
        "learned.load_dataset.s": "s",
    })
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.share"] = "frac"
    units.update({"trace.op_s": "s", "trace.untraced_op_s": "s",
                  "trace.overhead_frac": "frac"})
    return units


END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}


def machine_record() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC, "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "git_commit": git_commit(ROOT)}


def git_commit(root: Path) -> str:
    """HEAD commit read from .git files, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checker:
    """Counts operations and the ones that failed. Outputs are compared with
    the stored reference when there is one, and always with earlier runs of
    the same operation; index -1 is the set-up warm-up."""

    def __init__(self, reference_ops):
        self.reference_ops = reference_ops
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed: set[str] = set()
        self.failures: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed.add(label)
        self.failures.append(f"{label}: {message}")

    def record(self, label: str, index: int, out, error: str | None = None) -> bool:
        self.attempted += 1
        problems = [error] if error else self.problems(index, out)
        for p in problems:
            self.fail(label, p)
        return not problems

    def problems(self, index: int, out) -> list[str]:
        problems = check.non_finite(out)
        if self.reference_ops is not None and index >= 0:
            problems += check.compare(self.reference_ops[index], out)
        fp = check.fingerprint(out)
        if self.first.setdefault(index, fp) != fp:
            problems.append("outputs differ from an earlier run of the same operation")
        return problems

    def check_warm(self, wl, label: str, out0) -> None:
        """The warm-up's outputs must equal the start of operation 0's."""
        warm = self.first.get(-1)
        if out0 is not None and warm is not None and (
                check.fingerprint(wl.warm_view(json.loads(warm)))
                != check.fingerprint(wl.warm_view(out0))):
            self.fail(label, "outputs differ from the set-up warm-up")


class Clock:
    """Times the speed kernel between timed steps and scales each step's
    wall time to the nominal machine speed: wall * NOMINAL_S / the mean of
    the kernel times right before and right after the step."""

    def __init__(self):
        speed.kernel()  # the first run pays for loading LAPACK and warming caches
        self.kernel_s = [speed.time_kernel()]

    def scaled(self, wall: float) -> float:
        before = self.kernel_s[-1]
        self.kernel_s.append(speed.time_kernel())
        return wall * speed.NOMINAL_S / ((before + self.kernel_s[-1]) / 2)


def run_op(wl, checker: Checker, label: str, index: int, span=None):
    """One timed operation; returns (wall seconds, outputs or None)."""
    t0 = time.perf_counter()
    try:
        if span is None:
            raw = wl.run_op(index)
        else:
            with span("bench.op"):
                raw = wl.run_op(index)
        wall = time.perf_counter() - t0
        out = wl.outputs(index, raw)
    except Exception:  # the loop must go on; the failure is counted
        checker.record(label, index, None, traceback.format_exc().strip())
        return time.perf_counter() - t0, None
    if not checker.record(label, index, out):
        return wall, None
    return wall, out


def setup(wl, checker: Checker, reps: int, clock: Clock | None = None):
    """Set up `reps` times; returns the wall times and, with a clock, the
    scaled ones."""
    times, scaled = [], []
    for rep in range(reps):
        t0 = time.perf_counter()
        try:
            out, error = wl.setup(), None
        except Exception:  # counted; the operations then show what still works
            out, error = None, traceback.format_exc().strip()
        times.append(time.perf_counter() - t0)
        if clock is not None:
            scaled.append(clock.scaled(times[-1]))
        checker.record(f"setup{rep}", -1, out, error)
    return times, scaled


def throughput(items: list[list[int]], walls: list[list[float]]) -> float:
    """Items per second over one pass, with each operation's time the median
    of its times over the passes: walls[p][i] is operation i in pass p, and
    items[p][i] what it completed (0 if it failed)."""
    done = sum(statistics.mean(col) for col in zip(*items))
    return done / sum(statistics.median(col) for col in zip(*walls))


def run_untraced(wl, checker: Checker, seconds: float,
                 import_times: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """Whole passes over the operations, so that every operation runs equally
    often and at least MIN_PASSES times. A further pass starts only if one
    as long as the last would end within `seconds`. `import_times` are the
    wall and scaled times of the imports of baggrasp."""
    clock = Clock()
    setup_times, setup_scaled = setup(wl, checker, SETUP_REPS, clock)
    n_ops = wl.params["ops"]
    items, walls, scaled = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        items.append([])
        walls.append([])
        scaled.append([])
        for index in range(n_ops):
            label = f"pass{len(walls) - 1}.op{index}"
            wall, out = run_op(wl, checker, label, index)
            if len(walls) == 1 and index == 0:
                checker.check_warm(wl, label, out)
            items[-1].append(wl.items_per_op() if out is not None else 0)
            walls[-1].append(wall)
            scaled[-1].append(clock.scaled(wall))
        now = time.perf_counter()
        if len(walls) >= MIN_PASSES and 2 * now - pass_start > start + seconds:
            break
    ok_frac = 1.0 - len(checker.failed) / checker.attempted
    import_wall, import_scaled = import_times
    metrics = {
        "items_per_s": throughput(items, scaled),
        "setup_s": statistics.median(import_scaled) + statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok_frac,
    }
    flat = [w for row in walls for w in row]
    level, hi = tracer.high_percentile(flat)
    detail = {"wall_clock": {
                  "items_per_s": throughput(items, walls),
                  "setup_s": statistics.median(import_wall) + statistics.median(setup_times)},
              "op_walls_s": walls, "op_scaled_s": scaled,
              "op_wall_median_s": statistics.median(flat),
              "op_wall_p_hi": {"level": level, "s": hi},
              "passes": len(walls), "setup_times_s": setup_times,
              "setup_scaled_s": setup_scaled, "import_times_s": import_wall,
              "import_scaled_s": import_scaled, "kernel_s": clock.kernel_s,
              "nominal_kernel_s": speed.NOMINAL_S,
              "items_per_op": wl.items_per_op(), "item": wl.item,
              "failed_frac": 1.0 - ok_frac,
              "outputs": {i: json.loads(fp) for i, fp in sorted(checker.first.items())}}
    return metrics, detail


def run_traced(wl, checker: Checker, bg_modules) -> tuple[dict, dict, object]:
    """One pass over the operations, each run untraced and then traced, so
    drift in the machine's speed lands on both sides of the overhead ratio
    alike. The pass is fixed, not timed, so sample counts, percentile levels
    and per-operation averages cover the same inputs on every machine."""
    setup(wl, checker, 1)
    clusters = []

    def observe_cluster(args, kwargs, result):
        proposals = args[0] if args else kwargs["proposals"]
        clusters.append((len(proposals), max((len(c) for c in result), default=0)))

    tr = tracer.Tracer("baggrasp", bg_modules, {"denoise.cluster": observe_cluster})
    plain, traced = [], []
    k = wl.params["ops"]
    for index in range(k):
        wall, out = run_op(wl, checker, f"untraced{index}", index)
        if index == 0:
            checker.check_warm(wl, "untraced0", out)
        plain.append(wall)
        tr.install()
        try:  # the checker compares these outputs with the untraced run's
            traced.append(run_op(wl, checker, f"traced{index}", index, span=tr.span)[0])
        finally:
            tr.uninstall()
    metrics, table = layer_metrics(tr.records(), k, clusters, wl)
    metrics["trace.op_s"] = sum(traced) / k
    metrics["trace.untraced_op_s"] = sum(plain) / k
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    return metrics, {"untraced_walls_s": plain, "traced_walls_s": traced,
                     "functions": table}, tr


def layer_metrics(records, k: int, clusters, wl) -> tuple[dict, dict]:
    selfs = tracer.self_times(records)
    dur, own, ok = defaultdict(list), defaultdict(list), defaultdict(int)
    for (name, start, end, _, good), st in zip(records, selfs):
        dur[name].append(end - start)
        own[name].append(st)
        ok[name] += good
    wall = sum(dur["bench.op"])
    m = {}
    for name, unit in TIMED:
        d = dur.get(name, [])
        m[f"{name}.{unit}"] = statistics.median(d) * SCALE[unit] if d else 0.0
        m[f"{name}.{unit}.p_hi"] = tracer.high_percentile(d)[1] * SCALE[unit]
        m[f"{name}.calls"] = len(d) / k
    for name in SELF_MS:
        m[f"{name}.self_ms"] = statistics.median(own[name]) * 1e3 if own[name] else 0.0
    m["kinematics.load_arm.calls"] = len(dur.get("kinematics.load_arm", [])) / k
    frames = len(dur.get("classical.classical_pipeline", []))
    m["classical.proposal_yield"] = ok["classical.classical_pipeline"] / frames if frames else 0.0
    m["denoise.proposals_per_call"] = (statistics.mean(n for n, _ in clusters)
                                       if clusters else 0.0)
    m["denoise.winner_share"] = (statistics.mean(w / n for n, w in clusters if n)
                                 if clusters else 0.0)
    train = dur.get("learned.train", [])
    m["learned.train.s_per_epoch"] = (statistics.median(train) / wl.params["epochs"]
                                      if train else 0.0)
    load = dur.get("learned.load_dataset", [])
    m["learned.load_dataset.s"] = statistics.median(load) if load else 0.0
    for mod in MODULES:
        total = sum(sum(v) for n, v in own.items() if n.startswith(mod + "."))
        m[f"{mod}.self_s"] = total / k
        m[f"{mod}.share"] = total / wall if wall else 0.0
    table = {}
    for name in sorted(dur):
        level, hi = tracer.high_percentile(dur[name])
        table[name] = {"calls": len(dur[name]), "median_s": statistics.median(dur[name]),
                       "p_hi_level": level, "p_hi_s": hi,
                       "self_s": sum(own[name]), "failed": len(dur[name]) - ok[name]}
    return m, table


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_times(reps: int) -> tuple[float, list[float], list[float]]:
    """Seconds to import baggrasp: once cold, then `reps` times afresh, each
    also scaled to the nominal machine speed; the modules of the last
    import stay in use. Returns (cold, walls, scaled)."""
    clock = None
    walls, scaled = [], []
    for _ in range(reps + 1):
        for name in [n for n in sys.modules
                     if n == "baggrasp" or n.startswith("baggrasp.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("baggrasp.cli")
        walls.append(time.perf_counter() - t0)
        if clock is None:  # after the cold import, so it does not warm it
            clock = Clock()
        else:
            scaled.append(clock.scaled(walls[-1]))
    return walls[0], walls[1:], scaled


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "baggrasp" / "__init__.py").is_file():
        print(f"error: no baggrasp sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    first_import_s, *reimport_s = import_times(IMPORT_REPS)
    import baggrasp
    import workloads
    if Path(baggrasp.__file__).resolve().parent != (SRC / "baggrasp").resolve():
        print(f"error: imported baggrasp from {baggrasp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    try:
        reference_ops = check.reference_ops(check.load_reference(), wl_cls.name,
                                            wl_cls.params, args.seed)
    except (OSError, ValueError) as err:
        print(f"error: cannot use {check.REFERENCE_FILE}: {err}", file=sys.stderr)
        return 2

    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = BENCH_DIR / "results"
    work_dir.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    wl = wl_cls(args.seed, work_dir)
    checker = Checker(reference_ops)
    tr = None
    try:
        if args.trace:
            bg_modules = [sys.modules[f"baggrasp.{m}"] for m in MODULES]
            metrics, detail, tr = run_traced(wl, checker, bg_modules)
            units = per_layer_units()
        else:
            metrics, detail = run_untraced(wl, checker, args.seconds, tuple(reimport_s))
            detail["first_import_s"] = first_import_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tr is not None:
        tr.write_csv(results / f"{stem}-spans.csv")
    correct = not checker.failures
    record = {"workload": args.workload, "why": wl.why, "params": wl.params,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "reference": reference_ops is not None, "machine": machine_record(),
              "metrics": metrics, "units": units, "detail": detail,
              "correct": correct, "attempted": checker.attempted,
              "failures": checker.failures}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"baggrasp benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} reference={'stored' if record['reference'] else 'none'}")
    for key, val in record["machine"].items():
        print(f"  machine.{key}: {val}")
    for name in units:
        print(f"  {name:42s} {metrics[name]:14.6g} {units[name]}")
    for name, value in detail.get("wall_clock", {}).items():
        print(f"  {'wall clock ' + name:42s} {value:14.6g} {units[name]}")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": len(checker.failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
