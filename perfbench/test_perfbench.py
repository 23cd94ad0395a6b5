"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from baggrasp import classical, cli, config, image_io, sim  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, tracer.ROOT_PARENT, True),
        ("a", 1.0, 4.0, 0, True),
        ("a.x", 1.5, 2.5, 1, True),
        ("a.y", 3.0, 3.5, 1, False),
        ("b", 5.0, 9.0, 0, True),
        ("b.x", 6.0, 8.0, 4, True),
        ("other_root", 11.0, 12.0, tracer.ROOT_PARENT, True),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [3.0, 1.5, 1.0, 0.5, 2.0, 2.0, 1.0])


def test_high_percentile_needs_ten_samples_beyond():
    assert tracer.high_percentile(range(1, 20)) == (100.0, 19)
    assert tracer.high_percentile(range(1, 21)) == (50.0, 10)
    assert tracer.high_percentile(range(1, 101)) == (90.0, 90)
    assert tracer.high_percentile(range(1, 1001)) == (99.0, 990)
    assert tracer.high_percentile([]) == (100.0, 0.0)


def _package_attributes():
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name == "baggrasp" or name.startswith("baggrasp.")
            for attr, obj in vars(mod).items()}


def test_tracer_wraps_aliases_and_restores_every_attribute():
    before = _package_attributes()
    modules = [sys.modules[f"baggrasp.{m}"] for m in run.MODULES]
    tr = tracer.Tracer("baggrasp", modules)
    cfg = config.PipelineConfig()
    scene = sim.generate_scene(3, cfg)
    tr.install()
    try:
        assert classical.to_gray is not before[("baggrasp.classical", "to_gray")]
        assert cli.classical_pipeline is classical.classical_pipeline
        with tr.span("bench.op"):
            classical.classical_pipeline(scene.rgb, cfg)
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [r[0] for r in tr.records()]
    assert names[0] == "bench.op"
    # to_gray is reached through classical's own `from .image_io import`.
    assert "image_io.to_gray" in names and "classical.find_contours" in names
    pipeline = names.index("classical.classical_pipeline")
    stages = ("classical.gaussian_blur", "classical.canny",
              "classical.find_contours", "classical.detect_ball",
              "classical.select_grasp")
    assert all(r[3] == pipeline for r in tr.records() if r[0] in stages)


def test_span_parents_and_failed_calls_are_recorded():
    tr = tracer.Tracer("baggrasp", [sys.modules["baggrasp.image_io"]])
    tr.install()
    try:
        with tr.span("bench.op"):
            with pytest.raises(image_io.FormatError):
                image_io.load_ppm(BENCH_DIR / "test_perfbench.py")
    finally:
        tr.uninstall()
    recs = tr.records()
    assert recs[0][0] == "bench.op" and recs[0][3] == tracer.ROOT_PARENT
    assert recs[1][0] == "image_io.load_ppm" and recs[1][3] == 0 and recs[1][4] is False
    assert image_io.load_ppm.__module__ == "baggrasp.image_io"
    assert not hasattr(image_io.load_ppm, "__wrapped__")


def _episode(pos_err=1e-4):
    return {"rows": [{"success": True, "pos_err": pos_err, "yaw_err": 2e-5,
                      "proposal_px_err": 0.3}],
            "success_rate": 1.0, "good_grasp_rate": 1.0}


def test_compare_uses_field_tolerances():
    ref = _episode()
    assert check.compare(ref, _episode(1e-4 + 5e-10)) == []
    assert check.compare(ref, _episode(1e-4 + 1e-8)) != []
    assert check.compare(ref, _episode(float("nan"))) != []
    flipped = _episode()
    flipped["rows"][0]["success"] = False
    assert check.compare(ref, flipped) != []
    rate = _episode()
    rate["success_rate"] = 1.0 - 1e-15
    assert check.compare(ref, rate) != []
    assert check.compare({"surprise": 1.0}, {"surprise": 1.0}) != []
    assert check.compare({"loss": [0.5, 0.4]}, {"loss": [0.5]}) != []


def test_non_finite_paths():
    assert check.non_finite(_episode()) == []
    assert check.non_finite({"loss": [0.1, float("inf")]}) == [
        "loss[1]: non-finite value inf"]


def test_corrupted_reference_counts_as_failed():
    good = _episode()
    corrupted = json.loads(json.dumps(good))
    corrupted["rows"][0]["pos_err"] *= 1.01
    checker = run.Checker([corrupted])
    assert checker.record("op0", 0, good) is False
    assert checker.failed == {"op0"} and checker.attempted == 1
    clean = run.Checker([good])
    assert clean.record("op0", 0, good) and not clean.failed


def test_repeat_that_differs_counts_as_failed():
    checker = run.Checker(None)
    assert checker.record("op0", 0, _episode())
    assert checker.record("op4", 0, _episode(2e-4)) is False
    assert checker.failed == {"op4"}


def test_reference_made_with_other_params_is_refused():
    ref = {"workloads": {"train": {"params": {"epochs": 3}, "seeds": {"1": []}}}}
    with pytest.raises(ValueError):
        check.reference_ops(ref, "train", {"epochs": 10}, 1)
    assert check.reference_ops(ref, "train", {"epochs": 3}, 2) is None
    assert check.reference_ops(ref, "batch_clean", {}, 1) is None


def test_stored_reference_matches_workload_params():
    ref = check.load_reference()
    for name, entry in ref["workloads"].items():
        wl = workloads.WORKLOADS[name]
        assert entry["params"] == wl.params
        for ops in entry["seeds"].values():
            assert len(ops) == wl.params["ops"]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_small_train_workload_runs_and_checks(tmp_path):
    class SmallTrain(workloads.Train):
        params = {"scenes": 8, "epochs": 2, "ops": 2}

    wl = SmallTrain(3, tmp_path)
    checker = run.Checker(None)
    times, scaled = run.setup(wl, checker, 2, run.Clock())
    wall, out = run.run_op(wl, checker, "op0", 0)
    checker.check_warm(wl, "op0", out)
    assert len(times) == len(scaled) == 2 and wall > 0 and min(scaled) > 0
    assert len(out["loss"]) == 2 and out["final_loss"] == out["loss"][-1]
    assert checker.failures == [] and checker.attempted == 3


def test_untraced_run_makes_whole_passes_of_at_least_two():
    class Counting:
        params = {"ops": 3}
        item = "calls"

        def __init__(self):
            self.calls = []

        def setup(self):
            return {"loss": [0.5]}

        def run_op(self, i):
            self.calls.append(i)
            return i

        def outputs(self, i, raw):
            return {"loss": [0.5, float(raw)]}

        def items_per_op(self):
            return 1

        @staticmethod
        def warm_view(out0):
            return {"loss": out0["loss"][:1]}

    wl = Counting()
    checker = run.Checker(None)
    metrics, detail = run.run_untraced(wl, checker, 0.0, ([0.1, 0.3], [0.2, 0.4]))
    assert wl.calls == [0, 1, 2, 0, 1, 2] and detail["passes"] == 2
    assert checker.failures == [] and checker.attempted == run.SETUP_REPS + 6
    assert metrics["ok_frac"] == 1.0 and metrics["setup_s"] >= 0.3
    assert detail["wall_clock"]["setup_s"] >= 0.2


def test_throughput_takes_each_operations_median_over_passes():
    # Operation 1 had one slow pass; its median time is 2.0. One failure of
    # operation 0 in three passes leaves it 2/3 of its items on average.
    items = [[3, 3], [0, 3], [3, 3]]
    walls = [[1.0, 2.0], [1.0, 9.0], [1.0, 2.0]]
    assert run.throughput(items, walls) == pytest.approx((2 + 3) / 3.0)


def test_clock_scales_by_the_kernel_time_around_a_step(monkeypatch):
    kernel_times = iter([0.1, 0.3])
    monkeypatch.setattr(run.speed, "kernel", lambda: 0.0)
    monkeypatch.setattr(run.speed, "time_kernel", lambda: next(kernel_times))
    clock = run.Clock()
    assert clock.scaled(4.0) == pytest.approx(4.0 * run.speed.NOMINAL_S / 0.2)
