import importlib.util
import json
import os
import signal
import statistics
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_perfbench.py"
_SPEC = importlib.util.spec_from_file_location("ab_perfbench", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = [("items_per_s", "higher"), ("setup_s", "lower")]


def _result(items, setup) -> dict:
    """A parsed perfbench result line, as run.py prints it."""
    return ab.parse_result(json.dumps({
        "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"items_per_s": {"value": items, "unit": "1/s"},
                    "setup_s": {"value": setup, "unit": "s"}}}))


def test_checkouts_sit_at_paths_of_equal_length(tmp_path):
    dirs = ab.checkout_dirs(tmp_path / "scratch")
    assert set(dirs) == {"base", "change"} and dirs["base"] != dirs["change"]
    assert len(str(dirs["base"])) == len(str(dirs["change"]))


def test_run_order_alternates_from_base_first():
    assert [ab.run_order(i) for i in range(4)] == [
        ("base", "change"), ("change", "base"), ("base", "change"), ("change", "base")]


def test_parse_result_reads_the_last_line():
    line = {"correct": True, "metrics": {"items_per_s": {"value": 31.2, "unit": "1/s"}}}
    stdout = ("baggrasp benchmark: workload=batch_clean seed=0\n"
              "  items_per_s 31.2 1/s\n" + json.dumps(line) + "\n\n")
    assert ab.parse_result(stdout) == line and ab.value(line, "items_per_s") == 31.2
    with pytest.raises(ValueError):
        ab.parse_result("\n  \n")


def test_summary_medians_iqr_and_wins():
    base = [30.0, 31.0, 29.0, 33.0, 32.0, 30.5, 31.5, 28.0, 34.0, 30.0]
    change = [33.0, 34.0, 28.5, 36.0, 35.0, 30.5, 35.0, 31.0, 37.0, 33.0]
    setup_base = [0.14, 0.15, 0.13, 0.14, 0.16, 0.15, 0.14, 0.13, 0.15, 0.14]
    setup_change = [0.13, 0.15, 0.12, 0.15, 0.15, 0.14, 0.14, 0.12, 0.14, 0.13]
    pairs = [{"seed": 10 + i % 3, "base": _result(b, sb), "change": _result(c, sc)}
             for i, (b, c, sb, sc) in enumerate(zip(base, change, setup_base, setup_change))]
    s = ab.summarize(pairs, METRICS)
    items = s["items_per_s"]
    assert items["base_median"] == 30.75 and items["change_median"] == 33.5
    # Inclusive quartiles of the sorted base runs 28, 29, 30, 30, 30.5, 31,
    # 31.5, 32, 33, 34: positions 2.25 and 6.75 give 30 and 31.875.
    assert items["base_iqr"] == pytest.approx(31.875 - 30.0)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    assert items["base_iqr"] == q3 - q1
    # Higher is better: a tie (pair 6) and a loss (pair 3) are not wins.
    assert (items["wins"], items["pairs"]) == (8, 10)
    # Lower is better for setup_s: 7 pairs are lower, 2 tie, 1 is higher.
    assert s["setup_s"]["wins"] == 7
    text = ab.report(pairs, METRICS)
    assert "change better in 8 of 10 pairs" in text and "median 30.75 -> 33.5 (+8.9%)" in text
    assert "output check failed" not in text
    assert [line.split()[:3] for line in text.splitlines()[1:4]] == [
        ["1", "10", "base"], ["2", "11", "change"], ["3", "12", "base"]]
    pairs[0]["change"]["correct"] = False
    assert ab.report(pairs, METRICS).count("output check failed") == 1


def test_a_pair_whose_run_left_a_process_is_marked():
    pairs = [{"seed": 0, "base": _result(30.0, 0.1), "change": _result(31.0, 0.1)}
             for _ in range(3)]
    pairs[1]["change"]["left_running"] = True
    pairs[2]["base"]["left_running"] = False
    lines = ab.report(pairs, METRICS).splitlines()[1:4]
    assert ["left a process running" in line for line in lines] == [False, True, False]


def test_run_benchmark_probes_the_run_s_process_group(tmp_path):
    # A real short-lived group (no perfbench): sh leaves a sleep behind,
    # which holds no pipe, so the call returns at once and sees it.
    done, left = ab.run_benchmark(["sh", "-c", "sleep 5 & echo $!"], tmp_path)
    try:
        assert done.returncode == 0 and left
        assert os.getpgid(int(done.stdout)) != os.getpgid(0)  # a group of its own
    finally:
        os.killpg(os.getpgid(int(done.stdout)), signal.SIGKILL)
    done, left = ab.run_benchmark(["sh", "-c", "echo ok; echo no >&2; exit 3"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr, left) == (3, "ok\n", "no\n", False)
    assert list(tmp_path.iterdir()) == []  # the output files had no names


def test_a_single_pair_has_no_spread():
    s = ab.summarize([{"base": _result(30.0, 0.1), "change": _result(29.0, 0.1)}], METRICS)
    assert s["items_per_s"]["base_iqr"] == 0.0 and s["items_per_s"]["wins"] == 0


def test_pairs_take_the_seeds_in_turn(tmp_path, monkeypatch, capsys):
    # main() with its exports and benchmark runs replaced by canned results
    # (no benchmark runs): pair i runs both sides on seed i mod n, and each
    # pair's line names it; with one seed every pair runs on it.
    def export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": n, "better": b} for n, b in METRICS]}))

    runs = []

    def run(argv, cwd, **kwargs):
        seed = int(argv[argv.index("--seed") + 1])
        runs.append((Path(cwd).name, seed))
        line = json.dumps({"correct": True, "metrics": {
            "items_per_s": {"value": 30.0 + seed}, "setup_s": {"value": 0.1}}})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run_benchmark", lambda argv, cwd: (run(argv, cwd), False))
    assert [ab.pair_seed(i, [10, 11, 12]) for i in range(5)] == [10, 11, 12, 10, 11]
    argv = ["HEAD~1", "HEAD", "--workload", "batch_clean", "--pairs", "5"]
    assert ab.main([*argv, "--scratch", str(tmp_path / "one"), "--seeds", "10,11"]) == 0
    assert runs == [("a", 10), ("b", 10), ("b", 11), ("a", 11), ("a", 10), ("b", 10),
                    ("b", 11), ("a", 11), ("a", 10), ("b", 10)]
    out = capsys.readouterr().out
    assert "pair 1 seed 10: base 40, change 40" in out and "pair 4 seed 11:" in out
    runs.clear()
    assert ab.main([*argv, "--scratch", str(tmp_path / "two"), "--seeds", "3"]) == 0
    assert [seed for _, seed in runs] == [3] * 10
    assert "pair 5 seed 3:" in capsys.readouterr().out


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_exit_2_before_any_export(tmp_path, monkeypatch, capsys, pairs):
    exports = []
    monkeypatch.setattr(ab, "export", lambda rev, dest: exports.append(rev))
    with pytest.raises(SystemExit) as exit_:
        ab.main(["HEAD~1", "HEAD", "--workload", "batch_clean", "--pairs", pairs,
                 "--scratch", str(tmp_path / "ab")])
    assert exit_.value.code == 2 and exports == []
    assert "--pairs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "ab").exists()
