"""Golden outputs: fixed seeds, stored values, explicit tolerances.

Run-to-run equality cannot see a refactor that drifts the numbers, so each
case here is compared against `tests/data/golden.json`. The cases go through
the CLI and `sim.run_batch`, the entry points users call: episodes read back
the `report.json` each one writes, `plan` keeps a sample of its CSV rows and
training its per-epoch losses.

Regenerate the data only for an intended change of outputs, naming the
cases to record (all of them when none is named):
    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from baggrasp import cli, config, sim

GOLDEN_FILE = Path(__file__).parent / "data" / "golden.json"

# field -> (rtol, atol); None means exact equality (bools, strings, counts).
TOLERANCES = {
    "success": None,
    "reason": None,
    "proposal": None,                 # null when vision fails
    "final_pos_err": (1e-6, 1e-9),    # metres
    "final_yaw_err": (1e-6, 1e-9),    # radians
    "proposal_px_err": (1e-6, 1e-6),  # pixels
    "x": (1e-6, 1e-9),                # metres
    "y": (1e-6, 1e-9),
    "theta": (1e-6, 1e-9),            # radians
    "t": (1e-6, 1e-9),                # seconds
    "frames_attempted": None,
    "proposals_collected": None,
    "control_steps": None,
    "success_rate": None,
    "good_grasp_rate": None,
    "plan_rows": (1e-6, 1e-9),        # t, pose, velocity, rotation, w_ff
    "losses": (1e-6, 1e-12),
}

FILE_PROPOSALS = [{"x": 0.6, "y": 0.05, "theta": 0.3, "t": float(t)}
                  for t in range(3)]


def _report(out_dir: Path) -> dict:
    rep = json.loads((out_dir / "report.json").read_text())
    return {k: rep[k] for k in ("success", "reason", "proposal", "final_pos_err",
                                "final_yaw_err", "proposal_px_err", "stats")}


def _simulate(argv, out_dir: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["simulate", *argv, "--out", str(out_dir)])
    assert rc == 0
    return _report(out_dir)


def _file_vision(tmp: Path) -> dict:
    props = tmp / "props.jsonl"
    props.write_text("".join(json.dumps(p) + "\n" for p in FILE_PROPOSALS))
    return _simulate(["--seed", "0", "--vision", "file", "--proposals",
                      str(props)], tmp / "file")


def _batch(tmp: Path) -> dict:
    out = tmp / "batch"
    _, success_rate, good_rate = sim.run_batch(config.PipelineConfig(), 3, 20,
                                               out_dir=out)
    return {"success_rate": success_rate, "good_grasp_rate": good_rate,
            "episodes": [_report(out / f"episode_{i:03d}") for i in range(3)]}


def _plan(tmp: Path) -> dict:
    """Every 25th row of the `plan` CSV plus the last row."""
    out = tmp / "traj.csv"
    assert cli.main(["plan", "--target", "0.6,0.05", "--theta", "0.3",
                     "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    return {"plan_rows": rows[:-1:25] + rows[-1:]}


def _train(tmp: Path) -> dict:
    data, loss_csv = tmp / "data", tmp / "loss.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["genscenes", "--n", "8", "--seed", "0",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--epochs", "3",
                         "--seed", "0", "--out", str(tmp / "params.bin"),
                         "--loss-out", str(loss_csv)]) == 0
    rows = loss_csv.read_text().splitlines()[1:]
    return {"losses": [float(row.split(",")[1]) for row in rows]}


CASES = {
    "classical_seed7": lambda tmp: _simulate(["--seed", "7"], tmp / "ep7"),
    "classical_batch3_seed20": _batch,
    "noisy_seed4": lambda tmp: _simulate(
        ["--seed", "4", "--set", "noise_sigma=2", "--set", "frame_rate=4"],
        tmp / "noisy"),
    "file_vision": _file_vision,
    "flat_vision_failure": lambda tmp: _simulate(["--seed", "9", "--flat"],
                                                 tmp / "flat"),
    "plan_target_0.6_0.05": _plan,
    "train_epochs3_seed0": _train,
}


def compare(ref, got, field=None, path="") -> list[str]:
    """Mismatches between stored and fresh outputs, one line each."""
    where = path or "<root>"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{where}: keys differ"]
        return [m for k in sorted(ref)
                for m in compare(ref[k], got[k], k, f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in compare(r, g, field, f"{path}[{i}]")]
    if field not in TOLERANCES:
        return [f"{where}: no tolerance defined for field {field!r}"]
    tol = TOLERANCES[field]
    if tol is None or not isinstance(ref, float) or not isinstance(got, float):
        if type(ref) is not type(got) or ref != got:
            return [f"{where}: expected {ref!r}, got {got!r}"]
        return []
    rtol, atol = tol
    if not math.isfinite(got) or abs(got - ref) > atol + rtol * abs(ref):
        return [f"{where}: expected {ref!r} within rtol={rtol} atol={atol}, "
                f"got {got!r}"]
    return []


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    golden = json.loads(GOLDEN_FILE.read_text())
    assert compare(golden[case], CASES[case](tmp_path)) == []


def test_compare_catches_drift():
    ref = {"final_pos_err": 1e-3, "success": True, "stats": {"control_steps": 700}}
    assert compare(ref, dict(ref)) == []
    assert compare(ref, {**ref, "final_pos_err": 1e-3 * (1 + 1e-5)})
    assert compare(ref, {**ref, "success": False})
    assert compare(ref, {**ref, "stats": {"control_steps": 699}})
    assert compare({"unlisted": 1.0}, {"unlisted": 1.0})


if __name__ == "__main__":
    import tempfile

    # Named cases are recorded again; the others keep their stored values.
    names = sys.argv[1:] or sorted(CASES)
    data = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        data.update({name: CASES[name](Path(tmp)) for name in names})
    GOLDEN_FILE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}", file=sys.stderr)
