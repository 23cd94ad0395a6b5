"""The benchmark's workloads. Each drives baggrasp only through its public
functions, as a closed loop: one operation at a time, the next one starting
after the previous returns.

A workload has a fixed list of operations made from the seed. `setup`
generates the inputs and runs a small warm-up whose outputs must equal the
start of operation 0's outputs. `run_op` is the timed call; `outputs` turns
what it returned into plain JSON data for the checks, outside the timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

from baggrasp import cli, config, learned, sim


class OpFailed(Exception):
    """The program returned an error or left malformed artifacts."""


def _quiet_main(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _row(success, pos_err, yaw_err, px_err) -> dict:
    return {"success": bool(success), "pos_err": pos_err, "yaw_err": yaw_err,
            "proposal_px_err": px_err}


class BatchClean:
    """sim.run_batch called directly, classical vision, default config."""

    name = "batch_clean"
    why = ("noise-free batch: 700 control steps per episode dominate; the 10 "
           "identical frames per episode are what frame de-duplication skips")
    params = {"episodes_per_op": 4, "ops": 4}
    item = "episodes"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.cfg = config.PipelineConfig()

    def first_scene_seed(self, i: int) -> int:
        return self.seed * 1000 + i * self.params["episodes_per_op"]

    def items_per_op(self) -> int:
        return self.params["episodes_per_op"]

    def setup(self) -> dict:
        self.cfg = config.PipelineConfig()
        return self.outputs(0, sim.run_batch(self.cfg, 1, self.first_scene_seed(0)))

    def run_op(self, i: int):
        return sim.run_batch(self.cfg, self.params["episodes_per_op"],
                             self.first_scene_seed(i))

    def outputs(self, i: int, raw) -> dict:
        rows, success_rate, good_rate = raw
        return {"rows": [_row(r["success"], r["pos_err"], r["yaw_err"],
                              r["proposal_px_err"]) for r in rows],
                "success_rate": success_rate, "good_grasp_rate": good_rate}

    @staticmethod
    def warm_view(out0: dict) -> dict:
        return {"rows": out0["rows"][:1]}


class BatchNoisy(BatchClean):
    """`baggrasp simulate --batch` through cli.main, with pixel noise and
    four frames a second, writing every artifact."""

    name = "batch_noisy"
    why = ("noisy frames at 4 Hz: 40 distinct frames per episode make vision "
           "dominate, a frame cache must miss; covers the CLI and artifacts")
    params = {"episodes_per_op": 2, "ops": 4, "noise_sigma": 2, "frame_rate": 4}

    def _argv(self, n: int, first_seed: int, out: Path) -> list[str]:
        return ["simulate", "--batch", str(n), "--seed", str(first_seed),
                "--set", f"noise_sigma={self.params['noise_sigma']}",
                "--set", f"frame_rate={self.params['frame_rate']}",
                "--out", str(out)]

    def setup(self) -> dict:
        out = self.work_dir / "warm"
        return self.outputs(0, (_quiet_main(self._argv(1, self.first_scene_seed(0), out)), out))

    def run_op(self, i: int):
        out = self.work_dir / f"op{i}"
        return (_quiet_main(self._argv(self.params["episodes_per_op"],
                                       self.first_scene_seed(i), out)), out)

    def outputs(self, i: int, raw) -> dict:
        (rc, stdout), out = raw
        try:
            if rc != 0:
                raise OpFailed(f"simulate exited with {rc}")
            lines = stdout.strip().splitlines()
            if lines[-2:-1] != ["episodes,success_rate,good_grasp_rate"]:
                raise OpFailed(f"unexpected simulate output {stdout!r}")
            n, success_rate, good_rate = lines[-1].split(",")
            summary = (out / "summary.csv").read_text().splitlines()
            if summary[0] != sim.SUMMARY_HEADER or len(summary) != int(n) + 1:
                raise OpFailed("summary.csv header or row count is wrong")
            rows = []
            for k in range(int(n)):
                ep = out / f"episode_{k:03d}"
                rep = json.loads((ep / "report.json").read_text())
                row = _row(rep["success"], rep["final_pos_err"],
                           rep["final_yaw_err"], rep["proposal_px_err"])
                text = [str(k), str(int(row["success"]))] + [
                    "nan" if row[f] is None else repr(row[f])
                    for f in ("pos_err", "yaw_err", "proposal_px_err")]
                if summary[k + 1] != ",".join(text):
                    raise OpFailed(f"summary.csv row {k} disagrees with {ep}/report.json")
                for art in ("trace.csv", "overlay.ppm"):
                    if (ep / art).stat().st_size == 0:
                        raise OpFailed(f"{ep / art} is empty")
                rows.append(row)
            return {"rows": rows, "success_rate": float(success_rate),
                    "good_grasp_rate": float(good_rate)}
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Train:
    """`baggrasp train` through cli.main on a dataset that `genscenes`
    writes during set-up."""

    name = "train"
    why = ("learned model training from PPM/PGM files: learned and image_io "
           "readers do the work, control and classical vision do none")
    params = {"scenes": 64, "epochs": 5, "ops": 8}
    item = "samples x epochs"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.data = self.work_dir / "data"
        self.samples = 0

    def train_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def items_per_op(self) -> int:
        return self.samples * self.params["epochs"]

    def _argv(self, epochs: int, i: int) -> list[str]:
        return ["train", "--data", str(self.data), "--epochs", str(epochs),
                "--seed", str(self.train_seed(i)),
                "--out", str(self.work_dir / "params.bin"),
                "--loss-out", str(self.work_dir / "loss.csv")]

    def setup(self) -> dict:
        shutil.rmtree(self.data, ignore_errors=True)
        rc = cli.main(["genscenes", "--n", str(self.params["scenes"]),
                       "--seed", str(self.seed * 1000), "--out", str(self.data)])
        if rc != 0:
            raise OpFailed(f"genscenes exited with {rc}")
        self.samples = len(learned.load_dataset(self.data))
        if self.samples == 0:
            raise OpFailed("genscenes wrote no usable training scene")
        return self.outputs(0, _quiet_main(self._argv(1, 0)))

    def run_op(self, i: int):
        return _quiet_main(self._argv(self.params["epochs"], i))

    def outputs(self, i: int, raw) -> dict:
        rc, stdout = raw
        loss_csv = self.work_dir / "loss.csv"
        params_bin = self.work_dir / "params.bin"
        try:
            if rc != 0:
                raise OpFailed(f"train exited with {rc}")
            lines = loss_csv.read_text().splitlines()
            if lines[0] != "epoch,loss":
                raise OpFailed("loss CSV header is wrong")
            losses = [float(line.split(",")[1]) for line in lines[1:]]
            if not losses or stdout.strip() != repr(losses[-1]):
                raise OpFailed("printed final loss disagrees with the loss CSV")
            if params_bin.stat().st_size == 0:
                raise OpFailed("params file is empty")
            return {"loss": losses, "final_loss": losses[-1]}
        finally:
            loss_csv.unlink(missing_ok=True)
            params_bin.unlink(missing_ok=True)

    @staticmethod
    def warm_view(out0: dict) -> dict:
        return {"loss": out0["loss"][:1]}


WORKLOADS = {w.name: w for w in (BatchClean, BatchNoisy, Train)}
