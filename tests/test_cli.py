import ast
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from baggrasp import config, image_io, kinematics, learned, sim
from baggrasp.cli import main
from baggrasp.classical import classical_pipeline


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    cfg = config.PipelineConfig()
    scene = sim.generate_scene(11, cfg)
    image_io.save_ppm(scene.rgb, root / "scene.ppm")
    image_io.save_pgm(scene.depth, root / "scene.pgm")
    flat = sim.generate_scene(1, cfg, flat=True)
    image_io.save_ppm(flat.rgb, root / "flat.ppm")
    return root


@pytest.mark.parametrize("mode", ["classical", "learned"])
def test_vision_stamps_the_t_flag_on_the_library_proposal(scene_files, tmp_path,
                                                          capsys, mode):
    # The vision sources give proposals at t = 0; the command stamps --t.
    cfg, params = config.PipelineConfig(), None
    argv = ["vision", "--mode", mode, "--rgb", str(scene_files / "scene.ppm"),
            "--t", "3.5"]
    if mode == "learned":
        learned.save_params(learned.init_params(0), tmp_path / "params.bin")
        params = learned.load_params(tmp_path / "params.bin")
        argv += ["--depth", str(scene_files / "scene.pgm"),
                 "--params", str(tmp_path / "params.bin")]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = sim.vision_source(mode, cfg, params)(
        image_io.load_ppm(scene_files / "scene.ppm"),
        image_io.load_pgm(scene_files / "scene.pgm"))
    assert want.t == 0.0
    assert got == {"x": want.x, "y": want.y, "theta": want.theta, "t": 3.5}


def test_vision_classical_matches_library(scene_files, capsys):
    rc = main(["vision", "--mode", "classical", "--rgb",
               str(scene_files / "scene.ppm")])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    got = json.loads(line)
    cfg = config.PipelineConfig()
    want = classical_pipeline(image_io.load_ppm(scene_files / "scene.ppm"), cfg)
    assert got == {"x": want.x, "y": want.y, "theta": want.theta, "t": want.t}


def test_vision_missing_file_exits_2(tmp_path, capsys):
    rc = main(["vision", "--rgb", str(tmp_path / "nope.ppm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "nope.ppm") in err and "cannot read" in err


def test_vision_blank_scene_exits_1(scene_files, capsys):
    rc = main(["vision", "--rgb", str(scene_files / "flat.ppm")])
    assert rc == 1
    assert "vision failure" in capsys.readouterr().err


def test_vision_overlay_written(scene_files, tmp_path, capsys):
    out = tmp_path / "overlay.ppm"
    rc = main(["vision", "--rgb", str(scene_files / "scene.ppm"),
               "--overlay", str(out)])
    assert rc == 0
    overlay = image_io.load_ppm(out)
    assert (overlay == (255, 0, 0)).all(axis=2).any()
    capsys.readouterr()


def test_vision_bad_subcommand_args(scene_files, capsys):
    rc = main(["vision"])  # --rgb is required
    assert rc == 2
    capsys.readouterr()
    rc = main(["vision", "--rgb", str(scene_files / "scene.ppm"), "--t", "nan"])
    assert rc == 2
    assert "--t" in capsys.readouterr().err


def test_denoise_pipe(monkeypatch, capsys):
    lines = ('{"x": 0.5, "y": 0.1, "theta": 0.2, "t": 1.0}\n'
             '{"x": 0.501, "y": 0.101, "theta": 0.21, "t": 2.0}\n'
             '{"x": 0.9, "y": 0.4, "theta": -0.5, "t": 3.0}\n')
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    rc = main(["denoise"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert abs(got["x"] - 0.5005) < 1e-12
    assert abs(got["theta"] - 0.205) < 1e-12


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
def test_denoise_empty_stdin_exits_2(monkeypatch, capsys, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["denoise"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "<stdin>: no proposals" in captured.err


def test_denoise_malformed_line_exits_2(monkeypatch, capsys):
    for line in ("not json\n", '{"x": null, "y": 0, "theta": 0, "t": 0}\n',
                 '{"x": 1e308, "y": 0, "theta": 0, "t": 0}\n' * 2,
                 '{"x": 0.5, "y": \udcff, "theta": 0, "t": 0}\n'):
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["denoise"]) == 2
        assert "malformed" in capsys.readouterr().err


def test_denoise_non_finite_now_exits_2(monkeypatch, capsys):
    line = '{"x": 0.5, "y": 0.1, "theta": 0.2, "t": 1.0}\n'
    for now in ("nan", "inf", "-inf"):
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["denoise", f"--now={now}"]) == 2, now
        captured = capsys.readouterr()
        assert "--now" in captured.err and captured.out == "", now


def test_plan_csv_boundary_rows(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["plan", "--target", "0.6,0.1", "--theta", "0.3",
               "--start", "0.5,0.0,0.2,0.0", "--ti", "1.0", "--tf", "3.0",
               "--rate", "20", "--grasp-z", "0.01", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    assert header[:7] == ["t", "px", "py", "pz", "vx", "vy", "vz"]
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert first[0] == 1.0 and last[0] == 3.0
    assert np.allclose(first[1:4], (0.5, 0.0, 0.2), atol=1e-9)
    assert np.allclose(last[1:4], (0.6, 0.1, 0.01), atol=1e-9)
    assert np.allclose(first[4:7], 0.0, atol=1e-9)
    assert np.allclose(last[4:7], 0.0, atol=1e-9)
    assert np.allclose(last[16:19], 0.0, atol=1e-9)
    capsys.readouterr()


def test_plan_bad_target_exits_2(capsys):
    assert main(["plan", "--target", "oops"]) == 2
    capsys.readouterr()
    for extra, flag in [(["--target", "nan,0.1"], "--target"),
                        (["--target", "0.6"], "--target"),
                        (["--start", "0.5,0,0.3,nan"], "--start"),
                        (["--start", "a,b,c,d"], "--start"),
                        (["--start", "0.5,0,0.3"], "--start"),
                        (["--grasp-z", "nan"], "--grasp-z"),
                        (["--grasp-z", "1e300"], "--grasp-z"),
                        (["--tf", "nan"], "--tf"),
                        (["--ti", "inf"], "--ti"),
                        (["--theta", "nan"], "--theta"),
                        (["--theta", "3"], "--theta"),
                        (["--rate", "0"], "--rate"),
                        (["--rate", "nan"], "--rate"),
                        (["--ti", "5", "--tf", "5"], "--tf"),
                        (["--rate", "1e300"], "--rate"),
                        (["--tf", "1e9"], "--tf"),
                        (["--tf", "1.0000001e10"], "--tf"),
                        (["--ti", "-1e11"], "--ti: expected a time within"),
                        (["--target", "2000,0"], "--target"),
                        # Valid flags whose start yaw is half a turn from the grasp.
                        (["--start", "0.5,0,0.3,3.141592653589793", "--theta", "0"],
                         "--start, --theta")]:
        # A repeated --target overrides the first one.
        assert main(["plan", "--target", "0.6,0.1", *extra]) == 2, extra
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == "", extra


def test_negative_flag_values_read_as_their_equals_form(monkeypatch, capsys):
    # argparse takes "-0.5,0" and "-1e-3" for options unless written --opt=value.
    line = '{"x": 0.6, "y": 0.1, "theta": 0.2, "t": -1000.5}\n'
    for argv in (["plan", "--target", "-0.5,0"],
                 ["plan", "--target", "0.6,0.1", "--start", "-0.1,0.2,0.3,0"],
                 ["plan", "--target", "0.6,0.1", "--theta", "-1e-3"],
                 ["denoise", "--now", "-1e3"]):
        outcomes = []
        for form in (argv, [*argv[:-2], f"{argv[-2]}={argv[-1]}"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(line))
            outcomes.append((main(form), capsys.readouterr().out))
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0, argv
        assert outcomes[0][1], argv


def test_genscenes_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        assert main(["genscenes", "--n", "3", "--seed", "7",
                     "--out", str(tmp_path / name)]) == 0
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    labels = (tmp_path / "a" / "labels.csv").read_text().splitlines()
    assert labels[0] == "id,px,py,theta"
    assert len(labels) == 4
    capsys.readouterr()


def test_train_zero_epochs_returns_init(tmp_path, capsys):
    assert main(["genscenes", "--n", "4", "--seed", "0",
                 "--out", str(tmp_path / "data")]) == 0
    out = tmp_path / "params.bin"
    rc = main(["train", "--data", str(tmp_path / "data"), "--epochs", "0",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    params = learned.load_params(out)
    init = learned.init_params(3)
    for a, b in zip(params.values(), init.values()):
        assert np.array_equal(a, b)
    capsys.readouterr()


def test_train_zero_epochs_prints_initial_loss(tmp_path, capsys):
    assert main(["genscenes", "--n", "4", "--seed", "0",
                 "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "data"), "--epochs", "0",
                 "--seed", "3", "--out", str(tmp_path / "params.bin")]) == 0
    dataset = learned.load_dataset(tmp_path / "data")
    want = learned.training_loss(learned.init_params(3), dataset)
    assert float(capsys.readouterr().out) == want


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--seed", "-1"], "--seed"),
    (["genscenes", "--n", "2", "--seed", "-1"], "--seed"),
    (["genscenes", "--n", "-3"], "--n"),
    (["genscenes", "--n", "0"], "--n"),
    (["train", "--seed", "-1"], "--seed"),
    (["train", "--epochs", "-1"], "--epochs"),
    (["train", "--lr", "nan"], "--lr"),
    (["train", "--lr", "-1"], "--lr"),
    (["train", "--set", "batch_size=0"], "batch_size"),
])
def test_bad_seed_count_and_rate_flags_exit_2(tmp_path, capsys, argv, flag):
    if argv[0] == "train":
        assert main(["genscenes", "--n", "2", "--out", str(tmp_path / "data")]) == 0
        argv = [*argv, "--data", str(tmp_path / "data")]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("labels, message", [
    ("id,px,py,theta\n0,120.0,70.0,nan\n", "finite"),
    ("id,px,py,theta\n0,120.0,70.0,inf\n", "finite"),
    ("id,px,py,theta\n0,nan,70.0,0.1\n", "finite"),
    ("id,px,py,theta\n1.5,120.0,70.0,0.1\n", "1.5"),
    ("id,px,py\n0,120.0,70.0\n", "theta"),
    ("id,px,py,theta\n7,120.0,70.0,0.1\n", "scene_0007.ppm"),
    ("id,px,py,theta\n0,120.0,70.0,3\n", "theta"),
    ("id,px,py,theta\n0,\udcff,70.0,0.1\n", "could not convert"),
], ids=["theta=nan", "theta=inf", "px=nan", "id=1.5", "no-theta-column",
        "no-scene-file", "theta=3", "non-utf8"])
def test_bad_labels_exit_2(tmp_path, capsys, labels, message):
    data = tmp_path / "data"
    assert main(["genscenes", "--n", "1", "--out", str(data)]) == 0
    (data / "labels.csv").write_text(labels, errors="surrogateescape")
    out = tmp_path / "params.bin"
    assert main(["train", "--data", str(data), "--epochs", "1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "labels.csv:2:" in captured.err and message in captured.err
    assert captured.out == "" and not out.exists()


def test_train_empty_dataset_exits_2(tmp_path, capsys):
    # Flat scenes have no label, so labels.csv holds only its header.
    data = tmp_path / "data"
    assert main(["genscenes", "--n", "1", "--flat", "--out", str(data)]) == 0
    out = tmp_path / "params.bin"
    assert main(["train", "--data", str(data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "dataset is empty" in captured.err and captured.out == ""
    assert not out.exists()


def test_train_divergence_exits_1_and_writes_nothing(tmp_path):
    data = tmp_path / "data"
    assert main(["genscenes", "--n", "8", "--seed", "0", "--out", str(data)]) == 0
    out, loss_csv = tmp_path / "params.bin", tmp_path / "loss.csv"
    # In a child process with numpy's overflow warnings ignored, only the
    # divergence check can set the exit code.
    src = str(Path(learned.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-m", "baggrasp", "train",
         "--data", str(data), "--lr", "1e300", "--epochs", "4",
         "--out", str(out), "--loss-out", str(loss_csv)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "training diverged in epoch 0" in proc.stderr
    assert not out.exists() and not loss_csv.exists()


def test_train_and_learned_vision(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["genscenes", "--n", "6", "--seed", "20",
                 "--out", str(data)]) == 0
    params = tmp_path / "p.bin"
    loss_csv = tmp_path / "loss.csv"
    rc = main(["train", "--data", str(data), "--epochs", "2", "--seed", "0",
               "--out", str(params), "--loss-out", str(loss_csv)])
    assert rc == 0
    assert loss_csv.read_text().splitlines()[0] == "epoch,loss"
    rc = main(["vision", "--mode", "learned", "--rgb",
               str(data / "scene_0000.ppm"), "--depth",
               str(data / "scene_0000.pgm"), "--params", str(params)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()[-1]
    prop = json.loads(out)
    assert set(prop) == {"x", "y", "theta", "t"}


def test_vision_learned_requires_depth_and_params(scene_files, capsys):
    rc = main(["vision", "--mode", "learned", "--rgb",
               str(scene_files / "scene.ppm")])
    assert rc == 2
    capsys.readouterr()


def test_simulate_seed7_bit_identical(tmp_path, capsys):
    for name in ("a", "b"):
        rc = main(["simulate", "--seed", "7", "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "a" / "report.json").read_bytes() \
        == (tmp_path / "b" / "report.json").read_bytes()
    capsys.readouterr()


def test_simulate_batch_summary(tmp_path, capsys):
    rc = main(["simulate", "--seed", "7", "--batch", "2",
               "--out", str(tmp_path / "batch")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "episodes,success_rate,good_grasp_rate"
    assert out[1].startswith("2,")
    assert (tmp_path / "batch" / "summary.csv").exists()


def test_simulate_batch_not_positive_exits_2(tmp_path, capsys):
    for n in ("0", "-2"):
        rc = main(["simulate", "--seed", "1", "--batch", n,
                   "--out", str(tmp_path / "batch")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--batch" in captured.err and captured.out == ""
    assert not (tmp_path / "batch").exists()


def test_simulate_file_vision(tmp_path, capsys):
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": 0.0}\n')
    rc = main(["simulate", "--seed", "0", "--vision", "file",
               "--proposals", str(props)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success"] is True


def test_simulate_file_vision_reads_no_seed(tmp_path, capsys):
    # File mode runs the proposals it is given: no seed, --seed 0 and
    # --seed 7 print the same report and write the same artifacts.
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": 0.0}\n')
    runs = []
    for name, seed in (("none", []), ("zero", ["--seed", "0"]), ("seven", ["--seed", "7"])):
        out = tmp_path / name
        assert main(["simulate", *seed, "--vision", "file", "--proposals", str(props),
                     "--out", str(out)]) == 0
        runs.append([capsys.readouterr().out] + [(out / f).read_bytes()
                                                 for f in ("report.json", "trace.csv")])
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("argv, mode", [
    ([], "classical"), (["--batch", "2"], "classical"),
    (["--vision", "learned", "--params", "p.bin"], "learned"),
    (["--vision", "learned", "--params", "p.bin", "--batch", "2"], "learned"),
], ids=["classical", "classical-batch", "learned", "learned-batch"])
def test_simulate_on_scenes_requires_a_seed(tmp_path, capsys, monkeypatch, argv, mode):
    monkeypatch.chdir(tmp_path)
    learned.save_params(learned.init_params(0), tmp_path / "p.bin")
    assert main(["simulate", "--out", "episode", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--vision {mode} requires --seed" in captured.err
    assert not (tmp_path / "episode").exists()


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
def test_simulate_empty_proposals_file_exits_2(tmp_path, capsys, text):
    # No proposal runs no episode: nothing is printed or written.
    props = tmp_path / "props.jsonl"
    props.write_text(text)
    rc = main(["simulate", "--seed", "0", "--vision", "file",
               "--proposals", str(props), "--out", str(tmp_path / "episode")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{props}: no proposals" in captured.err
    assert not (tmp_path / "episode").exists()


@pytest.mark.parametrize("flag", ["--depth", "--params"])
def test_vision_classical_rejects_a_flag_it_never_reads(scene_files, tmp_path, capsys,
                                                       flag):
    # Classical vision reads no depth image and no params: naming either,
    # here a missing file, exits 2 before anything is written.
    overlay = tmp_path / "overlay.ppm"
    rc = main(["vision", "--mode", "classical", "--rgb", str(scene_files / "scene.ppm"),
               "--overlay", str(overlay), flag, str(tmp_path / "missing")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag} is not read with --mode classical" in captured.err
    assert not overlay.exists()


@pytest.mark.parametrize("argv, flag, mode", [
    (["--vision", "classical", "--params", "p.bin"], "--params", "--vision classical"),
    (["--vision", "file", "--proposals", "props.jsonl", "--params", "p.bin"],
     "--params", "--vision file"),
    (["--vision", "classical", "--proposals", "props.jsonl"], "--proposals",
     "--vision classical"),
    (["--vision", "learned", "--params", "p.bin", "--proposals", "props.jsonl"],
     "--proposals", "--vision learned"),
    (["--batch", "2", "--flat"], "--flat", "--batch"),
    (["--vision", "file", "--proposals", "props.jsonl", "--flat"], "--flat",
     "--vision file"),
], ids=["params-classical", "params-file", "proposals-classical", "proposals-learned",
        "flat-batch", "flat-file"])
def test_simulate_rejects_a_flag_the_mode_never_reads(tmp_path, capsys, monkeypatch,
                                                      argv, flag, mode):
    # Each flag names an existing file the mode would not read; the run
    # exits 2 naming it, prints nothing and writes no --out directory.
    monkeypatch.chdir(tmp_path)
    learned.save_params(learned.init_params(0), tmp_path / "p.bin")
    (tmp_path / "props.jsonl").write_text('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": 0.0}\n')
    assert main(["simulate", "--seed", "0", "--out", "episode", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag} is not read with {mode}" in captured.err
    assert not (tmp_path / "episode").exists()


def test_simulate_batch_file_vision_exits_2(tmp_path, capsys):
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": 0.0}\n')
    rc = main(["simulate", "--seed", "0", "--batch", "2", "--vision", "file",
               "--proposals", str(props), "--out", str(tmp_path / "batch")])
    assert rc == 2
    assert "single episode" in capsys.readouterr().err
    assert not (tmp_path / "batch").exists()


def test_more_than_max_frames_proposals_in_the_window_exit_2(tmp_path, monkeypatch,
                                                            capsys):
    # The denoiser's pairwise arrays grow as n^2 (about 47 MiB at the cap), so
    # it takes at most MAX_FRAMES proposals inside its window, from either
    # input; one older than the window does not count.
    assert config.MAX_FRAMES == 1000
    line = '{{"x": 0.6, "y": 0.1, "theta": 0.2, "t": {}}}\n'
    old = line.format(-20.0)
    for n, older, rc in ((1000, "", 0), (1000, old, 0), (1001, "", 2)):
        lines = older + "".join(line.format(k / 1000) for k in range(n))
        props, out = tmp_path / "props.jsonl", tmp_path / f"ep{n}{bool(older)}"
        props.write_text(lines)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["denoise"]) == rc
        denoised = capsys.readouterr()
        assert main(["simulate", "--seed", "0", "--vision", "file", "--proposals",
                     str(props), "--out", str(out)]) == rc
        simulated = capsys.readouterr()
        if rc:
            for captured in (denoised, simulated):
                assert captured.out == "" and "1001 proposals" in captured.err
        else:
            assert json.loads(denoised.out)["t"] == (n - 1) / 1000
            report = json.loads(simulated.out)
            assert report["stats"]["proposals_collected"] == n + bool(older)
        assert out.exists() == (rc == 0)


def test_nonfinite_timestamp_exits_2(tmp_path, monkeypatch, capsys):
    for line in ('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": NaN}\n',
                 '{"x": 1e300, "y": 0.0, "theta": 0.2, "t": 0.0}\n',
                 '{"x": 0.6, "y": 0.0, "theta": \udcff, "t": 0.0}\n',
                 '{"x": true, "y": 0.0, "theta": 0.2, "t": 0.0}\n',
                 '{"x": "0.6", "y": 0.0, "theta": 0.2, "t": 0.0}\n',
                 '{"x": 0.6, "y": 0.0, "theta": 0.2, "t": null}\n'):
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["denoise"]) == 2
        assert "malformed proposal line" in capsys.readouterr().err
        props = tmp_path / "props.jsonl"
        props.write_text(line, errors="surrogateescape")
        assert main(["simulate", "--seed", "0", "--vision", "file",
                     "--proposals", str(props)]) == 2
        assert "malformed proposal line" in capsys.readouterr().err


def test_times_beyond_max_timestamp_exit_2(tmp_path, capsys):
    # Past MAX_TIMESTAMP, now + duration can round back to now, and the
    # episode failed planning with exit 0; each such time names its input
    # (test_plan_bad_target_exits_2 has --ti and --tf).
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.1, "theta": 0.2, "t": 1e17}\n')
    for argv, where in [
            (["simulate", "--seed", "1", "--vision", "file", "--proposals", str(props)],
             f"{props}:1"),
            (["simulate", "--seed", "1", "--set", "window=1e17",
              "--set", "frame_rate=1e-17"], "window"),
            (["vision", "--rgb", str(tmp_path / "none.ppm"), "--t", "1e17"], "--t"),
            (["denoise", "--now", "-1e17"], "--now: expected a time within")]:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert where in captured.err and captured.out == "", argv


def test_times_at_max_timestamp_run(tmp_path, monkeypatch, capsys):
    assert config.MAX_TIMESTAMP == 1e10
    line = '{"x": 0.6, "y": 0.1, "theta": 0.2, "t": 1e10}\n'
    props = tmp_path / "props.jsonl"
    props.write_text(line)
    for argv in (["--vision", "file", "--proposals", str(props)],
                 ["--set", "window=1e10", "--set", "frame_rate=1e-10"]):
        assert main(["simulate", "--seed", "1", *argv]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        assert report["success"] and report["stats"]["control_steps"] == 700, argv
    out = tmp_path / "traj.csv"
    assert main(["plan", "--target", "0.6,0.1", "--ti", "9999999995", "--tf", "1e10",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("10000000000.0,")
    monkeypatch.setattr("sys.stdin", io.StringIO(line))
    assert main(["denoise", "--now", "1e10"]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == 1e10
    # A duration just over half a float step at 1e10 s still moves that
    # window end (test_bad_set_override_exits_2 has the shorter ones).
    assert main(["simulate", "--seed", "1", "--set", "window=1e10", "--set",
                 "frame_rate=1e-10", "--set", "duration=9.6e-7"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["control_steps"] == 200


def test_config_file_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("sigma=1.2\ncolor_low=150,40,0\n# comment\n")
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.0, "theta": 0.0, "t": 0.0}\n')
    rc = main(["simulate", "--seed", "0", "--vision", "file", "--proposals",
               str(props), "--config", str(cfg_file), "--set", "duration=2.0"])
    assert rc == 0
    capsys.readouterr()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "conf.txt"
    for key in ("not_a_key", "table_z", "epochs", "lr", "\udcff"):
        cfg_file.write_text(f"{key}=1\n", errors="surrogateescape")
        rc = main(["simulate", "--seed", "0", "--config", str(cfg_file)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


def test_bad_set_override_exits_2(capsys):
    rc = main(["simulate", "--seed", "0", "--set", "nope=3"])
    assert rc == 2
    capsys.readouterr()
    for item in ("k_d=nan", "damping=nan", "settle_time=-5", "qdot_max=-1",
                 "control_rate=inf", "grasp_z=nan", "frame_rate=0",
                 "frame_rate=1e6", "scene_width=12.5", "sigma=abc",
                 "color_low=1,x,3", "color_high=1,2", "duration=1e9",
                 "control_rate=1e6", "scene_width=100000", "scene_height=100000",
                 "sigma=1e300", "scale_y=1e300", "shift_x=1e300", "grasp_z=1e300",
                 "scale_x=1e-300", "damping=1e300", "k_d=1e308", "sigma=1e-300",
                 "control_rate=0.01", "noise_sigma=65535.5", "noise_sigma=1e308",
                 # Half a float step at MAX_TIMESTAMP or less: now + duration
                 # rounded back to now, and planning failed with exit 0.
                 "duration=1e-17", "duration=9e-7"):
        assert main(["simulate", "--seed", "7", "--set", item]) == 2, item
        captured = capsys.readouterr()
        assert item.split("=")[0] in captured.err and captured.out == ""
    # A control loop of 0 steps.
    assert main(["simulate", "--seed", "7", "--set", "settle_time=0",
                 "--set", "duration=1e-9"]) == 2
    captured = capsys.readouterr()
    assert "duration + settle_time" in captured.err and captured.out == ""


ARM_LINES = kinematics.default_arm_path().read_text().splitlines()


@pytest.mark.parametrize("bad_line, where, message", [
    ("joint nan 0 1  0.0 0.0 0.0  -2.9 2.9", ":8:", "finite"),
    ("joint 0 0 1  0.0 0.0 0.0  -2.9 inf", ":8:", "finite"),
    ("joint 0 0 1  0.0 abc 0.0  -2.9 2.9", ":8:", "could not convert"),
    ("zero_pose 0.9 0.0 0.17  -1 0 0  0 1 0  0 0 NaN", ":7:", "finite"),
    ("joint 0 0 1  0.0 0.0 0.0  2.9 -2.9", "arm.txt:", "lower < upper"),
    ("joint 0 0 1  0.0 \udcff 0.0  -2.9 2.9", ":8:", "could not convert"),
    ("zero_pose 0.9 0.0 0.17  -1 0 0  0 1 0  0 0 1", "arm.txt:", "rotation"),
    ("joint 0 0 1  0.0 0.0 1e300  -2.9 2.9", "arm.txt:", "within"),
])
def test_bad_arm_file_exits_2(tmp_path, capsys, bad_line, where, message):
    # Replace the line of the same tag: line 7 is zero_pose, line 8 joint 1.
    lines = list(ARM_LINES)
    lines[6 if bad_line.startswith("zero_pose") else 7] = bad_line
    arm = tmp_path / "arm.txt"
    arm.write_text("\n".join(lines) + "\n", errors="surrogateescape")
    for argv in (["simulate", "--seed", "7"], ["plan", "--target", "0.6,0.1"]):
        assert main([*argv, "--set", f"arm_file={arm}"]) == 2, argv
        captured = capsys.readouterr()
        assert where in captured.err and message in captured.err, argv
        assert captured.out == "" and "--start" not in captured.err, argv


def test_missing_arm_file_exits_2(tmp_path, capsys):
    arm = tmp_path / "nope.txt"
    for argv in (["simulate", "--seed", "7", "--batch", "2"],
                 ["plan", "--target", "0.6,0.1"]):
        assert main([*argv, "--set", f"arm_file={arm}"]) == 2, argv
        captured = capsys.readouterr()
        assert "nope.txt" in captured.err and captured.out == "", argv
        assert "--start" not in captured.err, argv


def _names_used(tree) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_src_name_has_a_src_caller():
    # A public module-level function or class that only tests call is dead
    # weight: each must be named somewhere in src outside its own definition
    # (an import alone does not count).
    src = Path(sim.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    used = sum(map(_names_used, trees.values()), Counter())
    uncalled = [f"{module}.{node.name}" for module, tree in trees.items()
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and used[node.name] == _names_used(node)[node.name]]
    assert uncalled == []


def _calls_by_name(trees) -> dict:
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            calls.setdefault(name, []).append(node)
    return calls


def _sets(call, index, name) -> bool:
    """Whether call passes the parameter name, at positional index (None for a
    keyword-only one); *args and **kwargs count as passing it."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or index is not None and (len(call.args) > index or any(
                isinstance(a, ast.Starred) for a in call.args)))


def test_every_defaulted_src_parameter_is_set_by_a_caller():
    # A default that no call overrides is a constant in disguise. Callers are
    # src and perfbench (it drives the CLI through cli.main(argv)), matched by
    # the function's name.
    src = sorted(Path(sim.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert bench
    calls = _calls_by_name(ast.parse(p.read_text()) for p in src + bench)
    unset = []
    for path in src:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            params += [(None, a.arg) for a, default in zip(args.kwonlyargs,
                                                           args.kw_defaults)
                       if default is not None]
            unset += [f"{path.stem}.{node.name}({name})" for index, name in params
                      if not any(_sets(call, index, name)
                                 for call in calls.get(node.name, []))]
    assert unset == []


def _package_imports(path) -> set:
    """The baggrasp modules a source file imports, relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["baggrasp" if node.level else "",
                                            node.module]))
            mods = ([f"{module}.{a.name}" for a in node.names] if module == "baggrasp"
                    else [module])
        elif isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        else:
            continue
        names |= {m.split(".")[1] for m in mods if m.startswith("baggrasp.")}
    return names


def test_control_layer_imports_only_so3_and_config():
    # so3 -> trajectory -> kinematics pass arrays and the config: no vision,
    # simulator or CLI type reaches the control law.
    src = Path(sim.__file__).parent
    for module in ("so3", "trajectory", "kinematics"):
        assert _package_imports(src / f"{module}.py") <= {"so3", "config"}, module


_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "update",
             "setdefault", "popitem", "add", "discard", "sort", "reverse", "fill",
             "put", "resize"}


def _root_name(node):
    """The name at the root of a chain of subscripts and attributes, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_state_writes(tree) -> list:
    """(function, line) of each write, inside a function, into a name that
    the module binds: an item, slice or attribute assignment or deletion, an
    augmented assignment, a mutating method call or an out= argument on it,
    or a global statement."""
    bound = {n.id for stmt in tree.body
             if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
             for n in ast.walk(stmt) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Store)}
    writes = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        shared = bound - local
        for node in ast.walk(fn):
            hits = []
            if isinstance(node, (ast.Subscript, ast.Attribute)) and not isinstance(
                    node.ctx, ast.Load):
                hits = [node]
            elif isinstance(node, ast.AugAssign):
                hits = [node.target]
            elif isinstance(node, ast.Call):
                hits = [k.value for k in node.keywords if k.arg == "out"]
                if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                    hits.append(node.func.value)
            if isinstance(node, ast.Global) or any(_root_name(h) in shared for h in hits):
                writes.append((getattr(fn, "name", "<lambda>"), node.lineno))
    return sorted(set(writes))


def test_no_src_function_writes_module_state():
    # A frame's state has one owner, the workspace its caller passes: no
    # src function keeps state between calls in a module-level name.
    src = Path(sim.__file__).parent
    writes = {path.stem: _module_state_writes(ast.parse(path.read_text()))
              for path in sorted(src.glob("*.py"))}
    assert {module: w for module, w in writes.items() if w} == {}
