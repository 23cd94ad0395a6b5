import io
import json
from pathlib import Path

import numpy as np
import pytest

from baggrasp import config, image_io, kinematics, learned, sim
from baggrasp.cli import main
from baggrasp.classical import CameraCalibration, classical_pipeline


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
    assert "not found" in capsys.readouterr().err


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
    assert (overlay.pixels == (255, 0, 0)).all(axis=2).any()
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


def test_denoise_empty_stdin_exits_1(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["denoise"]) == 1
    capsys.readouterr()


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
                        (["--tf", "nan"], "--tf"),
                        (["--ti", "inf"], "--ti"),
                        (["--theta", "nan"], "--theta"),
                        (["--theta", "3"], "--theta"),
                        (["--rate", "0"], "--rate"),
                        (["--rate", "nan"], "--rate"),
                        (["--ti", "5", "--tf", "5"], "--tf"),
                        (["--rate", "1e300"], "--rate"),
                        (["--tf", "1e9"], "--tf"),
                        (["--target", "2000,0"], "--target"),
                        # Valid flags whose start yaw is half a turn from the grasp.
                        (["--start", "0.5,0,0.3,3.141592653589793", "--theta", "0"],
                         "--start, --theta")]:
        # A repeated --target overrides the first one.
        assert main(["plan", "--target", "0.6,0.1", *extra]) == 2, extra
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == "", extra


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


def test_simulate_batch_file_vision_exits_2(tmp_path, capsys):
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": 0.0}\n')
    rc = main(["simulate", "--seed", "0", "--batch", "2", "--vision", "file",
               "--proposals", str(props), "--out", str(tmp_path / "batch")])
    assert rc == 2
    assert "single episode" in capsys.readouterr().err
    assert not (tmp_path / "batch").exists()


def test_nonfinite_timestamp_exits_2(tmp_path, monkeypatch, capsys):
    for line in ('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": NaN}\n',
                 '{"x": 1e300, "y": 0.0, "theta": 0.2, "t": 0.0}\n',
                 '{"x": 0.6, "y": 0.0, "theta": \udcff, "t": 0.0}\n'):
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["denoise"]) == 2
        assert "malformed proposal line" in capsys.readouterr().err
        props = tmp_path / "props.jsonl"
        props.write_text(line, errors="surrogateescape")
        assert main(["simulate", "--seed", "0", "--vision", "file",
                     "--proposals", str(props)]) == 2
        assert "malformed proposal line" in capsys.readouterr().err


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
                 "scale_x=1e-300", "damping=1e300", "k_d=1e308", "sigma=1e-300"):
        assert main(["simulate", "--seed", "7", "--set", item]) == 2, item
        captured = capsys.readouterr()
        assert item.split("=")[0] in captured.err and captured.out == ""


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
        assert captured.out == "", argv


def test_missing_arm_file_exits_2(tmp_path, capsys):
    arm = tmp_path / "nope.txt"
    for argv in (["simulate", "--seed", "7", "--batch", "2"],
                 ["plan", "--target", "0.6,0.1"]):
        assert main([*argv, "--set", f"arm_file={arm}"]) == 2, argv
        captured = capsys.readouterr()
        assert "nope.txt" in captured.err and captured.out == "", argv
