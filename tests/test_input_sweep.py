"""Seeded sweeps over every kind of input the CLI reads: config values,
proposal lines, arm files and labels.csv rows, and every input file given as
a missing path or a directory. Each input must work (exit 0) or be rejected
(exit 2 with empty stdout); never exit 1 or raise, and every JSON written
must be strict (no NaN or Infinity)."""

import dataclasses
import io
import json
import math
import shutil

import numpy as np
import pytest

from baggrasp import config, image_io, kinematics, learned
from baggrasp.cli import main

# Ten control steps per episode, so each draw costs milliseconds.
SHORT = ["--set", "duration=0.5", "--set", "settle_time=0", "--set", "control_rate=20"]
EXTREMES = ["0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "1e308", "nan",
            "inf", "-inf"]
KEYS = [f.name for f in dataclasses.fields(config.PipelineConfig)]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _run(argv, capsys) -> tuple[int, str]:
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc in (0, 2), argv
    assert rc == 0 or out == "", argv
    return rc, out


def _simulate_file_vision(props, tmp_path, capsys) -> None:
    out_dir = tmp_path / "episode"
    rc, out = _run(["simulate", "--seed", "0", *SHORT, "--vision", "file",
                    "--proposals", str(props), "--out", str(out_dir)], capsys)
    if rc == 0:
        _strict_json(out)
        _strict_json((out_dir / "report.json").read_text())


def test_config_values(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pool = EXTREMES + ["0.5", "3", "64", "abc", "", "1,2,3", "255,0,0"]
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": 0.0}\n')
    for draw in range(100):
        sets = []
        for _ in range(rng.integers(1, 4)):
            value = (pool[rng.integers(len(pool))] if rng.random() < 0.8
                     else repr(rng.uniform(-4.0, 4.0)))
            sets += ["--set", f"{KEYS[rng.integers(len(KEYS))]}={value}"]
        out_dir = tmp_path / f"run{draw}"
        argv = ["simulate", "--seed", str(draw), *SHORT, *sets, "--out", str(out_dir)]
        if draw % 2:
            argv += ["--vision", "file", "--proposals", str(props)]
        rc, out = _run(argv, capsys)
        if rc == 0:
            _strict_json(out)
            _strict_json((out_dir / "report.json").read_text())


def _proposal_line(rng) -> str:
    if rng.random() < 0.1:  # undecodable bytes, as a reader sees them
        return bytes(rng.integers(0, 256, 8, dtype=np.uint8)).decode(
            errors="surrogateescape")
    pool = EXTREMES[:7] + ["NaN", "Infinity", "1e400", "1" + "0" * 400,
                           '"0.3"', '"abc"', "null", "true", "[]"]
    fields = []
    for key, good in (("x", "0.6"), ("y", "0.0"), ("theta", "0.2"), ("t", "0.0")):
        if rng.random() < 0.05:
            continue
        r = rng.random()
        value = (pool[rng.integers(len(pool))] if r < 0.15
                 else repr(rng.uniform(-1.0, 1.0)) if r < 0.6 else good)
        fields.append(f'"{key}": {value}')
    return "{" + ", ".join(fields) + "}"


def test_proposal_lines(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(1)
    props = tmp_path / "props.jsonl"
    for _ in range(60):
        text = "".join(_proposal_line(rng) + "\n" for _ in range(rng.integers(1, 5)))
        props.write_text(text, errors="surrogateescape")
        _simulate_file_vision(props, tmp_path, capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        rc, out = _run(["denoise"], capsys)
        if rc == 0:
            _strict_json(out)


def test_arm_files(tmp_path, capsys):
    rng = np.random.default_rng(2)
    arm_lines = kinematics.default_arm_path().read_text().splitlines()
    pool = EXTREMES + ["1", "0.5", "1e3", "-1e3", "abc", "\udcff"]
    props = tmp_path / "props.jsonl"
    props.write_text('{"x": 0.6, "y": 0.0, "theta": 0.2, "t": 0.0}\n')
    arm = tmp_path / "arm.txt"
    for _ in range(60):
        lines = list(arm_lines)
        for _ in range(rng.integers(1, 3)):
            data = [i for i, line in enumerate(lines) if line and line[0] != "#"]
            i = data[rng.integers(len(data))]
            parts = lines[i].split()
            r = rng.random()
            if r < 0.7:
                parts[rng.integers(1, len(parts))] = pool[rng.integers(len(pool))]
                lines[i] = " ".join(parts)
            elif r < 0.8:
                del lines[i]
            elif r < 0.9:
                lines.insert(i, lines[i])
            else:
                lines[i] += " 1"
        arm.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        _run(["plan", "--target", "0.6,0.1", "--set", f"arm_file={arm}"], capsys)
        _simulate_file_vision(props, tmp_path, capsys)


def test_labels_rows(tmp_path, capsys):
    rng = np.random.default_rng(3)
    data = tmp_path / "data"
    assert main(["genscenes", "--n", "3", "--seed", "0", "--out", str(data)]) == 0
    good = (data / "labels.csv").read_text().splitlines()[1:]
    pool = EXTREMES + ["1", "1.5", "3", "120.0", "99999", "abc", "", "\udcff"]
    for _ in range(60):
        rows = ["id,px,py,theta"]
        for _ in range(rng.integers(1, 4)):
            parts = good[rng.integers(len(good))].split(",")
            if rng.random() < 0.7:
                parts[rng.integers(4)] = pool[rng.integers(len(pool))]
            if rng.random() < 0.1:
                parts = parts[:rng.integers(4)]
            rows.append(",".join(parts))
        (data / "labels.csv").write_text("\n".join(rows) + "\n",
                                         errors="surrogateescape")
        rc, out = _run(["train", "--data", str(data), "--epochs", "1",
                        "--out", str(tmp_path / "params.bin")], capsys)
        if rc == 0:
            assert math.isfinite(float(out)), rows


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    assert main(["genscenes", "--n", "1", "--seed", "0", "--out", str(root)]) == 0
    learned.save_params(learned.init_params(0), root / "params.bin")
    return root


# Each file input: its CLI argv around a bad path `bad` inside an existing
# directory, given the good inputs `good`.
FILE_INPUTS = {
    "--config": lambda good, bad: ["plan", "--target", "0.6,0.1",
                                   "--config", str(bad)],
    "arm_file": lambda good, bad: ["plan", "--target", "0.6,0.1",
                                   "--set", f"arm_file={bad}"],
    "--proposals": lambda good, bad: ["simulate", "--seed", "0", "--vision", "file",
                                      "--proposals", str(bad)],
    "--rgb": lambda good, bad: ["vision", "--rgb", str(bad)],
    "--depth": lambda good, bad: ["vision", "--mode", "learned",
                                  "--rgb", str(good / "scene_0000.ppm"),
                                  "--depth", str(bad),
                                  "--params", str(good / "params.bin")],
    "--params": lambda good, bad: ["vision", "--mode", "learned",
                                   "--rgb", str(good / "scene_0000.ppm"),
                                   "--depth", str(good / "scene_0000.pgm"),
                                   "--params", str(bad)],
    "simulate --params": lambda good, bad: ["simulate", "--seed", "0",
                                            "--vision", "learned",
                                            "--params", str(bad)],
    "--data": lambda good, bad: ["train", "--data", str(bad.parent),
                                 "--out", str(bad.parent / "out.bin")],
    "scene file": lambda good, bad: ["train", "--data", str(bad.parent),
                                     "--out", str(bad.parent / "out.bin")],
}


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("name", FILE_INPUTS)
def test_unreadable_input_files(good_inputs, tmp_path, capsys, name, kind):
    bad = tmp_path / "in" / {"--data": "labels.csv",
                             "scene file": "scene_0000.ppm"}.get(name, "input")
    bad.parent.mkdir()
    if name == "scene file":  # labels.csv names scene 0; only its .pgm is there
        for other in ("labels.csv", "scene_0000.pgm"):
            shutil.copy(good_inputs / other, bad.parent)
    if kind == "directory":
        bad.mkdir()
    assert main(FILE_INPUTS[name](good_inputs, bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(bad) in captured.err
    if name == "scene file":
        assert "labels.csv:2:" in captured.err


@pytest.mark.parametrize("name", ["--rgb", "--depth", "scene file"])
def test_oversized_netpbm_header_field(good_inputs, tmp_path, capsys, name):
    # A field longer than int() converts (4,300 digits) is rejected input.
    bad = tmp_path / "in" / ("scene_0000.ppm" if name == "scene file" else "input")
    bad.parent.mkdir()
    if name == "scene file":
        for other in ("labels.csv", "scene_0000.pgm"):
            shutil.copy(good_inputs / other, bad.parent)
    magic, maxval = (b"P5", b"65535") if name == "--depth" else (b"P6", b"255")
    bad.write_bytes(magic + b"\n" + b"7" * 5000 + b" 1\n" + maxval + b"\n\0\0\0")
    assert main(FILE_INPUTS[name](good_inputs, bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{bad}: header field too long" in captured.err


@pytest.mark.parametrize("command", ["vision", "train"])
@pytest.mark.parametrize("rgb_size, depth_size", [((256, 144), (128, 72)),
                                                   ((2, 2), (2, 2))],
                         ids=["mismatched", "2x2"])
def test_learned_image_pair_sizes(good_inputs, tmp_path, capsys, command,
                                  rgb_size, depth_size):
    # A pair of two sizes, or one too small to crop, is rejected input.
    (w, h), (dw, dh) = rgb_size, depth_size
    rgb, depth = tmp_path / "scene_0000.ppm", tmp_path / "scene_0000.pgm"
    image_io.save_ppm(image_io.RgbImage(np.full((h, w, 3), 100, np.uint8)), rgb)
    image_io.save_pgm(image_io.DepthImage(np.full((dh, dw), 800, np.uint16)), depth)
    if command == "vision":
        argv = ["vision", "--mode", "learned", "--rgb", str(rgb), "--depth", str(depth),
                "--params", str(good_inputs / "params.bin")]
    else:
        (tmp_path / "labels.csv").write_text("id,px,py,theta\n0,1.0,1.0,0.1\n")
        argv = ["train", "--data", str(tmp_path), "--out", str(tmp_path / "out.bin")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = [rgb, depth] if command == "vision" else [tmp_path / "labels.csv:2:"]
    assert all(str(path) in captured.err for path in named), captured.err
